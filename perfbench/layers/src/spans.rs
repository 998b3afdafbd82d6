//! The benchmark's span recorder.
//!
//! Spans are recorded around calls into the program's public layer
//! functions, not inside them. Each span has a name, start and end
//! (nanoseconds since the recorder's epoch), the index of its parent
//! span, the id of the job or request it belongs to, and a few
//! attributes. They stay in memory until [`Recorder::to_json`] writes
//! them out at the end of the run. A disabled recorder only runs the
//! closures, so the same pass can be timed with and without tracing.

use std::time::Instant;

use trigon_telemetry::Json;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    id: u64,
    attrs: Vec<(&'static str, Json)>,
}

/// In-memory span store with a stack of open spans.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// An enabled recorder whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            enabled: true,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for job or request `id`.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            id,
            attrs: Vec::new(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Attaches an attribute to the innermost open span.
    pub fn attr(&mut self, key: &'static str, value: impl Into<Json>) {
        if !self.enabled {
            return;
        }
        if let Some(&idx) = self.open.last() {
            self.spans[idx].attrs.push((key, value.into()));
        }
    }

    /// The spans as a JSON array, in opening order.
    pub fn to_json(&self) -> Json {
        Json::Array(
            self.spans
                .iter()
                .map(|s| {
                    let mut o = Json::object();
                    o.set("name", Json::from(s.name));
                    o.set("start_ns", Json::from(s.start_ns));
                    o.set("end_ns", Json::from(s.end_ns));
                    o.set("parent", s.parent.map_or(Json::Null, Json::from));
                    o.set("id", Json::from(s.id));
                    for (k, v) in &s.attrs {
                        o.set(k, v.clone());
                    }
                    o
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_parents_and_skip_when_disabled() {
        let mut rec = Recorder::new(Instant::now());
        rec.span("outer", 1, |rec| {
            rec.attr("k", 7u64);
            rec.span("inner", 1, |_| ());
        });
        rec.set_enabled(false);
        rec.span("hidden", 2, |rec| rec.attr("k", 1u64));
        let Json::Array(spans) = rec.to_json() else {
            panic!("spans are an array")
        };
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[0].get("k"), Some(&Json::from(7u64)));
        assert_eq!(spans[1].get("parent"), Some(&Json::from(0usize)));
    }
}
