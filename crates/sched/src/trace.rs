//! Tracing hooks: turn a computed [`Schedule`] into
//! per-SM device spans on a [`Tracer`].
//!
//! The §VI dispatcher assigns chunk jobs to streaming multiprocessors;
//! [`trace_schedule`] replays that assignment as one span per job on
//! the job's machine lane, packed back-to-back in assignment order —
//! exactly the Gantt chart the makespan objective `l_max = max_i l_i`
//! is computed over.

use crate::Schedule;
use trigon_telemetry::{AttrValue, Tracer, Track};

/// Emits one device span per job onto its assigned machine's SM track,
/// with jobs on the same machine packed contiguously starting at
/// `start_cycles` (e.g. the end of the host→device transfer). Span
/// attributes record the job index and its processing time. Returns the
/// schedule end time in cycles: `start_cycles + makespan`.
///
/// No-op (returning the same value) when the tracer is disabled.
pub fn trace_schedule(
    tracer: &Tracer,
    schedule: &Schedule,
    jobs: &[u64],
    cat: &str,
    start_cycles: u64,
) -> u64 {
    if !tracer.enabled() {
        return start_cycles + schedule.makespan();
    }
    let mut cursor = vec![start_cycles; schedule.loads.len()];
    for (j, (&p, &m)) in jobs.iter().zip(&schedule.assignment).enumerate() {
        let at = cursor[m as usize];
        tracer.device_span(
            &format!("job {j}"),
            cat,
            Track::Sm(m),
            at,
            p,
            &[
                ("job", AttrValue::UInt(j as u64)),
                ("cycles", AttrValue::UInt(p)),
            ],
        );
        cursor[m as usize] = at + p;
    }
    start_cycles + schedule.makespan()
}

/// [`trace_schedule`] for run-length-encoded jobs (see
/// [`crate::lpt_runs`]): expands `runs` into the per-job list and its
/// [`crate::lpt`] schedule, so the spans match a trace of the expanded
/// jobs exactly. No-op when the tracer is disabled — the expansion is
/// paid only by traced runs.
pub fn trace_runs(
    tracer: &Tracer,
    runs: &[(u64, u64)],
    machines: u32,
    cat: &str,
    start_cycles: u64,
) {
    if !tracer.enabled() {
        return;
    }
    let jobs: Vec<u64> = runs
        .iter()
        .flat_map(|&(c, k)| std::iter::repeat_n(c, k as usize))
        .collect();
    trace_schedule(
        tracer,
        &crate::lpt(&jobs, machines),
        &jobs,
        cat,
        start_cycles,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lpt;

    #[test]
    fn spans_pack_per_machine_and_end_at_makespan() {
        let jobs = [7u64, 5, 3, 2];
        let s = lpt(&jobs, 2);
        let tracer = Tracer::new();
        let end = trace_schedule(&tracer, &s, &jobs, "kernel", 100);
        assert_eq!(end, 100 + s.makespan());
        assert_eq!(tracer.span_count(), jobs.len());
        let spans = tracer.spans();
        // Per-machine spans are contiguous: sum of durations on each
        // track equals that machine's load.
        for (m, &load) in s.loads.iter().enumerate() {
            let mine: Vec<_> = spans
                .iter()
                .filter(|sp| sp.track == Track::Sm(m as u32))
                .collect();
            let total: u64 = mine.iter().map(|sp| sp.dur).sum();
            assert_eq!(total, load);
            let max_end = mine.iter().map(|sp| sp.start + sp.dur).max().unwrap_or(100);
            assert_eq!(max_end, 100 + load);
        }
    }

    #[test]
    fn disabled_tracer_still_reports_end() {
        let jobs = [4u64, 4];
        let s = lpt(&jobs, 2);
        let tracer = Tracer::disabled();
        assert_eq!(trace_schedule(&tracer, &s, &jobs, "kernel", 0), 4);
        assert_eq!(tracer.span_count(), 0);
    }
}
