//! The traced run: the workload's work, called layer by layer in
//! process, in the order the CLI path uses the layers.
//!
//! One pass does, for each graph of the selection, ingest
//! (`graph.io.parse`), the ALS decomposition (`core.als.build`), the
//! Algorithm 1 split (`core.split`), the Eq. 6 hybrid pass
//! (`core.hybrid.pass`, for graphs a device method runs on) and the
//! host intersection count
//! (`core.intersect.count`); for each job on that graph, `Run::execute`
//! at `Off` and at `Standard`, report serialization and a framed wire
//! round trip of the response; and then a request script through an
//! in-process `Server::handle` (`serve.server.handle`). Passes alternate
//! between recording spans and not, so the run also measures what
//! tracing costs. Counts and cache outcomes go into span attributes for
//! `run.py` to check and aggregate.

use std::time::Instant;

use trigon_core::hybrid::{run_hybrid_collected, HybridConfig};
use trigon_core::split::{split_graph, SplitConfig};
use trigon_core::{build_als, intersect, Level, Method};
use trigon_gpu_sim::DeviceSpec;
use trigon_serve::{Server, ServerConfig, Wire};
use trigon_telemetry::{Collector, Json};

use crate::spans::Recorder;
use crate::{GraphSpec, Job, Plan, Source};

/// Each kind of pass (traced, untraced) runs at least this often.
const MIN_PASSES: usize = 2;

/// Cached re-queries per CLI job in the server script.
const HITS_PER_JOB: usize = 20;

/// Registry and admission counters copied from the `report` op.
const STAT_KEYS: [&str; 9] = [
    "admitted",
    "routed",
    "rejected",
    "busy",
    "result_hits",
    "result_misses",
    "artifact_hits",
    "artifact_misses",
    "evictions",
];

/// What one pass covers.
struct Selection<'p> {
    graphs: Vec<&'p GraphSpec>,
    jobs: Vec<&'p Job>,
    script: Vec<Json>,
}

fn select(plan: &Plan) -> Result<Selection<'_>, String> {
    if plan.conns.is_empty() {
        // CLI workload: every graph and job; the script loads each
        // graph, asks each job once cold and then warm, and evicts.
        let mut script = Vec::new();
        for spec in &plan.graphs {
            let mut load = Json::object();
            load.set("op", Json::from("load"));
            load.set("name", Json::from(spec.name.as_str()));
            load.set("path", Json::from(spec.path.as_deref().unwrap_or("")));
            script.push(load);
        }
        for job in &plan.jobs {
            let mut q = Json::object();
            q.set("op", Json::from("query"));
            q.set("graph", Json::from(job.graph.as_str()));
            q.set("method", Json::from(job.method.as_str()));
            q.set("workload", Json::from(job.workload.as_str()));
            for _ in 0..=HITS_PER_JOB {
                script.push(q.clone());
            }
        }
        for spec in &plan.graphs {
            let mut evict = Json::object();
            evict.set("op", Json::from("evict"));
            evict.set("name", Json::from(spec.name.as_str()));
            script.push(evict);
        }
        return Ok(Selection {
            graphs: plan.graphs.iter().collect(),
            jobs: plan.jobs.iter().collect(),
            script,
        });
    }
    // serve-zipf: the layer jobs over their graphs, and the setup plus
    // the first `trace_ops` requests of each connection, interleaved.
    let mut graphs: Vec<&GraphSpec> = Vec::new();
    for job in &plan.layer_jobs {
        let spec = plan.graph(&job.graph)?;
        if !graphs.iter().any(|g| g.name == spec.name) {
            graphs.push(spec);
        }
    }
    let mut script: Vec<Json> = plan.conns.iter().flat_map(|c| c.setup.clone()).collect();
    let longest = plan.conns.iter().map(|c| c.ops.len()).max().unwrap_or(0);
    for i in 0..longest.min(plan.trace_ops) {
        for c in &plan.conns {
            if let Some(op) = c.ops.get(i) {
                script.push(op.clone());
            }
        }
    }
    Ok(Selection {
        graphs,
        jobs: plan.layer_jobs.iter().collect(),
        script,
    })
}

/// The per-graph and per-job layer calls.
fn layer_calls(sel: &Selection, rec: &mut Recorder) -> Result<(), String> {
    let device = DeviceSpec::c1060();
    for (gi, spec) in sel.graphs.iter().enumerate() {
        let id = gi as u64;
        rec.span("graph", id, |rec| {
            let g = if spec.source == Source::Gen {
                rec.span("graph.gen", id, |_| spec.load())?
            } else {
                rec.span("graph.io.parse", id, |rec| {
                    let g = spec.load()?;
                    rec.attr("edges", g.m());
                    Ok::<_, String>(g)
                })?
            };
            rec.attr("graph", spec.name.as_str());
            let als = rec.span("core.als.build", id, |_| build_als(&g));
            rec.span("core.split", id, |rec| {
                let split = split_graph(&g, &SplitConfig::for_device(&device));
                rec.attr("chunks", split.chunks.len());
            });
            // The Eq. 6 pass runs only on the device methods' path. On the
            // sparse-cpu graphs it would take seconds and gigabytes.
            let on_path = sel.jobs.iter().any(|j| {
                j.graph == spec.name && Method::parse(&j.method).is_ok_and(|m| m.uses_device())
            });
            if on_path {
                rec.span("core.hybrid.pass", id, |rec| {
                    let r = run_hybrid_collected(
                        &g,
                        &HybridConfig::new(device.clone()),
                        &mut Collector::disabled(),
                    );
                    rec.attr("triangles", r.triangles);
                });
            }
            rec.span("core.intersect.count", id, |rec| {
                let (mut triangles, mut ops, mut heaviest) = (0u64, 0u64, 0u64);
                for a in &als {
                    let s = intersect::als_stats(&g, a);
                    triangles += s.triangles;
                    ops += s.ops();
                    heaviest = heaviest.max(s.ops());
                }
                rec.attr("triangles", triangles);
                rec.attr("ops", ops);
                rec.attr("heaviest_ops", heaviest);
            });
            for (ji, job) in sel.jobs.iter().enumerate() {
                if job.graph == spec.name {
                    run_job(ji as u64, job, &g, rec)?;
                }
            }
            Ok::<_, String>(())
        })?;
    }
    Ok(())
}

fn run_job(id: u64, job: &Job, g: &trigon_graph::Graph, rec: &mut Recorder) -> Result<(), String> {
    rec.span("job", id, |rec| {
        rec.attr("graph", job.graph.as_str());
        rec.attr("method", job.method.as_str());
        rec.attr("workload", job.workload.as_str());
        rec.span("core.run.off", id, |_| job.run(g, Level::Off))?;
        let report = rec.span("core.run.standard", id, |_| job.run(g, Level::Standard))?;
        let json = rec.span("core.report.to_json", id, |rec| {
            let json = report.to_json();
            rec.attr("bytes", json.to_string_compact().len());
            json
        });
        rec.attr("count", report.count);
        rec.attr("modeled_s", report.modeled_s);
        if let Some(t) = json.get("profile").and_then(|p| p.get("counters")) {
            rec.attr(
                "transactions",
                t.get("transactions").cloned().unwrap_or(Json::Null),
            );
        }
        if let Some(w) = json.get("workload") {
            for key in ["mean_clustering", "transitivity"] {
                if let Some(v) = w.get(key) {
                    rec.attr(key, v.clone());
                }
            }
        }
        let mut resp = Json::object();
        resp.set("ok", Json::from(true));
        resp.set("graph", Json::from(job.graph.as_str()));
        resp.set("reports", Json::Array(vec![json]));
        wire_round_trip(id, &resp, rec)
    })
}

/// Encodes `msg` as a framed message and decodes it back.
fn wire_round_trip(id: u64, msg: &Json, rec: &mut Recorder) -> Result<(), String> {
    let mut buf = Vec::new();
    rec.span("serve.protocol.encode", id, |rec| {
        Wire::Framed
            .write_msg(&mut buf, msg)
            .map_err(|e| e.to_string())?;
        rec.attr("bytes", buf.len());
        Ok::<_, String>(())
    })?;
    let back = rec.span("serve.protocol.decode", id, |_| {
        Wire::Framed
            .read_msg(&mut &buf[..])
            .map_err(|e| e.to_string())
    })?;
    if back.as_ref() != Some(msg) {
        return Err("framed round trip changed the message".to_string());
    }
    Ok(())
}

/// Replays the request script through an in-process server.
fn server_script(sel: &Selection, rec: &mut Recorder) -> Result<(), String> {
    let server = Server::new(ServerConfig::default());
    for (ri, msg) in sel.script.iter().enumerate() {
        let id = ri as u64;
        let resp = rec.span("serve.server.handle", id, |rec| {
            let op = match msg.get("op") {
                Some(Json::Str(op)) => op.clone(),
                _ => String::new(),
            };
            rec.attr("op", op.as_str());
            let (resp, _) = server.handle(msg);
            rec.attr("ok", resp.get("ok") == Some(&Json::from(true)));
            if let Some(code) = resp.get("code") {
                rec.attr("code", code.clone());
            }
            if op == "query" {
                rec.attr("graph", resp.get("graph").cloned().unwrap_or(Json::Null));
                if let Some(Json::Array(reports)) = resp.get("reports") {
                    if let Some(r) = reports.first() {
                        annotate_served(r, rec);
                    }
                }
            }
            resp
        });
        if msg.get("op") == Some(&Json::from("query")) {
            wire_round_trip(id, &resp, rec)?;
        }
    }
    let (report, _) = server.handle(&Json::parse(r#"{"op":"report"}"#).expect("literal"));
    if let Some(stats) = report.get("stats") {
        for key in STAT_KEYS {
            rec.attr(key, stats.get(key).cloned().unwrap_or(Json::Null));
        }
    }
    Ok(())
}

/// Copies a served report's count, clustering values and serving
/// outcome into the open span.
fn annotate_served(r: &Json, rec: &mut Recorder) {
    if let Some(c) = r.get("result").and_then(|x| x.get("count")) {
        rec.attr("count", c.clone());
    }
    if let Some(w) = r.get("workload") {
        rec.attr("workload", w.get("name").cloned().unwrap_or(Json::Null));
        for key in ["mean_clustering", "transitivity"] {
            if let Some(v) = w.get(key) {
                rec.attr(key, v.clone());
            }
        }
    }
    if let Some(s) = r.get("serving") {
        rec.attr("cache", s.get("cache").cloned().unwrap_or(Json::Null));
        rec.attr(
            "queue_wait_s",
            s.get("queue_wait_s").cloned().unwrap_or(Json::Null),
        );
    }
}

/// Runs traced and untraced passes alternately until `seconds` have
/// passed and each kind has run [`MIN_PASSES`] times, then writes the
/// spans and the pass wall times to `out`.
pub fn run(plan: &Plan, seconds: f64, out: &str) -> Result<(), String> {
    let epoch = Instant::now();
    let sel = select(plan)?;
    let mut rec = Recorder::new(epoch);
    let mut passes = Vec::new();
    let mut i = 0usize;
    // Stop only after an untraced pass, so both kinds run equally often.
    while !i.is_multiple_of(2) || i < 2 * MIN_PASSES || epoch.elapsed().as_secs_f64() < seconds {
        let traced = i.is_multiple_of(2);
        rec.set_enabled(traced);
        let t = Instant::now();
        rec.span("pass", i as u64, |rec| {
            rec.span("layers", i as u64, |rec| layer_calls(&sel, rec))?;
            rec.span("serve.script", i as u64, |rec| server_script(&sel, rec))
        })?;
        let mut p = Json::object();
        p.set("traced", Json::from(traced));
        p.set("wall_s", Json::from(t.elapsed().as_secs_f64()));
        passes.push(p);
        i += 1;
    }
    let mut doc = Json::object();
    doc.set("workload", Json::from(plan.workload.as_str()));
    doc.set("passes", Json::Array(passes));
    doc.set("spans", rec.to_json());
    std::fs::write(out, doc.to_string_compact()).map_err(|e| format!("write {out}: {e}"))
}
