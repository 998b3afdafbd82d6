//! `repro` — regenerates every table and figure of *On Analyzing Large
//! Graphs Using GPUs* (IPDPSW 2013) from the trigon reproduction.
//!
//! ```text
//! repro table1|table2|table3|fig1|fig10|fig11|fig12|ablation|workloads|trace|fleet|cluster|all [--csv DIR]
//! repro perf [--quick] [--baseline PATH] [--csv DIR]
//! repro profile [--baseline PATH] [--csv DIR]
//! ```
//!
//! `perf` measures real wall-clock (not modeled seconds) of the counting
//! strategies across a thread sweep and writes
//! `bench_out/BENCH_perf.json`; with `--baseline PATH` it also enforces
//! the committed regression envelope (exit 1 on a >25 % normalized
//! slowdown of the 1-thread fig10 run).
//!
//! `profile` sweeps the simulated performance counters across every
//! executor and writes `bench_out/BENCH_profile.json`; with
//! `--baseline PATH` it enforces the **exact-match** counter gate (exit
//! 1 on any divergence; `TRIGON_PROFILE_SKIP_REGRESSION` skips it).
//!
//! Each experiment prints an aligned text table mirroring the paper's
//! layout and, with `--csv DIR`, also writes `DIR/<exp>.csv`.

use std::io::Write as _;
use trigon_bench::{fig10_graph, fig10_sizes, fig11_graph, fig11_sizes};
use trigon_core::gpu_exec::GpuConfig;
use trigon_core::{table2, Analysis, LayoutKind, Method, RunReport};
use trigon_gpu_sim::coalesce::{nonsequential_pattern, sequential_pattern};
use trigon_gpu_sim::{warp_transactions, ComputeCapability, DeviceSpec};
use trigon_graph::Graph;

/// Runs one pipeline configuration and returns its [`RunReport`].
fn run(g: &Graph, method: Method) -> RunReport {
    Analysis::new(g)
        .method(method)
        .device(DeviceSpec::c1060())
        .run()
        .expect("pipeline run")
}

/// [`run`] with a shared prebuilt ALS decomposition — the figure loops
/// compare several methods on the same graph, and the decomposition
/// depends only on the graph, so building it once per size keeps the
/// sweeps from repeating that work per method.
fn run_with_als(
    g: &Graph,
    als: &std::sync::Arc<Vec<trigon_core::als::Als>>,
    method: Method,
) -> RunReport {
    Analysis::new(g)
        .method(method)
        .device(DeviceSpec::c1060())
        .prebuilt_als(std::sync::Arc::clone(als))
        .run()
        .expect("pipeline run")
}

/// Runs with a fully explicit GPU configuration.
fn run_cfg(g: &Graph, cfg: GpuConfig) -> RunReport {
    Analysis::new(g)
        .method(Method::GpuOptimized)
        .gpu_config(cfg)
        .run()
        .expect("pipeline run")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv_dir = args
        .iter()
        .position(|a| a == "--csv")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let out = Output::new(csv_dir);
    match cmd {
        "table1" => table1(&out),
        "table2" => table2_cmd(&out),
        "table3" => table3(&out),
        "fig1" => fig1(&out),
        "fig10" => fig10(&out),
        "fig11" => fig11(&out),
        "fig12" => fig12(&out),
        "ablation" => ablation(&out),
        "workload" => workload(&out),
        "workloads" => workloads_cmd(&out),
        "trace" => trace_capture(&out),
        "fleet" => fleet_cmd(&out),
        "cluster" => cluster_cmd(&out),
        "perf" => perf(&out, &args[1..]),
        "profile" => profile_cmd(&out, &args[1..]),
        "serve" => serve_cmd(&out, &args[1..]),
        "all" => {
            table1(&out);
            table2_cmd(&out);
            table3(&out);
            fig1(&out);
            fig10(&out);
            fig11(&out);
            fig12(&out);
            ablation(&out);
            workload(&out);
            workloads_cmd(&out);
            trace_capture(&out);
            fleet_cmd(&out);
            cluster_cmd(&out);
            profile_cmd(&out, &[]);
            serve_cmd(&out, &[]);
        }
        other => {
            eprintln!("unknown experiment {other:?}");
            eprintln!(
                "usage: repro table1|table2|table3|fig1|fig10|fig11|fig12|ablation|workloads|trace|fleet|cluster|perf|profile|serve|all [--csv DIR]"
            );
            eprintln!("       repro perf [--quick] [--baseline PATH] [--csv DIR]");
            eprintln!("       repro profile [--baseline PATH] [--csv DIR]");
            eprintln!("       repro serve [--quick] [--csv DIR]");
            std::process::exit(2);
        }
    }
}

/// Text + optional CSV sink.
struct Output {
    csv_dir: Option<String>,
}

impl Output {
    fn new(csv_dir: Option<String>) -> Self {
        if let Some(d) = &csv_dir {
            std::fs::create_dir_all(d).expect("create csv dir");
        }
        Self { csv_dir }
    }

    fn section(&self, title: &str) {
        println!("\n==== {title} ====");
    }

    fn csv(&self, name: &str, header: &str, rows: &[String]) {
        let Some(dir) = &self.csv_dir else { return };
        let path = format!("{dir}/{name}.csv");
        let mut f = std::fs::File::create(&path).expect("create csv");
        writeln!(f, "{header}").unwrap();
        for r in rows {
            writeln!(f, "{r}").unwrap();
        }
        println!("  [csv written to {path}]");
    }
}

/// Table I — architecture comparison of the modeled devices.
fn table1(out: &Output) {
    out.section("Table I: architecture comparison of different Nvidia GPUs");
    println!(
        "{:<8} {:>6} {:>12} {:>12} {:>8} {:>6}",
        "Model", "Cores", "Global(GB)", "Shared(KB)", "Banks", "CC"
    );
    let mut rows = Vec::new();
    for d in DeviceSpec::table1() {
        let gb = d.global_mem_bytes / (1024 * 1024 * 1024);
        let kb = d.shared_mem_bytes / 1024;
        println!(
            "{:<8} {:>6} {:>12} {:>12} {:>8} {:>6}",
            d.name, d.cores, gb, kb, d.shared_banks, d.compute_capability
        );
        rows.push(format!(
            "{},{},{},{},{},{}",
            d.name, d.cores, gb, kb, d.shared_banks, d.compute_capability
        ));
    }
    out.csv("table1", "model,cores,global_gb,shared_kb,banks,cc", &rows);
}

/// Table II — maximum graph sizes per device and storage model.
fn table2_cmd(out: &Output) {
    out.section("Table II: maximum size of graphs on different GPUs");
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>12}",
        "Model", "Sh AdjMat", "Sh S-UTM", "Gl AdjMat", "Gl S-UTM"
    );
    let mut rows = Vec::new();
    for r in table2(&DeviceSpec::table1()) {
        println!(
            "{:<8} {:>12} {:>12} {:>12} {:>12}",
            r.device, r.shared_adj, r.shared_sutm, r.global_adj, r.global_sutm
        );
        rows.push(format!(
            "{},{},{},{},{}",
            r.device, r.shared_adj, r.shared_sutm, r.global_adj, r.global_sutm
        ));
    }
    out.csv(
        "table2",
        "model,shared_adjmat,shared_sutm,global_adjmat,global_sutm",
        &rows,
    );
    println!("  (every printed value of the paper's Table II is reproduced exactly)");
}

/// Table III — memory transactions vs compute capability and pattern.
fn table3(out: &Output) {
    out.section(
        "Table III: memory transactions and compute capability (warp reads 128 B as 4 B words)",
    );
    println!(
        "{:<10} {:<16} {:>12} {:>14}",
        "CC", "Pattern", "Bytes", "Transactions"
    );
    let mut rows = Vec::new();
    for seq in [true, false] {
        for cc in ComputeCapability::all() {
            let addrs = if seq {
                sequential_pattern(0, 32, 4)
            } else {
                nonsequential_pattern(0, 32, 4)
            };
            let t = warp_transactions(cc, &addrs, 4).transactions;
            let pat = if seq { "Sequential" } else { "Non-sequential" };
            println!("{:<10} {:<16} {:>12} {:>14}", cc.to_string(), pat, 128, t);
            rows.push(format!("{cc},{pat},128,{t}"));
        }
    }
    out.csv("table3", "cc,pattern,bytes,transactions", &rows);
}

/// Fig. 1 — makespan scheduling of chunks on SMs (the §VI illustration
/// plus measured policies).
fn fig1(out: &Output) {
    out.section("Fig 1: makespan scheduling of chunks on GPU modules");
    let jobs = [3u64, 6, 4, 5, 2, 3, 1];
    println!("instance: jobs {jobs:?} on 4 machines");
    let mut rows = Vec::new();
    for (name, s) in [
        ("round-robin", trigon_sched::round_robin(&jobs, 4)),
        ("list", trigon_sched::list_schedule(&jobs, 4)),
        ("LPT", trigon_sched::lpt(&jobs, 4)),
        ("MULTIFIT", trigon_sched::multifit(&jobs, 4, 10)),
        ("tabu", trigon_sched::tabu_improve(&jobs, 4, 50)),
        ("exact", trigon_sched::exact(&jobs, 4)),
    ] {
        println!(
            "  {:<12} makespan {:>3}  loads {:?}",
            name,
            s.makespan(),
            s.loads
        );
        rows.push(format!("{},{}", name, s.makespan()));
    }
    println!("  lower bound {}", trigon_sched::lower_bound(&jobs, 4));
    out.csv("fig1", "policy,makespan", &rows);
}

/// Fig. 10 — CPU vs GPU triangle counting, 200–1200 nodes.
fn fig10(out: &Output) {
    out.section("Fig 10: counting triangles, CPU vs GPU (G(n, deg 16), modeled seconds)");
    println!(
        "{:>6} {:>12} {:>14} {:>10} {:>10} {:>8}",
        "n", "triangles", "tests", "CPU(s)", "GPU(s)", "speedup"
    );
    let mut rows = Vec::new();
    for n in fig10_sizes() {
        let g = fig10_graph(n);
        let als = std::sync::Arc::new(trigon_core::als::build_als(&g));
        let cpu = run_with_als(&g, &als, Method::CpuFast);
        let gpu = run_with_als(&g, &als, Method::GpuOptimized);
        assert_eq!(cpu.count, gpu.count, "count mismatch at n={n}");
        let speedup = cpu.modeled_s / gpu.modeled_s;
        println!(
            "{:>6} {:>12} {:>14} {:>10.2} {:>10.2} {:>8.2}",
            n, cpu.count, cpu.tests, cpu.modeled_s, gpu.modeled_s, speedup
        );
        rows.push(format!(
            "{n},{},{},{:.4},{:.4},{:.3}",
            cpu.count, cpu.tests, cpu.modeled_s, gpu.modeled_s, speedup
        ));
    }
    out.csv("fig10", "n,triangles,tests,cpu_s,gpu_s,speedup", &rows);
    println!("  paper band: near-parity at small n, 5-6x for n >= 1000");
}

/// Fig. 11 — larger SNAP-like graphs, 5k–25k nodes (+100k point).
fn fig11(out: &Output) {
    out.section("Fig 11: larger graphs (community-ring SNAP stand-in, sampled GPU fidelity)");
    println!(
        "{:>7} {:>12} {:>16} {:>10} {:>10} {:>8}",
        "n", "triangles", "tests", "CPU(s)", "GPU(s)", "speedup"
    );
    let mut rows = Vec::new();
    for n in fig11_sizes() {
        let g = fig11_graph(n);
        let als = std::sync::Arc::new(trigon_core::als::build_als(&g));
        let cpu = run_with_als(&g, &als, Method::CpuFast);
        let gpu = run_with_als(&g, &als, Method::GpuSampled);
        assert_eq!(cpu.count, gpu.count, "count mismatch at n={n}");
        let speedup = cpu.modeled_s / gpu.modeled_s;
        println!(
            "{:>7} {:>12} {:>16} {:>10.1} {:>10.2} {:>8.2}",
            n, cpu.count, cpu.tests, cpu.modeled_s, gpu.modeled_s, speedup
        );
        rows.push(format!(
            "{n},{},{},{:.4},{:.4},{:.3}",
            cpu.count, cpu.tests, cpu.modeled_s, gpu.modeled_s, speedup
        ));
    }
    // The §XI 100,000-node data point (GPU only, like the paper's remark).
    let n = 100_000u32;
    let g = fig11_graph(n);
    let gpu = run(&g, Method::GpuSampled);
    println!(
        "{:>7} {:>12} {:>16} {:>10} {:>10.1}   (paper: 170-180 s)",
        n, gpu.count, gpu.tests, "-", gpu.modeled_s
    );
    rows.push(format!(
        "{n},{},{},,{:.4},",
        gpu.count, gpu.tests, gpu.modeled_s
    ));
    out.csv("fig11", "n,triangles,tests,cpu_s,gpu_s,speedup", &rows);
    println!("  paper band: ~10x GPU speedup at 5k-25k");
}

/// Fig. 12 — naive vs primitive-optimized GPU implementation.
fn fig12(out: &Output) {
    out.section("Fig 12: naive vs improved GPU (coalescing + camping avoidance)");
    println!(
        "{:>6} {:>12} {:>12} {:>8} {:>10} {:>10}",
        "n", "naive(s)", "improved(s)", "gain%", "camp(nv)", "camp(opt)"
    );
    let mut rows = Vec::new();
    for n in fig10_sizes() {
        let g = fig10_graph(n);
        let als = std::sync::Arc::new(trigon_core::als::build_als(&g));
        let nv = run_with_als(&g, &als, Method::GpuNaive);
        let op = run_with_als(&g, &als, Method::GpuOptimized);
        assert_eq!(nv.count, op.count, "count mismatch at n={n}");
        let gain = 100.0 * (nv.modeled_s - op.modeled_s) / nv.modeled_s;
        let (cn, co) = (
            nv.gpu.as_ref().unwrap().camping_factor,
            op.gpu.as_ref().unwrap().camping_factor,
        );
        println!(
            "{:>6} {:>12.3} {:>12.3} {:>8.1} {:>10.2} {:>10.2}",
            n, nv.modeled_s, op.modeled_s, gain, cn, co
        );
        rows.push(format!(
            "{n},{:.4},{:.4},{:.2},{:.3},{:.3}",
            nv.modeled_s, op.modeled_s, gain, cn, co
        ));
    }
    out.csv(
        "fig12",
        "n,naive_s,improved_s,gain_pct,camping_naive,camping_opt",
        &rows,
    );
    println!("  paper band: ~6-8 % improvement from the primitives");
}

/// Workload anatomy: how Algorithm 2's tests distribute over the ALS of
/// each evaluation graph — the quantity every timing model scales with.
fn workload(out: &Output) {
    use trigon_core::build_als;
    out.section("Workload anatomy: per-ALS test distribution");
    let mut rows = Vec::new();
    for (label, g) in [
        ("fig10 n=1200 (G(n,p) deg16)", fig10_graph(1200)),
        ("fig11 n=5000 (community ring)", fig11_graph(5000)),
    ] {
        let als = trigon_core::als::build_als(&g);
        let _ = build_als; // fully-qualified call above keeps the import honest
        let counts: Vec<u128> = als.iter().map(|a| a.test_count(3)).collect();
        let total: u128 = counts.iter().sum();
        let max = counts.iter().copied().max().unwrap_or(0);
        let dominant = if total > 0 {
            100.0 * max as f64 / total as f64
        } else {
            0.0
        };
        println!(
            "  {label:<32} ALS {:>4}  tests {:>14}  dominant ALS {:>5.1} %",
            als.len(),
            total,
            dominant
        );
        rows.push(format!("{label},{},{total},{dominant:.2}", als.len()));
        // Top three ALS by workload.
        let mut idx: Vec<usize> = (0..counts.len()).collect();
        idx.sort_unstable_by_key(|&i| std::cmp::Reverse(counts[i]));
        for &i in idx.iter().take(3) {
            let a = &als[i];
            println!(
                "      ALS {:>3}: first {:>5} x second {:>5} -> {:>14} tests",
                a.index,
                a.a(),
                a.b(),
                counts[i]
            );
        }
    }
    out.csv("workload", "suite,als,total_tests,dominant_pct", &rows);
    println!("  (the G(n,p) suite is dominated by one huge ALS; the community ring");
    println!("   spreads work across many — which is what makes SS-V splitting useful)");
}

/// Cross-workload sweep of the `ChunkKernel` API: every workload on the
/// fig10 ladder, CPU vs simulated GPU, bit-agreement enforced.
fn workloads_cmd(out: &Output) {
    out.section("Workloads: the ChunkKernel API across every analysis (G(n, deg 16))");
    let result = trigon_bench::run_workloads();
    println!(
        "{:<12} {:>6} {:>12} {:>10} {:>10}  detail",
        "workload", "n", "count", "CPU(s)", "GPU(s)"
    );
    let mut rows = Vec::new();
    for p in &result.points {
        use trigon_core::WorkloadSection as W;
        let detail = match &p.section {
            W::Clustering {
                mean_clustering,
                transitivity,
                ..
            } => format!("mean cc {mean_clustering:.4}, transitivity {transitivity:.4}"),
            W::KTruss {
                k,
                edges_kept,
                edges_peeled,
                ..
            } => format!("k={k}: {edges_kept} kept, {edges_peeled} peeled"),
            W::Enumerate { checksum, .. } => format!("checksum {checksum:#018x}"),
            W::KCount { k } => format!("k={k}"),
            W::Triangles => String::new(),
        };
        println!(
            "{:<12} {:>6} {:>12} {:>10.3} {:>10.3}  {}",
            p.workload, p.n, p.count, p.cpu_s, p.gpu_s, detail
        );
        rows.push(format!(
            "{},{},{},{:.4},{:.4}",
            p.workload, p.n, p.count, p.cpu_s, p.gpu_s
        ));
    }
    std::fs::create_dir_all("bench_out").expect("create bench_out");
    let path = "bench_out/BENCH_workloads.json";
    std::fs::write(path, result.report.to_string_pretty()).expect("write workloads json");
    println!("  [workloads report written to {path}]");
    out.csv("workloads", "workload,n,count,cpu_s,gpu_s", &rows);
}

/// Trace capture: one fully traced gpu-opt run at n = 1000, exported as
/// Chrome trace-event JSON for chrome://tracing / ui.perfetto.dev.
fn trace_capture(out: &Output) {
    out.section("Trace: gpu-opt run at n = 1000, Chrome trace export");
    let g = fig10_graph(1000);
    let r = Analysis::new(&g)
        .method(Method::GpuOptimized)
        .device(DeviceSpec::c1060())
        .telemetry(trigon_core::Level::Trace)
        .run()
        .expect("pipeline run");
    std::fs::create_dir_all("bench_out").expect("create bench_out");
    let path = "bench_out/BENCH_trace.json";
    std::fs::write(path, r.tracer.to_chrome_trace().to_string_pretty()).expect("write trace");
    let t = r.trace.as_ref().expect("trace summary");
    let device_spans = t.device.as_ref().map_or(0, |d| d.spans);
    println!(
        "  {} spans ({device_spans} on the device timeline), makespan {} cycles",
        t.spans,
        t.device.as_ref().map_or(0, |d| d.makespan_cycles)
    );
    println!("  [trace written to {path}]");
}

/// `repro perf` — measured wall-clock baseline (see `trigon_bench::perf`).
fn perf(out: &Output, rest: &[String]) {
    use trigon_bench::{run_perf, PerfOptions};
    let opts = PerfOptions {
        quick: rest.iter().any(|a| a == "--quick"),
        baseline: rest
            .iter()
            .position(|a| a == "--baseline")
            .and_then(|i| rest.get(i + 1))
            .cloned(),
    };
    out.section(if opts.quick {
        "Perf: measured wall-clock baseline (quick)"
    } else {
        "Perf: measured wall-clock baseline"
    });
    let result = run_perf(&opts);
    // Pretty table + CSV straight from the JSON document so the printed
    // numbers and the written file cannot drift apart.
    let mut rows = Vec::new();
    for fig in ["fig10", "fig11"] {
        let Some(trigon_core::Json::Array(graphs)) = result.report.get(fig) else {
            continue;
        };
        println!(
            "  {fig}: {:>7} {:<14} {:>8} {:>14} {:>9}",
            "n", "strategy", "threads", "wall(ms)", "speedup"
        );
        for g in graphs {
            let n = json_u64(g.get("n"));
            let Some(trigon_core::Json::Array(strats)) = g.get("strategies") else {
                continue;
            };
            for s in strats {
                let strategy = match s.get("strategy") {
                    Some(trigon_core::Json::Str(v)) => v.clone(),
                    _ => String::new(),
                };
                let threads = json_u64(s.get("threads"));
                let wall_ns = json_u64(s.get("wall_ns"));
                let speedup = match s.get("speedup_vs_1t") {
                    Some(trigon_core::Json::Float(v)) => format!("{v:.2}"),
                    _ => "-".to_string(),
                };
                println!(
                    "  {fig}: {:>7} {:<14} {:>8} {:>14.2} {:>9}",
                    n,
                    strategy,
                    threads,
                    wall_ns as f64 / 1e6,
                    speedup
                );
                rows.push(format!(
                    "{fig},{n},{strategy},{threads},{wall_ns},{speedup}"
                ));
            }
            if let Some(h) = g.get("combination_vs_intersection") {
                let fmt = |k: &str| match h.get(k) {
                    Some(trigon_core::Json::Float(v)) => format!("{v:.0}x"),
                    _ => "-".to_string(),
                };
                println!(
                    "  {fig}: {n:>7} intersection speedup over combination: cpu {}, gpu {}",
                    fmt("cpu_speedup"),
                    fmt("gpu_speedup")
                );
            }
        }
    }
    if let Some(trigon_core::Json::Array(rows)) = result
        .report
        .get("overhead")
        .and_then(|o| o.get("telemetry"))
        .and_then(|t| t.get("methods"))
    {
        for row in rows {
            let label = match row.get("method") {
                Some(trigon_core::Json::Str(s)) => s.as_str(),
                _ => "-",
            };
            let pct = match row.get("overhead_pct") {
                Some(trigon_core::Json::Float(v)) => format!("{v:+.1}"),
                _ => "-".to_string(),
            };
            println!(
                "  telemetry overhead {label:<14} Off {:>8.2} ms, Standard {:>8.2} ms ({pct} %)",
                json_u64(row.get("off_ns")) as f64 / 1e6,
                json_u64(row.get("standard_ns")) as f64 / 1e6
            );
        }
    }
    std::fs::create_dir_all("bench_out").expect("create bench_out");
    let path = "bench_out/BENCH_perf.json";
    std::fs::write(path, result.report.to_string_pretty()).expect("write perf json");
    println!("  [perf report written to {path}]");
    out.csv(
        "perf",
        "suite,n,strategy,threads,wall_ns,speedup_vs_1t",
        &rows,
    );
    if let Some(msg) = result.regression {
        eprintln!("  {msg}");
        std::process::exit(1);
    }
}

/// `repro profile` — simulated performance-counter sweep with the
/// exact-match regression gate (see `trigon_bench::profile`).
fn profile_cmd(out: &Output, rest: &[String]) {
    use trigon_core::Json;
    let baseline = rest
        .iter()
        .position(|a| a == "--baseline")
        .and_then(|i| rest.get(i + 1))
        .cloned();
    out.section("Profile: simulated performance counters across executors (G(n, deg 16))");
    let result = trigon_bench::run_profile(baseline.as_deref());
    println!(
        "{:<16} {:>6} {:>10} {:>14} {:>14} {:>14} {:>7}",
        "method", "n", "count", "transactions", "compute(cyc)", "mem(cyc)", "coal%"
    );
    let mut rows = Vec::new();
    if let Some(Json::Array(points)) = result.report.get("points") {
        for p in points {
            let method = match p.get("method") {
                Some(Json::Str(v)) => v.clone(),
                _ => String::new(),
            };
            let n = json_u64(p.get("n"));
            let count = json_u64(p.get("count"));
            let counters = p.get("profile").and_then(|j| j.get("counters"));
            let tx = json_u64(counters.and_then(|c| c.get("transactions")));
            let compute = json_u64(counters.and_then(|c| c.get("compute_cycles")));
            let mem = json_u64(counters.and_then(|c| c.get("mem_cycles")));
            let coal = match p
                .get("profile")
                .and_then(|j| j.get("derived"))
                .and_then(|d| d.get("coalescing_efficiency"))
            {
                Some(Json::Float(v)) => format!("{:.1}", v * 100.0),
                _ => "-".to_string(),
            };
            println!("{method:<16} {n:>6} {count:>10} {tx:>14} {compute:>14} {mem:>14} {coal:>7}");
            rows.push(format!("{method},{n},{count},{tx},{compute},{mem},{coal}"));
        }
    }
    std::fs::create_dir_all("bench_out").expect("create bench_out");
    let path = "bench_out/BENCH_profile.json";
    std::fs::write(path, result.report.to_string_pretty()).expect("write profile json");
    println!("  [profile report written to {path}]");
    out.csv(
        "profile",
        "method,n,count,transactions,compute_cycles,mem_cycles,coalescing_pct",
        &rows,
    );
    if let Some(msg) = result.regression {
        eprintln!("  {msg}");
        std::process::exit(1);
    }
}

/// `repro serve` — the serving-tier benchmark: cold-vs-warm cache
/// replay, batch H2D amortization, and the Eqs. 1–2 admission sweep
/// (see `trigon_bench::serve`).
fn serve_cmd(out: &Output, rest: &[String]) {
    let quick = rest.iter().any(|a| a == "--quick");
    out.section(if quick {
        "Serve: persistent serving tier (quick)"
    } else {
        "Serve: persistent serving tier (cold/warm, batching, admission)"
    });
    let result = trigon_bench::run_serve(quick);
    println!(
        "{:<8} {:<12} {:>14} {:>12} {:>10}",
        "graph", "workload", "cold(ms)", "warm(ms)", "speedup"
    );
    let mut rows = Vec::new();
    for p in &result.points {
        println!(
            "{:<8} {:<12} {:>14.3} {:>12.4} {:>9.0}x",
            p.graph,
            p.workload,
            p.cold_ns as f64 / 1e6,
            p.warm_ns as f64 / 1e6,
            p.speedup
        );
        rows.push(format!(
            "{},{},{},{},{:.2}",
            p.graph, p.workload, p.cold_ns, p.warm_ns, p.speedup
        ));
    }
    if let Some(trigon_core::Json::Array(decisions)) = result
        .report
        .get("admission")
        .and_then(|a| a.get("decisions"))
    {
        println!("  admission (C2050 primary, 2xC2050 roster):");
        for d in decisions {
            let verdict = match d.get("verdict") {
                Some(trigon_core::Json::Str(v)) => v.clone(),
                _ => String::new(),
            };
            let target = match d.get("target") {
                Some(trigon_core::Json::Str(v)) => format!(" -> {v}"),
                _ => String::new(),
            };
            println!("    n={:>7} {verdict}{target}", json_u64(d.get("n")));
        }
    }
    println!("  {} admission rejection(s) recorded", result.rejections);
    std::fs::create_dir_all("bench_out").expect("create bench_out");
    let path = "bench_out/BENCH_serve.json";
    std::fs::write(path, result.report.to_string_pretty()).expect("write serve json");
    println!("  [serve report written to {path}]");
    out.csv("serve", "graph,workload,cold_ns,warm_ns,speedup", &rows);
}

/// Strong scaling of the multi-device fleet path (1..=8 C2050s), counts
/// pinned bit-identical to the CPU reference at every size.
fn fleet_cmd(out: &Output) {
    out.section("Fleet: strong scaling of multi-device sharded execution");
    let result = trigon_bench::run_fleet_scaling();
    println!("  triangles {} at every fleet size", result.triangles);
    println!(
        "{:<10} {:>14} {:>14} {:>12} {:>12} {:>8} {:>8}",
        "fleet", "makespan(cyc)", "compute(cyc)", "H2D(cyc)", "D2D(cyc)", "imbal", "speedup"
    );
    let mut rows = Vec::new();
    for p in &result.points {
        println!(
            "{:<10} {:>14} {:>14} {:>12} {:>12} {:>8.3} {:>8.2}",
            p.spec,
            p.makespan_cycles,
            p.compute_cycles,
            p.h2d_cycles,
            p.d2d_cycles,
            p.imbalance,
            p.speedup
        );
        rows.push(format!(
            "{},{},{},{},{},{:.4},{:.4}",
            p.devices,
            p.makespan_cycles,
            p.compute_cycles,
            p.h2d_cycles,
            p.d2d_cycles,
            p.imbalance,
            p.speedup
        ));
    }
    std::fs::create_dir_all("bench_out").expect("create bench_out");
    let path = "bench_out/BENCH_fleet.json";
    std::fs::write(path, result.report.to_string_pretty()).expect("write fleet json");
    println!("  [fleet report written to {path}]");
    out.csv(
        "fleet",
        "devices,makespan_cycles,compute_cycles,h2d_cycles,d2d_cycles,imbalance,speedup",
        &rows,
    );
}

/// Weak- and strong-scaling sweeps of the simulated cluster tier
/// (1..=64 single-C2050 nodes), counts pinned bit-identical to the CPU
/// reference at every point.
fn cluster_cmd(out: &Output) {
    out.section("Cluster: weak + strong scaling of simulated multi-node execution");
    let result = trigon_bench::run_cluster_scaling();
    let mut rows = Vec::new();
    for (title, points) in [("strong", &result.strong), ("weak", &result.weak)] {
        println!("  {title} scaling (1xC2050 nodes, IB-QDR inter-node):");
        println!(
            "{:<12} {:>8} {:>10} {:>5} {:>14} {:>12} {:>12} {:>8} {:>8}",
            "cluster",
            "n",
            "triangles",
            "part",
            "makespan(cyc)",
            "uplink(cyc)",
            "ghost(cyc)",
            "imbal",
            "scaling"
        );
        for p in points {
            println!(
                "{:<12} {:>8} {:>10} {:>5} {:>14} {:>12} {:>12} {:>8.3} {:>8.2}",
                p.spec,
                p.n,
                p.triangles,
                p.strategy,
                p.makespan_cycles,
                p.uplink_cycles,
                p.ghost_cycles,
                p.imbalance,
                p.scaling
            );
            rows.push(format!(
                "{title},{},{},{},{},{},{},{},{},{:.4},{:.4}",
                p.nodes,
                p.n,
                p.m,
                p.triangles,
                p.strategy,
                p.makespan_cycles,
                p.uplink_cycles,
                p.ghost_cycles,
                p.imbalance,
                p.scaling
            ));
        }
    }
    std::fs::create_dir_all("bench_out").expect("create bench_out");
    let path = "bench_out/BENCH_cluster.json";
    std::fs::write(path, result.report.to_string_pretty()).expect("write cluster json");
    println!("  [cluster report written to {path}]");
    out.csv(
        "cluster",
        "sweep,nodes,n,m,triangles,strategy,makespan_cycles,uplink_cycles,ghost_cycles,imbalance,scaling",
        &rows,
    );
}

/// Numeric JSON accessor for the perf table printer.
fn json_u64(v: Option<&trigon_core::Json>) -> u64 {
    match v {
        Some(trigon_core::Json::UInt(u)) => *u,
        Some(trigon_core::Json::Int(i)) => *i as u64,
        _ => 0,
    }
}

/// Ablations beyond the paper: which primitive buys what, §VIII strategy
/// load balance, and storage footprints.
fn ablation(out: &Output) {
    out.section("Ablation A: layout x schedule at n = 1000");
    let g = fig10_graph(1000);
    let mut rows = Vec::new();
    println!(
        "{:<24} {:<12} {:>10} {:>10}",
        "layout", "schedule", "GPU(s)", "camping"
    );
    for (lname, layout) in [
        ("Monolithic", LayoutKind::Monolithic),
        ("AlsPartitionAligned", LayoutKind::AlsPartitionAligned),
    ] {
        for (sname, sched) in [
            ("RoundRobin", trigon_core::SchedulePolicy::RoundRobin),
            ("Greedy", trigon_core::SchedulePolicy::Greedy),
            ("Lpt", trigon_core::SchedulePolicy::Lpt),
        ] {
            let mut cfg = GpuConfig::naive(DeviceSpec::c1060());
            cfg.layout = layout;
            cfg.schedule = sched;
            let r = run_cfg(&g, cfg);
            let d = r.gpu.as_ref().unwrap();
            println!(
                "{:<24} {:<12} {:>10.3} {:>10.2}",
                lname, sname, r.modeled_s, d.camping_factor
            );
            rows.push(format!(
                "{lname},{sname},{:.4},{:.3}",
                r.modeled_s, d.camping_factor
            ));
        }
    }
    out.csv(
        "ablation_layout_schedule",
        "layout,schedule,gpu_s,camping",
        &rows,
    );

    out.section("Ablation B: combination work-division strategies (n = 1000, k = 3)");
    let n = 1000u64;
    let total = trigon_combin::binom(n, 3);
    let threads = n - 2;
    let c_loads = trigon_combin::leading_element_loads(n, 3);
    let c_stats = trigon_combin::DivisionStats::from_loads(&c_loads);
    let d_loads: Vec<u128> = trigon_combin::equal_division(total, threads)
        .iter()
        .map(|r| r.len)
        .collect();
    let d_stats = trigon_combin::DivisionStats::from_loads(&d_loads);
    println!(
        "{:<26} {:>10} {:>14} {:>12}",
        "strategy", "threads", "max load", "imbalance"
    );
    println!(
        "{:<26} {:>10} {:>14} {:>12.3}",
        "C: leading-element split", c_stats.threads, c_stats.max, c_stats.imbalance
    );
    println!(
        "{:<26} {:>10} {:>14} {:>12.3}",
        "D: combinadics equal div", d_stats.threads, d_stats.max, d_stats.imbalance
    );
    let mut strategy_rows = vec![
        format!(
            "division,C,{n},{},{},{},,",
            c_stats.threads, c_stats.max, c_stats.imbalance
        ),
        format!(
            "division,D,{n},{},{},{},,",
            d_stats.threads, d_stats.max, d_stats.imbalance
        ),
    ];

    out.section("Ablation B2: combination vs degree-ordered intersection (modeled seconds)");
    {
        println!(
            "{:>6} {:<14} {:>14} {:>14} {:>10}",
            "n", "pair", "combination(s)", "intersect(s)", "speedup"
        );
        // fig10 scales race both the CPU models and the simulated GPUs;
        // at the fig11 scale the exhaustive combination kernel is
        // infeasible, so the sampled GPU stands in for it.
        let mut race = |suite: &str, g: &Graph, pairs: &[(&str, Method, Method)]| {
            for &(pair, comb_m, inter_m) in pairs {
                let comb = run(g, comb_m);
                let inter = run(g, inter_m);
                assert_eq!(
                    comb.count,
                    inter.count,
                    "{pair} at n={}: counts must be bit-identical",
                    g.n()
                );
                let speedup = comb.modeled_s / inter.modeled_s;
                println!(
                    "{:>6} {:<14} {:>14.4} {:>14.4} {:>10.1}",
                    g.n(),
                    pair,
                    comb.modeled_s,
                    inter.modeled_s,
                    speedup
                );
                strategy_rows.push(format!(
                    "algorithm,{pair}-{suite},{},1,,,{:.6},{:.2}",
                    g.n(),
                    inter.modeled_s,
                    speedup
                ));
            }
        };
        for n in [400u32, 800, 1200] {
            let g = fig10_graph(n);
            race(
                "fig10",
                &g,
                &[
                    ("cpu", Method::CpuFast, Method::CpuIntersect),
                    ("gpu", Method::GpuOptimized, Method::GpuSimIntersect),
                ],
            );
        }
        let g = fig11_graph(5_000);
        race(
            "fig11",
            &g,
            &[
                ("cpu", Method::CpuFast, Method::CpuIntersect),
                ("gpu", Method::GpuSampled, Method::GpuSimIntersect),
            ],
        );
        println!("  degree-ordered intersection replaces the combination candidate space with");
        println!("  per-edge adjacency intersections; the modeled gap widens with n");
    }
    out.csv(
        "ablation_strategies",
        "axis,strategy,n,threads,max_load,imbalance,modeled_s,speedup_vs_combination",
        &strategy_rows,
    );

    out.section("Ablation D: GPU work division, strategy C vs D (n = 600, static dispatch)");
    {
        let g = fig10_graph(600);
        let mut rows = Vec::new();
        println!(
            "{:<28} {:>8} {:>12} {:>10}",
            "division", "blocks", "imbalance", "kernel(s)"
        );
        for (name, div) in [
            ("D: equal blocks", trigon_core::WorkDivision::EqualBlocks),
            (
                "C: leading element",
                trigon_core::WorkDivision::LeadingElement,
            ),
        ] {
            let mut cfg = GpuConfig::optimized(DeviceSpec::c1060());
            cfg.division = div;
            cfg.schedule = trigon_core::SchedulePolicy::RoundRobin;
            let r = run_cfg(&g, cfg);
            let d = r.gpu.as_ref().unwrap();
            println!(
                "{:<28} {:>8} {:>12.4} {:>10.3}",
                name, d.blocks, d.schedule_imbalance, d.kernel_s
            );
            rows.push(format!(
                "{name},{},{:.4},{:.4}",
                d.blocks, d.schedule_imbalance, d.kernel_s
            ));
        }
        out.csv(
            "ablation_division",
            "division,blocks,imbalance,kernel_s",
            &rows,
        );
    }

    out.section("Ablation E: SS-V hybrid shared/global execution (community ring, C1060)");
    {
        let mut rows = Vec::new();
        println!(
            "{:>6} {:>10} {:>10} {:>12} {:>12} {:>12}",
            "n", "sharedALS", "globalALS", "LPT(s)", "Eq6(s)", "global-only(s)"
        );
        for n in [1000u32, 3000, 6000] {
            let g = trigon_graph::gen::community_ring(n, 150, 0.25, 3, 42);
            let hr = run(&g, Method::Hybrid);
            let h = hr.hybrid.as_ref().unwrap();
            let eq6 = hr.eq6.as_ref().unwrap();
            let global_only = run(&g, Method::GpuSampled);
            let go_kernel = global_only.gpu.as_ref().unwrap().kernel_s;
            println!(
                "{n:>6} {:>10} {:>10} {:>12.4} {:>12.4} {:>12.4}",
                h.shared_als, h.global_als, eq6.simulated_s, eq6.predicted_s, go_kernel
            );
            assert_eq!(hr.count, global_only.count);
            rows.push(format!(
                "{n},{},{},{:.5},{:.5},{:.5}",
                h.shared_als, h.global_als, eq6.simulated_s, eq6.predicted_s, go_kernel
            ));
        }
        out.csv(
            "ablation_hybrid",
            "n,shared_als,global_als,lpt_s,eq6_s,global_only_s",
            &rows,
        );
        println!("  staging chunks in shared memory + LPT beats both the Eq.6 naive pipeline");
        println!("  and the all-global execution, as SS-V argues");
    }

    out.section("Ablation C: storage footprints of the SS-VIII strategies (n = 100k, k = 3)");
    for (name, strat) in [
        (
            "A: precomputed store",
            trigon_combin::Strategy::PrecomputedStore,
        ),
        (
            "B: sequential on-the-fly",
            trigon_combin::Strategy::SequentialOnTheFly,
        ),
        (
            "C: leading-element split",
            trigon_combin::Strategy::LeadingElementSplit { lead: 1 },
        ),
        ("D: equal division", trigon_combin::Strategy::EqualDivision),
    ] {
        match strat.storage_bits(100_000, 3, 30_720) {
            Some(b) => {
                let mib = b as f64 / 8.0 / 1024.0 / 1024.0;
                println!("  {name:<28} {b:>28} bits ({mib:.1} MiB)");
            }
            None => println!("  {name:<28} overflow (beyond u128)"),
        }
    }
}
