//! Byte-identity fixtures for the device executors' modeled output.
//!
//! For three fixed graphs, the report JSON of `gpu-intersect`,
//! `gpu-sampled`, `gpu-opt` and `hybrid` (wall-clock values zeroed) plus
//! the full per-ALS/per-SM profile attribution are pinned under
//! `tests/golden/eq6/`, together with a `Trace`-level Chrome trace of
//! `hybrid` on a manual clock. Any drift in counts, the Eq. 6
//! prediction, the simulated-GPU and hybrid sections, the profile or the
//! schedule's spans fails here. Regenerate deliberately with:
//!
//! ```text
//! BLESS=1 cargo test --test eq6_fixtures
//! ```

use std::sync::Arc;
use trigon::gpu_sim::DeviceSpec;
use trigon::graph::{gen, Graph};
use trigon::{Analysis, Json, Level, ManualClock, Method, Tracer};

fn fixture_graphs() -> Vec<(&'static str, Graph, DeviceSpec)> {
    vec![
        ("gnp300", gen::gnp(300, 0.05, 3), DeviceSpec::c1060()),
        (
            "ring1500",
            gen::community_ring(1_500, 100, 0.2, 2, 3),
            DeviceSpec::c2050(),
        ),
        (
            "rmat512",
            gen::rmat_social(512, 3_000, 7),
            DeviceSpec::c1060(),
        ),
    ]
}

/// Zeroes the values that carry host wall-clock time, keeping every key.
fn strip_wall_clock(report: &Json) -> Json {
    let mut r = report.clone();
    r.set("timing", Json::Null);
    if let Some(Json::Object(phases)) = r.get("telemetry").and_then(|t| t.get("phases_s")) {
        let mut zeroed = Json::object();
        for (k, _) in phases {
            zeroed.set(k, Json::from(0.0));
        }
        let mut telemetry = r.get("telemetry").cloned().expect("telemetry section");
        telemetry.set("phases_s", zeroed);
        r.set("telemetry", telemetry);
    }
    r
}

fn check_fixture(name: &str, actual: &str) {
    let dir = format!("{}/tests/golden/eq6", env!("CARGO_MANIFEST_DIR"));
    let path = format!("{dir}/{name}");
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {path} ({e}); run with BLESS=1"));
    assert!(
        actual == expected,
        "{name} drifted from {path}; the modeled output must stay byte-identical"
    );
}

#[test]
fn device_reports_match_fixtures() {
    for (gname, g, device) in fixture_graphs() {
        for method in [
            Method::GpuSimIntersect,
            Method::GpuSampled,
            Method::GpuOptimized,
            Method::Hybrid,
        ] {
            let r = Analysis::new(&g)
                .method(method)
                .device(device.clone())
                .telemetry(Level::Standard)
                .run()
                .unwrap();
            let profile = r.profile.as_ref().expect("device runs carry a profile");
            let actual = format!(
                "{}\n{:?}\n",
                strip_wall_clock(&r.to_json()).to_string_pretty(),
                profile.data
            );
            check_fixture(&format!("{gname}.{}.txt", method.label()), &actual);
        }
    }
}

#[test]
fn hybrid_trace_matches_fixture() {
    let g = gen::gnp(300, 0.05, 3);
    let tracer = Tracer::with_clock(Level::Trace, Arc::new(ManualClock::new()));
    let r = Analysis::new(&g)
        .method(Method::Hybrid)
        .device(DeviceSpec::c1060())
        .telemetry(Level::Trace)
        .tracer(tracer)
        .run()
        .unwrap();
    check_fixture(
        "gnp300.hybrid.trace.json",
        &(r.tracer.to_chrome_trace().to_string_pretty() + "\n"),
    );
}
