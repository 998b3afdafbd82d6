//! Properties of the per-ALS Eq. 6 pricing and the run-length LPT
//! schedule behind it:
//!
//! * every single-device `gpu-*` report's `eq6.predicted_s` equals the
//!   hybrid executor's own `eq6_s` bit-for-bit, on both device
//!   generations, cold, with a prebuilt ALS set, or on a one-device fleet;
//! * [`trigon::sched::lpt_runs`] gives exactly the loads and per-run
//!   machine counts of [`trigon::sched::lpt`] on the expanded job list —
//!   including ties between equal-cycle runs, zero-cycle jobs, and more
//!   machines than jobs.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;
use trigon::core::als::build_als;
use trigon::core::hybrid::run_hybrid_collected;
use trigon::core::HybridConfig;
use trigon::gpu_sim::DeviceSpec;
use trigon::graph::{gen, Graph};
use trigon::sched::{lpt, lpt_runs};
use trigon::{Collector, FleetSpec, Level, Method, Run};

fn arb_graph(max_n: u32) -> impl Strategy<Value = Graph> {
    (3..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..(4 * n as usize)).prop_map(move |raw| {
            let edges: Vec<(u32, u32)> = raw.into_iter().filter(|&(u, v)| u != v).collect();
            Graph::from_edges(n, &edges).expect("filtered edges valid")
        })
    })
}

/// G(n, p) graphs big enough for multi-block ALS (tens of 64k-test
/// blocks, with remainders) and for chunks that fit shared memory.
fn arb_dense_graph() -> impl Strategy<Value = Graph> {
    (20u32..320, 2u32..24, any::<u64>())
        .prop_map(|(n, deg, seed)| gen::gnp(n, f64::from(deg) / f64::from(n), seed))
}

fn arb_device() -> impl Strategy<Value = DeviceSpec> {
    prop_oneof![Just(DeviceSpec::c1060()), Just(DeviceSpec::c2050())]
}

fn hybrid_eq6(g: &Graph, device: &DeviceSpec) -> f64 {
    run_hybrid_collected(
        g,
        &HybridConfig::new(device.clone()),
        &mut Collector::disabled(),
    )
    .eq6_s
}

fn report_eq6(run: Run<'_>) -> f64 {
    run.telemetry(Level::Standard)
        .execute()
        .unwrap()
        .eq6
        .expect("single-device gpu runs carry eq6")
        .predicted_s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every combination executor on small random graphs.
    #[test]
    fn gpu_eq6_is_the_hybrid_eq6(g in arb_graph(40), device in arb_device()) {
        let expect = hybrid_eq6(&g, &device);
        for m in [
            Method::GpuNaive,
            Method::GpuOptimized,
            Method::GpuSampled,
            Method::GpuSimIntersect,
        ] {
            let got = report_eq6(Run::new(&g).method(m).device(device.clone()));
            prop_assert_eq!(got.to_bits(), expect.to_bits());
        }
    }

    /// The fast executors on graphs with multi-block ALS, through the
    /// cold path, a prebuilt ALS set, and a one-device fleet.
    #[test]
    fn gpu_eq6_is_the_hybrid_eq6_on_multi_block_als(
        g in arb_dense_graph(),
        device in arb_device(),
    ) {
        let expect = hybrid_eq6(&g, &device);
        let als = Arc::new(build_als(&g));
        let fleet = FleetSpec::parse(&format!("1x{}", device.name)).unwrap();
        for m in [Method::GpuSampled, Method::GpuSimIntersect] {
            let run = || Run::new(&g).method(m).device(device.clone());
            let cold = report_eq6(run());
            let warm = report_eq6(run().prebuilt_als(als.clone()));
            let fleet = report_eq6(run().fleet(fleet.clone()));
            prop_assert_eq!(cold.to_bits(), expect.to_bits());
            prop_assert_eq!(warm.to_bits(), expect.to_bits());
            prop_assert_eq!(fleet.to_bits(), expect.to_bits());
        }
    }
}

/// Checks [`lpt_runs`] against [`lpt`] on the expanded job list.
fn assert_runs_match_expanded(runs: &[(u64, u64)], machines: u32) -> Result<(), TestCaseError> {
    let jobs: Vec<u64> = runs
        .iter()
        .flat_map(|&(c, k)| std::iter::repeat_n(c, k as usize))
        .collect();
    let expanded = lpt(&jobs, machines);
    let compact = lpt_runs(runs, machines);
    prop_assert_eq!(&compact.loads, &expanded.loads);
    prop_assert_eq!(compact.makespan(), expanded.makespan());
    let mut j = 0usize;
    for (r, &(_, k)) in runs.iter().enumerate() {
        let mut per_machine = vec![0u64; machines as usize];
        for &m in &expanded.assignment[j..j + k as usize] {
            per_machine[m as usize] += 1;
        }
        j += k as usize;
        prop_assert_eq!(&compact.counts[r], &per_machine, "run {} of {:?}", r, runs);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Few distinct cycle values (many ties between runs, zero-cycle
    /// jobs, empty runs) and machine counts above the job count.
    #[test]
    fn lpt_runs_matches_expanded_lpt_with_ties(
        runs in proptest::collection::vec(
            (prop_oneof![Just(0u64), Just(1), Just(2), Just(3), Just(5), Just(8)], 0u64..12),
            0..10,
        ),
        machines in 1u32..40,
    ) {
        assert_runs_match_expanded(&runs, machines)?;
    }

    /// Wide cycle range and long runs (the threshold search, not the
    /// one-job path).
    #[test]
    fn lpt_runs_matches_expanded_lpt_on_long_runs(
        runs in proptest::collection::vec((0u64..5_000, 0u64..600), 0..8),
        machines in 1u32..31,
    ) {
        assert_runs_match_expanded(&runs, machines)?;
    }
}

#[test]
fn lpt_runs_edge_cases() {
    for machines in [1, 2, 3, 30] {
        assert_runs_match_expanded(&[], machines).unwrap();
        assert_runs_match_expanded(&[(0, 0)], machines).unwrap();
        assert_runs_match_expanded(&[(0, 5), (4, 1), (0, 3)], machines).unwrap();
        assert_runs_match_expanded(&[(7, 2), (7, 0), (7, 5), (3, 1)], machines).unwrap();
        assert_runs_match_expanded(&[(1, 1), (u64::from(machines), 1)], machines).unwrap();
    }
}
