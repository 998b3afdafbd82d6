//! Performance-counter profiles: attribution of the simulator's counter
//! totals to the work that caused them.
//!
//! The simulator already *prices* every quantity the paper argues in —
//! global-memory transactions under the Table III coalescing rules,
//! partition queueing (Eq. 10), bank conflicts (Eq. 9), per-block cycle
//! costs — but a run-level aggregate cannot answer *which ALS windows or
//! SMs burn the transactions*. This module holds the attribution
//! records: a [`CounterSet`] per adjacent level set, per SM, and in
//! total, collected by every executor into one [`ProfileData`].
//!
//! Counters are priced at simulation time, before dispatch, so they are
//! independent of scheduling, thread width, and fault recovery: the same
//! graph and config produce bit-identical profiles under any fault plan
//! (recovery recomputes results, never re-prices traffic).
//!
//! [`RooflinePoint`] derives a naive roofline placement from the
//! Table I [`DeviceSpec`] constants: compute roof `cores × clock`,
//! memory roof one 128-byte transaction per partition per
//! `transaction_service_cycles`, and the run's arithmetic intensity
//! from its instruction and transaction totals.

use crate::device::DeviceSpec;

/// Modeled instructions per combination test: three adjacency loads,
/// three bit tests with short-circuit control flow, and the combinadic
/// index update. A documented constant, not a measurement — what
/// matters is that instruction totals are exact integer functions of
/// the test counts, identical across executors and fidelity modes.
pub const INSTRUCTIONS_PER_TEST: u64 = 12;

/// Modeled instructions per adjacency-intersection operation (one merge
/// comparison, one galloping probe, or one 64-bit bitmap word): a load,
/// a compare/`AND`, a predicated cursor or popcount update, and the
/// accumulate. Like [`INSTRUCTIONS_PER_TEST`], a documented constant so
/// instruction totals stay exact integer functions of the op counts.
pub const INSTRUCTIONS_PER_INTERSECT_OP: u64 = 4;

/// Bytes moved per global-memory transaction for roofline purposes: the
/// maximal Table III segment. (CC 1.2+ devices may issue narrower
/// segments; the roofline uses the uniform upper bound so intensity is
/// a pure function of the transaction count.)
pub const BYTES_PER_TRANSACTION: u64 = 128;

/// One bundle of profiler counters — the unit of attribution. Every
/// field is an exact integer priced at simulation time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSet {
    /// Combination tests performed (or accounted, in sampled fidelity).
    pub tests: u128,
    /// Modeled instructions: `tests ×` [`INSTRUCTIONS_PER_TEST`] for
    /// combination kernels, `ops ×` [`INSTRUCTIONS_PER_INTERSECT_OP`]
    /// for the adjacency-intersection kernels.
    pub instructions: u64,
    /// Global-memory transactions issued under the device's coalescing
    /// rules (§IX, Table III).
    pub transactions: u64,
    /// The minimal transaction count a perfectly coalesced access
    /// pattern would have issued for the same loads (one 128-byte
    /// segment per warp-phase). `min_transactions / transactions` is
    /// the coalescing efficiency.
    pub min_transactions: u64,
    /// Extra shared-memory accesses serialized by bank conflicts
    /// (Eq. 9); zero on the global-memory path.
    pub bank_conflicts: u64,
    /// Compute cycles priced for this work.
    pub compute_cycles: u64,
    /// Base (pre-camping) memory cycles priced for this work.
    pub mem_cycles: u64,
    /// Thread blocks (or pseudo-blocks / chunks) that carried the work.
    pub blocks: u64,
}

impl CounterSet {
    /// Accumulates `other` into `self`, field-wise.
    pub fn merge(&mut self, other: &CounterSet) {
        self.tests += other.tests;
        self.instructions = self.instructions.saturating_add(other.instructions);
        self.transactions += other.transactions;
        self.min_transactions += other.min_transactions;
        self.bank_conflicts += other.bank_conflicts;
        self.compute_cycles += other.compute_cycles;
        self.mem_cycles += other.mem_cycles;
        self.blocks += other.blocks;
    }

    /// `n` copies of `self` merged together: every field times `n`,
    /// instructions saturating as in [`CounterSet::merge`].
    #[must_use]
    pub fn times(&self, n: u64) -> CounterSet {
        CounterSet {
            tests: self.tests * u128::from(n),
            instructions: self.instructions.saturating_mul(n),
            transactions: self.transactions * n,
            min_transactions: self.min_transactions * n,
            bank_conflicts: self.bank_conflicts * n,
            compute_cycles: self.compute_cycles * n,
            mem_cycles: self.mem_cycles * n,
            blocks: self.blocks * n,
        }
    }

    /// Modeled instructions for `tests` combination tests, saturating
    /// at `u64::MAX` (sampled runs on huge graphs).
    #[must_use]
    pub fn instructions_for_tests(tests: u128) -> u64 {
        u64::try_from(tests.saturating_mul(u128::from(INSTRUCTIONS_PER_TEST))).unwrap_or(u64::MAX)
    }

    /// Modeled instructions for `ops` adjacency-intersection operations,
    /// saturating at `u64::MAX`.
    #[must_use]
    pub fn instructions_for_intersect_ops(ops: u128) -> u64 {
        u64::try_from(ops.saturating_mul(u128::from(INSTRUCTIONS_PER_INTERSECT_OP)))
            .unwrap_or(u64::MAX)
    }

    /// Total priced cycles (compute + base memory).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.compute_cycles + self.mem_cycles
    }

    /// `min_transactions / transactions` — 1.0 means every warp access
    /// coalesced perfectly; 1/32 is the fully-scattered worst case.
    /// Defined as 1.0 when no transactions were issued.
    #[must_use]
    pub fn coalescing_efficiency(&self) -> f64 {
        if self.transactions == 0 {
            1.0
        } else {
            self.min_transactions as f64 / self.transactions as f64
        }
    }
}

/// A run's placement on the naive roofline of one device, derived
/// entirely from Table I constants and the run's integer counters — no
/// fault- or schedule-dependent quantity enters, so the point is
/// bit-identical under any fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflinePoint {
    /// Compute roof: `cores × clock_hz` modeled instructions per second.
    pub compute_roof_ops_s: f64,
    /// Memory roof: one [`BYTES_PER_TRANSACTION`]-byte transaction per
    /// partition per `transaction_service_cycles`.
    pub mem_roof_bytes_s: f64,
    /// Ridge point `compute_roof / mem_roof` in instructions per byte.
    pub ridge_ops_byte: f64,
    /// The run's arithmetic intensity: instructions per byte moved.
    pub intensity_ops_byte: f64,
    /// Achieved instruction throughput at the ideal (perfectly
    /// balanced) dispatch: `instructions / cycles_to_seconds(ceil(total
    /// cycles / sm_count))`.
    pub achieved_ops_s: f64,
    /// `"memory"` when the intensity sits left of the ridge,
    /// `"compute"` otherwise.
    pub bound: &'static str,
}

impl RooflinePoint {
    /// Places `counters` on `spec`'s roofline.
    #[must_use]
    pub fn from_counters(spec: &DeviceSpec, counters: &CounterSet) -> Self {
        let clock = spec.clock_hz as f64;
        let compute_roof_ops_s = f64::from(spec.cores) * clock;
        let mem_roof_bytes_s = f64::from(spec.partitions) * BYTES_PER_TRANSACTION as f64 * clock
            / spec.transaction_service_cycles as f64;
        let ridge_ops_byte = compute_roof_ops_s / mem_roof_bytes_s;
        let bytes = counters
            .transactions
            .saturating_mul(BYTES_PER_TRANSACTION)
            .max(1);
        let intensity_ops_byte = counters.instructions as f64 / bytes as f64;
        let ideal_cycles = counters.cycles().div_ceil(u64::from(spec.sm_count).max(1));
        let achieved_ops_s = if ideal_cycles == 0 {
            0.0
        } else {
            counters.instructions as f64 / spec.cycles_to_seconds(ideal_cycles)
        };
        let bound = if intensity_ops_byte < ridge_ops_byte {
            "memory"
        } else {
            "compute"
        };
        RooflinePoint {
            compute_roof_ops_s,
            mem_roof_bytes_s,
            ridge_ops_byte,
            intensity_ops_byte,
            achieved_ops_s,
            bound,
        }
    }
}

/// One device's share of a run: its counter totals plus its roofline
/// placement. Fleet runs carry one entry per shard device; single-device
/// and hybrid runs carry exactly one.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Device model name (Table I).
    pub device: String,
    /// Counters attributed to this device.
    pub counters: CounterSet,
    /// The device's roofline placement for those counters.
    pub roofline: RooflinePoint,
}

impl DeviceProfile {
    /// Builds the entry for `spec`, deriving the roofline placement.
    #[must_use]
    pub fn new(spec: &DeviceSpec, counters: CounterSet) -> Self {
        let roofline = RooflinePoint::from_counters(spec, &counters);
        DeviceProfile {
            device: spec.name.to_string(),
            counters,
            roofline,
        }
    }
}

/// A full run profile: counters attributed per adjacent level set, per
/// SM (by *scheduled* assignment — fault recovery may migrate a block,
/// but its priced counters stay with the SM the §VI schedule chose, so
/// profiles are fault-plan-independent), and in total, plus per-device
/// roofline entries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileData {
    /// Counters per ALS index (the per-chunk attribution).
    pub per_als: Vec<CounterSet>,
    /// Counters per SM index of the scheduled assignment.
    pub per_sm: Vec<CounterSet>,
    /// Totals over all work.
    pub totals: CounterSet,
    /// One entry per device that ran a shard of the work.
    pub devices: Vec<DeviceProfile>,
}

impl ProfileData {
    /// An empty profile with `n_als` ALS slots and `n_sm` SM slots.
    #[must_use]
    pub fn new(n_als: usize, n_sm: usize) -> Self {
        ProfileData {
            per_als: vec![CounterSet::default(); n_als],
            per_sm: vec![CounterSet::default(); n_sm],
            totals: CounterSet::default(),
            devices: Vec::new(),
        }
    }

    /// Attributes one counter bundle to ALS `als_idx` and SM `sm`.
    pub fn record(&mut self, als_idx: usize, sm: usize, counters: &CounterSet) {
        self.per_als[als_idx].merge(counters);
        if sm < self.per_sm.len() {
            self.per_sm[sm].merge(counters);
        }
        self.totals.merge(counters);
    }

    /// Attributes one counter bundle to ALS `als_idx` only (host
    /// executors have no SM axis).
    pub fn record_als(&mut self, als_idx: usize, counters: &CounterSet) {
        self.per_als[als_idx].merge(counters);
        self.totals.merge(counters);
    }

    /// ALS indices of the `n` hottest sets by priced cycles (ties and
    /// cycle-free host profiles fall back to test counts, then to the
    /// ALS index), hottest first. Deterministic.
    #[must_use]
    pub fn hotspots(&self, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.per_als.len())
            .filter(|&i| self.per_als[i].tests > 0 || self.per_als[i].cycles() > 0)
            .collect();
        idx.sort_by(|&a, &b| {
            let (ca, cb) = (&self.per_als[a], &self.per_als[b]);
            cb.cycles()
                .cmp(&ca.cycles())
                .then(cb.tests.cmp(&ca.tests))
                .then(a.cmp(&b))
        });
        idx.truncate(n);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(tests: u128, tx: u64, min_tx: u64, cc: u64, mc: u64) -> CounterSet {
        CounterSet {
            tests,
            instructions: CounterSet::instructions_for_tests(tests),
            transactions: tx,
            min_transactions: min_tx,
            bank_conflicts: 0,
            compute_cycles: cc,
            mem_cycles: mc,
            blocks: 1,
        }
    }

    #[test]
    fn merge_is_fieldwise_addition() {
        let mut a = set(10, 30, 3, 100, 200);
        a.merge(&set(5, 10, 1, 50, 25));
        assert_eq!(a.tests, 15);
        assert_eq!(a.instructions, 15 * INSTRUCTIONS_PER_TEST);
        assert_eq!(a.transactions, 40);
        assert_eq!(a.min_transactions, 4);
        assert_eq!(a.cycles(), 375);
        assert_eq!(a.blocks, 2);
    }

    #[test]
    fn coalescing_efficiency_bounds() {
        assert_eq!(CounterSet::default().coalescing_efficiency(), 1.0);
        let c = set(1, 32, 1, 0, 0);
        assert!((c.coalescing_efficiency() - 1.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn record_attributes_to_all_three_axes() {
        let mut p = ProfileData::new(3, 2);
        p.record(1, 0, &set(10, 4, 2, 7, 9));
        p.record(1, 1, &set(20, 8, 4, 3, 1));
        p.record(2, 0, &set(5, 2, 1, 2, 2));
        assert_eq!(p.per_als[0].tests, 0);
        assert_eq!(p.per_als[1].tests, 30);
        assert_eq!(p.per_sm[0].tests, 15);
        assert_eq!(p.totals.tests, 35);
        assert_eq!(p.totals.blocks, 3);
    }

    #[test]
    fn hotspots_rank_by_cycles_then_tests() {
        let mut p = ProfileData::new(4, 1);
        p.record_als(0, &set(100, 0, 0, 10, 0));
        p.record_als(1, &set(1, 0, 0, 99, 0));
        p.record_als(3, &set(50, 0, 0, 10, 0));
        assert_eq!(p.hotspots(10), vec![1, 0, 3]);
        assert_eq!(p.hotspots(1), vec![1]);
    }

    #[test]
    fn roofline_is_a_pure_function_of_spec_and_counters() {
        let spec = DeviceSpec::c1060();
        let c = set(1_000_000, 40_000, 10_000, 500_000, 700_000);
        let r1 = RooflinePoint::from_counters(&spec, &c);
        let r2 = RooflinePoint::from_counters(&spec, &c);
        assert_eq!(r1, r2);
        assert!(r1.compute_roof_ops_s > 0.0);
        assert!(r1.mem_roof_bytes_s > 0.0);
        // 12M instructions over ~5MB moved: well left of any ridge on
        // these devices — memory bound.
        assert_eq!(r1.bound, "memory");
        assert!(r1.intensity_ops_byte < r1.ridge_ops_byte);
        assert!(r1.achieved_ops_s > 0.0);
    }

    #[test]
    fn device_profile_carries_the_model_name() {
        let spec = DeviceSpec::c2050();
        let d = DeviceProfile::new(&spec, set(10, 4, 2, 5, 5));
        assert_eq!(d.device, "C2050");
        assert_eq!(d.counters.tests, 10);
    }
}
