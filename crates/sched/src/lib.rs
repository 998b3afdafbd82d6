//! # trigon-sched
//!
//! Makespan scheduling on identical machines — §VI of *On Analyzing Large
//! Graphs Using GPUs* (IPDPSW 2013).
//!
//! After Algorithm 1 splits the graph into chunks, "blocks of threads …
//! are scheduled to operate on the data … so that the time required is
//! minimum. This problem is equivalent to the Makespan Scheduling
//! problem, and is NP-hard" (even for two identical machines). The jobs
//! are the chunk computations (processing time ∝ chunk size) and the
//! machines are the streaming multiprocessors.
//!
//! Provided policies:
//!
//! * [`round_robin`] — the strawman (job `j` → machine `j mod m`);
//! * [`list_schedule`] — Graham's greedy list scheduling in given order
//!   (2 − 1/m approximation);
//! * [`lpt`] — Longest Processing Time first (4/3 − 1/(3m)
//!   approximation), the heuristic the simulated dispatcher uses, and
//!   [`lpt_runs`], the same schedule over run-length-encoded equal jobs;
//! * [`exact`] — branch-and-bound optimum for small instances, used to
//!   validate the heuristics' ratios empirically.

#![deny(missing_docs)]

pub mod advanced;
pub mod trace;

pub use advanced::{exact_two_machines, multifit, tabu_improve};
pub use trace::{trace_runs, trace_schedule};

/// A computed schedule: which machine runs each job, plus derived loads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// `assignment[j]` = machine index of job `j`.
    pub assignment: Vec<u32>,
    /// Total processing time per machine.
    pub loads: Vec<u64>,
}

impl Schedule {
    /// Builds a schedule from an explicit assignment.
    ///
    /// # Panics
    ///
    /// Panics if any machine index is `≥ machines`.
    #[must_use]
    pub fn from_assignment(jobs: &[u64], machines: u32, assignment: Vec<u32>) -> Self {
        assert_eq!(jobs.len(), assignment.len(), "assignment length mismatch");
        let mut loads = vec![0u64; machines as usize];
        for (&p, &m) in jobs.iter().zip(&assignment) {
            assert!((m as usize) < loads.len(), "machine index {m} out of range");
            loads[m as usize] += p;
        }
        Self { assignment, loads }
    }

    /// The makespan `l_max = max_i l_i` (§VI).
    #[must_use]
    pub fn makespan(&self) -> u64 {
        self.loads.iter().copied().max().unwrap_or(0)
    }

    /// Load imbalance `makespan / mean_load` (1.0 = perfect), `1.0` for
    /// an empty schedule.
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        let total: u64 = self.loads.iter().sum();
        if total == 0 || self.loads.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / self.loads.len() as f64;
        self.makespan() as f64 / mean
    }
}

/// Lower bound on the optimal makespan:
/// `max(⌈Σp / m⌉, max_j p_j)`.
#[must_use]
pub fn lower_bound(jobs: &[u64], machines: u32) -> u64 {
    assert!(machines > 0, "need at least one machine");
    let total: u64 = jobs.iter().sum();
    let avg = total.div_ceil(u64::from(machines));
    let longest = jobs.iter().copied().max().unwrap_or(0);
    avg.max(longest)
}

/// Round-robin assignment — job `j` to machine `j mod m`. The §VI
/// strawman; oblivious to job sizes.
#[must_use]
pub fn round_robin(jobs: &[u64], machines: u32) -> Schedule {
    assert!(machines > 0, "need at least one machine");
    let assignment: Vec<u32> = (0..jobs.len()).map(|j| (j as u32) % machines).collect();
    Schedule::from_assignment(jobs, machines, assignment)
}

/// Graham's list scheduling: jobs in the given order, each to the
/// currently least-loaded machine. Guarantee: `≤ (2 − 1/m) · OPT`.
#[must_use]
pub fn list_schedule(jobs: &[u64], machines: u32) -> Schedule {
    assert!(machines > 0, "need at least one machine");
    let mut loads = vec![0u64; machines as usize];
    let mut assignment = Vec::with_capacity(jobs.len());
    for &p in jobs {
        let m = loads
            .iter()
            .enumerate()
            .min_by_key(|&(i, &l)| (l, i))
            .map(|(i, _)| i)
            .expect("machines > 0");
        loads[m] += p;
        assignment.push(m as u32);
    }
    Schedule { assignment, loads }
}

/// Longest Processing Time first: sort jobs descending, then list
/// schedule. Guarantee: `≤ (4/3 − 1/(3m)) · OPT`. This is the policy the
/// simulated GPU dispatcher uses for chunk→SM assignment.
#[must_use]
pub fn lpt(jobs: &[u64], machines: u32) -> Schedule {
    assert!(machines > 0, "need at least one machine");
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_unstable_by_key(|&j| (std::cmp::Reverse(jobs[j]), j));
    let mut loads = vec![0u64; machines as usize];
    let mut assignment = vec![0u32; jobs.len()];
    for &j in &order {
        let m = loads
            .iter()
            .enumerate()
            .min_by_key(|&(i, &l)| (l, i))
            .map(|(i, _)| i)
            .expect("machines > 0");
        loads[m] += jobs[j];
        assignment[j] = m as u32;
    }
    Schedule { assignment, loads }
}

/// An [`lpt`] schedule of run-length-encoded jobs (see [`lpt_runs`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSchedule {
    /// `counts[r][m]` = jobs of run `r` placed on machine `m`.
    pub counts: Vec<Vec<u64>>,
    /// Total processing time per machine.
    pub loads: Vec<u64>,
}

impl RunSchedule {
    /// The makespan `l_max = max_i l_i` (§VI).
    #[must_use]
    pub fn makespan(&self) -> u64 {
        self.loads.iter().copied().max().unwrap_or(0)
    }
}

/// [`lpt`] over run-length-encoded jobs: `runs[r] = (cycles, count)`
/// stands for `count` consecutive jobs of `cycles` each, listed in run
/// order. The loads equal those of `lpt` on the expanded job list, and
/// `counts[r][m]` equals how many of run `r`'s jobs it puts on machine
/// `m` — in `O(runs · machines · log)` instead of one heap step per job.
///
/// LPT places equal jobs consecutively, each on the least-loaded
/// machine (ties to the lower index), so `k` jobs of `c > 0` cycles take
/// the `k` smallest `(load_m + i·c, m)` pairs; a threshold search finds
/// them. Zero-cycle jobs never change a load and all land on the one
/// least-loaded machine.
///
/// # Panics
///
/// Panics if `machines == 0`.
#[must_use]
pub fn lpt_runs(runs: &[(u64, u64)], machines: u32) -> RunSchedule {
    assert!(machines > 0, "need at least one machine");
    let mut order: Vec<usize> = (0..runs.len()).collect();
    order.sort_unstable_by_key(|&r| (std::cmp::Reverse(runs[r].0), r));
    let mut loads = vec![0u64; machines as usize];
    let mut counts = vec![vec![0u64; machines as usize]; runs.len()];
    for &r in &order {
        let (c, k) = runs[r];
        if k == 0 {
            continue;
        }
        let placed = &mut counts[r];
        if c == 0 {
            let m = (0..loads.len())
                .min_by_key(|&m| (loads[m], m))
                .expect("machines > 0");
            placed[m] = k;
            continue;
        }
        place_equal_jobs(&loads, c, k, placed);
        for (load, &n) in loads.iter_mut().zip(placed.iter()) {
            *load += n * c;
        }
    }
    RunSchedule { counts, loads }
}

/// Greedy placement of `k` jobs of `c > 0` cycles onto `loads`: finds
/// the smallest value `t` with at least `k` pairs `(load_m + i·c) ≤ t`,
/// takes every pair below `t`, then the pairs exactly at `t` by machine
/// index.
fn place_equal_jobs(loads: &[u64], c: u64, k: u64, placed: &mut [u64]) {
    let (c, k) = (u128::from(c), u128::from(k));
    // Pairs with value ≤ t on machine `load`.
    let at_most = |t: u128, load: u64| -> u128 {
        let load = u128::from(load);
        if t < load {
            0
        } else {
            (t - load) / c + 1
        }
    };
    let min_load = u128::from(*loads.iter().min().expect("machines > 0"));
    let (mut lo, mut hi) = (min_load, min_load + (k - 1) * c);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if loads.iter().map(|&l| at_most(mid, l)).sum::<u128>() >= k {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let t = lo;
    let mut left = k;
    for (slot, &load) in placed.iter_mut().zip(loads) {
        let below = if t == 0 { 0 } else { at_most(t - 1, load) };
        *slot = below as u64;
        left -= below;
    }
    for (slot, &load) in placed.iter_mut().zip(loads) {
        if left == 0 {
            break;
        }
        let load = u128::from(load);
        if t >= load && (t - load) % c == 0 {
            *slot += 1;
            left -= 1;
        }
    }
}

/// Online Graham step for fault recovery: the least-loaded machine among
/// the survivors (`alive[i]`), breaking ties toward the lower index.
/// Returns `None` when no machine survives. This is the §VI makespan
/// argument applied *online*: when an SM stalls or a chunk must be
/// re-executed, the stranded job goes where it extends the schedule
/// least.
///
/// # Panics
///
/// Panics if `loads` and `alive` have different lengths.
#[must_use]
pub fn least_loaded_alive(loads: &[u64], alive: &[bool]) -> Option<usize> {
    assert_eq!(loads.len(), alive.len(), "loads/alive length mismatch");
    loads
        .iter()
        .enumerate()
        .filter(|&(i, _)| alive[i])
        .min_by_key(|&(i, &l)| (l, i))
        .map(|(i, _)| i)
}

/// Exact optimal makespan by depth-first branch and bound. Exponential —
/// intended for validation on instances of ≲ 20 jobs (the problem is
/// NP-hard even for two machines, as §VI stresses).
///
/// # Panics
///
/// Panics if `machines == 0`.
#[must_use]
pub fn exact(jobs: &[u64], machines: u32) -> Schedule {
    assert!(machines > 0, "need at least one machine");
    // Sort descending: placing big jobs first prunes aggressively.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_unstable_by_key(|&j| (std::cmp::Reverse(jobs[j]), j));
    let sorted: Vec<u64> = order.iter().map(|&j| jobs[j]).collect();

    // Start from LPT as the incumbent.
    let incumbent = lpt(jobs, machines);
    let mut best = incumbent.makespan();
    let mut best_assign_sorted: Vec<u32> = order.iter().map(|&j| incumbent.assignment[j]).collect();

    let bound = lower_bound(jobs, machines);
    let mut loads = vec![0u64; machines as usize];
    let mut current = vec![0u32; sorted.len()];
    // Suffix sums for a remaining-work bound.
    let mut suffix = vec![0u64; sorted.len() + 1];
    for i in (0..sorted.len()).rev() {
        suffix[i] = suffix[i + 1] + sorted[i];
    }

    #[allow(clippy::too_many_arguments)] // recursion state, local helper
    fn dfs(
        i: usize,
        sorted: &[u64],
        suffix: &[u64],
        machines: u32,
        loads: &mut [u64],
        current: &mut [u32],
        best: &mut u64,
        best_assign: &mut Vec<u32>,
        bound: u64,
    ) {
        if *best == bound {
            return; // provably optimal already
        }
        if i == sorted.len() {
            let mk = loads.iter().copied().max().unwrap_or(0);
            if mk < *best {
                *best = mk;
                best_assign.copy_from_slice(current);
            }
            return;
        }
        // Remaining-work bound: even perfectly balanced, some machine gets
        // at least ceil((Σ loads + remaining) / m).
        let total_left: u64 = loads.iter().sum::<u64>() + suffix[i];
        if total_left.div_ceil(u64::from(machines)) >= *best {
            return;
        }
        let mut tried = Vec::with_capacity(machines as usize);
        for m in 0..machines as usize {
            // Symmetry breaking: skip machines with a load we already tried.
            if tried.contains(&loads[m]) {
                continue;
            }
            tried.push(loads[m]);
            if loads[m] + sorted[i] >= *best {
                continue;
            }
            loads[m] += sorted[i];
            current[i] = m as u32;
            dfs(
                i + 1,
                sorted,
                suffix,
                machines,
                loads,
                current,
                best,
                best_assign,
                bound,
            );
            loads[m] -= sorted[i];
        }
    }

    dfs(
        0,
        &sorted,
        &suffix,
        machines,
        &mut loads,
        &mut current,
        &mut best,
        &mut best_assign_sorted,
        bound,
    );

    // Undo the descending permutation.
    let mut assignment = vec![0u32; jobs.len()];
    for (pos, &orig) in order.iter().enumerate() {
        assignment[orig] = best_assign_sorted[pos];
    }
    Schedule::from_assignment(jobs, machines, assignment)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_example_layout() {
        // Fig. 1: 7 chunks on 4 machines — M1 gets {1,5,7}, M2 {2},
        // M3 {3,6}, M4 {4}. With equal-ish sizes any policy fits them; we
        // check the machinery on that shape.
        let jobs = [3u64, 6, 4, 5, 2, 3, 1];
        let s = lpt(&jobs, 4);
        assert_eq!(s.loads.iter().sum::<u64>(), 24);
        assert!(s.makespan() >= lower_bound(&jobs, 4));
        assert_eq!(s.makespan(), exact(&jobs, 4).makespan());
    }

    #[test]
    fn lower_bound_cases() {
        assert_eq!(lower_bound(&[10, 1, 1], 3), 10); // dominated by longest
        assert_eq!(lower_bound(&[4, 4, 4, 4], 2), 8); // dominated by average
        assert_eq!(lower_bound(&[], 5), 0);
    }

    #[test]
    fn exact_is_optimal_on_known_instances() {
        // Classic LPT-suboptimal instance: 5,5,4,4,3,3,3 ... m=3.
        // jobs {5,5,4,4,3,3,3}: total 27, OPT = 9 = {5,4},{5,4},{3,3,3}.
        let jobs = [5u64, 5, 4, 4, 3, 3, 3];
        let e = exact(&jobs, 3);
        assert_eq!(e.makespan(), 9);
        // A case where LPT is strictly suboptimal: {3,3,2,2,2} on 2
        // machines: LPT → 3+2+2=7 vs OPT 6 = {3,3} {2,2,2}.
        let jobs2 = [3u64, 3, 2, 2, 2];
        assert_eq!(lpt(&jobs2, 2).makespan(), 7);
        assert_eq!(exact(&jobs2, 2).makespan(), 6);
    }

    #[test]
    fn heuristics_within_guarantees() {
        // Deterministic pseudo-random instances via a simple LCG.
        let mut state = 12345u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % 50 + 1
        };
        for m in [2u32, 3, 5] {
            for _ in 0..20 {
                let jobs: Vec<u64> = (0..12).map(|_| next()).collect();
                let opt = exact(&jobs, m).makespan();
                let lpt_mk = lpt(&jobs, m).makespan();
                let list_mk = list_schedule(&jobs, m).makespan();
                let lb = lower_bound(&jobs, m);
                assert!(lb <= opt);
                assert!(opt <= lpt_mk && opt <= list_mk);
                // Graham bounds (scaled integer arithmetic, no floats).
                assert!(
                    3 * u128::from(m) * u128::from(lpt_mk)
                        <= (4 * u128::from(m) - 1) * u128::from(opt),
                    "LPT ratio violated: {lpt_mk} vs {opt} on m={m}"
                );
                assert!(
                    u128::from(m) * u128::from(list_mk)
                        <= (2 * u128::from(m) - 1) * u128::from(opt)
                );
            }
        }
    }

    #[test]
    fn round_robin_ignores_sizes() {
        let jobs = [100u64, 1, 100, 1];
        let rr = round_robin(&jobs, 2);
        assert_eq!(rr.makespan(), 200); // both big jobs on machine 0
        assert_eq!(lpt(&jobs, 2).makespan(), 101);
        assert_eq!(rr.assignment, vec![0, 1, 0, 1]);
    }

    #[test]
    fn single_machine_sums() {
        let jobs = [3u64, 5, 7];
        for s in [
            round_robin(&jobs, 1),
            list_schedule(&jobs, 1),
            lpt(&jobs, 1),
            exact(&jobs, 1),
        ] {
            assert_eq!(s.makespan(), 15);
        }
    }

    #[test]
    fn more_machines_than_jobs() {
        let jobs = [9u64, 4];
        let s = lpt(&jobs, 30);
        assert_eq!(s.makespan(), 9);
        assert_eq!(exact(&jobs, 30).makespan(), 9);
    }

    #[test]
    fn empty_jobs() {
        for s in [
            round_robin(&[], 4),
            list_schedule(&[], 4),
            lpt(&[], 4),
            exact(&[], 4),
        ] {
            assert_eq!(s.makespan(), 0);
            assert!(s.assignment.is_empty());
        }
    }

    #[test]
    fn imbalance_metric() {
        let s = Schedule::from_assignment(&[5, 5], 2, vec![0, 1]);
        assert!((s.imbalance() - 1.0).abs() < 1e-12);
        let bad = Schedule::from_assignment(&[5, 5], 2, vec![0, 0]);
        assert!((bad.imbalance() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn schedule_roundtrip_assignment() {
        let jobs = [2u64, 4, 6, 8];
        let s = exact(&jobs, 2);
        // Rebuild loads from the returned assignment; must agree.
        let re = Schedule::from_assignment(&jobs, 2, s.assignment.clone());
        assert_eq!(re.loads, s.loads);
        assert_eq!(re.makespan(), 10); // {8,2} {6,4}
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn zero_machines_rejected() {
        let _ = lpt(&[1], 0);
    }

    #[test]
    fn least_loaded_alive_skips_dead_machines() {
        let loads = [10u64, 2, 5, 1];
        assert_eq!(least_loaded_alive(&loads, &[true; 4]), Some(3));
        assert_eq!(
            least_loaded_alive(&loads, &[true, true, true, false]),
            Some(1)
        );
        assert_eq!(
            least_loaded_alive(&loads, &[true, false, false, false]),
            Some(0)
        );
        assert_eq!(least_loaded_alive(&loads, &[false; 4]), None);
        // Ties break toward the lower index.
        assert_eq!(least_loaded_alive(&[3, 3, 3], &[true; 3]), Some(0));
        assert_eq!(least_loaded_alive(&[], &[]), None);
    }
}
