//! Target-makespan search (paper Algorithms 1 and 3).
//!
//! [`converge`] is the one target-search loop of the workspace. Each
//! round cuts `[LB, UB]` into `segments` equal segments, probes their
//! midpoints, and keeps the part between the last infeasible and the
//! first feasible probe, until `LB = UB`. One segment is the classic
//! bisection (Algorithm 1); four is the paper's quarter split
//! (Algorithm 3), which shrinks the interval to at most a quarter (often
//! an eighth) per round. A round counts once however many probes it
//! runs, so iteration counts match Table VII's accounting. Callers supply
//! only the per-round probe: [`run`] here, the service's cache-backed
//! solve, and the GPU and OpenMP models.
//!
//! Every probe is the same *dual-approximation probe*: for a target `T`,
//! round the jobs and ask the DP whether the rounded long jobs pack into
//! `m` machines of capacity `T`. An infeasible probe proves `OPT > T`
//! (rounding only shrinks loads), so at convergence the final target
//! satisfies `T* ≤ OPT`, which is what the `(1+ε)` guarantee needs.

use crate::dp::{DpEngine, DpProblem, DpStats, INFEASIBLE};
use crate::rounding::{Rounding, RoundingOutcome};
use pcmax_core::{bounds, Instance};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::Arc;

/// Pure interval arithmetic of the search.
pub mod interval {
    /// Bisection probe target: `lb + (ub − lb)/2`, never `(lb + ub)/2` —
    /// the sum wraps when both endpoints sit near `u64::MAX` (untrusted
    /// u64-scale instances reach exactly that regime), and a wrapped
    /// midpoint lands *outside* `[lb, ub]`, breaking the search
    /// invariant silently.
    pub fn bisection_target(lb: u64, ub: u64) -> u64 {
        debug_assert!(lb <= ub);
        lb + (ub - lb) / 2
    }

    /// `n`-ary split probe targets: midpoints of the `segments` equal
    /// segments of `[lb, ub]`, deduplicated (they collapse on narrow
    /// intervals). One segment gives `[bisection_target(lb, ub)]`; the
    /// paper's quarter split is `segments = 4`.
    pub fn nary_targets(lb: u64, ub: u64, segments: usize) -> Vec<u64> {
        assert!(segments >= 1);
        debug_assert!(lb <= ub);
        let s = segments as u128;
        let width = (ub - lb) as u128;
        // Segment bounds and midpoints in u128: `p · width` wraps u64
        // for full-range intervals, and `bounds[p] + bounds[p+1]` wraps
        // when the endpoints are near u64::MAX. Every result is within
        // `[lb, ub]` (`p·width/s ≤ width`), so the casts back are exact.
        let bounds: Vec<u128> = (0..=s).map(|p| lb as u128 + p * width / s).collect();
        let mut targets: Vec<u64> = (0..segments)
            .map(|p| ((bounds[p] + bounds[p + 1]) / 2) as u64)
            .collect();
        targets.dedup();
        targets
    }

    /// `n`-ary interval update from `(target, feasible)` pairs in
    /// ascending target order (Alg. 3 lines 13–25 generalised): the first
    /// feasible probe becomes the new UB; the last infeasible probe below
    /// it pushes the LB. With one probe this is the bisection update.
    pub fn nary_update(lb: u64, ub: u64, probes: &[(u64, bool)]) -> (u64, u64) {
        debug_assert!(probes.windows(2).all(|w| w[0].0 < w[1].0));
        match probes.iter().position(|&(_, f)| f) {
            Some(0) => (lb, probes[0].0),
            Some(j) => (probes[j - 1].0 + 1, probes[j].0),
            None => (probes.last().expect("at least one probe").0 + 1, ub),
        }
    }
}

/// Searches `[lb, ub]` for the smallest probe-feasible target, probing
/// `segments` targets per round, and returns it.
///
/// `round(lb, ub, targets)` answers one round: whether each of
/// `targets` (ascending, inside `[lb, ub]`) is feasible. An `Err` stops
/// the search and is returned unchanged. The caller guarantees that `ub`
/// is feasible; `lb == ub` runs no round.
pub fn converge<E>(
    mut lb: u64,
    mut ub: u64,
    segments: usize,
    mut round: impl FnMut(u64, u64, &[u64]) -> Result<Vec<bool>, E>,
) -> Result<u64, E> {
    while lb < ub {
        let targets = interval::nary_targets(lb, ub, segments);
        let feasible = round(lb, ub, &targets)?;
        debug_assert_eq!(feasible.len(), targets.len());
        let outcomes: Vec<(u64, bool)> = targets.into_iter().zip(feasible).collect();
        (lb, ub) = interval::nary_update(lb, ub, &outcomes);
    }
    Ok(lb)
}

/// One DP probe at a target makespan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeRecord {
    /// Target makespan `T`.
    pub target: u64,
    /// Whether the rounded long jobs packed into `m` machines.
    pub feasible: bool,
    /// `OPT(N)` for this probe (`None` when a job exceeded `T`).
    pub opt: Option<u32>,
    /// DP table size `σ` (1 when no long jobs / infeasible-by-length).
    pub table_size: usize,
    /// Non-zero dimensionality of the DP table.
    pub ndim: usize,
    /// Whether this probe was answered from the memo cache (the repeated
    /// configurations the paper notes in §III.A).
    pub cached: bool,
    /// Wall time of the rounding step in µs (0 unless `pcmax_obs`
    /// recording is enabled).
    pub rounding_us: u64,
    /// DP statistics (zeroed for cached/degenerate probes).
    pub dp_stats: DpStats,
    /// Machine configurations realising `opt`, one per machine; extracted
    /// only for feasible probes.
    pub configs: Option<Arc<Vec<Vec<usize>>>>,
}

/// One search round: one probe per segment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IterationRecord {
    /// Interval lower bound at the start of the round.
    pub lb: u64,
    /// Interval upper bound at the start of the round.
    pub ub: u64,
    /// The probes of this round, ascending by target.
    pub probes: Vec<ProbeRecord>,
}

/// Result of a completed search.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchResult {
    /// The converged target `T* = LB = UB` (always probe-feasible).
    pub target: u64,
    /// Number of rounds (the paper's "#itr").
    pub iterations: usize,
    /// Number of DP solves actually executed (cache misses).
    pub dp_runs: usize,
    /// Probes answered from the memo cache.
    pub cache_hits: usize,
    /// Per-round telemetry.
    pub records: Vec<IterationRecord>,
    /// Machine configurations of the probe at `target`, one per machine
    /// the DP used for the long jobs.
    pub configs: Arc<Vec<Vec<usize>>>,
}

/// Probes a single target: rounding + DP feasibility against `m` machines.
pub fn probe(inst: &Instance, target: u64, k: u64, m: usize, engine: DpEngine) -> ProbeRecord {
    let rounding_timer = pcmax_obs::Timer::start();
    let outcome = Rounding::compute(inst, target, k);
    let rounding_us = rounding_timer.elapsed_us();
    match outcome {
        RoundingOutcome::Infeasible { .. } => ProbeRecord {
            target,
            feasible: false,
            opt: None,
            table_size: 1,
            ndim: 0,
            cached: false,
            rounding_us,
            dp_stats: DpStats::default(),
            configs: None,
        },
        RoundingOutcome::Rounded(r) => {
            let problem = DpProblem::from_rounding(&r);
            let sol = problem.solve(engine);
            let feasible = sol.opt != INFEASIBLE && sol.opt as usize <= m;
            let configs = if feasible {
                problem.extract_configs(&sol.values).map(Arc::new)
            } else {
                None
            };
            ProbeRecord {
                target,
                feasible,
                opt: Some(sol.opt),
                table_size: problem.table_size(),
                ndim: r.ndim(),
                cached: false,
                rounding_us,
                dp_stats: sol.stats,
                configs,
            }
        }
    }
}

/// Runs the target search with `segments` probes per round: 1 is
/// bisection (Algorithm 1), 4 the paper's quarter split (Algorithm 3);
/// more segments trade probes for rounds (the "why four processes?"
/// ablation).
///
/// Identical targets across rounds are probed once (the paper observes
/// "some scheduling configurations appear multiple times … which implies
/// repeated calculations"). A round's fresh targets run concurrently on
/// the rayon pool — the CPU analogue of the paper's Hyper-Q processes;
/// probes are pure, so the result does not depend on the pool.
pub fn run(inst: &Instance, k: u64, engine: DpEngine, segments: usize) -> SearchResult {
    let mut memo = BTreeMap::new();
    let mut cache_hits = 0;
    let mut records = Vec::new();
    let lb = bounds::lower_bound(inst);
    let ub = bounds::upper_bound(inst);
    let Ok(target) = converge(lb, ub, segments, |lb, ub, targets| {
        let probes = probe_memo(inst, k, engine, targets, &mut memo, &mut cache_hits);
        let feasible = probes.iter().map(|p| p.feasible).collect();
        records.push(IterationRecord { lb, ub, probes });
        Ok::<_, Infallible>(feasible)
    });
    // The converged target is feasible by the search invariant; its probe
    // (a memo hit unless `lb == ub` or every probe was infeasible) holds
    // the configurations the schedule is built from.
    let configs = probe_memo(inst, k, engine, &[target], &mut memo, &mut cache_hits)
        .pop()
        .and_then(|p| p.configs)
        .unwrap_or_else(|| panic!("search converged on an infeasible target {target}"));
    SearchResult {
        target,
        iterations: records.len(),
        dp_runs: memo.len(),
        cache_hits,
        records,
        configs,
    }
}

/// Probes ascending `targets` through the memo: hits are answered from
/// it (and counted), the fresh targets are probed concurrently and
/// memoised.
fn probe_memo(
    inst: &Instance,
    k: u64,
    engine: DpEngine,
    targets: &[u64],
    memo: &mut BTreeMap<u64, ProbeRecord>,
    cache_hits: &mut usize,
) -> Vec<ProbeRecord> {
    use rayon::prelude::*;
    let fresh: Vec<u64> = targets
        .iter()
        .copied()
        .filter(|t| !memo.contains_key(t))
        .collect();
    *cache_hits += targets.len() - fresh.len();
    let computed: Vec<ProbeRecord> = fresh
        .par_iter()
        .map(|&t| probe(inst, t, k, inst.machines(), engine))
        .collect();
    memo.extend(computed.into_iter().map(|rec| (rec.target, rec)));
    targets
        .iter()
        .map(|t| ProbeRecord {
            cached: fresh.binary_search(t).is_err(),
            ..memo[t].clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_core::exact::brute_force_makespan;
    use pcmax_core::gen::uniform;

    const ENGINE: DpEngine = DpEngine::Sequential;

    #[test]
    fn bisection_and_quarter_agree_on_target() {
        for seed in 0..6 {
            let inst = uniform(seed, 12, 3, 5, 40);
            let b = run(&inst, 4, ENGINE, 1);
            let q = run(&inst, 4, ENGINE, 4);
            assert_eq!(b.target, q.target, "seed {seed}");
        }
    }

    #[test]
    fn quarter_needs_no_more_rounds_than_bisection() {
        for seed in 0..6 {
            let inst = uniform(100 + seed, 14, 4, 5, 60);
            let b = run(&inst, 4, ENGINE, 1);
            let q = run(&inst, 4, ENGINE, 4);
            assert!(
                q.iterations <= b.iterations,
                "seed {seed}: quarter {} vs bisection {}",
                q.iterations,
                b.iterations
            );
        }
    }

    #[test]
    fn target_never_exceeds_true_optimum_bound() {
        // T* ≤ OPT: infeasible probes prove OPT > T, and T*−1 (or the
        // initial LB) is covered by one of them.
        for seed in 0..5 {
            let inst = uniform(200 + seed, 9, 3, 3, 25);
            let opt = brute_force_makespan(&inst);
            let b = run(&inst, 4, ENGINE, 1);
            assert!(b.target <= opt, "seed {seed}: T*={} opt={opt}", b.target);
            assert!(b.target >= pcmax_core::lower_bound(&inst));
        }
    }

    #[test]
    fn upper_bound_probe_is_always_feasible() {
        for seed in 0..5 {
            let inst = uniform(300 + seed, 20, 4, 1, 50);
            let ub = pcmax_core::upper_bound(&inst);
            assert!(probe(&inst, ub, 4, inst.machines(), ENGINE).feasible);
        }
    }

    #[test]
    fn probe_below_longest_job_is_infeasible() {
        let inst = uniform(9, 10, 2, 10, 30);
        let rec = probe(&inst, inst.max_time() - 1, 4, 2, ENGINE);
        assert!(!rec.feasible);
        assert_eq!(rec.opt, None);
    }

    #[test]
    fn cache_avoids_duplicate_dp_runs() {
        let inst = uniform(17, 15, 3, 5, 45);
        let q = run(&inst, 4, ENGINE, 4);
        let total_probes: usize = q.records.iter().map(|r| r.probes.len()).sum();
        // +1 for the final probe at the converged target.
        assert_eq!(q.dp_runs + q.cache_hits, total_probes + 1);
    }

    #[test]
    fn single_machine_converges_to_total_work() {
        let inst = uniform(3, 8, 1, 2, 9);
        let b = run(&inst, 4, ENGINE, 1);
        assert_eq!(b.target, inst.total_work());
    }

    #[test]
    fn single_job_converges_to_its_length() {
        // One job on two machines: OPT = t; LB = t is feasible so both
        // searches walk the interval [t, t + t] down to t.
        let inst = Instance::new(vec![10], 2);
        let b = run(&inst, 4, ENGINE, 1);
        let q = run(&inst, 4, ENGINE, 4);
        assert_eq!(b.target, 10);
        assert_eq!(q.target, 10);
        assert!(q.iterations <= b.iterations);
    }

    #[test]
    fn one_segment_probes_bisection_midpoints() {
        for seed in 0..4 {
            let inst = uniform(700 + seed, 15, 4, 5, 50);
            let b = run(&inst, 4, ENGINE, 1);
            for rec in &b.records {
                let targets: Vec<u64> = rec.probes.iter().map(|p| p.target).collect();
                assert_eq!(targets, vec![interval::bisection_target(rec.lb, rec.ub)]);
            }
        }
    }

    #[test]
    fn equal_bounds_run_no_round() {
        let mut rounds = 0;
        let target = converge(7, 7, 4, |_, _, targets| {
            rounds += 1;
            Ok::<_, ()>(vec![true; targets.len()])
        });
        assert_eq!(target, Ok(7));
        assert_eq!(rounds, 0);
    }

    #[test]
    fn probe_error_stops_the_search_unchanged() {
        let mut rounds = 0;
        let result = converge(0, 1_000, 1, |_, _, targets| {
            rounds += 1;
            if rounds == 3 {
                Err("deadline")
            } else {
                Ok(vec![false; targets.len()])
            }
        });
        assert_eq!(result, Err("deadline"));
        assert_eq!(rounds, 3);
    }

    #[test]
    fn final_configs_pack_the_rounded_long_jobs() {
        let inst = uniform(31, 20, 4, 5, 60);
        let r = run(&inst, 4, ENGINE, 4);
        assert!(r.configs.len() <= inst.machines());
        let RoundingOutcome::Rounded(rounding) = Rounding::compute(&inst, r.target, 4) else {
            panic!("converged target below the longest job");
        };
        let long_jobs: usize = r.configs.iter().flatten().sum();
        assert_eq!(
            long_jobs,
            rounding.classes.iter().map(|c| c.jobs.len()).sum::<usize>()
        );
        // Only feasible probes carry configurations.
        for p in r.records.iter().flat_map(|rec| &rec.probes) {
            assert_eq!(p.configs.is_some(), p.feasible, "probe at {}", p.target);
        }
    }

    #[test]
    fn more_segments_never_more_rounds() {
        for seed in 0..4 {
            let inst = uniform(800 + seed, 18, 4, 10, 90);
            let mut prev_rounds = usize::MAX;
            for segments in [1usize, 2, 4, 8, 16] {
                let r = run(&inst, 4, ENGINE, segments);
                assert_eq!(r.target, run(&inst, 4, ENGINE, 1).target);
                assert!(
                    r.iterations <= prev_rounds,
                    "seed {seed}, {segments} segments: {} rounds after {prev_rounds}",
                    r.iterations
                );
                prev_rounds = r.iterations;
            }
        }
    }

    #[test]
    fn interval_math_survives_extreme_bounds() {
        // Regression: `(lb + ub) / 2` and `lb + p·width` both wrapped
        // when the interval sat near u64::MAX, producing probe targets
        // *outside* [lb, ub].
        let cases = [
            (u64::MAX - 10, u64::MAX),
            (u64::MAX / 2, u64::MAX),
            (0, u64::MAX),
            (u64::MAX - 1, u64::MAX),
            (u64::MAX, u64::MAX),
        ];
        for (lb, ub) in cases {
            let mid = interval::bisection_target(lb, ub);
            assert!(mid >= lb && mid <= ub, "bisection [{lb}, {ub}] → {mid}");
            for segments in [1usize, 2, 4, 8, 16] {
                let ts = interval::nary_targets(lb, ub, segments);
                assert!(!ts.is_empty());
                assert!(
                    ts.windows(2).all(|w| w[0] < w[1]),
                    "targets must be strictly ascending"
                );
                for &t in &ts {
                    assert!(
                        t >= lb && t <= ub,
                        "{segments}-ary [{lb}, {ub}] → {t} escapes the interval"
                    );
                }
            }
        }
        // One-segment n-ary must still equal bisection at the extremes.
        for (lb, ub) in cases {
            assert_eq!(
                interval::nary_targets(lb, ub, 1),
                vec![interval::bisection_target(lb, ub)]
            );
        }
    }

    #[test]
    fn search_converges_on_near_max_instance() {
        // End-to-end: one huge job + small ones. OPT = u64::MAX - 20
        // (the huge job alone dominates); all searches must converge to
        // a target ≤ OPT without wrapping anywhere in the interval walk.
        let inst = Instance::new(vec![u64::MAX - 20, 3, 2, 1], 2);
        let opt = u64::MAX - 20;
        for segments in [1usize, 4] {
            let r = run(&inst, 4, ENGINE, segments);
            assert_eq!(r.target, opt, "{segments}-ary");
            assert!(r.records.iter().all(|rec| rec.lb <= rec.ub));
        }
        let b = run(&inst, 4, ENGINE, 1);
        assert_eq!(b.target, opt);
    }

    #[test]
    fn records_track_shrinking_interval() {
        let inst = uniform(23, 18, 4, 10, 80);
        let b = run(&inst, 4, ENGINE, 1);
        for w in b.records.windows(2) {
            let prev = w[0].ub - w[0].lb;
            let next = w[1].ub - w[1].lb;
            assert!(next < prev, "interval must shrink");
        }
        let q = run(&inst, 4, ENGINE, 4);
        for w in q.records.windows(2) {
            let prev = w[0].ub - w[0].lb;
            let next = w[1].ub - w[1].lb;
            // Quarter split shrinks at least 2× per round (usually 4–8×).
            assert!(next <= prev / 2, "quarter shrinks by ≥ half");
        }
    }
}
