//! The end-to-end PTAS: search + rounding + DP + schedule construction.

use crate::dp::DpEngine;
use crate::rounding::{Rounding, RoundingOutcome};
use crate::search::{self, SearchResult};
use pcmax_core::{Instance, Schedule};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How the target makespan is searched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SearchStrategy {
    /// Halve `[LB, UB]` each round (Algorithm 1).
    #[default]
    Bisection,
    /// Four concurrent probes per round (Algorithm 3, the GPU search).
    QuarterSplit,
    /// Generalised split: `segments` concurrent probes per round (the
    /// CPU analogue of running `segments` Hyper-Q processes).
    NarySplit {
        /// Probes per round (≥ 1; 1 = bisection, 4 = quarter split).
        segments: usize,
    },
}

impl SearchStrategy {
    /// Probes per round of [`search::run`].
    pub fn segments(self) -> usize {
        match self {
            SearchStrategy::Bisection => 1,
            SearchStrategy::QuarterSplit => 4,
            SearchStrategy::NarySplit { segments } => segments,
        }
    }
}

/// The Hochbaum–Shmoys PTAS, configured by the relative error `ε`.
///
/// `k = ⌈1/ε⌉`; the schedule returned is guaranteed within `(1+ε)`-ish of
/// optimal (the exact constant is `1 + 1/k + 1/k²` for the long jobs plus
/// the list-scheduling slack for short jobs — see [`crate::verify`]).
#[derive(Debug, Clone)]
pub struct Ptas {
    epsilon: f64,
    engine: DpEngine,
    strategy: SearchStrategy,
}

/// Everything a PTAS run produces.
#[derive(Debug, Clone)]
pub struct PtasResult {
    /// A valid schedule of all jobs.
    pub schedule: Schedule,
    /// Its makespan.
    pub makespan: u64,
    /// The converged target `T*`.
    pub target: u64,
    /// Number of machines the DP actually used for long jobs.
    pub machines_used: usize,
    /// Search telemetry (rounds, probes, DP table sizes).
    pub search: SearchResult,
    /// Wall time of the schedule-construction step (placing the long
    /// jobs by the final probe's configurations and list scheduling the
    /// short ones), in µs. 0 unless `pcmax_obs` recording is enabled.
    pub build_us: u64,
}

impl Ptas {
    /// Creates a PTAS with relative error `epsilon` (must be in `(0, 1]`).
    /// Defaults: rayon anti-diagonal DP engine, bisection search.
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "epsilon must be in (0, 1], got {epsilon}"
        );
        Self {
            epsilon,
            engine: DpEngine::AntiDiagonal,
            strategy: SearchStrategy::Bisection,
        }
    }

    /// Sets the DP engine.
    pub fn with_engine(mut self, engine: DpEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the search strategy.
    pub fn with_strategy(mut self, strategy: SearchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    #[inline]
    /// The configured relative error.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// `k = ⌈1/ε⌉`. The paper's experiments use ε = 0.3 → k = 4, so the
    /// DP table has at most `k² = 16` dimensions.
    pub fn k(&self) -> u64 {
        (1.0 / self.epsilon).ceil() as u64
    }

    /// Chooses the tightest `ε ∈ {1, 1/2, …, 1/k_max}` whose *estimated*
    /// DP table at the instance's lower bound stays within `max_cells`,
    /// and returns the configured PTAS.
    ///
    /// The paper observes (§IV.A) that table sizes are unknowable before
    /// execution — they depend on the target `T` probed — so this uses
    /// the rounding at `T = LB` (the largest table the bisection can
    /// meet is near the lower bound, where the most jobs are long) as a
    /// conservative proxy. Useful when a latency budget matters more
    /// than a fixed precision.
    pub fn auto_epsilon(inst: &Instance, max_cells: usize, k_max: u64) -> Self {
        assert!(k_max >= 1);
        let lb = pcmax_core::lower_bound(inst);
        let mut chosen = 1u64;
        for k in 1..=k_max {
            let eps = 1.0 / k as f64;
            match Rounding::compute(inst, lb, (1.0 / eps).ceil() as u64) {
                RoundingOutcome::Rounded(r) if r.table_size() <= max_cells => chosen = k,
                RoundingOutcome::Rounded(_) => break,
                RoundingOutcome::Infeasible { .. } => unreachable!("LB ≥ max job time"),
            }
        }
        Self::new(1.0 / chosen as f64)
    }

    /// Runs the full PTAS on `inst`.
    pub fn solve(&self, inst: &Instance) -> PtasResult {
        let k = self.k();
        let search = search::run(inst, k, self.engine, self.strategy.segments());
        let target = search.target;
        let build_timer = pcmax_obs::Timer::start();
        let rounding = match Rounding::compute(inst, target, k) {
            RoundingOutcome::Rounded(r) => r,
            RoundingOutcome::Infeasible { longest } => {
                unreachable!("target {target} below longest job {longest}")
            }
        };
        let schedule = assemble_schedule(inst, &rounding, &search.configs);
        let build_us = build_timer.elapsed_us();
        PtasResult {
            makespan: schedule.makespan(inst),
            schedule,
            target,
            machines_used: search.configs.len(),
            search,
            build_us,
        }
    }
}

/// Turns a rounding plus the DP's machine configurations into a full
/// [`Schedule`]: jobs of each class are handed out to configurations in
/// order, then short jobs are list-scheduled greedily onto the
/// least-loaded machines (actual loads, not rounded ones).
///
/// `machine_configs[i][c]` is how many class-`c` long jobs machine `i`
/// runs; entries must sum to the class counts of `rounding`, with
/// `machine_configs.len() ≤ inst.machines()`. This is the shared tail of
/// [`Ptas::solve`] and of callers that obtain configurations some other
/// way — e.g. a memo cache of DP solutions.
pub fn assemble_schedule(
    inst: &Instance,
    rounding: &Rounding,
    machine_configs: &[Vec<usize>],
) -> Schedule {
    let m = inst.machines();
    assert!(
        machine_configs.len() <= m,
        "DP used {} machines but instance has {m}",
        machine_configs.len()
    );
    let mut assignment = vec![usize::MAX; inst.num_jobs()];

    // Jobs of each class handed out in order.
    let mut class_cursor: Vec<std::slice::Iter<'_, usize>> =
        rounding.classes.iter().map(|c| c.jobs.iter()).collect();
    for (machine, config) in machine_configs.iter().enumerate() {
        for (class, &count) in config.iter().enumerate() {
            for _ in 0..count {
                let &job = class_cursor[class]
                    .next()
                    .expect("configurations sum to class counts");
                assignment[job] = machine;
            }
        }
    }
    debug_assert!(class_cursor.iter_mut().all(|it| it.next().is_none()));

    // Short jobs: greedy least-loaded over *actual* loads.
    let mut loads = vec![0u64; m];
    for (job, &mach) in assignment.iter().enumerate() {
        if mach != usize::MAX {
            loads[mach] += inst.time(job);
        }
    }
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = loads
        .iter()
        .enumerate()
        .map(|(i, &l)| Reverse((l, i)))
        .collect();
    for &job in &rounding.short_jobs {
        let Reverse((load, mach)) = heap.pop().expect("m > 0");
        assignment[job] = mach;
        heap.push(Reverse((load + inst.time(job), mach)));
    }

    debug_assert!(assignment.iter().all(|&a| a != usize::MAX));
    Schedule::new(assignment, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_core::exact::brute_force_makespan;
    use pcmax_core::gen::{bimodal, near_equal, uniform};
    use pcmax_core::lower_bound;

    fn guarantee_factor(eps: f64) -> f64 {
        let k = (1.0 / eps).ceil();
        1.0 + 1.0 / k + 1.0 / (k * k)
    }

    #[test]
    fn produces_valid_schedules() {
        for seed in 0..8 {
            let inst = uniform(seed, 30, 4, 1, 60);
            let res = Ptas::new(0.3).solve(&inst);
            let ms = res.schedule.validate(&inst).unwrap();
            assert_eq!(ms, res.makespan, "seed {seed}");
        }
    }

    #[test]
    fn within_guarantee_of_brute_force() {
        for seed in 0..8 {
            let inst = uniform(50 + seed, 10, 3, 3, 30);
            let opt = brute_force_makespan(&inst);
            let res = Ptas::new(0.3).solve(&inst);
            let bound = (guarantee_factor(0.3) * opt as f64).ceil() as u64 + 1;
            assert!(
                res.makespan <= bound,
                "seed {seed}: makespan {} vs opt {opt} (bound {bound})",
                res.makespan
            );
        }
    }

    #[test]
    fn tighter_epsilon_is_at_least_as_good() {
        for seed in 0..4 {
            let inst = uniform(80 + seed, 12, 3, 5, 25);
            let loose = Ptas::new(0.5).solve(&inst).makespan;
            let tight = Ptas::new(0.2).solve(&inst).makespan;
            let opt = brute_force_makespan(&inst);
            assert!(tight as f64 <= guarantee_factor(0.2) * opt as f64 + 1.0);
            assert!(loose as f64 <= guarantee_factor(0.5) * opt as f64 + 1.0);
        }
    }

    #[test]
    fn strategies_produce_same_target_and_valid_schedules() {
        for seed in 0..5 {
            let inst = uniform(120 + seed, 20, 4, 2, 50);
            let b = Ptas::new(0.3).solve(&inst);
            let q = Ptas::new(0.3)
                .with_strategy(SearchStrategy::QuarterSplit)
                .solve(&inst);
            assert_eq!(b.target, q.target, "seed {seed}");
            q.schedule.validate(&inst).unwrap();
        }
    }

    #[test]
    fn engines_produce_equal_makespans() {
        let inst = uniform(7, 25, 5, 1, 40);
        let engines = [
            DpEngine::Sequential,
            DpEngine::AntiDiagonal,
            DpEngine::Blocked { dim_limit: 5 },
        ];
        let spans: Vec<u64> = engines
            .iter()
            .map(|&e| Ptas::new(0.3).with_engine(e).solve(&inst).makespan)
            .collect();
        assert!(spans.windows(2).all(|w| w[0] == w[1]), "{spans:?}");
    }

    #[test]
    fn all_short_jobs_fall_back_to_list_scheduling() {
        // Huge target relative to job sizes at the converged T means the
        // schedule may be entirely short-job fill; it must still be valid
        // and near balanced.
        let inst = near_equal(5, 40, 8, 10, 2);
        let res = Ptas::new(0.3).solve(&inst);
        res.schedule.validate(&inst).unwrap();
        assert!(res.makespan <= 2 * lower_bound(&inst));
    }

    #[test]
    fn bimodal_instances_schedule_validly() {
        let inst = bimodal(11, 60, 6, 1, 100, 30);
        let res = Ptas::new(0.3).solve(&inst);
        res.schedule.validate(&inst).unwrap();
        assert!(res.machines_used <= inst.machines());
    }

    #[test]
    fn single_job_single_machine() {
        let inst = Instance::new(vec![42], 1);
        let res = Ptas::new(0.3).solve(&inst);
        assert_eq!(res.makespan, 42);
        assert_eq!(res.target, 42);
    }

    #[test]
    fn more_machines_than_jobs_spreads_out() {
        let inst = Instance::new(vec![9, 8, 7], 10);
        let res = Ptas::new(0.2).solve(&inst);
        assert_eq!(res.makespan, 9);
    }

    #[test]
    fn k_computation() {
        assert_eq!(Ptas::new(0.3).k(), 4);
        assert_eq!(Ptas::new(0.5).k(), 2);
        assert_eq!(Ptas::new(1.0).k(), 1);
        assert_eq!(Ptas::new(0.1).k(), 10);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_zero_epsilon() {
        Ptas::new(0.0);
    }

    #[test]
    fn nary_strategy_matches_other_strategies() {
        let inst = uniform(45, 22, 4, 5, 70);
        let bis = Ptas::new(0.3).solve(&inst);
        for segments in [1usize, 4, 8] {
            let res = Ptas::new(0.3)
                .with_strategy(SearchStrategy::NarySplit { segments })
                .solve(&inst);
            assert_eq!(res.target, bis.target, "{segments} segments");
            res.schedule.validate(&inst).unwrap();
        }
    }

    #[test]
    fn auto_epsilon_respects_budget_and_tightens_with_room() {
        let inst = uniform(31, 30, 6, 20, 100);
        // Tiny budget → some coarse precision whose LB-probe table fits.
        let coarse = Ptas::auto_epsilon(&inst, 2, 8);
        let lb = pcmax_core::lower_bound(&inst);
        if let crate::rounding::RoundingOutcome::Rounded(r) =
            crate::rounding::Rounding::compute(&inst, lb, coarse.k())
        {
            assert!(r.table_size() <= 2);
        }
        // Huge budget → finest precision allowed.
        let fine = Ptas::auto_epsilon(&inst, usize::MAX, 8);
        assert_eq!(fine.k(), 8);
        assert!(coarse.k() <= fine.k());
        // Budgets in between actually bound the probe table at LB.
        let mid = Ptas::auto_epsilon(&inst, 5_000, 8);
        let k = mid.k();
        if let crate::rounding::RoundingOutcome::Rounded(r) =
            crate::rounding::Rounding::compute(&inst, lb, k)
        {
            assert!(r.table_size() <= 5_000);
        }
        // The auto-configured PTAS still solves correctly.
        let res = mid.solve(&inst);
        res.schedule.validate(&inst).unwrap();
    }
}
