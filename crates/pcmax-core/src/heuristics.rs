//! Classic polynomial baselines for `P||Cmax`.
//!
//! These are the algorithms OSS schedulers actually ship; the PTAS is
//! benchmarked against them in the examples and benches:
//!
//! * [`list_schedule`] — Graham's list scheduling, `2 − 1/m` approximation;
//! * [`lpt`] — Longest Processing Time first, `4/3 − 1/(3m)`;
//! * [`lpt_revisited`] — Della Croce–Scatamacchia split-and-solve: LPT
//!   prefix + exact tail from the critical index, never worse than LPT,
//!   with an instance-certified [`Guarantee`];
//! * [`multifit`] — MULTIFIT (Coffman–Garey–Johnson), `13/11` with enough
//!   FFD iterations.

use crate::guarantee::Guarantee;
use crate::instance::Instance;
use crate::schedule::Schedule;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Greedy list scheduling in job-index order: each job goes to the
/// currently least-loaded machine. Guarantee: `(2 − 1/m)·OPT`.
pub fn list_schedule(inst: &Instance) -> Schedule {
    list_schedule_order(inst, 0..inst.num_jobs())
}

/// List scheduling over an explicit job order.
pub fn list_schedule_order(
    inst: &Instance,
    order: impl IntoIterator<Item = usize>,
) -> Schedule {
    let m = inst.machines();
    let mut assignment = vec![0usize; inst.num_jobs()];
    // Min-heap of (load, machine); Reverse for min ordering.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..m).map(|i| Reverse((0u64, i))).collect();
    for job in order {
        let Reverse((load, machine)) = heap.pop().expect("m > 0");
        assignment[job] = machine;
        // No overflow: every machine load is a subset sum of the times,
        // and Instance::try_new guarantees Σ tⱼ ≤ u64::MAX.
        heap.push(Reverse((load + inst.time(job), machine)));
    }
    Schedule::new(assignment, m)
}

/// Longest Processing Time first: list scheduling over jobs sorted by
/// decreasing processing time. Guarantee: `(4/3 − 1/(3m))·OPT`.
pub fn lpt(inst: &Instance) -> Schedule {
    let mut order: Vec<usize> = (0..inst.num_jobs()).collect();
    order.sort_by_key(|&j| Reverse(inst.time(j)));
    list_schedule_order(inst, order)
}

/// Instances this small are handed to the exact branch-and-bound outright
/// — the search is cheaper than reasoning about a split — so
/// [`lpt_revisited`] answers them optimally with [`Guarantee::EXACT`].
pub const LPT_REV_EXACT_MAX_JOBS: usize = 10;
/// Longest tail the split solves exactly (the subproblem is exponential
/// in the tail length).
const LPT_REV_TAIL_MAX: usize = 10;
/// Node budget for the tail branch-and-bound; with symmetry and incumbent
/// pruning a 10-job tail completes orders of magnitude below this, so the
/// budget only bites on pathological load multisets.
const LPT_REV_NODE_BUDGET: usize = 200_000;

/// Result of [`lpt_revisited`]: the schedule plus the certified guarantee
/// and the diagnostics the serving portfolio reports.
#[derive(Debug, Clone)]
pub struct LptRev {
    /// The schedule; by construction never worse than plain [`lpt`] on
    /// the same instance.
    pub schedule: Schedule,
    /// Tightest certified bound among Graham's LPT ratio, the
    /// critical-index refinement, and the a-posteriori ratio against the
    /// area/max lower bound.
    pub guarantee: Guarantee,
    /// 1-based position, in the LPT order, of the job realising the LPT
    /// makespan (`n` when the whole instance was solved exactly).
    pub critical_index: usize,
    /// Whether the tail subproblem (or the whole instance) was solved to
    /// proven optimality within the node budget.
    pub tail_exact: bool,
}

/// LPT-revisited (Della Croce–Scatamacchia, "LPT revisited"): run LPT,
/// find the *critical index* `c` — the position of the job that realises
/// the makespan — then re-solve the tail `order[c−1..]` (capped at
/// [`LPT_REV_TAIL_MAX`] jobs) *exactly* on top of the frozen LPT prefix
/// loads and keep the better of the two schedules. Tiny instances
/// (`n ≤ 10`) skip the split and go straight to branch-and-bound.
///
/// The returned [`Guarantee`] is the tightest of three certificates that
/// all hold for the returned schedule (which is ≤ the LPT makespan, so
/// LPT's bounds transfer):
///
/// * Graham's `4/3 − 1/(3m)`;
/// * the critical-index refinement `1 + (1 − 1/m)/q`, `q = ⌈c/m⌉` —
///   strictly tighter whenever the critical job falls in the fourth or
///   later LPT round;
/// * the a-posteriori ratio `makespan / LB`.
pub fn lpt_revisited(inst: &Instance) -> LptRev {
    let n = inst.num_jobs();
    let m = inst.machines();

    if n <= LPT_REV_EXACT_MAX_JOBS {
        let schedule = crate::exact::brute_force_schedule(inst);
        return LptRev {
            schedule,
            guarantee: Guarantee::EXACT,
            critical_index: n,
            tail_exact: true,
        };
    }

    // Plain LPT, tracking per-machine loads and the position of the last
    // job each machine received so the critical index falls out for free.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&j| Reverse(inst.time(j)));
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..m).map(|i| Reverse((0u64, i))).collect();
    let mut assignment = vec![0usize; n];
    let mut loads = vec![0u64; m];
    let mut last_pos = vec![0usize; m];
    for (pos, &job) in order.iter().enumerate() {
        let Reverse((load, machine)) = heap.pop().expect("m > 0");
        assignment[job] = machine;
        // No overflow: machine loads are subset sums and Σ tⱼ ≤ u64::MAX
        // by the Instance gate.
        loads[machine] = load + inst.time(job);
        last_pos[machine] = pos + 1;
        heap.push(Reverse((loads[machine], machine)));
    }
    let lpt_ms = *loads.iter().max().expect("m > 0");
    if lpt_ms == 0 {
        // Degenerate all-zero instance: any schedule is optimal.
        return LptRev {
            schedule: Schedule::new(assignment, m),
            guarantee: Guarantee::EXACT,
            critical_index: n,
            tail_exact: true,
        };
    }
    // Critical index: the latest-placed last job among machines that
    // realise the makespan (any of them certifies; later is tighter).
    let critical_index = (0..m)
        .filter(|&i| loads[i] == lpt_ms)
        .map(|i| last_pos[i])
        .max()
        .expect("some machine realises the makespan");
    let theory = Guarantee::lpt(m).tighter(Guarantee::lpt_critical(m, critical_index));

    let mut best_ms = lpt_ms;
    let mut best_assignment = assignment;
    let mut tail_exact = false;

    // Split-and-solve: freeze the LPT prefix before the critical job,
    // place the tail exactly on top of the prefix loads. (Re-running
    // list scheduling over `order[..split]` reproduces the first `split`
    // steps of the LPT above — same heap, same tie-breaks — so the graft
    // genuinely is "LPT prefix + optimal tail".)
    let split = (critical_index - 1).max(n.saturating_sub(LPT_REV_TAIL_MAX));
    if split < n && m > 1 {
        let mut ploads = vec![0u64; m];
        let mut passignment = best_assignment.clone();
        let mut pheap: BinaryHeap<Reverse<(u64, usize)>> =
            (0..m).map(|i| Reverse((0u64, i))).collect();
        for &job in &order[..split] {
            let Reverse((load, machine)) = pheap.pop().expect("m > 0");
            passignment[job] = machine;
            ploads[machine] = load + inst.time(job);
            pheap.push(Reverse((ploads[machine], machine)));
        }
        let tail_times: Vec<u64> = order[split..].iter().map(|&j| inst.time(j)).collect();
        let (found, complete) = place_tail_exact(&mut ploads, &tail_times, lpt_ms);
        tail_exact = complete;
        if let Some((choice, ms)) = found {
            debug_assert!(ms < lpt_ms);
            for (d, &job) in order[split..].iter().enumerate() {
                passignment[job] = choice[d];
            }
            best_ms = ms;
            best_assignment = passignment;
        }
    }

    let guarantee =
        theory.tighter(Guarantee::a_posteriori(best_ms, crate::bounds::lower_bound(inst)));
    LptRev {
        schedule: Schedule::new(best_assignment, m),
        guarantee,
        critical_index,
        tail_exact,
    }
}

/// Branch-and-bound placement of `tail` onto machines with initial
/// `loads`, minimising the resulting makespan. Returns the best placement
/// *strictly* below `incumbent` (machine index per tail job, final
/// makespan) — or `None` if no strict improvement exists — plus whether
/// the search completed within [`LPT_REV_NODE_BUDGET`].
fn place_tail_exact(
    loads: &mut [u64],
    tail: &[u64],
    incumbent: u64,
) -> (Option<(Vec<usize>, u64)>, bool) {
    struct Search<'a> {
        tail: &'a [u64],
        best_ms: u64,
        best: Option<Vec<usize>>,
        choice: Vec<usize>,
        nodes: usize,
        aborted: bool,
    }
    impl Search<'_> {
        fn go(&mut self, depth: usize, loads: &mut [u64], cur_max: u64) {
            if self.nodes >= LPT_REV_NODE_BUDGET {
                self.aborted = true;
                return;
            }
            self.nodes += 1;
            if depth == self.tail.len() {
                // Every placement kept `cur_max < best_ms` (checks below),
                // so this completion is a strict improvement.
                self.best_ms = cur_max;
                self.best = Some(self.choice.clone());
                return;
            }
            let t = self.tail[depth];
            // Machines at equal load are interchangeable for the rest of
            // the tail: try each load value once.
            let mut tried: Vec<u64> = Vec::with_capacity(loads.len());
            for i in 0..loads.len() {
                let before = loads[i];
                if tried.contains(&before) {
                    continue;
                }
                tried.push(before);
                // `before + t` cannot wrap: prefix and tail loads are
                // subset sums of a gated Instance.
                let after = before + t;
                if after >= self.best_ms {
                    continue;
                }
                loads[i] = after;
                self.choice.push(i);
                self.go(depth + 1, loads, cur_max.max(after));
                self.choice.pop();
                loads[i] = before;
            }
        }
    }
    let start_max = *loads.iter().max().expect("m > 0");
    let mut s = Search {
        tail,
        best_ms: incumbent,
        best: None,
        choice: Vec::with_capacity(tail.len()),
        nodes: 0,
        aborted: false,
    };
    if start_max < incumbent {
        s.go(0, loads, start_max);
    }
    (s.best.map(|b| (b, s.best_ms)), !s.aborted)
}

/// MULTIFIT plus its certified [`Guarantee`]: Yue's `13/11` FFD bound
/// with the binary search's unresolved interval as *explicit additive
/// slack*. The search starts on `[LB, 2·max(area, max)]`; `iterations`
/// halvings leave `width >> iterations` unresolved, and on u64-scale
/// instances that residue dominates the ratio — so it is certified, not
/// assumed away. The a-posteriori ratio against LB tightens the result
/// on the benign instances where the residue is pessimistic.
pub fn multifit_with_guarantee(inst: &Instance, iterations: usize) -> (Schedule, Guarantee) {
    let schedule = multifit(inst, iterations);
    let lo = crate::bounds::lower_bound(inst);
    let hi = inst.area_bound().max(inst.max_time()).saturating_mul(2);
    let theory = Guarantee::multifit(iterations, hi - lo);
    let ms = schedule.makespan(inst);
    let guarantee = theory.tighter(Guarantee::a_posteriori(ms, lo));
    (schedule, guarantee)
}

/// First-Fit Decreasing bin packing with capacity `cap`; returns the
/// assignment if it fits in at most `m` bins.
fn ffd_fits(inst: &Instance, order: &[usize], cap: u64, m: usize) -> Option<Vec<usize>> {
    let mut loads: Vec<u64> = Vec::with_capacity(m);
    let mut assignment = vec![usize::MAX; inst.num_jobs()];
    for &job in order {
        let t = inst.time(job);
        if t > cap {
            return None;
        }
        // `cap - l >= t` instead of `l + t <= cap`: bins keep `l ≤ cap`,
        // so the subtraction cannot wrap, while `l + t` can when `cap`
        // is near u64::MAX (MULTIFIT probes capacities up to 2·LB).
        match loads.iter().position(|&l| cap - l >= t) {
            Some(b) => {
                loads[b] += t;
                assignment[job] = b;
            }
            None => {
                if loads.len() == m {
                    return None;
                }
                assignment[job] = loads.len();
                loads.push(t);
            }
        }
    }
    Some(assignment)
}

/// MULTIFIT: binary search on the bin capacity, testing feasibility with
/// First-Fit Decreasing. `iterations` controls the binary-search depth
/// (7 suffices for the classical 13/11 bound).
pub fn multifit(inst: &Instance, iterations: usize) -> Schedule {
    let m = inst.machines();
    let mut order: Vec<usize> = (0..inst.num_jobs()).collect();
    order.sort_by_key(|&j| Reverse(inst.time(j)));

    let mut lo = crate::bounds::lower_bound(inst);
    // Saturating: 2·LB can exceed u64 (one huge job). Clamping to
    // u64::MAX keeps the start capacity feasible (FFD always fits at
    // cap ≥ max tⱼ with m ≥ 1 bins since Σ tⱼ ≤ u64::MAX by the
    // Instance gate).
    let mut hi = inst.area_bound().max(inst.max_time()).saturating_mul(2);
    let mut best = ffd_fits(inst, &order, hi, m);
    debug_assert!(best.is_some(), "FFD must fit at capacity 2·LB");
    for _ in 0..iterations {
        if lo >= hi {
            break;
        }
        // Overflow-safe midpoint: `lo + hi` wraps when both are huge.
        let cap = lo + (hi - lo) / 2;
        match ffd_fits(inst, &order, cap, m) {
            Some(a) => {
                best = Some(a);
                hi = cap;
            }
            None => lo = cap + 1,
        }
    }
    let assignment = best.expect("upper capacity always feasible");
    Schedule::new(assignment, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::brute_force_makespan;
    use crate::gen::uniform;

    #[test]
    fn list_schedule_is_valid_and_graham_bounded() {
        let inst = uniform(11, 40, 5, 1, 50);
        let s = list_schedule(&inst);
        let ms = s.validate(&inst).unwrap();
        let lb = crate::bounds::lower_bound(&inst);
        // 2 − 1/m bound relative to LB (LB ≤ OPT).
        assert!(ms as f64 <= (2.0 - 1.0 / 5.0) * lb as f64 + 1.0);
    }

    #[test]
    fn lpt_beats_or_ties_list_on_adversarial_input() {
        // Classic LPT-vs-list example: long jobs last ruins list scheduling.
        let inst = Instance::new(vec![1, 1, 1, 1, 4, 4], 2);
        let ms_list = list_schedule(&inst).makespan(&inst);
        let ms_lpt = lpt(&inst).makespan(&inst);
        assert!(ms_lpt <= ms_list);
        assert_eq!(ms_lpt, 6);
    }

    #[test]
    fn lpt_within_four_thirds_of_optimum() {
        for seed in 0..10 {
            let inst = uniform(seed, 9, 3, 1, 20);
            let opt = brute_force_makespan(&inst);
            let ms = lpt(&inst).makespan(&inst);
            let m = inst.machines() as f64;
            assert!(
                ms as f64 <= (4.0 / 3.0 - 1.0 / (3.0 * m)) * opt as f64 + 1e-9,
                "seed {seed}: lpt={ms} opt={opt}"
            );
        }
    }

    #[test]
    fn multifit_valid_and_competitive_with_lpt() {
        for seed in 0..5 {
            let inst = uniform(100 + seed, 60, 7, 1, 100);
            let s = multifit(&inst, 10);
            let ms = s.validate(&inst).unwrap();
            let lb = crate::bounds::lower_bound(&inst);
            assert!(ms as f64 <= 13.0 / 11.0 * lb as f64 * 1.1 + 1.0);
        }
    }

    #[test]
    fn multifit_exact_on_perfect_fit() {
        // 4 jobs of 5 on 2 machines: perfect split at makespan 10.
        let inst = Instance::new(vec![5, 5, 5, 5], 2);
        assert_eq!(multifit(&inst, 20).makespan(&inst), 10);
    }

    #[test]
    fn heuristics_survive_near_max_times() {
        // Regression for the overflow sweep: with times near u64::MAX,
        // the old MULTIFIT start capacity (`2 * LB`) and midpoint
        // (`(lo + hi) / 2`) both wrapped, as did `l + t` inside FFD.
        // All heuristics must return valid schedules, not wrong ones.
        let half = u64::MAX / 2;
        let inst = Instance::new(vec![half, half - 5, 3], 2);
        for s in [list_schedule(&inst), lpt(&inst), multifit(&inst, 20)] {
            let ms = s.validate(&inst).unwrap();
            assert!(ms >= crate::bounds::lower_bound(&inst));
            assert!(ms <= crate::bounds::upper_bound(&inst));
        }
        // Optimal split puts the two huge jobs apart: loads are
        // (half, half - 5 + 3), so the makespan is exactly `half`.
        assert_eq!(lpt(&inst).makespan(&inst), half);

        let lone = Instance::new(vec![u64::MAX], 1);
        assert_eq!(multifit(&lone, 10).makespan(&lone), u64::MAX);
    }

    #[test]
    fn single_machine_everything_on_it() {
        let inst = Instance::new(vec![3, 4, 5], 1);
        for s in [list_schedule(&inst), lpt(&inst), multifit(&inst, 10)] {
            assert_eq!(s.makespan(&inst), 12);
        }
        let r = lpt_revisited(&inst);
        assert_eq!(r.schedule.makespan(&inst), 12);
        assert_eq!(r.guarantee, Guarantee::EXACT);
    }

    #[test]
    fn lpt_revisited_never_worse_than_lpt() {
        for seed in 0..20 {
            let inst = uniform(900 + seed, 25, 4, 1, 50);
            let plain = lpt(&inst).makespan(&inst);
            let r = lpt_revisited(&inst);
            let ms = r.schedule.validate(&inst).unwrap();
            assert!(ms <= plain, "seed {seed}: lptrev={ms} lpt={plain}");
            assert!(r.guarantee.holds(ms, brute_force_makespan(&inst)));
        }
    }

    #[test]
    fn lpt_revisited_repairs_the_classic_lpt_trap() {
        // Graham's tight LPT example for m = 2 scaled: times
        // 3,3,2,2,2 → LPT gives 7 (3+2+2 vs 3+2), optimum 6. The
        // critical job is the last one, so the exact tail fixes it.
        // n ≤ 10 routes to brute force, so pad with a second copy to
        // force the split path: 12 jobs, m = 4.
        let inst = Instance::new(vec![3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2, 2], 4);
        let plain = lpt(&inst).makespan(&inst);
        let r = lpt_revisited(&inst);
        let ms = r.schedule.validate(&inst).unwrap();
        assert_eq!(ms, brute_force_makespan(&inst));
        assert!(ms <= plain);
        assert!(r.tail_exact);
    }

    #[test]
    fn lpt_revisited_small_instances_are_exact() {
        for seed in 0..10 {
            let inst = uniform(950 + seed, 9, 3, 1, 30);
            let r = lpt_revisited(&inst);
            assert_eq!(r.schedule.makespan(&inst), brute_force_makespan(&inst));
            assert_eq!(r.guarantee, Guarantee::EXACT);
            assert!(r.tail_exact);
        }
    }

    #[test]
    fn lpt_revisited_critical_index_certificate_is_sound() {
        for seed in 0..10 {
            let inst = uniform(980 + seed, 30, 3, 1, 40);
            let r = lpt_revisited(&inst);
            // The reported guarantee can never be looser than Graham's
            // LPT bound (it is a tightest-of over a set containing it).
            let m = inst.machines();
            let graham = Guarantee::lpt(m);
            assert_eq!(r.guarantee.tighter(graham), r.guarantee);
            assert!(r.critical_index >= 1 && r.critical_index <= inst.num_jobs());
        }
    }

    #[test]
    fn lpt_revisited_survives_near_max_times() {
        let half = u64::MAX / 2;
        let inst = Instance::new(
            vec![half, half - 20, 3, 2, 2, 1, 1, 1, 1, 1, 1, 1],
            2,
        );
        let r = lpt_revisited(&inst);
        let ms = r.schedule.validate(&inst).unwrap();
        assert!(ms >= crate::bounds::lower_bound(&inst));
        assert!(ms <= lpt(&inst).makespan(&inst));
    }

    #[test]
    fn multifit_guarantee_holds_against_oracle() {
        for seed in 0..10 {
            let inst = uniform(1000 + seed, 9, 3, 1, 25);
            let (s, g) = multifit_with_guarantee(&inst, 10);
            let ms = s.validate(&inst).unwrap();
            assert!(
                g.holds(ms, brute_force_makespan(&inst)),
                "seed {seed}: {g} violated by ms={ms}"
            );
        }
    }

    #[test]
    fn multifit_guarantee_is_exact_on_perfect_fit() {
        let inst = Instance::new(vec![5, 5, 5, 5], 2);
        let (s, g) = multifit_with_guarantee(&inst, 20);
        assert_eq!(s.makespan(&inst), 10);
        assert_eq!(g, Guarantee::EXACT);
    }
}
