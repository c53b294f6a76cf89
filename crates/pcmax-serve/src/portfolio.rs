//! Instance-adaptive solver portfolio (ISSUE 7 tentpole).
//!
//! Replaces the hardcoded `cache → DP → heuristic` ladder with a
//! feature-driven selection over three *arms*:
//!
//! | arm        | algorithm                         | guarantee reported        |
//! |------------|-----------------------------------|---------------------------|
//! | `lptrev`   | LPT-revisited (split-and-solve;   | critical-index refinement |
//! |            | branch-and-bound for `n ≤ 10`)    | (1/1 for `n ≤ 10`)        |
//! | `multifit` | MULTIFIT, 10 FFD iterations       | 13/11 + interval residue  |
//! | `ptas`     | descended net, then cache-backed  | `1 + 1/k + 1/k²` + 2, or  |
//! |            | PTAS on `[LB, min(UB, U)]`; reply | `ms/T*` when tighter      |
//! |            | floored by the net                | (`T*` certifies `≤ OPT`)  |
//!
//! The `ptas` arm runs [`descended_net`] first (U is its makespan): U
//! bounds the search, the net answers outright when the search converges
//! on U, and it answers for the arm, flagged `degraded`, when the arm
//! fails. The arm's table representation (dense, sparse frontier, or
//! paged) is not an arm choice: [`crate::solver`] plans it per probe
//! under [`crate::solver::ReprPolicy`].
//!
//! A cheap [`InstanceFeatures`] probe (no DP cells allocated) feeds a
//! deadline-aware policy: tiny and equal-time instances go to
//! LPT-revisited (optimal on both), affordable DPs run, and hopeless
//! budgets go straight to the heuristic safety net. A picked arm that
//! fails (deadline, admission) is answered by that net instead, flagged
//! `degraded`. Every answer carries the [`Guarantee`] of the arm that
//! actually produced it.

use crate::solver::{
    probe_features, solve_cached, Degrade, DpCache, InstanceFeatures, ReprCounts, SolverOptions,
};
use crate::stats::{ArmReport, EngineUsed, PortfolioReport};
use crate::warm::WarmTier;
use pcmax_core::heuristics::{lpt_revisited, multifit_with_guarantee, LPT_REV_EXACT_MAX_JOBS};
use pcmax_core::{bounds, Guarantee, Instance, Schedule};
use pcmax_improve::descent::descend;
use pcmax_improve::{ImproveConfig, ImproveStats};
use pcmax_obs::Histogram;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// FFD binary-search depth of the MULTIFIT arm (matches the pre-portfolio
/// fallback).
pub const MULTIFIT_ITERS: usize = 10;
/// Below this remaining budget (µs) the safety net runs only *one*
/// heuristic, picked by the time CV, instead of both.
const TIGHT_BUDGET_US: u64 = 200;
/// CV (×100) above which a tight-budget net prefers LPT-revisited (its
/// critical-tail repair shines on skewed times); below it MULTIFIT's FFD
/// handles near-uniform times just as well, slightly cheaper.
const CV_SPLIT_PCT: u64 = 40;

/// One solver arm of the portfolio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arm {
    /// LPT-revisited split-and-solve heuristic (exact branch-and-bound
    /// on tiny instances).
    LptRev,
    /// MULTIFIT heuristic.
    Multifit,
    /// Cache-backed PTAS under the service's representation policy.
    Ptas,
}

impl Arm {
    /// All arms, in canonical report order.
    pub const ALL: [Arm; 3] = [Arm::LptRev, Arm::Multifit, Arm::Ptas];

    /// Wire/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Arm::LptRev => "lptrev",
            Arm::Multifit => "multifit",
            Arm::Ptas => "ptas",
        }
    }

    /// Position in [`Arm::ALL`] (counter index).
    fn idx(self) -> usize {
        match self {
            Arm::LptRev => 0,
            Arm::Multifit => 1,
            Arm::Ptas => 2,
        }
    }

    /// The engine tag responses report for this arm.
    pub fn engine(self) -> EngineUsed {
        match self {
            Arm::LptRev => EngineUsed::LptRev,
            Arm::Multifit => EngineUsed::Multifit,
            Arm::Ptas => EngineUsed::Ptas,
        }
    }
}

impl fmt::Display for Arm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Arm {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Arm::ALL
            .into_iter()
            .find(|arm| arm.name() == s)
            .ok_or_else(|| format!("unknown arm `{s}` (expected lptrev|multifit|ptas)"))
    }
}

/// How the service picks an arm per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PortfolioPolicy {
    /// Feature-driven selection — the production default.
    #[default]
    Auto,
    /// Always run one arm (degrading to the heuristic net if it fails) —
    /// for benchmarking and the audit gauntlet.
    Fixed(Arm),
}

impl fmt::Display for PortfolioPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortfolioPolicy::Auto => f.write_str("auto"),
            PortfolioPolicy::Fixed(arm) => write!(f, "fixed:{arm}"),
        }
    }
}

impl FromStr for PortfolioPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "auto" {
            return Ok(PortfolioPolicy::Auto);
        }
        if let Some(arm) = s.strip_prefix("fixed:") {
            return Ok(PortfolioPolicy::Fixed(arm.parse()?));
        }
        Err(format!(
            "unknown portfolio policy `{s}` (expected auto or fixed:<arm>)"
        ))
    }
}

/// Lifetime portfolio counters, shared by all workers of one service.
/// Latency histograms record only while `pcmax_obs` recording is enabled
/// (same convention as [`crate::stats::ServeMetrics`]); the `chosen` /
/// `won` / `runs` counters are unconditional.
#[derive(Debug, Default)]
pub struct PortfolioCounters {
    chosen: [AtomicU64; 3],
    won: [AtomicU64; 3],
    runs: [AtomicU64; 3],
    arm_us: [Histogram; 3],
}

impl PortfolioCounters {
    fn note_chosen(&self, arm: Arm) {
        self.chosen[arm.idx()].fetch_add(1, Ordering::Relaxed);
    }

    fn note_won(&self, arm: Arm) {
        self.won[arm.idx()].fetch_add(1, Ordering::Relaxed);
    }

    /// Executes one run of `arm`, timing it into the counters.
    fn time_run<T>(&self, arm: Arm, run: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = run();
        let us = micros(start.elapsed());
        self.runs[arm.idx()].fetch_add(1, Ordering::Relaxed);
        if pcmax_obs::enabled() {
            self.arm_us[arm.idx()].record(us);
        }
        out
    }

    /// Point-in-time snapshot for the stats JSON.
    pub fn report(&self) -> PortfolioReport {
        PortfolioReport {
            arms: Arm::ALL
                .iter()
                .map(|arm| ArmReport {
                    arm: arm.name().to_string(),
                    chosen: self.chosen[arm.idx()].load(Ordering::Relaxed),
                    won: self.won[arm.idx()].load(Ordering::Relaxed),
                    runs: self.runs[arm.idx()].load(Ordering::Relaxed),
                    latency_us: self.arm_us[arm.idx()].snapshot(),
                })
                .collect(),
        }
    }
}

fn micros(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

/// One answered request: the winning arm's schedule, attribution, and
/// certified guarantee.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// Valid schedule of all jobs.
    pub schedule: Schedule,
    /// Its makespan (precomputed; equals `schedule.makespan(inst)`).
    pub makespan: u64,
    /// Converged PTAS target — `None` for non-DP arms.
    pub target: Option<u64>,
    /// Machines the DP used for the long jobs — `None` for non-DP arms.
    pub machines_used: Option<usize>,
    /// Engine tag for the response line.
    pub engine: EngineUsed,
    /// Certified guarantee of the arm that produced the schedule.
    pub guarantee: Guarantee,
    /// The arm that produced the schedule.
    pub arm: Arm,
    /// Whether this answer is a degradation: the picked arm failed (or
    /// the budget admitted no arm) and the safety net answered instead.
    pub degraded: bool,
    /// DP cache hits (0 for non-DP arms).
    pub cache_hits: u64,
    /// DP cache misses (0 for non-DP arms).
    pub cache_misses: u64,
    /// Representation of each cache-missing probe (empty for non-DP).
    pub repr: ReprCounts,
}

impl PortfolioOutcome {
    fn heuristic(inst: &Instance, schedule: Schedule, arm: Arm, guarantee: Guarantee) -> Self {
        let makespan = schedule.makespan(inst);
        PortfolioOutcome {
            schedule,
            makespan,
            target: None,
            machines_used: None,
            engine: arm.engine(),
            guarantee,
            arm,
            degraded: false,
            cache_hits: 0,
            cache_misses: 0,
            repr: ReprCounts::default(),
        }
    }
}

/// What the Auto policy decided for one request.
enum Selection {
    /// At most [`LPT_REV_EXACT_MAX_JOBS`] jobs, which LPT-revisited
    /// solves by branch-and-bound, or all times equal, where LPT's
    /// `⌈n/m⌉·t` load is the pigeonhole optimum: LPT-revisited answers,
    /// certified exact — no DP needed, answer is *not* degraded.
    Optimal,
    /// The DP is affordable: run the PTAS arm.
    Dp,
    /// No affordable DP (budget or admission): heuristic net only.
    HeuristicOnly,
}

fn select(f: &InstanceFeatures, budget_us: Option<u64>) -> Selection {
    if f.n <= LPT_REV_EXACT_MAX_JOBS || f.min_time == f.max_time {
        return Selection::Optimal;
    }
    if f.planned.is_none() {
        return Selection::HeuristicOnly;
    }
    match budget_us {
        None => Selection::Dp,
        Some(b) if b > 0 && f.est_dp_us <= b.saturating_mul(2) => Selection::Dp,
        Some(_) => Selection::HeuristicOnly,
    }
}

/// Runs the PTAS arm on top of the already computed descended `net`:
/// the net's makespan bounds the cache-backed search and floors the
/// reply (see [`solve_cached`]). The certificate is the PTAS envelope or
/// the a-posteriori ratio against the converged target, whichever is
/// tighter: `T*` is a certified lower bound (every probe below it was
/// infeasible), so a net answer at `T* = U` is exact.
#[allow(clippy::too_many_arguments)]
fn run_ptas(
    inst: &Instance,
    k: u64,
    opts: &SolverOptions,
    cache: &DpCache,
    warm: Option<&WarmTier>,
    deadline: Option<Instant>,
    net: &PortfolioOutcome,
) -> Result<PortfolioOutcome, Degrade> {
    let out = solve_cached(inst, k, opts, cache, warm, deadline, Some(&net.schedule))?;
    let makespan = out.schedule.makespan(inst);
    let guarantee = Guarantee::ptas(k).tighter(Guarantee::a_posteriori(makespan, out.target));
    Ok(PortfolioOutcome {
        schedule: out.schedule,
        makespan,
        target: Some(out.target),
        machines_used: out.machines_used,
        engine: EngineUsed::Ptas,
        guarantee,
        arm: Arm::Ptas,
        degraded: false,
        cache_hits: out.cache_hits,
        cache_misses: out.cache_misses,
        repr: out.repr,
    })
}

/// Runs a heuristic arm: LPT-revisited for [`Arm::LptRev`], MULTIFIT
/// otherwise.
fn run_heuristic(arm: Arm, inst: &Instance) -> PortfolioOutcome {
    let (schedule, guarantee) = if arm == Arm::LptRev {
        let r = lpt_revisited(inst);
        (r.schedule, r.guarantee)
    } else {
        multifit_with_guarantee(inst, MULTIFIT_ITERS)
    };
    PortfolioOutcome::heuristic(inst, schedule, arm, guarantee)
}

/// The heuristic safety net: the best of LPT-revisited and MULTIFIT,
/// attributed to the winning arm — or, when the remaining budget is
/// below [`TIGHT_BUDGET_US`], a *single* heuristic picked by the time
/// CV (skewed times → LPT-revisited, near-uniform → MULTIFIT) so even
/// the net respects the deadline. Ties prefer LPT-revisited, whose
/// certificate is tighter. Each heuristic run is timed into `counters`.
pub(crate) fn heuristic_net(
    inst: &Instance,
    budget_us: Option<u64>,
    counters: &PortfolioCounters,
) -> PortfolioOutcome {
    best_heuristic(inst, budget_us, counters, |net| net)
}

/// [`heuristic_net`] with `finish` applied to each heuristic's answer
/// before the better one is kept.
fn best_heuristic(
    inst: &Instance,
    budget_us: Option<u64>,
    counters: &PortfolioCounters,
    finish: impl Fn(PortfolioOutcome) -> PortfolioOutcome,
) -> PortfolioOutcome {
    let run = |arm: Arm| finish(counters.time_run(arm, || run_heuristic(arm, inst)));
    if budget_us.is_some_and(|b| b < TIGHT_BUDGET_US) {
        let arm = if crate::solver::cv_pct(inst) >= CV_SPLIT_PCT {
            Arm::LptRev
        } else {
            Arm::Multifit
        };
        return run(arm);
    }
    let rev = run(Arm::LptRev);
    let mf = run(Arm::Multifit);
    if mf.makespan < rev.makespan {
        mf
    } else {
        rev
    }
}

/// The PTAS arm's net: LPT-revisited and MULTIFIT each descended by the
/// move/swap descent until a local optimum or
/// `ImproveConfig::default()`'s round cap, the better kept (ties to
/// LPT-revisited); under a tight budget only [`heuristic_net`]'s one
/// heuristic runs and descends. Descending both matters because
/// MULTIFIT's packing often descends to a worse local optimum than
/// LPT-revisited's even when it starts lower. The request deadline is
/// only a safety stop, so the net is deterministic per instance. The
/// descent never worsens its input, so the heuristic's certificate
/// still holds; the a-posteriori ratio against LB may be tighter.
pub fn descended_net(
    inst: &Instance,
    budget_us: Option<u64>,
    deadline: Option<Instant>,
    counters: &PortfolioCounters,
) -> PortfolioOutcome {
    // Without a deadline the round cap alone stops the descent.
    let stop = deadline.unwrap_or_else(|| Instant::now() + Duration::from_secs(3600));
    let lb = bounds::lower_bound(inst);
    best_heuristic(inst, budget_us, counters, |net| {
        let schedule = descend(
            inst,
            &net.schedule,
            stop,
            ImproveConfig::default().max_descent_rounds,
            &mut ImproveStats::default(),
        );
        let makespan = schedule.makespan(inst);
        PortfolioOutcome {
            guarantee: net.guarantee.tighter(Guarantee::a_posteriori(makespan, lb)),
            schedule,
            makespan,
            ..net
        }
    })
}

/// Answers one request under the portfolio policy. Never fails: every
/// path ends in an answer (worst case the heuristic net, flagged
/// `degraded`).
#[allow(clippy::too_many_arguments)]
pub fn solve_portfolio(
    inst: &Instance,
    k: u64,
    opts: &SolverOptions,
    cache: &DpCache,
    warm: Option<&WarmTier>,
    deadline: Option<Instant>,
    policy: PortfolioPolicy,
    counters: &PortfolioCounters,
) -> PortfolioOutcome {
    let budget_us = deadline.map(|d| micros(d.saturating_duration_since(Instant::now())));
    let degraded = |net: PortfolioOutcome| PortfolioOutcome {
        degraded: true,
        ..net
    };
    // The one fallback: the picked arm answers, or — when it fails —
    // the heuristic net does, flagged `degraded`.
    let run_or_net = |arm: Arm| {
        counters.note_chosen(arm);
        let answer = match arm {
            Arm::LptRev | Arm::Multifit => counters.time_run(arm, || run_heuristic(arm, inst)),
            Arm::Ptas => {
                // The descended net runs first, inside the arm: it bounds
                // the search, floors the reply and, if the arm fails,
                // answers for it — so it never runs twice.
                let mut net = None;
                counters
                    .time_run(arm, || {
                        let net = net.insert(descended_net(inst, budget_us, deadline, counters));
                        run_ptas(inst, k, opts, cache, warm, deadline, net)
                    })
                    .unwrap_or_else(|_| degraded(net.expect("the net runs before the search")))
            }
        };
        counters.note_won(answer.arm);
        answer
    };
    let arm = match policy {
        PortfolioPolicy::Fixed(arm) => arm,
        PortfolioPolicy::Auto => match select(&probe_features(inst, k, opts), budget_us) {
            Selection::Dp => Arm::Ptas,
            Selection::Optimal => {
                let mut ans = run_or_net(Arm::LptRev);
                ans.guarantee = Guarantee::EXACT;
                return ans;
            }
            Selection::HeuristicOnly => {
                let mut fb = heuristic_net(inst, budget_us, counters);
                // No viable primary: the pick *is* the net's winner.
                counters.note_chosen(fb.arm);
                counters.note_won(fb.arm);
                fb.degraded = true;
                return fb;
            }
        },
    };
    run_or_net(arm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_core::gen::uniform;
    use pcmax_improve::ImproveMode;
    use pcmax_ptas::DpEngine;
    use std::time::Duration;

    fn seq() -> SolverOptions {
        SolverOptions::new(DpEngine::Sequential)
    }

    fn fresh() -> (DpCache, PortfolioCounters) {
        (DpCache::new(4, 64 << 10), PortfolioCounters::default())
    }

    #[test]
    fn policy_strings_roundtrip() {
        for p in [
            PortfolioPolicy::Auto,
            PortfolioPolicy::Fixed(Arm::LptRev),
            PortfolioPolicy::Fixed(Arm::Ptas),
        ] {
            assert_eq!(p.to_string().parse::<PortfolioPolicy>().unwrap(), p);
        }
        assert_eq!("fixed:ptas".parse(), Ok(PortfolioPolicy::Fixed(Arm::Ptas)));
        assert!("fixed:gpu".parse::<PortfolioPolicy>().is_err());
        assert!("fixed:dense".parse::<PortfolioPolicy>().is_err());
        assert!("race:ptas,multifit".parse::<PortfolioPolicy>().is_err());
        assert!("never".parse::<PortfolioPolicy>().is_err());
    }

    #[test]
    fn auto_answers_tiny_and_equal_time_instances_exactly_with_lpt_revisited() {
        // 8 jobs: LPT-revisited's branch-and-bound; 11 equal jobs: the
        // pigeonhole optimum ⌈11/4⌉·7 = 21.
        for inst in [uniform(1, 8, 3, 1, 30), Instance::new(vec![7; 11], 4)] {
            let (cache, counters) = fresh();
            let out = solve_portfolio(
                &inst,
                4,
                &seq(),
                &cache,
                None,
                None,
                PortfolioPolicy::Auto,
                &counters,
            );
            assert_eq!(out.arm, Arm::LptRev);
            assert_eq!(out.engine, EngineUsed::LptRev);
            assert_eq!(out.guarantee, Guarantee::EXACT);
            assert!(!out.degraded);
            assert_eq!(out.makespan, pcmax_core::exact::brute_force_makespan(&inst));
            assert_eq!(counters.report().arms[Arm::LptRev.idx()].won, 1);
        }
    }

    #[test]
    fn auto_runs_the_dp_with_a_generous_deadline() {
        let (cache, counters) = fresh();
        let inst = uniform(2, 24, 3, 1, 50);
        let deadline = Instant::now() + Duration::from_secs(5);
        let out = solve_portfolio(
            &inst,
            4,
            &seq(),
            &cache,
            None,
            Some(deadline),
            PortfolioPolicy::Auto,
            &counters,
        );
        assert_eq!(out.engine, EngineUsed::Ptas);
        assert!(out.target.is_some());
        assert!(!out.degraded);
        out.schedule.validate(&inst).unwrap();
    }

    #[test]
    fn auto_pages_over_budget_probes_under_the_ptas_arm() {
        let dir =
            std::env::temp_dir().join(format!("pcmax-portfolio-pages-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (cache, counters) = fresh();
        // The cell budget sits below the sparse estimate and a pages
        // directory exists, so the representation plan pages every
        // probe; the portfolio attributes them to the one PTAS arm.
        let inst = uniform(2, 12, 6, 50, 100);
        let opts = SolverOptions {
            max_table_cells: 8,
            pages_dir: Some(dir.clone()),
            pages_budget: pcmax_store::StoreBudget::bytes(1 << 10),
            ..seq()
        };
        let out = solve_portfolio(
            &inst,
            6,
            &opts,
            &cache,
            None,
            None,
            PortfolioPolicy::Auto,
            &counters,
        );
        assert_eq!(out.arm, Arm::Ptas);
        assert!(!out.degraded);
        assert!(out.repr.paged > 0, "probes must page: {:?}", out.repr);
        out.schedule.validate(&inst).unwrap();
        assert_eq!(counters.report().arms[Arm::Ptas.idx()].won, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn expired_deadline_degrades_to_a_single_heuristic() {
        let (cache, counters) = fresh();
        let inst = uniform(3, 40, 4, 1, 80);
        let past = Instant::now() - Duration::from_millis(1);
        let out = solve_portfolio(
            &inst,
            4,
            &seq(),
            &cache,
            None,
            Some(past),
            PortfolioPolicy::Auto,
            &counters,
        );
        assert!(out.degraded);
        assert!(matches!(out.arm, Arm::LptRev | Arm::Multifit));
        out.schedule.validate(&inst).unwrap();
        let report = counters.report();
        let total_runs: u64 = report.arms.iter().map(|a| a.runs).sum();
        assert_eq!(total_runs, 1, "tight budgets must run exactly one arm");
    }

    #[test]
    fn fixed_arm_runs_that_arm() {
        let inst = uniform(4, 24, 3, 1, 50);
        for arm in [Arm::LptRev, Arm::Multifit, Arm::Ptas] {
            let (cache, counters) = fresh();
            let out = solve_portfolio(
                &inst,
                4,
                &seq(),
                &cache,
                None,
                None,
                PortfolioPolicy::Fixed(arm),
                &counters,
            );
            assert_eq!(out.arm, arm, "{arm}");
            assert_eq!(out.engine, arm.engine());
            assert!(!out.degraded);
            out.schedule.validate(&inst).unwrap();
            let report = counters.report();
            assert_eq!(report.arms[arm.idx()].chosen, 1);
            assert_eq!(report.arms[arm.idx()].won, 1);
        }
    }

    fn ptas_arm(
        inst: &Instance,
        opts: &SolverOptions,
        deadline: Option<Instant>,
    ) -> (PortfolioOutcome, PortfolioCounters) {
        let (cache, counters) = fresh();
        let out = solve_portfolio(
            inst,
            4,
            opts,
            &cache,
            None,
            deadline,
            PortfolioPolicy::Fixed(Arm::Ptas),
            &counters,
        );
        (out, counters)
    }

    /// The dp-dense shape: 36 jobs, 12 machines, U[30, 100].
    fn dp_dense(seed: u64) -> Instance {
        uniform(seed, 36, 12, 30, 100)
    }

    #[test]
    fn ptas_reply_is_never_worse_than_lpt_revisited_or_the_plain_assembly() {
        let pool = (0..8)
            .map(dp_dense)
            .chain((0..4).map(|s| uniform(s, 24, 3, 1, 50)))
            .chain((0..4).map(|s| uniform(s, 12, 6, 50, 100)))
            .chain((0..4).map(|s| uniform(s, 40, 6, 1, 100)));
        for inst in pool {
            let (out, _) = ptas_arm(&inst, &seq(), None);
            assert!(!out.degraded);
            assert_eq!(out.arm, Arm::Ptas);
            assert_eq!(out.schedule.validate(&inst).unwrap(), out.makespan);
            assert!(out.makespan <= lpt_revisited(&inst).schedule.makespan(&inst));
            let cache = DpCache::new(4, 64 << 10);
            let plain = solve_cached(&inst, 4, &seq(), &cache, None, None, None).unwrap();
            assert!(out.makespan <= plain.schedule.makespan(&inst));
            // The converged target is a certified lower bound.
            let target = out.target.unwrap();
            assert!(target <= out.makespan);
            assert!(out.guarantee.holds(out.makespan, target));
            // The net's descent already ran, so a further greedy pass
            // finds no strictly better schedule.
            let cfg = ImproveConfig {
                mode: ImproveMode::Greedy,
                budget: Duration::from_secs(1),
                ..ImproveConfig::default()
            };
            let polished = pcmax_improve::improve(&inst, &out.schedule, &cfg).unwrap();
            assert_eq!(polished.makespan, out.makespan, "the improver lowered a reply");
        }
    }

    #[test]
    fn the_net_descends_both_heuristics_keeps_the_better_and_repeats_exactly() {
        let descended = |inst: &Instance, start: &Schedule| {
            let stop = Instant::now() + Duration::from_secs(3600);
            let rounds = ImproveConfig::default().max_descent_rounds;
            descend(inst, start, stop, rounds, &mut ImproveStats::default()).makespan(inst)
        };
        // Instances where MULTIFIT starts lower but descends to a worse
        // local optimum than LPT-revisited: descending only the better
        // start misses the better net there.
        let mut reversals = 0;
        for inst in (0..24).map(dp_dense) {
            let (rev, mf) = (
                lpt_revisited(&inst).schedule,
                multifit_with_guarantee(&inst, MULTIFIT_ITERS).0,
            );
            let (rev_down, mf_down) = (descended(&inst, &rev), descended(&inst, &mf));
            let counters = PortfolioCounters::default();
            let net = descended_net(&inst, None, None, &counters);
            assert_eq!(net.makespan, rev_down.min(mf_down));
            let winner = if mf_down < rev_down {
                Arm::Multifit
            } else {
                Arm::LptRev
            };
            assert_eq!(net.arm, winner, "ties go to LPT-revisited");
            assert_eq!(net.schedule.validate(&inst).unwrap(), net.makespan);
            let runs = |arm: Arm| counters.report().arms[arm.idx()].runs;
            assert_eq!((runs(Arm::LptRev), runs(Arm::Multifit)), (1, 1));
            let again = descended_net(&inst, None, None, &PortfolioCounters::default());
            assert_eq!((again.arm, again.guarantee), (net.arm, net.guarantee));
            assert_eq!(again.schedule, net.schedule);
            if mf.makespan(&inst) < rev.makespan(&inst) && rev_down < mf_down {
                reversals += 1;
            }
        }
        assert!(reversals > 0, "premise: the pool holds a reversal");
    }

    #[test]
    fn a_net_at_the_lower_bound_answers_without_probing() {
        let inst = uniform(0, 20, 3, 1, 40);
        let lb = bounds::lower_bound(&inst);
        let net = descended_net(&inst, None, None, &PortfolioCounters::default());
        assert_eq!(net.makespan, lb, "premise: the net reaches LB");
        let (out, _) = ptas_arm(&inst, &seq(), None);
        assert_eq!(out.cache_hits + out.cache_misses, 0, "no probe may run");
        assert_eq!((out.makespan, out.target), (lb, Some(lb)));
        assert_eq!(out.machines_used, None);
        assert_eq!(out.guarantee, Guarantee::EXACT);
        assert_eq!(out.schedule, net.schedule);
    }

    #[test]
    fn a_search_converging_on_the_net_skips_the_assembly_probe() {
        // LB = ⌈10/2⌉ = 5 but OPT = 6, and at T = 5 the rounded jobs
        // still cannot pair up, so the search converges on the net's
        // U = 6. Every probe was then infeasible: the probes are exactly
        // the rounds of an all-infeasible search on [LB, U], one fewer
        // than with the assembly probe.
        let inst = Instance::new(vec![4, 3, 3], 2);
        let (lb, u) = (bounds::lower_bound(&inst), 6);
        assert_eq!(descended_net(&inst, None, None, &PortfolioCounters::default()).makespan, u);
        let (out, _) = ptas_arm(&inst, &seq(), None);
        let mut rounds = 0u64;
        let _ = pcmax_ptas::search::converge(lb, u, 1, |_, _, t| {
            rounds += t.len() as u64;
            Ok::<_, ()>(vec![false; t.len()])
        });
        assert!(lb < u && rounds > 0);
        assert_eq!(out.target, Some(u));
        assert_eq!(out.cache_hits + out.cache_misses, rounds);
        assert_eq!(out.makespan, u);
        assert_eq!(out.machines_used, None, "the net answered, not the assembly");
        assert_eq!(out.guarantee, Guarantee::EXACT, "T* = U certifies the net optimal");
    }

    #[test]
    fn a_failed_ptas_arm_answers_with_its_descended_net_once() {
        let runs = |c: &PortfolioCounters, arm: Arm| c.report().arms[arm.idx()].runs;
        // Expired deadline: no budget, so the net runs one heuristic.
        let inst = dp_dense(1);
        let past = Instant::now() - Duration::from_millis(1);
        let (out, counters) = ptas_arm(&inst, &seq(), Some(past));
        assert!(out.degraded);
        assert!(matches!(out.arm, Arm::LptRev | Arm::Multifit));
        let net = descended_net(&inst, Some(0), Some(past), &PortfolioCounters::default());
        assert_eq!(out.schedule, net.schedule);
        assert_eq!(runs(&counters, Arm::LptRev) + runs(&counters, Arm::Multifit), 1);
        assert_eq!(runs(&counters, Arm::Ptas), 1);

        // Over budget: no representation fits 8 cells, and the net sits
        // above LB, so the search must probe and the arm fails.
        let inst = uniform(2, 12, 6, 50, 100);
        let opts = SolverOptions {
            max_table_cells: 8,
            ..seq()
        };
        let net = descended_net(&inst, None, None, &PortfolioCounters::default());
        assert!(net.makespan > bounds::lower_bound(&inst), "premise: the search probes");
        let (out, counters) = ptas_arm(&inst, &opts, None);
        assert!(out.degraded);
        assert_eq!((out.arm, &out.schedule), (net.arm, &net.schedule));
        assert!(out.makespan <= heuristic_net(&inst, None, &PortfolioCounters::default()).makespan);
        assert_eq!(runs(&counters, Arm::LptRev), 1, "the net never runs twice");
        assert_eq!(runs(&counters, Arm::Multifit), 1, "the net never runs twice");
    }

    #[test]
    fn guarantees_are_certified_against_the_oracle() {
        for seed in 0..6 {
            let inst = uniform(40 + seed, 11, 3, 1, 40);
            let opt = pcmax_core::exact::brute_force_makespan(&inst);
            for policy in [
                PortfolioPolicy::Auto,
                PortfolioPolicy::Fixed(Arm::LptRev),
                PortfolioPolicy::Fixed(Arm::Multifit),
                PortfolioPolicy::Fixed(Arm::Ptas),
            ] {
                let (cache, counters) = fresh();
                let out = solve_portfolio(
                    &inst, 4, &seq(), &cache, None, None, policy, &counters,
                );
                assert!(out.makespan >= opt);
                assert!(
                    out.guarantee.holds(out.makespan, opt),
                    "{policy}: {} violated, ms={} opt={opt}",
                    out.guarantee,
                    out.makespan
                );
            }
        }
    }
}
