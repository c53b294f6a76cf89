//! Cache-backed PTAS solving with deadline checks.
//!
//! The service's solve path runs the bisection of
//! [`pcmax_ptas::search::converge`] with probes backed by the shared
//! [`DpCache`]: every DP probe first canonicalises its rounded problem
//! to a [`DpKey`](pcmax_ptas::DpKey) — `(class counts, gcd-normalised
//! sizes, normalised capacity)` — and consults the cache. Distinct instances
//! (and distinct targets of the *same* instance) frequently collapse to
//! the same key, so a warm service answers most probes without running
//! the DP at all.
//!
//! Cached entries are machine-count independent: the DP computes
//! `OPT(N)`, the minimum number of machines, and feasibility for a
//! request is just `OPT(N) ≤ m` — so a solution cached for one `m` is
//! reusable verbatim for any other.

pub use crate::cache::{entry_cost, DpCache};
use crate::warm::WarmTier;
use pcmax_core::{bounds, Instance, Schedule};
use pcmax_ptas::dp::INFEASIBLE;
use pcmax_ptas::ptas::assemble_schedule;
use pcmax_ptas::rounding::{Rounding, RoundingOutcome};
use pcmax_ptas::search::{self, interval};
use pcmax_ptas::{DpEngine, DpProblem};
use pcmax_sparse::{PlannedRepr, SparseError, SparsePrediction};
use pcmax_store::{ScratchDir, StoreBudget, StoreConfig, StoreStats, TieredStore};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A memoised DP outcome, keyed by [`DpKey`](pcmax_ptas::DpKey).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedDp {
    /// `OPT(N)`: minimum machines for the rounded long jobs
    /// ([`INFEASIBLE`] when they cannot be packed at all).
    pub opt: u32,
    /// Machine configurations realising `opt` (absent when infeasible).
    /// `Arc`-shared: hits clone the pointer, not the table walk.
    pub configs: Option<Arc<Vec<Vec<usize>>>>,
}

/// Why a request could not be answered by the PTAS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Degrade {
    /// The per-request deadline expired mid-search.
    DeadlineExceeded,
    /// A probe's DP exceeded the configured cell budget under *every*
    /// admitted representation (dense, sparse, paged).
    TableTooLarge {
        /// Cells the cheapest attempted representation would have held
        /// resident.
        cells: usize,
    },
}

/// Which DP representations a solve may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReprPolicy {
    /// Dense in-RAM tables only — the pre-sparsification behaviour:
    /// a table over the cell budget degrades immediately.
    DenseOnly,
    /// Sparse frontier only (useful for differential testing); the
    /// runtime cell cap still applies.
    SparseOnly,
    /// Predict per probe: dense while the table fits the cell budget,
    /// else sparse while the estimated frontier fits, else paged when a
    /// pages directory is configured.
    #[default]
    Auto,
}

/// Everything the solve path needs to know beyond the instance: engine,
/// representation policy, admission budget, and the page store used by
/// the paged arm.
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// DP engine for dense cache misses.
    pub engine: DpEngine,
    /// Which representations a probe may use.
    pub repr: ReprPolicy,
    /// Largest resident cell count any representation may allocate.
    pub max_table_cells: usize,
    /// Spill directory for the paged arm. `None` disables paged solves
    /// (the `Auto` ladder then ends at sparse).
    pub pages_dir: Option<PathBuf>,
    /// RAM budget of each paged solve's tiered store.
    pub pages_budget: StoreBudget,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self {
            engine: DpEngine::AntiDiagonal,
            repr: ReprPolicy::Auto,
            max_table_cells: usize::MAX,
            pages_dir: None,
            pages_budget: StoreBudget::default(),
        }
    }
}

impl SolverOptions {
    /// Options with the given engine and everything else default —
    /// unbounded, `Auto` representation, no page store.
    pub fn new(engine: DpEngine) -> Self {
        Self {
            engine,
            ..Self::default()
        }
    }
}

/// How many cache-missing probes ran under each representation, plus
/// the page traffic of the paged probes' scratch stores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReprCounts {
    /// Probes solved by a dense in-RAM engine.
    pub dense: u64,
    /// Probes solved by the sparse frontier sweep.
    pub sparse: u64,
    /// Probes solved by the paged engine against a tiered store.
    pub paged: u64,
    /// Compute-path page faults of the paged probes.
    pub paged_faults: u64,
    /// Pages the paged probes' prefetch stream read off the compute path.
    pub prefetch_issued: u64,
    /// Faults the paged probes' prefetches turned into staging hits.
    pub prefetch_hits: u64,
    /// Spill files the paged probes' write-behind stream pre-wrote.
    pub writebehind_writes: u64,
}

impl ReprCounts {
    /// Total probes that ran a DP (any representation).
    pub fn total(&self) -> u64 {
        self.dense + self.sparse + self.paged
    }
}

/// A completed cache-backed PTAS solve.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// Valid schedule of all jobs: the PTAS assembly, or the caller's net
    /// when that is strictly better or proven optimal.
    pub schedule: Schedule,
    /// Converged target `T*`, a certified lower bound: every probe below
    /// it was infeasible, and rounding only shrinks loads, so `T* ≤ OPT`.
    pub target: u64,
    /// Machines the DP used for the long jobs — `None` when the net
    /// answered.
    pub machines_used: Option<usize>,
    /// Probes answered from the shared cache.
    pub cache_hits: u64,
    /// Probes that ran the DP.
    pub cache_misses: u64,
    /// Representation each cache-missing probe ran under.
    pub repr: ReprCounts,
}

/// Store cost model reused by the portfolio selector: estimated ns per
/// resident DP cell per probe. Dense is one slab pass; sparse pays hash
/// and value-bucket overhead per retained cell; paged amortises
/// page-codec and fault traffic on top. Upper-biased on purpose — the
/// selector should only commit to a DP when it is *comfortably*
/// affordable.
const DENSE_NS_PER_CELL: u64 = 8;
const SPARSE_NS_PER_CELL: u64 = 60;
const PAGED_NS_PER_CELL: u64 = 600;

/// Cheap per-instance features the portfolio selector keys on. Probing
/// costs one `Rounding::compute` + one table-size prediction — no DP
/// cells are ever allocated.
#[derive(Debug, Clone, Copy)]
pub struct InstanceFeatures {
    /// Number of jobs.
    pub n: usize,
    /// Shortest processing time.
    pub min_time: u64,
    /// Longest processing time.
    pub max_time: u64,
    /// Representation the admission ladder would run the midpoint probe
    /// under; `None` when every representation is over the cell budget
    /// (the DP arms are unavailable).
    pub planned: Option<PlannedRepr>,
    /// Upper-biased wall-clock estimate for the whole cache-cold DP
    /// search under `planned`, in µs (0 when no representation admits):
    /// the planned representation's resident cells × its ns per cell ×
    /// the bisection probes the search needs (bits of `ub − lb`, plus
    /// the final assembly probe).
    pub est_dp_us: u64,
}

/// Probes the features of one instance at rounding parameter `k` under
/// the given solver options (the cell budget and pages directory decide
/// which representations are admissible).
pub fn probe_features(inst: &Instance, k: u64, opts: &SolverOptions) -> InstanceFeatures {
    let n = inst.num_jobs();
    let lb = bounds::lower_bound(inst);
    let ub = bounds::upper_bound(inst);
    let min_time = (0..n).map(|j| inst.time(j)).min().unwrap_or(0);
    let max_time = inst.max_time();
    // The bisection midpoint's rounding stands in for the whole search:
    // table dimensions depend on the target only through the class
    // structure, which varies slowly across the interval.
    let t = interval::bisection_target(lb, ub);
    let (dense_cells, sparse_cells, planned) = match Rounding::compute(inst, t, k) {
        // Unreachable in practice (t ≥ lb ≥ max tⱼ), kept total.
        RoundingOutcome::Infeasible { .. } => (0, 0, None),
        RoundingOutcome::Rounded(r) => {
            let problem = DpProblem::from_rounding(&r);
            let p = problem.predict_sparse();
            (p.dense_cells, p.est_sparse_cells, plan_repr(&problem, &p, opts).ok())
        }
    };
    let est_probes = 64 - (ub - lb).leading_zeros() + 1;
    let (cells, per_cell_ns) = match planned {
        Some(PlannedRepr::Dense) => (dense_cells, DENSE_NS_PER_CELL),
        Some(PlannedRepr::Sparse) => (sparse_cells, SPARSE_NS_PER_CELL),
        Some(PlannedRepr::Paged) => (dense_cells, PAGED_NS_PER_CELL),
        None => (0, 0),
    };
    let est_dp_us = ((cells as u128 * per_cell_ns as u128 * est_probes as u128).div_ceil(1000))
        .min(u64::MAX as u128) as u64;
    InstanceFeatures {
        n,
        min_time,
        max_time,
        planned,
        est_dp_us,
    }
}

/// Coefficient of variation of the job times, ×100. f64 is fine for a
/// feature: times near u64::MAX would overflow any exact integer
/// variance accumulator, and the selector only needs coarse buckets.
pub(crate) fn cv_pct(inst: &Instance) -> u64 {
    let n = inst.num_jobs();
    let mean = (0..n).map(|j| inst.time(j) as f64).sum::<f64>() / n.max(1) as f64;
    if mean > 0.0 {
        let var = (0..n)
            .map(|j| {
                let d = inst.time(j) as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n as f64;
        (var.sqrt() / mean * 100.0).min(u64::MAX as f64) as u64
    } else {
        0
    }
}

/// One probe's feasibility plus the configs needed to build a schedule.
struct ProbeOutcome {
    feasible: bool,
    configs: Option<Arc<Vec<Vec<usize>>>>,
}

/// Plans the representation for one problem under the options' policy,
/// from the caller's `prediction` (`problem.predict_sparse()`). `Err`
/// when every admitted representation exceeds the cell budget — checked
/// *before* the cache so admission control is representation-aware even
/// on the hit path.
fn plan_repr(
    problem: &DpProblem,
    prediction: &SparsePrediction,
    opts: &SolverOptions,
) -> Result<PlannedRepr, Degrade> {
    match opts.repr {
        ReprPolicy::DenseOnly => {
            if problem.table_size() > opts.max_table_cells {
                Err(Degrade::TableTooLarge {
                    cells: problem.table_size(),
                })
            } else {
                Ok(PlannedRepr::Dense)
            }
        }
        ReprPolicy::SparseOnly => {
            if prediction.est_sparse_cells > opts.max_table_cells as u64 {
                Err(Degrade::TableTooLarge {
                    cells: prediction.est_sparse_cells.min(usize::MAX as u64) as usize,
                })
            } else {
                Ok(PlannedRepr::Sparse)
            }
        }
        ReprPolicy::Auto => prediction
            .choose(opts.max_table_cells as u64, opts.pages_dir.is_some())
            .ok_or(Degrade::TableTooLarge {
                cells: prediction.min_predicted_cells().min(usize::MAX as u64) as usize,
            }),
    }
}

/// Runs the DP under the planned representation and counts it in
/// `repr` under the representation that actually produced the entry
/// (the sparse arm falls back to paged when the frontier overflows its
/// cell cap and a pages directory exists).
fn run_planned(
    problem: &DpProblem,
    planned: PlannedRepr,
    opts: &SolverOptions,
    repr: &mut ReprCounts,
) -> Result<CachedDp, Degrade> {
    match planned {
        PlannedRepr::Dense => {
            let sol = problem.solve(opts.engine);
            repr.dense += 1;
            Ok(CachedDp {
                opt: sol.opt,
                configs: problem.extract_configs(&sol.values).map(Arc::new),
            })
        }
        PlannedRepr::Sparse => match problem.solve_sparse_bounded(opts.max_table_cells) {
            Ok(sol) => {
                repr.sparse += 1;
                Ok(CachedDp {
                    opt: sol.opt,
                    configs: sol.extract_configs().map(Arc::new),
                })
            }
            // The prediction under-estimated the frontier: page the dense
            // table if we can, otherwise degrade at the true resident size.
            Err(SparseError::FrontierOverflow { resident, .. }) => {
                if opts.pages_dir.is_some() {
                    run_planned(problem, PlannedRepr::Paged, opts, repr)
                } else {
                    Err(Degrade::TableTooLarge { cells: resident })
                }
            }
        },
        PlannedRepr::Paged => {
            let cells = problem.table_size();
            let (entry, store) =
                solve_paged_fresh(problem, opts).ok_or(Degrade::TableTooLarge { cells })?;
            repr.paged += 1;
            repr.paged_faults += store.faults;
            repr.prefetch_issued += store.prefetch_issued;
            repr.prefetch_hits += store.prefetch_hits;
            repr.writebehind_writes += store.writebehind_writes;
            Ok(entry)
        }
    }
}

/// One paged solve against a *fresh* tiered store in a unique
/// subdirectory (page ids are table-relative, so stores must never be
/// shared across problems), returned with that store's final counters.
/// A [`ScratchDir`] guard owns the directory: it sweeps stale pages a
/// crashed predecessor left behind and removes the directory however
/// the solve exits — success, store error, or unwind — so aborted
/// solves never orphan spill files. Any store error collapses to `None`
/// and the caller degrades. The sweep itself runs overlapped: prefetch
/// and write-behind streams move page I/O off the compute path.
fn solve_paged_fresh(problem: &DpProblem, opts: &SolverOptions) -> Option<(CachedDp, StoreStats)> {
    static NEXT_PAGED_SOLVE: AtomicU64 = AtomicU64::new(0);
    let base = opts.pages_dir.as_ref()?;
    let dir = base.join(format!(
        "solve-{}-{}",
        std::process::id(),
        NEXT_PAGED_SOLVE.fetch_add(1, Ordering::Relaxed)
    ));
    let scratch = ScratchDir::create(&dir).ok()?;
    let dim_limit = match opts.engine {
        DpEngine::Blocked { dim_limit } => dim_limit,
        _ => 3,
    };
    let result = TieredStore::open(&StoreConfig {
        budget: opts.pages_budget,
        spill_dir: Some(scratch.path().to_path_buf()),
    })
    .and_then(|store| {
        let store = Arc::new(store);
        let sol = problem.solve_paged_overlapped(dim_limit, Arc::clone(&store))?;
        Ok((sol, store.stats()))
    });
    drop(scratch);
    let (sol, stats) = result.ok()?;
    let configs = problem.extract_configs(&sol.values).map(Arc::new);
    Some((
        CachedDp {
            opt: sol.opt,
            configs,
        },
        stats,
    ))
}

/// Probes target `t` through the cache (RAM, then the optional warm
/// disk tier). `Err` only when every admitted representation is over
/// budget.
#[allow(clippy::too_many_arguments)]
fn probe_cached(
    inst: &Instance,
    t: u64,
    k: u64,
    opts: &SolverOptions,
    cache: &DpCache,
    warm: Option<&WarmTier>,
    hits: &mut u64,
    misses: &mut u64,
    repr: &mut ReprCounts,
) -> Result<ProbeOutcome, Degrade> {
    let rounding = match Rounding::compute(inst, t, k) {
        // A job longer than `t` cannot be scheduled at all under `t`.
        RoundingOutcome::Infeasible { .. } => {
            return Ok(ProbeOutcome {
                feasible: false,
                configs: None,
            })
        }
        RoundingOutcome::Rounded(r) => r,
    };
    let problem = DpProblem::from_rounding(&rounding);
    let planned = plan_repr(&problem, &problem.predict_sparse(), opts)?;
    let m = inst.machines();
    let key = problem.canonical_key();
    let entry = match cache.get(&key) {
        Some(entry) => {
            *hits += 1;
            entry
        }
        // RAM miss: fault the warm disk tier before running the DP. A
        // disk hit counts as a request-level hit (no DP ran) and is
        // promoted into RAM so the next probe stays off disk.
        None => match warm.and_then(|w| w.get(&key)) {
            Some(entry) => {
                *hits += 1;
                cache.insert(key.clone(), entry.clone(), entry_cost(&key, &entry));
                entry
            }
            None => {
                *misses += 1;
                let entry = run_planned(&problem, planned, opts, repr)?;
                if let Some(w) = warm {
                    w.put(&key, &entry);
                }
                cache.insert(key.clone(), entry.clone(), entry_cost(&key, &entry));
                entry
            }
        },
    };
    Ok(ProbeOutcome {
        feasible: entry.opt != INFEASIBLE && entry.opt as usize <= m,
        configs: entry.configs.clone(),
    })
}

/// Bisects the target makespan with cache-backed probes, then assembles
/// the schedule for the converged target.
///
/// `net` is an achieved schedule (the serve path's descended heuristic
/// net) with makespan U. With it the search runs on `[LB, min(UB, U)]`,
/// and the reply is the better of the assembly and the net (a tie keeps
/// the assembly). A search that converges on U saw the probe at U − 1
/// infeasible (or U = LB), so OPT ≥ U: the net is optimal and answers
/// without the assembly probe. `None` searches paper Alg. 1's
/// `[LB, UB]` and always assembles.
///
/// `deadline` is checked before every probe; expiry returns
/// [`Degrade::DeadlineExceeded`] and the caller falls back to a
/// heuristic. A `deadline` of `None` never expires.
pub fn solve_cached(
    inst: &Instance,
    k: u64,
    opts: &SolverOptions,
    cache: &DpCache,
    warm: Option<&WarmTier>,
    deadline: Option<Instant>,
    net: Option<&Schedule>,
) -> Result<SolveOutcome, Degrade> {
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut repr = ReprCounts::default();
    let mut probe = |t: u64| {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(Degrade::DeadlineExceeded);
        }
        probe_cached(
            inst, t, k, opts, cache, warm, &mut hits, &mut misses, &mut repr,
        )
    };
    let net = net.map(|schedule| (schedule, schedule.makespan(inst)));
    // Invariant: `ub` is always probe-feasible. UB = ⌈area⌉ + max bounds
    // a list schedule's makespan, U is the net's achieved makespan, and
    // rounding only shrinks loads.
    let ub = bounds::upper_bound(inst).min(net.map_or(u64::MAX, |(_, u)| u));
    let target = search::converge(bounds::lower_bound(inst), ub, 1, |_, _, targets| {
        targets.iter().map(|&t| Ok(probe(t)?.feasible)).collect()
    })?;
    if let Some((schedule, _)) = net.filter(|&(_, u)| u == target) {
        return Ok(SolveOutcome {
            schedule: schedule.clone(),
            target,
            machines_used: None,
            cache_hits: hits,
            cache_misses: misses,
            repr,
        });
    }
    let configs = probe(target)?
        .configs
        .expect("converged target is feasible, so configs exist");
    let rounding = match Rounding::compute(inst, target, k) {
        RoundingOutcome::Rounded(r) => r,
        RoundingOutcome::Infeasible { longest } => {
            unreachable!("converged target {target} below longest job {longest}")
        }
    };
    let assembled = assemble_schedule(inst, &rounding, &configs);
    let (schedule, machines_used) = match net {
        Some((schedule, u)) if u < assembled.makespan(inst) => (schedule.clone(), None),
        _ => (assembled, Some(configs.len())),
    };
    Ok(SolveOutcome {
        schedule,
        target,
        machines_used,
        cache_hits: hits,
        cache_misses: misses,
        repr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_core::gen::uniform;
    use pcmax_ptas::Ptas;
    use std::time::Duration;

    fn k_of(eps: f64) -> u64 {
        (1.0 / eps).ceil() as u64
    }

    fn seq() -> SolverOptions {
        SolverOptions::new(DpEngine::Sequential)
    }

    #[test]
    fn matches_the_plain_ptas() {
        let cache = DpCache::new(4, 64 << 10);
        for seed in 0..4 {
            let inst = uniform(seed, 24, 3, 1, 50);
            let cached = solve_cached(&inst, k_of(0.3), &seq(), &cache, None, None, None).unwrap();
            let plain = Ptas::new(0.3)
                .with_engine(DpEngine::Sequential)
                .solve(&inst);
            assert_eq!(cached.target, plain.target, "seed {seed}");
            let ms = cached.schedule.validate(&inst).unwrap();
            assert_eq!(ms, cached.schedule.makespan(&inst));
            // Both schedules honour the same (1+ε) bound; they need not
            // be identical, but the cached path must not be worse than
            // the plain PTAS's own guarantee envelope.
            assert!(ms as f64 <= plain.makespan as f64 * 1.5 + 1.0);
        }
    }

    #[test]
    fn repeat_solves_hit_the_cache() {
        let cache = DpCache::new(4, 64 << 10);
        let inst = uniform(9, 24, 3, 1, 50);
        let first = solve_cached(&inst, k_of(0.3), &seq(), &cache, None, None, None).unwrap();
        let second = solve_cached(&inst, k_of(0.3), &seq(), &cache, None, None, None).unwrap();
        assert_eq!(first.target, second.target);
        assert_eq!(second.cache_misses, 0, "second run must be all hits");
        assert!(second.cache_hits > 0);
        assert_eq!(second.repr.total(), 0, "cache hits run no DP");
        assert_eq!(first.repr.total(), first.cache_misses);
        assert!(cache.bytes() > 0, "entries carry a byte cost");
    }

    #[test]
    fn warm_tier_answers_after_the_ram_cache_is_dropped() {
        let dir = std::env::temp_dir().join(format!(
            "pcmax-solver-warm-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let warm = WarmTier::open(&dir).unwrap();
        let inst = uniform(11, 24, 3, 1, 50);
        let cold_cache = DpCache::new(4, 64 << 10);
        let cold = solve_cached(&inst, k_of(0.3), &seq(), &cold_cache, Some(&warm), None, None).unwrap();
        assert!(cold.cache_misses > 0);
        assert!(warm.appends() > 0, "misses must persist to the warm tier");
        // Fresh RAM cache, same warm dir reopened: every probe faults the
        // disk tier, none runs the DP.
        let reopened = WarmTier::open(&dir).unwrap();
        assert_eq!(reopened.rehydrated(), warm.appends());
        let fresh_cache = DpCache::new(4, 64 << 10);
        let rehydrated =
            solve_cached(&inst, k_of(0.3), &seq(), &fresh_cache, Some(&reopened), None, None).unwrap();
        assert_eq!(rehydrated.target, cold.target);
        assert_eq!(rehydrated.cache_misses, 0, "no DP may run after rehydration");
        assert!(reopened.hits() > 0, "probes must be answered from disk");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_reuse_across_machine_counts() {
        // Same jobs, different m: rounded problems share keys, so the
        // second solve should run strictly fewer DPs than a cold one.
        let cache = DpCache::new(4, 64 << 10);
        let times: Vec<u64> = uniform(3, 24, 3, 1, 50).times().to_vec();
        let a = Instance::new(times.clone(), 3);
        let b = Instance::new(times, 4);
        let first = solve_cached(&a, 4, &seq(), &cache, None, None, None).unwrap();
        let second = solve_cached(&b, 4, &seq(), &cache, None, None, None).unwrap();
        assert!(first.cache_misses > 0);
        assert!(
            second.cache_hits > 0,
            "shared keys across m must produce hits"
        );
    }

    #[test]
    fn expired_deadline_degrades() {
        let cache = DpCache::new(4, 64 << 10);
        let inst = uniform(1, 24, 3, 1, 50);
        let already_past = Instant::now() - Duration::from_millis(1);
        let err = solve_cached(&inst, 4, &seq(), &cache, None, Some(already_past), None).unwrap_err();
        assert_eq!(err, Degrade::DeadlineExceeded);
    }

    #[test]
    fn oversized_tables_degrade() {
        let cache = DpCache::new(4, 64 << 10);
        // Few machines, jobs near the target: everything is long, so the
        // DP table has many class dimensions and cannot fit in 8 cells —
        // not even as a sparse frontier, whose floor is one cell per job.
        let inst = uniform(2, 12, 6, 50, 100);
        let opts = SolverOptions {
            max_table_cells: 8,
            ..seq()
        };
        let err = solve_cached(&inst, 6, &opts, &cache, None, None, None).unwrap_err();
        assert!(matches!(err, Degrade::TableTooLarge { cells } if cells > 8));
        // The pre-sparsification policy degrades identically.
        let dense_opts = SolverOptions {
            repr: ReprPolicy::DenseOnly,
            ..opts
        };
        let err = solve_cached(&inst, 6, &dense_opts, &cache, None, None, None).unwrap_err();
        assert!(matches!(err, Degrade::TableTooLarge { cells } if cells > 8));
    }

    #[test]
    fn sparse_only_matches_dense_only_answers() {
        let dense_cache = DpCache::new(4, 64 << 10);
        let sparse_cache = DpCache::new(4, 64 << 10);
        let sparse_opts = SolverOptions {
            repr: ReprPolicy::SparseOnly,
            ..seq()
        };
        for seed in 0..4 {
            let inst = uniform(seed, 24, 3, 1, 50);
            let dense = solve_cached(&inst, 4, &seq(), &dense_cache, None, None, None).unwrap();
            let sparse = solve_cached(&inst, 4, &sparse_opts, &sparse_cache, None, None, None).unwrap();
            assert_eq!(dense.target, sparse.target, "seed {seed}");
            assert_eq!(dense.machines_used, sparse.machines_used, "seed {seed}");
            let ms = sparse.schedule.validate(&inst).unwrap();
            assert_eq!(ms, sparse.schedule.makespan(&inst));
            assert!(sparse.repr.sparse > 0, "sparse probes must be counted");
            assert_eq!(sparse.repr.dense, 0);
        }
    }

    #[test]
    fn auto_switches_to_sparse_when_the_dense_table_is_over_budget() {
        // 24 long jobs of sizes {10, 11} on 4 machines with k=8: every
        // probe rounds to the class vector (12, 12) — a 169-cell dense
        // box whose sparse estimate ((M̂+2) surfaces of twice the mean
        // anti-diagonal width) is 98 cells. A budget between the two
        // forces the Auto ladder onto the sparse arm for every probe.
        let times: Vec<u64> = std::iter::repeat_n(10u64, 12)
            .chain(std::iter::repeat_n(11u64, 12))
            .collect();
        let inst = Instance::new(times, 4);
        let unbounded = solve_cached(&inst, 8, &seq(), &DpCache::new(4, 64 << 10), None, None, None)
            .unwrap();
        assert!(unbounded.repr.dense > 0);
        assert_eq!(unbounded.repr.sparse, 0);
        let opts = SolverOptions {
            max_table_cells: 120,
            ..seq()
        };
        let cache = DpCache::new(4, 64 << 10);
        let outcome = solve_cached(&inst, 8, &opts, &cache, None, None, None).unwrap();
        assert_eq!(outcome.target, unbounded.target);
        assert!(
            outcome.repr.sparse > 0,
            "a 120-cell budget must push probes sparse: {:?}",
            outcome.repr
        );
        assert_eq!(outcome.repr.dense, 0, "no probe fits 120 cells dense");
        let ms = outcome.schedule.validate(&inst).unwrap();
        assert_eq!(ms, outcome.schedule.makespan(&inst));
    }

    #[test]
    fn features_probe_is_sane() {
        let inst = uniform(5, 24, 3, 1, 50);
        let f = probe_features(&inst, 4, &seq());
        assert_eq!(f.n, 24);
        assert!(f.min_time < f.max_time);
        assert_eq!(f.planned, Some(PlannedRepr::Dense));
        assert!(f.est_dp_us > 0);

        // Uniform times: the extremes coincide.
        let flat = Instance::new(vec![7; 12], 3);
        let ff = probe_features(&flat, 4, &seq());
        assert_eq!((ff.min_time, ff.max_time), (7, 7));

        // A 1-cell budget admits no representation: the DP arms are
        // reported unavailable and the cost estimate is zero.
        let tight = SolverOptions {
            max_table_cells: 1,
            ..seq()
        };
        let none = probe_features(&inst, 6, &tight);
        assert!(none.planned.is_none());
        assert_eq!(none.est_dp_us, 0);
    }

    #[test]
    fn auto_falls_back_to_paged_when_sparse_is_over_budget() {
        let dir = std::env::temp_dir().join(format!("pcmax-solver-pages-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cache = DpCache::new(4, 64 << 10);
        // The oversized regime again, but now a pages directory exists:
        // instead of degrading, every over-budget probe pages its dense
        // table through a fresh tiered store and still answers exactly.
        let inst = uniform(2, 12, 6, 50, 100);
        let opts = SolverOptions {
            max_table_cells: 8,
            pages_dir: Some(dir.clone()),
            pages_budget: StoreBudget::bytes(1 << 10),
            ..seq()
        };
        let paged = solve_cached(&inst, 6, &opts, &cache, None, None, None).unwrap();
        assert!(paged.repr.paged > 0, "probes must page: {:?}", paged.repr);
        let reference = solve_cached(&inst, 6, &seq(), &DpCache::new(4, 64 << 10), None, None, None)
            .unwrap();
        assert_eq!(paged.target, reference.target);
        let ms = paged.schedule.validate(&inst).unwrap();
        assert_eq!(ms, paged.schedule.makespan(&inst));
        // Per-solve page directories are cleaned up afterwards.
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "paged solves must remove their scratch directories"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
