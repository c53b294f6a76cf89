//! The differential oracle: each check cross-examines two or more
//! independent implementations (or one implementation against a
//! mathematical invariant) and reports any disagreement as a
//! [`Divergence`]. A silent overflow anywhere in the solve path shows up
//! here as a divergence long before it would crash anything.

use crate::report::Divergence;
use pcmax_core::exact::{brute_force_makespan, subset_dp_makespan};
use pcmax_core::heuristics::{lpt, multifit};
use pcmax_core::{bounds, Instance};
use pcmax_ptas::dp::{DpEngine, DpProblem};
use pcmax_ptas::rounding::{Rounding, RoundingOutcome};
use pcmax_ptas::search::{self, interval};
use pcmax_ptas::{Ptas, SearchStrategy};
use pcmax_serve::solver::{solve_cached, DpCache, ReprPolicy, SolverOptions};
use pcmax_serve::{descended_net, solve_portfolio, Arm, PortfolioCounters, PortfolioPolicy};
use pcmax_sparse::SparseError;
use pcmax_serve::WarmTier;
use pcmax_store::{StoreBudget, StoreConfig, StoreError, TieredStore};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// The three DP engines that must agree cell-for-cell.
pub const ENGINES: [DpEngine; 4] = [
    DpEngine::Sequential,
    DpEngine::AntiDiagonal,
    DpEngine::Blocked { dim_limit: 2 },
    DpEngine::Blocked { dim_limit: 6 },
];

/// Context threaded through every check of one case.
pub struct CheckCtx<'a> {
    /// Generator family of the case under audit.
    pub family: &'static str,
    /// Seed of the case.
    pub seed: u64,
    /// `k = ⌈1/ε⌉` for rounding/search checks.
    pub k: u64,
    /// DP tables larger than this are skipped (not failed) — the audit
    /// checks correctness, not capacity.
    pub max_table_cells: usize,
    /// Individual checks executed (incremented by each check fn).
    pub checks_run: &'a mut u64,
    /// Divergences found so far.
    pub out: &'a mut Vec<Divergence>,
}

impl CheckCtx<'_> {
    fn bump(&mut self) {
        *self.checks_run += 1;
    }

    fn diverge(&mut self, check: &'static str, detail: String) {
        self.out.push(Divergence {
            family: self.family.to_string(),
            seed: self.seed,
            check: check.to_string(),
            detail,
        });
    }
}

/// Probes three representative targets (LB, midpoint, UB) and solves the
/// rounded DP with every engine, comparing `OPT(N)` and the full value
/// table cell-for-cell.
pub fn check_engine_agreement(inst: &Instance, ctx: &mut CheckCtx<'_>) {
    let lb = bounds::lower_bound(inst);
    let ub = bounds::upper_bound(inst);
    for target in [lb, interval::bisection_target(lb, ub), ub] {
        ctx.bump();
        let rounding = match Rounding::compute(inst, target, ctx.k) {
            RoundingOutcome::Infeasible { longest } => {
                // Only legal at all when a job truly exceeds the target.
                if longest <= target {
                    ctx.diverge(
                        "rounding-infeasible",
                        format!("target {target} reported infeasible but longest {longest} fits"),
                    );
                }
                continue;
            }
            RoundingOutcome::Rounded(r) => r,
        };
        let problem = DpProblem::from_rounding(&rounding);
        if problem.table_size() > ctx.max_table_cells {
            continue; // capacity, not correctness
        }
        let reference = problem.solve(ENGINES[0]);
        for &engine in &ENGINES[1..] {
            let sol = problem.solve(engine);
            if sol.opt != reference.opt {
                ctx.diverge(
                    "engine-opt",
                    format!(
                        "target {target}: {engine:?} OPT {} vs Sequential {}",
                        sol.opt, reference.opt
                    ),
                );
            }
            if sol.values != reference.values {
                let cell = sol
                    .values
                    .iter()
                    .zip(&reference.values)
                    .position(|(a, b)| a != b)
                    .unwrap_or(0);
                ctx.diverge(
                    "engine-cells",
                    format!("target {target}: {engine:?} diverges from Sequential at cell {cell}"),
                );
            }
        }
    }
}

/// Bisection, quarter split and 8-ary split must all converge to the
/// same `T*`, and every probe target they emit must stay inside the
/// shrinking `[lb, ub]` interval.
pub fn check_search_agreement(inst: &Instance, ctx: &mut CheckCtx<'_>) {
    ctx.bump();
    let engine = DpEngine::Sequential;
    let b = search::run(inst, ctx.k, engine, 1);
    let q = search::run(inst, ctx.k, engine, 4);
    let n8 = search::run(inst, ctx.k, engine, 8);
    for (name, r) in [("quarter", &q), ("nary-8", &n8)] {
        if r.target != b.target {
            ctx.diverge(
                "search-target",
                format!("{name} T* {} vs bisection {}", r.target, b.target),
            );
        }
    }
    let lb0 = bounds::lower_bound(inst);
    let ub0 = bounds::upper_bound(inst);
    for r in [&b, &q, &n8] {
        for rec in &r.records {
            for p in &rec.probes {
                if p.target < rec.lb || p.target > rec.ub {
                    ctx.diverge(
                        "probe-escapes-interval",
                        format!("probe {} outside [{}, {}]", p.target, rec.lb, rec.ub),
                    );
                }
            }
        }
        if r.target < lb0 || r.target > ub0 {
            ctx.diverge(
                "target-escapes-bounds",
                format!("T* {} outside initial [{lb0}, {ub0}]", r.target),
            );
        }
    }
}

/// The serve layer's cache-backed bisection runs the search over
/// `DpKey`-canonicalised probes, bounded above by the PTAS arm's
/// descended net as in the real serve path. Its converged target must
/// match the plain search, its schedule must be valid, and its reply
/// must never be worse than the net it was given.
pub fn check_serve_solver(inst: &Instance, ctx: &mut CheckCtx<'_>) {
    ctx.bump();
    // Skip when even a single probe's table would blow the budget; the
    // serve path degrades by design there.
    let cache = DpCache::new(2, 64 << 10);
    let opts = SolverOptions {
        engine: DpEngine::Sequential,
        max_table_cells: ctx.max_table_cells,
        ..SolverOptions::default()
    };
    let net = descended_net(inst, None, None, &PortfolioCounters::default());
    match solve_cached(inst, ctx.k, &opts, &cache, None, None, Some(&net.schedule)) {
        Ok(outcome) => {
            let reference = search::run(inst, ctx.k, DpEngine::Sequential, 1);
            if outcome.target != reference.target {
                ctx.diverge(
                    "serve-target",
                    format!(
                        "solve_cached T* {} vs search::run {}",
                        outcome.target, reference.target
                    ),
                );
            }
            match outcome.schedule.validate(inst) {
                Ok(ms) if ms > net.makespan => ctx.diverge(
                    "serve-net-floor",
                    format!("reply makespan {ms} worse than the net's {}", net.makespan),
                ),
                Ok(_) => {}
                Err(e) => ctx.diverge("serve-schedule", format!("invalid schedule: {e}")),
            }
        }
        Err(_) => { /* table over budget: capacity, not correctness */ }
    }
}

/// Runs the full PTAS and checks the dual-approximation invariant:
/// `LB ≤ T* ≤ UB`, the schedule is valid, and the makespan obeys the
/// `(1 + 1/k + 1/k²)·T*` guarantee — evaluated in `u128` so the check
/// itself cannot wrap on u64-scale instances.
pub fn check_ptas_invariant(inst: &Instance, ctx: &mut CheckCtx<'_>) {
    ctx.bump();
    let eps = 1.0 / ctx.k as f64;
    let res = Ptas::new(eps)
        .with_engine(DpEngine::Sequential)
        .with_strategy(SearchStrategy::Bisection)
        .solve(inst);
    let ms = match res.schedule.validate(inst) {
        Ok(ms) => ms,
        Err(e) => {
            ctx.diverge("ptas-schedule", format!("invalid schedule: {e}"));
            return;
        }
    };
    if ms != res.makespan {
        ctx.diverge(
            "ptas-makespan",
            format!("reported {} but schedule realises {ms}", res.makespan),
        );
    }
    let lb = bounds::lower_bound(inst) as u128;
    let ub = bounds::upper_bound(inst) as u128;
    let t = res.target as u128;
    if t < lb || t > ub {
        ctx.diverge(
            "ptas-target-bounds",
            format!("T* {t} outside [{lb}, {ub}]"),
        );
    }
    // Integer guarantee bound in u128: T*·(1 + 1/k + 1/k²) plus slack
    // for the floors taken by step and short-cut divisions.
    let k = ctx.k as u128;
    let bound = t + t / k + t / (k * k) + 2;
    if (ms as u128) > bound {
        ctx.diverge(
            "ptas-guarantee",
            format!("makespan {ms} exceeds (1+ε) bound {bound} for T* {t} (k {k})"),
        );
    }
}

/// Ground-truth checks on small instances: the two independent exact
/// oracles must agree, `T* ≤ OPT` (dual approximation), and every
/// heuristic is sandwiched in `[OPT, guarantee]`.
pub fn check_small_oracle(inst: &Instance, ctx: &mut CheckCtx<'_>) {
    if inst.num_jobs() > 10 {
        return;
    }
    ctx.bump();
    let opt = brute_force_makespan(inst);
    let opt2 = subset_dp_makespan(inst);
    if opt != opt2 {
        ctx.diverge(
            "oracle-disagreement",
            format!("branch-and-bound {opt} vs subset DP {opt2}"),
        );
    }
    if (opt as u128) < bounds::lower_bound(inst) as u128
        || (opt as u128) > bounds::upper_bound(inst) as u128
    {
        ctx.diverge("oracle-bounds", format!("OPT {opt} outside [LB, UB]"));
    }
    for (name, s) in [("lpt", lpt(inst)), ("multifit", multifit(inst, 20))] {
        match s.validate(inst) {
            Ok(ms) if ms < opt => ctx.diverge(
                "heuristic-beats-opt",
                format!("{name} makespan {ms} below optimum {opt}"),
            ),
            Ok(_) => {}
            Err(e) => ctx.diverge("heuristic-schedule", format!("{name}: {e}")),
        }
    }
    let t_star = search::run(inst, ctx.k, DpEngine::Sequential, 1).target;
    if t_star > opt {
        ctx.diverge(
            "dual-approximation",
            format!("T* {t_star} exceeds OPT {opt} — infeasible probes proved a false bound"),
        );
    }
}

/// A scratch directory unique to this process, call, check, and case:
/// the audit may run concurrently with other test binaries, and
/// concurrent audits in one process visit the same family and seed.
fn scratch_dir(ctx: &CheckCtx<'_>, tag: &str) -> PathBuf {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pcmax-audit-{}-{}-{tag}-{}-{}",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed),
        ctx.family,
        ctx.seed
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Differential check of the paged DP engine against the in-RAM
/// sequential engine: a starvation-level byte budget with a spill
/// directory must still produce the identical value table cell for
/// cell, and the same budget *without* spill must fail fast with a
/// structured [`StoreError::BudgetExceeded`] — never a wrong answer.
pub fn check_paged_store(inst: &Instance, ctx: &mut CheckCtx<'_>) {
    let lb = bounds::lower_bound(inst);
    let ub = bounds::upper_bound(inst);
    let target = interval::bisection_target(lb, ub);
    let rounding = match Rounding::compute(inst, target, ctx.k) {
        RoundingOutcome::Infeasible { .. } => return,
        RoundingOutcome::Rounded(r) => r,
    };
    let problem = DpProblem::from_rounding(&rounding);
    // Disk traffic per case stays bounded: the differential point is
    // budget < table, not table size.
    if problem.table_size() > (1 << 16) || problem.table_size() > ctx.max_table_cells {
        return;
    }
    ctx.bump();
    let reference = problem.solve(DpEngine::Sequential);
    let dir = scratch_dir(ctx, "paged");
    let spill = StoreConfig {
        budget: StoreBudget::bytes(4096),
        spill_dir: Some(dir.clone()),
    };
    match TieredStore::open(&spill).and_then(|store| problem.solve_paged(2, std::sync::Arc::new(store))) {
        Ok(sol) => {
            if sol.opt != reference.opt {
                ctx.diverge(
                    "paged-opt",
                    format!("paged OPT {} vs Sequential {}", sol.opt, reference.opt),
                );
            }
            if sol.values != reference.values {
                let cell = sol
                    .values
                    .iter()
                    .zip(&reference.values)
                    .position(|(a, b)| a != b)
                    .unwrap_or(0);
                ctx.diverge(
                    "paged-cells",
                    format!("paged table diverges from Sequential at cell {cell}"),
                );
            }
        }
        Err(e) => ctx.diverge("paged-solve", format!("spill-backed solve failed: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);

    ctx.bump();
    let no_spill = StoreConfig {
        budget: StoreBudget::bytes(64),
        spill_dir: None,
    };
    match TieredStore::open(&no_spill).and_then(|store| problem.solve_paged(2, std::sync::Arc::new(store))) {
        // Tiny tables may legitimately fit 64 bytes — then the answer
        // must still be right.
        Ok(sol) => {
            if sol.opt != reference.opt {
                ctx.diverge(
                    "paged-failfast",
                    format!(
                        "no-spill solve fit the budget but OPT {} vs Sequential {}",
                        sol.opt, reference.opt
                    ),
                );
            }
        }
        Err(StoreError::BudgetExceeded { needed, budget }) => {
            if needed <= budget {
                ctx.diverge(
                    "paged-failfast",
                    format!("BudgetExceeded with needed {needed} <= budget {budget}"),
                );
            }
        }
        Err(e) => ctx.diverge(
            "paged-failfast",
            format!("expected BudgetExceeded, got: {e}"),
        ),
    }
}

/// Differential check of the *overlapped* paged sweep (ISSUE 9): with
/// prefetch and write-behind streams running alongside the compute
/// path, the table must stay bit-identical to both the synchronous
/// paged sweep and the in-RAM Sequential engine — under a starvation
/// budget that forces every block through disk, and under a roomy one
/// where the streams mostly idle. The overlapped sweep must also never
/// take *more* compute-path faults than the synchronous one: prefetched
/// pages only ever turn stalls into RAM hits.
pub fn check_paged_overlap(inst: &Instance, ctx: &mut CheckCtx<'_>) {
    let lb = bounds::lower_bound(inst);
    let ub = bounds::upper_bound(inst);
    let target = interval::bisection_target(lb, ub);
    let rounding = match Rounding::compute(inst, target, ctx.k) {
        RoundingOutcome::Infeasible { .. } => return,
        RoundingOutcome::Rounded(r) => r,
    };
    let problem = DpProblem::from_rounding(&rounding);
    if problem.table_size() > (1 << 16) || problem.table_size() > ctx.max_table_cells {
        return;
    }
    let reference = problem.solve(DpEngine::Sequential);
    let dir = scratch_dir(ctx, "overlap");
    for (tag, budget) in [("starved", 4096u64), ("roomy", 1 << 20)] {
        ctx.bump();
        let open = |sub: &str| {
            TieredStore::open(&StoreConfig {
                budget: StoreBudget::bytes(budget),
                spill_dir: Some(dir.join(format!("{tag}-{sub}"))),
            })
            .map(std::sync::Arc::new)
        };
        let sync = open("off").and_then(|store| {
            problem
                .solve_paged(2, std::sync::Arc::clone(&store))
                .map(|sol| (sol, store.stats()))
        });
        let overlapped = open("on").and_then(|store| {
            problem
                .solve_paged_overlapped(2, std::sync::Arc::clone(&store))
                .map(|sol| (sol, store.stats()))
        });
        match (sync, overlapped) {
            (Ok((sync_sol, sync_stats)), Ok((ovl_sol, ovl_stats))) => {
                if ovl_sol.opt != reference.opt || sync_sol.opt != reference.opt {
                    ctx.diverge(
                        "paged-overlap-opt",
                        format!(
                            "{tag}: overlapped OPT {} / sync OPT {} vs Sequential {}",
                            ovl_sol.opt, sync_sol.opt, reference.opt
                        ),
                    );
                }
                if ovl_sol.values != reference.values || ovl_sol.values != sync_sol.values {
                    let cell = ovl_sol
                        .values
                        .iter()
                        .zip(&reference.values)
                        .position(|(a, b)| a != b)
                        .unwrap_or(0);
                    ctx.diverge(
                        "paged-overlap-cells",
                        format!("{tag}: overlapped table diverges at cell {cell}"),
                    );
                }
                if ovl_stats.faults > sync_stats.faults {
                    ctx.diverge(
                        "paged-overlap-faults",
                        format!(
                            "{tag}: overlap-on took {} compute-path faults vs {} overlap-off",
                            ovl_stats.faults, sync_stats.faults
                        ),
                    );
                }
            }
            (Err(e), _) | (_, Err(e)) => {
                ctx.diverge("paged-overlap-solve", format!("{tag}: solve failed: {e}"))
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Differential check of the sparse frontier engine against every dense
/// engine: `OPT(N)` must agree across all five, every retained frontier
/// cell must carry exactly the dense table's value at that index, an
/// extracted assignment must be a valid cover, and a starvation-level
/// resident-cell bound must fail fast with [`SparseError::FrontierOverflow`]
/// — never a wrong answer.
pub fn check_sparse_engine(inst: &Instance, ctx: &mut CheckCtx<'_>) {
    let lb = bounds::lower_bound(inst);
    let ub = bounds::upper_bound(inst);
    let target = interval::bisection_target(lb, ub);
    let rounding = match Rounding::compute(inst, target, ctx.k) {
        RoundingOutcome::Infeasible { .. } => return,
        RoundingOutcome::Rounded(r) => r,
    };
    let problem = DpProblem::from_rounding(&rounding);
    // The cell-for-cell comparison needs the dense table in RAM, so the
    // cap is capacity of the *reference*, not of the engine under test.
    if problem.table_size() > (1 << 16) || problem.table_size() > ctx.max_table_cells {
        return;
    }
    ctx.bump();
    let sparse = problem.solve_sparse();
    let reference = problem.solve(ENGINES[0]);
    for &engine in &ENGINES {
        let dense = problem.solve(engine);
        if sparse.opt != dense.opt {
            ctx.diverge(
                "sparse-opt",
                format!(
                    "target {target}: sparse OPT {} vs {engine:?} {}",
                    sparse.opt, dense.opt
                ),
            );
        }
    }
    // Every cell the frontier retained must be *exact* — equal to the
    // dense value at the same index. (Dominance may drop cells, never
    // rewrite them.)
    for (cell, value) in sparse.cells() {
        let flat = if cell.is_empty() {
            0
        } else {
            problem.shape().flatten(&cell)
        };
        if reference.values[flat] != value {
            ctx.diverge(
                "sparse-cells",
                format!(
                    "target {target}: frontier cell {cell:?} carries {value} but dense table has {}",
                    reference.values[flat]
                ),
            );
            break;
        }
    }
    match sparse.extract_configs() {
        Some(configs) => {
            if configs.len() as u32 != sparse.opt {
                ctx.diverge(
                    "sparse-extract",
                    format!(
                        "extraction yields {} configs for OPT {}",
                        configs.len(),
                        sparse.opt
                    ),
                );
            }
            let mut used = vec![0usize; problem.counts().len()];
            for config in &configs {
                let weight: u64 = config
                    .iter()
                    .zip(problem.sizes())
                    .map(|(&c, &s)| c as u64 * s)
                    .sum();
                if weight > problem.cap() {
                    ctx.diverge(
                        "sparse-extract",
                        format!("extracted config {config:?} weighs {weight} > cap"),
                    );
                }
                for (u, &c) in used.iter_mut().zip(config) {
                    *u += c;
                }
            }
            if used != problem.counts() {
                ctx.diverge(
                    "sparse-extract",
                    format!("extraction covers {used:?}, instance needs {:?}", problem.counts()),
                );
            }
        }
        None => {
            if sparse.opt != pcmax_sparse::INFEASIBLE {
                ctx.diverge(
                    "sparse-extract",
                    format!("no extraction despite feasible OPT {}", sparse.opt),
                );
            }
        }
    }

    // Fail-fast contract: an impossible resident budget must surface as
    // a structured overflow, not a silently truncated frontier.
    ctx.bump();
    match problem.solve_sparse_bounded(2) {
        // Degenerate frontiers (≤ 2 resident cells) may legitimately
        // fit — then the answer must still be right.
        Ok(sol) => {
            if sol.opt != reference.opt {
                ctx.diverge(
                    "sparse-failfast",
                    format!(
                        "bounded solve fit 2 cells but OPT {} vs Sequential {}",
                        sol.opt, reference.opt
                    ),
                );
            }
        }
        Err(SparseError::FrontierOverflow { resident, limit }) => {
            if resident <= limit {
                ctx.diverge(
                    "sparse-failfast",
                    format!("FrontierOverflow with resident {resident} <= limit {limit}"),
                );
            }
        }
    }
}

/// Kill-and-rehydrate: solve through a warm store, drop every in-RAM
/// structure (the "process exit"), reopen the same directory, and
/// assert the rehydrated solve answers entirely from disk with the
/// same converged target and an identical schedule.
pub fn check_warm_rehydrate(inst: &Instance, ctx: &mut CheckCtx<'_>) {
    ctx.bump();
    let dir = scratch_dir(ctx, "warm");
    let warm = match WarmTier::open(&dir) {
        Ok(w) => w,
        Err(e) => {
            ctx.diverge("warm-open", format!("cannot open warm tier: {e}"));
            return;
        }
    };
    let cache = DpCache::new(2, 64 << 10);
    let opts = SolverOptions {
        engine: DpEngine::Sequential,
        max_table_cells: ctx.max_table_cells,
        ..SolverOptions::default()
    };
    let first = match solve_cached(inst, ctx.k, &opts, &cache, Some(&warm), None, None) {
        Ok(outcome) => outcome,
        Err(_) => {
            // Table over budget: capacity, not correctness.
            let _ = std::fs::remove_dir_all(&dir);
            return;
        }
    };
    drop(warm);
    drop(cache);
    let warm = match WarmTier::open(&dir) {
        Ok(w) => w,
        Err(e) => {
            ctx.diverge("warm-reopen", format!("cannot reopen warm tier: {e}"));
            return;
        }
    };
    let fresh = DpCache::new(2, 64 << 10);
    match solve_cached(inst, ctx.k, &opts, &fresh, Some(&warm), None, None) {
        Ok(second) => {
            if second.cache_misses != 0 {
                ctx.diverge(
                    "warm-recompute",
                    format!(
                        "{} probes recomputed after rehydration (expected all from disk)",
                        second.cache_misses
                    ),
                );
            }
            if second.target != first.target {
                ctx.diverge(
                    "warm-target",
                    format!("rehydrated T* {} vs cold {}", second.target, first.target),
                );
            }
            if second.schedule.assignment() != first.schedule.assignment() {
                ctx.diverge(
                    "warm-schedule",
                    "rehydrated configs produced a different schedule".to_string(),
                );
            }
        }
        Err(_) => ctx.diverge(
            "warm-degrade",
            "rehydrated solve degraded where the cold solve succeeded".to_string(),
        ),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The warmsync gauntlet (ISSUE 10): differential checks on the
/// cluster warm-replication machinery, driven off a real warm tier
/// populated by a real solve.
///
/// * **Ship-frame integrity** — every entry the owner would ship
///   round-trips the wire token byte-identically; `from_token`
///   re-verifies the transit checksum on the decoded bytes, so this
///   also proves the checksum survives encode/decode.
/// * **Replica fidelity** — applying the shipped entries to a second
///   warm tier reproduces the owner's records byte-for-byte, and a
///   replicated read answers with the exact solution bytes the owner
///   holds.
/// * **Relay exactness** — for a seeded subset of the tier's digest
///   hashes, the ranged pulls `pull_ranges` plans over the digest
///   return exactly the subset's entries: none missing, none outside.
pub fn check_warmsync(inst: &Instance, ctx: &mut CheckCtx<'_>) {
    use pcmax_warmsync::{pull_ranges, ShipEntry};

    ctx.bump();
    let owner_dir = scratch_dir(ctx, "wsync-owner");
    let replica_dir = scratch_dir(ctx, "wsync-replica");
    let owner = match WarmTier::open(&owner_dir) {
        Ok(w) => w,
        Err(e) => {
            ctx.diverge("warmsync-open", format!("cannot open owner tier: {e}"));
            return;
        }
    };
    let cache = DpCache::new(2, 64 << 10);
    let opts = SolverOptions {
        engine: DpEngine::Sequential,
        max_table_cells: ctx.max_table_cells,
        ..SolverOptions::default()
    };
    // No net: with one, most small cases converge without a DP and ship
    // nothing, and this check's subject is the shipping of DP entries.
    if solve_cached(inst, ctx.k, &opts, &cache, Some(&owner), None, None).is_err() {
        // Table over budget: capacity, not correctness.
        let _ = std::fs::remove_dir_all(&owner_dir);
        return;
    }
    let entries = owner.entries_since(0, 0, u64::MAX);
    if entries.is_empty() {
        ctx.diverge(
            "warmsync-empty",
            "a completed solve appended no warm entries to ship".to_string(),
        );
        let _ = std::fs::remove_dir_all(&owner_dir);
        return;
    }
    for entry in &entries {
        match ShipEntry::from_token(&entry.to_token()) {
            Ok(back) if back == *entry => {}
            Ok(_) => ctx.diverge(
                "warmsync-frame",
                format!("wire token round-trip mutated entry seq {}", entry.seq),
            ),
            Err(e) => ctx.diverge(
                "warmsync-checksum",
                format!("owner-produced token rejected by decoder: {e}"),
            ),
        }
    }

    ctx.bump();
    let replica = match WarmTier::open(&replica_dir) {
        Ok(w) => w,
        Err(e) => {
            ctx.diverge("warmsync-open", format!("cannot open replica tier: {e}"));
            let _ = std::fs::remove_dir_all(&owner_dir);
            return;
        }
    };
    for entry in &entries {
        if !replica.apply(entry) {
            ctx.diverge(
                "warmsync-apply",
                format!("replica rejected a checksum-clean entry seq {}", entry.seq),
            );
        }
    }
    let mirrored = replica.entries_since(0, 0, u64::MAX);
    if mirrored.len() != entries.len() {
        ctx.diverge(
            "warmsync-replica-count",
            format!("owner holds {} entries, replica {}", entries.len(), mirrored.len()),
        );
    }
    // Replicated reads must return the owner's exact solution bytes.
    // Replica seqs are locally assigned, so compare by key.
    let owned: HashMap<&[u8], &[u8]> = entries
        .iter()
        .map(|e| (e.key.as_slice(), e.value.as_slice()))
        .collect();
    for entry in &mirrored {
        match owned.get(entry.key.as_slice()) {
            Some(&value) if value == entry.value => {}
            Some(_) => ctx.diverge(
                "warmsync-replica-bytes",
                "replicated value bytes differ from the owner's".to_string(),
            ),
            None => ctx.diverge(
                "warmsync-replica-key",
                "replica holds a key the owner never shipped".to_string(),
            ),
        }
    }

    // Relay exactness over this tier's real digest: pulling the
    // planned ranges for a seeded subset of its hashes must return
    // that subset's entries and nothing else.
    ctx.bump();
    let digest: Vec<u64> = owner.digest().iter().map(|&(h, _)| h).collect();
    let wanted: Vec<u64> = digest
        .iter()
        .copied()
        .filter(|&h| (h ^ ctx.seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 1)
        .collect();
    let mut pulled: Vec<ShipEntry> = pull_ranges(&wanted, &digest)
        .into_iter()
        .flat_map(|(lo, hi)| owner.entries_since(0, lo, hi))
        .collect();
    pulled.sort_by_key(|e| e.seq);
    let expect: Vec<&ShipEntry> = entries
        .iter()
        .filter(|e| wanted.contains(&e.key_hash()))
        .collect();
    if pulled.iter().ne(expect.iter().copied()) {
        ctx.diverge(
            "warmsync-relay",
            format!(
                "ranged pulls for {} wanted keys returned {} entries, expected {}",
                wanted.len(),
                pulled.len(),
                expect.len()
            ),
        );
    }

    let _ = std::fs::remove_dir_all(&owner_dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
}

/// The portfolio gauntlet (ISSUE 7): every arm, pinned via
/// `PortfolioPolicy::Fixed`, plus the Auto policy, on every adversarial
/// case; the pinned PTAS arm runs once more under each forced table
/// representation (`ReprPolicy::DenseOnly`, `ReprPolicy::SparseOnly`).
/// For each answer:
///
/// * the schedule is valid and realises the reported makespan,
/// * the makespan is never below `LB` (and never below exact `OPT` when
///   the small-`n` oracle is available),
/// * the reported [`pcmax_core::Guarantee`] *holds* — against `OPT` when
///   the oracle runs, and against `UB ≥ OPT` always (`holds` evaluates
///   in `u128`, so u64-scale adversarial times cannot wrap the check),
/// * a pinned arm that answered non-degraded really is that arm, and its
///   `chosen`/`runs` counters prove it executed.
pub fn check_portfolio(inst: &Instance, ctx: &mut CheckCtx<'_>) {
    let ub = bounds::upper_bound(inst);
    let lb = bounds::lower_bound(inst);
    let oracle = (inst.num_jobs() <= 10).then(|| brute_force_makespan(inst));
    let runs = [
        (PortfolioPolicy::Auto, ReprPolicy::Auto),
        (PortfolioPolicy::Fixed(Arm::LptRev), ReprPolicy::Auto),
        (PortfolioPolicy::Fixed(Arm::Multifit), ReprPolicy::Auto),
        (PortfolioPolicy::Fixed(Arm::Ptas), ReprPolicy::Auto),
        (PortfolioPolicy::Fixed(Arm::Ptas), ReprPolicy::DenseOnly),
        (PortfolioPolicy::Fixed(Arm::Ptas), ReprPolicy::SparseOnly),
    ];
    for (policy, repr) in runs {
        ctx.bump();
        let opts = SolverOptions {
            engine: DpEngine::Sequential,
            repr,
            max_table_cells: ctx.max_table_cells,
            ..SolverOptions::default()
        };
        let label = format!("{policy} ({repr:?})");
        let cache = DpCache::new(2, 64 << 10);
        let counters = PortfolioCounters::default();
        let out = solve_portfolio(inst, ctx.k, &opts, &cache, None, None, policy, &counters);
        let ms = match out.schedule.validate(inst) {
            Ok(ms) => ms,
            Err(e) => {
                ctx.diverge("portfolio-schedule", format!("{label}: invalid schedule: {e}"));
                continue;
            }
        };
        if ms != out.makespan {
            ctx.diverge(
                "portfolio-makespan",
                format!("{label}: reported {} but schedule realises {ms}", out.makespan),
            );
        }
        if (ms as u128) < lb as u128 {
            ctx.diverge(
                "portfolio-below-lb",
                format!("{label}: makespan {ms} below lower bound {lb}"),
            );
        }
        if let Some(opt) = oracle {
            if ms < opt {
                ctx.diverge(
                    "portfolio-beats-opt",
                    format!("{label}: makespan {ms} below optimum {opt}"),
                );
            }
            if !out.guarantee.holds(ms, opt) {
                ctx.diverge(
                    "portfolio-guarantee",
                    format!(
                        "{label} ({}): bound {} violated, ms={ms} opt={opt}",
                        out.arm, out.guarantee
                    ),
                );
            }
        }
        // OPT ≤ UB, so a bound that held against OPT must also hold
        // against UB — checkable on every instance, oracle or not.
        if !out.guarantee.holds(ms, ub) {
            ctx.diverge(
                "portfolio-guarantee-ub",
                format!(
                    "{label} ({}): bound {} violated even against UB {ub}, ms={ms}",
                    out.arm, out.guarantee
                ),
            );
        }
        let report = counters.report();
        let total_won: u64 = report.arms.iter().map(|a| a.won).sum();
        let total_chosen: u64 = report.arms.iter().map(|a| a.chosen).sum();
        if total_won != 1 || total_chosen != 1 {
            ctx.diverge(
                "portfolio-counters",
                format!("{label}: won {total_won}, chosen {total_chosen} (expected 1/1)"),
            );
        }
        if let PortfolioPolicy::Fixed(arm) = policy {
            let pinned = report.arms.iter().find(|a| a.arm == arm.name()).unwrap();
            if pinned.chosen != 1 || pinned.runs == 0 {
                ctx.diverge(
                    "portfolio-attribution",
                    format!(
                        "{label} never executed (chosen {}, runs {})",
                        pinned.chosen, pinned.runs
                    ),
                );
            }
            if !out.degraded && out.arm != arm {
                ctx.diverge(
                    "portfolio-attribution",
                    format!("{label} answered non-degraded via {}", out.arm),
                );
            }
            if out.degraded && !matches!(out.arm, Arm::LptRev | Arm::Multifit) {
                ctx.diverge(
                    "portfolio-attribution",
                    format!("{label} degraded to non-net arm {}", out.arm),
                );
            }
        }
    }
}

/// The anytime improver's gauntlet: the move/swap descent, starting
/// from a deliberately piled (but valid) schedule of the adversarial
/// case:
///
/// * the improved schedule validates and its recomputed makespan equals
///   the reported `ImproveOutcome::makespan`,
/// * monotone best-so-far: never worse than the input,
/// * never below `LB` (and never below exact `OPT` on small instances),
/// * the a-posteriori guarantee the serve layer would attach to the
///   improved answer holds in `u128`,
/// * the same input reruns to the identical schedule (the round cap
///   binds before the generous deadline, so the outcome is host-speed
///   independent).
pub fn check_improver(inst: &Instance, ctx: &mut CheckCtx<'_>) {
    use pcmax_improve::{improve, ImproveConfig};
    use std::time::Duration;

    let lb = bounds::lower_bound(inst);
    let oracle = (inst.num_jobs() <= 10).then(|| brute_force_makespan(inst));
    // Everything on machine 0: maximal room to improve, and always
    // valid — `Instance::try_new` guarantees Σtⱼ ≤ u64::MAX, so even the
    // full pile cannot overflow one machine's load.
    let piled = pcmax_core::Schedule::new(vec![0; inst.num_jobs()], inst.machines());
    let input_ms = piled.makespan(inst);
    // Generous budget, tiny cap: the cap binds, never the wall clock,
    // which is what makes the rerun reproducible below.
    let cfg = ImproveConfig {
        budget: Duration::from_secs(600),
        max_descent_rounds: 64,
        ..ImproveConfig::default()
    };
    ctx.bump();
    let out = match improve(inst, &piled, &cfg) {
        Ok(out) => out,
        Err(e) => {
            ctx.diverge("improver-run", e);
            return;
        }
    };
    let ms = match out.schedule.validate(inst) {
        Ok(ms) => ms,
        Err(e) => {
            ctx.diverge("improver-schedule", format!("invalid schedule: {e}"));
            return;
        }
    };
    if ms != out.makespan {
        ctx.diverge(
            "improver-makespan",
            format!("reported {} but schedule realises {ms}", out.makespan),
        );
    }
    if ms > input_ms {
        ctx.diverge(
            "improver-monotone",
            format!("worsened the input, {input_ms} → {ms}"),
        );
    }
    if ms < lb {
        ctx.diverge(
            "improver-below-lb",
            format!("makespan {ms} below lower bound {lb}"),
        );
    }
    if let Some(opt) = oracle {
        if ms < opt {
            ctx.diverge(
                "improver-beats-opt",
                format!("makespan {ms} below optimum {opt}"),
            );
        }
    }
    // The bound serve attaches after an improver run. Against OPT
    // when the oracle is available, against LB ≤ OPT always; both
    // evaluate in u128 so u64-scale times cannot wrap the check.
    let posterior = pcmax_core::Guarantee::a_posteriori(ms, lb);
    if !posterior.holds(ms, oracle.unwrap_or(lb)) {
        ctx.diverge(
            "improver-guarantee",
            format!("a-posteriori bound {posterior} violated at ms={ms} lb={lb}"),
        );
    }
    ctx.bump();
    match improve(inst, &piled, &cfg) {
        Ok(rerun) if rerun.schedule == out.schedule => {}
        Ok(rerun) => ctx.diverge(
            "improver-determinism",
            format!(
                "the same input reran to a different schedule ({} vs {})",
                rerun.makespan, out.makespan
            ),
        ),
        Err(e) => ctx.diverge("improver-determinism", format!("rerun failed: {e}")),
    }
}

/// The validation gate itself: raw shapes that must be rejected, and the
/// boundary case that must be admitted.
pub fn check_validation_gate(ctx: &mut CheckCtx<'_>) {
    use pcmax_core::InstanceError;
    ctx.bump();
    let rejected: [(&str, Vec<u64>, usize, InstanceError); 4] = [
        ("empty", vec![], 1, InstanceError::NoJobs),
        ("zero-machines", vec![1], 0, InstanceError::NoMachines),
        ("zero-time", vec![1, 0], 1, InstanceError::ZeroTime { job: 1 }),
        (
            "overflow",
            vec![u64::MAX, u64::MAX],
            2,
            InstanceError::TotalWorkOverflow,
        ),
    ];
    for (name, times, m, want) in rejected {
        match Instance::try_new(times, m) {
            Err(e) if e == want => {}
            Err(e) => ctx.diverge("gate-wrong-error", format!("{name}: got {e:?}, want {want:?}")),
            Ok(_) => ctx.diverge("gate-admitted-bad", format!("{name}: admitted")),
        }
    }
    if Instance::try_new(vec![u64::MAX], 1).is_err() {
        ctx.diverge(
            "gate-rejected-good",
            "single u64::MAX job must be admitted (W fits exactly)".to_string(),
        );
    }
}
