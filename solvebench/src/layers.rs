//! Per-layer measurements for the traced run. Every figure comes from
//! the benchmark timing calls into one layer's public functions, or from
//! counters the layers already return; nothing is traced inside the
//! program.
//!
//! The core of it is a *replay*: a sample of the workload's instances is
//! solved cold, call by call, the way `pcmax_serve::solve_cached` does it
//! (rounding, canonical key, cache lookup, DP under the planned
//! representation, extraction, assembly), with a timer around each call.
//! The unique DP problems the replay met are then solved once by every
//! engine, which must all agree on `OPT`.

use crate::check::{check_answer, check_client_reply, Expected};
use crate::env::RunRoot;
use crate::stats::{mean, median, quantile, ratio, sorted, Metrics};
use crate::workloads::{
    paged_options, request, serve_config, HotState, LoopStats, K, PAGES_BUDGET,
};
use pcmax_cluster::{rank_ids, serve_cluster_tcp, ClusterConfig, LocalCluster, RouteKey};
use pcmax_core::heuristics::{lpt_revisited, multifit_with_guarantee};
use pcmax_core::{lower_bound, upper_bound, Instance, Schedule};
use pcmax_improve::{improve, ImproveConfig, ImproveMode};
use pcmax_ptas::dp::INFEASIBLE;
use pcmax_ptas::{assemble_schedule, DpEngine, DpKey, DpProblem, Rounding, RoundingOutcome};
use pcmax_serve::portfolio::MULTIFIT_ITERS;
use pcmax_serve::{
    entry_cost, probe_features, proto, serve_tcp, solve_portfolio, CachedDp, Client, DpCache,
    PortfolioCounters, PortfolioPolicy, Service, SolveResponse, SolverOptions, WarmTier,
};
use pcmax_sparse::{PlannedRepr, SparseError};
use pcmax_store::{CellWidth, Page, ScratchDir, StoreBudget, StoreConfig, TieredStore};
use pcmax_warmsync::ShipEntry;
use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ptas.dp.ns_per_config.antidiag", "ns"),
    ("ptas.dp.ns_per_config.seq", "ns"),
    ("ptas.dp.ns_per_config.blocked", "ns"),
    ("ptas.dp.configs_per_req", "count"),
    ("ptas.dp.cells_per_req", "count"),
    ("ptas.dp.share_pct", "%"),
    ("ptas.search.probes_per_req", "count"),
    ("ptas.search.dp_runs_per_req", "count"),
    ("ptas.rounding.us_per_probe", "us"),
    ("ptas.extract.us_per_probe", "us"),
    ("sparse.ns_per_settled_cell", "ns"),
    ("sparse.resident_pct", "%"),
    ("sparse.predict_us", "us"),
    ("sparse.predict_err_ratio", "ratio"),
    ("sparse.probes_per_req", "count"),
    ("paged.probes_per_req", "count"),
    ("paged.ns_per_config", "ns"),
    ("paged.overlap_gain_pct", "%"),
    ("store.faults_per_req", "count"),
    ("store.prefetch_hit_rate", "ratio"),
    ("store.writebehind_per_req", "count"),
    ("store.fault_us_p50", "us"),
    ("warm.put_us", "us"),
    ("warm.get_us", "us"),
    ("serve.proto.parse_ns", "ns"),
    ("serve.proto.format_ns", "ns"),
    ("serve.client.parse_reply_ns", "ns"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.solve_us_p50", "us"),
    ("serve.features_us", "us"),
    ("serve.cache.hit_rate", "ratio"),
    ("serve.cache.get_ns", "ns"),
    ("serve.portfolio_us", "us"),
    ("serve.in_process_us_p50", "us"),
    ("serve.wire_us_p50", "us"),
    ("serve.est_dp_ratio_p50", "ratio"),
    ("serve.degraded_frac", "ratio"),
    ("cluster.hop_us_p50", "us"),
    ("cluster.route_ns", "ns"),
    ("cluster.retries", "count"),
    ("cluster.failovers", "count"),
    ("warmsync.pull_us_per_entry", "us"),
    ("warmsync.apply_us_per_entry", "us"),
    ("warmsync.frame_parse_ns", "ns"),
    ("core.lptrev_us", "us"),
    ("core.multifit_us", "us"),
    ("core.validate_us", "us"),
    ("improve.descent_us", "us"),
    ("e2e.latency_p99_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("bench.gen_lag_ms_p99", "ms"),
];

/// Instances replayed layer by layer.
pub const SAMPLE: usize = 6;
/// Wall-clock budget of the all-engines sweep (at least one problem
/// always runs).
const ENGINE_SWEEP_BUDGET: Duration = Duration::from_secs(3);
/// Problems the sweep also solves paged (each paged solve writes every
/// page as a file, so this bounds the run's file churn).
const PAGED_SWEEP_PROBLEMS: u64 = 8;
/// Repetitions of the hot-path latency probes over the sample.
const HOT_REPS: usize = 25;
/// Target wall time of each nanosecond-scale micro-measurement.
const MICRO_BUDGET: Duration = Duration::from_millis(20);
/// The paged sweeps' block-split parameter, as the service uses it.
const PAGED_DIM_LIMIT: usize = 3;

/// What the workload's timed phases hand to the layer measurements.
pub struct LayerInputs<'a> {
    /// Instances to replay (the start of the workload's stream).
    pub sample: Vec<Instance>,
    /// The workload's solver options.
    pub opts: SolverOptions,
    /// The run's file root.
    pub root: &'a RunRoot,
    /// The untraced half of the run.
    pub untraced: &'a LoopStats,
    /// The traced half of the run.
    pub traced: &'a LoopStats,
    /// A service whose configuration matches the workload; the hot-path
    /// probes warm the sample on it first.
    pub service: &'a Arc<Service>,
    /// `path-hot`'s running cluster; `dp-dense` starts a small one for
    /// the hop measurement.
    pub hot: Option<&'a HotState>,
}

/// Checks made while measuring (engine agreement, reply checks), and the
/// predictions printed next to their measured values.
#[derive(Debug, Default)]
pub struct LayerChecks {
    /// Prediction-versus-measurement lines for the report header.
    pub notes: Vec<String>,
    /// Checks attempted.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl LayerChecks {
    fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Mean ns per call of `f` over `items`, swept repeatedly until
/// `MICRO_BUDGET` is spent.
fn per_call_ns<T, R>(items: &[T], mut f: impl FnMut(&T) -> R) -> f64 {
    let start = Instant::now();
    let mut calls = 0usize;
    while start.elapsed() < MICRO_BUDGET || calls == 0 {
        for item in items {
            std::hint::black_box(f(item));
        }
        calls += items.len().max(1);
    }
    ns(start.elapsed()) as f64 / calls as f64
}

/// The machine configurations a DP entry holds.
type Configs = Arc<Vec<Vec<usize>>>;

/// One cold request, replayed call by call.
#[derive(Default)]
struct Replay {
    target: u64,
    probes: u64,
    sparse_probes: u64,
    paged_probes: u64,
    faults: u64,
    prefetch_hits: u64,
    writebehind: u64,
    dp_runs: u64,
    configs: u64,
    cells: u64,
    rounding_ns: u64,
    extract_ns: u64,
    dp_ns: u64,
    total_ns: u64,
    schedule: Option<Schedule>,
    cold: Vec<DpProblem>,
    entries: Vec<(DpKey, CachedDp)>,
}

struct Replayer<'a> {
    opts: &'a SolverOptions,
    pages: &'a Path,
    cache: DpCache,
    r: Replay,
    next_dir: usize,
}

/// The representation `solve_cached` would plan for `problem`.
fn plan(problem: &DpProblem, opts: &SolverOptions) -> Option<PlannedRepr> {
    problem
        .predict_sparse()
        .choose(opts.max_table_cells as u64, opts.pages_dir.is_some())
}

fn fresh_store(dir: &Path, budget: u64) -> Result<(ScratchDir, Arc<TieredStore>), String> {
    let scratch = ScratchDir::create(dir).map_err(|e| e.to_string())?;
    let store = TieredStore::open(&StoreConfig {
        budget: StoreBudget::bytes(budget),
        spill_dir: Some(scratch.path().to_path_buf()),
    })
    .map_err(|e| e.to_string())?;
    Ok((scratch, Arc::new(store)))
}

impl<'a> Replayer<'a> {
    fn probe(&mut self, inst: &Instance, t: u64) -> Result<(bool, Option<Configs>), String> {
        self.r.probes += 1;
        let started = Instant::now();
        let rounded = Rounding::compute(inst, t, K);
        self.r.rounding_ns += ns(started.elapsed());
        let rounding = match rounded {
            RoundingOutcome::Infeasible { .. } => return Ok((false, None)),
            RoundingOutcome::Rounded(r) => r,
        };
        let problem = DpProblem::from_rounding(&rounding);
        let key = problem.canonical_key();
        let entry = match self.cache.get(&key) {
            Some(entry) => entry,
            None => {
                let planned = plan(&problem, self.opts)
                    .ok_or_else(|| "no representation admits the probe".to_string())?;
                self.r.dp_runs += 1;
                let entry = self.run(&problem, planned)?;
                self.cache
                    .insert(key.clone(), entry.clone(), entry_cost(&key, &entry));
                self.r.entries.push((key, entry.clone()));
                self.r.cold.push(problem);
                entry
            }
        };
        let feasible = entry.opt != INFEASIBLE && entry.opt as usize <= inst.machines();
        Ok((feasible, entry.configs))
    }

    fn run(&mut self, problem: &DpProblem, planned: PlannedRepr) -> Result<CachedDp, String> {
        let (opt, values, configs) = match planned {
            PlannedRepr::Dense => {
                let started = Instant::now();
                let sol = problem.solve(self.opts.engine);
                self.r.dp_ns += ns(started.elapsed());
                self.r.configs += sol.stats.configs_enumerated;
                self.r.cells += sol.stats.table_size as u64;
                (sol.opt, Some(sol.values), None)
            }
            PlannedRepr::Sparse => {
                self.r.sparse_probes += 1;
                let started = Instant::now();
                match problem.solve_sparse_bounded(self.opts.max_table_cells) {
                    Ok(sol) => {
                        self.r.dp_ns += ns(started.elapsed());
                        self.r.configs += sol.stats.configs_enumerated;
                        self.r.cells += sol.stats.settled_cells as u64;
                        let started = Instant::now();
                        let configs = sol.extract_configs();
                        self.r.extract_ns += ns(started.elapsed());
                        (sol.opt, None, Some(configs))
                    }
                    Err(SparseError::FrontierOverflow { .. }) if self.opts.pages_dir.is_some() => {
                        self.r.dp_ns += ns(started.elapsed());
                        self.r.sparse_probes -= 1;
                        return self.run(problem, PlannedRepr::Paged);
                    }
                    Err(e) => return Err(format!("sparse solve: {e:?}")),
                }
            }
            PlannedRepr::Paged => {
                self.r.paged_probes += 1;
                self.next_dir += 1;
                let dir = self.pages.join(format!("replay-{}", self.next_dir));
                let (scratch, store) = fresh_store(&dir, self.opts.pages_budget.bytes)?;
                let started = Instant::now();
                let sol = problem
                    .solve_paged_overlapped(PAGED_DIM_LIMIT, Arc::clone(&store))
                    .map_err(|e| format!("paged solve: {e}"))?;
                self.r.dp_ns += ns(started.elapsed());
                let stats = store.stats();
                self.r.faults += stats.faults;
                self.r.prefetch_hits += stats.prefetch_hits;
                self.r.writebehind += stats.writebehind_writes;
                drop(scratch);
                self.r.configs += sol.stats.configs_enumerated;
                self.r.cells += sol.stats.table_size as u64;
                (sol.opt, Some(sol.values), None)
            }
        };
        let configs = match (values, configs) {
            (Some(values), _) => {
                let started = Instant::now();
                let configs = problem.extract_configs(&values);
                self.r.extract_ns += ns(started.elapsed());
                configs
            }
            (None, configs) => configs.flatten(),
        };
        Ok(CachedDp {
            opt,
            configs: configs.map(Arc::new),
        })
    }
}

/// Replays one cold request: bisection over cache-backed probes, then
/// the final probe and schedule assembly.
fn replay_request(inst: &Instance, opts: &SolverOptions, pages: &Path) -> Result<Replay, String> {
    let started = Instant::now();
    let mut rp = Replayer {
        opts,
        pages,
        cache: DpCache::new(8, 8 << 20),
        r: Replay::default(),
        next_dir: 0,
    };
    let (mut lb, mut ub) = (lower_bound(inst), upper_bound(inst));
    while lb < ub {
        let t = lb + (ub - lb) / 2;
        if rp.probe(inst, t)?.0 {
            ub = t;
        } else {
            lb = t + 1;
        }
    }
    let configs = rp
        .probe(inst, ub)?
        .1
        .ok_or_else(|| format!("converged target {ub} has no configurations"))?;
    let RoundingOutcome::Rounded(rounding) = Rounding::compute(inst, ub, K) else {
        return Err(format!("converged target {ub} is below the longest job"));
    };
    let schedule = assemble_schedule(inst, &rounding, &configs);
    rp.r.total_ns = ns(started.elapsed());
    rp.r.target = ub;
    schedule.validate(inst)?;
    rp.r.schedule = Some(schedule);
    Ok(rp.r)
}

/// Per-engine totals of the all-engines sweep.
#[derive(Default)]
struct EngineTotals {
    seq: (u64, u64),
    antidiag: (u64, u64),
    blocked: (u64, u64),
    paged_sync_ns: u64,
    paged: (u64, u64),
    sparse_ns: u64,
    sparse_settled: u64,
    sparse_peak: u64,
    dense_cells: u64,
    predict_ns: u64,
    predict_ratio: Vec<f64>,
    predicted_cells: Vec<f64>,
    peak_cells: Vec<f64>,
    problems: u64,
}

/// Solves every unique cold problem with every engine (seq, antidiag,
/// blocked, sparse, paged sync, paged overlapped) and checks that they
/// agree on `OPT`.
fn engine_sweep(
    problems: &[DpProblem],
    root: &RunRoot,
    checks: &mut LayerChecks,
) -> Result<EngineTotals, String> {
    let mut t = EngineTotals::default();
    let mut seen = HashSet::new();
    let started = Instant::now();
    let pages = root.subdir("sweep-pages");
    for (n, problem) in problems.iter().enumerate() {
        if t.problems > 0 && started.elapsed() > ENGINE_SWEEP_BUDGET {
            break;
        }
        if !seen.insert(problem.canonical_key()) {
            continue;
        }
        t.problems += 1;
        let timed = |engine: DpEngine, acc: &mut (u64, u64)| {
            let s = Instant::now();
            let sol = problem.solve(engine);
            acc.0 += ns(s.elapsed());
            acc.1 += sol.stats.configs_enumerated;
            sol.opt
        };
        let seq = timed(DpEngine::Sequential, &mut t.seq);
        let anti = timed(DpEngine::AntiDiagonal, &mut t.antidiag);
        let blocked = timed(
            DpEngine::Blocked {
                dim_limit: PAGED_DIM_LIMIT,
            },
            &mut t.blocked,
        );

        let s = Instant::now();
        let prediction = problem.predict_sparse();
        t.predict_ns += ns(s.elapsed());
        let s = Instant::now();
        let sparse = problem.solve_sparse();
        t.sparse_ns += ns(s.elapsed());
        t.sparse_settled += sparse.stats.settled_cells as u64;
        t.sparse_peak += sparse.stats.peak_resident_cells as u64;
        t.dense_cells += problem.table_size() as u64;
        t.predict_ratio.push(ratio(
            prediction.est_sparse_cells as f64,
            sparse.stats.peak_resident_cells as f64,
        ));
        t.predicted_cells.push(prediction.est_sparse_cells as f64);
        t.peak_cells.push(sparse.stats.peak_resident_cells as f64);

        let mut opts = vec![seq, anti, blocked, sparse.opt];
        if t.problems > PAGED_SWEEP_PROBLEMS {
            checks.check(agree(problem, &opts));
            continue;
        }
        let (scratch, store) = fresh_store(&pages.join(format!("sync-{n}")), PAGES_BUDGET)?;
        let s = Instant::now();
        let sync = problem
            .solve_paged(PAGED_DIM_LIMIT, store)
            .map_err(|e| format!("paged solve: {e}"))?;
        t.paged_sync_ns += ns(s.elapsed());
        drop(scratch);
        let (scratch, store) = fresh_store(&pages.join(format!("overlap-{n}")), PAGES_BUDGET)?;
        let s = Instant::now();
        let overlapped = problem
            .solve_paged_overlapped(PAGED_DIM_LIMIT, store)
            .map_err(|e| format!("paged solve: {e}"))?;
        t.paged.0 += ns(s.elapsed());
        t.paged.1 += overlapped.stats.configs_enumerated;
        drop(scratch);

        opts.extend([sync.opt, overlapped.opt]);
        checks.check(agree(problem, &opts));
    }
    Ok(t)
}

/// `Ok` when every engine found the same `OPT`.
fn agree(problem: &DpProblem, opts: &[u32]) -> Result<(), String> {
    if opts.iter().all(|&o| o == opts[0]) {
        Ok(())
    } else {
        Err(format!(
            "engines disagree on OPT for {:?}: seq/antidiag/blocked/sparse[/paged/overlapped] = {opts:?}",
            problem.canonical_key()
        ))
    }
}

/// p50 of in-process `solve_blocking` over the (already cached) sample,
/// with the responses of the first round.
fn in_process_p50(
    service: &Service,
    sample: &[Instance],
    checks: &mut LayerChecks,
) -> (f64, Vec<SolveResponse>) {
    let mut lat = Vec::new();
    let mut first = Vec::new();
    for rep in 0..HOT_REPS {
        for inst in sample {
            let s = Instant::now();
            let res = service.solve_blocking(request(inst));
            lat.push(ns(s.elapsed()) as f64);
            match res {
                Ok(res) => {
                    checks.check(crate::check::check_response(inst, &res, None));
                    if rep == 0 {
                        first.push(res);
                    }
                }
                Err(e) => checks.check(Err(format!("in-process solve: {e}"))),
            }
        }
    }
    (quantile(&sorted(lat), 0.5), first)
}

/// p50 of `Client::solve` against `addr(inst)` over the sample.
fn client_p50(
    sample: &[Instance],
    expects: &[Expected],
    addr: impl Fn(&Instance) -> SocketAddr,
    checks: &mut LayerChecks,
) -> Result<f64, String> {
    let mut clients: Vec<(SocketAddr, Client)> = Vec::new();
    let mut lat = Vec::new();
    for _ in 0..HOT_REPS {
        for (inst, expect) in sample.iter().zip(expects) {
            let a = addr(inst);
            let idx = match clients.iter().position(|(ca, _)| *ca == a) {
                Some(i) => i,
                None => {
                    let c = Client::connect_timeout(&a, Duration::from_secs(5))
                        .map_err(|e| format!("connect {a}: {e}"))?;
                    let _ = c.set_io_timeout(Some(Duration::from_secs(10)));
                    clients.push((a, c));
                    clients.len() - 1
                }
            };
            let s = Instant::now();
            let reply = clients[idx]
                .1
                .solve(inst, Some(crate::workloads::EPSILON), None);
            lat.push(ns(s.elapsed()) as f64);
            checks.check(match reply {
                Ok(r) => check_client_reply(inst, &r, Some(expect)),
                Err(e) => Err(format!("client solve: {e}")),
            });
        }
    }
    Ok(quantile(&sorted(lat), 0.5))
}

/// Runs every per-layer measurement.
pub fn measure(inp: &LayerInputs<'_>) -> Result<(Metrics, LayerChecks), String> {
    let mut m = Metrics::default();
    let mut checks = LayerChecks::default();
    let root = inp.root;
    let sample = &inp.sample;
    let n = sample.len().max(1) as f64;

    // Cold replays: one fresh cache per request.
    let replay_pages = root.subdir("replay-pages");
    let mut replays = Vec::new();
    let mut features_ns = Vec::new();
    let mut est_ratio = Vec::new();
    let mut est_us = Vec::new();
    let mut dp_us = Vec::new();
    for inst in sample {
        let s = Instant::now();
        let features = probe_features(inst, K, &inp.opts);
        features_ns.push(ns(s.elapsed()) as f64);
        let r = replay_request(inst, &inp.opts, &replay_pages)?;
        est_ratio.push(ratio(us(r.dp_ns), features.est_dp_us as f64));
        est_us.push(features.est_dp_us as f64);
        dp_us.push(us(r.dp_ns));
        replays.push(r);
    }
    let sum = |f: fn(&Replay) -> u64| replays.iter().map(f).sum::<u64>() as f64;
    let (probes, dp_runs) = (sum(|r| r.probes), sum(|r| r.dp_runs));

    // The same requests under the spilling configuration: dense → sparse
    // → paged ladder, paged probes against fresh page-budgeted stores.
    let paged_opts = paged_options(root.subdir("paged-config"));
    let mut spilling = Replay::default();
    for (inst, default) in sample.iter().zip(&replays) {
        let r = replay_request(inst, &paged_opts, &root.subdir("paged-replay"))?;
        checks.check(if r.target == default.target {
            Ok(())
        } else {
            Err(format!(
                "spilling configuration converged to {}, default to {}",
                r.target, default.target
            ))
        });
        spilling.sparse_probes += r.sparse_probes;
        spilling.paged_probes += r.paged_probes;
        spilling.faults += r.faults;
        spilling.prefetch_hits += r.prefetch_hits;
        spilling.writebehind += r.writebehind;
    }

    // Every engine on every unique cold problem.
    let cold: Vec<DpProblem> = replays
        .iter()
        .flat_map(|r| r.cold.iter().cloned())
        .collect();
    let e = engine_sweep(&cold, root, &mut checks)?;
    let per = |(t, c): (u64, u64)| ratio(t as f64, c as f64);
    m.push("ptas.dp.ns_per_config.antidiag", per(e.antidiag), "ns");
    m.push("ptas.dp.ns_per_config.seq", per(e.seq), "ns");
    m.push("ptas.dp.ns_per_config.blocked", per(e.blocked), "ns");
    m.push("ptas.dp.configs_per_req", sum(|r| r.configs) / n, "count");
    m.push("ptas.dp.cells_per_req", sum(|r| r.cells) / n, "count");
    m.push(
        "ptas.dp.share_pct",
        100.0 * ratio(sum(|r| r.dp_ns), sum(|r| r.total_ns)),
        "%",
    );

    // Search shape of the real traced run, from the per-reply stats.
    let spans = &inp.traced.spans;
    let reqs = spans.len().max(1) as f64;
    let hits: u64 = spans.iter().map(|s| s.cache_hits).sum();
    let misses: u64 = spans.iter().map(|s| s.cache_misses).sum();
    m.push(
        "ptas.search.probes_per_req",
        (hits + misses) as f64 / reqs,
        "count",
    );
    m.push("ptas.search.dp_runs_per_req", misses as f64 / reqs, "count");
    m.push(
        "ptas.rounding.us_per_probe",
        sum(|r| r.rounding_ns) / 1e3 / probes.max(1.0),
        "us",
    );
    m.push(
        "ptas.extract.us_per_probe",
        sum(|r| r.extract_ns) / 1e3 / dp_runs.max(1.0),
        "us",
    );

    m.push(
        "sparse.ns_per_settled_cell",
        ratio(e.sparse_ns as f64, e.sparse_settled as f64),
        "ns",
    );
    m.push(
        "sparse.resident_pct",
        100.0 * ratio(e.sparse_peak as f64, e.dense_cells as f64),
        "%",
    );
    m.push(
        "sparse.predict_us",
        us(e.predict_ns) / e.problems.max(1) as f64,
        "us",
    );
    m.push(
        "sparse.predict_err_ratio",
        median(&e.predict_ratio),
        "ratio",
    );
    checks.notes.push(format!(
        "prediction vs measured: est_dp_us median {} us, measured cold-request DP median {:.1} us \
         (serve.est_dp_ratio_p50); est sparse resident cells median {}, measured peak median {} \
         (sparse.predict_err_ratio)",
        median(&est_us),
        median(&dp_us),
        median(&e.predicted_cells),
        median(&e.peak_cells)
    ));
    m.push(
        "sparse.probes_per_req",
        spilling.sparse_probes as f64 / n,
        "count",
    );
    m.push(
        "paged.probes_per_req",
        spilling.paged_probes as f64 / n,
        "count",
    );
    m.push("paged.ns_per_config", per(e.paged), "ns");
    m.push(
        "paged.overlap_gain_pct",
        100.0
            * ratio(
                e.paged_sync_ns as f64 - e.paged.0 as f64,
                e.paged_sync_ns as f64,
            ),
        "%",
    );

    // Store tiers under the spilling configuration.
    m.push("store.faults_per_req", spilling.faults as f64 / n, "count");
    m.push(
        "store.prefetch_hit_rate",
        ratio(
            spilling.prefetch_hits as f64,
            (spilling.faults + spilling.prefetch_hits) as f64,
        ),
        "ratio",
    );
    m.push(
        "store.writebehind_per_req",
        spilling.writebehind as f64 / n,
        "count",
    );
    m.push("store.fault_us_p50", page_fault_us_p50(&cold, root)?, "us");

    // Warm tier: put and get of the replay's entries.
    let entries: Vec<(DpKey, CachedDp)> = replays.iter().flat_map(|r| r.entries.clone()).collect();
    let warm = WarmTier::open(root.subdir("warm-tier")).map_err(|e| e.to_string())?;
    let s = Instant::now();
    for (k, v) in &entries {
        warm.put(k, v);
    }
    m.push(
        "warm.put_us",
        us(ns(s.elapsed())) / entries.len().max(1) as f64,
        "us",
    );
    let s = Instant::now();
    let mut found = 0usize;
    for (k, _) in &entries {
        found += usize::from(warm.get(k).is_some());
    }
    m.push(
        "warm.get_us",
        us(ns(s.elapsed())) / entries.len().max(1) as f64,
        "us",
    );
    checks.check(if found == entries.len() {
        Ok(())
    } else {
        Err(format!(
            "warm tier returned {found} of {} entries",
            entries.len()
        ))
    });
    drop(warm);

    // Hot path on the workload's service: warm the sample, then time
    // in-process solves and the same solves over a direct TCP front.
    for inst in sample {
        let _ = inp.service.solve_blocking(request(inst));
    }
    let (in_process, responses) = in_process_p50(inp.service, sample, &mut checks);
    let expects: Vec<Expected> = responses.iter().map(Expected::of).collect();
    let tcp = serve_tcp(Arc::clone(inp.service), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let direct = tcp.local_addr();
    let wire = client_p50(sample, &expects, |_| direct, &mut checks);
    tcp.shutdown();
    let wire = wire?;

    // Wire format on the sample's lines.
    let lines: Vec<String> = sample
        .iter()
        .map(|i| proto::format_solve_request(&request(i)))
        .collect();
    let replies: Vec<String> = responses.iter().map(proto::format_response).collect();
    m.push(
        "serve.proto.parse_ns",
        per_call_ns(&lines, |l| proto::parse_request(l).is_ok()),
        "ns",
    );
    m.push(
        "serve.proto.format_ns",
        per_call_ns(&responses, proto::format_response),
        "ns",
    );
    m.push(
        "serve.client.parse_reply_ns",
        per_call_ns(&replies, |l| proto::parse_response(l).is_ok()),
        "ns",
    );

    let wait: Vec<f64> = spans.iter().map(|s| s.queue_wait_us as f64).collect();
    let solve: Vec<f64> = spans.iter().map(|s| s.solve_us as f64).collect();
    m.push("serve.queue_wait_us_p50", median(&wait), "us");
    m.push("serve.solve_us_p50", median(&solve), "us");
    m.push("serve.features_us", median(&features_ns) / 1e3, "us");
    m.push(
        "serve.cache.hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );

    // Cache lookups and the portfolio on a cache holding the sample.
    let cache = DpCache::new(8, 8 << 20);
    for (k, v) in &entries {
        cache.insert(k.clone(), v.clone(), entry_cost(k, v));
    }
    m.push(
        "serve.cache.get_ns",
        per_call_ns(&entries, |(k, _)| cache.get(k).is_some()),
        "ns",
    );
    let counters = PortfolioCounters::default();
    let mut portfolio_ns = Vec::new();
    for _ in 0..HOT_REPS {
        for (inst, expect) in sample.iter().zip(&expects) {
            let s = Instant::now();
            let out = solve_portfolio(
                inst,
                K,
                &inp.opts,
                &cache,
                None,
                Some(Instant::now() + Duration::from_secs(2)),
                PortfolioPolicy::Auto,
                &counters,
            );
            portfolio_ns.push(ns(s.elapsed()) as f64);
            checks.check(check_answer(
                inst,
                out.schedule.assignment(),
                out.makespan,
                out.target,
                pcmax_core::Guarantee::gap_ppm(out.makespan, lower_bound(inst)),
                Some(expect),
            ));
        }
    }
    m.push("serve.portfolio_us", median(&portfolio_ns) / 1e3, "us");
    m.push("serve.in_process_us_p50", in_process / 1e3, "us");
    m.push("serve.wire_us_p50", (wire - in_process) / 1e3, "us");
    m.push("serve.est_dp_ratio_p50", median(&est_ratio), "ratio");
    m.push(
        "serve.degraded_frac",
        ratio(inp.traced.degraded as f64, inp.traced.attempted as f64),
        "ratio",
    );

    // Cluster: the extra hop of the front over a direct worker call.
    let (hop, report) = match inp.hot {
        Some(hot) => {
            let hop = cluster_hop_us(
                &hot.cluster,
                hot.front_addr(),
                sample,
                &expects,
                &mut checks,
            )?;
            (hop, hot.cluster.coordinator().report())
        }
        None => {
            let cluster = LocalCluster::start(
                2,
                serve_config(Some(root.subdir("mini-cluster"))),
                ClusterConfig::default(),
            )
            .map_err(|e| format!("cluster start: {e}"))?;
            let front = serve_cluster_tcp(Arc::clone(cluster.coordinator()), "127.0.0.1:0")
                .map_err(|e| e.to_string())?;
            let hop = cluster_hop_us(&cluster, front.local_addr(), sample, &expects, &mut checks);
            front.shutdown();
            (hop?, cluster.coordinator().report())
        }
    };
    m.push("cluster.hop_us_p50", hop, "us");
    let ids = ["worker-0", "worker-1"];
    m.push(
        "cluster.route_ns",
        per_call_ns(sample, |i| {
            rank_ids(&ids, RouteKey::of(i, K).hash64()).len()
        }),
        "ns",
    );
    m.push("cluster.retries", report.retries as f64, "count");
    m.push("cluster.failovers", report.failovers as f64, "count");

    // Warm replication: pull everything from a donor, apply into a
    // fresh service.
    warmsync_metrics(&mut m, inp, &mut checks)?;

    // Core heuristics and validation, and the improver on the replies.
    let answered: Vec<(&Instance, &Schedule)> = sample
        .iter()
        .zip(&replays)
        .filter_map(|(i, r)| Some((i, r.schedule.as_ref()?)))
        .collect();
    m.push(
        "core.lptrev_us",
        per_call_ns(sample, lpt_revisited) / 1e3,
        "us",
    );
    m.push(
        "core.multifit_us",
        per_call_ns(sample, |i| multifit_with_guarantee(i, MULTIFIT_ITERS)) / 1e3,
        "us",
    );
    m.push(
        "core.validate_us",
        per_call_ns(&answered, |(i, s)| s.validate(i).is_ok()) / 1e3,
        "us",
    );
    let cfg = ImproveConfig {
        mode: ImproveMode::Greedy,
        budget: Duration::from_secs(5),
        max_descent_rounds: 64,
        ..ImproveConfig::default()
    };
    let mut descent_ns = Vec::new();
    for (inst, res) in sample.iter().zip(&responses) {
        let s = Instant::now();
        let out = improve(inst, &res.schedule, &cfg);
        descent_ns.push(ns(s.elapsed()) as f64);
        checks.check(match out {
            Ok(o) if o.makespan <= res.makespan => o.schedule.validate(inst).map(|_| ()),
            Ok(o) => Err(format!(
                "improver worsened {} to {}",
                res.makespan, o.makespan
            )),
            Err(e) => Err(e),
        });
    }
    m.push("improve.descent_us", mean(&descent_ns) / 1e3, "us");

    m.push(
        "e2e.latency_p99_ms",
        crate::tail_latency_ms(inp.untraced).1,
        "ms",
    );
    m.push(
        "obs.trace_overhead_pct",
        100.0
            * ratio(
                inp.untraced.throughput_rps() - inp.traced.throughput_rps(),
                inp.untraced.throughput_rps(),
            ),
        "%",
    );
    let lag: Vec<f64> = inp.untraced.lag_ns.iter().map(|&l| l as f64).collect();
    m.push(
        "bench.gen_lag_ms_p99",
        quantile(&sorted(lag), 0.99) / 1e6,
        "ms",
    );
    Ok((m, checks))
}

/// Front-path p50 minus direct-to-primary-worker p50, µs.
fn cluster_hop_us(
    cluster: &LocalCluster,
    front: SocketAddr,
    sample: &[Instance],
    expects: &[Expected],
    checks: &mut LayerChecks,
) -> Result<f64, String> {
    let ids = cluster.ids();
    let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    // The front routes each instance to its rendezvous primary; warm it
    // there first, then compare the two paths on the now-hot sample.
    let via_front = client_p50(sample, expects, |_| front, checks)?;
    let primary = |inst: &Instance| {
        let id = rank_ids(&id_refs, RouteKey::of(inst, K).hash64())[0];
        cluster.addr(cluster.index_of(id).expect("ranked id is a cluster worker"))
    };
    let direct = client_p50(sample, expects, primary, checks)?;
    Ok((via_front - direct) / 1e3)
}

/// Pull/apply cost of warm replication, and ship-frame parsing.
fn warmsync_metrics(
    m: &mut Metrics,
    inp: &LayerInputs<'_>,
    checks: &mut LayerChecks,
) -> Result<(), String> {
    let config = |dir: &str| serve_config(Some(inp.root.subdir(dir)));
    let donor = Service::start(config("warmsync-donor"));
    for inst in &inp.sample {
        if let Err(e) = donor.solve_blocking(request(inst)) {
            checks.check(Err(format!("donor solve: {e}")));
        }
    }
    let s = Instant::now();
    let shipped = donor.warm_pull(0, 0, u64::MAX);
    let pull_ns = ns(s.elapsed());
    donor.shutdown();
    let tokens: Vec<String> = shipped.iter().map(ShipEntry::to_token).collect();
    let receiver = Service::start(config("warmsync-receiver"));
    let s = Instant::now();
    let (accepted, rejected) = receiver.warm_apply(&tokens);
    let apply_ns = ns(s.elapsed());
    receiver.shutdown();
    checks.check(
        if accepted == tokens.len() as u64 && rejected == 0 && !tokens.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "warm apply accepted {accepted}, rejected {rejected} of {} entries",
                tokens.len()
            ))
        },
    );
    let per_entry = tokens.len().max(1) as f64;
    m.push("warmsync.pull_us_per_entry", us(pull_ns) / per_entry, "us");
    m.push(
        "warmsync.apply_us_per_entry",
        us(apply_ns) / per_entry,
        "us",
    );
    m.push(
        "warmsync.frame_parse_ns",
        per_call_ns(&tokens, |t| ShipEntry::from_token(t).is_ok()),
        "ns",
    );
    Ok(())
}

/// p50 latency of a page fault: DP values packed into pages, put into a
/// store whose RAM budget holds only a few of them, then read back in
/// order so most reads fault from the spill directory.
fn page_fault_us_p50(problems: &[DpProblem], root: &RunRoot) -> Result<f64, String> {
    const CELLS: usize = 256;
    let values: Vec<u32> = problems
        .iter()
        .take(4)
        .flat_map(|p| p.solve(DpEngine::AntiDiagonal).values)
        .collect();
    let width = CellWidth::for_max_value(values.iter().copied().max().unwrap_or(1) as u64);
    let pages: Vec<Arc<Page>> = values
        .chunks(CELLS)
        .cycle()
        .take(64)
        .map(|c| Arc::new(Page::pack(c, width)))
        .collect();
    let budget = pages[0].packed_bytes() * 4;
    let (scratch, store) = fresh_store(&root.subdir("fault-pages"), budget)?;
    for (id, page) in pages.iter().enumerate() {
        store
            .put(id as u64, Arc::clone(page))
            .map_err(|e| e.to_string())?;
    }
    let mut fault_ns = Vec::new();
    for id in 0..pages.len() as u64 {
        let before = store.stats().faults;
        let s = Instant::now();
        let page = store.get(id).map_err(|e| e.to_string())?;
        let elapsed = ns(s.elapsed());
        if page.is_none() {
            return Err(format!("page {id} lost by the store"));
        }
        if store.stats().faults > before {
            fault_ns.push(elapsed as f64);
        }
    }
    drop(scratch);
    Ok(quantile(&sorted(fault_ns), 0.5) / 1e3)
}
