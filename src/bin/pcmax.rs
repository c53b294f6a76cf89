//! `pcmax` — command-line interface to the scheduler.
//!
//! ```console
//! $ pcmax gen --seed 1 --jobs 50 --machines 8 --lo 10 --hi 100 -o batch.inst
//! $ pcmax solve batch.inst --epsilon 0.3 --strategy quarter
//! $ pcmax compare batch.inst
//! $ pcmax simulate batch.inst --dim 6
//! ```
//!
//! Instance file format: first line is the machine count, the remaining
//! whitespace-separated integers are processing times.

use pcmax::cluster::{serve_cluster_tcp, LocalCluster};
use pcmax::gpu::{modeled_openmp_bisection, solve_gpu, GpuPtasConfig};
use pcmax::heuristics::{list_schedule, lpt, multifit};
use pcmax::prelude::*;
use pcmax::serve::{serve_tcp, Client};
use pcmax::{ClusterConfig, Guarantee};
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "gen" => cmd_gen(rest),
        "solve" => cmd_solve(rest),
        "trace" => cmd_trace(rest),
        "compare" => cmd_compare(rest),
        "simulate" => cmd_simulate(rest),
        "serve" => cmd_serve(rest),
        "improve" => cmd_improve(rest),
        "bench-sparse" => cmd_bench_sparse(rest),
        "cluster" => cmd_cluster(rest),
        "bench-cluster" => cmd_bench_cluster(rest),
        "store-stats" => cmd_store_stats(rest),
        "audit" => cmd_audit(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "pcmax — PTAS scheduler for P||Cmax

USAGE:
  pcmax gen --seed N --jobs N --machines N --lo N --hi N
            [--family uniform|bimodal|nonuniform|nearequal] [-o FILE]
  pcmax solve FILE    [--epsilon F] [--engine seq|par|blockedN]
                      [--strategy bisection|quarter|naryN] [--verbose]
  pcmax trace FILE    [--eps F] [--engine seq|par|blockedN]
                      [--strategy bisection|quarter|naryN] [--json]
  pcmax compare FILE
  pcmax simulate FILE [--epsilon F] [--dim N] [--trace FILE]
  pcmax serve         [--addr HOST:PORT] [--workers N] [--queue N]
                      [--deadline-ms N] [--epsilon F] [--engine seq|par|blockedN]
                      [--repr auto|dense|sparse] [--mem-budget BYTES] [--store-dir DIR]
                      [--max-cells N] [--pages-budget BYTES]
                      [--portfolio auto|fixed:ARM]
                      [--improve off|greedy] [--improve-budget-us N]
  pcmax improve FILE|- [--improve off|greedy] [--improve-budget-us N]
  pcmax bench-sparse  [--seed N] [--jobs N] [--machines N] [--k N]
                      [--base N] [--spread N] [--mem-budget BYTES]
                      [--max-resident-pct F] [--out FILE]
  pcmax cluster       [--workers N] [--addr HOST:PORT] [--threads N]
                      [--queue N] [--deadline-ms N] [--epsilon F]
                      [--engine seq|par|blockedN] [--repr auto|dense|sparse]
                      [--mem-budget BYTES] [--store-dir DIR]
                      [--max-cells N] [--pages-budget BYTES]
                      [--portfolio auto|fixed:ARM]
                      [--improve off|greedy] [--improve-budget-us N]
                      [--heartbeat-ms N] [--max-missed N] [--retries N]
                      [--warmsync on|off] [--replicas N]
  pcmax store-stats   [--seed N] [--jobs N] [--machines N] [--k N] [--dim N]
                      [--mem-budget BYTES] [--store-dir DIR] [--overlap on|off]
  pcmax bench-cluster [--workers N] [--clients N] [--requests N] [--distinct N]
                      [--jobs N] [--machines N] [--epsilon F] [--deadline-ms N]
                      [--kill-after N] [--churn N] [--warmsync on|off]
                      [--replicas N] [--heartbeat-ms N] [--max-missed N]
                      [--store-dir DIR] [--out FILE]
  pcmax audit         [--seeds N] [--k N] [--max-cells N]
                      [--engine sparse|portfolio|improve|paged|warmsync]
                      [--out FILE]

`naryN` probes N targets per search round (nary1 = bisection, nary4 =
the paper's quarter split). `trace` solves with recording enabled and
prints a span tree attributing wall time to search rounds, probes,
rounding, and DP levels. `serve` answers line-protocol requests over
TCP: `solve <m> <eps|-> <deadline_ms|-> <t1,t2,...>`, `stats` (JSON
counters + latency histograms), `health`, `ping`. `cluster` starts
N in-process workers behind a cache-affinity routing coordinator
speaking the same protocol (`stats` answers with the aggregated cluster
report). `bench-cluster` drives a cluster over loopback — optionally
killing a worker after `--kill-after` requests to exercise failover —
and writes BENCH_cluster.json; `--churn N` then runs N kill-and-join
cycles against the warm fleet and records the replacement worker's
cold-start misses and rebalance latency in the same JSON (`--warmsync
off` disables warm-state replication for an A/B baseline; `--replicas R`
sets the replication factor, default 2); it also takes the other
solver and routing options of `cluster`, all but `--addr`. `audit`
runs the adversarial differential-fuzz harness (u64-scale times,
degenerate shapes) across `--seeds` seeds, cross-checking the three
DP engines cell-for-cell, the searches, the serve solver, and the exact
oracles; it prints a JSON
divergence report (optionally to `--out FILE`) and exits non-zero if
any check diverged; `--engine sparse` restricts the sweep to the sparse
frontier engine's differential checks, `--engine portfolio` to the
solver-portfolio gauntlet (every arm pinned on every adversarial case,
guarantees certified against the exact oracle). `bench-sparse` is the sparse
smoke: it rounds one near-uniform instance at precision `--k`, solves
the same DP densely and through the sparse frontier, differential-checks
every retained cell, and writes BENCH_sparse.json with the memory and
latency comparison plus the representation predictor's verdict; it exits
non-zero on divergence or when peak resident cells reach
`--max-resident-pct` of the dense table. `--repr` on `serve` and
`cluster` pins the table representation (`auto` predicts
dense/sparse/paged per probe). `store-stats` is the paged-store smoke: it rounds a
generated instance, solves the DP once through the tiered RAM/disk page
store under `--mem-budget` (default 1024 bytes — small enough to force
spilling), differential-checks the paged table cell-for-cell against the
in-RAM sequential engine, prints the store's tier occupancy, hit/fault
counters, and fault-latency histogram as JSON, and exits non-zero on any
mismatch; `--overlap on` runs the overlapped sweep (background prefetch
of the next block-level's dependencies plus write-behind of the previous
level, the paper's stream round-robin), whose prefetch/write-behind
counters land in the same JSON. `--engine paged` on `audit` restricts
the sweep to the paged-store contract plus the overlapped-vs-sync-vs-
dense differential. `--mem-budget` accepts `4096`, `64K`, `16M`, or `1G`;
`--store-dir` on `serve`/`cluster` enables the persistent
warm-start log (cluster workers get per-worker subdirectories).
`--portfolio` picks the per-request solver arm: `auto` (feature-driven
selection) or `fixed:ARM` (pin one arm). ARM is one of lptrev,
multifit, exact, ptas; the ptas arm's tables follow `--repr`, so
`--repr dense --portfolio fixed:ptas` pins the dense PTAS. A picked
arm that fails falls back to the heuristic net (the better of lptrev
and multifit, or one of them when under 200 µs remain), flagged
degraded. `--improve` on `serve`/`cluster` turns on the anytime
improver: after the portfolio answers, leftover request deadline
(capped at `--improve-budget-us`, default 2000) is spent refining the
schedule by deterministic move/swap descent (`greedy`); the reply's
makespan and assignment are the refined ones and its guarantee is
tightened a-posteriori, never loosened. Every ok reply also carries
`gap_ppm`, the achieved-vs-lower-bound gap in parts per million.
`pcmax improve` runs the same pipeline once on an instance file (`-`
reads stdin), seeding from the better of LPT-revisited and MULTIFIT,
and prints a JSON report with the final assignment. `--engine improve`
on `audit` restricts the sweep to the improver gauntlet (monotonicity,
validity, a-posteriori guarantee, rerun determinism).
`--engine warmsync` restricts it to the warm-replication gauntlet:
shipped entries survive the wire round-trip byte-identically (checksum
re-verified), a replica applying them holds the owner's exact bytes,
and the ranged pulls planned for a subset of the owner's keys return
exactly that subset.";

/// Fetches the value following a `--flag`.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn flag_parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad value `{v}` for {name}")),
    }
}

/// The PTAS is defined for ε in (0, 1]; anything else is a usage error.
fn check_epsilon(epsilon: f64) -> Result<f64, String> {
    if epsilon > 0.0 && epsilon <= 1.0 {
        Ok(epsilon)
    } else {
        Err(format!("epsilon must be in (0, 1], got {epsilon}"))
    }
}

fn load_instance(path: &str) -> Result<Instance, String> {
    pcmax::core::io::load_instance(path)
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let seed: u64 = flag_parse(args, "--seed", 0)?;
    let jobs: usize = flag_parse(args, "--jobs", 50)?;
    let machines: usize = flag_parse(args, "--machines", 8)?;
    let lo: u64 = flag_parse(args, "--lo", 1)?;
    let hi: u64 = flag_parse(args, "--hi", 100)?;
    let family = flag(args, "--family").unwrap_or("uniform");
    if jobs == 0 || machines == 0 {
        return Err(format!(
            "--jobs and --machines must be at least 1, got {jobs} and {machines}"
        ));
    }
    // The largest time the family can draw, once its range is checked:
    // nearequal draws `hi ± (hi/10 + 1)` and ignores `--lo`.
    let max_time = match family {
        "uniform" | "bimodal" | "nonuniform" if lo == 0 || lo > hi => {
            return Err(format!("need 0 < --lo <= --hi, got --lo {lo} --hi {hi}"))
        }
        "uniform" | "bimodal" | "nonuniform" => hi,
        "nearequal" => {
            let spread = hi / 10 + 1;
            if hi <= spread {
                return Err(format!("nearequal needs --hi of at least 2, got {hi}"));
            }
            hi.checked_add(spread)
                .ok_or_else(|| format!("--hi {hi} leaves no room for the nearequal spread"))?
        }
        other => return Err(format!("unknown family `{other}`")),
    };
    if jobs as u128 * max_time as u128 > u64::MAX as u128 {
        return Err(format!(
            "{}: {jobs} jobs of up to {max_time} each",
            pcmax::core::InstanceError::TotalWorkOverflow
        ));
    }
    let inst = match family {
        "uniform" => pcmax::gen::uniform(seed, jobs, machines, lo, hi),
        "bimodal" => pcmax::gen::bimodal(seed, jobs, machines, lo, hi, 30),
        "nonuniform" => pcmax::gen::non_uniform(seed, jobs, machines, lo, hi),
        _ => pcmax::gen::near_equal(seed, jobs, machines, hi, hi / 10 + 1),
    };
    let out = pcmax::core::io::format_instance(&inst);
    match flag(args, "-o") {
        Some(path) => {
            fs::write(path, out).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!(
                "wrote {} jobs on {} machines to {path}",
                inst.num_jobs(),
                inst.machines()
            );
        }
        None => print!("{out}"),
    }
    Ok(())
}

fn parse_engine(s: &str) -> Result<DpEngine, String> {
    match s {
        "seq" => Ok(DpEngine::Sequential),
        "par" => Ok(DpEngine::AntiDiagonal),
        other => match other.strip_prefix("blocked") {
            Some(n) => Ok(DpEngine::Blocked {
                dim_limit: n.parse().map_err(|_| format!("bad engine `{other}`"))?,
            }),
            None => Err(format!("unknown engine `{other}` (seq|par|blockedN)")),
        },
    }
}

/// Parses `bisection`, `quarter`, or `naryN` (e.g. `nary8`).
fn parse_strategy(s: &str) -> Result<SearchStrategy, String> {
    match s {
        "bisection" => Ok(SearchStrategy::Bisection),
        "quarter" => Ok(SearchStrategy::QuarterSplit),
        other => match other.strip_prefix("nary") {
            Some(n) => {
                let segments: usize = n
                    .parse()
                    .map_err(|_| format!("bad strategy `{other}` (want naryN, e.g. nary8)"))?;
                if segments == 0 {
                    return Err("nary strategy needs at least 1 segment".into());
                }
                Ok(SearchStrategy::NarySplit { segments })
            }
            None => Err(format!(
                "unknown strategy `{other}` (bisection|quarter|naryN)"
            )),
        },
    }
}

fn cmd_solve(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("solve needs an instance file")?;
    let inst = load_instance(path)?;
    let epsilon = check_epsilon(flag_parse(args, "--epsilon", 0.3)?)?;
    let engine = parse_engine(flag(args, "--engine").unwrap_or("par"))?;
    let strategy = parse_strategy(flag(args, "--strategy").unwrap_or("bisection"))?;
    let verbose = args.iter().any(|a| a == "--verbose");

    let res = Ptas::new(epsilon)
        .with_engine(engine)
        .with_strategy(strategy)
        .solve(&inst);
    let makespan = res.schedule.validate(&inst)?;
    println!(
        "makespan {makespan} (lower bound {}, target T* = {}, {} rounds, {} DP solves, {} cache hits)",
        lower_bound(&inst),
        res.target,
        res.search.iterations,
        res.search.dp_runs,
        res.search.cache_hits
    );
    if verbose {
        for (i, rec) in res.search.records.iter().enumerate() {
            let probes: Vec<String> = rec
                .probes
                .iter()
                .map(|p| {
                    format!(
                        "T={} σ={} {}",
                        p.target,
                        p.table_size,
                        if p.feasible { "feasible" } else { "infeasible" }
                    )
                })
                .collect();
            println!("  round {:>2} [{}, {}]: {}", i + 1, rec.lb, rec.ub, probes.join("; "));
        }
        let mut loads = res.schedule.loads(&inst);
        loads.sort_unstable();
        println!("  loads: {loads:?}");
    }
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    // Flags may precede the instance path (`pcmax trace --eps 0.2 FILE`),
    // so the positional is the first word that is neither a flag nor a
    // flag's value.
    let value_flags = ["--eps", "--epsilon", "--engine", "--strategy"];
    let mut path = None;
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if value_flags.contains(&a) {
            i += 2;
        } else if a.starts_with("--") {
            i += 1;
        } else {
            path = Some(a);
            i += 1;
        }
    }
    let path = path.ok_or("trace needs an instance file")?;
    let inst = load_instance(path)?;
    let epsilon = check_epsilon(match flag(args, "--eps").or_else(|| flag(args, "--epsilon")) {
        Some(v) => v.parse().map_err(|_| format!("bad epsilon `{v}`"))?,
        None => 0.3,
    })?;
    let engine = parse_engine(flag(args, "--engine").unwrap_or("par"))?;
    let strategy = parse_strategy(flag(args, "--strategy").unwrap_or("bisection"))?;
    let as_json = args.iter().any(|a| a == "--json");

    pcmax::obs::set_enabled(true);
    let start = Instant::now();
    let res = Ptas::new(epsilon)
        .with_engine(engine)
        .with_strategy(strategy)
        .solve(&inst);
    let total_us = start.elapsed().as_micros() as u64;
    res.schedule.validate(&inst)?;
    let tree = pcmax::ptas::trace::solve_span(&res, total_us);
    if as_json {
        println!("{}", tree.to_json());
    } else {
        print!("{}", tree.render());
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("compare needs an instance file")?;
    let inst = load_instance(path)?;
    let lb = lower_bound(&inst);
    println!(
        "{} jobs on {} machines; lower bound {lb}",
        inst.num_jobs(),
        inst.machines()
    );
    println!("{:<16} {:>9} {:>8}", "algorithm", "makespan", "vs LB");
    let report = |name: &str, ms: u64| {
        println!("{name:<16} {ms:>9} {:>8.4}", ms as f64 / lb as f64);
    };
    report("list", list_schedule(&inst).makespan(&inst));
    let lpt_s = lpt(&inst);
    report("LPT", lpt_s.makespan(&inst));
    report("LPT+local", polish(&inst, &lpt_s).makespan(&inst));
    report("MULTIFIT", multifit(&inst, 10).makespan(&inst));
    for eps in [0.5, 0.3, 0.2] {
        let res = Ptas::new(eps).solve(&inst);
        res.schedule.validate(&inst)?;
        report(&format!("PTAS eps={eps}"), res.makespan);
        let polished = polish(&inst, &res.schedule);
        report(&format!("PTAS eps={eps}+LS"), polished.makespan(&inst));
    }
    Ok(())
}

/// The improver's move/swap descent run to its fixpoint: 100,000 rounds
/// under a deadline that does not bind.
fn polish(inst: &Instance, schedule: &Schedule) -> Schedule {
    let deadline = Instant::now() + Duration::from_secs(3600);
    let mut stats = pcmax::ImproveStats::default();
    pcmax::improve::descent::descend(inst, schedule, deadline, 100_000, &mut stats)
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("simulate needs an instance file")?;
    let inst = load_instance(path)?;
    let epsilon = check_epsilon(flag_parse(args, "--epsilon", 0.3)?)?;
    let dim: usize = flag_parse(args, "--dim", 6)?;
    let cfg = GpuPtasConfig {
        epsilon,
        dim_limit: dim,
        ..GpuPtasConfig::default()
    };
    let gpu = solve_gpu(&inst, &cfg);
    let omp = modeled_openmp_bisection(&inst, epsilon, 28);
    println!("target T* = {} (both searches agree)", gpu.target);
    println!(
        "GPU quarter split (DIM{dim}): {:>3} rounds, {:>12.3} modeled ms",
        gpu.iterations, gpu.modeled_ms
    );
    println!(
        "OpenMP-28 bisection        : {:>3} iterations, {:>12.3} modeled ms",
        omp.iterations, omp.modeled_ms
    );
    println!(
        "largest DP table σ = {}; GPU speedup {:.2}x",
        gpu.max_table_size.max(omp.max_table_size),
        omp.modeled_ms / gpu.modeled_ms
    );
    // Optional Chrome trace of the largest probe's kernel timeline.
    if let Some(trace_path) = flag(args, "--trace") {
        use pcmax::gpu::{simulate_partitioned, PartitionOptions, TableAnalysis};
        use pcmax::ptas::rounding::{Rounding, RoundingOutcome};
        let biggest = gpu
            .rounds
            .iter()
            .flat_map(|r| r.targets.iter().zip(&r.table_sizes))
            .max_by_key(|&(_, &sz)| sz)
            .map(|(&t, _)| t)
            .ok_or("no probes to trace")?;
        let k = Ptas::new(epsilon).k();
        if let RoundingOutcome::Rounded(r) = Rounding::compute(&inst, biggest, k) {
            let problem = pcmax::DpProblem::from_rounding(&r);
            let analysis = TableAnalysis::analyze(&problem);
            let run = simulate_partitioned(
                &problem,
                &analysis,
                &cfg.spec,
                &PartitionOptions::with_dim_limit(dim),
            );
            pcmax::sim::trace::write_chrome_trace(&run.report, trace_path)
                .map_err(|e| format!("writing {trace_path}: {e}"))?;
            eprintln!(
                "wrote Chrome trace of σ = {} ({} kernels) to {trace_path} — open in chrome://tracing or ui.perfetto.dev",
                problem.table_size(),
                run.kernels
            );
        }
    }
    Ok(())
}

fn mem_budget_flag(args: &[String], default: pcmax::store::StoreBudget) -> Result<pcmax::store::StoreBudget, String> {
    match flag(args, "--mem-budget") {
        Some(v) => pcmax::store::StoreBudget::parse(v),
        None => Ok(default),
    }
}

fn parse_repr(s: &str) -> Result<pcmax::ReprPolicy, String> {
    match s {
        "auto" => Ok(pcmax::ReprPolicy::Auto),
        "dense" => Ok(pcmax::ReprPolicy::DenseOnly),
        "sparse" => Ok(pcmax::ReprPolicy::SparseOnly),
        other => Err(format!("unknown repr `{other}` (auto|dense|sparse)")),
    }
}

fn serve_config_from_flags(args: &[String]) -> Result<pcmax::ServeConfig, String> {
    let defaults = pcmax::ServeConfig::default();
    Ok(pcmax::ServeConfig {
        workers: flag_parse(args, "--workers", defaults.workers)?,
        queue_capacity: flag_parse(args, "--queue", defaults.queue_capacity)?,
        default_deadline: Duration::from_millis(flag_parse(
            args,
            "--deadline-ms",
            defaults.default_deadline.as_millis() as u64,
        )?),
        default_epsilon: flag_parse(args, "--epsilon", defaults.default_epsilon)?,
        engine: parse_engine(flag(args, "--engine").unwrap_or("par"))?,
        repr: parse_repr(flag(args, "--repr").unwrap_or("auto"))?,
        mem_budget: mem_budget_flag(args, defaults.mem_budget)?,
        pages_budget: match flag(args, "--pages-budget") {
            Some(v) => pcmax::store::StoreBudget::parse(v)?,
            None => defaults.pages_budget,
        },
        max_table_cells: flag_parse(args, "--max-cells", defaults.max_table_cells)?,
        store_dir: flag(args, "--store-dir").map(PathBuf::from),
        portfolio: flag(args, "--portfolio")
            .unwrap_or("auto")
            .parse::<pcmax::PortfolioPolicy>()?,
        improve: flag(args, "--improve")
            .map(str::parse::<pcmax::ImproveMode>)
            .transpose()?
            .unwrap_or(defaults.improve),
        improve_budget: Duration::from_micros(flag_parse(
            args,
            "--improve-budget-us",
            defaults.improve_budget.as_micros() as u64,
        )?),
        ..defaults
    })
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let addr = flag(args, "--addr").unwrap_or("127.0.0.1:7077");
    // A server wants its `stats` verb to carry real histograms.
    pcmax::obs::set_enabled(true);
    let config = serve_config_from_flags(args)?;
    let workers = config.workers;
    let service = pcmax::Service::start(config);
    let handle = serve_tcp(Arc::clone(&service), addr).map_err(|e| format!("binding {addr}: {e}"))?;
    eprintln!(
        "pcmax-serve listening on {} ({} workers); protocol: solve <m> <eps|-> <deadline_ms|-> <t1,t2,...> | stats | ping",
        handle.local_addr(),
        workers,
    );
    // Serve until killed.
    loop {
        std::thread::park();
    }
}

/// One-shot anytime improvement: read an instance (FILE, or `-` for
/// stdin), seed with the better of LPT-revisited and MULTIFIT, spend
/// the budget improving it, and print a JSON report carrying the final
/// assignment. The same `--improve` / `--improve-budget-us` knobs as
/// `serve`, defaulting to `greedy`.
fn cmd_improve(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .ok_or("improve needs an instance file (or `-` for stdin)")?;
    let inst = if path == "-" {
        let mut text = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin(), &mut text)
            .map_err(|e| format!("reading stdin: {e}"))?;
        pcmax::core::io::parse_instance(&text)?
    } else {
        load_instance(path)?
    };
    let defaults = pcmax::ImproveConfig::default();
    let cfg = pcmax::ImproveConfig {
        mode: flag(args, "--improve")
            .map(str::parse::<pcmax::ImproveMode>)
            .transpose()?
            .unwrap_or(defaults.mode),
        budget: Duration::from_micros(flag_parse(
            args,
            "--improve-budget-us",
            defaults.budget.as_micros() as u64,
        )?),
        ..defaults
    };
    let (seed_schedule, engine, _) = pcmax::serve::heuristic_best(&inst);
    let initial = seed_schedule.validate(&inst)?;
    let out = pcmax::improve::improve(&inst, &seed_schedule, &cfg)?;
    let final_ms = out.schedule.validate(&inst)?;
    if final_ms != out.makespan {
        return Err(format!(
            "improver reported makespan {} but schedule realises {final_ms}",
            out.makespan
        ));
    }
    let lb = lower_bound(&inst);
    let mut w = pcmax::obs::JsonWriter::new();
    w.begin_object()
        .field_str("seed_engine", &engine.to_string())
        .field_str("mode", &cfg.mode.to_string())
        .field_u64("lower_bound", lb)
        .field_u64("initial_makespan", initial)
        .field_u64("final_makespan", final_ms)
        .field_u64("initial_gap_ppm", Guarantee::gap_ppm(initial, lb))
        .field_u64("final_gap_ppm", Guarantee::gap_ppm(final_ms, lb))
        .key("stats")
        .begin_object()
        .field_u64("rounds", out.stats.rounds)
        .field_u64("accepted_moves", out.stats.accepted_moves)
        .field_u64("budget_used_us", out.stats.budget_used_us)
        .end_object()
        .field_str(
            "assignment",
            &out.schedule
                .assignment()
                .iter()
                .map(|m| m.to_string())
                .collect::<Vec<_>>()
                .join(","),
        )
        .end_object();
    println!("{}", w.finish());
    Ok(())
}

fn cluster_config_from_flags(args: &[String]) -> Result<ClusterConfig, String> {
    let defaults = ClusterConfig::default();
    Ok(ClusterConfig {
        heartbeat_interval: Duration::from_millis(flag_parse(
            args,
            "--heartbeat-ms",
            defaults.heartbeat_interval.as_millis() as u64,
        )?),
        max_missed_beats: flag_parse(args, "--max-missed", defaults.max_missed_beats)?,
        retries_per_worker: flag_parse(args, "--retries", defaults.retries_per_worker)?,
        default_epsilon: flag_parse(args, "--epsilon", defaults.default_epsilon)?,
        default_deadline: Duration::from_millis(flag_parse(
            args,
            "--deadline-ms",
            defaults.default_deadline.as_millis() as u64,
        )?),
        warmsync: match flag(args, "--warmsync").unwrap_or("on") {
            "on" => true,
            "off" => false,
            other => return Err(format!("bad --warmsync `{other}` (on|off)")),
        },
        replication_factor: flag_parse(args, "--replicas", defaults.replication_factor)?,
        ..defaults
    })
}

/// The per-worker [`ServeConfig`] for cluster commands. `--workers`
/// means cluster nodes here, so the per-node solver thread count moves
/// to `--threads`.
fn cluster_serve_config(args: &[String]) -> Result<pcmax::ServeConfig, String> {
    let mut config = serve_config_from_flags(args)?;
    config.workers = flag_parse(args, "--threads", pcmax::ServeConfig::default().workers)?;
    Ok(config)
}

fn cmd_cluster(args: &[String]) -> Result<(), String> {
    let nodes: usize = flag_parse(args, "--workers", 3)?;
    let addr = flag(args, "--addr").unwrap_or("127.0.0.1:7078");
    if nodes == 0 {
        return Err("--workers must be positive".into());
    }
    // The aggregated `stats` verb wants real histograms.
    pcmax::obs::set_enabled(true);
    let cluster = LocalCluster::start(nodes, cluster_serve_config(args)?, cluster_config_from_flags(args)?)
        .map_err(|e| format!("starting workers: {e}"))?;
    let handle = serve_cluster_tcp(Arc::clone(cluster.coordinator()), addr)
        .map_err(|e| format!("binding {addr}: {e}"))?;
    eprintln!(
        "pcmax-cluster listening on {} routing over {} workers ({}); same protocol as `pcmax serve`",
        handle.local_addr(),
        nodes,
        cluster.ids().join(", "),
    );
    // Serve until killed.
    loop {
        std::thread::park();
    }
}

fn cmd_bench_cluster(args: &[String]) -> Result<(), String> {
    let nodes: usize = flag_parse(args, "--workers", 3)?;
    let clients: usize = flag_parse(args, "--clients", 4)?;
    let requests: usize = flag_parse(args, "--requests", 16)?;
    let distinct: u64 = flag_parse(args, "--distinct", 4)?;
    let jobs: usize = flag_parse(args, "--jobs", 30)?;
    let machines: usize = flag_parse(args, "--machines", 4)?;
    let epsilon: f64 = flag_parse(args, "--epsilon", 0.3)?;
    let deadline_ms: u64 = flag_parse(args, "--deadline-ms", 2000)?;
    let kill_after: usize = flag_parse(args, "--kill-after", 0)?;
    let churn: usize = flag_parse(args, "--churn", 0)?;
    let warmsync_on = flag(args, "--warmsync").unwrap_or("on") != "off";
    let out_path = flag(args, "--out").unwrap_or("BENCH_cluster.json");
    if nodes == 0 || clients == 0 || requests == 0 || distinct == 0 {
        return Err("--workers, --clients, --requests, and --distinct must be positive".into());
    }

    pcmax::obs::set_enabled(true);
    let cluster = Arc::new(
        LocalCluster::start(nodes, cluster_serve_config(args)?, cluster_config_from_flags(args)?)
            .map_err(|e| format!("starting workers: {e}"))?,
    );
    let handle = serve_cluster_tcp(Arc::clone(cluster.coordinator()), "127.0.0.1:0")
        .map_err(|e| format!("binding: {e}"))?;
    let addr = handle.local_addr();
    eprintln!(
        "bench: {clients} clients x {requests} requests over {distinct} distinct instances \
         ({jobs} jobs, {machines} machines) against {addr} ({nodes} workers{})",
        if kill_after > 0 {
            format!(", killing worker-0 after {kill_after} requests")
        } else {
            String::new()
        }
    );

    // Every completed request bumps this; the client thread that
    // finishes request number `--kill-after` kills worker 0 inline, so
    // the kill deterministically lands mid-load with requests left.
    let completed = Arc::new(AtomicUsize::new(0));
    let worker = {
        let completed = Arc::clone(&completed);
        let cluster = Arc::clone(&cluster);
        move |client_id: usize| -> Result<Vec<(Duration, bool)>, String> {
            let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
            let mut samples = Vec::with_capacity(requests);
            for r in 0..requests {
                // Cycle the distinct pool so repeats route to a warm worker.
                let seed = ((client_id * requests + r) as u64) % distinct;
                let inst = pcmax::gen::uniform(seed, jobs, machines, 1, 100);
                let start = Instant::now();
                let reply = client.solve(
                    &inst,
                    Some(epsilon),
                    Some(Duration::from_millis(deadline_ms)),
                )?;
                let elapsed = start.elapsed();
                reply
                    .schedule
                    .validate(&inst)
                    .map_err(|e| format!("invalid schedule from cluster: {e}"))?;
                if completed.fetch_add(1, Ordering::SeqCst) + 1 == kill_after {
                    cluster.kill(0);
                    eprintln!("killed worker-0 after {kill_after} requests");
                }
                samples.push((elapsed, reply.degraded));
            }
            Ok(samples)
        }
    };

    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let worker = worker.clone();
            std::thread::spawn(move || worker(c))
        })
        .collect();
    let mut latencies: Vec<Duration> = Vec::new();
    let mut degraded = 0usize;
    for h in handles {
        for (latency, was_degraded) in h.join().map_err(|_| "client thread panicked")?? {
            latencies.push(latency);
            degraded += usize::from(was_degraded);
        }
    }
    latencies.sort_unstable();
    let total = latencies.len();
    let pct = |p: f64| latencies[((total - 1) as f64 * p) as usize];
    let mean: Duration = latencies.iter().sum::<Duration>() / total as u32;
    let report = cluster.coordinator().report();
    println!("requests      {total} ({degraded} degraded), all answered");
    println!(
        "latency       mean {mean:.1?}  p50 {:.1?}  p90 {:.1?}  max {:.1?}",
        pct(0.5),
        pct(0.9),
        pct(1.0)
    );
    println!(
        "routing       {} routed, {} failovers, {} retries, {} local degradations",
        report.routed, report.failovers, report.retries, report.degraded_local
    );
    println!(
        "dp cache      {} hits, {} misses (worker-reported, aggregated)",
        report.dp_cache_hits, report.dp_cache_misses
    );
    for w in &report.workers {
        println!(
            "  {:<12} {:<4} {} ok / {} attempts, {} transport errors, {} failover serves",
            w.id,
            if w.up { "up" } else { "down" },
            w.ok,
            w.attempts,
            w.transport_errors,
            w.failover_serves
        );
    }

    // Churn phase: repeated kill-and-join cycles against the now-warm
    // fleet, measuring how cold a replacement worker really is. Each
    // cycle kills a live worker, spawns a replacement, lets warmsync
    // rebalance (when enabled), then probes the JOINER directly with
    // every distinct instance: `cache_misses` on those replies is
    // exactly the DP work the replacement had to redo from scratch.
    let mut churn_rebalance_us: Vec<u64> = Vec::new();
    let mut churn_cold_misses = 0u64;
    let mut churn_cold_requests = 0u64;
    let mut churn_probes = 0u64;
    let mut churn_cold_avoided = 0u64;
    if churn > 0 {
        let coordinator = cluster.coordinator();
        for cycle in 0..churn {
            if warmsync_on {
                // Digests refresh off heartbeat health replies, so a
                // worker's newest entries are invisible to the sync for
                // up to one beat. The load is quiesced here: wait out
                // two full rounds so every warm_seq is current, then
                // catch replication up — the kill must land on a
                // steady-state fleet, not mid-ship.
                let before = coordinator.report();
                let live = before.workers.iter().filter(|w| w.up).count() as u64;
                let settled = before.heartbeats_ok + 2 * live.max(1);
                let fresh_by = Instant::now() + Duration::from_secs(10);
                while coordinator.report().heartbeats_ok < settled {
                    if Instant::now() > fresh_by {
                        return Err("churn: heartbeat stalled before the sync round".into());
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                coordinator.sync_warm();
            }
            let victim = coordinator
                .report()
                .workers
                .iter()
                .find(|w| w.up)
                .map(|w| w.id.clone())
                .ok_or("churn: no live worker left to kill")?;
            let vidx = cluster
                .index_of(&victim)
                .ok_or("churn: victim unknown to the harness")?;
            cluster.kill(vidx);
            // The rebalance keys off the heartbeat's live-set diff, so
            // wait until the coordinator has marked the victim down.
            let down_by = Instant::now() + Duration::from_secs(10);
            while coordinator
                .report()
                .workers
                .iter()
                .any(|w| w.id == victim && w.up)
            {
                if Instant::now() > down_by {
                    return Err(format!("churn: {victim} never marked down"));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            let join_start = Instant::now();
            let joined = cluster
                .spawn()
                .map_err(|e| format!("churn: spawning replacement: {e}"))?;
            if warmsync_on {
                // One explicit round tops the joiner up to every key it
                // now owns; the elapsed time is its cost to become warm.
                coordinator.sync_warm();
            }
            churn_rebalance_us.push(join_start.elapsed().as_micros() as u64);
            let jidx = cluster
                .index_of(&joined)
                .ok_or("churn: joiner unknown to the harness")?;
            let mut probe = Client::connect(cluster.addr(jidx))
                .map_err(|e| format!("churn: connecting to {joined}: {e}"))?;
            let mut cycle_misses = 0u64;
            for seed in 0..distinct {
                let inst = pcmax::gen::uniform(seed, jobs, machines, 1, 100);
                let reply = probe.solve(
                    &inst,
                    Some(epsilon),
                    Some(Duration::from_millis(deadline_ms)),
                )?;
                churn_probes += 1;
                churn_cold_misses += reply.cache_misses;
                cycle_misses += reply.cache_misses;
                churn_cold_requests += u64::from(reply.cache_misses > 0);
            }
            // Probes the joiner answered from shipped warm state rather
            // than a cold DP solve.
            if let Some(service) = cluster.service(jidx) {
                churn_cold_avoided +=
                    service.warm().map_or(0, |w| w.cold_misses_avoided());
            }
            eprintln!(
                "churn cycle {cycle}: killed {victim}, joined {joined} in {:.1?}, \
                 {cycle_misses} cold probe misses over {distinct} requests",
                Duration::from_micros(*churn_rebalance_us.last().unwrap())
            );
        }
        println!(
            "churn         {churn} cycles: {churn_cold_misses} cold misses / {churn_probes} \
             joiner probes ({churn_cold_requests} requests recomputed), warmsync {}",
            if warmsync_on { "on" } else { "off" }
        );
    }
    // The churn phase changed membership and shipped state; report the
    // final aggregate, not the pre-churn snapshot.
    let report = cluster.coordinator().report();

    // Machine-readable result: client-side latency summary + the full
    // aggregated cluster report.
    let mut w = pcmax::obs::JsonWriter::new();
    w.begin_object()
        .field_u64("workers", nodes as u64)
        .field_u64("clients", clients as u64)
        .field_u64("requests", total as u64)
        .field_u64("degraded", degraded as u64)
        .field_u64("kill_after", kill_after as u64);
    if churn > 0 {
        let mean_rebalance = churn_rebalance_us.iter().sum::<u64>()
            / churn_rebalance_us.len().max(1) as u64;
        let max_rebalance = churn_rebalance_us.iter().copied().max().unwrap_or(0);
        w.key("churn")
            .begin_object()
            .field_u64("cycles", churn as u64)
            .field_u64("warmsync", u64::from(warmsync_on))
            .field_u64("probes", churn_probes)
            .field_u64("cold_misses", churn_cold_misses)
            .field_u64("cold_requests", churn_cold_requests)
            .field_u64("cold_misses_avoided", churn_cold_avoided)
            .field_u64(
                "cold_miss_rate_pct",
                100 * churn_cold_requests / churn_probes.max(1),
            )
            .key("rebalance_us")
            .begin_object()
            .field_u64("mean", mean_rebalance)
            .field_u64("max", max_rebalance)
            .end_object()
            .end_object();
    }
    w.key("latency_us")
        .begin_object()
        .field_u64("mean", mean.as_micros() as u64)
        .field_u64("p50", pct(0.5).as_micros() as u64)
        .field_u64("p90", pct(0.9).as_micros() as u64)
        .field_u64("p99", pct(0.99).as_micros() as u64)
        .field_u64("max", pct(1.0).as_micros() as u64)
        .end_object()
        .end_object();
    let bench = w.finish();
    let payload = format!("{{\"bench\":{bench},\"cluster\":{}}}\n", report.to_json());
    fs::write(out_path, payload).map_err(|e| format!("writing {out_path}: {e}"))?;
    eprintln!("wrote {out_path}");

    handle.shutdown();
    Ok(())
}

/// Sparse-engine smoke and memory benchmark: round one near-uniform
/// instance (the frontier-friendly regime — many jobs per machine, a
/// handful of size classes), solve the same DP densely and through the
/// sparse frontier, differential-check every retained cell against the
/// dense table, and write the dense-vs-sparse memory/latency comparison
/// to BENCH_sparse.json. Exits non-zero on any divergence, or when the
/// sparse engine's peak resident cells reach `--max-resident-pct` of
/// the dense cell count — this doubles as the CI sparse check.
fn cmd_bench_sparse(args: &[String]) -> Result<(), String> {
    use pcmax::ptas::rounding::{Rounding, RoundingOutcome};

    let seed: u64 = flag_parse(args, "--seed", 42)?;
    // Defaults pick the frontier-friendly regime deliberately: 12 jobs
    // per machine at k = 16 keeps every job "long" (q < k) while the
    // dense box `Π(nᵢ+1)` grows quadratically with the machine count —
    // the sweep settles under 10% of the dense cells.
    let jobs: usize = flag_parse(args, "--jobs", 576)?;
    let machines: usize = flag_parse(args, "--machines", 48)?;
    let k: u64 = flag_parse(args, "--k", 16)?;
    let base: u64 = flag_parse(args, "--base", 1_000)?;
    let spread: u64 = flag_parse(args, "--spread", 40)?;
    let max_resident_pct: f64 = flag_parse(args, "--max-resident-pct", 10.0)?;
    // The RAM line the dense table is measured against: under the
    // default the dense bytes of the default instance exceed the budget
    // (the paged path would spill to disk) while the sparse frontier
    // never needs a disk tier at all.
    let budget = mem_budget_flag(args, pcmax::store::StoreBudget::bytes(64 << 10))?;
    let out_path = flag(args, "--out").unwrap_or("BENCH_sparse.json");
    if jobs == 0 || machines == 0 || k == 0 {
        return Err("--jobs, --machines, and --k must be positive".into());
    }

    // Frontier statistics (per-level timings, prune rates) only accrue
    // while recording is on.
    pcmax::obs::set_enabled(true);
    let inst = pcmax::gen::near_equal(seed, jobs, machines, base, spread);
    let lb = lower_bound(&inst);
    let ub = upper_bound(&inst);
    // The bisection midpoint is the biggest table the search would probe.
    let target = pcmax::ptas::search::interval::bisection_target(lb, ub);
    let rounding = match Rounding::compute(&inst, target, k) {
        RoundingOutcome::Rounded(r) => r,
        RoundingOutcome::Infeasible { .. } => {
            return Err(format!("rounding infeasible at target {target} (lb {lb}, ub {ub})"))
        }
    };
    let problem = pcmax::DpProblem::from_rounding(&rounding);
    let prediction = problem.predict_sparse();

    let dense_start = Instant::now();
    let dense = problem.solve(DpEngine::Sequential);
    let dense_us = dense_start.elapsed().as_micros() as u64;
    let sparse_start = Instant::now();
    let sparse = problem.solve_sparse();
    let sparse_us = sparse_start.elapsed().as_micros() as u64;

    // Differential: the final answer and every retained frontier cell.
    let mut matches = sparse.opt == dense.opt;
    for (cell, value) in sparse.cells() {
        let flat = if cell.is_empty() {
            0
        } else {
            problem.shape().flatten(&cell)
        };
        if dense.values[flat] != value {
            matches = false;
            break;
        }
    }

    let dense_cells = problem.table_size() as u64;
    let peak = sparse.stats.peak_resident_cells as u64;
    let resident_pct = if dense_cells == 0 {
        0.0
    } else {
        peak as f64 * 100.0 / dense_cells as f64
    };
    let ndim = problem.counts().len();
    let sparse_peak_bytes =
        peak.saturating_mul(pcmax::sparse::predict::bytes_per_sparse_cell(ndim));
    let budget_bytes = budget.bytes;
    let dense_spills = prediction.dense_bytes > budget_bytes;

    let mut w = pcmax::obs::JsonWriter::new();
    w.begin_object()
        .field_u64("seed", seed)
        .field_u64("jobs", jobs as u64)
        .field_u64("machines", machines as u64)
        .field_u64("k", k)
        .field_u64("target", target)
        .field_u64("classes", ndim as u64)
        .field_u64("mem_budget_bytes", budget_bytes)
        .field_str("differential", if matches { "ok" } else { "MISMATCH" })
        .key("dense")
        .begin_object()
        .field_u64("cells", dense_cells)
        .field_u64("bytes", prediction.dense_bytes)
        .field_u64("solve_us", dense_us)
        .field_u64("opt", u64::from(dense.opt))
        .field_bool("spills", dense_spills)
        .end_object()
        .key("sparse")
        .begin_object()
        .field_u64("settled_cells", sparse.stats.settled_cells as u64)
        .field_u64("peak_resident_cells", peak)
        .field_u64("peak_resident_bytes", sparse_peak_bytes)
        .field_u64("candidates", sparse.stats.candidates)
        .field_u64("pruned", sparse.stats.pruned)
        .field_u64("layers", sparse.stats.layers as u64)
        .field_u64("solve_us", sparse_us)
        .field_u64("opt", u64::from(sparse.opt))
        .field_f64("resident_pct_of_dense", resident_pct)
        // The frontier engine has no spill path: the whole solve is
        // resident, bounded by `peak_resident_cells`.
        .field_bool("spills", false)
        .end_object()
        .key("predictor")
        .begin_object()
        .field_u64("dense_cells", prediction.dense_cells)
        .field_u64("dense_bytes", prediction.dense_bytes)
        .field_u64("est_sparse_cells", prediction.est_sparse_cells)
        .field_u64("est_sparse_bytes", prediction.est_sparse_bytes)
        .field_u64("est_machines", prediction.est_machines)
        .end_object()
        .end_object();
    let payload = format!("{}\n", w.finish());
    fs::write(out_path, &payload).map_err(|e| format!("writing {out_path}: {e}"))?;
    print!("{payload}");
    eprintln!("wrote {out_path}");
    eprintln!(
        "bench-sparse: dense {} cells ({} bytes{}) in {dense_us}us vs sparse peak {} cells \
         ({:.1}% of dense, {} bytes, all resident) in {sparse_us}us",
        dense_cells,
        prediction.dense_bytes,
        if dense_spills {
            ", spills under the budget"
        } else {
            ", fits the budget"
        },
        peak,
        resident_pct,
        sparse_peak_bytes,
    );

    if !matches {
        return Err("sparse solve diverged from the sequential engine".into());
    }
    if resident_pct >= max_resident_pct {
        return Err(format!(
            "sparse peak resident {peak} cells is {resident_pct:.1}% of the dense table \
             (limit {max_resident_pct}%)"
        ));
    }
    Ok(())
}

/// Paged-store smoke: solve one rounded DP through the tiered RAM/disk
/// store under a deliberately tiny budget, differential-check it against
/// the in-RAM sequential engine, and print the store counters as JSON.
/// Exits non-zero if the paged table diverges — this doubles as the CI
/// spill check.
fn cmd_store_stats(args: &[String]) -> Result<(), String> {
    use pcmax::ptas::rounding::{Rounding, RoundingOutcome};
    use pcmax::store::{StoreBudget, StoreConfig, TieredStore};

    let seed: u64 = flag_parse(args, "--seed", 42)?;
    let jobs: usize = flag_parse(args, "--jobs", 18)?;
    let machines: usize = flag_parse(args, "--machines", 8)?;
    let k: u64 = flag_parse(args, "--k", 4)?;
    let dim: usize = flag_parse(args, "--dim", 3)?;
    let overlap = match flag(args, "--overlap").unwrap_or("off") {
        "on" => true,
        "off" => false,
        other => return Err(format!("unknown --overlap mode `{other}` (on|off)")),
    };
    // 1 KiB default: a fraction of the default instance's ~3 KB table,
    // so the sweep must demote pages to disk and fault them back.
    let budget = mem_budget_flag(args, StoreBudget::bytes(1024))?;
    let (spill_dir, ephemeral) = match flag(args, "--store-dir") {
        Some(dir) => (PathBuf::from(dir).join("spill"), false),
        None => (
            std::env::temp_dir().join(format!("pcmax-store-stats-{}", std::process::id())),
            true,
        ),
    };

    // Fault latencies only accrue while recording is on.
    pcmax::obs::set_enabled(true);
    let inst = pcmax::gen::uniform(seed, jobs, machines, 1, 100);
    let lb = lower_bound(&inst);
    let ub = upper_bound(&inst);
    // The bisection midpoint is the biggest table the search would probe.
    let target = pcmax::ptas::search::interval::bisection_target(lb, ub);
    let rounding = match Rounding::compute(&inst, target, k) {
        RoundingOutcome::Rounded(r) => r,
        RoundingOutcome::Infeasible { .. } => {
            return Err(format!("rounding infeasible at target {target} (lb {lb}, ub {ub})"))
        }
    };
    let problem = pcmax::DpProblem::from_rounding(&rounding);
    let prediction = problem.predict_sparse();
    let reference = problem.solve(DpEngine::Sequential);
    let store = Arc::new(
        TieredStore::open(&StoreConfig {
            budget,
            spill_dir: Some(spill_dir.clone()),
        })
        .map_err(|e| format!("opening store: {e}"))?,
    );
    let paged = if overlap {
        problem.solve_paged_overlapped(dim, Arc::clone(&store))
    } else {
        problem.solve_paged(dim, Arc::clone(&store))
    }
    .map_err(|e| format!("paged solve: {e}"))?;
    let stats = store.stats();
    let fault_us = store.fault_latency();
    // The cell width the paged sweep packed pages at — the same
    // `OPT(v) ≤ Σ counts` bound the DP uses.
    let cell_width = pcmax::store::CellWidth::for_max_value(
        problem.counts().iter().map(|&c| c as u64).sum(),
    );
    let matches = paged.values == reference.values && paged.opt == reference.opt;

    let mut w = pcmax::obs::JsonWriter::new();
    w.begin_object()
        .field_u64("seed", seed)
        .field_u64("jobs", jobs as u64)
        .field_u64("machines", machines as u64)
        .field_u64("target", target)
        .field_u64("table_cells", problem.table_size() as u64)
        .field_u64("opt", u64::from(paged.opt))
        .field_str("overlap", if overlap { "on" } else { "off" })
        .field_u64("cell_width_bytes", cell_width.bytes() as u64)
        .field_str("differential", if matches { "ok" } else { "MISMATCH" })
        // What the representation predictor would do with this table
        // under the same byte budget: the reported pressure is that of
        // the representation that would actually run, not a blanket
        // dense-bytes estimate.
        .key("predictor")
        .begin_object()
        .field_u64("dense_cells", prediction.dense_cells)
        .field_u64("dense_bytes", prediction.dense_bytes)
        .field_u64("est_sparse_cells", prediction.est_sparse_cells)
        .field_u64("est_sparse_bytes", prediction.est_sparse_bytes)
        .field_u64("est_machines", prediction.est_machines)
        .field_str(
            "would_run",
            if prediction.dense_bytes <= stats.budget_bytes {
                "dense"
            } else if prediction.est_sparse_bytes <= stats.budget_bytes {
                "sparse"
            } else {
                "paged"
            },
        )
        .field_u64(
            "pressure_pct",
            {
                let resident = if prediction.dense_bytes <= stats.budget_bytes {
                    prediction.dense_bytes
                } else if prediction.est_sparse_bytes <= stats.budget_bytes {
                    prediction.est_sparse_bytes
                } else {
                    // Paged tables cap resident bytes at the budget.
                    stats.budget_bytes
                };
                resident
                    .saturating_mul(100)
                    .checked_div(stats.budget_bytes)
                    .unwrap_or(0)
            },
        )
        .end_object()
        .key("store")
        .begin_object()
        .field_u64("budget_bytes", stats.budget_bytes)
        .field_u64("ram_pages", stats.ram_pages as u64)
        .field_u64("ram_bytes", stats.ram_bytes)
        .field_u64("disk_pages", stats.disk_pages as u64)
        .field_u64("disk_bytes", stats.disk_bytes)
        .field_u64("ram_hits", stats.ram_hits)
        .field_u64("faults", stats.faults)
        .field_u64("misses", stats.misses)
        .field_u64("demotions", stats.demotions)
        .field_u64("spill_writes", stats.spill_writes)
        .field_u64("prefetch_issued", stats.prefetch_issued)
        .field_u64("prefetch_hits", stats.prefetch_hits)
        .field_u64("writebehind_writes", stats.writebehind_writes)
        .key("fault_us");
    fault_us.write_json(&mut w);
    w.end_object().end_object();
    println!("{}", w.finish());

    if ephemeral {
        let _ = fs::remove_dir_all(&spill_dir);
    }
    if matches {
        eprintln!(
            "store-stats: paged table ({} cells, {}B cells, overlap {}) matches Sequential; {} demotions, {} faults, {} prefetches ({} hit) under a {}-byte budget",
            problem.table_size(),
            cell_width.bytes(),
            if overlap { "on" } else { "off" },
            stats.demotions,
            stats.faults,
            stats.prefetch_issued,
            stats.prefetch_hits,
            stats.budget_bytes
        );
        Ok(())
    } else {
        Err("paged solve diverged from the sequential engine".into())
    }
}

fn cmd_audit(args: &[String]) -> Result<(), String> {
    let seeds: u64 = flag_parse(args, "--seeds", 16)?;
    let k: u64 = flag_parse(args, "--k", 4)?;
    let max_cells: usize = flag_parse(args, "--max-cells", 1usize << 20)?;
    if seeds == 0 {
        return Err("--seeds must be at least 1".into());
    }
    if k == 0 {
        return Err("--k must be at least 1".into());
    }
    let engine_filter = match flag(args, "--engine") {
        None => None,
        Some(f @ ("sparse" | "portfolio" | "improve" | "paged" | "warmsync")) => {
            Some(f.to_string())
        }
        Some(other) => {
            return Err(format!(
                "unknown audit engine filter `{other}` (sparse|portfolio|improve|paged|warmsync)"
            ))
        }
    };
    let started = Instant::now();
    let report = pcmax::audit::run(&pcmax::AuditConfig {
        seeds,
        k,
        max_table_cells: max_cells,
        engine_filter,
    });
    let json = report.to_json();
    match flag(args, "--out") {
        Some(path) => {
            fs::write(path, format!("{json}\n")).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    eprintln!(
        "audit: {} cases, {} checks, {} divergences in {:.2?}",
        report.cases,
        report.checks,
        report.divergences.len(),
        started.elapsed()
    );
    if report.is_clean() {
        Ok(())
    } else {
        for d in &report.divergences {
            eprintln!(
                "divergence [{}] {} seed {}: {}",
                d.check, d.family, d.seed, d.detail
            );
        }
        Err(format!(
            "{} divergence(s) found — the solve path disagrees with itself",
            report.divergences.len()
        ))
    }
}
