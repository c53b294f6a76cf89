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
use pcmax::serve::serve_tcp;
use pcmax::{ClusterConfig, Guarantee};
use std::fs;
use std::io::{ErrorKind, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Writes to stdout through its lock. A reader that closes early
/// (`pcmax solve FILE --verbose | head -2`) ends the process with exit
/// code 0 instead of the panic `println!` raises on a broken pipe.
fn emit(text: std::fmt::Arguments<'_>) {
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout.write_fmt(text).and_then(|()| stdout.flush()) {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing stdout: {e}");
        std::process::exit(1);
    }
}

/// `println!` through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

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
        "cluster" => cmd_cluster(rest),
        "audit" => cmd_audit(rest),
        "help" | "--help" | "-h" => {
            outln!("{USAGE}");
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
  pcmax improve FILE|- [--improve off|greedy] [--improve-budget-us N]
  pcmax cluster       [--workers N] [--addr HOST:PORT] [--threads N]
                      [--queue N] [--deadline-ms N] [--epsilon F]
                      [--engine seq|par|blockedN] [--repr auto|dense|sparse]
                      [--mem-budget BYTES] [--store-dir DIR]
                      [--max-cells N] [--pages-budget BYTES]
                      [--portfolio auto|fixed:ARM]
                      [--heartbeat-ms N] [--max-missed N] [--retries N]
                      [--replicas N]
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
report; `--replicas R` sets the warm-state replication factor,
default 2). `audit` runs the adversarial differential-fuzz harness
(u64-scale times, degenerate shapes) across `--seeds` seeds,
cross-checking the three DP engines cell-for-cell, the searches, the
serve solver, and the exact oracles; it prints a JSON divergence
report (optionally to `--out FILE`) and exits non-zero if any check
diverged; `--engine sparse` restricts the sweep to the sparse
frontier engine's differential checks, `--engine portfolio` to the
solver-portfolio gauntlet (every arm pinned on every adversarial case,
guarantees certified against the exact oracle). `--repr` on `serve` and
`cluster` pins the table representation (`auto` predicts
dense/sparse/paged per probe). `--engine paged` on `audit` restricts
the sweep to the paged-store contract plus the overlapped-vs-sync-vs-
dense differential. `--mem-budget` accepts `4096`, `64K`, `16M`, or `1G`;
`--store-dir` on `serve`/`cluster` enables the persistent
warm-start log (cluster workers get per-worker subdirectories).
`--portfolio` picks the per-request solver arm: `auto` (feature-driven
selection) or `fixed:ARM` (pin one arm). ARM is one of lptrev,
multifit, ptas; auto answers instances of at most 10 jobs or equal
times with lptrev, certified optimal. The ptas arm descends its
heuristic net by move/swap before it searches, and its tables follow
`--repr`, so `--repr dense --portfolio fixed:ptas` pins the dense PTAS.
A picked arm that fails falls back to the heuristic net (the better of
lptrev and multifit, or one of them when under 200 µs remain), flagged
degraded. Every ok reply carries `gap_ppm`, the achieved-vs-lower-bound
gap in parts per million. `pcmax improve` runs the move/swap descent
(`greedy`) once on an instance file (`-` reads stdin), seeding from the
better of LPT-revisited and MULTIFIT, and prints a JSON report with the
final assignment. `--engine improve`
on `audit` restricts the sweep to the improver gauntlet (monotonicity,
validity, a-posteriori guarantee, rerun determinism).
`--engine warmsync` restricts it to the warm-replication gauntlet:
shipped entries survive the wire round-trip byte-identically (checksum
re-verified), a replica applying them holds the owner's exact bytes,
and the ranged pulls planned for a subset of the owner's keys return
exactly that subset. Every command fails on a `--flag` it does not take.";

/// Checks `args` against the flags one command reads and returns its
/// positional words. `values` take the next word as their value,
/// `switches` stand alone; any other `--name` is an error, so a
/// misspelt flag cannot fall back to its default unnoticed.
fn positionals<'a>(
    args: &'a [String],
    values: &[&str],
    switches: &[&str],
) -> Result<Vec<&'a str>, String> {
    let mut words = Vec::new();
    let mut i = 0;
    while let Some(a) = args.get(i).map(String::as_str) {
        if values.contains(&a) {
            i += 2;
            continue;
        }
        if !a.starts_with("--") {
            words.push(a);
        } else if !switches.contains(&a) {
            return Err(format!("unknown flag {a}"));
        }
        i += 1;
    }
    Ok(words)
}

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
    let values = ["--seed", "--jobs", "--machines", "--lo", "--hi", "--family", "-o"];
    positionals(args, &values, &[])?;
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
        None => emit(format_args!("{out}")),
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
    let words = positionals(args, &["--epsilon", "--engine", "--strategy"], &["--verbose"])?;
    let path = words.first().ok_or("solve needs an instance file")?;
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
    outln!(
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
            outln!("  round {:>2} [{}, {}]: {}", i + 1, rec.lb, rec.ub, probes.join("; "));
        }
        let mut loads = res.schedule.loads(&inst);
        loads.sort_unstable();
        outln!("  loads: {loads:?}");
    }
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    // Flags may precede the instance path (`pcmax trace --eps 0.2 FILE`).
    let values = ["--eps", "--epsilon", "--engine", "--strategy"];
    let words = positionals(args, &values, &["--json"])?;
    let path = words.first().ok_or("trace needs an instance file")?;
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
        outln!("{}", tree.to_json());
    } else {
        emit(format_args!("{}", tree.render()));
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let words = positionals(args, &[], &[])?;
    let path = words.first().ok_or("compare needs an instance file")?;
    let inst = load_instance(path)?;
    let lb = lower_bound(&inst);
    outln!(
        "{} jobs on {} machines; lower bound {lb}",
        inst.num_jobs(),
        inst.machines()
    );
    outln!("{:<16} {:>9} {:>8}", "algorithm", "makespan", "vs LB");
    let report = |name: &str, ms: u64| {
        outln!("{name:<16} {ms:>9} {:>8.4}", ms as f64 / lb as f64);
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
    let words = positionals(args, &["--epsilon", "--dim", "--trace"], &[])?;
    let path = words.first().ok_or("simulate needs an instance file")?;
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
    outln!("target T* = {} (both searches agree)", gpu.target);
    outln!(
        "GPU quarter split (DIM{dim}): {:>3} rounds, {:>12.3} modeled ms",
        gpu.iterations, gpu.modeled_ms
    );
    outln!(
        "OpenMP-28 bisection        : {:>3} iterations, {:>12.3} modeled ms",
        omp.iterations, omp.modeled_ms
    );
    outln!(
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

fn parse_repr(s: &str) -> Result<pcmax::ReprPolicy, String> {
    match s {
        "auto" => Ok(pcmax::ReprPolicy::Auto),
        "dense" => Ok(pcmax::ReprPolicy::DenseOnly),
        "sparse" => Ok(pcmax::ReprPolicy::SparseOnly),
        other => Err(format!("unknown repr `{other}` (auto|dense|sparse)")),
    }
}

/// The flags [`serve_config_from_flags`] reads, plus `--addr`.
const SERVE_FLAGS: &[&str] = &[
    "--addr",
    "--workers",
    "--queue",
    "--deadline-ms",
    "--epsilon",
    "--engine",
    "--repr",
    "--mem-budget",
    "--pages-budget",
    "--max-cells",
    "--store-dir",
    "--portfolio",
];

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
        mem_budget: match flag(args, "--mem-budget") {
            Some(v) => pcmax::store::StoreBudget::parse(v)?,
            None => defaults.mem_budget,
        },
        pages_budget: match flag(args, "--pages-budget") {
            Some(v) => pcmax::store::StoreBudget::parse(v)?,
            None => defaults.pages_budget,
        },
        max_table_cells: flag_parse(args, "--max-cells", defaults.max_table_cells)?,
        store_dir: flag(args, "--store-dir").map(PathBuf::from),
        portfolio: flag(args, "--portfolio")
            .unwrap_or("auto")
            .parse::<pcmax::PortfolioPolicy>()?,
        ..defaults
    })
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    positionals(args, SERVE_FLAGS, &[])?;
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
/// assignment. `--improve` defaults to `greedy`.
fn cmd_improve(args: &[String]) -> Result<(), String> {
    let words = positionals(args, &["--improve", "--improve-budget-us"], &[])?;
    let path = words
        .first()
        .ok_or("improve needs an instance file (or `-` for stdin)")?;
    let inst = if *path == "-" {
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
    outln!("{}", w.finish());
    Ok(())
}

/// The flags `cluster` reads on top of [`SERVE_FLAGS`].
const CLUSTER_FLAGS: &[&str] =
    &["--threads", "--heartbeat-ms", "--max-missed", "--retries", "--replicas"];

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
    positionals(args, &[SERVE_FLAGS, CLUSTER_FLAGS].concat(), &[])?;
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

fn cmd_audit(args: &[String]) -> Result<(), String> {
    positionals(args, &["--seeds", "--k", "--max-cells", "--engine", "--out"], &[])?;
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
        None => outln!("{json}"),
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
