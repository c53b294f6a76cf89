//! `solvebench --workload <dp-dense|path-hot> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints a provenance header, the metrics by name and unit, and as its
//! last line one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. Exits non-zero when any answer fails its check.

use solvebench::env::{self, RunRoot, Watchdog};
use solvebench::stats::result_json;
use solvebench::workloads::{Workload, OFFERED_RPS};
use solvebench::{run, Args};
use std::process::ExitCode;
use std::time::Duration;

/// Hard wall-clock cap of one run.
const RUN_CAP: Duration = Duration::from_secs(170);

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value:?} (dp-dense|path-hot)"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("solvebench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match RunRoot::create() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("solvebench: cannot create the run directory: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# solvebench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# nproc={nproc} cpu={:?} commit={} source_fnv={} offered_rps={} store_fs={}",
        env::cpu_model(),
        env::git_commit(),
        env::source_digest(),
        if args.workload == Workload::PathHot {
            OFFERED_RPS
        } else {
            0.0
        },
        env::fs_type(root.path()),
    );
    let watchdog = Watchdog::arm(
        format!("workload {}", args.workload.name()),
        RUN_CAP,
        root.path().to_path_buf(),
    );
    let outcome = run(&args, &root);
    drop(watchdog);
    drop(root);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("solvebench: {} failed: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics.0 {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for e in &outcome.errors {
        eprintln!("solvebench: check failed: {e}");
    }
    let correct = outcome.failed == 0;
    println!(
        "{}",
        result_json(
            correct,
            outcome.attempted.max(1),
            outcome.failed,
            &outcome.metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
