//! Quick start: schedule a batch of jobs with the PTAS and compare it to
//! the classic heuristics.
//!
//! Run with: `cargo run --release --example quickstart`

use pcmax::heuristics::{list_schedule, lpt, multifit};
use pcmax::prelude::*;

fn main() {
    // 60 jobs, uniform processing times in [10, 100], 8 machines —
    // the distribution family of the paper's evaluation (§IV.A).
    let inst = pcmax::gen::uniform(7, 60, 8, 10, 100);
    println!(
        "instance: {} jobs on {} machines, total work {}, longest job {}",
        inst.num_jobs(),
        inst.machines(),
        inst.total_work(),
        inst.max_time()
    );
    let lb = lower_bound(&inst);
    println!("lower bound on OPT: {lb}\n");

    // Baselines every OSS scheduler ships.
    let list = list_schedule(&inst);
    let lpt_s = lpt(&inst);
    let mf = multifit(&inst, 10);
    println!("list scheduling : makespan {}", list.makespan(&inst));
    println!("LPT             : makespan {}", lpt_s.makespan(&inst));
    println!("MULTIFIT        : makespan {}", mf.makespan(&inst));

    // The PTAS with the paper's ε = 0.3 (k = 4).
    let result = Ptas::new(0.3).solve(&inst);
    let makespan = result.schedule.validate(&inst).expect("valid schedule");
    println!(
        "PTAS (ε = 0.3)  : makespan {makespan}, target T* = {}, {} search rounds, {} DP solves",
        result.target, result.search.iterations, result.search.dp_runs
    );
    println!(
        "                  guarantee: ≤ {:.3} × OPT (achieved ≤ {:.3} × LB)",
        pcmax::ptas::verify::guarantee_factor(0.3),
        makespan as f64 / lb as f64
    );

    // The improver's move/swap descent polishes whatever the PTAS left on
    // the critical machine (it never worsens a schedule); 100,000 rounds
    // under a deadline that does not bind run it to its fixpoint.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(3600);
    let mut stats = pcmax::ImproveStats::default();
    let polished =
        pcmax::improve::descent::descend(&inst, &result.schedule, deadline, 100_000, &mut stats);
    println!(
        "PTAS + local    : makespan {}",
        polished.validate(&inst).expect("valid schedule")
    );

    // Per-machine loads of the polished schedule.
    let mut loads = polished.loads(&inst);
    loads.sort_unstable();
    println!("\nmachine loads (sorted): {loads:?}");
}
