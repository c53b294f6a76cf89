//! The three DP engines side by side on one table, plus wall-clock
//! timing of the real Rust implementations (not the device models):
//! sequential sweep, rayon anti-diagonal wavefront, and the
//! block-partitioned sweep of the paper's data-partitioning scheme.
//!
//! The second part times the anti-diagonal engine (Alg. 2: every cell of
//! a level `ℓ = Σ vᵢ` is independent) as the median of `SOLVES` solves
//! per table, next to the sequential sweep, on paper table sizes from
//! the dp-dense serving shape to the largest Fig. 4 table. Its speedup
//! is measured, not modeled: compare a run on every core with one
//! pinned to a single core (`taskset -c 0`), where the pool has no
//! helper thread.
//!
//! Run with: `cargo run --release --example dp_engines [-- SOLVES]`
//! (default 9 solves).

use pcmax::gpu::synth::problem_with_extents;
use pcmax::{DpEngine, DpProblem, INFEASIBLE};
use std::time::{Duration, Instant};

/// Tables of the timing ladder: σ, extents.
const LADDER: [(usize, &[usize]); 5] = [
    // Table I; σ 3456 is also the dp-dense serving shape's table size.
    (3456, &[6, 4, 6, 6, 4]),
    // Table III.
    (12960, &[3, 16, 15, 18]),
    (60480, &[9, 8, 7, 6, 5, 4]),
    // Table V, the largest Fig. 4 sizes.
    (362880, &[5, 6, 3, 7, 6, 4, 8, 3]),
    (403200, &[3, 10, 7, 6, 4, 8, 10]),
];

fn main() {
    let solves: usize = std::env::args()
        .nth(1)
        .map_or(9, |s| s.parse().expect("SOLVES must be a positive integer"))
        .max(1);

    // A mid-size paper shape: Table III's 12960-cell table.
    let problem = problem_with_extents(&[3, 16, 15, 18], 4);
    println!(
        "DP table: extents {:?}, σ = {}, capacity {}",
        problem.shape().extents(),
        problem.table_size(),
        problem.cap()
    );

    let engines = [
        ("sequential", DpEngine::Sequential),
        ("anti-diagonal (rayon)", DpEngine::AntiDiagonal),
        ("blocked DIM3", DpEngine::Blocked { dim_limit: 3 }),
        ("blocked DIM6", DpEngine::Blocked { dim_limit: 6 }),
        ("blocked DIM9", DpEngine::Blocked { dim_limit: 9 }),
    ];

    let mut reference: Option<Vec<u32>> = None;
    for (name, engine) in engines {
        let t0 = Instant::now();
        let sol = problem.solve(engine);
        let dt = t0.elapsed();
        assert_ne!(sol.opt, INFEASIBLE);
        match &reference {
            None => reference = Some(sol.values.clone()),
            Some(r) => assert_eq!(r, &sol.values, "engines must agree cell-for-cell"),
        }
        println!(
            "{name:<22} OPT(N) = {:>3}  {:>9.2?}  ({} configs enumerated, {} blocks, {} block-levels)",
            sol.opt,
            dt,
            sol.stats.configs_enumerated,
            sol.stats.num_blocks,
            sol.stats.num_block_levels
        );
    }
    println!("\nall engines agreed on every one of the {} cells", problem.table_size());

    println!(
        "\nanti-diagonal vs sequential, median of {solves} solves, {} thread(s):",
        rayon::current_num_threads()
    );
    println!("{:>7}  {:<26} {:>11} {:>11} {:>8}", "σ", "extents", "seq", "antidiag", "ratio");
    for (sigma, extents) in LADDER {
        let problem = problem_with_extents(extents, 4);
        assert_eq!(problem.table_size(), sigma);
        let seq = median_solve(&problem, DpEngine::Sequential, solves);
        let antidiag = median_solve(&problem, DpEngine::AntiDiagonal, solves);
        println!(
            "{sigma:>7}  {:<26} {:>11.3?} {:>11.3?} {:>7.2}×",
            format!("{extents:?}"),
            seq,
            antidiag,
            seq.as_secs_f64() / antidiag.as_secs_f64()
        );
    }
}

/// Median wall time of `solves` solves of `problem` with `engine`.
fn median_solve(problem: &DpProblem, engine: DpEngine, solves: usize) -> Duration {
    let mut times: Vec<Duration> = (0..solves)
        .map(|_| {
            let t0 = Instant::now();
            let sol = problem.solve(engine);
            let dt = t0.elapsed();
            assert_ne!(sol.opt, INFEASIBLE);
            dt
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}
