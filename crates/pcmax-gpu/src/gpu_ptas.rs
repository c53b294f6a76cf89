//! The end-to-end GPU PTAS (Algorithm 3) and its OpenMP-modeled
//! counterpart — the two columns of Table VII.
//!
//! Per round, the quarter split probes four targets *concurrently*: probe
//! `p`'s kernel streams go to simulator streams `4p .. 4p+4`, so one
//! round occupies 16 streams (4 processes × 4 streams via Hyper-Q,
//! §III.A) and its modeled time is the completion of the slowest probe,
//! not their sum. The OpenMP bisection runs one probe per iteration and
//! pays for every repeated computation (the paper notes it caches
//! nothing).

use crate::analysis::TableAnalysis;
use crate::partitioned::{enqueue_partitioned, PartitionOptions};
use exec_model::CpuModel;
use gpu_sim::{DeviceSpec, GpuSim};
use pcmax_core::{bounds, Instance, Schedule};
use pcmax_ptas::rounding::{Rounding, RoundingOutcome};
use pcmax_ptas::search;
use pcmax_ptas::{DpEngine, DpProblem, Ptas, SearchStrategy};
use std::convert::Infallible;

/// Configuration of the GPU PTAS simulation.
#[derive(Debug, Clone)]
pub struct GpuPtasConfig {
    /// Relative error of the PTAS.
    pub epsilon: f64,
    /// Partitioning dimension limit (`GPU-DIMx`).
    pub dim_limit: usize,
    /// Concurrent interval segments (the paper's `proc = 4`).
    pub processes: usize,
    /// Streams per segment (the paper's 4 → 16 total).
    pub streams_per_process: usize,
    /// The simulated device.
    pub spec: DeviceSpec,
}

impl Default for GpuPtasConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.3,
            dim_limit: 6,
            processes: 4,
            streams_per_process: 4,
            spec: DeviceSpec::k40(),
        }
    }
}

/// One quarter-split round.
#[derive(Debug, Clone)]
pub struct RoundRecord {
    /// Targets probed this round, ascending.
    pub targets: Vec<u64>,
    /// DP-table size of each probe (0 when length-infeasible).
    pub table_sizes: Vec<usize>,
    /// Modeled duration of the round (slowest concurrent probe).
    pub modeled_ms: f64,
}

/// Outcome of the simulated GPU PTAS.
#[derive(Debug, Clone)]
pub struct GpuPtasOutcome {
    /// Converged target makespan.
    pub target: u64,
    /// Quarter-split rounds (Table VII's GPU `#itr`).
    pub iterations: usize,
    /// Total modeled GPU time, ms (Table VII's GPU `runtime`).
    pub modeled_ms: f64,
    /// Largest DP table probed (the paper buckets by this).
    pub max_table_size: usize,
    /// Per-round telemetry.
    pub rounds: Vec<RoundRecord>,
    /// The actual schedule (computed by the real DP — the simulation only
    /// provides the clock).
    pub schedule: Schedule,

    /// Makespan of the returned schedule.
    pub makespan: u64,
}

/// Outcome of the modeled OpenMP bisection PTAS.
#[derive(Debug, Clone)]
pub struct OmpOutcome {
    /// Converged target makespan.
    pub target: u64,
    /// Bisection iterations (Table VII's OpenMP `#itr`).
    pub iterations: usize,
    /// Total modeled CPU time, ms.
    pub modeled_ms: f64,
    /// Largest DP table probed.
    pub max_table_size: usize,
}

/// Runs the quarter-split GPU PTAS on the simulator.
pub fn solve_gpu(inst: &Instance, cfg: &GpuPtasConfig) -> GpuPtasOutcome {
    // The real schedule comes from the CPU PTAS with the quarter split and
    // the same blocked engine; it must converge to the simulated target.
    let reference = Ptas::new(cfg.epsilon)
        .with_engine(DpEngine::Blocked {
            dim_limit: cfg.dim_limit,
        })
        .with_strategy(SearchStrategy::QuarterSplit);
    let k = reference.k();
    let m = inst.machines();
    let mut rounds = Vec::new();
    let mut modeled_ms = 0.0;
    let mut max_table = 1usize;

    let Ok(target) = search::converge(
        bounds::lower_bound(inst),
        bounds::upper_bound(inst),
        cfg.processes,
        |_, _, targets| {
            let mut sim = GpuSim::new(cfg.spec.clone(), cfg.processes * cfg.streams_per_process);
            let mut feasible = Vec::new();
            let mut table_sizes = Vec::new();
            for (p, &t) in targets.iter().enumerate() {
                match Rounding::compute(inst, t, k) {
                    RoundingOutcome::Infeasible { .. } => {
                        feasible.push(false);
                        table_sizes.push(0);
                    }
                    RoundingOutcome::Rounded(r) => {
                        let problem = DpProblem::from_rounding(&r);
                        table_sizes.push(problem.table_size());
                        max_table = max_table.max(problem.table_size());
                        // Real DP for feasibility; simulator for the clock.
                        let sol = problem.solve(DpEngine::Blocked {
                            dim_limit: cfg.dim_limit,
                        });
                        feasible.push(sol.opt != pcmax_ptas::INFEASIBLE && sol.opt as usize <= m);
                        let analysis = TableAnalysis::analyze(&problem);
                        let opts = PartitionOptions {
                            dim_limit: cfg.dim_limit,
                            streams: cfg.streams_per_process,
                            ..PartitionOptions::default()
                        };
                        enqueue_partitioned(
                            &problem,
                            &analysis,
                            &mut sim,
                            p * cfg.streams_per_process,
                            &opts,
                        );
                    }
                }
            }
            let round_ms = sim.run().millis();
            modeled_ms += round_ms;
            rounds.push(RoundRecord {
                targets: targets.to_vec(),
                table_sizes,
                modeled_ms: round_ms,
            });
            Ok::<_, Infallible>(feasible)
        },
    );

    let result = reference.solve(inst);
    assert_eq!(
        result.target, target,
        "simulated search diverged from the reference search"
    );

    GpuPtasOutcome {
        target,
        iterations: rounds.len(),
        modeled_ms,
        max_table_size: max_table,
        rounds,
        makespan: result.makespan,
        schedule: result.schedule,
    }
}

/// Runs the bisection PTAS under the multicore cost model (the paper's
/// OpenMP baseline). `cores` ∈ {16, 28} reproduces OMP16/OMP28.
pub fn modeled_openmp_bisection(inst: &Instance, epsilon: f64, cores: usize) -> OmpOutcome {
    let k = Ptas::new(epsilon).k();
    let m = inst.machines();
    let model = CpuModel::xeon_e5_2697v3(cores);
    let mut iterations = 0usize;
    let mut modeled_ms = 0.0;
    let mut max_table = 1usize;

    let Ok(target) = search::converge(
        bounds::lower_bound(inst),
        bounds::upper_bound(inst),
        1,
        |_, _, targets| {
            iterations += 1;
            let feasible = targets
                .iter()
                .map(|&t| match Rounding::compute(inst, t, k) {
                    RoundingOutcome::Infeasible { .. } => false,
                    RoundingOutcome::Rounded(r) => {
                        let problem = DpProblem::from_rounding(&r);
                        max_table = max_table.max(problem.table_size());
                        let analysis = TableAnalysis::analyze(&problem);
                        modeled_ms += model.estimate_dp(&analysis.workload()).millis();
                        let sol = problem.solve(DpEngine::AntiDiagonal);
                        sol.opt != pcmax_ptas::INFEASIBLE && sol.opt as usize <= m
                    }
                });
            Ok::<_, Infallible>(feasible.collect())
        },
    );

    OmpOutcome {
        target,
        iterations,
        modeled_ms,
        max_table_size: max_table,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_core::gen::uniform;

    #[test]
    fn gpu_and_omp_converge_to_same_target() {
        let inst = uniform(42, 24, 4, 10, 60);
        let gpu = solve_gpu(&inst, &GpuPtasConfig::default());
        let omp = modeled_openmp_bisection(&inst, 0.3, 16);
        assert_eq!(gpu.target, omp.target);
        gpu.schedule.validate(&inst).unwrap();
    }

    #[test]
    fn quarter_split_uses_fewer_rounds() {
        for seed in 0..3 {
            let inst = uniform(seed, 28, 5, 10, 80);
            let gpu = solve_gpu(&inst, &GpuPtasConfig::default());
            let omp = modeled_openmp_bisection(&inst, 0.3, 16);
            assert!(
                gpu.iterations <= omp.iterations,
                "seed {seed}: {} vs {}",
                gpu.iterations,
                omp.iterations
            );
        }
    }

    #[test]
    fn rounds_account_modeled_time() {
        let inst = uniform(7, 20, 4, 5, 50);
        let gpu = solve_gpu(&inst, &GpuPtasConfig::default());
        let sum: f64 = gpu.rounds.iter().map(|r| r.modeled_ms).sum();
        assert!((sum - gpu.modeled_ms).abs() < 1e-9);
        assert!(gpu.modeled_ms > 0.0);
        assert_eq!(gpu.iterations, gpu.rounds.len());
    }

    #[test]
    fn more_processes_fewer_rounds_same_target() {
        let inst = uniform(12, 24, 4, 10, 70);
        let mut prev_rounds = usize::MAX;
        let mut target = None;
        for processes in [1usize, 2, 4, 8] {
            let cfg = GpuPtasConfig {
                processes,
                ..GpuPtasConfig::default()
            };
            let out = solve_gpu(&inst, &cfg);
            if let Some(t) = target {
                assert_eq!(out.target, t);
            }
            target = Some(out.target);
            assert!(out.iterations <= prev_rounds);
            prev_rounds = out.iterations;
        }
    }

    #[test]
    fn omp28_is_not_slower_than_omp16() {
        let inst = uniform(3, 26, 4, 10, 70);
        let o16 = modeled_openmp_bisection(&inst, 0.3, 16);
        let o28 = modeled_openmp_bisection(&inst, 0.3, 28);
        assert!(o28.modeled_ms <= o16.modeled_ms);
        assert_eq!(o16.iterations, o28.iterations);
    }
}
