#![warn(missing_docs)]

//! # pcmax — a PTAS for makespan scheduling with parallel
//! higher-dimensional dynamic programming
//!
//! Reproduction of *"A GPU Parallel Approximation Algorithm for
//! Scheduling Parallel Identical Machines to Minimize Makespan"*
//! (Li, Ghalami, Schwiebert, Grosu — IPDPS Workshops 2018), as a Rust
//! workspace. This crate is the facade: it re-exports the public API of
//! every member crate and hosts the runnable examples and the
//! cross-crate integration tests.
//!
//! ## Quick start
//!
//! ```
//! use pcmax::prelude::*;
//!
//! // 40 jobs with uniform processing times on 6 machines.
//! let inst = pcmax::gen::uniform(42, 40, 6, 10, 100);
//!
//! // ε = 0.3 — the paper's setting (k = 4, ≤ 16 DP dimensions).
//! let result = Ptas::new(0.3).solve(&inst);
//! let makespan = result.schedule.validate(&inst).expect("valid schedule");
//! assert_eq!(makespan, result.makespan);
//!
//! // Compare with LPT.
//! let lpt = pcmax::heuristics::lpt(&inst).makespan(&inst);
//! assert!(result.makespan <= lpt + inst.max_time());
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`pcmax_core`] | instances, schedules, bounds, heuristics, exact oracles |
//! | [`ndtable`] | higher-dimensional tables, anti-diagonals, block partitioning |
//! | [`pcmax_ptas`] | rounding, configuration enumeration, the 3 DP engines, searches, the PTAS |
//! | [`exec_model`] | counted-work descriptors and the multicore cost model |
//! | [`gpu_sim`] | the deterministic discrete-event GPU simulator |
//! | [`pcmax_gpu`] | the paper's GPU algorithm (Algorithms 3–5) on the simulator |
//! | [`pcmax_store`] | paged table memory: tiered RAM/disk page store, byte budgets, warm-start log |
//! | [`pcmax_sparse`] | sparsified configuration DP: reachable-cell frontier, dominance pruning, representation predictor |
//! | [`pcmax_improve`] | anytime schedule improvement: deterministic move/swap descent |
//! | [`pcmax_serve`] | the solver service: batching, DP memo cache, deadlines, TCP front-end |
//! | [`pcmax_cluster`] | sharded multi-worker serving: cache-affinity routing, health checks, failover |
//! | [`pcmax_obs`] | observability: spans, counters, log₂ histograms, JSON export |
//! | [`pcmax_audit`] | adversarial differential-fuzz harness over engines, searches, and oracles |

pub use pcmax_core::{self as core, lower_bound, upper_bound, Instance, InstanceError, Schedule};
pub use pcmax_core::{exact, gen, heuristics};

pub use pcmax_ptas::{self as ptas, DpEngine, DpProblem, DpSolution, Ptas, PtasResult,
    SearchStrategy, INFEASIBLE};

pub use exec_model::{self as model, CpuModel, DpWorkload, ModelTime};
pub use gpu_sim::{self as sim, DeviceSpec, GpuSim, KernelDesc, SimReport};
pub use ndtable::{self as table, BlockedLayout, Divisor, NdTable, PagedTable, Shape};
pub use pcmax_store::{
    self as store, StoreBudget, StoreConfig, StoreError, StoreStats, TieredStore, WarmLog,
};
pub use pcmax_sparse::{
    self as sparse, PlannedRepr, SparsePrediction, SparseProblem, SparseSolution,
};
pub use pcmax_gpu::{self as gpu, GpuPtasConfig, TableAnalysis};
pub use pcmax_improve::{
    self as improve, ImproveConfig, ImproveMode, ImproveOutcome, ImproveStats,
};
pub use pcmax_obs::{self as obs};
pub use pcmax_serve::{
    self as serve, Arm, Client, PortfolioPolicy, ReprPolicy, ServeConfig, ServeError, Service,
    SolveRequest, SolveResponse, StoreReport, WarmTier,
};
pub use pcmax_core::Guarantee;
pub use pcmax_cluster::{
    self as cluster, ClusterConfig, ClusterReport, Coordinator, LocalCluster, RouteKey,
};
pub use pcmax_audit::{self as audit, AuditConfig, AuditReport};

/// One-stop imports for the common workflow.
pub mod prelude {
    pub use crate::{
        lower_bound, upper_bound, DpEngine, Instance, Ptas, PtasResult, Schedule, SearchStrategy,
    };
    pub use crate::{ServeConfig, Service, SolveRequest};
}
