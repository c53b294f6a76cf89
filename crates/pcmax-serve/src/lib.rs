//! Solver-as-a-service for `P||Cmax`.
//!
//! This crate wraps the PTAS of [`pcmax_ptas`] in a concurrent service
//! suitable for answering a stream of scheduling requests:
//!
//! * **Admission control** — a bounded queue rejects work at the door
//!   ([`ServeError::Overloaded`]) instead of letting latency collapse.
//! * **Solver portfolio** — each request runs one arm of [`portfolio`],
//!   picked from cheap instance features: LPT-revisited (exact on tiny
//!   and equal-time instances), the cached PTAS when its predicted cost
//!   fits the deadline, else the heuristic safety net.
//! * **Deadline degradation** — a request that cannot finish inside its
//!   deadline still gets a *valid* schedule, produced by the better of
//!   LPT-revisited and MULTIFIT, flagged [`SolveResponse::degraded`].
//! * **Rounded-instance DP cache** — probes are memoised under the
//!   canonical key `(class counts, gcd-normalised sizes, capacity)` from
//!   [`pcmax_ptas::DpProblem::canonical_key`], so repeated or similar
//!   instances skip the DP entirely; the cache is sharded and LRU-bounded.
//! * **Batching** — workers drain requests in batches and bucket them by
//!   the rounding parameter `k`, maximising cache-key locality; each
//!   worker solves its buckets in turn.
//! * **Representation ladder** — under [`solver::ReprPolicy::Auto`] each
//!   probe is *predicted* into the cheapest representation that fits the
//!   cell budget: a dense in-RAM table, the sparse frontier of
//!   [`pcmax_sparse`], or a paged table through a tiered store; only a
//!   probe over budget in every representation degrades.
//!
//! Use [`Service`] in-process, or [`serve_tcp`] + [`Client`] for the
//! line-protocol TCP front-end (`pcmax serve` on the command line).
//! [`serve_lines`] is the listener under it, shared with the cluster
//! coordinator's front-end.

pub mod cache;
pub mod client;
pub mod portfolio;
pub mod proto;
pub mod service;
pub mod solver;
pub mod stats;
pub mod tcp;
pub mod warm;

pub use client::{Client, ClientError, ClientReply};
pub use portfolio::{
    descended_net, solve_portfolio, Arm, PortfolioCounters, PortfolioOutcome, PortfolioPolicy,
};
pub use service::{
    heuristic_best, PendingSolve, ServeConfig, ServeError, Service, SolveRequest, SolveResponse,
};
pub use solver::{
    entry_cost, probe_features, solve_cached, CachedDp, Degrade, DpCache, InstanceFeatures,
    ReprCounts, ReprPolicy, SolveOutcome, SolverOptions,
};
pub use stats::{
    ArmReport, CacheReport, EngineUsed, HealthReply, PortfolioReport, ReprReport, RequestStats,
    ServeHistograms, ServeMetrics, ServiceReport, StoreReport,
};
pub use tcp::{serve_lines, serve_tcp, TcpHandle};
pub use warm::WarmTier;
