//! Sharded multi-worker serving for `P||Cmax`.
//!
//! A [`Coordinator`] fronts N `pcmax-serve` workers over the existing
//! TCP line protocol and gives the fleet three properties a single
//! worker cannot:
//!
//! * **Cache-affinity routing** — requests are canonicalised to a
//!   [`RouteKey`] (sorted, gcd-normalised times + `k = ⌈1/ε⌉`, mirroring
//!   the DP cache key one level up) and sharded by rendezvous hashing,
//!   so equivalent instances always land on the same worker and hit its
//!   warm DP cache. See [`ring`].
//! * **Health-checked membership** — workers join and leave at runtime;
//!   a background heartbeat polls the `health` verb and marks a worker
//!   down after `max_missed_beats` consecutive misses, up again on any
//!   success. Rendezvous hashing makes membership changes minimally
//!   disruptive: only the affected worker's keys remap.
//! * **Failover, never an error** — each request walks the degradation
//!   ladder *route → bounded retry (backoff + jitter) → failover to the
//!   next ring node → local LPT/MULTIFIT*. The bottom rung is an
//!   in-process heuristic, so a solvable instance always returns a valid
//!   schedule; transport problems are absorbed, not surfaced.
//!
//! * **Warm-state replication** — the warmsync engine ([`sync`]) rides
//!   the heartbeat: each round keeps every known warm key held by its
//!   top-`R` live rendezvous owners, relaying missing copies from a
//!   live holder. A joining worker therefore answers its first request
//!   for a previously-warm key from shipped state — no cold DP solve.
//!
//! [`serve_cluster_tcp`] exposes the coordinator over the same line
//! protocol — and the same listener, `pcmax_serve::serve_lines` — the
//! workers use (`stats` answers with the aggregated [`ClusterReport`]),
//! making a cluster a drop-in replacement for a single `pcmax serve`.
//! [`LocalCluster`] spins the whole topology up in one process for
//! tests and benchmarks.

pub mod coordinator;
pub mod front;
pub mod harness;
pub mod ring;
pub mod stats;
pub mod sync;
pub mod worker;

pub use coordinator::{ClusterConfig, ClusterError, ClusterReply, Coordinator};
pub use front::{serve_cluster_tcp, ClusterTcpHandle};
pub use harness::LocalCluster;
pub use ring::{rank_ids, rendezvous_score, worker_seed, RouteKey};
pub use stats::{ClusterReport, ClusterStats, WorkerReport};
pub use sync::SyncOutcome;
pub use worker::{WorkerCounters, WorkerNode, WorkerState};
