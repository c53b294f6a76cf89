//! One registered worker: address, health state, pooled connection, and
//! per-worker counters.

use crate::ring::worker_seed;
use pcmax_obs::{Counter, Histogram};
use pcmax_serve::Client;
use std::net::SocketAddr;
use std::sync::Mutex;

/// A worker's warm-store digest: `(hash, seq)` per entry.
pub type DigestEntries = Vec<(u64, u64)>;

/// Health state of a worker, driven by heartbeats and by transport
/// failures observed on the solve path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerState {
    /// Whether the ring currently routes to this worker.
    pub up: bool,
    /// Consecutive missed heartbeats / transport failures. Reset to 0 by
    /// any successful round-trip.
    pub missed_beats: u32,
    /// Memory pressure the worker last reported over its `health` verb
    /// (DP-cache bytes as a percentage of its budget, clamped to 100).
    /// 0 until the first heartbeat answers.
    pub pressure_pct: u64,
    /// Queue depth the worker last reported over `health`.
    pub queue_depth: u64,
    /// Live warm-log entry count from the last heartbeat.
    pub warm_entries: u64,
    /// Warm-log high-water sequence number from the last heartbeat.
    /// The warmsync engine compares it against the cached digest's seq
    /// to skip digest round-trips for unchanged workers.
    pub warm_seq: u64,
}

/// Per-worker counters, aggregated into the cluster report.
#[derive(Debug, Default)]
pub struct WorkerCounters {
    /// Solve attempts routed at this worker (including retries).
    pub attempts: Counter,
    /// Requests this worker answered with an `ok` line.
    pub ok: Counter,
    /// Server `err` lines (overloaded, shutting down, …).
    pub server_errors: Counter,
    /// Transport failures (connect/send/recv) against this worker.
    pub transport_errors: Counter,
    /// Requests this worker served after a failover from a
    /// higher-ranked worker.
    pub failover_serves: Counter,
    /// End-to-end coordinator-side latency of requests this worker
    /// served, in µs (recorded only while `pcmax_obs` is enabled).
    pub latency_us: Histogram,
}

/// A registered worker node.
pub struct WorkerNode {
    /// Operator-facing identifier (also the rendezvous identity).
    pub id: String,
    /// The worker's `pcmax serve` TCP endpoint.
    pub addr: SocketAddr,
    /// Rendezvous seed, derived from `id` once at registration.
    pub seed: u64,
    /// Health state (heartbeat- and solve-path-driven).
    pub state: Mutex<WorkerState>,
    /// Pooled line-protocol connection. One in-flight request at a time
    /// (the protocol is strict request/response); concurrent requests to
    /// the same worker serialise on this mutex. `None` until first use
    /// and after any transport failure.
    pub conn: Mutex<Option<Client>>,
    /// Cached `warm-digest` reply as `(warm_seq_at_fetch, (hash, seq))`.
    /// Valid while the worker's heartbeat-reported `warm_seq` matches
    /// the cached one, so unchanged workers cost no digest round-trip.
    pub digest_cache: Mutex<Option<(u64, DigestEntries)>>,
    /// Telemetry.
    pub counters: WorkerCounters,
}

impl WorkerNode {
    /// A freshly registered worker, assumed up until proven otherwise.
    pub fn new(id: &str, addr: SocketAddr) -> Self {
        Self {
            id: id.to_string(),
            addr,
            seed: worker_seed(id),
            state: Mutex::new(WorkerState {
                up: true,
                missed_beats: 0,
                pressure_pct: 0,
                queue_depth: 0,
                warm_entries: 0,
                warm_seq: 0,
            }),
            conn: Mutex::new(None),
            digest_cache: Mutex::new(None),
            counters: WorkerCounters::default(),
        }
    }

    /// Whether the ring currently routes to this worker.
    pub fn is_up(&self) -> bool {
        self.state.lock().expect("worker state poisoned").up
    }

    /// Snapshot of the health state.
    pub fn state(&self) -> WorkerState {
        *self.state.lock().expect("worker state poisoned")
    }

    /// Memory pressure from the last answered heartbeat.
    pub fn pressure_pct(&self) -> u64 {
        self.state.lock().expect("worker state poisoned").pressure_pct
    }

    /// Records the pressure a heartbeat reply carried.
    pub fn set_pressure(&self, pressure_pct: u64) {
        self.state.lock().expect("worker state poisoned").pressure_pct = pressure_pct;
    }

    /// Records everything a heartbeat `health` reply carried.
    pub fn set_health(&self, reply: &pcmax_serve::HealthReply) {
        let mut state = self.state.lock().expect("worker state poisoned");
        state.pressure_pct = reply.pressure_pct;
        state.queue_depth = reply.queue_depth;
        state.warm_entries = reply.warm_entries;
        state.warm_seq = reply.warm_seq;
    }

    /// Warm-log high-water seq from the last heartbeat.
    pub fn warm_seq(&self) -> u64 {
        self.state.lock().expect("worker state poisoned").warm_seq
    }

    /// Drops the pooled connection (after a transport failure).
    pub fn drop_conn(&self) {
        *self.conn.lock().expect("worker conn poisoned") = None;
    }
}
