//! Cluster-wide telemetry: coordinator counters, per-worker reports,
//! and the aggregated JSON `stats` view.

use crate::worker::WorkerNode;
use pcmax_obs::{Counter, Histogram, HistogramSnapshot, JsonWriter};

/// Live coordinator counters and histograms. Counters record
/// unconditionally (they are the cluster's source of truth); histograms
/// follow the workspace convention and fill only while `pcmax_obs`
/// recording is enabled.
#[derive(Debug, Default)]
pub struct ClusterStats {
    /// Requests accepted for routing.
    pub routed: Counter,
    /// Requests answered (remote or local, solved or degraded).
    pub completed: Counter,
    /// Answers a *worker* degraded to a heuristic (deadline/table).
    pub degraded_remote: Counter,
    /// Answers the *coordinator* produced locally after exhausting the
    /// ring — the bottom of the degradation ladder.
    pub degraded_local: Counter,
    /// Times the router moved past a worker to the next ring node.
    pub failovers: Counter,
    /// Extra attempts on the same worker (bounded retry).
    pub retries: Counter,
    /// Transport failures observed on the solve path.
    pub transport_errors: Counter,
    /// Requests rejected as invalid before routing.
    pub invalid: Counter,
    /// Sum of per-request DP cache hits reported by workers.
    pub dp_cache_hits: Counter,
    /// Sum of per-request DP cache misses reported by workers.
    pub dp_cache_misses: Counter,
    /// Successful heartbeat round-trips.
    pub heartbeats_ok: Counter,
    /// Heartbeats that failed (connect or health round-trip).
    pub heartbeats_missed: Counter,
    /// Up→down transitions (after `max_missed_beats`).
    pub marked_down: Counter,
    /// Down→up transitions (worker answered again).
    pub marked_up: Counter,
    /// Warm entries shipped to replicas/new owners (warmsync pushes).
    pub warm_entries_shipped: Counter,
    /// Bytes of warm payload shipped (key + value, pre-hex).
    pub warm_bytes_shipped: Counter,
    /// Warm entries pulled from donors (warmsync pulls).
    pub warm_entries_pulled: Counter,
    /// Bytes of warm payload pulled (key + value, pre-hex).
    pub warm_bytes_pulled: Counter,
    /// Entries a receiving worker rejected on push (checksum/decode).
    pub warm_push_rejected: Counter,
    /// Warmsync rounds that saw the live set change.
    pub rebalance_events: Counter,
    /// End-to-end coordinator-side request latency, in µs.
    pub latency_us: Histogram,
    /// Latency of one warm-push batch to one worker, in µs.
    pub ship_us: Histogram,
    /// Latency of one warm-pull batch from one worker, in µs.
    pub pull_us: Histogram,
}

/// Point-in-time state of one worker, inside [`ClusterReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerReport {
    /// Worker identifier.
    pub id: String,
    /// Worker address, as text.
    pub addr: String,
    /// Whether the ring currently routes to it.
    pub up: bool,
    /// Consecutive missed beats.
    pub missed_beats: u32,
    /// Memory pressure it last reported over `health` (percent of its
    /// cache byte budget).
    pub pressure_pct: u64,
    /// Live warm-log entries it last reported over `health`.
    pub warm_entries: u64,
    /// Warm-log high-water seq it last reported over `health`.
    pub warm_seq: u64,
    /// Solve attempts routed at it (including retries).
    pub attempts: u64,
    /// Requests it answered ok.
    pub ok: u64,
    /// Server `err` lines it returned.
    pub server_errors: u64,
    /// Transport failures against it.
    pub transport_errors: u64,
    /// Requests it served after a failover.
    pub failover_serves: u64,
    /// Latency histogram of requests it served.
    pub latency_us: HistogramSnapshot,
}

impl WorkerReport {
    /// Snapshots `worker` (state + counters).
    pub fn of(worker: &WorkerNode) -> Self {
        let state = worker.state();
        let c = &worker.counters;
        Self {
            id: worker.id.clone(),
            addr: worker.addr.to_string(),
            up: state.up,
            missed_beats: state.missed_beats,
            pressure_pct: state.pressure_pct,
            warm_entries: state.warm_entries,
            warm_seq: state.warm_seq,
            attempts: c.attempts.get(),
            ok: c.ok.get(),
            server_errors: c.server_errors.get(),
            transport_errors: c.transport_errors.get(),
            failover_serves: c.failover_serves.get(),
            latency_us: c.latency_us.snapshot(),
        }
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object()
            .field_str("id", &self.id)
            .field_str("addr", &self.addr)
            .field_str("state", if self.up { "up" } else { "down" })
            .field_u64("missed_beats", self.missed_beats as u64)
            .field_u64("pressure_pct", self.pressure_pct)
            .field_u64("warm_entries", self.warm_entries)
            .field_u64("warm_seq", self.warm_seq)
            .field_u64("attempts", self.attempts)
            .field_u64("ok", self.ok)
            .field_u64("server_errors", self.server_errors)
            .field_u64("transport_errors", self.transport_errors)
            .field_u64("failover_serves", self.failover_serves)
            .key("latency_us");
        self.latency_us.write_json(w);
        w.end_object();
    }
}

/// Point-in-time cluster snapshot: coordinator totals plus one
/// [`WorkerReport`] per registered worker. The payload of the cluster
/// front-end's `stats` verb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterReport {
    /// Microseconds since the coordinator started.
    pub uptime_us: u64,
    /// Requests accepted for routing.
    pub routed: u64,
    /// Requests answered (remote or local).
    pub completed: u64,
    /// Worker-degraded answers.
    pub degraded_remote: u64,
    /// Coordinator-local degraded answers.
    pub degraded_local: u64,
    /// Failover hops taken.
    pub failovers: u64,
    /// Same-worker retries taken.
    pub retries: u64,
    /// Solve-path transport failures.
    pub transport_errors: u64,
    /// Invalid requests rejected.
    pub invalid: u64,
    /// Aggregated per-request DP cache hits.
    pub dp_cache_hits: u64,
    /// Aggregated per-request DP cache misses.
    pub dp_cache_misses: u64,
    /// Successful heartbeats.
    pub heartbeats_ok: u64,
    /// Missed heartbeats.
    pub heartbeats_missed: u64,
    /// Up→down transitions.
    pub marked_down: u64,
    /// Down→up transitions.
    pub marked_up: u64,
    /// Warm entries shipped to replicas/new owners.
    pub warm_entries_shipped: u64,
    /// Warm payload bytes shipped.
    pub warm_bytes_shipped: u64,
    /// Warm entries pulled from donors.
    pub warm_entries_pulled: u64,
    /// Warm payload bytes pulled.
    pub warm_bytes_pulled: u64,
    /// Entries rejected by receiving workers on push.
    pub warm_push_rejected: u64,
    /// Warmsync rounds that saw the live set change.
    pub rebalance_events: u64,
    /// End-to-end latency histogram.
    pub latency_us: HistogramSnapshot,
    /// Warm-push batch latency histogram, in µs.
    pub ship_us: HistogramSnapshot,
    /// Warm-pull batch latency histogram, in µs.
    pub pull_us: HistogramSnapshot,
    /// Per-worker state and counters.
    pub workers: Vec<WorkerReport>,
}

impl ClusterReport {
    /// The report as one JSON object.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object()
            .field_u64("uptime_us", self.uptime_us)
            .field_u64("routed", self.routed)
            .field_u64("completed", self.completed)
            .field_u64("degraded_remote", self.degraded_remote)
            .field_u64("degraded_local", self.degraded_local)
            .field_u64("failovers", self.failovers)
            .field_u64("retries", self.retries)
            .field_u64("transport_errors", self.transport_errors)
            .field_u64("invalid", self.invalid)
            .key("dp_cache")
            .begin_object()
            .field_u64("hits", self.dp_cache_hits)
            .field_u64("misses", self.dp_cache_misses)
            .end_object()
            .key("health")
            .begin_object()
            .field_u64("heartbeats_ok", self.heartbeats_ok)
            .field_u64("heartbeats_missed", self.heartbeats_missed)
            .field_u64("marked_down", self.marked_down)
            .field_u64("marked_up", self.marked_up)
            .end_object()
            .key("warmsync")
            .begin_object()
            .field_u64("entries_shipped", self.warm_entries_shipped)
            .field_u64("bytes_shipped", self.warm_bytes_shipped)
            .field_u64("entries_pulled", self.warm_entries_pulled)
            .field_u64("bytes_pulled", self.warm_bytes_pulled)
            .field_u64("push_rejected", self.warm_push_rejected)
            .field_u64("rebalance_events", self.rebalance_events)
            .key("ship_us");
        self.ship_us.write_json(&mut w);
        w.key("pull_us");
        self.pull_us.write_json(&mut w);
        w.end_object().key("latency_us");
        self.latency_us.write_json(&mut w);
        w.key("workers").begin_array();
        for worker in &self.workers {
            worker.write_json(&mut w);
        }
        w.end_array().end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_carries_totals_and_workers() {
        let stats = ClusterStats::default();
        stats.routed.add(7);
        stats.completed.add(6);
        stats.failovers.add(2);
        let node = WorkerNode::new("w0", "127.0.0.1:7077".parse().unwrap());
        node.counters.attempts.add(5);
        node.counters.ok.add(4);
        let report = ClusterReport {
            uptime_us: 99,
            routed: stats.routed.get(),
            completed: stats.completed.get(),
            degraded_remote: 0,
            degraded_local: 1,
            failovers: stats.failovers.get(),
            retries: 0,
            transport_errors: 3,
            invalid: 0,
            dp_cache_hits: 11,
            dp_cache_misses: 2,
            heartbeats_ok: 10,
            heartbeats_missed: 1,
            marked_down: 1,
            marked_up: 0,
            warm_entries_shipped: 12,
            warm_bytes_shipped: 4096,
            warm_entries_pulled: 13,
            warm_bytes_pulled: 4200,
            warm_push_rejected: 1,
            rebalance_events: 2,
            latency_us: stats.latency_us.snapshot(),
            ship_us: stats.ship_us.snapshot(),
            pull_us: stats.pull_us.snapshot(),
            workers: vec![WorkerReport::of(&node)],
        };
        let json = report.to_json();
        assert!(json.contains("\"routed\":7"), "{json}");
        assert!(json.contains("\"failovers\":2"), "{json}");
        assert!(json.contains("\"degraded_local\":1"), "{json}");
        assert!(json.contains("\"dp_cache\":{\"hits\":11"), "{json}");
        assert!(json.contains("\"marked_down\":1"), "{json}");
        assert!(json.contains("\"warmsync\":{\"entries_shipped\":12"), "{json}");
        assert!(json.contains("\"rebalance_events\":2"), "{json}");
        assert!(json.contains("\"ship_us\""), "{json}");
        assert!(json.contains("\"pull_us\""), "{json}");
        assert!(json.contains("\"id\":\"w0\""), "{json}");
        assert!(json.contains("\"state\":\"up\""), "{json}");
        assert!(json.contains("\"pressure_pct\":0"), "{json}");
        assert!(json.contains("\"warm_seq\":0"), "{json}");
        assert!(json.contains("\"attempts\":5"), "{json}");
    }
}
