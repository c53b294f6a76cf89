//! TCP front-end over a [`Coordinator`], speaking the same line
//! protocol as `pcmax serve` — a cluster is a drop-in replacement for a
//! single worker from the client's point of view.
//!
//! The listener is `pcmax_serve::tcp::serve_lines`, the same one a
//! worker runs; this module is only the coordinator's verb dispatch.
//! `stats` answers with the aggregated [`crate::ClusterReport`] JSON
//! instead of a single service's report.

use crate::coordinator::Coordinator;
use pcmax_serve::proto::{self, Request};
use pcmax_serve::{serve_lines, HealthReply, TcpHandle};
use std::net::ToSocketAddrs;
use std::sync::Arc;

/// A running cluster front-end: the worker's [`TcpHandle`]. Dropping it
/// does NOT stop the listener; call [`TcpHandle::shutdown`].
pub type ClusterTcpHandle = TcpHandle;

/// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serves
/// the line protocol against `coordinator` until
/// [`TcpHandle::shutdown`].
pub fn serve_cluster_tcp(
    coordinator: Arc<Coordinator>,
    addr: impl ToSocketAddrs,
) -> std::io::Result<ClusterTcpHandle> {
    let io_timeout = Some(coordinator.config().io_timeout);
    serve_lines(addr, io_timeout, move |line| dispatch(&coordinator, line))
}

fn dispatch(coordinator: &Coordinator, line: &str) -> String {
    match proto::parse_request(line) {
        Ok(Request::Ping) => "pong".to_string(),
        Ok(Request::Stats) => format!("stats {}", coordinator.report().to_json()),
        Ok(Request::Health) => proto::format_health(&HealthReply {
            uptime_us: coordinator.uptime().as_micros() as u64,
            // The coordinator holds no queue, cache, byte budget, or
            // warm log of its own; those live in the workers (see
            // `stats`).
            queue_depth: 0,
            cache_entries: 0,
            pressure_pct: 0,
            warm_entries: 0,
            warm_seq: 0,
        }),
        Ok(Request::Solve(req)) => match coordinator.solve(req) {
            Ok(reply) => proto::format_response(&reply.response),
            Err(e) => proto::format_error(&e.to_string()),
        },
        // Warm state is worker-local; the coordinator relays it
        // internally but does not serve it. The `invalid request`
        // prefix tells routers not to retry elsewhere.
        Ok(Request::WarmDigest | Request::WarmPull { .. } | Request::WarmPush { .. }) => {
            proto::format_error("invalid request: warm verbs address a worker, not the coordinator")
        }
        Err(e) => proto::format_error(&e),
    }
}
