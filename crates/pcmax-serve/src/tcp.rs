//! The line server: the one TCP listener behind both `pcmax serve`
//! ([`serve_tcp`], over a [`Service`]) and the cluster coordinator's
//! front-end (`pcmax_cluster::serve_cluster_tcp`).
//!
//! `std::net` only — one accept thread plus one detached thread per
//! connection. [`serve_lines`] owns the mechanics (bind, accept, io
//! timeout, per-connection line loop, shutdown); a front-end supplies
//! only a line handler mapping one request line to one reply line. The
//! service itself does the queueing and load-shedding, so connection
//! threads are mostly parked in `recv` waiting for their responses.

use crate::proto::{self, Request};
use crate::service::Service;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running TCP front-end. Dropping it does NOT stop the listener; call
/// [`TcpHandle::shutdown`].
pub struct TcpHandle {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting connections and joins the accept thread. Already
    /// established connections finish their in-flight request and then
    /// fail on the next one (whatever serves them keeps running until
    /// its own shutdown).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and answers
/// every non-blank line of every connection with `handler(line)`, one
/// flushed reply line per request, until [`TcpHandle::shutdown`].
///
/// A hung or vanished peer must never wedge a connection thread: every
/// stream gets `io_timeout` for reads and writes, after which the thread
/// drops the connection.
pub fn serve_lines<H>(
    addr: impl ToSocketAddrs,
    io_timeout: Option<Duration>,
    handler: H,
) -> std::io::Result<TcpHandle>
where
    H: Fn(&str) -> String + Send + Sync + 'static,
{
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let handler = Arc::new(handler);
    let accept_thread = std::thread::Builder::new()
        .name("pcmax-accept".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let _ = stream.set_read_timeout(io_timeout);
                let _ = stream.set_write_timeout(io_timeout);
                let handler = Arc::clone(&handler);
                // Connection threads are detached: they exit when the
                // peer closes its end of the stream.
                let _ = std::thread::Builder::new()
                    .name("pcmax-conn".into())
                    .spawn(move || serve_connection(stream, &*handler));
            }
        })?;
    Ok(TcpHandle {
        local_addr,
        stop,
        accept_thread: Some(accept_thread),
    })
}

fn serve_connection(stream: TcpStream, handler: &dyn Fn(&str) -> String) {
    let Ok(peer) = stream.try_clone() else { return };
    let mut writer = BufWriter::new(peer);
    for line in BufReader::new(stream).lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        if writeln!(writer, "{}", handler(&line))
            .and_then(|_| writer.flush())
            .is_err()
        {
            break;
        }
    }
}

/// Binds `addr` and serves requests against `service` until
/// [`TcpHandle::shutdown`].
pub fn serve_tcp(service: Arc<Service>, addr: impl ToSocketAddrs) -> std::io::Result<TcpHandle> {
    let io_timeout = service.config().io_timeout;
    serve_lines(addr, io_timeout, move |line| dispatch(&service, line))
}

fn dispatch(service: &Service, line: &str) -> String {
    match proto::parse_request(line) {
        Ok(Request::Ping) => "pong".to_string(),
        Ok(Request::Stats) => proto::format_stats(&service.report()),
        Ok(Request::Health) => proto::format_health(&service.health()),
        Ok(Request::Solve(req)) => match service.solve_blocking(req) {
            Ok(response) => proto::format_response(&response),
            Err(e) => proto::format_error(&e.to_string()),
        },
        // Warm-state verbs are served inline on the connection thread:
        // they never enter the solve queue, so replication traffic can
        // not displace solve requests (and is invisible to `accepted`).
        Ok(Request::WarmDigest) => proto::format_warm_digest_reply(&service.warm_digest()),
        Ok(Request::WarmPull { since_seq, lo, hi }) => {
            proto::format_warm_entries("warm-pull", &service.warm_pull(since_seq, lo, hi))
        }
        Ok(Request::WarmPush { tokens }) => {
            let (accepted, rejected) = service.warm_apply(&tokens);
            proto::format_warm_push_reply(accepted, rejected)
        }
        Err(e) => proto::format_error(&e),
    }
}
