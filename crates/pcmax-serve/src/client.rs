//! Blocking line-protocol client for the TCP front-end.

use crate::proto;
use crate::service::SolveRequest;
use crate::stats::{EngineUsed, HealthReply};
use crate::tcp::{configure_stream, read_line};
use pcmax_core::{Instance, Schedule};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a request failed, split the way a router needs it: transport
/// failures mean the *worker* is suspect (fail over), server `err`
/// lines mean the *request* was answered — just negatively (retry or
/// propagate, the connection is still good).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The TCP transport failed (connect, send, recv, or a
    /// protocol-garbage reply). The connection is unusable.
    Transport(String),
    /// The server answered with an `err` line (overloaded, invalid,
    /// shutting down). The connection keeps working.
    Server(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(msg) | ClientError::Server(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ClientError {}

/// One solved request, client-side.
#[derive(Debug, Clone)]
pub struct ClientReply {
    /// Achieved makespan (as reported by the server).
    pub makespan: u64,
    /// Converged target (absent for degraded answers).
    pub target: Option<u64>,
    /// Algorithm that produced the schedule.
    pub engine: EngineUsed,
    /// Whether the answer was degraded to a heuristic.
    pub degraded: bool,
    /// DP cache hits for this request.
    pub cache_hits: u64,
    /// DP cache misses for this request.
    pub cache_misses: u64,
    /// Queue wait in microseconds.
    pub queue_wait_us: u64,
    /// Solve time in microseconds.
    pub solve_us: u64,
    /// Certified bound of the arm that answered:
    /// `makespan ≤ (num/den)·OPT + slack`.
    pub guarantee: pcmax_core::Guarantee,
    /// A-posteriori achieved-vs-lower-bound gap in parts per million.
    pub gap_ppm: u64,
    /// The schedule, rebuilt from the wire assignment.
    pub schedule: Schedule,
}

/// A connected client. One in-flight request at a time (the protocol is
/// strictly request/response per line).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Reply line buffer, reused across calls.
    buf: Vec<u8>,
}

impl Client {
    /// Connects to a running [`crate::serve_tcp`] endpoint.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::from_stream(TcpStream::connect(addr)?, None)
    }

    /// Connects with a bound on the TCP handshake, and applies the same
    /// bound as the initial read/write timeout — so a dead or hung peer
    /// costs at most `timeout`, never a wedged thread. The cluster
    /// router's connect path.
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        Self::from_stream(TcpStream::connect_timeout(addr, timeout)?, Some(timeout))
    }

    fn from_stream(stream: TcpStream, io_timeout: Option<Duration>) -> std::io::Result<Self> {
        configure_stream(&stream, io_timeout)?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            buf: Vec::new(),
        })
    }

    /// Sets (or clears) the read/write timeout on the underlying stream.
    pub fn set_io_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        let stream = self.reader.get_ref();
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)
    }

    /// One request/reply round trip: sends `line`, reads one reply line
    /// and decodes it with `parse`. A reply that fails to decode is a
    /// [`ClientError::Server`] when its first word is exactly `err` (the
    /// server answered, the connection is fine) and a transport failure
    /// otherwise (the peer speaks garbage; drop the connection). So is a
    /// reply over [`crate::tcp::MAX_LINE_BYTES`].
    fn call<T>(
        &mut self,
        line: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<T, ClientError> {
        let transport = |stage: &str| {
            let stage = stage.to_string();
            move |e: std::io::Error| ClientError::Transport(format!("{stage}: {e}"))
        };
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(transport("send"))?;
        let Some(reply) = read_line(&mut self.reader, &mut self.buf).map_err(transport("recv"))?
        else {
            return Err(ClientError::Transport(
                "server closed the connection".into(),
            ));
        };
        let reply = reply.trim_end();
        parse(reply).map_err(|msg| {
            if reply.split_whitespace().next() == Some("err") {
                ClientError::Server(msg)
            } else {
                ClientError::Transport(format!("protocol: {msg}"))
            }
        })
    }

    /// Solves `inst` remotely. `Err` carries the server's message for
    /// rejected requests (overload, invalid) or transport failures.
    pub fn solve(
        &mut self,
        inst: &Instance,
        epsilon: Option<f64>,
        deadline: Option<Duration>,
    ) -> Result<ClientReply, String> {
        self.solve_detailed(inst, epsilon, deadline)
            .map_err(|e| e.to_string())
    }

    /// [`Client::solve`] with the failure mode preserved: transport
    /// errors (fail over to another worker) vs server `err` lines
    /// (the connection still works).
    pub fn solve_detailed(
        &mut self,
        inst: &Instance,
        epsilon: Option<f64>,
        deadline: Option<Duration>,
    ) -> Result<ClientReply, ClientError> {
        let line = proto::format_solve_request(&SolveRequest {
            instance: inst.clone(),
            epsilon,
            deadline,
        });
        let reply = self.call(&line, |reply| {
            let reply = proto::parse_response(reply)?;
            if reply.assignment.len() != inst.num_jobs() {
                return Err(format!(
                    "assignment covers {} jobs, instance has {}",
                    reply.assignment.len(),
                    inst.num_jobs()
                ));
            }
            Ok(reply)
        })?;
        Ok(ClientReply {
            makespan: reply.makespan,
            target: reply.target,
            engine: reply.engine,
            degraded: reply.degraded,
            cache_hits: reply.cache_hits,
            cache_misses: reply.cache_misses,
            queue_wait_us: reply.queue_wait_us,
            solve_us: reply.solve_us,
            guarantee: reply.guarantee,
            gap_ppm: reply.gap_ppm,
            schedule: Schedule::new(reply.assignment, inst.machines()),
        })
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), String> {
        self.call("ping", |reply| match reply {
            "pong" => Ok(()),
            other => Err(format!("unexpected ping reply `{other}`")),
        })
        .map_err(|e| e.to_string())
    }

    /// Liveness/load snapshot — the cluster heartbeat's round-trip.
    pub fn health(&mut self) -> Result<HealthReply, ClientError> {
        self.call("health", proto::parse_health_response)
    }

    /// Digest of the worker's warm log: high-water sequence number plus
    /// a `(key_hash, seq)` pair per live entry. The coordinator's
    /// rebalance planner diffs this against ownership to decide what to
    /// pull.
    pub fn warm_digest(&mut self) -> Result<pcmax_warmsync::WarmDigest, ClientError> {
        self.call("warm-digest", proto::parse_warm_digest_reply)
    }

    /// Pulls the warm entries with `seq > since_seq` whose key hash falls
    /// in `lo..=hi`, checksums re-verified on receipt.
    pub fn warm_pull(
        &mut self,
        since_seq: u64,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<pcmax_warmsync::ShipEntry>, ClientError> {
        let line = proto::format_warm_pull_request(since_seq, lo, hi);
        self.call(&line, proto::parse_warm_pull_reply)
    }

    /// Ships `entries` into the peer's warm log. Returns
    /// `(accepted, rejected)` — rejects are per-entry (bad checksum or
    /// undecodable payload), never a whole-push failure.
    pub fn warm_push(
        &mut self,
        entries: &[pcmax_warmsync::ShipEntry],
    ) -> Result<(u64, u64), ClientError> {
        let line = proto::format_warm_entries("warm-push", entries);
        self.call(&line, proto::parse_warm_push_reply)
    }

    /// Raw `stats …` line from the server.
    pub fn stats_line(&mut self) -> Result<String, String> {
        self.call("stats", |reply| {
            if reply.starts_with("stats ") {
                Ok(reply.to_string())
            } else {
                Err(format!("unexpected stats reply `{reply}`"))
            }
        })
        .map_err(|e| e.to_string())
    }

    /// The server's stats snapshot as its JSON payload (the `stats `
    /// prefix stripped).
    pub fn stats_json(&mut self) -> Result<String, String> {
        let line = self.stats_line()?;
        let json = line["stats ".len()..].to_string();
        if json.starts_with('{') && json.ends_with('}') {
            Ok(json)
        } else {
            Err(format!("stats payload is not a JSON object: `{json}`"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Request;
    use crate::tcp::{serve_lines, MAX_LINE_BYTES};
    use pcmax_warmsync::ShipEntry;
    use std::net::TcpListener;
    use std::sync::{Arc, Mutex};

    #[test]
    fn stream_setup_turns_nagle_off_on_accepted_and_client_streams() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(listener.local_addr().unwrap()).unwrap();
        assert!(client.writer.nodelay().unwrap());
        let (accepted, _) = listener.accept().unwrap();
        assert!(
            !accepted.nodelay().unwrap(),
            "premise: Nagle is on by default"
        );
        configure_stream(&accepted, None).unwrap();
        assert!(accepted.nodelay().unwrap());
    }

    #[test]
    fn an_over_long_reply_is_a_transport_error() {
        let server = serve_lines("127.0.0.1:0", None, |_| "x".repeat(MAX_LINE_BYTES + 1)).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let err = client.health().unwrap_err();
        let expected = format!("recv: line exceeds {MAX_LINE_BYTES} bytes");
        assert_eq!(err, ClientError::Transport(expected));
        drop(client);
        server.shutdown();
    }

    #[test]
    fn a_warm_frame_just_under_the_cap_round_trips() {
        // A fake peer that keeps the pushed tokens and serves them back
        // as its `warm-pull` reply, so both directions carry the frame.
        let held = Arc::new(Mutex::new((0, Vec::<String>::new())));
        let peer = Arc::clone(&held);
        let server = serve_lines("127.0.0.1:0", None, move |line| {
            let (frame, tokens) = &mut *peer.lock().unwrap();
            match proto::parse_request(line) {
                Ok(Request::WarmPush { tokens: pushed }) => {
                    (*frame, *tokens) = (line.len(), pushed);
                    proto::format_warm_push_reply(tokens.len() as u64, 0)
                }
                Ok(Request::WarmPull { .. }) => {
                    format!("warm-pull {} {}", tokens.len(), tokens.join(" "))
                }
                _ => proto::format_error("unexpected request"),
            }
        })
        .unwrap();
        let entry = ShipEntry {
            seq: 7,
            key: b"key".to_vec(),
            value: vec![0xa5; (MAX_LINE_BYTES - 256) / 2],
        };
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert_eq!(client.warm_push(std::slice::from_ref(&entry)), Ok((1, 0)));
        let frame = held.lock().unwrap().0;
        assert!(
            (MAX_LINE_BYTES - 256..=MAX_LINE_BYTES).contains(&frame),
            "{frame}"
        );
        assert_eq!(client.warm_pull(0, 0, u64::MAX), Ok(vec![entry]));
        drop(client);
        server.shutdown();
    }

    #[test]
    fn only_an_exact_err_verb_is_a_server_error() {
        let inst = Instance::new(vec![3, 4], 2);
        // `errors` is not the `err` verb: a peer sending it speaks
        // garbage, so a router must drop the connection, not keep it as
        // if the server had rejected the request.
        for (reply, server_error) in [("err queue full", true), ("errors 1 2", false)] {
            let server = serve_lines("127.0.0.1:0", None, move |_| reply.to_string()).unwrap();
            let mut client = Client::connect(server.local_addr()).unwrap();
            let expected = |e: &ClientError| match e {
                ClientError::Server(msg) => server_error && msg == "queue full",
                ClientError::Transport(msg) => !server_error && msg.starts_with("protocol: "),
            };
            assert!(client.health().is_err_and(|e| expected(&e)), "{reply}");
            assert!(client.warm_digest().is_err_and(|e| expected(&e)), "{reply}");
            let solved = client.solve_detailed(&inst, None, None);
            assert!(solved.is_err_and(|e| expected(&e)), "{reply}");
            server.shutdown();
        }
    }
}
