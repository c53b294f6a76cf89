//! The line server: the one TCP listener behind both `pcmax serve`
//! ([`serve_tcp`], over a [`Service`]) and the cluster coordinator's
//! front-end (`pcmax_cluster::serve_cluster_tcp`).
//!
//! `std::net` only — one accept thread plus one detached thread per
//! connection. [`serve_lines`] owns the mechanics (bind, accept, stream
//! setup, per-connection line loop, shutdown); a front-end supplies
//! only a line handler mapping one request line to one reply line. The
//! service itself does the queueing and load-shedding, so connection
//! threads are mostly parked in `recv` waiting for their responses.
//!
//! Both ends of the protocol share two rules: every stream goes through
//! `configure_stream` (Nagle off, io timeouts), and every line is read
//! by `read_line` under the 64 MiB `MAX_LINE_BYTES`.

use crate::proto::{self, Request};
use crate::service::Service;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest line either end of the protocol reads, in bytes, newline
/// excluded. The largest frame the protocol sends is a `warm-pull`
/// reply, which is not paged: it carries every warm entry in the pulled
/// hash range. What a worker holds for its peers is bounded by the
/// replica budget (16 MiB of key and value bytes by default). Hex
/// doubles that to 32 MiB on the wire, and each entry token adds at most
/// 44 bytes of sequence number, checksum and separators, so four times
/// the budget admits a full budget of entries of 22 bytes or more. A
/// worker's own entries are not charged to that budget, so a pull over a
/// range it computed more than that of still fails: as one over-long
/// line, instead of growing a buffer without bound.
pub(crate) const MAX_LINE_BYTES: usize = 64 << 20;

/// The setup every protocol stream gets, accepted or opened: Nagle off,
/// so a short request or reply line leaves at once instead of waiting
/// for the ACK of the previous one, and `io_timeout` on reads and
/// writes.
pub(crate) fn configure_stream(stream: &TcpStream, io_timeout: Option<Duration>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(io_timeout)?;
    stream.set_write_timeout(io_timeout)
}

/// Reads one line into `buf`, replacing its contents, and returns it
/// without its `\n` or `\r\n`; `None` at the end of the stream. A line
/// longer than [`MAX_LINE_BYTES`] is an [`io::ErrorKind::InvalidData`]
/// error after reading at most one byte past the cap; so is a line that
/// is not UTF-8.
pub(crate) fn read_line<'a>(
    reader: &mut impl BufRead,
    buf: &'a mut Vec<u8>,
) -> io::Result<Option<&'a str>> {
    buf.clear();
    // A buffer grown by one large frame is not kept for the life of the
    // connection.
    buf.shrink_to(64 << 10);
    // One byte more than the cap: room for the newline of a full line.
    let limit = MAX_LINE_BYTES as u64 + 1;
    if (&mut *reader).take(limit).read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_LINE_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("line exceeds {MAX_LINE_BYTES} bytes"),
        ));
    }
    std::str::from_utf8(buf)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

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
/// drops the connection. Every stream also has Nagle off, and a line
/// over 64 MiB gets one `err` reply before the connection closes,
/// unread input and all.
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
                if configure_stream(&stream, io_timeout).is_err() {
                    continue;
                }
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
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        let (mut reply, last) = match read_line(&mut reader, &mut buf) {
            Ok(None) => break,
            Ok(Some(line)) if line.trim().is_empty() => continue,
            Ok(Some(line)) => (handler(line), false),
            // Over-long or not UTF-8: the rest of the line is not read.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                (proto::format_error(&e.to_string()), true)
            }
            Err(_) => break,
        };
        reply.push('\n');
        if writer.write_all(reply.as_bytes()).is_err() || last {
            break;
        }
    }
    // FIN before the socket closes, so the peer reads any `err` reply
    // and then end of stream.
    let _ = writer.shutdown(Shutdown::Write);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use std::io::Cursor;

    #[test]
    fn read_line_strips_either_line_ending_and_keeps_a_final_unterminated_line() {
        let mut reader = Cursor::new(b"ping\r\nstats\n\nhealth".to_vec());
        let mut buf = Vec::new();
        let mut lines = Vec::new();
        while let Some(line) = read_line(&mut reader, &mut buf).unwrap() {
            lines.push(line.to_string());
        }
        assert_eq!(lines, ["ping", "stats", "", "health"]);
        let mut reader = Cursor::new(b"\xff\n".to_vec());
        let err = read_line(&mut reader, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn an_over_long_line_gets_one_err_then_end_of_stream_and_the_server_lives_on() {
        let server = serve_lines("127.0.0.1:0", None, |_| "pong".to_string()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // One byte past the cap, then a request the server must never
        // read. The writer runs apart: the server stops reading mid-way,
        // so the tail of this write may fail.
        let mut writer = stream.try_clone().unwrap();
        let sender = std::thread::spawn(move || {
            let mut frame = vec![b'x'; MAX_LINE_BYTES + 1];
            frame.extend_from_slice(b"\nping\n");
            let _ = writer.write_all(&frame);
        });
        let mut replies = String::new();
        stream.read_to_string(&mut replies).unwrap();
        assert_eq!(
            replies,
            format!("err line exceeds {MAX_LINE_BYTES} bytes\n")
        );
        sender.join().unwrap();

        let mut client = Client::connect(server.local_addr()).unwrap();
        client.ping().unwrap();
        drop(client);
        server.shutdown();
    }
}
