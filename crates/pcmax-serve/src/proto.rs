//! The line protocol spoken over TCP.
//!
//! One request per line, one response line per request — trivially
//! scriptable with `nc`. Fields are space-separated and positional; `-`
//! marks an absent optional field.
//!
//! Requests:
//!
//! ```text
//! solve <machines> <eps|-> <deadline_ms|-> <t1,t2,...,tn>
//! stats
//! health
//! ping
//! warm-digest
//! warm-pull <since_seq> <lo_hash> <hi_hash>
//! warm-push <n> <entry>…
//! ```
//!
//! Responses:
//!
//! ```text
//! ok <makespan> <target|-> <engine> <degraded 0|1> <hits> <misses> <wait_us> <solve_us> <num/den/slack> <gap_ppm> <a1,a2,...,an>
//! err <message>
//! pong
//! stats {"accepted":…,"completed":…,"degraded":…,"rejected":…,"cache":{…},"histograms":{…}}
//! health <uptime_us> <queue_depth> <cache_entries> <pressure_pct> <warm_entries> <warm_seq>
//! warm-digest <max_seq> <n> <hash:seq>…
//! warm-pull <n> <entry>…
//! warm-push <accepted> <rejected>
//! ```
//!
//! `health` is the heartbeat the cluster coordinator polls: cheap
//! (six counter reads, no queueing) and answered even when the solve
//! queue is saturated. `pressure_pct` is DP-cache residency against its
//! byte budget; the coordinator deprioritises pressured workers in its
//! failover order. `warm_entries`/`warm_seq` describe the worker's
//! warm log so the coordinator can pick rehydration donors without a
//! separate round trip. The reply is exactly six fields — workers and
//! coordinators ship from one tree, so there is no version tolerance.
//! For the same reason the `ok` line stays positional: `key=value`
//! tokens would only buy the tolerance that `health` no longer needs.
//!
//! The `warm-*` verbs are the warmsync shipping protocol (see
//! `pcmax-warmsync`): a digest inventories the warm log as
//! `(fnv1a(key), seq)` pairs, a pull streams the checksummed entries
//! above a seq watermark inside an inclusive key-hash range, and a push
//! delivers entries to a peer, which re-verifies every checksum and
//! answers with accepted/rejected counts. Entry tokens are
//! `seq:hexkey:hexval:checksum` ([`ShipEntry::to_token`]). These verbs
//! bypass the solve queue entirely — they touch only the warm log, so
//! replication never competes with, or is counted as, request traffic.
//!
//! The `stats` payload is one JSON object (see
//! [`ServiceReport::to_json`]); histograms carry non-zero data only
//! while `pcmax_obs` recording is enabled on the server.
//!
//! `num/den/slack` is the certified [`Guarantee`] of the arm that
//! answered — the claim `makespan ≤ (num/den)·OPT + slack` — so a
//! degraded reply carries the bound of the heuristic that actually ran,
//! not the PTAS's. `gap_ppm` is the a-posteriori achieved-vs-bound gap
//! `(makespan − LB)·10⁶ / LB` against the area/max lower bound — the
//! per-request quality figure the anytime improver drives down.
//! `a_j` is the machine index job `j` is assigned to.
//!
//! Every parser reads its tokens through one cursor, and every reply
//! parser strips its verb — or surfaces an `err` line — in one place.

use crate::service::{SolveRequest, SolveResponse};
use crate::stats::{EngineUsed, HealthReply, ServiceReport};
use pcmax_core::{Guarantee, Instance};
use pcmax_warmsync::frame::format_digest_entry;
use pcmax_warmsync::{parse_digest_entry, ShipEntry, WarmDigest};
use std::fmt::Display;
use std::str::{FromStr, SplitWhitespace};
use std::time::Duration;

/// A parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Solve an instance.
    Solve(SolveRequest),
    /// Snapshot the service counters.
    Stats,
    /// Liveness/load snapshot (the cluster heartbeat).
    Health,
    /// Liveness check.
    Ping,
    /// Inventory the warm log as `(key hash, seq)` pairs.
    WarmDigest,
    /// Stream warm entries above a seq watermark in a key-hash range.
    WarmPull {
        /// Only entries with seq strictly above this ship.
        since_seq: u64,
        /// Inclusive lower key-hash bound.
        lo: u64,
        /// Inclusive upper key-hash bound.
        hi: u64,
    },
    /// Deliver warm entries. Tokens are kept undecoded so the service
    /// can count per-entry checksum rejections instead of failing the
    /// whole push.
    WarmPush {
        /// Raw `seq:hexkey:hexval:checksum` entry tokens.
        tokens: Vec<String>,
    },
}

/// A cursor over one line's tokens (or one field's sub-tokens).
struct Cursor<I>(I);

fn words(line: &str) -> Cursor<SplitWhitespace<'_>> {
    Cursor(line.split_whitespace())
}

impl<'a, I: Iterator<Item = &'a str>> Cursor<I> {
    /// The next token; `name` labels the error if there is none.
    fn word(&mut self, name: &str) -> Result<&'a str, String> {
        self.0.next().ok_or_else(|| format!("missing {name}"))
    }

    /// The next token parsed as a `T`.
    fn num<T: FromStr>(&mut self, name: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.word(name)?
            .parse()
            .map_err(|e| format!("bad {name}: {e}"))
    }

    /// The next token parsed as a `T`, with `-` meaning absent.
    fn opt<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        match self.word(name)? {
            "-" => Ok(None),
            word => word
                .parse()
                .map(Some)
                .map_err(|e| format!("bad {name}: {e}")),
        }
    }

    /// Fails if any token is left after `what`.
    fn end(mut self, what: &str) -> Result<(), String> {
        match self.0.next() {
            None => Ok(()),
            Some(_) => Err(format!("trailing fields after {what}")),
        }
    }

    /// An entry count followed by exactly that many tokens, each decoded
    /// by `item`.
    fn counted<T>(
        mut self,
        what: &str,
        item: impl FnMut(&'a str) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let count: usize = self.num("entry count")?;
        let items = self.0.map(item).collect::<Result<Vec<_>, _>>()?;
        if items.len() != count {
            return Err(format!(
                "{what} count mismatch: header says {count}, got {}",
                items.len()
            ));
        }
        Ok(items)
    }
}

/// Parses one request line.
///
/// Every parse/validation failure is prefixed `invalid request: ` — the
/// cluster coordinator keys its degradation ladder on that prefix to
/// classify the error as *non-retryable* (the request itself is bad, so
/// retrying or failing over to another worker would just replay the
/// rejection across the fleet).
pub fn parse_request(line: &str) -> Result<Request, String> {
    parse_request_inner(line).map_err(|e| format!("invalid request: {e}"))
}

fn parse_request_inner(line: &str) -> Result<Request, String> {
    let mut words = words(line);
    match words.0.next() {
        Some("solve") => {
            let machines: usize = words.num("machine count")?;
            if machines == 0 {
                return Err("machine count must be positive".into());
            }
            let epsilon: Option<f64> = words.opt("epsilon")?;
            if let Some(eps) = epsilon {
                if !(eps > 0.0 && eps <= 1.0) {
                    return Err(format!("epsilon {eps} outside (0, 1]"));
                }
            }
            let deadline_ms: Option<u64> = words.opt("deadline")?;
            let times = words.word("processing times")?;
            words.end("processing times")?;
            // The overflow gate: `Instance::try_new` rejects empty/zero
            // shapes AND total work beyond u64::MAX, so a wrap-inducing
            // instance dies here as a protocol error instead of
            // producing a silently wrong schedule inside a worker.
            let instance = Instance::try_new(parse_list(times, "times")?, machines)
                .map_err(|e| e.to_string())?;
            Ok(Request::Solve(SolveRequest {
                instance,
                epsilon,
                deadline: deadline_ms.map(Duration::from_millis),
            }))
        }
        Some("stats") => Ok(Request::Stats),
        Some("health") => Ok(Request::Health),
        Some("ping") => Ok(Request::Ping),
        Some("warm-digest") => words.end("warm-digest").map(|()| Request::WarmDigest),
        Some("warm-pull") => {
            let since_seq = words.num("since_seq")?;
            let lo = words.num("lo_hash")?;
            let hi = words.num("hi_hash")?;
            words.end("warm-pull")?;
            if lo > hi {
                return Err(format!("empty warm-pull hash range {lo}..{hi}"));
            }
            Ok(Request::WarmPull { since_seq, lo, hi })
        }
        Some("warm-push") => Ok(Request::WarmPush {
            tokens: words.counted("warm-push", |token| Ok(token.to_string()))?,
        }),
        Some(other) => Err(format!("unknown command `{other}`")),
        None => Err("empty request".into()),
    }
}

/// The tokens after a reply's verb when the reply is a `verb` line;
/// otherwise the error to surface: the server's own message for an
/// `err <message>` line, else what was unexpected about the reply.
fn reply_body<'a>(line: &'a str, verb: &str) -> Result<Cursor<SplitWhitespace<'a>>, String> {
    let mut words = words(line);
    match words.0.next() {
        Some(first) if first == verb => Ok(words),
        Some("err") => {
            let message = line.trim_start()["err".len()..].trim_start();
            Err(if message.is_empty() {
                "unspecified server error".to_string()
            } else {
                message.to_string()
            })
        }
        Some(other) => Err(format!("unexpected {verb} reply `{other}`")),
        None => Err(format!("empty {verb} reply")),
    }
}

/// Formats a solve request (the client side of [`parse_request`]).
pub fn format_solve_request(req: &SolveRequest) -> String {
    format!(
        "solve {} {} {} {}",
        req.instance.machines(),
        req.epsilon.map_or("-".to_string(), |e| e.to_string()),
        req.deadline
            .map_or("-".to_string(), |d| d.as_millis().to_string()),
        join(req.instance.times()),
    )
}

/// Formats the `ok …` line for a solved request.
pub fn format_response(res: &SolveResponse) -> String {
    format!(
        "ok {} {} {} {} {} {} {} {} {}/{}/{} {} {}",
        res.makespan,
        res.target.map_or("-".to_string(), |t| t.to_string()),
        res.stats.engine,
        u8::from(res.degraded),
        res.stats.cache_hits,
        res.stats.cache_misses,
        res.stats.queue_wait_us,
        res.stats.solve_us,
        res.stats.guarantee.num,
        res.stats.guarantee.den,
        res.stats.guarantee.slack,
        res.stats.gap_ppm,
        join(res.schedule.assignment()),
    )
}

/// Formats the `err …` line.
pub fn format_error(message: &str) -> String {
    format!("err {message}")
}

/// Formats the `stats {json}` line.
pub fn format_stats(report: &ServiceReport) -> String {
    format!("stats {}", report.to_json())
}

/// Formats the six-field `health …` line.
pub fn format_health(health: &HealthReply) -> String {
    format!(
        "health {} {} {} {} {} {}",
        health.uptime_us,
        health.queue_depth,
        health.cache_entries,
        health.pressure_pct,
        health.warm_entries,
        health.warm_seq
    )
}

/// Parses a six-field `health …` line into `Ok(reply)`, or the server's
/// `Err` text for `err` lines.
pub fn parse_health_response(line: &str) -> Result<HealthReply, String> {
    let mut words = reply_body(line, "health")?;
    let reply = HealthReply {
        uptime_us: words.num("uptime_us")?,
        queue_depth: words.num("queue_depth")?,
        cache_entries: words.num("cache_entries")?,
        pressure_pct: words.num("pressure_pct")?,
        warm_entries: words.num("warm_entries")?,
        warm_seq: words.num("warm_seq")?,
    };
    words.end("health reply")?;
    Ok(reply)
}

/// Formats the `warm-pull <since> <lo> <hi>` request line.
pub fn format_warm_pull_request(since_seq: u64, lo: u64, hi: u64) -> String {
    format!("warm-pull {since_seq} {lo} {hi}")
}

/// Formats a `<verb> <n> <entry>…` line — the shape of both the
/// `warm-push` request and the `warm-pull` reply.
pub fn format_warm_entries(verb: &str, entries: &[ShipEntry]) -> String {
    counted_line(verb, entries.iter().map(ShipEntry::to_token))
}

/// Formats the `warm-digest …` reply line.
pub fn format_warm_digest_reply(digest: &WarmDigest) -> String {
    let entries = digest.entries.iter();
    let tokens = entries.map(|&(hash, seq)| format_digest_entry(hash, seq));
    counted_line(&format!("warm-digest {}", digest.max_seq), tokens)
}

/// `<head> <n> <token>…` for the `n` tokens.
fn counted_line(head: &str, tokens: impl ExactSizeIterator<Item = String>) -> String {
    let mut line = format!("{head} {}", tokens.len());
    for token in tokens {
        line.push(' ');
        line.push_str(&token);
    }
    line
}

/// Parses a `warm-digest …` reply, or the server's `Err` text.
pub fn parse_warm_digest_reply(line: &str) -> Result<WarmDigest, String> {
    let mut words = reply_body(line, "warm-digest")?;
    let max_seq = words.num("max_seq")?;
    let entries = words.counted("digest", parse_digest_entry)?;
    Ok(WarmDigest { max_seq, entries })
}

/// Parses a `warm-pull …` reply, re-verifying every entry checksum, or
/// the server's `Err` text.
pub fn parse_warm_pull_reply(line: &str) -> Result<Vec<ShipEntry>, String> {
    reply_body(line, "warm-pull")?.counted("pull", ShipEntry::from_token)
}

/// Formats the `warm-push <accepted> <rejected>` reply line.
pub fn format_warm_push_reply(accepted: u64, rejected: u64) -> String {
    format!("warm-push {accepted} {rejected}")
}

/// Parses a `warm-push …` reply into `(accepted, rejected)`, or the
/// server's `Err` text.
pub fn parse_warm_push_reply(line: &str) -> Result<(u64, u64), String> {
    let mut words = reply_body(line, "warm-push")?;
    let counts = (words.num("accepted")?, words.num("rejected")?);
    words.end("warm-push reply")?;
    Ok(counts)
}

/// A parsed `ok …` line, as the client sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OkReply {
    /// Achieved makespan.
    pub makespan: u64,
    /// Converged target (absent for degraded answers).
    pub target: Option<u64>,
    /// Algorithm that produced the schedule.
    pub engine: EngineUsed,
    /// Whether the answer was degraded.
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
    pub guarantee: Guarantee,
    /// A-posteriori achieved-vs-lower-bound gap in parts per million.
    pub gap_ppm: u64,
    /// Machine index per job.
    pub assignment: Vec<usize>,
}

/// Parses a response line into `Ok(reply)` or the server's `Err` text.
pub fn parse_response(line: &str) -> Result<OkReply, String> {
    let mut words = reply_body(line, "ok")?;
    // Struct fields evaluate in the order written: the wire order.
    Ok(OkReply {
        makespan: words.num("makespan")?,
        target: words.opt("target")?,
        engine: words.num("engine")?,
        degraded: match words.word("degraded")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad degraded flag `{other}`")),
        },
        cache_hits: words.num("hits")?,
        cache_misses: words.num("misses")?,
        queue_wait_us: words.num("wait_us")?,
        solve_us: words.num("solve_us")?,
        guarantee: parse_guarantee(words.word("guarantee")?)?,
        gap_ppm: words.num("gap_ppm")?,
        assignment: parse_list(words.word("assignment")?, "assignment")?,
    })
}

fn parse_guarantee(word: &str) -> Result<Guarantee, String> {
    let mut parts = Cursor(word.split('/'));
    let g = Guarantee {
        num: parts.num("guarantee num")?,
        den: parts.num("guarantee den")?,
        slack: parts.num("guarantee slack")?,
    };
    parts.end("guarantee")?;
    if g.den == 0 || g.num < g.den {
        return Err(format!("nonsensical guarantee `{word}`"));
    }
    Ok(g)
}

/// A comma-separated list field.
fn parse_list<T: FromStr>(field: &str, name: &str) -> Result<Vec<T>, String>
where
    T::Err: Display,
{
    field
        .split(',')
        .map(|w| w.parse().map_err(|e| format!("bad {name}: `{w}`: {e}")))
        .collect()
}

fn join<T: Display>(values: &[T]) -> String {
    values
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RequestStats;
    use pcmax_core::Schedule;

    #[test]
    fn solve_request_roundtrips() {
        let req = SolveRequest {
            instance: Instance::new(vec![5, 9, 3], 2),
            epsilon: Some(0.25),
            deadline: Some(Duration::from_millis(1500)),
        };
        let line = format_solve_request(&req);
        assert_eq!(line, "solve 2 0.25 1500 5,9,3");
        match parse_request(&line).unwrap() {
            Request::Solve(parsed) => {
                assert_eq!(parsed.instance.times(), &[5, 9, 3]);
                assert_eq!(parsed.instance.machines(), 2);
                assert_eq!(parsed.epsilon, Some(0.25));
                assert_eq!(parsed.deadline, Some(Duration::from_millis(1500)));
            }
            other => panic!("expected Solve, got {other:?}"),
        }
    }

    #[test]
    fn defaults_roundtrip_as_dashes() {
        let req = SolveRequest {
            instance: Instance::new(vec![7], 1),
            epsilon: None,
            deadline: None,
        };
        let line = format_solve_request(&req);
        assert_eq!(line, "solve 1 - - 7");
        match parse_request(&line).unwrap() {
            Request::Solve(parsed) => {
                assert_eq!(parsed.epsilon, None);
                assert_eq!(parsed.deadline, None);
            }
            other => panic!("expected Solve, got {other:?}"),
        }
    }

    #[test]
    fn response_roundtrips() {
        let schedule = Schedule::new(vec![0, 1, 0], 2);
        let res = SolveResponse {
            makespan: 9,
            target: Some(8),
            machines_used: Some(2),
            degraded: false,
            stats: RequestStats {
                queue_wait_us: 12,
                solve_us: 345,
                cache_hits: 4,
                cache_misses: 2,
                degraded: false,
                engine: EngineUsed::Ptas,
                guarantee: Guarantee {
                    num: 21,
                    den: 16,
                    slack: 2,
                },
                gap_ppm: 125_000,
            },
            schedule,
        };
        let line = format_response(&res);
        assert!(line.contains(" 21/16/2 125000 "), "{line}");
        let reply = parse_response(&line).unwrap();
        assert_eq!(reply.makespan, 9);
        assert_eq!(reply.gap_ppm, 125_000);
        assert_eq!(reply.target, Some(8));
        assert_eq!(reply.engine, EngineUsed::Ptas);
        assert!(!reply.degraded);
        assert_eq!(reply.cache_hits, 4);
        assert_eq!(reply.cache_misses, 2);
        assert_eq!(
            reply.guarantee,
            Guarantee {
                num: 21,
                den: 16,
                slack: 2
            }
        );
        assert_eq!(reply.assignment, vec![0, 1, 0]);
    }

    #[test]
    fn degraded_response_has_no_target() {
        let res = SolveResponse {
            makespan: 11,
            target: None,
            machines_used: None,
            degraded: true,
            stats: RequestStats {
                queue_wait_us: 1,
                solve_us: 2,
                cache_hits: 0,
                cache_misses: 0,
                degraded: true,
                engine: EngineUsed::LptRev,
                guarantee: Guarantee::lpt(1),
                gap_ppm: 0,
            },
            schedule: Schedule::new(vec![0], 1),
        };
        let reply = parse_response(&format_response(&res)).unwrap();
        assert_eq!(reply.target, None);
        assert!(reply.degraded);
        assert_eq!(reply.engine, EngineUsed::LptRev);
        // Degraded replies carry the *heuristic's* bound, not the
        // PTAS's — the ISSUE 7 attribution fix. lpt(1) reduces to 1/1.
        assert_eq!(reply.guarantee, Guarantee::EXACT);
    }

    #[test]
    fn zero_lower_bound_gap_is_zero_on_the_ok_line() {
        // Regression: `Guarantee::gap_ppm` with lower bound 0 must be 0
        // — not a division panic, not u64::MAX — and that 0 must survive
        // the ok-line round trip. A lb of 0 cannot arise from a valid
        // Instance (times are positive), but defensive callers (warm-log
        // rehydration of a corrupt record, future bound refinements)
        // still hit the branch.
        assert_eq!(Guarantee::gap_ppm(42, 0), 0);
        assert_eq!(Guarantee::gap_ppm(0, 0), 0);
        let res = SolveResponse {
            makespan: 42,
            target: Some(42),
            machines_used: Some(1),
            degraded: false,
            stats: RequestStats {
                queue_wait_us: 0,
                solve_us: 1,
                cache_hits: 0,
                cache_misses: 1,
                degraded: false,
                engine: EngineUsed::Ptas,
                guarantee: Guarantee::EXACT,
                gap_ppm: Guarantee::gap_ppm(42, 0),
            },
            schedule: Schedule::new(vec![0], 1),
        };
        let line = format_response(&res);
        assert!(line.contains(" 1/1/0 0 "), "{line}");
        let reply = parse_response(&line).unwrap();
        assert_eq!(reply.gap_ppm, 0);
    }

    #[test]
    fn malformed_guarantees_are_rejected() {
        for g in ["4/3", "4/3/0/9", "4/0/1", "2/3/0", "x/3/0"] {
            let line = format!("ok 9 - ptas 0 0 0 0 0 {g} 0 0,1");
            assert!(parse_response(&line).is_err(), "`{g}` should be rejected");
        }
    }

    #[test]
    fn err_lines_surface_the_message() {
        let err = parse_response(&format_error("queue full, request rejected")).unwrap_err();
        assert_eq!(err, "queue full, request rejected");
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            "",
            "solve",
            "solve 0 - - 5",
            "solve 2 - - ",
            "solve 2 - - 5,0,3",
            "solve 2 1.5 - 5",
            "solve 2 - - 5,x",
            "solve 2 - - 5 extra",
            "frobnicate",
        ] {
            assert!(parse_request(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn parse_errors_carry_the_invalid_request_prefix() {
        // The cluster's non-retryable classification keys on this
        // prefix; every rejection must carry it.
        for bad in ["", "solve", "solve 2 - - 5,0,3", "frobnicate"] {
            let err = parse_request(bad).unwrap_err();
            assert!(
                err.starts_with("invalid request: "),
                "`{bad}` → `{err}` lacks the prefix"
            );
        }
    }

    #[test]
    fn total_work_overflow_is_rejected_at_the_boundary() {
        let line = format!("solve 2 - - {},{}", u64::MAX, u64::MAX);
        let err = parse_request(&line).unwrap_err();
        assert!(err.starts_with("invalid request: "), "{err}");
        assert!(err.contains("total work exceeds"), "{err}");
        // A single u64::MAX job is a *legal* instance (W fits exactly).
        let ok = format!("solve 2 - - {}", u64::MAX);
        assert!(matches!(
            parse_request(&ok).unwrap(),
            Request::Solve(req) if req.instance.max_time() == u64::MAX
        ));
    }

    #[test]
    fn health_request_parses() {
        assert!(matches!(parse_request("health").unwrap(), Request::Health));
    }

    #[test]
    fn health_response_roundtrips() {
        let reply = HealthReply {
            uptime_us: 1_234_567,
            queue_depth: 3,
            cache_entries: 42,
            pressure_pct: 87,
            warm_entries: 19,
            warm_seq: 23,
        };
        let line = format_health(&reply);
        assert_eq!(line, "health 1234567 3 42 87 19 23");
        assert_eq!(parse_health_response(&line).unwrap(), reply);
    }

    #[test]
    fn malformed_health_responses_are_rejected() {
        for bad in [
            "",
            "health",
            "health 1",
            "health 1 2",
            "health 1 2 3",
            "health 1 2 3 x",
            "health 1234567 3 42 87",
            "health 1 2 3 4 5",
            "health 1 2 3 4 5 x",
            "health 1 2 3 4 5 6 7",
            "pong",
        ] {
            assert!(
                parse_health_response(bad).is_err(),
                "`{bad}` should be rejected"
            );
        }
        // err lines surface the server's message, like solve replies.
        let err = parse_health_response("err unknown command `health`").unwrap_err();
        assert!(err.contains("unknown command"), "{err}");
    }

    #[test]
    fn warm_requests_parse() {
        assert!(matches!(
            parse_request("warm-digest").unwrap(),
            Request::WarmDigest
        ));
        assert!(matches!(
            parse_request("warm-pull 7 100 200").unwrap(),
            Request::WarmPull {
                since_seq: 7,
                lo: 100,
                hi: 200
            }
        ));
        let entry = ShipEntry {
            seq: 3,
            key: b"k".to_vec(),
            value: b"v".to_vec(),
        };
        let line = format_warm_entries("warm-push", std::slice::from_ref(&entry));
        match parse_request(&line).unwrap() {
            Request::WarmPush { tokens } => {
                assert_eq!(tokens.len(), 1);
                assert_eq!(ShipEntry::from_token(&tokens[0]).unwrap(), entry);
            }
            other => panic!("expected WarmPush, got {other:?}"),
        }
        for bad in [
            "warm-digest extra",
            "warm-pull 1 2",
            "warm-pull 1 9 2",
            "warm-pull 1 2 3 4",
            "warm-push",
            "warm-push 2 1:6b:76:0",
            "warm-push x",
        ] {
            let err = parse_request(bad).unwrap_err();
            assert!(err.starts_with("invalid request: "), "`{bad}` → `{err}`");
        }
    }

    #[test]
    fn warm_replies_round_trip() {
        let digest = WarmDigest {
            max_seq: 9,
            entries: vec![(111, 4), (222, 9)],
        };
        let line = format_warm_digest_reply(&digest);
        assert_eq!(parse_warm_digest_reply(&line).unwrap(), digest);
        assert!(parse_warm_digest_reply("warm-digest 9 3 1:2").is_err());
        assert!(parse_warm_digest_reply("pong").is_err());
        assert!(parse_warm_digest_reply("err nope").unwrap_err().contains("nope"));

        let entries = vec![
            ShipEntry {
                seq: 1,
                key: b"a".to_vec(),
                value: b"x".to_vec(),
            },
            ShipEntry {
                seq: 2,
                key: b"b".to_vec(),
                value: Vec::new(),
            },
        ];
        let line = format_warm_entries("warm-pull", &entries);
        assert_eq!(parse_warm_pull_reply(&line).unwrap(), entries);
        assert!(parse_warm_pull_reply("warm-pull 2 1:61:78:0").is_err());

        let line = format_warm_push_reply(5, 1);
        assert_eq!(parse_warm_push_reply(&line).unwrap(), (5, 1));
        assert!(parse_warm_push_reply("warm-push 5").is_err());
        assert!(parse_warm_push_reply("warm-push 5 1 2").is_err());
    }

    #[test]
    fn stats_line_is_json_with_cache_counters() {
        let mut report = ServiceReport {
            accepted: 5,
            ..ServiceReport::default()
        };
        report.cache.hits = 3;
        let line = format_stats(&report);
        assert!(line.starts_with("stats {"), "{line}");
        assert!(line.ends_with('}'), "{line}");
        assert!(line.contains("\"accepted\":5"), "{line}");
        assert!(line.contains("\"hits\":3"), "{line}");
        assert!(line.contains("\"queue_wait_us\""), "{line}");
        assert!(line.contains("\"solve_us\""), "{line}");
    }
}
