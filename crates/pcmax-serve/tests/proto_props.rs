//! Property tests for the line protocol: every formatter round-trips
//! through its parser, no byte sequence panics a parser, and any line
//! `parse_request` accepts as `solve` re-formats to an equivalent line.

use pcmax_core::{Guarantee, Instance, Schedule};
use pcmax_serve::proto::{self, OkReply, Request};
use pcmax_serve::{EngineUsed, HealthReply, RequestStats, SolveRequest, SolveResponse};
use pcmax_warmsync::{ShipEntry, WarmDigest};
use proptest::prelude::*;
use std::time::Duration;

const ENGINES: [EngineUsed; 4] = [
    EngineUsed::Ptas,
    EngineUsed::LptRev,
    EngineUsed::Multifit,
    EngineUsed::Exact,
];

/// Solve requests: 1–6 machines, 1–30 jobs, any representable ε in
/// `(0, 1]` (53-bit mantissa steps), any whole-ms deadline, or the `-`
/// defaults.
fn any_solve_request() -> impl Strategy<Value = SolveRequest> {
    let shape = (1usize..=6, 1usize..=30).prop_flat_map(|(m, n)| {
        prop::collection::vec(1u64..=1_000_000_000, n).prop_map(move |t| Instance::new(t, m))
    });
    let eps =
        (any::<bool>(), 1u64..=1 << 53).prop_map(|(p, x)| p.then_some(x as f64 / 2f64.powi(53)));
    let deadline = (any::<bool>(), any::<u64>()).prop_map(|(p, ms)| p.then_some(ms));
    (shape, eps, deadline).prop_map(|(instance, epsilon, deadline_ms)| SolveRequest {
        instance,
        epsilon,
        deadline: deadline_ms.map(Duration::from_millis),
    })
}

fn as_solve(line: &str) -> SolveRequest {
    match proto::parse_request(line) {
        Ok(Request::Solve(req)) => req,
        other => panic!("`{line}` did not parse as solve: {other:?}"),
    }
}

fn same_request(a: &SolveRequest, b: &SolveRequest) -> bool {
    a.instance == b.instance
        && a.epsilon.map(f64::to_bits) == b.epsilon.map(f64::to_bits)
        && a.deadline == b.deadline
}

/// Solved responses over every engine, with and without a target.
fn any_response() -> impl Strategy<Value = SolveResponse> {
    let assignment = (1usize..=6, 1usize..=30)
        .prop_flat_map(|(m, n)| prop::collection::vec(0..m, n).prop_map(move |a| (a, m)));
    let counters = (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>());
    let guarantee = (1u64..=1_000, 0u64..=1_000, any::<u64>(), any::<u64>());
    let head = (
        any::<u64>(),
        any::<bool>(),
        any::<u64>(),
        0usize..ENGINES.len(),
        any::<bool>(),
    );
    (head, counters, guarantee, assignment).prop_map(
        |((makespan, has_target, target, engine, degraded), (hits, misses, wait, solve), g, a)| {
            let (den, extra, slack, gap_ppm) = g;
            SolveResponse {
                makespan,
                target: has_target.then_some(target),
                machines_used: None,
                degraded,
                stats: RequestStats {
                    queue_wait_us: wait,
                    solve_us: solve,
                    cache_hits: hits,
                    cache_misses: misses,
                    degraded,
                    engine: ENGINES[engine],
                    guarantee: Guarantee {
                        num: den + extra,
                        den,
                        slack,
                    },
                    gap_ppm,
                    improve_us: 0,
                },
                schedule: Schedule::new(a.0, a.1),
            }
        },
    )
}

fn any_entries() -> impl Strategy<Value = Vec<ShipEntry>> {
    let entry = (
        any::<u64>(),
        prop::collection::vec(any::<u8>(), 1..=8),
        prop::collection::vec(any::<u8>(), 0..=16),
    )
        .prop_map(|(seq, key, value)| ShipEntry { seq, key, value });
    prop::collection::vec(entry, 0..=5)
}

/// Lines shaped like protocol lines: a verb (or none) followed by bytes
/// drawn mostly from the protocol's own alphabet, decoded lossily.
fn any_line() -> impl Strategy<Value = String> {
    const VERBS: [&str; 11] = [
        "",
        "solve",
        "ok",
        "err",
        "health",
        "ping",
        "stats",
        "warm-digest",
        "warm-pull",
        "warm-push",
        "errors",
    ];
    const ALPHABET: &[u8] = b"0123456789 -,/:.+eE\tabcdef\x00\xff";
    let tail = prop::collection::vec((any::<bool>(), any::<u8>()), 0..=64).prop_map(|bytes| {
        let bytes: Vec<u8> = bytes
            .into_iter()
            .map(|(raw, b)| {
                if raw {
                    b
                } else {
                    ALPHABET[b as usize % ALPHABET.len()]
                }
            })
            .collect();
        String::from_utf8_lossy(&bytes).into_owned()
    });
    (0..VERBS.len(), tail).prop_map(|(verb, tail)| format!("{} {tail}", VERBS[verb]))
}

/// Solve lines with the token variations the parser tolerates: signs,
/// leading zeros, exponents, and mixed whitespace.
fn any_solve_line() -> impl Strategy<Value = String> {
    const MACHINES: [&str; 6] = ["1", "2", "+3", "04", "0", "x"];
    const EPS: [&str; 9] = ["-", "0.3", "1", "1e-1", "+0.25", ".5", "5E-1", "1.5", "nan"];
    const DEADLINES: [&str; 6] = ["-", "0", "007", "+15", "1500", "-1"];
    const TIMES: [&str; 7] = ["5", "09", "+7", "1", "18446744073709551615", "0", ""];
    const GAPS: [&str; 3] = [" ", "  ", "\t"];
    let times = prop::collection::vec(0..TIMES.len(), 1..=5)
        .prop_map(|ix| ix.iter().map(|&i| TIMES[i]).collect::<Vec<_>>().join(","));
    let fields = (0..MACHINES.len(), 0..EPS.len(), 0..DEADLINES.len(), times);
    (fields, prop::collection::vec(0..GAPS.len(), 4)).prop_map(|((m, e, d, t), gaps)| {
        let g = |i: usize| GAPS[gaps[i]];
        format!(
            "solve{}{}{}{}{}{}{}{}",
            g(0),
            MACHINES[m],
            g(1),
            EPS[e],
            g(2),
            DEADLINES[d],
            g(3),
            t
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn solve_requests_round_trip(req in any_solve_request()) {
        let back = as_solve(&proto::format_solve_request(&req));
        prop_assert!(same_request(&back, &req), "{back:?} != {req:?}");
    }

    #[test]
    fn ok_replies_round_trip(res in any_response()) {
        let expected = OkReply {
            makespan: res.makespan,
            target: res.target,
            engine: res.stats.engine,
            degraded: res.degraded,
            cache_hits: res.stats.cache_hits,
            cache_misses: res.stats.cache_misses,
            queue_wait_us: res.stats.queue_wait_us,
            solve_us: res.stats.solve_us,
            guarantee: res.stats.guarantee,
            gap_ppm: res.stats.gap_ppm,
            assignment: res.schedule.assignment().to_vec(),
        };
        prop_assert_eq!(proto::parse_response(&proto::format_response(&res)), Ok(expected));
    }

    #[test]
    fn health_replies_round_trip(
        (a, b, c) in (any::<u64>(), any::<u64>(), any::<u64>()),
        (d, e, f) in (any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        let reply = HealthReply {
            uptime_us: a,
            queue_depth: b,
            cache_entries: c,
            pressure_pct: d,
            warm_entries: e,
            warm_seq: f,
        };
        let line = proto::format_health(&reply);
        prop_assert_eq!(line.split_whitespace().count(), 7);
        prop_assert_eq!(proto::parse_health_response(&line), Ok(reply));
    }

    #[test]
    fn warm_requests_round_trip(
        (since_seq, x, y) in (any::<u64>(), any::<u64>(), any::<u64>()),
        entries in any_entries(),
    ) {
        prop_assert!(matches!(proto::parse_request("warm-digest"), Ok(Request::WarmDigest)));
        let (lo, hi) = (x.min(y), x.max(y));
        let pull = proto::parse_request(&proto::format_warm_pull_request(since_seq, lo, hi));
        prop_assert!(
            matches!(pull, Ok(Request::WarmPull { since_seq: s, lo: l, hi: h }) if (s, l, h) == (since_seq, lo, hi)),
            "{pull:?}"
        );
        match proto::parse_request(&proto::format_warm_entries("warm-push", &entries)) {
            Ok(Request::WarmPush { tokens }) => {
                let back: Vec<ShipEntry> =
                    tokens.iter().map(|t| ShipEntry::from_token(t).unwrap()).collect();
                prop_assert_eq!(back, entries);
            }
            other => panic!("warm-push did not parse: {other:?}"),
        }
    }

    #[test]
    fn warm_replies_round_trip(
        max_seq in any::<u64>(),
        pairs in prop::collection::vec((any::<u64>(), any::<u64>()), 0..=6),
        entries in any_entries(),
        (accepted, rejected) in (any::<u64>(), any::<u64>()),
    ) {
        let digest = WarmDigest { max_seq, entries: pairs };
        let line = proto::format_warm_digest_reply(&digest);
        prop_assert_eq!(proto::parse_warm_digest_reply(&line), Ok(digest));
        let line = proto::format_warm_entries("warm-pull", &entries);
        prop_assert_eq!(proto::parse_warm_pull_reply(&line), Ok(entries));
        let line = proto::format_warm_push_reply(accepted, rejected);
        prop_assert_eq!(proto::parse_warm_push_reply(&line), Ok((accepted, rejected)));
    }

    #[test]
    fn arbitrary_lines_never_panic_a_parser(
        line in any_line(),
        raw in prop::collection::vec(any::<u8>(), 0..=48),
    ) {
        for line in [line, String::from_utf8_lossy(&raw).into_owned()] {
            let _ = proto::parse_request(&line);
            let _ = proto::parse_response(&line);
            let _ = proto::parse_health_response(&line);
            let _ = proto::parse_warm_digest_reply(&line);
            let _ = proto::parse_warm_pull_reply(&line);
            let _ = proto::parse_warm_push_reply(&line);
        }
    }

    #[test]
    fn accepted_solve_lines_reformat_to_the_same_request(line in any_solve_line()) {
        if let Ok(Request::Solve(req)) = proto::parse_request(&line) {
            let canonical = proto::format_solve_request(&req);
            prop_assert!(same_request(&as_solve(&canonical), &req), "`{line}` vs `{canonical}`");
        }
    }
}
