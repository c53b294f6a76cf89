//! End-to-end tests of the solver service over real loopback TCP:
//! concurrent clients, cache warm-up across repeated instances,
//! deadline degradation, and the portfolio and improver gates — all
//! through the wire protocol, not the in-process API.

use pcmax::core::gen::uniform;
use pcmax::serve::{serve_tcp, Client, ClientReply, ServiceReport};
use pcmax::{Instance, ServeConfig, Service};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_service(config: ServeConfig) -> (Arc<Service>, std::net::SocketAddr, pcmax::serve::TcpHandle) {
    let service = Service::start(config);
    let handle = serve_tcp(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let addr = handle.local_addr();
    (service, addr, handle)
}

/// One answered request of a [`drive_pool`] load.
struct Sample {
    /// Index into the pool of the instance that was sent.
    instance: usize,
    /// Client-side round trip.
    latency: Duration,
    reply: ClientReply,
}

/// Starts a fresh service from `config` and drives it over loopback:
/// `clients` concurrent connections each send `requests` solves (ε 0.3,
/// 2 s deadline), cycling through `pool` so repeats hit the DP cache.
/// Every reply's assignment must realise its reported makespan. Returns
/// the samples and the service's final report.
fn drive_pool(
    config: ServeConfig,
    clients: usize,
    requests: usize,
    pool: &[Instance],
) -> (Vec<Sample>, ServiceReport) {
    let (service, addr, handle) = start_service(config);
    let samples = std::thread::scope(|s| {
        let threads: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    (0..requests)
                        .map(|r| {
                            let instance = (c * requests + r) % pool.len();
                            let inst = &pool[instance];
                            let start = Instant::now();
                            let reply = client
                                .solve(inst, Some(0.3), Some(Duration::from_secs(2)))
                                .expect("solve");
                            let latency = start.elapsed();
                            let makespan = reply.schedule.validate(inst).expect("valid schedule");
                            assert_eq!(makespan, reply.makespan, "server-reported makespan");
                            Sample { instance, latency, reply }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    let report = service.report();
    handle.shutdown();
    service.shutdown();
    (samples, report)
}

fn mean_gap_ppm(samples: &[Sample]) -> u64 {
    let sum: u128 = samples.iter().map(|s| s.reply.gap_ppm as u128).sum();
    (sum / samples.len() as u128) as u64
}

#[test]
fn concurrent_tcp_clients_get_valid_schedules() {
    let (service, addr, handle) = start_service(ServeConfig::default());

    let threads: Vec<_> = (0..6)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.ping().expect("ping");
                for r in 0..4 {
                    // 3 distinct instances across the pool → repeats are
                    // guaranteed, exercising the shared DP cache.
                    let seed = (c * 4 + r) % 3;
                    let inst = uniform(seed, 28, 4, 1, 60);
                    let reply = client
                        .solve(&inst, Some(0.3), Some(Duration::from_secs(10)))
                        .expect("solve");
                    let makespan = reply.schedule.validate(&inst).expect("valid schedule");
                    assert_eq!(makespan, reply.makespan, "server-reported makespan");
                    assert!(!reply.degraded, "10s deadline must not degrade");
                    assert!(reply.target.is_some(), "PTAS answers carry T*");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }

    let report = service.report();
    assert_eq!(report.completed, 24);
    assert_eq!(report.rejected, 0);
    assert!(
        report.cache.hits > 0,
        "repeated instances must hit the DP cache: {:?} hits",
        report.cache.hits
    );

    handle.shutdown();
    service.shutdown();
}

#[test]
fn repeat_requests_warm_the_cache() {
    let (service, addr, handle) = start_service(ServeConfig::default());
    let inst = uniform(11, 30, 3, 1, 50);
    let mut client = Client::connect(addr).expect("connect");

    let cold = client.solve(&inst, Some(0.3), None).expect("cold solve");
    let warm = client.solve(&inst, Some(0.3), None).expect("warm solve");
    assert_eq!(cold.target, warm.target, "same instance, same T*");
    assert_eq!(warm.cache_misses, 0, "second solve must be all cache hits");
    assert!(warm.cache_hits > 0);

    // The stats verb exposes the same counters over the wire, as JSON.
    let stats = client.stats_json().expect("stats");
    assert!(stats.contains("\"completed\":2"), "{stats}");
    assert!(stats.contains("\"queue_wait_us\""), "{stats}");
    assert!(stats.contains("\"solve_us\""), "{stats}");

    handle.shutdown();
    service.shutdown();
}

#[test]
fn expired_deadline_yields_degraded_heuristic_not_error() {
    let (service, addr, handle) = start_service(ServeConfig::default());
    let inst = uniform(7, 40, 4, 1, 90);
    let mut client = Client::connect(addr).expect("connect");

    let reply = client
        .solve(&inst, Some(0.3), Some(Duration::ZERO))
        .expect("degraded answers are still ok-replies");
    assert!(reply.degraded);
    assert_eq!(reply.target, None, "heuristic answers carry no T*");
    let makespan = reply.schedule.validate(&inst).expect("heuristic schedule is valid");
    assert_eq!(makespan, reply.makespan);

    let report = service.report();
    assert_eq!(report.degraded, 1);
    assert_eq!(report.completed, 1);

    handle.shutdown();
    service.shutdown();
}

#[test]
fn deadline_flood_degrades_every_answer_and_counters_stay_consistent() {
    // Recording stays on for the rest of the process — never flipped
    // back off, so concurrent tests can't observe a half-toggled flag.
    pcmax::obs::set_enabled(true);
    let (service, addr, handle) = start_service(ServeConfig::default());

    let threads: Vec<_> = (0..4)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for r in 0..5 {
                    let inst = uniform(100 + c * 5 + r, 35, 4, 1, 80);
                    // An already-expired deadline: the service must answer
                    // with a degraded heuristic, never an error.
                    let reply = client
                        .solve(&inst, Some(0.3), Some(Duration::ZERO))
                        .expect("degraded answers are still ok-replies");
                    assert!(reply.degraded, "zero deadline must degrade");
                    assert_eq!(reply.target, None, "heuristic answers carry no T*");
                    let makespan = reply.schedule.validate(&inst).expect("valid schedule");
                    assert_eq!(makespan, reply.makespan);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }

    let report = service.report();
    // Every request was admitted, answered, and degraded — none rejected.
    assert_eq!(report.accepted, 20);
    assert_eq!(report.completed, 20);
    assert_eq!(report.degraded, 20);
    assert_eq!(report.rejected, 0);
    let rate = report.cache.hit_rate();
    assert!((0.0..=1.0).contains(&rate), "hit rate {rate}");

    // Histogram self-consistency: one queue-wait and one solve sample per
    // completed request, one lateness sample per degraded answer, and the
    // batch sizes must partition the completed requests.
    let h = &report.histograms;
    assert_eq!(h.queue_wait_us.count, report.completed);
    assert_eq!(h.solve_us.count, report.completed);
    assert_eq!(h.degraded_lateness_us.count, report.degraded);
    assert_eq!(h.batch_size.sum, report.completed);
    assert!(h.batch_size.count >= 1 && h.batch_size.count <= report.completed);
    for hist in [&h.queue_wait_us, &h.solve_us, &h.batch_size] {
        let bucket_total: u64 = hist.buckets.iter().map(|b| b.count).sum();
        assert_eq!(bucket_total, hist.count, "buckets must partition the samples");
        assert!(hist.min <= hist.max);
        assert!(hist.sum >= hist.min.saturating_mul(hist.count.min(1)));
    }

    handle.shutdown();
    service.shutdown();
}

#[test]
fn health_verb_reports_uptime_and_cache_growth() {
    let (service, addr, handle) = start_service(ServeConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    let before = client.health().expect("health");
    assert!(before.uptime_us > 0, "uptime must be ticking");
    assert_eq!(before.cache_entries, 0, "cold service has an empty cache");

    let inst = uniform(21, 26, 3, 1, 50);
    client.solve(&inst, Some(0.3), None).expect("solve");

    let after = client.health().expect("health after solve");
    assert!(after.uptime_us >= before.uptime_us);
    assert!(after.cache_entries > 0, "the solve must populate the DP cache");

    handle.shutdown();
    service.shutdown();
}

#[test]
fn idle_connections_are_reaped_by_the_io_timeout() {
    let (service, addr, handle) = start_service(ServeConfig {
        io_timeout: Some(Duration::from_millis(50)),
        ..ServeConfig::default()
    });

    let mut idle = Client::connect(addr).expect("connect");
    idle.ping().expect("live connection answers");
    // Sit past the server's read timeout: the connection thread gives up
    // and closes the stream.
    std::thread::sleep(Duration::from_millis(250));
    assert!(
        idle.ping().is_err(),
        "the server must have dropped the idle connection"
    );

    // The listener itself is unaffected — fresh connections work.
    let mut fresh = Client::connect(addr).expect("reconnect");
    fresh.ping().expect("fresh connection answers");

    handle.shutdown();
    service.shutdown();
}

#[test]
fn protocol_errors_do_not_kill_the_connection() {
    let (service, addr, handle) = start_service(ServeConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    // An invalid epsilon is rejected with an err-line…
    let inst = uniform(1, 10, 2, 1, 30);
    let err = client.solve(&inst, Some(7.5), None).unwrap_err();
    assert!(err.contains("epsilon"), "{err}");

    // …and the same connection keeps working afterwards.
    let reply = client.solve(&inst, Some(0.3), None).expect("solve after error");
    reply.schedule.validate(&inst).expect("valid schedule");

    handle.shutdown();
    service.shutdown();
}

#[test]
fn restarted_server_answers_from_the_disk_tier_without_recomputing() {
    let dir = std::env::temp_dir().join(format!("pcmax-e2e-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let inst = uniform(33, 30, 4, 1, 60);

    // First life: a cold solve runs the DP and appends it to the warm log.
    let (service, addr, handle) = start_service(config.clone());
    let mut client = Client::connect(addr).expect("connect");
    let cold = client.solve(&inst, Some(0.3), None).expect("cold solve");
    assert!(cold.cache_misses > 0, "cold solve must run the DP");
    let first_life = service.report();
    assert!(
        first_life.store.appends > 0,
        "cold solves must persist to the warm log: {first_life:?}"
    );
    assert_eq!(first_life.store.rehydrated, 0, "first boot starts empty");
    handle.shutdown();
    service.shutdown();

    // Second life on the same store dir: the manifest rehydrates, and the
    // same request is answered from the disk tier — the DP never reruns.
    let (service, addr, handle) = start_service(config);
    assert!(
        service.report().store.rehydrated > 0,
        "restart must rehydrate the warm log"
    );
    let mut client = Client::connect(addr).expect("reconnect");
    let warm = client.solve(&inst, Some(0.3), None).expect("warm solve");
    assert_eq!(warm.target, cold.target, "same instance, same T*");
    assert_eq!(warm.makespan, cold.makespan);
    assert_eq!(
        warm.cache_misses, 0,
        "a restarted worker must answer its old hot set without recomputing"
    );
    assert!(warm.cache_hits > 0);
    let report = service.report();
    assert!(
        report.store.disk_hits > 0,
        "the answer must have faulted in from disk: {report:?}"
    );

    // The counters that prove it travel over the wire too.
    let stats = client.stats_json().expect("stats");
    assert!(stats.contains("\"store\""), "{stats}");
    assert!(stats.contains("\"rehydrated\""), "{stats}");
    assert!(stats.contains("\"disk_hit_rate\""), "{stats}");

    handle.shutdown();
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn auto_service_is_deterministic_and_its_counters_reconcile() {
    use pcmax::core::heuristics::lpt_revisited;

    // Recording must be on before the service starts so every arm
    // execution lands a latency sample (left on — see the flood test).
    pcmax::obs::set_enabled(true);
    let (service, addr, handle) = start_service(ServeConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let instances: Vec<_> = (0..4).map(|s| uniform(500 + s, 30, 4, 1, 70)).collect();

    // Two passes over the same instances: under a generous deadline the
    // PTAS arm answers every time — cold DP probes on the first pass,
    // cache hits on the second — and both passes must return the same
    // answers.
    let mut first_pass = Vec::new();
    for pass in 0..2 {
        for (i, inst) in instances.iter().enumerate() {
            let reply = client
                .solve(inst, Some(0.3), Some(Duration::from_secs(10)))
                .expect("solve");
            let makespan = reply.schedule.validate(inst).expect("valid schedule");
            assert_eq!(makespan, reply.makespan);
            assert!(!reply.degraded, "the PTAS arm must answer under a 10s deadline");
            assert!(reply.guarantee.holds(reply.makespan, reply.makespan));
            if pass == 0 {
                first_pass.push(reply.makespan);
            } else {
                assert_eq!(reply.makespan, first_pass[i], "answers must be deterministic");
            }
        }
    }

    // A dead deadline leaves no budget for the DP, so the heuristic net
    // answers, degraded. With no budget at all the net runs only the one
    // heuristic the time CV picks — LPT-revisited on these spread-out
    // times — so the answer equals a standalone LPT-revisited run, and
    // can be no better than the unhurried net, `heuristic_best`.
    let inst = uniform(999, 30, 4, 1, 70);
    let reply = client
        .solve(&inst, Some(0.3), Some(Duration::ZERO))
        .expect("degraded answers are still ok-replies");
    assert!(reply.degraded, "a dead deadline degrades to the net");
    assert_eq!(reply.engine, pcmax::serve::EngineUsed::LptRev);
    assert_eq!(
        reply.makespan,
        lpt_revisited(&inst).schedule.makespan(&inst),
        "the net's value must match a standalone LPT-revisited run"
    );
    let (best, _, _) = pcmax::serve::heuristic_best(&inst);
    assert!(reply.makespan >= best.makespan(&inst));

    // Counter reconciliation across all 9 requests.
    let report = service.report();
    assert_eq!(report.completed, 9);
    let p = &report.portfolio;
    let chosen: u64 = p.arms.iter().map(|a| a.chosen).sum();
    let won: u64 = p.arms.iter().map(|a| a.won).sum();
    assert_eq!(chosen, report.completed, "exactly one arm is chosen per request");
    assert_eq!(won, report.completed, "exactly one arm wins per request");
    for arm in &p.arms {
        assert!(arm.runs >= arm.won, "{}: runs {} < won {}", arm.arm, arm.runs, arm.won);
        assert_eq!(
            arm.latency_us.count, arm.runs,
            "{}: one latency sample per execution while recording is on",
            arm.arm
        );
    }

    handle.shutdown();
    service.shutdown();
}

#[test]
fn auto_portfolio_never_costs_more_than_the_worst_pinned_arm() {
    use pcmax::serve::{Arm, PortfolioPolicy};

    // The selector exists to beat naive pinning, so costing more than
    // the worst possible pin is a regression. The same load runs under
    // `auto` and once per fixed arm; `exact` is skipped because it
    // declines instances above its job cap and these have 20 jobs.
    let pool: Vec<_> = (0..2).map(|s| uniform(s, 20, 3, 1, 100)).collect();
    let run = |portfolio| {
        let config = ServeConfig {
            portfolio,
            ..ServeConfig::default()
        };
        let (samples, report) = drive_pool(config, 2, 8, &pool);
        let arms: Vec<_> = report.portfolio.arms.iter().map(|a| a.arm.as_str()).collect();
        let names: Vec<_> = Arm::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(arms, names, "one portfolio entry per arm");
        assert_eq!(report.accepted, 16);
        match portfolio {
            // Repeats over the 2-instance pool answer from the DP cache.
            PortfolioPolicy::Auto => assert!(report.cache.hits > 0, "{:?}", report.cache),
            PortfolioPolicy::Fixed(arm) => {
                let pinned = &report.portfolio.arms[Arm::ALL.iter().position(|&a| a == arm).unwrap()];
                assert_eq!(pinned.chosen, 16, "fixed:{} picks its arm for every request", arm.name());
            }
        }
        samples.iter().map(|s| s.latency).sum::<Duration>() / samples.len() as u32
    };

    let auto = run(PortfolioPolicy::Auto);
    let (worst_arm, worst) = Arm::ALL
        .into_iter()
        .filter(|&arm| arm != Arm::Exact)
        .map(|arm| (arm.name(), run(PortfolioPolicy::Fixed(arm))))
        .max_by_key(|&(_, mean)| mean)
        .expect("at least one fixed arm");
    // Lenient on purpose: loopback latencies at this scale are noisy,
    // and the gate should only trip on a pathological selector.
    let limit = worst * 3 / 2 + Duration::from_millis(50);
    assert!(
        auto <= limit,
        "auto mean {auto:?} exceeds 1.5x the worst fixed arm ({worst_arm}, {worst:?}) + 50ms"
    );
}

#[test]
fn improver_replies_round_trip_assignments_and_tighten_the_gap() {
    // Pinned to LPT-revisited: deterministic, and on this pool its
    // answers are not all move/swap-local-optimal — so the improved run
    // below can demand a *strict* mean-gap win over the plain run, not
    // just monotonicity.
    let pool: Vec<_> = (0..4).map(|s| uniform(s, 40, 6, 1, 100)).collect();
    let base = ServeConfig {
        portfolio: "fixed:lptrev".parse().expect("policy"),
        ..ServeConfig::default()
    };

    let (plain, report) = drive_pool(base.clone(), 2, 8, &pool);
    for s in &plain {
        assert_eq!(
            s.reply.gap_ppm,
            pcmax::Guarantee::gap_ppm(s.reply.makespan, pcmax::lower_bound(&pool[s.instance])),
            "gap_ppm travels the wire even with the improver off"
        );
    }
    assert_eq!(report.improve.runs, 0, "the improver defaults to off");

    // The 50 ms budget is headroom: the descent's round cap, not the
    // clock, ends each refinement, in a debug build too.
    let (refined, report) = drive_pool(
        ServeConfig {
            improve: pcmax::ImproveMode::Greedy,
            improve_budget: Duration::from_millis(50),
            ..base
        },
        2,
        8,
        &pool,
    );
    let plain_reply = |i: usize| &plain.iter().find(|s| s.instance == i).expect("sent").reply;
    let mut improved = 0;
    for s in &refined {
        let before = plain_reply(s.instance);
        assert!(s.reply.makespan <= before.makespan, "the improver never worsens an answer");
        // A-posteriori tightening only ever shrinks the certificate.
        assert!(s.reply.guarantee.ratio() <= before.guarantee.ratio());
        improved += u64::from(s.reply.makespan < before.makespan);
    }
    let (after, before) = (
        &refined.iter().find(|s| s.instance == 1).expect("sent").reply,
        plain_reply(1),
    );
    assert!(
        after.makespan < before.makespan,
        "descent must strictly improve LPT-revisited on instance 1 ({} vs {})",
        after.makespan,
        before.makespan
    );
    assert!(after.gap_ppm < before.gap_ppm, "{} vs {}", after.gap_ppm, before.gap_ppm);
    assert_eq!(report.improve.runs, 16);
    assert_eq!(report.improve.improved, improved);

    // The gate: whenever the plain answers leave a gap, the improver
    // must close some of it on average.
    let (on, off) = (mean_gap_ppm(&refined), mean_gap_ppm(&plain));
    assert!(on <= off, "improver worsened the mean gap ({on} ppm vs {off} ppm off)");
    assert!(off == 0 || on < off, "improver closed none of the {off} ppm mean gap");
}

#[test]
fn overflowing_total_work_is_rejected_at_the_wire_and_the_connection_survives() {
    use std::io::{BufRead, BufReader, Write};

    let (service, addr, handle) = start_service(ServeConfig::default());

    // Hand-rolled stream: `Client::solve` cannot even *build* this
    // request, because `Instance::new` refuses totals past u64::MAX —
    // only the wire can deliver one, which is exactly what the
    // validation gate exists for.
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    let half = u64::MAX / 2;
    writeln!(writer, "solve 2 0.3 - {half},{half},2").expect("send");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("recv");
    assert!(
        reply.starts_with("err invalid request: "),
        "a wrap-inducing total must be a protocol error, got: {reply}"
    );
    assert!(reply.contains("total work exceeds u64::MAX"), "{reply}");

    // The boundary is exact: half + half + 1 = u64::MAX is admitted and
    // solved — the gate rejects overflow, not magnitude.
    writeln!(writer, "solve 2 0.3 - {half},{half},1").expect("send");
    let mut ok = String::new();
    reader.read_line(&mut ok).expect("recv");
    assert!(ok.starts_with("ok "), "sum == u64::MAX is representable: {ok}");

    // And the connection is still alive for further requests.
    writeln!(writer, "ping").expect("send");
    let mut pong = String::new();
    reader.read_line(&mut pong).expect("recv");
    assert_eq!(pong.trim_end(), "pong");

    handle.shutdown();
    service.shutdown();
}
