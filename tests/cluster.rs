//! End-to-end cluster tests over real loopback TCP: cache-affinity
//! routing (equivalent requests share one worker and its warm DP
//! cache), failover under a mid-load worker kill (every request still
//! answered — no client-visible transport errors), warm replication
//! across a join, and the drop-in line-protocol front-end.

use pcmax::cluster::{rank_ids, serve_cluster_tcp, LocalCluster};
use pcmax::core::gen::uniform;
use pcmax::serve::{Client, ClientError, SolveRequest};
use pcmax::{ClusterConfig, Instance, ServeConfig};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fast_cluster_config() -> ClusterConfig {
    ClusterConfig {
        connect_timeout: Duration::from_millis(250),
        heartbeat_interval: Duration::from_millis(200),
        max_missed_beats: 2,
        retries_per_worker: 1,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(5),
        ..ClusterConfig::default()
    }
}

fn request(inst: &Instance) -> SolveRequest {
    SolveRequest {
        instance: inst.clone(),
        epsilon: Some(0.3),
        deadline: Some(Duration::from_secs(10)),
    }
}

#[test]
fn equivalent_requests_share_one_worker_and_its_cache() {
    let cluster = LocalCluster::start(3, ServeConfig::default(), fast_cluster_config())
        .expect("start cluster");
    let coordinator = cluster.coordinator();

    let inst = uniform(5, 28, 4, 1, 60);
    // The same workload in three routing-equivalent disguises: verbatim,
    // gcd-scaled ×7, and a different machine count (cached DP values are
    // OPT(N), machine-count independent).
    let scaled = Instance::new(inst.times().iter().map(|&t| t * 7).collect(), 4);
    let other_m = Instance::new(inst.times().to_vec(), 6);

    let mut served_by = Vec::new();
    for inst in [&inst, &inst, &scaled, &other_m, &inst] {
        let reply = coordinator.solve(request(inst)).expect("solve");
        let makespan = reply.response.schedule.validate(inst).expect("valid schedule");
        assert_eq!(makespan, reply.response.makespan);
        assert_eq!(reply.failovers, 0, "healthy cluster never fails over");
        served_by.push(reply.worker.expect("served remotely"));
    }
    let primary = served_by[0].clone();
    assert!(
        served_by.iter().all(|w| *w == primary),
        "equivalent requests must share one worker: {served_by:?}"
    );

    // The shared worker's DP cache is warm; the cluster aggregates its
    // per-request hit counters.
    let report = coordinator.report();
    assert_eq!(report.completed, 5);
    assert_eq!(report.degraded_local, 0);
    assert!(
        report.dp_cache_hits > 0,
        "repeats on one worker must hit its DP cache: {report:?}"
    );

    // White box: the primary's service saw every request; the other two
    // workers saw none (their caches stay empty).
    let primary_idx = cluster.index_of(&primary).expect("known worker");
    for i in 0..cluster.len() {
        let service = cluster.service(i).expect("worker alive");
        let accepted = service.report().accepted;
        if i == primary_idx {
            assert_eq!(accepted, 5, "primary serves all equivalent requests");
            assert!(service.health().cache_entries > 0, "primary cache is warm");
        } else {
            assert_eq!(accepted, 0, "worker-{i} must not see these requests");
            assert_eq!(service.health().cache_entries, 0);
        }
    }
}

#[test]
fn killing_a_worker_mid_load_loses_no_requests() {
    let cluster = Arc::new(
        LocalCluster::start(3, ServeConfig::default(), fast_cluster_config())
            .expect("start cluster"),
    );
    let coordinator = cluster.coordinator();

    // Discover the primary for this key, then keep hammering the same
    // key so the kill is guaranteed to hit the serving worker.
    let inst = uniform(9, 28, 4, 1, 60);
    let first = coordinator.solve(request(&inst)).expect("warmup solve");
    let primary = first.worker.clone().expect("served remotely");
    let primary_idx = cluster.index_of(&primary).expect("known worker");

    let completed = Arc::new(AtomicUsize::new(0));
    let killer = {
        let cluster = Arc::clone(&cluster);
        let completed = Arc::clone(&completed);
        std::thread::spawn(move || {
            while completed.load(Ordering::SeqCst) < 4 {
                std::thread::sleep(Duration::from_millis(1));
            }
            cluster.kill(primary_idx);
        })
    };

    std::thread::scope(|scope| {
        for _ in 0..3 {
            let completed = Arc::clone(&completed);
            let inst = &inst;
            scope.spawn(move || {
                for _ in 0..8 {
                    let reply = coordinator
                        .solve(request(inst))
                        .expect("kill must never surface an error");
                    reply.response.schedule.validate(inst).expect("valid schedule");
                    completed.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
    });
    killer.join().expect("killer thread");

    // Five guaranteed post-kill requests: the dead primary is either
    // retried-and-failed-over or already marked down — answered either way.
    for _ in 0..5 {
        let reply = coordinator.solve(request(&inst)).expect("post-kill solve");
        reply.response.schedule.validate(&inst).expect("valid schedule");
        if let Some(worker) = &reply.worker {
            assert_ne!(worker, &primary, "the killed worker cannot serve");
        }
    }

    let report = coordinator.report();
    assert_eq!(report.routed, 30, "1 warmup + 24 loaded + 5 post-kill");
    assert_eq!(report.completed, 30, "every request answered");
    assert!(report.failovers >= 1, "the kill must force failovers: {report:?}");

    // The heartbeat discovers the death: poll until exactly the primary
    // is marked down.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let report = coordinator.report();
        let down: Vec<&str> = report
            .workers
            .iter()
            .filter(|w| !w.up)
            .map(|w| w.id.as_str())
            .collect();
        if down == [primary.as_str()] && report.marked_down == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "heartbeat never marked {primary} down: {report:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(coordinator.live_workers().len(), 2);
}

#[test]
fn pressured_workers_are_demoted_in_routing_order() {
    // A 512-byte budget means a single cached DP solution already puts
    // the worker far past a 1% pressure threshold.
    let serve_config = ServeConfig {
        mem_budget: pcmax::StoreBudget::bytes(512),
        ..ServeConfig::default()
    };
    let cluster_config = ClusterConfig {
        pressure_threshold_pct: 1,
        ..fast_cluster_config()
    };
    let cluster =
        LocalCluster::start(3, serve_config, cluster_config).expect("start cluster");
    let coordinator = cluster.coordinator();

    // The first solve lands on the affinity primary and fills its cache.
    // The dp-dense shape: the descended net does not prove itself
    // optimal here, so the first solve runs a DP and caches it.
    let inst = uniform(17, 36, 12, 30, 100);
    let first = coordinator.solve(request(&inst)).expect("first solve");
    assert!(
        first.response.stats.cache_misses > 0,
        "premise: the first solve runs a DP"
    );
    let primary = first.worker.clone().expect("served remotely");
    let primary_idx = cluster.index_of(&primary).expect("known worker");
    let direct = cluster.service(primary_idx).expect("worker alive");
    assert!(
        direct.pressure_pct() >= 1,
        "one cached solution must pressure a 512-byte budget: {}%",
        direct.pressure_pct()
    );

    // The next heartbeat carries the pressure to the coordinator.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let report = coordinator.report();
        let seen = report
            .workers
            .iter()
            .find(|w| w.id == primary)
            .map(|w| w.pressure_pct)
            .unwrap_or(0);
        if seen >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "heartbeat never reported pressure for {primary}: {report:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // Same key again: the pressured primary now ranks behind both idle
    // workers, so cache affinity yields and the request routes away.
    let second = coordinator.solve(request(&inst)).expect("second solve");
    let relief = second.worker.clone().expect("served remotely");
    assert_ne!(
        relief, primary,
        "a pressured worker must be demoted in routing order"
    );
    second.response.schedule.validate(&inst).expect("valid schedule");

    // The demotion is observable: the aggregated report carries each
    // worker's pressure.
    let json = coordinator.report().to_json();
    assert!(json.contains("\"pressure_pct\""), "{json}");
}

#[test]
fn kill_and_join_replacement_serves_warm_keys_from_shipped_state() {
    // The churn scenario warmsync exists for: warm a primary, replicate
    // its warm log across the fleet, crash it, join a replacement, and
    // verify the replacement's first solve of the previously-warm key
    // recomputes nothing — every DP probe answers from shipped state.
    let dir = std::env::temp_dir().join(format!("pcmax-warmsync-churn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let serve_config = ServeConfig {
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    // R = fleet size: every warm entry is held by every live worker, so
    // the post-churn server — whoever rendezvous picks — is fully warm.
    let cluster_config = ClusterConfig {
        replication_factor: 3,
        ..fast_cluster_config()
    };
    let cluster =
        LocalCluster::start(3, serve_config, cluster_config).expect("start cluster");
    let coordinator = cluster.coordinator();

    // Warm the primary: one solved request appends every DP probe
    // result to its warm log.
    let inst = uniform(23, 28, 4, 1, 60);
    let first = coordinator.solve(request(&inst)).expect("warm solve");
    let primary = first.worker.clone().expect("served remotely");
    let primary_idx = cluster.index_of(&primary).expect("known worker");

    // The heartbeat-riding sync rounds ship the log to the successors.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let report = coordinator.report();
        if report.warm_entries_shipped > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "warmsync never shipped the warm log: {report:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // Crash the primary and wait for the heartbeat to mark it down.
    cluster.kill(primary_idx);
    let deadline = Instant::now() + Duration::from_secs(10);
    while coordinator.live_workers().len() != 2 {
        assert!(
            Instant::now() < deadline,
            "heartbeat never marked the killed primary down"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // Join a replacement; the membership diff triggers a rebalance and
    // the repair pass tops it up to every key it now co-owns.
    let joined = cluster.spawn().expect("join replacement");
    let joined_idx = cluster.index_of(&joined).expect("known worker");
    let survivor_idx = (0..3).find(|&i| i != primary_idx).expect("a survivor");
    let survivor_entries = cluster
        .service(survivor_idx)
        .expect("survivor alive")
        .warm()
        .expect("store-backed worker")
        .entries();
    assert!(survivor_entries > 0, "replication left the survivors warm");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let joined_entries = cluster
            .service(joined_idx)
            .expect("joiner alive")
            .warm()
            .expect("store-backed worker")
            .entries();
        if joined_entries >= survivor_entries {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "rebalance never topped the joiner up ({joined_entries}/{survivor_entries} entries)"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let report = coordinator.report();
    assert!(report.rebalance_events > 0, "the churn must register as rebalances: {report:?}");

    // The joiner's FIRST solve of the previously-warm key: every probe
    // must answer from the shipped warm state, never a cold DP solve.
    let mut direct = Client::connect(cluster.addr(joined_idx)).expect("connect to joiner");
    let reply = direct
        .solve(&inst, Some(0.3), Some(Duration::from_secs(10)))
        .expect("solve on the joiner");
    assert_eq!(reply.makespan, first.response.makespan, "same answer as the dead primary");
    assert_eq!(
        reply.cache_misses, 0,
        "migrated warm keys must suppress every DP recompute"
    );
    let joined_service = cluster.service(joined_idx).expect("joiner alive");
    assert!(
        joined_service.warm().expect("store-backed").cold_misses_avoided() > 0,
        "the avoided cold solves must be counted"
    );

    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);

    churn_at_the_default_replication_factor();
}

/// The same churn at the default R = 2, where the joiner co-owns only
/// part of the warm set: warm four instances, settle replication, kill
/// a worker, join a replacement, run one sync round, and probe the
/// joiner with all four. Shipped state must spare it DP work that a
/// fresh store-less service has to do.
fn churn_at_the_default_replication_factor() {
    let dir = std::env::temp_dir().join(format!("pcmax-warmsync-churn-r2-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let serve_config = ServeConfig {
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let cluster =
        LocalCluster::start(3, serve_config, fast_cluster_config()).expect("start cluster");
    let coordinator = cluster.coordinator();
    assert_eq!(coordinator.config().replication_factor, 2);
    // The dp-dense shape: the descended net does not settle these, so
    // each solve runs a DP.
    let insts: Vec<Instance> = (0..4).map(|seed| uniform(seed, 36, 12, 30, 100)).collect();
    for inst in &insts {
        coordinator.solve(request(inst)).expect("warm solve");
    }
    // Kill on a steady-state fleet, not mid-ship.
    wait_for_fresh_warm_seqs(&cluster);
    coordinator.sync_warm();

    cluster.kill(0);
    let deadline = Instant::now() + Duration::from_secs(10);
    while coordinator.live_workers().len() != 2 {
        assert!(Instant::now() < deadline, "heartbeat never marked worker-0 down");
        std::thread::sleep(Duration::from_millis(25));
    }
    let joined = cluster.spawn().expect("join replacement");
    coordinator.sync_warm();

    let joined_idx = cluster.index_of(&joined).expect("known worker");
    let mut direct = Client::connect(cluster.addr(joined_idx)).expect("connect to joiner");
    let fresh = pcmax::Service::start(ServeConfig::default());
    let (mut joiner_misses, mut fresh_misses) = (0, 0);
    for inst in &insts {
        let reply = direct
            .solve(inst, Some(0.3), Some(Duration::from_secs(10)))
            .expect("solve on the joiner");
        joiner_misses += reply.cache_misses;
        fresh_misses += fresh
            .solve_blocking(request(inst))
            .expect("solve on a fresh service")
            .stats
            .cache_misses;
    }
    assert!(
        joiner_misses < fresh_misses,
        "the joiner recomputed {joiner_misses} probes, a fresh service {fresh_misses}"
    );
    let joined_service = cluster.service(joined_idx).expect("joiner alive");
    assert!(
        joined_service.warm().expect("store-backed").cold_misses_avoided() > 0,
        "the joiner never answered a probe from shipped warm state"
    );

    fresh.shutdown();
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Blocks until the coordinator's heartbeat-reported `warm_seq` of
/// every worker matches its log's, so a sync round's digest refresh
/// sees every entry.
fn wait_for_fresh_warm_seqs(cluster: &LocalCluster) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let report = cluster.coordinator().report();
        let fresh = (0..cluster.len()).all(|i| {
            let actual = cluster.service(i).expect("worker alive").warm_digest().max_seq;
            report.workers[i].warm_seq == actual
        });
        if fresh {
            return;
        }
        assert!(Instant::now() < deadline, "heartbeats never reported current warm seqs");
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn sync_round_keeps_every_key_on_its_top_two_owners_after_a_join() {
    // Default R = 2: after a join, one round must leave every known
    // warm key on its top-2 live rendezvous owners, and a second round
    // over current digests must find nothing to move.
    let dir = std::env::temp_dir().join(format!("pcmax-warmsync-top2-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let serve_config = ServeConfig {
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let cluster =
        LocalCluster::start(3, serve_config, fast_cluster_config()).expect("start cluster");
    let coordinator = cluster.coordinator();
    assert_eq!(coordinator.config().replication_factor, 2);
    for seed in 0..3 {
        coordinator
            .solve(request(&uniform(seed, 16, 3, 1, 100)))
            .expect("warm solve");
    }
    cluster.spawn().expect("join");

    wait_for_fresh_warm_seqs(&cluster);
    coordinator.sync_warm();
    let ids = cluster.ids();
    let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    let held: Vec<HashSet<u64>> = (0..cluster.len())
        .map(|i| {
            let digest = cluster.service(i).expect("worker alive").warm_digest();
            digest.entries.iter().map(|&(hash, _)| hash).collect()
        })
        .collect();
    let union: HashSet<u64> = held.iter().flatten().copied().collect();
    assert!(!union.is_empty(), "the solves left warm entries");
    for &hash in &union {
        for owner in rank_ids(&refs, hash).into_iter().take(2) {
            let i = cluster.index_of(owner).expect("known worker");
            assert!(held[i].contains(&hash), "{owner} lacks key {hash:#x}");
        }
    }

    wait_for_fresh_warm_seqs(&cluster);
    let again = coordinator.sync_warm();
    assert!(again.shipped == 0 && again.pulled == 0, "a converged round moved entries: {again:?}");

    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cluster_front_end_speaks_the_serve_protocol() {
    let cluster = LocalCluster::start(2, ServeConfig::default(), fast_cluster_config())
        .expect("start cluster");
    let handle = serve_cluster_tcp(Arc::clone(cluster.coordinator()), "127.0.0.1:0")
        .expect("bind front-end");
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    client.ping().expect("ping");
    let inst = uniform(3, 24, 3, 1, 50);
    let reply = client
        .solve(&inst, Some(0.3), Some(Duration::from_secs(10)))
        .expect("solve through the front-end");
    let makespan = reply.schedule.validate(&inst).expect("valid schedule");
    assert_eq!(makespan, reply.makespan);

    // An invalid request is rejected with an err-line, and the
    // connection keeps working.
    let err = client.solve(&inst, Some(9.0), None).unwrap_err();
    assert!(err.contains("epsilon"), "{err}");
    client.ping().expect("connection survives the err-line");

    // Warm verbs address a worker: the coordinator's dispatch rejects
    // them as non-retryable, and the connection keeps working.
    match client.warm_digest() {
        Err(ClientError::Server(msg)) => {
            assert!(msg.starts_with("invalid request:"), "{msg}")
        }
        other => panic!("warm-digest to the coordinator: {other:?}"),
    }
    client.ping().expect("connection survives the warm-verb rejection");

    // `stats` answers with the aggregated cluster report.
    let stats = client.stats_json().expect("stats");
    assert!(stats.contains("\"routed\":1"), "{stats}");
    assert!(stats.contains("\"workers\":["), "{stats}");
    assert!(stats.contains("\"worker-0\""), "{stats}");

    // `health` answers for the coordinator itself.
    let health = client.health().expect("health");
    assert!(health.uptime_us > 0);

    handle.shutdown();
}

#[test]
fn overflowing_requests_never_reach_the_workers_or_trigger_failover() {
    use std::io::{BufRead, BufReader, Write};

    let cluster = LocalCluster::start(2, ServeConfig::default(), fast_cluster_config())
        .expect("start cluster");
    let handle = serve_cluster_tcp(Arc::clone(cluster.coordinator()), "127.0.0.1:0")
        .expect("bind front-end");

    // Raw stream: an Instance whose total work wraps u64 can only exist
    // on the wire, so drive the front-end below the typed client.
    let stream = std::net::TcpStream::connect(handle.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    let half = u64::MAX / 2;
    writeln!(writer, "solve 2 0.3 - {half},{half},2").expect("send");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("recv");
    assert!(
        reply.starts_with("err invalid request: "),
        "the gate must answer with the non-retryable prefix: {reply}"
    );
    assert!(reply.contains("total work exceeds u64::MAX"), "{reply}");

    // Non-retryable means exactly that: the bad request is answered at
    // the front door — no routing, no same-worker retries, no failover
    // hops replaying the rejection across the fleet.
    let report = cluster.coordinator().report();
    assert_eq!(report.routed, 0, "rejected before routing: {report:?}");
    assert_eq!(report.retries, 0, "no retry storm: {report:?}");
    assert_eq!(report.failovers, 0, "no failover storm: {report:?}");
    for i in 0..cluster.len() {
        let accepted = cluster.service(i).expect("worker alive").report().accepted;
        assert_eq!(accepted, 0, "worker {i} must never see the bad request");
    }

    // The same connection then serves a well-formed request normally.
    writeln!(writer, "solve 2 0.3 - {half},{half},1").expect("send");
    let mut ok = String::new();
    reader.read_line(&mut ok).expect("recv");
    assert!(ok.starts_with("ok "), "sum == u64::MAX is representable: {ok}");
    assert_eq!(cluster.coordinator().report().completed, 1);

    handle.shutdown();
}
