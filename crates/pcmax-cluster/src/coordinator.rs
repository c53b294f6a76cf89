//! The cluster coordinator: rendezvous routing, worker membership, and
//! the request degradation ladder.
//!
//! Life of a request ([`Coordinator::solve`]): canonicalise to a
//! [`RouteKey`], rank the live workers by rendezvous score, and walk the
//! ladder — **route → bounded retry (backoff + jitter) → failover to the
//! next ring node → … → local LPT/MULTIFIT**. The bottom rung cannot
//! fail: a solvable instance always gets a valid schedule, so the
//! coordinator never surfaces a transport error to its client. Only
//! genuinely invalid requests (ε outside `(0, 1]`) are rejected.
//!
//! Membership: workers register with [`Coordinator::add_worker`] and
//! leave with [`Coordinator::remove_worker`]; rendezvous hashing makes
//! both O(1) in disruption — no ring re-balancing, the membership change
//! itself *is* the re-hash. A background heartbeat polls every worker's
//! `health` verb; `max_missed_beats` consecutive misses (heartbeat or
//! solve-path transport failures) mark a worker down, removing it from
//! routing until it answers again.

use crate::ring::{rendezvous_score, RouteKey};
use crate::stats::{ClusterReport, ClusterStats, WorkerReport};
use crate::worker::{WorkerNode, WorkerState};
use pcmax_core::Instance;
use pcmax_serve::{
    heuristic_best, Client, ClientError, ClientReply, RequestStats, SolveRequest, SolveResponse,
};
use std::net::SocketAddr;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for [`Coordinator::new`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Bound on the TCP handshake when (re)connecting to a worker.
    pub connect_timeout: Duration,
    /// Read/write timeout on worker connections — a hung worker costs at
    /// most this before the router fails over.
    pub io_timeout: Duration,
    /// Extra attempts on the same worker before failing over (0 = fail
    /// over on the first error).
    pub retries_per_worker: u32,
    /// Base backoff before a same-worker retry; attempt `a` waits
    /// `base · 2^(a-1)` plus jitter.
    pub backoff_base: Duration,
    /// Cap on any single backoff sleep.
    pub backoff_cap: Duration,
    /// Period of the background health poll.
    pub heartbeat_interval: Duration,
    /// Consecutive misses before a worker is marked down.
    pub max_missed_beats: u32,
    /// ε for requests that don't carry their own.
    pub default_epsilon: f64,
    /// Deadline for requests that don't carry their own.
    pub default_deadline: Duration,
    /// Memory-pressure threshold (percent of the worker's cache byte
    /// budget): a worker reporting at or above it stays routable but is
    /// ranked after every unpressured worker, so failover traffic flows
    /// to workers with cache headroom first.
    pub pressure_threshold_pct: u64,
    /// Replication factor R: every warm entry is kept by its rendezvous
    /// primary plus the next `R − 1` successors for its key. `1` =
    /// primary only.
    pub replication_factor: u32,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_millis(500),
            io_timeout: Duration::from_secs(5),
            retries_per_worker: 1,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(100),
            heartbeat_interval: Duration::from_millis(500),
            max_missed_beats: 3,
            default_epsilon: 0.3,
            default_deadline: Duration::from_secs(2),
            pressure_threshold_pct: 90,
            replication_factor: 2,
        }
    }
}

/// Why the coordinator refused a request. Transport problems are *not*
/// here by design — they end in local degradation, not an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The request was malformed (bad ε, …).
    Invalid(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Invalid(why) => write!(f, "invalid request: {why}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// One answered request, with its routing provenance.
#[derive(Debug, Clone)]
pub struct ClusterReply {
    /// The schedule and its stats (worker-reported, or local heuristic).
    pub response: SolveResponse,
    /// Which worker served it; `None` means the coordinator degraded
    /// locally after exhausting the ring.
    pub worker: Option<String>,
    /// Ring nodes moved past before this answer (0 = primary served).
    pub failovers: u32,
    /// Same-worker retries taken before this answer.
    pub retries: u32,
}

/// Outcome of one attempt against one worker.
enum Attempt {
    /// The worker answered; `err`-line or transport, try again/next.
    Retryable,
    /// The worker says the request itself is bad; do not retry anywhere.
    Invalid(String),
}

/// The cluster coordinator. Create with [`Coordinator::new`], register
/// workers, then share via `Arc` ([`Coordinator::start_heartbeat`] needs
/// one).
pub struct Coordinator {
    config: ClusterConfig,
    workers: RwLock<Vec<Arc<WorkerNode>>>,
    pub(crate) stats: ClusterStats,
    started: Instant,
    stop: Arc<(Mutex<bool>, Condvar)>,
    heartbeat: Mutex<Option<JoinHandle<()>>>,
    /// Serialises warmsync rounds (heartbeat vs direct callers).
    pub(crate) sync_lock: Mutex<()>,
    /// Sorted live ids seen by the previous sync round, so a round can
    /// count a live-set change in `rebalance_events`.
    pub(crate) last_membership: Mutex<Vec<String>>,
}

impl Coordinator {
    /// A coordinator with no workers yet.
    pub fn new(config: ClusterConfig) -> Arc<Self> {
        assert!(
            config.default_epsilon > 0.0 && config.default_epsilon <= 1.0,
            "default_epsilon must be in (0, 1]"
        );
        Arc::new(Self {
            config,
            workers: RwLock::new(Vec::new()),
            stats: ClusterStats::default(),
            started: Instant::now(),
            stop: Arc::new((Mutex::new(false), Condvar::new())),
            heartbeat: Mutex::new(None),
            sync_lock: Mutex::new(()),
            last_membership: Mutex::new(Vec::new()),
        })
    }

    /// The configuration the coordinator was created with.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Time since the coordinator was created.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Registers a worker. Rendezvous hashing re-hashes implicitly: the
    /// new worker steals exactly the keys it now wins, every other key
    /// keeps its warm route.
    pub fn add_worker(&self, id: &str, addr: SocketAddr) {
        let node = Arc::new(WorkerNode::new(id, addr));
        self.workers.write().expect("workers poisoned").push(node);
    }

    /// Deregisters a worker; `None` if the id was unknown. Only the
    /// removed worker's keys remap. Returns the worker's last-known
    /// state (pressure, warm seq, …) so operators see what the fleet
    /// just lost.
    pub fn remove_worker(&self, id: &str) -> Option<WorkerState> {
        let mut workers = self.workers.write().expect("workers poisoned");
        let snapshot = workers.iter().find(|w| w.id == id).map(|w| w.state());
        workers.retain(|w| w.id != id);
        snapshot
    }

    /// Ids of workers currently marked up.
    pub fn live_workers(&self) -> Vec<String> {
        self.workers
            .read()
            .expect("workers poisoned")
            .iter()
            .filter(|w| w.is_up())
            .map(|w| w.id.clone())
            .collect()
    }

    pub(crate) fn snapshot_workers(&self) -> Vec<Arc<WorkerNode>> {
        self.workers.read().expect("workers poisoned").clone()
    }

    /// Live workers ranked by rendezvous score for `key_hash`, best
    /// first. If every worker is marked down the full set is ranked
    /// instead — a desperate request still prefers *trying* a worker
    /// over silently degrading.
    ///
    /// Memory pressure overrides rendezvous affinity: every worker at or
    /// above `pressure_threshold_pct` sorts after every worker below it
    /// (by heartbeat-reported pressure). A pressured worker's cache is
    /// thrashing against its byte budget, so preserving its affinity
    /// would route requests at exactly the node least able to cache
    /// them — but it stays in the order as a late rung, because a
    /// pressured worker still beats local degradation.
    fn rank(&self, key_hash: u64) -> Vec<Arc<WorkerNode>> {
        let workers = self.workers.read().expect("workers poisoned");
        let mut ranked: Vec<Arc<WorkerNode>> =
            workers.iter().filter(|w| w.is_up()).cloned().collect();
        if ranked.is_empty() {
            ranked = workers.clone();
        }
        drop(workers);
        let threshold = self.config.pressure_threshold_pct;
        ranked.sort_by(|a, b| {
            let (pa, pb) = (a.pressure_pct(), b.pressure_pct());
            (pa >= threshold)
                .cmp(&(pb >= threshold))
                .then_with(|| {
                    rendezvous_score(b.seed, key_hash).cmp(&rendezvous_score(a.seed, key_hash))
                })
                .then_with(|| a.id.cmp(&b.id))
        });
        ranked
    }

    /// Routes, retries, fails over, and — as the last rung — degrades
    /// locally. Never returns a transport error; `Err` only for invalid
    /// requests.
    pub fn solve(&self, req: SolveRequest) -> Result<ClusterReply, ClusterError> {
        let eps = req.epsilon.unwrap_or(self.config.default_epsilon);
        if !(eps > 0.0 && eps <= 1.0) {
            self.stats.invalid.inc();
            return Err(ClusterError::Invalid(format!("epsilon {eps} outside (0, 1]")));
        }
        let k = (1.0 / eps).ceil() as u64;
        let key = RouteKey::of(&req.instance, k);
        let deadline = req.deadline.unwrap_or(self.config.default_deadline);
        let started = Instant::now();
        self.stats.routed.inc();

        let ranked = self.rank(key.hash64());
        let mut retries = 0u32;
        for (hop, worker) in ranked.iter().enumerate() {
            for attempt in 0..=self.config.retries_per_worker {
                if attempt > 0 {
                    retries += 1;
                    self.stats.retries.inc();
                    std::thread::sleep(self.backoff(key.hash64(), attempt));
                }
                let remaining = deadline.saturating_sub(started.elapsed());
                match self.try_worker(worker, &req.instance, eps, remaining) {
                    Ok(reply) => {
                        return Ok(self.finish(reply, worker, hop as u32, retries, started))
                    }
                    Err(Attempt::Invalid(msg)) => {
                        self.stats.invalid.inc();
                        return Err(ClusterError::Invalid(msg));
                    }
                    Err(Attempt::Retryable) => {}
                }
            }
            self.stats.failovers.inc();
        }
        Ok(self.degrade_local(&req.instance, ranked.len() as u32, retries, started))
    }

    /// Exponential backoff with deterministic jitter: attempt `a` sleeps
    /// `base · 2^(a-1) + jitter`, capped. The jitter is derived from the
    /// route key and attempt, so colliding retry storms for *different*
    /// keys spread out while a given request stays reproducible.
    fn backoff(&self, key_hash: u64, attempt: u32) -> Duration {
        let base = self.config.backoff_base.as_micros() as u64;
        let exp = base.saturating_mul(1u64 << (attempt - 1).min(16));
        let jitter = crate::ring::rendezvous_score(key_hash, attempt as u64) % base.max(1);
        Duration::from_micros(exp + jitter).min(self.config.backoff_cap)
    }

    /// One attempt against one worker over its pooled connection.
    fn try_worker(
        &self,
        worker: &Arc<WorkerNode>,
        inst: &Instance,
        eps: f64,
        deadline: Duration,
    ) -> Result<ClientReply, Attempt> {
        worker.counters.attempts.inc();
        let mut conn = worker.conn.lock().expect("worker conn poisoned");
        if conn.is_none() {
            match Client::connect_timeout(&worker.addr, self.config.connect_timeout) {
                Ok(client) => {
                    let _ = client.set_io_timeout(Some(self.config.io_timeout));
                    *conn = Some(client);
                }
                Err(e) => {
                    drop(conn);
                    self.note_transport(worker, &format!("connect: {e}"));
                    return Err(Attempt::Retryable);
                }
            }
        }
        let result = conn
            .as_mut()
            .expect("connection just established")
            .solve_detailed(inst, Some(eps), Some(deadline));
        match result {
            Ok(reply) => {
                drop(conn);
                Ok(reply)
            }
            Err(ClientError::Transport(why)) => {
                // The stream is unusable; reconnect on the next attempt.
                *conn = None;
                drop(conn);
                self.note_transport(worker, &why);
                Err(Attempt::Retryable)
            }
            Err(ClientError::Server(msg)) => {
                drop(conn);
                worker.counters.server_errors.inc();
                if msg.starts_with("invalid request") {
                    Err(Attempt::Invalid(msg))
                } else {
                    // Overloaded / shutting down: the request is fine,
                    // the worker is not — retry, then fail over.
                    Err(Attempt::Retryable)
                }
            }
        }
    }

    /// Books a successful remote answer and rebuilds the response.
    fn finish(
        &self,
        reply: ClientReply,
        worker: &Arc<WorkerNode>,
        failovers: u32,
        retries: u32,
        started: Instant,
    ) -> ClusterReply {
        self.stats.completed.inc();
        self.stats.dp_cache_hits.add(reply.cache_hits);
        self.stats.dp_cache_misses.add(reply.cache_misses);
        if reply.degraded {
            self.stats.degraded_remote.inc();
        }
        worker.counters.ok.inc();
        if failovers > 0 {
            worker.counters.failover_serves.inc();
        }
        if pcmax_obs::enabled() {
            let latency = started.elapsed().as_micros() as u64;
            self.stats.latency_us.record(latency);
            worker.counters.latency_us.record(latency);
        }
        self.mark_alive(worker);
        ClusterReply {
            response: SolveResponse {
                schedule: reply.schedule,
                makespan: reply.makespan,
                target: reply.target,
                machines_used: None,
                degraded: reply.degraded,
                stats: RequestStats {
                    queue_wait_us: reply.queue_wait_us,
                    solve_us: reply.solve_us,
                    cache_hits: reply.cache_hits,
                    cache_misses: reply.cache_misses,
                    degraded: reply.degraded,
                    engine: reply.engine,
                    guarantee: reply.guarantee,
                    gap_ppm: reply.gap_ppm,
                },
            },
            worker: Some(worker.id.clone()),
            failovers,
            retries,
        }
    }

    /// The ladder's bottom rung: the better of LPT-revisited and
    /// MULTIFIT, computed in-process. Always a valid schedule, carrying
    /// the winning heuristic's certified guarantee.
    fn degrade_local(
        &self,
        inst: &Instance,
        failovers: u32,
        retries: u32,
        started: Instant,
    ) -> ClusterReply {
        let (schedule, engine, guarantee) = heuristic_best(inst);
        let makespan = schedule.makespan(inst);
        self.stats.completed.inc();
        self.stats.degraded_local.inc();
        if pcmax_obs::enabled() {
            self.stats.latency_us.record(started.elapsed().as_micros() as u64);
        }
        ClusterReply {
            response: SolveResponse {
                schedule,
                makespan,
                target: None,
                machines_used: None,
                degraded: true,
                stats: RequestStats {
                    queue_wait_us: 0,
                    solve_us: started.elapsed().as_micros() as u64,
                    cache_hits: 0,
                    cache_misses: 0,
                    degraded: true,
                    engine,
                    guarantee,
                    gap_ppm: pcmax_core::Guarantee::gap_ppm(
                        makespan,
                        pcmax_core::lower_bound(inst),
                    ),
                },
            },
            worker: None,
            failovers,
            retries,
        }
    }

    /// Books a transport failure and advances the mark-down state.
    fn note_transport(&self, worker: &WorkerNode, _why: &str) {
        self.stats.transport_errors.inc();
        worker.counters.transport_errors.inc();
        self.note_miss(worker);
    }

    /// One more consecutive miss; marks the worker down at the
    /// threshold.
    pub(crate) fn note_miss(&self, worker: &WorkerNode) {
        let mut state = worker.state.lock().expect("worker state poisoned");
        state.missed_beats = state.missed_beats.saturating_add(1);
        if state.up && state.missed_beats >= self.config.max_missed_beats {
            state.up = false;
            self.stats.marked_down.inc();
        }
    }

    /// A successful round-trip: resets misses, revives a down worker.
    fn mark_alive(&self, worker: &WorkerNode) {
        let mut state = worker.state.lock().expect("worker state poisoned");
        state.missed_beats = 0;
        if !state.up {
            state.up = true;
            self.stats.marked_up.inc();
        }
    }

    /// Spawns the background heartbeat (idempotent). Each beat polls
    /// every worker's `health` verb on a fresh short-lived connection so
    /// heartbeats never contend with solve traffic for the pooled one.
    pub fn start_heartbeat(self: &Arc<Self>) {
        let mut guard = self.heartbeat.lock().expect("heartbeat poisoned");
        if guard.is_some() {
            return;
        }
        let coordinator = Arc::clone(self);
        *guard = Some(
            std::thread::Builder::new()
                .name("pcmax-cluster-heartbeat".into())
                .spawn(move || coordinator.heartbeat_loop())
                .expect("spawn heartbeat"),
        );
    }

    fn heartbeat_loop(&self) {
        let (lock, cvar) = &*self.stop;
        loop {
            {
                let mut stopped = lock.lock().expect("stop poisoned");
                let (guard, _) = cvar
                    .wait_timeout_while(stopped, self.config.heartbeat_interval, |s| !*s)
                    .expect("stop poisoned");
                stopped = guard;
                if *stopped {
                    return;
                }
            }
            for worker in self.snapshot_workers() {
                match self.probe_health(&worker) {
                    Ok(reply) => {
                        self.stats.heartbeats_ok.inc();
                        worker.set_health(&reply);
                        self.mark_alive(&worker);
                    }
                    Err(_) => {
                        self.stats.heartbeats_missed.inc();
                        self.note_miss(&worker);
                    }
                }
            }
            // Warm replication rides the heartbeat cadence: the sync
            // round sees the `warm_seq` this beat just reported and any
            // live-set change (join, crash, revival) it caused.
            let _ = self.sync_warm();
        }
    }

    fn probe_health(&self, worker: &WorkerNode) -> Result<pcmax_serve::HealthReply, String> {
        let mut client = Client::connect_timeout(&worker.addr, self.config.connect_timeout)
            .map_err(|e| format!("connect: {e}"))?;
        let _ = client.set_io_timeout(Some(self.config.io_timeout));
        client.health().map_err(|e| e.to_string())
    }

    /// Stops the heartbeat thread and joins it. Idempotent; also runs on
    /// drop.
    pub fn shutdown(&self) {
        {
            let (lock, cvar) = &*self.stop;
            *lock.lock().expect("stop poisoned") = true;
            cvar.notify_all();
        }
        if let Some(handle) = self.heartbeat.lock().expect("heartbeat poisoned").take() {
            let _ = handle.join();
        }
    }

    /// Counter/histogram/worker-state snapshot.
    pub fn report(&self) -> ClusterReport {
        let workers = self.snapshot_workers();
        ClusterReport {
            uptime_us: self.uptime().as_micros() as u64,
            routed: self.stats.routed.get(),
            completed: self.stats.completed.get(),
            degraded_remote: self.stats.degraded_remote.get(),
            degraded_local: self.stats.degraded_local.get(),
            failovers: self.stats.failovers.get(),
            retries: self.stats.retries.get(),
            transport_errors: self.stats.transport_errors.get(),
            invalid: self.stats.invalid.get(),
            dp_cache_hits: self.stats.dp_cache_hits.get(),
            dp_cache_misses: self.stats.dp_cache_misses.get(),
            heartbeats_ok: self.stats.heartbeats_ok.get(),
            heartbeats_missed: self.stats.heartbeats_missed.get(),
            marked_down: self.stats.marked_down.get(),
            marked_up: self.stats.marked_up.get(),
            warm_entries_shipped: self.stats.warm_entries_shipped.get(),
            warm_bytes_shipped: self.stats.warm_bytes_shipped.get(),
            warm_entries_pulled: self.stats.warm_entries_pulled.get(),
            warm_bytes_pulled: self.stats.warm_bytes_pulled.get(),
            warm_push_rejected: self.stats.warm_push_rejected.get(),
            rebalance_events: self.stats.rebalance_events.get(),
            latency_us: self.stats.latency_us.snapshot(),
            ship_us: self.stats.ship_us.snapshot(),
            pull_us: self.stats.pull_us.snapshot(),
            workers: workers.iter().map(|w| WorkerReport::of(w)).collect(),
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_core::gen::uniform;

    fn dead_addr() -> SocketAddr {
        // A listener we bind and immediately drop: connecting to it is a
        // deterministic, fast refusal.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    }

    #[test]
    fn no_workers_still_answers_with_local_heuristic() {
        let coordinator = Coordinator::new(ClusterConfig::default());
        let inst = uniform(1, 20, 3, 1, 40);
        let reply = coordinator
            .solve(SolveRequest {
                instance: inst.clone(),
                epsilon: Some(0.3),
                deadline: None,
            })
            .unwrap();
        assert!(reply.response.degraded);
        assert_eq!(reply.worker, None);
        assert_eq!(
            reply.response.schedule.validate(&inst).unwrap(),
            reply.response.makespan
        );
        let report = coordinator.report();
        assert_eq!(report.degraded_local, 1);
        assert_eq!(report.completed, 1);
    }

    #[test]
    fn dead_workers_degrade_locally_not_erroring() {
        let coordinator = Coordinator::new(ClusterConfig {
            retries_per_worker: 1,
            connect_timeout: Duration::from_millis(200),
            ..ClusterConfig::default()
        });
        coordinator.add_worker("dead-0", dead_addr());
        coordinator.add_worker("dead-1", dead_addr());
        let inst = uniform(2, 20, 3, 1, 40);
        let reply = coordinator
            .solve(SolveRequest {
                instance: inst.clone(),
                epsilon: Some(0.3),
                deadline: Some(Duration::from_secs(2)),
            })
            .unwrap();
        assert!(reply.response.degraded);
        assert_eq!(reply.worker, None);
        assert_eq!(reply.failovers, 2, "moved past both dead workers");
        assert_eq!(reply.retries, 2, "one retry per worker");
        let report = coordinator.report();
        assert_eq!(report.degraded_local, 1);
        assert_eq!(report.failovers, 2);
        assert_eq!(report.retries, 2);
        assert_eq!(report.transport_errors, 4, "2 attempts x 2 workers");
    }

    #[test]
    fn invalid_epsilon_is_the_only_rejection() {
        let coordinator = Coordinator::new(ClusterConfig::default());
        let err = coordinator
            .solve(SolveRequest {
                instance: uniform(3, 10, 2, 1, 20),
                epsilon: Some(2.0),
                deadline: None,
            })
            .unwrap_err();
        assert!(matches!(err, ClusterError::Invalid(_)));
        assert_eq!(coordinator.report().invalid, 1);
    }

    #[test]
    fn consecutive_transport_failures_mark_a_worker_down() {
        let coordinator = Coordinator::new(ClusterConfig {
            max_missed_beats: 2,
            retries_per_worker: 0,
            connect_timeout: Duration::from_millis(200),
            ..ClusterConfig::default()
        });
        coordinator.add_worker("dead", dead_addr());
        let inst = uniform(4, 16, 3, 1, 30);
        for _ in 0..2 {
            let _ = coordinator.solve(SolveRequest {
                instance: inst.clone(),
                epsilon: Some(0.3),
                deadline: None,
            });
        }
        let report = coordinator.report();
        assert_eq!(report.marked_down, 1);
        assert!(!report.workers[0].up);
        assert_eq!(coordinator.live_workers(), Vec::<String>::new());
    }

    #[test]
    fn pressured_workers_rank_after_unpressured() {
        let coordinator = Coordinator::new(ClusterConfig {
            pressure_threshold_pct: 50,
            ..ClusterConfig::default()
        });
        coordinator.add_worker("a", dead_addr());
        coordinator.add_worker("b", dead_addr());
        coordinator.add_worker("c", dead_addr());
        let ranked = coordinator.rank(42);
        let primary = ranked[0].id.clone();
        let second = ranked[1].id.clone();
        // At the threshold: the rendezvous winner drops to the back.
        ranked[0].set_pressure(50);
        let reranked = coordinator.rank(42);
        assert_eq!(reranked.last().unwrap().id, primary);
        assert_eq!(reranked[0].id, second, "unpressured order is preserved");
        // Below the threshold: affinity wins again.
        ranked[0].set_pressure(49);
        assert_eq!(coordinator.rank(42)[0].id, primary);
    }

    #[test]
    fn add_remove_worker_roundtrip() {
        let coordinator = Coordinator::new(ClusterConfig::default());
        coordinator.add_worker("a", dead_addr());
        coordinator.add_worker("b", dead_addr());
        assert_eq!(coordinator.live_workers().len(), 2);
        let snapshot = coordinator.remove_worker("a").expect("known worker");
        assert!(snapshot.up, "never heartbeated, still presumed up");
        assert_eq!(snapshot.warm_seq, 0);
        assert!(coordinator.remove_worker("a").is_none(), "already gone");
        assert_eq!(coordinator.live_workers(), vec!["b".to_string()]);
    }
}
