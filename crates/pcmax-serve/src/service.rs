//! The in-process solver service: bounded admission queue, worker pool,
//! `(ε, k)`-bucketed batching, and deadline-aware degradation.
//!
//! Life of a request: [`Service::submit`] stamps it with its deadline and
//! tries to enqueue (full queue ⇒ immediate [`ServeError::Overloaded`] —
//! the service sheds load at the door rather than letting latency grow
//! unbounded). A worker drains a batch, groups it by the rounding
//! parameter `k` so consecutive solves share cache keys, and answers each
//! request through the [`crate::portfolio`] — a feature-driven pick of
//! one PTAS / heuristic arm. A request whose deadline expires
//! (or whose DP table would blow the cell budget) is *not* an error: it
//! degrades to the heuristic safety net and the response says so,
//! carrying the [`pcmax_core::Guarantee`] of the arm that actually
//! answered.

use crate::portfolio::{heuristic_net, solve_portfolio, PortfolioCounters, PortfolioPolicy};
use crate::solver::{DpCache, ReprPolicy, SolverOptions};
use crate::stats::{
    EngineUsed, HealthReply, ReprReport, RequestStats, ServeMetrics, ServiceReport, StoreReport,
};
use crate::warm::WarmTier;
use pcmax_core::{Guarantee, Instance, Schedule};
use pcmax_ptas::DpEngine;
use pcmax_store::StoreBudget;
use pcmax_warmsync::{ReplicaBudget, ShipEntry, WarmDigest};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for [`Service::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads. `0` is allowed: requests queue but are never
    /// drained — useful for deterministic overload tests.
    pub workers: usize,
    /// Admission-queue capacity; submits beyond it are rejected.
    pub queue_capacity: usize,
    /// Most requests a worker drains in one batch.
    pub batch_max: usize,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline: Duration,
    /// ε applied to requests that don't carry their own.
    pub default_epsilon: f64,
    /// DP engine for cache misses.
    pub engine: DpEngine,
    /// Shards of the DP cache.
    pub cache_shards: usize,
    /// Byte budget of the DP cache, split evenly across the shards.
    pub mem_budget: StoreBudget,
    /// Directory for the persistent warm-start log. `None` runs
    /// RAM-only: nothing is persisted and restarts start cold.
    pub store_dir: Option<PathBuf>,
    /// Largest DP table (in cells) a probe may allocate before the
    /// request degrades to a heuristic.
    pub max_table_cells: usize,
    /// Which DP representations probes may use. Under [`ReprPolicy::Auto`]
    /// each probe is predicted into dense, sparse, or (when a store
    /// directory exists) paged before anything is allocated.
    pub repr: ReprPolicy,
    /// RAM budget of each paged solve's tiered store (only used when a
    /// store directory enables the paged arm).
    pub pages_budget: StoreBudget,
    /// Read/write timeout applied to every TCP stream the front-end
    /// accepts, so a hung peer can never wedge a connection thread.
    /// `None` disables the timeout (streams block forever, the
    /// pre-cluster behaviour).
    pub io_timeout: Option<Duration>,
    /// How the per-request solver arm is picked: feature-driven
    /// [`PortfolioPolicy::Auto`] (the default) or one pinned arm.
    pub portfolio: PortfolioPolicy,
    /// Byte budget for warm entries this worker stores *on behalf of
    /// the ring* (warmsync replication). Oldest replicas are evicted
    /// first once exceeded. Entries this worker computed itself are
    /// never charged.
    pub replica_budget: StoreBudget,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 256,
            batch_max: 32,
            default_deadline: Duration::from_secs(2),
            default_epsilon: 0.3,
            engine: DpEngine::AntiDiagonal,
            cache_shards: 8,
            mem_budget: StoreBudget::default(),
            store_dir: None,
            max_table_cells: 10_000_000,
            repr: ReprPolicy::Auto,
            pages_budget: StoreBudget::default(),
            io_timeout: Some(Duration::from_secs(30)),
            portfolio: PortfolioPolicy::Auto,
            replica_budget: StoreBudget::bytes(16 << 20),
        }
    }
}

/// A solve request as the service accepts it.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// The instance to schedule.
    pub instance: Instance,
    /// Relative error ε in `(0, 1]`; `None` uses the config default.
    pub epsilon: Option<f64>,
    /// Time budget from admission; `None` uses the config default.
    pub deadline: Option<Duration>,
}

/// A solved (possibly degraded) request.
#[derive(Debug, Clone)]
pub struct SolveResponse {
    /// Valid schedule of all jobs.
    pub schedule: Schedule,
    /// Its makespan.
    pub makespan: u64,
    /// Converged target `T*` (PTAS answers only).
    pub target: Option<u64>,
    /// Machines the DP used for long jobs (PTAS answers only).
    pub machines_used: Option<usize>,
    /// Whether the answer was degraded to a heuristic.
    pub degraded: bool,
    /// Per-request cost breakdown.
    pub stats: RequestStats,
}

/// Why the service refused or dropped a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The admission queue was full.
    Overloaded,
    /// The service is shutting down (or did so before answering).
    ShuttingDown,
    /// The request was malformed (bad ε, empty instance, …).
    Invalid(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => f.write_str("queue full, request rejected"),
            ServeError::ShuttingDown => f.write_str("service shutting down"),
            ServeError::Invalid(why) => write!(f, "invalid request: {why}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One admitted request, queued for a worker.
struct QueuedJob {
    instance: Instance,
    k: u64,
    enqueued: Instant,
    deadline: Instant,
    reply: mpsc::SyncSender<SolveResponse>,
}

/// Bounded MPMC queue: `Mutex<VecDeque>` + `Condvar`, with batch draining.
struct Queue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
}

struct QueueInner {
    jobs: VecDeque<QueuedJob>,
    capacity: usize,
    closed: bool,
}

impl Queue {
    fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                capacity,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Admission control: rejects instead of blocking when full.
    fn try_push(&self, job: QueuedJob) -> Result<(), ServeError> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed {
            return Err(ServeError::ShuttingDown);
        }
        if inner.jobs.len() >= inner.capacity {
            return Err(ServeError::Overloaded);
        }
        inner.jobs.push_back(job);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until at least one job is available (or the queue closes),
    /// then drains up to `max` jobs. `None` means closed *and* drained.
    fn pop_batch(&self, max: usize) -> Option<Vec<QueuedJob>> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if !inner.jobs.is_empty() {
                let take = inner.jobs.len().min(max);
                return Some(inner.jobs.drain(..take).collect());
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("queue poisoned");
        }
    }

    /// Jobs currently queued (admitted but not yet picked up).
    fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").jobs.len()
    }

    /// Closes the queue and drops every still-queued job. Dropping a job
    /// drops its reply sender, which fails the submitter's
    /// `PendingSolve::recv` with `ShuttingDown` instead of hanging it.
    fn close(&self) {
        let dropped: Vec<QueuedJob> = {
            let mut inner = self.inner.lock().expect("queue poisoned");
            inner.closed = true;
            inner.jobs.drain(..).collect()
        };
        drop(dropped);
        self.ready.notify_all();
    }
}

/// A pending answer returned by [`Service::submit`].
#[derive(Debug)]
pub struct PendingSolve {
    rx: mpsc::Receiver<SolveResponse>,
}

impl PendingSolve {
    /// Blocks until the worker answers. [`ServeError::ShuttingDown`] if
    /// the service stopped before this request was solved.
    pub fn recv(self) -> Result<SolveResponse, ServeError> {
        self.rx.recv().map_err(|_| ServeError::ShuttingDown)
    }
}

/// Shared service counters.
#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    completed: AtomicU64,
    degraded: AtomicU64,
    rejected: AtomicU64,
    repr_dense: AtomicU64,
    repr_sparse: AtomicU64,
    repr_paged: AtomicU64,
    paged_faults: AtomicU64,
    prefetch_issued: AtomicU64,
    prefetch_hits: AtomicU64,
    writebehind_writes: AtomicU64,
}

/// Everything a worker thread needs. Workers deliberately do NOT hold
/// the [`Service`] itself: they own only these leaf Arcs, so dropping
/// the last user handle to the service runs its `Drop`, closes the
/// queue, and lets the workers exit — no reference cycle.
#[derive(Clone)]
struct WorkerCtx {
    queue: Arc<Queue>,
    cache: Arc<DpCache>,
    warm: Option<Arc<WarmTier>>,
    counters: Arc<Counters>,
    metrics: Arc<ServeMetrics>,
    arms: Arc<PortfolioCounters>,
    solver: SolverOptions,
    portfolio: PortfolioPolicy,
    batch_max: usize,
}

/// The solver service. Create with [`Service::start`]; share via `Arc`.
pub struct Service {
    config: ServeConfig,
    queue: Arc<Queue>,
    cache: Arc<DpCache>,
    warm: Option<Arc<WarmTier>>,
    counters: Arc<Counters>,
    metrics: Arc<ServeMetrics>,
    arms: Arc<PortfolioCounters>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    started: Instant,
    /// Byte accounting for warm entries held on behalf of the ring.
    replica_budget: Mutex<ReplicaBudget>,
    replica_evictions: AtomicU64,
}

impl Service {
    /// Validates the config, spins up the worker pool, and returns the
    /// running service.
    pub fn start(config: ServeConfig) -> Arc<Self> {
        assert!(
            config.default_epsilon > 0.0 && config.default_epsilon <= 1.0,
            "default_epsilon must be in (0, 1]"
        );
        assert!(config.queue_capacity > 0, "queue_capacity must be positive");
        assert!(config.batch_max > 0, "batch_max must be positive");
        let queue = Arc::new(Queue::new(config.queue_capacity));
        let shards = config.cache_shards.max(1);
        let budget_per_shard = (config.mem_budget.bytes / shards as u64).max(1);
        let cache = Arc::new(DpCache::new(shards, budget_per_shard));
        // A store dir that cannot be opened is a deployment error, not a
        // per-request condition: fail loudly at startup.
        let warm = config.store_dir.as_ref().map(|dir| {
            Arc::new(
                WarmTier::open(dir.join("warm"))
                    .unwrap_or_else(|e| panic!("cannot open warm store at {}: {e}", dir.display())),
            )
        });
        let counters = Arc::new(Counters::default());
        let metrics = Arc::new(ServeMetrics::default());
        let arms = Arc::new(PortfolioCounters::default());
        // The paged arm spills per-solve scratch pages next to the warm
        // log; without a store directory the Auto ladder ends at sparse.
        let solver = SolverOptions {
            engine: config.engine,
            repr: config.repr,
            max_table_cells: config.max_table_cells,
            pages_dir: config.store_dir.as_ref().map(|dir| dir.join("pages")),
            pages_budget: config.pages_budget,
        };
        let ctx = WorkerCtx {
            queue: Arc::clone(&queue),
            cache: Arc::clone(&cache),
            warm: warm.clone(),
            counters: Arc::clone(&counters),
            metrics: Arc::clone(&metrics),
            arms: Arc::clone(&arms),
            solver,
            portfolio: config.portfolio,
            batch_max: config.batch_max,
        };
        let handles: Vec<JoinHandle<()>> = (0..config.workers)
            .map(|i| {
                let ctx = ctx.clone();
                std::thread::Builder::new()
                    .name(format!("pcmax-serve-worker-{i}"))
                    .spawn(move || ctx.worker_loop())
                    .expect("spawn worker")
            })
            .collect();
        let replica_budget = Mutex::new(ReplicaBudget::new(config.replica_budget.bytes));
        Arc::new(Self {
            config,
            queue,
            cache,
            warm,
            counters,
            metrics,
            arms,
            workers: Mutex::new(handles),
            started: Instant::now(),
            replica_budget,
            replica_evictions: AtomicU64::new(0),
        })
    }

    /// Validates and enqueues a request; returns a handle to await.
    pub fn submit(&self, req: SolveRequest) -> Result<PendingSolve, ServeError> {
        let eps = req.epsilon.unwrap_or(self.config.default_epsilon);
        if !(eps > 0.0 && eps <= 1.0) {
            return Err(ServeError::Invalid(format!(
                "epsilon {eps} outside (0, 1]"
            )));
        }
        let k = (1.0 / eps).ceil() as u64;
        let now = Instant::now();
        let deadline = now + req.deadline.unwrap_or(self.config.default_deadline);
        // Rendezvous of capacity 1: the worker's send never blocks even
        // if the submitter gave up waiting.
        let (tx, rx) = mpsc::sync_channel(1);
        let job = QueuedJob {
            instance: req.instance,
            k,
            enqueued: now,
            deadline,
            reply: tx,
        };
        match self.queue.try_push(job) {
            Ok(()) => {
                self.counters.accepted.fetch_add(1, Ordering::Relaxed);
                Ok(PendingSolve { rx })
            }
            Err(e) => {
                if e == ServeError::Overloaded {
                    self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                }
                Err(e)
            }
        }
    }

    /// Submit + await in one call.
    pub fn solve_blocking(&self, req: SolveRequest) -> Result<SolveResponse, ServeError> {
        self.submit(req)?.recv()
    }

    /// Counter and histogram snapshot (including the cache's and the
    /// memory tiers').
    pub fn report(&self) -> ServiceReport {
        ServiceReport {
            accepted: self.counters.accepted.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            degraded: self.counters.degraded.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            repr: ReprReport {
                dense_probes: self.counters.repr_dense.load(Ordering::Relaxed),
                sparse_probes: self.counters.repr_sparse.load(Ordering::Relaxed),
                paged_probes: self.counters.repr_paged.load(Ordering::Relaxed),
            },
            portfolio: self.arms.report(),
            cache: self.cache.report(),
            store: self.store_report(),
            histograms: self.metrics.snapshot(),
        }
    }

    /// Snapshot of the memory tiers: RAM cache vs. budget, warm
    /// disk-tier counters, and the page traffic of this service's paged
    /// probes (summed from their per-solve scratch stores).
    pub fn store_report(&self) -> StoreReport {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        StoreReport {
            budget_bytes: self.cache.budget_bytes(),
            cache_bytes: self.cache.bytes(),
            pressure_pct: self.pressure_pct(),
            warm_entries: self.warm.as_ref().map_or(0, |w| w.entries()),
            rehydrated: self.warm.as_ref().map_or(0, |w| w.rehydrated()),
            disk_hits: self.warm.as_ref().map_or(0, |w| w.hits()),
            appends: self.warm.as_ref().map_or(0, |w| w.appends()),
            warm_seq: self.warm.as_ref().map_or(0, |w| w.max_seq()),
            compactions: self.warm.as_ref().map_or(0, |w| w.compactions()),
            warmsync_applied: self.warm.as_ref().map_or(0, |w| w.entries_applied()),
            cold_misses_avoided: self.warm.as_ref().map_or(0, |w| w.cold_misses_avoided()),
            replica_bytes: self.replica_budget.lock().expect("replica lock").used(),
            replica_evictions: self.replica_evictions.load(Ordering::Relaxed),
            fault_us: self
                .warm
                .as_ref()
                .map_or_else(Default::default, |w| w.fault_latency()),
            paged_faults: load(&self.counters.paged_faults),
            prefetch_issued: load(&self.counters.prefetch_issued),
            prefetch_hits: load(&self.counters.prefetch_hits),
            writebehind_writes: load(&self.counters.writebehind_writes),
        }
    }

    /// DP-cache residency as a percentage of its byte budget, clamped
    /// to 100.
    pub fn pressure_pct(&self) -> u64 {
        let budget = self.cache.budget_bytes().max(1);
        (self.cache.bytes().saturating_mul(100) / budget).min(100)
    }

    /// The shared DP cache (exposed for tests and diagnostics).
    pub fn cache(&self) -> &DpCache {
        &self.cache
    }

    /// The warm disk tier, when the service was started with a store
    /// directory.
    pub fn warm(&self) -> Option<&WarmTier> {
        self.warm.as_deref()
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Jobs currently admitted but not yet picked up by a worker.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Time since [`Service::start`].
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Liveness snapshot — the payload of the protocol's `health` verb
    /// (and of the cluster coordinator's heartbeat).
    pub fn health(&self) -> HealthReply {
        HealthReply {
            uptime_us: self.uptime().as_micros() as u64,
            queue_depth: self.queue_depth() as u64,
            cache_entries: self.cache.len() as u64,
            pressure_pct: self.pressure_pct(),
            warm_entries: self.warm.as_ref().map_or(0, |w| w.entries()),
            warm_seq: self.warm.as_ref().map_or(0, |w| w.max_seq()),
        }
    }

    /// The warm log's `(key hash, seq)` inventory — the `warm-digest`
    /// reply. Empty without a store directory.
    pub fn warm_digest(&self) -> WarmDigest {
        match self.warm.as_ref() {
            None => WarmDigest::default(),
            Some(w) => WarmDigest {
                max_seq: w.max_seq(),
                entries: w.digest(),
            },
        }
    }

    /// Warm entries with seq > `since_seq` and key hash in `lo..=hi` —
    /// the `warm-pull` reply body. Empty without a store directory.
    pub fn warm_pull(&self, since_seq: u64, lo: u64, hi: u64) -> Vec<ShipEntry> {
        self.warm
            .as_ref()
            .map_or_else(Vec::new, |w| w.entries_since(since_seq, lo, hi))
    }

    /// Applies pushed warm entries: each token is decoded (checksum
    /// re-verified), appended to the warm log, and charged to the
    /// replica byte budget; the budget's oldest-first evictions are
    /// carried out immediately. Returns `(accepted, rejected)`. A
    /// worker without a store directory rejects everything — it has
    /// nowhere durable to put replicas.
    pub fn warm_apply(&self, tokens: &[String]) -> (u64, u64) {
        let Some(warm) = self.warm.as_ref() else {
            return (0, tokens.len() as u64);
        };
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for token in tokens {
            let Ok(entry) = ShipEntry::from_token(token) else {
                rejected += 1;
                continue;
            };
            if !warm.apply(&entry) {
                rejected += 1;
                continue;
            }
            accepted += 1;
            let bytes = (entry.key.len() + entry.value.len()) as u64;
            let evicted = self
                .replica_budget
                .lock()
                .expect("replica lock")
                .charge(&entry.key, bytes);
            for key in evicted {
                warm.evict_raw(&key);
                self.replica_evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        (accepted, rejected)
    }

    /// Closes the queue and joins the workers. Queued-but-unsolved
    /// requests see [`ServeError::ShuttingDown`] on their handles.
    /// Idempotent; also invoked on drop.
    pub fn shutdown(&self) {
        self.queue.close();
        let handles = std::mem::take(&mut *self.workers.lock().expect("workers poisoned"));
        for h in handles {
            let _ = h.join();
        }
    }

}

impl WorkerCtx {
    fn worker_loop(&self) {
        while let Some(batch) = self.queue.pop_batch(self.batch_max) {
            if pcmax_obs::enabled() {
                self.metrics.batch_size.record(batch.len() as u64);
            }
            // Bucket the batch by k: requests sharing a rounding
            // parameter also share DP cache keys, so solving them
            // back-to-back maximises hit locality. Buckets run on this
            // worker, one after another: `workers` is the service's one
            // concurrency setting, and each solve's DP levels use the
            // shared pool when it is free.
            let mut buckets: BTreeMap<u64, Vec<QueuedJob>> = BTreeMap::new();
            for job in batch {
                buckets.entry(job.k).or_default().push(job);
            }
            for job in buckets.into_values().flatten() {
                self.solve_one(job);
            }
        }
    }

    fn solve_one(&self, job: QueuedJob) {
        let picked_up = Instant::now();
        let queue_wait_us = picked_up.duration_since(job.enqueued).as_micros() as u64;
        let solve_started = Instant::now();
        let out = solve_portfolio(
            &job.instance,
            job.k,
            &self.solver,
            &self.cache,
            self.warm.as_deref(),
            Some(job.deadline),
            self.portfolio,
            &self.arms,
        );
        self.counters
            .repr_dense
            .fetch_add(out.repr.dense, Ordering::Relaxed);
        self.counters
            .repr_sparse
            .fetch_add(out.repr.sparse, Ordering::Relaxed);
        if out.repr.paged > 0 {
            let c = &self.counters;
            c.repr_paged.fetch_add(out.repr.paged, Ordering::Relaxed);
            c.paged_faults.fetch_add(out.repr.paged_faults, Ordering::Relaxed);
            c.prefetch_issued.fetch_add(out.repr.prefetch_issued, Ordering::Relaxed);
            c.prefetch_hits.fetch_add(out.repr.prefetch_hits, Ordering::Relaxed);
            c.writebehind_writes.fetch_add(out.repr.writebehind_writes, Ordering::Relaxed);
        }
        if out.degraded {
            self.counters.degraded.fetch_add(1, Ordering::Relaxed);
        }
        let solve_us = solve_started.elapsed().as_micros() as u64;

        let gap_ppm = Guarantee::gap_ppm(out.makespan, pcmax_core::lower_bound(&job.instance));

        let response = SolveResponse {
            schedule: out.schedule,
            makespan: out.makespan,
            target: out.target,
            machines_used: out.machines_used,
            degraded: out.degraded,
            stats: RequestStats {
                queue_wait_us,
                solve_us,
                cache_hits: out.cache_hits,
                cache_misses: out.cache_misses,
                degraded: out.degraded,
                engine: out.engine,
                guarantee: out.guarantee,
                gap_ppm,
            },
        };
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
        if pcmax_obs::enabled() {
            self.metrics.queue_wait_us.record(response.stats.queue_wait_us);
            self.metrics.solve_us.record(response.stats.solve_us);
            self.metrics.gap_ppm.record(gap_ppm);
            if response.degraded {
                let lateness = Instant::now()
                    .saturating_duration_since(job.deadline)
                    .as_micros() as u64;
                self.metrics.degraded_lateness_us.record(lateness);
            }
        }
        // The submitter may have dropped its handle; that's fine.
        let _ = job.reply.try_send(response);
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The degradation answer: the portfolio's heuristic safety net with
/// no budget limit — the better of LPT-revisited and MULTIFIT (ties go
/// to LPT-revisited), with the certified guarantee of whichever arm
/// won. Used by the cluster coordinator's local-fallback path and to
/// seed `pcmax improve`; no service's [`ServiceReport`] counts its runs.
pub fn heuristic_best(inst: &Instance) -> (Schedule, EngineUsed, Guarantee) {
    let net = heuristic_net(inst, None, &PortfolioCounters::default());
    (net.schedule, net.engine, net.guarantee)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_core::gen::uniform;

    fn request(seed: u64) -> SolveRequest {
        SolveRequest {
            instance: uniform(seed, 20, 3, 1, 40),
            epsilon: None,
            deadline: None,
        }
    }

    /// The dp-dense shape (36 jobs, 12 machines, U[30, 100]): the
    /// descended net rarely proves itself optimal at LB there, so a cold
    /// solve runs a DP. Tests about the DP cache assert that premise.
    fn dp_instance(seed: u64) -> Instance {
        uniform(seed, 36, 12, 30, 100)
    }

    fn dp_request(seed: u64) -> SolveRequest {
        SolveRequest {
            instance: dp_instance(seed),
            epsilon: None,
            deadline: None,
        }
    }

    #[test]
    fn solves_and_validates() {
        let service = Service::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let res = service.solve_blocking(request(1)).unwrap();
        let inst = uniform(1, 20, 3, 1, 40);
        assert_eq!(res.schedule.validate(&inst).unwrap(), res.makespan);
        assert!(!res.degraded);
        assert_eq!(res.stats.engine, EngineUsed::Ptas);
        assert!(res.target.is_some());
        service.shutdown();
    }

    #[test]
    fn paged_store_counters_belong_to_the_service_that_paged() {
        let dir = std::env::temp_dir().join(format!("pcmax-service-pages-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Service A pages every probe through a scratch store whose
        // few-hundred-byte budget forces spilling; B in the same process
        // stays idle and must not book A's page faults as its own.
        let a = Service::start(ServeConfig {
            workers: 1,
            default_deadline: Duration::from_secs(60),
            store_dir: Some(dir.clone()),
            max_table_cells: 8,
            pages_budget: StoreBudget::bytes(384),
            portfolio: PortfolioPolicy::Fixed(crate::Arm::Ptas),
            ..ServeConfig::default()
        });
        let b = Service::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let inst = uniform(2, 12, 6, 50, 100);
        let res = a
            .solve_blocking(SolveRequest {
                instance: inst.clone(),
                epsilon: Some(0.17),
                deadline: None,
            })
            .unwrap();
        assert!(!res.degraded);
        res.schedule.validate(&inst).unwrap();
        let report = a.report();
        assert!(report.repr.paged_probes > 0, "{report:?}");
        assert!(report.store.paged_faults > 0, "{:?}", report.store);
        assert_eq!(b.report().store.paged_faults, 0);
        a.shutdown();
        b.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sparse_counts_belong_to_the_service_that_swept() {
        // Service A solves every probe with the sparse frontier sweep;
        // B in the same process stays idle and must report no sparse
        // work of its own.
        let a = Service::start(ServeConfig {
            workers: 1,
            repr: ReprPolicy::SparseOnly,
            portfolio: PortfolioPolicy::Fixed(crate::Arm::Ptas),
            ..ServeConfig::default()
        });
        let b = Service::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let inst = dp_instance(3);
        let res = a
            .solve_blocking(SolveRequest {
                instance: inst.clone(),
                epsilon: Some(0.3),
                deadline: None,
            })
            .unwrap();
        assert!(!res.degraded);
        assert!(res.stats.cache_misses > 0, "premise: the solve runs a DP");
        res.schedule.validate(&inst).unwrap();
        let repr = a.report().repr;
        assert!(repr.sparse_probes > 0, "{repr:?}");
        assert_eq!(repr.dense_probes + repr.paged_probes, 0, "{repr:?}");
        assert_eq!(b.report().repr, ReprReport::default());
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn repeated_instances_hit_the_cache() {
        let service = Service::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let cold = service.solve_blocking(dp_request(2)).unwrap();
        assert!(cold.stats.cache_misses > 0, "premise: the cold solve runs a DP");
        let warm = service.solve_blocking(dp_request(2)).unwrap();
        assert!(warm.stats.cache_hits > 0);
        assert_eq!(warm.stats.cache_misses, 0);
        assert_eq!(cold.makespan, warm.makespan);
        assert!(service.report().cache.hits > 0);
        service.shutdown();
    }

    #[test]
    fn zero_deadline_degrades_to_heuristic() {
        let service = Service::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let res = service
            .solve_blocking(SolveRequest {
                instance: uniform(3, 20, 3, 1, 40),
                epsilon: None,
                deadline: Some(Duration::ZERO),
            })
            .unwrap();
        assert!(res.degraded);
        assert!(res.target.is_none());
        assert!(matches!(
            res.stats.engine,
            EngineUsed::LptRev | EngineUsed::Multifit
        ));
        let inst = uniform(3, 20, 3, 1, 40);
        assert_eq!(res.schedule.validate(&inst).unwrap(), res.makespan);
        assert_eq!(service.report().degraded, 1);
        service.shutdown();
    }

    #[test]
    fn full_queue_rejects_with_overloaded() {
        // No workers: nothing drains, so the second submit must bounce.
        let service = Service::start(ServeConfig {
            workers: 0,
            queue_capacity: 1,
            ..ServeConfig::default()
        });
        let _pending = service.submit(request(4)).unwrap();
        let err = service.submit(request(5)).unwrap_err();
        assert_eq!(err, ServeError::Overloaded);
        assert_eq!(service.report().rejected, 1);
        service.shutdown();
    }

    #[test]
    fn shutdown_fails_pending_requests() {
        let service = Service::start(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        let pending = service.submit(request(6)).unwrap();
        service.shutdown();
        assert_eq!(pending.recv().unwrap_err(), ServeError::ShuttingDown);
    }

    #[test]
    fn invalid_epsilon_is_rejected() {
        let service = Service::start(ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        });
        let err = service
            .submit(SolveRequest {
                instance: uniform(7, 10, 2, 1, 20),
                epsilon: Some(1.5),
                deadline: None,
            })
            .unwrap_err();
        assert!(matches!(err, ServeError::Invalid(_)));
        service.shutdown();
    }

    #[test]
    fn restart_on_same_store_dir_warm_starts() {
        let dir = std::env::temp_dir().join(format!(
            "pcmax-service-restart-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            workers: 1,
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        {
            let service = Service::start(config.clone());
            let cold = service.solve_blocking(dp_request(8)).unwrap();
            assert!(cold.stats.cache_misses > 0, "premise: the cold solve runs a DP");
            let store = service.store_report();
            assert!(store.appends > 0, "misses must be persisted");
            assert_eq!(store.rehydrated, 0);
            service.shutdown();
        }
        let service = Service::start(config);
        let report = service.store_report();
        assert!(report.rehydrated > 0, "restart must rehydrate the log");
        let rehydrated = service.solve_blocking(dp_request(8)).unwrap();
        assert_eq!(
            rehydrated.stats.cache_misses, 0,
            "restarted worker must answer from disk, not recompute"
        );
        assert!(service.store_report().disk_hits > 0);
        service.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gap_ppm_is_the_reply_makespan_against_the_lower_bound() {
        let service = Service::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let res = service.solve_blocking(request(10)).unwrap();
        let inst = uniform(10, 20, 3, 1, 40);
        assert_eq!(
            res.stats.gap_ppm,
            Guarantee::gap_ppm(res.makespan, pcmax_core::lower_bound(&inst))
        );
        service.shutdown();
    }

    #[test]
    fn concurrent_submitters_all_get_answers() {
        // Misses of each instance solved alone on a fresh service: what
        // a request can miss at most, whatever else runs beside it.
        let cold: Vec<u64> = (0..4)
            .map(|seed| {
                let service = Service::start(ServeConfig::default());
                service.solve_blocking(dp_request(seed)).unwrap();
                let misses = service.report().cache.misses;
                service.shutdown();
                misses
            })
            .collect();
        assert!(
            cold.iter().all(|&m| m > 0),
            "premise: cold solves run a DP: {cold:?}"
        );
        let service = Service::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        // 4 distinct instances, each requested twice by its own thread;
        // a repeat is submitted once its twin is answered, so only the
        // cache can spare it the DP.
        let solve = |svc: &Service, seed: u64| {
            let res = svc.solve_blocking(dp_request(seed)).unwrap();
            assert_eq!(
                res.schedule.validate(&dp_instance(seed)).unwrap(),
                res.makespan
            );
            res.stats.cache_misses
        };
        let handles: Vec<_> = (0..4u64)
            .flat_map(|seed| {
                let (answered, twin_answered) = std::sync::mpsc::channel();
                let first = Arc::clone(&service);
                let repeat = Arc::clone(&service);
                [
                    std::thread::spawn(move || {
                        solve(&first, seed);
                        answered.send(()).unwrap();
                    }),
                    std::thread::spawn(move || {
                        twin_answered.recv().unwrap();
                        assert_eq!(solve(&repeat, seed), 0, "a repeat must hit the cache");
                    }),
                ]
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let report = service.report();
        assert_eq!(report.completed, 8);
        // Without the cache the 8 requests would miss twice the cold sum.
        let cold_sum: u64 = cold.iter().sum();
        assert!(
            report.cache.misses <= cold_sum,
            "{:?} vs {cold_sum}",
            report.cache
        );
        service.shutdown();
    }
}
