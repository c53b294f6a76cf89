//! The workloads: inputs, set-up, and the timed loops with their answer
//! checks.
//!
//! * `dp-dense` — closed loop of one client calling
//!   [`Service::solve_blocking`] on fresh paper-family instances (one
//!   service worker, default config: dense anti-diagonal DP, RAM only).
//! * `path-hot` — an open loop at a fixed offered rate through raw TCP →
//!   cluster front → coordinator → worker → service, on a pre-warmed
//!   working set, so every timed request is a DP-cache hit.
//!
//! The spilling configuration ([`paged_options`]: a table-cell cap and a
//! page budget that push probes through the dense → sparse → paged ladder)
//! is replayed layer by layer in the traced runs rather than timed end to
//! end; see `README.md` for why.

use crate::check::{check_line, check_response, Expected};
use pcmax_cluster::{serve_cluster_tcp, ClusterConfig, ClusterTcpHandle, LocalCluster};
use pcmax_core::Instance;
use pcmax_serve::{proto, ServeConfig, Service, SolveRequest, SolverOptions};
use pcmax_store::StoreBudget;
use std::collections::HashSet;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Relative error of every request; `k = ⌈1/ε⌉ = 4`.
pub const EPSILON: f64 = 0.3;
/// The rounding parameter that `EPSILON` implies.
pub const K: u64 = 4;
/// Table-cell cap of the spilling configuration: below the larger
/// probe tables of the paper family.
pub const PAGED_MAX_CELLS: usize = 2000;
/// Per-solve page budget of the spilling configuration, bytes: below the
/// packed size of the larger tables, so paged probes spill and fault.
pub const PAGES_BUDGET: u64 = 4096;
/// Instances generated during `dp-dense` set-up; a run that outlasts the
/// pool keeps drawing from the same seeded stream.
pub const DP_POOL: usize = 4096;
/// `path-hot` working set: instances, jobs per instance, machines.
pub const HOT_SET: usize = 128;
/// Jobs per `path-hot` instance.
pub const HOT_JOBS: usize = 40;
/// Machines per `path-hot` instance.
pub const HOT_MACHINES: usize = 8;
/// `path-hot` offered rate, requests per second over all connections.
pub const OFFERED_RPS: f64 = 2000.0;
/// How long set-up waits for warm replication before failing.
const REPLICATION_CAP: Duration = Duration::from_secs(20);
/// How long an open-loop connection waits for outstanding replies after
/// its last scheduled send before counting them as failed.
const REPLY_GRACE: Duration = Duration::from_secs(10);
/// Set-up repetitions per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold dense DP behind the in-process service.
    DpDense,
    /// Hot request path through the cluster front.
    PathHot,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::DpDense, Workload::PathHot];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DpDense => "dp-dense",
            Workload::PathHot => "path-hot",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Seed-stream tag: each workload draws unrelated instances.
    fn stream(self) -> u64 {
        match self {
            Workload::DpDense => 1,
            Workload::PathHot => 3,
        }
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Seed of item `i` of stream `stream` under the run seed.
pub fn stream_seed(seed: u64, stream: u64, i: u64) -> u64 {
    splitmix(splitmix(seed ^ splitmix(stream)) ^ i)
}

/// Instance `i` of a workload's stream. `dp-dense`: the paper's Table VII
/// uniform family at scale 1 (36 jobs, 12 machines, times U[30,100]).
/// `path-hot`: 40 jobs on 8 machines, times U[30,100].
pub fn instance(w: Workload, seed: u64, i: u64) -> Instance {
    let s = stream_seed(seed, w.stream(), i);
    match w {
        Workload::DpDense => pcmax_gpu::synth::instance_with_scale(s, 1),
        Workload::PathHot => pcmax_core::gen::uniform(s, HOT_JOBS, HOT_MACHINES, 30, 100),
    }
}

/// The service configuration every workload runs: one worker, the
/// default engine and portfolio, and a store directory when given (warm
/// log, spill pages).
pub fn serve_config(store: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        workers: 1,
        store_dir: store,
        ..ServeConfig::default()
    }
}

/// The solver options a service derives from `config`.
pub fn solver_options(config: &ServeConfig) -> SolverOptions {
    SolverOptions {
        engine: config.engine,
        repr: config.repr,
        max_table_cells: config.max_table_cells,
        pages_dir: config.store_dir.as_ref().map(|d| d.join("pages")),
        pages_budget: config.pages_budget,
    }
}

/// The spilling configuration: probes over [`PAGED_MAX_CELLS`] go sparse,
/// or paged through a [`PAGES_BUDGET`]-byte store spilling under `store`.
pub fn paged_options(store: PathBuf) -> SolverOptions {
    solver_options(&ServeConfig {
        max_table_cells: PAGED_MAX_CELLS,
        pages_budget: StoreBudget::bytes(PAGES_BUDGET),
        ..serve_config(Some(store))
    })
}

/// The request every workload sends for `inst`.
pub fn request(inst: &Instance) -> SolveRequest {
    SolveRequest {
        instance: inst.clone(),
        epsilon: Some(EPSILON),
        deadline: None,
    }
}

/// What one timed loop observed.
#[derive(Debug, Default, Clone)]
pub struct LoopStats {
    /// Latency of every request that passed its check, ns.
    pub latency_ns: Vec<u64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed: error, refusal, transport error, or a reply
    /// that failed the check.
    pub failed: u64,
    /// Replies flagged degraded.
    pub degraded: u64,
    /// Gap against the lower bound of every checked reply, ppm.
    pub gap_ppm: Vec<u64>,
    /// Wall time of the loop.
    pub elapsed: Duration,
    /// Generator lateness per request, ns: send time minus scheduled time
    /// (open loop), or reply-to-next-submit turnaround (closed loop).
    pub lag_ns: Vec<u64>,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Per-request spans (traced loops only).
    pub spans: Vec<Span>,
}

/// The per-request stats a traced loop records from each reply.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Queue wait the service reported, µs.
    pub queue_wait_us: u64,
    /// Solve time the service reported, µs.
    pub solve_us: u64,
    /// DP cache hits the service reported.
    pub cache_hits: u64,
    /// DP cache misses (DP runs) the service reported.
    pub cache_misses: u64,
}

impl LoopStats {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }

    /// Completed, checked requests per second.
    pub fn throughput_rps(&self) -> f64 {
        self.latency_ns.len() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// A started `dp-dense` service and its pre-generated instance pool.
pub struct DpState {
    /// The service under test.
    pub service: Arc<Service>,
    /// Instances `0..DP_POOL` of the workload's stream.
    pub pool: Vec<Instance>,
    /// The solver options the service runs with.
    pub opts: SolverOptions,
}

impl Drop for DpState {
    fn drop(&mut self) {
        self.service.shutdown();
    }
}

/// `dp-dense` set-up: start the service, generate the instance pool.
pub fn setup_dp(seed: u64) -> DpState {
    let config = serve_config(None);
    let opts = solver_options(&config);
    let service = Service::start(config);
    let pool = (0..DP_POOL as u64)
        .map(|i| instance(Workload::DpDense, seed, i))
        .collect();
    DpState {
        service,
        pool,
        opts,
    }
}

/// The closed loop: one client, next request after the previous reply,
/// for `dur`.
pub fn closed_loop(state: &DpState, seed: u64, dur: Duration, traced: bool) -> LoopStats {
    let mut st = LoopStats::default();
    let start = Instant::now();
    let end = start + dur;
    let mut last_reply: Option<Instant> = None;
    let mut i = 0u64;
    while Instant::now() < end {
        let generated;
        let inst = match state.pool.get(i as usize) {
            Some(inst) => inst,
            None => {
                generated = instance(Workload::DpDense, seed, i);
                &generated
            }
        };
        i += 1;
        let req = request(inst);
        let submitted = Instant::now();
        if let Some(t) = last_reply {
            st.lag_ns
                .push(submitted.duration_since(t).as_nanos() as u64);
        }
        let result = state.service.solve_blocking(req);
        let replied = Instant::now();
        last_reply = Some(replied);
        st.attempted += 1;
        let res = match result {
            Ok(res) => res,
            Err(e) => {
                st.fail(format!("service error: {e}"));
                continue;
            }
        };
        if let Err(e) = check_response(inst, &res, None) {
            st.fail(format!("request {}: {e}", i - 1));
            continue;
        }
        let latency_ns = replied.duration_since(submitted).as_nanos() as u64;
        st.latency_ns.push(latency_ns);
        st.gap_ppm.push(res.stats.gap_ppm);
        st.degraded += u64::from(res.degraded);
        if traced {
            st.spans.push(Span {
                queue_wait_us: res.stats.queue_wait_us,
                solve_us: res.stats.solve_us,
                cache_hits: res.stats.cache_hits,
                cache_misses: res.stats.cache_misses,
            });
        }
    }
    st.elapsed = start.elapsed();
    st
}

/// One working-set entry of `path-hot`.
pub struct HotItem {
    /// The instance.
    pub inst: Instance,
    /// Its request line, newline-terminated.
    pub line: String,
    /// The in-process service's answer for it.
    pub expect: Expected,
}

/// A started `path-hot` cluster with its warmed working set.
pub struct HotState {
    /// Two workers behind a coordinator.
    pub cluster: LocalCluster,
    front: Option<ClusterTcpHandle>,
    /// The in-process reference service (same config, RAM only) that
    /// produced the expected answers; its cache holds the working set.
    pub reference: Arc<Service>,
    /// The working set.
    pub items: Vec<HotItem>,
}

impl HotState {
    /// Address of the cluster's TCP front.
    pub fn front_addr(&self) -> SocketAddr {
        self.front.as_ref().expect("front is running").local_addr()
    }
}

impl Drop for HotState {
    fn drop(&mut self) {
        if let Some(front) = self.front.take() {
            front.shutdown();
        }
        self.reference.shutdown();
        // Dropping `cluster` kills the workers and joins the heartbeat.
    }
}

/// Sends one line and reads one reply line.
fn roundtrip(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    line: &str,
) -> Result<String, String> {
    writer
        .write_all(line.as_bytes())
        .and_then(|_| writer.flush())
        .map_err(|e| format!("send: {e}"))?;
    let mut reply = String::new();
    match reader.read_line(&mut reply) {
        Ok(0) => Err("connection closed".into()),
        Ok(_) => Ok(reply),
        Err(e) => Err(format!("recv: {e}")),
    }
}

/// Connects a line-protocol client with a read/write timeout.
fn connect(addr: SocketAddr) -> Result<(BufReader<TcpStream>, BufWriter<TcpStream>), String> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let writer = BufWriter::new(stream.try_clone().map_err(|e| e.to_string())?);
    Ok((BufReader::new(stream), writer))
}

/// `path-hot` set-up: generate the working set, answer it in process
/// (the reference), start the cluster and its front, pre-warm the
/// working set through the front (every answer checked against the
/// reference), then wait until warm replication has copied every warm
/// entry to both workers.
pub fn setup_hot(seed: u64, store: PathBuf) -> Result<HotState, String> {
    let insts: Vec<Instance> = (0..HOT_SET as u64)
        .map(|i| instance(Workload::PathHot, seed, i))
        .collect();
    let reference = Service::start(serve_config(None));
    let mut expects = Vec::with_capacity(insts.len());
    for inst in &insts {
        let res = reference
            .solve_blocking(request(inst))
            .map_err(|e| format!("reference solve: {e}"))?;
        check_response(inst, &res, None).map_err(|e| format!("reference answer: {e}"))?;
        expects.push(Expected::of(&res));
    }
    let cluster = LocalCluster::start(2, serve_config(Some(store)), ClusterConfig::default())
        .map_err(|e| format!("cluster start: {e}"))?;
    let front = serve_cluster_tcp(Arc::clone(cluster.coordinator()), "127.0.0.1:0")
        .map_err(|e| format!("cluster front: {e}"))?;
    let items: Vec<HotItem> = insts
        .into_iter()
        .zip(expects)
        .map(|(inst, expect)| HotItem {
            line: format!("{}\n", proto::format_solve_request(&request(&inst))),
            inst,
            expect,
        })
        .collect();
    let state = HotState {
        cluster,
        front: Some(front),
        reference,
        items,
    };
    let (mut reader, mut writer) = connect(state.front_addr())?;
    for item in &state.items {
        let reply = roundtrip(&mut reader, &mut writer, &item.line)?;
        check_line(&item.inst, &reply, Some(&item.expect)).map_err(|e| format!("pre-warm: {e}"))?;
    }
    drop((reader, writer));
    wait_replicated(&state.cluster)?;
    Ok(state)
}

/// Blocks until every worker's warm log holds every warm key.
fn wait_replicated(cluster: &LocalCluster) -> Result<(), String> {
    let deadline = Instant::now() + REPLICATION_CAP;
    loop {
        let sets: Vec<HashSet<u64>> = (0..cluster.len())
            .filter_map(|i| cluster.service(i))
            .map(|s| s.warm_digest().entries.iter().map(|e| e.0).collect())
            .collect();
        let union: HashSet<u64> = sets.iter().flatten().copied().collect();
        if !union.is_empty() && sets.iter().all(|s| s.len() == union.len()) {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!(
                "warm replication unfinished after {} s",
                REPLICATION_CAP.as_secs()
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The open loop: requests at `rate` per second for `dur` on one
/// pipelined connection. A sender thread writes request `i` when it is
/// due at `i / rate`; this thread reads the replies in order. Latency runs
/// from each request's scheduled send time to its reply, so a late sender
/// is charged to the requests it delayed; the sender's lateness is kept
/// as the generator lag.
pub fn open_loop(state: &HotState, seed: u64, rate: f64, dur: Duration, traced: bool) -> LoopStats {
    let total = (rate * dur.as_secs_f64()).floor().max(1.0) as u64;
    let items = &state.items;
    let plan: Vec<(Duration, usize)> = (0..total)
        .map(|i| {
            let due = Duration::from_secs_f64(i as f64 / rate);
            (due, (stream_seed(seed, 4, i) % items.len() as u64) as usize)
        })
        .collect();
    let mut st = LoopStats {
        attempted: total,
        ..LoopStats::default()
    };
    let (mut reader, writer) = match connect(state.front_addr()) {
        Ok(c) => c,
        Err(e) => {
            for _ in &plan {
                st.fail(e.clone());
            }
            return st;
        }
    };
    let _ = reader.get_ref().set_read_timeout(Some(REPLY_GRACE));
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| send_on_schedule(writer, items, &plan, start));
        let mut got = 0usize;
        let mut last_reply = start;
        let mut line = String::new();
        while got < plan.len() {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(n) if n > 0 && line.ends_with('\n') => {}
                _ => break, // closed, timed out, or broken mid-line
            }
            let replied = Instant::now();
            last_reply = replied;
            let (due, item) = plan[got];
            got += 1;
            let item = &items[item];
            match check_line(&item.inst, &line, Some(&item.expect)) {
                Ok(reply) => {
                    let latency_ns = replied.duration_since(start + due).as_nanos() as u64;
                    st.latency_ns.push(latency_ns);
                    st.gap_ppm.push(reply.gap_ppm);
                    st.degraded += u64::from(reply.degraded);
                    if traced {
                        st.spans.push(Span {
                            queue_wait_us: reply.queue_wait_us,
                            solve_us: reply.solve_us,
                            cache_hits: reply.cache_hits,
                            cache_misses: reply.cache_misses,
                        });
                    }
                }
                Err(e) => st.fail(format!("reply {}: {e}", got - 1)),
            }
        }
        if got < plan.len() {
            // Unblock a sender still writing into a dead connection.
            let _ = reader.get_ref().shutdown(std::net::Shutdown::Both);
        }
        for _ in got..plan.len() {
            st.fail("no reply (transport error, timeout or closed connection)".into());
        }
        st.elapsed = last_reply.saturating_duration_since(start);
        match sender.join() {
            Ok(lag) => st.lag_ns = lag,
            Err(_) => st.fail("sender thread panicked".into()),
        }
    });
    st
}

/// The sender: sleeps until each request is due, writes it, and returns
/// how late each write was, ns. Stops at the first write error (the
/// reader counts the unanswered requests).
fn send_on_schedule(
    mut writer: BufWriter<TcpStream>,
    items: &[HotItem],
    plan: &[(Duration, usize)],
    start: Instant,
) -> Vec<u64> {
    let mut lag = Vec::with_capacity(plan.len());
    for (i, &(due, item)) in plan.iter().enumerate() {
        let at = start + due;
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        lag.push(Instant::now().duration_since(at).as_nanos() as u64);
        if writer.write_all(items[item].line.as_bytes()).is_err() {
            break;
        }
        // Flush unless the next request is already due (then it joins
        // this write).
        let next_due = plan
            .get(i + 1)
            .is_some_and(|&(d, _)| start + d <= Instant::now());
        if !next_due && writer.flush().is_err() {
            break;
        }
    }
    let _ = writer.flush();
    lag
}
