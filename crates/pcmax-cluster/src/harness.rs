//! In-process multi-worker harness: spins up N real [`Service`]s behind
//! real loopback TCP front-ends and a [`Coordinator`] routing over them.
//! Everything runs in one process, so integration tests can kill
//! workers mid-load, join replacements, and inspect each worker's
//! service directly.

use crate::coordinator::{ClusterConfig, Coordinator};
use pcmax_serve::{serve_tcp, ServeConfig, Service, TcpHandle};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

struct LocalWorker {
    id: String,
    addr: SocketAddr,
    // Behind mutexes so `kill` works through a shared reference.
    service: Mutex<Option<Arc<Service>>>,
    tcp: Mutex<Option<TcpHandle>>,
}

/// N loopback `pcmax-serve` workers plus a coordinator routing over
/// them. Dropping the harness kills the workers and shuts the
/// coordinator down.
pub struct LocalCluster {
    workers: Mutex<Vec<Arc<LocalWorker>>>,
    serve_config: ServeConfig,
    coordinator: Arc<Coordinator>,
}

impl LocalCluster {
    /// Starts `n` workers (ids `worker-0` … `worker-{n-1}`), each its
    /// own [`Service`] with `serve_config` on an ephemeral loopback
    /// port, registers them, and starts the heartbeat.
    pub fn start(
        n: usize,
        serve_config: ServeConfig,
        cluster_config: ClusterConfig,
    ) -> std::io::Result<Self> {
        assert!(n > 0, "a cluster needs at least one worker");
        let cluster = Self {
            workers: Mutex::new(Vec::new()),
            serve_config,
            coordinator: Coordinator::new(cluster_config),
        };
        for _ in 0..n {
            cluster.spawn()?;
        }
        cluster.coordinator.start_heartbeat();
        Ok(cluster)
    }

    /// The routing coordinator.
    pub fn coordinator(&self) -> &Arc<Coordinator> {
        &self.coordinator
    }

    fn worker(&self, i: usize) -> Arc<LocalWorker> {
        Arc::clone(&self.workers.lock().expect("workers poisoned")[i])
    }

    /// Number of workers the harness started (killed ones included).
    pub fn len(&self) -> usize {
        self.workers.lock().expect("workers poisoned").len()
    }

    /// Whether the harness has no workers (never true — `start`
    /// requires at least one).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Worker ids, in start order.
    pub fn ids(&self) -> Vec<String> {
        self.workers
            .lock()
            .expect("workers poisoned")
            .iter()
            .map(|w| w.id.clone())
            .collect()
    }

    /// The TCP address worker `i` listens (or listened) on.
    pub fn addr(&self, i: usize) -> SocketAddr {
        self.worker(i).addr
    }

    /// Worker `i`'s in-process service, for white-box inspection
    /// (cache sizes, reports). `None` once killed.
    pub fn service(&self, i: usize) -> Option<Arc<Service>> {
        let worker = self.worker(i);
        let service = worker.service.lock().expect("service poisoned").clone();
        service
    }

    /// Index of the worker with `id`, if the harness started one.
    pub fn index_of(&self, id: &str) -> Option<usize> {
        self.workers
            .lock()
            .expect("workers poisoned")
            .iter()
            .position(|w| w.id == id)
    }

    /// Starts one more worker — its own [`Service`], with a per-worker
    /// store subdirectory so a restart or replacement rehydrates exactly
    /// its own hot set, behind an ephemeral loopback TCP front-end — and
    /// registers it with the coordinator: a live join. Returns the new
    /// worker's id. The next warmsync round relays the keys the joiner
    /// now owns, so its first warm-key request is served from shipped
    /// state.
    pub fn spawn(&self) -> std::io::Result<String> {
        // Held throughout, so concurrent spawns never share an id.
        let mut workers = self.workers.lock().expect("workers poisoned");
        let id = format!("worker-{}", workers.len());
        // A shared store dir would have every worker appending to one
        // warm log; give each worker its own subdirectory.
        let mut config = self.serve_config.clone();
        if let Some(base) = &self.serve_config.store_dir {
            config.store_dir = Some(base.join(&id));
        }
        let service = Service::start(config);
        let tcp = serve_tcp(Arc::clone(&service), "127.0.0.1:0")?;
        let addr = tcp.local_addr();
        workers.push(Arc::new(LocalWorker {
            id: id.clone(),
            addr,
            service: Mutex::new(Some(service)),
            tcp: Mutex::new(Some(tcp)),
        }));
        drop(workers);
        self.coordinator.add_worker(&id, addr);
        Ok(id)
    }

    /// Kills worker `i`: stops its TCP front-end and shuts its service
    /// down. The worker stays *registered* — the coordinator discovers
    /// the death through transport errors and heartbeats, exactly as it
    /// would a remote crash. Idempotent.
    pub fn kill(&self, i: usize) {
        let worker = self.worker(i);
        let tcp = worker.tcp.lock().expect("tcp poisoned").take();
        if let Some(handle) = tcp {
            handle.shutdown();
        }
        let service = worker.service.lock().expect("service poisoned").take();
        if let Some(service) = service {
            service.shutdown();
        }
    }
}

impl Drop for LocalCluster {
    fn drop(&mut self) {
        for i in 0..self.len() {
            self.kill(i);
        }
        self.coordinator.shutdown();
    }
}
