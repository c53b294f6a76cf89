//! The persistent pool: one caller at a time publishes a job, and the
//! caller and every helper claim its chunks from one atomic counter.
//!
//! Protocol. A call that can use the pool counts itself in `callers`;
//! only one that finds no other caller there publishes. `state` packs
//! `epoch << 32 | OPEN | active`. The publishing caller stores the job
//! pointer, bumps the epoch with `OPEN` set, and wakes parked helpers. A
//! helper joins by incrementing `active` while the epoch it saw is still
//! open, runs the job, and decrements `active`. Once the caller has
//! drained the counter itself it clears `OPEN` (a late helper can no
//! longer join) and waits for `active` to reach zero, so no helper
//! touches the job after `run` returns.

use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Calls over fewer items run on the caller: below this, waking a helper
/// costs more than it saves. Chosen by a dp-dense sweep of 8, 16, 32 and
/// 128 (CHANGES.md); 128 kept most dp-dense levels on one thread.
const INLINE_BELOW: usize = 32;

/// Chunks per participating thread. More chunks balance uneven items
/// better; each chunk costs one atomic claim.
const CHUNKS_PER_THREAD: usize = 8;

/// How long a helper spins for the next job before it parks: long
/// enough to span the gap between one request's DP probes. Chosen by a
/// dp-dense sweep of 0, 10, 50, 200 and 1000 µs (CHANGES.md).
const SPIN: Duration = Duration::from_micros(200);

/// How long after two calls overlap every call runs inline and helpers
/// park without spinning: two callers are then each busy on a core of
/// their own, and a helper would only take a core from one of them.
const CONTENDED: Duration = Duration::from_millis(1);

const OPEN: u64 = 1 << 31;
const ACTIVE: u64 = OPEN - 1;

thread_local! {
    /// Whether this thread is running a chunk of some call.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// The index ranges of one call, claimed from a shared counter.
pub(crate) struct Chunks<'a> {
    next: &'a AtomicUsize,
    len: usize,
    chunk: usize,
}

impl Iterator for Chunks<'_> {
    type Item = Range<usize>;

    fn next(&mut self) -> Option<Range<usize>> {
        let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        (start < self.len).then(|| start..self.len.min(start + self.chunk))
    }
}

/// The body of a call: drives the items of every range it is handed.
type Body<'a> = &'a (dyn Fn(Chunks<'_>) + Sync);

/// One call, on the caller's stack.
struct Job<'a> {
    body: Body<'a>,
    next: AtomicUsize,
    len: usize,
    chunk: usize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job<'_> {
    /// Runs chunks until none is left. A panic stops further claims and
    /// is kept for the caller.
    fn participate(&self) {
        let _nested = InJob::enter();
        let chunks = Chunks {
            next: &self.next,
            len: self.len,
            chunk: self.chunk,
        };
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (self.body)(chunks))) {
            self.next.store(self.len, Ordering::Relaxed);
            self.panic
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get_or_insert(payload);
        }
    }
}

struct Pool {
    /// Calls in progress that passed the size and nesting checks.
    callers: AtomicUsize,
    state: AtomicU64,
    job: AtomicPtr<Job<'static>>,
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
    /// Nanoseconds after `start` until which the pool counts as
    /// contended ([`CONTENDED`]); 0 until two calls first overlap.
    contended_until: AtomicU64,
    start: Instant,
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// Threads a call can use: the caller plus `available_parallelism() − 1`
/// helpers (affinity-aware, so `taskset -c 0` gives 1).
pub(crate) fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The pool, its helpers started on first use.
fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        for i in 1..threads() {
            // A helper that fails to start only narrows the pool: jobs
            // never wait for helpers that did not join.
            let _ = std::thread::Builder::new()
                .name(format!("rayon-helper-{i}"))
                .spawn(|| POOL.wait().helper_loop());
        }
        Pool {
            callers: AtomicUsize::new(0),
            state: AtomicU64::new(0),
            job: AtomicPtr::new(std::ptr::null_mut()),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
            contended_until: AtomicU64::new(0),
            start: Instant::now(),
        }
    })
}

/// Runs `body` over `len` items, on the pool or inline (see the crate
/// docs for when).
pub(crate) fn run(len: usize, body: Body<'_>) {
    let threads = threads();
    if len < INLINE_BELOW || threads == 1 || IN_JOB.get() {
        return inline(len, body);
    }
    let chunk = len.div_ceil(threads * CHUNKS_PER_THREAD);
    let pool = pool();
    let others = pool.callers.fetch_add(1, Ordering::Acquire);
    let _inside = Inside(&pool.callers);
    if others > 0 || pool.contended() {
        if others > 0 {
            pool.contend();
        }
        // Calls nested in this one stay inline too, and do not count as
        // callers.
        let _nested = InJob::enter();
        return inline(len, body);
    }
    let job = Job {
        body,
        next: AtomicUsize::new(0),
        len,
        chunk,
        panic: Mutex::new(None),
    };
    pool.publish(&job);
    job.participate();
    pool.close();
    if let Some(payload) = job
        .panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        panic::resume_unwind(payload);
    }
}

/// Counts one caller in `callers` until dropped.
struct Inside<'a>(&'a AtomicUsize);

impl Drop for Inside<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

/// Marks this thread as running a chunk until dropped.
struct InJob(bool);

impl InJob {
    fn enter() -> Self {
        Self(IN_JOB.replace(true))
    }
}

impl Drop for InJob {
    fn drop(&mut self) {
        IN_JOB.set(self.0);
    }
}

/// Runs every item on the calling thread.
fn inline(len: usize, body: Body<'_>) {
    let next = AtomicUsize::new(0);
    body(Chunks {
        next: &next,
        len,
        chunk: len.max(1),
    });
}

fn epoch(state: u64) -> u64 {
    state >> 32
}

impl Pool {
    fn now(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Whether two calls overlapped within the last [`CONTENDED`].
    fn contended(&self) -> bool {
        let until = self.contended_until.load(Ordering::Relaxed);
        until != 0 && self.now() < until
    }

    /// Starts (or extends) a contended window.
    fn contend(&self) {
        let until = self.now() + CONTENDED.as_nanos() as u64;
        self.contended_until.fetch_max(until, Ordering::Relaxed);
    }

    /// Makes `job` visible to the helpers and wakes parked ones.
    fn publish(&self, job: &Job<'_>) {
        // The pointer outlives its use: `close` waits until every helper
        // that joined has left before `run` returns.
        self.job
            .store((job as *const Job<'_>).cast_mut().cast(), Ordering::Relaxed);
        let next_epoch = epoch(self.state.load(Ordering::Relaxed)).wrapping_add(1) << 32;
        self.state.store(next_epoch | OPEN, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            self.wake.notify_all();
        }
    }

    /// Stops helpers joining the current job and waits for the ones that
    /// did to leave it.
    fn close(&self) {
        self.state.fetch_and(!OPEN, Ordering::AcqRel);
        let mut spins = 0u32;
        while self.state.load(Ordering::Acquire) & ACTIVE != 0 {
            if spins < 128 {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    fn helper_loop(&self) {
        let mut seen = 0;
        loop {
            let mut state = self.wait_for_epoch(seen);
            seen = epoch(state);
            // Join while the epoch we saw is still open.
            while epoch(state) == seen && state & OPEN != 0 {
                match self.state.compare_exchange_weak(
                    state,
                    state + 1,
                    Ordering::Acquire,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: joining an open epoch keeps its job
                        // alive until we decrement `active` below.
                        unsafe { &*self.job.load(Ordering::Relaxed) }.participate();
                        self.state.fetch_sub(1, Ordering::Release);
                        break;
                    }
                    Err(current) => state = current,
                }
            }
        }
    }

    /// Spins for [`SPIN`] (not at all while the pool is contended), then
    /// parks, until the epoch moves past `seen`.
    fn wait_for_epoch(&self, seen: u64) -> u64 {
        let start = Instant::now();
        let mut spins = 0u32;
        loop {
            let state = self.state.load(Ordering::SeqCst);
            if epoch(state) != seen {
                return state;
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) && (start.elapsed() >= SPIN || self.contended()) {
                break;
            }
            std::hint::spin_loop();
        }
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        loop {
            let state = self.state.load(Ordering::SeqCst);
            if epoch(state) != seen {
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
                return state;
            }
            guard = self
                .wake
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}
