use super::prelude::*;
use std::collections::HashSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::{self, ThreadId};

/// Busy work of `units` steps whose result the optimiser cannot drop.
fn work(units: u64) -> u64 {
    (0..units * 50).fold(0u64, |acc, x| {
        std::hint::black_box(acc.wrapping_mul(31) ^ x)
    })
}

#[test]
fn par_iter_map_collect() {
    let v = vec![1, 2, 3];
    let doubled: Vec<i32> = v.par_iter().map(|&x| x * 2).collect();
    assert_eq!(doubled, vec![2, 4, 6]);
}

#[test]
fn map_init_threads_state() {
    let out: Vec<usize> = (0..4usize)
        .into_par_iter()
        .map_init(
            || vec![0usize; 2],
            |scratch, x| {
                scratch[0] = x;
                scratch[0] + 1
            },
        )
        .collect();
    assert_eq!(out, vec![1, 2, 3, 4]);
}

#[test]
fn for_each_init_over_par_iter_mut() {
    let mut v = vec![0u64; 5];
    v.par_iter_mut()
        .enumerate()
        .for_each_init(|| 10u64, |base, (i, out)| *out = *base + i as u64);
    assert_eq!(v, vec![10, 11, 12, 13, 14]);
}

#[test]
fn join_returns_both() {
    let (a, b) = super::join(|| 1 + 1, || "x");
    assert_eq!(a, 2);
    assert_eq!(b, "x");
}

#[test]
fn the_pool_counts_the_caller_and_follows_affinity() {
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(super::current_num_threads(), cores);
}

#[test]
fn collect_keeps_input_order_on_uneven_work() {
    // Every seventh item is 40 times dearer than the rest, so chunks
    // finish out of order whenever a helper takes part.
    let items: Vec<u64> = (0..5000).collect();
    let out: Vec<(u64, u64)> = items
        .par_iter()
        .map(|&x| (x, work(if x % 7 == 0 { 40 } else { 1 })))
        .collect();
    let expect: Vec<(u64, u64)> = items
        .iter()
        .map(|&x| (x, work(if x % 7 == 0 { 40 } else { 1 })))
        .collect();
    assert_eq!(out, expect);
    let enumerated: Vec<(usize, usize)> = (0..3000usize)
        .into_par_iter()
        .map(|x| x * 3)
        .enumerate()
        .collect();
    assert!(enumerated
        .iter()
        .enumerate()
        .all(|(i, &(j, x))| i == j && x == 3 * i));
}

#[test]
fn map_init_and_for_each_init_state_is_per_thread() {
    let inits = AtomicUsize::new(0);
    // Each state remembers the thread that made it; every item must see
    // the state of the thread that runs it.
    let owners: Vec<(ThreadId, ThreadId)> = (0..4000usize)
        .into_par_iter()
        .map_init(
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                thread::current().id()
            },
            |owner, x| {
                work(x as u64 % 3);
                (*owner, thread::current().id())
            },
        )
        .collect();
    assert!(owners.iter().all(|(owner, runner)| owner == runner));
    let threads: HashSet<ThreadId> = owners.iter().map(|&(_, t)| t).collect();
    // A helper that joins after the last chunk is claimed makes a state
    // and runs nothing.
    assert!(threads.len() <= inits.load(Ordering::Relaxed));
    assert!(inits.load(Ordering::Relaxed) <= super::current_num_threads());

    let mut out = vec![None; 4000];
    let inits = AtomicUsize::new(0);
    out.par_iter_mut().for_each_init(
        || {
            inits.fetch_add(1, Ordering::Relaxed);
            thread::current().id()
        },
        |owner, slot| {
            work(2);
            *slot = Some(*owner == thread::current().id());
        },
    );
    assert!(out.iter().all(|&ok| ok == Some(true)));
    assert!(inits.load(Ordering::Relaxed) <= super::current_num_threads());
}

#[test]
fn a_panicking_chunk_panics_the_caller_and_the_pool_survives() {
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        (0..2000usize).into_par_iter().for_each(|i| {
            if i == 1777 {
                panic!("chunk {i} failed");
            }
        })
    }));
    let payload = caught.expect_err("the panic must reach the caller");
    assert_eq!(
        payload.downcast_ref::<String>().map(String::as_str),
        Some("chunk 1777 failed")
    );
    let sum: Vec<usize> = (0..2000usize).into_par_iter().map(|i| i + 1).collect();
    assert_eq!(sum.iter().sum::<usize>(), 2000 * 2001 / 2);
}

#[test]
fn a_nested_call_inside_a_job_finishes_inline() {
    let rows: Vec<(Vec<ThreadId>, usize)> = (0..64usize)
        .into_par_iter()
        .map(|row| {
            let outer = thread::current().id();
            let inner: Vec<(ThreadId, usize)> = (0..500usize)
                .into_par_iter()
                .map(|x| (thread::current().id(), row * 1000 + x))
                .collect();
            let sum = inner.iter().map(|&(_, x)| x).sum();
            let runners = inner.into_iter().map(|(t, _)| t).collect::<Vec<_>>();
            assert!(
                runners.iter().all(|&t| t == outer),
                "inner items left their thread"
            );
            (runners, sum)
        })
        .collect();
    for (row, (_, sum)) in rows.iter().enumerate() {
        assert_eq!(*sum, 500 * row * 1000 + 499 * 500 / 2);
    }
}

#[test]
fn eight_concurrent_callers_each_get_correct_results() {
    let handles: Vec<_> = (0..8u64)
        .map(|t| {
            thread::spawn(move || {
                for round in 0..20u64 {
                    let base = t * 1_000_000 + round * 10_000;
                    let out: Vec<u64> = (0..3000usize)
                        .into_par_iter()
                        .map(|x| base + x as u64 + work(x as u64 % 2))
                        .map(|x| x - work(0))
                        .collect();
                    let expect: Vec<u64> = (0..3000u64).map(|x| base + x + work(x % 2)).collect();
                    assert_eq!(out, expect);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("caller thread");
    }
}

#[test]
fn owned_items_move_out_exactly_once() {
    let drops = AtomicUsize::new(0);
    struct Counted<'a>(usize, &'a AtomicUsize);
    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.1.fetch_add(1, Ordering::Relaxed);
        }
    }
    let items: Vec<Counted> = (0..1000).map(|i| Counted(i, &drops)).collect();
    let kept = Mutex::new(Vec::new());
    items.into_par_iter().for_each(|c| {
        if c.0 % 2 == 0 {
            kept.lock().unwrap().push(c);
        }
    });
    assert_eq!(drops.load(Ordering::Relaxed), 500);
    drop(kept);
    assert_eq!(drops.load(Ordering::Relaxed), 1000);
}

#[test]
fn a_call_overlapping_another_runs_on_its_caller() {
    // While one caller is inside a call, a second caller's call runs
    // every item on its own thread: two busy callers keep a core each.
    let (started_tx, started_rx) = std::sync::mpsc::channel();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let done_rx = Mutex::new(done_rx);
    let first = thread::spawn(move || {
        (0..64usize).into_par_iter().for_each(|i| {
            if i == 0 {
                started_tx.send(()).unwrap();
                done_rx.lock().unwrap().recv().unwrap();
            }
        });
    });
    started_rx.recv().unwrap();
    let caller = thread::current().id();
    let runners: Vec<ThreadId> = (0..1000usize)
        .into_par_iter()
        .map(|_| thread::current().id())
        .collect();
    done_tx.send(()).unwrap();
    first.join().unwrap();
    assert!(runners.iter().all(|&t| t == caller));
}
