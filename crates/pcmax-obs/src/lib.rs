#![warn(missing_docs)]

//! Zero-dependency observability for the pcmax workspace.
//!
//! The paper's contribution is a performance claim, so the pipeline needs
//! first-class measurement: where does a solve spend its time — bisection
//! probes, rounding, DP levels — and what do serve-path latencies look
//! like under load? This crate provides the three primitives the rest of
//! the workspace instruments itself with:
//!
//! * [`counter::Counter`] — atomic counters;
//! * [`hist::Histogram`] — log₂-bucketed value histograms (latencies in
//!   µs, batch sizes, …) with cheap quantile estimates;
//! * [`span::SpanNode`] — hierarchical span trees for `pcmax trace`.
//!
//! Each quantity has one owner: the per-instance report that counts it
//! (`ServiceReport`, `ClusterReport`, `SimReport`, `DpStats`,
//! `SparseStats`, …). There is no process-global registry: a process can
//! host several services, and a global copy could not tell them apart.
//!
//! Everything renders to JSON through the hand-rolled writer in [`json`]
//! (the workspace's serde is an offline no-op shim, so wire formats are
//! written by hand).
//!
//! ## Recording is disabled by default
//!
//! Every `record` call first checks one relaxed [`AtomicBool`] — the
//! entire cost of the instrumentation on an un-instrumented run. Callers
//! that want data (the `pcmax trace`/`serve`/`cluster` commands,
//! tests asserting on histograms) opt in with [`set_enabled`]`(true)`.
//! Timestamps follow the same rule: [`Timer::start`] does not even read
//! the clock while recording is off.

pub mod counter;
pub mod hist;
pub mod json;
pub mod span;

pub use counter::Counter;
pub use hist::{Bucket, Histogram, HistogramSnapshot};
pub use json::JsonWriter;
pub use span::SpanNode;

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether recording is enabled (one relaxed atomic load — the full cost
/// of every instrumentation site while disabled).
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off, process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// A stopwatch that only reads the clock while recording is enabled.
///
/// `Timer::start()` on a disabled recorder is a single atomic load;
/// [`Timer::elapsed_us`] then reports 0. This is how instrumented code
/// threads "elapsed time, or zero if nobody is measuring" through
/// existing stats structs without branching at every call site.
#[derive(Debug, Clone, Copy)]
pub struct Timer(Option<std::time::Instant>);

impl Timer {
    /// Starts the stopwatch if recording is enabled.
    #[inline]
    pub fn start() -> Self {
        Self(enabled().then(std::time::Instant::now))
    }

    /// A stopwatch that is always off (for default-constructed stats).
    #[inline]
    pub fn off() -> Self {
        Self(None)
    }

    /// Whether this stopwatch is actually measuring.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.0.is_some()
    }

    /// Microseconds since [`Timer::start`], or 0 when off.
    #[inline]
    pub fn elapsed_us(&self) -> u64 {
        self.0.map_or(0, |t| t.elapsed().as_micros() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The only test in this binary that touches the global flag, so the
    // two phases stay sequential and cannot race other tests.
    #[test]
    fn flag_gates_the_timer() {
        set_enabled(false);
        let off = Timer::start();
        assert!(!off.is_recording());
        assert_eq!(off.elapsed_us(), 0);

        set_enabled(true);
        assert!(enabled());
        let on = Timer::start();
        assert!(on.is_recording());
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(on.elapsed_us() >= 1_000);
        set_enabled(false);
        // An already-started timer keeps measuring after the flag drops.
        assert!(on.elapsed_us() >= 1_000);
    }
}
