//! A process-wide registry of named counters and histograms.
//!
//! Instrumentation sites ask for a metric by name once (cache the `Arc`)
//! or on each use (a short mutex-guarded map lookup); readers ask for the
//! same name. Names are dot-separated by convention:
//! `sparse.settled_cells`. The registry is process-wide, so it suits only
//! quantities that need no per-instance attribution; everything else is
//! owned by the report of the instance that counts it.

use crate::counter::Counter;
use crate::hist::Histogram;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Registry of named metrics. Usually accessed through [`global`].
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap();
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// The histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap();
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_returns_same_metric() {
        let r = Registry::new();
        r.counter("x").add(2);
        r.counter("x").add(3);
        assert_eq!(r.counter("x").get(), 5);
        r.histogram("h").record(9);
        assert_eq!(r.histogram("h").count(), 1);
    }
}
