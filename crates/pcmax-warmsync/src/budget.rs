//! Replica byte accounting: a worker stores warm entries on behalf of
//! ring predecessors (replication factor R − 1 successor copies), but
//! never unboundedly — the oldest replicated entries are evicted first
//! once the budget is exceeded.

use std::collections::HashMap;
use std::collections::VecDeque;

/// Oldest-first byte budget over replicated warm entries.
///
/// `charge` admits an entry and returns whichever previously-admitted
/// keys must be evicted to get back under budget. The caller (the
/// serve layer) removes those keys from its warm log. Entries the
/// worker *owns* are never charged here — only copies held for the
/// ring pass through this accounting.
#[derive(Debug)]
pub struct ReplicaBudget {
    budget: u64,
    total: u64,
    /// Admission order (front = oldest). Stale entries for re-charged
    /// keys are skipped at eviction time via the size map.
    order: VecDeque<Vec<u8>>,
    sizes: HashMap<Vec<u8>, u64>,
}

impl ReplicaBudget {
    /// A budget of `bytes` replica bytes.
    pub fn new(bytes: u64) -> Self {
        Self {
            budget: bytes,
            total: 0,
            order: VecDeque::new(),
            sizes: HashMap::new(),
        }
    }

    /// The configured budget in bytes.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently charged.
    pub fn used(&self) -> u64 {
        self.total
    }

    /// Number of distinct keys charged.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Whether nothing is charged.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Charges `bytes` for `key` (replacing any previous charge, which
    /// also refreshes its age) and returns the keys to evict,
    /// oldest-first, to satisfy the budget. The newly charged key is
    /// only ever evicted if it alone exceeds the whole budget.
    pub fn charge(&mut self, key: &[u8], bytes: u64) -> Vec<Vec<u8>> {
        if let Some(old) = self.sizes.insert(key.to_vec(), bytes) {
            self.total -= old;
        }
        self.total += bytes;
        self.order.push_back(key.to_vec());
        let mut evicted = Vec::new();
        while self.total > self.budget {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            // A re-charged key appears multiple times in the order
            // queue; only its newest position is live.
            if self.order.contains(&oldest) {
                continue;
            }
            let Some(size) = self.sizes.remove(&oldest) else {
                continue; // already released
            };
            self.total -= size;
            evicted.push(oldest);
        }
        evicted
    }

    /// Releases the charge for `key` (e.g. the worker became the
    /// key's owner, or the entry was dropped for another reason).
    pub fn release(&mut self, key: &[u8]) {
        if let Some(size) = self.sizes.remove(key) {
            self.total -= size;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_oldest_first_when_over_budget() {
        let mut budget = ReplicaBudget::new(100);
        assert!(budget.charge(b"a", 40).is_empty());
        assert!(budget.charge(b"b", 40).is_empty());
        let evicted = budget.charge(b"c", 40);
        assert_eq!(evicted, vec![b"a".to_vec()]);
        assert_eq!(budget.used(), 80);
        assert_eq!(budget.len(), 2);
    }

    #[test]
    fn recharge_refreshes_age_and_replaces_size() {
        let mut budget = ReplicaBudget::new(100);
        budget.charge(b"a", 40);
        budget.charge(b"b", 40);
        // Re-charge `a`: it becomes the newest, so `b` evicts next.
        budget.charge(b"a", 30);
        assert_eq!(budget.used(), 70);
        let evicted = budget.charge(b"c", 40);
        assert_eq!(evicted, vec![b"b".to_vec()]);
        assert!(budget.sizes.contains_key(b"a".as_slice()));
    }

    #[test]
    fn release_frees_bytes_without_eviction() {
        let mut budget = ReplicaBudget::new(50);
        budget.charge(b"a", 50);
        budget.release(b"a");
        assert_eq!(budget.used(), 0);
        assert!(budget.charge(b"b", 50).is_empty());
    }

    #[test]
    fn oversized_single_entry_evicts_itself() {
        let mut budget = ReplicaBudget::new(10);
        let evicted = budget.charge(b"huge", 99);
        assert_eq!(evicted, vec![b"huge".to_vec()]);
        assert!(budget.is_empty());
        assert_eq!(budget.used(), 0);
    }
}
