//! Sharded LRU cache for DP solutions, budgeted in **bytes**.
//!
//! Lookups hash the key to one of `shards` independently-locked shards,
//! so concurrent workers rarely contend on the same mutex. Each shard is
//! a classic slab-backed LRU: a `HashMap` from key to slot index plus an
//! intrusive doubly-linked recency list threaded through the slab, giving
//! O(1) get/insert/evict without per-operation allocation (beyond the
//! slab growth itself).
//!
//! Capacity is a **byte budget per shard**, not an entry count: every
//! insert carries the entry's estimated resident cost, and the shard
//! evicts least-recently-used entries until the budget holds. Cached DP
//! solutions vary in size by orders of magnitude (a bare `OPT(N)` vs. a
//! machine-configuration list for a k² dimensional table), so counting
//! entries — as this cache originally did — lets a burst of large-`k`
//! requests blow past any real memory target. The entry count survives
//! as a derived statistic ([`ShardedCache::len`]).
//!
//! [`DpCache`] is the service's instance: it packs each DP key into one
//! allocation and each solution's configurations into one narrow flat
//! buffer, and unpacks on a hit.

use crate::solver::CachedDp;
use crate::stats::CacheReport;
use pcmax_ptas::DpKey;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    cost: u64,
    prev: usize,
    next: usize,
}

/// One shard: slab + index + recency list, guarded by a single mutex.
struct Shard<K, V> {
    slab: Vec<Node<K, V>>,
    index: HashMap<K, usize>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    bytes: u64,
}

impl<K: Eq + Hash + Clone, V> Shard<K, V> {
    fn new() -> Self {
        Self {
            slab: Vec::new(),
            index: HashMap::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
        }
    }

    /// Unlinks slot `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Links slot `i` at the head (most recently used).
    fn link_front(&mut self, i: usize) {
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn get_with<Q, R>(&mut self, key: &Q, f: impl FnOnce(&V) -> R) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let &i = self.index.get(key)?;
        self.unlink(i);
        self.link_front(i);
        Some(f(&self.slab[i].value))
    }

    /// Evicts the LRU entry. Returns `false` when the shard is empty or
    /// `keep` is the only entry left.
    fn evict_tail(&mut self, keep: usize) -> bool {
        let lru = self.tail;
        if lru == NIL || lru == keep {
            return false;
        }
        self.unlink(lru);
        let old = self.index.remove(&self.slab[lru].key);
        debug_assert_eq!(old, Some(lru));
        self.bytes -= self.slab[lru].cost;
        self.free.push(lru);
        true
    }

    /// Inserts `key` at cost `cost`, evicting LRU entries until the shard
    /// fits `budget`. Returns how many entries were evicted.
    ///
    /// An entry costlier than the whole budget still resides (evicting
    /// everything else): refusing it would make the hottest key
    /// permanently uncacheable, which is worse than briefly overshooting
    /// one shard.
    fn insert(&mut self, key: K, value: V, cost: u64, budget: u64) -> u64 {
        let mut evicted = 0u64;
        if let Some(&i) = self.index.get(&key) {
            self.bytes = self.bytes - self.slab[i].cost + cost;
            self.slab[i].value = value;
            self.slab[i].cost = cost;
            self.unlink(i);
            self.link_front(i);
            while self.bytes > budget && self.evict_tail(i) {
                evicted += 1;
            }
            return evicted;
        }
        while self.bytes + cost > budget && self.evict_tail(NIL) {
            evicted += 1;
        }
        let i = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Node {
                    key: key.clone(),
                    value,
                    cost,
                    prev: NIL,
                    next: NIL,
                };
                slot
            }
            None => {
                self.slab.push(Node {
                    key: key.clone(),
                    value,
                    cost,
                    prev: NIL,
                    next: NIL,
                });
                self.slab.len() - 1
            }
        };
        self.bytes += cost;
        self.index.insert(key, i);
        self.link_front(i);
        evicted
    }
}

/// A sharded, byte-budgeted LRU cache with atomic hit/miss/eviction
/// counters.
pub struct ShardedCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    budget_per_shard: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Eq + Hash + Clone, V> ShardedCache<K, V> {
    /// A cache of `shards` shards, each holding up to `budget_per_shard`
    /// bytes of entries (by the cost callers pass to
    /// [`ShardedCache::insert`]).
    pub fn new(shards: usize, budget_per_shard: u64) -> Self {
        assert!(shards > 0, "cache needs at least one shard");
        assert!(budget_per_shard > 0, "shard byte budget must be positive");
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            budget_per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The per-shard byte budget this cache was built with.
    pub fn budget_per_shard(&self) -> u64 {
        self.budget_per_shard
    }

    /// Total byte budget across all shards.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_per_shard * self.shards.len() as u64
    }

    /// The shard of `key`. A borrowed form hashes like its owner, so a
    /// lookup by `&Q` lands on the shard the insert chose.
    fn shard_of<Q: Hash + ?Sized>(&self, key: &Q) -> &Mutex<Shard<K, V>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    /// Looks up `key` and applies `f` to its value under the shard lock,
    /// marking the entry most recently used on a hit.
    pub fn get_with<Q, R>(&self, key: &Q, f: impl FnOnce(&V) -> R) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let result = self
            .shard_of(key)
            .lock()
            .expect("cache shard poisoned")
            .get_with(key, f);
        match result {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.get_with(key, V::clone)
    }

    /// Inserts (or refreshes) `key` at an estimated resident cost of
    /// `cost` bytes, evicting LRU entries until the shard's byte budget
    /// holds.
    pub fn insert(&self, key: K, value: V, cost: u64) {
        let evicted = self
            .shard_of(&key)
            .lock()
            .expect("cache shard poisoned")
            .insert(key, value, cost, self.budget_per_shard);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Resident entries across all shards (derived stat; the budget is
    /// [`ShardedCache::bytes`]).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").index.len())
            .sum()
    }

    /// Estimated resident bytes across all shards.
    pub fn bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").bytes)
            .sum()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn report(&self) -> CacheReport {
        CacheReport {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
            bytes: self.bytes(),
        }
    }
}

/// The DP cache the whole service shares: a [`ShardedCache`] whose
/// entries are packed, so an entry costs a few hundred bytes instead of
/// one heap block per configuration.
///
/// * A key is one `Arc<[u8]>` (LEB128 varints of the class count, the
///   capacity, the counts and the sizes), shared by the index and the
///   slab node.
/// * A value is `OPT(N)` plus one flat buffer of the configurations'
///   counts, machine-major, each count in the narrowest little-endian
///   width (1, 2, 4 or 8 bytes) that holds the largest.
///
/// [`DpCache::get`] unpacks into a fresh [`CachedDp`]. The warm tier
/// keeps its own format; entries convert here, at the RAM boundary.
pub struct DpCache {
    inner: ShardedCache<Arc<[u8]>, PackedDp>,
}

impl DpCache {
    /// A cache of `shards` shards of `budget_per_shard` bytes each (see
    /// [`ShardedCache::new`]).
    pub fn new(shards: usize, budget_per_shard: u64) -> Self {
        Self {
            inner: ShardedCache::new(shards, budget_per_shard),
        }
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&self, key: &DpKey) -> Option<CachedDp> {
        self.inner
            .get_with(pack_key(key).as_slice(), PackedDp::unpack)
    }

    /// Inserts (or refreshes) `key` at `cost` bytes (see [`entry_cost`]).
    /// An entry whose configurations differ in length has no packed form
    /// (the DP never makes one; only a corrupt warm record could) and is
    /// not cached.
    pub fn insert(&self, key: DpKey, entry: CachedDp, cost: u64) {
        if let Some(packed) = PackedDp::pack(&entry) {
            self.inner.insert(pack_key(&key).into(), packed, cost);
        }
    }

    /// Total byte budget across all shards.
    pub fn budget_bytes(&self) -> u64 {
        self.inner.budget_bytes()
    }

    /// Resident entries across all shards.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Estimated resident bytes across all shards.
    pub fn bytes(&self) -> u64 {
        self.inner.bytes()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Counter snapshot.
    pub fn report(&self) -> CacheReport {
        self.inner.report()
    }
}

/// Estimated resident bytes of one packed entry: its slab node, its
/// index slot (with the hash table's average growth slack), and the two
/// heap blocks behind it, the key bytes after the `Arc` counters and the
/// configuration counts. An estimate — the cache budget bounds
/// approximate memory, not allocator-exact bytes.
pub fn entry_cost(key: &DpKey, entry: &CachedDp) -> u64 {
    let node = std::mem::size_of::<Node<Arc<[u8]>, PackedDp>>();
    let index_slot = (std::mem::size_of::<(Arc<[u8]>, usize)>() + 1) * 3 / 2;
    let key_block = heap_block(2 * std::mem::size_of::<usize>() + pack_key(key).len());
    let configs_block = PackedDp::pack(entry)
        .and_then(|p| p.configs)
        .map_or(0, |c| heap_block(c.counts.len()));
    (node + index_slot + key_block + configs_block) as u64
}

/// Bytes a heap allocation of `len` bytes occupies: an 8-byte header,
/// rounded up to 16 bytes, at least 32 (glibc malloc's chunk sizes).
fn heap_block(len: usize) -> usize {
    (len + 8).next_multiple_of(16).max(32)
}

/// Appends `x` as an LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        out.push(x as u8 | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

/// The packed key: varints of `classes · cap · counts[..] · sizes[..]`.
/// Varints have one encoding per value, so equal keys pack to equal
/// bytes.
fn pack_key(key: &DpKey) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + 2 * key.counts().len());
    put_varint(&mut out, key.counts().len() as u64);
    put_varint(&mut out, key.cap());
    for &c in key.counts() {
        put_varint(&mut out, c as u64);
    }
    for &s in key.sizes() {
        put_varint(&mut out, s);
    }
    out
}

/// One little-endian count of 2, 4 or 8 bytes.
fn read_count(bytes: &[u8]) -> usize {
    let mut x = [0u8; 8];
    x[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(x) as usize
}

/// A [`CachedDp`] as the cache holds it.
struct PackedDp {
    opt: u32,
    /// `None` when the entry carries no configurations (infeasible).
    configs: Option<PackedConfigs>,
}

/// Configurations in one flat buffer.
struct PackedConfigs {
    /// Machines; the class count is `counts.len() / (machines · width)`.
    machines: u32,
    /// Bytes per count: 1, 2, 4 or 8.
    width: u8,
    /// Machine-major counts, `width` little-endian bytes each.
    counts: Box<[u8]>,
}

impl PackedDp {
    /// `None` when the configurations differ in length or outnumber
    /// `u32::MAX`.
    fn pack(entry: &CachedDp) -> Option<Self> {
        let configs = match &entry.configs {
            None => None,
            Some(configs) => {
                let classes = configs.first().map_or(0, Vec::len);
                if configs.iter().any(|c| c.len() != classes) {
                    return None;
                }
                let max = configs.iter().flatten().copied().max().unwrap_or(0) as u64;
                let width = [1u8, 2, 4, 8]
                    .into_iter()
                    .find(|&w| w == 8 || max >> (8 * w) == 0)
                    .expect("8 bytes hold any count");
                let mut counts = Vec::with_capacity(configs.len() * classes * width as usize);
                for &x in configs.iter().flatten() {
                    counts.extend_from_slice(&(x as u64).to_le_bytes()[..width as usize]);
                }
                Some(PackedConfigs {
                    machines: u32::try_from(configs.len()).ok()?,
                    width,
                    counts: counts.into_boxed_slice(),
                })
            }
        };
        Some(Self {
            opt: entry.opt,
            configs,
        })
    }

    fn unpack(&self) -> CachedDp {
        let configs = self.configs.as_ref().map(|p| {
            let width = p.width as usize;
            let machines = p.machines as usize;
            let row = p.counts.len().checked_div(machines).unwrap_or(0);
            let configs = (0..machines)
                .map(|m| {
                    let row = &p.counts[m * row..(m + 1) * row];
                    match width {
                        1 => row.iter().map(|&x| x as usize).collect(),
                        _ => row.chunks_exact(width).map(read_count).collect(),
                    }
                })
                .collect();
            Arc::new(configs)
        });
        CachedDp {
            opt: self.opt,
            configs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warm::{encode_key, WarmTier};
    use pcmax_ptas::dp::INFEASIBLE;
    use pcmax_ptas::DpProblem;

    #[test]
    fn get_and_insert_roundtrip() {
        let cache: ShardedCache<u64, String> = ShardedCache::new(4, 1 << 10);
        assert_eq!(cache.get(&1), None);
        cache.insert(1, "one".into(), 16);
        assert_eq!(cache.get(&1).as_deref(), Some("one"));
        let report = cache.report();
        assert_eq!((report.hits, report.misses, report.entries), (1, 1, 1));
        assert_eq!(report.bytes, 16);
    }

    #[test]
    fn byte_pressure_evicts_in_lru_order() {
        // Single shard so the recency order is total; budget fits exactly
        // three 10-byte entries.
        let cache: ShardedCache<u64, u64> = ShardedCache::new(1, 30);
        for i in 0..3 {
            cache.insert(i, i * 10, 10);
        }
        // Touch 0 so 1 becomes the LRU entry.
        assert_eq!(cache.get(&0), Some(0));
        cache.insert(3, 30, 10);
        assert_eq!(cache.get(&1), None, "LRU entry should be evicted");
        assert_eq!(cache.get(&0), Some(0));
        assert_eq!(cache.get(&2), Some(20));
        assert_eq!(cache.get(&3), Some(30));
        assert_eq!(cache.report().evictions, 1);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.bytes(), 30);
    }

    #[test]
    fn one_large_insert_evicts_many_small_entries() {
        // Regression for byte (not entry-count) accounting: a 25-byte
        // entry displaces multiple 10-byte entries — and the survivors
        // are exactly the most recently used.
        let cache: ShardedCache<u64, u64> = ShardedCache::new(1, 40);
        for i in 0..4 {
            cache.insert(i, i, 10);
        }
        cache.insert(9, 99, 25);
        assert_eq!(cache.len(), 2, "25B + 10B is all a 40B budget holds");
        assert_eq!(cache.bytes(), 35);
        assert_eq!(cache.report().evictions, 3);
        assert_eq!(cache.get(&0), None, "oldest evicted first");
        assert_eq!(cache.get(&1), None);
        assert_eq!(cache.get(&2), None);
        assert_eq!(cache.get(&3), Some(3), "newest small entry survives");
        assert_eq!(cache.get(&9), Some(99));
    }

    #[test]
    fn entry_larger_than_the_budget_still_resides_alone() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new(1, 20);
        cache.insert(1, 10, 5);
        cache.insert(2, 20, 100);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&2), Some(20));
        assert_eq!(cache.get(&1), None);
    }

    #[test]
    fn reinsert_refreshes_cost_and_recency() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new(1, 20);
        cache.insert(1, 10, 10);
        cache.insert(2, 20, 10);
        cache.insert(1, 11, 5); // refresh: cheaper now, and MRU
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.bytes(), 15);
        assert_eq!(cache.report().evictions, 0);
        assert_eq!(cache.get(&1), Some(11));
        // 2 is now LRU; byte pressure evicts it, not 1.
        cache.insert(3, 30, 10);
        assert_eq!(cache.get(&2), None);
        assert_eq!(cache.get(&1), Some(11));
    }

    #[test]
    fn refresh_that_grows_past_the_budget_evicts_others() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new(1, 20);
        cache.insert(1, 10, 8);
        cache.insert(2, 20, 8);
        cache.insert(2, 21, 16); // grows: 8 + 16 > 20
        assert_eq!(cache.get(&1), None, "growth must evict the LRU entry");
        assert_eq!(cache.get(&2), Some(21));
        assert_eq!(cache.bytes(), 16);
    }

    #[test]
    fn eviction_slots_are_reused() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new(1, 20);
        for i in 0..100 {
            cache.insert(i, i, 10);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.report().evictions, 98);
        assert_eq!(cache.get(&99), Some(99));
        assert_eq!(cache.get(&98), Some(98));
    }

    fn entry(opt: u32, configs: Option<Vec<Vec<usize>>>) -> CachedDp {
        CachedDp {
            opt,
            configs: configs.map(Arc::new),
        }
    }

    /// A dp-dense-shaped key and entry: five classes, about ten
    /// machines, small counts.
    fn dense_pair() -> (DpKey, CachedDp) {
        let p = DpProblem::new(vec![6, 6, 7, 6, 5], vec![5, 6, 7, 8, 9], 17);
        let sol = p.solve_sequential();
        let configs = p.extract_configs(&sol.values);
        (p.canonical_key(), entry(sol.opt, configs))
    }

    /// The cost the cache charged before entries were packed: both key
    /// vectors twice, one `Vec` per configuration.
    fn unpacked_cost(key: &DpKey, entry: &CachedDp) -> u64 {
        let key_bytes = (key.counts().len() + key.sizes().len()) as u64 * 8 + 8;
        let config_bytes = entry.configs.as_ref().map_or(0, |configs| {
            24 + configs.iter().map(|c| 24 + 8 * c.len() as u64).sum::<u64>()
        });
        96 + 2 * key_bytes + config_bytes
    }

    #[test]
    fn packed_entries_round_trip() {
        let (dense_key, dense) = dense_pair();
        assert!(dense.configs.as_ref().unwrap().len() >= 8);
        let near_max = DpProblem::new(vec![3, 1], vec![u64::MAX / 3, u64::MAX / 2], u64::MAX);
        let cases = [
            (dense_key, dense),
            // Counts that need 2-, 4- and 8-byte widths, and u64-scale
            // key fields.
            (
                near_max.canonical_key(),
                entry(
                    3,
                    Some(vec![vec![300, 0], vec![70_000, 1], vec![usize::MAX, 0]]),
                ),
            ),
            (near_max.canonical_key(), entry(INFEASIBLE, None)),
            (
                DpProblem::new(vec![], vec![], 9).canonical_key(),
                entry(0, Some(vec![])),
            ),
            (
                DpProblem::new(vec![2], vec![3], 9).canonical_key(),
                entry(2, Some(vec![vec![], vec![]])),
            ),
        ];
        for (key, value) in cases {
            let cache = DpCache::new(2, 1 << 20);
            cache.insert(key.clone(), value.clone(), entry_cost(&key, &value));
            assert_eq!(cache.get(&key), Some(value));
        }
    }

    #[test]
    fn ragged_configurations_are_not_cached() {
        let key = DpProblem::new(vec![2], vec![3], 9).canonical_key();
        let cache = DpCache::new(1, 1 << 20);
        cache.insert(key.clone(), entry(2, Some(vec![vec![1], vec![]])), 64);
        assert!(cache.is_empty());
        assert_eq!(cache.get(&key), None);
    }

    #[test]
    fn packed_cache_evicts_by_bytes_in_lru_order() {
        // One shard, a budget of exactly three 100-byte entries.
        let cache = DpCache::new(1, 300);
        let key = |cap| DpProblem::new(vec![3, 2], vec![4, 7], cap).canonical_key();
        let value = |opt| entry(opt, Some(vec![vec![opt as usize, 1]]));
        for cap in 10..13 {
            cache.insert(key(cap), value(cap as u32), 100);
        }
        assert_eq!(cache.get(&key(10)), Some(value(10)));
        cache.insert(key(13), value(13), 100);
        assert_eq!(cache.get(&key(11)), None, "the LRU entry goes first");
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.bytes(), 300);
        // One entry of 250 bytes displaces all but the most recent.
        cache.insert(key(14), value(14), 250);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key(14)), Some(value(14)));
        let report = cache.report();
        assert_eq!(report.evictions, 4);
        assert_eq!(report.bytes, 250);
    }

    #[test]
    fn a_round_tripped_entry_writes_the_same_warm_bytes() {
        let key = DpProblem::new(vec![3, 2], vec![10, 4], 20).canonical_key();
        let value = entry(2, Some(vec![vec![1, 0], vec![2, 1]]));
        let cache = DpCache::new(1, 1 << 20);
        cache.insert(key.clone(), value.clone(), entry_cost(&key, &value));
        let back = cache.get(&key).unwrap();
        // The warm record format: u32 opt · u8 has_configs · u32
        // machines · (u32 len · u64 count per class) per machine.
        let mut expect = vec![2, 0, 0, 0, 1, 2, 0, 0, 0];
        for config in [[1u64, 0], [2, 1]] {
            expect.extend_from_slice(&2u32.to_le_bytes());
            for x in config {
                expect.extend_from_slice(&x.to_le_bytes());
            }
        }
        let dir =
            std::env::temp_dir().join(format!("pcmax-serve-packed-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let warm = WarmTier::open(&dir).unwrap();
        warm.put(&key, &back);
        let shipped = warm.entries_since(0, 0, u64::MAX);
        assert_eq!(shipped.len(), 1);
        assert_eq!(shipped[0].key, encode_key(&key));
        assert_eq!(shipped[0].value, expect);
        assert_eq!(warm.get(&key), Some(value));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_packed_dense_entry_costs_under_a_third_of_an_unpacked_one() {
        let (key, value) = dense_pair();
        let packed = entry_cost(&key, &value);
        let unpacked = unpacked_cost(&key, &value);
        assert!(
            3 * packed <= unpacked,
            "packed {packed} B vs unpacked {unpacked} B"
        );
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache: Arc<ShardedCache<u64, u64>> = Arc::new(ShardedCache::new(8, 64 * 16));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..256u64 {
                        let key = (t * 1000 + i) % 96;
                        cache.insert(key, key * 2, 16);
                        if let Some(v) = cache.get(&key) {
                            assert_eq!(v, key * 2);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.bytes() <= 8 * 64 * 16);
    }
}
