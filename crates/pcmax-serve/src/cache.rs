//! The service's DP cache: sharded, LRU, and budgeted in **bytes**.
//!
//! A key packs to bytes and hashes to 64 bits. The high bits pick one of
//! `shards` independently-locked shards, so concurrent workers rarely
//! contend on the same mutex. Each shard is a slab-backed LRU: an index
//! from the full hash to a `u32` slot plus an intrusive doubly-linked
//! recency list threaded through the slab with `u32` links, giving O(1)
//! get/insert/evict without per-operation allocation (beyond the slab
//! growth itself). A hit compares the stored key before it returns, so
//! two keys that share a hash never see each other's entry: inserting
//! the second displaces the first.
//!
//! Capacity is a **byte budget per shard**, not an entry count: every
//! insert carries the entry's estimated resident cost, and the shard
//! evicts least-recently-used entries until the budget holds. Cached DP
//! solutions vary in size by orders of magnitude (a bare `OPT(N)` vs. a
//! machine-configuration list for a k² dimensional table), so counting
//! entries lets a burst of large-`k` requests blow past any real memory
//! target. The entry count survives as a derived statistic
//! ([`DpCache::len`]).
//!
//! Each entry is one heap block, the packed key followed by the packed
//! configurations, and a hit unpacks it.

use crate::solver::CachedDp;
use crate::stats::CacheReport;
use pcmax_ptas::DpKey;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

const NIL: u32 = u32::MAX;

struct Node {
    entry: PackedDp,
    cost: u32,
    prev: u32,
    next: u32,
}

/// The index's hasher: its keys already are 64-bit hashes.
#[derive(Default)]
struct HashIsKey(u64);

impl Hasher for HashIsKey {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the index is keyed by u64 hashes")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Hashes a packed key.
type KeyHash = fn(&[u8]) -> u64;

/// SipHash of a packed key.
fn sip(key: &[u8]) -> u64 {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    hasher.finish()
}

/// One shard: slab + index + recency list, guarded by a single mutex.
struct Shard {
    slab: Vec<Node>,
    index: HashMap<u64, u32, BuildHasherDefault<HashIsKey>>,
    free: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
    bytes: u64,
}

impl Shard {
    fn new() -> Self {
        Self {
            slab: Vec::new(),
            index: HashMap::default(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
        }
    }

    fn node(&mut self, i: u32) -> &mut Node {
        &mut self.slab[i as usize]
    }

    /// Unlinks slot `i` from the recency list.
    fn unlink(&mut self, i: u32) {
        let Node { prev, next, .. } = *self.node(i);
        if prev != NIL {
            self.node(prev).next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.node(next).prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Links slot `i` at the head (most recently used).
    fn link_front(&mut self, i: u32) {
        let head = self.head;
        let node = self.node(i);
        node.prev = NIL;
        node.next = head;
        if head != NIL {
            self.node(head).prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// The entry of packed key `key` under `hash`, marked most recently
    /// used.
    fn get(&mut self, hash: u64, key: &[u8]) -> Option<&PackedDp> {
        let &i = self.index.get(&hash)?;
        if !self.slab[i as usize].entry.0.starts_with(key) {
            return None;
        }
        self.unlink(i);
        self.link_front(i);
        Some(&self.slab[i as usize].entry)
    }

    /// Evicts the LRU entry, finding its index slot by `rehash`. Returns
    /// `false` when the shard is empty or `keep` is the only entry left.
    fn evict_tail(&mut self, keep: u32, rehash: KeyHash) -> bool {
        let lru = self.tail;
        if lru == NIL || lru == keep {
            return false;
        }
        self.unlink(lru);
        let old = self
            .index
            .remove(&rehash(self.slab[lru as usize].entry.key()));
        debug_assert_eq!(old, Some(lru));
        self.bytes -= u64::from(self.node(lru).cost);
        self.free.push(lru);
        true
    }

    /// Inserts `entry` under `hash` at `cost`, evicting LRU entries until
    /// the shard fits `budget`. Returns how many entries left: evicted
    /// ones, and a resident entry of another key under the same hash.
    ///
    /// An entry costlier than the whole budget still resides (evicting
    /// everything else): refusing it would make the hottest key
    /// permanently uncacheable, which is worse than briefly overshooting
    /// one shard.
    fn insert(
        &mut self,
        hash: u64,
        entry: PackedDp,
        cost: u32,
        budget: u64,
        rehash: KeyHash,
    ) -> u64 {
        let mut evicted = 0u64;
        if let Some(&i) = self.index.get(&hash) {
            let node = self.node(i);
            if node.entry.key() != entry.key() {
                evicted += 1;
            }
            let old_cost = std::mem::replace(&mut node.cost, cost);
            node.entry = entry;
            self.bytes = self.bytes - u64::from(old_cost) + u64::from(cost);
            self.unlink(i);
            self.link_front(i);
            while self.bytes > budget && self.evict_tail(i, rehash) {
                evicted += 1;
            }
            return evicted;
        }
        while self.bytes + u64::from(cost) > budget && self.evict_tail(NIL, rehash) {
            evicted += 1;
        }
        let node = Node {
            entry,
            cost,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = node;
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len())
                    .ok()
                    .filter(|&slot| slot != NIL)
                    .expect("a shard holds fewer than u32::MAX entries");
                self.slab.push(node);
                slot
            }
        };
        self.bytes += u64::from(cost);
        self.index.insert(hash, i);
        self.link_front(i);
        evicted
    }
}

/// The DP cache the whole service shares, with atomic hit/miss/eviction
/// counters and one heap block per entry.
///
/// * The block starts with the key, LEB128 varints of the class count,
///   the capacity, the counts and the sizes. Such a key encodes its own
///   length, so a block that starts with a probe's packed key holds that
///   key.
/// * A varint of `OPT(N)` follows, then the configurations: a varint
///   of `machines + 1` (`0` when
///   the entry has none, i.e. is infeasible), a varint of the counts per
///   machine, one byte `b`, the bit length of the largest count, and
///   the counts, machine-major,
///   `b` bits each in one little-endian bit stream. Dense-DP counts are
///   small: with none above 3, a 12-machine, 5-class entry packs its 60
///   counts in 15 bytes.
///
/// [`DpCache::get`] unpacks into a fresh [`CachedDp`]. The warm tier
/// keeps its own format; entries convert here, at the RAM boundary.
pub struct DpCache {
    shards: Vec<Mutex<Shard>>,
    budget_per_shard: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Hashes a packed key; [`sip`] except in tests that force collisions.
    hash: KeyHash,
}

impl DpCache {
    /// A cache of `shards` shards, each holding up to `budget_per_shard`
    /// bytes of entries (by the cost callers pass to
    /// [`DpCache::insert`]; one entry counts at most `u32::MAX`).
    pub fn new(shards: usize, budget_per_shard: u64) -> Self {
        assert!(shards > 0, "cache needs at least one shard");
        assert!(budget_per_shard > 0, "shard byte budget must be positive");
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            budget_per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            hash: sip,
        }
    }

    /// The shard of `hash`: its high bits, because the index's buckets
    /// come from the low ones.
    fn shard(&self, hash: u64) -> MutexGuard<'_, Shard> {
        self.shards[(hash >> 32) as usize % self.shards.len()]
            .lock()
            .expect("cache shard poisoned")
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&self, key: &DpKey) -> Option<CachedDp> {
        let packed = pack_key(key);
        let hash = (self.hash)(&packed);
        let result = self
            .shard(hash)
            .get(hash, &packed)
            .map(|entry| entry.unpack(packed.len()));
        match result {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    /// Inserts (or refreshes) `key` at an estimated resident cost of
    /// `cost` bytes (see [`entry_cost`]), evicting LRU entries until the
    /// shard's byte budget holds. An entry whose configurations differ in
    /// length has no packed form (the DP never makes one; only a corrupt
    /// warm record could) and is not cached.
    pub fn insert(&self, key: DpKey, entry: CachedDp, cost: u64) {
        let packed = pack_key(&key);
        let hash = (self.hash)(&packed);
        let Some(entry) = PackedDp::pack(packed, &entry) else {
            return;
        };
        let cost = u32::try_from(cost).unwrap_or(u32::MAX);
        let evicted = self
            .shard(hash)
            .insert(hash, entry, cost, self.budget_per_shard, self.hash);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Total byte budget across all shards.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_per_shard * self.shards.len() as u64
    }

    /// Resident entries across all shards (derived stat; the budget is
    /// [`DpCache::bytes`]).
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

/// Estimated resident bytes of one entry: its slab node and its index
/// slot, each with its table's average growth slack, and its heap block.
/// An estimate — the cache budget bounds approximate memory, not
/// allocator-exact bytes.
pub fn entry_cost(key: &DpKey, entry: &CachedDp) -> u64 {
    let node = std::mem::size_of::<Node>() * 5 / 4;
    let index_slot = (std::mem::size_of::<(u64, u32)>() + 1) * 3 / 2;
    let block = PackedDp::pack(pack_key(key), entry).map_or(0, |p| heap_block(p.0.len()));
    (node + index_slot + block) as u64
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

/// The varint at `bytes[*pos..]`, advancing `pos` past it.
fn take_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut x = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = bytes[*pos];
        *pos += 1;
        x |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            break;
        }
    }
    x
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

/// A [`CachedDp`] as the cache holds it: one block, laid out as
/// [`DpCache`] describes.
struct PackedDp(Box<[u8]>);

impl PackedDp {
    /// Appends `entry`'s configurations to the packed `key`. `None` when
    /// the configurations differ in length.
    fn pack(mut block: Vec<u8>, entry: &CachedDp) -> Option<Self> {
        put_varint(&mut block, entry.opt.into());
        match &entry.configs {
            None => block.push(0),
            Some(configs) => {
                let classes = configs.first().map_or(0, Vec::len);
                if configs.iter().any(|c| c.len() != classes) {
                    return None;
                }
                let max = configs.iter().flatten().copied().max().unwrap_or(0) as u64;
                let bits = u64::BITS - max.leading_zeros();
                put_varint(&mut block, configs.len() as u64 + 1);
                put_varint(&mut block, classes as u64);
                let counts = configs.len() * classes;
                block.reserve_exact(1 + (counts * bits as usize).div_ceil(8));
                block.push(bits as u8);
                // At most 7 bits wait in `acc` before a count of up to
                // 64 bits joins them.
                let (mut acc, mut held) = (0u128, 0u32);
                for &x in configs.iter().flatten() {
                    acc |= (x as u128) << held;
                    held += bits;
                    while held >= 8 {
                        block.push(acc as u8);
                        acc >>= 8;
                        held -= 8;
                    }
                }
                if held > 0 {
                    block.push(acc as u8);
                }
            }
        }
        Some(Self(block.into_boxed_slice()))
    }

    /// The packed key at the front of the block.
    fn key(&self) -> &[u8] {
        let mut pos = 0;
        let classes = take_varint(&self.0, &mut pos);
        for _ in 0..=2 * classes {
            take_varint(&self.0, &mut pos);
        }
        &self.0[..pos]
    }

    /// The entry, whose packed key is `key_len` bytes long.
    fn unpack(&self, key_len: usize) -> CachedDp {
        let mut pos = key_len;
        let opt = take_varint(&self.0, &mut pos) as u32;
        let configs = match take_varint(&self.0, &mut pos) {
            0 => None,
            m => {
                let classes = take_varint(&self.0, &mut pos) as usize;
                let bits = u32::from(self.0[pos]);
                let mask = (1u128 << bits) - 1;
                let mut bytes = self.0[pos + 1..].iter();
                let (mut acc, mut held) = (0u128, 0u32);
                let mut next = || {
                    while held < bits {
                        acc |= u128::from(*bytes.next().expect("packed counts")) << held;
                        held += 8;
                    }
                    let x = (acc & mask) as usize;
                    acc >>= bits;
                    held -= bits;
                    x
                };
                let configs = (1..m)
                    .map(|_| (0..classes).map(|_| next()).collect())
                    .collect();
                Some(Arc::new(configs))
            }
        };
        CachedDp { opt, configs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warm::{encode_key, WarmTier};
    use pcmax_ptas::dp::INFEASIBLE;
    use pcmax_ptas::DpProblem;

    fn entry(opt: u32, configs: Option<Vec<Vec<usize>>>) -> CachedDp {
        CachedDp {
            opt,
            configs: configs.map(Arc::new),
        }
    }

    /// Key `i`: two classes, capacity `10 + i`, so every `i` is another
    /// key.
    fn key(i: u64) -> DpKey {
        DpProblem::new(vec![3, 2], vec![4, 7], 10 + i).canonical_key()
    }

    /// A one-machine entry that tells `opt` apart.
    fn value(opt: u32) -> CachedDp {
        entry(opt, Some(vec![vec![opt as usize, 1]]))
    }

    #[test]
    fn get_and_insert_roundtrip() {
        let cache = DpCache::new(4, 1 << 10);
        assert_eq!(cache.get(&key(1)), None);
        cache.insert(key(1), value(1), 16);
        assert_eq!(cache.get(&key(1)), Some(value(1)));
        let report = cache.report();
        assert_eq!((report.hits, report.misses, report.entries), (1, 1, 1));
        assert_eq!(report.bytes, 16);
    }

    #[test]
    fn byte_pressure_evicts_in_lru_order() {
        // Single shard so the recency order is total; budget fits exactly
        // three 10-byte entries.
        let cache = DpCache::new(1, 30);
        for i in 0..3 {
            cache.insert(key(i), value(i as u32 * 10), 10);
        }
        // Touch 0 so 1 becomes the LRU entry.
        assert_eq!(cache.get(&key(0)), Some(value(0)));
        cache.insert(key(3), value(30), 10);
        assert_eq!(cache.get(&key(1)), None, "LRU entry should be evicted");
        assert_eq!(cache.get(&key(0)), Some(value(0)));
        assert_eq!(cache.get(&key(2)), Some(value(20)));
        assert_eq!(cache.get(&key(3)), Some(value(30)));
        assert_eq!(cache.report().evictions, 1);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.bytes(), 30);
    }

    #[test]
    fn one_large_insert_evicts_many_small_entries() {
        // Regression for byte (not entry-count) accounting: a 25-byte
        // entry displaces multiple 10-byte entries — and the survivors
        // are exactly the most recently used.
        let cache = DpCache::new(1, 40);
        for i in 0..4 {
            cache.insert(key(i), value(i as u32), 10);
        }
        cache.insert(key(9), value(99), 25);
        assert_eq!(cache.len(), 2, "25B + 10B is all a 40B budget holds");
        assert_eq!(cache.bytes(), 35);
        assert_eq!(cache.report().evictions, 3);
        assert_eq!(cache.get(&key(0)), None, "oldest evicted first");
        assert_eq!(cache.get(&key(1)), None);
        assert_eq!(cache.get(&key(2)), None);
        assert_eq!(
            cache.get(&key(3)),
            Some(value(3)),
            "newest small entry survives"
        );
        assert_eq!(cache.get(&key(9)), Some(value(99)));
    }

    #[test]
    fn entry_larger_than_the_budget_still_resides_alone() {
        let cache = DpCache::new(1, 20);
        cache.insert(key(1), value(10), 5);
        cache.insert(key(2), value(20), 100);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key(2)), Some(value(20)));
        assert_eq!(cache.get(&key(1)), None);
    }

    #[test]
    fn reinsert_refreshes_cost_and_recency() {
        let cache = DpCache::new(1, 20);
        cache.insert(key(1), value(10), 10);
        cache.insert(key(2), value(20), 10);
        cache.insert(key(1), value(11), 5); // refresh: cheaper now, and MRU
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.bytes(), 15);
        assert_eq!(cache.report().evictions, 0);
        assert_eq!(cache.get(&key(1)), Some(value(11)));
        // 2 is now LRU; byte pressure evicts it, not 1.
        cache.insert(key(3), value(30), 10);
        assert_eq!(cache.get(&key(2)), None);
        assert_eq!(cache.get(&key(1)), Some(value(11)));
    }

    #[test]
    fn refresh_that_grows_past_the_budget_evicts_others() {
        let cache = DpCache::new(1, 20);
        cache.insert(key(1), value(10), 8);
        cache.insert(key(2), value(20), 8);
        cache.insert(key(2), value(21), 16); // grows: 8 + 16 > 20
        assert_eq!(cache.get(&key(1)), None, "growth must evict the LRU entry");
        assert_eq!(cache.get(&key(2)), Some(value(21)));
        assert_eq!(cache.bytes(), 16);
    }

    #[test]
    fn eviction_slots_are_reused() {
        let cache = DpCache::new(1, 20);
        for i in 0..100 {
            cache.insert(key(i), value(i as u32), 10);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.report().evictions, 98);
        assert_eq!(cache.shards[0].lock().unwrap().slab.len(), 2);
        assert_eq!(cache.get(&key(99)), Some(value(99)));
        assert_eq!(cache.get(&key(98)), Some(value(98)));
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
        for i in 0..3 {
            cache.insert(key(i), value(i as u32), 100);
        }
        assert_eq!(cache.get(&key(0)), Some(value(0)));
        cache.insert(key(3), value(3), 100);
        assert_eq!(cache.get(&key(1)), None, "the LRU entry goes first");
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.bytes(), 300);
        // One entry of 250 bytes displaces all but the most recent.
        cache.insert(key(4), value(4), 250);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key(4)), Some(value(4)));
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
    fn a_lean_dense_entry_is_one_block_of_at_most_160_bytes() {
        let (key, value) = dense_pair();
        let cost = entry_cost(&key, &value);
        assert!(cost <= 160, "{cost} B");
        let packed = PackedDp::pack(pack_key(&key), &value).unwrap();
        assert_eq!(packed.key(), pack_key(&key).as_slice());
        assert_eq!(std::mem::size_of::<Node>(), 32);
    }

    #[test]
    fn keys_sharing_a_hash_never_return_each_other() {
        // Every key hashes to 7: each insert displaces the other key's
        // entry, and a lookup of the displaced key misses.
        let cache = DpCache {
            hash: |_| 7,
            ..DpCache::new(2, 1 << 20)
        };
        cache.insert(key(0), value(10), 100);
        assert_eq!(cache.get(&key(0)), Some(value(10)));
        assert_eq!(cache.get(&key(1)), None);
        cache.insert(key(1), value(11), 100);
        assert_eq!(cache.get(&key(0)), None);
        assert_eq!(cache.get(&key(1)), Some(value(11)));
        assert_eq!((cache.len(), cache.bytes()), (1, 100));
        assert_eq!(cache.report().evictions, 1);
        // A key that extends another's packed bytes is still another key.
        let short = DpProblem::new(vec![3], vec![4], 10).canonical_key();
        cache.insert(short.clone(), value(3), 50);
        assert_eq!(cache.get(&key(1)), None);
        assert_eq!(cache.get(&short), Some(value(3)));
        // Byte pressure still evicts through the shared index slot.
        let tight = DpCache {
            hash: |_| 7,
            ..DpCache::new(1, 150)
        };
        tight.insert(key(0), value(10), 100);
        tight.insert(key(1), value(11), 120);
        assert_eq!(tight.get(&key(0)), None);
        assert_eq!(tight.get(&key(1)), Some(value(11)));
        assert_eq!(tight.bytes(), 120);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = Arc::new(DpCache::new(8, 64 * 16));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..256u64 {
                        let k = (t * 1000 + i) % 96;
                        cache.insert(key(k), value(k as u32 * 2), 16);
                        if let Some(v) = cache.get(&key(k)) {
                            assert_eq!(v, value(k as u32 * 2));
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
