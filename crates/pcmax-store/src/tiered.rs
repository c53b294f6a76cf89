//! The composed store: RAM over optional disk under one byte budget.

use crate::page::Page;
use crate::tier::{DiskTier, PageStore, RamTier};
use crate::{StoreConfig, StoreError};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// RAM tier over an optional disk tier, with a hard byte budget on the
/// RAM side.
///
/// * **Demotion** is pressure-driven: a `put` (or a fault promotion) that
///   pushes the RAM tier past the budget demotes resident pages to disk
///   until it fits, in clock/LRU-hybrid order — pages are visited oldest
///   first, but a page referenced since its last visit gets a second
///   chance instead of being demoted. The scan is bounded: after two
///   full sweeps' worth of consecutive second chances (possible when
///   concurrent readers keep re-referencing every resident page) the
///   oldest page is demoted regardless, so demotion can never spin.
/// * **Write-behind**: pages reach disk only when demoted, and only if no
///   identical spill file already exists (pages are immutable, so a
///   re-demoted page costs nothing). [`Self::write_behind`] additionally
///   lets a background thread pre-write a resident page's spill file so
///   a later demotion finds it already on disk and frees RAM instantly.
/// * **Read-through**: a `get` that misses RAM faults the page in from
///   disk and promotes it (which may in turn demote colder pages).
///   [`Self::prefetch`] is the overlapped variant: it reads a spilled
///   page off the compute path into a small fixed *staging ring*
///   ([`STAGED_PAGES_MAX`] pages — the paper's stream count), never
///   touching resident pages. The first `get` of a staged page is
///   served from the ring and promoted through the ordinary install
///   path, so the resident set evolves exactly as it would without
///   prefetching — a staging hit removes a stall and can never add one.
///   Ring overflow drops the oldest staged page (it is still on disk),
///   so a misprediction costs only the background read.
/// * **No disk tier** makes the budget a hard wall: a `put` that cannot
///   fit fails fast with [`StoreError::BudgetExceeded`] and mutates
///   nothing.
///
/// All methods take `&self`; an internal mutex makes the store safe to
/// share across rayon workers and the overlap threads. Prefetch reads
/// and write-behind file writes happen *outside* the lock, so compute
/// threads' RAM hits do not stall behind background I/O.
#[derive(Debug)]
pub struct TieredStore {
    inner: Mutex<Inner>,
    budget: u64,
    ram_hits: AtomicU64,
    faults: AtomicU64,
    misses: AtomicU64,
    demotions: AtomicU64,
    spill_writes: AtomicU64,
    prefetch_issued: AtomicU64,
    prefetch_hits: AtomicU64,
    writebehind_writes: AtomicU64,
}

/// Capacity of the prefetch staging ring, in pages. Mirrors the
/// paper's 4-stream round-robin: at most this many read-ahead buffers
/// are in flight outside the RAM budget at any moment.
pub const STAGED_PAGES_MAX: usize = 4;

#[derive(Debug)]
struct Inner {
    ram: RamTier,
    disk: Option<DiskTier>,
    /// Clock hand order: page ids oldest-first.
    clock: VecDeque<u64>,
    /// Second-chance bits, one per RAM-resident page.
    referenced: HashMap<u64, bool>,
    /// The prefetch staging ring: pages read ahead off the compute
    /// path, oldest-first, held *outside* the RAM budget and capped at
    /// [`STAGED_PAGES_MAX`]. The first `get` of a staged page drains it
    /// into RAM through the ordinary install path.
    staged: VecDeque<(u64, Arc<Page>)>,
}

/// Point-in-time store counters and occupancy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Pages resident in RAM.
    pub ram_pages: usize,
    /// Serialized bytes resident in RAM.
    pub ram_bytes: u64,
    /// Pages spilled to disk.
    pub disk_pages: usize,
    /// Bytes spilled to disk.
    pub disk_bytes: u64,
    /// The RAM byte budget.
    pub budget_bytes: u64,
    /// `get`s answered from RAM.
    pub ram_hits: u64,
    /// `get`s answered by faulting from disk — compute-path stalls.
    pub faults: u64,
    /// `get`s answered by neither tier.
    pub misses: u64,
    /// Pages demoted out of RAM under pressure.
    pub demotions: u64,
    /// Demotions that actually wrote a spill file (the rest found their
    /// immutable page already on disk).
    pub spill_writes: u64,
    /// Pages read from disk by [`TieredStore::prefetch`] — fault I/O
    /// moved off the compute path.
    pub prefetch_issued: u64,
    /// RAM hits whose page was resident because of a prefetch (counted
    /// on first touch).
    pub prefetch_hits: u64,
    /// Spill files pre-written by [`TieredStore::write_behind`].
    pub writebehind_writes: u64,
    /// Pages currently in the prefetch staging ring (held outside the
    /// RAM budget, at most [`STAGED_PAGES_MAX`]).
    pub staged_pages: usize,
}

/// True when the demotion scan has granted `spared` consecutive second
/// chances over `resident` resident pages — two full sweeps with no
/// demotion — and must force-demote instead of sparing again. Keeps the
/// clock live even when concurrent readers re-reference every page
/// between visits.
fn clock_scan_exhausted(spared: usize, resident: usize) -> bool {
    spared >= 2 * resident.max(1)
}

impl TieredStore {
    /// Provisions a store: an empty RAM tier, and — when `spill_dir` is
    /// set — a disk tier opened on (and re-indexing) that directory.
    pub fn open(config: &StoreConfig) -> Result<Self, StoreError> {
        let disk = match &config.spill_dir {
            Some(dir) => Some(DiskTier::open(dir)?),
            None => None,
        };
        Ok(Self {
            inner: Mutex::new(Inner {
                ram: RamTier::new(),
                disk,
                clock: VecDeque::new(),
                referenced: HashMap::new(),
                staged: VecDeque::new(),
            }),
            budget: config.budget.bytes,
            ram_hits: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            demotions: AtomicU64::new(0),
            spill_writes: AtomicU64::new(0),
            prefetch_issued: AtomicU64::new(0),
            prefetch_hits: AtomicU64::new(0),
            writebehind_writes: AtomicU64::new(0),
        })
    }

    /// The RAM byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// Whether a disk tier is configured.
    pub fn has_disk(&self) -> bool {
        self.inner.lock().expect("store lock").disk.is_some()
    }

    /// Stores a page. May demote colder pages to disk; without a disk
    /// tier, fails fast when the budget cannot hold the page.
    pub fn put(&self, id: u64, page: Arc<Page>) -> Result<(), StoreError> {
        let cost = page.packed_bytes();
        let mut inner = self.inner.lock().expect("store lock");
        if inner.disk.is_none() {
            let replaced = inner
                .ram
                .get(id)
                .expect("ram get is infallible")
                .map(|old| old.packed_bytes())
                .unwrap_or(0);
            let needed = inner.ram.bytes() - replaced + cost;
            if needed > self.budget {
                return Err(StoreError::BudgetExceeded {
                    needed,
                    budget: self.budget,
                });
            }
        }
        // A staged read-ahead copy of this id is now stale.
        inner.staged.retain(|(pid, _)| *pid != id);
        self.install(&mut inner, id, page)?;
        Ok(())
    }

    /// Fetches a page: RAM hit, disk fault (read-through + promote), or
    /// `None`.
    pub fn get(&self, id: u64) -> Result<Option<Arc<Page>>, StoreError> {
        let mut inner = self.inner.lock().expect("store lock");
        if let Some(page) = inner.ram.get(id)? {
            inner.referenced.insert(id, true);
            self.ram_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Some(page));
        }
        // Staging-ring hit: a prefetch already paid the disk read off
        // the compute path. Drain the page into RAM through the
        // ordinary install path — the resident set evolves exactly as
        // if this were the fault it replaced, minus the stall.
        if let Some(pos) = inner.staged.iter().position(|(pid, _)| *pid == id) {
            let (_, page) = inner.staged.remove(pos).expect("position is in bounds");
            self.prefetch_hits.fetch_add(1, Ordering::Relaxed);
            self.install(&mut inner, id, Arc::clone(&page))?;
            return Ok(Some(page));
        }
        let faulted = match &mut inner.disk {
            Some(disk) => disk.get(id)?,
            None => None,
        };
        let Some(page) = faulted else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        };
        self.faults.fetch_add(1, Ordering::Relaxed);
        // Promote. The caller's Arc survives even if the budget demotes
        // this very page straight back out.
        self.install(&mut inner, id, Arc::clone(&page))?;
        Ok(Some(page))
    }

    /// Reads a spilled page into the staging ring off the compute path.
    ///
    /// Returns `Ok(true)` when a disk read was issued: the page lands
    /// in the staging ring (at most [`STAGED_PAGES_MAX`] pages, held
    /// outside the RAM budget), where the next `get` finds it without a
    /// stall. Resident pages are never touched — a staging hit promotes
    /// through the ordinary install path, so prefetching can remove
    /// compute-path faults but never reorders or adds them. When the
    /// ring is full the oldest staged page is dropped (its spill file
    /// is still current), so a misprediction costs only the background
    /// read. Returns `Ok(false)` — and does nothing — when the page is
    /// already resident, already staged, or not on disk. The disk read
    /// happens outside the store lock; a compute thread's RAM hit never
    /// stalls behind it.
    pub fn prefetch(&self, id: u64) -> Result<bool, StoreError> {
        let path = {
            let inner = self.inner.lock().expect("store lock");
            if inner.ram.contains(id) || inner.staged.iter().any(|(pid, _)| *pid == id) {
                return Ok(false);
            }
            let Some(disk) = inner.disk.as_ref() else {
                return Ok(false);
            };
            if disk.size_of(id).is_none() {
                return Ok(false);
            }
            disk.entry_path(id)
        };
        let bytes = std::fs::read(&path).map_err(|e| StoreError::io(&path, e))?;
        let page = Arc::new(crate::page::decode_page_packed(&bytes)?);
        self.prefetch_issued.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().expect("store lock");
        // Re-check under the lock: a compute fault may have promoted
        // the page (or a racing prefetch staged it) meanwhile — the
        // read was wasted but the copy must not shadow newer data.
        if inner.ram.contains(id) || inner.staged.iter().any(|(pid, _)| *pid == id) {
            return Ok(true);
        }
        inner.staged.push_back((id, page));
        if inner.staged.len() > STAGED_PAGES_MAX {
            inner.staged.pop_front();
        }
        Ok(true)
    }

    /// Pre-writes a resident page's spill file while keeping the page
    /// resident, so a later demotion finds it already on disk and frees
    /// the RAM without stalling on the write.
    ///
    /// Returns `Ok(true)` when a spill file was written; `Ok(false)`
    /// when the page is not resident, no disk tier exists, or the spill
    /// file is already current. The file write happens outside the
    /// store lock (to a private temp name, renamed under the lock), so
    /// compute threads do not stall behind it.
    pub fn write_behind(&self, id: u64) -> Result<bool, StoreError> {
        let (page, path) = {
            let mut inner = self.inner.lock().expect("store lock");
            let Some(page) = inner.ram.get(id)? else {
                return Ok(false);
            };
            let Some(disk) = inner.disk.as_ref() else {
                return Ok(false);
            };
            if disk.contains(id) {
                return Ok(false);
            }
            (page, disk.entry_path(id))
        };
        let bytes = crate::page::encode_page_packed(&page);
        // Write outside the lock under a write-behind-private name; the
        // final rename happens under the lock, so a concurrent demotion
        // of the same immutable page can never interleave torn bytes.
        let tmp = path.with_extension("wb");
        if let Err(e) = std::fs::write(&tmp, &bytes) {
            let _ = std::fs::remove_file(&tmp);
            return Err(StoreError::io(&tmp, e));
        }
        let mut inner = self.inner.lock().expect("store lock");
        let Some(disk) = inner.disk.as_mut() else {
            let _ = std::fs::remove_file(&tmp);
            return Ok(false);
        };
        if disk.contains(id) {
            let _ = std::fs::remove_file(&tmp);
            return Ok(false);
        }
        if let Err(e) = std::fs::rename(&tmp, &path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(StoreError::io(&path, e));
        }
        disk.record_written(id, bytes.len() as u64);
        self.writebehind_writes.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// Inserts into RAM, registers with the clock, and restores the
    /// budget invariant.
    fn install(&self, inner: &mut Inner, id: u64, page: Arc<Page>) -> Result<(), StoreError> {
        inner.ram.put(id, page)?;
        if !inner.referenced.contains_key(&id) {
            inner.clock.push_back(id);
        }
        inner.referenced.insert(id, true);
        self.enforce_budget(inner)
    }

    /// Demotes pages (second-chance clock order) until RAM fits the
    /// budget. Only called with pages to demote *to* — the no-disk case
    /// is rejected up front in [`Self::put`]. Bounded by
    /// [`clock_scan_exhausted`]: two sweeps of consecutive second
    /// chances force-demote the oldest page.
    fn enforce_budget(&self, inner: &mut Inner) -> Result<(), StoreError> {
        let mut spared = 0usize;
        while inner.ram.bytes() > self.budget {
            let Some(id) = inner.clock.pop_front() else {
                // Unreachable in practice: bytes > 0 implies resident
                // pages, and every resident page is on the clock.
                return Err(StoreError::BudgetExceeded {
                    needed: inner.ram.bytes(),
                    budget: self.budget,
                });
            };
            if !inner.ram.contains(id) {
                inner.referenced.remove(&id);
                continue;
            }
            let force = clock_scan_exhausted(spared, inner.clock.len() + 1);
            if !force && inner.referenced.get(&id).copied().unwrap_or(false) {
                inner.referenced.insert(id, false);
                inner.clock.push_back(id);
                spared += 1;
                continue;
            }
            let page = inner
                .ram
                .get(id)?
                .expect("clock page is resident");
            let disk = inner.disk.as_mut().expect("enforce_budget needs a disk tier");
            if !disk.contains(id) {
                if let Err(e) = disk.put(id, page) {
                    // Leave the page resident and registered.
                    inner.clock.push_front(id);
                    return Err(e);
                }
                self.spill_writes.fetch_add(1, Ordering::Relaxed);
            }
            inner.ram.remove(id)?;
            inner.referenced.remove(&id);
            self.demotions.fetch_add(1, Ordering::Relaxed);
            spared = 0;
        }
        Ok(())
    }

    /// Snapshot of counters and tier occupancy.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("store lock");
        StoreStats {
            ram_pages: inner.ram.len(),
            ram_bytes: inner.ram.bytes(),
            disk_pages: inner.disk.as_ref().map(PageStore::len).unwrap_or(0),
            disk_bytes: inner.disk.as_ref().map(PageStore::bytes).unwrap_or(0),
            budget_bytes: self.budget,
            ram_hits: self.ram_hits.load(Ordering::Relaxed),
            faults: self.faults.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            demotions: self.demotions.load(Ordering::Relaxed),
            spill_writes: self.spill_writes.load(Ordering::Relaxed),
            prefetch_issued: self.prefetch_issued.load(Ordering::Relaxed),
            prefetch_hits: self.prefetch_hits.load(Ordering::Relaxed),
            writebehind_writes: self.writebehind_writes.load(Ordering::Relaxed),
            staged_pages: inner.staged.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::page_bytes;
    use crate::StoreBudget;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pcmax-store-tiered-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn page(fill: u32, cells: usize) -> Arc<Page> {
        Arc::new(Page::from_cells(&vec![fill; cells]))
    }

    fn cells(page: &Page) -> Vec<u32> {
        page.to_cells()
    }

    #[test]
    fn without_disk_budget_is_a_hard_wall() {
        let store = TieredStore::open(&StoreConfig {
            budget: StoreBudget::bytes(2 * page_bytes(4)),
            spill_dir: None,
        })
        .unwrap();
        store.put(0, page(1, 4)).unwrap();
        store.put(1, page(2, 4)).unwrap();
        let err = store.put(2, page(3, 4)).unwrap_err();
        assert!(matches!(err, StoreError::BudgetExceeded { .. }), "{err}");
        // The failed put mutated nothing.
        let stats = store.stats();
        assert_eq!(stats.ram_pages, 2);
        assert_eq!(cells(&store.get(0).unwrap().unwrap()), vec![1; 4]);
        // Replacing a resident page stays within budget.
        store.put(1, page(9, 4)).unwrap();
        assert_eq!(cells(&store.get(1).unwrap().unwrap()), vec![9; 4]);
        // A prefetch without a disk tier is a quiet no-op.
        assert!(!store.prefetch(0).unwrap());
        assert!(!store.write_behind(0).unwrap());
    }

    #[test]
    fn pressure_demotes_to_disk_and_faults_back() {
        let dir = tmp_dir("pressure");
        let store = TieredStore::open(&StoreConfig {
            budget: StoreBudget::bytes(2 * page_bytes(4)),
            spill_dir: Some(dir.clone()),
        })
        .unwrap();
        for id in 0..5u64 {
            store.put(id, page(id as u32, 4)).unwrap();
        }
        let stats = store.stats();
        assert!(stats.ram_bytes <= stats.budget_bytes, "{stats:?}");
        assert_eq!(stats.demotions, 3, "{stats:?}");
        assert_eq!(stats.spill_writes, 3, "{stats:?}");
        // Every page is still reachable, wherever it lives.
        for id in 0..5u64 {
            assert_eq!(cells(&store.get(id).unwrap().unwrap()), vec![id as u32; 4]);
        }
        let stats = store.stats();
        assert!(stats.faults >= 3, "cold pages must fault: {stats:?}");
        assert_eq!(stats.misses, 0);
        // The page faulted last is resident and referenced: an immediate
        // re-get is a RAM hit.
        store.get(4).unwrap().unwrap();
        assert!(store.stats().ram_hits >= 1, "{:?}", store.stats());
        // Re-demoting an already-spilled page writes nothing new.
        assert!(stats.spill_writes <= stats.demotions);
        assert!(store.get(999).unwrap().is_none());
        assert_eq!(store.stats().misses, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recently_referenced_pages_get_a_second_chance() {
        let dir = tmp_dir("clock");
        let store = TieredStore::open(&StoreConfig {
            budget: StoreBudget::bytes(3 * page_bytes(2)),
            spill_dir: Some(dir.clone()),
        })
        .unwrap();
        store.put(0, page(0, 2)).unwrap();
        store.put(1, page(1, 2)).unwrap();
        store.put(2, page(2, 2)).unwrap();
        // Age the clock: one full sweep clears all reference bits.
        store.put(3, page(3, 2)).unwrap();
        // Touch page 1, then add pressure: 1 must survive over older,
        // untouched pages.
        store.get(1).unwrap().unwrap();
        store.put(4, page(4, 2)).unwrap();
        let stats_before = store.stats();
        let faults_before = stats_before.faults;
        store.get(1).unwrap().unwrap();
        assert_eq!(
            store.stats().faults,
            faults_before,
            "the referenced page must still be resident"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_referenced_clock_terminates_and_demotes() {
        // Every resident page referenced (second-chance bit set), then
        // pressure: the scan must clear bits, terminate, and demote —
        // never spin. This is the all-referenced state the scan bound
        // exists for.
        let dir = tmp_dir("allref");
        let store = TieredStore::open(&StoreConfig {
            budget: StoreBudget::bytes(3 * page_bytes(2)),
            spill_dir: Some(dir.clone()),
        })
        .unwrap();
        for id in 0..3u64 {
            store.put(id, page(id as u32, 2)).unwrap();
        }
        for id in 0..3u64 {
            store.get(id).unwrap().unwrap(); // referenced = true everywhere
        }
        store.put(3, page(3, 2)).unwrap();
        let stats = store.stats();
        assert!(stats.demotions >= 1, "{stats:?}");
        assert!(stats.ram_bytes <= stats.budget_bytes, "{stats:?}");
        // Every page still reachable.
        for id in 0..4u64 {
            assert_eq!(cells(&store.get(id).unwrap().unwrap()), vec![id as u32; 2]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clock_scan_bound_forces_after_two_sweeps() {
        // The bound that keeps demotion live under concurrent
        // re-referencing: two full sweeps of consecutive spares over
        // the resident set exhaust the scan; anything less does not.
        for resident in [1usize, 3, 10] {
            for spared in 0..2 * resident {
                assert!(
                    !clock_scan_exhausted(spared, resident),
                    "spared {spared} of {resident} must still spare"
                );
            }
            assert!(clock_scan_exhausted(2 * resident, resident));
        }
        // Degenerate resident count cannot divide the bound to zero.
        assert!(!clock_scan_exhausted(0, 0));
        assert!(clock_scan_exhausted(2, 0));
    }

    #[test]
    fn prefetch_stages_without_touching_residents() {
        let dir = tmp_dir("prefetch");
        let store = TieredStore::open(&StoreConfig {
            budget: StoreBudget::bytes(2 * page_bytes(4)),
            spill_dir: Some(dir.clone()),
        })
        .unwrap();
        // Fill past budget: page 0 demotes to disk.
        for id in 0..3u64 {
            store.put(id, page(id as u32, 4)).unwrap();
        }
        let before = store.stats();
        assert!(before.demotions >= 1);
        // Prefetching the spilled page stages it outside the budget:
        // no resident page moves, no spill file is written.
        assert!(store.prefetch(0).unwrap());
        let stats = store.stats();
        assert_eq!(stats.prefetch_issued, 1, "{stats:?}");
        assert_eq!(stats.staged_pages, 1, "{stats:?}");
        assert_eq!(stats.demotions, before.demotions, "{stats:?}");
        assert_eq!(stats.spill_writes, before.spill_writes, "{stats:?}");
        assert_eq!(stats.ram_bytes, before.ram_bytes, "{stats:?}");
        assert_eq!(stats.faults, before.faults, "prefetch must not count as a stall");
        // The first get is served from the ring — a prefetch hit, not a
        // fault — and promotes through the ordinary install path (so it
        // may demote, exactly as the fault it replaced would have).
        assert_eq!(cells(&store.get(0).unwrap().unwrap()), vec![0; 4]);
        let stats = store.stats();
        assert_eq!(stats.prefetch_hits, 1, "{stats:?}");
        assert_eq!(stats.faults, before.faults, "{stats:?}");
        assert_eq!(stats.staged_pages, 0, "the hit drains the ring: {stats:?}");
        assert!(stats.ram_bytes <= stats.budget_bytes, "{stats:?}");
        // Second get is a plain RAM hit, not another prefetch hit.
        store.get(0).unwrap().unwrap();
        assert_eq!(store.stats().prefetch_hits, 1);
        // Prefetching a resident or unknown page is a no-op.
        assert!(!store.prefetch(0).unwrap());
        assert!(!store.prefetch(999).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn staging_ring_is_bounded_fifo_and_put_invalidates() {
        let dir = tmp_dir("staging");
        let store = TieredStore::open(&StoreConfig {
            budget: StoreBudget::bytes(page_bytes(4)),
            spill_dir: Some(dir.clone()),
        })
        .unwrap();
        // One-page budget: pages 0..=4 spill as 5 arrives.
        for id in 0..6u64 {
            store.put(id, page(id as u32, 4)).unwrap();
        }
        assert!(store.stats().disk_pages >= 5);
        // Stage five spilled pages: the ring holds the newest four;
        // the oldest (0) is dropped, costing only its background read.
        for id in 0..5u64 {
            assert!(store.prefetch(id).unwrap(), "page {id} must stage");
            assert!(!store.prefetch(id).unwrap(), "already staged");
        }
        let stats = store.stats();
        assert_eq!(stats.staged_pages, STAGED_PAGES_MAX, "{stats:?}");
        assert_eq!(stats.prefetch_issued, 5, "{stats:?}");
        // A staged page is a stall-free hit; the dropped one faults.
        assert_eq!(cells(&store.get(4).unwrap().unwrap()), vec![4; 4]);
        let stats = store.stats();
        assert_eq!(stats.prefetch_hits, 1, "{stats:?}");
        assert_eq!(stats.faults, 0, "{stats:?}");
        assert_eq!(cells(&store.get(0).unwrap().unwrap()), vec![0; 4]);
        assert_eq!(store.stats().faults, 1);
        // A put of a staged id supersedes the read-ahead copy (2 is
        // still in the ring): the next get must see the new cells.
        assert_eq!(store.stats().staged_pages, 3);
        store.put(2, page(99, 4)).unwrap();
        assert_eq!(store.stats().staged_pages, 2);
        assert_eq!(cells(&store.get(2).unwrap().unwrap()), vec![99; 4]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_behind_prewrites_the_spill_file() {
        let dir = tmp_dir("writebehind");
        let store = TieredStore::open(&StoreConfig {
            budget: StoreBudget::bytes(4 * page_bytes(4)),
            spill_dir: Some(dir.clone()),
        })
        .unwrap();
        store.put(7, page(7, 4)).unwrap();
        assert!(store.write_behind(7).unwrap());
        let stats = store.stats();
        assert_eq!(stats.writebehind_writes, 1, "{stats:?}");
        assert_eq!(stats.disk_pages, 1, "{stats:?}");
        assert_eq!(stats.ram_pages, 1, "page stays resident: {stats:?}");
        // Re-running is a no-op: the spill file is current.
        assert!(!store.write_behind(7).unwrap());
        assert_eq!(store.stats().writebehind_writes, 1);
        // A later demotion of the pre-written page frees RAM without a
        // new spill write.
        for id in 10..14u64 {
            store.put(id, page(id as u32, 4)).unwrap();
        }
        let stats = store.stats();
        assert!(stats.demotions >= 1, "{stats:?}");
        assert_eq!(stats.spill_writes, 0, "demotion reuses the pre-written file: {stats:?}");
        // The page still reads back, now via fault.
        assert_eq!(cells(&store.get(7).unwrap().unwrap()), vec![7; 4]);
        // Unknown pages are a no-op.
        assert!(!store.write_behind(999).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spilled_pages_survive_store_reopen() {
        let dir = tmp_dir("rehydrate");
        let config = StoreConfig {
            budget: StoreBudget::bytes(page_bytes(4)),
            spill_dir: Some(dir.clone()),
        };
        {
            let store = TieredStore::open(&config).unwrap();
            for id in 0..4u64 {
                store.put(id, page(10 + id as u32, 4)).unwrap();
            }
        }
        // "Kill" the process: only the spill files remain. Note the
        // budget forced all but the newest page out already; flush the
        // survivor too by reopening and checking what's on disk.
        let store = TieredStore::open(&config).unwrap();
        let disk_pages = store.stats().disk_pages;
        assert!(disk_pages >= 3, "spilled pages must be re-indexed: {disk_pages}");
        for id in 0..disk_pages as u64 {
            assert_eq!(
                cells(&store.get(id).unwrap().unwrap()),
                vec![10 + id as u32; 4]
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
