//! The page tiers: resident RAM and checksummed spill files.

use crate::page::{decode_page_packed, encode_page_packed, Page};
use crate::StoreError;
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A tier that stores packed [`Page`]s by id.
///
/// Pages are immutable once put: a later `put` of the same id replaces
/// the page wholesale. `get` hands out shared ownership so concurrent
/// readers never copy cell data.
pub trait PageStore {
    /// Stores a page under `id`, replacing any previous page.
    fn put(&mut self, id: u64, page: Arc<Page>) -> Result<(), StoreError>;
    /// Fetches the page stored under `id`, if any.
    fn get(&mut self, id: u64) -> Result<Option<Arc<Page>>, StoreError>;
    /// Drops the page stored under `id` (no-op when absent).
    fn remove(&mut self, id: u64) -> Result<(), StoreError>;
    /// Whether a page is stored under `id`.
    fn contains(&self, id: u64) -> bool;
    /// Number of pages stored.
    fn len(&self) -> usize;
    /// Whether the tier is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Total serialized bytes of the stored pages.
    fn bytes(&self) -> u64;
}

/// Resident pages, accounted at their serialized (packed) size so RAM
/// and disk budgets use one currency — and so narrower cell widths
/// directly multiply how many pages a budget holds resident.
#[derive(Debug, Default)]
pub struct RamTier {
    pages: HashMap<u64, Arc<Page>>,
    bytes: u64,
}

impl RamTier {
    /// An empty RAM tier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ids of all resident pages (arbitrary order).
    pub fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.pages.keys().copied()
    }
}

impl PageStore for RamTier {
    fn put(&mut self, id: u64, page: Arc<Page>) -> Result<(), StoreError> {
        let cost = page.packed_bytes();
        if let Some(old) = self.pages.insert(id, page) {
            self.bytes -= old.packed_bytes();
        }
        self.bytes += cost;
        Ok(())
    }

    fn get(&mut self, id: u64) -> Result<Option<Arc<Page>>, StoreError> {
        Ok(self.pages.get(&id).cloned())
    }

    fn remove(&mut self, id: u64) -> Result<(), StoreError> {
        if let Some(old) = self.pages.remove(&id) {
            self.bytes -= old.packed_bytes();
        }
        Ok(())
    }

    fn contains(&self, id: u64) -> bool {
        self.pages.contains_key(&id)
    }

    fn len(&self) -> usize {
        self.pages.len()
    }

    fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Spill files under a directory: one checksummed page file per id,
/// named `{id:016x}.page`. Reopening the directory rebuilds the index by
/// scanning, so spilled pages survive a process restart.
#[derive(Debug)]
pub struct DiskTier {
    dir: PathBuf,
    /// id → serialized size on disk.
    index: HashMap<u64, u64>,
    bytes: u64,
}

impl DiskTier {
    /// Opens (creating if needed) a spill directory and indexes the page
    /// files already in it.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| StoreError::io(&dir, e))?;
        let mut index = HashMap::new();
        let mut bytes = 0u64;
        for entry in fs::read_dir(&dir).map_err(|e| StoreError::io(&dir, e))? {
            let entry = entry.map_err(|e| StoreError::io(&dir, e))?;
            let name = entry.file_name();
            let Some(id) = Self::id_of_name(&name.to_string_lossy()) else {
                continue;
            };
            let len = entry
                .metadata()
                .map_err(|e| StoreError::io(&entry.path(), e))?
                .len();
            index.insert(id, len);
            bytes += len;
        }
        Ok(Self { dir, index, bytes })
    }

    /// The spill directory this tier writes under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Serialized size of the spill file stored under `id`, if any —
    /// lets a prefetch check budget fit before paying the read.
    pub fn size_of(&self, id: u64) -> Option<u64> {
        self.index.get(&id).copied()
    }

    /// The spill-file path `id` serializes to, whether or not it exists
    /// yet. Used by the tiered store to write spill files outside its
    /// lock; pair with [`Self::record_written`].
    pub(crate) fn entry_path(&self, id: u64) -> PathBuf {
        self.path_of(id)
    }

    /// Registers a spill file written externally (via
    /// [`Self::entry_path`]) in the index.
    pub(crate) fn record_written(&mut self, id: u64, len: u64) {
        if let Some(old) = self.index.insert(id, len) {
            self.bytes -= old;
        }
        self.bytes += len;
    }

    fn id_of_name(name: &str) -> Option<u64> {
        let hex = name.strip_suffix(".page")?;
        u64::from_str_radix(hex, 16).ok()
    }

    fn path_of(&self, id: u64) -> PathBuf {
        self.dir.join(format!("{id:016x}.page"))
    }
}

impl PageStore for DiskTier {
    fn put(&mut self, id: u64, page: Arc<Page>) -> Result<(), StoreError> {
        let bytes = encode_page_packed(&page);
        let path = self.path_of(id);
        if let Err(e) = fs::write(&path, &bytes) {
            // A failed write may leave a torn file behind (e.g. disk
            // full mid-write). Remove it so the directory never holds an
            // orphaned page that a later reopen would index and then
            // fail checksum on.
            let _ = fs::remove_file(&path);
            return Err(StoreError::io(&path, e));
        }
        let len = bytes.len() as u64;
        self.record_written(id, len);
        Ok(())
    }

    fn get(&mut self, id: u64) -> Result<Option<Arc<Page>>, StoreError> {
        if !self.index.contains_key(&id) {
            return Ok(None);
        }
        let path = self.path_of(id);
        let bytes = fs::read(&path).map_err(|e| StoreError::io(&path, e))?;
        Ok(Some(Arc::new(decode_page_packed(&bytes)?)))
    }

    fn remove(&mut self, id: u64) -> Result<(), StoreError> {
        if let Some(old) = self.index.remove(&id) {
            self.bytes -= old;
            let path = self.path_of(id);
            fs::remove_file(&path).map_err(|e| StoreError::io(&path, e))?;
        }
        Ok(())
    }

    fn contains(&self, id: u64) -> bool {
        self.index.contains_key(&id)
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::page_bytes;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pcmax-store-tier-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn page(cells: Vec<u32>) -> Arc<Page> {
        Arc::new(Page::from_cells(&cells))
    }

    #[test]
    fn ram_tier_accounts_bytes_through_replacement() {
        let mut ram = RamTier::new();
        ram.put(1, page(vec![1, 2, 3])).unwrap();
        ram.put(2, page(vec![4])).unwrap();
        assert_eq!(ram.bytes(), page_bytes(3) + page_bytes(1));
        ram.put(1, page(vec![9])).unwrap();
        assert_eq!(ram.bytes(), 2 * page_bytes(1));
        ram.remove(1).unwrap();
        ram.remove(2).unwrap();
        assert_eq!(ram.bytes(), 0);
        assert!(ram.is_empty());
    }

    #[test]
    fn ram_tier_accounts_packed_bytes() {
        use crate::page::{packed_page_bytes, CellWidth};
        let mut ram = RamTier::new();
        ram.put(1, Arc::new(Page::pack(&[1, 2, 3, 4], CellWidth::U8)))
            .unwrap();
        assert_eq!(ram.bytes(), packed_page_bytes(4, CellWidth::U8));
        assert!(ram.bytes() < page_bytes(4));
    }

    #[test]
    fn disk_tier_survives_reopen() {
        let dir = tmp_dir("reopen");
        {
            let mut disk = DiskTier::open(&dir).unwrap();
            disk.put(7, page(vec![10, 20, 30])).unwrap();
            disk.put(0xabc, page(vec![u32::MAX])).unwrap();
            assert_eq!(disk.len(), 2);
        }
        let mut reopened = DiskTier::open(&dir).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.get(7).unwrap().unwrap().to_cells(), vec![10, 20, 30]);
        assert_eq!(
            reopened.get(0xabc).unwrap().unwrap().to_cells(),
            vec![u32::MAX]
        );
        assert_eq!(reopened.get(99).unwrap(), None);
        reopened.remove(7).unwrap();
        assert!(!reopened.contains(7));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_tier_detects_tampered_page() {
        let dir = tmp_dir("tamper");
        let mut disk = DiskTier::open(&dir).unwrap();
        disk.put(3, page(vec![5, 6, 7])).unwrap();
        let path = dir.join(format!("{:016x}.page", 3u64));
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            disk.get(3),
            Err(StoreError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_put_leaves_no_orphaned_page_file() {
        // Target a directory that does not exist (and is not created):
        // the write fails, and no torn `.page` file may remain for a
        // later reopen to trip over.
        let dir = tmp_dir("orphan");
        let mut disk = DiskTier::open(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        let err = disk.put(9, page(vec![1, 2, 3])).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        assert!(!dir.join(format!("{:016x}.page", 9u64)).exists());
    }
}
