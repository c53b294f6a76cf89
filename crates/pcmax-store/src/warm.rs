//! Persistent warm-start log: a tiny manifest plus a checksummed append
//! log of opaque key→value records.
//!
//! `pcmax-serve` uses this as the disk tier under its DP-solution cache:
//! keys are serialized gcd-canonical `DpProblem::canonical_key`s, values
//! are serialized cached solutions. A restarted worker reopens the same
//! directory, re-indexes the log, and answers previously-cached requests
//! from disk instead of recomputing. `pcmax-warmsync` ships these
//! records between workers, so every record carries a **monotonic
//! sequence number**: a puller that has seen everything up to seq `s`
//! fetches only the suffix with [`WarmLog::entries_since`].
//!
//! On-disk layout under the log directory (format v2):
//!
//! ```text
//! MANIFEST         "pcmax-warm v2\nlog warm.<gen>.log\n"
//! warm.<gen>.log   repeated records:
//!                    u32 key_len · u32 val_len · u64 seq
//!                    · u64 fnv1a(seq_le‖key‖val) · key · val
//! ```
//!
//! All integers little-endian. Reopening scans the log front to back;
//! the first corrupt or truncated record ends the scan (a torn tail from
//! a crash mid-append loses only that record). Duplicate keys keep the
//! **last** record (last write wins), which makes re-appends meaningful
//! for replication: a replica that receives a fresher shipped value
//! overwrites its stale copy. Because re-appends leave dead records
//! behind, the log self-compacts: once it exceeds a size floor and dead
//! bytes outweigh live ones, the live records are rewritten (original
//! seqs preserved) into a new generation file and the manifest is
//! atomically renamed over to point at it.

use crate::page::fnv1a;
use crate::StoreError;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// First line of a current-format manifest.
pub const WARM_MAGIC: &str = "pcmax-warm v2";
const RECORD_HEADER: usize = 24;
/// Logs smaller than this never compact — rewriting a few KiB buys
/// nothing and the floor keeps unit-test logs deterministic.
const COMPACT_MIN_BYTES: u64 = 4096;

/// One live record enumerated out of a [`WarmLog`]: key bytes, value
/// bytes, and the monotonic sequence number the log assigned at append.
pub type WarmEntry = (Vec<u8>, Vec<u8>, u64);

/// A persistent key→value log with an in-RAM index.
#[derive(Debug)]
pub struct WarmLog {
    dir: PathBuf,
    inner: Mutex<WarmInner>,
    rehydrated: u64,
    hits: AtomicU64,
    appends: AtomicU64,
    compactions: AtomicU64,
}

#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    /// Sequence number assigned when the live record was appended.
    seq: u64,
    /// Byte offset of the value inside the current generation file.
    offset: u64,
    vlen: u32,
}

#[derive(Debug)]
struct WarmInner {
    /// key bytes → live record metadata.
    index: HashMap<Vec<u8>, IndexEntry>,
    file: File,
    /// Name of the current generation file (second manifest line).
    log_name: String,
    /// Generation counter embedded in the log name.
    gen: u64,
    /// Next sequence number to assign.
    next_seq: u64,
    /// Bytes of the current generation file (live + dead records).
    total_bytes: u64,
    /// Bytes of live records only (frame size of every indexed entry).
    live_bytes: u64,
}

fn frame_len(klen: usize, vlen: usize) -> u64 {
    (RECORD_HEADER + klen + vlen) as u64
}

fn record_checksum(seq: u64, key: &[u8], value: &[u8]) -> u64 {
    let mut body = Vec::with_capacity(8 + key.len() + value.len());
    body.extend_from_slice(&seq.to_le_bytes());
    body.extend_from_slice(key);
    body.extend_from_slice(value);
    fnv1a(&body)
}

impl WarmLog {
    /// Opens (creating if needed) a warm-log directory, validates the
    /// manifest, and re-indexes the append log. The number of records
    /// recovered is reported by [`Self::rehydrated`].
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| StoreError::io(&dir, e))?;
        let manifest = dir.join("MANIFEST");
        let mut log_name = "warm.0.log".to_string();
        if manifest.exists() {
            let text = fs::read_to_string(&manifest).map_err(|e| StoreError::io(&manifest, e))?;
            if text.lines().next() != Some(WARM_MAGIC) {
                return Err(StoreError::Corrupt {
                    detail: format!("bad warm manifest at {}", manifest.display()),
                });
            }
            if let Some(name) = text
                .lines()
                .find_map(|line| line.strip_prefix("log "))
                .map(str::trim)
            {
                log_name = name.to_string();
            }
        } else {
            fs::write(&manifest, format!("{WARM_MAGIC}\nlog {log_name}\n"))
                .map_err(|e| StoreError::io(&manifest, e))?;
        }
        let gen = Self::parse_gen(&log_name);
        let log_path = dir.join(&log_name);
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&log_path)
            .map_err(|e| StoreError::io(&log_path, e))?;
        let scanned = Self::scan(&mut file, &log_path)?;
        let actual_len = file
            .metadata()
            .map_err(|e| StoreError::io(&log_path, e))?
            .len();
        if scanned.valid_len < actual_len {
            // Torn tail from a crash mid-append: drop it so later appends
            // land where the next scan will find them.
            file.set_len(scanned.valid_len)
                .map_err(|e| StoreError::io(&log_path, e))?;
        }
        let rehydrated = scanned.index.len() as u64;
        Ok(Self {
            dir,
            inner: Mutex::new(WarmInner {
                index: scanned.index,
                file,
                log_name,
                gen,
                next_seq: scanned.max_seq + 1,
                total_bytes: scanned.valid_len,
                live_bytes: scanned.live_bytes,
            }),
            rehydrated,
            hits: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
        })
    }

    fn parse_gen(log_name: &str) -> u64 {
        log_name
            .strip_prefix("warm.")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|digits| digits.parse().ok())
            .unwrap_or(0)
    }

    /// Front-to-back log scan; stops at the first bad record. Later
    /// records for a key shadow earlier ones (last write wins).
    fn scan(file: &mut File, path: &Path) -> Result<Scanned, StoreError> {
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(0))
            .and_then(|_| file.read_to_end(&mut bytes))
            .map_err(|e| StoreError::io(path, e))?;
        let mut index: HashMap<Vec<u8>, IndexEntry> = HashMap::new();
        let mut live_bytes = 0u64;
        let mut max_seq = 0u64;
        let mut at = 0usize;
        while bytes.len() - at >= RECORD_HEADER {
            let klen = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4")) as usize;
            let vlen = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4")) as usize;
            let seq = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().expect("8"));
            let checksum = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().expect("8"));
            let body = at + RECORD_HEADER;
            let Some(end) = body.checked_add(klen).and_then(|k| k.checked_add(vlen)) else {
                break;
            };
            if end > bytes.len()
                || record_checksum(seq, &bytes[body..body + klen], &bytes[body + klen..end])
                    != checksum
            {
                break; // torn or corrupt tail
            }
            let key = bytes[body..body + klen].to_vec();
            let entry = IndexEntry {
                seq,
                offset: (body + klen) as u64,
                vlen: vlen as u32,
            };
            if let Some(old) = index.insert(key, entry) {
                live_bytes -= frame_len(klen, old.vlen as usize);
            }
            live_bytes += frame_len(klen, vlen);
            max_seq = max_seq.max(seq);
            at = end;
        }
        Ok(Scanned {
            index,
            valid_len: at as u64,
            live_bytes,
            max_seq,
        })
    }

    /// The directory this log persists under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Records recovered from disk when this log was opened.
    pub fn rehydrated(&self) -> u64 {
        self.rehydrated
    }

    /// Successful [`Self::get`] lookups since open (disk-tier hits).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Records appended since open.
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    /// Generation rewrites performed since open.
    pub fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }

    /// Number of distinct keys currently indexed.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("warm lock").index.len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Highest sequence number assigned so far (0 if none).
    pub fn max_seq(&self) -> u64 {
        self.inner.lock().expect("warm lock").next_seq - 1
    }

    /// Bytes of the current generation file, live and dead records both
    /// — what the log actually occupies on disk.
    pub fn disk_bytes(&self) -> u64 {
        self.inner.lock().expect("warm lock").total_bytes
    }

    /// Bytes of live (indexed) records only.
    pub fn live_bytes(&self) -> u64 {
        self.inner.lock().expect("warm lock").live_bytes
    }

    /// Whether `key` is indexed (no I/O).
    pub fn contains(&self, key: &[u8]) -> bool {
        self.inner.lock().expect("warm lock").index.contains_key(key)
    }

    /// Sequence number of the live record for `key`, if any (no I/O).
    pub fn seq_of(&self, key: &[u8]) -> Option<u64> {
        self.inner
            .lock()
            .expect("warm lock")
            .index
            .get(key)
            .map(|e| e.seq)
    }

    /// `(fnv1a(key), seq)` for every live record — the shippable
    /// digest of this log. Order is unspecified.
    pub fn digest(&self) -> Vec<(u64, u64)> {
        let inner = self.inner.lock().expect("warm lock");
        inner
            .index
            .iter()
            .map(|(key, entry)| (fnv1a(key), entry.seq))
            .collect()
    }

    /// Reads the value stored for `key`, if any.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        let mut inner = self.inner.lock().expect("warm lock");
        let Some(&IndexEntry { offset, vlen, .. }) = inner.index.get(key) else {
            return Ok(None);
        };
        let path = self.dir.join(&inner.log_name);
        let mut value = vec![0u8; vlen as usize];
        inner
            .file
            .seek(SeekFrom::Start(offset))
            .and_then(|_| inner.file.read_exact(&mut value))
            .map_err(|e| StoreError::io(&path, e))?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Ok(Some(value))
    }

    /// Live records with sequence number strictly above `since` whose
    /// key hash falls in `lo..=hi`, ordered by seq — the suffix a
    /// puller is missing. `(0, u64::MAX)` spans every key.
    pub fn entries_since(
        &self,
        since: u64,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<WarmEntry>, StoreError> {
        let mut inner = self.inner.lock().expect("warm lock");
        let mut picked: Vec<(Vec<u8>, IndexEntry)> = inner
            .index
            .iter()
            .filter(|(key, entry)| {
                entry.seq > since && {
                    let h = fnv1a(key);
                    lo <= h && h <= hi
                }
            })
            .map(|(key, entry)| (key.clone(), *entry))
            .collect();
        picked.sort_by_key(|(_, entry)| entry.seq);
        let path = self.dir.join(&inner.log_name);
        let mut out = Vec::with_capacity(picked.len());
        for (key, entry) in picked {
            let mut value = vec![0u8; entry.vlen as usize];
            inner
                .file
                .seek(SeekFrom::Start(entry.offset))
                .and_then(|_| inner.file.read_exact(&mut value))
                .map_err(|e| StoreError::io(&path, e))?;
            out.push((key, value, entry.seq));
        }
        Ok(out)
    }

    /// Drops `key` from the index. The dead record's bytes are
    /// reclaimed at the next compaction; until then a crash-reopen
    /// resurrects the key (removal is a budget-eviction aid for the
    /// replication tier, not a durability promise).
    pub fn remove(&self, key: &[u8]) -> bool {
        let mut inner = self.inner.lock().expect("warm lock");
        if let Some(old) = inner.index.remove(key) {
            inner.live_bytes -= frame_len(key.len(), old.vlen as usize);
            true
        } else {
            false
        }
    }

    /// Appends a record — last write wins: re-appending a key shadows
    /// the previous value and bumps its seq. Returns the assigned
    /// sequence number. May trigger a compaction when dead bytes
    /// outweigh live ones past a size floor.
    pub fn append(&self, key: &[u8], value: &[u8]) -> Result<u64, StoreError> {
        let mut inner = self.inner.lock().expect("warm lock");
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let path = self.dir.join(&inner.log_name);
        let mut frame = Vec::with_capacity(RECORD_HEADER + key.len() + value.len());
        frame.extend_from_slice(&(key.len() as u32).to_le_bytes());
        frame.extend_from_slice(&(value.len() as u32).to_le_bytes());
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(&record_checksum(seq, key, value).to_le_bytes());
        frame.extend_from_slice(key);
        frame.extend_from_slice(value);
        // Append mode: the kernel positions every write at EOF. Record
        // where the value will land before the write moves the cursor.
        let end = inner
            .file
            .seek(SeekFrom::End(0))
            .map_err(|e| StoreError::io(&path, e))?;
        inner
            .file
            .write_all(&frame)
            .and_then(|_| inner.file.flush())
            .map_err(|e| StoreError::io(&path, e))?;
        let value_at = end + (RECORD_HEADER + key.len()) as u64;
        let entry = IndexEntry {
            seq,
            offset: value_at,
            vlen: value.len() as u32,
        };
        if let Some(old) = inner.index.insert(key.to_vec(), entry) {
            inner.live_bytes -= frame_len(key.len(), old.vlen as usize);
        }
        inner.live_bytes += frame.len() as u64;
        inner.total_bytes = end + frame.len() as u64;
        self.appends.fetch_add(1, Ordering::Relaxed);
        if inner.total_bytes >= COMPACT_MIN_BYTES && inner.total_bytes >= 2 * inner.live_bytes {
            self.compact_locked(&mut inner)?;
        }
        Ok(seq)
    }

    /// Forces a compaction regardless of thresholds.
    pub fn compact(&self) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().expect("warm lock");
        self.compact_locked(&mut inner)
    }

    /// Rewrites the live records (seqs preserved, seq order) into a new
    /// generation file, atomically swaps the manifest to point at it,
    /// and deletes the old generation.
    fn compact_locked(&self, inner: &mut WarmInner) -> Result<(), StoreError> {
        let old_name = inner.log_name.clone();
        let old_path = self.dir.join(&old_name);
        let new_gen = inner.gen + 1;
        let new_name = format!("warm.{new_gen}.log");
        let new_path = self.dir.join(&new_name);
        let mut live: Vec<(Vec<u8>, IndexEntry)> = inner
            .index
            .iter()
            .map(|(key, entry)| (key.clone(), *entry))
            .collect();
        live.sort_by_key(|(_, entry)| entry.seq);
        let mut new_file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&new_path)
            .map_err(|e| StoreError::io(&new_path, e))?;
        let mut new_index = HashMap::with_capacity(live.len());
        let mut at = 0u64;
        for (key, entry) in live {
            let mut value = vec![0u8; entry.vlen as usize];
            inner
                .file
                .seek(SeekFrom::Start(entry.offset))
                .and_then(|_| inner.file.read_exact(&mut value))
                .map_err(|e| StoreError::io(&old_path, e))?;
            let mut frame = Vec::with_capacity(RECORD_HEADER + key.len() + value.len());
            frame.extend_from_slice(&(key.len() as u32).to_le_bytes());
            frame.extend_from_slice(&(value.len() as u32).to_le_bytes());
            frame.extend_from_slice(&entry.seq.to_le_bytes());
            frame.extend_from_slice(&record_checksum(entry.seq, &key, &value).to_le_bytes());
            frame.extend_from_slice(&key);
            frame.extend_from_slice(&value);
            new_file
                .write_all(&frame)
                .map_err(|e| StoreError::io(&new_path, e))?;
            let value_at = at + (RECORD_HEADER + key.len()) as u64;
            new_index.insert(
                key,
                IndexEntry {
                    seq: entry.seq,
                    offset: value_at,
                    vlen: entry.vlen,
                },
            );
            at += frame.len() as u64;
        }
        new_file
            .sync_all()
            .map_err(|e| StoreError::io(&new_path, e))?;
        // Atomic swap: the manifest rename is the commit point. A crash
        // before it leaves the old manifest + old log (new file is
        // garbage-collected as unreferenced); a crash after it leaves
        // the new manifest + new log.
        let manifest = self.dir.join("MANIFEST");
        let manifest_tmp = self.dir.join("MANIFEST.tmp");
        fs::write(&manifest_tmp, format!("{WARM_MAGIC}\nlog {new_name}\n"))
            .map_err(|e| StoreError::io(&manifest_tmp, e))?;
        fs::rename(&manifest_tmp, &manifest).map_err(|e| StoreError::io(&manifest, e))?;
        if old_path != new_path {
            let _ = fs::remove_file(&old_path);
        }
        // Later appends go through the append-mode invariants (every
        // write lands at EOF), so swap in an append-mode handle.
        drop(new_file);
        let new_file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&new_path)
            .map_err(|e| StoreError::io(&new_path, e))?;
        inner.index = new_index;
        inner.file = new_file;
        inner.log_name = new_name;
        inner.gen = new_gen;
        inner.total_bytes = at;
        inner.live_bytes = at;
        self.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

#[derive(Debug)]
struct Scanned {
    index: HashMap<Vec<u8>, IndexEntry>,
    valid_len: u64,
    live_bytes: u64,
    max_seq: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pcmax-store-warm-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn appends_then_reads_back() {
        let dir = tmp_dir("rw");
        let log = WarmLog::open(&dir).unwrap();
        assert!(log.is_empty());
        assert_eq!(log.append(b"alpha", b"first value").unwrap(), 1);
        assert_eq!(log.append(b"beta", b"").unwrap(), 2);
        assert_eq!(log.get(b"alpha").unwrap().unwrap(), b"first value");
        assert_eq!(log.get(b"beta").unwrap().unwrap(), b"");
        assert_eq!(log.get(b"gamma").unwrap(), None);
        assert_eq!(log.hits(), 2);
        assert_eq!(log.appends(), 2);
        // Last write wins: a re-append shadows and bumps the seq.
        assert_eq!(log.append(b"alpha", b"second value").unwrap(), 3);
        assert_eq!(log.get(b"alpha").unwrap().unwrap(), b"second value");
        assert_eq!(log.seq_of(b"alpha"), Some(3));
        assert_eq!(log.appends(), 3);
        assert_eq!(log.len(), 2);
        assert_eq!(log.max_seq(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_rehydrates_the_index() {
        let dir = tmp_dir("reopen");
        {
            let log = WarmLog::open(&dir).unwrap();
            log.append(b"k1", b"v1").unwrap();
            log.append(b"k2", b"v2").unwrap();
            log.append(b"k1", b"v1b").unwrap();
            assert_eq!(log.rehydrated(), 0, "fresh log recovered nothing");
        }
        let log = WarmLog::open(&dir).unwrap();
        assert_eq!(log.rehydrated(), 2);
        assert_eq!(log.len(), 2);
        assert_eq!(log.get(b"k2").unwrap().unwrap(), b"v2");
        // Last write won across the reopen, and seqs survived it.
        assert_eq!(log.get(b"k1").unwrap().unwrap(), b"v1b");
        assert_eq!(log.seq_of(b"k1"), Some(3));
        assert_eq!(log.max_seq(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_loses_only_the_last_record() {
        let dir = tmp_dir("torn");
        {
            let log = WarmLog::open(&dir).unwrap();
            log.append(b"good", b"kept").unwrap();
            log.append(b"bad", b"torn away").unwrap();
        }
        // Simulate a crash mid-append: chop bytes off the tail.
        let manifest = fs::read_to_string(dir.join("MANIFEST")).unwrap();
        let log_name = manifest
            .lines()
            .find_map(|l| l.strip_prefix("log "))
            .unwrap()
            .to_string();
        let path = dir.join(&log_name);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let log = WarmLog::open(&dir).unwrap();
        assert_eq!(log.rehydrated(), 1);
        assert_eq!(log.get(b"good").unwrap().unwrap(), b"kept");
        assert_eq!(log.get(b"bad").unwrap(), None);
        // The log keeps accepting appends after recovery, and recovery
        // truncated the torn bytes so the new record lands scannably.
        log.append(b"bad", b"rewritten").unwrap();
        assert_eq!(log.get(b"bad").unwrap().unwrap(), b"rewritten");
        drop(log);
        let reopened = WarmLog::open(&dir).unwrap();
        assert_eq!(reopened.rehydrated(), 2);
        assert_eq!(reopened.get(b"bad").unwrap().unwrap(), b"rewritten");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_manifest_is_rejected() {
        let dir = tmp_dir("manifest");
        fs::create_dir_all(&dir).unwrap();
        // A v1 (pre-seq) manifest is as foreign as any other.
        for manifest in ["something else\n", "pcmax-warm v1\nlog warm.log\n"] {
            fs::write(dir.join("MANIFEST"), manifest).unwrap();
            assert!(
                matches!(WarmLog::open(&dir), Err(StoreError::Corrupt { .. })),
                "{manifest:?}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reappends_of_one_key_stay_bounded_on_disk() {
        // Regression for unbounded growth: before compaction existed, N
        // re-appends of one key kept all N records on disk.
        let dir = tmp_dir("compact");
        let log = WarmLog::open(&dir).unwrap();
        let value = vec![0xabu8; 1024];
        for _ in 0..64 {
            log.append(b"the-one-key", &value).unwrap();
        }
        let one_record = frame_len(b"the-one-key".len(), value.len());
        // 64 KiB of appends must have compacted down near one live
        // record; allow the post-compaction tail the threshold permits.
        assert!(log.compactions() > 0, "threshold compaction never fired");
        assert!(
            log.disk_bytes() < COMPACT_MIN_BYTES + 2 * one_record,
            "disk bytes {} not bounded (one record = {one_record})",
            log.disk_bytes()
        );
        assert_eq!(log.len(), 1);
        // The survivor is the last write with its original seq.
        assert_eq!(log.seq_of(b"the-one-key"), Some(64));
        assert_eq!(log.get(b"the-one-key").unwrap().unwrap(), value);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entries_since_returns_only_the_missing_suffix() {
        let dir = tmp_dir("suffix");
        let log = WarmLog::open(&dir).unwrap();
        log.append(b"a", b"1").unwrap();
        log.append(b"b", b"2").unwrap();
        log.append(b"c", b"3").unwrap();
        let all = log.entries_since(0, 0, u64::MAX).unwrap();
        assert_eq!(all.len(), 3);
        assert!(all.windows(2).all(|w| w[0].2 < w[1].2), "seq-ordered");
        let suffix = log.entries_since(2, 0, u64::MAX).unwrap();
        assert_eq!(suffix.len(), 1);
        assert_eq!(suffix[0].0, b"c");
        assert_eq!(suffix[0].2, 3);
        // Re-appending `a` moves it past the watermark.
        log.append(b"a", b"1b").unwrap();
        let suffix = log.entries_since(3, 0, u64::MAX).unwrap();
        assert_eq!(suffix.len(), 1);
        assert_eq!(suffix[0].0, b"a");
        assert_eq!(suffix[0].1, b"1b");
        // Hash-range filter: a range containing only `b`'s hash.
        let hb = fnv1a(b"b");
        let only_b = log.entries_since(0, hb, hb).unwrap();
        assert_eq!(only_b.len(), 1);
        assert_eq!(only_b[0].0, b"b");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_drops_the_key_until_next_append() {
        let dir = tmp_dir("remove");
        let log = WarmLog::open(&dir).unwrap();
        log.append(b"k", b"v").unwrap();
        assert!(log.remove(b"k"));
        assert!(!log.remove(b"k"));
        assert_eq!(log.get(b"k").unwrap(), None);
        assert_eq!(log.len(), 0);
        log.append(b"k", b"v2").unwrap();
        assert_eq!(log.get(b"k").unwrap().unwrap(), b"v2");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn digest_lists_every_live_key() {
        let dir = tmp_dir("digest");
        let log = WarmLog::open(&dir).unwrap();
        log.append(b"x", b"1").unwrap();
        log.append(b"y", b"2").unwrap();
        log.append(b"x", b"3").unwrap();
        let mut digest = log.digest();
        digest.sort_unstable();
        let mut want = vec![(fnv1a(b"x"), 3u64), (fnv1a(b"y"), 2u64)];
        want.sort_unstable();
        assert_eq!(digest, want);
        fs::remove_dir_all(&dir).unwrap();
    }
}
