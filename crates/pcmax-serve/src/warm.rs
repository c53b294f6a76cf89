//! Disk-backed warm tier under the DP-solution cache.
//!
//! [`WarmTier`] wraps a [`pcmax_store::WarmLog`] with codecs for the
//! cache's native types: keys are gcd-canonical [`DpKey`]s, values are
//! [`CachedDp`] entries. The solve path consults it only on a RAM-cache
//! miss (read-through) and appends every freshly-computed solution
//! (write-through), so a worker restarted on the same store directory
//! answers its previously-cached requests from disk instead of
//! recomputing the DP.
//!
//! Because keys are canonical (machine-count independent, gcd-reduced),
//! the log warms *across* instances: any instance that rounds to a
//! previously-solved canonical problem hits, not just byte-identical
//! requests.

use crate::solver::CachedDp;
use pcmax_obs::{Histogram, HistogramSnapshot};
use pcmax_ptas::DpKey;
use pcmax_store::{StoreError, WarmEntry, WarmLog};
use pcmax_warmsync::ShipEntry;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Persistent key→solution store shared by all service workers.
#[derive(Debug)]
pub struct WarmTier {
    log: WarmLog,
    /// Disk-read latency per warm hit, µs (recorded while `pcmax_obs`
    /// recording is enabled).
    fault_us: Histogram,
    /// Keys that arrived over the wire (replication or rebalance pull)
    /// rather than being computed locally. A warm fault served from one
    /// of these is a cold DP solve that warmsync avoided.
    shipped_keys: Mutex<HashSet<Vec<u8>>>,
    cold_misses_avoided: AtomicU64,
    entries_applied: AtomicU64,
}

impl WarmTier {
    /// Opens (creating if needed) the warm log under `dir` and
    /// rehydrates its index.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Ok(Self {
            log: WarmLog::open(dir)?,
            fault_us: Histogram::new(),
            shipped_keys: Mutex::new(HashSet::new()),
            cold_misses_avoided: AtomicU64::new(0),
            entries_applied: AtomicU64::new(0),
        })
    }

    /// The directory this tier persists under.
    pub fn dir(&self) -> &Path {
        self.log.dir()
    }

    /// Records recovered from disk when the tier was opened.
    pub fn rehydrated(&self) -> u64 {
        self.log.rehydrated()
    }

    /// Distinct canonical problems currently on disk.
    pub fn entries(&self) -> u64 {
        self.log.len() as u64
    }

    /// Lookups answered from disk since open.
    pub fn hits(&self) -> u64 {
        self.log.hits()
    }

    /// Solutions appended since open.
    pub fn appends(&self) -> u64 {
        self.log.appends()
    }

    /// Snapshot of the disk-read latency histogram.
    pub fn fault_latency(&self) -> HistogramSnapshot {
        self.fault_us.snapshot()
    }

    /// Reads the cached solution for `key`, if present. I/O errors and
    /// undecodable values degrade to a miss: the warm tier is an
    /// accelerator, never a correctness dependency.
    pub fn get(&self, key: &DpKey) -> Option<CachedDp> {
        let started = Instant::now();
        let raw_key = encode_key(key);
        let bytes = self.log.get(&raw_key).ok().flatten()?;
        let entry = decode_entry(&bytes)?;
        if pcmax_obs::enabled() {
            self.fault_us
                .record(started.elapsed().as_micros() as u64);
        }
        if self
            .shipped_keys
            .lock()
            .expect("shipped lock")
            .contains(&raw_key)
        {
            // This fault would have been a cold DP recompute if the
            // entry hadn't been replicated/migrated to us.
            self.cold_misses_avoided.fetch_add(1, Ordering::Relaxed);
        }
        Some(entry)
    }

    /// Persists `entry` under `key` (last write wins). Disk errors are
    /// swallowed (see [`Self::get`]). A local solve for a shipped key
    /// reclassifies it as locally computed.
    pub fn put(&self, key: &DpKey, entry: &CachedDp) {
        let raw_key = encode_key(key);
        if self.log.append(&raw_key, &encode_entry(entry)).is_ok() {
            self.shipped_keys
                .lock()
                .expect("shipped lock")
                .remove(&raw_key);
        }
    }

    /// Highest sequence number the underlying log has assigned.
    pub fn max_seq(&self) -> u64 {
        self.log.max_seq()
    }

    /// Generation rewrites the underlying log has performed.
    pub fn compactions(&self) -> u64 {
        self.log.compactions()
    }

    /// Warm faults served from an entry that arrived via warmsync.
    pub fn cold_misses_avoided(&self) -> u64 {
        self.cold_misses_avoided.load(Ordering::Relaxed)
    }

    /// Shipped entries applied to this tier since open.
    pub fn entries_applied(&self) -> u64 {
        self.entries_applied.load(Ordering::Relaxed)
    }

    /// `(fnv1a(key), seq)` for every live record — the `warm-digest`
    /// inventory.
    pub fn digest(&self) -> Vec<(u64, u64)> {
        self.log.digest()
    }

    /// Live records with seq > `since` and key hash in `lo..=hi`, as
    /// shippable entries in seq order — the `warm-pull` reply body.
    pub fn entries_since(&self, since: u64, lo: u64, hi: u64) -> Vec<ShipEntry> {
        self.log
            .entries_since(since, lo, hi)
            .unwrap_or_default()
            .into_iter()
            .map(|(key, value, seq): WarmEntry| ShipEntry { seq, key, value })
            .collect()
    }

    /// Applies one shipped entry: decodable values are appended (last
    /// write wins) and the key is marked wire-delivered. Returns whether
    /// the entry was accepted. Checksum verification happened at parse
    /// time; this guards against undecodable payloads reaching the log.
    pub fn apply(&self, entry: &ShipEntry) -> bool {
        if decode_entry(&entry.value).is_none() {
            return false;
        }
        if self.log.append(&entry.key, &entry.value).is_err() {
            return false;
        }
        self.shipped_keys
            .lock()
            .expect("shipped lock")
            .insert(entry.key.clone());
        self.entries_applied.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Drops the raw `key` from the tier (replica-budget eviction).
    pub fn evict_raw(&self, key: &[u8]) {
        self.log.remove(key);
        self.shipped_keys
            .lock()
            .expect("shipped lock")
            .remove(key);
    }
}

/// Serializes a [`DpKey`] for use as a log key. Layout (little-endian):
/// `u32 classes · u64 cap · u64 counts[..] · u64 sizes[..]`. Keys are
/// compared as raw bytes, never deserialized.
pub fn encode_key(key: &DpKey) -> Vec<u8> {
    let classes = key.counts().len();
    let mut out = Vec::with_capacity(12 + 16 * classes);
    out.extend_from_slice(&(classes as u32).to_le_bytes());
    out.extend_from_slice(&key.cap().to_le_bytes());
    for &c in key.counts() {
        out.extend_from_slice(&(c as u64).to_le_bytes());
    }
    for &s in key.sizes() {
        out.extend_from_slice(&s.to_le_bytes());
    }
    out
}

/// Serializes a [`CachedDp`]: `u32 opt · u8 has_configs ·
/// [u32 machines · (u32 len · u64 class[..]) per machine]`.
pub fn encode_entry(entry: &CachedDp) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&entry.opt.to_le_bytes());
    match &entry.configs {
        None => out.push(0),
        Some(configs) => {
            out.push(1);
            out.extend_from_slice(&(configs.len() as u32).to_le_bytes());
            for config in configs.iter() {
                out.extend_from_slice(&(config.len() as u32).to_le_bytes());
                for &x in config {
                    out.extend_from_slice(&(x as u64).to_le_bytes());
                }
            }
        }
    }
    out
}

/// Inverse of [`encode_entry`]. `None` for any malformed input.
pub fn decode_entry(bytes: &[u8]) -> Option<CachedDp> {
    let mut at = 0usize;
    let opt = u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?);
    at += 4;
    let configs = match *bytes.get(at)? {
        0 => {
            at += 1;
            None
        }
        1 => {
            at += 1;
            let machines = u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?) as usize;
            at += 4;
            let mut configs = Vec::with_capacity(machines.min(1 << 16));
            for _ in 0..machines {
                let len = u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?) as usize;
                at += 4;
                let mut config = Vec::with_capacity(len.min(1 << 16));
                for _ in 0..len {
                    let x = u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?);
                    at += 8;
                    config.push(usize::try_from(x).ok()?);
                }
                configs.push(config);
            }
            Some(Arc::new(configs))
        }
        _ => return None,
    };
    if at != bytes.len() {
        return None; // trailing garbage: treat as corrupt
    }
    Some(CachedDp { opt, configs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_ptas::dp::INFEASIBLE;
    use pcmax_ptas::DpProblem;

    fn sample_key() -> DpKey {
        DpProblem::new(vec![3, 2], vec![10, 4], 20).canonical_key()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pcmax-serve-warm-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn entry_roundtrips_with_and_without_configs() {
        let with = CachedDp {
            opt: 3,
            configs: Some(Arc::new(vec![vec![2, 0], vec![1, 1], vec![0, 1]])),
        };
        let back = decode_entry(&encode_entry(&with)).unwrap();
        assert_eq!(back.opt, 3);
        assert_eq!(
            back.configs.as_deref(),
            Some(&vec![vec![2, 0], vec![1, 1], vec![0, 1]])
        );
        let without = CachedDp {
            opt: INFEASIBLE,
            configs: None,
        };
        let back = decode_entry(&encode_entry(&without)).unwrap();
        assert_eq!(back.opt, INFEASIBLE);
        assert!(back.configs.is_none());
    }

    #[test]
    fn malformed_entries_decode_to_none() {
        let good = encode_entry(&CachedDp {
            opt: 2,
            configs: Some(Arc::new(vec![vec![1]])),
        });
        assert!(decode_entry(&[]).is_none());
        assert!(decode_entry(&good[..good.len() - 1]).is_none());
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_entry(&trailing).is_none());
        let mut bad_tag = good;
        bad_tag[4] = 7;
        assert!(decode_entry(&bad_tag).is_none());
    }

    #[test]
    fn shipped_entries_apply_and_count_avoided_cold_misses() {
        let dir = tmp_dir("ship");
        let tier = WarmTier::open(&dir).unwrap();
        let key = sample_key();
        let entry = CachedDp {
            opt: 4,
            configs: None,
        };
        let ship = ShipEntry {
            seq: 9,
            key: encode_key(&key),
            value: encode_entry(&entry),
        };
        assert!(tier.apply(&ship));
        assert_eq!(tier.entries_applied(), 1);
        assert_eq!(tier.digest().len(), 1);
        assert_eq!(tier.digest()[0].0, ship.key_hash());
        // A fault on the shipped key is a cold miss warmsync avoided…
        assert_eq!(tier.get(&key).unwrap().opt, 4);
        assert_eq!(tier.cold_misses_avoided(), 1);
        // …until a local solve reclassifies the key.
        tier.put(&key, &entry);
        tier.get(&key).unwrap();
        assert_eq!(tier.cold_misses_avoided(), 1);
        // Undecodable payloads never reach the log.
        let bad = ShipEntry {
            seq: 10,
            key: b"other".to_vec(),
            value: b"garbage".to_vec(),
        };
        assert!(!tier.apply(&bad));
        // entries_since ships back what apply wrote, byte-identical.
        let out = tier.entries_since(0, 0, u64::MAX);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].key, ship.key);
        assert_eq!(out[0].value, ship.value);
        assert_eq!(out[0].checksum(), ship.checksum());
        // Raw eviction drops the key.
        tier.evict_raw(&ship.key);
        assert!(tier.get(&key).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tier_persists_across_reopen() {
        let dir = tmp_dir("reopen");
        let key = sample_key();
        let entry = CachedDp {
            opt: 2,
            configs: Some(Arc::new(vec![vec![2, 1], vec![1, 1]])),
        };
        {
            let tier = WarmTier::open(&dir).unwrap();
            assert!(tier.get(&key).is_none());
            tier.put(&key, &entry);
            assert_eq!(tier.appends(), 1);
        }
        let tier = WarmTier::open(&dir).unwrap();
        assert_eq!(tier.rehydrated(), 1);
        let back = tier.get(&key).expect("rehydrated entry");
        assert_eq!(back.opt, 2);
        assert_eq!(back.configs.as_deref(), entry.configs.as_deref());
        assert_eq!(tier.hits(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
