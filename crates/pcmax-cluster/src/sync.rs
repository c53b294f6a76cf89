//! The warmsync engine: coordinator-mediated warm-state replication.
//!
//! Workers are pure servers — they never dial each other. The
//! coordinator relays instead: it `warm-pull`s entries from a donor and
//! `warm-push`es them to their targets, so the whole replication
//! topology lives in one place and a worker needs no peer discovery.
//!
//! One [`Coordinator::sync_warm`] round (heartbeat-driven, also
//! callable directly by tests) is two steps:
//!
//! 1. **Digest refresh.** For each live worker whose heartbeat-reported
//!    `warm_seq` differs from the cached digest's, a fresh
//!    `warm-digest` is fetched; unchanged workers cost nothing. The
//!    digests give the holder map: which live workers hold each known
//!    key hash.
//! 2. **Replication repair.** Every known key hash must be held by its
//!    top-`R` live rendezvous owners (rank 0 is its primary). Each
//!    missing copy is relayed from a live holder: the missing hashes
//!    are grouped per (donor, target), coalesced into the minimal
//!    [`pcmax_warmsync::pull_ranges`] over the donor's digest, pulled,
//!    and exactly the bucket's entries are pushed. Receivers append
//!    under their own local seq and charge their replica byte budget
//!    (oldest-first eviction), so a replica's disk share is bounded.
//!
//! A freshly solved entry bumps its worker's `warm_seq`, so the next
//! round's refresh lists it and the repair copies it to its other
//! owners. A membership change (join, leave, mark-down, revival)
//! changes the owner lists, so the same repair moves keys to a new
//! primary and tops a joiner or a revived worker up to every key it
//! now owns. Once converged a round ships nothing.

use crate::coordinator::Coordinator;
use crate::ring::rank_ids;
use crate::worker::WorkerNode;
use pcmax_serve::{Client, ClientError};
use pcmax_warmsync::{pull_ranges, ShipEntry};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// What one [`Coordinator::sync_warm`] round moved, for tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncOutcome {
    /// Entries pushed to replicas or new owners this round.
    pub shipped: u64,
    /// Entries pulled from donors this round.
    pub pulled: u64,
}

/// The key-hash → holder-ids map built from cached digests.
type Holders = HashMap<u64, HashSet<String>>;

impl Coordinator {
    /// Runs one warmsync round (see the module docs). Serialised by an
    /// internal lock: the heartbeat loop and direct callers (tests)
    /// never interleave rounds.
    pub fn sync_warm(&self) -> SyncOutcome {
        let _round = self.sync_lock.lock().expect("sync lock poisoned");
        let mut outcome = SyncOutcome::default();
        let live = self.live_nodes();
        let mut live_ids: Vec<String> = live.iter().map(|w| w.id.clone()).collect();
        live_ids.sort_unstable();

        {
            let mut last = self.last_membership.lock().expect("membership poisoned");
            if *last != live_ids {
                if !last.is_empty() {
                    self.stats.rebalance_events.inc();
                }
                last.clone_from(&live_ids);
            }
        }

        self.refresh_digests(&live);
        self.repair_replication(&live, &live_ids, &mut outcome);
        outcome
    }

    fn live_nodes(&self) -> Vec<Arc<WorkerNode>> {
        self.snapshot_workers()
            .into_iter()
            .filter(|w| w.is_up())
            .collect()
    }

    /// Fetches `warm-digest` from every live worker whose reported
    /// `warm_seq` differs from the cached digest's seq. A worker that
    /// has never reported warm state (`warm_seq == 0`) is skipped — its
    /// digest is trivially empty.
    fn refresh_digests(&self, live: &[Arc<WorkerNode>]) {
        for worker in live {
            let seq = worker.warm_seq();
            let cached = worker
                .digest_cache
                .lock()
                .expect("digest cache poisoned")
                .as_ref()
                .map(|(s, _)| *s);
            if cached == Some(seq) || (seq == 0 && cached.is_none()) {
                continue;
            }
            let Ok(mut client) = self.warm_client(worker) else { continue };
            match client.warm_digest() {
                Ok(digest) => {
                    // Cache under the seq the worker itself reports in
                    // the digest, not the (possibly stale) heartbeat
                    // one, so a racing append re-fetches next round.
                    *worker.digest_cache.lock().expect("digest cache poisoned") =
                        Some((digest.max_seq, digest.entries));
                }
                Err(_) => self.note_miss(worker),
            }
        }
    }

    fn holder_map(&self, live: &[Arc<WorkerNode>]) -> Holders {
        let mut holders: Holders = HashMap::new();
        for worker in live {
            let cache = worker.digest_cache.lock().expect("digest cache poisoned");
            if let Some((_, entries)) = cache.as_ref() {
                for &(hash, _) in entries {
                    holders.entry(hash).or_default().insert(worker.id.clone());
                }
            }
        }
        holders
    }

    /// Restores the replication invariant — every known warm key is
    /// held by its top-`R` live rendezvous owners — by relaying each
    /// missing copy from a live holder. Idempotent and free once
    /// converged (complete holder sets build no buckets).
    fn repair_replication(
        &self,
        live: &[Arc<WorkerNode>],
        live_ids: &[String],
        outcome: &mut SyncOutcome,
    ) {
        if live.len() < 2 {
            return;
        }
        let replicas = self.config().replication_factor.max(1) as usize;
        let id_refs: Vec<&str> = live_ids.iter().map(String::as_str).collect();
        let holders = self.holder_map(live);
        let mut buckets: HashMap<(String, String), Vec<u64>> = HashMap::new();
        for (&hash, held) in &holders {
            let Some(donor) = held.iter().min() else { continue };
            for target in rank_ids(&id_refs, hash).into_iter().take(replicas) {
                if !held.contains(target) {
                    buckets
                        .entry((donor.clone(), target.to_string()))
                        .or_default()
                        .push(hash);
                }
            }
        }
        self.relay_buckets(live, buckets, outcome);
    }

    /// Executes `(donor, target) → key hashes` relay buckets: each
    /// bucket's hashes are coalesced into the minimal pull ranges over
    /// the donor's digest, pulled, and exactly the bucket's entries are
    /// pushed to the target. A donor that received pushes earlier in
    /// the round may hold more keys inside a range than its cached
    /// digest lists; those are dropped, not re-shipped.
    fn relay_buckets(
        &self,
        live: &[Arc<WorkerNode>],
        buckets: HashMap<(String, String), Vec<u64>>,
        outcome: &mut SyncOutcome,
    ) {
        for ((donor_id, target_id), mut bucket) in buckets {
            bucket.sort_unstable();
            let (Some(donor), Some(target)) = (
                live.iter().find(|w| w.id == donor_id),
                live.iter().find(|w| w.id == target_id),
            ) else {
                continue;
            };
            let donor_keys: Vec<u64> = donor
                .digest_cache
                .lock()
                .expect("digest cache poisoned")
                .as_ref()
                .map(|(_, entries)| entries.iter().map(|&(h, _)| h).collect())
                .unwrap_or_default();
            for (lo, hi) in pull_ranges(&bucket, &donor_keys) {
                let Some(mut entries) = self.pull_from(donor, lo, hi) else { continue };
                outcome.pulled += entries.len() as u64;
                entries.retain(|e| bucket.binary_search(&e.key_hash()).is_ok());
                outcome.shipped += self.push_to(target, &entries);
            }
        }
    }

    /// One `warm-pull` round-trip against `worker` on a fresh
    /// connection, for every entry in `lo..=hi` (`since = 0`). `None`
    /// on transport failure (books a miss).
    fn pull_from(&self, worker: &Arc<WorkerNode>, lo: u64, hi: u64) -> Option<Vec<ShipEntry>> {
        let mut client = self.warm_client(worker).ok()?;
        let started = Instant::now();
        match client.warm_pull(0, lo, hi) {
            Ok(entries) => {
                self.stats.warm_entries_pulled.add(entries.len() as u64);
                self.stats.warm_bytes_pulled.add(payload_bytes(&entries));
                if pcmax_obs::enabled() {
                    self.stats.pull_us.record(started.elapsed().as_micros() as u64);
                }
                Some(entries)
            }
            Err(ClientError::Transport(_)) => {
                self.note_miss(worker);
                None
            }
            Err(ClientError::Server(_)) => None,
        }
    }

    /// One `warm-push` round-trip against `worker`. Returns the number
    /// of entries the worker accepted (0 on transport failure).
    fn push_to(&self, worker: &Arc<WorkerNode>, entries: &[ShipEntry]) -> u64 {
        if entries.is_empty() {
            return 0;
        }
        let Ok(mut client) = self.warm_client(worker) else {
            self.note_miss(worker);
            return 0;
        };
        let started = Instant::now();
        match client.warm_push(entries) {
            Ok((accepted, rejected)) => {
                self.stats.warm_entries_shipped.add(accepted);
                self.stats.warm_bytes_shipped.add(payload_bytes(entries));
                self.stats.warm_push_rejected.add(rejected);
                if pcmax_obs::enabled() {
                    self.stats.ship_us.record(started.elapsed().as_micros() as u64);
                }
                accepted
            }
            Err(ClientError::Transport(_)) => {
                self.note_miss(worker);
                0
            }
            Err(ClientError::Server(_)) => 0,
        }
    }

    fn warm_client(&self, worker: &WorkerNode) -> Result<Client, ClientError> {
        let client = Client::connect_timeout(&worker.addr, self.config().connect_timeout)
            .map_err(|e| ClientError::Transport(format!("connect: {e}")))?;
        let _ = client.set_io_timeout(Some(self.config().io_timeout));
        Ok(client)
    }
}

/// Key + value bytes of `entries`, before hex encoding.
fn payload_bytes(entries: &[ShipEntry]) -> u64 {
    entries.iter().map(|e| (e.key.len() + e.value.len()) as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::ClusterConfig;
    use pcmax_serve::proto::format_warm_entries;
    use pcmax_serve::serve_lines;
    use std::sync::Mutex;

    fn entry(seq: u64, key: &[u8]) -> ShipEntry {
        ShipEntry {
            seq,
            key: key.to_vec(),
            value: b"solution".to_vec(),
        }
    }

    #[test]
    fn relay_pushes_exactly_the_bucket() {
        // The donor's digest was cached before it received `outside`
        // (say, pushed earlier in the round), so its pull reply carries
        // a key the bucket never asked for.
        let inside = entry(1, b"inside");
        let outside = entry(2, b"outside");
        let pull_reply = format_warm_entries("warm-pull", &[inside.clone(), outside]);
        let donor = serve_lines("127.0.0.1:0", None, move |_| pull_reply.clone()).unwrap();
        let pushes = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&pushes);
        let target = serve_lines("127.0.0.1:0", None, move |line| {
            seen.lock().unwrap().push(line.to_string());
            "warm-push 1 0".to_string()
        })
        .unwrap();

        let coordinator = Coordinator::new(ClusterConfig::default());
        coordinator.add_worker("donor", donor.local_addr());
        coordinator.add_worker("target", target.local_addr());
        let live = coordinator.live_nodes();
        *live[0].digest_cache.lock().unwrap() = Some((1, vec![(inside.key_hash(), 1)]));
        let buckets = HashMap::from([(
            ("donor".to_string(), "target".to_string()),
            vec![inside.key_hash()],
        )]);
        let mut outcome = SyncOutcome::default();
        coordinator.relay_buckets(&live, buckets, &mut outcome);

        assert_eq!(outcome.pulled, 2);
        assert_eq!(outcome.shipped, 1);
        assert_eq!(
            *pushes.lock().unwrap(),
            [format_warm_entries("warm-push", &[inside])]
        );
        donor.shutdown();
        target.shutdown();
    }
}
