//! The warmsync engine: coordinator-mediated warm-state replication and
//! membership-change rebalance.
//!
//! Workers are pure servers — they never dial each other. The
//! coordinator relays instead: it `warm-pull`s the unshipped suffix
//! from a donor and `warm-push`es the entries to their targets, so the
//! whole replication topology lives in one place and a worker needs no
//! peer discovery.
//!
//! One [`Coordinator::sync_warm`] round (heartbeat-driven, also
//! callable directly by tests and `pcmax bench-cluster --churn`):
//!
//! 1. **Membership diff → rebalance.** The live id set is compared
//!    against the set of the previous round. On any change (join,
//!    leave, mark-down, revival) the planner computes
//!    [`pcmax_warmsync::moved_set`] over every known warm key hash —
//!    exactly the keys whose rendezvous primary changed — and relays
//!    each moved key from a live holder (previous owner or any replica)
//!    to its new owner, coalescing per-donor pulls into the minimal
//!    [`pcmax_warmsync::pull_ranges`]. A joining worker therefore
//!    serves its first request for a migrated warm key from shipped
//!    state, not a cold DP solve.
//! 2. **Digest refresh.** For each live worker whose heartbeat-reported
//!    `warm_seq` differs from the cached digest's, a fresh
//!    `warm-digest` is fetched; unchanged workers cost nothing. The
//!    digests feed the holder map that deduplicates pushes (an entry is
//!    never re-shipped to a worker already holding its key).
//! 3. **Suffix shipping (replication factor R).** For each live worker
//!    whose `warm_seq` is past its replication watermark, the
//!    coordinator pulls `seq > watermark` and pushes every entry to the
//!    first `R − 1` rendezvous successors for its key hash that do not
//!    already hold it. Receivers append under their own local seq and
//!    charge their replica byte budget (oldest-first eviction), so a
//!    replica's disk share is bounded.
//! 4. **Replication repair.** Every known key must be held by its
//!    top-`R` live owners; missing copies are relayed from a holder.
//!    Free once converged, this is what tops a joiner or a revived
//!    worker back up to every key it is now a successor for.

use crate::coordinator::Coordinator;
use crate::ring::rank_ids;
use crate::worker::WorkerNode;
use pcmax_serve::{Client, ClientError};
use pcmax_warmsync::{counters as wsc, moved_set, pull_ranges, ShipEntry};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// What one [`Coordinator::sync_warm`] round did, for tests and the
/// churn benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncOutcome {
    /// Entries pushed to replicas or new owners this round.
    pub shipped: u64,
    /// Entries pulled from donors this round.
    pub pulled: u64,
    /// Keys relayed to a new rendezvous owner by the rebalance pass.
    pub moved_keys: u64,
    /// Whether a membership change triggered a rebalance pass.
    pub rebalanced: bool,
}

/// The key-hash → holder-ids map built from cached digests.
type Holders = HashMap<u64, HashSet<String>>;

impl Coordinator {
    /// Runs one warmsync round (see the module docs). Serialised by an
    /// internal lock: the heartbeat loop and direct callers (tests,
    /// benchmarks) never interleave rounds. No-op when
    /// `ClusterConfig::warmsync` is off.
    pub fn sync_warm(&self) -> SyncOutcome {
        if !self.config().warmsync {
            return SyncOutcome::default();
        }
        let _round = self.sync_lock.lock().expect("sync lock poisoned");
        let mut outcome = SyncOutcome::default();
        let live = self.live_nodes();
        let mut live_ids: Vec<String> = live.iter().map(|w| w.id.clone()).collect();
        live_ids.sort_unstable();

        self.refresh_digests(&live);
        let mut holders = self.holder_map(&live);

        // Membership diff first: a joining worker should get its moved
        // keys before new-suffix replication spends budget on it.
        let (changed, old_ids) = {
            let mut last = self.last_membership.lock().expect("membership poisoned");
            let old = last.clone();
            let changed = *last != live_ids;
            if changed {
                last.clone_from(&live_ids);
            }
            (changed, old)
        };
        if changed && !old_ids.is_empty() {
            outcome.rebalanced = true;
            self.stats.rebalance_events.inc();
            wsc::add(wsc::REBALANCE_EVENTS, 1);
            self.rebalance(&live, &live_ids, &old_ids, &mut holders, &mut outcome);
        }

        self.ship_suffixes(&live, &live_ids, &mut holders, &mut outcome);
        self.repair_replication(&live, &live_ids, &mut holders, &mut outcome);
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

    /// The rebalance pass: relays every warm key whose rendezvous
    /// primary changed (old membership → current) from a live holder to
    /// its new owner. Donor pulls are coalesced into the minimal hash
    /// ranges containing no unmoved donor key.
    fn rebalance(
        &self,
        live: &[Arc<WorkerNode>],
        live_ids: &[String],
        old_ids: &[String],
        holders: &mut Holders,
        outcome: &mut SyncOutcome,
    ) {
        let mut hashes: Vec<u64> = holders.keys().copied().collect();
        hashes.sort_unstable();
        let moved = moved_set(&hashes, owner_fn(old_ids), owner_fn(live_ids));

        // Bucket moved keys by (donor, target): the target is the new
        // primary, the donor any live holder (prefer the old owner so
        // the pull hits the freshest copy).
        let mut buckets: HashMap<(String, String), Vec<u64>> = HashMap::new();
        for key in &moved {
            let Some(holder_set) = holders.get(&key.hash) else { continue };
            if holder_set.contains(&key.to) {
                continue; // already replicated there — nothing to move
            }
            let donor = match &key.from {
                Some(from) if holder_set.contains(from) => from.clone(),
                _ => match holder_set.iter().min() {
                    Some(any) => any.clone(),
                    None => continue,
                },
            };
            buckets
                .entry((donor, key.to.clone()))
                .or_default()
                .push(key.hash);
        }

        let moved_now = self.relay_buckets(live, buckets, holders, outcome);
        outcome.moved_keys += moved_now;
        self.stats.rebalance_keys_moved.add(moved_now);
    }

    /// Restores the replication invariant — every known warm key is
    /// held by its top-`R` live rendezvous owners — by relaying each
    /// missing copy from a live holder. Idempotent and free once
    /// converged (complete holder sets build no buckets); after churn
    /// it is what tops a joiner (or a revived worker) back up to every
    /// key it is now a successor for.
    fn repair_replication(
        &self,
        live: &[Arc<WorkerNode>],
        live_ids: &[String],
        holders: &mut Holders,
        outcome: &mut SyncOutcome,
    ) {
        let replicas = (self.config().replication_factor.max(1) as usize).min(live.len());
        if live.len() < 2 {
            return;
        }
        let id_refs: Vec<&str> = live_ids.iter().map(String::as_str).collect();
        let mut hashes: Vec<u64> = holders.keys().copied().collect();
        hashes.sort_unstable();
        let mut buckets: HashMap<(String, String), Vec<u64>> = HashMap::new();
        for hash in hashes {
            let Some(held) = holders.get(&hash) else { continue };
            let Some(donor) = held.iter().min().cloned() else { continue };
            for target in rank_ids(&id_refs, hash).into_iter().take(replicas) {
                if held.contains(target) {
                    continue;
                }
                buckets
                    .entry((donor.clone(), target.to_string()))
                    .or_default()
                    .push(hash);
            }
        }
        self.relay_buckets(live, buckets, holders, outcome);
    }

    /// Executes `(donor, target) → key hashes` relay buckets: each
    /// bucket's hashes are coalesced into the minimal pull ranges over
    /// the donor's digest, pulled, and pushed to the target. Returns
    /// the number of entries accepted by targets.
    fn relay_buckets(
        &self,
        live: &[Arc<WorkerNode>],
        buckets: HashMap<(String, String), Vec<u64>>,
        holders: &mut Holders,
        outcome: &mut SyncOutcome,
    ) -> u64 {
        let mut total_pushed = 0u64;
        for ((donor_id, target_id), mut bucket) in buckets {
            bucket.sort_unstable();
            bucket.dedup();
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
                let Some(entries) = self.pull_from(donor, 0, lo, hi) else { continue };
                outcome.pulled += entries.len() as u64;
                let pushed = self.push_to(target, &entries);
                outcome.shipped += pushed;
                total_pushed += pushed;
                for entry in &entries {
                    holders
                        .entry(entry.key_hash())
                        .or_default()
                        .insert(target_id.clone());
                }
            }
        }
        total_pushed
    }

    /// Ships each live worker's unshipped warm suffix to the first
    /// `R − 1` rendezvous successors (per entry key) that do not already
    /// hold it.
    fn ship_suffixes(
        &self,
        live: &[Arc<WorkerNode>],
        live_ids: &[String],
        holders: &mut Holders,
        outcome: &mut SyncOutcome,
    ) {
        let replicas = self.config().replication_factor.max(1) as usize;
        if replicas < 2 || live.len() < 2 {
            return;
        }
        let id_refs: Vec<&str> = live_ids.iter().map(String::as_str).collect();
        for donor in live {
            let seq = donor.warm_seq();
            let watermark = donor.synced_seq();
            if seq <= watermark {
                continue;
            }
            let Some(entries) = self.pull_from(donor, watermark, 0, u64::MAX) else {
                continue;
            };
            outcome.pulled += entries.len() as u64;
            let top_seq = entries.iter().map(|e| e.seq).max().unwrap_or(seq);

            // Group entries per target so each target gets one push.
            let mut batches: HashMap<String, Vec<ShipEntry>> = HashMap::new();
            for entry in entries {
                let hash = entry.key_hash();
                let held = holders.entry(hash).or_default();
                held.insert(donor.id.clone());
                for target in rank_ids(&id_refs, hash).into_iter().take(replicas) {
                    if target == donor.id || held.contains(target) {
                        continue;
                    }
                    held.insert(target.to_string());
                    batches.entry(target.to_string()).or_default().push(entry.clone());
                }
            }
            for (target_id, batch) in batches {
                if let Some(target) = live.iter().find(|w| w.id == target_id) {
                    outcome.shipped += self.push_to(target, &batch);
                }
            }
            donor.set_synced_seq(top_seq.max(seq));
        }
    }

    /// One `warm-pull` round-trip against `worker` on a fresh
    /// connection. `None` on transport failure (books a miss).
    fn pull_from(
        &self,
        worker: &Arc<WorkerNode>,
        since_seq: u64,
        lo: u64,
        hi: u64,
    ) -> Option<Vec<ShipEntry>> {
        let mut client = self.warm_client(worker).ok()?;
        let started = Instant::now();
        match client.warm_pull(since_seq, lo, hi) {
            Ok(entries) => {
                let bytes: u64 = entries
                    .iter()
                    .map(|e| (e.key.len() + e.value.len()) as u64)
                    .sum();
                self.stats.warm_entries_pulled.add(entries.len() as u64);
                self.stats.warm_bytes_pulled.add(bytes);
                wsc::add(wsc::ENTRIES_PULLED, entries.len() as u64);
                wsc::add(wsc::BYTES_PULLED, bytes);
                if pcmax_obs::enabled() {
                    let us = started.elapsed().as_micros() as u64;
                    self.stats.pull_us.record(us);
                    pcmax_obs::registry::global()
                        .histogram(wsc::PULL_US)
                        .record(us);
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
                let bytes: u64 = entries
                    .iter()
                    .map(|e| (e.key.len() + e.value.len()) as u64)
                    .sum();
                self.stats.warm_entries_shipped.add(accepted);
                self.stats.warm_bytes_shipped.add(bytes);
                self.stats.warm_push_rejected.add(rejected);
                wsc::add(wsc::ENTRIES_SHIPPED, accepted);
                wsc::add(wsc::BYTES_SHIPPED, bytes);
                if rejected > 0 {
                    wsc::add(wsc::ENTRIES_REJECTED, rejected);
                }
                if pcmax_obs::enabled() {
                    let us = started.elapsed().as_micros() as u64;
                    self.stats.ship_us.record(us);
                    pcmax_obs::registry::global()
                        .histogram(wsc::SHIP_US)
                        .record(us);
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

/// A rendezvous primary-owner closure over `ids`, the shape
/// [`moved_set`] expects.
fn owner_fn(ids: &[String]) -> impl Fn(u64) -> Option<String> + '_ {
    move |hash| {
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        rank_ids(&refs, hash).first().map(|s| s.to_string())
    }
}
