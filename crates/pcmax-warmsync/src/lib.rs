#![warn(missing_docs)]

//! Warm-state replication primitives for the pcmax cluster.
//!
//! `pcmax-store`'s [`WarmLog`] makes one worker's DP-solution cache
//! durable; this crate supplies everything needed to make that state a
//! *cluster* asset instead of a per-process one:
//!
//! * [`ShipEntry`] — a checksummed warm-log record in transit, with a
//!   line-protocol token encoding (`seq:hexkey:hexval:checksum`) used
//!   by the `warm-pull` / `warm-push` verbs. The checksum is FNV-1a
//!   over `key‖value`, re-verified on receipt, so a shipped entry is
//!   byte-identical to the source record or rejected;
//! * [`WarmDigest`] — a worker's `(key hash, seq)` inventory plus its
//!   max sequence number, the `warm-digest` reply. The max seq tells a
//!   coordinator whether a cached digest is still current;
//! * [`pull_ranges`] — the relay planner: coalesce the key hashes a
//!   target is missing into the fewest `warm-pull` hash ranges that
//!   contain no other donor key (rendezvous ranking, which decides what
//!   a target is missing, lives in `pcmax-cluster`);
//! * [`ReplicaBudget`] — oldest-first byte accounting for entries a
//!   worker holds on behalf of the ring (replication factor R − 1
//!   successor copies), so replication can never grow a worker's disk
//!   unboundedly.
//!
//! The crate has no I/O and no dependency on the store, serve, or
//! cluster crates — it is pure protocol + planning, testable in
//! isolation, and both ends of every wire format live here.
//!
//! [`WarmLog`]: https://docs.rs/pcmax-store

pub mod budget;
pub mod frame;
pub mod plan;

pub use budget::ReplicaBudget;
pub use frame::{parse_digest_entry, ShipEntry, WarmDigest};
pub use plan::pull_ranges;

/// FNV-1a 64-bit — the workspace's standalone checksum, duplicated here
/// (same constants as `pcmax_store::page::fnv1a`) so this crate stays
/// dependency-free while producing identical digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}
