//! Property tests for routing determinism: the rendezvous ranking is a
//! pure function of the (worker set, key) pair, membership changes are
//! minimally disruptive, and equivalent instances share a route.

use pcmax_cluster::ring::{rank_ids, RouteKey};
use pcmax_core::Instance;
use proptest::prelude::*;

/// A pool of distinct worker ids, 2..=8 of them.
fn worker_pool() -> impl Strategy<Value = Vec<String>> {
    (2usize..=8).prop_map(|n| (0..n).map(|i| format!("worker-{i}")).collect())
}

/// Processing-time vectors small enough to scale by up to 13 without
/// overflow concerns.
fn times() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1u64..=1000, 1..=24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Enumerating the worker set in any rotation yields the same
    /// ranking: scores depend only on (worker, key).
    #[test]
    fn ranking_is_permutation_stable(ids in worker_pool(),
                                     rot in 0usize..8,
                                     key in 0u64..u64::MAX) {
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let mut rotated = refs.clone();
        let shift = rot % rotated.len();
        rotated.rotate_left(shift);
        prop_assert_eq!(rank_ids(&refs, key), rank_ids(&rotated, key));
    }

    /// Removing one worker remaps ONLY the keys that worker was
    /// winning; every other key keeps its primary (and its warm cache).
    #[test]
    fn removal_remaps_only_the_removed_workers_keys(ids in worker_pool(),
                                                    victim in 0usize..8,
                                                    keys in prop::collection::vec(0u64..u64::MAX, 32)) {
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let victim = refs[victim % refs.len()];
        let survivors: Vec<&str> = refs.iter().copied().filter(|&id| id != victim).collect();
        for key in keys {
            let before = rank_ids(&refs, key)[0];
            let after = rank_ids(&survivors, key)[0];
            if before != victim {
                prop_assert_eq!(before, after,
                    "key {} moved from {} to {} though {} was removed",
                    key, before, after, victim);
            } else {
                // The victim's keys fall to its runner-up.
                prop_assert_eq!(after, rank_ids(&refs, key)[1]);
            }
        }
    }

    /// gcd-scaled and permuted instances produce identical route keys,
    /// regardless of machine count — they share one worker's DP cache.
    #[test]
    fn equivalent_instances_route_identically(ts in times(),
                                              scale in 1u64..=13,
                                              rot in 0usize..24,
                                              m1 in 1usize..=8,
                                              m2 in 1usize..=8,
                                              k in 1u64..=10) {
        let base = RouteKey::of(&Instance::new(ts.clone(), m1), k);
        let mut scaled: Vec<u64> = ts.iter().map(|&t| t * scale).collect();
        let shift = rot % scaled.len();
        scaled.rotate_left(shift);
        let other = RouteKey::of(&Instance::new(scaled, m2), k);
        prop_assert_eq!(&base, &other);
        prop_assert_eq!(base.hash64(), other.hash64());
        // ... and therefore land on the same worker under any membership.
        let ids = ["a", "b", "c", "d", "e"];
        prop_assert_eq!(rank_ids(&ids, base.hash64()), rank_ids(&ids, other.hash64()));
    }

    /// Different rounding parameters may NOT share a route key: cache
    /// entries for k and k' are disjoint, so affinity would be wasted.
    #[test]
    fn k_is_part_of_the_route(ts in times(), k in 1u64..=10) {
        let a = RouteKey::of(&Instance::new(ts.clone(), 3), k);
        let b = RouteKey::of(&Instance::new(ts, 3), k + 1);
        prop_assert_ne!(a, b);
    }

    /// A join moves ≈ 1/(n+1) of the keys to the new worker — the
    /// minimal-disruption property warm replication relies on: only
    /// the joiner's share of keys changes primary. Bounds are loose
    /// (0.2×..3× the expectation, 512 keys) so the statistical check
    /// never flakes while still catching a broken ring (a modulo ring
    /// would move ~n/(n+1) of the keys on join).
    #[test]
    fn join_moves_about_one_nth_of_keys(ids in worker_pool(),
                                        seed in 0u64..u64::MAX) {
        let joiner = "worker-joined";
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let mut grown = refs.clone();
        grown.push(joiner);
        // Deterministic spread of key hashes derived from the seed.
        let hashes: Vec<u64> = (0..512u64)
            .map(|i| seed.wrapping_add(i).wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        // The primary diff, straight off the ring.
        let moved: Vec<&str> = hashes
            .iter()
            .filter(|&&hash| rank_ids(&refs, hash)[0] != rank_ids(&grown, hash)[0])
            .map(|&hash| rank_ids(&grown, hash)[0])
            .collect();
        prop_assert!(moved.iter().all(|&to| to == joiner),
            "a join may only move keys TO the joiner");
        let expected = hashes.len() as f64 / grown.len() as f64;
        let got = moved.len() as f64;
        prop_assert!(got >= 0.2 * expected && got <= 3.0 * expected,
            "join moved {} keys, expected ≈{:.0} (n={} workers)",
            moved.len(), expected, grown.len());
    }
}
