//! Relay planning: how to fetch exactly a set of wanted keys from a
//! donor with ranged `warm-pull`s.
//!
//! Which keys a worker wants is rendezvous ranking, which lives in
//! `pcmax-cluster`'s ring module; the planner takes plain key hashes so
//! the two crates stay decoupled and the planner can be tested without
//! a cluster.

use std::collections::BTreeSet;

/// Coalesces `wanted` hashes into the fewest inclusive `(lo, hi)` hash
/// ranges such that no *unwanted* donor key falls inside any range.
///
/// `donor_keys` is the donor's full inventory (its digest hashes). A
/// `warm-pull lo hi` over each returned range therefore ships exactly
/// the wanted keys the donor listed — nothing else — while merging
/// adjacent wanted keys into one round trip. O(n log n) in the sizes
/// of both inputs.
pub fn pull_ranges(wanted: &[u64], donor_keys: &[u64]) -> Vec<(u64, u64)> {
    let wanted: BTreeSet<u64> = wanted.iter().copied().collect();
    if wanted.is_empty() {
        return Vec::new();
    }
    // Walk the donor's inventory in hash order; runs of consecutive
    // wanted keys become one range pinned to the run's end hashes, so
    // an unwanted key can never sit inside a range. Wanted keys the
    // donor doesn't list still get a degenerate range — the pull
    // returns nothing, which is correct and harmless.
    let mut inventory: BTreeSet<u64> = donor_keys.iter().copied().collect();
    inventory.extend(&wanted);
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    let mut run: Option<(u64, u64)> = None;
    for hash in inventory {
        if wanted.contains(&hash) {
            run = Some((run.map_or(hash, |(lo, _)| lo), hash));
        } else if let Some(done) = run.take() {
            ranges.push(done);
        }
    }
    ranges.extend(run);
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pull_ranges_never_cover_an_unmoved_donor_key() {
        let donor = [10u64, 20, 30, 40, 50, 60];
        let moved = [20u64, 30, 50];
        let ranges = pull_ranges(&moved, &donor);
        // 20 and 30 are adjacent in donor order → one range; 40 is
        // unmoved so 50 starts a second.
        assert_eq!(ranges, vec![(20, 30), (50, 50)]);
        for &(lo, hi) in &ranges {
            for &d in &donor {
                if lo <= d && d <= hi {
                    assert!(moved.contains(&d), "range ({lo},{hi}) covers unmoved {d}");
                }
            }
        }
    }

    #[test]
    fn pull_ranges_handle_empty_and_unknown_keys() {
        assert!(pull_ranges(&[], &[1, 2, 3]).is_empty());
        // A moved key the donor never had yields its degenerate range.
        assert_eq!(pull_ranges(&[7], &[]), vec![(7, 7)]);
    }
}
