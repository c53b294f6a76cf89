//! Deterministic random instance generators.
//!
//! The paper generates its problem instances "using the uniform
//! distribution and considering different numbers of jobs and machines"
//! (§IV.A); [`uniform`] reproduces that. The other families are standard
//! in the `P||Cmax` benchmarking literature and exercise the PTAS under
//! different job-size mixes (many long jobs, few long jobs, near-equal
//! sizes), which directly controls the shape of the DP table.

use crate::instance::Instance;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Uniform processing times in `[lo, hi]` (inclusive), as in the paper.
pub fn uniform(seed: u64, n: usize, m: usize, lo: u64, hi: u64) -> Instance {
    assert!(lo > 0 && lo <= hi, "need 0 < lo <= hi");
    let mut rng = SmallRng::seed_from_u64(seed);
    let times = (0..n).map(|_| rng.gen_range(lo..=hi)).collect();
    Instance::new(times, m)
}

/// "Non-uniform" family (França et al.): 98% of jobs in `[0.9·hi, hi]`,
/// the rest in `[lo, 0.2·hi]`. Produces many near-equal long jobs — the
/// hardest case for LPT and a dense, low-dimensional DP table.
pub fn non_uniform(seed: u64, n: usize, m: usize, lo: u64, hi: u64) -> Instance {
    assert!(lo > 0 && lo <= hi, "need 0 < lo <= hi");
    let mut rng = SmallRng::seed_from_u64(seed);
    let low_hi = (hi / 5).max(lo);
    // In u128 so a `hi` near `u64::MAX` cannot wrap.
    let high_lo = ((hi as u128 * 9 / 10) as u64).max(lo);
    let times = (0..n)
        .map(|_| {
            if rng.gen_ratio(98, 100) {
                rng.gen_range(high_lo..=hi)
            } else {
                rng.gen_range(lo..=low_hi)
            }
        })
        .collect();
    Instance::new(times, m)
}

/// Bimodal mix of short and long jobs: each job is long (`[hi/2, hi]`,
/// at least `lo`) with probability `long_pct`%, otherwise short
/// (`[lo, hi/10]`, at least `lo`). Exercises the PTAS's short/long split.
pub fn bimodal(seed: u64, n: usize, m: usize, lo: u64, hi: u64, long_pct: u32) -> Instance {
    assert!(lo > 0 && lo <= hi && long_pct <= 100);
    let mut rng = SmallRng::seed_from_u64(seed);
    let short_hi = (hi / 10).max(lo);
    let times = (0..n)
        .map(|_| {
            if rng.gen_ratio(long_pct, 100) {
                rng.gen_range((hi / 2).max(lo)..=hi)
            } else {
                rng.gen_range(lo..=short_hi)
            }
        })
        .collect();
    Instance::new(times, m)
}

/// Near-equal jobs: `hi ± spread`, clamped positive. The DP table for
/// these degenerates to very few non-zero dimensions.
pub fn near_equal(seed: u64, n: usize, m: usize, center: u64, spread: u64) -> Instance {
    assert!(center > spread, "center must exceed spread");
    let mut rng = SmallRng::seed_from_u64(seed);
    let times = (0..n)
        .map(|_| rng.gen_range(center - spread..=center + spread))
        .collect();
    Instance::new(times, m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_deterministic_per_seed() {
        let a = uniform(7, 50, 4, 1, 100);
        let b = uniform(7, 50, 4, 1, 100);
        let c = uniform(8, 50, 4, 1, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_respects_range() {
        let inst = uniform(1, 1000, 8, 10, 20);
        assert!(inst.times().iter().all(|&t| (10..=20).contains(&t)));
        assert_eq!(inst.num_jobs(), 1000);
        assert_eq!(inst.machines(), 8);
    }

    #[test]
    fn non_uniform_is_mostly_long() {
        let inst = non_uniform(3, 2000, 8, 1, 1000);
        let long = inst.times().iter().filter(|&&t| t >= 900).count();
        assert!(long > 1800, "expected ~98% long jobs, got {long}");
    }

    #[test]
    fn bimodal_splits_modes() {
        let inst = bimodal(5, 2000, 8, 1, 1000, 50);
        let long = inst.times().iter().filter(|&&t| t >= 500).count();
        let short = inst.times().iter().filter(|&&t| t <= 100).count();
        assert_eq!(long + short, 2000, "no mid-range jobs");
        assert!((800..1200).contains(&long));
    }

    #[test]
    fn range_edges_draw_positive_times() {
        // hi = 1 makes the long band [0, 1] before clamping.
        let inst = bimodal(1, 200, 2, 1, 1, 50);
        assert!(inst.times().iter().all(|&t| t == 1));
        // lo above hi/2 lifts the long band too: every time is in [lo, hi].
        let inst = bimodal(1, 200, 3, 60, 100, 50);
        assert!(inst.times().iter().all(|&t| (60..=100).contains(&t)));
        // 9·hi overflows u64 unless widened.
        let inst = non_uniform(2, 1, 1, 1, u64::MAX);
        assert!(inst.time(0) > 0);
    }

    #[test]
    fn near_equal_stays_in_band() {
        let inst = near_equal(9, 500, 4, 100, 5);
        assert!(inst.times().iter().all(|&t| (95..=105).contains(&t)));
    }
}
