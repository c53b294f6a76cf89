//! Short/long job split and long-job rounding (Algorithm 1, lines 7–8).
//!
//! For a target makespan `T` and `k = ⌈1/ε⌉`:
//!
//! * a job is **long** iff `tⱼ > T/k` (equivalently `tⱼ·k > T`);
//! * long jobs are rounded **down** to the nearest multiple of
//!   `step = ⌊T/k²⌋` (clamped to ≥ 1 so tiny `T` stays well-defined);
//! * each distinct multiple `q·step` is a *class*; the class-count vector
//!   `N = (n₁, …, n_d)` is the DP input. We store only the classes that
//!   actually occur — the paper's "non-zero dimensions" — because extent-1
//!   dimensions add nothing to the DP.
//!
//! Rounding shrinks each long job by less than `step ≤ T/k² ≤ ε²·T`, and a
//! machine holds fewer than `k` long jobs (each exceeds `T/k`), so undoing
//! the rounding inflates a feasible machine load by at most `k·step ≤ T/k
//! ≤ ε·T` — the source of the `(1+ε)` guarantee.

use pcmax_core::Instance;
use serde::{Deserialize, Serialize};

/// A size class of rounded long jobs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Class {
    /// Rounded processing time (`q · step`).
    pub size: u64,
    /// The multiplier `q = size / step`.
    pub multiple: u64,
    /// Original job indices in this class.
    pub jobs: Vec<usize>,
}

/// Result of rounding an instance against a target makespan `T`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoundingOutcome {
    /// Some job is longer than `T`: no schedule with makespan ≤ `T` exists.
    Infeasible {
        /// The offending (longest) processing time.
        longest: u64,
    },
    /// The rounded instance.
    Rounded(Rounding),
}

/// The rounded view of an instance for one target `T`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rounding {
    /// Target makespan this rounding was computed for.
    pub target: u64,
    /// `k = ⌈1/ε⌉`.
    pub k: u64,
    /// Rounding granularity `max(1, ⌊T/k²⌋)`.
    pub step: u64,
    /// Size classes, ascending by size. Empty when there are no long jobs.
    pub classes: Vec<Class>,
    /// Indices of short jobs (`tⱼ·k ≤ T`).
    pub short_jobs: Vec<usize>,
}

impl Rounding {
    /// Rounds `inst` against target `T` with precision parameter `k`.
    pub fn compute(inst: &Instance, target: u64, k: u64) -> RoundingOutcome {
        assert!(k >= 1, "k must be at least 1");
        assert!(target >= 1, "target makespan must be positive");
        let longest = inst.max_time();
        if longest > target {
            return RoundingOutcome::Infeasible { longest };
        }
        // `k²` in u128: `k = ⌈1/ε⌉` is caller-controlled and wraps u64
        // for ε < 2⁻³². The quotient is ≤ target, so the cast back is
        // exact (step = 1 whenever k² exceeds the target).
        let step = ((target as u128 / (k as u128 * k as u128)) as u64).max(1);
        // Short iff `t·k ≤ T` ⟺ `t ≤ ⌊T/k⌋` (positive integers): the
        // division form cannot wrap, while `t·k` silently does for
        // times near u64::MAX — misclassifying the longest jobs as
        // *short*, which voids the (1+ε) guarantee without crashing.
        let short_cut = target / k;
        let mut short_jobs = Vec::new();
        // multiple → jobs, gathered then sorted for a canonical order.
        let mut by_multiple: std::collections::BTreeMap<u64, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (j, &t) in inst.times().iter().enumerate() {
            if t <= short_cut {
                short_jobs.push(j);
            } else {
                by_multiple.entry(t / step).or_default().push(j);
            }
        }
        let classes = by_multiple
            .into_iter()
            .map(|(multiple, jobs)| Class {
                // `q·step ≤ t ≤ u64::MAX` because `q = ⌊t/step⌋`; widen
                // and convert loudly so the invariant is checked, not
                // assumed.
                size: u64::try_from(multiple as u128 * step as u128)
                    .expect("q·step ≤ t by construction"),
                multiple,
                jobs,
            })
            .collect();
        RoundingOutcome::Rounded(Self {
            target,
            k,
            step,
            classes,
            short_jobs,
        })
    }

    /// Number of size classes (the DP's non-zero dimensionality).
    #[inline]
    pub fn ndim(&self) -> usize {
        self.classes.len()
    }

    /// The class-count vector `N`.
    pub fn counts(&self) -> Vec<usize> {
        self.classes.iter().map(|c| c.jobs.len()).collect()
    }

    /// Rounded sizes per class, ascending.
    pub fn sizes(&self) -> Vec<u64> {
        self.classes.iter().map(|c| c.size).collect()
    }

    /// Total number of long jobs, `n′`.
    pub fn num_long(&self) -> usize {
        self.classes.iter().map(|c| c.jobs.len()).sum()
    }

    /// Size of the DP table this rounding induces, `σ = Π (nᵢ + 1)`,
    /// saturating at `usize::MAX`. The product can genuinely exceed
    /// `usize` for many-class roundings; saturation keeps the value a
    /// correct *lower bound*, which is what the serve layer's table
    /// budget check needs (a saturated σ is always over budget).
    pub fn table_size(&self) -> usize {
        self.classes
            .iter()
            .fold(1usize, |acc, c| acc.saturating_mul(c.jobs.len() + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rounded(inst: &Instance, target: u64, k: u64) -> Rounding {
        match Rounding::compute(inst, target, k) {
            RoundingOutcome::Rounded(r) => r,
            RoundingOutcome::Infeasible { .. } => panic!("unexpected infeasible"),
        }
    }

    #[test]
    fn infeasible_when_job_exceeds_target() {
        let inst = Instance::new(vec![10, 3], 2);
        match Rounding::compute(&inst, 9, 4) {
            RoundingOutcome::Infeasible { longest } => assert_eq!(longest, 10),
            _ => panic!("expected infeasible"),
        }
    }

    #[test]
    fn short_long_split_boundary() {
        // T=20, k=4: short iff t ≤ 5.
        let inst = Instance::new(vec![5, 6, 20, 1], 2);
        let r = rounded(&inst, 20, 4);
        assert_eq!(r.short_jobs, vec![0, 3]);
        assert_eq!(r.num_long(), 2);
    }

    #[test]
    fn step_is_floor_t_over_k_squared() {
        let inst = Instance::new(vec![100], 1);
        let r = rounded(&inst, 100, 4);
        assert_eq!(r.step, 6); // ⌊100/16⌋
    }

    #[test]
    fn step_clamped_to_one_for_tiny_targets() {
        let inst = Instance::new(vec![3], 1);
        let r = rounded(&inst, 3, 4);
        assert_eq!(r.step, 1);
    }

    #[test]
    fn rounding_is_down_and_within_step() {
        let inst = Instance::new(vec![97, 53, 53, 31], 2);
        let r = rounded(&inst, 100, 4);
        for class in &r.classes {
            for &j in &class.jobs {
                let t = inst.time(j);
                assert!(class.size <= t);
                assert!(t - class.size < r.step);
                assert_eq!(class.size % r.step, 0);
            }
        }
    }

    #[test]
    fn classes_ascending_and_counts_match() {
        let inst = Instance::new(vec![90, 90, 60, 60, 60, 30], 3);
        let r = rounded(&inst, 100, 4);
        let sizes = r.sizes();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(r.num_long(), 6); // all jobs > 25 are long
        assert_eq!(r.counts().iter().sum::<usize>(), 6);
    }

    #[test]
    fn equal_jobs_collapse_to_one_class() {
        let inst = Instance::new(vec![50; 10], 5);
        let r = rounded(&inst, 60, 4);
        assert_eq!(r.ndim(), 1);
        assert_eq!(r.counts(), vec![10]);
        assert_eq!(r.table_size(), 11);
    }

    #[test]
    fn no_long_jobs_gives_empty_classes() {
        let inst = Instance::new(vec![1, 2, 3], 2);
        let r = rounded(&inst, 100, 4);
        assert_eq!(r.ndim(), 0);
        assert_eq!(r.table_size(), 1);
        assert_eq!(r.short_jobs.len(), 3);
    }

    #[test]
    fn every_job_is_short_or_in_exactly_one_class() {
        let inst = Instance::new(vec![12, 47, 33, 8, 90, 90, 61, 5, 77, 41], 3);
        let r = rounded(&inst, 95, 4);
        let mut seen = vec![0u32; inst.num_jobs()];
        for &j in &r.short_jobs {
            seen[j] += 1;
        }
        for c in &r.classes {
            for &j in &c.jobs {
                seen[j] += 1;
            }
        }
        assert!(seen.iter().all(|&s| s == 1), "{seen:?}");
    }

    #[test]
    fn near_max_times_classified_long_not_short() {
        // Regression: the old `t * k <= target` wrapped for t near
        // u64::MAX (MAX·4 mod 2⁶⁴ = MAX − 3 ≤ target), silently filing
        // the *longest* job as short and voiding the (1+ε) guarantee.
        let inst = Instance::new(vec![u64::MAX], 1);
        let r = rounded(&inst, u64::MAX, 4);
        assert!(r.short_jobs.is_empty(), "u64::MAX job must be long");
        assert_eq!(r.num_long(), 1);
        let c = &r.classes[0];
        assert_eq!(c.multiple, c.size / r.step);
        assert!(c.size >= u64::MAX - r.step);
    }

    #[test]
    fn near_max_mixed_instance_splits_correctly() {
        let big = u64::MAX - 17;
        let inst = Instance::new(vec![big, 5, 9], 2);
        let t = big; // probe exactly at the longest job
        let r = rounded(&inst, t, 4);
        // short iff time ≤ ⌊T/4⌋; 5 and 9 are short, `big` is long.
        assert_eq!(r.short_jobs, vec![1, 2]);
        assert_eq!(r.num_long(), 1);
        for c in &r.classes {
            for &j in &c.jobs {
                assert!(c.size <= inst.time(j));
                assert!(inst.time(j) - c.size < r.step);
            }
        }
    }

    #[test]
    fn huge_k_clamps_step_to_one() {
        // k = 2³³ makes k² wrap u64 (old code: step computed from the
        // wrapped product). In u128 the quotient is 0 → step clamps to 1.
        let inst = Instance::new(vec![100], 1);
        let k = 1u64 << 33;
        let r = rounded(&inst, 100, k);
        assert_eq!(r.step, 1);
        // With step 1 a long job rounds to itself.
        assert_eq!(r.classes[0].size, 100);
    }

    #[test]
    fn table_size_saturates_instead_of_wrapping() {
        // 64 classes of 3 jobs each: σ = 4⁶⁴ ≫ usize::MAX.
        let classes: Vec<Class> = (0..64)
            .map(|i| Class {
                size: 1000 + i,
                multiple: 1000 + i,
                jobs: vec![0, 1, 2],
            })
            .collect();
        let r = Rounding {
            target: 10_000,
            k: 100,
            step: 1,
            classes,
            short_jobs: vec![],
        };
        assert_eq!(r.table_size(), usize::MAX);
    }

    #[test]
    fn class_multiples_at_least_k() {
        // A long job has t > T/k, so its multiple ⌊t/step⌋ ≥ k when
        // step = ⌊T/k²⌋ ≥ 1 divides cleanly; verify on a spread of inputs.
        let inst = Instance::new(vec![26, 30, 40, 50, 75, 100], 2);
        let r = rounded(&inst, 100, 4);
        for c in &r.classes {
            assert!(c.multiple >= 4, "multiple {} < k", c.multiple);
        }
    }
}
