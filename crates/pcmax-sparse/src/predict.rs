//! The cheap representation predictor.
//!
//! Before a serving layer commits to a DP representation it needs two
//! numbers it can compute in microseconds: how many cells the dense
//! table has, and roughly how many cells the sparse frontier would keep
//! resident. [`predict`] supplies both;
//! [`SparsePrediction::choose`] turns them into the dense → sparse →
//! paged admission ladder.
//!
//! The sparse estimate is deliberately crude and *upper-biased*: the
//! frontier retains antichain slices of the value surfaces, which the
//! model approximates as `(M̂ + 2)` surfaces (M̂ = the area lower bound
//! `⌈Σ nᵢ·sizeᵢ / cap⌉` on machines) of twice the *average* anti-diagonal
//! width `σ/(n′+1)`, floored at `n′ + 2` cells (the sweep settles at
//! least one chain to the goal). A prediction is admission advice, not a
//! guarantee — the runtime cap of
//! [`crate::sweep::SparseProblem::solve_bounded`] is the authoritative
//! backstop when an instance defeats the model.

/// Which DP representation the ladder picks for a probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannedRepr {
    /// Dense in-RAM table (any of the dense engines).
    Dense,
    /// Sparse dominance-pruned frontier.
    Sparse,
    /// Dense table paged through a tiered RAM/disk store.
    Paged,
}

impl std::fmt::Display for PlannedRepr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PlannedRepr::Dense => "dense",
            PlannedRepr::Sparse => "sparse",
            PlannedRepr::Paged => "paged",
        })
    }
}

/// Cell-count estimates for one DP problem under each representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparsePrediction {
    /// Dense table size `Π(nᵢ+1)`, saturating at `u64::MAX`.
    pub dense_cells: u64,
    /// Estimated resident sparse cells (upper-biased model, see module
    /// docs), always ≤ `dense_cells`.
    pub est_sparse_cells: u64,
}

/// Builds the prediction for `(counts, sizes, cap)` — the same triple a
/// `DpProblem` holds. Costs microseconds: one pass over the classes.
pub fn predict(counts: &[usize], sizes: &[u64], cap: u64) -> SparsePrediction {
    debug_assert_eq!(counts.len(), sizes.len());
    let dense_cells = counts
        .iter()
        .fold(1u64, |acc, &c| acc.saturating_mul(c as u64 + 1));
    let n_prime: u64 = counts.iter().map(|&c| c as u64).sum();
    let work: u128 = counts
        .iter()
        .zip(sizes)
        .map(|(&c, &s)| c as u128 * s as u128)
        .sum();
    // M̂: the area bound on machines used, clamped to [1, n′].
    let est_machines = (work.div_ceil(cap.max(1) as u128) as u64)
        .clamp(1, n_prime.max(1));
    // (M̂ + 2) value surfaces of twice the average anti-diagonal width,
    // floored at one chain to the goal, capped at the dense box.
    let avg_width = (dense_cells / (n_prime + 1)).max(1);
    let est = (est_machines as u128 + 2)
        .saturating_mul(2 * avg_width as u128)
        .saturating_add(n_prime as u128 + 2);
    let est_sparse_cells = u64::try_from(est).unwrap_or(u64::MAX).min(dense_cells.max(n_prime + 2));
    SparsePrediction {
        dense_cells,
        est_sparse_cells,
    }
}

impl SparsePrediction {
    /// The admission ladder: dense while the table fits the cell budget,
    /// else sparse while the *estimated* frontier fits (the solve itself
    /// is still run under the runtime cell cap), else paged when a page
    /// store is available. `None` means every representation is over
    /// budget and the caller should degrade.
    pub fn choose(&self, max_table_cells: u64, paged_available: bool) -> Option<PlannedRepr> {
        if self.dense_cells <= max_table_cells {
            Some(PlannedRepr::Dense)
        } else if self.est_sparse_cells <= max_table_cells {
            Some(PlannedRepr::Sparse)
        } else if paged_available {
            Some(PlannedRepr::Paged)
        } else {
            None
        }
    }

    /// The cell count of the cheapest representation this prediction
    /// would run — what admission control should compare against its
    /// budget (and report when degrading), instead of the dense count.
    pub fn min_predicted_cells(&self) -> u64 {
        self.dense_cells.min(self.est_sparse_cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_cells_are_the_box_size() {
        let p = predict(&[2, 2], &[4, 6], 10);
        assert_eq!(p.dense_cells, 9);
    }

    #[test]
    fn estimate_never_exceeds_the_dense_box_by_much() {
        let p = predict(&[1, 1], &[4, 6], 10);
        // Tiny problems: the floor (n′ + 2) may exceed the 4-cell box,
        // but dense wins the ladder there anyway.
        assert_eq!(p.choose(u64::MAX, false), Some(PlannedRepr::Dense));
        let big = predict(&[9; 8], &[31, 33, 35, 37, 41, 43, 45, 47], 96);
        assert!(big.est_sparse_cells < big.dense_cells);
    }

    #[test]
    fn ladder_picks_dense_sparse_paged_in_order() {
        let p = predict(&[9; 8], &[31, 33, 35, 37, 41, 43, 45, 47], 96);
        assert_eq!(p.dense_cells, 100_000_000);
        assert_eq!(p.choose(u64::MAX, false), Some(PlannedRepr::Dense));
        assert_eq!(
            p.choose(p.est_sparse_cells, false),
            Some(PlannedRepr::Sparse)
        );
        assert_eq!(p.choose(1, true), Some(PlannedRepr::Paged));
        assert_eq!(p.choose(1, false), None);
        assert_eq!(p.min_predicted_cells(), p.est_sparse_cells);
    }

    #[test]
    fn oversized_even_sparse_without_store_degrades() {
        // 12 long jobs, one class each: n′ = 12 so even the sparse floor
        // exceeds an 8-cell budget — the serve `oversized_tables_degrade`
        // contract.
        let counts = vec![1usize; 12];
        let sizes: Vec<u64> = (50..62).collect();
        let p = predict(&counts, &sizes, 100);
        assert!(p.est_sparse_cells > 8);
        assert_eq!(p.choose(8, false), None);
    }

    #[test]
    fn empty_problem_predicts_one_dense_cell() {
        let p = predict(&[], &[], 10);
        assert_eq!(p.dense_cells, 1);
        assert_eq!(p.choose(1, false), Some(PlannedRepr::Dense));
    }
}
