//! Machine-configuration enumeration — the inner loop of the DP.
//!
//! A *machine configuration* for a cell `v` is a vector `s` with
//! `0 ≤ sᵢ ≤ vᵢ` and `Σᵢ sᵢ·sizeᵢ ≤ T`: a load of rounded long jobs that
//! one machine can finish within the target makespan. The DP recurrence
//! (paper Eq. 1) minimises over exactly these vectors, so enumeration cost
//! dominates the whole PTAS; the enumerator below is a depth-first sweep
//! with capacity pruning that also carries the *flat-offset delta*
//! `Σᵢ sᵢ·strideᵢ`, letting the DP engines read `OPT(v − s)` with one
//! subtraction instead of re-flattening a multi-index per configuration.

use std::ops::ControlFlow;

/// Visits every configuration `s ≤ bound` with `Σ sᵢ·sizeᵢ ≤ cap`,
/// including the zero vector, in lexicographic order.
///
/// `f` receives `(s, weight, offset_delta)` where `offset_delta =
/// Σ sᵢ·strideᵢ` for the supplied `strides` (pass all-zeros if unused).
pub fn for_each_config<F>(bound: &[usize], sizes: &[u64], strides: &[usize], cap: u64, f: &mut F)
where
    F: FnMut(&[usize], u64, usize),
{
    let mut s = vec![0usize; bound.len()];
    let _ = walk_configs(
        bound,
        sizes,
        strides,
        cap,
        Order::Ascending,
        &mut s,
        &mut |s, w, o| {
            f(s, w, o);
            ControlFlow::Continue(())
        },
    );
}

/// The order in which [`walk_configs`] visits each class's counts.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Order {
    /// `0, 1, …, max` per class: lexicographic order, zero vector first.
    Ascending,
    /// `max, …, 1, 0` per class: reverse lexicographic order, heaviest
    /// first in the leading class, zero vector last.
    Descending,
}

/// The one configuration walk: a depth-first sweep with capacity pruning
/// over the configurations `s ≤ bound`, enumerating into a caller-owned
/// buffer `s` (`bound.len()` zeros) so a loop over many cells allocates
/// nothing per cell.
///
/// `f` receives `(s, weight, offset_delta)` as in [`for_each_config`] and
/// stops the walk by returning `Break`. A walk that runs to the end
/// leaves `s` all zeros; a stopped walk leaves the stopping configuration
/// in `s`.
pub(crate) fn walk_configs<F>(
    bound: &[usize],
    sizes: &[u64],
    strides: &[usize],
    cap: u64,
    order: Order,
    s: &mut [usize],
    f: &mut F,
) -> ControlFlow<()>
where
    F: FnMut(&[usize], u64, usize) -> ControlFlow<()>,
{
    debug_assert_eq!(bound.len(), sizes.len());
    debug_assert_eq!(bound.len(), strides.len());
    debug_assert!(s.len() == bound.len() && s.iter().all(|&x| x == 0));
    recurse(0, bound, sizes, strides, cap, order, 0, 0, s, f)
}

#[allow(clippy::too_many_arguments)]
fn recurse<F>(
    dim: usize,
    bound: &[usize],
    sizes: &[u64],
    strides: &[usize],
    cap: u64,
    order: Order,
    weight: u64,
    offset: usize,
    s: &mut [usize],
    f: &mut F,
) -> ControlFlow<()>
where
    F: FnMut(&[usize], u64, usize) -> ControlFlow<()>,
{
    if dim == bound.len() {
        return f(s, weight, offset);
    }
    let size = sizes[dim];
    let remaining = cap - weight;
    // Capacity prune: sᵢ can be at most ⌊remaining/sizeᵢ⌋.
    let max_count = match remaining.checked_div(size) {
        Some(q) => bound[dim].min(q as usize),
        None => bound[dim],
    };
    for i in 0..=max_count {
        let count = match order {
            Order::Ascending => i,
            Order::Descending => max_count - i,
        };
        s[dim] = count;
        recurse(
            dim + 1,
            bound,
            sizes,
            strides,
            cap,
            order,
            weight + count as u64 * size,
            offset + count * strides[dim],
            s,
            f,
        )?;
    }
    s[dim] = 0;
    ControlFlow::Continue(())
}

/// Number of configurations `s ≤ bound` with weight ≤ `cap` (including
/// the zero vector) — the per-cell work the execution models charge for.
pub fn count_configs(bound: &[usize], sizes: &[u64], cap: u64) -> u64 {
    let zeros = vec![0usize; bound.len()];
    let mut count = 0u64;
    for_each_config(bound, sizes, &zeros, cap, &mut |_, _, _| count += 1);
    count
}

/// Size of the dominated box `Π (boundᵢ + 1)` — the paper's
/// `#(v_subconfig)`, the number of *candidate* sub-configurations a
/// GPU `FindValidSub` launch screens before capacity filtering.
pub fn dominated_box_size(bound: &[usize]) -> u64 {
    bound.iter().map(|&b| b as u64 + 1).product()
}

/// All feasible configurations of the full count vector (the paper's set
/// `C`), as owned vectors. Excludes the zero vector.
pub fn all_configs(counts: &[usize], sizes: &[u64], cap: u64) -> Vec<Vec<usize>> {
    let zeros = vec![0usize; counts.len()];
    let mut out = Vec::new();
    for_each_config(counts, sizes, &zeros, cap, &mut |s, _, _| {
        if s.iter().any(|&x| x > 0) {
            out.push(s.to_vec());
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerates_exactly_the_feasible_box() {
        // bound (2,1), sizes (3,5), cap 10:
        // s ∈ {(0,0),(0,1),(1,0),(1,1),(2,0)}; (2,1)=11 excluded.
        let mut got = Vec::new();
        for_each_config(&[2, 1], &[3, 5], &[0, 0], 10, &mut |s, w, _| {
            got.push((s.to_vec(), w));
        });
        assert_eq!(
            got,
            vec![
                (vec![0, 0], 0),
                (vec![0, 1], 5),
                (vec![1, 0], 3),
                (vec![1, 1], 8),
                (vec![2, 0], 6),
            ]
        );
    }

    #[test]
    fn descending_walk_reverses_the_order_and_stops_on_break() {
        let mut got = Vec::new();
        let mut s = [0usize; 2];
        let flow = walk_configs(
            &[2, 1],
            &[3, 5],
            &[0, 0],
            10,
            Order::Descending,
            &mut s,
            &mut |s, _, _| {
                got.push(s.to_vec());
                ControlFlow::Continue(())
            },
        );
        assert!(flow.is_continue());
        assert_eq!(
            got,
            vec![vec![2, 0], vec![1, 1], vec![1, 0], vec![0, 1], vec![0, 0]]
        );
        assert_eq!(s, [0, 0]);
        // A break ends the walk and leaves the stopping configuration.
        let mut visited = 0;
        let flow = walk_configs(
            &[2, 1],
            &[3, 5],
            &[0, 0],
            10,
            Order::Descending,
            &mut s,
            &mut |s, _, _| {
                visited += 1;
                if s == [1, 0] {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        assert!(flow.is_break());
        assert_eq!((visited, s), (3, [1, 0]));
    }

    #[test]
    fn offset_delta_matches_strides() {
        let strides = [12usize, 4, 1];
        for_each_config(&[1, 2, 3], &[2, 2, 2], &strides, 100, &mut |s, _, off| {
            let expect: usize = s.iter().zip(&strides).map(|(&a, &b)| a * b).sum();
            assert_eq!(off, expect);
        });
    }

    #[test]
    fn count_configs_equals_box_when_cap_loose() {
        let bound = [2usize, 3, 1];
        let sizes = [1u64, 1, 1];
        assert_eq!(
            count_configs(&bound, &sizes, 1_000),
            dominated_box_size(&bound)
        );
    }

    #[test]
    fn count_configs_capacity_prunes() {
        // Only (0) and (1) fit: 2·5 > 7.
        assert_eq!(count_configs(&[3], &[5], 7), 2);
        // Zero-capacity still admits the zero vector.
        assert_eq!(count_configs(&[3], &[5], 0), 1);
    }

    #[test]
    fn all_configs_excludes_zero_and_respects_cap() {
        let configs = all_configs(&[2, 2], &[4, 6], 10);
        assert!(!configs.iter().any(|c| c.iter().all(|&x| x == 0)));
        for c in &configs {
            let w: u64 = c.iter().zip([4u64, 6]).map(|(&a, b)| a as u64 * b).sum();
            assert!(w <= 10);
        }
        // (1,0),(2,0),(0,1),(1,1): (2,1)=14,(0,2)=12,… excluded.
        assert_eq!(configs.len(), 4);
    }

    #[test]
    fn paper_subconfig_counts_example() {
        // §III.B: 3-d configurations (1,2,1) and (0,0,4) — the first has
        // 11 proper sub-configurations + itself + zero in its dominated
        // box of 12; (0,0,4) has a box of 5 (4 proper + zero).
        assert_eq!(dominated_box_size(&[1, 2, 1]), 12);
        assert_eq!(dominated_box_size(&[0, 0, 4]), 5);
    }

    #[test]
    fn empty_dimensionality_yields_single_zero_config() {
        let mut calls = 0;
        for_each_config(&[], &[], &[], 5, &mut |s, w, o| {
            assert!(s.is_empty());
            assert_eq!((w, o), (0, 0));
            calls += 1;
        });
        assert_eq!(calls, 1);
    }
}
