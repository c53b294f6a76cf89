//! Anti-diagonal levels: the wavefront structure of componentwise-≤ DPs.
//!
//! A cell `v` of the recurrence `OPT(v) = 1 + min_{s ∈ C, 0 ≠ s ≤ v}
//! OPT(v − s)` depends only on cells with a strictly smaller component sum.
//! Grouping cells by `ℓ(v) = Σᵢ vᵢ` therefore yields `max_level + 1`
//! *anti-diagonal levels*; all cells on one level are mutually independent
//! and can be filled in parallel once every earlier level is complete
//! (Ghalami–Grosu, Algorithm 2).

use crate::shape::Shape;

/// Flat indices of a table grouped by anti-diagonal level: one flat
/// index vector sorted by level, plus the offset where each level starts.
#[derive(Debug, Clone)]
pub struct LevelBuckets {
    /// Every flat index, level by level, row-major within a level.
    order: Vec<usize>,
    /// `order[starts[l]..starts[l + 1]]` is level `l`.
    starts: Vec<usize>,
}

impl LevelBuckets {
    /// Builds the level order for `shape` with one counting sort — the
    /// parallel-for of Algorithm 2 (lines 4–8) computes exactly these
    /// `d_i` values; here they are sorted once so each level can be handed
    /// to a parallel iterator without rescanning the whole table per level
    /// (the `if d_i = l` filter of Alg. 2 line 12).
    ///
    /// The level sizes come from [`level_widths`]; the one pass over the
    /// cells carries each cell's level on a row-major odometer, so no cell
    /// costs a division.
    pub fn new(shape: &Shape) -> Self {
        let widths = level_widths(shape);
        let mut starts = Vec::with_capacity(widths.len() + 1);
        let mut total = 0;
        starts.push(total);
        for w in &widths {
            total += w;
            starts.push(total);
        }
        let mut next = starts[..widths.len()].to_vec();
        let mut order = vec![0usize; shape.size()];
        let extents = shape.extents();
        let mut idx = vec![0usize; extents.len()];
        let mut level = 0;
        for flat in 0..shape.size() {
            order[next[level]] = flat;
            next[level] += 1;
            // Row-major increment: bump the last dimension, carrying left.
            for d in (0..idx.len()).rev() {
                if idx[d] + 1 < extents[d] {
                    idx[d] += 1;
                    level += 1;
                    break;
                }
                level -= idx[d];
                idx[d] = 0;
            }
        }
        Self { order, starts }
    }

    /// Number of levels (`max_level + 1`).
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.starts.len() - 1
    }

    /// Flat indices on level `l`, in increasing (row-major) order.
    #[inline]
    pub fn level(&self, l: usize) -> &[usize] {
        &self.order[self.starts[l]..self.starts[l + 1]]
    }

    /// Iterates `(level, cells)` pairs in dependency order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[usize])> {
        (0..self.num_levels()).map(|l| (l, self.level(l)))
    }

    /// The size of the widest level — the maximum degree of cell-level
    /// parallelism the table offers.
    pub fn max_width(&self) -> usize {
        self.starts
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }

    /// Total number of cells across all levels (equals `shape.size()`).
    pub fn total_cells(&self) -> usize {
        self.order.len()
    }
}

/// Number of cells on each anti-diagonal level, computed without
/// visiting the cells. [`LevelBuckets::new`] sizes its levels with it, and
/// the execution models use it where only the level *widths* matter.
pub fn level_widths(shape: &Shape) -> Vec<usize> {
    // Dynamic programming over dimensions: widths of the prefix shape,
    // convolved with each new extent. O(ndim · size-of-level-vector²)
    // worst case but tiny in practice (levels ≤ a few hundred).
    let mut widths = vec![1usize];
    for &e in shape.extents() {
        let mut next = vec![0usize; widths.len() + e - 1];
        for (l, &w) in widths.iter().enumerate() {
            for add in 0..e {
                next[l + add] += w;
            }
        }
        widths = next;
    }
    widths
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_table() {
        let shape = Shape::new(&[3, 4, 2]);
        let lb = LevelBuckets::new(&shape);
        assert_eq!(lb.total_cells(), shape.size());
        assert_eq!(lb.num_levels(), shape.max_level() + 1);
        let mut seen = vec![false; shape.size()];
        for (l, cells) in lb.iter() {
            for &c in cells {
                assert!(!seen[c]);
                seen[c] = true;
                assert_eq!(shape.level_of_flat(c), l);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn level_order_holds_every_cell_once_in_row_major_order_per_level() {
        // Extent-1 dimensions (leading, inner and trailing), one-dimensional
        // shapes and the single-cell shape all go through the odometer.
        for extents in [
            vec![1],
            vec![7],
            vec![1, 1, 1],
            vec![1, 4, 1, 3, 1],
            vec![3, 1, 2],
            vec![2, 3, 4, 2],
        ] {
            let shape = Shape::new(&extents);
            let lb = LevelBuckets::new(&shape);
            assert_eq!(lb.num_levels(), shape.max_level() + 1, "{extents:?}");
            let mut seen = vec![0usize; shape.size()];
            for (l, cells) in lb.iter() {
                assert!(
                    cells.windows(2).all(|w| w[0] < w[1]),
                    "{extents:?} level {l}"
                );
                for &c in cells {
                    seen[c] += 1;
                    assert_eq!(shape.level_of_flat(c), l, "{extents:?} cell {c}");
                }
            }
            assert!(seen.iter().all(|&n| n == 1), "{extents:?}: {seen:?}");
        }
    }

    #[test]
    fn level_zero_is_origin_and_last_is_full_corner() {
        let shape = Shape::new(&[3, 3]);
        let lb = LevelBuckets::new(&shape);
        assert_eq!(lb.level(0), &[0]);
        assert_eq!(lb.level(lb.num_levels() - 1), &[shape.size() - 1]);
    }

    #[test]
    fn levels_sorted_row_major() {
        let shape = Shape::new(&[4, 4]);
        let lb = LevelBuckets::new(&shape);
        for (_, cells) in lb.iter() {
            assert!(cells.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn level_widths_match_buckets() {
        for extents in [vec![2, 3, 4], vec![6, 6, 6], vec![1, 5], vec![2, 2, 2, 2, 2]] {
            let shape = Shape::new(&extents);
            let lb = LevelBuckets::new(&shape);
            let widths = level_widths(&shape);
            assert_eq!(widths.len(), lb.num_levels());
            for (l, cells) in lb.iter() {
                assert_eq!(widths[l], cells.len(), "level {l} of {extents:?}");
            }
        }
    }

    #[test]
    fn max_width_of_square_2d_is_diagonal() {
        let shape = Shape::new(&[5, 5]);
        assert_eq!(LevelBuckets::new(&shape).max_width(), 5);
    }

    #[test]
    fn paper_example_3d_configuration_levels() {
        // §III.B: (1,2,1) and (0,0,4) are on the same anti-diagonal level.
        let shape = Shape::new(&[5, 5, 5]);
        assert_eq!(shape.level_of_flat(shape.flatten(&[1, 2, 1])), 4);
        assert_eq!(shape.level_of_flat(shape.flatten(&[0, 0, 4])), 4);
    }
}
