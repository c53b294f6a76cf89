//! Block-major memory layout: the paper's data-partitioning scheme.
//!
//! Algorithm 4 cuts the DP table into equal higher-dimensional blocks and
//! *reorganises memory* so every block is contiguous (lines 20–28). The
//! payoffs claimed by the paper, all of which the simulator and the blocked
//! CPU sweep exercise:
//!
//! * sub-configuration searches scan one block instead of the whole table
//!   (Alg. 5 lines 26–28 vs. Alg. 2 lines 18–19);
//! * a warp's accesses land in one contiguous block → coalesced
//!   transactions instead of strided ones;
//! * blocks on the same *block-level* (`Σᵢ bᵢ`) are mutually independent
//!   and can run concurrently on different streams;
//! * memory can be allocated per block instead of per table.
//!
//! The offset formula here is the bijection evidently intended by
//! Algorithm 4 lines 20–27 (`M_offset = block_flat · cells_per_block +
//! in_block_offset`); the literal pseudocode's `(cᵢ − block_size[i]) · f₂`
//! and `jobsPerBlock × (block_size[i]+1)` do not index a permutation, so we
//! implement the corrected arithmetic and prove bijectivity in tests.

use crate::antidiag::LevelBuckets;
use crate::partition::Divisor;
use crate::shape::Shape;

/// A block-partitioned view of a table shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedLayout {
    /// Shape of the underlying table.
    shape: Shape,
    /// Segment counts per dimension.
    divisor: Divisor,
    /// Shape of the grid of blocks (extent = divisor per dim).
    grid: Shape,
    /// Shape of a single block (extent = block size per dim).
    block: Shape,
    /// Cells per block (product of block sizes).
    cells_per_block: usize,
}

impl BlockedLayout {
    /// Builds the layout for `shape` cut by `divisor`.
    pub fn new(shape: Shape, divisor: Divisor) -> Self {
        assert_eq!(shape.ndim(), divisor.ndim(), "divisor arity mismatch");
        let block_sizes = divisor.block_sizes(&shape);
        let grid = Shape::new(divisor.per_dim());
        let block = Shape::new(&block_sizes);
        let cells_per_block = block.size();
        Self {
            shape,
            divisor,
            grid,
            block,
            cells_per_block,
        }
    }

    #[inline]
    /// The underlying table shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    #[inline]
    /// The divisor this layout was built from.
    pub fn divisor(&self) -> &Divisor {
        &self.divisor
    }

    /// Shape of the block grid: one cell per block.
    #[inline]
    pub fn grid(&self) -> &Shape {
        &self.grid
    }

    /// Shape of one block.
    #[inline]
    pub fn block_shape(&self) -> &Shape {
        &self.block
    }

    #[inline]
    /// Total number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.grid.size()
    }

    #[inline]
    /// Cells in each (equal-sized) block.
    pub fn cells_per_block(&self) -> usize {
        self.cells_per_block
    }

    /// Block multi-index containing the table cell `idx`.
    pub fn block_of(&self, idx: &[usize], out: &mut [usize]) {
        for ((o, &c), &bs) in out.iter_mut().zip(idx).zip(self.block.extents()) {
            *o = c / bs;
        }
    }

    /// Blocked (block-major) offset of a table multi-index: the paper's
    /// `M_offset(c₁,…,c_d)`.
    #[inline]
    pub fn blocked_offset(&self, idx: &[usize]) -> usize {
        let mut block_flat = 0usize;
        let mut in_flat = 0usize;
        for (i, &c) in idx.iter().enumerate() {
            let bs = self.block.extents()[i];
            block_flat += (c / bs) * self.grid.strides()[i];
            in_flat += (c % bs) * self.block.strides()[i];
        }
        block_flat * self.cells_per_block + in_flat
    }

    /// Blocked offset of a row-major flat index.
    pub fn blocked_offset_of_flat(&self, flat: usize) -> usize {
        let mut idx = vec![0usize; self.shape.ndim()];
        self.shape.unflatten_into(flat, &mut idx);
        self.blocked_offset(&idx)
    }

    /// Inverse of [`Self::blocked_offset`]: the table multi-index stored at
    /// a blocked offset, written into `out`.
    pub fn unblock_into(&self, offset: usize, out: &mut [usize]) {
        debug_assert!(offset < self.shape.size());
        let block_flat = offset / self.cells_per_block;
        let in_flat = offset % self.cells_per_block;
        let mut b = vec![0usize; self.shape.ndim()];
        self.grid.unflatten_into(block_flat, &mut b);
        let mut r = vec![0usize; self.shape.ndim()];
        self.block.unflatten_into(in_flat, &mut r);
        for (i, o) in out.iter_mut().enumerate() {
            *o = b[i] * self.block.extents()[i] + r[i];
        }
    }

    /// The contiguous range a block occupies in blocked storage.
    pub fn block_region(&self, block_flat: usize) -> std::ops::Range<usize> {
        debug_assert!(block_flat < self.num_blocks());
        let start = block_flat * self.cells_per_block;
        start..start + self.cells_per_block
    }

    /// Base (lowest) table multi-index of a block, written into `out`.
    pub fn block_base(&self, block_flat: usize, out: &mut [usize]) {
        self.grid.unflatten_into(block_flat, out);
        for (o, &bs) in out.iter_mut().zip(self.block.extents()) {
            *o *= bs;
        }
    }

    /// The full permutation: `perm[row_major_flat] = blocked_offset`.
    ///
    /// This is the memory reorganisation of Algorithm 4 lines 20–28,
    /// materialised once per table.
    pub fn permutation(&self) -> Vec<usize> {
        let mut perm = vec![0usize; self.shape.size()];
        let mut it = self.shape.iter();
        let mut flat = 0usize;
        while let Some(idx) = it.next_ref() {
            perm[flat] = self.blocked_offset(idx);
            flat += 1;
        }
        perm
    }

    /// Reorganises row-major data into block-major order.
    pub fn reorganize<T: Clone>(&self, row_major: &[T]) -> Vec<T> {
        assert_eq!(row_major.len(), self.shape.size());
        let mut out = row_major.to_vec();
        let mut it = self.shape.iter();
        let mut flat = 0usize;
        while let Some(idx) = it.next_ref() {
            out[self.blocked_offset(idx)] = row_major[flat].clone();
            flat += 1;
        }
        out
    }

    /// Inverse of [`Self::reorganize`]: restores row-major order.
    pub fn scatter_back<T: Clone>(&self, blocked: &[T]) -> Vec<T> {
        assert_eq!(blocked.len(), self.shape.size());
        let mut out = blocked.to_vec();
        let mut it = self.shape.iter();
        let mut flat = 0usize;
        while let Some(idx) = it.next_ref() {
            out[flat] = blocked[self.blocked_offset(idx)].clone();
            flat += 1;
        }
        out
    }
}

/// Blocks grouped by *block-level* `Σᵢ bᵢ` — the wavefront of blocks.
///
/// Blocks on one level are mutually independent: a dependency `v − s`
/// (`s ≥ 0`) lies in a block whose multi-index is componentwise ≤ the
/// block of `v`, and equal level + componentwise ≤ forces equality.
#[derive(Debug, Clone)]
pub struct BlockLevels {
    /// The block grid's anti-diagonal levels.
    levels: LevelBuckets,
}

impl BlockLevels {
    /// Groups the layout's blocks by block-level.
    pub fn new(layout: &BlockedLayout) -> Self {
        Self {
            levels: LevelBuckets::new(layout.grid()),
        }
    }

    #[inline]
    /// Number of block-levels.
    pub fn num_levels(&self) -> usize {
        self.levels.num_levels()
    }

    /// Flat block ids on block-level `l`, in increasing order.
    #[inline]
    pub fn level(&self, l: usize) -> &[usize] {
        self.levels.level(l)
    }

    /// Iterates `(block_level, block_ids)` pairs in dependency order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[usize])> {
        self.levels.iter()
    }

    /// Width of the widest block-level (peak block concurrency).
    pub fn max_width(&self) -> usize {
        self.levels.max_width()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::DivisorRule;

    fn layout(extents: &[usize], divisor: &[usize]) -> BlockedLayout {
        let shape = Shape::new(extents);
        let d = Divisor::from_parts(&shape, divisor);
        BlockedLayout::new(shape, d)
    }

    #[test]
    fn fig2_example_6x6x6_divided_3x3x3() {
        // Fig. 2 of the paper: 6×6×6 table, divisor (3,3,3) → 27 blocks of
        // 2×2×2, 7 block-levels, 4 in-block anti-diagonal levels.
        let l = layout(&[6, 6, 6], &[3, 3, 3]);
        assert_eq!(l.num_blocks(), 27);
        assert_eq!(l.cells_per_block(), 8);
        let bl = BlockLevels::new(&l);
        assert_eq!(bl.num_levels(), 7);
        assert_eq!(l.block_shape().max_level() + 1, 4);
    }

    #[test]
    fn blocked_offset_is_bijection() {
        let l = layout(&[6, 4, 6], &[3, 2, 2]);
        let perm = l.permutation();
        let mut seen = vec![false; perm.len()];
        for &p in &perm {
            assert!(!seen[p], "offset {p} hit twice");
            seen[p] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unblock_inverts_blocked_offset() {
        let l = layout(&[4, 6, 2], &[2, 3, 1]);
        let mut idx = vec![0usize; 3];
        for flat in 0..l.shape().size() {
            l.shape().unflatten_into(flat, &mut idx);
            let off = l.blocked_offset(&idx);
            let mut back = vec![0usize; 3];
            l.unblock_into(off, &mut back);
            assert_eq!(back, idx);
        }
    }

    #[test]
    fn cells_of_a_block_are_contiguous() {
        let l = layout(&[6, 6], &[3, 3]);
        for bf in 0..l.num_blocks() {
            let region = l.block_region(bf);
            let mut base = vec![0usize; 2];
            l.block_base(bf, &mut base);
            // Every cell whose block is bf maps into the region, and the
            // region is exactly filled.
            let mut hits = 0;
            let mut idx = vec![0usize; 2];
            for flat in 0..l.shape().size() {
                l.shape().unflatten_into(flat, &mut idx);
                let mut b = vec![0usize; 2];
                l.block_of(&idx, &mut b);
                let bflat = l.grid().flatten(&b);
                if bflat == bf {
                    let off = l.blocked_offset(&idx);
                    assert!(region.contains(&off));
                    hits += 1;
                }
            }
            assert_eq!(hits, l.cells_per_block());
        }
    }

    #[test]
    fn reorganize_then_scatter_back_roundtrips() {
        let l = layout(&[6, 4, 2], &[2, 2, 2]);
        let data: Vec<u32> = (0..l.shape().size() as u32).collect();
        let blocked = l.reorganize(&data);
        assert_ne!(blocked, data, "partitioning should permute something");
        assert_eq!(l.scatter_back(&blocked), data);
    }

    #[test]
    fn identity_divisor_is_identity_permutation() {
        let shape = Shape::new(&[4, 5]);
        let l = BlockedLayout::new(shape.clone(), Divisor::identity(2));
        let perm = l.permutation();
        assert!(perm.iter().enumerate().all(|(i, &p)| i == p));
    }

    #[test]
    fn block_levels_partition_blocks_and_respect_dependencies() {
        let l = layout(&[6, 6, 6], &[3, 3, 3]);
        let bl = BlockLevels::new(&l);
        let total: usize = bl.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(total, l.num_blocks());
        // Same-level blocks are pairwise incomparable under componentwise ≤.
        for (_, blocks) in bl.iter() {
            for &a in blocks {
                for &b in blocks {
                    if a == b {
                        continue;
                    }
                    let ma = l.grid().unflatten(a);
                    let mb = l.grid().unflatten(b);
                    let dominated = ma.iter().zip(&mb).all(|(x, y)| x <= y);
                    assert!(!dominated, "blocks {ma:?} and {mb:?} on one level");
                }
            }
        }
    }

    #[test]
    fn computed_divisor_from_paper_shapes_builds_valid_layout() {
        for extents in [
            vec![6usize, 4, 6, 6, 4],
            vec![5, 3, 6, 3, 4, 4, 2],
            vec![3, 16, 15, 18],
            vec![5, 6, 3, 7, 6, 4, 8, 3],
        ] {
            let shape = Shape::new(&extents);
            for dim_limit in 3..=9 {
                let d = Divisor::compute(&shape, dim_limit, DivisorRule::TableConsistent);
                let l = BlockedLayout::new(shape.clone(), d);
                assert_eq!(l.num_blocks() * l.cells_per_block(), shape.size());
            }
        }
    }
}
