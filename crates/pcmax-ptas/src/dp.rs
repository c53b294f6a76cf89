//! The higher-dimensional dynamic program `OPT(N)` and its engines.
//!
//! `OPT(v)` is the minimum number of machines that schedule the job
//! multiset described by `v` (vᵢ jobs of rounded size `sizeᵢ`) with every
//! machine load ≤ `cap`. Recurrence (paper Eq. 1):
//!
//! ```text
//! OPT(0) = 0
//! OPT(v) = 1 + min { OPT(v − s) : s ∈ C(v) }   (s ≠ 0, s ≤ v, Σ sᵢ·sizeᵢ ≤ cap)
//! ```
//!
//! Every engine fills the same table and must agree cell-for-cell; all
//! dense ones evaluate cells through one `compute_cell`:
//!
//! * [`DpEngine::Sequential`] — a plain row-major sweep (row-major order
//!   is a topological order of the recurrence);
//! * [`DpEngine::AntiDiagonal`] — the Ghalami–Grosu parallel sweep
//!   (Algorithm 2): levels `ℓ = Σ vᵢ` in sequence, all cells of a level
//!   through rayon;
//! * the *block sweep* — the paper's data-partitioning scheme on the
//!   CPU (Alg. 4/5): the table is cut by the Algorithm-4 divisor, stored
//!   block-major, and swept by *block-levels* (blocks of one level in
//!   parallel, cells inside a block by in-block anti-diagonals). One loop
//!   serves two block sources: [`DpEngine::Blocked`] keeps committed
//!   blocks in a RAM vector, while [`DpProblem::solve_paged`] commits them
//!   as pages of a tiered store and faults dependency blocks back in, so
//!   only the frontier needs RAM. [`DpProblem::solve_paged_overlapped`]
//!   is the same loop with a stream hook that writes level ℓ−1 behind
//!   and prefetches level ℓ+1's dependencies while level ℓ computes (the
//!   paper's 4-stream round-robin). The blocked traversal is the one the
//!   simulated GPU executes, so its cell values double as the reference
//!   output for `pcmax-gpu`;
//! * the sparse engine ([`DpProblem::solve_sparse`], from `pcmax-sparse`)
//!   — dominance-pruned layers of reachable cells instead of the full
//!   table.

use crate::config::{walk_configs, Order};
use crate::rounding::Rounding;
use ndtable::partition::DivisorRule;
use ndtable::{BlockLevels, BlockedLayout, Divisor, LevelBuckets, PagedTable, Shape};
use pcmax_store::{CellWidth, Page, StoreError, TieredStore};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::convert::Infallible;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Sentinel for "no feasible packing" (some single job exceeds `cap`).
pub const INFEASIBLE: u32 = u32::MAX;

/// A DP instance: `countsᵢ` jobs of rounded size `sizesᵢ`, machine
/// capacity `cap`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpProblem {
    counts: Vec<usize>,
    sizes: Vec<u64>,
    cap: u64,
    shape: Shape,
}

/// Canonical identity of a DP problem, for memoising results *across*
/// instances and targets.
///
/// Two problems share a key iff their tables are cell-for-cell identical.
/// Beyond the obvious `(counts, sizes, cap)` triple, the key divides the
/// sizes by their common gcd `g` and replaces `cap` with `⌊cap/g⌋`: every
/// configuration weight `Σ sᵢ·sizeᵢ` is a multiple of `g`, so
/// `Σ sᵢ·sizeᵢ ≤ cap ⟺ Σ sᵢ·(sizeᵢ/g) ≤ ⌊cap/g⌋` and the normalised
/// problem enumerates exactly the same configurations. Scaled copies of
/// an instance probed at proportionally scaled targets therefore collapse
/// to one key — the cross-request reuse a solver service exploits.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DpKey {
    counts: Vec<usize>,
    sizes: Vec<u64>,
    cap: u64,
}

impl DpKey {
    /// The class-count vector of the canonical problem.
    #[inline]
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// The gcd-normalised class sizes.
    #[inline]
    pub fn sizes(&self) -> &[u64] {
        &self.sizes
    }

    /// The normalised capacity.
    #[inline]
    pub fn cap(&self) -> u64 {
        self.cap
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Which engine fills the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DpEngine {
    /// Row-major sequential sweep.
    Sequential,
    /// Anti-diagonal wavefront, cells of a level in parallel (Alg. 2).
    AntiDiagonal,
    /// Data-partitioned block-major sweep (Alg. 4/5 traversal) with the
    /// given `dim` parameter (how many dimensions the divisor may split).
    Blocked {
        /// Maximum number of dimensions the divisor may split.
        dim_limit: usize,
    },
}

/// Where the block sweep keeps committed blocks.
enum Blocks {
    /// The whole table in RAM, block-major.
    Ram(Vec<u32>),
    /// Pages of a store-backed table; `overlap` runs [`overlap_streams`]
    /// alongside each block-level.
    Paged { table: PagedTable, overlap: bool },
}

impl Blocks {
    /// The committed cell at blocked offset `off`. `pages` memoises the
    /// pages one block has faulted.
    fn read(&self, off: usize, pages: &mut HashMap<usize, Arc<Page>>) -> Result<u32, StoreError> {
        match self {
            Blocks::Ram(vals) => Ok(vals[off]),
            Blocks::Paged { table, .. } => {
                let cells_per_block = table.layout().cells_per_block();
                let bf = off / cells_per_block;
                let page = match pages.entry(bf) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(e) => e.insert(table.fault_block(bf)?),
                };
                Ok(page.get(off - bf * cells_per_block))
            }
        }
    }

    /// Commits block `bf`'s finished cells.
    fn commit(
        &mut self,
        layout: &BlockedLayout,
        bf: usize,
        cells: Vec<u32>,
    ) -> Result<(), StoreError> {
        match self {
            Blocks::Ram(vals) => {
                vals[layout.block_region(bf)].copy_from_slice(&cells);
                Ok(())
            }
            Blocks::Paged { table, .. } => table.commit_block(bf, cells),
        }
    }

    /// The whole table in row-major order.
    fn into_row_major(self, layout: &BlockedLayout) -> Result<Vec<u32>, StoreError> {
        match self {
            Blocks::Ram(vals) => Ok(layout.scatter_back(&vals)),
            Blocks::Paged { table, .. } => table.gather(),
        }
    }
}

/// The overlapped paged sweep's background stream for block-level `l`,
/// mirroring the paper's Alg. 4 round-robin: drain level ℓ−1 first
/// (pre-written spill files make this level's commit-time demotions
/// free), then prefetch the committed dependencies of level ℓ+1 into
/// whatever RAM the drain freed up.
fn overlap_streams(table: &PagedTable, levels: &BlockLevels, l: usize) {
    if l >= 1 {
        for &bf in levels.level(l - 1) {
            let _ = table.write_behind_block(bf);
        }
    }
    if l + 1 < levels.num_levels() {
        for bf in dep_blocks_below(table.layout(), levels.level(l + 1), l) {
            let _ = table.prefetch_block(bf);
        }
    }
}

/// Every block the next block-level's sweep can fault: blocks
/// componentwise-dominated by a block of `next`, restricted to
/// block-levels `≤ max_level` (committed, hence possibly spilled —
/// later levels are either in flight or still hot). Deduplicated, in
/// discovery order.
fn dep_blocks_below(layout: &BlockedLayout, next: &[usize], max_level: usize) -> Vec<usize> {
    let grid = layout.grid();
    let mut seen = vec![false; grid.size()];
    let mut out = Vec::new();
    let mut g = vec![0usize; grid.ndim()];
    let mut b = vec![0usize; grid.ndim()];
    for &gf in next {
        grid.unflatten_into(gf, &mut g);
        // Odometer over the dominated box `{b : b ≤ g}`.
        b.iter_mut().for_each(|x| *x = 0);
        loop {
            let bf = grid.flatten(&b);
            if !seen[bf] {
                seen[bf] = true;
                if b.iter().sum::<usize>() <= max_level {
                    out.push(bf);
                }
            }
            let mut dim = 0;
            while dim < b.len() {
                if b[dim] < g[dim] {
                    b[dim] += 1;
                    break;
                }
                b[dim] = 0;
                dim += 1;
            }
            if dim == b.len() {
                break;
            }
        }
    }
    out
}

/// One thread's scratch for one level of the anti-diagonal sweep. Its
/// configuration count joins the level's total when the thread leaves
/// the level.
struct LevelScratch<'a> {
    v: Vec<usize>,
    s: Vec<usize>,
    configs: u64,
    level_configs: &'a AtomicU64,
}

impl<'a> LevelScratch<'a> {
    fn new(ndim: usize, level_configs: &'a AtomicU64) -> Self {
        Self {
            v: vec![0; ndim],
            s: vec![0; ndim],
            configs: 0,
            level_configs,
        }
    }
}

impl Drop for LevelScratch<'_> {
    fn drop(&mut self) {
        self.level_configs
            .fetch_add(self.configs, Ordering::Relaxed);
    }
}

/// Statistics of one DP run — the quantities the execution models charge.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DpStats {
    /// Cells in the table, `σ`.
    pub table_size: usize,
    /// Anti-diagonal levels swept (`n′ + 1` for unblocked engines).
    pub num_levels: usize,
    /// Configurations visited across all cells (the DP's inner-loop trip
    /// count). A cell its neighbours decide visits none, and a walk stops
    /// at the first configuration that meets the neighbours' bound, so
    /// this is at most the full enumeration
    /// [`crate::config::count_configs`] sums to.
    pub configs_enumerated: u64,
    /// Number of blocks (1 unless `Blocked`).
    pub num_blocks: usize,
    /// Number of block-levels (1 unless `Blocked`).
    pub num_block_levels: usize,
    /// Wall time of the sweep in µs. 0 unless `pcmax_obs` recording is
    /// enabled, so solutions stay deterministic (and `Eq`) by default.
    pub elapsed_us: u64,
    /// Per-level breakdown (anti-diagonal levels for the unblocked
    /// engines, block-levels for `Blocked`). Empty unless `pcmax_obs`
    /// recording is enabled.
    pub levels: Vec<DpLevelStat>,
}

/// Per-level sweep statistics (only populated while `pcmax_obs`
/// recording is enabled).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DpLevelStat {
    /// Cells computed in this level.
    pub cells: u64,
    /// Configurations visited by this level's cells.
    pub configs: u64,
    /// Wall time spent sweeping this level, in µs (0 for the sequential
    /// engine, whose row-major order interleaves levels).
    pub elapsed_us: u64,
}

/// The filled table plus metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpSolution {
    /// Cell values in row-major order (regardless of engine).
    pub values: Vec<u32>,
    /// `OPT(N)` — the value at the far corner.
    pub opt: u32,
    /// Engine statistics for this run.
    pub stats: DpStats,
}

impl DpProblem {
    /// Builds a problem.
    ///
    /// # Panics
    ///
    /// Panics if `counts` and `sizes` differ in length or any size is 0.
    pub fn new(counts: Vec<usize>, sizes: Vec<u64>, cap: u64) -> Self {
        assert_eq!(counts.len(), sizes.len(), "counts/sizes arity mismatch");
        assert!(sizes.iter().all(|&s| s > 0), "class sizes must be positive");
        let shape = if counts.is_empty() {
            Shape::new(&[1])
        } else {
            Shape::for_counts(&counts)
        };
        Self {
            counts,
            sizes,
            cap,
            shape,
        }
    }

    /// Builds the DP problem a [`Rounding`] induces (capacity = target).
    pub fn from_rounding(r: &Rounding) -> Self {
        Self::new(r.counts(), r.sizes(), r.target)
    }

    #[inline]
    /// Class counts `N`.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    #[inline]
    /// Rounded class sizes.
    pub fn sizes(&self) -> &[u64] {
        &self.sizes
    }

    #[inline]
    /// Machine capacity (the target makespan `T`).
    pub fn cap(&self) -> u64 {
        self.cap
    }

    /// Table shape (extent `nᵢ+1` per class; a 1-extent placeholder when
    /// there are no classes).
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Table size `σ`.
    #[inline]
    pub fn table_size(&self) -> usize {
        self.shape.size()
    }

    /// The canonical memoisation key of this problem (see [`DpKey`]).
    pub fn canonical_key(&self) -> DpKey {
        let g = self.sizes.iter().fold(0u64, |acc, &s| gcd(acc, s)).max(1);
        DpKey {
            counts: self.counts.clone(),
            sizes: self.sizes.iter().map(|&s| s / g).collect(),
            cap: self.cap / g,
        }
    }

    /// Computes one cell given read access to all dependency cells.
    ///
    /// `read(s, delta)` must return the final value of `v − s` (`delta`
    /// is its row-major offset below `v`), a cell on a smaller
    /// anti-diagonal level. The first read error aborts the cell. `s` is
    /// the caller's all-zero enumeration buffer, one entry per class,
    /// and holds zeros again when the call returns.
    /// Returns the cell value and the number of configurations visited.
    ///
    /// The neighbours `v − eᵢ` (one per class with `vᵢ > 0`) bracket the
    /// cell. With `L` and `H` their largest and smallest value and
    /// `w(v) = Σ vᵢ·sizeᵢ` (summed in u128, as it can pass u64):
    ///
    /// * a class of `v` with `sizeᵢ > cap` makes the cell [`INFEASIBLE`],
    ///   and nothing is read;
    /// * `OPT(v) ≥ max(L, ⌈w(v)/cap⌉)`: OPT is monotone in `v`, and no
    ///   machine holds more than `cap`;
    /// * `OPT(v) ≤ H + 1`: the extra job can go on a machine of its own.
    ///
    /// So `L > H` or `w(v) > H·cap` decides the cell as `H + 1` with no
    /// walk. Otherwise the value is `H` or `H + 1`: configurations are
    /// visited heaviest-first ([`Order::Descending`]) until one leaves a
    /// `v − s` of value `H − 1`, which makes the value `H`; if none does,
    /// it is `H + 1`. Either way it is the value the full minimum gives.
    #[inline]
    fn compute_cell<E>(
        &self,
        v: &[usize],
        s: &mut [usize],
        mut read: impl FnMut(&[usize], usize) -> Result<u32, E>,
    ) -> Result<(u32, u64), E> {
        if v.iter()
            .zip(&self.sizes)
            .any(|(&n, &size)| n > 0 && size > self.cap)
        {
            return Ok((INFEASIBLE, 0));
        }
        let strides = self.shape.strides();
        let mut weight = 0u128;
        let (mut low, mut high) = (0u32, INFEASIBLE);
        for i in 0..v.len() {
            if v[i] == 0 {
                continue;
            }
            weight = weight.saturating_add(v[i] as u128 * self.sizes[i] as u128);
            s[i] = 1;
            let neighbour = read(s, strides[i]);
            s[i] = 0;
            let neighbour = neighbour?;
            low = low.max(neighbour);
            high = high.min(neighbour);
        }
        // No neighbour: the origin. Every class of `v` fits, so every
        // neighbour is finite and `high + 1` cannot overflow.
        if high == INFEASIBLE {
            return Ok((0, 0));
        }
        if low > high || weight > high as u128 * self.cap as u128 {
            return Ok((high + 1, 0));
        }
        // `w(v) ≤ H·cap` with `w(v) > 0` gives `H ≥ 1`.
        let target = high - 1;
        let mut visited = 0u64;
        let mut err = None;
        let walk = walk_configs(
            v,
            &self.sizes,
            strides,
            self.cap,
            Order::Descending,
            s,
            &mut |s, _w, delta| {
                visited += 1;
                // The zero configuration schedules nothing.
                if delta == 0 {
                    return ControlFlow::Continue(());
                }
                match read(s, delta) {
                    Ok(val) if val <= target => ControlFlow::Break(()),
                    Ok(_) => ControlFlow::Continue(()),
                    Err(e) => {
                        err = Some(e);
                        ControlFlow::Break(())
                    }
                }
            },
        );
        if walk.is_break() {
            s.fill(0);
        }
        if let Some(e) = err {
            return Err(e);
        }
        let value = if walk.is_break() { high } else { high + 1 };
        Ok((value, visited))
    }

    /// Solves with the chosen engine.
    pub fn solve(&self, engine: DpEngine) -> DpSolution {
        match engine {
            DpEngine::Sequential => self.solve_sequential(),
            DpEngine::AntiDiagonal => self.solve_antidiagonal(),
            DpEngine::Blocked { dim_limit } => self.solve_blocked(dim_limit),
        }
    }

    /// Row-major sequential sweep.
    pub fn solve_sequential(&self) -> DpSolution {
        let timer = pcmax_obs::Timer::start();
        let sigma = self.shape.size();
        let mut values = vec![0u32; sigma];
        let mut configs = 0u64;
        let mut s = vec![0usize; self.shape.ndim()];
        // Row-major order interleaves anti-diagonal levels, so per-level
        // timing is meaningless here; when recording, cells are still
        // binned by level (ℓ = Σ vᵢ) for the trace's work attribution.
        let mut levels = if timer.is_recording() {
            vec![DpLevelStat::default(); self.shape.max_level() + 1]
        } else {
            Vec::new()
        };
        // A row-major odometer steps `v` from cell to cell.
        let mut cells = self.shape.iter();
        for flat in 0..sigma {
            let v = cells.next_ref().expect("one multi-index per cell");
            let Ok((val, c)) =
                self.compute_cell(v, &mut s, |_, d| Ok::<_, Infallible>(values[flat - d]));
            values[flat] = val;
            configs += c;
            if !levels.is_empty() {
                let level: usize = v.iter().sum();
                levels[level].cells += 1;
                levels[level].configs += c;
            }
        }
        self.finish(values, configs, 1, 1, timer.elapsed_us(), levels)
    }

    /// Anti-diagonal wavefront with rayon (Algorithm 2).
    pub fn solve_antidiagonal(&self) -> DpSolution {
        let timer = pcmax_obs::Timer::start();
        let levels = LevelBuckets::new(&self.shape);
        let ndim = self.shape.ndim();
        // Each cell is written once, by the thread that computes it, and
        // read only by cells of later levels. The pool orders every write
        // of a call before the call returns (a helper leaves with a
        // Release decrement that the caller's Acquire wait reads), and
        // the caller's writes before the next call's helpers join (an
        // Acquire exchange on the state the caller publishes), so relaxed
        // loads and stores suffice.
        let values: Vec<AtomicU32> = (0..self.shape.size()).map(|_| AtomicU32::new(0)).collect();
        let mut configs = 0u64;
        let mut level_stats = Vec::new();
        for (_, cells) in levels.iter() {
            let level_timer = pcmax_obs::Timer::start();
            let level_configs = AtomicU64::new(0);
            cells.par_iter().for_each_init(
                || LevelScratch::new(ndim, &level_configs),
                |scratch, &flat| {
                    self.shape.unflatten_into(flat, &mut scratch.v);
                    let Ok((val, c)) = self.compute_cell(&scratch.v, &mut scratch.s, |_, d| {
                        Ok::<_, Infallible>(values[flat - d].load(Ordering::Relaxed))
                    });
                    values[flat].store(val, Ordering::Relaxed);
                    scratch.configs += c;
                },
            );
            let level_configs = level_configs.into_inner();
            configs += level_configs;
            if level_timer.is_recording() {
                level_stats.push(DpLevelStat {
                    cells: cells.len() as u64,
                    configs: level_configs,
                    elapsed_us: level_timer.elapsed_us(),
                });
            }
        }
        let values = values.into_iter().map(AtomicU32::into_inner).collect();
        self.finish(values, configs, 1, 1, timer.elapsed_us(), level_stats)
    }

    /// Data-partitioned block-major sweep (the Algorithm 4/5 traversal).
    pub fn solve_blocked(&self, dim_limit: usize) -> DpSolution {
        let divisor = Divisor::compute(&self.shape, dim_limit, DivisorRule::TableConsistent);
        self.solve_blocked_with(&divisor)
    }

    /// Blocked sweep with an explicit divisor (exposed for ablations).
    pub fn solve_blocked_with(&self, divisor: &Divisor) -> DpSolution {
        let layout = BlockedLayout::new(self.shape.clone(), divisor.clone());
        let blocks = Blocks::Ram(vec![0u32; self.shape.size()]);
        self.sweep_blocks(&layout, blocks)
            .expect("in-RAM blocks never fail a read or commit")
    }

    /// Blocked sweep against a tiered page store: the same block-level
    /// traversal as [`Self::solve_blocked`], but finished blocks are
    /// *committed as pages* and dependency blocks are *faulted back in*,
    /// so only the frontier block-levels need RAM residency. With a spill
    /// directory configured on the store, this solves tables whose size
    /// exceeds the RAM budget; without one, a table that outgrows the
    /// budget fails fast with [`StoreError::BudgetExceeded`].
    pub fn solve_paged(
        &self,
        dim_limit: usize,
        store: Arc<TieredStore>,
    ) -> Result<DpSolution, StoreError> {
        self.solve_paged_impl(dim_limit, store, false)
    }

    /// [`Self::solve_paged`] with the overlapped (prefetch +
    /// write-behind) streams enabled — the storage-layer analogue of the
    /// paper's 4-stream round-robin, bit-identical to the synchronous
    /// sweep.
    ///
    /// Each block-level's compute shares the wall clock with a background
    /// stream: it pre-writes level ℓ−1's spill files (so the demotions
    /// triggered by this level's commits free RAM without stalling on
    /// disk), then prefetches the pages level ℓ+1 will read into the
    /// store's staging ring. Both are strictly best-effort — the store
    /// primitives yield rather than evict, and a failed background I/O
    /// resurfaces on the compute path if and only if it matters — so the
    /// sweep only stops paying fault latency on the compute path.
    pub fn solve_paged_overlapped(
        &self,
        dim_limit: usize,
        store: Arc<TieredStore>,
    ) -> Result<DpSolution, StoreError> {
        self.solve_paged_impl(dim_limit, store, true)
    }

    fn solve_paged_impl(
        &self,
        dim_limit: usize,
        store: Arc<TieredStore>,
        overlap: bool,
    ) -> Result<DpSolution, StoreError> {
        let divisor = Divisor::compute(&self.shape, dim_limit, DivisorRule::TableConsistent);
        let layout = BlockedLayout::new(self.shape.clone(), divisor);
        // OPT(v) ≤ Σ vᵢ ≤ Σ counts (every used machine packs at least
        // one job), so the count sum bounds every finite cell and the
        // narrowest width whose sentinel clears it packs losslessly —
        // u8 pages for paper-scale tables, 4× the blocks per byte of
        // budget.
        let width = CellWidth::for_max_value(self.counts.iter().map(|&c| c as u64).sum());
        let table = PagedTable::new(layout.clone(), store, width);
        self.sweep_blocks(&layout, Blocks::Paged { table, overlap })
    }

    /// The block-level sweep shared by the in-RAM and paged engines.
    ///
    /// Blocks of one block-level are independent and run in parallel.
    /// Each computes into a scratch buffer: reads of its own cells come
    /// from scratch (same block, earlier in-block level), reads of other
    /// blocks go to `blocks` (strictly lower block-level, committed). A
    /// level's blocks are committed in block order once all are done.
    fn sweep_blocks(
        &self,
        layout: &BlockedLayout,
        mut blocks: Blocks,
    ) -> Result<DpSolution, StoreError> {
        let block_levels = BlockLevels::new(layout);
        let in_block_levels = LevelBuckets::new(layout.block_shape());
        let cells_per_block = layout.cells_per_block();
        let ndim = self.shape.ndim();

        let timer = pcmax_obs::Timer::start();
        let mut configs = 0u64;
        let mut level_stats = Vec::new();

        for (l, level) in block_levels.iter() {
            let level_timer = pcmax_obs::Timer::start();
            let results: Vec<_> = std::thread::scope(|scope| {
                if let Blocks::Paged {
                    table,
                    overlap: true,
                } = &blocks
                {
                    let block_levels = &block_levels;
                    scope.spawn(move || overlap_streams(table, block_levels, l));
                }
                level
                    .par_iter()
                    .map(|&bf| {
                        let region = layout.block_region(bf);
                        let mut scratch = vec![0u32; cells_per_block];
                        let mut base = vec![0usize; ndim];
                        layout.block_base(bf, &mut base);
                        let mut local_configs = 0u64;
                        let mut v = vec![0usize; ndim];
                        let mut inb = vec![0usize; ndim];
                        let mut dep = vec![0usize; ndim];
                        let mut s = vec![0usize; ndim];
                        // Dependency reads cluster heavily, so each
                        // block keeps the pages it faulted: repeat
                        // reads stay off the store lock entirely.
                        let mut pages = HashMap::new();
                        for (_, in_cells) in in_block_levels.iter() {
                            for &in_flat in in_cells {
                                layout.block_shape().unflatten_into(in_flat, &mut inb);
                                for i in 0..ndim {
                                    v[i] = base[i] + inb[i];
                                }
                                // Every dependency is located via the
                                // blocked offset (the paper's
                                // block-scoped search, Alg. 5 lines
                                // 25–28).
                                let (val, c) = self.compute_cell(&v, &mut s, |s, _| {
                                    for i in 0..ndim {
                                        dep[i] = v[i] - s[i];
                                    }
                                    let off = layout.blocked_offset(&dep);
                                    if region.contains(&off) {
                                        Ok(scratch[off - region.start])
                                    } else {
                                        blocks.read(off, &mut pages)
                                    }
                                })?;
                                scratch[in_flat] = val;
                                local_configs += c;
                            }
                        }
                        Ok::<_, StoreError>((bf, scratch, local_configs))
                    })
                    .collect()
            });
            let mut level_configs = 0u64;
            for result in results {
                let (bf, scratch, c) = result?;
                blocks.commit(layout, bf, scratch)?;
                level_configs += c;
            }
            configs += level_configs;
            if level_timer.is_recording() {
                level_stats.push(DpLevelStat {
                    cells: (level.len() * cells_per_block) as u64,
                    configs: level_configs,
                    elapsed_us: level_timer.elapsed_us(),
                });
            }
        }

        let values = blocks.into_row_major(layout)?;
        Ok(self.finish(
            values,
            configs,
            layout.num_blocks(),
            block_levels.num_levels(),
            timer.elapsed_us(),
            level_stats,
        ))
    }

    /// Sparse value-layer sweep (the workspace's fifth engine, from
    /// `pcmax-sparse`): instead of materialising the `∏(nᵢ+1)` table,
    /// breadth-first layers of dominance-pruned *reachable* cells are
    /// grown until `N` settles. Returns the retained frontier, whose
    /// cells carry exact `OPT` values — [`pcmax_sparse::SparseSolution::cells`]
    /// is cell-for-cell comparable against the dense engines on the
    /// retained set.
    pub fn solve_sparse(&self) -> pcmax_sparse::SparseSolution {
        self.sparse_problem().solve()
    }

    /// Sparse sweep with a hard cap on resident cells. Fails with
    /// [`pcmax_sparse::SparseError::FrontierOverflow`] instead of
    /// allocating past the cap — the runtime backstop behind the
    /// [`Self::predict_sparse`] admission estimate.
    pub fn solve_sparse_bounded(
        &self,
        max_resident_cells: usize,
    ) -> Result<pcmax_sparse::SparseSolution, pcmax_sparse::SparseError> {
        self.sparse_problem().solve_bounded(max_resident_cells)
    }

    /// Cheap per-representation cost estimates for this problem (dense
    /// table bytes under the store page codec vs predicted resident
    /// frontier cells). [`pcmax_sparse::SparsePrediction::choose`] turns
    /// this into the dense → sparse → paged admission ladder.
    pub fn predict_sparse(&self) -> pcmax_sparse::SparsePrediction {
        pcmax_sparse::predict(&self.counts, &self.sizes, self.cap)
    }

    fn sparse_problem(&self) -> pcmax_sparse::SparseProblem {
        pcmax_sparse::SparseProblem::new(self.counts.clone(), self.sizes.clone(), self.cap)
    }

    fn finish(
        &self,
        values: Vec<u32>,
        configs: u64,
        num_blocks: usize,
        num_block_levels: usize,
        elapsed_us: u64,
        levels: Vec<DpLevelStat>,
    ) -> DpSolution {
        let opt = *values.last().expect("table non-empty");
        let stats = DpStats {
            table_size: values.len(),
            num_levels: self.shape.max_level() + 1,
            configs_enumerated: configs,
            num_blocks,
            num_block_levels,
            elapsed_us,
            levels,
        };
        DpSolution { values, opt, stats }
    }

    /// Walks the filled table back from `N` to extract one machine
    /// configuration per used machine. Returns `None` if `OPT(N)` is
    /// [`INFEASIBLE`].
    ///
    /// The returned configurations sum to `counts` componentwise and each
    /// has weight ≤ `cap`.
    pub fn extract_configs(&self, values: &[u32]) -> Option<Vec<Vec<usize>>> {
        assert_eq!(values.len(), self.shape.size());
        if *values.last().unwrap() == INFEASIBLE {
            return None;
        }
        let mut machines = Vec::new();
        let mut v = self.counts.clone();
        if v.is_empty() {
            return Some(machines);
        }
        let mut vflat = self.shape.flatten(&v);
        while v.iter().any(|&x| x > 0) {
            let target = values[vflat] - 1;
            let s = self
                .find_predecessor(&v, vflat, values, target)
                .expect("filled table always has a predecessor chain");
            for i in 0..v.len() {
                v[i] -= s[i];
                vflat -= s[i] * self.shape.strides()[i];
            }
            machines.push(s);
        }
        Some(machines)
    }

    /// First configuration `s` of `v` in lexicographic order with
    /// `OPT(v − s) == target`.
    fn find_predecessor(
        &self,
        v: &[usize],
        vflat: usize,
        values: &[u32],
        target: u32,
    ) -> Option<Vec<usize>> {
        let mut s = vec![0usize; v.len()];
        walk_configs(
            v,
            &self.sizes,
            self.shape.strides(),
            self.cap,
            Order::Ascending,
            &mut s,
            &mut |_, _, delta| {
                if delta != 0 && values[vflat - delta] == target {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        )
        .is_break()
        .then_some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_core::exact::min_bins;

    /// Expands (counts, sizes) into the explicit item multiset.
    fn items(counts: &[usize], sizes: &[u64]) -> Vec<u64> {
        counts
            .iter()
            .zip(sizes)
            .flat_map(|(&c, &s)| std::iter::repeat_n(s, c))
            .collect()
    }

    fn all_engines() -> Vec<DpEngine> {
        vec![
            DpEngine::Sequential,
            DpEngine::AntiDiagonal,
            DpEngine::Blocked { dim_limit: 3 },
            DpEngine::Blocked { dim_limit: 9 },
        ]
    }

    #[test]
    fn origin_is_zero_machines() {
        let p = DpProblem::new(vec![2, 1], vec![5, 7], 10);
        let sol = p.solve_sequential();
        assert_eq!(sol.values[0], 0);
    }

    #[test]
    fn matches_exact_bin_packing_oracle() {
        let cases: Vec<(Vec<usize>, Vec<u64>, u64)> = vec![
            (vec![4], vec![5], 10),
            (vec![2, 3], vec![4, 6], 12),
            (vec![1, 1, 1], vec![3, 5, 7], 10),
            (vec![2, 2, 2], vec![2, 3, 4], 9),
            (vec![3, 1, 2], vec![5, 6, 2], 11),
        ];
        for (counts, sizes, cap) in cases {
            let p = DpProblem::new(counts.clone(), sizes.clone(), cap);
            let expect = min_bins(&items(&counts, &sizes), cap).unwrap() as u32;
            for engine in all_engines() {
                let sol = p.solve(engine);
                assert_eq!(
                    sol.opt, expect,
                    "engine {engine:?} on counts {counts:?} sizes {sizes:?} cap {cap}"
                );
            }
        }
    }

    #[test]
    fn all_engines_agree_cell_for_cell() {
        let p = DpProblem::new(vec![3, 2, 2, 1], vec![3, 5, 7, 9], 14);
        let reference = p.solve_sequential();
        for engine in all_engines() {
            let sol = p.solve(engine);
            assert_eq!(sol.values, reference.values, "engine {engine:?}");
            assert_eq!(sol.opt, reference.opt);
        }
    }

    #[test]
    fn every_cell_matches_oracle_small() {
        let p = DpProblem::new(vec![2, 2], vec![4, 7], 11);
        let sol = p.solve_sequential();
        let shape = p.shape().clone();
        for flat in 0..shape.size() {
            let v = shape.unflatten(flat);
            let expect = min_bins(&items(&v, p.sizes()), p.cap()).unwrap() as u32;
            assert_eq!(sol.values[flat], expect, "cell {v:?}");
        }
    }

    #[test]
    fn infeasible_when_item_exceeds_cap() {
        let p = DpProblem::new(vec![1, 1], vec![5, 20], 10);
        for engine in all_engines() {
            let sol = p.solve(engine);
            assert_eq!(sol.opt, INFEASIBLE, "engine {engine:?}");
            // Cells not involving the oversized class remain feasible.
            assert_eq!(sol.values[p.shape().flatten(&[1, 0])], 1);
        }
    }

    #[test]
    fn empty_problem_is_zero() {
        let p = DpProblem::new(vec![], vec![], 10);
        for engine in all_engines() {
            let sol = p.solve(engine);
            assert_eq!(sol.opt, 0);
            assert_eq!(sol.values, vec![0]);
        }
        assert_eq!(p.extract_configs(&[0]).unwrap(), Vec::<Vec<usize>>::new());
    }

    #[test]
    fn monotone_in_counts() {
        let sizes = vec![4u64, 6];
        let cap = 10;
        let base = DpProblem::new(vec![2, 2], sizes.clone(), cap)
            .solve_sequential()
            .opt;
        let more = DpProblem::new(vec![3, 2], sizes, cap).solve_sequential().opt;
        assert!(more >= base);
    }

    #[test]
    fn extract_configs_reconstructs_a_valid_packing() {
        let p = DpProblem::new(vec![3, 2, 1], vec![4, 6, 9], 13);
        let sol = p.solve_antidiagonal();
        let machines = p.extract_configs(&sol.values).unwrap();
        assert_eq!(machines.len() as u32, sol.opt);
        // Configurations sum to N and each fits in cap.
        let mut total = vec![0usize; 3];
        for m in &machines {
            let w: u64 = m
                .iter()
                .zip(p.sizes())
                .map(|(&c, &s)| c as u64 * s)
                .sum();
            assert!(w <= p.cap(), "machine {m:?} overloaded: {w}");
            for i in 0..3 {
                total[i] += m[i];
            }
        }
        assert_eq!(total, p.counts());
    }

    #[test]
    fn extract_configs_none_when_infeasible() {
        let p = DpProblem::new(vec![1], vec![20], 10);
        let sol = p.solve_sequential();
        assert!(p.extract_configs(&sol.values).is_none());
    }

    #[test]
    fn compute_cell_surfaces_the_first_read_error() {
        // A failed page fault must abort the cell with that error, and
        // no later configuration may read again.
        let p = DpProblem::new(vec![2, 2], vec![4, 6], 10);
        let mut reads = 0;
        let result = p.compute_cell(&[2, 2], &mut [0, 0], |_, _| {
            reads += 1;
            Err::<u32, _>(reads)
        });
        assert_eq!(result, Err(1));
        assert_eq!(reads, 1);
    }

    #[test]
    fn area_bound_sums_cell_weights_past_u64() {
        // Σ vᵢ·sizeᵢ at the corner is 3·2⁶³ + 4·2⁶² = 2.5·2⁶⁴, past
        // u64 (overflow checks are on in the release profile too). Bigs
        // pair with at most one small each, so the fourth small needs a
        // fourth machine.
        let p = DpProblem::new(vec![3, 4], vec![1 << 63, 1 << 62], u64::MAX);
        for engine in all_engines() {
            let sol = p.solve(engine);
            assert_eq!(sol.opt, 4, "engine {engine:?}");
            let machines = p.extract_configs(&sol.values).unwrap();
            assert_eq!(machines.len(), 4);
        }
    }

    #[test]
    fn the_area_bound_cuts_the_walk_without_changing_a_cell() {
        // Every cell of this table meets its area bound, so most cells
        // are decided by their neighbours or stop their walk early; the
        // values still equal the bin-packing oracle everywhere.
        let p = DpProblem::new(vec![4, 4], vec![2, 3], 6);
        let sol = p.solve_sequential();
        let shape = p.shape().clone();
        let mut full = 0u64;
        for flat in 0..shape.size() {
            let v = shape.unflatten(flat);
            assert_eq!(
                sol.values[flat],
                min_bins(&items(&v, p.sizes()), p.cap()).unwrap() as u32
            );
            if flat > 0 {
                full += crate::config::count_configs(&v, p.sizes(), p.cap());
            }
        }
        assert!(sol.stats.configs_enumerated < full);
    }

    #[test]
    fn neighbours_decide_most_cells_without_a_walk() {
        // On this table the neighbour bound settles most cells outright,
        // so every engine visits fewer configurations than there are
        // non-zero cells (a walk visits at least one); every cell still
        // equals the bin-packing oracle.
        let p = DpProblem::new(vec![5, 4, 3], vec![3, 5, 7], 10);
        let shape = p.shape().clone();
        let (store, _dir) = tiny_store("neighbours", 1 << 20, false);
        let paged = p.solve_paged(3, store).expect("paged solve");
        for sol in all_engines().into_iter().map(|e| p.solve(e)).chain([paged]) {
            assert!(
                sol.stats.configs_enumerated < (shape.size() - 1) as u64,
                "{} configurations for {} non-zero cells",
                sol.stats.configs_enumerated,
                shape.size() - 1
            );
            for flat in 0..shape.size() {
                let v = shape.unflatten(flat);
                let expect = min_bins(&items(&v, p.sizes()), p.cap()).unwrap() as u32;
                assert_eq!(sol.values[flat], expect, "cell {v:?}");
            }
        }
    }

    #[test]
    fn blocked_stats_report_partitioning() {
        let p = DpProblem::new(vec![5, 5, 5], vec![3, 4, 5], 20);
        let sol = p.solve_blocked(3);
        // Extents (6,6,6) → divisor (2,2,2): 8 blocks, 4 block-levels.
        assert_eq!(sol.stats.num_blocks, 8);
        assert_eq!(sol.stats.num_block_levels, 4);
        let seq = p.solve_sequential();
        assert_eq!(seq.stats.num_blocks, 1);
        assert_eq!(sol.values, seq.values);
    }

    #[test]
    fn stats_count_configs() {
        let p = DpProblem::new(vec![2, 2], vec![4, 6], 10);
        let sol = p.solve_sequential();
        assert!(sol.stats.configs_enumerated > 0);
        assert_eq!(sol.stats.table_size, 9);
        assert_eq!(sol.stats.num_levels, 5);
    }

    #[test]
    fn canonical_key_collapses_scaled_problems() {
        let base = DpProblem::new(vec![3, 2], vec![4, 6], 13);
        let scaled = DpProblem::new(vec![3, 2], vec![20, 30], 69);
        // 69/5 = 13 (floor): every config weight is a multiple of 5, so
        // the scaled problem enumerates exactly the base configurations.
        assert_eq!(base.canonical_key(), scaled.canonical_key());
        assert_eq!(
            base.solve_sequential().values,
            scaled.solve_sequential().values
        );
    }

    #[test]
    fn canonical_key_distinguishes_geometry() {
        let a = DpProblem::new(vec![3, 2], vec![4, 6], 13);
        assert_ne!(
            a.canonical_key(),
            DpProblem::new(vec![2, 3], vec![4, 6], 13).canonical_key()
        );
        assert_ne!(
            a.canonical_key(),
            DpProblem::new(vec![3, 2], vec![4, 6], 11).canonical_key()
        );
        // Caps 12 and 13 admit the same configs (all weights are even),
        // so they deliberately share a key: ⌊12/2⌋ = ⌊13/2⌋ = 6.
        assert_eq!(
            a.canonical_key(),
            DpProblem::new(vec![3, 2], vec![4, 6], 12).canonical_key()
        );
        assert_ne!(
            a.canonical_key(),
            DpProblem::new(vec![3, 2], vec![4, 7], 13).canonical_key()
        );
    }

    #[test]
    fn canonical_key_handles_empty_and_unit_gcd() {
        let empty = DpProblem::new(vec![], vec![], 10);
        assert_eq!(empty.canonical_key().cap(), 10);
        let coprime = DpProblem::new(vec![2, 2], vec![3, 5], 11);
        let key = coprime.canonical_key();
        assert_eq!(key.sizes(), &[3, 5]);
        assert_eq!(key.cap(), 11);
        assert_eq!(key.counts(), &[2, 2]);
    }

    fn tiny_store(tag: &str, budget: u64, spill: bool) -> (Arc<TieredStore>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("pcmax-ptas-dp-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = TieredStore::open(&pcmax_store::StoreConfig {
            budget: pcmax_store::StoreBudget::bytes(budget),
            spill_dir: spill.then(|| dir.clone()),
        })
        .expect("open store");
        (Arc::new(store), dir)
    }

    #[test]
    fn paged_engine_agrees_cell_for_cell_under_spill_pressure() {
        let p = DpProblem::new(vec![3, 2, 2, 1], vec![3, 5, 7, 9], 14);
        let reference = p.solve_sequential();
        // A budget of ~2 pages for a many-block table: the sweep cannot
        // hold even one block-level resident without demoting.
        let (store, dir) = tiny_store("agree", 200, true);
        let sol = p.solve_paged(3, store).expect("paged solve");
        assert_eq!(sol.values, reference.values);
        assert_eq!(sol.opt, reference.opt);
        assert_eq!(sol.stats.table_size, reference.stats.table_size);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn paged_levels_wide_enough_for_the_pool_fault_concurrently_and_agree() {
        // Seven extent-4 dimensions in 2-cell blocks: 128 blocks on 8
        // block-levels, two of them 35 blocks wide, enough for the
        // thread pool to split. A 16-page budget makes those levels
        // fault and demote pages of one store from several threads.
        let p = DpProblem::new(vec![3; 7], vec![3, 4, 5, 6, 7, 8, 9], 16);
        let reference = p.solve_sequential();
        let (store, dir) = tiny_store("wide", 16 * 128, true);
        let sol = p.solve_paged(7, Arc::clone(&store)).expect("paged solve");
        assert_eq!((sol.stats.num_blocks, sol.stats.num_block_levels), (128, 8));
        assert_eq!(sol.values, reference.values);
        assert_eq!(p.solve_blocked(7).values, reference.values);
        let stats = store.stats();
        assert!(stats.faults > 0 && stats.demotions > 0, "{stats:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn paged_engine_spills_and_faults_when_the_table_exceeds_the_budget() {
        let p = DpProblem::new(vec![5, 5, 5], vec![3, 4, 5], 20);
        let (store, dir) = tiny_store("spill", 300, true);
        let sol = p.solve_paged(3, Arc::clone(&store)).expect("paged solve");
        assert_eq!(sol.values, p.solve_sequential().values);
        // The sweep itself proves spill happened: pages were demoted and
        // faulted back.
        let stats = store.stats();
        assert!(stats.faults > 0, "under a 300-byte budget reads must fault: {stats:?}");
        assert!(
            stats.demotions > 0,
            "under a 300-byte budget commits must demote: {stats:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overlapped_paged_sweep_is_bit_identical_and_moves_faults_off_the_compute_path() {
        let p = DpProblem::new(vec![5, 5, 5], vec![3, 4, 5], 20);
        let reference = p.solve_sequential();
        for budget in [300u64, 800, 2000] {
            let (off_store, off_dir) = tiny_store(&format!("ovl-off-{budget}"), budget, true);
            let off_sol = p
                .solve_paged(3, Arc::clone(&off_store))
                .expect("sync paged solve");
            let (on_store, on_dir) = tiny_store(&format!("ovl-on-{budget}"), budget, true);
            let on_sol = p
                .solve_paged_overlapped(3, Arc::clone(&on_store))
                .expect("overlapped paged solve");
            // Bit-identical to both the sync paged sweep and the dense
            // engine, at every budget.
            assert_eq!(on_sol.values, reference.values, "budget {budget}");
            assert_eq!(on_sol.values, off_sol.values, "budget {budget}");
            assert_eq!(on_sol.opt, reference.opt);
            let off = off_store.stats();
            let on = on_store.stats();
            // The overlapped sweep never stalls the compute path more
            // than the synchronous one.
            assert!(
                on.faults <= off.faults,
                "budget {budget}: overlap-on faults {} > overlap-off {}",
                on.faults,
                off.faults
            );
            std::fs::remove_dir_all(&off_dir).unwrap();
            std::fs::remove_dir_all(&on_dir).unwrap();
        }
        // With headroom above the thrash floor the background streams
        // actually fire: spill files get pre-written and prefetched
        // pages turn would-be faults into RAM hits.
        let (store, dir) = tiny_store("ovl-counters", 2000, true);
        p.solve_paged_overlapped(3, Arc::clone(&store))
            .expect("overlapped paged solve");
        let stats = store.stats();
        assert!(
            stats.writebehind_writes > 0 || stats.prefetch_issued > 0,
            "background streams must do work at a mid budget: {stats:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dep_blocks_below_covers_committed_dominated_blocks() {
        use ndtable::Shape;
        let shape = Shape::new(&[4, 4]);
        let divisor = Divisor::from_parts(&shape, &[2, 2]);
        let layout = BlockedLayout::new(shape, divisor);
        let levels = BlockLevels::new(&layout);
        // Grid 2×2: level 0 = {(0,0)}, level 1 = {(0,1),(1,0)},
        // level 2 = {(1,1)}. Deps of level 2 at max_level 0: only the
        // origin block.
        let deps = dep_blocks_below(&layout, levels.level(2), 0);
        assert_eq!(deps.len(), 1);
        // At max_level 1, the dominated box of (1,1) minus itself.
        let mut deps = dep_blocks_below(&layout, levels.level(2), 1);
        deps.sort_unstable();
        assert_eq!(deps.len(), 3);
    }

    #[test]
    fn paged_engine_without_spill_fails_fast_with_budget_error() {
        let p = DpProblem::new(vec![5, 5, 5], vec![3, 4, 5], 20);
        let (store, _dir) = tiny_store("nospill", 300, false);
        match p.solve_paged(3, store) {
            Err(StoreError::BudgetExceeded { needed, budget }) => {
                assert_eq!(budget, 300);
                assert!(needed > budget);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn paged_engine_with_roomy_budget_never_touches_disk() {
        let p = DpProblem::new(vec![3, 3], vec![4, 6], 12);
        let (store, _dir) = tiny_store("roomy", 1 << 20, false);
        let sol = p.solve_paged(2, store).expect("paged solve");
        assert_eq!(sol.values, p.solve_sequential().values);
    }

    #[test]
    fn sparse_engine_agrees_with_dense_on_opt_and_retained_cells() {
        let cases: Vec<(Vec<usize>, Vec<u64>, u64)> = vec![
            (vec![4], vec![5], 10),
            (vec![2, 3], vec![4, 6], 12),
            (vec![3, 2, 2], vec![3, 5, 7], 14),
            (vec![1, 1], vec![5, 20], 10), // infeasible
            (vec![], vec![], 10),
        ];
        for (counts, sizes, cap) in cases {
            let p = DpProblem::new(counts.clone(), sizes.clone(), cap);
            let dense = p.solve_sequential();
            let sparse = p.solve_sparse();
            assert_eq!(
                sparse.opt, dense.opt,
                "counts {counts:?} sizes {sizes:?} cap {cap}"
            );
            // Every retained cell must carry the dense table's value —
            // the sparsification lemma's exactness guarantee.
            for (cell, value) in sparse.cells() {
                // The empty problem's only cell is the 0-dim origin; the
                // dense side stores it behind a 1-extent placeholder shape.
                let flat = if cell.is_empty() {
                    0
                } else {
                    p.shape().flatten(&cell)
                };
                assert_eq!(value, dense.values[flat], "cell {cell:?}");
            }
        }
    }

    #[test]
    fn sparse_extraction_matches_dense_machine_count() {
        let p = DpProblem::new(vec![3, 2, 1], vec![4, 6, 9], 13);
        let dense = p.solve_sequential();
        let sparse = p.solve_sparse();
        let machines = sparse.extract_configs().expect("feasible");
        assert_eq!(machines.len() as u32, dense.opt);
        let mut total = vec![0usize; 3];
        for m in &machines {
            let w: u64 = m.iter().zip(p.sizes()).map(|(&c, &s)| c as u64 * s).sum();
            assert!(w <= p.cap());
            for i in 0..3 {
                total[i] += m[i];
            }
        }
        assert_eq!(total, p.counts());
    }

    #[test]
    fn sparse_bounded_overflows_then_succeeds_unbounded() {
        let p = DpProblem::new(vec![6, 6, 6], vec![3, 4, 5], 12);
        match p.solve_sparse_bounded(3) {
            Err(pcmax_sparse::SparseError::FrontierOverflow { resident, limit }) => {
                assert!(resident > limit);
                assert_eq!(limit, 3);
            }
            Ok(sol) => panic!("expected overflow, solved with opt {}", sol.opt),
        }
        let sparse = p.solve_sparse_bounded(usize::MAX).expect("unbounded");
        assert_eq!(sparse.opt, p.solve_sequential().opt);
    }

    #[test]
    fn predict_sparse_follows_the_admission_ladder() {
        let small = DpProblem::new(vec![2, 2], vec![4, 6], 10);
        assert_eq!(
            small.predict_sparse().choose(small.table_size() as u64, false),
            Some(pcmax_sparse::PlannedRepr::Dense)
        );
        let big = DpProblem::new(vec![9; 8], (31..47).step_by(2).collect(), 96);
        let pred = big.predict_sparse();
        assert!(pred.dense_cells > pred.est_sparse_cells);
        assert_eq!(
            pred.choose(pred.est_sparse_cells, false),
            Some(pcmax_sparse::PlannedRepr::Sparse)
        );
        assert_eq!(
            pred.choose(1, true),
            Some(pcmax_sparse::PlannedRepr::Paged)
        );
    }

    #[test]
    fn single_class_is_ceiling_division() {
        // 7 jobs of size 3, cap 10 → 3 per machine → ⌈7/3⌉ = 3 machines.
        let p = DpProblem::new(vec![7], vec![3], 10);
        for engine in all_engines() {
            assert_eq!(p.solve(engine).opt, 3);
        }
    }
}
