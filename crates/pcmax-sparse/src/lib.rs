#![warn(missing_docs)]

//! Sparsified configuration DP — the workspace's fifth engine.
//!
//! The dense engines (`pcmax-ptas`) materialise every cell of the
//! `∏(nᵢ+1)` box even though `OPT(N)` only ever walks a chain of `OPT(N)`
//! cells through it, and the paged engine (`pcmax-store`) spills that
//! same dead weight to disk. Following the sparsification viewpoint of
//! Jansen–Klein–Verschae (*Closing the Gap for Makespan Scheduling via
//! Sparsification Techniques*), this crate keeps only a **frontier** of
//! useful cells:
//!
//! * [`sweep::SparseProblem::solve`] runs a *value-layer* sweep — layer
//!   `j` holds exactly the cells reachable as the sum of `j` feasible
//!   machine configurations, so a cell's layer **is** its `OPT` value and
//!   the first layer containing `N` is `OPT(N)`;
//! * every candidate cell passes through the dominance filter of
//!   [`frontier::Frontier`]: a cell `w` is dropped when some retained
//!   `u ≥ w` (componentwise) with `val(u) ≤ val(w)` exists, because any
//!   packing of the remainder `N − u` restricts to a packing of `N − w`.
//!   Retained cells therefore carry **exact** `OPT` values (see the
//!   module docs of [`sweep`] for the invariant), which is what makes the
//!   cell-for-cell differential audit against the dense engines sound;
//! * [`predict::predict`] estimates the resident frontier against the
//!   dense table's cell count, so a serving layer can choose dense vs
//!   sparse vs paged *before* allocating
//!   anything — [`predict::SparsePrediction::choose`] is that ladder;
//! * [`sweep::SparseProblem::solve_bounded`] hard-caps resident cells and
//!   returns [`SparseError::FrontierOverflow`] instead of allocating past
//!   the cap, so a bad prediction degrades instead of thrashing.
//!
//! The crate sits *below* `pcmax-ptas` (like `pcmax-store` does), so the
//! PTAS layer can expose `DpProblem::solve_sparse` without a dependency
//! cycle; it consequently re-implements the small configuration DFS
//! rather than importing `pcmax_ptas::config`.
//!
//! Observability: every solve returns its counts in [`SparseStats`]
//! (settled cells, pruned candidates, peak residency), and while
//! [`pcmax_obs`] recording is enabled it also keeps one
//! [`SparseLayerStat`] per anti-diagonal layer. The caller owns the
//! numbers: the serve layer sums them into its own `ReprCounts`, so two
//! services in one process never mix their counts.

pub mod frontier;
pub mod predict;
pub mod sweep;

pub use frontier::{CellInfo, Frontier, Insert};
pub use predict::{predict, PlannedRepr, SparsePrediction};
pub use sweep::{SparseError, SparseLayerStat, SparseProblem, SparseSolution, SparseStats};

/// Sentinel for "no feasible packing" — numerically identical to
/// `pcmax_ptas::INFEASIBLE` so mixed-engine comparisons need no mapping.
pub const INFEASIBLE: u32 = u32::MAX;
