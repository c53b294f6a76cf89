#![warn(missing_docs)]

//! Hochbaum–Shmoys PTAS for `P||Cmax` with parallel higher-dimensional
//! dynamic programming.
//!
//! The algorithm (paper Algorithm 1) answers "is there a schedule with
//! makespan ≤ T?" approximately, for a target `T` found by search over
//! `[LB, UB]`:
//!
//! 1. [`rounding`] — split jobs into *short* (`tⱼ ≤ T/k`, `k = ⌈1/ε⌉`) and
//!    *long*; round long jobs down to multiples of `⌊T/k²⌋`, giving a
//!    class-count vector `N`;
//! 2. [`dp`] — compute `OPT(N)`, the minimum number of machines that pack
//!    the rounded long jobs with per-machine load ≤ `T`, by a DP over the
//!    higher-dimensional table of all `v ≤ N`. Three interchangeable
//!    engines: sequential sweep, rayon anti-diagonal sweep
//!    (Ghalami–Grosu Algorithm 2), and the block-partitioned sweep that
//!    mirrors the paper's GPU data-partitioning scheme on the CPU;
//! 3. feasibility (`OPT ≤ m`) steers one search loop,
//!    [`search::converge`], which probes the midpoints of `segments`
//!    equal parts of `[LB, UB]` per round: 1 segment is classic bisection
//!    (Algorithm 1), 4 the paper's quarter split (Algorithm 3);
//! 4. [`ptas`] — the DP of each feasible probe is walked back into
//!    machine configurations; at the final `T` they place the actual long
//!    jobs, and the short jobs are list-scheduled on top. Result:
//!    makespan ≤ `(1+ε)·OPT`.
//!
//! [`config`] owns the enumeration of *machine configurations* — vectors
//! `s` with `s ≤ v` and `Σ sᵢ·sizeᵢ ≤ T` — which is the inner loop of
//! every DP engine and the unit of work the GPU simulation counts.

pub mod config;
pub mod dp;
pub mod ptas;
pub mod rounding;
pub mod search;
pub mod trace;
pub mod verify;

pub use dp::{DpEngine, DpKey, DpProblem, DpSolution, INFEASIBLE};
pub use ptas::{assemble_schedule, Ptas, PtasResult, SearchStrategy};
pub use rounding::{Rounding, RoundingOutcome};
