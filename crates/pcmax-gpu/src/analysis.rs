//! Per-cell dependency analysis of a DP table.
//!
//! For every cell `v` the GPU implementation needs two numbers and one
//! list:
//!
//! * `candidates` — the dominated-box size `Π (vᵢ+1)`: how many threads
//!   the `FindValidSub` child kernel launches (it screens *every*
//!   sub-vector, feasible or not);
//! * `deps` — the capacity-feasible configurations' target cells
//!   `v − s` (row-major flat indices): one `SetOPT` thread and one global
//!   memory read each;
//! * the anti-diagonal level, which decides the kernel the cell joins.
//!
//! None of this depends on the partitioning, so it is computed once per
//! table and reused across all `GPU-DIMx` variants and the CPU model.

use exec_model::{CellWork, DpWorkload};
use ndtable::LevelBuckets;
use pcmax_ptas::config::{dominated_box_size, for_each_config};
use pcmax_ptas::DpProblem;
use rayon::prelude::*;

struct CellInfo {
    candidates: u64,
    dep_start: u64,
    dep_len: u32,
}

/// The partition-independent workload analysis of one DP table.
pub struct TableAnalysis {
    levels: Vec<Vec<usize>>,
    cells: Vec<CellInfo>,
    dep_arena: Vec<u32>,
}

impl TableAnalysis {
    /// Analyses every cell of `problem`'s table.
    pub fn analyze(problem: &DpProblem) -> Self {
        let shape = problem.shape();
        let sigma = shape.size();
        let strides = shape.strides().to_vec();
        let sizes = problem.sizes().to_vec();
        let cap = problem.cap();
        let ndim = shape.ndim();

        // Per-cell candidate count + dependency flats, in parallel.
        let per_cell: Vec<(u64, Vec<u32>)> = (0..sigma)
            .into_par_iter()
            .map_init(
                || vec![0usize; ndim],
                |v, flat| {
                    shape.unflatten_into(flat, v);
                    let candidates = dominated_box_size(v);
                    let mut deps = Vec::new();
                    // The origin has no dependencies (and a class-less
                    // problem has a 1-cell placeholder shape whose arity
                    // differs from its empty size list).
                    if v.iter().any(|&x| x > 0) {
                        for_each_config(v, &sizes, &strides, cap, &mut |_s, _w, delta| {
                            if delta != 0 {
                                deps.push((flat - delta) as u32);
                            }
                        });
                    }
                    (candidates, deps)
                },
            )
            .collect();

        let total_deps: usize = per_cell.iter().map(|(_, d)| d.len()).sum();
        let mut cells = Vec::with_capacity(sigma);
        let mut dep_arena = Vec::with_capacity(total_deps);
        for (candidates, deps) in per_cell {
            cells.push(CellInfo {
                candidates,
                dep_start: dep_arena.len() as u64,
                dep_len: deps.len() as u32,
            });
            dep_arena.extend_from_slice(&deps);
        }

        let buckets = LevelBuckets::new(shape);
        let levels = (0..buckets.num_levels())
            .map(|l| buckets.level(l).to_vec())
            .collect();
        Self {
            levels,
            cells,
            dep_arena,
        }
    }

    /// Number of cells analysed.
    #[inline]
    pub fn table_size(&self) -> usize {
        self.cells.len()
    }

    /// Anti-diagonal levels: `levels()[l]` lists the flat indices on `l`.
    #[inline]
    pub fn levels(&self) -> &[Vec<usize>] {
        &self.levels
    }

    /// `FindValidSub` fan-out of a cell.
    #[inline]
    pub fn candidates(&self, flat: usize) -> u64 {
        self.cells[flat].candidates
    }

    /// Dependency cells (row-major flats) of a cell.
    #[inline]
    pub fn deps(&self, flat: usize) -> &[u32] {
        let c = &self.cells[flat];
        let start = c.dep_start as usize;
        &self.dep_arena[start..start + c.dep_len as usize]
    }

    /// Total dependency lookups across the table.
    pub fn total_deps(&self) -> u64 {
        self.dep_arena.len() as u64
    }

    /// Total candidates screened across the table.
    pub fn total_candidates(&self) -> u64 {
        self.cells.iter().map(|c| c.candidates).sum()
    }

    /// Converts to the [`DpWorkload`] the CPU model consumes.
    pub fn workload(&self) -> DpWorkload {
        let levels = self
            .levels
            .iter()
            .map(|cells| {
                cells
                    .iter()
                    .map(|&flat| CellWork {
                        flat,
                        candidates: self.cells[flat].candidates,
                        valid: self.cells[flat].dep_len as u64,
                    })
                    .collect()
            })
            .collect();
        DpWorkload::new(self.table_size(), levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcmax_ptas::config::count_configs;
    use pcmax_ptas::DpEngine;

    fn sample() -> DpProblem {
        DpProblem::new(vec![2, 2, 1], vec![4, 6, 9], 13)
    }

    #[test]
    fn analysis_covers_every_cell() {
        let p = sample();
        let a = TableAnalysis::analyze(&p);
        assert_eq!(a.table_size(), p.table_size());
        let by_levels: usize = a.levels().iter().map(Vec::len).sum();
        assert_eq!(by_levels, p.table_size());
    }

    #[test]
    fn origin_has_no_deps_and_one_candidate() {
        let p = sample();
        let a = TableAnalysis::analyze(&p);
        assert_eq!(a.candidates(0), 1);
        assert!(a.deps(0).is_empty());
    }

    #[test]
    fn deps_point_strictly_backwards_and_in_range() {
        let p = sample();
        let a = TableAnalysis::analyze(&p);
        for flat in 0..p.table_size() {
            for &d in a.deps(flat) {
                assert!((d as usize) < flat, "dep {d} of cell {flat}");
            }
        }
    }

    #[test]
    fn dep_count_matches_dp_config_enumeration() {
        // Each dep is one feasible non-zero configuration, so the deps
        // are the full enumeration `count_configs` models, less the zero
        // configuration of every non-origin cell.
        let p = sample();
        let a = TableAnalysis::analyze(&p);
        let shape = p.shape();
        let full: u64 = (1..p.table_size())
            .map(|flat| count_configs(&shape.unflatten(flat), p.sizes(), p.cap()))
            .sum();
        assert_eq!(a.total_deps(), full - (p.table_size() as u64 - 1));
        assert!(a.total_deps() > 0);
        // The DP decides cells from their neighbours and stops each walk
        // early, so it visits at most the full enumeration.
        let sol = p.solve(DpEngine::Sequential);
        assert!(sol.stats.configs_enumerated <= full);
    }

    #[test]
    fn corner_candidates_equals_table_size() {
        let p = sample();
        let a = TableAnalysis::analyze(&p);
        assert_eq!(a.candidates(p.table_size() - 1) as usize, p.table_size());
    }

    #[test]
    fn workload_roundtrip() {
        let p = sample();
        let a = TableAnalysis::analyze(&p);
        let w = a.workload();
        assert_eq!(w.table_size, p.table_size());
        assert_eq!(w.total_valid(), a.total_deps());
        assert_eq!(w.total_candidates(), a.total_candidates());
    }

    #[test]
    fn empty_problem_analysis() {
        let p = DpProblem::new(vec![], vec![], 5);
        let a = TableAnalysis::analyze(&p);
        assert_eq!(a.table_size(), 1);
        assert_eq!(a.total_deps(), 0);
    }
}
