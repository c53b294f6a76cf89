//! Property-based tests: DP-engine agreement, oracle equality, and the
//! end-to-end PTAS guarantee on brute-forceable instances.

use pcmax_core::exact::{brute_force_makespan, min_bins};
use pcmax_core::Instance;
use pcmax_ptas::config::{count_configs, dominated_box_size};
use pcmax_ptas::search::interval;
use pcmax_ptas::{DpEngine, DpProblem, Ptas, SearchStrategy, INFEASIBLE};
use pcmax_store::{StoreBudget, StoreConfig, TieredStore};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Unique per-case scratch-dir discriminator (proptest reruns cases on
/// shrink; the dir must never be shared between live stores).
static PROP_CASE: AtomicU64 = AtomicU64::new(0);

/// DP problems whose count sum exceeds the u8 sentinel, so the paged
/// sweep packs u16 pages: one class, a few hundred unit-ish jobs.
fn u16_width_dp() -> impl Strategy<Value = DpProblem> {
    (260usize..=400, 1u64..=3).prop_map(|(count, size)| {
        DpProblem::new(vec![count], vec![size], size + 4)
    })
}

/// Mix of u8-width ([`small_dp`]) and u16-width tables.
fn paged_dp() -> impl Strategy<Value = DpProblem> {
    (any::<bool>(), small_dp(), u16_width_dp())
        .prop_map(|(wide, small, wide_p)| if wide { wide_p } else { small })
}

/// Small DP problems: ≤ 4 classes, counts ≤ 3, sizes ≤ 12, cap sized so
/// unit configurations always fit.
fn small_dp() -> impl Strategy<Value = DpProblem> {
    (1usize..=4)
        .prop_flat_map(|d| {
            (
                prop::collection::vec(0usize..=3, d),
                prop::collection::vec(1u64..=12, d),
            )
        })
        .prop_map(|(counts, sizes)| {
            let max = *sizes.iter().max().unwrap();
            let cap = max + 6;
            DpProblem::new(counts, sizes, cap)
        })
}

/// Instances small enough for branch-and-bound.
fn small_instance() -> impl Strategy<Value = Instance> {
    (1usize..=4, 1usize..=10).prop_flat_map(|(m, n)| {
        prop::collection::vec(1u64..=25, n.max(1)).prop_map(move |times| Instance::new(times, m))
    })
}

fn expand(counts: &[usize], sizes: &[u64]) -> Vec<u64> {
    counts
        .iter()
        .zip(sizes)
        .flat_map(|(&c, &s)| std::iter::repeat_n(s, c))
        .collect()
}

/// DP problems for the exactness property: 0–6 classes (counts ≤ 2
/// beyond 4 classes to keep tables small), sizes ≤ 20, and a capacity
/// anywhere in `0..=2·max`, so some classes do not fit at all.
fn exactness_dp() -> impl Strategy<Value = DpProblem> {
    (0usize..=6)
        .prop_flat_map(|d| {
            let max_count = if d > 4 { 2 } else { 3 };
            (
                prop::collection::vec(0usize..=max_count, d),
                prop::collection::vec(1u64..=20, d),
                0u64..=40,
            )
        })
        .prop_map(|(counts, sizes, cap)| {
            let max = sizes.iter().copied().max().unwrap_or(20);
            DpProblem::new(counts, sizes, cap % (2 * max + 1))
        })
}

/// The configurations of `v` (zero vector included) in lexicographic
/// order, by an odometer over the whole dominated box — no pruning, no
/// early exit — with weights summed in u128.
fn box_configs(v: &[usize], sizes: &[u64], cap: u64) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut s = vec![0usize; v.len()];
    loop {
        let w: u128 = s
            .iter()
            .zip(sizes)
            .map(|(&c, &z)| c as u128 * z as u128)
            .sum();
        if w <= cap as u128 {
            out.push(s.clone());
        }
        let Some(dim) = (0..s.len()).rev().find(|&i| s[i] < v[i]) else {
            return out;
        };
        s[dim] += 1;
        s[dim + 1..].iter_mut().for_each(|x| *x = 0);
    }
}

/// Paper Eq. 1 by full enumeration: every cell takes the minimum over
/// all of its configurations.
fn reference_table(p: &DpProblem) -> Vec<u32> {
    let shape = p.shape();
    let mut values = vec![0u32; shape.size()];
    if p.counts().is_empty() {
        return values;
    }
    for flat in 1..shape.size() {
        let v = shape.unflatten(flat);
        let best = box_configs(&v, p.sizes(), p.cap())
            .iter()
            .map(|s| {
                s.iter()
                    .zip(shape.strides())
                    .map(|(&c, &st)| c * st)
                    .sum::<usize>()
            })
            .filter(|&delta| delta != 0)
            .map(|delta| values[flat - delta])
            .min()
            .unwrap_or(INFEASIBLE);
        values[flat] = if best == INFEASIBLE {
            INFEASIBLE
        } else {
            best + 1
        };
    }
    values
}

/// The walk back from `N` over `reference_table`, taking at each cell
/// the lexicographically first configuration one machine below it.
fn reference_configs(p: &DpProblem, values: &[u32]) -> Option<Vec<Vec<usize>>> {
    if *values.last().unwrap() == INFEASIBLE {
        return None;
    }
    let shape = p.shape();
    let mut v = p.counts().to_vec();
    let mut machines = Vec::new();
    while v.iter().any(|&x| x > 0) {
        let flat = shape.flatten(&v);
        let s = box_configs(&v, p.sizes(), p.cap())
            .into_iter()
            .find(|s| {
                s.iter().any(|&c| c > 0) && {
                    let below: Vec<usize> = v.iter().zip(s).map(|(&a, &b)| a - b).collect();
                    values[shape.flatten(&below)] == values[flat] - 1
                }
            })
            .expect("a finite cell has a predecessor");
        v.iter_mut().zip(&s).for_each(|(a, &b)| *a -= b);
        machines.push(s);
    }
    Some(machines)
}

proptest! {
    // Every cell of every engine against the full recurrence: more cases
    // than the other properties, as this one guards the neighbour bound.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_engine_equals_the_full_enumeration_recurrence(p in exactness_dp(),
                                                           dim_limit in 1usize..=9) {
        // The engines decide cells from their neighbours and stop each
        // walk at the neighbours' bound; the reference takes the minimum
        // over every configuration. Tables and the extracted
        // configurations must not differ in a single cell.
        let reference = reference_table(&p);
        let expect_configs = reference_configs(&p, &reference);
        let store = Arc::new(TieredStore::open(&StoreConfig {
            budget: StoreBudget::bytes(1 << 20),
            spill_dir: None,
        }).unwrap());
        let paged = p.solve_paged(dim_limit, store).expect("roomy paged solve");
        let engines = [DpEngine::Sequential, DpEngine::AntiDiagonal, DpEngine::Blocked { dim_limit }];
        for sol in engines.iter().map(|&e| p.solve(e)).chain([paged]) {
            prop_assert_eq!(&sol.values, &reference);
            prop_assert_eq!(sol.opt, *reference.last().unwrap());
            prop_assert_eq!(&p.extract_configs(&sol.values), &expect_configs);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dp_engines_agree(p in small_dp(), dim_limit in 1usize..=9) {
        let seq = p.solve(DpEngine::Sequential);
        let par = p.solve(DpEngine::AntiDiagonal);
        let blk = p.solve(DpEngine::Blocked { dim_limit });
        prop_assert_eq!(&seq.values, &par.values);
        prop_assert_eq!(&seq.values, &blk.values);
        prop_assert_eq!(seq.opt, blk.opt);
    }

    #[test]
    fn dp_matches_bin_packing_oracle(p in small_dp()) {
        let sol = p.solve(DpEngine::Sequential);
        let items = expand(p.counts(), p.sizes());
        match min_bins(&items, p.cap()) {
            Some(bins) => prop_assert_eq!(sol.opt, bins as u32),
            None => prop_assert_eq!(sol.opt, pcmax_ptas::INFEASIBLE),
        }
    }

    #[test]
    fn dp_extraction_is_a_valid_packing(p in small_dp()) {
        let sol = p.solve(DpEngine::Sequential);
        if sol.opt == pcmax_ptas::INFEASIBLE {
            prop_assert!(p.extract_configs(&sol.values).is_none());
            return Ok(());
        }
        let machines = p.extract_configs(&sol.values).unwrap();
        prop_assert_eq!(machines.len() as u32, sol.opt);
        let mut totals = vec![0usize; p.counts().len()];
        for cfg in &machines {
            let w: u64 = cfg.iter().zip(p.sizes()).map(|(&c, &s)| c as u64 * s).sum();
            prop_assert!(w <= p.cap());
            for (t, &c) in totals.iter_mut().zip(cfg) {
                *t += c;
            }
        }
        prop_assert_eq!(totals.as_slice(), p.counts());
    }

    #[test]
    fn config_count_bounded_by_dominated_box(bound in prop::collection::vec(0usize..=4, 1..=4),
                                             cap in 1u64..40) {
        let sizes: Vec<u64> = (0..bound.len() as u64).map(|i| i + 2).collect();
        let c = count_configs(&bound, &sizes, cap);
        prop_assert!(c >= 1); // zero config always fits
        prop_assert!(c <= dominated_box_size(&bound));
    }

    #[test]
    fn ptas_schedules_are_valid_and_guaranteed(inst in small_instance(),
                                               quarter in any::<bool>()) {
        let eps = 0.3;
        let strategy = if quarter { SearchStrategy::QuarterSplit } else { SearchStrategy::Bisection };
        let res = Ptas::new(eps).with_strategy(strategy).solve(&inst);
        let ms = res.schedule.validate(&inst).map_err(TestCaseError::fail)?;
        prop_assert_eq!(ms, res.makespan);
        let opt = brute_force_makespan(&inst);
        let factor = pcmax_ptas::verify::guarantee_factor(eps);
        let bound = (factor * opt as f64).ceil() as u64 + 1;
        prop_assert!(ms <= bound, "makespan {} vs opt {} bound {}", ms, opt, bound);
        // The converged target never exceeds the true optimum.
        prop_assert!(res.target <= opt);
    }

    #[test]
    fn interval_targets_stay_in_bounds_at_any_magnitude(raw_lb in 0u64..=u64::MAX,
                                                        span in 0u64..=u64::MAX,
                                                        segments in 1usize..=16) {
        // Bounds anywhere in u64 — including lb = ub and ub = u64::MAX,
        // where the naive (lb + ub) / 2 midpoint wraps.
        let lb = raw_lb;
        let ub = lb.saturating_add(span);

        let mid = interval::bisection_target(lb, ub);
        prop_assert!(lb <= mid && mid <= ub, "bisection {} outside [{}, {}]", mid, lb, ub);

        let targets = interval::nary_targets(lb, ub, segments);
        prop_assert!(!targets.is_empty());
        for pair in targets.windows(2) {
            prop_assert!(pair[0] < pair[1], "targets must strictly ascend: {:?}", targets);
        }
        for &t in &targets {
            prop_assert!(lb <= t && t <= ub, "n-ary target {} outside [{}, {}]", t, lb, ub);
        }
        // One segment degenerates to bisection: the midpoint, and the
        // bisection update of the interval.
        prop_assert_eq!(interval::nary_targets(lb, ub, 1), vec![mid]);
        if lb < ub {
            prop_assert_eq!(interval::nary_update(lb, ub, &[(mid, true)]), (lb, mid));
            prop_assert_eq!(interval::nary_update(lb, ub, &[(mid, false)]), (mid + 1, ub));
        }
    }

    #[test]
    fn search_strategies_converge_identically(inst in small_instance()) {
        let b = Ptas::new(0.3).solve(&inst);
        let q = Ptas::new(0.3).with_strategy(SearchStrategy::QuarterSplit).solve(&inst);
        prop_assert_eq!(b.target, q.target);
        prop_assert!(q.search.iterations <= b.search.iterations);
    }

    #[test]
    fn overlapped_paged_sweep_matches_sync_and_dense(p in paged_dp(),
                                                    dim_limit in 1usize..=4,
                                                    budget_pages in 1u64..=6) {
        // The overlapped (prefetch + write-behind) sweep must be
        // cell-for-cell identical to the synchronous paged sweep and to
        // the dense engine — across random budgets (including
        // forced-fault budgets far below the table) and both packed
        // widths (small_dp() tables pack u8, u16_width_dp() u16). Both
        // paged runs share the in-RAM blocked sweep's loop, so they must
        // also enumerate exactly its configurations over its blocks.
        let dense = p.solve(DpEngine::Sequential);
        let blocked = p.solve(DpEngine::Blocked { dim_limit });
        let case = PROP_CASE.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!(
            "pcmax-ptas-prop-overlap-{}-{case}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        // A few dozen bytes per "page" of budget: tiny tables fit, most
        // spill hard and fault everything back.
        let budget = StoreBudget::bytes(budget_pages * 64);
        for overlap in [false, true] {
            let store = Arc::new(
                TieredStore::open(&StoreConfig {
                    budget,
                    spill_dir: Some(root.join(if overlap { "on" } else { "off" })),
                })
                .unwrap(),
            );
            let sol = if overlap {
                p.solve_paged_overlapped(dim_limit, Arc::clone(&store))
            } else {
                p.solve_paged(dim_limit, Arc::clone(&store))
            };
            let sol = sol.expect("paged solve with a spill dir cannot run out of budget");
            prop_assert_eq!(&sol.values, &dense.values, "overlap={}", overlap);
            prop_assert_eq!(sol.opt, dense.opt);
            prop_assert_eq!(
                sol.stats.configs_enumerated,
                blocked.stats.configs_enumerated,
                "overlap={}",
                overlap
            );
            prop_assert_eq!(sol.stats.num_blocks, blocked.stats.num_blocks);
            prop_assert_eq!(sol.stats.num_block_levels, blocked.stats.num_block_levels);
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
