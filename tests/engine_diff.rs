//! Differential tests across the DP engines.
//!
//! The dense scheduling engines (Sequential, AntiDiagonal, Blocked) fill
//! the same `OPT(N)` table and must agree *cell for cell*, not just on
//! the corner value; the sparse frontier engine must agree on the final
//! answer and on every cell it retains; on small instances the corner is
//! additionally pinned
//! to the exact bin-packing oracle `pcmax_core::exact::min_bins`, and the
//! extracted machine configurations must repack the multiset exactly.
//! The knapsack engines get the same treatment against the `2ⁿ`
//! brute-force oracle.

use pcmax::core::exact::min_bins;
use pcmax::core::bounds;
use pcmax::core::gen::{near_equal, uniform};
use pcmax::ptas::rounding::{Rounding, RoundingOutcome};
use pcmax::ptas::search::interval;
use pcmax::{DpEngine, DpProblem, Instance};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Every engine this suite differentiates. Two `dim_limit`s exercise
/// both a shallow and a deep divisor.
fn engines() -> [DpEngine; 4] {
    [
        DpEngine::Sequential,
        DpEngine::AntiDiagonal,
        DpEngine::Blocked { dim_limit: 2 },
        DpEngine::Blocked { dim_limit: 6 },
    ]
}

/// Expands a DP problem back into its job multiset.
fn items_of(p: &DpProblem) -> Vec<u64> {
    p.counts()
        .iter()
        .zip(p.sizes())
        .flat_map(|(&n, &s)| std::iter::repeat_n(s, n))
        .collect()
}

/// Solves with every engine, asserts full-table agreement, and returns
/// the (shared) sequential solution.
fn assert_engines_agree(p: &DpProblem) -> pcmax::ptas::DpSolution {
    let reference = p.solve(DpEngine::Sequential);
    for engine in engines() {
        let sol = p.solve(engine);
        assert_eq!(
            sol.values, reference.values,
            "{engine:?} diverged from Sequential on counts={:?} sizes={:?} cap={}",
            p.counts(),
            p.sizes(),
            p.cap()
        );
        assert_eq!(sol.opt, reference.opt);
        // The metadata the engines share must also agree; per-engine
        // fields (blocks, timing) legitimately differ.
        assert_eq!(sol.stats.table_size, reference.stats.table_size);
        assert_eq!(
            sol.stats.configs_enumerated,
            reference.stats.configs_enumerated,
            "{engine:?} enumerated a different configuration set"
        );
    }
    // The sparse frontier engine materialises no dense table; its
    // contract is the final answer plus exactness of every cell it
    // retains (dominance may drop cells, never rewrite them).
    let sparse = p.solve_sparse();
    assert_eq!(
        sparse.opt,
        reference.opt,
        "sparse engine diverged from Sequential on counts={:?} sizes={:?} cap={}",
        p.counts(),
        p.sizes(),
        p.cap()
    );
    for (cell, value) in sparse.cells() {
        let flat = if cell.is_empty() {
            0
        } else {
            p.shape().flatten(&cell)
        };
        assert_eq!(
            reference.values[flat], value,
            "sparse frontier cell {cell:?} disagrees with the dense table"
        );
    }
    reference
}

/// Pins `OPT(N)` to the exact oracle and validates the extracted packing.
fn assert_matches_oracle(p: &DpProblem, sol: &pcmax::ptas::DpSolution) {
    let items = items_of(p);
    match min_bins(&items, p.cap()) {
        None => {
            assert_eq!(sol.opt, pcmax::INFEASIBLE, "oracle says infeasible");
            assert!(p.extract_configs(&sol.values).is_none());
        }
        Some(bins) => {
            assert_eq!(sol.opt as usize, bins, "OPT(N) must equal min_bins");
            let machines = p.extract_configs(&sol.values).expect("feasible table");
            assert_eq!(machines.len(), bins, "one configuration per machine");
            let mut used = vec![0usize; p.counts().len()];
            for config in &machines {
                let weight: u64 = config
                    .iter()
                    .zip(p.sizes())
                    .map(|(&s, &size)| s as u64 * size)
                    .sum();
                assert!(weight <= p.cap(), "machine overloaded: {config:?}");
                for (u, &s) in used.iter_mut().zip(config) {
                    *u += s;
                }
            }
            assert_eq!(used, p.counts(), "configs must repack the multiset");
        }
    }
}

#[test]
fn random_dp_problems_agree_across_engines_and_match_min_bins() {
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    for case in 0..40 {
        let ndim = rng.gen_range(1..=4usize);
        let counts: Vec<usize> = (0..ndim).map(|_| rng.gen_range(0..=3usize)).collect();
        let sizes: Vec<u64> = (0..ndim).map(|_| rng.gen_range(1..=20u64)).collect();
        // Caps straddle the feasibility boundary: sometimes below the
        // largest size (infeasible), sometimes comfortably above.
        let cap = rng.gen_range(1..=30u64);
        let p = DpProblem::new(counts, sizes, cap);
        let sol = assert_engines_agree(&p);
        assert_matches_oracle(&p, &sol);
        // Keep the oracle tractable.
        assert!(items_of(&p).len() <= 12, "case {case} grew too large");
    }
}

#[test]
fn rounded_instances_agree_across_engines_and_match_min_bins() {
    for seed in 0..6u64 {
        let inst = uniform(seed, 14, 3, 5, 40);
        let k = 4; // ε = 0.3 → k = ⌈1/ε⌉ = 4
        let lb = bounds::lower_bound(&inst);
        let ub = bounds::upper_bound(&inst);
        // Probe the ends and middle of the search interval, like the
        // bisection would (using the overflow-safe midpoint).
        for target in [lb, interval::bisection_target(lb, ub), ub] {
            let r = match Rounding::compute(&inst, target, k) {
                RoundingOutcome::Infeasible { .. } => continue,
                RoundingOutcome::Rounded(r) => r,
            };
            let p = DpProblem::from_rounding(&r);
            if p.table_size() > 5_000 || items_of(&p).len() > 14 {
                continue; // keep the exact oracle fast
            }
            let sol = assert_engines_agree(&p);
            assert_matches_oracle(&p, &sol);
        }
    }
    // The sparse frontier's regime: near-equal jobs, many per machine,
    // rounded at the bisection midpoint. Too large for the oracle, but
    // every engine must still agree, and the frontier must keep a small
    // share of the dense cells resident at its peak.
    for (jobs, machines, k, max_resident_pct) in [(576, 48, 16, 10), (24, 4, 8, 60)] {
        let inst = near_equal(42, jobs, machines, 1000, 40);
        let lb = bounds::lower_bound(&inst);
        let ub = bounds::upper_bound(&inst);
        let RoundingOutcome::Rounded(r) =
            Rounding::compute(&inst, interval::bisection_target(lb, ub), k)
        else {
            panic!("the midpoint of [{lb}, {ub}] must round");
        };
        let p = DpProblem::from_rounding(&r);
        assert_engines_agree(&p);
        let peak = p.solve_sparse().stats.peak_resident_cells;
        assert!(
            peak * 100 < max_resident_pct * p.table_size(),
            "{jobs} jobs on {machines} machines at k = {k}: peak {peak} of {} dense cells",
            p.table_size()
        );
    }
}

/// Rounds `inst` at the ends and midpoint of its search interval and
/// runs every resulting DP problem through the full engine-agreement
/// (and, when tractable, exact-oracle) gauntlet.
fn differential_check(inst: &Instance, k: u64) {
    let lb = bounds::lower_bound(inst);
    let ub = bounds::upper_bound(inst);
    for target in [lb, interval::bisection_target(lb, ub), ub] {
        let r = match Rounding::compute(inst, target, k) {
            RoundingOutcome::Infeasible { .. } => continue,
            RoundingOutcome::Rounded(r) => r,
        };
        let p = DpProblem::from_rounding(&r);
        if p.table_size() > 5_000 {
            continue; // capacity guard, not a correctness statement
        }
        let sol = assert_engines_agree(&p);
        if items_of(&p).len() <= 10 {
            assert_matches_oracle(&p, &sol);
        }
    }
}

#[test]
fn adversarial_u64_scale_instances_agree_across_engines() {
    // The audit crate's generator families (times near u64::MAX, m > n,
    // single-class floods, gcd-scaled duplicates, m = 1, tiny oracle
    // cases) are exactly the magnitudes where a wrapping multiply or
    // midpoint once produced silently-wrong tables. Every family must
    // survive the cell-for-cell differential.
    for seed in 0..8u64 {
        for case in pcmax::audit::adversarial_suite(seed) {
            differential_check(&case.instance, 4);
        }
    }
}

/// Instances whose per-job magnitudes span the whole `u64` range while
/// the total work stays representable (each time ≤ `u64::MAX / n`).
fn u64_scale_instance() -> impl Strategy<Value = Instance> {
    (1usize..=8, 1usize..=4).prop_flat_map(|(n, m)| {
        let per_job_cap = u64::MAX / n as u64; // n ≤ 8 → cap ≥ 2⁶¹
        // Each job draws a magnitude tier and a raw value, so a single
        // instance can mix tiny jobs with jobs near the per-job ceiling
        // — the mix that once provoked wrapping classification products.
        prop::collection::vec((0usize..3, 1u64..=u64::MAX), n).prop_map(move |draws| {
            let times: Vec<u64> = draws
                .into_iter()
                .map(|(tier, raw)| match tier {
                    0 => raw % 50 + 1,
                    1 => raw % (per_job_cap / 2) + 1,
                    _ => per_job_cap - raw % (per_job_cap / 64 + 1),
                })
                .collect();
            Instance::new(times, m)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engines_agree_on_random_u64_scale_instances(inst in u64_scale_instance()) {
        differential_check(&inst, 4);
    }

    #[test]
    fn engines_agree_under_varied_precision(inst in u64_scale_instance(), k in 1u64..=6) {
        differential_check(&inst, k);
    }
}

#[test]
fn degenerate_problems_agree_across_engines() {
    // No classes at all: OPT = 0, no configurations.
    let empty = DpProblem::new(vec![], vec![], 10);
    let sol = assert_engines_agree(&empty);
    assert_eq!(sol.opt, 0);
    assert_eq!(empty.extract_configs(&sol.values).unwrap().len(), 0);

    // All counts zero: a 1-cell table per dimension.
    let zeros = DpProblem::new(vec![0, 0], vec![7, 9], 10);
    let sol = assert_engines_agree(&zeros);
    assert_eq!(sol.opt, 0);

    // A single class that exactly fills the capacity.
    let tight = DpProblem::new(vec![3], vec![10], 10);
    let sol = assert_engines_agree(&tight);
    assert_eq!(sol.opt, 3);
    assert_matches_oracle(&tight, &sol);

    // A class larger than the capacity: INFEASIBLE corner.
    let infeasible = DpProblem::new(vec![2, 1], vec![4, 11], 10);
    let sol = assert_engines_agree(&infeasible);
    assert_eq!(sol.opt, pcmax::INFEASIBLE);
    assert_matches_oracle(&infeasible, &sol);
}

#[test]
fn knapsack_engines_agree_and_match_brute_force() {
    use mdknap::dp::{solve, KnapEngine};
    use mdknap::{brute, gen};

    let engines = [
        KnapEngine::InPlace,
        KnapEngine::Layered,
        KnapEngine::Blocked { dim_limit: 2 },
        KnapEngine::Blocked { dim_limit: 4 },
    ];
    for seed in 0..4u64 {
        for problem in [
            gen::uncorrelated(seed, 9, 2, 6),
            gen::correlated(seed, 8, 3, 4),
        ] {
            let reference = solve(&problem, KnapEngine::InPlace);
            for engine in engines {
                let sol = solve(&problem, engine);
                assert_eq!(
                    sol.values, reference.values,
                    "{engine:?} diverged on seed {seed}"
                );
                assert_eq!(sol.best, reference.best);
            }
            let (profit, selection) = brute::brute_force(&problem);
            assert_eq!(
                reference.best, profit,
                "DP optimum must match brute force on seed {seed}"
            );
            assert_eq!(problem.evaluate(&selection), Some(profit));
        }
    }
}
