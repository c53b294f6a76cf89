//! Adversarial differential-fuzz harness for the pcmax solve path.
//!
//! The PTAS pipeline now accepts untrusted `u64`-scale instances over
//! the network, so arithmetic that silently wraps in release builds
//! produces *wrong schedules*, not crashes. This crate hunts exactly
//! that bug class: [`gen`] builds instances that live at the margins
//! (times near `u64::MAX`, `m > n`, single-class floods, gcd-scaled
//! duplicates, `m = 1`), and [`checks`] drives each one through a
//! differential oracle —
//!
//! * the three DP engines compared cell-for-cell,
//! * bisection vs quarter vs n-ary vs parallel n-ary convergence,
//! * the serve layer's cache-backed solver vs the plain search,
//! * the paged (spill-to-disk) DP engine vs the in-RAM sequential
//!   engine cell-for-cell, plus the no-spill fail-fast contract,
//! * the sparse frontier engine vs every dense engine — `OPT`
//!   agreement, exactness of every retained cell against the dense
//!   table, extraction validity, and the bounded-frontier fail-fast
//!   contract,
//! * kill-and-rehydrate: a solve replayed through a reopened warm store
//!   must answer entirely from disk with an identical schedule,
//! * warm-state shipping: every shippable record survives the wire
//!   token round-trip checksum-verified, a replica applying the shipped
//!   entries holds byte-identical values, and the ranged pulls planned
//!   for a subset of the owner's keys return exactly that subset,
//! * heuristics and the PTAS vs `brute_force_makespan` /
//!   `subset_dp_makespan` on small instances,
//! * the solver portfolio's gauntlet: every arm (pinned and auto, the
//!   PTAS arm also under each forced table representation) answers
//!   validly, never beats the oracle, and its certified guarantee holds
//!   in `u128`,
//! * the anytime improver's gauntlet: the move/swap descent never
//!   worsens a piled input, stays valid and above `LB`/`OPT`, and reruns
//!   to the identical schedule,
//! * the dual-approximation invariant `LB ≤ T* ≤ OPT` and the
//!   `(1 + 1/k + 1/k²)` guarantee evaluated in `u128`,
//! * the `Instance::try_new` validation gate itself.
//!
//! Surfaced as `pcmax audit --seeds N`, which emits a JSON divergence
//! report ([`AuditReport::to_json`]) with the case and check totals. A
//! clean run across many seeds is the repo's standing evidence that the
//! overflow-hardened arithmetic stays correct as engines are added.

#![warn(missing_docs)]

pub mod checks;
pub mod gen;
pub mod report;

pub use gen::{adversarial_suite, AdversarialCase};
pub use report::{AuditReport, Divergence};

/// Audit configuration.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Seeds to sweep; each seed instantiates every generator family.
    pub seeds: u64,
    /// Precision parameter `k = ⌈1/ε⌉` for rounding/search checks.
    pub k: u64,
    /// DP tables larger than this are skipped (capacity, not
    /// correctness); keeps adversarial cases within memory bounds.
    pub max_table_cells: usize,
    /// Restrict the sweep to the checks exercising one engine
    /// (`--engine sparse` / `--engine portfolio` / `--engine improve` /
    /// `--engine paged` on the CLI). `None` runs everything;
    /// `Some("sparse")` runs only [`checks::check_sparse_engine`] per
    /// case; `Some("portfolio")` runs only [`checks::check_portfolio`]
    /// (every arm on every case); `Some("improve")` runs only
    /// [`checks::check_improver`] (the descent and its rerun on every case);
    /// `Some("paged")` runs the paged-store contract plus the
    /// overlapped-sweep differential ([`checks::check_paged_store`] and
    /// [`checks::check_paged_overlap`]); `Some("warmsync")` runs only
    /// [`checks::check_warmsync`] (ship-frame integrity, replica
    /// fidelity, relay exactness). Unrecognised names run nothing
    /// and are rejected by the CLI before reaching here.
    pub engine_filter: Option<String>,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self {
            seeds: 16,
            k: 4,
            max_table_cells: 1 << 20,
            engine_filter: None,
        }
    }
}

/// Runs the full audit: every family × every seed × every check.
pub fn run(config: &AuditConfig) -> AuditReport {
    let mut report = AuditReport {
        seeds: config.seeds,
        ..AuditReport::default()
    };
    let mut checks_run = 0u64;
    let mut divergences = Vec::new();
    let sparse_only = config.engine_filter.as_deref() == Some("sparse");
    let portfolio_only = config.engine_filter.as_deref() == Some("portfolio");
    let improve_only = config.engine_filter.as_deref() == Some("improve");
    let paged_only = config.engine_filter.as_deref() == Some("paged");
    let warmsync_only = config.engine_filter.as_deref() == Some("warmsync");
    let filtered = sparse_only || portfolio_only || improve_only || paged_only || warmsync_only;
    for seed in 0..config.seeds {
        // The gate check is instance-independent; audit it once per seed
        // so a regression still fails fast on `--seeds 1`.
        if !filtered {
            let mut ctx = checks::CheckCtx {
                family: "validation-gate",
                seed,
                k: config.k,
                max_table_cells: config.max_table_cells,
                checks_run: &mut checks_run,
                out: &mut divergences,
            };
            checks::check_validation_gate(&mut ctx);
        }
        for case in gen::adversarial_suite(seed) {
            report.cases += 1;
            let mut ctx = checks::CheckCtx {
                family: case.family,
                seed,
                k: config.k,
                max_table_cells: config.max_table_cells,
                checks_run: &mut checks_run,
                out: &mut divergences,
            };
            if sparse_only {
                checks::check_sparse_engine(&case.instance, &mut ctx);
                continue;
            }
            if portfolio_only {
                checks::check_portfolio(&case.instance, &mut ctx);
                continue;
            }
            if improve_only {
                checks::check_improver(&case.instance, &mut ctx);
                continue;
            }
            if paged_only {
                checks::check_paged_store(&case.instance, &mut ctx);
                checks::check_paged_overlap(&case.instance, &mut ctx);
                continue;
            }
            if warmsync_only {
                checks::check_warmsync(&case.instance, &mut ctx);
                continue;
            }
            checks::check_engine_agreement(&case.instance, &mut ctx);
            checks::check_search_agreement(&case.instance, &mut ctx);
            checks::check_serve_solver(&case.instance, &mut ctx);
            checks::check_paged_store(&case.instance, &mut ctx);
            checks::check_paged_overlap(&case.instance, &mut ctx);
            checks::check_sparse_engine(&case.instance, &mut ctx);
            checks::check_warm_rehydrate(&case.instance, &mut ctx);
            checks::check_warmsync(&case.instance, &mut ctx);
            checks::check_ptas_invariant(&case.instance, &mut ctx);
            checks::check_small_oracle(&case.instance, &mut ctx);
            checks::check_portfolio(&case.instance, &mut ctx);
            checks::check_improver(&case.instance, &mut ctx);
        }
    }
    report.checks = checks_run;
    report.divergences = divergences;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_is_clean_on_the_hardened_tree() {
        let report = run(&AuditConfig {
            seeds: 8,
            ..AuditConfig::default()
        });
        assert_eq!(report.cases, 8 * 8);
        assert!(report.checks > report.cases);
        assert!(
            report.is_clean(),
            "divergences: {:#?}",
            report.divergences
        );
    }

    #[test]
    fn portfolio_filter_runs_only_the_gauntlet() {
        let filtered = run(&AuditConfig {
            seeds: 2,
            engine_filter: Some("portfolio".to_string()),
            ..AuditConfig::default()
        });
        assert!(filtered.checks > 0);
        // 6 policies per case, nothing else.
        assert_eq!(filtered.checks, filtered.cases * 6);
        assert!(filtered.is_clean(), "divergences: {:#?}", filtered.divergences);
    }

    #[test]
    fn sparse_filter_runs_only_the_sparse_check() {
        let full = run(&AuditConfig {
            seeds: 4,
            ..AuditConfig::default()
        });
        let filtered = run(&AuditConfig {
            seeds: 4,
            engine_filter: Some("sparse".to_string()),
            ..AuditConfig::default()
        });
        assert_eq!(filtered.cases, full.cases);
        assert!(filtered.checks > 0, "filter must still exercise cases");
        assert!(
            filtered.checks < full.checks,
            "filtered {} vs full {}",
            filtered.checks,
            full.checks
        );
        assert!(filtered.is_clean(), "divergences: {:#?}", filtered.divergences);
    }

    #[test]
    fn improve_filter_runs_only_the_improver_gauntlet() {
        let full = run(&AuditConfig {
            seeds: 2,
            ..AuditConfig::default()
        });
        let filtered = run(&AuditConfig {
            seeds: 2,
            engine_filter: Some("improve".to_string()),
            ..AuditConfig::default()
        });
        assert_eq!(filtered.cases, full.cases);
        // The descent run plus its determinism rerun per case.
        assert_eq!(filtered.checks, filtered.cases * 2);
        assert!(
            filtered.checks < full.checks,
            "filtered {} vs full {}",
            filtered.checks,
            full.checks
        );
        assert!(filtered.is_clean(), "divergences: {:#?}", filtered.divergences);
    }

    #[test]
    fn paged_filter_runs_store_and_overlap_checks_only() {
        let full = run(&AuditConfig {
            seeds: 2,
            ..AuditConfig::default()
        });
        let filtered = run(&AuditConfig {
            seeds: 2,
            engine_filter: Some("paged".to_string()),
            ..AuditConfig::default()
        });
        assert_eq!(filtered.cases, full.cases);
        assert!(filtered.checks > 0, "filter must still exercise cases");
        assert!(
            filtered.checks < full.checks,
            "filtered {} vs full {}",
            filtered.checks,
            full.checks
        );
        assert!(filtered.is_clean(), "divergences: {:#?}", filtered.divergences);
    }

    #[test]
    fn warmsync_filter_runs_only_the_warmsync_gauntlet() {
        let full = run(&AuditConfig {
            seeds: 2,
            ..AuditConfig::default()
        });
        let filtered = run(&AuditConfig {
            seeds: 2,
            engine_filter: Some("warmsync".to_string()),
            ..AuditConfig::default()
        });
        assert_eq!(filtered.cases, full.cases);
        assert!(filtered.checks > 0, "filter must still exercise cases");
        assert!(
            filtered.checks < full.checks,
            "filtered {} vs full {}",
            filtered.checks,
            full.checks
        );
        assert!(filtered.is_clean(), "divergences: {:#?}", filtered.divergences);
    }

    #[test]
    fn audit_report_json_roundtrips_the_counts() {
        let report = run(&AuditConfig {
            seeds: 2,
            ..AuditConfig::default()
        });
        let json = report.to_json();
        assert!(json.contains("\"seeds\":2"), "{json}");
        assert!(json.contains("\"clean\":true"), "{json}");
    }
}
