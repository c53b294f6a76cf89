//! The audit report: a machine-readable divergence list with the case
//! and check totals.

use pcmax_obs::JsonWriter;

/// One disagreement between implementations (or a violated invariant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Generator family of the offending instance.
    pub family: String,
    /// Seed the instance was derived from (replays the case exactly).
    pub seed: u64,
    /// Which check fired (stable identifier).
    pub check: String,
    /// Human-readable specifics.
    pub detail: String,
}

/// Summary of one audit run.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Seeds swept.
    pub seeds: u64,
    /// Instances audited (seeds × families).
    pub cases: u64,
    /// Individual checks executed.
    pub checks: u64,
    /// Every disagreement found. Empty ⇔ the audit is clean.
    pub divergences: Vec<Divergence>,
}

impl AuditReport {
    /// True when no check diverged.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// The report as one JSON object (hand-written via
    /// [`pcmax_obs::JsonWriter`], like every other report in the tree).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object()
            .field_u64("seeds", self.seeds)
            .field_u64("cases", self.cases)
            .field_u64("checks", self.checks)
            .field_bool("clean", self.is_clean())
            .key("divergences")
            .begin_array();
        for d in &self.divergences {
            w.begin_object()
                .field_str("family", &d.family)
                .field_u64("seed", d.seed)
                .field_str("check", &d.check)
                .field_str("detail", &d.detail)
                .end_object();
        }
        w.end_array().end_object();
        w.finish()
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report_serialises() {
        let r = AuditReport {
            seeds: 4,
            cases: 28,
            checks: 100,
            divergences: vec![],
        };
        let json = r.to_json();
        assert!(json.contains("\"seeds\":4"), "{json}");
        assert!(json.contains("\"clean\":true"), "{json}");
        assert!(json.contains("\"divergences\":[]"), "{json}");
    }

    #[test]
    fn divergences_serialise_with_context() {
        let r = AuditReport {
            seeds: 1,
            cases: 7,
            checks: 30,
            divergences: vec![Divergence {
                family: "near-max".into(),
                seed: 3,
                check: "engine-opt".into(),
                detail: "blocked vs sequential".into(),
            }],
        };
        let json = r.to_json();
        assert!(json.contains("\"clean\":false"), "{json}");
        assert!(json.contains("\"family\":\"near-max\""), "{json}");
        assert!(json.contains("\"check\":\"engine-opt\""), "{json}");
        assert!(!r.is_clean());
    }
}
