//! Span-tree construction for `pcmax trace`.
//!
//! Turns the telemetry a PTAS run already records ([`SearchResult`],
//! [`ProbeRecord`], [`DpStats`]) into a [`pcmax_obs::SpanNode`] tree that
//! attributes wall time to bisection rounds, probes, the rounding step,
//! and individual DP levels. Elapsed times are only non-zero when
//! `pcmax_obs` recording was enabled during the solve — callers
//! (`pcmax trace`) flip [`pcmax_obs::set_enabled`] before solving.

use crate::dp::DpStats;
use crate::ptas::PtasResult;
use crate::search::{ProbeRecord, SearchResult};
use pcmax_obs::SpanNode;

/// Span tree of one DP sweep: a `dp.sweep` node with one `dp.level`
/// child per recorded level.
pub fn dp_span(stats: &DpStats) -> SpanNode {
    let mut node = SpanNode::new("dp.sweep", stats.elapsed_us)
        .attr("cells", stats.table_size)
        .attr("configs", stats.configs_enumerated);
    if stats.num_blocks > 1 {
        node = node
            .attr("blocks", stats.num_blocks)
            .attr("block_levels", stats.num_block_levels);
    }
    for (i, level) in stats.levels.iter().enumerate() {
        node.push(
            SpanNode::new("dp.level", level.elapsed_us)
                .attr("level", i)
                .attr("cells", level.cells)
                .attr("configs", level.configs),
        );
    }
    node
}

/// Span tree of one probe: `search.probe` with `rounding` and (for
/// uncached probes that reached the DP) `dp.sweep` children.
pub fn probe_span(probe: &ProbeRecord) -> SpanNode {
    let mut node = SpanNode::new(
        "search.probe",
        probe.rounding_us + probe.dp_stats.elapsed_us,
    )
    .attr("target", probe.target)
    .attr("feasible", probe.feasible);
    if probe.cached {
        node = node.attr("cached", true);
        return node;
    }
    node.push(SpanNode::new("rounding", probe.rounding_us).attr("ndim", probe.ndim));
    if probe.opt.is_some() {
        node.push(dp_span(&probe.dp_stats));
    }
    node
}

/// Span tree of a whole search: `search` → one `search.round` per
/// iteration → probes.
pub fn search_span(search: &SearchResult) -> SpanNode {
    let mut rounds = Vec::with_capacity(search.records.len());
    let mut total_us = 0u64;
    for rec in &search.records {
        let probes: Vec<SpanNode> = rec.probes.iter().map(probe_span).collect();
        let round_us: u64 = probes.iter().map(|p| p.elapsed_us).sum();
        total_us += round_us;
        let mut round = SpanNode::new("search.round", round_us)
            .attr("interval", format!("[{},{}]", rec.lb, rec.ub));
        round.children = probes;
        rounds.push(round);
    }
    let mut node = SpanNode::new("search", total_us)
        .attr("target", search.target)
        .attr("rounds", search.iterations)
        .attr("dp_runs", search.dp_runs)
        .attr("cache_hits", search.cache_hits);
    node.children = rounds;
    node
}

/// Span tree of a full PTAS run: `ptas.solve` → `search` +
/// `build_schedule`. `total_us` is the caller-measured wall time of the
/// whole solve (the tree's internal spans only cover the instrumented
/// regions, so the root carries the authoritative total).
pub fn solve_span(result: &PtasResult, total_us: u64) -> SpanNode {
    let mut node = SpanNode::new("ptas.solve", total_us)
        .attr("makespan", result.makespan)
        .attr("target", result.target)
        .attr("machines_used", result.machines_used);
    node.push(search_span(&result.search));
    node.push(SpanNode::new("build_schedule", result.build_us));
    node
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::DpEngine;
    use crate::ptas::Ptas;
    use pcmax_core::gen::uniform;

    #[test]
    fn tree_covers_every_probe_without_recording() {
        // Recording stays off: elapsed times are 0 but the structure must
        // still mirror the search telemetry exactly.
        let inst = uniform(42, 15, 3, 5, 40);
        let res = Ptas::new(0.3)
            .with_engine(DpEngine::Sequential)
            .solve(&inst);
        let tree = solve_span(&res, 0);
        assert_eq!(tree.name, "ptas.solve");
        assert_eq!(tree.children.len(), 2);
        let search = &tree.children[0];
        assert_eq!(search.children.len(), res.search.records.len());
        let probes_in_tree: usize = search.children.iter().map(|r| r.children.len()).sum();
        let probes_in_search: usize = res.search.records.iter().map(|r| r.probes.len()).sum();
        assert_eq!(probes_in_tree, probes_in_search);
        // Renders without panicking and shows the root line.
        assert!(tree.render().starts_with("ptas.solve"));
    }

    #[test]
    fn cached_probes_are_leaves() {
        let probe = ProbeRecord {
            target: 10,
            feasible: true,
            opt: Some(2),
            table_size: 9,
            ndim: 2,
            cached: true,
            rounding_us: 0,
            dp_stats: DpStats::default(),
            configs: None,
        };
        let span = probe_span(&probe);
        assert!(span.children.is_empty());
        assert!(span.attrs.iter().any(|(k, _)| k == "cached"));
    }

    #[test]
    fn dp_span_lists_levels() {
        let stats = DpStats {
            table_size: 9,
            num_levels: 3,
            configs_enumerated: 12,
            num_blocks: 1,
            num_block_levels: 1,
            elapsed_us: 30,
            levels: vec![
                crate::dp::DpLevelStat {
                    cells: 1,
                    configs: 0,
                    elapsed_us: 1,
                },
                crate::dp::DpLevelStat {
                    cells: 2,
                    configs: 12,
                    elapsed_us: 29,
                },
            ],
        };
        let span = dp_span(&stats);
        assert_eq!(span.children.len(), 2);
        assert_eq!(span.children[1].elapsed_us, 29);
    }
}
