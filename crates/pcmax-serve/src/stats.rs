//! Per-request and service-wide telemetry types.
//!
//! Everything here is serde-serialisable so operators can ship it to
//! dashboards; the line protocol in [`crate::proto`] renders the same
//! fields through [`ServiceReport::to_json`] (the workspace's serde is a
//! no-op shim, so the wire form is written by hand).

use pcmax_core::Guarantee;
use pcmax_obs::{Histogram, HistogramSnapshot, JsonWriter};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Which algorithm produced a response's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineUsed {
    /// The full PTAS: rounded DP + target search.
    Ptas,
    /// LPT-revisited: LPT prefix + exact critical tail (portfolio arm
    /// and the degraded-mode fallback since the portfolio landed).
    LptRev,
    /// MULTIFIT fallback (deadline/size degradation).
    Multifit,
    /// Exact branch-and-bound (portfolio arm for tiny instances).
    Exact,
}

impl fmt::Display for EngineUsed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EngineUsed::Ptas => "ptas",
            EngineUsed::LptRev => "lptrev",
            EngineUsed::Multifit => "multifit",
            EngineUsed::Exact => "exact",
        })
    }
}

impl FromStr for EngineUsed {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ptas" => Ok(EngineUsed::Ptas),
            "lptrev" => Ok(EngineUsed::LptRev),
            "multifit" => Ok(EngineUsed::Multifit),
            "exact" => Ok(EngineUsed::Exact),
            other => Err(format!("unknown engine `{other}`")),
        }
    }
}

/// What one request cost, end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestStats {
    /// Time spent queued before a worker picked the request up.
    pub queue_wait_us: u64,
    /// Time spent solving (search + DP, or the heuristic fallback).
    pub solve_us: u64,
    /// DP memo-cache hits during this request's target search.
    pub cache_hits: u64,
    /// DP memo-cache misses (actual DP runs) during this request.
    pub cache_misses: u64,
    /// Whether the answer was degraded to a heuristic.
    pub degraded: bool,
    /// Which algorithm produced the schedule.
    pub engine: EngineUsed,
    /// Certified bound of the arm that actually answered — degraded
    /// responses report *their* arm's guarantee (e.g. LPT-revisited's
    /// critical-index refinement), not a blanket plain-LPT ratio.
    pub guarantee: Guarantee,
    /// A-posteriori achieved-vs-bound gap in parts per million:
    /// `(makespan − LB)·10⁶ / LB` against the area/max lower bound
    /// ([`Guarantee::gap_ppm`]). 0 means the answer provably meets the
    /// lower bound; the improver's job is driving this down with
    /// whatever deadline budget the solve left over.
    pub gap_ppm: u64,
    /// Wall-clock the anytime improver spent on this request, µs
    /// (0 when the improver is off or the deadline was exhausted).
    pub improve_us: u64,
}

/// Liveness snapshot answered by the protocol's `health` verb. The
/// cluster coordinator's heartbeat consumes these fields: uptime
/// proves the process restarted or not, queue depth is the load
/// signal, cache residency is the affinity signal, memory pressure
/// lets the coordinator deprioritise workers whose caches are
/// thrashing against their byte budget, and the warm fields describe
/// the worker's warm log so warmsync can pick rehydration donors and
/// skip digest round trips when nothing changed. The reply carries all
/// six fields, and the parse rejects a reply missing any of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HealthReply {
    /// Microseconds since the service started.
    pub uptime_us: u64,
    /// Jobs admitted but not yet picked up by a worker.
    pub queue_depth: u64,
    /// Entries resident in the DP cache across all shards.
    pub cache_entries: u64,
    /// DP-cache residency as a percentage of its byte budget, clamped
    /// to 100.
    pub pressure_pct: u64,
    /// Distinct canonical problems in the warm log (0 without a store
    /// directory, and from pre-warmsync workers).
    pub warm_entries: u64,
    /// The warm log's highest assigned sequence number (0 without a
    /// store directory, and from pre-warmsync workers).
    pub warm_seq: u64,
}

/// Which DP representation cache-missing probes ran under, service-wide.
/// All-zero when every probe was a cache hit (or the service degraded
/// before running any DP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ReprReport {
    /// Probes solved by a dense in-RAM engine.
    pub dense_probes: u64,
    /// Probes solved by the sparse frontier sweep.
    pub sparse_probes: u64,
    /// Probes solved by the paged engine against a tiered store.
    pub paged_probes: u64,
}

/// Aggregate state of the sharded DP cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheReport {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran the DP.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries currently resident across all shards (derived stat; the
    /// budget is bytes).
    pub entries: usize,
    /// Estimated resident bytes across all shards.
    pub bytes: u64,
}

impl CacheReport {
    /// Fraction of lookups answered from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Memory-tier snapshot: the RAM cache measured against its byte budget
/// plus the warm disk tier's counters. All-zero (and `fault_us` empty)
/// when the service runs without a store directory.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StoreReport {
    /// Total byte budget of the RAM cache across all shards.
    pub budget_bytes: u64,
    /// Estimated bytes resident in the RAM cache.
    pub cache_bytes: u64,
    /// `cache_bytes` as a percentage of `budget_bytes`, clamped to 100.
    pub pressure_pct: u64,
    /// Distinct canonical problems persisted in the warm log.
    pub warm_entries: u64,
    /// Warm-log records recovered at open (restart warm-start).
    pub rehydrated: u64,
    /// Probes answered from the warm disk tier since open.
    pub disk_hits: u64,
    /// Solutions appended to the warm log since open.
    pub appends: u64,
    /// The warm log's highest assigned sequence number.
    pub warm_seq: u64,
    /// Warm-log generation rewrites (dead-byte compactions) since open.
    pub compactions: u64,
    /// Shipped entries applied to the warm log by `warm-push`/pull
    /// traffic since open.
    pub warmsync_applied: u64,
    /// Warm faults served from a replicated/migrated entry — cold DP
    /// recomputes that warmsync avoided.
    pub cold_misses_avoided: u64,
    /// Bytes currently charged to the replica byte budget (entries held
    /// on behalf of ring predecessors).
    pub replica_bytes: u64,
    /// Replica entries evicted oldest-first by the byte budget.
    pub replica_evictions: u64,
    /// Disk-read latency per warm hit, in µs.
    pub fault_us: HistogramSnapshot,
    /// Compute-path page faults taken by this service's paged-engine
    /// probes (stalls the overlapped sweep exists to remove).
    pub paged_faults: u64,
    /// Prefetch disk reads issued off the compute path.
    pub prefetch_issued: u64,
    /// Page-table hits on pages a prefetch installed — faults the
    /// background stream turned into RAM hits.
    pub prefetch_hits: u64,
    /// Spill files pre-written by the write-behind stream while the page
    /// stayed resident.
    pub writebehind_writes: u64,
}

impl StoreReport {
    /// Fraction of RAM-cache misses answered by the disk tier instead of
    /// recomputing the DP (0 when no misses occurred).
    pub fn disk_hit_rate(&self, ram_misses: u64) -> f64 {
        if ram_misses == 0 {
            0.0
        } else {
            self.disk_hits as f64 / ram_misses as f64
        }
    }

    /// Fraction of page-table accesses (faults + prefetch hits) that a
    /// prefetched page answered without a stall. 0 — never NaN — on a
    /// zero-traffic store, so the JSON stays parseable for dashboards.
    pub fn prefetch_hit_rate(&self) -> f64 {
        let total = self.paged_faults + self.prefetch_hits;
        if total == 0 {
            0.0
        } else {
            self.prefetch_hits as f64 / total as f64
        }
    }
}

/// One portfolio arm's lifetime counters inside a [`PortfolioReport`].
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ArmReport {
    /// Wire name of the arm (`lptrev`, `multifit`, `exact`, `ptas`).
    pub arm: String,
    /// Requests for which the selector picked this arm up front (for
    /// heuristic safety-net answers the pick *is* the winning arm, so
    /// `chosen == won` on that path).
    pub chosen: u64,
    /// Requests this arm's answer was returned for.
    pub won: u64,
    /// Times the arm actually executed — includes picks that failed
    /// over to the safety net and the net's losing heuristic, so
    /// `runs ≥ won`.
    pub runs: u64,
    /// Wall-clock per execution, in µs (empty unless `pcmax_obs`
    /// recording was enabled; `count` equals `runs` while enabled).
    pub latency_us: HistogramSnapshot,
}

/// Portfolio-selector telemetry: per-arm pick/win/run counts.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PortfolioReport {
    /// One entry per arm, in canonical arm order.
    pub arms: Vec<ArmReport>,
}

impl PortfolioReport {
    /// Writes the report as a JSON object into `w`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object().key("arms").begin_object();
        for arm in &self.arms {
            w.key(&arm.arm)
                .begin_object()
                .field_u64("chosen", arm.chosen)
                .field_u64("won", arm.won)
                .field_u64("runs", arm.runs)
                .field_u64("p50_us", arm.latency_us.quantile(0.50))
                .field_u64("p99_us", arm.latency_us.quantile(0.99))
                .key("latency_us");
            arm.latency_us.write_json(w);
            w.end_object();
        }
        w.end_object().end_object();
    }
}

/// Anytime-improver telemetry: how often the refinement pass ran after
/// the solve, and how often it strictly tightened the answer. All-zero
/// when the service runs with the improver off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ImproveReport {
    /// Requests the improver ran on (budget left after the solve).
    pub runs: u64,
    /// Requests whose makespan the improver strictly lowered.
    pub improved: u64,
}

/// Live latency/size histograms the service records into while
/// `pcmax_obs` recording is enabled. One instance lives inside the
/// service, shared by all workers.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Queue wait per completed request, in µs.
    pub queue_wait_us: Histogram,
    /// Solve time per completed request (PTAS or heuristic), in µs.
    pub solve_us: Histogram,
    /// Requests per drained batch.
    pub batch_size: Histogram,
    /// For degraded answers: how far past its deadline the request was
    /// when it finished, in µs.
    pub degraded_lateness_us: Histogram,
    /// Per-request achieved-vs-lower-bound gap, in ppm.
    pub gap_ppm: Histogram,
    /// Per-request anytime-improver wall clock, in µs (recorded only
    /// when the improver ran).
    pub improve_us: Histogram,
}

impl ServeMetrics {
    /// Point-in-time copy of every histogram.
    pub fn snapshot(&self) -> ServeHistograms {
        ServeHistograms {
            queue_wait_us: self.queue_wait_us.snapshot(),
            solve_us: self.solve_us.snapshot(),
            batch_size: self.batch_size.snapshot(),
            degraded_lateness_us: self.degraded_lateness_us.snapshot(),
            gap_ppm: self.gap_ppm.snapshot(),
            improve_us: self.improve_us.snapshot(),
        }
    }
}

/// Snapshot of the service histograms, embedded in [`ServiceReport`].
/// All-empty when `pcmax_obs` recording was never enabled.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServeHistograms {
    /// Queue wait per completed request, in µs.
    pub queue_wait_us: HistogramSnapshot,
    /// Solve time per completed request, in µs.
    pub solve_us: HistogramSnapshot,
    /// Requests per drained batch.
    pub batch_size: HistogramSnapshot,
    /// Lateness of degraded answers past their deadline, in µs.
    pub degraded_lateness_us: HistogramSnapshot,
    /// Per-request achieved-vs-lower-bound gap, in ppm.
    pub gap_ppm: HistogramSnapshot,
    /// Per-request anytime-improver wall clock, in µs.
    pub improve_us: HistogramSnapshot,
}

impl ServeHistograms {
    /// Writes the histograms as a JSON object into `w`.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object().key("queue_wait_us");
        self.queue_wait_us.write_json(w);
        w.key("solve_us");
        self.solve_us.write_json(w);
        w.key("batch_size");
        self.batch_size.write_json(w);
        w.key("degraded_lateness_us");
        self.degraded_lateness_us.write_json(w);
        w.key("gap_ppm");
        self.gap_ppm.write_json(w);
        w.key("improve_us");
        self.improve_us.write_json(w);
        w.end_object();
    }
}

/// Service-wide counters and histograms, a point-in-time snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ServiceReport {
    /// Requests admitted to the queue.
    pub accepted: u64,
    /// Requests answered (including degraded answers).
    pub completed: u64,
    /// Answers degraded to a heuristic.
    pub degraded: u64,
    /// Requests rejected because the queue was full.
    pub rejected: u64,
    /// Representation selection counts for probes that ran a DP.
    pub repr: ReprReport,
    /// Anytime-improver run/win counts.
    pub improve: ImproveReport,
    /// Portfolio-selector per-arm telemetry.
    pub portfolio: PortfolioReport,
    /// DP cache state.
    pub cache: CacheReport,
    /// Memory tiers: RAM budget/pressure and warm disk-tier counters.
    pub store: StoreReport,
    /// Latency/size histograms (all-empty unless `pcmax_obs` recording
    /// was enabled).
    pub histograms: ServeHistograms,
}

impl ServiceReport {
    /// The report as one JSON object — the payload of the TCP protocol's
    /// `stats` verb.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object()
            .field_u64("accepted", self.accepted)
            .field_u64("completed", self.completed)
            .field_u64("degraded", self.degraded)
            .field_u64("rejected", self.rejected)
            .key("repr")
            .begin_object()
            .field_u64("dense_probes", self.repr.dense_probes)
            .field_u64("sparse_probes", self.repr.sparse_probes)
            .field_u64("paged_probes", self.repr.paged_probes)
            .end_object()
            .key("improve")
            .begin_object()
            .field_u64("runs", self.improve.runs)
            .field_u64("improved", self.improve.improved)
            .end_object()
            .key("portfolio");
        self.portfolio.write_json(&mut w);
        w.key("cache")
            .begin_object()
            .field_u64("hits", self.cache.hits)
            .field_u64("misses", self.cache.misses)
            .field_u64("evictions", self.cache.evictions)
            .field_u64("entries", self.cache.entries as u64)
            .field_u64("bytes", self.cache.bytes)
            .field_f64("hit_rate", self.cache.hit_rate())
            .end_object()
            .key("store")
            .begin_object()
            .field_u64("budget_bytes", self.store.budget_bytes)
            .field_u64("cache_bytes", self.store.cache_bytes)
            .field_u64("pressure_pct", self.store.pressure_pct)
            .field_u64("warm_entries", self.store.warm_entries)
            .field_u64("rehydrated", self.store.rehydrated)
            .field_u64("disk_hits", self.store.disk_hits)
            .field_u64("appends", self.store.appends)
            .field_u64("warm_seq", self.store.warm_seq)
            .field_u64("compactions", self.store.compactions)
            .field_u64("warmsync_applied", self.store.warmsync_applied)
            .field_u64("cold_misses_avoided", self.store.cold_misses_avoided)
            .field_u64("replica_bytes", self.store.replica_bytes)
            .field_u64("replica_evictions", self.store.replica_evictions)
            .field_f64(
                "disk_hit_rate",
                self.store.disk_hit_rate(self.cache.misses),
            )
            .field_u64("paged_faults", self.store.paged_faults)
            .field_u64("prefetch_issued", self.store.prefetch_issued)
            .field_u64("prefetch_hits", self.store.prefetch_hits)
            .field_u64("writebehind_writes", self.store.writebehind_writes)
            .field_f64("prefetch_hit_rate", self.store.prefetch_hit_rate())
            .key("fault_us");
        self.store.fault_us.write_json(&mut w);
        w.end_object().key("histograms");
        self.histograms.write_json(&mut w);
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_roundtrips_through_display() {
        for e in [
            EngineUsed::Ptas,
            EngineUsed::LptRev,
            EngineUsed::Multifit,
            EngineUsed::Exact,
        ] {
            assert_eq!(e.to_string().parse::<EngineUsed>().unwrap(), e);
        }
        assert!("gpu".parse::<EngineUsed>().is_err());
        assert!("lpt".parse::<EngineUsed>().is_err());
    }

    #[test]
    fn report_json_includes_counters_and_histograms() {
        let metrics = ServeMetrics::default();
        metrics.queue_wait_us.record(100);
        metrics.solve_us.record(2_000);
        metrics.batch_size.record(4);
        let report = ServiceReport {
            accepted: 5,
            completed: 4,
            degraded: 1,
            rejected: 1,
            repr: ReprReport {
                dense_probes: 6,
                sparse_probes: 2,
                paged_probes: 1,
            },
            improve: ImproveReport {
                runs: 3,
                improved: 2,
            },
            portfolio: PortfolioReport {
                arms: vec![ArmReport {
                    arm: "lptrev".into(),
                    chosen: 3,
                    won: 2,
                    runs: 4,
                    latency_us: HistogramSnapshot::default(),
                }],
            },
            cache: CacheReport {
                hits: 3,
                misses: 1,
                evictions: 0,
                entries: 4,
                bytes: 512,
            },
            store: StoreReport {
                budget_bytes: 1024,
                cache_bytes: 512,
                pressure_pct: 50,
                warm_entries: 2,
                rehydrated: 2,
                disk_hits: 1,
                appends: 3,
                warm_seq: 7,
                compactions: 1,
                warmsync_applied: 2,
                cold_misses_avoided: 1,
                replica_bytes: 256,
                replica_evictions: 1,
                fault_us: HistogramSnapshot::default(),
                paged_faults: 4,
                prefetch_issued: 6,
                prefetch_hits: 4,
                writebehind_writes: 5,
            },
            histograms: metrics.snapshot(),
        };
        let json = report.to_json();
        assert!(json.contains("\"accepted\":5"), "{json}");
        assert!(json.contains("\"bytes\":512"), "{json}");
        assert!(json.contains("\"hit_rate\":0.75"), "{json}");
        assert!(
            json.contains("\"repr\":{\"dense_probes\":6,\"sparse_probes\":2,\"paged_probes\":1}"),
            "{json}"
        );
        assert!(
            json.contains("\"improve\":{\"runs\":3,\"improved\":2}"),
            "{json}"
        );
        assert!(json.contains("\"gap_ppm\":{\"count\":0"), "{json}");
        assert!(json.contains("\"improve_us\":{\"count\":0"), "{json}");
        assert!(
            json.contains("\"lptrev\":{\"chosen\":3,\"won\":2,\"runs\":4"),
            "{json}"
        );
        assert!(json.contains("\"budget_bytes\":1024"), "{json}");
        assert!(json.contains("\"pressure_pct\":50"), "{json}");
        assert!(json.contains("\"rehydrated\":2"), "{json}");
        assert!(json.contains("\"warm_seq\":7"), "{json}");
        assert!(json.contains("\"compactions\":1"), "{json}");
        assert!(json.contains("\"warmsync_applied\":2"), "{json}");
        assert!(json.contains("\"cold_misses_avoided\":1"), "{json}");
        assert!(json.contains("\"replica_bytes\":256"), "{json}");
        assert!(json.contains("\"replica_evictions\":1"), "{json}");
        assert!(json.contains("\"disk_hit_rate\":1"), "{json}");
        assert!(json.contains("\"paged_faults\":4"), "{json}");
        assert!(json.contains("\"prefetch_issued\":6"), "{json}");
        assert!(json.contains("\"prefetch_hits\":4"), "{json}");
        assert!(json.contains("\"writebehind_writes\":5"), "{json}");
        assert!(json.contains("\"prefetch_hit_rate\":0.5"), "{json}");
        assert!(json.contains("\"fault_us\":{\"count\":0"), "{json}");
        assert!(json.contains("\"queue_wait_us\":{\"count\":1"), "{json}");
        assert!(json.contains("\"solve_us\":{\"count\":1"), "{json}");
        assert!(json.contains("\"degraded_lateness_us\":{\"count\":0"), "{json}");
    }

    #[test]
    fn hit_rate_handles_idle_cache() {
        assert_eq!(CacheReport::default().hit_rate(), 0.0);
        let report = CacheReport {
            hits: 3,
            misses: 1,
            evictions: 0,
            entries: 4,
            bytes: 64,
        };
        assert!((report.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn zero_traffic_report_emits_finite_hit_rates_not_nan() {
        // Regression: a freshly started (or store-less) service has zero
        // accesses on every tier. Naive `hits / total` divisions are
        // 0/0 = NaN, which the JSON writer renders as `null` and
        // dashboards choke on. Every rate must come out 0, and the wire
        // form must stay free of null/NaN for all rate fields.
        let report = ServiceReport::default();
        assert_eq!(report.cache.hit_rate(), 0.0);
        assert_eq!(report.store.disk_hit_rate(0), 0.0);
        assert_eq!(report.store.prefetch_hit_rate(), 0.0);
        let json = report.to_json();
        assert!(json.contains("\"hit_rate\":0"), "{json}");
        assert!(json.contains("\"disk_hit_rate\":0"), "{json}");
        assert!(json.contains("\"prefetch_hit_rate\":0"), "{json}");
        assert!(!json.contains("null"), "rate field decayed to null: {json}");
        assert!(!json.contains("NaN"), "{json}");
    }

    #[test]
    fn disk_hit_rate_handles_idle_store() {
        let store = StoreReport::default();
        assert_eq!(store.disk_hit_rate(0), 0.0);
        let store = StoreReport {
            disk_hits: 3,
            ..StoreReport::default()
        };
        assert!((store.disk_hit_rate(4) - 0.75).abs() < 1e-12);
    }
}
