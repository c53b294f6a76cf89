//! Seeded benchmark of the pcmax solve path: cold dense DP (`dp-dense`)
//! and the hot request path through the cluster coordinator (`path-hot`),
//! with a traced run that measures every layer, the spilling sparse/paged
//! configuration included. See `README.md` for what each metric measures
//! and which layer it belongs to.

pub mod check;
pub mod env;
pub mod layers;
pub mod stats;
pub mod workloads;

use env::{peak_rss_mb, RunRoot};
use stats::{mean, median, quantile, sorted, tail_percentile, Metrics};
use std::time::{Duration, Instant};
use workloads::{
    closed_loop, open_loop, setup_dp, setup_hot, LoopStats, Workload, OFFERED_RPS, SETUP_REPEATS,
};

/// Every end-to-end metric, with its unit, in report order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("gap_ppm_mean", "ppm"),
    ("peak_rss_mb", "MiB"),
];

/// One benchmark run's request.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Timed-phase length.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// A finished run.
pub struct Outcome {
    /// Reported metrics (end-to-end or per-layer).
    pub metrics: Metrics,
    /// Requests and checks attempted.
    pub attempted: u64,
    /// Requests and checks failed.
    pub failed: u64,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

/// Runs one workload.
pub fn run(args: &Args, root: &RunRoot) -> Result<Outcome, String> {
    let dur = Duration::from_secs_f64(args.seconds);
    match (args.workload, args.trace) {
        (Workload::DpDense, false) => {
            let mut setups = Vec::new();
            let mut state = None;
            for _ in 0..SETUP_REPEATS {
                drop(state.take());
                let started = Instant::now();
                state = Some(setup_dp(args.seed));
                setups.push(started.elapsed().as_secs_f64());
            }
            let state = state.expect("at least one set-up");
            let st = closed_loop(&state, args.seed, dur, false);
            drop(state);
            Ok(end_to_end(args, &setups, st, "closed loop, 1 client"))
        }
        (Workload::PathHot, false) => {
            let mut setups = Vec::new();
            let mut state = None;
            for r in 0..SETUP_REPEATS {
                drop(state.take());
                let started = Instant::now();
                state = Some(setup_hot(args.seed, root.subdir(&format!("setup-{r}")))?);
                setups.push(started.elapsed().as_secs_f64());
            }
            let state = state.expect("at least one set-up");
            let st = open_loop(&state, args.seed, OFFERED_RPS, dur, false);
            drop(state);
            let mode = format!("open loop, {OFFERED_RPS} req/s offered on 1 pipelined connection");
            Ok(end_to_end(args, &setups, st, &mode))
        }
        (Workload::DpDense, true) => {
            let a = setup_dp(args.seed);
            let untraced = closed_loop(&a, args.seed, dur / 2, false);
            drop(a);
            let b = setup_dp(args.seed);
            let traced = closed_loop(&b, args.seed, dur / 2, true);
            traced_outcome(&layers::LayerInputs {
                sample: b.pool[..layers::SAMPLE].to_vec(),
                opts: b.opts.clone(),
                root,
                untraced: &untraced,
                traced: &traced,
                service: &b.service,
                hot: None,
            })
        }
        (Workload::PathHot, true) => {
            let state = setup_hot(args.seed, root.subdir("cluster"))?;
            let untraced = open_loop(&state, args.seed, OFFERED_RPS, dur / 2, false);
            let traced = open_loop(&state, args.seed, OFFERED_RPS, dur / 2, true);
            traced_outcome(&layers::LayerInputs {
                sample: state.items[..layers::SAMPLE]
                    .iter()
                    .map(|i| i.inst.clone())
                    .collect(),
                opts: workloads::solver_options(state.reference.config()),
                root,
                untraced: &untraced,
                traced: &traced,
                service: &state.reference,
                hot: Some(&state),
            })
        }
    }
}

fn end_to_end(args: &Args, setups: &[f64], st: LoopStats, mode: &str) -> Outcome {
    let lat = sorted(st.latency_ns.iter().map(|&l| l as f64 / 1e6).collect());
    let (tail, tail_ms) = tail_latency_ms(&st);
    let gaps: Vec<f64> = st.gap_ppm.iter().map(|&g| g as f64).collect();
    let mut m = Metrics::default();
    m.push("setup_s", median(setups), "s");
    m.push("latency_p50_ms", quantile(&lat, 0.5), "ms");
    m.push("throughput_rps", st.throughput_rps(), "1/s");
    m.push("gap_ppm_mean", mean(&gaps), "ppm");
    m.push("peak_rss_mb", peak_rss_mb(), "MiB");
    let lag = sorted(st.lag_ns.iter().map(|&l| l as f64 / 1e6).collect());
    let frac = |x: u64| x as f64 / st.attempted.max(1) as f64;
    let notes = vec![
        format!("mode: {mode}, {} s timed", args.seconds),
        format!(
            "samples: {} checked replies of {} attempted",
            lat.len(),
            st.attempted
        ),
        format!(
            "latency_p99_ms: {tail_ms} ms (p{tail}, {} samples beyond it; reported, not gated)",
            (lat.len() * (100 - tail as usize)) / 100
        ),
        format!("failed_frac: {} (ratio)", frac(st.failed)),
        format!("degraded_frac: {} (ratio)", frac(st.degraded)),
        format!("generator lag p99: {} ms", quantile(&lag, 0.99)),
        format!("set-up times: {setups:?} s"),
    ];
    Outcome {
        metrics: m,
        attempted: st.attempted,
        failed: st.failed,
        notes,
        errors: st.errors,
    }
}

/// The highest percentile of the checked latencies with ten samples
/// beyond it, and its value in ms.
pub fn tail_latency_ms(st: &LoopStats) -> (f64, f64) {
    let lat = sorted(st.latency_ns.iter().map(|&l| l as f64 / 1e6).collect());
    let tail = tail_percentile(lat.len());
    (tail, quantile(&lat, tail / 100.0))
}

fn traced_outcome(inputs: &layers::LayerInputs<'_>) -> Result<Outcome, String> {
    let (metrics, checks) = layers::measure(inputs)?;
    let (u, t) = (inputs.untraced, inputs.traced);
    let notes = vec![
        format!(
            "untraced half: {} replies, {:.1} req/s; traced half: {} replies, {:.1} req/s",
            u.latency_ns.len(),
            u.throughput_rps(),
            t.latency_ns.len(),
            t.throughput_rps()
        ),
        format!(
            "layer checks: {} of {} failed",
            checks.failed, checks.attempted
        ),
    ]
    .into_iter()
    .chain(checks.notes)
    .collect();
    let mut errors = u.errors.clone();
    errors.extend(t.errors.iter().cloned());
    errors.extend(checks.errors);
    Ok(Outcome {
        metrics,
        attempted: u.attempted + t.attempted + checks.attempted,
        failed: u.failed + t.failed + checks.failed,
        notes,
        errors,
    })
}
