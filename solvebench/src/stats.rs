//! Order statistics over latency samples and the printed result.

/// Sorts a sample ascending.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank quantile `q ∈ [0, 1]` of an ascending-sorted sample
/// (0 for an empty one).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest tail percentile with at least ten samples beyond it:
/// 99 when the sample holds 1000 or more, else the next of 98, 95, 90,
/// 75 that qualifies, else 50.
pub fn tail_percentile(samples: usize) -> f64 {
    let p = [99, 98, 95, 90, 75]
        .into_iter()
        .find(|p| samples * (100 - p) >= 1000)
        .unwrap_or(50);
    p as f64
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric. Non-finite values (a ratio over an empty
    /// sample) are recorded as 0 so the JSON stays valid.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// The final result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = sorted((1..=100).map(f64::from).collect());
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 98.0);
        assert_eq!(tail_percentile(500), 98.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(10), 50.0);
    }

    #[test]
    fn json_prints_full_precision() {
        let mut m = Metrics::default();
        m.push("a", 1.0 / 3.0, "ms");
        m.push("b", f64::NAN, "s");
        let line = result_json(true, 3, 0, &m);
        assert!(line.contains("\"a\": {\"value\": 0.3333333333333333, \"unit\": \"ms\"}"));
        assert!(line.contains("\"b\": {\"value\": 0.0, \"unit\": \"s\"}"));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
    }
}
