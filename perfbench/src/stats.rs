//! Summaries of per-op timings, failure counting, and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// Per-op latencies of one timed phase, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ms: Vec<f64>,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Samples {
        Samples {
            ms: Vec::with_capacity(n),
        }
    }

    pub fn push(&mut self, elapsed: Duration) {
        self.ms.push(elapsed.as_secs_f64() * 1e3);
    }

    pub fn push_ms(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    pub fn sum_ms(&self) -> f64 {
        self.ms.iter().sum::<f64>()
    }

    pub fn mean_ms(&self) -> f64 {
        if self.ms.is_empty() {
            return 0.0;
        }
        self.sum_ms() / self.ms.len() as f64
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.ms.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    pub fn median_ms(&self) -> f64 {
        let sorted = self.sorted();
        match sorted.len() {
            0 => 0.0,
            n if n % 2 == 1 => sorted[n / 2],
            n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
        }
    }

    /// Medians of `k` consecutive, equal windows of the samples, in
    /// run order: a slow host phase shows as a run of high windows.
    pub fn window_medians_ms(&self, k: usize) -> Vec<f64> {
        let size = self.ms.len().div_ceil(k.max(1)).max(1);
        self.ms
            .chunks(size)
            .map(|chunk| Samples { ms: chunk.to_vec() }.median_ms())
            .collect()
    }

    /// The 10th to 90th percentiles in steps of ten (nearest rank).
    pub fn deciles_ms(&self) -> Vec<f64> {
        let sorted = self.sorted();
        if sorted.is_empty() {
            return Vec::new();
        }
        (1..10)
            .map(|d| sorted[nearest_rank(sorted.len(), d * 10) - 1])
            .collect()
    }

    /// The `percentile`-th latency (nearest rank); `None` when fewer
    /// than [`TAIL_MIN_BEYOND`] samples lie beyond it.
    pub fn percentile_ms(&self, percentile: u32) -> Option<f64> {
        let n = self.ms.len();
        let rank = nearest_rank(n, percentile);
        if n < rank + TAIL_MIN_BEYOND {
            return None;
        }
        Some(self.sorted()[rank - 1])
    }

    /// The tail latency: the highest of p99 and p90 that keeps at least
    /// [`TAIL_MIN_BEYOND`] samples beyond it, with the percentile used.
    /// `None` when even p90 would rest on fewer samples.
    pub fn tail_ms(&self) -> Option<(u32, f64)> {
        let percentile = tail_percentile(self.ms.len())?;
        Some((percentile, self.percentile_ms(percentile)?))
    }
}

/// The fewest samples a reported percentile may have above it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest-rank index of `percentile` in `n` sorted samples.
fn nearest_rank(n: usize, percentile: u32) -> usize {
    (n * percentile as usize).div_ceil(100).max(1)
}

/// The tail percentile a run of `n` ops may report: p99 from 1 000 ops,
/// p90 from 100, none below — never a percentile with fewer than
/// [`TAIL_MIN_BEYOND`] samples beyond it.
pub fn tail_percentile(n: usize) -> Option<u32> {
    [99, 90]
        .into_iter()
        .find(|&p| n >= 100 && n - nearest_rank(n, p) >= TAIL_MIN_BEYOND)
}

/// Median of a small set of measurements (set-up repetitions).
pub fn median(values: &[f64]) -> f64 {
    let mut samples = Samples::default();
    for &v in values {
        samples.push_ms(v);
    }
    samples.median_ms()
}

/// The mean of `values`; 0 for none.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Attempted and failed ops. An op fails when its output check fails,
/// its cost is non-finite, or the daemon answers with an error or a
/// replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

/// Whether `name` is a valid metric name: a letter or digit first, then
/// at most 64 letters, digits, `_`, `.` and `-` in all.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Named metrics in report order.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(valid_unit(unit), "invalid unit {unit:?} for {name}");
        assert!(
            self.entries.iter().all(|(n, ..)| *n != name),
            "metric {name} reported twice"
        );
        self.entries.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, ..)| *n == name)
            .map(|&(_, v, _)| v)
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.entries.iter().map(|(n, ..)| *n)
    }
}

/// A JSON number with every digit Rust's shortest round-trip form
/// keeps; non-finite values (which JSON cannot hold) become `null`.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_owned()
    }
}

/// A JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, tally: Tally, metrics: &Metrics) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.entries.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.attempted, tally.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::default();
        for i in 0..n {
            s.push_ms(i as f64 + 1.0);
        }
        s
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(999), Some(90));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(50_000), Some(99));
        for n in 0..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - nearest_rank(n, p) >= TAIL_MIN_BEYOND, "n={n} p{p}");
            }
        }
    }

    #[test]
    fn tail_reports_nearest_rank_value() {
        assert_eq!(samples(100).tail_ms(), Some((90, 90.0)));
        assert_eq!(samples(1000).tail_ms(), Some((99, 990.0)));
        assert_eq!(samples(40).tail_ms(), None);
        assert_eq!(samples(1000).percentile_ms(90), Some(900.0));
        assert_eq!(samples(100).percentile_ms(90), Some(90.0));
        assert_eq!(samples(99).percentile_ms(90), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(samples(5).median_ms(), 3.0);
        assert_eq!(samples(4).median_ms(), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn metric_names_and_units() {
        for good in ["setup_s", "op_ms_p50", "core.delta_propose_ms", "9a-b"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["ms", "s", "1/s", "count", "%", "MB"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "m s", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_metric_is_refused() {
        let mut m = Metrics::default();
        m.put("a", 1.0, "s");
        m.put("a", 2.0, "s");
    }

    #[test]
    fn injected_failure_counts_in_error_rate() {
        let mut tally = Tally::default();
        for i in 0..4 {
            tally.record(i != 2);
        }
        assert_eq!(
            tally,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(tally.error_rate(), 0.25);
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.25, "ms");
        m.put("setup_s", 0.5, "s");
        let line = result_line(
            true,
            Tally {
                attempted: 3,
                failed: 0,
            },
            &m,
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_string("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
