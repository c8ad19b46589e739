//! Sample summaries and the (serde-free) JSON the harness prints.

use std::fmt::Write as _;

/// Median of `v` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one rep.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of an already sorted slice.
pub fn percentile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One reported metric: the median across timed reps, with the spread the
/// reps showed.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as spelled in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as spelled in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Median across samples.
    pub value: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample count (timed reps, or 1 for a whole-run value).
    pub n: usize,
}

impl Metric {
    /// Summarises per-rep `samples`; no samples reads as 0 (the layer was
    /// not exercised by this workload).
    pub fn from_samples(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        if samples.is_empty() {
            return Metric::single(name, unit, 0.0);
        }
        Metric {
            name,
            unit,
            value: median(samples),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: samples.len(),
        }
    }

    /// A value measured once per run.
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            min: value,
            max: value,
            n: 1,
        }
    }
}

/// Formats a float so it round-trips and stays valid JSON.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The driver-facing result: one JSON object on one line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// The number that follows `key` in a [`result_line`].
fn number_after<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    let rest = &line[line.find(key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// Reads a metric's value back out of a [`result_line`].
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    number_after(line, &format!("\"{name}\": {{\"value\": "))
}

/// Reads a top-level integer field (`attempted`, `failed`) of a
/// [`result_line`].
pub fn int_field(line: &str, name: &str) -> Option<u64> {
    number_after(line, &format!("\"{name}\": "))
}

/// The human table printed above the result line.
pub fn render_table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(
            out,
            "  {:<34} {:>16} {:<8} (min {}, max {}, n={})",
            m.name,
            short(m.value),
            m.unit,
            short(m.min),
            short(m.max),
            m.n
        );
    }
    out
}

fn short(v: f64) -> String {
    if v == 0.0 || (v.abs() >= 0.01 && v.abs() < 1e7) {
        let s = format!("{v:.4}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        format!("{v:.4e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&s, 0.5), 50);
        assert_eq!(percentile_sorted(&s, 0.99), 99);
        assert_eq!(percentile_sorted(&s, 1.0), 100);
        assert_eq!(percentile_sorted(&[7u64], 0.99), 7);
    }

    #[test]
    fn result_line_round_trips() {
        let ms = [
            Metric::from_samples("tasks_per_s", "tasks/s", &[10.5, 11.5, 12.25]),
            Metric::single("setup_s", "s", 0.0321),
        ];
        let line = result_line(true, 300, 0, &ms);
        assert!(!line.contains('\n'));
        assert_eq!(metric_value(&line, "tasks_per_s"), Some(11.5));
        assert_eq!(metric_value(&line, "setup_s"), Some(0.0321));
        assert_eq!(metric_value(&line, "absent"), None);
        assert_eq!(int_field(&line, "attempted"), Some(300));
        assert_eq!(int_field(&line, "failed"), Some(0));
    }
}
