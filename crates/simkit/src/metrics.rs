//! Metrics registry, log-bucketed histograms, and Prometheus exposition.
//!
//! This module is the metrics counterpart of [`crate::trace`]: a single
//! [`MetricsRegistry`] unifies counters, gauges, and histograms under the
//! same interned-label discipline the tracer uses, and is **zero-cost when
//! disabled** — registration always succeeds and returns typed handles so
//! instrumentation sites never need to special-case setup, while every
//! emission path (`inc`/`set`/`observe`) early-returns on a single resident
//! bool.
//!
//! Two more pieces live here because they share the registry's data model
//! and keep the crate dependency-free:
//!
//! * [`LogHistogram`] — a mergeable log-bucketed quantile sketch
//!   (DDSketch-style) with a configurable relative-error bound (default 2%),
//! * [`MetricsRegistry::render_prometheus`] — a Prometheus text-format
//!   (version 0.0.4) serializer (what `--metrics-out` writes), plus
//!   [`parse_prometheus`], a small parser that the committed benchmark
//!   (`benchmark/`) uses to read its counters back, and the round-trip
//!   tests use to check the serializer.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// LogHistogram
// ---------------------------------------------------------------------------

/// Default relative-error bound for [`LogHistogram`] (2%).
const DEFAULT_RELATIVE_ERROR: f64 = 0.02;

/// A mergeable log-bucketed histogram with bounded relative error.
///
/// Positive values are assigned to geometric buckets: with
/// `gamma = (1 + alpha) / (1 - alpha)`, bucket `i` covers
/// `(gamma^(i-1), gamma^i]` and is represented by its midpoint in log
/// space, `2 * gamma^i / (1 + gamma)`, which bounds the relative error of
/// any quantile query by `alpha`. Non-positive values (zero can legally
/// occur for instantaneous stage durations) land in a dedicated zero
/// bucket. Buckets are kept sparse in a `BTreeMap` so iteration order is
/// deterministic and memory stays proportional to the number of distinct
/// magnitudes observed.
///
/// Two histograms built with the same `alpha` can be [`LogHistogram::merge`]d
/// exactly: bucket counts add, which is what makes per-endpoint sketches
/// foldable into fleet-wide ones.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    gamma: f64,
    inv_ln_gamma: f64,
    alpha: f64,
    buckets: BTreeMap<i32, u64>,
    zero: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates a histogram with the default 2% relative-error bound.
    pub fn new() -> Self {
        Self::with_relative_error(DEFAULT_RELATIVE_ERROR)
    }

    /// Creates a histogram whose quantile estimates are within `alpha`
    /// relative error. `alpha` must be in `(0, 1)`.
    fn with_relative_error(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        LogHistogram {
            gamma,
            inv_ln_gamma: 1.0 / gamma.ln(),
            alpha,
            buckets: BTreeMap::new(),
            zero: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The relative-error bound this histogram was built with.
    pub fn relative_error(&self) -> f64 {
        self.alpha
    }

    /// Records one observation. NaN is ignored; non-positive values are
    /// counted in the zero bucket.
    pub fn observe(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.count += 1;
        self.sum += x;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
        if x <= 0.0 {
            self.zero += 1;
        } else {
            let i = (x.ln() * self.inv_ln_gamma).ceil() as i32;
            *self.buckets.entry(i).or_insert(0) += 1;
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of all observations, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`), or `None` if empty.
    ///
    /// The estimate is within the configured relative error of the true
    /// quantile for positive observations; the zero bucket reports 0.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        if rank <= self.zero {
            return Some(0.0);
        }
        let mut seen = self.zero;
        for (&i, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                // Representative value: log-space midpoint of (g^(i-1), g^i].
                return Some(2.0 * self.gamma.powi(i) / (1.0 + self.gamma));
            }
        }
        // Rounding fallback: return the top bucket's representative.
        self.buckets
            .keys()
            .next_back()
            .map(|&i| 2.0 * self.gamma.powi(i) / (1.0 + self.gamma))
    }

    /// Merges `other` into `self`. Both histograms must have been built
    /// with the same relative-error bound (same bucket geometry); merging
    /// incompatible sketches would silently misplace counts, so this
    /// panics instead.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert!(
            self.gamma.to_bits() == other.gamma.to_bits(),
            "cannot merge LogHistograms with different bucket geometry"
        );
        if other.count == 0 {
            return;
        }
        for (&i, &n) in &other.buckets {
            *self.buckets.entry(i).or_insert(0) += n;
        }
        self.zero += other.zero;
        self.count += other.count;
        self.sum += other.sum;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Cumulative bucket view for exposition: `(upper_bound,
    /// cumulative_count)` pairs in increasing bound order. The zero bucket
    /// is folded into the first (smallest) bound. Does not include `+Inf`;
    /// the caller appends it with [`LogHistogram::count`].
    fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(self.buckets.len() + 1);
        let mut cum = self.zero;
        if self.zero > 0 && self.buckets.is_empty() {
            out.push((0.0, cum));
        }
        for (&i, &n) in &self.buckets {
            cum += n;
            out.push((self.gamma.powi(i), cum));
        }
        out
    }

    /// Raw sparse bucket counts as `(bucket_index, count)` pairs in
    /// increasing index order — a wire-portable encoding of the sketch.
    /// The zero bucket travels as index [`i32::MIN`] (no geometric bucket
    /// can occupy it). Feed the result to
    /// [`LogHistogram::from_bucket_counts`] built with the same `alpha`
    /// to reconstitute a mergeable sketch on the other side.
    pub fn bucket_counts(&self) -> Vec<(i32, u64)> {
        let mut out = Vec::with_capacity(self.buckets.len() + 1);
        if self.zero > 0 {
            out.push((i32::MIN, self.zero));
        }
        out.extend(self.buckets.iter().map(|(&i, &n)| (i, n)));
        out
    }

    /// Rebuilds a sketch from [`LogHistogram::bucket_counts`] output.
    /// Counts land on each bucket's representative value, so quantile
    /// queries survive the round trip within the configured relative
    /// error; `sum`/`min`/`max` are likewise representative-based
    /// approximations. The result merges exactly with any histogram
    /// built with the same `alpha`.
    pub fn from_bucket_counts(alpha: f64, counts: &[(i32, u64)]) -> Self {
        let mut h = Self::with_relative_error(alpha);
        for &(i, n) in counts {
            if n == 0 {
                continue;
            }
            let v = if i == i32::MIN {
                h.zero += n;
                0.0
            } else {
                *h.buckets.entry(i).or_insert(0) += n;
                2.0 * h.gamma.powi(i) / (1.0 + h.gamma)
            };
            h.count += n;
            h.sum += v * n as f64;
            if v < h.min {
                h.min = v;
            }
            if v > h.max {
                h.max = v;
            }
        }
        h
    }
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

/// Handle to a registered counter. Cheap to copy and store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(pub u32);

/// Handle to a registered gauge. Cheap to copy and store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(pub u32);

/// Handle to a registered histogram. Cheap to copy and store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramId(pub u32);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

#[derive(Clone, Debug)]
struct Series {
    name: String,
    help: String,
    kind: MetricKind,
    labels: Vec<(String, String)>,
    value: f64,
    histo: Option<LogHistogram>,
}

/// A registry of counters, gauges, and log-bucketed histograms.
///
/// Mirrors the [`crate::trace::Tracer`] discipline: a disabled registry
/// still interns series metadata and hands out valid handles (so
/// instrumentation setup needs no special-casing), but every emission call
/// is a single branch on a resident bool. Series are deduplicated on
/// `(name, labels)` — registering the same series twice returns the same
/// handle.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    enabled: bool,
    series: Vec<Series>,
    index: HashMap<String, u32>,
    // Family name in first-registration order, for stable exposition.
    families: Vec<String>,
}

impl MetricsRegistry {
    /// Creates an enabled registry.
    pub fn new() -> Self {
        MetricsRegistry {
            enabled: true,
            ..Default::default()
        }
    }

    /// Creates a disabled registry: registration works, emission is a
    /// single-branch no-op, and exposition renders nothing.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether emission calls record anything.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn series_key(name: &str, labels: &[(&str, &str)]) -> String {
        let mut key = String::with_capacity(name.len() + 16 * labels.len());
        key.push_str(name);
        for (k, v) in labels {
            key.push('\u{1}');
            key.push_str(k);
            key.push('\u{2}');
            key.push_str(v);
        }
        key
    }

    fn register(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
    ) -> u32 {
        let key = Self::series_key(name, labels);
        if let Some(&idx) = self.index.get(&key) {
            assert_eq!(
                self.series[idx as usize].kind, kind,
                "metric {name} re-registered with a different kind"
            );
            return idx;
        }
        let idx = self.series.len() as u32;
        if !self.families.iter().any(|f| f == name) {
            self.families.push(name.to_string());
        }
        self.series.push(Series {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value: 0.0,
            // Only allocate the sketch when emission can actually happen.
            histo: (self.enabled && kind == MetricKind::Histogram).then(LogHistogram::new),
        });
        self.index.insert(key, idx);
        idx
    }

    /// Registers (or looks up) a monotonically increasing counter.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> CounterId {
        CounterId(self.register(name, help, labels, MetricKind::Counter))
    }

    /// Registers (or looks up) a gauge.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> GaugeId {
        GaugeId(self.register(name, help, labels, MetricKind::Gauge))
    }

    /// Registers (or looks up) a histogram with the default 2% relative
    /// error.
    pub fn histogram(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> HistogramId {
        HistogramId(self.register(name, help, labels, MetricKind::Histogram))
    }

    /// Adds `delta` to a counter. No-op when disabled.
    #[inline]
    pub fn inc(&mut self, id: CounterId, delta: f64) {
        if !self.enabled {
            return;
        }
        self.series[id.0 as usize].value += delta;
    }

    /// Sets a gauge to `v`. No-op when disabled.
    #[inline]
    pub fn set(&mut self, id: GaugeId, v: f64) {
        if !self.enabled {
            return;
        }
        self.series[id.0 as usize].value = v;
    }

    /// Records one histogram observation. No-op when disabled.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, x: f64) {
        if !self.enabled {
            return;
        }
        if let Some(h) = self.series[id.0 as usize].histo.as_mut() {
            h.observe(x);
        }
    }

    /// The sketch behind a histogram handle, or `None` when disabled.
    pub fn histogram_sketch(&self, id: HistogramId) -> Option<&LogHistogram> {
        self.series[id.0 as usize].histo.as_ref()
    }

    /// Replaces a histogram's sketch wholesale — used to fold an
    /// externally accumulated [`LogHistogram`] (e.g. a per-run accuracy
    /// sketch) into the registry exactly, instead of replaying
    /// observations. No-op when disabled.
    pub fn replace_histogram(&mut self, id: HistogramId, sketch: LogHistogram) {
        if !self.enabled {
            return;
        }
        let s = &mut self.series[id.0 as usize];
        assert_eq!(s.kind, MetricKind::Histogram, "not a histogram series");
        s.histo = Some(sketch);
    }

    /// Number of registered series (metadata count; independent of
    /// enablement).
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether no series have been registered.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Renders the registry in Prometheus text format 0.0.4.
    ///
    /// `# HELP`/`# TYPE` are emitted once per metric family (first
    /// registration wins), then one sample line per series. Histograms
    /// expand into cumulative `_bucket{le=...}` lines (always ending with
    /// `+Inf`), `_sum`, and `_count`. A disabled registry renders an empty
    /// string.
    pub fn render_prometheus(&self) -> String {
        if !self.enabled {
            return String::new();
        }
        let mut out = String::new();
        for family in &self.families {
            let members: Vec<&Series> = self.series.iter().filter(|s| &s.name == family).collect();
            let first = members[0];
            let type_name = match first.kind {
                MetricKind::Counter => "counter",
                MetricKind::Gauge => "gauge",
                MetricKind::Histogram => "histogram",
            };
            if !first.help.is_empty() {
                let _ = writeln!(out, "# HELP {} {}", family, escape_help(&first.help));
            }
            let _ = writeln!(out, "# TYPE {family} {type_name}");
            for s in members {
                match s.kind {
                    MetricKind::Counter | MetricKind::Gauge => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            s.name,
                            render_labels(&s.labels, None),
                            render_value(s.value)
                        );
                    }
                    MetricKind::Histogram => {
                        let h = s.histo.as_ref().expect("enabled histogram has a sketch");
                        for (bound, cum) in h.cumulative_buckets() {
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {}",
                                s.name,
                                render_labels(&s.labels, Some(&render_value(bound))),
                                cum
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            s.name,
                            render_labels(&s.labels, Some("+Inf")),
                            h.count()
                        );
                        let _ = writeln!(
                            out,
                            "{}_sum{} {}",
                            s.name,
                            render_labels(&s.labels, None),
                            render_value(h.sum())
                        );
                        let _ = writeln!(
                            out,
                            "{}_count{} {}",
                            s.name,
                            render_labels(&s.labels, None),
                            h.count()
                        );
                    }
                }
            }
        }
        out
    }
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label_value(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    if let Some(bound) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{bound}\"");
    }
    out.push('}');
    out
}

fn render_value(v: f64) -> String {
    if v.is_nan() {
        return "NaN".into();
    }
    if v.is_infinite() {
        return if v > 0.0 {
            "+Inf".into()
        } else {
            "-Inf".into()
        };
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

// ---------------------------------------------------------------------------
// Prometheus text-format parser (for the benchmark and round-trip tests)
// ---------------------------------------------------------------------------

/// One sample parsed from Prometheus text exposition.
#[derive(Clone, Debug, PartialEq)]
pub struct PromSample {
    /// Sample name (for histograms this includes the `_bucket`/`_sum`/
    /// `_count` suffix).
    pub name: String,
    /// Label pairs in source order (including `le` for buckets).
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// Parses Prometheus text format 0.0.4 into a flat sample list.
///
/// This is intentionally small: it handles the subset this crate emits
/// (comments, label escaping, `+Inf`/`-Inf`/`NaN` values) and is used by
/// the benchmark's counter read-back and the exposition round-trip tests.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |msg: &str| format!("line {}: {msg}: {raw}", lineno + 1);
        // Split into name[{labels}] value.
        let (name_part, labels, rest) = if let Some(brace) = line.find('{') {
            let name = &line[..brace];
            let close = line[brace..]
                .find('}')
                .map(|i| i + brace)
                .ok_or_else(|| err("unterminated label set"))?;
            let labels = parse_labels(&line[brace + 1..close]).map_err(|m| err(&m))?;
            (name, labels, line[close + 1..].trim())
        } else {
            let mut it = line.splitn(2, char::is_whitespace);
            let name = it.next().ok_or_else(|| err("missing name"))?;
            (name, Vec::new(), it.next().unwrap_or("").trim())
        };
        if name_part.is_empty() {
            return Err(err("empty metric name"));
        }
        // Value is the first whitespace token (a timestamp may follow).
        let value_tok = rest
            .split_whitespace()
            .next()
            .ok_or_else(|| err("missing value"))?;
        let value = match value_tok {
            "+Inf" | "Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            tok => tok.parse::<f64>().map_err(|_| err("bad value"))?,
        };
        out.push(PromSample {
            name: name_part.to_string(),
            labels,
            value,
        });
    }
    Ok(out)
}

fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = s.chars().peekable();
    loop {
        while matches!(chars.peek(), Some(c) if c.is_whitespace() || *c == ',') {
            chars.next();
        }
        if chars.peek().is_none() {
            break;
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        let key = key.trim().to_string();
        if key.is_empty() {
            return Err("empty label name".into());
        }
        if chars.next() != Some('"') {
            return Err(format!("label {key}: expected opening quote"));
        }
        let mut val = String::new();
        let mut closed = false;
        while let Some(c) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some('n') => val.push('\n'),
                    Some('\\') => val.push('\\'),
                    Some('"') => val.push('"'),
                    other => return Err(format!("label {key}: bad escape {other:?}")),
                },
                '"' => {
                    closed = true;
                    break;
                }
                c => val.push(c),
            }
        }
        if !closed {
            return Err(format!("label {key}: unterminated value"));
        }
        labels.push((key, val));
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_counts_round_trip_preserves_quantiles() {
        let mut h = LogHistogram::new();
        h.observe(0.0); // zero bucket must survive the wire encoding
        for i in 1..=1_000 {
            h.observe(i as f64 * 0.004);
        }
        let counts = h.bucket_counts();
        assert_eq!(counts[0], (i32::MIN, 1), "zero bucket travels first");
        let back = LogHistogram::from_bucket_counts(h.relative_error(), &counts);
        assert_eq!(back.count(), h.count());
        for &q in &[0.1, 0.5, 0.9, 0.99] {
            let a = h.quantile(q).unwrap();
            let b = back.quantile(q).unwrap();
            assert!(
                (a - b).abs() <= a * 2.0 * h.relative_error(),
                "q{q}: {a} vs {b}"
            );
        }
        // The reconstituted sketch merges exactly with a native one.
        let mut native = LogHistogram::new();
        native.observe(1.0);
        native.merge(&back);
        assert_eq!(native.count(), h.count() + 1);
        // Empty round trip stays empty.
        let empty = LogHistogram::from_bucket_counts(0.02, &[]);
        assert_eq!(empty.count(), 0);
        assert!(empty.quantile(0.5).is_none());
    }

    #[test]
    fn log_histogram_bounded_relative_error() {
        let mut h = LogHistogram::new();
        let values: Vec<f64> = (1..=10_000).map(|i| i as f64 * 0.001).collect();
        for &v in &values {
            h.observe(v);
        }
        for &(q, truth) in &[(0.5, 5.0), (0.9, 9.0), (0.99, 9.9)] {
            let est = h.quantile(q).unwrap();
            let rel = (est - truth).abs() / truth;
            assert!(rel <= 0.021, "q={q}: est {est} vs {truth} (rel {rel})");
        }
        assert_eq!(h.count(), 10_000);
        assert!((h.sum() - values.iter().sum::<f64>()).abs() < 1e-6);
    }

    #[test]
    fn log_histogram_zero_and_nan() {
        let mut h = LogHistogram::new();
        h.observe(0.0);
        h.observe(-3.0);
        h.observe(f64::NAN);
        h.observe(2.0);
        assert_eq!(h.count(), 3); // NaN ignored
        assert_eq!(h.quantile(0.0), Some(0.0));
        let p99 = h.quantile(0.99).unwrap();
        assert!((p99 - 2.0).abs() / 2.0 <= 0.02);
        assert_eq!(h.min(), Some(-3.0));
        assert_eq!(h.max(), Some(2.0));
    }

    #[test]
    fn log_histogram_empty() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn log_histogram_merge_equals_sequential() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for i in 1..500 {
            let v = (i as f64).sqrt();
            if i % 2 == 0 {
                a.observe(v);
            } else {
                b.observe(v);
            }
            all.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.quantile(0.5), all.quantile(0.5));
        assert_eq!(a.quantile(0.95), all.quantile(0.95));
        assert!((a.sum() - all.sum()).abs() < 1e-9);
        // Merging an empty histogram is a no-op.
        let before = a.count();
        a.merge(&LogHistogram::new());
        assert_eq!(a.count(), before);
    }

    #[test]
    fn registry_disabled_is_inert() {
        let mut reg = MetricsRegistry::disabled();
        let c = reg.counter("x_total", "help", &[("ep", "a")]);
        let g = reg.gauge("g", "help", &[]);
        let h = reg.histogram("h_seconds", "help", &[]);
        reg.inc(c, 5.0);
        reg.set(g, 3.0);
        reg.observe(h, 1.0);
        assert_eq!(reg.series[c.0 as usize].value, 0.0);
        assert_eq!(reg.series[g.0 as usize].value, 0.0);
        assert!(reg.histogram_sketch(h).is_none());
        assert_eq!(reg.render_prometheus(), "");
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn registry_dedupes_series() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("x_total", "help", &[("ep", "a")]);
        let b = reg.counter("x_total", "ignored second help", &[("ep", "a")]);
        let c = reg.counter("x_total", "help", &[("ep", "b")]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        reg.inc(a, 1.0);
        reg.inc(b, 1.0);
        assert_eq!(reg.series[a.0 as usize].value, 2.0);
    }

    #[test]
    fn prometheus_round_trip() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("jobs_total", "Jobs seen.", &[("pool", "alpha \"q\"\\x")]);
        let g = reg.gauge("busy_workers", "Busy now.", &[("pool", "alpha")]);
        let h = reg.histogram("exec_seconds", "Execution time.", &[("fn", "map")]);
        reg.inc(c, 42.0);
        reg.set(g, 3.5);
        for i in 1..=100 {
            reg.observe(h, i as f64 * 0.01);
        }
        let text = reg.render_prometheus();
        let samples = parse_prometheus(&text).expect("parses");

        // Counter and gauge survive with exact labels and values.
        let jc = samples.iter().find(|s| s.name == "jobs_total").unwrap();
        assert_eq!(jc.value, 42.0);
        assert_eq!(jc.labels, vec![("pool".into(), "alpha \"q\"\\x".into())]);
        let bw = samples.iter().find(|s| s.name == "busy_workers").unwrap();
        assert_eq!(bw.value, 3.5);

        // Histogram: buckets are cumulative and monotone, end in +Inf, and
        // _sum/_count agree with the sketch.
        let buckets: Vec<&PromSample> = samples
            .iter()
            .filter(|s| s.name == "exec_seconds_bucket")
            .collect();
        assert!(buckets.len() >= 2);
        let mut prev_bound = f64::NEG_INFINITY;
        let mut prev_cum = 0.0;
        for b in &buckets {
            let le = b
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| match v.as_str() {
                    "+Inf" => f64::INFINITY,
                    v => v.parse().unwrap(),
                })
                .unwrap();
            assert!(le > prev_bound, "bucket bounds increase");
            assert!(b.value >= prev_cum, "cumulative counts never decrease");
            prev_bound = le;
            prev_cum = b.value;
        }
        assert!(prev_bound.is_infinite(), "last bucket is +Inf");
        let count = samples
            .iter()
            .find(|s| s.name == "exec_seconds_count")
            .unwrap();
        let sum = samples
            .iter()
            .find(|s| s.name == "exec_seconds_sum")
            .unwrap();
        assert_eq!(count.value, 100.0);
        assert_eq!(prev_cum, count.value, "+Inf bucket equals _count");
        let true_sum: f64 = (1..=100).map(|i| i as f64 * 0.01).sum();
        assert!((sum.value - true_sum).abs() < 1e-9);

        // HELP/TYPE lines present once per family.
        assert_eq!(text.matches("# TYPE exec_seconds histogram").count(), 1);
        assert_eq!(text.matches("# HELP jobs_total").count(), 1);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_prometheus("no_value_here").is_err());
        assert!(parse_prometheus("x{unterminated=\"v} 1").is_err());
        assert!(parse_prometheus("x{a=\"b\"} notanumber").is_err());
        assert!(parse_prometheus("# just a comment\n").unwrap().is_empty());
    }
}
