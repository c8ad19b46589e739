//! Online predictor-accuracy monitoring (the observe leg of §IV-C).
//!
//! The DHA scheduler's placement quality is bounded by how well the
//! execution/transfer profilers predict reality, but nothing in the
//! original loop measures that. [`AccuracyMonitor`] closes the gap: every
//! task and transfer completion records predicted-vs-actual into
//! per-function and per-endpoint-pair error sketches, from which it reports
//! MAPE, signed bias, and p95 absolute relative error — the calibration
//! table surfaced in the run report and exported through the metrics
//! registry. Observations whose error exceeds a configurable threshold are
//! flagged so the runtime can drop drift instants into the trace.

use std::collections::BTreeMap;

use simkit::metrics::MetricsRegistry;
use simkit::stats::OnlineStats;
use simkit::LogHistogram;

use super::{EndpointFeatures, Predictor};
use fedci::endpoint::EndpointId;
use taskgraph::{Dag, TaskId};

/// Default drift threshold: flag observations whose absolute relative
/// error exceeds 25%.
const DEFAULT_DRIFT_THRESHOLD: f64 = 0.25;

/// Error accumulator for one model key (a function, an endpoint, or an
/// endpoint pair).
#[derive(Clone, Debug)]
struct ErrorStats {
    abs: LogHistogram,
    signed: OnlineStats,
}

impl Default for ErrorStats {
    fn default() -> Self {
        ErrorStats {
            abs: LogHistogram::new(),
            signed: OnlineStats::new(),
        }
    }
}

impl ErrorStats {
    /// Records one predicted-vs-actual pair and returns the absolute
    /// relative error. The denominator is the actual value, floored at a
    /// nanosecond so instantaneous actuals don't produce infinities.
    fn record(&mut self, predicted: f64, actual: f64) -> f64 {
        let denom = actual.abs().max(1e-9);
        let rel = (predicted - actual) / denom;
        self.abs.observe(rel.abs());
        self.signed.push(rel);
        rel.abs()
    }

    /// Number of observations.
    fn count(&self) -> u64 {
        self.abs.count()
    }

    /// Mean absolute percentage error, as a fraction (0.10 = 10%).
    fn mape(&self) -> f64 {
        self.abs.mean().unwrap_or(0.0)
    }

    /// Mean signed relative error; positive means the predictor
    /// over-estimates.
    fn bias(&self) -> f64 {
        self.signed.mean()
    }

    /// 95th percentile of the absolute relative error (within the
    /// sketch's 2% relative-error bound).
    fn p95_abs_err(&self) -> f64 {
        self.abs.quantile(0.95).unwrap_or(0.0)
    }

    /// The underlying error sketch, for export.
    fn sketch(&self) -> &LogHistogram {
        &self.abs
    }
}

/// One row of the calibration table in the run report.
#[derive(Clone, Debug)]
pub struct CalibrationRow {
    /// Model key, e.g. `exec:montage_mProject`, `exec@theta`, or
    /// `xfer:0->2`.
    pub model: String,
    /// Observations folded in.
    pub count: u64,
    /// Mean absolute percentage error, as a fraction.
    pub mape: f64,
    /// Mean signed relative error (positive = over-prediction).
    pub bias: f64,
    /// 95th-percentile absolute relative error.
    pub p95_abs_err: f64,
}

/// Live predicted-vs-actual accuracy tracking across a run.
///
/// Keys are kept in `BTreeMap`s so the calibration table and metric
/// export order are deterministic.
#[derive(Clone, Debug)]
pub struct AccuracyMonitor {
    threshold: f64,
    exec_by_fn: BTreeMap<String, ErrorStats>,
    exec_by_ep: BTreeMap<String, ErrorStats>,
    xfer_by_pair: BTreeMap<(u16, u16), ErrorStats>,
    drift_events: u64,
}

impl Default for AccuracyMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl AccuracyMonitor {
    /// Creates a monitor flagging observations whose absolute relative
    /// error exceeds 25%.
    pub fn new() -> Self {
        Self::with_threshold(DEFAULT_DRIFT_THRESHOLD)
    }

    /// Creates a monitor flagging observations whose absolute relative
    /// error exceeds `threshold`.
    fn with_threshold(threshold: f64) -> Self {
        AccuracyMonitor {
            threshold,
            exec_by_fn: BTreeMap::new(),
            exec_by_ep: BTreeMap::new(),
            xfer_by_pair: BTreeMap::new(),
            drift_events: 0,
        }
    }

    /// Records an execution-time observation for `function` on endpoint
    /// `ep_label`. Returns `true` when the error exceeds the drift
    /// threshold (the caller emits a trace instant).
    pub fn record_exec(
        &mut self,
        function: &str,
        ep_label: &str,
        predicted: f64,
        actual: f64,
    ) -> bool {
        let err = self
            .exec_by_fn
            .entry(function.to_string())
            .or_default()
            .record(predicted, actual);
        self.exec_by_ep
            .entry(ep_label.to_string())
            .or_default()
            .record(predicted, actual);
        let drifted = err > self.threshold;
        if drifted {
            self.drift_events += 1;
        }
        drifted
    }

    /// Records a transfer-time observation for the `src -> dst` pair.
    /// Returns `true` when the error exceeds the drift threshold.
    pub fn record_transfer(
        &mut self,
        src: EndpointId,
        dst: EndpointId,
        predicted: f64,
        actual: f64,
    ) -> bool {
        let err = self
            .xfer_by_pair
            .entry((src.0, dst.0))
            .or_default()
            .record(predicted, actual);
        let drifted = err > self.threshold;
        if drifted {
            self.drift_events += 1;
        }
        drifted
    }

    /// Builds the per-model calibration table: one row per function
    /// (`exec:<fn>`), per endpoint (`exec@<ep>`), and per endpoint pair
    /// (`xfer:<src>-><dst>`), in deterministic key order.
    pub fn calibration_table(&self) -> Vec<CalibrationRow> {
        let row = |model: String, s: &ErrorStats| CalibrationRow {
            model,
            count: s.count(),
            mape: s.mape(),
            bias: s.bias(),
            p95_abs_err: s.p95_abs_err(),
        };
        let mut out = Vec::new();
        for (f, s) in &self.exec_by_fn {
            out.push(row(format!("exec:{f}"), s));
        }
        for (ep, s) in &self.exec_by_ep {
            out.push(row(format!("exec@{ep}"), s));
        }
        for (&(src, dst), s) in &self.xfer_by_pair {
            out.push(row(format!("xfer:{src}->{dst}"), s));
        }
        out
    }

    /// Exports the error sketches into a metrics registry:
    /// `unifaas_predictor_abs_rel_error{model=...}` histograms plus a
    /// `unifaas_predictor_drift_total` counter.
    pub fn export(&self, reg: &mut MetricsRegistry) {
        const HELP: &str = "Absolute relative error of predicted vs actual duration.";
        for (f, s) in &self.exec_by_fn {
            let id = reg.histogram(
                "unifaas_predictor_abs_rel_error",
                HELP,
                &[("model", &format!("exec:{f}"))],
            );
            if let Some(sketch) = reg.histogram_sketch(id) {
                let mut merged = sketch.clone();
                merged.merge(s.sketch());
                // Re-seat the merged sketch: observe() one-by-one would
                // lose nothing but is O(n); direct replacement is exact.
                reg.replace_histogram(id, merged);
            }
        }
        for (&(src, dst), s) in &self.xfer_by_pair {
            let id = reg.histogram(
                "unifaas_predictor_abs_rel_error",
                HELP,
                &[("model", &format!("xfer:{src}->{dst}"))],
            );
            if let Some(sketch) = reg.histogram_sketch(id) {
                let mut merged = sketch.clone();
                merged.merge(s.sketch());
                reg.replace_histogram(id, merged);
            }
        }
        let drift = reg.counter(
            "unifaas_predictor_drift_total",
            "Observations whose prediction error exceeded the drift threshold.",
            &[],
        );
        reg.inc(drift, self.drift_events as f64);
    }
}

/// A [`Predictor`] wrapper that scales the inner predictor's answers —
/// the injection point for calibration tests (a known-biased predictor)
/// and what-if experiments.
pub struct ScaledPredictor<P> {
    inner: P,
    exec_scale: f64,
    transfer_scale: f64,
}

impl<P: Predictor> ScaledPredictor<P> {
    /// Wraps `inner`, multiplying execution predictions by `exec_scale`
    /// and transfer predictions by `transfer_scale`.
    pub fn new(inner: P, exec_scale: f64, transfer_scale: f64) -> Self {
        ScaledPredictor {
            inner,
            exec_scale,
            transfer_scale,
        }
    }
}

impl<P: Predictor> Predictor for ScaledPredictor<P> {
    fn exec_seconds(&self, dag: &Dag, task: TaskId, ep: &EndpointFeatures) -> f64 {
        self.inner.exec_seconds(dag, task, ep) * self.exec_scale
    }

    fn transfer_seconds(&self, bytes: u64, src: EndpointId, dst: EndpointId) -> f64 {
        self.inner.transfer_seconds(bytes, src, dst) * self.transfer_scale
    }

    fn output_bytes(&self, dag: &Dag, task: TaskId) -> u64 {
        self.inner.output_bytes(dag, task)
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_bias_shows_in_mape_and_sign() {
        let mut m = AccuracyMonitor::new();
        // Predictor consistently 2x the actual: MAPE 100%, bias +1.
        let drifted = (1..=50)
            .filter(|&i| m.record_exec("map", "ep0", 2.0 * i as f64, i as f64))
            .count();
        let s = m.exec_by_fn.get("map").unwrap();
        assert_eq!(s.count(), 50);
        assert!((s.mape() - 1.0).abs() < 0.03, "mape={}", s.mape());
        assert!((s.bias() - 1.0).abs() < 1e-9, "bias={}", s.bias());
        assert!((s.p95_abs_err() - 1.0).abs() < 0.03);
        // Every observation is 100% off — each drifts exactly once at the
        // 25% threshold (per observation, not per index it lands in).
        assert_eq!(drifted, 50);
    }

    #[test]
    fn drift_counts_once_per_observation() {
        let mut m = AccuracyMonitor::with_threshold(0.5);
        assert!(!m.record_exec("f", "ep", 1.1, 1.0));
        assert!(m.record_exec("f", "ep", 3.0, 1.0));
        assert!(m.record_transfer(EndpointId(0), EndpointId(1), 10.0, 1.0));
        assert_eq!(m.drift_events, 2);
    }

    #[test]
    fn unbiased_predictor_has_near_zero_bias() {
        let mut m = AccuracyMonitor::new();
        for i in 1..=100 {
            let actual = i as f64;
            let noise = if i % 2 == 0 { 1.1 } else { 0.9 };
            m.record_exec("f", "ep", actual * noise, actual);
        }
        let s = m.exec_by_fn.get("f").unwrap();
        assert!(s.bias().abs() < 0.01, "bias={}", s.bias());
        assert!((s.mape() - 0.1).abs() < 0.01, "mape={}", s.mape());
    }

    #[test]
    fn calibration_table_is_deterministic_and_complete() {
        let mut m = AccuracyMonitor::new();
        m.record_exec("b_fn", "ep1", 1.0, 1.0);
        m.record_exec("a_fn", "ep0", 1.0, 1.0);
        m.record_transfer(EndpointId(1), EndpointId(0), 2.0, 2.0);
        let table = m.calibration_table();
        let models: Vec<&str> = table.iter().map(|r| r.model.as_str()).collect();
        assert_eq!(
            models,
            vec![
                "exec:a_fn",
                "exec:b_fn",
                "exec@ep0",
                "exec@ep1",
                "xfer:1->0"
            ]
        );
    }

    #[test]
    fn zero_actual_does_not_poison() {
        let mut m = AccuracyMonitor::new();
        m.record_exec("f", "ep", 0.0, 0.0);
        let s = m.exec_by_fn.get("f").unwrap();
        assert_eq!(s.count(), 1);
        assert!(!s.mape().is_nan());
        assert!(!s.bias().is_nan());
    }
}
