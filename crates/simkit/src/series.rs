//! Time-series recording for figure regeneration.
//!
//! The paper's figures 7, 9, 10, 12 and 13 are all "metric vs. time" plots
//! (pending tasks, active workers, worker utilization, tasks in staging,
//! busy workers per endpoint). [`TimeSeries`] records step-function samples
//! and can resample onto a uniform grid and integrate (for utilization
//! percentages and worker-seconds).

use crate::time::{SimDuration, SimTime};

/// A step-function time series: the value set at time `t` holds until the
/// next sample.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Records `value` from time `at` onward. Samples must be pushed in
    /// non-decreasing time order; a sample at the same instant as the
    /// previous one overwrites it.
    pub fn record(&mut self, at: SimTime, value: f64) {
        if let Some(last) = self.points.last_mut() {
            assert!(at >= last.0, "time series samples must be monotonic");
            if last.0 == at {
                last.1 = value;
                return;
            }
            if last.1 == value {
                return; // run-length compress identical consecutive values
            }
        }
        self.points.push((at, value));
    }

    /// Adds `delta` to the current value at time `at` (starting from 0).
    pub fn add(&mut self, at: SimTime, delta: f64) {
        let cur = self.value_at(at);
        self.record(at, cur + delta);
    }

    /// The recorded value in effect at time `at` (0 before the first sample).
    pub fn value_at(&self, at: SimTime) -> f64 {
        match self.points.binary_search_by(|(t, _)| t.cmp(&at)) {
            Ok(i) => self.points[i].1,
            Err(0) => 0.0,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// Raw `(time, value)` change points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Integral of the step function over `[from, to]`, in value·seconds.
    pub fn integral(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from || self.points.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        let mut cursor = from;
        let mut current = self.value_at(from);
        for &(t, v) in &self.points {
            if t <= from {
                continue;
            }
            if t >= to {
                break;
            }
            total += current * (t - cursor).as_secs_f64();
            cursor = t;
            current = v;
        }
        total += current * (to - cursor).as_secs_f64();
        total
    }

    /// Mean value over `[from, to]`.
    pub fn mean_over(&self, from: SimTime, to: SimTime) -> f64 {
        let span = (to.saturating_since(from)).as_secs_f64();
        if span == 0.0 {
            return self.value_at(from);
        }
        self.integral(from, to) / span
    }

    /// Resamples the step function onto a uniform grid from `from` to `to`
    /// inclusive, with the given step. Used to print figure data rows.
    pub fn resample(&self, from: SimTime, to: SimTime, step: SimDuration) -> Vec<(SimTime, f64)> {
        assert!(!step.is_zero(), "resample step must be positive");
        let mut out = Vec::new();
        let mut t = from;
        loop {
            out.push((t, self.value_at(t)));
            if t >= to {
                break;
            }
            t += step;
            if t > to {
                t = to;
            }
        }
        out
    }
}

/// A stable, copyable reference to one series inside a [`SeriesSet`],
/// obtained from [`SeriesSet::handle`]. Recording through a handle is a
/// plain index — no label comparison or `String` clone per sample — which
/// is what keeps high-frequency metrics (per-event worker counts) off the
/// allocator. Handles are never invalidated: series are only appended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SeriesHandle(usize);

/// A labeled bundle of time series, one per endpoint/metric, keeping
/// insertion order for stable output.
#[derive(Clone, Debug, Default)]
pub struct SeriesSet {
    entries: Vec<(String, TimeSeries)>,
}

impl SeriesSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `label` and returns a stable O(1) handle to its series,
    /// creating the series if needed. Resolve once, record many times.
    pub fn handle(&mut self, label: &str) -> SeriesHandle {
        if let Some(pos) = self.entries.iter().position(|(l, _)| l == label) {
            return SeriesHandle(pos);
        }
        self.entries.push((label.to_string(), TimeSeries::new()));
        SeriesHandle(self.entries.len() - 1)
    }

    /// Mutable access to the series behind a handle (O(1)).
    pub fn at_mut(&mut self, h: SeriesHandle) -> &mut TimeSeries {
        &mut self.entries[h.0].1
    }

    /// Looks up a series by label.
    pub fn get(&self, label: &str) -> Option<&TimeSeries> {
        self.entries
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, s)| s)
    }

    /// Iterates `(label, series)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &TimeSeries)> {
        self.entries.iter().map(|(l, s)| (l.as_str(), s))
    }

    /// Number of series.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no series exist.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn value_at_follows_steps() {
        let mut s = TimeSeries::new();
        s.record(t(1), 10.0);
        s.record(t(5), 20.0);
        assert_eq!(s.value_at(t(0)), 0.0);
        assert_eq!(s.value_at(t(1)), 10.0);
        assert_eq!(s.value_at(t(3)), 10.0);
        assert_eq!(s.value_at(t(5)), 20.0);
        assert_eq!(s.value_at(t(100)), 20.0);
    }

    #[test]
    fn same_instant_overwrites() {
        let mut s = TimeSeries::new();
        s.record(t(1), 10.0);
        s.record(t(1), 99.0);
        assert_eq!(s.points().len(), 1);
        assert_eq!(s.value_at(t(1)), 99.0);
    }

    #[test]
    fn identical_values_compress() {
        let mut s = TimeSeries::new();
        s.record(t(1), 5.0);
        s.record(t(2), 5.0);
        s.record(t(3), 6.0);
        assert_eq!(s.points().len(), 2);
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn non_monotonic_record_panics() {
        let mut s = TimeSeries::new();
        s.record(t(5), 1.0);
        s.record(t(4), 2.0);
    }

    #[test]
    fn add_accumulates() {
        let mut s = TimeSeries::new();
        s.add(t(0), 2.0);
        s.add(t(1), 3.0);
        s.add(t(2), -1.0);
        assert_eq!(s.value_at(t(0)), 2.0);
        assert_eq!(s.value_at(t(1)), 5.0);
        assert_eq!(s.value_at(t(2)), 4.0);
    }

    #[test]
    fn integral_of_step_function() {
        let mut s = TimeSeries::new();
        s.record(t(0), 1.0);
        s.record(t(10), 3.0);
        // [0,10): 1.0 * 10 = 10; [10,20]: 3.0 * 10 = 30
        assert!((s.integral(t(0), t(20)) - 40.0).abs() < 1e-9);
        assert!((s.mean_over(t(0), t(20)) - 2.0).abs() < 1e-9);
        // Partial window.
        assert!((s.integral(t(5), t(15)) - (5.0 + 15.0)).abs() < 1e-9);
    }

    #[test]
    fn integral_degenerate_windows() {
        let mut s = TimeSeries::new();
        s.record(t(0), 7.0);
        assert_eq!(s.integral(t(5), t(5)), 0.0);
        assert_eq!(s.integral(t(5), t(3)), 0.0);
        assert_eq!(s.mean_over(t(5), t(5)), 7.0);
    }

    #[test]
    fn resample_grid() {
        let mut s = TimeSeries::new();
        s.record(t(0), 1.0);
        s.record(t(3), 2.0);
        let grid = s.resample(t(0), t(5), SimDuration::from_secs(2));
        assert_eq!(
            grid,
            vec![(t(0), 1.0), (t(2), 1.0), (t(4), 2.0), (t(5), 2.0)]
        );
    }

    #[test]
    fn same_instant_overwrite_after_compression() {
        // A run-length-compressed sample leaves the *earlier* point as the
        // last stored one; a same-instant overwrite at the compressed time
        // must still take effect from that time onward, not rewrite history
        // before it.
        let mut s = TimeSeries::new();
        s.record(t(1), 5.0);
        s.record(t(3), 5.0); // compressed away: identical consecutive value
        assert_eq!(s.points().len(), 1);
        s.record(t(3), 6.0); // "overwrite" at the compressed instant
        assert_eq!(s.points().len(), 2);
        assert_eq!(s.value_at(t(2)), 5.0, "history before t=3 unchanged");
        assert_eq!(s.value_at(t(3)), 6.0);
        assert_eq!(s.value_at(t(10)), 6.0);
    }

    #[test]
    fn overwrite_to_match_previous_value_keeps_correct_steps() {
        let mut s = TimeSeries::new();
        s.record(t(0), 1.0);
        s.record(t(1), 2.0);
        s.record(t(1), 1.0); // overwrite back to the previous value
        assert_eq!(s.value_at(t(0)), 1.0);
        assert_eq!(s.value_at(t(1)), 1.0);
        assert_eq!(s.value_at(t(5)), 1.0);
        // A redundant change point may remain; the step function itself
        // must still be flat at 1.0 (integral over [0,4] = 4).
        assert!((s.integral(t(0), t(4)) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn resample_before_first_sample_reads_zero() {
        let mut s = TimeSeries::new();
        s.record(t(10), 3.0);
        let grid = s.resample(t(0), t(12), SimDuration::from_secs(4));
        assert_eq!(
            grid,
            vec![(t(0), 0.0), (t(4), 0.0), (t(8), 0.0), (t(12), 3.0)]
        );
        // Entirely-before-first window: all zeros, including the endpoint.
        let early = s.resample(t(0), t(4), SimDuration::from_secs(2));
        assert!(early.iter().all(|&(_, v)| v == 0.0));
    }

    #[test]
    fn resample_empty_series_is_all_zero() {
        let s = TimeSeries::new();
        let grid = s.resample(t(0), t(4), SimDuration::from_secs(2));
        assert_eq!(grid, vec![(t(0), 0.0), (t(2), 0.0), (t(4), 0.0)]);
    }

    #[test]
    fn integral_empty_and_single_point() {
        let empty = TimeSeries::new();
        assert_eq!(empty.integral(t(0), t(100)), 0.0);
        assert_eq!(empty.mean_over(t(0), t(100)), 0.0);

        let mut one = TimeSeries::new();
        one.record(t(10), 2.0);
        // Window entirely before the sample: value is 0 throughout.
        assert_eq!(one.integral(t(0), t(10)), 0.0);
        // Window straddling the sample: 0 over [0,10), 2 over [10,20].
        assert!((one.integral(t(0), t(20)) - 20.0).abs() < 1e-9);
        // Window entirely after the sample: constant 2.
        assert!((one.integral(t(15), t(25)) - 20.0).abs() < 1e-9);
        assert!((one.mean_over(t(0), t(20)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn series_set_roundtrip() {
        let mut set = SeriesSet::new();
        let (h1, h2) = (set.handle("ep1"), set.handle("ep2"));
        set.at_mut(h1).record(t(0), 1.0);
        set.at_mut(h2).record(t(0), 2.0);
        set.at_mut(h1).record(t(1), 3.0);
        assert_eq!(set.len(), 2);
        assert_eq!(set.get("ep1").unwrap().value_at(t(1)), 3.0);
        assert!(set.get("nope").is_none());
        let labels: Vec<&str> = set.iter().map(|(l, _)| l).collect();
        assert_eq!(labels, vec!["ep1", "ep2"]);
    }

    #[test]
    fn handles_are_stable_and_deduplicated() {
        let mut set = SeriesSet::new();
        let a = set.handle("ep1");
        let b = set.handle("ep2");
        assert_ne!(a, b);
        assert_eq!(set.handle("ep1"), a, "re-interning returns the same handle");
        assert_eq!(set.len(), 2, "no duplicate series created");
        // Handles survive later interning (append-only set).
        let c = set.handle("ep3");
        assert_ne!(c, a);
        assert_eq!(set.handle("ep1"), a);
    }
}
