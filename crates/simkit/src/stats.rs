//! Online statistics used throughout the monitors and profilers.

/// Running mean (Welford's update), plus min/max tracking.
///
/// Numerically stable for long streams of task-duration observations fed in
/// by the task monitor.
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation. NaN is ignored: a single poisoned sample (e.g.
    /// a 0/0 relative error) must not destroy the whole accumulator.
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &data {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn merge_equals_sequential() {
        let mut all = OnlineStats::new();
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for i in 0..100 {
            let x = (i as f64).sin() * 10.0 + 5.0;
            all.push(x);
            if i % 2 == 0 {
                a.push(x)
            } else {
                b.push(x)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        let b = OnlineStats::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = OnlineStats::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), 1.0);
    }

    #[test]
    fn merge_single_sample() {
        // Folding a one-sample accumulator is the smallest non-trivial
        // merge case; the mean must stay exact.
        let mut a = OnlineStats::new();
        a.push(3.0);
        let mut b = OnlineStats::new();
        b.push(7.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean() - 5.0).abs() < 1e-12);
        assert_eq!(a.min(), Some(3.0));
        assert_eq!(a.max(), Some(7.0));
    }

    #[test]
    fn merge_two_empty() {
        let mut a = OnlineStats::new();
        let b = OnlineStats::new();
        a.merge(&b);
        assert_eq!(a.count(), 0);
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.min(), None);
    }

    #[test]
    fn nan_inputs_are_ignored() {
        let mut a = OnlineStats::new();
        a.push(f64::NAN);
        assert_eq!(a.count(), 0);
        a.push(2.0);
        a.push(f64::NAN);
        a.push(4.0);
        assert_eq!(a.count(), 2);
        assert!((a.mean() - 3.0).abs() < 1e-12);
        // Merging an accumulator that only ever saw NaN is a no-op.
        let mut nan_only = OnlineStats::new();
        nan_only.push(f64::NAN);
        a.merge(&nan_only);
        assert_eq!(a.count(), 2);
        assert!((a.mean() - 3.0).abs() < 1e-12);
    }
}
