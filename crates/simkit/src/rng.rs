//! Deterministic random number generation and the distributions the workload
//! generators and failure injectors need.
//!
//! We deliberately avoid `rand_distr` (not on the approved dependency list)
//! and implement the handful of samplers we need: normal (Box–Muller),
//! log-normal, exponential, Pareto, and truncated variants. Every sampler is
//! driven by a seeded [`rand::rngs::StdRng`], so whole experiments replay
//! bit-for-bit from a single `u64` seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded RNG with domain-specific sampling helpers.
#[derive(Debug)]
pub struct SimRng {
    inner: StdRng,
    /// Cached second variate from Box–Muller.
    spare_normal: Option<f64>,
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// Derives an independent child RNG. Useful for giving each subsystem its
    /// own stream so adding draws in one subsystem does not perturb another.
    pub fn fork(&mut self) -> SimRng {
        let seed = self.inner.gen::<u64>();
        SimRng::seed_from_u64(seed)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform01(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform in `[lo, hi)`. `lo == hi` returns `lo`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        if lo == hi {
            return lo;
        }
        lo + (hi - lo) * self.uniform01()
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn uniform_usize(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo < hi);
        self.inner.gen_range(lo..hi)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform01() < p
        }
    }

    /// Standard normal via Box–Muller (with caching of the second variate).
    fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Draw u1 in (0, 1] to avoid ln(0).
        let u1 = 1.0 - self.uniform01();
        let u2 = self.uniform01();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal with the given mean and standard deviation.
    fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Normal truncated below at `min` (resampled up to a bound, then
    /// clamped; adequate for generating positive task durations).
    pub fn normal_min(&mut self, mean: f64, std_dev: f64, min: f64) -> f64 {
        for _ in 0..16 {
            let x = self.normal(mean, std_dev);
            if x >= min {
                return x;
            }
        }
        min
    }

    /// Log-normal parameterized by the *target* mean and coefficient of
    /// variation of the resulting distribution (not of the underlying
    /// normal). Heavy-tailed task durations in scientific workflows are
    /// commonly modeled this way.
    pub fn lognormal_mean_cv(&mut self, mean: f64, cv: f64) -> f64 {
        debug_assert!(mean > 0.0 && cv >= 0.0);
        if cv == 0.0 {
            return mean;
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        (mu + sigma2.sqrt() * self.standard_normal()).exp()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            items.swap(i, j);
        }
    }

    /// Access to the raw `rand` RNG for anything not covered above.
    pub fn raw(&mut self) -> &mut StdRng {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(42)
    }

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.uniform01().to_bits(), b.uniform01().to_bits());
        }
    }

    #[test]
    fn fork_produces_independent_deterministic_streams() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        let mut fa = a.fork();
        let mut fb = b.fork();
        assert_eq!(fa.uniform01().to_bits(), fb.uniform01().to_bits());
        // Parent streams stay in sync too.
        assert_eq!(a.uniform01().to_bits(), b.uniform01().to_bits());
    }

    #[test]
    fn uniform_bounds() {
        let mut r = rng();
        for _ in 0..10_000 {
            let x = r.uniform(3.0, 5.0);
            assert!((3.0..5.0).contains(&x));
        }
        assert_eq!(r.uniform(2.0, 2.0), 2.0);
    }

    #[test]
    fn normal_moments_close() {
        let mut r = rng();
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean={mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "std={}", var.sqrt());
    }

    #[test]
    fn lognormal_hits_target_mean() {
        let mut r = rng();
        let n = 200_000;
        let mean = (0..n).map(|_| r.lognormal_mean_cv(220.0, 0.5)).sum::<f64>() / n as f64;
        assert!(
            (mean - 220.0).abs() / 220.0 < 0.02,
            "empirical mean {mean} too far from 220"
        );
    }

    #[test]
    fn lognormal_zero_cv_is_constant() {
        let mut r = rng();
        assert_eq!(r.lognormal_mean_cv(5.0, 0.0), 5.0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = rng();
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn normal_min_clamps() {
        let mut r = rng();
        for _ in 0..1_000 {
            assert!(r.normal_min(1.0, 10.0, 0.5) >= 0.5);
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = rng();
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
