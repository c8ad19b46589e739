#![allow(clippy::needless_range_loop)] // index-paired loops read clearer here

//! Bayesian linear regression — one of the alternative execution models the
//! paper names (§IV-C cites Bayesian linear regression alongside XGBoost).
//!
//! Conjugate Gaussian model: weights `w ~ N(0, α⁻¹ I)`, observations
//! `y = w·x + ε`, `ε ~ N(0, β⁻¹)`. The posterior is Gaussian with
//!
//! ```text
//! S⁻¹ = α I + β XᵀX          (precision)
//! m   = β S Xᵀ y              (mean)
//! ```
//!
//! Predictions are the posterior mean.

use crate::dataset::Dataset;
use crate::matrix::{solve, Matrix};
use crate::{Regressor, Trainer};

/// A fitted Bayesian linear model (with intercept).
#[derive(Clone, Debug)]
pub struct BayesianLinearModel {
    /// Posterior mean weights, `[intercept, w_1, ..., w_d]`.
    mean: Vec<f64>,
    d1: usize,
}

fn design_row(features: &[f64]) -> Vec<f64> {
    let mut phi = Vec::with_capacity(features.len() + 1);
    phi.push(1.0);
    phi.extend_from_slice(features);
    phi
}

impl Regressor for BayesianLinearModel {
    /// Posterior-mean prediction for a raw feature vector.
    fn predict(&self, features: &[f64]) -> f64 {
        debug_assert_eq!(features.len() + 1, self.d1);
        let mut y = self.mean[0];
        for (w, x) in self.mean[1..].iter().zip(features) {
            y += w * x;
        }
        y
    }

    fn n_features(&self) -> usize {
        self.d1 - 1
    }
}

/// Trainer for [`BayesianLinearModel`].
#[derive(Clone, Debug)]
pub struct BayesianLinearRegression {
    /// Prior precision α on the weights (larger = stronger shrinkage).
    pub alpha: f64,
    /// Noise precision β (inverse observation variance).
    pub beta: f64,
}

impl Default for BayesianLinearRegression {
    fn default() -> Self {
        BayesianLinearRegression {
            alpha: 1e-4,
            beta: 1.0,
        }
    }
}

impl Trainer for BayesianLinearRegression {
    type Model = BayesianLinearModel;

    fn fit(&self, data: &Dataset) -> Option<BayesianLinearModel> {
        let n = data.len();
        if n == 0 {
            return None;
        }
        let d1 = data.n_features() + 1;

        // Precision matrix A = αI + β ΦᵀΦ and b = β Φᵀy.
        let mut a = Matrix::zeros(d1, d1);
        let mut b = vec![0.0; d1];
        for r in 0..n {
            let phi = design_row(data.row(r));
            let y = data.target(r);
            for i in 0..d1 {
                b[i] += self.beta * phi[i] * y;
                for j in 0..d1 {
                    a.add_to(i, j, self.beta * phi[i] * phi[j]);
                }
            }
        }
        for i in 0..d1 {
            a.add_to(i, i, self.alpha);
        }

        // Posterior mean solves A m = b.
        let mean = solve(&a, &b)?;
        Some(BayesianLinearModel { mean, d1 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_data(n: usize) -> Dataset {
        let mut d = Dataset::new(1);
        for i in 0..n {
            let x = i as f64;
            d.push(&[x], 3.0 + 2.0 * x);
        }
        d
    }

    #[test]
    fn recovers_line_with_weak_prior() {
        let m = BayesianLinearRegression::default()
            .fit(&line_data(30))
            .unwrap();
        assert!((m.mean[0] - 3.0).abs() < 0.05, "{:?}", m.mean);
        assert!((m.mean[1] - 2.0).abs() < 0.01);
        assert!((m.predict(&[10.0]) - 23.0).abs() < 0.1);
        assert_eq!(m.n_features(), 1);
    }

    #[test]
    fn strong_prior_shrinks_weights() {
        let weak = BayesianLinearRegression {
            alpha: 1e-6,
            beta: 1.0,
        }
        .fit(&line_data(5))
        .unwrap();
        let strong = BayesianLinearRegression {
            alpha: 100.0,
            beta: 1.0,
        }
        .fit(&line_data(5))
        .unwrap();
        assert!(
            strong.mean[1].abs() < weak.mean[1].abs(),
            "shrinkage: strong {:?} vs weak {:?}",
            strong.mean,
            weak.mean
        );
    }

    #[test]
    fn empty_data_returns_none() {
        assert!(BayesianLinearRegression::default()
            .fit(&Dataset::new(2))
            .is_none());
    }

    #[test]
    fn single_point_predicts_sanely() {
        let mut d = Dataset::new(1);
        d.push(&[1.0], 5.0);
        let m = BayesianLinearRegression::default().fit(&d).unwrap();
        // With a weak prior the single observation dominates near x=1.
        assert!((m.predict(&[1.0]) - 5.0).abs() < 0.5);
    }
}
