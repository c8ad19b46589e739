//! Ordinary least-squares linear regression with an intercept term.

use crate::dataset::Dataset;
use crate::matrix::{least_squares, Matrix};
use crate::{Regressor, Trainer};

/// A fitted linear model `y = w0 + w · x`.
#[derive(Clone, Debug)]
pub struct LinearModel {
    intercept: f64,
    weights: Vec<f64>,
}

impl Regressor for LinearModel {
    fn predict(&self, features: &[f64]) -> f64 {
        debug_assert_eq!(features.len(), self.weights.len());
        let mut y = self.intercept;
        for (w, x) in self.weights.iter().zip(features) {
            y += w * x;
        }
        y
    }

    fn n_features(&self) -> usize {
        self.weights.len()
    }
}

/// Trainer for [`LinearModel`].
#[derive(Clone, Debug)]
pub struct LinearRegression {
    /// Ridge regularization strength; a tiny default keeps collinear
    /// features from making the normal equations singular.
    pub ridge: f64,
}

impl Default for LinearRegression {
    fn default() -> Self {
        LinearRegression { ridge: 1e-9 }
    }
}

impl Trainer for LinearRegression {
    type Model = LinearModel;

    fn fit(&self, data: &Dataset) -> Option<LinearModel> {
        let n = data.len();
        let d = data.n_features();
        if n == 0 {
            return None;
        }
        // Design matrix with leading intercept column.
        let mut rows = Vec::with_capacity(n * (d + 1));
        for i in 0..n {
            rows.push(1.0);
            rows.extend_from_slice(data.row(i));
        }
        let x = Matrix::from_rows(n, d + 1, rows);
        let w = least_squares(&x, data.targets(), self.ridge)?;
        Some(LinearModel {
            intercept: w[0],
            weights: w[1..].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_noiseless_plane() {
        // y = 1 + 2a - 3b
        let mut data = Dataset::new(2);
        for a in 0..5 {
            for b in 0..5 {
                let (a, b) = (a as f64, b as f64);
                data.push(&[a, b], 1.0 + 2.0 * a - 3.0 * b);
            }
        }
        let model = LinearRegression::default().fit(&data).unwrap();
        assert!((model.intercept - 1.0).abs() < 1e-6);
        assert!((model.weights[0] - 2.0).abs() < 1e-6);
        assert!((model.weights[1] + 3.0).abs() < 1e-6);
        assert!((model.predict(&[10.0, 1.0]) - 18.0).abs() < 1e-5);
        assert_eq!(model.n_features(), 2);
    }

    #[test]
    fn single_observation_fits_constant_through_ridge() {
        let mut data = Dataset::new(1);
        data.push(&[2.0], 7.0);
        let model = LinearRegression::default().fit(&data).unwrap();
        assert!((model.predict(&[2.0]) - 7.0).abs() < 1e-3);
    }

    #[test]
    fn empty_data_returns_none() {
        let data = Dataset::new(3);
        assert!(LinearRegression::default().fit(&data).is_none());
    }
}
