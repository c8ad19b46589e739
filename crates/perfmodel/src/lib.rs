#![warn(missing_docs)]

//! `perfmodel` — performance-prediction models for UniFaaS profilers.
//!
//! The paper's *observe–predict–decide* loop (§IV-A) relies on two model
//! families:
//!
//! * the **execution profiler** trains a *random forest regressor* per
//!   function, mapping `(input size, cores, CPU frequency, RAM)` to execution
//!   time and output size (§IV-C);
//! * the **transfer profiler** uses *polynomial regression* over
//!   `(bandwidth, data size, concurrent transfers)` to predict transfer time.
//!
//! Everything here is implemented from scratch on top of a small dense
//! linear-algebra module: ordinary least squares ([`linreg`]), polynomial
//! feature expansion ([`polyreg`]), CART regression trees ([`tree`]) and
//! bagged random forests ([`forest`]). The [`Regressor`] trait lets the
//! profilers swap models, matching the paper's claim that "users can easily
//! extend it to other appropriate performance models".

mod bayes;
pub mod dataset;
pub mod forest;
pub mod linreg;
pub mod matrix;
pub mod polyreg;
pub mod tree;

pub use bayes::{BayesianLinearModel, BayesianLinearRegression};
pub use dataset::Dataset;
pub use forest::{RandomForest, RandomForestParams};
pub use linreg::LinearRegression;
pub use polyreg::PolynomialRegression;
pub use tree::{RegressionTree, TreeParams};

/// A trained regression model: predicts a scalar target from a feature
/// vector.
pub trait Regressor: Send + Sync {
    /// Predicts the target for one feature vector.
    ///
    /// Implementations must accept feature vectors of the same width used at
    /// training time and should degrade gracefully (not panic) on edge-case
    /// values such as zeros.
    fn predict(&self, features: &[f64]) -> f64;

    /// Number of features the model expects.
    fn n_features(&self) -> usize;
}

/// A trainable model family: fits a [`Regressor`] from rows of features and
/// targets.
pub trait Trainer {
    /// The trained model type.
    type Model: Regressor;

    /// Fits a model. Returns `None` when the data is insufficient (empty, or
    /// fewer rows than the family needs).
    fn fit(&self, data: &Dataset) -> Option<Self::Model>;
}
