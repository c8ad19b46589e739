//! Bagged random-forest regression — the paper's default execution-time
//! model (§IV-C, citing Breiman-style random forest regression).
//!
//! Each tree is grown on a bootstrap resample of the training data with a
//! random subset of features considered at every split; predictions average
//! the trees. Determinism: the forest derives all randomness from the
//! caller-provided seed.

use crate::dataset::Dataset;
use crate::tree::{RegressionTree, TreeParams};
use crate::Regressor;
use simkit::SimRng;

/// Random-forest hyperparameters.
#[derive(Clone, Copy, Debug)]
pub struct RandomForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree growth limits.
    pub tree: TreeParams,
    /// Features considered per split; `None` means `ceil(d / 3)` (the
    /// standard default for regression forests).
    pub features_per_split: Option<usize>,
    /// Seed for bootstrap sampling and feature sub-sampling.
    pub seed: u64,
}

impl Default for RandomForestParams {
    fn default() -> Self {
        RandomForestParams {
            n_trees: 25,
            tree: TreeParams::default(),
            features_per_split: None,
            seed: 0xF0E57,
        }
    }
}

/// A fitted random forest.
pub struct RandomForest {
    trees: Vec<RegressionTree>,
    n_features: usize,
}

impl RandomForest {
    /// Fits a forest on `data`. Returns `None` if the dataset is empty.
    pub fn fit(data: &Dataset, params: &RandomForestParams) -> Option<Self> {
        if data.is_empty() || params.n_trees == 0 {
            return None;
        }
        let d = data.n_features();
        let m = params
            .features_per_split
            .unwrap_or_else(|| d.div_ceil(3))
            .clamp(1, d.max(1));
        let mut rng = SimRng::seed_from_u64(params.seed);
        let n = data.len();

        let mut trees = Vec::with_capacity(params.n_trees);
        for _ in 0..params.n_trees {
            // Bootstrap resample with replacement.
            let indices: Vec<usize> = (0..n).map(|_| rng.uniform_usize(0, n)).collect();
            let sample = data.select(&indices);
            let mut tree_rng = rng.fork();
            if let Some(tree) = RegressionTree::fit_with_feature_sampling(
                &sample,
                &params.tree,
                Some(m),
                &mut Some(&mut tree_rng),
            ) {
                trees.push(tree);
            }
        }
        if trees.is_empty() {
            return None;
        }
        Some(RandomForest {
            trees,
            n_features: d,
        })
    }
}

impl Regressor for RandomForest {
    fn predict(&self, features: &[f64]) -> f64 {
        let sum: f64 = self.trees.iter().map(|t| t.predict(features)).sum();
        sum / self.trees.len() as f64
    }

    fn n_features(&self) -> usize {
        self.n_features
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic "execution time" surface in the paper's feature space:
    /// time = base * input_size / (cores * freq), plus noise.
    fn exec_time_data(seed: u64, noisy: bool) -> Dataset {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut d = Dataset::new(4); // input_size, cores, freq, ram
        for _ in 0..400 {
            let size = rng.uniform(1.0, 100.0);
            let cores = [1.0, 2.0, 4.0, 8.0][rng.uniform_usize(0, 4)];
            let freq = rng.uniform(2.0, 3.0);
            let ram = rng.uniform(16.0, 256.0);
            let mut t = 5.0 * size / (cores * freq);
            if noisy {
                t *= rng.uniform(0.7, 1.3);
            }
            d.push(&[size, cores, freq, ram], t);
        }
        d
    }

    #[test]
    fn forest_predicts_execution_surface() {
        let data = exec_time_data(11, true);
        let forest = RandomForest::fit(&data, &RandomForestParams::default()).unwrap();
        // In-distribution check.
        let mut total_rel_err = 0.0;
        let mut n = 0;
        for size in [10.0, 30.0, 60.0, 90.0] {
            for cores in [1.0, 4.0] {
                let want = 5.0 * size / (cores * 2.5);
                let got = forest.predict(&[size, cores, 2.5, 64.0]);
                total_rel_err += ((got - want) / want).abs();
                n += 1;
            }
        }
        let mean_err = total_rel_err / n as f64;
        assert!(mean_err < 0.35, "mean relative error {mean_err}");
    }

    #[test]
    fn forest_beats_single_tree_on_noise() {
        let data = exec_time_data(13, true);
        let forest = RandomForest::fit(&data, &RandomForestParams::default()).unwrap();
        let tree = RegressionTree::fit(&data, &TreeParams::default()).unwrap();
        let test = exec_time_data(99, false);
        let fe: f64 = (0..test.len())
            .map(|i| (forest.predict(test.row(i)) - test.target(i)).powi(2))
            .sum();
        let te: f64 = (0..test.len())
            .map(|i| (tree.predict(test.row(i)) - test.target(i)).powi(2))
            .sum();
        assert!(
            fe < te,
            "averaging should denoise: forest SSE {fe} vs tree SSE {te}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let data = exec_time_data(17, true);
        let p = RandomForestParams::default();
        let a = RandomForest::fit(&data, &p).unwrap();
        let b = RandomForest::fit(&data, &p).unwrap();
        for i in 0..10 {
            let x = [i as f64 * 10.0, 2.0, 2.5, 64.0];
            assert_eq!(a.predict(&x).to_bits(), b.predict(&x).to_bits());
        }
    }

    #[test]
    fn empty_or_zero_trees_returns_none() {
        assert!(RandomForest::fit(&Dataset::new(2), &RandomForestParams::default()).is_none());
        let mut d = Dataset::new(1);
        d.push(&[1.0], 1.0);
        let p = RandomForestParams {
            n_trees: 0,
            ..Default::default()
        };
        assert!(RandomForest::fit(&d, &p).is_none());
    }

    #[test]
    fn single_row_predicts_constant() {
        let mut d = Dataset::new(2);
        d.push(&[1.0, 2.0], 42.0);
        let f = RandomForest::fit(&d, &RandomForestParams::default()).unwrap();
        assert_eq!(f.predict(&[5.0, 5.0]), 42.0);
        assert_eq!(f.n_features(), 2);
        assert!(!f.trees.is_empty());
    }
}
