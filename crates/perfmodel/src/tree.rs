//! CART regression trees: binary splits chosen to minimize the weighted
//! variance of the children, grown depth-first.
//!
//! These are the base learners of the random forest (the paper's default
//! execution-time model). The implementation supports the usual controls:
//! maximum depth, minimum samples per split/leaf, and an optional restriction
//! of candidate features per split (used by the forest for decorrelation).

use crate::dataset::Dataset;
use crate::Regressor;
use simkit::SimRng;

/// Growth limits for a regression tree.
#[derive(Clone, Copy, Debug)]
pub struct TreeParams {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum rows required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum rows in each child.
    pub min_samples_leaf: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 12,
            min_samples_split: 4,
            min_samples_leaf: 2,
        }
    }
}

#[derive(Clone, Debug)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: usize,  // index into the arena
        right: usize, // index into the arena
    },
}

/// A fitted regression tree. Nodes live in an arena for compactness and
/// cache-friendly traversal.
#[derive(Clone, Debug)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    n_features: usize,
}

impl RegressionTree {
    /// Fits a tree with all features considered at each split.
    pub fn fit(data: &Dataset, params: &TreeParams) -> Option<Self> {
        Self::fit_with_feature_sampling(data, params, None, &mut None)
    }

    /// Fits a tree, optionally considering only `m` randomly chosen features
    /// at each split (random-forest style). `rng` must be `Some` when
    /// `features_per_split` is `Some`.
    pub fn fit_with_feature_sampling(
        data: &Dataset,
        params: &TreeParams,
        features_per_split: Option<usize>,
        rng: &mut Option<&mut SimRng>,
    ) -> Option<Self> {
        if data.is_empty() {
            return None;
        }
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            n_features: data.n_features(),
        };
        let indices: Vec<usize> = (0..data.len()).collect();
        tree.grow(data, indices, 0, params, features_per_split, rng);
        Some(tree)
    }

    fn grow(
        &mut self,
        data: &Dataset,
        indices: Vec<usize>,
        depth: usize,
        params: &TreeParams,
        features_per_split: Option<usize>,
        rng: &mut Option<&mut SimRng>,
    ) -> usize {
        let mean = mean_target(data, &indices);
        let node_idx = self.nodes.len();
        // Reserve the slot; may be overwritten with a split below.
        self.nodes.push(Node::Leaf { value: mean });

        if depth >= params.max_depth || indices.len() < params.min_samples_split {
            return node_idx;
        }

        let candidates: Vec<usize> = match (features_per_split, rng.as_deref_mut()) {
            (Some(m), Some(rng)) => {
                let mut feats: Vec<usize> = (0..data.n_features()).collect();
                rng.shuffle(&mut feats);
                feats.truncate(m.max(1).min(data.n_features()));
                feats
            }
            _ => (0..data.n_features()).collect(),
        };

        let Some((feature, threshold)) = best_split(data, &indices, &candidates, params) else {
            return node_idx;
        };

        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
            .iter()
            .partition(|&&i| data.row(i)[feature] <= threshold);
        debug_assert!(!left_idx.is_empty() && !right_idx.is_empty());

        let left = self.grow(data, left_idx, depth + 1, params, features_per_split, rng);
        let right = self.grow(data, right_idx, depth + 1, params, features_per_split, rng);
        self.nodes[node_idx] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        node_idx
    }
}

fn mean_target(data: &Dataset, indices: &[usize]) -> f64 {
    if indices.is_empty() {
        return 0.0;
    }
    indices.iter().map(|&i| data.target(i)).sum::<f64>() / indices.len() as f64
}

/// Finds the `(feature, threshold)` split minimizing the weighted sum of
/// child variances, or `None` if no valid split exists.
fn best_split(
    data: &Dataset,
    indices: &[usize],
    candidates: &[usize],
    params: &TreeParams,
) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)

    for &feat in candidates {
        // Sort indices by this feature; evaluate splits between distinct
        // consecutive values using prefix sums for O(n) scoring.
        let mut order: Vec<usize> = indices.to_vec();
        order.sort_by(|&a, &b| {
            data.row(a)[feat]
                .partial_cmp(&data.row(b)[feat])
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        let n = order.len();
        let total_sum: f64 = order.iter().map(|&i| data.target(i)).sum();
        let total_sq: f64 = order.iter().map(|&i| data.target(i).powi(2)).sum();

        let mut left_sum = 0.0;
        let mut left_sq = 0.0;
        for k in 0..n - 1 {
            let i = order[k];
            let y = data.target(i);
            left_sum += y;
            left_sq += y * y;

            let x_here = data.row(i)[feat];
            let x_next = data.row(order[k + 1])[feat];
            if x_here == x_next {
                continue; // cannot split between equal feature values
            }
            let n_left = k + 1;
            let n_right = n - n_left;
            if n_left < params.min_samples_leaf || n_right < params.min_samples_leaf {
                continue;
            }
            // Weighted SSE = (sum_sq - sum^2/n) on each side.
            let sse_left = left_sq - left_sum * left_sum / n_left as f64;
            let right_sum = total_sum - left_sum;
            let right_sq = total_sq - left_sq;
            let sse_right = right_sq - right_sum * right_sum / n_right as f64;
            let score = sse_left + sse_right;

            let threshold = 0.5 * (x_here + x_next);
            if best.is_none_or(|(_, _, s)| score < s - 1e-12) {
                best = Some((feat, threshold, score));
            }
        }
    }

    // Only accept the split if it actually reduces SSE (guards against
    // constant targets where every split scores identically).
    let (feat, threshold, score) = best?;
    let total_sse = {
        let n = indices.len() as f64;
        let sum: f64 = indices.iter().map(|&i| data.target(i)).sum();
        let sq: f64 = indices.iter().map(|&i| data.target(i).powi(2)).sum();
        sq - sum * sum / n
    };
    if score < total_sse - 1e-12 {
        Some((feat, threshold))
    } else {
        None
    }
}

impl Regressor for RegressionTree {
    fn predict(&self, features: &[f64]) -> f64 {
        debug_assert_eq!(features.len(), self.n_features);
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if features[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    fn n_features(&self) -> usize {
        self.n_features
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> Dataset {
        // y = 10 for x < 5, y = 20 for x >= 5 — one perfect split.
        let mut d = Dataset::new(1);
        for i in 0..10 {
            let x = i as f64;
            d.push(&[x], if x < 5.0 { 10.0 } else { 20.0 });
        }
        d
    }

    #[test]
    fn learns_step_function() {
        let t = RegressionTree::fit(&step_data(), &TreeParams::default()).unwrap();
        // The split threshold is the midpoint between x=4 and x=5, i.e. 4.5.
        assert_eq!(t.predict(&[0.0]), 10.0);
        assert_eq!(t.predict(&[4.4]), 10.0);
        assert_eq!(t.predict(&[5.0]), 20.0);
        assert_eq!(t.predict(&[100.0]), 20.0);
    }

    #[test]
    fn constant_target_yields_single_leaf() {
        let mut d = Dataset::new(2);
        for i in 0..20 {
            d.push(&[i as f64, (i * 2) as f64], 7.0);
        }
        let t = RegressionTree::fit(&d, &TreeParams::default()).unwrap();
        assert_eq!(t.nodes.len(), 1);
        assert_eq!(t.predict(&[3.0, 6.0]), 7.0);
    }

    /// Depth of `t` (single leaf = 0).
    fn depth(t: &RegressionTree) -> usize {
        fn depth_of(nodes: &[Node], i: usize) -> usize {
            match &nodes[i] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, *left).max(depth_of(nodes, *right))
                }
            }
        }
        if t.nodes.is_empty() {
            0
        } else {
            depth_of(&t.nodes, 0)
        }
    }

    #[test]
    fn respects_max_depth() {
        let mut d = Dataset::new(1);
        for i in 0..256 {
            d.push(&[i as f64], i as f64); // perfectly splittable
        }
        let t = RegressionTree::fit(
            &d,
            &TreeParams {
                max_depth: 3,
                min_samples_split: 2,
                min_samples_leaf: 1,
            },
        )
        .unwrap();
        assert!(depth(&t) <= 3, "depth={}", depth(&t));
    }

    #[test]
    fn respects_min_samples_leaf() {
        let mut d = Dataset::new(1);
        for i in 0..10 {
            d.push(&[i as f64], i as f64);
        }
        let t = RegressionTree::fit(
            &d,
            &TreeParams {
                max_depth: 20,
                min_samples_split: 2,
                min_samples_leaf: 5,
            },
        )
        .unwrap();
        // Only one split (5/5) is possible.
        assert!(t.nodes.len() <= 3, "nodes={}", t.nodes.len());
    }

    #[test]
    fn piecewise_prediction_close_on_smooth_function() {
        let mut d = Dataset::new(1);
        for i in 0..200 {
            let x = i as f64 / 10.0;
            d.push(&[x], x * x);
        }
        let t = RegressionTree::fit(&d, &TreeParams::default()).unwrap();
        for &x in &[1.0, 5.0, 10.0, 15.0] {
            let err = (t.predict(&[x]) - x * x).abs();
            assert!(err < 4.0, "x={x} err={err}");
        }
    }

    #[test]
    fn empty_data_returns_none() {
        assert!(RegressionTree::fit(&Dataset::new(1), &TreeParams::default()).is_none());
    }

    #[test]
    fn duplicate_feature_values_never_split_between_equals() {
        let mut d = Dataset::new(1);
        // All x equal: no split possible even though targets differ.
        for i in 0..10 {
            d.push(&[1.0], i as f64);
        }
        let t = RegressionTree::fit(&d, &TreeParams::default()).unwrap();
        assert_eq!(t.nodes.len(), 1);
        assert!((t.predict(&[1.0]) - 4.5).abs() < 1e-9);
    }

    #[test]
    fn feature_sampling_with_rng() {
        let mut rng = SimRng::seed_from_u64(1);
        let d = step_data();
        let t = RegressionTree::fit_with_feature_sampling(
            &d,
            &TreeParams::default(),
            Some(1),
            &mut Some(&mut rng),
        )
        .unwrap();
        assert_eq!(t.predict(&[0.0]), 10.0);
    }
}
