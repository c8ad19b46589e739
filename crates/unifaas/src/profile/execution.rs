//! The execution profiler: one random-forest model per function (§IV-C).
//!
//! "The model takes the input size, number of cores, CPU frequency, and RAM
//! size of the endpoint to run on as inputs, and estimates the execution
//! time and output data size."
//!
//! Until a function has enough observations to train a model, predictions
//! fall back in stages: per-function mean duration → the task's nominal
//! duration supplied by the caller. Retraining is incremental: only
//! functions with new records since the last training pass are refit.

use crate::monitor::HistoryDb;
use crate::profile::EndpointFeatures;
use perfmodel::{
    BayesianLinearRegression, Dataset, LinearRegression, RandomForest, RandomForestParams,
    Regressor, Trainer,
};
use simkit::OnlineStats;
use std::collections::HashMap;

/// Which model family the execution profiler trains per function. Random
/// forest is the paper's default; the others are the named alternatives
/// ("users can easily extend it to other appropriate performance models
/// such as XGBoost and Bayesian linear regression").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ModelFamily {
    /// Bagged CART forest (the paper's default).
    #[default]
    RandomForest,
    /// Ordinary least squares.
    Linear,
    /// Bayesian linear regression (ridge with predictive uncertainty).
    BayesianLinear,
}

/// Minimum observations before a forest is trained for a function.
const MIN_TRAIN_ROWS: usize = 8;
/// Sliding window of most recent observations kept per function, so models
/// track drifting endpoint performance.
const MAX_ROWS_PER_FUNCTION: usize = 2_000;

enum FittedModel {
    Forest(RandomForest),
    Linear(perfmodel::linreg::LinearModel),
    Bayesian(perfmodel::BayesianLinearModel),
}

impl FittedModel {
    fn predict(&self, x: &[f64]) -> f64 {
        match self {
            FittedModel::Forest(m) => m.predict(x),
            FittedModel::Linear(m) => m.predict(x),
            FittedModel::Bayesian(m) => m.predict(x),
        }
    }
}

struct FunctionModel {
    data: Dataset,
    fitted: Option<FittedModel>,
    rows_at_last_fit: usize,
    duration_stats: OnlineStats,
    output_stats: OnlineStats,
}

impl FunctionModel {
    fn new() -> Self {
        FunctionModel {
            data: Dataset::new(4),
            fitted: None,
            rows_at_last_fit: 0,
            duration_stats: OnlineStats::new(),
            output_stats: OnlineStats::new(),
        }
    }
}

/// Per-function execution-time and output-size models.
pub struct ExecutionProfiler {
    models: HashMap<std::sync::Arc<str>, FunctionModel>,
    family: ModelFamily,
    forest_params: RandomForestParams,
    history_rows_seen: usize,
}

impl ExecutionProfiler {
    /// Creates an empty profiler with the paper's default model family.
    pub fn new() -> Self {
        Self::with_family(ModelFamily::RandomForest)
    }

    /// Creates an empty profiler using the given model family.
    pub fn with_family(family: ModelFamily) -> Self {
        ExecutionProfiler {
            models: HashMap::new(),
            family,
            forest_params: RandomForestParams {
                n_trees: 15,
                ..Default::default()
            },
            history_rows_seen: 0,
        }
    }

    fn fit(&self, data: &Dataset) -> Option<FittedModel> {
        match self.family {
            ModelFamily::RandomForest => {
                RandomForest::fit(data, &self.forest_params).map(FittedModel::Forest)
            }
            ModelFamily::Linear => LinearRegression::default()
                .fit(data)
                .map(FittedModel::Linear),
            ModelFamily::BayesianLinear => BayesianLinearRegression::default()
                .fit(data)
                .map(FittedModel::Bayesian),
        }
    }

    /// Ingests any new records from the history database and refits models
    /// for functions that gained data.
    pub fn retrain(&mut self, history: &HistoryDb) {
        let records = history.records();
        let mut touched: Vec<std::sync::Arc<str>> = Vec::new();
        for rec in &records[self.history_rows_seen.min(records.len())..] {
            if !rec.success {
                continue;
            }
            let model = self
                .models
                .entry(rec.function.clone())
                .or_insert_with(FunctionModel::new);
            model.data.push(
                &[
                    rec.input_bytes as f64,
                    rec.cores as f64,
                    rec.cpu_ghz,
                    rec.ram_gb as f64,
                ],
                rec.duration_seconds,
            );
            model.data.truncate_oldest(MAX_ROWS_PER_FUNCTION);
            model.duration_stats.push(rec.duration_seconds);
            model.output_stats.push(rec.output_bytes as f64);
            if !touched.contains(&rec.function) {
                touched.push(rec.function.clone());
            }
        }
        self.history_rows_seen = records.len();

        for name in touched {
            let model = self.models.get_mut(&name).expect("just inserted");
            if model.data.len() >= MIN_TRAIN_ROWS && model.data.len() > model.rows_at_last_fit {
                let rows = model.data.len();
                let fitted = {
                    let model = &self.models[&name];
                    self.fit(&model.data)
                };
                let model = self.models.get_mut(&name).expect("just inserted");
                model.fitted = fitted;
                model.rows_at_last_fit = rows;
            }
        }
    }

    /// Predicts the execution time of `function` with the given input size
    /// on an endpoint, in seconds. `nominal_seconds` is the task-spec
    /// duration used as the cold-start fallback.
    pub fn predict(
        &self,
        function: &str,
        input_bytes: u64,
        ep: &EndpointFeatures,
        nominal_seconds: f64,
    ) -> f64 {
        match self.models.get(function) {
            Some(m) => {
                if let Some(fitted) = &m.fitted {
                    fitted
                        .predict(&[
                            input_bytes as f64,
                            ep.cores as f64,
                            ep.cpu_ghz,
                            ep.ram_gb as f64,
                        ])
                        .max(0.0)
                } else if m.duration_stats.count() > 0 {
                    m.duration_stats.mean()
                } else {
                    nominal_seconds
                }
            }
            None => nominal_seconds,
        }
    }

    /// Predicted output size of `function`, if observed before.
    pub fn predict_output_bytes(&self, function: &str) -> Option<u64> {
        self.models
            .get(function)
            .filter(|m| m.output_stats.count() > 0)
            .map(|m| m.output_stats.mean().max(0.0) as u64)
    }
}

impl Default for ExecutionProfiler {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::TaskRecord;
    use fedci::endpoint::EndpointId;

    fn features(cores: u32, ghz: f64, ram: u32) -> EndpointFeatures {
        EndpointFeatures {
            id: EndpointId(0),
            cores,
            cpu_ghz: ghz,
            ram_gb: ram,
            speed_factor: 1.0,
        }
    }

    fn record(function: &str, cores: u32, dur: f64) -> TaskRecord {
        TaskRecord {
            function: function.into(),
            endpoint: EndpointId(0),
            input_bytes: 1_000_000,
            duration_seconds: dur,
            output_bytes: 500,
            cores,
            cpu_ghz: 2.5,
            ram_gb: 64,
            success: true,
        }
    }

    #[test]
    fn cold_start_uses_nominal() {
        let p = ExecutionProfiler::new();
        assert_eq!(p.predict("dock", 100, &features(16, 2.5, 64), 42.0), 42.0);
        assert_eq!(p.predict_output_bytes("dock"), None);
    }

    #[test]
    fn few_records_fall_back_to_mean() {
        let mut p = ExecutionProfiler::new();
        let mut db = HistoryDb::new();
        db.push(record("dock", 16, 10.0));
        db.push(record("dock", 16, 20.0));
        p.retrain(&db);
        assert_eq!(p.models.values().filter(|m| m.fitted.is_some()).count(), 0);
        assert_eq!(p.predict("dock", 100, &features(16, 2.5, 64), 42.0), 15.0);
        assert_eq!(p.predict_output_bytes("dock"), Some(500));
    }

    #[test]
    fn forest_learns_endpoint_differences() {
        let mut p = ExecutionProfiler::new();
        let mut db = HistoryDb::new();
        // 16-core endpoint: 10 s; 40-core endpoint: 5 s.
        for _ in 0..20 {
            db.push(record("dock", 16, 10.0));
            db.push(record("dock", 40, 5.0));
        }
        p.retrain(&db);
        assert_eq!(p.models.values().filter(|m| m.fitted.is_some()).count(), 1);
        let slow = p.predict("dock", 1_000_000, &features(16, 2.5, 64), 0.0);
        let fast = p.predict("dock", 1_000_000, &features(40, 2.5, 64), 0.0);
        assert!((slow - 10.0).abs() < 1.5, "slow={slow}");
        assert!((fast - 5.0).abs() < 1.5, "fast={fast}");
    }

    #[test]
    fn retrain_is_incremental() {
        let mut p = ExecutionProfiler::new();
        let mut db = HistoryDb::new();
        for _ in 0..10 {
            db.push(record("dock", 16, 10.0));
        }
        p.retrain(&db);
        let first = p.predict("dock", 1_000_000, &features(16, 2.5, 64), 0.0);
        // Re-ingesting the same db adds nothing new.
        p.retrain(&db);
        let second = p.predict("dock", 1_000_000, &features(16, 2.5, 64), 0.0);
        assert_eq!(first.to_bits(), second.to_bits());
        // New data changes the model.
        for _ in 0..30 {
            db.push(record("dock", 16, 30.0));
        }
        p.retrain(&db);
        let third = p.predict("dock", 1_000_000, &features(16, 2.5, 64), 0.0);
        assert!(third > first, "third={third} first={first}");
    }

    #[test]
    fn failed_records_ignored() {
        let mut p = ExecutionProfiler::new();
        let mut db = HistoryDb::new();
        let mut bad = record("dock", 16, 500.0);
        bad.success = false;
        db.push(bad);
        p.retrain(&db);
        assert_eq!(p.predict("dock", 100, &features(16, 2.5, 64), 7.0), 7.0);
    }
}
