//! End-to-end tests for the metrics observatory: registry exposition,
//! predictor calibration and fault-path attempt accounting.

use fedci::hardware::ClusterSpec;
use fedci::network::{Link, NetworkTopology};
use simkit::metrics::parse_prometheus;
use taskgraph::{Dag, TaskId, TaskSpec};
use unifaas::config::{Config, EndpointConfig, SchedulingStrategy};
use unifaas::profile::{OracleProfiler, ScaledPredictor};
use unifaas::SimRuntime;

fn two_site(strategy: SchedulingStrategy) -> Config {
    Config::builder()
        .endpoint(EndpointConfig::new("fast", ClusterSpec::taiyi(), 4))
        .endpoint(EndpointConfig::new("slow", ClusterSpec::qiming(), 2))
        .strategy(strategy)
        .build()
}

fn fan_dag(width: usize, secs: f64) -> Dag {
    let mut dag = Dag::new();
    let f = dag.register_function("work");
    let g = dag.register_function("merge");
    let layer: Vec<TaskId> = (0..width)
        .map(|_| dag.add_task(TaskSpec::compute(f, secs).with_output_bytes(1 << 20), &[]))
        .collect();
    dag.add_task(TaskSpec::compute(g, secs), &layer);
    dag
}

/// Metrics collection must not perturb the simulation: same seed, same
/// digest, with or without the registry.
#[test]
fn metrics_do_not_change_the_determinism_digest() {
    let strategy = SchedulingStrategy::Dha { rescheduling: true };
    let plain = SimRuntime::new(two_site(strategy.clone()), fan_dag(20, 5.0))
        .run()
        .unwrap();
    let metered = SimRuntime::new(two_site(strategy), fan_dag(20, 5.0))
        .with_metrics(true)
        .run()
        .unwrap();
    assert_eq!(
        plain.determinism_digest(),
        metered.determinism_digest(),
        "metrics must be zero-cost on the simulated timeline"
    );
    assert!(plain.metrics.is_none() && plain.calibration.is_empty());
    let reg = metered
        .metrics
        .as_deref()
        .expect("metered run keeps its registry");
    assert!(!metered.calibration.is_empty());
    // And the dump is valid Prometheus exposition.
    let samples = parse_prometheus(&reg.render_prometheus()).expect("parses");
    assert!(samples
        .iter()
        .any(|s| s.name == "unifaas_tasks_completed_total"));
}

/// The acceptance workload for the calibration table: a predictor that
/// systematically doubles execution estimates must show up as ~100% MAPE
/// and strong positive bias on every per-function exec row.
#[test]
fn biased_predictor_shows_up_in_calibration() {
    let cfg = two_site(SchedulingStrategy::Dha {
        rescheduling: false,
    });
    let net = NetworkTopology::uniform(cfg.endpoints.len(), Link::wan());
    let oracle = OracleProfiler::new(net, cfg.transfer.default_params());
    let report = SimRuntime::new(cfg, fan_dag(30, 10.0))
        .with_metrics(true)
        .with_predictor(Box::new(ScaledPredictor::new(oracle, 2.0, 1.0)))
        .run()
        .unwrap();
    assert_eq!(report.tasks_completed, 31);
    let exec_rows: Vec<_> = report
        .calibration
        .iter()
        .filter(|r| r.model.starts_with("exec:"))
        .collect();
    assert_eq!(
        exec_rows.len(),
        2,
        "one row per function: {:?}",
        report.calibration
    );
    for row in exec_rows {
        // predicted = 2×actual (modulo exec noise, cv 0.02): MAPE ≈ 1.0.
        assert!(
            (row.mape - 1.0).abs() < 0.15,
            "{}: MAPE {} not ≈ 1.0",
            row.model,
            row.mape
        );
        assert!(
            row.bias > 0.8,
            "{}: bias {} not strongly positive",
            row.model,
            row.bias
        );
        assert!(
            row.p95_abs_err > 0.8,
            "{}: p95 {}",
            row.model,
            row.p95_abs_err
        );
    }
    // Every observation breaches the 25% drift threshold: the drift
    // counter must equal the exec observation count.
    let reg = report.metrics.as_deref().unwrap();
    let samples = parse_prometheus(&reg.render_prometheus()).unwrap();
    let drift = samples
        .iter()
        .find(|s| s.name == "unifaas_predictor_drift_total")
        .expect("drift counter exported");
    assert!(
        drift.value >= report.tasks_completed as f64,
        "drift {} < completed {}",
        drift.value,
        report.tasks_completed
    );
}

/// Satellite: fault-path metric audit. Under a seeded task-failure
/// schedule every attempt — first try or retry re-dispatch — must bump
/// the dispatch counter exactly once, and per-task latency stages must be
/// sampled exactly once per *completed* task.
#[test]
fn attempt_counters_reconcile_under_seeded_faults() {
    let mut cfg = two_site(SchedulingStrategy::Locality);
    cfg.faults.push("task-fail p=0.15".parse().unwrap());
    cfg.max_task_attempts = 10;
    cfg.seed = 7;
    let report = SimRuntime::new(cfg, fan_dag(40, 5.0))
        .with_metrics(true)
        .run()
        .unwrap();
    assert_eq!(report.tasks_completed, 41);
    assert!(report.failed_attempts > 0, "seed 7 at p=0.15 must fault");

    let reg = report.metrics.as_deref().unwrap();
    let samples = parse_prometheus(&reg.render_prometheus()).unwrap();
    let sum_of = |name: &str| -> f64 {
        samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    };
    // Every attempt is one dispatch; every failure is re-dispatched (no
    // outages configured, so nothing is drained without a new attempt).
    assert_eq!(
        sum_of("unifaas_task_dispatches_total") as usize,
        report.tasks_completed + report.failed_attempts,
        "dispatches must count one per attempt"
    );
    assert_eq!(
        sum_of("unifaas_task_attempt_failures_total") as usize,
        report.failed_attempts
    );
    assert_eq!(
        sum_of("unifaas_tasks_completed_total") as usize,
        report.tasks_completed
    );
    // Stage histograms sample once per completed task — retries must not
    // double-sample.
    let stage_counts: Vec<f64> = samples
        .iter()
        .filter(|s| s.name == "unifaas_task_stage_seconds_count")
        .map(|s| s.value)
        .collect();
    assert_eq!(stage_counts.len(), 5, "five latency stages");
    for c in stage_counts {
        assert_eq!(
            c as u64, report.latency.count,
            "one sample per completed task"
        );
    }
    assert_eq!(report.latency.count as usize, report.tasks_completed);
}

/// A retried task's staging stage must be measured from its *latest*
/// ready time, not its first: per-attempt stages can never exceed the
/// makespan once summed per task.
#[test]
fn retry_latency_stages_cover_only_the_final_attempt() {
    let mut cfg = two_site(SchedulingStrategy::Locality);
    cfg.faults.push("task-fail p=0.3".parse().unwrap());
    cfg.max_task_attempts = 20;
    cfg.seed = 11;
    let report = SimRuntime::new(cfg, fan_dag(30, 5.0)).run().unwrap();
    assert!(report.failed_attempts > 0);
    let l = &report.latency;
    let per_task_sum =
        (l.staging_s + l.submission_s + l.queue_s + l.execution_s + l.polling_s) / l.count as f64;
    assert!(
        per_task_sum <= report.makespan.as_secs_f64(),
        "mean per-task stage sum {per_task_sum} exceeds makespan {} — a retry \
         double-counted a stage across attempts",
        report.makespan.as_secs_f64()
    );
}
