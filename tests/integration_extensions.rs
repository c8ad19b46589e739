//! Integration tests for the extension features layered on top of the
//! paper's core: DHA ablation knobs, coordinated scaling, alternative
//! profiler models, transfer probing, the ensemble workload, and the CLI
//! spec pipeline.

use simkit::{SimDuration, SimTime};
use taskgraph::workloads::drug;
use taskgraph::workloads::ensemble::{generate as ensemble, EnsembleParams};
use taskgraph::{Dag, TaskSpec};
use unifaas::config::{KnowledgeMode, ScalingConfig, ScalingPolicyKind, SchedulingStrategy};
use unifaas::prelude::*;
use unifaas::profile::ModelFamily;

fn dynamic_pool(strategy: SchedulingStrategy) -> Config {
    Config::builder()
        .endpoint(EndpointConfig::new("a", ClusterSpec::qiming(), 40))
        .endpoint(EndpointConfig::new("b", ClusterSpec::taiyi(), 10))
        .strategy(strategy)
        .capacity_event(100, 1, 60)
        .build()
}

fn bag(n: usize, secs: f64, out: u64) -> Dag {
    let mut dag = Dag::new();
    let f = dag.register_function("w");
    for _ in 0..n {
        dag.add_task(TaskSpec::compute(f, secs).with_output_bytes(out), &[]);
    }
    dag
}

#[test]
fn dha_custom_knobs_all_complete_and_delay_matters() {
    let full = SimRuntime::new(
        dynamic_pool(SchedulingStrategy::DhaCustom {
            rescheduling: true,
            delay_dispatch: true,
            steal_threshold_pct: 90,
        }),
        bag(300, 40.0, 12 << 20),
    )
    .run()
    .unwrap();
    let no_delay = SimRuntime::new(
        dynamic_pool(SchedulingStrategy::DhaCustom {
            rescheduling: true,
            delay_dispatch: false,
            steal_threshold_pct: 90,
        }),
        bag(300, 40.0, 12 << 20),
    )
    .run()
    .unwrap();
    assert_eq!(full.tasks_completed, 300);
    assert_eq!(no_delay.tasks_completed, 300);
    assert_eq!(full.scheduler, "DHA");
    assert_eq!(no_delay.scheduler, "DHA-no-delay");
    // The variants must actually behave differently under contention.
    assert_ne!(
        (full.makespan, full.events_processed),
        (no_delay.makespan, no_delay.events_processed),
        "delay knob had no effect"
    );
    // With capacity arriving mid-run, the delayed variant (bigger
    // re-schedulable pool) should not be slower by more than noise.
    assert!(
        full.makespan.as_secs_f64() <= no_delay.makespan.as_secs_f64() * 1.1,
        "full {} vs no-delay {}",
        full.makespan,
        no_delay.makespan
    );
}

#[test]
fn coordinated_scaling_provisions_less_for_same_work() {
    let run = |policy: ScalingPolicyKind| {
        let mut cfg = Config::builder()
            .endpoint(EndpointConfig::new("e", ClusterSpec::lab_cluster(), 0).elastic(0, 100, 10))
            .strategy(SchedulingStrategy::Locality)
            .build();
        cfg.scaling = ScalingConfig {
            enabled: true,
            idle_timeout: SimDuration::from_secs(20),
            policy,
        };
        let report = SimRuntime::new(cfg, bag(50, 30.0, 0)).run().unwrap();
        assert_eq!(report.tasks_completed, 50);
        let end = SimTime::ZERO + report.makespan + SimDuration::from_secs(40);
        (
            report.makespan.as_secs_f64(),
            report.series.active_total.integral(SimTime::ZERO, end),
        )
    };
    let (default_mk, default_ws) = run(ScalingPolicyKind::Default);
    let (coord_mk, coord_ws) = run(ScalingPolicyKind::Coordinated {
        target_drain_seconds: 120.0,
    });
    // Coordinated provisions fewer worker-seconds at a bounded makespan
    // cost (it deliberately trades some latency for efficiency).
    assert!(
        coord_ws < default_ws,
        "coordinated {coord_ws} should provision less than default {default_ws}"
    );
    assert!(
        coord_mk < default_mk * 3.0,
        "coordinated makespan {coord_mk} vs default {default_mk}"
    );
}

#[test]
fn all_model_families_complete_in_learned_mode() {
    for family in [
        ModelFamily::RandomForest,
        ModelFamily::Linear,
        ModelFamily::BayesianLinear,
    ] {
        let mut cfg = dynamic_pool(SchedulingStrategy::Dha { rescheduling: true });
        cfg.knowledge = KnowledgeMode::Learned;
        cfg.model_family = family;
        let report = SimRuntime::new(cfg, bag(150, 20.0, 12 << 20))
            .run()
            .unwrap();
        assert_eq!(report.tasks_completed, 150, "{family:?}");
    }
}

/// `Config::model_family` picks the learned execution model: the
/// example-scale drug screen (`specs/drug_small.spec`'s DAG) under learned
/// DHA places tasks differently with each family.
#[test]
fn model_family_changes_learned_decisions() {
    let digest = |family: ModelFamily| {
        let cfg = Config::builder()
            .endpoint(EndpointConfig::new("Taiyi", ClusterSpec::taiyi(), 200))
            .endpoint(EndpointConfig::new("Qiming", ClusterSpec::qiming(), 8))
            .strategy(SchedulingStrategy::Dha { rescheduling: true })
            .knowledge(KnowledgeMode::Learned)
            .model_family(family)
            .verify(true)
            .build();
        SimRuntime::new(cfg, drug::generate(&drug::DrugParams::small(600)))
            .run()
            .unwrap()
            .decision_digest
            .expect("verified run reports the decision digest")
    };
    let forest = digest(ModelFamily::RandomForest);
    assert_ne!(forest, digest(ModelFamily::Linear), "OLS");
    assert_ne!(
        forest,
        digest(ModelFamily::BayesianLinear),
        "Bayesian linear"
    );
}

#[test]
fn probing_gives_learned_dha_transfer_awareness_from_the_start() {
    // Two endpoints; one holds a big replica of a shared input. With
    // probing, the learned transfer model knows moving data is expensive
    // from task one.
    let run = |probe: bool| {
        let mut cfg = Config::builder()
            .endpoint(EndpointConfig::new("a", ClusterSpec::qiming(), 4))
            .endpoint(EndpointConfig::new("b", ClusterSpec::qiming(), 4))
            .strategy(SchedulingStrategy::Dha {
                rescheduling: false,
            })
            .build();
        cfg.knowledge = KnowledgeMode::Learned;
        cfg.probe_transfers = probe;
        let mut dag = Dag::new();
        let f = dag.register_function("p");
        let g = dag.register_function("c");
        let root = dag.add_task(TaskSpec::compute(f, 5.0).with_output_bytes(500 << 20), &[]);
        for _ in 0..8 {
            dag.add_task(TaskSpec::compute(g, 10.0), &[root]);
        }
        SimRuntime::new(cfg, dag).run().unwrap()
    };
    let with = run(true);
    let without = run(false);
    assert_eq!(with.tasks_completed, 9);
    assert_eq!(without.tasks_completed, 9);
    // With probing the consumers cluster near the 500 MB file; without it,
    // cold-start estimates may scatter them. Probing must never move MORE.
    assert!(
        with.transfer_bytes <= without.transfer_bytes,
        "probed {} vs unprobed {}",
        with.transfer_bytes,
        without.transfer_bytes
    );
}

#[test]
fn ensemble_workload_runs_under_every_scheduler() {
    let dag = || {
        ensemble(&EnsembleParams {
            rounds: 4,
            batch: 30,
            ..Default::default()
        })
    };
    for strategy in [
        SchedulingStrategy::Capacity,
        SchedulingStrategy::Locality,
        SchedulingStrategy::Dha { rescheduling: true },
    ] {
        let report = SimRuntime::new(dynamic_pool(strategy.clone()), dag())
            .run()
            .unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
        assert_eq!(report.tasks_completed, 124, "{strategy:?}");
        // The train barrier serializes rounds: makespan must exceed
        // 4 × (sim + train) on the fastest endpoint.
        let floor = 4.0 * (120.0 + 90.0) / 1.10 * 0.6; // generous slack for cv
        assert!(
            report.makespan.as_secs_f64() > floor,
            "{strategy:?}: {} <= {floor}",
            report.makespan
        );
    }
}

#[test]
fn cli_spec_roundtrip_runs_ensemble() {
    let spec = unifaas_cli::parse_spec(
        "endpoint a taiyi 50\nendpoint b lab 10\nstrategy dha\nseed 5\nworkload ensemble rounds=3 batch=20\n",
    )
    .unwrap();
    let report = SimRuntime::new(spec.config, spec.workload.build())
        .run()
        .unwrap();
    assert_eq!(report.tasks_completed, 63);
}
