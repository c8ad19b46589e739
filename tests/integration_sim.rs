//! End-to-end integration tests: full workflows through the simulated
//! federation, spanning every crate in the workspace.

use fedci::hardware::ClusterSpec;
use fedci::network::{Link, NetworkTopology};
use simkit::{SimDuration, SimTime};
use taskgraph::traverse::critical_path_seconds;
use taskgraph::workloads::{drug, montage, stress};
use unifaas::config::KnowledgeMode;
use unifaas::monitor::HistoryDb;
use unifaas::prelude::*;

fn testbed(strategy: SchedulingStrategy) -> Config {
    Config::builder()
        .endpoint(EndpointConfig::new("Taiyi", ClusterSpec::taiyi(), 64))
        .endpoint(EndpointConfig::new("Qiming", ClusterSpec::qiming(), 24))
        .endpoint(EndpointConfig::new("Dept", ClusterSpec::dept_cluster(), 8))
        .endpoint(EndpointConfig::new("Lab", ClusterSpec::lab_cluster(), 8))
        .strategy(strategy)
        .build()
}

fn all_strategies() -> Vec<SchedulingStrategy> {
    vec![
        SchedulingStrategy::Capacity,
        SchedulingStrategy::Locality,
        SchedulingStrategy::Dha { rescheduling: true },
        SchedulingStrategy::Dha {
            rescheduling: false,
        },
    ]
}

#[test]
fn drug_screening_completes_under_every_scheduler() {
    let dag = drug::generate(&drug::DrugParams::small(60)); // 241 tasks
    for strategy in all_strategies() {
        let report = SimRuntime::new(testbed(strategy.clone()), dag.clone())
            .run()
            .unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
        assert_eq!(report.tasks_completed, 241, "{strategy:?}");
        assert_eq!(report.failed_attempts, 0, "{strategy:?}");
        // Makespan can never beat the critical path on the fastest cluster,
        // modulo execution noise (normal around 1.0, cv 0.02) which lets a
        // chain of tasks finish a few percent early.
        let lower = critical_path_seconds(&dag) / 1.10 * 0.95;
        assert!(
            report.makespan.as_secs_f64() >= lower,
            "{strategy:?}: makespan {} below lower bound {lower}",
            report.makespan
        );
    }
}

#[test]
fn montage_completes_and_reaches_single_sink() {
    let dag = montage::generate(&montage::MontageParams::small(40)); // 206 tasks
    let n = dag.len();
    for strategy in all_strategies() {
        let report = SimRuntime::new(testbed(strategy.clone()), dag.clone())
            .run()
            .unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
        assert_eq!(report.tasks_completed, n, "{strategy:?}");
    }
}

#[test]
fn dha_beats_capacity_under_dynamic_capacity() {
    // The Table V effect at small scale: a big capacity shift mid-run.
    let make = || {
        let mut dag = taskgraph::Dag::new();
        let f = dag.register_function("work");
        for _ in 0..400 {
            dag.add_task(TaskSpec::compute(f, 60.0).with_output_bytes(12 << 20), &[]);
        }
        dag
    };
    let run = |strategy| {
        let cfg = Config::builder()
            .endpoint(EndpointConfig::new("a", ClusterSpec::qiming(), 50))
            .endpoint(EndpointConfig::new("b", ClusterSpec::qiming(), 10))
            .strategy(strategy)
            .capacity_event(60, 1, 90) // b: 10 → 100 workers
            .capacity_event(120, 0, -40) // a: 50 → 10 workers
            .build();
        SimRuntime::new(cfg, make()).run().expect("run failed")
    };
    let capacity = run(SchedulingStrategy::Capacity);
    let dha = run(SchedulingStrategy::Dha { rescheduling: true });
    assert_eq!(capacity.tasks_completed, 400);
    assert_eq!(dha.tasks_completed, 400);
    assert!(
        dha.makespan.as_secs_f64() < capacity.makespan.as_secs_f64() * 0.8,
        "DHA {} should clearly beat Capacity {} when capacity shifts",
        dha.makespan,
        capacity.makespan
    );
}

#[test]
fn federating_more_endpoints_reduces_makespan() {
    // The headline claim: adding clusters to the pool speeds the workflow.
    let dag = || stress::bag_of_tasks(600, 30.0);
    let single = SimRuntime::new(
        Config::builder()
            .endpoint(EndpointConfig::new("only", ClusterSpec::qiming(), 50))
            .strategy(SchedulingStrategy::Dha { rescheduling: true })
            .build(),
        dag(),
    )
    .run()
    .unwrap();
    let federated = SimRuntime::new(
        testbed(SchedulingStrategy::Dha { rescheduling: true }),
        dag(),
    )
    .run()
    .unwrap();
    assert!(
        federated.makespan.as_secs_f64() < single.makespan.as_secs_f64() * 0.75,
        "federated {} vs single {}",
        federated.makespan,
        single.makespan
    );
}

#[test]
fn history_database_roundtrip_warms_learned_profiler() {
    // Run once in learned mode, persist the history DB, reload it for a
    // second run — the paper's "start a workflow by loading an existing
    // database".
    let dag = || drug::generate(&drug::DrugParams::small(30));
    let mut cfg = testbed(SchedulingStrategy::Dha { rescheduling: true });
    cfg.knowledge = KnowledgeMode::Learned;

    let first = SimRuntime::new(cfg.clone(), dag()).run().unwrap();
    assert_eq!(first.tasks_completed, 121);

    // Synthesize a history DB from a fresh monitor run by re-running and
    // capturing records via CSV persistence.
    let path = std::env::temp_dir().join("unifaas_integration_history.csv");
    {
        // The runtime doesn't expose its monitor after the run; emulate the
        // user flow by building a DB from a short profiling run's records.
        let mut db = HistoryDb::new();
        for i in 0..50 {
            db.push(unifaas::monitor::TaskRecord {
                function: "dock".into(),
                endpoint: fedci::endpoint::EndpointId(0),
                input_bytes: 20 << 20,
                duration_seconds: 200.0 + i as f64,
                output_bytes: 25 << 20,
                cores: 40,
                cpu_ghz: 2.4,
                ram_gb: 192,
                success: true,
            });
        }
        db.save_csv(&path).unwrap();
    }
    let loaded = HistoryDb::load_csv(&path).unwrap();
    assert_eq!(loaded.len(), 50);
    let warm = SimRuntime::new(cfg, dag())
        .with_history(loaded)
        .run()
        .unwrap();
    assert_eq!(warm.tasks_completed, 121);
    std::fs::remove_file(&path).ok();
}

#[test]
fn custom_network_topology_changes_transfer_costs() {
    let mut dag = taskgraph::Dag::new();
    let f = dag.register_function("producer");
    let g = dag.register_function("consumer");
    let a = dag.add_task(TaskSpec::compute(f, 5.0).with_output_bytes(200 << 20), &[]);
    dag.add_task(TaskSpec::compute(g, 5.0), &[a]);

    // Force producer and consumer onto different endpoints via Pinned.
    let cfg = |link: Link| {
        let c = Config::builder()
            .endpoint(EndpointConfig::new("p", ClusterSpec::qiming(), 1))
            .endpoint(EndpointConfig::new("c", ClusterSpec::qiming(), 1))
            .strategy(SchedulingStrategy::Pinned(vec![
                ("producer".into(), "p".into()),
                ("consumer".into(), "c".into()),
            ]))
            .build();
        let n = c.endpoints.len();
        (c, NetworkTopology::uniform(n, link))
    };
    let (slow_cfg, slow_net) = cfg(Link::wan());
    let slow = SimRuntime::new(slow_cfg, dag.clone())
        .with_network(slow_net)
        .run()
        .unwrap();
    let (fast_cfg, fast_net) = cfg(Link::lan());
    let fast = SimRuntime::new(fast_cfg, dag)
        .with_network(fast_net)
        .run()
        .unwrap();
    assert_eq!(slow.transfer_bytes, fast.transfer_bytes);
    assert!(
        slow.makespan.as_secs_f64() > fast.makespan.as_secs_f64() + 5.0,
        "WAN {} should be much slower than LAN {}",
        slow.makespan,
        fast.makespan
    );
}

#[test]
fn rsync_and_globus_mechanisms_both_work() {
    let mut dag = taskgraph::Dag::new();
    let f = dag.register_function("p");
    let g = dag.register_function("c");
    let a = dag.add_task(TaskSpec::compute(f, 2.0).with_output_bytes(50 << 20), &[]);
    dag.add_task(TaskSpec::compute(g, 2.0), &[a]);
    for mech in [TransferMechanism::Globus, TransferMechanism::Rsync] {
        let cfg = Config::builder()
            .endpoint(EndpointConfig::new("p", ClusterSpec::qiming(), 1))
            .endpoint(EndpointConfig::new("c", ClusterSpec::qiming(), 1))
            .strategy(SchedulingStrategy::Pinned(vec![
                ("p".into(), "p".into()),
                ("c".into(), "c".into()),
            ]))
            .transfer(mech)
            .build();
        let report = SimRuntime::new(cfg, dag.clone()).run().unwrap();
        assert_eq!(report.tasks_completed, 2);
        assert_eq!(report.transfer_bytes, 50 << 20);
    }
}

#[test]
fn fault_injection_end_to_end_with_both_failure_kinds() {
    let mut cfg = testbed(SchedulingStrategy::Locality);
    cfg.faults.push("transfer-fail p=0.15".parse().unwrap());
    cfg.faults.push("task-fail p=0.1".parse().unwrap());
    cfg.max_transfer_retries = 8;
    cfg.max_task_attempts = 8;
    let dag = drug::generate(&drug::DrugParams::small(20));
    let report = SimRuntime::new(cfg, dag).run().unwrap();
    assert_eq!(report.tasks_completed, 81);
    assert!(report.failed_attempts > 0);
}

#[test]
fn dynamic_dag_with_capacity_events_and_elasticity() {
    let mut cfg = Config::builder()
        .endpoint(EndpointConfig::new("e", ClusterSpec::lab_cluster(), 4).elastic(4, 40, 4))
        .strategy(SchedulingStrategy::Locality)
        .capacity_event(100, 0, 6)
        .build();
    cfg.scaling.enabled = true;
    cfg.scaling.idle_timeout = SimDuration::from_secs(20);
    let mut rt = SimRuntime::new(cfg, stress::bag_of_tasks(40, 15.0));
    rt.inject_at(SimTime::from_secs(50), |dag| {
        let f = dag.register_function("late_wave");
        for _ in 0..30 {
            dag.add_task(TaskSpec::compute(f, 10.0), &[]);
        }
    });
    let report = rt.run().unwrap();
    assert_eq!(report.tasks_completed, 70);
}

#[test]
fn reports_are_deterministic_across_identical_runs() {
    let run = || {
        SimRuntime::new(
            testbed(SchedulingStrategy::Dha { rescheduling: true }),
            montage::generate(&montage::MontageParams::small(20)),
        )
        .run()
        .unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.transfer_bytes, b.transfer_bytes);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.tasks_per_endpoint, b.tasks_per_endpoint);
}
