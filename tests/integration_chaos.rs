//! Chaos integration tests: endpoints die mid-run — in the simulator and
//! on the live thread fabric — and workflows must still complete. Plus the
//! determinism gate: a faulted run replayed with the same seed and fault
//! schedule is bit-identical.

use fedci::fabric::{FabricTiming, ThreadedFabric};
use simkit::{SimDuration, SimTime};
use std::sync::Arc;
use std::time::Duration;
use taskgraph::workloads::stress;
use unifaas::config::{OutageSpec, RetryPolicy};
use unifaas::monitor::HealthPolicy;
use unifaas::prelude::*;
use unifaas::runtime::fabric::LiveRetryPolicy;

fn chaos_config(strategy: SchedulingStrategy) -> Config {
    Config::builder()
        .endpoint(EndpointConfig::new("Taiyi", ClusterSpec::taiyi(), 8))
        .endpoint(EndpointConfig::new("Qiming", ClusterSpec::qiming(), 4))
        .endpoint(EndpointConfig::new("Lab", ClusterSpec::lab_cluster(), 4))
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
fn sim_endpoint_killed_mid_run_workflow_completes() {
    // The biggest endpoint dies a third of the way in and comes back much
    // later; every scheduler must drain it, reassign and finish.
    for strategy in all_strategies() {
        let mut cfg = chaos_config(strategy.clone());
        cfg.outages.push(OutageSpec {
            endpoint: 0,
            from: SimTime::from_secs(30),
            to: SimTime::from_secs(600),
        });
        let report = SimRuntime::new(cfg, stress::bag_of_tasks(60, 20.0))
            .run()
            .unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
        assert_eq!(report.tasks_completed, 60, "{strategy:?}");
    }
}

#[test]
fn sim_outage_with_failures_and_retries_completes() {
    // Outage + probabilistic task/transfer failures + backoff + straggler
    // watchdog, all at once.
    let mut cfg = chaos_config(SchedulingStrategy::Dha { rescheduling: true });
    cfg.task_failure_prob = 0.05;
    cfg.transfer_failure_prob = 0.05;
    cfg.max_task_attempts = 10;
    cfg.exec_noise_cv = 0.3;
    cfg.retry = RetryPolicy {
        backoff_base: SimDuration::from_secs(2),
        exec_timeout: Some(SimDuration::from_secs(600)),
        ..RetryPolicy::default()
    };
    cfg.health = HealthPolicy::default();
    cfg.outages.push(OutageSpec {
        endpoint: 1,
        from: SimTime::from_secs(50),
        to: SimTime::from_secs(400),
    });
    let report = SimRuntime::new(cfg, stress::bag_of_tasks(80, 25.0))
        .run()
        .unwrap();
    assert_eq!(report.tasks_completed, 80);
    assert!(report.failed_attempts > 0, "faults must actually fire");
}

#[test]
fn faulted_run_replays_bit_identically() {
    // The determinism gate: same seed, same fault schedule → the same
    // digest over every sim-deterministic report field.
    let run = || {
        let mut cfg = chaos_config(SchedulingStrategy::Locality);
        cfg.seed = 42;
        cfg.task_failure_prob = 0.1;
        cfg.transfer_failure_prob = 0.05;
        cfg.max_task_attempts = 8;
        cfg.retry.backoff_base = SimDuration::from_secs(5);
        cfg.outages.push(OutageSpec {
            endpoint: 2,
            from: SimTime::from_secs(20),
            to: SimTime::from_secs(200),
        });
        SimRuntime::new(cfg, stress::bag_of_tasks(50, 15.0))
            .run()
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.determinism_digest(), b.determinism_digest());
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.failed_attempts, b.failed_attempts);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.tasks_per_endpoint, b.tasks_per_endpoint);
}

#[test]
fn zero_fault_probabilities_match_unconfigured_run() {
    // Config with the whole fault-tolerance surface present but inert
    // (zero probabilities, no outages) must not shift a single event
    // relative to a config that never mentions faults.
    let dag = || stress::bag_of_tasks(40, 12.0);
    let plain = SimRuntime::new(chaos_config(SchedulingStrategy::Locality), dag())
        .run()
        .unwrap();
    let mut cfg = chaos_config(SchedulingStrategy::Locality);
    cfg.task_failure_prob = 0.0;
    cfg.transfer_failure_prob = 0.0;
    cfg.retry = RetryPolicy {
        backoff_base: SimDuration::from_secs(9),
        backoff_factor: 4.0,
        backoff_max: SimDuration::from_secs(900),
        backoff_jitter: 0.3,
        exec_timeout: None,
    };
    cfg.health = HealthPolicy {
        suspect_after: 1,
        down_after: 2,
        recover_after: 3,
    };
    let knobs = SimRuntime::new(cfg, dag()).run().unwrap();
    assert_eq!(plain.determinism_digest(), knobs.determinism_digest());
}

/// In-process pools with a short worker poll, so fault flags bite quickly.
fn live_fabric(endpoints: &[(&str, usize)]) -> Arc<ThreadedFabric> {
    Arc::new(ThreadedFabric::new(endpoints, &FabricTiming::fast()))
}

#[test]
fn live_endpoint_killed_mid_run_workflow_completes() {
    // Two pools; the larger one goes down (probe fails, queued jobs are
    // swallowed) partway through a fan-out. The health-aware placer plus
    // the wait_all watchdog must still finish every task.
    let fabric = live_fabric(&[("big", 4), ("small", 2)]);
    let work = |x: i64| {
        std::thread::sleep(Duration::from_millis(10));
        Ok(x)
    };
    fabric.registry().register("work", typed(work));
    let rt = FabricRuntime::new(Arc::clone(&fabric) as _).with_retry(LiveRetryPolicy {
        max_attempts: 8,
        task_timeout: Some(Duration::from_millis(200)),
        backoff: Duration::from_millis(2),
    });
    let mut futures: Vec<TypedFuture<i64>> = (0..8i64).map(|i| rt.call("work", i, &[])).collect();
    // Kill the big pool mid-run: in-flight and queued jobs there are
    // swallowed from now on, and placement must divert the rest.
    fabric.pool(0).faults().set_down(true);
    futures.extend((8..16i64).map(|i| rt.call("work", i, &[])));
    rt.wait_all();
    for (i, f) in (0..).zip(&futures) {
        assert_eq!(f.get().unwrap_or_else(|e| panic!("task {i}: {e}")), i);
    }
}

#[test]
fn live_pool_recovers_and_is_reused() {
    let fabric = live_fabric(&[("flaky", 2), ("steady", 1)]);
    fabric.registry().register("id", typed(|x: i64| Ok(x)));
    let rt = FabricRuntime::new(Arc::clone(&fabric) as _).with_retry(LiveRetryPolicy {
        max_attempts: 6,
        task_timeout: Some(Duration::from_millis(150)),
        backoff: Duration::ZERO,
    });
    fabric.pool(0).faults().set_down(true);
    let mut futures: Vec<TypedFuture<i64>> = (0..4i64).map(|i| rt.call("id", i, &[])).collect();
    rt.wait_all();
    fabric.pool(0).faults().set_down(false);
    futures.extend((4..8i64).map(|i| rt.call("id", i, &[])));
    rt.wait_all();
    for (i, f) in (0..).zip(&futures) {
        assert_eq!(f.get().unwrap(), i);
    }
}
