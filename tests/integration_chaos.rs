//! Chaos integration tests: endpoints die mid-run — in the simulator and
//! on the live thread fabric — and workflows must still complete; one
//! fault plan runs on the simulator, the thread fabric and the process
//! fabric. Plus the determinism gate: a faulted run replayed with the same
//! seed and fault schedule is bit-identical.

use fedci::fabric::{Fabric, FabricTiming, ThreadedFabric};
use fedci::fault::Backend;
use fedci::process::{
    spawn_daemon_thread, DaemonConfig, EndpointMode, ProcessEndpointSpec, ProcessFabric,
    ProcessFabricConfig,
};
use simkit::SimDuration;
use std::sync::Arc;
use std::time::Duration;
use taskgraph::workloads::stress;
use unifaas::config::RetryPolicy;
use unifaas::monitor::HealthPolicy;
use unifaas::prelude::*;
use unifaas::runtime::fabric::LiveRetryPolicy;
use unifaas_cli::fabricrun::{run_workload, FabricWorkload};

fn chaos_config(strategy: SchedulingStrategy) -> Config {
    Config::builder()
        .endpoint(EndpointConfig::new("Taiyi", ClusterSpec::taiyi(), 8))
        .endpoint(EndpointConfig::new("Qiming", ClusterSpec::qiming(), 4))
        .endpoint(EndpointConfig::new("Lab", ClusterSpec::lab_cluster(), 4))
        .strategy(strategy)
        .build()
}

fn fault(cfg: &mut Config, rule: &str) {
    cfg.faults.push(rule.parse().unwrap());
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
        fault(&mut cfg, "down ep=0 from=30 to=600");
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
    fault(&mut cfg, "task-fail p=0.05");
    fault(&mut cfg, "transfer-fail p=0.05");
    cfg.max_task_attempts = 10;
    cfg.exec_noise_cv = 0.3;
    cfg.retry = RetryPolicy {
        backoff_base: SimDuration::from_secs(2),
        exec_timeout: Some(SimDuration::from_secs(600)),
        ..RetryPolicy::default()
    };
    cfg.health = HealthPolicy::default();
    fault(&mut cfg, "down ep=1 from=50 to=400");
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
        fault(&mut cfg, "task-fail p=0.1");
        fault(&mut cfg, "transfer-fail p=0.05");
        cfg.max_task_attempts = 8;
        cfg.retry.backoff_base = SimDuration::from_secs(5);
        fault(&mut cfg, "down ep=2 from=20 to=200");
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
    fault(&mut cfg, "task-fail p=0");
    fault(&mut cfg, "transfer-fail p=0");
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
    fabric.set_down(0, true);
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
    fabric.set_down(0, true);
    let mut futures: Vec<TypedFuture<i64>> = (0..4i64).map(|i| rt.call("id", i, &[])).collect();
    rt.wait_all();
    fabric.set_down(0, false);
    futures.extend((4..8i64).map(|i| rt.call("id", i, &[])));
    rt.wait_all();
    for (i, f) in (0..).zip(&futures) {
        assert_eq!(f.get().unwrap(), i);
    }
}

/// The subset of the fault plan every backend runs, written once and
/// parsed once, on the simulator, the thread pools and real daemons.
#[test]
fn one_plan_runs_on_every_backend() {
    let plan: FaultPlan = ["swallow ep=0 every=7", "delay ep=1 ms=2"]
        .iter()
        .map(|r| r.parse().unwrap())
        .collect();
    for backend in [Backend::Sim, Backend::Threaded, Backend::Process] {
        assert_eq!(plan.check(backend, 2), Ok(()), "{backend:?}");
    }

    // Simulator: the swallowed attempts are the watchdog's, and a verified
    // run replays bit-identically.
    let sim = || {
        let mut cfg = chaos_config(SchedulingStrategy::Capacity);
        cfg.faults = plan.clone();
        cfg.retry.exec_timeout = Some(SimDuration::from_secs(120));
        cfg.max_task_attempts = 10;
        cfg.verify = true;
        SimRuntime::new(cfg, stress::bag_of_tasks(60, 20.0))
            .run()
            .unwrap()
    };
    let (a, b) = (sim(), sim());
    assert_eq!(a.tasks_completed, 60);
    let tally: usize = a.tasks_per_endpoint.iter().map(|(_, n)| n).sum();
    assert_eq!(tally, 60, "each task completes exactly once");
    assert!(
        a.failed_attempts > 0,
        "every 7th attempt on endpoint 0 is lost"
    );
    assert_eq!(a.determinism_digest(), b.determinism_digest());
    assert_eq!(a.events_processed, b.events_processed);

    // Live backends: at-least-once execution, exactly-once resolution, and
    // the output digest of an unfaulted run.
    let w = FabricWorkload::new(40, 17);
    let retry = LiveRetryPolicy {
        max_attempts: 8,
        task_timeout: Some(Duration::from_millis(250)),
        backoff: Duration::from_millis(2),
    };
    let run = |fabric: Arc<dyn Fabric>| {
        let rt = FabricRuntime::new(fabric).with_retry(retry);
        let outcome = run_workload(&rt, &w);
        assert_eq!(outcome.failures, 0);
        assert_eq!(rt.stats().completed, 40);
        (outcome.digest, rt.stats().retries)
    };
    let endpoints = [("a", 2), ("b", 2)];
    let (reference, _) = run(live_fabric(&endpoints));
    let threaded = ThreadedFabric::new(&endpoints, &FabricTiming::fast()).with_faults(&plan);
    let (digest, retries) = run(Arc::new(threaded.unwrap()));
    assert_eq!(digest, reference, "threaded");
    assert!(retries > 0, "threaded: nothing was swallowed");

    let daemons: Vec<_> = (0..2)
        .map(|ep| {
            let mut cfg = DaemonConfig::new(endpoints[ep].0, 2);
            cfg.faults = plan.for_endpoint(ep);
            spawn_daemon_thread(cfg).expect("daemon")
        })
        .collect();
    let specs = (daemons.iter().zip(endpoints)).map(|(d, (name, workers))| ProcessEndpointSpec {
        name: name.to_string(),
        workers,
        mode: EndpointMode::Connect {
            addr: d.addr().to_string(),
        },
    });
    let process = Arc::new(ProcessFabric::new(
        specs.collect(),
        ProcessFabricConfig {
            timing: FabricTiming::fast(),
            seed: 5,
            respawn: false,
            telemetry: false,
        },
    ));
    let (digest, retries) = run(Arc::clone(&process) as Arc<dyn Fabric>);
    process.shutdown();
    for d in daemons {
        d.join().expect("daemon drains cleanly");
    }
    assert_eq!(digest, reference, "process");
    assert!(retries > 0, "process: nothing was swallowed");
}
