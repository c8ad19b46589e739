//! `ThreadedFabric`'s worker pools: every job runs, in parallel, and a
//! dropped fabric drains its queue; a fault plan's `swallow` and `delay`
//! and the operator's `set_down` lose or slow exactly the jobs they name.

use fedci::fabric::{
    Fabric, FabricResult, FabricTiming, JobSpec, Payload, ProbeState, ThreadedFabric,
};
use fedci::fault::{FaultError, FaultPlan};
use simkit::metrics::MetricsRegistry;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Submits `echo` tasks `0..n` to endpoint `ep`; each result lands on
/// the returned channel.
fn submit_echo(fabric: &ThreadedFabric, ep: usize, n: u64) -> mpsc::Receiver<FabricResult> {
    let (tx, rx) = mpsc::channel();
    for task in 0..n {
        let tx = tx.clone();
        let job = JobSpec {
            task,
            attempt: 1,
            function: Arc::from("echo"),
            deps: vec![],
            payload: task.to_le_bytes().to_vec().into(),
            keep_output: false,
        };
        fabric.submit(ep, job, Box::new(move |r| drop(tx.send(r))));
    }
    rx
}

fn plan(rules: &[&str]) -> FaultPlan {
    rules.iter().map(|r| r.parse().unwrap()).collect()
}

const WAIT: Duration = Duration::from_secs(5);

#[test]
fn pool_runs_every_job_and_drop_drains_the_queue() {
    let fabric = ThreadedFabric::new(&[("a", 4)], &FabricTiming::fast());
    let rx = submit_echo(&fabric, 0, 100);
    drop(fabric); // drains the queue before joining
    assert_eq!(rx.try_iter().filter(|r| r.is_ok()).count(), 100);
    // A pool that never started a worker, and one that started some.
    drop(ThreadedFabric::new(&[("idle", 4)], &FabricTiming::fast()));
    let fabric = ThreadedFabric::new(&[("partial", 4)], &FabricTiming::fast());
    let rx = submit_echo(&fabric, 0, 2);
    drop(fabric);
    assert_eq!(rx.try_iter().count(), 2);
}

#[test]
fn pool_jobs_run_in_parallel() {
    let fabric = ThreadedFabric::new(&[("par", 4)], &FabricTiming::fast());
    // Four jobs that each wait until all four have started: only
    // possible if they run concurrently.
    let barrier = Arc::new(std::sync::Barrier::new(4));
    fabric.registry().register("echo", move |input| {
        barrier.wait();
        Ok(input.to_vec())
    });
    let rx = submit_echo(&fabric, 0, 4);
    for _ in 0..4 {
        rx.recv_timeout(WAIT)
            .expect("jobs deadlocked: pool is not parallel")
            .unwrap();
    }
}

#[test]
fn pool_counts_busy_workers() {
    let fabric = ThreadedFabric::new(&[("count", 2)], &FabricTiming::fast());
    let (started_tx, started_rx) = crossbeam::channel::unbounded::<()>();
    let (go_tx, go_rx) = crossbeam::channel::unbounded::<()>();
    fabric.registry().register("echo", move |input| {
        started_tx.send(()).unwrap();
        go_rx.recv().unwrap();
        Ok(input.to_vec())
    });
    assert_eq!(fabric.busy_workers(0), 0);
    let rx = submit_echo(&fabric, 0, 1);
    started_rx.recv_timeout(WAIT).unwrap();
    assert_eq!(fabric.busy_workers(0), 1);
    go_tx.send(()).unwrap();
    rx.recv_timeout(WAIT).unwrap().unwrap();
    assert_eq!(fabric.busy_workers(0), 0, "freed before the completion");
    assert_eq!(fabric.n_workers(0), 2);
}

#[test]
fn a_worker_can_drop_the_fabric() {
    let fabric = Arc::new(ThreadedFabric::new(&[("orphan", 2)], &FabricTiming::fast()));
    let (go_tx, go_rx) = crossbeam::channel::unbounded::<()>();
    fabric.registry().register("wait", move |_| {
        let _ = go_rx.recv();
        Ok(Vec::new())
    });
    let last = Arc::clone(&fabric);
    let (tx, rx) = mpsc::channel();
    let job = JobSpec {
        task: 0,
        attempt: 1,
        function: Arc::from("wait"),
        deps: vec![],
        payload: Payload::default(),
        keep_output: false,
    };
    // Until the test lets go of its handle, `last` is not the last.
    fabric.submit(
        0,
        job,
        Box::new(move |_| {
            let dropped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(last)));
            tx.send(dropped.is_ok()).unwrap();
        }),
    );
    drop(fabric);
    drop(go_tx);
    let clean = rx
        .recv_timeout(WAIT)
        .expect("the worker hung dropping its own fabric");
    assert!(clean, "the worker panicked joining itself");
}

#[test]
#[should_panic(expected = "at least one worker")]
fn zero_workers_panics() {
    ThreadedFabric::new(&[("bad", 0)], &FabricTiming::fast());
}

#[test]
fn swallow_drops_every_kth_submission_and_delay_slows_each_job() {
    let timing = FabricTiming::fast();
    let fabric = ThreadedFabric::new(&[("crashy", 1), ("slow", 1)], &timing);
    let fabric = fabric
        .with_faults(&plan(&["swallow ep=0 every=2", "delay ep=1 ms=50"]))
        .unwrap();
    let t0 = Instant::now();
    let slow = submit_echo(&fabric, 1, 1);
    let crashy = submit_echo(&fabric, 0, 10);
    slow.recv_timeout(WAIT).unwrap().unwrap();
    assert!(t0.elapsed() >= Duration::from_millis(50));
    drop(fabric);
    // Every 2nd submission swallowed: tasks 0, 2, 4, 6, 8 ran.
    let ran: Vec<u64> = crashy
        .try_iter()
        .map(|r| u64::from_le_bytes(r.unwrap()[..8].try_into().unwrap()))
        .collect();
    assert_eq!(ran, [0, 2, 4, 6, 8]);
    let kill = ThreadedFabric::new(&[("a", 1)], &timing).with_faults(&plan(&["kill ep=0 after=1"]));
    assert!(matches!(kill, Err(FaultError::Unsupported { .. })));
}

#[test]
fn down_pool_fails_probe_and_drops_queued_and_new_jobs() {
    let fabric = ThreadedFabric::new(&[("down", 1)], &FabricTiming::fast());
    // The one worker holds the first job until the gate opens, so the
    // next three wait in the queue when the pool goes down.
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (gate_tx, gate_rx) = crossbeam::channel::unbounded::<()>();
    let started_tx = std::sync::Mutex::new(started_tx);
    fabric.registry().register("echo", move |input| {
        if input == 0u64.to_le_bytes() {
            started_tx.lock().unwrap().send(()).unwrap();
            gate_rx.recv().unwrap();
        }
        Ok(input.to_vec())
    });
    let queued = submit_echo(&fabric, 0, 4);
    started_rx.recv_timeout(WAIT).unwrap();
    fabric.set_down(0, true);
    assert_eq!(fabric.probe(0), ProbeState::Dead);
    let lost = submit_echo(&fabric, 0, 2);
    let mut reg = MetricsRegistry::new();
    let mut ids = fabric.register_metrics(&mut reg);
    fabric.sample_metrics(&mut reg, &mut ids);
    let text = reg.render_prometheus();
    assert!(
        text.contains("fedci_pool_jobs_crashed_total{endpoint=\"down\"} 5"),
        "{text}"
    );
    assert!(
        text.contains("fedci_pool_up{endpoint=\"down\"} 0"),
        "{text}"
    );
    // Restored: the running job finishes and new jobs execute again (the
    // new one is task 0 too, so it needs a gate token of its own).
    fabric.set_down(0, false);
    assert_eq!(fabric.probe(0), ProbeState::Alive);
    gate_tx.send(()).unwrap();
    gate_tx.send(()).unwrap();
    queued.recv_timeout(WAIT).unwrap().unwrap();
    submit_echo(&fabric, 0, 1)
        .recv_timeout(WAIT)
        .unwrap()
        .unwrap();
    drop(fabric);
    assert_eq!(
        queued.try_iter().count(),
        0,
        "the three queued jobs were dropped"
    );
    assert_eq!(lost.try_iter().count(), 0);
}

#[test]
fn pool_metrics_sample_and_stay_monotone() {
    let fabric = ThreadedFabric::new(&[("metered", 2)], &FabricTiming::fast());
    let mut reg = MetricsRegistry::new();
    let mut ids = fabric.register_metrics(&mut reg);
    fabric.sample_metrics(&mut reg, &mut ids);
    let text = reg.render_prometheus();
    assert!(text.contains("fedci_pool_workers{endpoint=\"metered\"} 2"));
    assert!(text.contains("fedci_pool_up{endpoint=\"metered\"} 1"));
    let rx = submit_echo(&fabric, 0, 6);
    for _ in 0..6 {
        rx.recv_timeout(WAIT).unwrap().unwrap();
    }
    // The completion runs after the worker counts its job.
    // Two samples in a row: the counter reflects the total exactly
    // once (delta-based sampling, not double-counted).
    fabric.sample_metrics(&mut reg, &mut ids);
    fabric.sample_metrics(&mut reg, &mut ids);
    let text = reg.render_prometheus();
    assert!(
        text.contains("fedci_pool_jobs_completed_total{endpoint=\"metered\"} 6"),
        "unexpected exposition:\n{text}"
    );
}
