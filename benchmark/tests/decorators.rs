//! The timing decorators must not change what the program computes, and
//! the per-attempt stage table must be a consistent decomposition of the
//! round trip the decorator saw.

use fedci::fabric::{Fabric, FabricTiming, ProbeState, ThreadedFabric};
use fedci::process::{
    spawn_daemon_thread, DaemonConfig, EndpointMode, EndpointTelemetry, ProcessEndpointSpec,
    ProcessFabric, ProcessFabricConfig,
};
use simkit::TraceLevel;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use unifaas::runtime::fabric::FabricRuntime;
use unifaas_benchmark::stats::median;
use unifaas_benchmark::timed::TimedFabric;
use unifaas_benchmark::wire::{chain_plan, data_plan, drive, reference, retire, verify, Plan};

fn threaded() -> Arc<dyn Fabric> {
    Arc::new(ThreadedFabric::new(
        &[("a", 2), ("b", 2)],
        &FabricTiming::fast(),
    ))
}

fn run_bytes(fabric: Arc<dyn Fabric>, plan: &Plan) -> Vec<Vec<u8>> {
    let rt = FabricRuntime::new(Arc::clone(&fabric));
    let payloads = plan.tasks.iter().map(|t| t.payload.clone()).collect();
    let driven = drive(&rt, plan, payloads);
    let bytes = driven
        .futures
        .iter()
        .map(|f| f.wait().expect("task succeeds").to_vec())
        .collect();
    drop(rt);
    retire(fabric);
    bytes
}

#[test]
fn decorated_threaded_run_returns_the_same_bytes() {
    let plan = data_plan(7, 6, 64);
    let plain = run_bytes(threaded(), &plan);
    let (timed, times) = TimedFabric::new(threaded());
    let decorated = run_bytes(Arc::new(timed), &plan);
    assert_eq!(plain, decorated);

    let t = times.snapshot();
    assert_eq!(t.submit_calls, plan.tasks.len() as u64);
    assert_eq!(t.roundtrips.len(), plan.tasks.len());
    assert_eq!(t.attempts_failed, 0);
    // Every task below layer 0 stages at least one blob of the layer above.
    assert!(t.stage_calls >= (plan.tasks.len() - 4) as u64);
    assert!(t.stage_bytes >= t.stage_calls * 8);
}

#[test]
fn reference_agrees_with_a_real_run() {
    for plan in [data_plan(3, 5, 16), chain_plan(3, 40)] {
        let (expected, moved) = reference(&plan);
        let fabric = threaded();
        let rt = FabricRuntime::new(Arc::clone(&fabric));
        let payloads = plan.tasks.iter().map(|t| t.payload.clone()).collect();
        let driven = drive(&rt, &plan, payloads);
        let (failed, _) = verify(&driven.futures, &expected);
        assert_eq!(failed, 0);
        assert!(moved > 0);
        assert_eq!(driven.rtts_ns.len(), if plan.closed_loop { 40 } else { 0 });
        drop(rt);
        retire(fabric);
    }
}

#[test]
fn chain_stages_sum_to_the_round_trip_within_clock_uncertainty() {
    // Two in-process daemons behind the real TCP protocol.
    let daemons: Vec<_> = ["a", "b"]
        .iter()
        .map(|n| spawn_daemon_thread(DaemonConfig::new(n, 2)).expect("daemon binds"))
        .collect();
    let specs = ["a", "b"]
        .iter()
        .zip(&daemons)
        .map(|(n, d)| ProcessEndpointSpec {
            name: n.to_string(),
            workers: 2,
            mode: EndpointMode::Connect {
                addr: d.addr().to_string(),
            },
        })
        .collect();
    let pf = Arc::new(ProcessFabric::new(
        specs,
        ProcessFabricConfig {
            timing: FabricTiming::fast(),
            telemetry: true,
            ..ProcessFabricConfig::default()
        },
    ));
    for ep in 0..2 {
        assert!(pf.wait_probe(ep, ProbeState::Alive, Duration::from_secs(10)));
    }
    // The stage table needs a clock mapping: wait for the first heartbeat
    // round trip of each endpoint.
    let deadline = Instant::now() + Duration::from_secs(10);
    while (0..2).any(|ep| pf.telemetry(ep).clocks.is_empty()) {
        assert!(Instant::now() < deadline, "no heartbeat round trip");
        std::thread::sleep(Duration::from_millis(5));
    }

    let (timed, times) = TimedFabric::new(Arc::clone(&pf) as Arc<dyn Fabric>);
    let rt = FabricRuntime::new(Arc::new(timed)).with_trace(TraceLevel::Spans);
    let plan = chain_plan(11, 300);
    let (expected, _) = reference(&plan);
    let payloads = plan.tasks.iter().map(|t| t.payload.clone()).collect();
    let driven = drive(&rt, &plan, payloads);
    assert_eq!(verify(&driven.futures, &expected).0, 0);

    let tracer = rt.take_client_tracer();
    pf.shutdown();
    let tel: Vec<EndpointTelemetry> = (0..2).map(|ep| pf.telemetry(ep)).collect();
    let chains = unifaas::obs::attempt_chains(tracer.as_ref(), &tel);
    assert_eq!(chains.len(), 300);
    let trips: HashMap<u64, f64> = times
        .snapshot()
        .roundtrips
        .iter()
        .map(|r| (r.task, r.nanos() as f64 / 1e3))
        .collect();

    let mut overhead = Vec::new();
    for c in &chains {
        // The runtime resolves a future before it closes the attempt's
        // trace span, so the final hop's span may still be open when
        // `wait` returns and the trace is taken.
        if c.task == 299 && c.c_done_us.is_none() {
            continue;
        }
        assert!(c.is_complete() && c.synced, "chain {c:?}");
        let stamps = [
            c.c_dispatch_us.unwrap(),
            c.d_recv_us.unwrap(),
            c.d_exec_begin_us.unwrap(),
            c.d_exec_end_us.unwrap(),
            c.d_sent_us.unwrap(),
            c.c_done_us.unwrap(),
        ];
        // Stamps are truncated to whole µs on both clocks.
        let slack = c.uncertainty_us as i64 + 5;
        let stages: Vec<i64> = stamps.windows(2).map(|w| w[1] - w[0]).collect();
        // The daemon stamps `sent` after its socket write returns, by when
        // the client may already have seen the result: `wire.back` alone
        // may run backwards. Everything else is causally ordered.
        assert!(
            stages[..4].iter().all(|&s| s >= -slack),
            "a stage runs backwards beyond ±{slack} µs: {stages:?}"
        );
        assert!(
            stamps[5] - stamps[3] >= -slack,
            "result seen before execution ended: {stages:?}"
        );
        // The client's attempt span brackets the decorator's round trip.
        let sum: i64 = stages.iter().sum();
        let trip = trips[&c.task];
        assert!(
            sum as f64 >= trip - 2.0,
            "stages {sum} µs < round trip {trip} µs"
        );
        overhead.push(sum as f64 - trip);
    }
    // What the span adds around the round trip is client bookkeeping, not
    // a mismatch of attempts.
    assert!(
        median(&overhead) < 1000.0,
        "median {} µs",
        median(&overhead)
    );
}
