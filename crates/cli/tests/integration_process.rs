//! Chaos integration tests for the process fabric: real child daemons,
//! real SIGKILLs, real half-open sockets. The invariant under every
//! fault is the same — the run completes with no task lost and no task
//! double-resolved, and every per-task result equals the unfaulted
//! in-process reference.

use fedci::fabric::{Fabric, FabricTiming, ProbeState, ThreadedFabric};
use fedci::process::{
    spawn_daemon_thread, ChaosProxy, DaemonConfig, EndpointMode, ProcessEndpointSpec,
    ProcessFabric, ProcessFabricConfig,
};
use std::sync::Arc;
use std::time::{Duration, Instant};
use unifaas::runtime::fabric::{FabricRuntime, LiveRetryPolicy, WireFuture};
use unifaas_cli::fabricrun::{
    collect_outcome, reference_outcome, run_workload, submit_layered, FabricWorkload,
};

fn daemon_bin() -> String {
    env!("CARGO_BIN_EXE_unifaas-endpointd").to_string()
}

fn spawn_spec(name: &str, workers: usize) -> ProcessEndpointSpec {
    ProcessEndpointSpec {
        name: name.to_string(),
        workers,
        mode: EndpointMode::Spawn {
            command: vec![daemon_bin()],
        },
    }
}

fn fast_cfg(seed: u64) -> ProcessFabricConfig {
    ProcessFabricConfig {
        timing: FabricTiming::fast(),
        seed,
        respawn: true,
        telemetry: false,
    }
}

/// Generous budgets for debug builds: the watchdog is a correctness
/// backstop here, not a latency target.
fn retry_policy() -> LiveRetryPolicy {
    LiveRetryPolicy {
        max_attempts: 6,
        task_timeout: Some(Duration::from_secs(5)),
        backoff: Duration::from_millis(5),
    }
}

fn assert_matches_reference(outcome: &unifaas_cli::fabricrun::RunOutcome, w: &FabricWorkload) {
    assert_eq!(outcome.failures, 0, "tasks failed: {:?}", outcome.results);
    let want = reference_outcome(w);
    assert_eq!(outcome.results.len(), want.len(), "task lost or duplicated");
    for (i, (got, want)) in outcome.results.iter().zip(&want).enumerate() {
        assert_eq!(
            got.as_ref().unwrap().as_slice(),
            want.as_slice(),
            "task {i} diverged from the unfaulted reference"
        );
    }
}

/// Polls until `done()` — for an event that is certain to come, so that
/// a test waits for it instead of racing it.
fn wait_until(what: &str, budget: Duration, done: impl Fn() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(start.elapsed() < budget, "{what}: not within {budget:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Waits until `completed` crosses `k` (so a kill lands mid-run, with
/// work genuinely in flight).
fn wait_completions(rt: &FabricRuntime, k: u64, budget: Duration) {
    wait_until("completions", budget, || rt.stats().completed >= k);
}

/// Submits a 400 ms `sleep` and returns once a heartbeat ack shows a
/// worker of endpoint `ep` executing it. Call with every endpoint idle
/// (the tie goes to endpoint 0) and nothing else in flight: the busy
/// worker is then provably inside this nap with most of it still to go —
/// the window in which a test lands its fault on in-flight work.
fn start_nap(rt: &FabricRuntime, fabric: &ProcessFabric, ep: usize) -> WireFuture {
    let mut nap = 400u64.to_le_bytes().to_vec();
    nap.extend_from_slice(b"napped");
    let napper = rt.submit("sleep", nap, &[]);
    let budget = Duration::from_secs(30);
    wait_until("nap start", budget, || fabric.busy_workers(ep) > 0);
    napper
}

/// The `wire-data` shape at test size: `layers` × width 4, even layers
/// `echo` a 256 KiB seeded blob (below layer 0 prefixed by the 8-byte
/// result of the task above), odd layers `sum64` two blobs of the layer
/// above. All of it is submitted before any of it runs — layer 0 waits on
/// a 100 ms `sleep` that returns nothing — so every output is dispatched
/// with its dependents already registered. Returns the DAG's futures and
/// the inline payload bytes submitted.
fn submit_data_dag(rt: &FabricRuntime, layers: usize, seed: u64) -> (Vec<WireFuture>, u64) {
    const WIDTH: usize = 4;
    const BLOB_WORDS: u64 = 32 * 1024;
    let blob = |task: u64| -> Vec<u8> {
        let word = |w: u64| (seed ^ (task << 32) ^ w).to_le_bytes();
        (0..BLOB_WORDS).flat_map(word).collect()
    };
    let mut blobs: Vec<Vec<u8>> = (0..layers * WIDTH / 2).map(|t| blob(t as u64)).collect();
    let inline = blobs.iter().map(|b| b.len() as u64).sum();
    let gate = rt.submit("sleep", 100u64.to_le_bytes().to_vec(), &[]);
    let mut futures: Vec<WireFuture> = Vec::with_capacity(layers * WIDTH);
    for layer in 0..layers {
        for j in 0..WIDTH {
            let above = |k: usize| &futures[(layer - 1) * WIDTH + k % WIDTH];
            let f = if layer % 2 == 0 {
                let dep = if layer == 0 { &gate } else { above(j) };
                let blob = blobs.pop().expect("one blob per echo");
                rt.submit("echo", blob, &[dep])
            } else {
                rt.submit("sum64", Vec::new(), &[above(j), above(j + 1)])
            };
            futures.push(f);
        }
    }
    (futures, inline)
}

/// Every task's bytes, in task order.
fn outputs(futures: &[WireFuture]) -> Vec<Arc<Vec<u8>>> {
    let wait = |f: &WireFuture| f.wait().expect("a data task failed");
    futures.iter().map(wait).collect()
}

/// What the in-process backend makes of the same DAG.
fn data_dag_reference(layers: usize, seed: u64) -> Vec<Arc<Vec<u8>>> {
    let fabric = ThreadedFabric::new(&[("a", 2)], &FabricTiming::fast());
    let rt = FabricRuntime::new(Arc::new(fabric));
    let (futures, _) = submit_data_dag(&rt, layers, seed);
    rt.wait_all();
    outputs(&futures)
}

#[test]
fn outputs_with_waiting_dependents_are_not_sent_back_where_they_were_computed() {
    const LAYERS: usize = 12;
    let fabric = Arc::new(ProcessFabric::new(
        vec![spawn_spec("only", 2)],
        fast_cfg(10),
    ));
    let rt = FabricRuntime::new(Arc::clone(&fabric) as Arc<dyn Fabric>).with_retry(retry_policy());
    let (futures, inline) = submit_data_dag(&rt, LAYERS, 5);
    rt.wait_all();
    assert_eq!(outputs(&futures), data_dag_reference(LAYERS, 5));
    let wire = fabric.wire_counters(0);
    // Every output but the last layer's had its dependents registered
    // before it was dispatched, and they all ran where it was kept.
    assert_eq!(wire.transfer_bytes, 0, "{wire:?}");
    assert_eq!(wire.transfers_elided as usize, (LAYERS - 1) * 4, "{wire:?}");
    // The client sent its payloads and little else: the 256 KiB outputs
    // did not travel back to the daemon that returned them.
    assert!(
        wire.bytes_sent as f64 <= 1.05 * inline as f64,
        "{} bytes sent for {inline} payload bytes",
        wire.bytes_sent
    );
    assert_eq!(fabric.counters(0).connects, 1);
    fabric.shutdown();
}

#[test]
fn sigkill_loses_kept_outputs_and_the_respawned_daemon_is_shipped_them() {
    const LAYERS: usize = 24;
    let fabric = Arc::new(ProcessFabric::new(
        vec![spawn_spec("victim", 2)],
        fast_cfg(11),
    ));
    let up = fabric.wait_probe(0, ProbeState::Alive, Duration::from_secs(30));
    assert!(up, "the endpoint never came up");
    let rt = FabricRuntime::new(Arc::clone(&fabric) as Arc<dyn Fabric>).with_retry(retry_policy());
    // One worker naps through the kill; the other takes the DAG far enough
    // that outputs later tasks need are kept by the generation that dies.
    let napper = start_nap(&rt, &fabric, 0);
    let (futures, _) = submit_data_dag(&rt, LAYERS, 6);
    // The gate and two layers: by now the daemon holds kept outputs, and
    // everything it was asked to run it had the inputs of.
    wait_completions(&rt, 9, Duration::from_secs(30));
    assert_eq!(
        fabric.wire_counters(0).transfer_bytes,
        0,
        "nothing lost yet"
    );
    fabric.kill(0);
    rt.wait_all();
    assert_eq!(napper.wait().expect("nap failed over").as_ref(), b"napped");
    assert_eq!(outputs(&futures), data_dag_reference(LAYERS, 6));
    let (counters, wire) = (fabric.counters(0), fabric.wire_counters(0));
    assert!(counters.respawns >= 1, "{counters:?}");
    assert!(fabric.generation(0) >= 1);
    // The first tasks the new generation ran named outputs the old one
    // had kept: the client's copies went out as TRANSFERs.
    assert!(wire.transfer_bytes > 0, "{wire:?}");
    fabric.shutdown();
}

#[test]
fn threaded_and_process_backends_agree_bit_for_bit() {
    let w = FabricWorkload::new(60, 1234);
    let threaded = {
        let fabric = Arc::new(ThreadedFabric::new(
            &[("a", 2), ("b", 2)],
            &FabricTiming::fast(),
        ));
        let rt = FabricRuntime::new(fabric);
        run_workload(&rt, &w)
    };
    let process = {
        let fabric = Arc::new(ProcessFabric::new(
            vec![spawn_spec("a", 2), spawn_spec("b", 2)],
            fast_cfg(1),
        ));
        let rt =
            FabricRuntime::new(Arc::clone(&fabric) as Arc<dyn Fabric>).with_retry(retry_policy());
        let out = run_workload(&rt, &w);
        fabric.shutdown();
        out
    };
    assert_eq!(threaded.digest, process.digest);
    assert_matches_reference(&process, &w);
}

#[test]
fn sigkill_mid_run_respawns_and_loses_nothing() {
    let w = FabricWorkload::new(120, 77);
    let fabric = Arc::new(ProcessFabric::new(
        vec![spawn_spec("victim", 2), spawn_spec("peer", 2)],
        fast_cfg(2),
    ));
    let rt = FabricRuntime::new(Arc::clone(&fabric) as Arc<dyn Fabric>).with_retry(retry_policy());
    let futures = submit_layered(&rt, &w);
    // Let the run get going, then SIGKILL the victim's child process —
    // its in-flight dispatches die with it.
    wait_completions(&rt, 20, Duration::from_secs(30));
    fabric.kill(0);
    rt.wait_all();
    let outcome = collect_outcome(&futures);
    assert_matches_reference(&outcome, &w);

    // The supervisor respawns a dead child whether or not work is left
    // for it, so the respawn is certain — but not certain to be over yet.
    wait_until("victim respawn", Duration::from_secs(30), || {
        fabric.counters(0).respawns >= 1
    });
    assert!(
        fabric.generation(0) >= 1,
        "respawned daemon must carry a new generation"
    );
    // The kill either failed over in-flight work (connection died with
    // dispatches outstanding) or the watchdog caught it; both surface as
    // retries when anything was in flight.
    fabric.shutdown();
}

#[test]
fn repeated_sigkills_of_both_endpoints_still_converge() {
    let w = FabricWorkload::new(150, 9);
    let fabric = Arc::new(ProcessFabric::new(
        vec![spawn_spec("a", 2), spawn_spec("b", 2)],
        fast_cfg(3),
    ));
    let rt = FabricRuntime::new(Arc::clone(&fabric) as Arc<dyn Fabric>).with_retry(retry_policy());
    let futures = submit_layered(&rt, &w);
    for (k, ep) in [(15u64, 0usize), (40, 1), (70, 0)] {
        wait_completions(&rt, k, Duration::from_secs(60));
        fabric.kill(ep);
    }
    rt.wait_all();
    let outcome = collect_outcome(&futures);
    assert_matches_reference(&outcome, &w);
    wait_until("both respawned", Duration::from_secs(30), || {
        fabric.counters(0).respawns >= 1 && fabric.counters(1).respawns >= 1
    });
    fabric.shutdown();
}

#[test]
fn mid_frame_socket_cut_reconnects_and_completes() {
    // Daemon runs in-thread; the client connects through a byte-counting
    // proxy that severs the connection three bytes into a frame.
    let daemon = spawn_daemon_thread(DaemonConfig::new("proxied", 2)).expect("daemon");
    let proxy = ChaosProxy::start(daemon.addr()).expect("proxy");
    let fabric = Arc::new(ProcessFabric::new(
        vec![ProcessEndpointSpec {
            name: "proxied".to_string(),
            workers: 2,
            mode: EndpointMode::Connect {
                addr: proxy.addr().to_string(),
            },
        }],
        fast_cfg(4),
    ));
    let rt = FabricRuntime::new(Arc::clone(&fabric) as Arc<dyn Fabric>).with_retry(retry_policy());

    let w = FabricWorkload::new(40, 5);
    let futures = submit_layered(&rt, &w);
    wait_completions(&rt, 5, Duration::from_secs(30));
    // Arm a mid-frame cut: the next RESULT/ack frame dies 3 bytes in
    // (inside the length header), leaving a half-delivered frame.
    proxy.cut_after_down_bytes(3);
    rt.wait_all();
    let outcome = collect_outcome(&futures);
    assert_matches_reference(&outcome, &w);
    // The armed cut fires on the next daemon→client frame: a RESULT, or —
    // when the run got ahead of the arming — the next heartbeat ack. The
    // reconnect therefore always comes; wait for it, do not race it.
    let budget = Duration::from_secs(30);
    wait_until("reconnect after the cut", budget, || {
        fabric.counters(0).connects >= 2
    });
    fabric.shutdown();
    drop(proxy);
    let _ = daemon; // dropped (detached) after shutdown drained it
}

#[test]
fn stalled_connection_fails_over_and_replayed_results_are_dropped_stale() {
    // Two endpoints; the connection to the first is cut while its daemon
    // is provably executing an attempt the client dispatched. The client
    // fails the attempt over; its RESULT, finished while disconnected,
    // waits in the daemon outbox, replays on reconnect and must be
    // dropped as stale, not double-resolved.
    let daemon = spawn_daemon_thread(DaemonConfig::new("cut", 2)).expect("daemon");
    let proxy = ChaosProxy::start(daemon.addr()).expect("proxy");
    let fabric = Arc::new(ProcessFabric::new(
        vec![
            ProcessEndpointSpec {
                name: "cut".to_string(),
                workers: 2,
                mode: EndpointMode::Connect {
                    addr: proxy.addr().to_string(),
                },
            },
            spawn_spec("fast", 2),
        ],
        fast_cfg(5),
    ));
    for ep in 0..2 {
        let up = fabric.wait_probe(ep, ProbeState::Alive, Duration::from_secs(30));
        assert!(up, "endpoint {ep} never came up");
    }
    let rt = FabricRuntime::new(Arc::clone(&fabric) as Arc<dyn Fabric>).with_retry(retry_policy());

    let napper = start_nap(&rt, &fabric, 0);
    // Cut mid-run: the layered workload is in flight on both endpoints.
    let w = FabricWorkload {
        tasks: 60,
        width: 6,
        seed: 11,
    };
    let futures = submit_layered(&rt, &w);
    proxy.cut_now();
    rt.wait_all();
    assert_eq!(napper.wait().expect("nap failed over").as_ref(), b"napped");
    let outcome = collect_outcome(&futures);
    assert_matches_reference(&outcome, &w);

    let c = fabric.counters(0);
    assert!(
        c.failovers >= 1,
        "cut connection should have failed over in-flight work: {c:?}"
    );
    // The first attempt's RESULT reaches the client once its nap is over
    // and the connection is back; it may also have raced `wait_all`,
    // which is fine — the counter is monotone.
    let deadline = Instant::now() + Duration::from_secs(5);
    while fabric.counters(0).stale_results == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        fabric.counters(0).stale_results >= 1,
        "replayed RESULTs for failed-over attempts must be counted stale: {:?}",
        fabric.counters(0)
    );
    fabric.shutdown();
}

#[test]
fn half_open_connection_turns_suspect_then_dead_and_recovers_after_the_stall() {
    // The proxy stops forwarding daemon→client bytes but keeps both
    // sockets open: nothing errors, the acks just stop. Silence alone
    // must turn the probe Suspect, then Dead, and fail over what was in
    // flight exactly once; once the stall lifts, the run completes.
    let daemon = spawn_daemon_thread(DaemonConfig::new("mute", 2)).expect("daemon");
    let proxy = ChaosProxy::start(daemon.addr()).expect("proxy");
    let fabric = Arc::new(ProcessFabric::new(
        vec![
            ProcessEndpointSpec {
                name: "mute".to_string(),
                workers: 2,
                mode: EndpointMode::Connect {
                    addr: proxy.addr().to_string(),
                },
            },
            spawn_spec("fast", 2),
        ],
        fast_cfg(8),
    ));
    for ep in 0..2 {
        let up = fabric.wait_probe(ep, ProbeState::Alive, Duration::from_secs(30));
        assert!(up, "endpoint {ep} never came up");
    }
    let rt = FabricRuntime::new(Arc::clone(&fabric) as Arc<dyn Fabric>).with_retry(retry_policy());
    let napper = start_nap(&rt, &fabric, 0);
    proxy.set_stall_down(true);
    let budget = Duration::from_secs(10);
    assert!(
        fabric.wait_probe(0, ProbeState::Suspect, budget),
        "never Suspect"
    );
    assert!(fabric.wait_probe(0, ProbeState::Dead, budget), "never Dead");
    // The nap was the one attempt in flight: it failed over, once.
    assert_eq!(fabric.counters(0).failovers, 1, "{:?}", fabric.counters(0));
    let w = FabricWorkload::new(40, 13);
    let futures = submit_layered(&rt, &w);
    proxy.set_stall_down(false);
    rt.wait_all();
    assert_eq!(napper.wait().expect("nap failed over").as_ref(), b"napped");
    assert_matches_reference(&collect_outcome(&futures), &w);
    let up = fabric.wait_probe(0, ProbeState::Alive, Duration::from_secs(30));
    assert!(up, "the endpoint never came back: {:?}", fabric.counters(0));
    fabric.shutdown();
}

#[test]
fn duplicated_results_resolve_each_task_exactly_once() {
    // A daemon that sends every RESULT twice: the second copy no longer
    // matches an outstanding (task, attempt) and must be dropped.
    let mut cfg = DaemonConfig::new("dup", 2);
    cfg.faults.push("dup".parse().unwrap());
    let daemon = spawn_daemon_thread(cfg).expect("daemon");
    let fabric = Arc::new(ProcessFabric::new(
        vec![ProcessEndpointSpec {
            name: "dup".to_string(),
            workers: 2,
            mode: EndpointMode::Connect {
                addr: daemon.addr().to_string(),
            },
        }],
        fast_cfg(6),
    ));
    let rt = FabricRuntime::new(Arc::clone(&fabric) as Arc<dyn Fabric>).with_retry(retry_policy());
    let w = FabricWorkload::new(30, 21);
    let outcome = run_workload(&rt, &w);
    assert_matches_reference(&outcome, &w);
    assert_eq!(rt.stats().completed as usize, w.tasks);
    // Count duplicates only after shutdown: the drain exchange is
    // in-order, so by the time the DRAIN ack lands the reader has
    // consumed every duplicate RESULT still in flight (the last task's
    // second copy can otherwise race this assertion).
    fabric.shutdown();
    let c = fabric.counters(0);
    assert!(
        c.stale_results as usize >= w.tasks,
        "every duplicate should be dropped stale: {c:?}"
    );
}

#[test]
fn sigkill_timeline_spans_generations_and_shows_truncated_attempts() {
    // The crash-lab run with the observability plane on: SIGKILL the
    // victim mid-run, then demand one merged timeline that shows the
    // whole story — pre-kill attempts on generation 0 (some truncated:
    // received/executing but never resulted), the respawn gap, and
    // post-respawn retries on generation 1, all offset-corrected.
    let w = FabricWorkload::new(120, 31);
    let chaos_cmd = vec![daemon_bin(), "--fault".into(), "delay ms=25".into()];
    let fabric = Arc::new(ProcessFabric::new(
        vec![
            ProcessEndpointSpec {
                name: "victim".to_string(),
                workers: 2,
                mode: EndpointMode::Spawn { command: chaos_cmd },
            },
            spawn_spec("peer", 2),
        ],
        ProcessFabricConfig {
            telemetry: true,
            ..fast_cfg(8)
        },
    ));
    let rt = FabricRuntime::new(Arc::clone(&fabric) as Arc<dyn Fabric>)
        .with_retry(retry_policy())
        .with_trace(simkit::TraceLevel::Spans);
    let futures = submit_layered(&rt, &w);
    wait_completions(&rt, 20, Duration::from_secs(30));
    fabric.kill(0);
    rt.wait_all();
    let outcome = collect_outcome(&futures);
    assert_matches_reference(&outcome, &w);
    wait_until("victim respawn", Duration::from_secs(30), || {
        fabric.counters(0).respawns >= 1
    });

    let client = rt.take_client_tracer().expect("tracing enabled");
    fabric.shutdown();
    let telemetry: Vec<_> = (0..2).map(|i| fabric.telemetry(i)).collect();

    // Both the killed generation and its successor shipped events.
    let victim_gens: std::collections::BTreeSet<u64> =
        telemetry[0].events.iter().map(|&(g, _)| g).collect();
    assert!(
        victim_gens.contains(&0) && victim_gens.iter().any(|&g| g >= 1),
        "need events from before and after the respawn: {victim_gens:?}"
    );
    // Every surviving generation synced its clock.
    for &(g, est) in &telemetry[0].clocks {
        assert!(est.samples >= 1, "gen {g} never synced");
    }

    let chains = unifaas::obs::attempt_chains(Some(&client), &telemetry);
    assert!(
        chains.iter().any(|c| c.is_truncated()),
        "the kill (or its chaos delay) should leave truncated attempts"
    );
    // Every task shows up on the client timeline; most also have a fully
    // joined chain. (A kill can eat daemon-side stamps that were still in
    // the ring — exact completeness is only guaranteed without faults.)
    let tasks_seen: std::collections::BTreeSet<u64> = chains
        .iter()
        .filter(|c| c.c_dispatch_us.is_some())
        .map(|c| c.task)
        .collect();
    assert_eq!(tasks_seen.len(), w.tasks, "client side covers every task");
    assert!(
        chains.iter().filter(|c| c.is_complete()).count() >= w.tasks / 2,
        "the bulk of attempts still join end to end"
    );
    let violations = unifaas::obs::causal_violations(&chains, 10_000);
    assert!(violations.is_empty(), "{violations:?}");

    // The merged Perfetto timeline renders the generation gap and the
    // injected chaos instants.
    let merged = unifaas::obs::merge_process_timeline(Some(&client), &telemetry);
    let mut buf = Vec::new();
    merged.export_perfetto(&mut buf).unwrap();
    let json = String::from_utf8(buf).unwrap();
    assert!(json.contains("victim gen0"), "pre-kill track present");
    assert!(json.contains("victim gen1"), "post-respawn track present");
    assert!(json.contains("d.chaos.delay"), "chaos instants visible");
}

#[test]
fn chaos_swallow_instants_are_assertable_in_the_merged_timeline() {
    // A daemon that swallows every 5th job: the swallow instant must be
    // visible in the merged timeline at an explicit (task, attempt), and
    // every swallowed attempt shows up as a truncated chain.
    let mut cfg = DaemonConfig::new("swallower", 2);
    cfg.faults.push("swallow every=5".parse().unwrap());
    let daemon = spawn_daemon_thread(cfg).expect("daemon");
    let fabric = Arc::new(ProcessFabric::new(
        vec![ProcessEndpointSpec {
            name: "swallower".to_string(),
            workers: 2,
            mode: EndpointMode::Connect {
                addr: daemon.addr().to_string(),
            },
        }],
        ProcessFabricConfig {
            telemetry: true,
            ..fast_cfg(9)
        },
    ));
    let rt = FabricRuntime::new(Arc::clone(&fabric) as Arc<dyn Fabric>)
        .with_retry(LiveRetryPolicy {
            max_attempts: 6,
            task_timeout: Some(Duration::from_millis(400)),
            backoff: Duration::ZERO,
        })
        .with_trace(simkit::TraceLevel::Spans);
    let w = FabricWorkload::new(40, 17);
    let outcome = run_workload(&rt, &w);
    assert_matches_reference(&outcome, &w);

    let client = rt.take_client_tracer().expect("tracing enabled");
    fabric.shutdown();
    daemon.join().expect("daemon drains cleanly");
    let tel = fabric.telemetry(0);
    assert!(
        tel.counters.chaos_swallowed >= 1,
        "swallow counter shipped: {:?}",
        tel.counters
    );

    let chains = unifaas::obs::attempt_chains(Some(&client), std::slice::from_ref(&tel));
    let truncated = chains.iter().filter(|c| c.is_truncated()).count();
    assert!(
        truncated as u64 >= tel.counters.chaos_swallowed,
        "every swallowed attempt is a truncated chain ({truncated} < {})",
        tel.counters.chaos_swallowed
    );
    let merged = unifaas::obs::merge_process_timeline(Some(&client), std::slice::from_ref(&tel));
    let mut buf = Vec::new();
    merged.export_perfetto(&mut buf).unwrap();
    let json = String::from_utf8(buf).unwrap();
    assert!(json.contains("d.chaos.swallow"), "swallow instants visible");
}

#[test]
fn respawn_disabled_turns_sigkill_into_clean_permanent_failure() {
    // With respawn off and only one endpoint, killing it must fail the
    // remaining tasks with real error messages — never hang.
    let fabric = Arc::new(ProcessFabric::new(
        vec![spawn_spec("mortal", 2)],
        ProcessFabricConfig {
            timing: FabricTiming::fast(),
            seed: 7,
            respawn: false,
            telemetry: false,
        },
    ));
    let rt =
        FabricRuntime::new(Arc::clone(&fabric) as Arc<dyn Fabric>).with_retry(LiveRetryPolicy {
            max_attempts: 2,
            task_timeout: Some(Duration::from_millis(500)),
            backoff: Duration::ZERO,
        });
    let up = fabric.wait_probe(0, ProbeState::Alive, Duration::from_secs(30));
    assert!(up, "the endpoint never came up");
    // Killed with a worker inside a nap: the run cannot have finished.
    let napper = start_nap(&rt, &fabric, 0);
    let w = FabricWorkload::new(50, 3);
    let futures = submit_layered(&rt, &w);
    fabric.kill(0);
    rt.wait_all();
    let outcome = collect_outcome(&futures);
    let stranded = napper
        .wait()
        .expect_err("the kill strands the attempt it interrupts");
    assert!(stranded.to_string().contains("mortal"), "{stranded}");
    // No hang, every future resolved, and the endpoint reads Dead.
    assert_eq!(outcome.results.len(), w.tasks);
    assert!(fabric.wait_probe(0, ProbeState::Dead, Duration::from_secs(5)));
    assert_eq!(fabric.counters(0).respawns, 0);
    fabric.shutdown();
}

#[test]
fn threaded_cli_swallow_needs_a_watchdog_and_then_recovers() {
    let fabric = |extra: &[&str]| {
        let mut args = ["--backend", "threaded", "--tasks", "40", "--width", "8"].to_vec();
        args.extend(["--fast-timing"].iter().chain(extra));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_unifaas-fabric"))
            .args(&args)
            .output()
            .expect("run unifaas-fabric");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let digest = stdout.lines().last().unwrap_or("").split(' ').next();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        (out.status.code(), digest.unwrap_or("").to_string(), stderr)
    };
    // Without a watchdog a swallowed attempt would hang the run: rejected.
    let (code, _, stderr) = fabric(&["--fault", "swallow every=3"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("needs an execution timeout"), "{stderr}");
    let (code, reference, _) = fabric(&[]);
    assert_eq!(code, Some(0));
    let watched = ["--fault", "swallow every=3", "--task-timeout-ms", "100"];
    let (code, digest, stderr) = fabric(&watched);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(digest, reference);
}
