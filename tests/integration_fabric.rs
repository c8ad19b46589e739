//! Workspace-level integration of the fabric stack: the `Fabric` trait,
//! the byte-level `FabricRuntime` client path, and the wire protocol via
//! an in-thread daemon (connect mode — the spawn/SIGKILL paths live in
//! `crates/cli/tests`, where the daemon binary is available).

use fedci::fabric::{
    assemble_input, fnv1a64, Fabric, FabricTiming, FnRegistry, JobSpec, ProbeState, ThreadedFabric,
};
use fedci::process::{
    spawn_daemon_thread, ChaosProxy, DaemonConfig, EndpointMode, ProcessEndpointSpec,
    ProcessFabric, ProcessFabricConfig,
};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;
use unifaas::runtime::fabric::{FabricRuntime, LiveRetryPolicy, WireFuture};
use unifaas_cli::fabricrun::{reference_outcome, run_workload, FabricWorkload};

#[test]
fn builtin_registry_covers_the_demo_functions() {
    let reg = FnRegistry::builtins();
    for name in ["echo", "fnv", "sum64", "sleep", "fail"] {
        assert!(reg.get(name).is_some(), "missing builtin {name}");
    }
    let fnv = reg.get("fnv").unwrap();
    let out = fnv(b"hello").unwrap();
    assert_eq!(out.len(), 8, "fnv output is a 64-bit digest");
    let fail = reg.get("fail").unwrap();
    assert_eq!(fail(b"boom").unwrap_err(), "boom");
}

#[test]
fn assemble_input_orders_deps_before_payload() {
    let mut blobs = std::collections::HashMap::new();
    blobs.insert(7u64, Arc::new(b"AA".to_vec()));
    blobs.insert(9u64, Arc::new(b"BB".to_vec()));
    let job = JobSpec {
        task: 1,
        attempt: 1,
        function: Arc::from("echo"),
        deps: vec![9, 7],
        payload: b"CC".to_vec().into(),
        keep_output: false,
    };
    assert_eq!(assemble_input(&blobs, &job).unwrap(), b"BBAACC");
    let missing = JobSpec {
        deps: vec![3],
        ..job
    };
    assert!(assemble_input(&blobs, &missing).unwrap_err().contains("3"));
}

#[test]
fn threaded_fabric_runs_the_reference_workload() {
    let w = FabricWorkload::new(80, 99);
    let fabric = Arc::new(ThreadedFabric::new(
        &[("a", 2), ("b", 2), ("c", 1)],
        &FabricTiming::fast(),
    ));
    let rt = FabricRuntime::new(fabric);
    let outcome = run_workload(&rt, &w);
    assert_eq!(outcome.failures, 0);
    let want = reference_outcome(&w);
    for (got, want) in outcome.results.iter().zip(&want) {
        assert_eq!(got.as_ref().unwrap().as_slice(), want.as_slice());
    }
}

/// A completion closure keeps the runtime and, through it, the fabric
/// alive. A client that lets go of everything mid-run therefore leaves
/// the last reference to a pool worker — which must retire the fabric
/// without joining itself.
#[test]
fn letting_go_of_everything_mid_run_leaves_the_workers_to_retire_the_fabric() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    // Counts panics on this test's pool threads; every other panic in the
    // process goes to the previous hook untouched.
    static WORKER_PANICS: AtomicUsize = AtomicUsize::new(0);
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let thread = std::thread::current();
        if thread.name().is_some_and(|n| n.starts_with("let-go-")) {
            WORKER_PANICS.fetch_add(1, Ordering::SeqCst);
        }
        previous(info);
    }));

    /// Sends when dropped. Owned by a registered function, so it goes
    /// with the fabric's registry — after the pools are gone.
    struct Gone(mpsc::Sender<()>);
    impl Drop for Gone {
        fn drop(&mut self) {
            let _ = self.0.send(());
        }
    }

    let fabric = Arc::new(ThreadedFabric::new(
        &[("let-go-a", 2), ("let-go-b", 2)],
        &FabricTiming::fast(),
    ));
    let (gone_tx, gone_rx) = mpsc::channel();
    let gone = Gone(gone_tx);
    // The gate holds one completion back until the client is gone, so the
    // last reference dies on a worker, never here.
    let (open_tx, open_rx) = mpsc::channel::<()>();
    let open_rx = Mutex::new(open_rx);
    fabric.registry().register("gate", move |_| {
        let _ = (&gone, open_rx.lock().unwrap().recv());
        Ok(Vec::new())
    });
    let rt = FabricRuntime::new(Arc::clone(&fabric) as Arc<dyn Fabric>);
    let gate = rt.submit("gate", Vec::new(), &[]);
    let held: Vec<WireFuture> = (0..400u64)
        .map(|i| rt.submit("fnv", i.to_le_bytes().to_vec(), &[]))
        .collect();
    drop(rt);
    drop(fabric);
    drop(open_tx);

    gate.wait().expect("the gate opens when its sender is gone");
    for (i, f) in held.iter().enumerate() {
        let want = fnv1a64(&(i as u64).to_le_bytes()).to_le_bytes();
        assert_eq!(f.wait().expect("resolved").as_slice(), want);
    }
    gone_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("nobody retired the fabric");
    assert_eq!(WORKER_PANICS.load(Ordering::SeqCst), 0);
}

#[test]
fn process_fabric_connect_mode_matches_threaded_digest() {
    let w = FabricWorkload::new(50, 7);
    let threaded = {
        let fabric = Arc::new(ThreadedFabric::new(&[("a", 2)], &FabricTiming::fast()));
        run_workload(&FabricRuntime::new(fabric), &w)
    };
    let daemon = spawn_daemon_thread(DaemonConfig::new("root-it", 2)).expect("daemon");
    let fabric = Arc::new(ProcessFabric::new(
        vec![ProcessEndpointSpec {
            name: "root-it".to_string(),
            workers: 2,
            mode: EndpointMode::Connect {
                addr: daemon.addr().to_string(),
            },
        }],
        ProcessFabricConfig {
            timing: FabricTiming::fast(),
            seed: 1,
            respawn: false,
            telemetry: false,
        },
    ));
    let rt =
        FabricRuntime::new(Arc::clone(&fabric) as Arc<dyn Fabric>).with_retry(LiveRetryPolicy {
            max_attempts: 4,
            task_timeout: Some(Duration::from_secs(5)),
            backoff: Duration::from_millis(2),
        });
    let process = run_workload(&rt, &w);
    fabric.shutdown();
    daemon.join().expect("daemon drains cleanly");
    assert_eq!(process.failures, 0);
    assert_eq!(
        process.digest, threaded.digest,
        "wire transport must not change results"
    );
}

#[test]
fn merged_timeline_is_causally_complete_over_the_wire() {
    let _serial = cpu_heavy();
    let w = FabricWorkload::new(40, 11);
    let daemon = spawn_daemon_thread(DaemonConfig::new("obs-it", 2)).expect("daemon");
    let fabric = Arc::new(ProcessFabric::new(
        vec![ProcessEndpointSpec {
            name: "obs-it".to_string(),
            workers: 2,
            mode: EndpointMode::Connect {
                addr: daemon.addr().to_string(),
            },
        }],
        ProcessFabricConfig {
            timing: FabricTiming::fast(),
            seed: 3,
            respawn: false,
            telemetry: true,
        },
    ));
    let rt = FabricRuntime::new(Arc::clone(&fabric) as Arc<dyn Fabric>)
        .with_retry(LiveRetryPolicy {
            max_attempts: 4,
            task_timeout: Some(Duration::from_secs(5)),
            backoff: Duration::from_millis(2),
        })
        .with_trace(simkit::TraceLevel::Spans);
    let outcome = run_workload(&rt, &w);
    assert_eq!(outcome.failures, 0);
    let client = rt.take_client_tracer().expect("tracing enabled");
    fabric.shutdown();
    daemon.join().expect("daemon drains cleanly");

    // The drain flush delivered the daemon's full event stream: every
    // attempt has all four daemon stages, the clock synced, and the
    // merged chains are causally consistent within the stated bound.
    let tel = fabric.telemetry(0);
    assert!(
        tel.clocks.iter().any(|(g, _)| *g == 0),
        "generation 0 synced its clock: {:?}",
        tel.clocks
    );
    assert_eq!(tel.counters.dispatches, 40, "{:?}", tel.counters);
    assert_eq!(tel.dropped_batches, 0);

    let chains = unifaas::obs::attempt_chains(Some(&client), std::slice::from_ref(&tel));
    assert_eq!(chains.len(), 40, "one chain per task");
    for c in &chains {
        assert!(c.is_complete(), "incomplete chain {c:?}");
        assert!(c.synced);
    }
    let violations = unifaas::obs::causal_violations(&chains, 1_000);
    assert!(violations.is_empty(), "{violations:?}");

    // And the merged Perfetto timeline renders both sides.
    let merged = unifaas::obs::merge_process_timeline(Some(&client), std::slice::from_ref(&tel));
    let mut buf = Vec::new();
    merged.export_perfetto(&mut buf).unwrap();
    let json = String::from_utf8(buf).unwrap();
    assert!(json.contains("\"client\""), "client track exported");
    assert!(
        json.contains("obs-it gen0 (offset "),
        "daemon track labelled"
    );
    assert!(json.contains("d.exec"), "daemon exec spans exported");
}

#[test]
fn fabric_timing_validation_is_exposed_end_to_end() {
    let bad = FabricTiming {
        heartbeat_interval: Duration::from_secs(10),
        ..FabricTiming::default()
    };
    assert!(bad.validate().is_err(), "heartbeat >= suspect must fail");
    assert!(FabricTiming::default().validate().is_ok());
    assert!(FabricTiming::fast().validate().is_ok());
}

// ---------------------------------------------------------------------------
// The pipelined wire: coalesced writes, buffered reads, flush-on-idle
// ---------------------------------------------------------------------------

/// The burst tests below keep every core busy for a moment. They take
/// this lock, and so does the merged-timeline test above, whose causal
/// check allows the daemon's writer thread 1 ms between a write and its
/// SENT stamp — a bound a starved thread on a two-core box can miss.
static CPU_HEAVY: Mutex<()> = Mutex::new(());

fn cpu_heavy() -> MutexGuard<'static, ()> {
    CPU_HEAVY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A one-endpoint connect-mode fabric at `addr` (a daemon on a thread, or
/// a chaos proxy in front of one) with the retrying client runtime on top.
fn connect(addr: SocketAddr, timing: FabricTiming) -> (Arc<ProcessFabric>, FabricRuntime) {
    let fabric = Arc::new(ProcessFabric::new(
        vec![ProcessEndpointSpec {
            name: "wire".to_string(),
            workers: 2,
            mode: EndpointMode::Connect {
                addr: addr.to_string(),
            },
        }],
        ProcessFabricConfig {
            timing,
            seed: 5,
            respawn: false,
            telemetry: false,
        },
    ));
    assert!(
        fabric.wait_probe(0, ProbeState::Alive, Duration::from_secs(10)),
        "endpoint never came up"
    );
    let rt =
        FabricRuntime::new(Arc::clone(&fabric) as Arc<dyn Fabric>).with_retry(LiveRetryPolicy {
            max_attempts: 5,
            task_timeout: Some(Duration::from_secs(10)),
            backoff: Duration::from_millis(2),
        });
    (fabric, rt)
}

/// Submits `n` independent `fnv` tasks over an 8-byte payload.
fn submit_burst(rt: &FabricRuntime, n: u64) -> Vec<WireFuture> {
    (0..n)
        .map(|i| rt.submit("fnv", i.to_le_bytes().to_vec(), &[]))
        .collect()
}

/// Every future resolved, with the bytes an in-process `fnv` gives.
fn assert_burst_oracle(futures: &[WireFuture]) {
    for (i, f) in futures.iter().enumerate() {
        let want = fnv1a64(&(i as u64).to_le_bytes()).to_le_bytes();
        assert_eq!(
            f.wait().expect("task resolves").as_slice(),
            want,
            "task {i}"
        );
    }
}

#[test]
fn burst_shares_socket_writes_and_resolves_every_task() {
    let _serial = cpu_heavy();
    const N: u64 = 20_000;
    let daemon = spawn_daemon_thread(DaemonConfig::new("burst", 2)).expect("daemon");
    let (fabric, rt) = connect(daemon.addr(), FabricTiming::default());
    // Completions run on the supervisor thread, so one that blocks holds
    // the supervisor still while the whole burst queues up behind it —
    // the backlog a fast client produces, made deterministic.
    let (release, gate) = std::sync::mpsc::channel::<()>();
    fabric.submit(
        0,
        JobSpec {
            task: u64::MAX,
            attempt: 1,
            function: Arc::from("echo"),
            deps: vec![],
            payload: Vec::new().into(),
            keep_output: false,
        },
        Box::new(move |_| gate.recv().expect("gate released")),
    );
    let futures = submit_burst(&rt, N);
    release.send(()).expect("supervisor waiting");
    rt.wait_all();
    assert_burst_oracle(&futures);
    let stats = rt.stats();
    assert_eq!((stats.completed, stats.retries), (N, 0), "{stats:?}");
    let c = fabric.counters(0);
    assert_eq!(
        (c.connects, c.failovers, c.stale_results),
        (1, 0, 0),
        "{c:?}"
    );
    let wc = fabric.wire_counters(0);
    assert!(wc.frames_sent > N, "{wc:?}");
    assert!(
        wc.socket_writes < wc.frames_sent / 4,
        "a queued burst must share socket writes: {wc:?}"
    );
    assert!(wc.socket_reads < wc.frames_recv, "{wc:?}");
    fabric.shutdown();
    daemon.join().expect("daemon drains cleanly");
}

#[test]
fn burst_under_fast_timing_keeps_heartbeats_on_time() {
    let _serial = cpu_heavy();
    const N: u64 = 20_000;
    let daemon = spawn_daemon_thread(DaemonConfig::new("fastburst", 2)).expect("daemon");
    let (fabric, rt) = connect(daemon.addr(), FabricTiming::fast());
    let mut futures = Vec::with_capacity(N as usize);
    for i in 0..N {
        futures.push(rt.submit("fnv", i.to_le_bytes().to_vec(), &[]));
        if i % 500 == 0 {
            assert_ne!(fabric.probe(0), ProbeState::Dead, "died mid-burst");
        }
    }
    rt.wait_all();
    assert_burst_oracle(&futures);
    // A 250 ms `down_after` and a backlog of tens of thousands of events:
    // the connection must never have been declared dead.
    let c = fabric.counters(0);
    assert_eq!(
        (c.connects, c.failovers, c.stale_results),
        (1, 0, 0),
        "{c:?}"
    );
    assert_eq!(rt.stats().retries, 0);
    fabric.shutdown();
    daemon.join().expect("daemon drains cleanly");
}

#[test]
fn closed_loop_chain_flushes_every_hop_at_once() {
    let _serial = cpu_heavy();
    const HOPS: u64 = 200;
    let daemon = spawn_daemon_thread(DaemonConfig::new("chain", 2)).expect("daemon");
    let (fabric, rt) = connect(daemon.addr(), FabricTiming::default());
    let before = fabric.wire_counters(0);
    let mut prev: Option<WireFuture> = None;
    let mut want = Vec::new();
    for i in 0..HOPS {
        let payload = i.to_le_bytes().to_vec();
        want.extend_from_slice(&payload);
        want = fnv1a64(&want).to_le_bytes().to_vec();
        let deps: Vec<&WireFuture> = prev.iter().collect();
        let f = rt.submit("fnv", payload, &deps);
        // One request in flight: the next hop is not even submitted until
        // this one's RESULT is back, so its DISPATCH cannot have waited
        // for a later frame — and with no timer in the write path, a held
        // frame would hang here.
        assert_eq!(f.wait().expect("hop resolves").as_slice(), want, "hop {i}");
        prev = Some(f);
    }
    let after = fabric.wire_counters(0);
    let writes = after.socket_writes - before.socket_writes;
    let frames = after.frames_sent - before.frames_sent;
    // A hop's TRANSFER and DISPATCH may share a write; nothing else can.
    assert!(writes >= HOPS, "{writes} writes for {HOPS} hops");
    assert!(writes <= frames, "{writes} writes for {frames} frames");
    assert!(
        frames >= 2 * HOPS - 1,
        "TRANSFER + DISPATCH per hop: {frames}"
    );
    fabric.shutdown();
    daemon.join().expect("daemon drains cleanly");
}

#[test]
fn cut_inside_a_result_batch_resolves_every_task_exactly_once() {
    let _serial = cpu_heavy();
    const N: u64 = 4_000;
    // Every RESULT is sent twice, so each batch on the wire holds replays
    // next to first copies — the worst case for the attempt guard.
    let mut cfg = DaemonConfig::new("cut", 2);
    cfg.faults.push("dup".parse().unwrap());
    let daemon = spawn_daemon_thread(cfg).expect("daemon");
    let proxy = ChaosProxy::start(daemon.addr()).expect("proxy");
    // Default timing: the cut is the only thing that may end a connection
    // here, not a 250 ms liveness verdict on a loaded test box.
    let (fabric, rt) = connect(proxy.addr(), FabricTiming::default());
    // ~20 kB downstream is a few hundred RESULTs into the burst: the cut
    // lands mid-frame in the middle of the result stream.
    proxy.cut_after_down_bytes(20_000);
    let futures = submit_burst(&rt, N);
    rt.wait_all();
    // Exactly once: `WireFuture::resolve` asserts it is never called
    // twice, and every task carries the oracle bytes.
    assert_burst_oracle(&futures);
    let stats = rt.stats();
    assert_eq!(stats.completed, N, "{stats:?}");
    assert_eq!(stats.dispatched, N + stats.retries, "{stats:?}");
    // Drain first: the last tasks' duplicates trail their first copies.
    fabric.shutdown();
    daemon.join().expect("daemon drains cleanly");
    let c = fabric.counters(0);
    assert_eq!(c.connects, 2, "one cut, one reconnect: {c:?}");
    assert!(
        c.failovers >= 1,
        "the torn RESULT's attempt failed over: {c:?}"
    );
    // Each task's final attempt produced two RESULTs and resolved once;
    // the other copy — and every replay of a superseded attempt — was
    // dropped as stale. (The cut can fall between a first copy and its
    // duplicate — for one task per daemon worker, as the two workers'
    // pairs may interleave — and that duplicate is lost with the cut.)
    assert!(c.stale_results >= N - 2, "replays must be dropped: {c:?}");
}

#[test]
fn typed_calls_give_the_same_values_on_every_backend() {
    // The typed layer is a veneer over the one client path: the same
    // calls, byte for byte, on in-process pools and over the wire.
    let chained_sum = |rt: &FabricRuntime| {
        let seven = rt.call::<_, u64>("sum64", (3u64, 4u64), &[]);
        let twelve = rt.call::<_, u64>("sum64", 5u64, &[&seven]);
        (seven.get().unwrap(), twelve.get().unwrap())
    };
    let pools = ThreadedFabric::new(&[("a", 2)], &FabricTiming::fast());
    let threaded = chained_sum(&FabricRuntime::new(Arc::new(pools)));
    let daemon = spawn_daemon_thread(DaemonConfig::new("typed", 2)).expect("daemon");
    let (fabric, rt) = connect(daemon.addr(), FabricTiming::fast());
    let process = chained_sum(&rt);
    fabric.shutdown();
    daemon.join().expect("daemon drains cleanly");
    assert_eq!(threaded, (7, 12));
    assert_eq!(process, threaded);
}
