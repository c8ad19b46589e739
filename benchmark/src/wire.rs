//! The live-fabric workloads: `threaded-fanout` (in-process pools) and
//! `wire-fanout`, `wire-chain`, `wire-data` (two spawned
//! `unifaas-endpointd` × 2 workers over loopback TCP).
//!
//! One client thread generates all load. The inputs — a [`Plan`] of named
//! functions over seeded payloads — are generated once per process, with an
//! in-process [`reference`] of every task's expected output; each rep then
//! starts a fresh fabric and runtime (the rep's set-up), drives the plan,
//! and compares every result with the reference.

use crate::catalog::Samples;
use crate::kernels;
use crate::spans::SpanLog;
use crate::stats::{median, percentile_sorted};
use crate::timed::{FabricTimes, FabricTimesSnapshot, TimedFabric};
use crate::{peak_rss_mib, run_reps, sample_setups, splitmix64, Opts, Outcome};
use fedci::fabric::{fnv1a64, Fabric, FabricTiming, ProbeState, ThreadedFabric};
use fedci::process::{
    EndpointMode, EndpointTelemetry, ProcessEndpointSpec, ProcessFabric, ProcessFabricConfig,
};
use simkit::metrics::{parse_prometheus, PromSample};
use simkit::{MetricsRegistry, TraceLevel, Tracer};
use std::sync::Arc;
use std::time::{Duration, Instant};
// `LiveRetryPolicy` through the `runtime::fabric` re-export: the
// `runtime::live` module it is defined in is due to be deleted.
use unifaas::runtime::fabric::{FabricRuntime, LiveRetryPolicy, WireFuture};

/// Two endpoints of two workers each: the load a 2-core box can take.
const ENDPOINTS: [(&str, usize); 2] = [("a", 2), ("b", 2)];

/// One task of a workload's input.
pub struct PlannedTask {
    /// Builtin function name (`echo`, `fnv`, `sum64`).
    pub function: &'static str,
    /// Inline argument bytes.
    pub payload: Vec<u8>,
    /// Indices of earlier tasks whose outputs prefix the input, in order.
    pub deps: Vec<usize>,
}

/// A workload's generated input.
pub struct Plan {
    /// Tasks in submission (and topological) order.
    pub tasks: Vec<PlannedTask>,
    /// Submit-and-wait one task at a time (`wire-chain`) instead of
    /// submitting everything before waiting.
    pub closed_loop: bool,
}

/// What the reference says a task's output is: FNV-1a digest and length
/// (a digest, so the 1 MiB outputs of `wire-data` are not kept twice).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Expected {
    digest: u64,
    len: usize,
}

impl Expected {
    fn of(bytes: &[u8]) -> Expected {
        Expected {
            digest: fnv1a64(bytes),
            len: bytes.len(),
        }
    }
}

fn seeded_bytes(rng: &mut u64, words: usize) -> Vec<u8> {
    (0..words)
        .flat_map(|_| splitmix64(rng).to_le_bytes())
        .collect()
}

/// `n` independent `fnv` tasks over 8-byte payloads.
pub fn fanout_plan(seed: u64, n: usize) -> Plan {
    let mut rng = seed;
    Plan {
        tasks: (0..n)
            .map(|_| PlannedTask {
                function: "fnv",
                payload: seeded_bytes(&mut rng, 1),
                deps: Vec::new(),
            })
            .collect(),
        closed_loop: false,
    }
}

/// A dependent chain of `hops` `fnv` tasks, driven one at a time.
pub fn chain_plan(seed: u64, hops: usize) -> Plan {
    let mut plan = fanout_plan(seed, hops);
    for (i, t) in plan.tasks.iter_mut().enumerate().skip(1) {
        t.deps.push(i - 1);
    }
    plan.closed_loop = true;
    plan
}

/// `layers` × width 4. Even layers `echo` a `blob_words`×8-byte payload
/// (after layer 0 prefixed by the 8-byte result of the task above, so
/// layers stay dependent); odd layers `sum64` two blobs of the layer above.
pub fn data_plan(seed: u64, layers: usize, blob_words: usize) -> Plan {
    const WIDTH: usize = 4;
    let mut rng = seed;
    let mut tasks = Vec::with_capacity(layers * WIDTH);
    for layer in 0..layers {
        for j in 0..WIDTH {
            let above = |k: usize| (layer - 1) * WIDTH + k % WIDTH;
            tasks.push(if layer % 2 == 0 {
                PlannedTask {
                    function: "echo",
                    payload: seeded_bytes(&mut rng, blob_words),
                    deps: if layer == 0 { vec![] } else { vec![above(j)] },
                }
            } else {
                PlannedTask {
                    function: "sum64",
                    payload: Vec::new(),
                    deps: vec![above(j), above(j + 1)],
                }
            });
        }
    }
    Plan {
        tasks,
        closed_loop: false,
    }
}

/// Computes every task's expected output in-process (the oracle) and the
/// bytes the plan moves: Σ over tasks of payload + dep blobs + output.
pub fn reference(plan: &Plan) -> (Vec<Expected>, u64) {
    let n = plan.tasks.len();
    let mut uses = vec![0usize; n];
    for t in &plan.tasks {
        for &d in &t.deps {
            uses[d] += 1;
        }
    }
    let mut outputs: Vec<Option<Vec<u8>>> = (0..n).map(|_| None).collect();
    let mut expected = Vec::with_capacity(n);
    let mut moved = 0u64;
    for (i, t) in plan.tasks.iter().enumerate() {
        let mut input = Vec::new();
        for &d in &t.deps {
            input.extend_from_slice(outputs[d].as_ref().expect("deps precede dependents"));
            uses[d] -= 1;
            if uses[d] == 0 {
                outputs[d] = None;
            }
        }
        input.extend_from_slice(&t.payload);
        let out = match t.function {
            "echo" => input.clone(),
            "fnv" => fnv1a64(&input).to_le_bytes().to_vec(),
            "sum64" => input
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                .fold(0u64, u64::wrapping_add)
                .to_le_bytes()
                .to_vec(),
            other => panic!("the harness plans no `{other}` tasks"),
        };
        moved += (input.len() + out.len()) as u64;
        expected.push(Expected::of(&out));
        if uses[i] > 0 {
            outputs[i] = Some(out);
        }
    }
    (expected, moved)
}

/// A started fabric, with the handles the harness reads afterwards.
pub struct FabricUnderTest {
    /// What the runtime talks to (the [`TimedFabric`] when traced).
    pub fabric: Arc<dyn Fabric>,
    /// The process fabric underneath, for counters and telemetry.
    pub process: Option<Arc<ProcessFabric>>,
    /// The decorator's measurements (traced runs).
    pub times: Option<Arc<FabricTimes>>,
}

impl FabricUnderTest {
    /// Lets go of every handle and [`retire`]s the fabric.
    fn retire(self) {
        let FabricUnderTest {
            fabric,
            process,
            times,
        } = self;
        // The process handle is another `Arc` of the same fabric.
        drop((process, times));
        retire(fabric);
    }
}

/// Starts the backend `workload` names and waits until every endpoint
/// answers.
pub fn start_fabric(opts: &Opts, traced: bool) -> Result<FabricUnderTest, String> {
    let timing = FabricTiming::default();
    let (fabric, process): (Arc<dyn Fabric>, _) = if opts.workload == "threaded-fanout" {
        (Arc::new(ThreadedFabric::new(&ENDPOINTS, &timing)), None)
    } else {
        let daemon = opts
            .daemon
            .as_ref()
            .ok_or("wire workloads need --daemon <path to unifaas-endpointd>")?;
        if !daemon.is_file() {
            return Err(format!("no daemon binary at {}", daemon.display()));
        }
        let specs = ENDPOINTS
            .iter()
            .map(|&(name, workers)| ProcessEndpointSpec {
                name: name.to_string(),
                workers,
                mode: EndpointMode::Spawn {
                    command: vec![daemon.to_string_lossy().into_owned()],
                },
            })
            .collect();
        let pf = Arc::new(ProcessFabric::new(
            specs,
            ProcessFabricConfig {
                timing,
                seed: opts.seed,
                respawn: true,
                telemetry: traced,
            },
        ));
        // `wait_probe` polls every 5 ms, which is about what spawn + connect
        // + HELLO take: poll finer, or set-up would read as the poll period.
        let deadline = Instant::now() + Duration::from_secs(10);
        while (0..ENDPOINTS.len()).any(|ep| pf.probe(ep) != ProbeState::Alive) {
            if Instant::now() > deadline {
                return Err("an endpoint did not come up".to_string());
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        (Arc::clone(&pf) as Arc<dyn Fabric>, Some(pf))
    };
    if traced {
        let (timed, times) = TimedFabric::new(fabric);
        Ok(FabricUnderTest {
            fabric: Arc::new(timed),
            process,
            times: Some(times),
        })
    } else {
        Ok(FabricUnderTest {
            fabric,
            process,
            times: None,
        })
    }
}

/// The retry policy of the backend: none in-process; on the wire the
/// `unifaas-fabric` defaults (5 attempts, 10 s watchdog, 50 ms backoff).
fn retry_policy(process: bool) -> LiveRetryPolicy {
    if process {
        LiveRetryPolicy {
            max_attempts: 5,
            task_timeout: Some(Duration::from_secs(10)),
            backoff: Duration::from_millis(50),
        }
    } else {
        LiveRetryPolicy::default()
    }
}

/// What driving a plan measured.
pub struct Driven {
    /// First submit → last result, seconds.
    pub wall_s: f64,
    /// Seconds inside `FabricRuntime::submit`.
    pub submit_s: f64,
    /// Per-hop submit → `wait` returns, nanoseconds (closed loop only).
    pub rtts_ns: Vec<u64>,
    /// One future per planned task.
    pub futures: Vec<WireFuture>,
}

/// Drives `plan` on `rt` from this thread. `payloads` are the plan's
/// payloads, cloned ahead of time so the copy is not timed.
pub fn drive(rt: &FabricRuntime, plan: &Plan, payloads: Vec<Vec<u8>>) -> Driven {
    let mut futures: Vec<WireFuture> = Vec::with_capacity(plan.tasks.len());
    let mut rtts_ns = Vec::new();
    let mut submit_ns = 0u64;
    let t0 = Instant::now();
    if plan.closed_loop {
        rtts_ns.reserve(plan.tasks.len());
        for (t, payload) in plan.tasks.iter().zip(payloads) {
            let deps: Vec<&WireFuture> = t.deps.iter().map(|&d| &futures[d]).collect();
            let sent = Instant::now();
            let f = rt.submit(t.function, payload, &deps);
            submit_ns += sent.elapsed().as_nanos() as u64;
            // An error shows in the verification below.
            let _ = f.wait();
            rtts_ns.push(sent.elapsed().as_nanos() as u64);
            futures.push(f);
        }
    } else {
        for (t, payload) in plan.tasks.iter().zip(payloads) {
            let deps: Vec<&WireFuture> = t.deps.iter().map(|&d| &futures[d]).collect();
            let f = rt.submit(t.function, payload, &deps);
            futures.push(f);
        }
        submit_ns = t0.elapsed().as_nanos() as u64;
        rt.wait_all();
    }
    Driven {
        wall_s: t0.elapsed().as_secs_f64(),
        submit_s: submit_ns as f64 / 1e9,
        rtts_ns,
        futures,
    }
}

/// Compares every result with the reference. Returns the failed-task
/// count and an order-sensitive digest over all results.
pub fn verify(futures: &[WireFuture], expected: &[Expected]) -> (u64, u64) {
    let mut failed = 0;
    let mut fold = Vec::with_capacity(futures.len() * 16);
    for (f, want) in futures.iter().zip(expected) {
        let got = match f.wait() {
            Ok(bytes) => Expected::of(&bytes),
            Err(_) => Expected { digest: 0, len: 0 },
        };
        failed += u64::from(got != *want);
        fold.extend_from_slice(&got.digest.to_le_bytes());
        fold.extend_from_slice(&(got.len as u64).to_le_bytes());
    }
    (failed, fnv1a64(&fold))
}

/// Each endpoint's median heartbeat RTT in µs, read the way a scraper
/// would: `register_metrics` / `sample_metrics`, then the Prometheus
/// text's cumulative `fedci_wire_heartbeat_rtt_seconds` buckets.
fn heartbeat_p50s_us(pf: &ProcessFabric) -> Vec<f64> {
    let mut reg = MetricsRegistry::new();
    let mut ids = pf.register_metrics(&mut reg);
    pf.sample_metrics(&mut reg, &mut ids);
    let samples = parse_prometheus(&reg.render_prometheus()).unwrap_or_default();
    let label = |s: &PromSample, key: &str| {
        let found = s.labels.iter().find(|(k, _)| k == key);
        found.map(|(_, v)| v.clone())
    };
    pf.labels()
        .iter()
        .filter_map(|endpoint| {
            // (upper bound in seconds, cumulative count), ascending, +Inf last.
            let buckets: Vec<(f64, f64)> = samples
                .iter()
                .filter(|s| s.name == "fedci_wire_heartbeat_rtt_seconds_bucket")
                .filter(|s| label(s, "endpoint").as_deref() == Some(endpoint.as_str()))
                .filter_map(|s| Some((label(s, "le")?.parse().ok()?, s.value)))
                .collect();
            let total = buckets.last()?.1;
            let half = buckets.iter().find(|&&(_, cum)| cum * 2.0 >= total)?;
            (total > 0.0 && half.0.is_finite()).then_some(half.0 * 1e6)
        })
        .collect()
}

fn p50_us(mut v: Vec<i64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    percentile_sorted(&v, 0.5) as f64
}

/// Folds one traced rep's daemon telemetry and client trace into the
/// measured Fig. 5 stage table.
pub fn push_chain_stages(s: &mut Samples, client: Option<&Tracer>, tel: &[EndpointTelemetry]) {
    let chains = unifaas::obs::attempt_chains(client, tel);
    let chains: Vec<_> = chains.iter().collect();
    if chains.is_empty() {
        return;
    }
    let usable: Vec<_> = chains
        .iter()
        .filter(|c| c.is_complete() && c.synced)
        .collect();
    s.push(
        "chain.complete_frac",
        chains.iter().filter(|c| c.is_complete()).count() as f64 / chains.len() as f64,
    );
    if usable.is_empty() {
        return;
    }
    let stage = |f: &dyn Fn(&unifaas::obs::AttemptChain) -> Option<i64>| {
        p50_us(usable.iter().filter_map(|c| f(c)).collect())
    };
    s.push(
        "wire.out_p50_us",
        stage(&|c| Some(c.d_recv_us? - c.c_dispatch_us?)),
    );
    s.push(
        "daemon.queue_p50_us",
        stage(&|c| Some(c.d_exec_begin_us? - c.d_recv_us?)),
    );
    s.push(
        "daemon.exec_p50_us",
        stage(&|c| Some(c.d_exec_end_us? - c.d_exec_begin_us?)),
    );
    s.push(
        "daemon.send_p50_us",
        stage(&|c| Some(c.d_sent_us? - c.d_exec_end_us?)),
    );
    s.push(
        "wire.back_p50_us",
        stage(&|c| Some(c.c_done_us? - c.d_sent_us?)),
    );
    s.push(
        "clock.uncertainty_us",
        usable.iter().map(|c| c.uncertainty_us).max().unwrap_or(0) as f64,
    );
}

/// Records the decorator's measurements of one traced rep; returns the
/// rep's median round trip, µs.
fn push_fabric_times(s: &mut Samples, t: &FabricTimesSnapshot, spans: &mut SpanLog) -> f64 {
    let trips = &t.roundtrips;
    let calls = t.submit_calls.max(1) as f64;
    s.push("fabric.submit_call_us", t.submit_ns as f64 / 1e3 / calls);
    s.push(
        "fabric.stage_call_us",
        t.stage_ns as f64 / 1e3 / t.stage_calls.max(1) as f64,
    );
    s.push("fabric.stage_calls", t.stage_calls as f64);
    s.push("fabric.stage_bytes", t.stage_bytes as f64);
    s.push("fabric.attempts_failed", t.attempts_failed as f64);
    s.push("client.complete_us", t.complete_ns as f64 / 1e3 / calls);
    // Enough per-attempt spans to read a timeline, not a file per task.
    for r in trips.iter().take(10_000) {
        spans.add("fabric.roundtrip", r.submitted, r.completed, Some(r.task));
    }
    let mut ns: Vec<u64> = trips.iter().map(|r| r.nanos()).collect();
    if ns.is_empty() {
        return 0.0;
    }
    ns.sort_unstable();
    let p50_us = percentile_sorted(&ns, 0.5) as f64 / 1e3;
    s.push("fabric.roundtrip_p50_us", p50_us);
    s.push(
        "fabric.roundtrip_p99_us",
        percentile_sorted(&ns, 0.99) as f64 / 1e3,
    );
    p50_us
}

/// A rep's set-up: a started fabric whose every endpoint answers, and a
/// runtime on it. No task is part of it: on the in-process backend the
/// first wake-up of a fresh worker reads 30 µs or 150 µs depending on
/// where the scheduler put it, which would be all the metric shows.
struct Ready {
    fut: FabricUnderTest,
    rt: FabricRuntime,
    started: Instant,
    ready: Instant,
}

impl Ready {
    fn seconds(&self) -> f64 {
        (self.ready - self.started).as_secs_f64()
    }
}

fn set_up(opts: &Opts, traced: bool) -> Result<Ready, String> {
    let started = Instant::now();
    let fut = start_fabric(opts, traced)?;
    let level = if traced {
        TraceLevel::Spans
    } else {
        TraceLevel::Off
    };
    let rt = FabricRuntime::new(Arc::clone(&fut.fabric))
        .with_retry(retry_policy(fut.process.is_some()))
        .with_trace(level);
    Ok(Ready {
        fut,
        rt,
        started,
        ready: Instant::now(),
    })
}

/// Shuts `fabric` down and drops it from this thread. A completion
/// closure holds its own `Arc` of the fabric; if the client let go first,
/// the last reference would die on a fabric thread, and `ThreadedFabric`'s
/// drop would have a pool worker join itself. So wait for the closures.
pub fn retire(fabric: Arc<dyn Fabric>) {
    fabric.shutdown();
    let deadline = Instant::now() + Duration::from_secs(5);
    while Arc::strong_count(&fabric) > 1 && Instant::now() < deadline {
        std::thread::yield_now();
    }
}

struct Rep {
    wall_s: f64,
    failed: u64,
    digest: u64,
}

/// Which instrumentation a rep runs under, and whether it is recorded.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Discarded: the process's first rep pays for fresh pages.
    WarmUp,
    /// Observability off.
    Plain,
    /// [`TimedFabric`] + client trace + (process backend) daemon telemetry.
    Traced,
}

/// A workload's generated input with its oracle.
struct Input {
    plan: Plan,
    expected: Vec<Expected>,
    moved_bytes: u64,
}

fn rep(opts: &Opts, input: &Input, kind: Kind, out: &mut Outcome) -> Result<Rep, String> {
    let Input {
        plan,
        expected,
        moved_bytes,
    } = input;
    let traced = kind == Kind::Traced;
    let payloads: Vec<Vec<u8>> = plan.tasks.iter().map(|t| t.payload.clone()).collect();
    let n = plan.tasks.len() as f64;

    let rep_span = out.spans.enter("rep");
    let ready = set_up(opts, traced)?;
    out.spans
        .add("fabric.setup", ready.started, ready.ready, None);
    let (fut, rt) = (&ready.fut, &ready.rt);

    let (driven, _) = out
        .spans
        .scoped("client.drive", || drive(rt, plan, payloads));
    let ((failed, digest), _) = out
        .spans
        .scoped("oracle.verify", || verify(&driven.futures, expected));
    let wall_s = driven.wall_s;
    let mut rtts_ns = driven.rtts_ns.clone();
    rtts_ns.sort_unstable();
    let rtt_us = |q: f64| percentile_sorted(&rtts_ns, q) as f64 / 1e3;

    let s = &mut out.samples;
    if kind == Kind::Plain && !opts.trace {
        s.push("setup_s", ready.seconds());
        s.push("tasks_per_s", n / wall_s);
    }
    if kind == Kind::Plain && opts.trace {
        if plan.closed_loop {
            s.push("rtt_p50_us", rtt_us(0.5));
            s.push("rtt_p99_us", rtt_us(0.99));
        }
        if opts.workload == "wire-data" {
            s.push("payload_mb_per_s", *moved_bytes as f64 / 1e6 / wall_s);
        }
        let stats = rt.stats();
        s.push("client.dispatched", stats.dispatched as f64);
        s.push("client.retries", stats.retries as f64);
        s.push("client.watchdog_timeouts", stats.watchdog_timeouts as f64);
        s.push("client.submit_us", driven.submit_s * 1e6 / n);
        s.push("client.submit_busy_frac", driven.submit_s / wall_s);
        if let Some(pf) = &fut.process {
            let mut sum = fedci::process::ProcessCounters::default();
            for ep in 0..ENDPOINTS.len() {
                let c = pf.counters(ep);
                sum.connects += c.connects;
                sum.respawns += c.respawns;
                sum.failovers += c.failovers;
                sum.stale_results += c.stale_results;
            }
            s.push("process.connects", sum.connects as f64);
            s.push("process.respawns", sum.respawns as f64);
            s.push("process.failovers", sum.failovers as f64);
            s.push("process.stale_results", sum.stale_results as f64);
            for us in heartbeat_p50s_us(pf) {
                s.push("process.heartbeat_rtt_p50_us", us);
            }
        }
    }
    drop(driven);

    // Shutdown drains the daemons, so their final telemetry flush is in.
    let client_tracer = rt.take_client_tracer();
    out.spans
        .scoped("fabric.shutdown", || fut.fabric.shutdown());
    if traced {
        if let Some(times) = &fut.times {
            let trip_us = push_fabric_times(&mut out.samples, &times.snapshot(), &mut out.spans);
            if plan.closed_loop {
                // Same rep on both sides: the two modes of a shared core
                // must not be subtracted from each other.
                out.samples.push("client.self_us", rtt_us(0.5) - trip_us);
            }
        }
        if let Some(pf) = &fut.process {
            let tel: Vec<EndpointTelemetry> =
                (0..ENDPOINTS.len()).map(|ep| pf.telemetry(ep)).collect();
            push_chain_stages(&mut out.samples, client_tracer.as_ref(), &tel);
        }
    }
    drop(ready.rt);
    ready.fut.retire();
    out.spans.exit(rep_span);
    Ok(Rep {
        wall_s,
        failed,
        digest,
    })
}

/// The workload's input at `scale` (1 = the committed size).
fn plan_for(opts: &Opts) -> Plan {
    let k = opts.scale;
    match opts.workload.as_str() {
        "threaded-fanout" => fanout_plan(opts.seed, 200_000 / k),
        "wire-fanout" => fanout_plan(opts.seed, 100_000 / k),
        "wire-chain" => chain_plan(opts.seed, 4_000 / k),
        // 1 MiB blobs; the smoke size keeps the blob and drops layers.
        _ => data_plan(opts.seed, (50 / k).max(2), 1 << 17),
    }
}

/// Runs one live-fabric workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let plan = plan_for(opts);
    let (expected, moved_bytes) = reference(&plan);
    let input = Input {
        plan,
        expected,
        moved_bytes,
    };
    let n = input.plan.tasks.len() as u64;

    let run_kind = |kind: Kind, seconds: f64, out: &mut Outcome| -> Result<Vec<f64>, String> {
        let mut walls = Vec::new();
        run_reps(seconds, || {
            let r = rep(opts, &input, kind, out)?;
            out.attempted += n;
            out.failed += r.failed;
            out.digests.push(r.digest);
            walls.push(r.wall_s);
            Ok(())
        })?;
        Ok(walls)
    };

    run_kind(Kind::WarmUp, 0.0, &mut out)?;
    if !opts.trace {
        let setups = sample_setups(|| {
            let ready = set_up(opts, false)?;
            let seconds = ready.seconds();
            drop(ready.rt);
            ready.fut.retire();
            Ok(seconds)
        })?;
        for s in setups {
            out.samples.push("setup_s", s);
        }
    }
    if opts.trace {
        let plain = run_kind(Kind::Plain, opts.seconds / 2.0, &mut out)?;
        let traced = run_kind(Kind::Traced, opts.seconds / 2.0, &mut out)?;
        let s = &mut out.samples;
        let overhead = (median(&traced) - median(&plain)) / median(&plain);
        s.set("wire.trace_overhead_frac", overhead);
        if opts.workload != "threaded-fanout" {
            let samples = &mut out.samples;
            out.spans.scoped("kernels", || {
                kernels::proto(opts.seed, opts.kernel_seconds(), samples)
            });
        }
        out.samples
            .set("failed_frac", out.failed as f64 / out.attempted as f64);
    } else {
        run_kind(Kind::Plain, opts.seconds, &mut out)?;
    }
    out.samples.push("peak_rss_mb", peak_rss_mib());
    Ok(out)
}
