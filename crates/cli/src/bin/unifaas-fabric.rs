//! `unifaas-fabric` — run a deterministic layered DAG on a live fabric
//! backend and report the result digest plus recovery statistics.
//!
//! ```text
//! unifaas-fabric [--backend threaded|process]
//!                [--tasks <n>] [--width <w>] [--seed <s>]
//!                [--daemon <path-to-unifaas-endpointd>]
//!                [--fault <rule>]... [--task-timeout-ms <ms>]
//!                [--fast-timing] [--report]
//!                [--trace-out <path>] [--metrics-out <path>]
//! ```
//!
//! The run has two endpoints, `a` and `b`, of four workers each, and a
//! task gets five attempts. With `--backend process` each endpoint is a
//! spawned `unifaas-endpointd` child speaking the length-prefixed TCP
//! protocol. Each `--fault <rule>` (repeatable)
//! adds one `fedci::fault` rule:
//! `kill ep=<i> after=<k>` SIGKILLs endpoint `i`'s child once `k` tasks
//! have completed, and the supervisor's heartbeat/reconnect/re-dispatch
//! machinery is expected to carry the run to the same digest an unfaulted
//! run produces. `swallow [ep=<i>] every=<k>`, `delay [ep=<i>] ms=<ms>` and
//! `dup [ep=<i>]` ride each covered daemon's spawn command, so respawned
//! generations inject them too and the injected instants show up in the
//! merged timeline. The threaded backend runs `swallow` and `delay` in its
//! pools and rejects the rest; there a `swallow` needs `--task-timeout-ms`
//! (process runs default to a 10 s watchdog).
//!
//! Observability flags:
//!
//! * `--trace-out <path>` writes the *merged cross-process* Perfetto
//!   timeline: the client's `c.*` lifecycle events plus (process backend)
//!   every daemon's telemetry, offset-corrected onto the client clock via
//!   the heartbeat NTP estimator, one track per daemon generation labelled
//!   with its offset ± uncertainty. Implies tracing and (process backend)
//!   the telemetry subscription. Open at <https://ui.perfetto.dev>.
//! * `--metrics-out <path>` writes the fabric's final registry
//!   (`fedci_pool_*`, or `fedci_proc_*` / `fedci_wire_*` on the process
//!   backend) in Prometheus text format.
//!
//! The final line is machine-readable:
//!
//! ```text
//! digest=0x<16 hex> tasks=<n> failures=<n> retries=<n> ...
//! ```

use fedci::fabric::{Fabric, FabricTiming, ThreadedFabric};
use fedci::fault::{Backend, FaultError, FaultPlan, FaultRule};
use fedci::process::{EndpointMode, ProcessEndpointSpec, ProcessFabric, ProcessFabricConfig};
use simkit::metrics::MetricsRegistry;
use simkit::TraceLevel;
use std::sync::Arc;
use std::time::Duration;
use unifaas::runtime::fabric::{FabricRuntime, LiveRetryPolicy};
use unifaas_cli::fabricrun::{
    collect_outcome, default_daemon_path, submit_layered, FabricWorkload,
};

fn usage() -> ! {
    eprintln!(
        "usage: unifaas-fabric [--backend threaded|process] \
         [--tasks <n>] [--width <w>] [--seed <s>] [--daemon <path>] [--fault <rule>]... \
         [--task-timeout-ms <ms>] [--fast-timing] [--report] \
         [--trace-out <path>] [--metrics-out <path>]"
    );
    std::process::exit(2);
}

fn bad_plan(e: FaultError) -> ! {
    eprintln!("unifaas-fabric: {e}");
    std::process::exit(2);
}

fn need(flag: &str, v: Option<String>) -> String {
    v.unwrap_or_else(|| {
        eprintln!("unifaas-fabric: {flag} needs a value");
        usage();
    })
}

fn parse<T: std::str::FromStr<Err: std::fmt::Display>>(flag: &str, v: &str) -> T {
    v.parse().unwrap_or_else(|e| {
        eprintln!("unifaas-fabric: bad value `{v}` for {flag}: {e}");
        usage();
    })
}

/// The run's endpoints: name and worker count.
const ENDPOINTS: [(&str, usize); 2] = [("a", 4), ("b", 4)];

/// Execution attempts per task.
const MAX_ATTEMPTS: u32 = 5;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut backend = String::from("threaded");
    let mut tasks = 200usize;
    let mut width = 4usize;
    let mut seed = 42u64;
    let mut daemon: Option<String> = None;
    let mut plan = FaultPlan::default();
    let mut task_timeout_ms = 0u64;
    let mut fast_timing = false;
    let mut report = false;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--backend" => backend = need("--backend", args.next()),
            "--tasks" => tasks = parse("--tasks", &need("--tasks", args.next())),
            "--width" => width = parse("--width", &need("--width", args.next())),
            "--seed" => seed = parse("--seed", &need("--seed", args.next())),
            "--daemon" => daemon = Some(need("--daemon", args.next())),
            "--fault" => plan.push(parse("--fault", &need("--fault", args.next()))),
            "--task-timeout-ms" => {
                task_timeout_ms =
                    parse("--task-timeout-ms", &need("--task-timeout-ms", args.next()))
            }
            "--fast-timing" => fast_timing = true,
            "--report" => report = true,
            "--trace-out" => trace_out = Some(need("--trace-out", args.next())),
            "--metrics-out" => metrics_out = Some(need("--metrics-out", args.next())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unifaas-fabric: unknown flag `{other}`");
                usage();
            }
        }
    }
    if tasks == 0 {
        eprintln!("unifaas-fabric: need at least one task");
        usage();
    }

    let timing = if fast_timing {
        FabricTiming::fast()
    } else {
        FabricTiming::default()
    };
    // Process runs default to a watchdog: a SIGKILLed endpoint swallows
    // in-flight work, and only a timeout (or the connection-loss
    // fail-over) brings it back.
    let timeout = match (task_timeout_ms, backend.as_str()) {
        (0, "process") => Some(Duration::from_secs(10)),
        (0, _) => None,
        (ms, _) => Some(Duration::from_millis(ms)),
    };
    // A swallowed attempt comes back only through the watchdog.
    plan.check_watchdog(timeout.is_some())
        .unwrap_or_else(|e| bad_plan(e));
    let policy = LiveRetryPolicy {
        max_attempts: MAX_ATTEMPTS,
        task_timeout: timeout,
        backoff: Duration::from_millis(if fast_timing { 5 } else { 50 }),
    };
    // `--trace-out` implies span tracing. The telemetry subscription
    // (process backend) rides on the same switch: no tracing, no TELEMETRY
    // frames on the wire.
    let tracing = trace_out.is_some();
    let level = if tracing {
        TraceLevel::Spans
    } else {
        TraceLevel::Off
    };

    // Each backend registers its metrics and sets their sampler.
    let mut reg = MetricsRegistry::new();
    let mut sample: Box<dyn FnMut(&mut MetricsRegistry)>;
    let (fabric, proc_fabric): (Arc<dyn Fabric>, Option<Arc<ProcessFabric>>) = match backend
        .as_str()
    {
        "threaded" => {
            let tf = ThreadedFabric::new(&ENDPOINTS, &timing).with_faults(&plan);
            let tf = Arc::new(tf.unwrap_or_else(|e| bad_plan(e)));
            let (pools, mut ids) = (Arc::clone(&tf), tf.register_metrics(&mut reg));
            sample = Box::new(move |r| pools.sample_metrics(r, &mut ids));
            (tf, None)
        }
        "process" => {
            let daemon_path =
                daemon.or_else(|| default_daemon_path().map(|p| p.to_string_lossy().into_owned()));
            let Some(daemon_path) = daemon_path else {
                eprintln!("unifaas-fabric: cannot locate unifaas-endpointd; pass --daemon <path>");
                std::process::exit(2);
            };
            plan.check(Backend::Process, ENDPOINTS.len())
                .unwrap_or_else(|e| bad_plan(e));
            // Each daemon's rules ride its spawn command, so respawned
            // generations inject the same faults.
            let specs: Vec<ProcessEndpointSpec> = (ENDPOINTS.iter().enumerate())
                .map(|(ep, &(name, workers))| {
                    let mut command = vec![daemon_path.clone()];
                    for rule in plan.for_endpoint(ep).rules() {
                        command.extend(["--fault".to_string(), rule.to_string()]);
                    }
                    ProcessEndpointSpec {
                        name: name.to_string(),
                        workers,
                        mode: EndpointMode::Spawn { command },
                    }
                })
                .collect();
            let cfg = ProcessFabricConfig {
                timing,
                seed,
                respawn: true,
                telemetry: tracing,
            };
            let pf = Arc::new(ProcessFabric::new(specs, cfg));
            let (procs, mut ids) = (Arc::clone(&pf), pf.register_metrics(&mut reg));
            sample = Box::new(move |r| procs.sample_metrics(r, &mut ids));
            (Arc::clone(&pf) as Arc<dyn Fabric>, Some(pf))
        }
        other => {
            eprintln!("unifaas-fabric: unknown backend `{other}`");
            usage();
        }
    };

    let rt = Arc::new(
        FabricRuntime::new(Arc::clone(&fabric))
            .with_retry(policy)
            .with_trace(level),
    );

    let workload = FabricWorkload { tasks, width, seed };
    let started = std::time::Instant::now();
    let futures = submit_layered(&rt, &workload);

    // The chaos scheduler: fire each `kill` rule once its completion
    // threshold passes. Polling stats() is deliberate — it observes the run
    // exactly like an external chaos agent would.
    let killer = proc_fabric.as_ref().map(|pf| {
        let pf = Arc::clone(pf);
        let rt = Arc::clone(&rt);
        let mut kills: Vec<(usize, u64)> = (plan.rules().iter())
            .filter_map(|r| match *r {
                FaultRule::Kill { ep, after } => Some((ep, after)),
                _ => None,
            })
            .collect();
        kills.sort_by_key(|&(_, after)| after);
        std::thread::spawn(move || {
            while !kills.is_empty() {
                let completed = rt.stats().completed;
                while let Some(&(ep, after)) = kills.first() {
                    if completed >= after {
                        eprintln!("chaos: SIGKILL endpoint {ep} after {completed} completions");
                        pf.kill(ep);
                        kills.remove(0);
                    } else {
                        break;
                    }
                }
                if rt.stats().completed as usize >= tasks {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    });

    rt.wait_all();
    let outcome = collect_outcome(&futures);
    if let Some(k) = killer {
        let _ = k.join();
    }
    let wall = started.elapsed();
    let stats = rt.stats();

    if report {
        eprintln!(
            "backend={backend} endpoints={} tasks={tasks} width={width} wall={wall:?}",
            ENDPOINTS.len()
        );
        if let Some(pf) = &proc_fabric {
            for (i, (name, _)) in ENDPOINTS.iter().enumerate() {
                let c = pf.counters(i);
                eprintln!(
                    "endpoint {i} ({name}): generation={} connects={} respawns={} \
                     failovers={} stale_results={}",
                    pf.generation(i),
                    c.connects,
                    c.respawns,
                    c.failovers,
                    c.stale_results
                );
                let w = pf.wire_counters(i);
                eprintln!(
                    "endpoint {i} ({name}): frames_sent={} socket_writes={} ({:.1} frames/write) \
                     frames_recv={} socket_reads={} ({:.1} frames/read)",
                    w.frames_sent,
                    w.socket_writes,
                    w.frames_sent as f64 / w.socket_writes.max(1) as f64,
                    w.frames_recv,
                    w.socket_reads,
                    w.frames_recv as f64 / w.socket_reads.max(1) as f64
                );
                // What lives where: bytes the endpoint had to be sent, and
                // inputs it was not sent because it kept them as outputs.
                eprintln!(
                    "endpoint {i} ({name}): transfer_bytes={} transfers_elided={}",
                    w.transfer_bytes, w.transfers_elided
                );
            }
        }
    }
    // Shutdown drains the daemons — the DRAIN-triggered final telemetry
    // flush lands before the supervisors exit, so the harvest below sees
    // the complete event stream.
    let client_tracer = rt.take_client_tracer();
    fabric.shutdown();

    if trace_out.is_some() || metrics_out.is_some() {
        let telemetry: Vec<fedci::process::EndpointTelemetry> = proc_fabric
            .as_ref()
            .map(|pf| (0..ENDPOINTS.len()).map(|i| pf.telemetry(i)).collect())
            .unwrap_or_default();
        if let Some(path) = &trace_out {
            let merged = unifaas::obs::merge_process_timeline(client_tracer.as_ref(), &telemetry);
            let chains = unifaas::obs::attempt_chains(client_tracer.as_ref(), &telemetry);
            // Generous slack on top of each chain's clock uncertainty:
            // the stamps bracket queueing, not just the wire.
            let violations = unifaas::obs::causal_violations(&chains, 5_000);
            let complete = chains.iter().filter(|c| c.is_complete()).count();
            let truncated = chains.iter().filter(|c| c.is_truncated()).count();
            eprintln!(
                "trace: {} attempts ({complete} complete, {truncated} truncated), \
                 {} causal violations",
                chains.len(),
                violations.len()
            );
            for v in &violations {
                eprintln!("trace: violation: {v}");
            }
            let mut f = std::fs::File::create(path).unwrap_or_else(|e| {
                eprintln!("unifaas-fabric: cannot create {path}: {e}");
                std::process::exit(1);
            });
            merged.export_perfetto(&mut f).unwrap_or_else(|e| {
                eprintln!("unifaas-fabric: cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {path}");
        }
        if let Some(path) = &metrics_out {
            sample(&mut reg);
            std::fs::write(path, reg.render_prometheus()).unwrap_or_else(|e| {
                eprintln!("unifaas-fabric: cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {path}");
        }
    }

    println!(
        "digest={:#018x} tasks={tasks} failures={} dispatched={} retries={} \
         watchdog_timeouts={}",
        outcome.digest, outcome.failures, stats.dispatched, stats.retries, stats.watchdog_timeouts
    );
    std::process::exit(if outcome.failures == 0 { 0 } else { 1 });
}
