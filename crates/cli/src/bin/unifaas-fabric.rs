//! `unifaas-fabric` — run a deterministic layered DAG on a live fabric
//! backend and report the result digest plus recovery statistics.
//!
//! ```text
//! unifaas-fabric [--backend threaded|process] [--endpoints a:4,b:4]
//!                [--tasks <n>] [--width <w>] [--seed <s>]
//!                [--daemon <path-to-unifaas-endpointd>]
//!                [--chaos-kill <ep>:<after-k-completions>]...
//!                [--chaos-swallow-every <k>] [--chaos-delay-ms <ms>]
//!                [--max-attempts <n>] [--task-timeout-ms <ms>]
//!                [--fast-timing] [--report]
//!                [--trace-out <path>] [--trace-level off|spans|full]
//!                [--metrics-out <path>] [--metrics-addr <addr>]
//! ```
//!
//! With `--backend process` each endpoint is a spawned
//! `unifaas-endpointd` child speaking the length-prefixed TCP protocol;
//! `--chaos-kill ep:k` SIGKILLs endpoint `ep`'s child once `k` tasks have
//! completed (repeatable), and the supervisor's heartbeat/reconnect/
//! re-dispatch machinery is expected to carry the run to the same digest
//! an unfaulted run produces. `--chaos-swallow-every` / `--chaos-delay-ms`
//! pass the daemons' own fault injectors through, so the injected instants
//! show up in the merged timeline.
//!
//! Observability flags:
//!
//! * `--trace-out <path>` writes the *merged cross-process* Perfetto
//!   timeline: the client's `c.*` lifecycle events plus (process backend)
//!   every daemon's telemetry, offset-corrected onto the client clock via
//!   the heartbeat NTP estimator, one track per daemon generation labelled
//!   with its offset ± uncertainty. Implies tracing and (process backend)
//!   the telemetry subscription. Open at <https://ui.perfetto.dev>.
//! * `--trace-level` sets the client recording level (defaults to `spans`
//!   when `--trace-out` is given).
//! * `--metrics-out <path>` writes the fabric's final registry
//!   (`fedci_pool_*`, or `fedci_proc_*` / `fedci_wire_*` on the process
//!   backend) in Prometheus text format.
//! * `--metrics-addr <addr>` serves the registry, plus the client's
//!   `unifaas_outstanding_tasks`, at `GET http://<addr>/metrics` *during*
//!   the run, re-sampled per scrape.
//!
//! The final line is machine-readable:
//!
//! ```text
//! digest=0x<16 hex> tasks=<n> failures=<n> retries=<n> ...
//! ```

use fedci::fabric::{Fabric, FabricTiming, ThreadedFabric};
use fedci::process::{EndpointMode, ProcessEndpointSpec, ProcessFabric, ProcessFabricConfig};
use simkit::metrics::MetricsRegistry;
use simkit::TraceLevel;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use unifaas::runtime::fabric::{FabricRuntime, LiveRetryPolicy};
use unifaas_cli::fabricrun::{
    collect_outcome, default_daemon_path, submit_layered, FabricWorkload,
};

fn usage() -> ! {
    eprintln!(
        "usage: unifaas-fabric [--backend threaded|process] [--endpoints a:4,b:4] \
         [--tasks <n>] [--width <w>] [--seed <s>] [--daemon <path>] \
         [--chaos-kill <ep>:<after-k>]... [--chaos-swallow-every <k>] \
         [--chaos-delay-ms <ms>] [--max-attempts <n>] \
         [--task-timeout-ms <ms>] [--fast-timing] [--report] \
         [--trace-out <path>] [--trace-level off|spans|full] \
         [--metrics-out <path>] [--metrics-addr <addr>]"
    );
    std::process::exit(2);
}

fn need(flag: &str, v: Option<String>) -> String {
    v.unwrap_or_else(|| {
        eprintln!("unifaas-fabric: {flag} needs a value");
        usage();
    })
}

fn parse<T: std::str::FromStr>(flag: &str, v: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("unifaas-fabric: bad value `{v}` for {flag}");
        usage();
    })
}

/// `a:4,b:4` → `[("a", 4), ("b", 4)]`.
fn parse_endpoints(s: &str) -> Vec<(String, usize)> {
    s.split(',')
        .map(|part| {
            let Some((name, workers)) = part.split_once(':') else {
                eprintln!("unifaas-fabric: bad endpoint `{part}` (want name:workers)");
                usage();
            };
            (name.to_string(), parse("--endpoints", workers))
        })
        .collect()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut backend = String::from("threaded");
    let mut endpoints = vec![("a".to_string(), 4), ("b".to_string(), 4)];
    let mut tasks = 200usize;
    let mut width = 4usize;
    let mut seed = 42u64;
    let mut daemon: Option<String> = None;
    let mut kills: Vec<(usize, u64)> = Vec::new();
    let mut max_attempts = 5u32;
    let mut task_timeout_ms = 0u64;
    let mut fast_timing = false;
    let mut report = false;
    let mut trace_out: Option<String> = None;
    let mut trace_level: Option<TraceLevel> = None;
    let mut metrics_out: Option<String> = None;
    let mut metrics_addr: Option<String> = None;
    let mut chaos_swallow_every = 0u64;
    let mut chaos_delay_ms = 0u64;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--backend" => backend = need("--backend", args.next()),
            "--endpoints" => endpoints = parse_endpoints(&need("--endpoints", args.next())),
            "--tasks" => tasks = parse("--tasks", &need("--tasks", args.next())),
            "--width" => width = parse("--width", &need("--width", args.next())),
            "--seed" => seed = parse("--seed", &need("--seed", args.next())),
            "--daemon" => daemon = Some(need("--daemon", args.next())),
            "--chaos-kill" => {
                let v = need("--chaos-kill", args.next());
                let Some((ep, after)) = v.split_once(':') else {
                    eprintln!("unifaas-fabric: bad --chaos-kill `{v}` (want ep:after-k)");
                    usage();
                };
                kills.push((parse("--chaos-kill", ep), parse("--chaos-kill", after)));
            }
            "--max-attempts" => {
                max_attempts = parse("--max-attempts", &need("--max-attempts", args.next()))
            }
            "--task-timeout-ms" => {
                task_timeout_ms =
                    parse("--task-timeout-ms", &need("--task-timeout-ms", args.next()))
            }
            "--chaos-swallow-every" => {
                chaos_swallow_every = parse(
                    "--chaos-swallow-every",
                    &need("--chaos-swallow-every", args.next()),
                )
            }
            "--chaos-delay-ms" => {
                chaos_delay_ms = parse("--chaos-delay-ms", &need("--chaos-delay-ms", args.next()))
            }
            "--fast-timing" => fast_timing = true,
            "--report" => report = true,
            "--trace-out" => trace_out = Some(need("--trace-out", args.next())),
            "--trace-level" => {
                let v = need("--trace-level", args.next());
                trace_level = Some(TraceLevel::parse(&v).unwrap_or_else(|| {
                    eprintln!("unifaas-fabric: bad value `{v}` for --trace-level");
                    usage();
                }));
            }
            "--metrics-out" => metrics_out = Some(need("--metrics-out", args.next())),
            "--metrics-addr" => metrics_addr = Some(need("--metrics-addr", args.next())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unifaas-fabric: unknown flag `{other}`");
                usage();
            }
        }
    }
    if tasks == 0 || endpoints.is_empty() {
        eprintln!("unifaas-fabric: need at least one task and one endpoint");
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
    let policy = LiveRetryPolicy {
        max_attempts,
        task_timeout: timeout,
        backoff: Duration::from_millis(if fast_timing { 5 } else { 50 }),
    };
    // `--trace-out` implies span tracing; `--trace-level` alone records
    // without writing. The telemetry subscription (process backend) rides
    // on the same switch: no tracing, no TELEMETRY frames on the wire.
    let level = trace_level.unwrap_or(if trace_out.is_some() {
        TraceLevel::Spans
    } else {
        TraceLevel::Off
    });
    let tracing = level != TraceLevel::Off;

    // Each backend registers its metrics and sets their per-scrape sampler.
    let mut reg = MetricsRegistry::new();
    let sample: Arc<dyn Fn(&mut MetricsRegistry) + Send + Sync>;
    let (fabric, proc_fabric): (Arc<dyn Fabric>, Option<Arc<ProcessFabric>>) = match backend
        .as_str()
    {
        "threaded" => {
            if !kills.is_empty() || chaos_swallow_every > 0 || chaos_delay_ms > 0 {
                eprintln!("unifaas-fabric: --chaos-* flags need --backend process");
                usage();
            }
            let eps: Vec<(&str, usize)> = endpoints.iter().map(|(n, w)| (n.as_str(), *w)).collect();
            let tf = Arc::new(ThreadedFabric::new(&eps, &timing));
            let (pools, ids) = (Arc::clone(&tf), Mutex::new(tf.register_metrics(&mut reg)));
            sample = Arc::new(move |r| pools.sample_metrics(r, &mut ids.lock().expect("ids lock")));
            (tf, None)
        }
        "process" => {
            let daemon_path =
                daemon.or_else(|| default_daemon_path().map(|p| p.to_string_lossy().into_owned()));
            let Some(daemon_path) = daemon_path else {
                eprintln!("unifaas-fabric: cannot locate unifaas-endpointd; pass --daemon <path>");
                std::process::exit(2);
            };
            // Daemon-side chaos rides the spawn command, so respawned
            // generations inject the same faults.
            let mut command = vec![daemon_path.clone()];
            if chaos_swallow_every > 0 {
                command.push("--chaos-swallow-every".to_string());
                command.push(chaos_swallow_every.to_string());
            }
            if chaos_delay_ms > 0 {
                command.push("--chaos-delay-ms".to_string());
                command.push(chaos_delay_ms.to_string());
            }
            let specs: Vec<ProcessEndpointSpec> = endpoints
                .iter()
                .map(|(name, workers)| ProcessEndpointSpec {
                    name: name.clone(),
                    workers: *workers,
                    mode: EndpointMode::Spawn {
                        command: command.clone(),
                    },
                })
                .collect();
            let cfg = ProcessFabricConfig {
                timing,
                seed,
                respawn: true,
                telemetry: tracing,
            };
            let pf = Arc::new(ProcessFabric::new(specs, cfg));
            let (procs, ids) = (Arc::clone(&pf), Mutex::new(pf.register_metrics(&mut reg)));
            sample = Arc::new(move |r| procs.sample_metrics(r, &mut ids.lock().expect("ids lock")));
            (Arc::clone(&pf) as Arc<dyn Fabric>, Some(pf))
        }
        other => {
            eprintln!("unifaas-fabric: unknown backend `{other}`");
            usage();
        }
    };
    for (ep, _) in &kills {
        if *ep >= endpoints.len() {
            eprintln!("unifaas-fabric: --chaos-kill endpoint {ep} out of range");
            std::process::exit(2);
        }
    }

    let rt = Arc::new(
        FabricRuntime::new(Arc::clone(&fabric))
            .with_retry(policy)
            .with_trace(level),
    );

    // The metrics registry is shared with the scrape server (when one is
    // up); every scrape re-samples the fabric under the registry lock.
    let reg = Arc::new(Mutex::new(reg));
    let _server = metrics_addr.as_ref().map(|addr| {
        let sample = Arc::clone(&sample);
        let server = rt.serve_metrics(addr, Arc::clone(&reg), move |r| sample(r));
        let server = server.unwrap_or_else(|e| {
            eprintln!("unifaas-fabric: cannot serve metrics at {addr}: {e}");
            std::process::exit(1);
        });
        eprintln!("serving metrics at http://{}/metrics", server.local_addr());
        server
    });

    let workload = FabricWorkload { tasks, width, seed };
    let started = std::time::Instant::now();
    let futures = submit_layered(&rt, &workload);

    // The chaos scheduler: fire each kill once its completion threshold
    // passes. Polling stats() is deliberate — it observes the run exactly
    // like an external chaos agent would.
    let killer = proc_fabric.as_ref().map(|pf| {
        let pf = Arc::clone(pf);
        let rt = Arc::clone(&rt);
        let mut kills = kills.clone();
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
            endpoints.len()
        );
        if let Some(pf) = &proc_fabric {
            for (i, (name, _)) in endpoints.iter().enumerate() {
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
            .map(|pf| (0..endpoints.len()).map(|i| pf.telemetry(i)).collect())
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
            let mut reg = reg.lock().expect("registry lock");
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
