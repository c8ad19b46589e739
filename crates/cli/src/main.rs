//! `unifaas-sim` — run a simulated federated workflow from a spec file.
//!
//! ```text
//! unifaas-sim <spec-file> [--strategy capacity|locality|dha|dha-no-resched]
//!                         [--series <dir>] [--quiet] [--report]
//!                         [--trace-out <path>] [--flame-out <path>]
//!                         [--metrics-out <path>]
//!                         [--fault <rule>]... [--journal-out <path>]
//!                         [--verify]
//! ```
//!
//! `--strategy` overrides the spec (handy for comparing schedulers on one
//! spec); `--series <dir>` writes the collected time series as CSV files
//! for plotting; `--trace-out <path>` writes a Perfetto/Chrome trace (plus
//! `.jsonl` and `.counters.txt` siblings) — open the JSON at
//! <https://ui.perfetto.dev>.
//!
//! Observability flags:
//!
//! * `--report` prints the critical-path stage attribution (which latency
//!   stage the makespan was actually spent in, along the longest
//!   dependency chain) and the predictor calibration table. Implies
//!   metrics collection, and span tracing sized to hold every task.
//!   A metered run (`--report` or `--metrics-out`) also times the
//!   scheduler's hooks and prints their wall time per task.
//! * `--metrics-out <path>` writes the final counters/gauges/histograms in
//!   Prometheus text format (one-shot dump; implies metrics collection).
//! * `--flame-out <path>` writes the trace as folded stacks for
//!   `flamegraph.pl`/inferno (implies span tracing).
//!
//! Each `--fault <rule>` (repeatable) adds one `fedci::fault` rule to the
//! run's plan, for quick chaos sweeps: `--fault 'task-fail p=0.02'`,
//! `--fault 'transfer-fail p=0.02'`, `--fault 'down ep=0 from=300 to=900'`
//! (a deterministic outage window, whole virtual seconds), `--fault
//! 'delay ms=5'`. A `swallow` rule needs an execution timeout, which no
//! flag sets, so it is rejected here.
//!
//! Run-journal flags and subcommands:
//!
//! * `--journal-out <path>` writes a run journal: one binary record per
//!   delivered event plus scheduler decision notes, with rolling chunk
//!   digests (see `simkit::journal`).
//! * `--verify` checks the run as it goes (`Config::verify`): counter
//!   reconciliation on every periodic tick, every event delivery checked
//!   against a reference binary heap, and the scheduler decision stream
//!   digested and printed. It panics at the first failed check; the
//!   journal, makespan and every other printed number are the same as
//!   without it.
//! * `unifaas-sim doctor <a.journal> <b.journal>` compares two journals
//!   and localizes the first divergent event with task/decision context.
//!   Exits 0 when identical, 1 on divergence.
//! * `unifaas-sim journal-perturb <in> <out> <index>` rewrites a journal
//!   with one record's timestamp bumped — an injected divergence for
//!   exercising the doctor end to end.

use simkit::journal::Journal;
use simkit::trace::TraceLevel;
use simkit::{SimDuration, SimTime};
use std::io::Write;
use unifaas::config::SchedulingStrategy;
use unifaas::trace::TraceConfig;
use unifaas::SimRuntime;
use unifaas_cli::parse_spec;

fn usage() -> ! {
    eprintln!(
        "usage: unifaas-sim <spec-file> [--strategy capacity|locality|dha|dha-no-resched] \
         [--series <dir>] [--quiet] [--report] [--trace-out <path>] \
         [--flame-out <path>] [--metrics-out <path>] \
         [--fault <rule>]... [--journal-out <path>] [--verify]\n\
         \x20      unifaas-sim doctor <a.journal> <b.journal>\n\
         \x20      unifaas-sim journal-perturb <in.journal> <out.journal> <record-index>"
    );
    std::process::exit(2);
}

fn open_journal(path: &str) -> Journal {
    let j = Journal::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open journal {path}: {e}");
        std::process::exit(2);
    });
    if !j.clean_close() {
        eprintln!(
            "warning: {path} was not sealed cleanly; comparing its {} intact records",
            j.total_records()
        );
    }
    j
}

/// `unifaas-sim doctor a.journal b.journal`: exit 0 when identical, 1 on
/// divergence, 2 on usage/open errors.
fn doctor_main(args: &[String]) -> ! {
    let [a, b] = args else {
        eprintln!("usage: unifaas-sim doctor <a.journal> <b.journal>");
        std::process::exit(2);
    };
    let report = unifaas::obs::doctor(&open_journal(a), &open_journal(b));
    print!("{}", unifaas::obs::render_doctor(&report));
    std::process::exit(if report.is_identical() { 0 } else { 1 });
}

/// `unifaas-sim journal-perturb in out index`: injected single-event
/// divergence for exercising the doctor end to end.
fn perturb_main(args: &[String]) -> ! {
    let (src, dst, index) = match args {
        [src, dst, index] => match index.parse::<u64>() {
            Ok(i) => (src, dst, i),
            Err(_) => {
                eprintln!("journal-perturb: record index must be an integer, got `{index}`");
                std::process::exit(2);
            }
        },
        _ => {
            eprintln!("usage: unifaas-sim journal-perturb <in.journal> <out.journal> <index>");
            std::process::exit(2);
        }
    };
    unifaas::obs::perturb_journal(std::path::Path::new(src), std::path::Path::new(dst), index)
        .unwrap_or_else(|e| {
            eprintln!("journal-perturb: {e}");
            std::process::exit(2);
        });
    println!("wrote {dst} (record {index} timestamp bumped by 1us)");
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("doctor") => doctor_main(&args[1..]),
        Some("journal-perturb") => perturb_main(&args[1..]),
        _ => {}
    }
    let mut spec_path: Option<String> = None;
    let mut strategy_override: Option<SchedulingStrategy> = None;
    let mut series_dir: Option<String> = None;
    let mut quiet = false;
    let mut trace_out: Option<String> = None;
    let mut report_flag = false;
    let mut flame_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut faults: Vec<fedci::FaultRule> = Vec::new();
    let mut journal_out: Option<String> = None;
    let mut verify = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fault" => faults.push(
                it.next()
                    .map(|s| s.parse())
                    .unwrap_or_else(|| usage())
                    .unwrap_or_else(|e| {
                        eprintln!("--fault: {e}");
                        std::process::exit(2);
                    }),
            ),
            "--trace-out" => trace_out = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--report" => report_flag = true,
            "--flame-out" => flame_out = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--metrics-out" => metrics_out = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--strategy" => {
                strategy_override = Some(match it.next().map(String::as_str) {
                    Some("capacity") => SchedulingStrategy::Capacity,
                    Some("locality") => SchedulingStrategy::Locality,
                    Some("dha") => SchedulingStrategy::Dha { rescheduling: true },
                    Some("dha-no-resched") => SchedulingStrategy::Dha {
                        rescheduling: false,
                    },
                    _ => usage(),
                });
            }
            "--series" => series_dir = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--journal-out" => journal_out = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--verify" => verify = true,
            "--quiet" => quiet = true,
            "--help" | "-h" => usage(),
            other if spec_path.is_none() && !other.starts_with('-') => {
                spec_path = Some(other.to_string())
            }
            _ => usage(),
        }
    }
    let Some(spec_path) = spec_path else { usage() };

    let text = std::fs::read_to_string(&spec_path).unwrap_or_else(|e| {
        eprintln!("cannot read {spec_path}: {e}");
        std::process::exit(1);
    });
    let mut spec = parse_spec(&text).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    if let Some(s) = strategy_override {
        spec.config.strategy = s;
    }
    for rule in faults {
        spec.config.faults.push(rule);
    }
    spec.config.verify |= verify;

    let dag = spec.workload.build();
    let n_tasks = dag.len();
    if !quiet {
        println!(
            "running {n_tasks} tasks on {} endpoints...",
            spec.config.endpoints.len()
        );
    }
    // `--trace-out` implies full tracing. `--report` and `--flame-out`
    // need span tracing — sized so the ring holds every task's lifecycle
    // spans, or critical-path extraction would see a truncated workflow.
    let want_analytics = report_flag || flame_out.is_some();
    let trace_cfg = match (trace_out.is_some(), want_analytics) {
        (true, _) => Some(TraceConfig::default()),
        (false, true) => Some(TraceConfig::at_level(TraceLevel::Spans)),
        (false, false) => None,
    };
    let trace_cfg = trace_cfg.map(|mut tc| {
        if want_analytics {
            // ~7 lifecycle spans/task, 2 records each, plus transfers.
            tc.ring_capacity = tc.ring_capacity.max(16 * n_tasks.max(1));
        }
        tc
    });
    let want_metrics = report_flag || metrics_out.is_some();
    let t0 = std::time::Instant::now();
    let mut runtime = SimRuntime::new(spec.config, dag).with_metrics(want_metrics);
    if let Some(tc) = trace_cfg {
        runtime = runtime.with_trace(tc);
    }
    if let Some(path) = &journal_out {
        runtime = runtime.with_journal(path);
    }
    let report = runtime.run().unwrap_or_else(|e| {
        eprintln!("workflow failed: {e}");
        std::process::exit(1);
    });
    let wall = t0.elapsed();

    if let Some(path) = &trace_out {
        let trace = report.trace.as_ref().expect("--trace-out traces the run");
        let written = trace
            .write_files(std::path::Path::new(path))
            .unwrap_or_else(|e| {
                eprintln!("cannot write trace {path}: {e}");
                std::process::exit(1);
            });
        for p in written {
            println!("wrote {}", p.display());
        }
    }

    println!("scheduler          {}", report.scheduler);
    println!("tasks completed    {}", report.tasks_completed);
    println!(
        "makespan           {:.1} s (simulated)",
        report.makespan.as_secs_f64()
    );
    println!(
        "transfer           {:.3} GB across endpoints",
        report.transfer_gb()
    );
    println!("failed attempts    {}", report.failed_attempts);
    println!(
        "mean utilization   {:.1}%",
        report.mean_utilization() * 100.0
    );
    // Only a metered run times the scheduler's hooks.
    if want_metrics {
        println!(
            "scheduler overhead {:.2e} s/task (wall)",
            report.scheduler_overhead_per_task()
        );
    }
    println!("tasks per endpoint:");
    for (label, count) in &report.tasks_per_endpoint {
        if *count > 0 {
            println!("  {label:<16} {count}");
        }
    }
    if let Some(trace) = &report.trace {
        println!(
            "trace              {} events ({} dropped), {} decisions, {} transfers",
            trace.tracer.len(),
            trace.tracer.dropped(),
            trace.decisions.len(),
            trace.transfers.len()
        );
    }
    if let Some(d) = report.decision_digest {
        println!("decision digest    {d:#018x} (verified run)");
    }
    if let (Some(path), Some(j)) = (&journal_out, &report.journal) {
        println!(
            "journal            {path}: {} records in {} chunks, digest {:#018x}",
            j.records, j.chunks, j.digest
        );
    }
    if report_flag {
        match report
            .trace
            .as_deref()
            .and_then(unifaas::obs::critical_path)
        {
            Some(cp) => print!("{}", cp.render_table()),
            None => eprintln!("--report: trace has no completed task spans"),
        }
        if report.calibration.is_empty() {
            println!("predictor calibration: no observations");
        } else {
            println!("predictor calibration:");
            println!(
                "  {:<28} {:>7} {:>8} {:>8} {:>9}",
                "model", "n", "MAPE", "bias", "p95|err|"
            );
            for row in &report.calibration {
                println!(
                    "  {:<28} {:>7} {:>7.1}% {:>+7.1}% {:>8.1}%",
                    row.model,
                    row.count,
                    row.mape * 100.0,
                    row.bias * 100.0,
                    row.p95_abs_err * 100.0
                );
            }
        }
    }
    if let Some(path) = &flame_out {
        let trace = report.trace.as_deref().expect("--flame-out traces the run");
        unifaas::obs::write_flamegraph(trace, std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("cannot write flamegraph {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }
    if let Some(path) = &metrics_out {
        let reg = report
            .metrics
            .as_deref()
            .expect("--metrics-out implies metrics");
        std::fs::write(path, reg.render_prometheus()).unwrap_or_else(|e| {
            eprintln!("cannot write metrics {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }
    if !quiet {
        println!(
            "({} simulated events in {:.2} s wall)",
            report.events_processed,
            wall.as_secs_f64()
        );
    }

    if let Some(dir) = series_dir {
        write_series(&dir, &report).unwrap_or_else(|e| {
            eprintln!("cannot write series {dir}: {e}");
            std::process::exit(1);
        });
    }
}

/// Writes the run's per-endpoint time series as CSV files under `dir`
/// (created if missing), sampled at ~200 points over the makespan.
fn write_series(dir: &str, report: &unifaas::RunReport) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let end = SimTime::ZERO + report.makespan;
    let step = SimDuration::from_secs_f64((report.makespan.as_secs_f64() / 200.0).max(1.0));
    let sets = [
        ("busy_workers", &report.series.busy_workers),
        ("active_workers", &report.series.active_workers),
        ("pending_tasks", &report.series.pending_tasks),
    ];
    for (name, set) in sets {
        let path = format!("{dir}/{name}.csv");
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        write!(f, "t_seconds")?;
        for (label, _) in set.iter() {
            write!(f, ",{label}")?;
        }
        writeln!(f)?;
        let mut t = SimTime::ZERO;
        loop {
            write!(f, "{:.1}", t.as_secs_f64())?;
            for (_, series) in set.iter() {
                write!(f, ",{}", series.value_at(t))?;
            }
            writeln!(f)?;
            if t >= end {
                break;
            }
            t += step;
            if t > end {
                t = end;
            }
        }
        f.flush()?;
        println!("wrote {path}");
    }
    Ok(())
}
