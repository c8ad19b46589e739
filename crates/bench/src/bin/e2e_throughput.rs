//! End-to-end runtime throughput benchmark → `BENCH_e2e.json`.
//!
//! Measures the whole coordinator: full-run wall-clock time and
//! simulation events processed per second for the paper-scale workloads
//! — drug screening (24,001 tasks), montage (11,340 tasks) and a 100k-task
//! bag-of-tasks stress DAG — under Capacity, Locality and DHA — plus a
//! million-task layered stress DAG (omitted with `--smoke`).
//! This is the metric the data-plane/runtime-loop work optimizes: periodic
//! `MockSync`/`ScaleTick` handling, staging bookkeeping and metrics
//! recording all land here, next to the time spent inside scheduler hooks
//! (`sched (s)`).
//!
//! Each row also carries the run's makespan and transfer volume so the
//! file doubles as a bit-identity witness: optimizations must change the
//! wall-clock columns only.
//!
//! Results are written as JSON to `BENCH_e2e.json` in the working
//! directory (hand-rolled — the repo builds offline, without serde).
//!
//! `--trace-out <path>` / `--trace-level off|spans|full` enable run
//! tracing (all rows), mainly to measure tracing overhead against the
//! committed baseline; the last traced run's files are written to the
//! given path. `--metrics` enables the metrics registry on every row
//! (measuring enabled-metrics overhead the same way), and
//! `--metrics-out <path>` additionally writes the last row's registry as
//! a Prometheus text dump. With none of these flags the binary measures
//! the disabled-observability path — the gate enforced by
//! `scripts/check_trace_overhead.sh`.
//!
//! `--journal <path>` writes a run journal per row to `<path>.<workload>.
//! <scheduler>.journal` (measuring journaling-enabled overhead; makespan
//! and transfer columns must not move — the journal only observes).
//!
//! `--verify` runs every row with `Config::verify` (counter
//! reconciliation, checked event queue, decision digest); its makespan,
//! transfer and events columns must equal a plain run's.
//!
//! `--smoke` drops the million-task rows (CI's bench-smoke job). Every
//! row also reports the process's cumulative peak RSS (`VmHWM` after the
//! run — a high-water mark, not a per-run delta) and, when built with
//! `--features alloc-count`, the allocation count and bytes attributable
//! to the run.

use std::fmt::Write as _;
use std::time::Instant;
use taskgraph::workloads::{drug, montage, stress};
use taskgraph::Dag;
use unifaas::config::SchedulingStrategy;
use unifaas::prelude::*;
use unifaas_bench::{
    all_strategies, alloc_snapshot, drug_static_pool, montage_static_pool, peak_rss_bytes,
};

struct Row {
    workload: &'static str,
    tasks: usize,
    scheduler: String,
    wall_s: f64,
    sched_wall_s: f64,
    events: u64,
    events_per_sec: f64,
    makespan_s: f64,
    transfer_gb: f64,
    allocs: Option<u64>,
    alloc_mb: Option<f64>,
    peak_rss_mb: Option<f64>,
}

/// What every row of one invocation shares: the command line's choices.
#[derive(Clone, Copy)]
struct RunOpts<'a> {
    trace: Option<TraceConfig>,
    trace_out: Option<&'a str>,
    metrics: bool,
    metrics_out: Option<&'a str>,
    verify: bool,
    journal: Option<&'a str>,
}

fn run(
    workload: &'static str,
    dag: Dag,
    pool: ConfigBuilder,
    strategy: SchedulingStrategy,
    opts: RunOpts<'_>,
) -> Row {
    let RunOpts {
        trace,
        trace_out,
        metrics,
        metrics_out,
        verify,
        journal,
    } = opts;
    let tasks = dag.len();
    let sched_tag = match &strategy {
        SchedulingStrategy::Capacity => "Capacity",
        SchedulingStrategy::Locality => "Locality",
        SchedulingStrategy::Dha { .. } => "DHA",
        _ => "other",
    };
    let mut cfg = pool.build();
    cfg.strategy = strategy;
    cfg.verify = verify;
    let alloc0 = alloc_snapshot();
    let t0 = Instant::now();
    let mut runtime = SimRuntime::new(cfg, dag).with_metrics(metrics);
    if let Some(tc) = trace {
        runtime = runtime.with_trace(tc);
    }
    if let Some(prefix) = journal {
        runtime = runtime.with_journal(format!("{prefix}.{workload}.{sched_tag}.journal"));
    }
    let report = runtime.run().expect("run failed");
    let wall_s = t0.elapsed().as_secs_f64();
    let alloc = match (alloc0, alloc_snapshot()) {
        (Some(a), Some(b)) => Some(b.since(a)),
        _ => None,
    };
    if let (Some(path), Some(tr)) = (trace_out, &report.trace) {
        tr.write_files(std::path::Path::new(path))
            .expect("write trace");
    }
    if let (Some(path), Some(reg)) = (metrics_out, report.metrics.as_deref()) {
        std::fs::write(path, reg.render_prometheus()).expect("write metrics dump");
    }
    Row {
        workload,
        tasks,
        scheduler: report.scheduler.clone(),
        wall_s,
        sched_wall_s: report.scheduler_wall.as_secs_f64(),
        events: report.events_processed,
        events_per_sec: report.events_processed as f64 / wall_s,
        makespan_s: report.makespan.as_secs_f64(),
        transfer_gb: report.transfer_gb(),
        allocs: alloc.map(|a| a.allocs),
        alloc_mb: alloc.map(|a| a.bytes as f64 / (1 << 20) as f64),
        peak_rss_mb: peak_rss_bytes().map(|b| b as f64 / (1 << 20) as f64),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut trace_out: Option<String> = None;
    let mut trace_level: Option<TraceLevel> = None;
    let mut metrics = false;
    let mut metrics_out: Option<String> = None;
    let mut smoke = false;
    let mut verify = false;
    let mut journal: Option<String> = None;
    let mut only: Option<String> = None;
    let mut only_sched: Option<String> = None;
    let mut out_path = "BENCH_e2e.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--verify" => verify = true,
            "--journal" => journal = it.next().cloned(),
            "--only" => only = it.next().cloned(),
            "--strategy" => only_sched = it.next().cloned(),
            "--out" => out_path = it.next().cloned().expect("--out <path>"),
            "--trace-out" => trace_out = it.next().cloned(),
            "--trace-level" => {
                trace_level = it
                    .next()
                    .and_then(|s| TraceLevel::parse(s))
                    .or_else(|| panic!("bad --trace-level (off|spans|full)"));
            }
            "--metrics" => metrics = true,
            "--metrics-out" => {
                metrics = true;
                metrics_out = it.next().cloned();
            }
            other => panic!("unknown argument {other}"),
        }
    }
    let trace = match (trace_out.is_some(), trace_level) {
        (_, Some(level)) => Some(TraceConfig::at_level(level)),
        (true, None) => Some(TraceConfig::default()),
        (false, None) => None,
    }
    .filter(|tc| tc.level != TraceLevel::Off);
    let out = trace_out.as_deref();

    let mut rows: Vec<Row> = Vec::new();

    // `--only` / `--strategy` filter the workload × scheduler matrix so CI
    // gates (and profiling runs) can pay for exactly one row.
    let strategy_name = |s: &SchedulingStrategy| match s {
        SchedulingStrategy::Capacity => "Capacity",
        SchedulingStrategy::Locality => "Locality",
        SchedulingStrategy::Dha { .. } => "DHA",
        _ => "other",
    };
    let strategies: Vec<SchedulingStrategy> = all_strategies()
        .into_iter()
        .filter(|s| {
            only_sched
                .as_deref()
                .is_none_or(|f| strategy_name(s).eq_ignore_ascii_case(f))
        })
        .collect();
    let wants = |w: &str| only.as_deref().is_none_or(|f| w == f);

    // DAG generators are lazy so a filtered run never builds the
    // million-task graph it is not going to execute.
    type DagGen = fn() -> Dag;
    type PoolGen = fn() -> ConfigBuilder;
    let workloads: Vec<(&'static str, DagGen, PoolGen)> = vec![
        (
            "drug",
            (|| drug::generate(&drug::DrugParams::full())) as DagGen,
            drug_static_pool as PoolGen,
        ),
        (
            "montage",
            || montage::generate(&montage::MontageParams::full()),
            montage_static_pool,
        ),
        // The 100k-task stress DAG: periodic-tick and data-plane costs that
        // scale with the number of tasks dominate here, so a quadratic
        // coordinator shows up as a wall-clock cliff.
        (
            "stress-100k",
            || stress::bag_of_tasks(100_000, 10.0),
            drug_static_pool,
        ),
        // A million tasks in four dependent layers: the batched-EFT
        // reschedule path, arena state and event-queue bookkeeping at
        // full scale. Dropped in smoke runs — these rows dominate the
        // binary's runtime.
        ("stress-1m", stress::million, drug_static_pool),
    ];

    let opts = RunOpts {
        trace,
        trace_out: out,
        metrics,
        metrics_out: metrics_out.as_deref(),
        verify,
        journal: journal.as_deref(),
    };
    for (name, gen, pool) in workloads {
        if !wants(name) || (smoke && name == "stress-1m") {
            continue;
        }
        for strategy in strategies.clone() {
            rows.push(run(name, gen(), pool(), strategy, opts));
        }
    }

    println!(
        "{:<12} {:<10} {:>8} {:>10} {:>10} {:>12} {:>14} {:>12} {:>14} {:>10}",
        "workload",
        "scheduler",
        "tasks",
        "wall (s)",
        "sched (s)",
        "events",
        "events/s",
        "makespan",
        "transfer (GB)",
        "rss (MiB)"
    );
    let mut json = String::from("{\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        println!(
            "{:<12} {:<10} {:>8} {:>10.3} {:>10.3} {:>12} {:>14.0} {:>12.0} {:>14.2} {:>10}",
            r.workload,
            r.scheduler,
            r.tasks,
            r.wall_s,
            r.sched_wall_s,
            r.events,
            r.events_per_sec,
            r.makespan_s,
            r.transfer_gb,
            match r.peak_rss_mb {
                Some(mb) => format!("{mb:.0}"),
                None => "-".into(),
            }
        );
        let _ = writeln!(
            json,
            "    {{\"workload\": \"{}\", \"scheduler\": \"{}\", \"tasks\": {}, \
             \"wall_s\": {:.3}, \"sched_wall_s\": {:.3}, \"events\": {}, \
             \"events_per_sec\": {:.0}, \
             \"makespan_s\": {:.3}, \"transfer_gb\": {:.4}, \
             \"allocs\": {}, \"alloc_mb\": {}, \"peak_rss_mb\": {}}}{}",
            r.workload,
            r.scheduler,
            r.tasks,
            r.wall_s,
            r.sched_wall_s,
            r.events,
            r.events_per_sec,
            r.makespan_s,
            r.transfer_gb,
            r.allocs.map_or("null".into(), |v| v.to_string()),
            r.alloc_mb.map_or("null".into(), |v| format!("{v:.1}")),
            r.peak_rss_mb.map_or("null".into(), |v| format!("{v:.0}")),
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_e2e.json");
    println!("\nwrote {out_path}");
}
