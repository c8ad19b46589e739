//! Parallel multi-seed / multi-config sweep → `BENCH_sweep.json`.
//!
//! Runs one workload across a seed range and strategy set on OS threads
//! (see `unifaas_bench::sweep`), reporting per-run rows plus the batch's
//! aggregate event throughput — total simulation events divided by batch
//! wall clock. Individual runs stay single-threaded and bit-deterministic;
//! the sweep only overlaps independent runs, so on an N-core box the
//! aggregate rate approaches N× a single run's.
//!
//!     sweep [--workload stress-1m] [--seeds 4] [--threads N]
//!           [--strategy dha|capacity|locality|all] [--series]
//!
//! Workloads: `drug`, `montage`, `stress-100k`, `stress-1m`. Utilization
//! time-series recording is off by default here (pure-throughput
//! measurement; `--series` turns it back on). Determinism digests are
//! printed per row so a sweep doubles as a cross-seed replay witness.

use std::fmt::Write as _;
use taskgraph::workloads::{drug, montage, stress};
use taskgraph::Dag;
use unifaas::config::SchedulingStrategy;
use unifaas::prelude::*;
use unifaas_bench::{
    all_strategies, default_sweep_threads, drug_static_pool, montage_static_pool, peak_rss_bytes,
    run_sweep, SweepJob,
};

fn strategy_name(s: &SchedulingStrategy) -> &'static str {
    match s {
        SchedulingStrategy::Capacity => "Capacity",
        SchedulingStrategy::Locality => "Locality",
        SchedulingStrategy::Dha { .. } => "DHA",
        _ => "other",
    }
}

fn make_dag(workload: &str) -> Dag {
    match workload {
        "drug" => drug::generate(&drug::DrugParams::full()),
        "montage" => montage::generate(&montage::MontageParams::full()),
        "stress-100k" => stress::bag_of_tasks(100_000, 10.0),
        "stress-1m" => stress::million(),
        other => panic!("unknown workload {other} (drug|montage|stress-100k|stress-1m)"),
    }
}

fn pool(workload: &str) -> ConfigBuilder {
    match workload {
        "montage" => montage_static_pool(),
        _ => drug_static_pool(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = String::from("stress-1m");
    let mut seeds: u64 = 4;
    let mut threads = default_sweep_threads();
    let mut strategies = vec![SchedulingStrategy::Dha { rescheduling: true }];
    let mut series = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => workload = it.next().expect("--workload <name>").clone(),
            "--seeds" => {
                seeds = it
                    .next()
                    .expect("--seeds <n>")
                    .parse()
                    .expect("bad --seeds")
            }
            "--threads" => {
                threads = it
                    .next()
                    .expect("--threads <n>")
                    .parse()
                    .expect("bad --threads")
            }
            "--strategy" => {
                strategies = match it.next().expect("--strategy <s>").as_str() {
                    "dha" => vec![SchedulingStrategy::Dha { rescheduling: true }],
                    "capacity" => vec![SchedulingStrategy::Capacity],
                    "locality" => vec![SchedulingStrategy::Locality],
                    "all" => all_strategies(),
                    other => panic!("unknown strategy {other}"),
                }
            }
            "--series" => series = true,
            other => panic!("unknown argument {other}"),
        }
    }

    let mut jobs = Vec::new();
    for seed in 0..seeds {
        for strategy in &strategies {
            let label = format!("{workload}/{}/seed{seed}", strategy_name(strategy));
            let strategy = strategy.clone();
            let w = workload.clone();
            jobs.push(SweepJob::new(label, move || {
                let mut cfg = pool(&w).record_series(series).build();
                cfg.strategy = strategy;
                cfg.seed = cfg.seed.wrapping_add(seed);
                SimRuntime::new(cfg, make_dag(&w))
                    .run()
                    .expect("run failed")
            }));
        }
    }
    let n_jobs = jobs.len();
    eprintln!("sweep: {n_jobs} runs of {workload} on {threads} thread(s)");
    let summary = run_sweep(jobs, threads);

    println!(
        "{:<28} {:>10} {:>12} {:>14} {:>12} {:>18}",
        "run", "wall (s)", "events", "events/s", "makespan", "digest"
    );
    let mut json = String::from("{\n  \"rows\": [\n");
    for (i, o) in summary.outcomes.iter().enumerate() {
        let digest = o.report.determinism_digest();
        println!(
            "{:<28} {:>10.3} {:>12} {:>14.0} {:>12.0} {:>18}",
            o.label,
            o.wall_s,
            o.report.events_processed,
            o.report.events_processed as f64 / o.wall_s.max(1e-9),
            o.report.makespan.as_secs_f64(),
            format!("{digest:016x}"),
        );
        let _ = writeln!(
            json,
            "    {{\"run\": \"{}\", \"wall_s\": {:.3}, \"events\": {}, \
             \"makespan_s\": {:.3}, \"digest\": \"{:016x}\"}}{}",
            o.label,
            o.wall_s,
            o.report.events_processed,
            o.report.makespan.as_secs_f64(),
            digest,
            if i + 1 < summary.outcomes.len() {
                ","
            } else {
                ""
            }
        );
    }
    let peak_rss_mb = peak_rss_bytes().map(|b| b as f64 / (1 << 20) as f64);
    println!(
        "\nbatch: {} runs, {} thread(s), wall {:.3} s, {} events, aggregate {:.0} events/s{}",
        summary.outcomes.len(),
        summary.threads,
        summary.wall_s,
        summary.total_events(),
        summary.aggregate_events_per_sec(),
        match peak_rss_mb {
            Some(mb) => format!(", peak RSS {mb:.0} MiB"),
            None => String::new(),
        }
    );
    let _ = write!(
        json,
        "  ],\n  \"threads\": {}, \"wall_s\": {:.3}, \"total_events\": {}, \
         \"aggregate_events_per_sec\": {:.0}, \"peak_rss_mb\": {}\n}}\n",
        summary.threads,
        summary.wall_s,
        summary.total_events(),
        summary.aggregate_events_per_sec(),
        match peak_rss_mb {
            Some(mb) => format!("{mb:.0}"),
            None => "null".into(),
        }
    );
    std::fs::write("BENCH_sweep.json", &json).expect("write BENCH_sweep.json");
    println!("wrote BENCH_sweep.json");
}
