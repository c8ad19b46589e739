//! Scheduler hot-path overhead benchmark → `BENCH_sched.json`.
//!
//! Measures real wall-clock time spent inside scheduler hooks (decision
//! logic + prediction) per task — the Table III metric — for Capacity,
//! Locality and DHA on the drug-screening (24,001 tasks) and montage
//! (10,565 tasks) workflows, plus a 100k-task bag-of-tasks stress DAG that
//! guards against superlinear blowup in the queue and re-scheduling paths,
//! and a million-task layered DAG (omitted with `--smoke`) that sizes the
//! batched-EFT reschedule path.
//!
//! Results are written as JSON to `BENCH_sched.json` in the working
//! directory (hand-rolled — the repo builds offline, without serde).

use std::fmt::Write as _;
use taskgraph::workloads::{drug, montage, stress};
use taskgraph::Dag;
use unifaas::config::SchedulingStrategy;
use unifaas::metrics::RunReport;
use unifaas::prelude::*;
use unifaas_bench::{all_strategies, drug_static_pool, montage_static_pool};

struct Row {
    workload: &'static str,
    tasks: usize,
    scheduler: String,
    overhead_per_task: f64,
    sched_wall: f64,
    hook_calls: u64,
    makespan: f64,
}

fn run(workload: &'static str, dag: Dag, pool: ConfigBuilder, strategy: SchedulingStrategy) -> Row {
    let tasks = dag.len();
    let mut cfg = pool.build();
    cfg.strategy = strategy;
    let report: RunReport = SimRuntime::new(cfg, dag).run().expect("run failed");
    Row {
        workload,
        tasks,
        scheduler: report.scheduler.clone(),
        overhead_per_task: report.scheduler_overhead_per_task(),
        sched_wall: report.scheduler_wall.as_secs_f64(),
        hook_calls: report.scheduler_calls,
        makespan: report.makespan.as_secs_f64(),
    }
}

fn main() {
    let mut rows: Vec<Row> = Vec::new();

    for strategy in all_strategies() {
        rows.push(run(
            "drug",
            drug::generate(&drug::DrugParams::full()),
            drug_static_pool(),
            strategy,
        ));
    }
    for strategy in all_strategies() {
        rows.push(run(
            "montage",
            montage::generate(&montage::MontageParams::full()),
            montage_static_pool(),
            strategy,
        ));
    }
    // Stress: 100k independent short tasks through the full DHA path
    // (staging, delay queues, re-scheduling ticks). Per-task overhead must
    // stay in the same decade as the 24k-task run — a superlinear hot path
    // shows up as an order-of-magnitude jump here.
    rows.push(run(
        "stress-100k",
        stress::bag_of_tasks(100_000, 10.0),
        drug_static_pool(),
        SchedulingStrategy::Dha { rescheduling: true },
    ));
    // Stress: a million tasks in four dependent layers. Exercises the
    // batched-EFT reschedule path at full scale; skipped in smoke runs
    // (`--smoke`) to keep CI fast.
    if !std::env::args().any(|a| a == "--smoke") {
        rows.push(run(
            "stress-1m",
            stress::million(),
            drug_static_pool(),
            SchedulingStrategy::Dha { rescheduling: true },
        ));
    }

    println!(
        "{:<12} {:<10} {:>8} {:>18} {:>12} {:>12} {:>12}",
        "workload",
        "scheduler",
        "tasks",
        "overhead/task (s)",
        "total (s)",
        "hook calls",
        "makespan"
    );
    let mut json = String::from("{\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        println!(
            "{:<12} {:<10} {:>8} {:>18.2e} {:>12.3} {:>12} {:>12.0}",
            r.workload,
            r.scheduler,
            r.tasks,
            r.overhead_per_task,
            r.sched_wall,
            r.hook_calls,
            r.makespan
        );
        let _ = writeln!(
            json,
            "    {{\"workload\": \"{}\", \"scheduler\": \"{}\", \"tasks\": {}, \
             \"overhead_per_task_s\": {:e}, \"sched_wall_s\": {:.6}, \
             \"hook_calls\": {}, \"makespan_s\": {:.3}}}{}",
            r.workload,
            r.scheduler,
            r.tasks,
            r.overhead_per_task,
            r.sched_wall,
            r.hook_calls,
            r.makespan,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_sched.json", &json).expect("write BENCH_sched.json");
    println!("\nwrote BENCH_sched.json");
}
