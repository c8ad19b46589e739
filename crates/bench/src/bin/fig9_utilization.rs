//! Fig. 9 — worker utilization over time under static resource capacity.
//!
//! Same runs as Table IV; the claim: DHA holds consistently high
//! utilization while Capacity and Locality decay into a long tail.

use simkit::SimTime;
use taskgraph::workloads::{drug, montage};
use unifaas::prelude::*;
use unifaas_bench::{all_strategies, drug_static_pool, grid, montage_static_pool};

fn run_and_collect(
    workflow: &str,
    make_dag: impl Fn() -> Dag,
    pool: impl Fn() -> unifaas::config::ConfigBuilder,
) {
    println!("-- {workflow}: aggregate worker utilization (%) over time --");
    let mut results = Vec::new();
    for strategy in all_strategies() {
        let mut cfg = pool().build();
        cfg.strategy = strategy;
        let report = SimRuntime::new(cfg, make_dag()).run().expect("run failed");
        results.push(report);
    }
    let horizon = results
        .iter()
        .map(|r| r.makespan.as_secs_f64())
        .fold(0.0, f64::max);
    print!("{:>8}", "t(s)");
    for r in &results {
        print!(" {:>16}", r.scheduler);
    }
    println!();
    for t in grid(SimTime::ZERO, SimTime::from_secs_f64(horizon), 20) {
        print!("{:>8.0}", t.as_secs_f64());
        for r in &results {
            let u = if (t - SimTime::ZERO) <= r.makespan {
                r.series.utilization_at(t) * 100.0
            } else {
                0.0
            };
            print!(" {u:>16.1}");
        }
        println!();
    }
    for r in &results {
        println!(
            "  mean utilization [{}]: {:.1}%",
            r.scheduler,
            r.mean_utilization() * 100.0
        );
    }
    println!();
}

fn main() {
    println!("=== Fig. 9: worker utilization under static capacity ===\n");
    run_and_collect(
        "drug screening",
        || drug::generate(&drug::DrugParams::full()),
        drug_static_pool,
    );
    run_and_collect(
        "montage",
        || montage::generate(&montage::MontageParams::full()),
        montage_static_pool,
    );
    println!("expected: DHA sustains the highest utilization; Capacity/Locality show a long tail.");
}
