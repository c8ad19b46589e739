//! Fig. 10 — number of tasks in the data-staging state over time,
//! Locality vs. Capacity, on the drug-screening workflow.
//!
//! The claim: Locality makes real-time decisions and cannot hide staging
//! delays, so it accumulates far more tasks in the staging state than
//! Capacity, whose offline decisions let staging start the moment a
//! dependency completes and overlap with computation.

use simkit::SimTime;
use taskgraph::workloads::drug;
use unifaas::prelude::*;
use unifaas_bench::{drug_static_pool, grid};

fn main() {
    println!("=== Fig. 10: tasks in data staging over time (drug screening) ===\n");
    let mut results = Vec::new();
    for strategy in [SchedulingStrategy::Capacity, SchedulingStrategy::Locality] {
        let mut cfg = drug_static_pool().build();
        cfg.strategy = strategy;
        let report = SimRuntime::new(cfg, drug::generate(&drug::DrugParams::full()))
            .run()
            .expect("run failed");
        results.push(report);
    }

    let horizon = results
        .iter()
        .map(|r| r.makespan.as_secs_f64())
        .fold(0.0, f64::max);
    print!("{:>8}", "t(s)");
    for r in &results {
        print!(" {:>12}", r.scheduler);
    }
    println!();
    for t in grid(SimTime::ZERO, SimTime::from_secs_f64(horizon), 20) {
        print!("{:>8.0}", t.as_secs_f64());
        for r in &results {
            print!(" {:>12.0}", r.series.staging_tasks.value_at(t));
        }
        println!();
    }

    for r in &results {
        let mean = r
            .series
            .staging_tasks
            .mean_over(SimTime::ZERO, SimTime::ZERO + r.makespan);
        println!("  mean tasks in staging [{}]: {mean:.1}", r.scheduler);
    }
    println!("\nexpected: Locality holds many more tasks in staging than Capacity.");
}
