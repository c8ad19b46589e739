//! Figs. 12 & 13 — per-endpoint busy workers over time under dynamic
//! capacity, Capacity vs. DHA.
//!
//! The claim: Capacity fails to rebalance when capacity shifts (EP2's new
//! workers sit idle; shrunk EP1 becomes the bottleneck with a long tail),
//! while DHA's re-scheduling quickly floods the new capacity.

use simkit::SimTime;
use taskgraph::workloads::{drug, montage};
use unifaas::prelude::*;
use unifaas_bench::{drug_dynamic_pool, grid, montage_dynamic_pool, print_series_grid};

fn run_panel(
    title: &str,
    make_dag: impl Fn() -> Dag,
    pool: impl Fn() -> unifaas::config::ConfigBuilder,
    events: &str,
) {
    println!("-- {title} ({events}) --");
    for strategy in [
        SchedulingStrategy::Capacity,
        SchedulingStrategy::Dha { rescheduling: true },
    ] {
        let mut cfg = pool().build();
        cfg.strategy = strategy;
        let report = SimRuntime::new(cfg, make_dag()).run().expect("run failed");
        println!(
            "\n[{}] busy workers per endpoint (makespan {:.0} s):",
            report.scheduler,
            report.makespan.as_secs_f64()
        );
        let end = SimTime::ZERO + report.makespan;
        print_series_grid(&report.series.busy_workers, grid(SimTime::ZERO, end, 16));
    }
    println!();
}

fn main() {
    println!("=== Figs. 12-13: dynamic capacity timelines ===\n");
    run_panel(
        "Fig. 12: drug screening (12,001 fns)",
        || drug::generate(&drug::DrugParams::dynamic_study()),
        drug_dynamic_pool,
        "EP2 +600 workers @120 s, EP1 -280 @540 s",
    );
    run_panel(
        "Fig. 13: montage (11,340 fns)",
        || montage::generate(&montage::MontageParams::full()),
        montage_dynamic_pool,
        "EP1 +80 workers @120 s, EP2 -168 @300 s",
    );
    println!("expected: DHA's busy-worker curves jump onto new capacity right after the\nevents; Capacity leaves the added workers mostly idle and drags a long tail.");
}
