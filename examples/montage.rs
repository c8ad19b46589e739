//! The Montage astronomy mosaic workflow with elastic multi-endpoint
//! scaling (§IV-H): endpoints start cold, scale out in whole-node units as
//! the per-stage demand rises, and return their workers after the
//! configured idle interval.
//!
//! Run with: `cargo run --release --example montage`

use simkit::{SimDuration, SimTime};
use taskgraph::workloads::montage::{generate, MontageParams};
use unifaas::config::ScalingConfig;
use unifaas::prelude::*;

fn main() {
    // 200 tiles → 1,006 tasks with the classic montage structure.
    let dag = generate(&MontageParams::small(200));
    println!(
        "montage: {} tasks / {} functions, mean {:.1} s per task\n",
        dag.len(),
        dag.n_functions(),
        dag.summary().mean_task_seconds
    );

    let mut cfg = Config::builder()
        .endpoint(EndpointConfig::new("Qiming", ClusterSpec::qiming(), 0).elastic(0, 120, 20))
        .endpoint(EndpointConfig::new("Lab", ClusterSpec::lab_cluster(), 0).elastic(0, 40, 10))
        .strategy(SchedulingStrategy::Locality)
        .build();
    cfg.scaling = ScalingConfig {
        enabled: true,
        idle_timeout: SimDuration::from_secs(30),
        policy: unifaas::config::ScalingPolicyKind::Default,
    };

    let report = SimRuntime::new(cfg, dag).run().expect("workflow failed");
    println!(
        "completed {} tasks in {:.0} s (transfer {:.2} GB)\n",
        report.tasks_completed,
        report.makespan.as_secs_f64(),
        report.transfer_gb()
    );

    // Print the worker timeline: scale-out bursts for the parallel stages,
    // scale-in during the serial tail, release at the end.
    println!(
        "{:>8} {:>14} {:>14}",
        "t (s)", "Qiming workers", "Lab workers"
    );
    let end = SimTime::ZERO + report.makespan + SimDuration::from_secs(60);
    let step = SimDuration::from_secs_f64((end.as_secs_f64() / 12.0).max(1.0));
    let q = report.series.active_workers.get("Qiming").expect("series");
    let l = report.series.active_workers.get("Lab").expect("series");
    for (t, qv) in q.resample(SimTime::ZERO, end, step) {
        println!(
            "{:>8.0} {:>14.0} {:>14.0}",
            t.as_secs_f64(),
            qv,
            l.value_at(t)
        );
    }

    let final_workers = q.value_at(end) + l.value_at(end);
    println!("\nworkers at the end: {final_workers} (scaled in after the idle timeout)");
}
