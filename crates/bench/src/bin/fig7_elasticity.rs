//! Fig. 7 — multi-endpoint elasticity.
//!
//! Setup (paper §V-D): three endpoints — EP1 on Qiming (max 100 workers),
//! EP2 on Dept. cluster (max 40), EP3 on Lab cluster (max 20), 20 workers
//! per node, 30 s idle timeout. Task types are pinned per endpoint:
//! 30 s tasks → EP1, 15 s → EP2, 10 s → EP3.
//!
//! Timeline: at t=10 submit 50×task1, 20×task2, 10×task3 (EP1 scales to
//! 60, EP2/EP3 to 20 each); EP3 goes idle and returns its workers ~t=50;
//! at t=70 submit 200/80/40 tasks (everything scales to its max); at the
//! end all endpoints return to zero. The whole cycle is repeated twice.

use fedci::hardware::ClusterSpec;
use simkit::{SimDuration, SimTime};
use taskgraph::{Dag, TaskSpec};
use unifaas::config::ScalingConfig;
use unifaas::prelude::*;
use unifaas_bench::print_series_grid;

fn main() {
    println!("=== Fig. 7: multi-endpoint elasticity ===\n");

    // Fast-provisioning variants of the clusters: the paper pre-allocated
    // its node pools, so batch queue delays are short here.
    let mut q = ClusterSpec::qiming();
    q.provision_delay_s = 3.0;
    let mut d = ClusterSpec::dept_cluster();
    d.provision_delay_s = 3.0;
    let mut l = ClusterSpec::lab_cluster();
    l.provision_delay_s = 3.0;

    let mut cfg = Config::builder()
        .endpoint(EndpointConfig::new("EP1", q, 0).elastic(0, 100, 20))
        .endpoint(EndpointConfig::new("EP2", d, 0).elastic(0, 40, 20))
        .endpoint(EndpointConfig::new("EP3", l, 0).elastic(0, 20, 20))
        .strategy(SchedulingStrategy::Pinned(vec![
            ("task1".into(), "EP1".into()),
            ("task2".into(), "EP2".into()),
            ("task3".into(), "EP3".into()),
        ]))
        .exec_noise_cv(0.0)
        .build();
    cfg.scaling = ScalingConfig {
        enabled: true,
        idle_timeout: SimDuration::from_secs(30),
        interval: SimDuration::from_secs(1),
        policy: unifaas::config::ScalingPolicyKind::Default,
    };

    // The workflow starts empty; bursts are injected on the Fig. 7
    // timeline, repeated twice ("We repeat the above process twice").
    let dag = Dag::new();
    let mut rt = SimRuntime::new(cfg, dag);
    let burst = |dag: &mut Dag, n1: usize, n2: usize, n3: usize| {
        let f1 = dag.register_function("task1");
        let f2 = dag.register_function("task2");
        let f3 = dag.register_function("task3");
        for _ in 0..n1 {
            dag.add_task(TaskSpec::compute(f1, 30.0), &[]);
        }
        for _ in 0..n2 {
            dag.add_task(TaskSpec::compute(f2, 15.0), &[]);
        }
        for _ in 0..n3 {
            dag.add_task(TaskSpec::compute(f3, 10.0), &[]);
        }
    };
    for cycle in 0..2u64 {
        let base = cycle * 220;
        rt.inject_at(SimTime::from_secs(base + 10), move |dag| {
            burst(dag, 50, 20, 10)
        });
        rt.inject_at(SimTime::from_secs(base + 70), move |dag| {
            burst(dag, 200, 80, 40)
        });
    }

    let report = rt.run().expect("run failed");
    assert_eq!(report.tasks_completed, 2 * (80 + 320));

    // The paper's 15 s ticks, then the end of the run.
    let end = SimTime::ZERO + report.makespan + SimDuration::from_secs(45);
    let ticks = || {
        (0..)
            .map(|i| SimTime::from_secs(15 * i))
            .take_while(move |&t| t < end)
            .chain([end])
    };
    println!("-- pending tasks per endpoint --");
    print_series_grid(&report.series.pending_tasks, ticks());
    println!("\n-- active workers per endpoint --");
    print_series_grid(&report.series.active_workers, ticks());

    // Shape checks matching the paper's narrative.
    let ep1 = report.series.active_workers.get("EP1").expect("EP1 series");
    let peak1 = ep1.points().iter().map(|(_, v)| *v).fold(0.0, f64::max);
    println!("\nEP1 peak workers: {peak1} (paper: scales to 100 in the second burst)");
    let ep3 = report.series.active_workers.get("EP3").expect("EP3 series");
    println!(
        "EP3 workers at t=65 s: {} (paper: returned to 0 after 30 s idle)",
        ep3.value_at(SimTime::from_secs(65))
    );
    println!(
        "workers at the very end: {}",
        report
            .series
            .active_workers
            .iter()
            .map(|(_, s)| s.points().last().map(|(_, v)| *v).unwrap_or(0.0))
            .sum::<f64>()
    );
}
