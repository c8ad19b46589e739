//! The paper's evaluation (§V–§VI: Figs. 5–13, Tables III–V) and three
//! extension studies, one function per table or figure. [`EXPERIMENTS`]
//! lists them under the names `all_experiments` accepts.
//!
//! The §VI case studies go through [`Runs`], so a run that several tables
//! and figures read is simulated once per invocation. Runs unique to one
//! experiment call [`SimRuntime`] directly.

use fedci::endpoint::EndpointId;
use simkit::{SimDuration, SimTime};
use taskgraph::workloads::stress;
use unifaas::config::{ScalingConfig, ScalingPolicyKind};
use unifaas::monitor::{HistoryDb, TaskRecord};
use unifaas::prelude::*;
use unifaas::profile::ModelFamily;
use SchedulingStrategy::{Capacity, Locality};

use crate::{
    all_strategies, grid, print_report_grid, print_result_header, print_result_row,
    print_series_grid, Pool, Runs,
};

/// One table or figure: prints it, reading shared runs from the memo.
pub type Experiment = fn(&mut Runs);

/// Every experiment, under the name `all_experiments` accepts, in the
/// order a full run prints them.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("fig5_latency", fig5_latency),
    ("fig6_scaling", fig6_scaling),
    ("fig7_elasticity", fig7_elasticity),
    ("fig8_workloads", fig8_workloads),
    ("table3_overhead", table3_overhead),
    ("table4_static", table4_static),
    ("fig9_utilization", fig9_utilization),
    ("fig10_staging", fig10_staging),
    ("fig11_distribution", fig11_distribution),
    ("table5_dynamic", table5_dynamic),
    ("fig12_13_dynamic", fig12_13_dynamic),
    ("ablations", ablations),
    ("knowledge_ablation", knowledge_ablation),
    ("scaling_coordination", scaling_coordination),
    ("claims", crate::claims::claims),
];

const DHA: SchedulingStrategy = SchedulingStrategy::Dha { rescheduling: true };
const DHA_NO_RESCHED: SchedulingStrategy = SchedulingStrategy::Dha {
    rescheduling: false,
};

/// Fig. 5 — UniFaaS latency breakdown.
///
/// The paper runs a "hello world" task (≈1,087 ms execution) with a 1 MB
/// input file on Qiming, 20 times, and reports per-component latency:
/// scheduling (incl. prediction) ≈2 ms, local mocking 0.08 ms within
/// submission, data transfer and dispatch/polling dominated by the
/// network, execution ≈1,087 ms.
///
/// We run the same workload 20 times through the simulated fabric with
/// input prestaging disabled (so the 1 MB file actually transfers) and
/// report the mean per-stage latency. Scheduling is real measured wall
/// clock; the other stages are fabric model times.
fn fig5_latency(_: &mut Runs) {
    println!("=== Fig. 5: latency breakdown (hello world + 1 MB file, 20 runs) ===\n");
    let runs = 20;
    let mut totals = [0.0f64; 6]; // sched, staging, submission, queue, exec, poll
    let mut makespan = 0.0;
    for seed in 0..runs {
        let cfg = Config::builder()
            .endpoint(EndpointConfig::new("Qiming", ClusterSpec::qiming(), 1))
            .strategy(DHA)
            .seed(0xF165 + seed)
            .build();
        let report = SimRuntime::new(cfg, stress::hello_world())
            .prestage_inputs(false)
            .run()
            .expect("run failed");
        let (sched, staging, submission, queue, exec, poll) = report.latency.means();
        // Scheduling in the breakdown is measured wall clock of the
        // scheduler hooks (the sim charges it zero virtual time).
        totals[0] += sched;
        totals[1] += staging;
        totals[2] += submission;
        totals[3] += queue;
        totals[4] += exec;
        totals[5] += poll;
        makespan += report.makespan.as_secs_f64();
    }
    let n = runs as f64;
    let labels = [
        "scheduling (wall, incl. prediction)",
        "data transfer (1 MB staging)",
        "submission (client + dispatch)",
        "endpoint queue",
        "execution",
        "result polling",
    ];
    println!("{:<38} {:>12}", "stage", "mean (ms)");
    for (label, total) in labels.iter().zip(totals.iter()) {
        println!("{:<38} {:>12.4}", label, total / n * 1_000.0);
    }
    println!("{:<38} {:>12.2}", "end-to-end", makespan / n * 1_000.0);
    println!(
        "\npaper: execution ~1,087 ms dominates; scheduling ~2 ms; mocking 0.08 ms;\n\
         transfer/dispatch/polling are network-bound. Framework overhead must be\n\
         a small fraction of the end-to-end time."
    );
}

/// Fig. 6 — strong and weak scaling of UniFaaS, 1 to 16 endpoints.
///
/// Setup (paper §V-C): every endpoint has 24 workers, all deployed on
/// Qiming (homogeneous). Strong scaling runs a fixed workload —
/// (a) 100,000 × 1 s tasks, (b) 20,000 × 5 s tasks — on 1..16 endpoints.
/// Weak scaling fixes the load per worker — (a) 260 × 1 s or (b) 52 × 5 s
/// tasks per worker.
///
/// Expected shape: 5 s tasks scale near-ideally to ~12 endpoints; 1 s
/// tasks stop improving around 6 endpoints because the client's serial
/// submission overhead becomes the bottleneck; weak-scaling curves rise
/// once the client saturates.
fn fig6_scaling(_: &mut Runs) {
    const WORKERS_PER_EP: usize = 24;
    let run = |dag: Dag, n_endpoints: usize| {
        let mut b = Config::builder();
        for i in 0..n_endpoints {
            b = b.endpoint(EndpointConfig::new(
                &format!("EP{}", i + 1),
                ClusterSpec::qiming(),
                WORKERS_PER_EP,
            ));
        }
        // Locality keeps per-decision cost low and the workload has no
        // data, so scheduling reduces to load balancing across the pool.
        let cfg = b.strategy(Locality).build();
        let report = SimRuntime::new(cfg, dag).run().expect("run failed");
        report.makespan.as_secs_f64()
    };

    println!("=== Fig. 6: strong and weak scaling (24 workers/endpoint) ===\n");
    println!(
        "{:>10} {:>16} {:>16} {:>16} {:>16}",
        "endpoints", "strong 1s (s)", "strong 5s (s)", "weak 1s (s)", "weak 5s (s)"
    );
    for n in [1usize, 2, 4, 6, 8, 12, 16] {
        let strong1 = run(stress::strong_scaling(1.0), n);
        let strong5 = run(stress::strong_scaling(5.0), n);
        let weak1 = run(stress::weak_scaling(1.0, n * WORKERS_PER_EP), n);
        let weak5 = run(stress::weak_scaling(5.0, n * WORKERS_PER_EP), n);
        println!(
            "{:>10} {:>16.0} {:>16.0} {:>16.0} {:>16.0}",
            n, strong1, strong5, weak1, weak5
        );
    }
    println!(
        "\nideal strong scaling: 100,000 x 1 s or 20,000 x 5 s over 24n workers, both ~4,167/n s;\n\
         expected: 5 s tasks near-ideal to ~12 endpoints; 1 s tasks flatten around 6\n\
         endpoints (client submission becomes the bottleneck); weak curves rise there."
    );
}

/// Fig. 7 — multi-endpoint elasticity.
///
/// Setup (paper §V-D): three endpoints — EP1 on Qiming (max 100 workers),
/// EP2 on Dept. cluster (max 40), EP3 on Lab cluster (max 20), 20 workers
/// per node, 30 s idle timeout. Task types are pinned per endpoint:
/// 30 s tasks → EP1, 15 s → EP2, 10 s → EP3.
///
/// Timeline: at t=10 submit 50×task1, 20×task2, 10×task3 (EP1 scales to
/// 60, EP2/EP3 to 20 each); EP3 goes idle and returns its workers ~t=50;
/// at t=70 submit 200/80/40 tasks (everything scales to its max); at the
/// end all endpoints return to zero. The whole cycle is repeated twice.
fn fig7_elasticity(_: &mut Runs) {
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
        policy: ScalingPolicyKind::Default,
    };

    // The workflow starts empty; bursts are injected on the Fig. 7
    // timeline, repeated twice ("We repeat the above process twice").
    let mut rt = SimRuntime::new(cfg, Dag::new());
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

/// Fig. 8 — workload statistics self-check.
///
/// The caption publishes: drug screening = 24,001 functions, 1,447 h total
/// compute, ≈220 s average, 480.64 GB data; montage = 11,340 functions,
/// ≈6.4 s average, 673.49 GB data. The generators must reproduce these
/// aggregates exactly (durations and sizes are calibrated).
fn fig8_workloads(_: &mut Runs) {
    let print_summary = |name: &str, dag: &Dag, (p_tasks, p_mean, p_gb): (usize, f64, f64)| {
        let s = dag.summary();
        let gb = s.total_data_bytes as f64 / (1u64 << 30) as f64;
        println!("{name}");
        println!("  {:<26} {:>12} {:>12}", "metric", "paper", "generated");
        println!("  {:<26} {:>12} {:>12}", "functions", p_tasks, s.n_tasks);
        println!(
            "  {:<26} {:>12.1} {:>12.1}",
            "mean task seconds", p_mean, s.mean_task_seconds
        );
        println!("  {:<26} {:>12.2} {:>12.2}", "total data (GB)", p_gb, gb);
        println!("  {:<26} {:>12} {:>12}", "task types", "-", s.n_functions);
        println!("  {:<26} {:>12} {:>12}", "edges", "-", s.n_edges);
        println!(
            "  {:<26} {:>12} {:>12.0}",
            "total compute (h)",
            "-",
            s.total_compute_seconds / 3600.0
        );
        println!();
    };

    println!("=== Fig. 8: evaluation workloads ===\n");
    let d = Pool::DrugStatic.dag(0);
    print_summary("drug screening workflow", &d, (24_001, 220.0, 480.64));
    let m = Pool::MontageStatic.dag(0);
    print_summary("montage workflow", &m, (11_340, 34.3, 673.49));
    println!(
        "dynamic-capacity drug variant: {} functions (paper: 12,001)",
        Pool::DrugDynamic.dag(0).len()
    );
    println!(
        "\nnote: the paper's caption states both \"108 hours total\" and \"6.4 s\n\
         average\" for montage, which are mutually inconsistent (11,340 x 6.4 s\n\
         = 20.2 h). Table IV's makespans corroborate the 108 h total, so the\n\
         generator calibrates to 108 h (mean 34.3 s/task)."
    );
}

/// Table III — scheduler overhead per task.
///
/// The paper schedules the drug-screening workflow (24,001 functions) on
/// the Workstation and reports wall-clock overhead per task:
/// Capacity 1.72e-4 s, Locality 3.00e-3 s, DHA 3.46e-3 s.
///
/// We run the same workflow through the simulator and measure the *real*
/// wall-clock time spent inside scheduler hooks (decision logic +
/// prediction), divided by tasks — the same metric. Absolute numbers
/// depend on the host CPU; the ordering (Capacity ≪ Locality < DHA) is
/// the reproducible claim.
fn table3_overhead(runs: &mut Runs) {
    println!("=== Table III: scheduler overhead (drug screening, 24,001 tasks) ===\n");
    println!(
        "{:<12} {:>16} {:>14} {:>12}",
        "algorithm", "overhead/task (s)", "total (s)", "hook calls"
    );
    for report in runs.get(Pool::DrugStatic, 0, &all_strategies()) {
        println!(
            "{:<12} {:>16.2e} {:>14.2} {:>12}",
            report.scheduler,
            report.scheduler_overhead_per_task(),
            report.scheduler_wall.as_secs_f64(),
            report.scheduler_calls
        );
    }
    println!("\npaper: Capacity 1.72e-4, Locality 3.00e-3, DHA 3.46e-3 (s/task)");
    println!("the ordering Capacity << Locality < DHA is the reproduced result.");
}

/// Table IV — static resource capacity case study (§VI-A).
///
/// Drug screening (24,001 fns) on 2000/384/48/52 workers and montage
/// (11,340 fns) on 120/240/48/52 workers across Taiyi/Qiming/Dept/Lab,
/// comparing Capacity, Locality and DHA (with oracle knowledge, as the
/// paper assumes) plus single-cluster baselines.
///
/// Paper rows — drug: Capacity 3,240 s / 4.86 GB, Locality 3,882 / 53.46,
/// DHA 2,898 / 44.94, Taiyi-only 3,763 / 0; montage: Capacity 1,027 /
/// 2.57, Locality 1,055 / 13.35, DHA 909 / 18.27, Qiming-only 1,994 / 0.
/// The paper's claims (DHA wins makespan, Capacity moves the least data,
/// Locality moves the most on drug, federating beats the baseline) are
/// rows of `claims`, checked over 20 seeds.
fn table4_static(runs: &mut Runs) {
    println!("=== Table IV: static resource capacity ===\n");
    for (workflow, pool, label, baseline) in [
        (
            "drug screening workflow (24,001 functions)",
            Pool::DrugStatic,
            "Baseline: Only Taiyi",
            Pool::DrugTaiyiOnly,
        ),
        (
            "montage workflow (11,340 functions)",
            Pool::MontageStatic,
            "Baseline: Only Qiming",
            Pool::MontageQimingOnly,
        ),
    ] {
        if pool == Pool::MontageStatic {
            println!();
        }
        print_result_header(workflow);
        for report in runs.get(pool, 0, &all_strategies()) {
            print_result_row(&report.scheduler, report);
        }
        print_result_row(label, runs.get(baseline, 0, &[Capacity])[0]);
    }
    println!(
        "\npaper: drug — Cap 3240/4.86, Loc 3882/53.46, DHA 2898/44.94, base 3763/0;\n\
         montage — Cap 1027/2.57, Loc 1055/13.35, DHA 909/18.27, base 1994/0.\n\
         over 20 seeds (see `claims`): drug DHA < Capacity < Locality, and DHA and Capacity\n\
         beat the baseline; montage DHA < Capacity on 15 of 20 seeds, every strategy beats\n\
         the baseline; Capacity moves the least data; baselines transfer nothing."
    );
}

/// Fig. 9 — worker utilization over time under static resource capacity.
///
/// Same runs as Table IV; the claim: DHA holds consistently high
/// utilization while Capacity and Locality decay into a long tail.
fn fig9_utilization(runs: &mut Runs) {
    println!("=== Fig. 9: worker utilization under static capacity ===\n");
    for (workflow, pool) in [
        ("drug screening", Pool::DrugStatic),
        ("montage", Pool::MontageStatic),
    ] {
        println!("-- {workflow}: aggregate worker utilization (%) over time --");
        let reports = runs.get(pool, 0, &all_strategies());
        print_report_grid(&reports, 16, 1, |r, t| {
            if (t - SimTime::ZERO) <= r.makespan {
                r.series.utilization_at(t) * 100.0
            } else {
                0.0
            }
        });
        for r in &reports {
            println!(
                "  mean utilization [{}]: {:.1}%",
                r.scheduler,
                r.mean_utilization() * 100.0
            );
        }
        println!();
    }
    println!(
        "over 20 seeds (see `claims`): DHA's mean utilization beats Locality's on both\n\
         workflows, and Capacity's on drug (montage: 15 of 20 seeds); Capacity/Locality\n\
         show a long tail."
    );
}

/// Fig. 10 — number of tasks in the data-staging state over time,
/// Locality vs. Capacity, on the drug-screening workflow.
///
/// The claim: Locality makes real-time decisions and cannot hide staging
/// delays, so it accumulates far more tasks in the staging state than
/// Capacity, whose offline decisions let staging start the moment a
/// dependency completes and overlap with computation.
fn fig10_staging(runs: &mut Runs) {
    println!("=== Fig. 10: tasks in data staging over time (drug screening) ===\n");
    let reports = runs.get(Pool::DrugStatic, 0, &[Capacity, Locality]);
    print_report_grid(&reports, 12, 0, |r, t| r.series.staging_tasks.value_at(t));
    for r in &reports {
        let mean = r
            .series
            .staging_tasks
            .mean_over(SimTime::ZERO, SimTime::ZERO + r.makespan);
        println!("  mean tasks in staging [{}]: {mean:.1}", r.scheduler);
    }
    println!("\nexpected: Locality holds many more tasks in staging than Capacity.");
}

/// Fig. 11 — workload distribution of Capacity vs. DHA on the
/// drug-screening workflow (static capacity).
///
/// The claim: Capacity distributes tasks proportionally to worker counts;
/// DHA is heterogeneity-aware and skews toward Taiyi, the faster cluster.
fn fig11_distribution(runs: &mut Runs) {
    println!("=== Fig. 11: workload distribution (drug screening) ===\n");
    let reports = runs.get(Pool::DrugStatic, 0, &[Capacity, DHA]);
    let total = |r: &RunReport| r.tasks_per_endpoint.iter().map(|(_, c)| c).sum::<usize>();
    print!("{:<10}", "scheduler");
    for (label, _) in &reports[0].tasks_per_endpoint {
        print!(" {label:>10}");
    }
    println!(" {:>10}", "total");
    for r in &reports {
        print!("{:<10}", r.scheduler);
        for (_, c) in &r.tasks_per_endpoint {
            print!(" {c:>10}");
        }
        println!(" {:>10}", total(r));
    }
    // Percent view.
    println!();
    for r in &reports {
        print!("{:<10}", r.scheduler);
        for (_, c) in &r.tasks_per_endpoint {
            print!(" {:>9.1}%", 100.0 * *c as f64 / total(r) as f64);
        }
        println!();
    }
    println!(
        "\nworker shares: Taiyi 80.5%, Qiming 15.5%, Dept 1.9%, Lab 2.1%.\n\
         Capacity tracks the worker shares. The paper has DHA give Taiyi even more; here it\n\
         does on 6 of 20 seeds (see `claims`)."
    );
}

/// Table V — dynamic resource capacity case study (§VI-B).
///
/// Drug screening (12,001 fns): 400/600/48/52 initial workers; at t=120
/// EP2 gains 600 workers; at t=540 EP1 loses 280. Montage (11,340 fns):
/// 40/240/48/52 initial; at t=120 EP1 gains 80; at t=300 EP2 loses 168.
///
/// Paper rows — drug: Capacity 3,610 s / 3.26 GB, Locality 2,130 / 43.61,
/// DHA 1,666 / 33.01, DHA-no-resched 2,183 / 39.47; montage: Capacity
/// 2,671 / 2.48, Locality 1,360 / 14.18, DHA 1,257 / 31.05, no-resched
/// 1,868 / 29.62. The paper's claims (DHA < Locality < Capacity on
/// makespan, re-scheduling buys DHA ~25-30%) are rows of `claims`; DHA <
/// Locality fails on montage. Capacity collapses because it cannot react
/// to the capacity shift.
fn table5_dynamic(runs: &mut Runs) {
    println!("=== Table V: dynamic resource capacity ===\n");
    for (workflow, pool) in [
        (
            "drug screening workflow (12,001 functions)",
            Pool::DrugDynamic,
        ),
        ("montage workflow (11,340 functions)", Pool::MontageDynamic),
    ] {
        if pool == Pool::MontageDynamic {
            println!();
        }
        print_result_header(workflow);
        for report in runs.get(pool, 0, &[Capacity, Locality, DHA, DHA_NO_RESCHED]) {
            print_result_row(&report.scheduler, report);
        }
    }
    println!(
        "\npaper: drug — Cap 3610/3.26, Loc 2130/43.61, DHA 1666/33.01, no-resched 2183/39.47;\n\
         montage — Cap 2671/2.48, Loc 1360/14.18, DHA 1257/31.05, no-resched 1868/29.62.\n\
         over 20 seeds (see `claims`): drug DHA < Locality < Capacity; montage Locality <\n\
         Capacity, but DHA loses to Locality on every seed; re-scheduling helps DHA on both."
    );
}

/// Figs. 12 & 13 — per-endpoint busy workers over time under dynamic
/// capacity, Capacity vs. DHA.
///
/// The claim: Capacity fails to rebalance when capacity shifts (EP2's new
/// workers sit idle; shrunk EP1 becomes the bottleneck with a long tail),
/// while DHA's re-scheduling quickly floods the new capacity.
fn fig12_13_dynamic(runs: &mut Runs) {
    println!("=== Figs. 12-13: dynamic capacity timelines ===\n");
    for (title, pool, events) in [
        (
            "Fig. 12: drug screening (12,001 fns)",
            Pool::DrugDynamic,
            "EP2 +600 workers @120 s, EP1 -280 @540 s",
        ),
        (
            "Fig. 13: montage (11,340 fns)",
            Pool::MontageDynamic,
            "EP1 +80 workers @120 s, EP2 -168 @300 s",
        ),
    ] {
        println!("-- {title} ({events}) --");
        for report in runs.get(pool, 0, &[Capacity, DHA]) {
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
    println!("expected: DHA's busy-worker curves jump onto new capacity right after the\nevents; Capacity leaves the added workers mostly idle and drags a long tail.");
}

/// Ablation studies of DHA's design choices (DESIGN.md's starred items).
///
/// The paper presents DHA as three mechanisms stacked on HEFT-style
/// prioritization: EFT endpoint selection, *delay scheduling* and
/// *re-scheduling*. Table V ablates only re-scheduling; this harness
/// additionally ablates the delay mechanism and sweeps the steal
/// hysteresis, on the dynamic-capacity drug workload where the mechanisms
/// matter most.
fn ablations(_: &mut Runs) {
    let dha = |rescheduling, delay_dispatch, steal_threshold_pct| {
        let strategy = SchedulingStrategy::DhaCustom {
            rescheduling,
            delay_dispatch,
            steal_threshold_pct,
        };
        Pool::DrugDynamic.run(strategy, 0)
    };
    println!("=== Ablations: DHA mechanisms (drug screening, dynamic capacity) ===\n");

    print_result_header("delay + re-scheduling ablation grid");
    print_result_row("DHA (full)", &dha(true, true, 90));
    print_result_row("- re-scheduling", &dha(false, true, 90));
    print_result_row("- delay", &dha(true, false, 90));
    print_result_row("- delay - re-sched", &dha(false, false, 90));

    println!();
    print_result_header("steal hysteresis sweep (delay + re-scheduling on)");
    for pct in [100u8, 95, 90, 75, 50] {
        print_result_row(&format!("threshold {pct}%"), &dha(true, true, pct));
    }

    println!(
        "\nexpected: the full DHA wins; removing the delay mechanism shrinks the\n\
         re-schedulable pool (tasks stuck in endpoint queues cannot be stolen), so\n\
         '- delay' loses most of re-scheduling's benefit; very low thresholds (50%)\n\
         under-steal, 100% risks churn."
    );
}

/// Knowledge ablation: how much of DHA's win depends on perfect knowledge?
///
/// Table IV assumes "full knowledge can be retrieved from the profilers"
/// (the Oracle). This harness re-runs DHA on the static drug-screening
/// case study with the real observe–predict–decide loop instead: learned
/// profilers (random forest / Bayesian linear / OLS per function, per-pair
/// transfer models seeded by probing transfers), optionally warmed from a
/// prior run's history database.
fn knowledge_ablation(runs: &mut Runs) {
    let learned = |family| {
        let mut cfg = Pool::DrugStatic.config().build();
        cfg.strategy = DHA;
        cfg.knowledge = KnowledgeMode::Learned;
        cfg.model_family = family;
        SimRuntime::new(cfg, Pool::DrugStatic.dag(0))
    };
    println!("=== Knowledge ablation: DHA on drug screening (static capacity) ===\n");
    print_result_header("knowledge source");

    // Oracle: Table IV's assumption.
    let oracle = runs.get(Pool::DrugStatic, 0, &[DHA])[0];
    print_result_row("Oracle (Table IV)", oracle);

    // Learned, cold start: only probing transfers + online observation;
    // then the forest warm-started from prior runs.
    let mut rows = Vec::new();
    for (label, rt) in [
        ("Learned: random forest", learned(ModelFamily::RandomForest)),
        (
            "Learned: Bayesian linear",
            learned(ModelFamily::BayesianLinear),
        ),
        ("Learned: OLS", learned(ModelFamily::Linear)),
        (
            "Learned: forest + history",
            learned(ModelFamily::RandomForest).with_history(synthetic_history()),
        ),
    ] {
        let report = rt.run().expect("learned run");
        print_result_row(label, &report);
        rows.push((label, report));
    }

    println!(
        "\n  {:<24} {:>12} {:>14}",
        "vs the oracle", "makespan", "transfer"
    );
    let pct = |x: f64, base: f64| (x / base - 1.0) * 100.0;
    for (label, r) in &rows {
        println!(
            "  {label:<24} {:>+11.1}% {:>+13.1}%",
            pct(r.makespan.as_secs_f64(), oracle.makespan.as_secs_f64()),
            pct(r.transfer_gb(), oracle.transfer_gb())
        );
    }

    println!(
        "\nobserved: each model family makes its own schedule (the families do not\n\
         coincide on decisions). Cold-start forest and Bayesian linear run a few\n\
         percent over the oracle; warm-started from a history database, the forest\n\
         lands within ~1% of it, so the gap is the cost of learning online. OLS\n\
         finishes sooner than the oracle but stages far more data: the oracle's\n\
         greedy EFT plan is not the best schedule on this workload."
    );
}

/// Builds a history database standing in for "prior runs of the same
/// workflow": per-function duration samples on each cluster.
fn synthetic_history() -> HistoryDb {
    let mut db = HistoryDb::new();
    let clusters: [(u16, u32, f64, u32, f64); 4] = [
        (0, 40, 2.4, 192, 1.10), // Taiyi
        (1, 16, 2.6, 64, 1.00),  // Qiming
        (2, 48, 2.4, 770, 1.05), // Dept
        (3, 26, 2.2, 128, 0.95), // Lab
    ];
    let stages: [(&str, f64, u64); 4] = [
        ("dock", 240.0, 20 << 20),
        ("simulate", 420.0, 25 << 20),
        ("featurize", 150.0, 20 << 20),
        ("fingerprint", 70.0, 12 << 20),
    ];
    for (ep, cores, ghz, ram, speed) in clusters {
        for (function, secs, input) in stages {
            for k in 0..6 {
                db.push(TaskRecord {
                    function: function.into(),
                    endpoint: EndpointId(ep),
                    input_bytes: input,
                    duration_seconds: secs / speed * (0.95 + 0.02 * k as f64),
                    output_bytes: input / 2,
                    cores,
                    cpu_ghz: ghz,
                    ram_gb: ram,
                    success: true,
                });
            }
        }
    }
    db
}

/// Scheduling–elasticity coordination study (the paper's future work).
///
/// Compares the default policy ("scale out aggressively" on task counts)
/// with the coordinated policy (provision by predicted backlog seconds,
/// skipping batch queues slower than the backlog they would relieve) on a
/// bursty workload over clusters with very different provisioning delays.
///
/// The metric trade-off: makespan vs. worker-seconds provisioned (what a
/// facility bills you for).
fn scaling_coordination(_: &mut Runs) {
    let run = |policy: ScalingPolicyKind| {
        let mut taiyi = ClusterSpec::taiyi(); // slow batch queue (90 s)
        taiyi.provision_delay_s = 90.0;
        let mut lab = ClusterSpec::lab_cluster(); // fast queue (2 s)
        lab.provision_delay_s = 2.0;
        let mut cfg = Config::builder()
            .endpoint(EndpointConfig::new("Taiyi", taiyi, 0).elastic(0, 400, 40))
            .endpoint(EndpointConfig::new("Lab", lab, 0).elastic(0, 60, 10))
            .strategy(DHA)
            .build();
        cfg.scaling = ScalingConfig {
            enabled: true,
            idle_timeout: SimDuration::from_secs(30),
            policy,
        };
        // Three bursts of differently-sized tasks, injected over time.
        let mut rt = SimRuntime::new(cfg, Dag::new());
        for (at, n, secs) in [(5, 200, 20.0), (300, 60, 120.0), (600, 400, 5.0)] {
            rt.inject_at(SimTime::from_secs(at), move |dag| {
                let f = dag.register_function("burst");
                for _ in 0..n {
                    dag.add_task(TaskSpec::compute(f, secs), &[]);
                }
            });
        }
        rt.run().expect("run failed")
    };

    println!("=== Scheduling-elasticity coordination (bursty workload) ===\n");
    println!(
        "{:<26} {:>12} {:>20} {:>14}",
        "policy", "makespan (s)", "worker-seconds", "peak workers"
    );
    for (label, policy) in [
        ("Default", ScalingPolicyKind::Default),
        (
            "Coordinated(drain 60s)",
            ScalingPolicyKind::Coordinated {
                target_drain_seconds: 60.0,
            },
        ),
        (
            "Coordinated(drain 180s)",
            ScalingPolicyKind::Coordinated {
                target_drain_seconds: 180.0,
            },
        ),
    ] {
        let report = run(policy);
        let end = SimTime::ZERO + report.makespan + SimDuration::from_secs(60);
        let provisioned = report.series.active_total.integral(SimTime::ZERO, end);
        let peak = report
            .series
            .active_total
            .points()
            .iter()
            .map(|(_, v)| *v)
            .fold(0.0, f64::max);
        println!(
            "{:<26} {:>12.0} {:>20.0} {:>14.0}",
            label,
            report.makespan.as_secs_f64(),
            provisioned,
            peak
        );
        assert_eq!(report.tasks_completed, 660);
    }
    println!(
        "\nexpected: the coordinated policy buys nearly the same makespan with far\n\
         fewer provisioned worker-seconds — it right-sizes node requests to the\n\
         predicted backlog and avoids 90 s batch queues for bursts that drain\n\
         faster than that."
    );
}
