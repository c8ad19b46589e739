//! Knowledge ablation: how much of DHA's win depends on perfect knowledge?
//!
//! Table IV assumes "full knowledge can be retrieved from the profilers"
//! (the Oracle). This harness re-runs DHA on the static drug-screening
//! case study with the real observe–predict–decide loop instead: learned
//! profilers (random forest / Bayesian linear / OLS per function, per-pair
//! transfer models seeded by probing transfers), optionally warmed from a
//! prior run's history database.

use taskgraph::workloads::drug;
use unifaas::config::KnowledgeMode;
use unifaas::monitor::{HistoryDb, TaskRecord};
use unifaas::prelude::*;
use unifaas::profile::ModelFamily;
use unifaas_bench::{drug_static_pool, print_result_header, print_result_row};

fn dag() -> Dag {
    drug::generate(&drug::DrugParams::full())
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
                    endpoint: fedci::endpoint::EndpointId(ep),
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

fn main() {
    println!("=== Knowledge ablation: DHA on drug screening (static capacity) ===\n");
    print_result_header("knowledge source");

    // Oracle: Table IV's assumption.
    let mut cfg = drug_static_pool().build();
    cfg.strategy = SchedulingStrategy::Dha { rescheduling: true };
    let oracle = SimRuntime::new(cfg, dag()).run().expect("oracle run");
    print_result_row("Oracle (Table IV)", &oracle);

    // Learned, cold start: only probing transfers + online observation.
    let mut learned = Vec::new();
    for (family, label) in [
        (ModelFamily::RandomForest, "Learned: random forest"),
        (ModelFamily::BayesianLinear, "Learned: Bayesian linear"),
        (ModelFamily::Linear, "Learned: OLS"),
    ] {
        let mut cfg = drug_static_pool().build();
        cfg.strategy = SchedulingStrategy::Dha { rescheduling: true };
        cfg.knowledge = KnowledgeMode::Learned;
        cfg.model_family = family;
        let report = SimRuntime::new(cfg, dag()).run().expect("learned run");
        print_result_row(label, &report);
        learned.push((label, report));
    }

    // Learned + history: warm-started from prior runs.
    let mut cfg = drug_static_pool().build();
    cfg.strategy = SchedulingStrategy::Dha { rescheduling: true };
    cfg.knowledge = KnowledgeMode::Learned;
    let report = SimRuntime::new(cfg, dag())
        .with_history(synthetic_history())
        .run()
        .expect("warm run");
    print_result_row("Learned: forest + history", &report);
    learned.push(("Learned: forest + history", report));

    println!(
        "\n  {:<24} {:>12} {:>14}",
        "vs the oracle", "makespan", "transfer"
    );
    let pct = |x: f64, base: f64| (x / base - 1.0) * 100.0;
    for (label, r) in &learned {
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
