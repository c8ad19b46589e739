//! Integration tests for the tracing/telemetry layer: a traced run must
//! produce per-task lifecycle spans on per-endpoint tracks, one scheduler
//! decision record per DHA placement and loadable Perfetto/JSONL exports —
//! and tracing must never perturb the simulation itself (the reports of a
//! traced and an untraced run are bit-identical).
//!
//! Also exercises the release-mode counter-reconciliation harness
//! (`Config::verify`), which promotes the debug-only internal asserts into
//! a check CI can run on release builds.

use fedci::hardware::ClusterSpec;
use taskgraph::workloads::drug;
use unifaas::config::ScalingConfig;
use unifaas::prelude::*;
use unifaas::trace::DecisionKind;

// Deliberately small worker pools so DHA must spread the workload across
// all four endpoints — that's what makes cross-endpoint transfers (and
// per-endpoint tracks in the export) appear.
fn testbed(strategy: SchedulingStrategy) -> Config {
    Config::builder()
        .endpoint(EndpointConfig::new("Taiyi", ClusterSpec::taiyi(), 16))
        .endpoint(EndpointConfig::new("Qiming", ClusterSpec::qiming(), 8))
        .endpoint(EndpointConfig::new("Dept", ClusterSpec::dept_cluster(), 4))
        .endpoint(EndpointConfig::new("Lab", ClusterSpec::lab_cluster(), 4))
        .strategy(strategy)
        .build()
}

fn drug_dag() -> Dag {
    drug::generate(&drug::DrugParams::small(60)) // 241 tasks
}

#[test]
fn traced_dha_run_records_a_decision_per_placement() {
    let dag = drug_dag();
    let n_tasks = dag.len();
    let report = SimRuntime::new(testbed(SchedulingStrategy::Dha { rescheduling: true }), dag)
        .with_trace(TraceConfig::default())
        .run()
        .unwrap();
    assert_eq!(report.tasks_completed, n_tasks);
    let trace = report.trace.as_ref().expect("traced run returns a trace");

    // Every task that became ready got exactly one Initial placement record;
    // rescheduling may add Steal records on top.
    let initial = trace
        .decisions
        .iter()
        .filter(|d| d.kind == DecisionKind::Initial)
        .count();
    assert_eq!(initial, n_tasks, "one Initial decision per task");
    assert_eq!(trace.dropped_decisions, 0);

    for d in &trace.decisions {
        assert!(!d.candidates.is_empty(), "decision has a candidate set");
        assert!((d.chosen.0 as usize) < 4, "chosen endpoint in range");
        assert!(
            d.candidates.iter().any(|c| c.ep == d.chosen),
            "chosen endpoint appears among the candidates"
        );
        assert!(d.chosen_eft_s.is_finite());
        // The winner was actually evaluated, never pruned.
        let winner = d.candidates.iter().find(|c| c.ep == d.chosen).unwrap();
        assert!(winner.eft_s.is_some(), "winner has a full EFT evaluation");
    }

    // The drug pipeline moves data between stages, so the data plane must
    // have recorded transfer rationale too.
    assert!(!trace.transfers.is_empty(), "transfer records present");
    for t in &trace.transfers {
        assert!(t.bytes > 0);
        assert!(t.replica_candidates >= 1);
        assert!(t.attempt >= 1);
        assert_ne!(t.src, t.dst);
    }
}

#[test]
fn perfetto_export_is_balanced_and_has_endpoint_tracks() {
    let dag = drug_dag();
    let report = SimRuntime::new(testbed(SchedulingStrategy::Dha { rescheduling: true }), dag)
        .with_trace(TraceConfig::default())
        .run()
        .unwrap();
    let trace = report.trace.as_ref().unwrap();
    assert_eq!(trace.tracer.dropped(), 0, "default ring holds a small run");

    let mut buf = Vec::new();
    trace.export_perfetto(&mut buf).unwrap();
    let s = String::from_utf8(buf).unwrap();

    // Structurally a Chrome trace_event JSON object.
    assert!(s.starts_with("{\"traceEvents\":["));
    assert!(
        s.trim_end().ends_with("]}"),
        "closed JSON: ...{}",
        &s[s.len() - 20..]
    );

    // One process_name metadata record per track; all four endpoints appear.
    for label in ["Taiyi", "Qiming", "Dept", "Lab"] {
        assert!(
            s.contains(&format!("\"args\":{{\"name\":\"{label}\"}}")),
            "endpoint track {label} named via process_name metadata"
        );
    }

    // Async spans balance: every `b` has a matching `e` (finish() closes
    // dangling spans before export).
    let begins = s.matches("\"ph\":\"b\"").count();
    let ends = s.matches("\"ph\":\"e\"").count();
    assert_eq!(begins, ends, "balanced async span events");
    assert!(begins > 0);

    // The lifecycle stages show up as span categories.
    for stage in ["ready", "staging", "dispatched", "executing", "polled"] {
        assert!(
            s.contains(&format!("\"cat\":\"{stage}\"")),
            "lifecycle stage {stage} present"
        );
    }

    // JSONL sibling: every line is a self-contained JSON object.
    let mut buf = Vec::new();
    trace.export_jsonl(&mut buf).unwrap();
    let jsonl = String::from_utf8(buf).unwrap();
    assert!(jsonl.lines().count() >= trace.tracer.len());
    for line in jsonl.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "bad line: {line}"
        );
    }
    assert!(jsonl.contains("\"kind\":\"decision\""));
    assert!(jsonl.contains("\"kind\":\"transfer\""));
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let strategy = SchedulingStrategy::Dha { rescheduling: true };
    // The second input is a layered bag on small pools, which waits mostly
    // in DHA's delay queues; doubling one endpoint's workers mid-run makes
    // the re-scheduling pass steal. The pass's class-verdict shortcut skips
    // verdict-covered tasks whether or not decisions are traced, so both
    // runs make the same decisions and the trace still records the steals.
    let bag_cfg = Config::builder()
        .endpoint(EndpointConfig::new("Taiyi", ClusterSpec::taiyi(), 8))
        .endpoint(EndpointConfig::new("Qiming", ClusterSpec::qiming(), 8))
        .strategy(strategy.clone())
        .capacity_event(20, 1, 8)
        .build();
    let inputs = [
        (testbed(strategy), drug_dag(), TraceConfig::default(), false),
        (
            bag_cfg,
            taskgraph::workloads::stress::layered_bag(300, 3, 5.0),
            TraceConfig::at_level(TraceLevel::Full),
            true,
        ),
    ];
    for (cfg, dag, trace_cfg, must_steal) in inputs {
        let n_tasks = dag.len();
        let base = SimRuntime::new(cfg.clone(), dag.clone()).run().unwrap();
        let traced = SimRuntime::new(cfg, dag)
            .with_trace(trace_cfg)
            .run()
            .unwrap();
        // Bit-identical outcomes: tracing must not touch RNG draws, event
        // order or any scheduling decision.
        assert_eq!(base.tasks_completed, n_tasks);
        assert_eq!(base.determinism_digest(), traced.determinism_digest());
        assert!(base.trace.is_none());
        let trace = traced.trace.as_ref().expect("traced run returns a trace");
        assert_eq!(trace.dropped_decisions, 0);
        if must_steal {
            let steals = trace
                .decisions
                .iter()
                .filter(|d| d.kind == DecisionKind::Steal)
                .count();
            assert!(steals > 0, "the capacity event must trigger steals");
        }
    }
}

#[test]
fn counter_validation_runs_under_faults_and_scaling() {
    // `verify(true)` turns the debug-only reconciliation asserts into
    // release-mode checks: every periodic tick full-scans task states
    // against the transition-maintained counters and panics on drift. A
    // fault-heavy elastic run exercises the transitions most likely to
    // drift (retries, rescheduling, commission/decommission).
    let dag = drug_dag();
    let n_tasks = dag.len();
    let cfg = Config::builder()
        .endpoint(EndpointConfig::new("Taiyi", ClusterSpec::taiyi(), 32).elastic(8, 32, 4))
        .endpoint(EndpointConfig::new("Qiming", ClusterSpec::qiming(), 16).elastic(4, 16, 4))
        .strategy(SchedulingStrategy::Dha { rescheduling: true })
        .scaling(ScalingConfig {
            enabled: true,
            ..ScalingConfig::default()
        })
        .fault("transfer-fail p=0.05".parse().unwrap())
        .fault("task-fail p=0.05".parse().unwrap())
        .verify(true)
        .build();
    let report = SimRuntime::new(cfg, dag)
        .with_trace(TraceConfig::default())
        .run()
        .unwrap();
    assert_eq!(report.tasks_completed, n_tasks);
    // The fault probabilities virtually guarantee retries, so the fault
    // instants should be visible in the trace.
    let trace = report.trace.as_ref().unwrap();
    assert!(report.failed_attempts > 0 || trace.transfers.iter().all(|t| t.attempt == 1));
}
