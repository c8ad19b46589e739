//! Property tests for the divergence doctor: for any perturbation
//! position and either queue kind, flipping one event's timestamp
//! mid-journal must be localized by the doctor to exactly that record —
//! never a neighbor, never a whole-chunk smear.

use fedci::hardware::ClusterSpec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use simkit::journal::Journal;
use taskgraph::{Dag, TaskId, TaskSpec};
use unifaas::config::{Config, EndpointConfig, SchedulingStrategy};
use unifaas::obs::{doctor, perturb_journal, render_doctor, DoctorReport};
use unifaas::SimRuntime;

fn config(reference: bool) -> Config {
    Config::builder()
        .endpoint(EndpointConfig::new("fast", ClusterSpec::taiyi(), 4))
        .endpoint(EndpointConfig::new("slow", ClusterSpec::qiming(), 2))
        .strategy(SchedulingStrategy::Dha { rescheduling: true })
        .engine_reference_queue(reference)
        .build()
}

fn small_dag() -> Dag {
    let mut dag = Dag::new();
    let f = dag.register_function("work");
    let g = dag.register_function("merge");
    let root = dag.add_task(TaskSpec::compute(f, 1.0).with_output_bytes(1 << 20), &[]);
    let layer: Vec<TaskId> = (0..10)
        .map(|i| {
            dag.add_task(
                TaskSpec::compute(f, 1.0 + (i % 3) as f64).with_output_bytes(1 << 20),
                &[root],
            )
        })
        .collect();
    dag.add_task(TaskSpec::compute(g, 1.0), &layer);
    dag
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn doctor_localizes_any_single_event_perturbation(
        pos_frac in 0.0f64..1.0,
        reference in prop_oneof![Just(false), Just(true)],
    ) {
        let dir = std::env::temp_dir().join(format!(
            "ufprop-{}-{reference}-{}",
            std::process::id(),
            (pos_frac * 1e9) as u64
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("base.journal");
        SimRuntime::new(config(reference), small_dag())
            .with_journal(&base)
            .run()
            .unwrap();
        let a = Journal::open(&base).unwrap();
        prop_assert!(a.total_records() > 0);
        let target = ((pos_frac * (a.total_records() - 1) as f64) as u64)
            .min(a.total_records() - 1);
        let perturbed = dir.join("perturbed.journal");
        perturb_journal(&base, &perturbed, target).unwrap();
        let b = Journal::open(&perturbed).unwrap();

        // Self-comparison is identical; perturbed comparison diverges at
        // exactly the injected record, in both argument orders.
        prop_assert!(doctor(&a, &a).is_identical());
        for (x, y) in [(&a, &b), (&b, &a)] {
            let report = doctor(x, y);
            match &report {
                DoctorReport::Diverged(d) => {
                    prop_assert_eq!(d.index, target, "{}", render_doctor(&report));
                    let (ra, rb) = (d.a.unwrap(), d.b.unwrap());
                    prop_assert_eq!(ra.at_us.abs_diff(rb.at_us), 1);
                    prop_assert_eq!(ra.kind, rb.kind);
                }
                DoctorReport::Identical { .. } => {
                    return Err(TestCaseError::fail(format!(
                        "perturbation at {target} not detected"
                    )));
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
