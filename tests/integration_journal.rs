//! End-to-end tests for the run journal, divergence doctor, flight
//! recorder and decision-digest folding: journals must be bit-identical
//! across engine flavors, observation must never perturb the simulated
//! timeline, and an injected single-event perturbation must be localized
//! to the exact record.

use fedci::hardware::ClusterSpec;
use simkit::journal::Journal;
use taskgraph::{Dag, TaskId, TaskSpec};
use unifaas::config::{Config, EndpointConfig, SchedulingStrategy};
use unifaas::flight::FlightConfig;
use unifaas::obs::{doctor, perturb_journal, render_doctor, DoctorReport};
use unifaas::{SimRuntime, UniFaasError};

fn site_config(strategy: SchedulingStrategy) -> Config {
    Config::builder()
        .endpoint(EndpointConfig::new("fast", ClusterSpec::taiyi(), 4))
        .endpoint(EndpointConfig::new("slow", ClusterSpec::qiming(), 2))
        .strategy(strategy)
        .build()
}

fn diamond_dag(width: usize) -> Dag {
    let mut dag = Dag::new();
    let f = dag.register_function("work");
    let g = dag.register_function("merge");
    let root = dag.add_task(TaskSpec::compute(f, 1.0).with_output_bytes(1 << 20), &[]);
    let layer: Vec<TaskId> = (0..width)
        .map(|i| {
            dag.add_task(
                TaskSpec::compute(f, 2.0 + (i % 5) as f64).with_output_bytes(1 << 20),
                &[root],
            )
        })
        .collect();
    dag.add_task(TaskSpec::compute(g, 1.0), &layer);
    dag
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ufjournal-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Wheel and heap engines of the same seed must write bit-identical
/// journals, and the doctor must say so.
#[test]
fn journals_identical_across_engine_flavors() {
    let dir = tmp_dir("flavors");
    let strategy = SchedulingStrategy::Dha { rescheduling: true };
    let paths = [dir.join("wheel.journal"), dir.join("heap.journal")];
    let configs = [
        site_config(strategy.clone()),
        Config::builder()
            .endpoint(EndpointConfig::new("fast", ClusterSpec::taiyi(), 4))
            .endpoint(EndpointConfig::new("slow", ClusterSpec::qiming(), 2))
            .strategy(strategy)
            .engine_reference_queue(true)
            .build(),
    ];
    let mut digests = Vec::new();
    for (cfg, path) in configs.into_iter().zip(&paths) {
        let report = SimRuntime::new(cfg, diamond_dag(24))
            .with_journal(path)
            .run()
            .unwrap();
        let summary = report.journal.expect("journaled run reports a summary");
        assert!(summary.records > 0);
        digests.push((report.determinism_digest(), summary));
    }
    assert_eq!(digests[0], digests[1], "wheel vs heap");

    let wheel = Journal::open(&paths[0]).unwrap();
    assert!(wheel.clean_close(), "finished run seals its journal");
    assert_eq!(wheel.total_records(), digests[0].1.records);
    assert_eq!(wheel.final_digest(), digests[0].1.digest);
    let report = doctor(&wheel, &Journal::open(&paths[1]).unwrap());
    assert!(report.is_identical(), "{}", render_doctor(&report));
    std::fs::remove_dir_all(&dir).ok();
}

/// Journaling (and its decision notes) must not perturb the simulation:
/// same seed with and without a journal gives the same digest and report.
#[test]
fn journaling_does_not_change_the_determinism_digest() {
    let dir = tmp_dir("zerocost");
    let strategy = SchedulingStrategy::Dha { rescheduling: true };
    let plain = SimRuntime::new(site_config(strategy.clone()), diamond_dag(20))
        .run()
        .unwrap();
    let journaled = SimRuntime::new(site_config(strategy), diamond_dag(20))
        .with_journal(dir.join("run.journal"))
        .run()
        .unwrap();
    assert_eq!(
        plain.determinism_digest(),
        journaled.determinism_digest(),
        "journaling must be invisible to the simulated timeline"
    );
    assert!(plain.journal.is_none());
    assert!(journaled.journal.is_some());
    std::fs::remove_dir_all(&dir).ok();
}

/// A journal that cannot be created is an I/O failure with its own error
/// variant, not an "invalid configuration".
#[test]
fn unwritable_journal_path_is_a_journal_error() {
    let dir = tmp_dir("unwritable");
    let path = dir.join("no-such-dir").join("run.journal");
    let err = SimRuntime::new(site_config(SchedulingStrategy::Capacity), diamond_dag(4))
        .with_journal(&path)
        .run()
        .unwrap_err();
    assert!(matches!(err, UniFaasError::Journal(_)), "{err:?}");
    let shown = err.to_string();
    assert!(shown.starts_with("journal: "), "{shown}");
    assert!(shown.contains("no-such-dir"), "{shown}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A one-microsecond perturbation injected mid-journal must be localized
/// by the doctor to exactly that record, with task context attached.
#[test]
fn doctor_localizes_injected_perturbation() {
    let dir = tmp_dir("perturb");
    let base = dir.join("base.journal");
    SimRuntime::new(
        site_config(SchedulingStrategy::Dha { rescheduling: true }),
        diamond_dag(24),
    )
    .with_journal(&base)
    .run()
    .unwrap();
    let a = Journal::open(&base).unwrap();
    let target = a.total_records() / 2;
    let perturbed = dir.join("perturbed.journal");
    perturb_journal(&base, &perturbed, target).unwrap();
    let report = doctor(&a, &Journal::open(&perturbed).unwrap());
    let DoctorReport::Diverged(d) = &report else {
        panic!("expected divergence:\n{}", render_doctor(&report));
    };
    assert_eq!(d.index, target, "exact record localized");
    let (ra, rb) = (d.a.unwrap(), d.b.unwrap());
    assert_eq!(ra.at_us + 1, rb.at_us, "the injected 1us bump");
    assert_eq!((ra.seq, ra.kind, ra.a, ra.b), (rb.seq, rb.kind, rb.a, rb.b));
    std::fs::remove_dir_all(&dir).ok();
}

/// The decision digest is deterministic across engine flavors, stable
/// across repeats, and folded into the determinism digest only when the
/// config asks for it.
#[test]
fn decision_digest_is_deterministic_and_config_gated() {
    let strategy = SchedulingStrategy::Dha { rescheduling: true };
    let run = |digest_on: bool, reference: bool| {
        let cfg = Config::builder()
            .endpoint(EndpointConfig::new("fast", ClusterSpec::taiyi(), 4))
            .endpoint(EndpointConfig::new("slow", ClusterSpec::qiming(), 2))
            .strategy(strategy.clone())
            .digest_decisions(digest_on)
            .engine_reference_queue(reference)
            .build();
        SimRuntime::new(cfg, diamond_dag(20)).run().unwrap()
    };
    let off = run(false, false);
    assert!(off.decision_digest.is_none(), "default off");
    let on1 = run(true, false);
    let on2 = run(true, false);
    let on_heap = run(true, true);
    let d = on1.decision_digest.expect("enabled run reports the digest");
    assert_eq!(on2.decision_digest, Some(d), "repeatable");
    assert_eq!(on_heap.decision_digest, Some(d), "queue-independent");
    // Folding is config-gated: the event-stream components are unchanged,
    // so the combined digests differ exactly by the folded stream.
    assert_eq!(off.makespan, on1.makespan);
    assert_eq!(off.events_processed, on1.events_processed);
    assert_ne!(
        off.determinism_digest(),
        on1.determinism_digest(),
        "enabled runs fold the decision stream into the digest"
    );
    assert_eq!(on1.determinism_digest(), on2.determinism_digest());
}

/// The flight recorder observes a real run without perturbing it and
/// reports snapshots plus the recent-event ring.
#[test]
fn flight_recorder_observes_without_perturbing() {
    let strategy = SchedulingStrategy::Dha { rescheduling: true };
    let plain = SimRuntime::new(site_config(strategy.clone()), diamond_dag(20))
        .run()
        .unwrap();
    let flown = SimRuntime::new(site_config(strategy), diamond_dag(20))
        .with_flight(FlightConfig {
            snapshot_every: 50,
            ring_capacity: 32,
            ..FlightConfig::default()
        })
        .run()
        .unwrap();
    assert_eq!(plain.determinism_digest(), flown.determinism_digest());
    let fr = flown.flight.as_deref().expect("flight report present");
    assert!(!fr.snapshots.is_empty(), "snapshots taken");
    assert_eq!(fr.recent.len(), 32, "ring filled");
    assert_eq!(fr.stalls, 0, "healthy run");
    let last = fr.snapshots.last().unwrap();
    assert!(last.events > 0 && last.events_per_sec > 0.0);
    assert!(last.virtual_s > 0.0);
    // Ring sequence numbers are contiguous and end at the last delivery.
    let seqs: Vec<u64> = fr.recent.iter().map(|e| e.seq).collect();
    assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
    assert_eq!(*seqs.last().unwrap(), flown.events_processed);
}
