//! The fault plan's rule syntax, its typed rejections, the backend
//! support table, and the simulator's injector built from a plan.

use fedci::endpoint::EndpointId;
use fedci::fault::{AttemptFaults, Backend, FaultError, FaultInjector, FaultPlan, FaultRule};
use fedci::process::{spawn_daemon_thread, DaemonConfig};
use simkit::{SimDuration, SimTime};

fn ep(i: u16) -> EndpointId {
    EndpointId(i)
}

fn plan(rules: &[&str]) -> FaultPlan {
    rules.iter().map(|r| r.parse().unwrap()).collect()
}

fn injector(seed: u64, rules: &[&str]) -> FaultInjector {
    FaultInjector::new(seed, &plan(rules), 2)
}

#[test]
fn rules_round_trip_through_text() {
    for text in [
        "task-fail p=0.02",
        "transfer-fail p=1",
        "down ep=0 from=300 to=900",
        "down ep=2 from=0 to=18446744073709",
        "delay ms=18446744073709551",
        "swallow every=7",
        "swallow ep=0 every=7",
        "delay ep=1 ms=2",
        "dup",
        "dup ep=3",
        "kill ep=0 after=60",
    ] {
        let rule: FaultRule = text.parse().unwrap();
        assert_eq!(rule.to_string(), text);
    }
    // Keys in any order, any spacing.
    let rule: FaultRule = "  down  to=9 ep=1   from=3 ".parse().unwrap();
    assert_eq!(rule.to_string(), "down ep=1 from=3 to=9");
}

#[test]
fn each_rejection_is_typed() {
    let err = |t: &str| t.parse::<FaultRule>().unwrap_err();
    for p in ["1.5", "-0.1", "nan", "inf"] {
        assert!(matches!(
            err(&format!("task-fail p={p}")),
            FaultError::Probability(_)
        ));
    }
    assert!(matches!(
        err("transfer-fail p=2"),
        FaultError::Probability(_)
    ));
    assert!(matches!(
        err("down ep=0 from=9 to=9"),
        FaultError::EmptyWindow(_)
    ));
    assert!(matches!(
        err("down ep=0 from=9 to=3"),
        FaultError::EmptyWindow(_)
    ));
    assert!(matches!(err("swallow every=0"), FaultError::ZeroEvery(_)));
    // Past the simulator's microsecond clock.
    for big in [
        "delay ms=18446744073709552",
        "delay ms=18446744073709551615",
        "down ep=0 from=0 to=18446744073710",
    ] {
        assert!(matches!(err(big), FaultError::TooLarge(_)), "`{big}`");
    }
    for bad in [
        "",
        "explode ep=0",
        "swallow",
        "swallow every=x",
        "swallow every=3 every=4",
        "swallow every=3 color=red",
        "dup ep",
        "down ep=0 from=-1 to=3",
        "down ep=0 from=0.5 to=3",
        "task-fail p=0.1 ep=0",
        "kill ep=0",
    ] {
        assert!(matches!(err(bad), FaultError::Syntax(..)), "`{bad}`");
    }
    let kill: FaultRule = "kill ep=0 after=60".parse().unwrap();
    let unsupported = plan(&["kill ep=0 after=60"]).check(Backend::Threaded, 2);
    assert_eq!(
        unsupported,
        Err(FaultError::Unsupported(kill, Backend::Threaded))
    );
    assert_eq!(
        unsupported.unwrap_err().to_string(),
        "fault rule `kill ep=0 after=60`: not supported by the threaded backend"
    );
}

#[test]
fn a_daemon_rejects_a_rule_it_cannot_run() {
    let mut cfg = DaemonConfig::new("bad", 1);
    cfg.faults = plan(&["kill ep=0 after=1"]);
    let err = spawn_daemon_thread(cfg)
        .err()
        .expect("the plan is rejected");
    let msg = err.to_string();
    assert!(msg.contains("not supported by the daemon backend"), "{msg}");
}

#[test]
fn check_rejects_missing_endpoints_and_overlapping_swallows() {
    let p = plan(&["delay ep=2 ms=1"]);
    assert!(matches!(
        p.check(Backend::Sim, 2),
        Err(FaultError::NoSuchEndpoint(..))
    ));
    assert_eq!(p.check(Backend::Sim, 3), Ok(()));
    let p = plan(&["swallow every=3", "swallow ep=1 every=5"]);
    assert!(matches!(
        p.check(Backend::Threaded, 2),
        Err(FaultError::OverlappingSwallow(_))
    ));
    let p = plan(&["swallow ep=0 every=3", "swallow ep=1 every=5"]);
    assert_eq!(p.check(Backend::Threaded, 2), Ok(()));
}

const BACKENDS: [Backend; 4] = [
    Backend::Sim,
    Backend::Threaded,
    Backend::Daemon,
    Backend::Process,
];

/// The support table DESIGN.md's "Fault plan" section prints.
#[test]
fn support_table_matches_design_doc() {
    let rules = [
        "task-fail p=0.1",
        "transfer-fail p=0.1",
        "down ep=0 from=1 to=2",
        "swallow every=7",
        "delay ms=2",
        "dup",
        "kill ep=0 after=60",
    ];
    let mut table = String::from("| rule |");
    for b in BACKENDS {
        table += &format!(" {} |", b.name());
    }
    table += "\n|---|---|---|---|---|\n";
    for text in rules {
        let rule: FaultRule = text.parse().unwrap();
        let kind = text.split(' ').next().unwrap();
        table += &format!("| `{kind}` |");
        for b in BACKENDS {
            table += if rule.runs_on(b) { " yes |" } else { " — |" };
        }
        table.push('\n');
    }
    let design = include_str!("../../../DESIGN.md");
    assert!(
        design.contains(&table),
        "DESIGN.md lacks the table:\n{table}"
    );
}

#[test]
fn attempt_faults_combine_and_strip_for_a_daemon() {
    let p = plan(&[
        "swallow ep=0 every=7",
        "delay ms=2",
        "delay ep=1 ms=3",
        "dup ep=1",
    ]);
    let a0 = AttemptFaults {
        swallow_every: 7,
        delay_ms: 2,
        dup: false,
    };
    assert_eq!(p.attempt_faults(0), a0);
    assert_eq!(p.attempt_faults(1).delay_ms, 5);
    assert!(p.attempt_faults(1).dup);
    assert_eq!(p.for_endpoint(0), plan(&["swallow every=7", "delay ms=2"]));
    assert_eq!(p.for_endpoint(0).attempt_faults(0), a0);
    assert_eq!(p.for_endpoint(1).check(Backend::Daemon, 1), Ok(()));
}

#[test]
fn no_faults_by_default() {
    let mut f = FaultInjector::new(1, &FaultPlan::default(), 2);
    for _ in 0..100 {
        assert!(!f.transfer_fails());
        assert!(!f.task_fails(ep(0), SimTime::ZERO));
        assert!(!f.swallows(ep(0)));
    }
    assert_eq!(f.exec_delay(ep(1)), SimDuration::ZERO);
}

#[test]
fn swallow_and_delay_are_per_endpoint() {
    let mut f = injector(1, &["swallow ep=0 every=3", "delay ep=1 ms=2"]);
    let hits: Vec<bool> = (0..6).map(|_| f.swallows(ep(0))).collect();
    assert_eq!(hits, [false, false, true, false, false, true]);
    assert!(!(0..6).any(|_| f.swallows(ep(1))));
    assert_eq!(f.exec_delay(ep(1)), SimDuration::from_millis(2));
    assert_eq!(f.exec_delay(ep(0)), SimDuration::ZERO);
}

#[test]
fn transfer_failure_rate_approximates_prob() {
    let mut f = injector(2, &["transfer-fail p=0.3"]);
    let fails = (0..10_000).filter(|_| f.transfer_fails()).count();
    let rate = fails as f64 / 10_000.0;
    assert!((rate - 0.3).abs() < 0.02, "rate={rate}");
}

#[test]
fn task_fail_rules_add_up() {
    let mut f = injector(3, &["task-fail p=0.1", "task-fail p=0.4"]);
    for e in [ep(0), ep(1)] {
        let rate = (0..10_000)
            .filter(|_| f.task_fails(e, SimTime::ZERO))
            .count() as f64
            / 10_000.0;
        assert!((rate - 0.5).abs() < 0.03, "rate={rate}");
    }
}

#[test]
fn combined_probability_is_clamped() {
    let mut f = injector(6, &["task-fail p=0.8", "task-fail p=0.8"]);
    // 0.8 + 0.8 clamps to 1.0: every attempt fails, none panics.
    for _ in 0..100 {
        assert!(f.task_fails(ep(0), SimTime::ZERO));
    }
}

#[test]
fn outage_windows_fail_deterministically() {
    let mut f = injector(4, &["down ep=0 from=10 to=20"]);
    assert!(!f.task_fails(ep(0), SimTime::from_secs(9)));
    assert!(f.task_fails(ep(0), SimTime::from_secs(10)));
    assert!(f.task_fails(ep(0), SimTime::from_secs(19)));
    assert!(!f.task_fails(ep(0), SimTime::from_secs(20)));
    assert!(!f.task_fails(ep(1), SimTime::from_secs(15)), "other ep ok");
    assert!(f.in_outage(ep(0), SimTime::from_secs(15)));
}

#[test]
fn overlapping_windows_merge() {
    let f = injector(
        8,
        &[
            "down ep=0 from=10 to=20",
            "down ep=0 from=30 to=40",
            "down ep=0 from=15 to=32",
        ],
    );
    assert_eq!(
        f.outage_windows(),
        vec![(ep(0), SimTime::from_secs(10), SimTime::from_secs(40))]
    );
    assert!(f.in_outage(ep(0), SimTime::from_secs(25)));
    assert!(f.in_outage(ep(0), SimTime::from_secs(39)));
    assert!(!f.in_outage(ep(0), SimTime::from_secs(40)));
}

#[test]
fn adjacent_windows_merge_and_disjoint_stay_separate() {
    let f = injector(
        9,
        &[
            "down ep=0 from=20 to=30",
            "down ep=0 from=10 to=20",
            "down ep=1 from=5 to=6",
        ],
    );
    assert_eq!(
        f.outage_windows(),
        vec![
            (ep(0), SimTime::from_secs(10), SimTime::from_secs(30)),
            (ep(1), SimTime::from_secs(5), SimTime::from_secs(6)),
        ]
    );
    let g = injector(9, &["down ep=0 from=10 to=20", "down ep=0 from=25 to=30"]);
    assert_eq!(g.outage_windows().len(), 2);
    assert!(!g.in_outage(ep(0), SimTime::from_secs(22)));
}

#[test]
fn in_outage_scales_past_many_windows() {
    let windows: FaultPlan = (0..1000u64)
        .map(|i| FaultRule::Down {
            ep: 0,
            from: 10 * i,
            to: 10 * i + 5,
        })
        .collect();
    let f = FaultInjector::new(10, &windows, 1);
    assert!(f.in_outage(ep(0), SimTime::from_secs(5003)));
    assert!(!f.in_outage(ep(0), SimTime::from_secs(5007)));
}

#[test]
fn deterministic_given_seed() {
    let rules = ["transfer-fail p=0.5", "task-fail p=0.5"];
    let (mut a, mut b) = (injector(7, &rules), injector(7, &rules));
    for _ in 0..100 {
        assert_eq!(a.transfer_fails(), b.transfer_fails());
        assert_eq!(
            a.task_fails(ep(0), SimTime::ZERO),
            b.task_fails(ep(0), SimTime::ZERO)
        );
    }
}
