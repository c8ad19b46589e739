//! Property-based tests for the fault-tolerance machinery: under random
//! fault schedules no task is lost or duplicated, attempt budgets are
//! respected, and faulted runs replay deterministically. The fault-rule
//! parser, which reads daemon argv, never panics on hostile input and
//! round-trips every valid rule.

use proptest::collection;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use simkit::SimDuration;
use std::str::FromStr;
use taskgraph::workloads::random::{generate, RandomDagParams};
use unifaas::prelude::*;

fn arb_strategy() -> impl Strategy<Value = SchedulingStrategy> {
    prop_oneof![
        Just(SchedulingStrategy::Capacity),
        Just(SchedulingStrategy::Locality),
        Just(SchedulingStrategy::Dha { rescheduling: true }),
    ]
}

fn faulted_config(
    strategy: SchedulingStrategy,
    seed: u64,
    task_fail: f64,
    transfer_fail: f64,
    max_attempts: u32,
    backoff_s: u64,
    outage: Option<(usize, u64, u64)>,
) -> Config {
    let mut cfg = Config::builder()
        .endpoint(EndpointConfig::new("a", ClusterSpec::taiyi(), 6))
        .endpoint(EndpointConfig::new("b", ClusterSpec::qiming(), 3))
        .strategy(strategy)
        .seed(seed)
        .build();
    cfg.faults.push(FaultRule::TaskFail { p: task_fail });
    cfg.faults
        .push(FaultRule::TransferFail { p: transfer_fail });
    cfg.max_task_attempts = max_attempts;
    cfg.max_transfer_retries = 10;
    cfg.retry.backoff_base = SimDuration::from_secs(backoff_s);
    if let Some((ep, from, to)) = outage {
        cfg.faults.push(FaultRule::Down { ep, from, to });
    }
    cfg
}

proptest! {
    // Each case runs one or two full simulations; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under any fault schedule, a run either completes every task exactly
    /// once (no loss, no duplication across requeue/drain/retry paths) or
    /// fails with a task that exhausted its attempt budget.
    #[test]
    fn no_task_lost_or_duplicated_under_faults(
        strategy in arb_strategy(),
        seed in 0u64..10_000,
        task_fail in 0.0f64..0.4,
        transfer_fail in 0.0f64..0.2,
        max_attempts in 1u32..8,
        backoff_s in 0u64..20,
        outage_ep in 0usize..2,
        outage_from in 1u64..100,
        outage_len in prop_oneof![Just(0u64), 10u64..300],
        layers in 1usize..4,
        width in 1usize..8,
    ) {
        let dag = generate(&RandomDagParams {
            n_layers: layers,
            min_width: 1,
            max_width: width,
            edge_prob: 0.3,
            mean_seconds: 15.0,
            mean_output_bytes: 1 << 20,
            seed,
        });
        let n = dag.len();
        let outage = (outage_len > 0)
            .then_some((outage_ep, outage_from, outage_from + outage_len));
        let cfg = faulted_config(
            strategy, seed, task_fail, transfer_fail, max_attempts, backoff_s, outage,
        );
        match SimRuntime::new(cfg, dag).run() {
            Ok(report) => {
                prop_assert_eq!(report.tasks_completed, n, "every task exactly once");
                let per_ep: usize = report.tasks_per_endpoint.iter().map(|(_, c)| *c).sum();
                prop_assert_eq!(
                    per_ep, n,
                    "endpoint tallies must account for each task once"
                );
            }
            Err(UniFaasError::TaskFailed { attempts, .. }) => {
                prop_assert!(
                    attempts.len() <= max_attempts as usize,
                    "attempt budget exceeded: {} > {}",
                    attempts.len(),
                    max_attempts
                );
            }
            Err(UniFaasError::TransferFailed { retries, .. }) => {
                prop_assert!(retries <= 10, "transfer retry budget exceeded");
            }
            Err(other) => return Err(TestCaseError::fail(format!("unexpected error {other}"))),
        }
    }

    /// Any faulted run replays bit-identically from the same seed and
    /// fault schedule.
    #[test]
    fn faulted_runs_replay_deterministically(
        seed in 0u64..10_000,
        task_fail in 0.0f64..0.3,
        outage_len in prop_oneof![Just(0u64), 20u64..200],
    ) {
        let dag = || generate(&RandomDagParams {
            n_layers: 3,
            min_width: 1,
            max_width: 6,
            edge_prob: 0.3,
            mean_seconds: 10.0,
            mean_output_bytes: 1 << 20,
            seed,
        });
        let cfg = || faulted_config(
            SchedulingStrategy::Locality,
            seed,
            task_fail,
            0.05,
            6,
            3,
            (outage_len > 0).then_some((0, 10, 10 + outage_len)),
        );
        let a = SimRuntime::new(cfg(), dag()).run();
        let b = SimRuntime::new(cfg(), dag()).run();
        match (a, b) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.determinism_digest(), b.determinism_digest());
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "divergent outcomes: {:?} vs {:?}",
                    a.map(|r| r.tasks_completed),
                    b.map(|r| r.tasks_completed),
                )))
            }
        }
    }
}

/// What rules are made of, plus near misses: hostile argv is mostly
/// almost-valid argv.
const WORDS: [&str; 33] = [
    "task-fail",
    "transfer-fail",
    "down",
    "swallow",
    "delay",
    "dup",
    "kill",
    "p=0.5",
    "p=",
    "p=nan",
    "p=-0",
    "p=1e309",
    "ep=0",
    "ep=18446744073709551616",
    "ep=-1",
    "every=0",
    "every=7",
    "ms=2",
    "from=300",
    "to=900",
    "from=inf",
    "to=1e400",
    "to=18446744073710",
    "after=60",
    "=",
    "==",
    "ep",
    "\t",
    "é",
    "\u{0}",
    "p=0.5=1",
    "ms=99999999999999999999",
    "from=0.0000001",
];

fn arb_text() -> impl Strategy<Value = String> {
    prop_oneof![
        collection::vec(0usize..WORDS.len(), 0..8).prop_map(|words| {
            let words: Vec<&str> = words.into_iter().map(|i| WORDS[i]).collect();
            words.join(" ")
        }),
        collection::vec(0u32..0x11_0000, 0..24)
            .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect()),
    ]
}

fn arb_ep() -> impl Strategy<Value = Option<usize>> {
    prop_oneof![Just(None), (0usize..64).prop_map(Some)]
}

fn arb_p() -> impl Strategy<Value = f64> {
    prop_oneof![0.0f64..1.0, Just(0.0), Just(1.0)]
}

fn arb_rule() -> impl Strategy<Value = FaultRule> {
    prop_oneof![
        arb_p().prop_map(|p| FaultRule::TaskFail { p }),
        arb_p().prop_map(|p| FaultRule::TransferFail { p }),
        (0usize..64, 0u64..1 << 43, 1u64..1 << 43).prop_map(|(ep, from, len)| FaultRule::Down {
            ep,
            from,
            to: from + len,
        }),
        (arb_ep(), 1u64..u64::MAX).prop_map(|(ep, every)| FaultRule::Swallow { ep, every }),
        (arb_ep(), 0..u64::MAX / 1000 + 1).prop_map(|(ep, ms)| FaultRule::Delay { ep, ms }),
        arb_ep().prop_map(|ep| FaultRule::Dup { ep }),
        (0usize..64, 0u64..u64::MAX).prop_map(|(ep, after)| FaultRule::Kill { ep, after }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Arbitrary text is a rule or a typed error, never a panic; whatever
    /// parses prints back to text that parses to the same rule.
    #[test]
    fn arbitrary_text_never_panics_the_rule_parser(text in arb_text()) {
        if let Ok(rule) = FaultRule::from_str(&text) {
            prop_assert_eq!(rule.to_string().parse::<FaultRule>(), Ok(rule));
        }
    }

    /// `parse(display(r)) == r` for every valid rule.
    #[test]
    fn valid_rules_round_trip_through_text(rule in arb_rule()) {
        prop_assert_eq!(rule.to_string().parse::<FaultRule>(), Ok(rule));
    }
}
