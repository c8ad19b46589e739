//! Property-based tests on the full simulated runtime: random workflows on
//! random federations must always complete, and the reports must satisfy
//! physical invariants.

use proptest::prelude::*;
use taskgraph::traverse::critical_path_seconds;
use taskgraph::workloads::random::{generate, RandomDagParams};
use unifaas::prelude::*;

fn arb_strategy() -> impl Strategy<Value = SchedulingStrategy> {
    prop_oneof![
        Just(SchedulingStrategy::Capacity),
        Just(SchedulingStrategy::Locality),
        Just(SchedulingStrategy::Dha { rescheduling: true }),
        Just(SchedulingStrategy::Dha {
            rescheduling: false
        }),
    ]
}

proptest! {
    // Each case runs a full simulation; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_workflows_always_complete(
        strategy in arb_strategy(),
        layers in 1usize..5,
        width in 1usize..10,
        edge_prob in 0.1f64..0.8,
        seed in 0u64..10_000,
        workers_a in 1usize..20,
        workers_b in 0usize..10,
        speed_b in 0.5f64..2.0,
    ) {
        let dag = generate(&RandomDagParams {
            n_layers: layers,
            min_width: 1,
            max_width: width,
            edge_prob,
            mean_seconds: 20.0,
            mean_output_bytes: 20 << 20, // above the inline limit: real staging
            seed,
        });
        let n = dag.len();
        let cp = critical_path_seconds(&dag);
        let total = dag.total_compute_seconds();

        let mut builder = Config::builder()
            .endpoint(EndpointConfig::new("a", ClusterSpec::qiming(), workers_a));
        if workers_b > 0 {
            builder = builder.endpoint(EndpointConfig::new(
                "b",
                ClusterSpec::uniform("b", speed_b),
                workers_b,
            ));
        }
        let cfg = builder.strategy(strategy.clone()).seed(seed).build();

        let report = SimRuntime::new(cfg, dag)
            .run()
            .unwrap_or_else(|e| panic!("{strategy:?} seed={seed}: {e}"));

        prop_assert_eq!(report.tasks_completed, n);
        prop_assert_eq!(report.failed_attempts, 0);

        // Physics: makespan is bounded below by the critical path on the
        // fastest endpoint (minus noise slack) and above by everything
        // serialized on the slowest single worker plus generous overheads.
        let fastest = speed_b.max(1.0);
        prop_assert!(
            report.makespan.as_secs_f64() >= cp / fastest * 0.85,
            "makespan {} below critical path bound {}",
            report.makespan, cp / fastest
        );
        let slowest = if workers_b > 0 { speed_b.min(1.0) } else { 1.0 };
        let upper = total / slowest * 1.5 + 600.0 + n as f64 * 2.0;
        prop_assert!(
            report.makespan.as_secs_f64() <= upper,
            "makespan {} above upper bound {upper}",
            report.makespan
        );

        // Utilization is a fraction.
        let u = report.mean_utilization();
        prop_assert!((0.0..=1.0).contains(&u));

        // Tasks-per-endpoint accounting adds up.
        let placed: usize = report.tasks_per_endpoint.iter().map(|(_, c)| *c).sum();
        prop_assert_eq!(placed, n);
    }

    #[test]
    fn fault_injection_never_loses_tasks(
        strategy in arb_strategy(),
        transfer_p in 0.0f64..0.25,
        task_p in 0.0f64..0.2,
        seed in 0u64..10_000,
    ) {
        let dag = generate(&RandomDagParams {
            n_layers: 3,
            min_width: 2,
            max_width: 6,
            edge_prob: 0.4,
            mean_seconds: 10.0,
            mean_output_bytes: 15 << 20,
            seed,
        });
        let n = dag.len();
        let cfg = Config::builder()
            .endpoint(EndpointConfig::new("a", ClusterSpec::qiming(), 8))
            .endpoint(EndpointConfig::new("b", ClusterSpec::taiyi(), 8))
            .strategy(strategy)
            .fault(FaultRule::TransferFail { p: transfer_p })
            .fault(FaultRule::TaskFail { p: task_p })
            .retries(25, 25)
            .seed(seed)
            .build();
        let report = SimRuntime::new(cfg, dag).run().unwrap();
        prop_assert_eq!(report.tasks_completed, n);
    }

    /// The calendar wheel must deliver in the reference binary heap's
    /// order. A `verify` run keeps every event in both and panics at the
    /// first delivery where they disagree on `(time, seq)`, so completing
    /// one across random topologies, seeds and outage windows (cancels
    /// included) checks the wheel against the heap event by event.
    #[test]
    fn reference_heap_engine_matches_wheel(
        strategy in arb_strategy(),
        layers in 1usize..5,
        width in 1usize..8,
        edge_prob in 0.1f64..0.8,
        seed in 0u64..10_000,
        outage_ep in 0usize..3, // 2 = no outage
        outage_from in 50u64..500,
        outage_len in 50u64..500,
    ) {
        let dag = generate(&RandomDagParams {
            n_layers: layers,
            min_width: 1,
            max_width: width,
            edge_prob,
            mean_seconds: 15.0,
            mean_output_bytes: 20 << 20,
            seed,
        });
        let n = dag.len();
        let mut b = Config::builder()
            .endpoint(EndpointConfig::new("a", ClusterSpec::qiming(), 6))
            .endpoint(EndpointConfig::new("b", ClusterSpec::taiyi(), 4))
            .strategy(strategy)
            .retries(25, 25)
            .seed(seed)
            .verify(true);
        if outage_ep < 2 {
            let to = outage_from + outage_len;
            b = b.fault(format!("down ep={outage_ep} from={outage_from} to={to}").parse().unwrap());
        }
        let report = SimRuntime::new(b.build(), dag).run().unwrap();
        prop_assert_eq!(report.tasks_completed, n);
    }

    /// The SoA task arena as a model target: `verify` makes the runtime
    /// re-derive its aggregate counters from a full arena scan on every
    /// periodic tick and panic on drift, so completing a random faulty run
    /// under it checks the arena's per-task state machine against the
    /// event stream. Running twice must also reproduce the digest, decision
    /// stream included, bit-for-bit (arena layout cannot leak
    /// iteration-order nondeterminism).
    #[test]
    fn arena_counters_reconcile_under_faults(
        strategy in arb_strategy(),
        transfer_p in 0.0f64..0.2,
        task_p in 0.0f64..0.15,
        seed in 0u64..10_000,
        outage_ep in 0usize..3, // 2 = no outage
        outage_from in 50u64..400,
        outage_len in 50u64..400,
    ) {
        let outage = (outage_ep < 2).then_some((outage_ep, outage_from, outage_len));
        let dag = generate(&RandomDagParams {
            n_layers: 3,
            min_width: 2,
            max_width: 6,
            edge_prob: 0.4,
            mean_seconds: 10.0,
            mean_output_bytes: 15 << 20,
            seed,
        });
        let n = dag.len();
        let build = || {
            let mut b = Config::builder()
                .endpoint(EndpointConfig::new("a", ClusterSpec::qiming(), 8))
                .endpoint(EndpointConfig::new("b", ClusterSpec::taiyi(), 8))
                .strategy(strategy.clone())
                .fault(FaultRule::TransferFail { p: transfer_p })
                .fault(FaultRule::TaskFail { p: task_p })
                .retries(25, 25)
                .seed(seed)
                .verify(true);
            if let Some((ep, from, len)) = outage {
                b = b.fault(format!("down ep={ep} from={from} to={}", from + len).parse().unwrap());
            }
            b.build()
        };
        let a = SimRuntime::new(build(), dag.clone()).run().unwrap();
        let b = SimRuntime::new(build(), dag).run().unwrap();
        prop_assert_eq!(a.tasks_completed, n);
        prop_assert_eq!(a.determinism_digest(), b.determinism_digest());
    }
}
