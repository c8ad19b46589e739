//! Property-based chaos: random small DAGs under random SIGKILL
//! schedules. This extends the PR 4 fault-tolerance proptest model to
//! the process path — the property is the same exactly-once contract,
//! but the faults are real child-process deaths, not simulated ones.
//!
//! Case counts are small (each case spawns real daemons and kills them),
//! but every case checks the full invariant: run completes, every task
//! resolves exactly once, and every result equals the unfaulted
//! in-process reference.

use fedci::fabric::{Fabric, FabricTiming};
use fedci::process::{EndpointMode, ProcessEndpointSpec, ProcessFabric, ProcessFabricConfig};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};
use unifaas::runtime::fabric::{FabricRuntime, LiveRetryPolicy};
use unifaas_cli::fabricrun::{collect_outcome, reference_outcome, submit_layered, FabricWorkload};

fn spawn_spec(name: &str) -> ProcessEndpointSpec {
    ProcessEndpointSpec {
        name: name.to_string(),
        workers: 2,
        mode: EndpointMode::Spawn {
            command: vec![env!("CARGO_BIN_EXE_unifaas-endpointd").to_string()],
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// No task lost, none duplicated, all results reference-identical —
    /// under a random schedule of real SIGKILLs.
    #[test]
    fn random_kill_schedules_preserve_exactly_once(
        tasks in 6usize..13,
        width in 1usize..4,
        seed in 1u64..10_000,
        // (endpoint, after-k-completions) kill events, possibly none.
        kills in vec((0usize..2, 0u64..10), 0..3),
    ) {
        let w = FabricWorkload { tasks, width, seed };
        let fabric = Arc::new(ProcessFabric::new(
            vec![spawn_spec("p0"), spawn_spec("p1")],
            ProcessFabricConfig {
                timing: FabricTiming::fast(),
                seed,
                respawn: true,
                telemetry: false,
            },
        ));
        let rt = FabricRuntime::new(Arc::clone(&fabric) as Arc<dyn Fabric>)
            .with_retry(LiveRetryPolicy {
                max_attempts: 8,
                task_timeout: Some(Duration::from_secs(5)),
                backoff: Duration::from_millis(2),
            });
        let futures = submit_layered(&rt, &w);

        let mut kills = kills.clone();
        kills.sort_by_key(|&(_, after)| after);
        let start = Instant::now();
        for (ep, after) in kills {
            let after = after.min(tasks as u64 - 1);
            while rt.stats().completed < after {
                prop_assert!(
                    start.elapsed() < Duration::from_secs(60),
                    "stalled waiting for completion {after}"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            fabric.kill(ep);
        }

        rt.wait_all();
        let outcome = collect_outcome(&futures);
        fabric.shutdown();

        // Exactly once: every task resolved, none twice (a double
        // resolution panics the future's debug_assert and would also
        // corrupt `completed`).
        prop_assert_eq!(outcome.results.len(), tasks);
        prop_assert_eq!(rt.stats().completed as usize, tasks);
        prop_assert_eq!(outcome.failures, 0, "results: {:?}", outcome.results);
        let want = reference_outcome(&w);
        for (i, (got, want)) in outcome.results.iter().zip(&want).enumerate() {
            prop_assert_eq!(
                got.as_ref().unwrap().as_slice(),
                want.as_slice(),
                "task {} diverged from unfaulted reference",
                i
            );
        }
    }
}
