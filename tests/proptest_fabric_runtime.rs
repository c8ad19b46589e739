//! Property test of the `FabricRuntime` coordinator on the threaded
//! fabric: random DAGs, submitted while earlier tasks complete, against an
//! in-process oracle. Every future carries the oracle's bytes, or the
//! task's own error, or an "upstream" error exactly when an ancestor
//! failed — and each task resolves once, with no retry.

use fedci::fabric::{Fabric, FabricTiming, FnRegistry, ThreadedFabric};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use unifaas::runtime::fabric::{FabricRuntime, WireFuture};
use unifaas::UniFaasError;

struct Node {
    function: &'static str,
    payload: Vec<u8>,
    deps: Vec<usize>,
}

/// What the oracle says a task resolves to.
#[derive(Debug, PartialEq)]
enum Expected {
    Bytes(Vec<u8>),
    /// A `fail` node that ran: its error is its input, as text.
    OwnError(String),
    /// A dependency did not produce bytes: the task never runs.
    Upstream,
}

/// `n` tasks, each depending on up to four earlier ones. Payloads are
/// whole 8-byte words, so whatever reaches a `sum64` is well-formed.
fn random_dag(seed: u64, n: usize, fail_percent: u32) -> Vec<Node> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let fan_in = rng.gen_range(0..=4usize).min(i);
            let deps = (0..fan_in).map(|_| rng.gen_range(0..i)).collect();
            let function = if rng.gen_range(0..100u32) < fail_percent {
                "fail"
            } else {
                ["echo", "fnv", "sum64"][rng.gen_range(0..3usize)]
            };
            let words = rng.gen_range(0..4usize);
            let payload = (0..words)
                .flat_map(|_| rng.gen::<u64>().to_le_bytes())
                .collect();
            Node {
                function,
                payload,
                deps,
            }
        })
        .collect()
}

/// Replays the DAG in submission order on the builtin functions
/// themselves: what is under test is what the runtime feeds them and what
/// it does with a failure, not the functions.
fn oracle(dag: &[Node]) -> Vec<Expected> {
    let builtins = FnRegistry::builtins();
    let mut out: Vec<Expected> = Vec::with_capacity(dag.len());
    for node in dag {
        let mut input = Vec::new();
        let mut upstream = false;
        for &d in &node.deps {
            match &out[d] {
                Expected::Bytes(b) => input.extend_from_slice(b),
                _ => upstream = true,
            }
        }
        input.extend_from_slice(&node.payload);
        let function = builtins.get(node.function).expect("a builtin");
        out.push(match function(&input) {
            _ if upstream => Expected::Upstream,
            Ok(bytes) => Expected::Bytes(bytes),
            Err(message) => Expected::OwnError(message),
        });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_dags_resolve_to_the_oracle(
        seed in 0u64..1_000_000,
        n in 1usize..201,
        fail_percent in 0u32..12,
        endpoints in 1usize..4,
        workers in 1usize..4,
    ) {
        let dag = random_dag(seed, n, fail_percent);
        let want = oracle(&dag);
        let pools: Vec<(&str, usize)> = ["a", "b", "c"][..endpoints]
            .iter()
            .map(|l| (*l, workers))
            .collect();
        let fabric = Arc::new(ThreadedFabric::new(&pools, &FabricTiming::fast()));
        let rt = FabricRuntime::new(fabric as Arc<dyn Fabric>);
        let mut futures: Vec<WireFuture> = Vec::with_capacity(n);
        for node in &dag {
            let deps: Vec<&WireFuture> = node.deps.iter().map(|&d| &futures[d]).collect();
            let f = rt.submit(node.function, node.payload.clone(), &deps);
            futures.push(f);
        }
        rt.wait_all();
        for (i, (f, want)) in futures.iter().zip(&want).enumerate() {
            prop_assert!(f.is_done(), "task {} unresolved after wait_all", i);
            let got = match f.wait() {
                Ok(bytes) => Expected::Bytes(bytes.to_vec()),
                Err(UniFaasError::FunctionError { message, .. }) => {
                    if message.starts_with("upstream task") {
                        Expected::Upstream
                    } else {
                        Expected::OwnError(message)
                    }
                }
                Err(e) => panic!("task {i}: {e}"),
            };
            prop_assert_eq!(&got, want, "task {} of seed {}", i, seed);
        }
        let stats = rt.stats();
        prop_assert_eq!(stats.completed, n as u64);
        prop_assert_eq!(stats.dispatched, n as u64);
        prop_assert_eq!((stats.retries, stats.watchdog_timeouts), (0, 0));
    }
}
