//! Integration tests for the live runtime's programming model (§III):
//! typed Rust functions executed across in-process endpoints, composed
//! by passing futures.

use fedci::fabric::{FabricTiming, ThreadedFabric};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use unifaas::prelude::*;

fn fabric(endpoints: &[(&str, usize)]) -> ThreadedFabric {
    ThreadedFabric::new(endpoints, &FabricTiming::default())
}

fn refs<R>(futures: &[TypedFuture<R>]) -> Vec<&WireFuture> {
    futures.iter().map(|f| &**f).collect()
}

/// A miniature montage-shaped pipeline: per-tile project → per-pair diff →
/// global model → per-tile correct → final add.
#[test]
fn montage_shaped_pipeline_produces_correct_result() {
    let fabric = fabric(&[("cluster", 4), ("lab", 2)]);
    let functions = fabric.registry();
    functions.register("project", typed(|tile: i64| Ok(tile * 10)));
    functions.register("diff", typed(|(a, b): (i64, i64)| Ok(b - a)));
    let sum = |Rest(values): Rest<i64>| Ok(values.iter().sum::<i64>());
    functions.register("model", typed(sum));
    functions.register(
        "correct",
        typed(|(projected, model): (i64, i64)| Ok(projected - model)),
    );
    functions.register("add", typed(sum));
    let rt = FabricRuntime::new(Arc::new(fabric));

    let n = 8i64;
    let projections: Vec<TypedFuture<i64>> = (0..n).map(|i| rt.call("project", i, &[])).collect();
    let diffs: Vec<TypedFuture<i64>> = projections
        .windows(2)
        .map(|pair| rt.call("diff", (), &[&pair[0], &pair[1]]))
        .collect();
    let model = rt.call::<_, i64>("model", (), &refs(&diffs));
    let corrected: Vec<TypedFuture<i64>> = projections
        .iter()
        .map(|p| rt.call("correct", (), &[p, &model]))
        .collect();
    let total = rt.call::<_, i64>("add", (), &refs(&corrected));

    // model = sum of diffs = 10*(n-1) = 70; corrected_i = 10i - 70;
    // total = 10*(0+..+7) - 8*70 = 280 - 560 = -280.
    assert_eq!(total.get().unwrap(), -280);
    rt.wait_all();
}

#[test]
fn many_small_tasks_saturate_all_endpoints() {
    let fabric = fabric(&[("a", 3), ("b", 3)]);
    let counter = Arc::new(AtomicUsize::new(0));
    {
        let counter = Arc::clone(&counter);
        let tick = move |(): ()| {
            counter.fetch_add(1, Ordering::SeqCst);
            Ok(())
        };
        fabric.registry().register("tick", typed(tick));
    }
    let rt = FabricRuntime::new(Arc::new(fabric));
    let futures: Vec<TypedFuture<()>> = (0..500).map(|_| rt.call("tick", (), &[])).collect();
    rt.wait_all();
    assert_eq!(counter.load(Ordering::SeqCst), 500);
    assert!(futures.iter().all(|f| f.is_done()));
}

#[test]
fn deep_dynamic_chain_built_from_results() {
    // Dynamic DAG: each next submission depends on the *result* of the
    // previous one (the workflow shape is decided at runtime).
    let fabric = fabric(&[("solo", 2)]);
    fabric.registry().register("inc", typed(|x: i64| Ok(x + 1)));
    let rt = FabricRuntime::new(Arc::new(fabric));
    let mut fut = rt.call::<_, i64>("inc", 0i64, &[]);
    // Decide dynamically how far to chain based on intermediate values.
    while fut.get().unwrap() < 10 {
        fut = rt.call("inc", (), &[&fut]);
    }
    assert_eq!(fut.get().unwrap(), 10);
}
