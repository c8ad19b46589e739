//! Allocation gates: building a DAG and running the simulator allocate
//! per growth step, not per task or per event.
//!
//! A counting global allocator wraps `System`. It counts only on the
//! thread inside [`count_allocs`], so tests running in parallel on other
//! threads add nothing to a gate's count. `realloc` counts as an
//! allocation, as a `Vec` doubling is one.

use fedci::hardware::ClusterSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use taskgraph::workloads::stress;
use unifaas::config::{Config, EndpointConfig, SchedulingStrategy};
use unifaas::SimRuntime;

struct Counting;

thread_local! {
    /// `Some(n)` while the current thread counts: `n` allocations so far.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn bump() {
    // `try_with`: the allocator may run while the thread-local is being
    // torn down at thread exit.
    let _ = ALLOCS.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a thread-local `Cell`
// with a constant initializer, so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's obligations are `System.alloc_zeroed`'s own.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller's obligations are `System.realloc`'s own.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are `System.dealloc`'s own.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.with(|c| c.set(Some(0)));
    let r = f();
    let n = ALLOCS.with(|c| c.replace(None)).expect("counting was on");
    (r, n)
}

#[test]
fn building_a_layered_bag_allocates_per_growth_step_not_per_task() {
    let (dag, allocs) = count_allocs(|| stress::layered_bag(25_000, 4, 1.0));
    assert_eq!(dag.len(), 100_000);
    assert!(
        allocs <= 200,
        "building 100k tasks made {allocs} allocations (limit 200): \
         adjacency allocates per task again"
    );
}

#[test]
fn steady_state_simulation_is_allocation_free() {
    // The §VI-A drug static pool under Capacity, on 100k independent
    // 10 s tasks: the stress-100k row of the e2e throughput benchmark.
    let cfg = Config::builder()
        .endpoint(EndpointConfig::new("Taiyi", ClusterSpec::taiyi(), 2000))
        .endpoint(EndpointConfig::new("Qiming", ClusterSpec::qiming(), 384))
        .endpoint(EndpointConfig::new("Dept", ClusterSpec::dept_cluster(), 48))
        .endpoint(EndpointConfig::new("Lab", ClusterSpec::lab_cluster(), 52))
        .strategy(SchedulingStrategy::Capacity)
        .build();
    let dag = stress::bag_of_tasks(100_000, 10.0);
    let (report, allocs) = count_allocs(|| SimRuntime::new(cfg, dag).run().expect("run"));
    assert_eq!(report.tasks_completed, 100_000);
    let limit = report.events_processed / 100;
    assert!(
        allocs <= limit,
        "{allocs} allocations over {} events exceed events/100 = {limit}: \
         the steady state allocates again",
        report.events_processed
    );
}
