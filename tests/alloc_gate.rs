//! Allocation gates: building a DAG and running the simulator allocate
//! per growth step, not per task or per event; submitting a small task
//! to a fabric allocates its cell and its completion, nothing more.
//!
//! A counting global allocator wraps `System`. It counts only on the
//! thread inside [`count_allocs`], so tests running in parallel on other
//! threads add nothing to a gate's count. `realloc` counts as an
//! allocation, as a `Vec` doubling is one.

use fedci::fabric::{Completion, Fabric, JobSpec, Payload, ProbeState};
use fedci::hardware::ClusterSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};
use taskgraph::workloads::stress;
use unifaas::config::{Config, EndpointConfig, SchedulingStrategy};
use unifaas::runtime::fabric::{FabricRuntime, LiveRetryPolicy};
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
    // 10 s tasks, as in specs/stress/stress_100k.spec.
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

/// One endpoint that holds every attempt until the test answers it, in
/// room reserved up front: its `submit` allocates nothing of its own.
struct Holding {
    labels: Vec<String>,
    held: Mutex<Vec<(JobSpec, Completion)>>,
}

impl Fabric for Holding {
    fn labels(&self) -> &[String] {
        &self.labels
    }

    fn n_workers(&self, _: usize) -> usize {
        1
    }

    fn busy_workers(&self, _: usize) -> usize {
        0
    }

    fn probe(&self, _: usize) -> ProbeState {
        ProbeState::Alive
    }

    fn stage(&self, _: usize, _: u64, _: &Arc<Vec<u8>>) {
        unreachable!("no task here has a dependency")
    }

    fn submit(&self, _: usize, job: JobSpec, done: Completion) {
        self.held.lock().unwrap().push((job, done));
    }

    fn shutdown(&self) {}
}

#[test]
fn submitting_a_small_task_under_retry_allocates_its_cell_and_completion_only() {
    let fabric = Arc::new(Holding {
        labels: vec!["ep".to_string()],
        held: Mutex::new(Vec::with_capacity(2)),
    });
    let policy = LiveRetryPolicy {
        max_attempts: 5,
        ..LiveRetryPolicy::default()
    };
    let rt = FabricRuntime::new(Arc::clone(&fabric) as Arc<dyn Fabric>).with_retry(policy);
    // The first submit interns the function and sizes the task slab; the
    // second fits in both.
    rt.submit("fnv", vec![1; 8], &[]);
    let payload = vec![2; 8];
    let (second, allocs) = count_allocs(|| rt.submit("fnv", payload, &[]));
    assert_eq!(
        allocs, 2,
        "an 8-byte task's first of five attempts made {allocs} allocations \
         (the task cell and the completion are 2): the payload is copied \
         to the heap per attempt again"
    );
    let held = std::mem::take(&mut *fabric.held.lock().unwrap());
    assert!(
        matches!(held[1].0.payload, Payload::Inline(8, _)),
        "{:?}",
        held[1].0.payload
    );
    for (job, done) in held {
        done(Ok(job.payload.to_vec()));
    }
    rt.wait_all();
    assert_eq!(second.wait().unwrap().as_ref(), &[2; 8]);
}

#[test]
fn submitting_a_small_task_without_retry_travels_inline() {
    let fabric = Arc::new(Holding {
        labels: vec!["ep".to_string()],
        held: Mutex::new(Vec::with_capacity(2)),
    });
    // The default policy: one attempt, the only one the payload serves.
    let rt = FabricRuntime::new(Arc::clone(&fabric) as Arc<dyn Fabric>);
    rt.submit("fnv", vec![1; 8], &[]);
    let payload = vec![2; 8];
    let (second, allocs) = count_allocs(|| rt.submit("fnv", payload, &[]));
    assert_eq!(
        allocs, 2,
        "a one-attempt 8-byte task made {allocs} allocations (the task cell \
         and the completion are 2)"
    );
    let held = std::mem::take(&mut *fabric.held.lock().unwrap());
    assert!(
        matches!(held[1].0.payload, Payload::Inline(8, _)),
        "an 8-byte payload travels as {:?}, not in place: the caller's Vec \
         goes with the job and is freed by whichever thread drops it",
        held[1].0.payload
    );
    for (job, done) in held {
        done(Ok(job.payload.to_vec()));
    }
    rt.wait_all();
    assert_eq!(second.wait().unwrap().as_ref(), &[2; 8]);
}
