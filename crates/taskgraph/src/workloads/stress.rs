//! CPU-stress workloads used by the scalability (Fig. 6), elasticity
//! (Fig. 7) and latency (Fig. 5) experiments.

use crate::graph::Dag;
use crate::task::{TaskSpec, MB};

/// A bag of `n` independent tasks, each burning `seconds` of CPU with no
/// data movement — the paper's "compute-intensive CPU stress (i.e. while
/// loop) tasks".
pub fn bag_of_tasks(n: usize, seconds: f64) -> Dag {
    let mut dag = Dag::new();
    let f = dag.register_function(&format!("stress_{seconds}s"));
    for _ in 0..n {
        dag.add_task(TaskSpec::compute(f, seconds), &[]);
    }
    dag
}

/// The Fig. 6 strong-scaling workloads: (a) 100,000 × 1 s, (b) 20,000 × 5 s.
pub fn strong_scaling(task_seconds: f64) -> Dag {
    match task_seconds as u64 {
        1 => bag_of_tasks(100_000, 1.0),
        5 => bag_of_tasks(20_000, 5.0),
        _ => panic!("strong_scaling expects 1 s or 5 s tasks"),
    }
}

/// The Fig. 6 weak-scaling workloads: 260 × 1 s or 52 × 5 s tasks per
/// worker, with `n_workers` total workers.
pub fn weak_scaling(task_seconds: f64, n_workers: usize) -> Dag {
    let per_worker = match task_seconds as u64 {
        1 => 260,
        5 => 52,
        _ => panic!("weak_scaling expects 1 s or 5 s tasks"),
    };
    bag_of_tasks(per_worker * n_workers, task_seconds)
}

/// A layered stress bag: `depth` layers of `width` independent tasks,
/// where task `j` of layer `k+1` depends on task `j` of layer `k` (a
/// bundle of `width` independent chains). Same no-data-movement shape
/// family as [`bag_of_tasks`] (`depth == 1` is exactly that), scaled to
/// million-task graphs for the engine/scheduler stress benchmarks: the
/// layering keeps a bounded ready frontier so the run exercises
/// readiness propagation, not just one giant initial burst.
pub fn layered_bag(width: usize, depth: usize, seconds: f64) -> Dag {
    assert!(depth >= 1, "layered_bag needs at least one layer");
    let mut dag = Dag::with_capacity(width * depth, width * (depth - 1));
    let f = dag.register_function(&format!("stress_{seconds}s"));
    let mut prev: Vec<crate::TaskId> = (0..width)
        .map(|_| dag.add_task(TaskSpec::compute(f, seconds), &[]))
        .collect();
    for _ in 1..depth {
        prev = prev
            .iter()
            .map(|p| dag.add_task(TaskSpec::compute(f, seconds), std::slice::from_ref(p)))
            .collect();
    }
    dag
}

/// The Fig. 5 "hello world" workload: a single ~1 s task reading a 1 MB
/// input file from the home endpoint.
pub fn hello_world() -> Dag {
    let mut dag = Dag::new();
    let f = dag.register_function("hello_world");
    dag.add_task(
        TaskSpec::compute(f, 1.087)
            .with_external_input_bytes(MB)
            .with_output_bytes(1024),
        &[],
    );
    dag
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bag_has_no_edges() {
        let dag = bag_of_tasks(100, 5.0);
        assert_eq!(dag.len(), 100);
        assert_eq!(dag.n_edges(), 0);
        assert_eq!(dag.roots().len(), 100);
        assert!((dag.total_compute_seconds() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn strong_scaling_workload_sizes() {
        assert_eq!(strong_scaling(1.0).len(), 100_000);
        assert_eq!(strong_scaling(5.0).len(), 20_000);
    }

    #[test]
    fn weak_scaling_matches_strong_at_16_endpoints() {
        // 16 endpoints × 24 workers = 384 workers; the paper notes weak and
        // strong workloads coincide at 16 endpoints.
        assert_eq!(weak_scaling(1.0, 384).len(), 99_840); // 260×384
        assert_eq!(weak_scaling(5.0, 384).len(), 19_968); // 52×384
    }

    #[test]
    #[should_panic(expected = "expects 1 s or 5 s")]
    fn strong_scaling_rejects_other_durations() {
        strong_scaling(2.0);
    }

    #[test]
    fn layered_bag_shape() {
        let dag = layered_bag(10, 4, 2.0);
        assert_eq!(dag.len(), 40);
        assert_eq!(dag.n_edges(), 30);
        assert_eq!(dag.roots().len(), 10);
        assert!((dag.total_compute_seconds() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn layered_bag_depth_one_is_a_bag() {
        let dag = layered_bag(25, 1, 1.0);
        assert_eq!(dag.len(), 25);
        assert_eq!(dag.n_edges(), 0);
    }

    #[test]
    fn hello_world_shape() {
        let dag = hello_world();
        assert_eq!(dag.len(), 1);
        let spec = dag.spec(crate::TaskId(0));
        assert_eq!(spec.external_input_bytes, MB);
        assert!((spec.compute_seconds - 1.087).abs() < 1e-9);
    }
}
