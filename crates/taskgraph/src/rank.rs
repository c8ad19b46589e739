//! DHA task prioritization (Eq. 2 of the paper):
//!
//! ```text
//! priority(t_i) = d̄_i + w̄_i + max over successors t_j of priority(t_j)
//! ```
//!
//! where `d̄_i` is the task's average data-staging time over all endpoints
//! and `w̄_i` its average execution time over all endpoints. This is the
//! HEFT *upward rank*: computed in reverse topological order, it guarantees
//! predecessors rank strictly above their successors, so scheduling in
//! descending priority order respects dependencies.

use crate::graph::Dag;
use crate::task::TaskId;
use crate::traverse::topological_order;

/// Per-task cost estimates fed into the priority computation.
pub trait CostEstimator {
    /// Average data staging time of the task over all endpoints, seconds.
    fn avg_staging_seconds(&self, task: TaskId) -> f64;
    /// Average execution time of the task over all endpoints, seconds.
    fn avg_execution_seconds(&self, task: TaskId) -> f64;
}

/// A [`CostEstimator`] backed by closures; convenient for tests and for the
/// profiler-driven implementation in the `unifaas` crate.
pub struct FnCosts<D, W>
where
    D: Fn(TaskId) -> f64,
    W: Fn(TaskId) -> f64,
{
    /// Average staging-time closure.
    pub staging: D,
    /// Average execution-time closure.
    pub execution: W,
}

impl<D, W> CostEstimator for FnCosts<D, W>
where
    D: Fn(TaskId) -> f64,
    W: Fn(TaskId) -> f64,
{
    fn avg_staging_seconds(&self, task: TaskId) -> f64 {
        (self.staging)(task)
    }
    fn avg_execution_seconds(&self, task: TaskId) -> f64 {
        (self.execution)(task)
    }
}

/// Computes Eq. 2 priorities for every task. Returns a vector indexed by
/// task id.
pub fn priorities<C: CostEstimator>(dag: &Dag, costs: &C) -> Vec<f64> {
    let mut prio = vec![0.0f64; dag.len()];
    // Reverse topological order: successors before predecessors.
    for &t in topological_order(dag).iter().rev() {
        let succ_max = dag
            .succs(t)
            .iter()
            .map(|s| prio[s.index()])
            .fold(0.0, f64::max);
        prio[t.index()] = costs.avg_staging_seconds(t) + costs.avg_execution_seconds(t) + succ_max;
    }
    prio
}

/// Extends an existing priority vector to cover a DAG that has grown since
/// `prio` was computed, without revisiting the whole graph.
///
/// `prio` must hold consistent Eq. 2 priorities for the first `prio.len()`
/// tasks of `dag`, computed with the *same* cost estimates (recompute from
/// scratch with [`priorities`] whenever the estimates change). The DAG is
/// append-only and every edge points from a lower id to a higher id
/// (creation order is topological), which gives the incremental scheme its
/// two legs:
///
/// 1. New tasks' successors are themselves new, so walking the new suffix
///    in reverse id order computes their ranks directly.
/// 2. An existing task's rank can only *grow* (a new successor can raise
///    `max over successors` but nothing can lower it), so a worklist that
///    propagates increases from the new tasks up through the ancestor
///    frontier — stopping wherever the old rank already dominates —
///    touches only the affected region.
///
/// Cost: O(new tasks + affected ancestors + their edges), versus O(whole
/// DAG) for a full recompute on every growth step.
pub fn extend_priorities<C: CostEstimator>(dag: &Dag, costs: &C, prio: &mut Vec<f64>) {
    let old_n = prio.len();
    let n = dag.len();
    assert!(old_n <= n, "priority vector longer than the DAG");
    if old_n == n {
        return;
    }
    prio.resize(n, 0.0);
    // Leg 1: the new suffix, in reverse id order (reverse topological).
    for i in (old_n..n).rev() {
        let t = TaskId(i as u32);
        let succ_max = dag
            .succs(t)
            .iter()
            .map(|s| prio[s.index()])
            .fold(0.0, f64::max);
        prio[i] = costs.avg_staging_seconds(t) + costs.avg_execution_seconds(t) + succ_max;
    }
    // Leg 2: propagate increases into the pre-existing prefix. Seed with
    // the old predecessors of new tasks; follow predecessor edges only
    // while ranks actually rise.
    let mut work: Vec<TaskId> = Vec::new();
    for i in old_n..n {
        for &p in dag.preds(TaskId(i as u32)) {
            if p.index() < old_n {
                work.push(p);
            }
        }
    }
    while let Some(t) = work.pop() {
        let succ_max = dag
            .succs(t)
            .iter()
            .map(|s| prio[s.index()])
            .fold(0.0, f64::max);
        let updated = costs.avg_staging_seconds(t) + costs.avg_execution_seconds(t) + succ_max;
        if updated > prio[t.index()] {
            prio[t.index()] = updated;
            work.extend(dag.preds(t).iter().copied());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{FunctionId, TaskSpec};

    fn spec(secs: f64) -> TaskSpec {
        TaskSpec::compute(FunctionId(0), secs)
    }

    fn exec_costs(dag: &Dag) -> impl CostEstimator + '_ {
        FnCosts {
            staging: |_| 0.0,
            execution: move |t: TaskId| dag.spec(t).compute_seconds,
        }
    }

    #[test]
    fn chain_priorities_accumulate() {
        let mut dag = Dag::new();
        let a = dag.add_task(spec(1.0), &[]);
        let b = dag.add_task(spec(2.0), &[a]);
        let c = dag.add_task(spec(3.0), &[b]);
        let p = priorities(&dag, &exec_costs(&dag));
        assert!((p[c.index()] - 3.0).abs() < 1e-9);
        assert!((p[b.index()] - 5.0).abs() < 1e-9);
        assert!((p[a.index()] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn predecessors_rank_strictly_above_successors() {
        let mut dag = Dag::new();
        let a = dag.add_task(spec(1.0), &[]);
        let b = dag.add_task(spec(0.5), &[a]);
        let c = dag.add_task(spec(0.5), &[a]);
        let d = dag.add_task(spec(0.1), &[b, c]);
        let p = priorities(&dag, &exec_costs(&dag));
        for t in dag.task_ids() {
            for &s in dag.succs(t) {
                assert!(
                    p[t.index()] > p[s.index()],
                    "priority({t}) must exceed priority({s})"
                );
            }
        }
        let _ = d;
    }

    #[test]
    fn max_over_successors_not_sum() {
        let mut dag = Dag::new();
        let a = dag.add_task(spec(1.0), &[]);
        let _b = dag.add_task(spec(10.0), &[a]);
        let _c = dag.add_task(spec(20.0), &[a]);
        let p = priorities(&dag, &exec_costs(&dag));
        // priority(a) = 1 + max(10, 20) = 21, not 1 + 30.
        assert!((p[a.index()] - 21.0).abs() < 1e-9);
    }

    #[test]
    fn staging_time_contributes() {
        let mut dag = Dag::new();
        let a = dag.add_task(spec(1.0), &[]);
        let costs = FnCosts {
            staging: |_| 4.0,
            execution: |_| 1.0,
        };
        let p = priorities(&dag, &costs);
        assert!((p[a.index()] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn extend_matches_full_recompute_on_chain_growth() {
        let mut dag = Dag::new();
        let a = dag.add_task(spec(1.0), &[]);
        let b = dag.add_task(spec(2.0), &[a]);
        let costs = FnCosts {
            staging: |_| 0.0,
            execution: |_: TaskId| 1.0,
        };
        let mut prio = priorities(&dag, &costs);
        // Growing the tail raises every ancestor's rank.
        let c = dag.add_task(spec(3.0), &[b]);
        let _d = dag.add_task(spec(1.0), &[c]);
        extend_priorities(&dag, &costs, &mut prio);
        assert_eq!(prio, priorities(&dag, &costs));
        assert!((prio[a.index()] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn extend_stops_where_old_ranks_dominate() {
        // A heavy branch already dominates; attaching a light new subtree
        // to the shared root must leave the root's rank unchanged.
        let mut dag = Dag::new();
        let root = dag.add_task(spec(1.0), &[]);
        let mut heavy = root;
        for _ in 0..5 {
            heavy = dag.add_task(spec(100.0), &[heavy]);
        }
        let costs2 = FnCosts {
            staging: |_| 0.0,
            execution: |t: TaskId| if t.index() == 0 { 1.0 } else { 100.0 },
        };
        let mut prio = priorities(&dag, &costs2);
        let before_root = prio[root.index()];
        let light = dag.add_task(spec(100.0), &[root]);
        extend_priorities(&dag, &costs2, &mut prio);
        assert_eq!(prio[root.index()], before_root);
        assert_eq!(prio, priorities(&dag, &costs2));
        assert!(prio[light.index()] > 0.0);
    }

    #[test]
    fn extend_handles_cross_links_into_old_region() {
        let mut dag = Dag::new();
        let a = dag.add_task(spec(1.0), &[]);
        let b = dag.add_task(spec(1.0), &[]);
        let c = dag.add_task(spec(1.0), &[a, b]);
        let costs = FnCosts {
            staging: |_| 0.5,
            execution: |_: TaskId| 1.0,
        };
        let mut prio = priorities(&dag, &costs);
        // New diamond hanging off both an old mid task and an old root.
        let d = dag.add_task(spec(1.0), &[c, a]);
        let e = dag.add_task(spec(1.0), &[d, b]);
        let _f = dag.add_task(spec(1.0), &[e]);
        extend_priorities(&dag, &costs, &mut prio);
        assert_eq!(prio, priorities(&dag, &costs));
    }

    #[test]
    fn extend_on_unchanged_dag_is_a_no_op() {
        let mut dag = Dag::new();
        let _ = dag.add_task(spec(1.0), &[]);
        let costs = FnCosts {
            staging: |_| 0.0,
            execution: |_: TaskId| 1.0,
        };
        let mut prio = priorities(&dag, &costs);
        let before = prio.clone();
        extend_priorities(&dag, &costs, &mut prio);
        assert_eq!(prio, before);
    }

    #[test]
    fn repeated_extension_matches_batch_computation() {
        // Grow a randomish layered DAG one task at a time; the incremental
        // vector must track the from-scratch one exactly at every step.
        let mut dag = Dag::new();
        let costs = FnCosts {
            staging: |t: TaskId| (t.index() % 3) as f64 * 0.25,
            execution: |t: TaskId| 1.0 + (t.index() % 7) as f64,
        };
        let mut prio: Vec<f64> = Vec::new();
        for i in 0..60usize {
            let deps: Vec<TaskId> = (0..i)
                .filter(|j| (i * 7 + j * 13) % 11 == 0)
                .map(|j| TaskId(j as u32))
                .collect();
            dag.add_task(spec(1.0), &deps);
            extend_priorities(&dag, &costs, &mut prio);
            assert_eq!(prio, priorities(&dag, &costs), "diverged at task {i}");
        }
    }
}
