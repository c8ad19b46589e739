//! Capacity-aware scheduling (§IV-D, Eq. 1, Fig. 2).
//!
//! Offline: immediately after a DAG is submitted, tasks are partitioned
//! across endpoints proportionally to worker counts, in DFS order for data
//! locality. Ready tasks stage to their pre-decided endpoint, and dispatch
//! *immediately* after staging — without waiting for idle workers — so
//! staging overlaps computation and tasks queue on the endpoint itself.
//! Because decisions are never revisited, Capacity suits static DAGs on
//! static resources (its failure mode under dynamic capacity is Table V).

use crate::sched::{SchedCtx, Scheduler};
use fedci::endpoint::EndpointId;
use taskgraph::partition::capacity_partition;
use taskgraph::TaskId;

/// The offline capacity-proportional scheduler.
#[derive(Debug, Default)]
pub struct CapacityScheduler {
    /// Target endpoint per task, fixed at submission.
    targets: Vec<Option<EndpointId>>,
}

impl CapacityScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        CapacityScheduler::default()
    }

    /// The decided target of a task (for tests/metrics).
    pub fn target(&self, task: TaskId) -> Option<EndpointId> {
        self.targets.get(task.index()).copied().flatten()
    }

    /// Stages `task` on its partition target.
    fn place(&mut self, ctx: &mut SchedCtx, task: TaskId) {
        let mut ep = self.targets[task.index()].expect("task partitioned at submission");
        // Capacity never revisits its offline partition (Table I), with one
        // exception: a target the health monitor reports Down would eat the
        // task, so divert to the first live endpoint (keeping the diversion
        // sticky so staging and dispatch agree). With no health monitor or
        // no outage this path never fires and the partition is untouched.
        if ctx.is_down(ep) {
            if let Some(live) = ctx.compute_eps.iter().copied().find(|e| !ctx.is_down(*e)) {
                ep = live;
                self.targets[task.index()] = Some(live);
            }
        }
        ctx.stage(task, ep);
    }
}

impl Scheduler for CapacityScheduler {
    fn name(&self) -> &'static str {
        "Capacity"
    }

    fn on_tasks_added(&mut self, ctx: &mut SchedCtx, _tasks: &[TaskId]) {
        // Partition the whole DAG by current endpoint capacity; only fill
        // in targets for tasks that do not have one yet (a dynamic DAG gets
        // its late tasks partitioned on arrival, though Capacity is not
        // designed for that case). When every task already has a target —
        // a hook fired without actual DAG growth — the O(n) partition is
        // skipped entirely.
        self.targets.resize(ctx.dag.len(), None);
        if self.targets.iter().all(|t| t.is_some()) {
            return;
        }
        let capacities: Vec<usize> = ctx
            .compute_eps
            .iter()
            .map(|ep| ctx.monitor.mock(*ep).active_workers)
            .collect();
        let assignment = capacity_partition(ctx.dag, &capacities);
        for t in ctx.dag.task_ids() {
            if self.targets[t.index()].is_none() {
                self.targets[t.index()] = Some(ctx.compute_eps[assignment[t.index()]]);
            }
        }
    }

    fn has_idle_work(&self, _ep: EndpointId) -> bool {
        // Capacity dispatches straight from staging completion and never
        // reacts to idle workers (tasks queue on the endpoint instead).
        false
    }

    fn on_tasks_ready(&mut self, ctx: &mut SchedCtx, tasks: &[TaskId]) -> usize {
        // Each decision reads only the offline partition and endpoint
        // health — neither is touched by applying `Stage` actions — so a
        // whole same-timestamp ready run can be consumed in one call.
        for &task in tasks {
            self.place(ctx, task);
        }
        tasks.len()
    }

    fn on_staging_complete(&mut self, ctx: &mut SchedCtx, task: TaskId) {
        // Dispatch immediately; the task queues on the endpoint if all
        // workers are busy (overlapping staging with computation).
        let ep = self.targets[task.index()].expect("task partitioned at submission");
        ctx.dispatch(task, ep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{EndpointMonitor, MockEndpoint};
    use crate::profile::{EndpointFeatures, OracleProfiler};
    use crate::sched::{timed, SchedAction};
    use fedci::network::{Link, NetworkTopology};
    use fedci::storage::DataStore;
    use fedci::transfer::TransferMechanism;
    use simkit::SimTime;
    use taskgraph::{Dag, TaskSpec};

    struct Fixture {
        dag: Dag,
        monitor: EndpointMonitor,
        store: DataStore,
        oracle: OracleProfiler,
        features: Vec<EndpointFeatures>,
        compute: Vec<EndpointId>,
    }

    fn fixture(workers: &[usize]) -> Fixture {
        let mut dag = Dag::new();
        let f = dag.register_function("f");
        let root = dag.add_task(TaskSpec::compute(f, 1.0), &[]);
        for _ in 0..7 {
            dag.add_task(TaskSpec::compute(f, 1.0), &[root]);
        }
        let n = workers.len();
        let mocks = workers
            .iter()
            .enumerate()
            .map(|(i, w)| MockEndpoint::new(EndpointId(i as u16), &format!("ep{i}"), *w, 1.0))
            .collect();
        Fixture {
            dag,
            monitor: EndpointMonitor::new(mocks),
            store: DataStore::new(),
            oracle: OracleProfiler::new(
                NetworkTopology::uniform(n, Link::wan()),
                TransferMechanism::Globus.default_params(),
            ),
            features: (0..n)
                .map(|i| EndpointFeatures {
                    id: EndpointId(i as u16),
                    cores: 16,
                    cpu_ghz: 2.6,
                    ram_gb: 64,
                    speed_factor: 1.0,
                })
                .collect(),
            compute: (0..n as u16).map(EndpointId).collect(),
        }
    }

    fn ctx<'a>(fx: &'a Fixture) -> SchedCtx<'a> {
        SchedCtx::new(
            SimTime::ZERO,
            &fx.dag,
            &fx.monitor,
            &fx.store,
            &fx.oracle,
            &fx.features,
            EndpointId(0),
            &fx.compute,
            &crate::data::NoTransferLoad,
            0,
        )
    }

    #[test]
    fn partitions_proportionally_on_submission() {
        let fx = fixture(&[5, 2, 1]);
        let mut sched = CapacityScheduler::new();
        let mut c = ctx(&fx);
        let tasks: Vec<TaskId> = fx.dag.task_ids().collect();
        sched.on_tasks_added(&mut c, &tasks);
        let mut counts = [0usize; 3];
        for t in fx.dag.task_ids() {
            counts[sched.target(t).unwrap().index()] += 1;
        }
        assert_eq!(counts, [5, 2, 1]);
    }

    #[test]
    fn ready_stages_and_staged_dispatches_to_same_target() {
        let fx = fixture(&[2, 2]);
        let mut sched = CapacityScheduler::new();
        let mut c = ctx(&fx);
        let tasks: Vec<TaskId> = fx.dag.task_ids().collect();
        sched.on_tasks_added(&mut c, &tasks);
        let t0 = TaskId(0);
        let target = sched.target(t0).unwrap();

        sched.on_tasks_ready(&mut c, &[t0]);
        assert_eq!(
            c.take_actions(),
            vec![SchedAction::Stage {
                task: t0,
                ep: target
            }]
        );

        sched.on_staging_complete(&mut c, t0);
        assert_eq!(
            c.take_actions(),
            vec![SchedAction::Dispatch {
                task: t0,
                ep: target
            }]
        );
    }

    #[test]
    fn a_ready_run_stages_the_same_whole_or_one_task_per_call() {
        let fx = fixture(&[3, 2]);
        let tasks: Vec<TaskId> = fx.dag.task_ids().collect();
        let check = |whole: &mut dyn Scheduler, single: &mut dyn Scheduler| {
            let mut c = ctx(&fx);
            whole.on_tasks_added(&mut c, &tasks);
            single.on_tasks_added(&mut c, &tasks);
            // The root's children read no file: one call consumes them all.
            let run = &tasks[1..];
            assert_eq!(whole.on_tasks_ready(&mut c, run), run.len());
            let batched = c.take_actions();
            for &t in run {
                assert_eq!(single.on_tasks_ready(&mut c, &[t]), 1);
            }
            assert_eq!(c.take_actions(), batched);
            assert_eq!(batched.len(), run.len());
        };
        check(&mut CapacityScheduler::new(), &mut CapacityScheduler::new());
        // Behind the meter's decorator, which must change nothing.
        check(
            &mut timed(CapacityScheduler::new()),
            &mut timed(CapacityScheduler::new()),
        );
    }

    #[test]
    fn dispatches_even_when_no_idle_workers() {
        // Capacity queues on the endpoint; it never checks idle workers.
        let mut fx = fixture(&[1]);
        // Saturate the only endpoint in the mock view.
        fx.monitor.mock_mut(EndpointId(0)).push_task(1.0);
        let mut sched = CapacityScheduler::new();
        let mut c = ctx(&fx);
        let tasks: Vec<TaskId> = fx.dag.task_ids().collect();
        sched.on_tasks_added(&mut c, &tasks);
        sched.on_staging_complete(&mut c, TaskId(0));
        let actions = c.take_actions();
        assert_eq!(actions.len(), 1);
        assert!(matches!(actions[0], SchedAction::Dispatch { .. }));
    }

    #[test]
    fn late_tasks_keep_existing_targets() {
        let mut fx = fixture(&[4, 4]);
        let mut sched = CapacityScheduler::new();
        {
            let mut c = ctx(&fx);
            let tasks: Vec<TaskId> = fx.dag.task_ids().collect();
            sched.on_tasks_added(&mut c, &tasks);
        }
        let before: Vec<_> = fx.dag.task_ids().map(|t| sched.target(t)).collect();
        // Grow the DAG dynamically.
        let f = fx.dag.register_function("late");
        let late = fx.dag.add_task(TaskSpec::compute(f, 1.0), &[]);
        {
            let mut c = ctx(&fx);
            sched.on_tasks_added(&mut c, &[late]);
        }
        for (i, t) in fx.dag.task_ids().enumerate().take(before.len()) {
            assert_eq!(sched.target(t), before[i], "existing targets must not move");
        }
        assert!(sched.target(late).is_some());
    }
}
