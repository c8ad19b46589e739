//! Locality-aware scheduling (§IV-D, Fig. 3).
//!
//! Real-time: a task is only assigned when some endpoint has an idle
//! worker. Assignment examines the current distribution of the task's
//! input data and picks the idle endpoint that minimizes bytes moved
//! (*locality selection*). The chosen worker is reserved through staging —
//! which is why Locality cannot hide staging delays (Fig. 10) — and the
//! task dispatches the moment its data lands.
//!
//! Locality needs no prior knowledge, so it works with dynamic DAGs and
//! dynamic resource capacity (Table I).

use crate::sched::{SchedCtx, Scheduler};
use fedci::endpoint::EndpointId;
use fedci::storage::DataId;
use std::collections::{HashMap, VecDeque};
use taskgraph::TaskId;

/// The real-time minimum-data-movement scheduler.
#[derive(Debug, Default)]
pub struct LocalityScheduler {
    /// Ready tasks awaiting an idle worker, FIFO, with their input-object
    /// lists (computed once at readiness — a task's inputs never change).
    ready: VecDeque<(TaskId, Vec<DataId>)>,
    /// Target endpoint of tasks currently staging.
    assigned: HashMap<TaskId, EndpointId>,
    /// Workers reserved (assignment made, staging not yet complete) per
    /// endpoint — subtracted from the mock's idle count.
    reserved: HashMap<EndpointId, usize>,
}

impl LocalityScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        LocalityScheduler::default()
    }

    /// Ready tasks not yet assigned (for tests/metrics).
    pub fn backlog(&self) -> usize {
        self.ready.len()
    }

    fn available(&self, ctx: &SchedCtx, ep: EndpointId) -> usize {
        ctx.monitor
            .mock(ep)
            .idle_workers()
            .saturating_sub(self.reserved.get(&ep).copied().unwrap_or(0))
    }

    /// Assigns as many ready tasks as there are available workers.
    fn try_assign(&mut self, ctx: &mut SchedCtx) {
        while let Some((task, inputs)) = self.ready.front() {
            let task = *task;
            // Locality selection among endpoints with available workers.
            // Ties (equal bytes moved) go to the endpoint with the most
            // available workers: big pools fill contiguously, which keeps
            // consecutive sibling tasks (and later their children) on the
            // same endpoint.
            let best = ctx
                .compute_eps
                .iter()
                .copied()
                .filter(|ep| !ctx.is_down(*ep) && self.available(ctx, *ep) > 0)
                .min_by_key(|ep| {
                    (
                        ctx.store.missing_bytes(inputs, *ep),
                        std::cmp::Reverse(self.available(ctx, *ep)),
                        ep.0,
                    )
                });
            let Some(ep) = best else {
                break; // no idle workers anywhere; wait for on_workers_idle
            };
            self.ready.pop_front();
            self.assigned.insert(task, ep);
            *self.reserved.entry(ep).or_insert(0) += 1;
            ctx.stage(task, ep);
        }
    }
}

impl Scheduler for LocalityScheduler {
    fn name(&self) -> &'static str {
        "Locality"
    }

    fn on_tasks_ready(&mut self, ctx: &mut SchedCtx, tasks: &[TaskId]) -> usize {
        // `try_assign` reads the mock idle count minus our own synchronous
        // `reserved` bookkeeping; applying its `Stage` actions between tasks
        // changes neither. Enqueue the whole run, then drain once — the
        // assignments (and their order) match one call per task exactly.
        for &task in tasks {
            let inputs = ctx.task_inputs(task);
            self.ready.push_back((task, inputs));
        }
        self.try_assign(ctx);
        tasks.len()
    }

    fn on_workers_idle(&mut self, ctx: &mut SchedCtx, _idle: &[(EndpointId, usize)]) {
        // One drain covers every newly idle slot: `try_assign` already loops
        // until it runs out of ready tasks or available workers.
        self.try_assign(ctx);
    }

    fn has_idle_work(&self, _ep: EndpointId) -> bool {
        // An idle worker only matters while tasks wait in the ready queue.
        !self.ready.is_empty()
    }

    fn on_staging_complete(&mut self, ctx: &mut SchedCtx, task: TaskId) {
        let ep = self
            .assigned
            .remove(&task)
            .expect("staging completed for unassigned task");
        if let Some(r) = self.reserved.get_mut(&ep) {
            *r = r.saturating_sub(1);
        }
        ctx.dispatch(task, ep);
    }

    fn on_capacity_change(&mut self, ctx: &mut SchedCtx) {
        self.try_assign(ctx);
    }

    fn on_task_removed(&mut self, task: TaskId) {
        if let Some(pos) = self.ready.iter().position(|(t, _)| *t == task) {
            self.ready.remove(pos);
        }
        if let Some(ep) = self.assigned.remove(&task) {
            // The staging reservation is void; free the worker slot.
            if let Some(r) = self.reserved.get_mut(&ep) {
                *r = r.saturating_sub(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{EndpointMonitor, MockEndpoint};
    use crate::profile::{EndpointFeatures, OracleProfiler};
    use crate::sched::{output_id, timed, SchedAction};
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
        let a = dag.add_task(TaskSpec::compute(f, 1.0).with_output_bytes(1000), &[]);
        let _b = dag.add_task(TaskSpec::compute(f, 1.0), &[a]);
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
    fn picks_endpoint_holding_the_data() {
        let mut fx = fixture(&[2, 2]);
        // Task a's output lives on ep1.
        fx.store.register(output_id(TaskId(0)), 1000, EndpointId(1));
        let mut sched = LocalityScheduler::new();
        let mut c = ctx(&fx);
        sched.on_tasks_ready(&mut c, &[TaskId(1)]);
        assert_eq!(
            c.take_actions(),
            vec![SchedAction::Stage {
                task: TaskId(1),
                ep: EndpointId(1)
            }]
        );
    }

    #[test]
    fn a_ready_run_stages_the_same_whole_or_one_task_per_call() {
        let mut fx = fixture(&[2, 2]);
        // Five independent tasks, no file inputs, one more than the workers.
        let g = fx.dag.register_function("g");
        let run: Vec<TaskId> = (0..5)
            .map(|_| fx.dag.add_task(TaskSpec::compute(g, 1.0), &[]))
            .collect();
        let check = |whole: &mut dyn Scheduler, single: &mut dyn Scheduler| {
            let mut c = ctx(&fx);
            assert_eq!(whole.on_tasks_ready(&mut c, &run), run.len());
            let batched = c.take_actions();
            for &t in &run {
                assert_eq!(single.on_tasks_ready(&mut c, &[t]), 1);
            }
            assert_eq!(c.take_actions(), batched);
            assert_eq!(batched.len(), 4);
        };
        let (mut whole, mut single) = (LocalityScheduler::new(), LocalityScheduler::new());
        check(&mut whole, &mut single);
        assert_eq!((whole.backlog(), single.backlog()), (1, 1));
        // Behind the meter's decorator, which must change nothing.
        check(
            &mut timed(LocalityScheduler::new()),
            &mut timed(LocalityScheduler::new()),
        );
    }

    #[test]
    fn waits_when_no_idle_workers() {
        let mut fx = fixture(&[1]);
        fx.monitor.mock_mut(EndpointId(0)).push_task(1.0);
        fx.store.register(output_id(TaskId(0)), 1000, EndpointId(0));
        let mut sched = LocalityScheduler::new();
        let mut c = ctx(&fx);
        sched.on_tasks_ready(&mut c, &[TaskId(1)]);
        assert!(c.take_actions().is_empty());
        assert_eq!(sched.backlog(), 1);
        // Worker frees up → assignment happens.
        fx.monitor.mock_mut(EndpointId(0)).pop_task(1.0);
        let mut c = ctx(&fx);
        sched.on_workers_idle(&mut c, &[(EndpointId(0), 1)]);
        assert_eq!(c.take_actions().len(), 1);
        assert_eq!(sched.backlog(), 0);
    }

    #[test]
    fn reservation_prevents_double_booking() {
        let mut fx = fixture(&[1, 0]);
        fx.store.register(output_id(TaskId(0)), 1000, EndpointId(0));
        // Add another independent task so two tasks compete for one worker.
        let f = fx.dag.register_function("g");
        let extra = fx.dag.add_task(TaskSpec::compute(f, 1.0), &[]);
        let mut sched = LocalityScheduler::new();
        let mut c = ctx(&fx);
        sched.on_tasks_ready(&mut c, &[TaskId(1)]);
        sched.on_tasks_ready(&mut c, &[extra]);
        // Only one Stage action: the single worker is reserved.
        assert_eq!(c.take_actions().len(), 1);
        assert_eq!(sched.backlog(), 1);
        // Staging completes → dispatch releases the reservation, but the
        // mock still shows the worker busy after dispatch, so the second
        // task keeps waiting.
        sched.on_staging_complete(&mut c, TaskId(1));
        let actions = c.take_actions();
        assert_eq!(
            actions,
            vec![SchedAction::Dispatch {
                task: TaskId(1),
                ep: EndpointId(0)
            }]
        );
    }

    #[test]
    fn ties_break_toward_less_loaded_endpoint() {
        let mut fx = fixture(&[2, 2]);
        // No data anywhere: both endpoints move the same bytes (zero).
        fx.monitor.mock_mut(EndpointId(0)).push_task(1.0);
        let f = fx.dag.register_function("g");
        let t = fx.dag.add_task(TaskSpec::compute(f, 1.0), &[]);
        let mut sched = LocalityScheduler::new();
        let mut c = ctx(&fx);
        sched.on_tasks_ready(&mut c, &[t]);
        assert_eq!(
            c.take_actions(),
            vec![SchedAction::Stage {
                task: t,
                ep: EndpointId(1)
            }]
        );
    }

    #[test]
    #[should_panic(expected = "unassigned task")]
    fn staging_complete_for_unknown_task_panics() {
        let fx = fixture(&[1]);
        let mut sched = LocalityScheduler::new();
        let mut c = ctx(&fx);
        sched.on_staging_complete(&mut c, TaskId(0));
    }
}
