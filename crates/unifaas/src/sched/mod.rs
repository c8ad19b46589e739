//! The *decide* stage: pluggable workflow schedulers (§IV-D, Table I).
//!
//! | | Capacity | Locality | DHA |
//! |---|---|---|---|
//! | Scheduling type | Offline | Real-time | Hybrid |
//! | Dynamic DAG supported | ✗ | ✓ | ✓ |
//! | Dynamic resource supported | ✗ | ✓ | ✓ |
//! | Knowledge required | ✗ | ✗ | ✓ |
//!
//! Schedulers are event-driven: the runtime invokes hooks when tasks become
//! ready, staging completes, workers go idle, capacity changes, or a
//! re-scheduling tick fires. Hooks communicate decisions back through
//! [`SchedCtx`] actions, which the runtime executes after the hook returns:
//!
//! * [`SchedCtx::stage`] — pick (or re-pick) a target endpoint and begin
//!   staging the task's missing inputs there;
//! * [`SchedCtx::dispatch`] — submit the task to its endpoint now.

pub mod capacity;
pub mod dha;
pub mod locality;
pub mod pinned;
pub mod queue;

pub use capacity::CapacityScheduler;
pub use dha::{DhaOptions, DhaScheduler};
pub use locality::LocalityScheduler;
pub use pinned::PinnedScheduler;

use crate::data::TransferLoad;
use crate::monitor::{EndpointMonitor, HealthMonitor};
use crate::profile::{EndpointFeatures, Predictor};
use crate::trace::DecisionRecord;
use fedci::endpoint::EndpointId;
use fedci::storage::{DataId, DataStore};
use simkit::SimTime;
use taskgraph::{Dag, TaskId};

/// A decision emitted by a scheduler hook.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedAction {
    /// Set `task`'s target endpoint and stage its missing inputs there.
    /// Re-issuing with a different endpoint re-targets the task (the DHA
    /// re-scheduling/task-stealing path).
    Stage {
        /// The task to stage.
        task: TaskId,
        /// Its (new) target endpoint.
        ep: EndpointId,
    },
    /// Submit `task` to `ep` (its inputs must already be present there).
    Dispatch {
        /// The task to submit.
        task: TaskId,
        /// The endpoint to run on.
        ep: EndpointId,
    },
}

/// Read view + action sink passed to scheduler hooks.
pub struct SchedCtx<'a> {
    /// Current time.
    pub now: SimTime,
    /// The workflow DAG (may have grown since the last hook).
    pub dag: &'a Dag,
    /// Mock endpoints (the local mocking mechanism's real-time view).
    pub monitor: &'a EndpointMonitor,
    /// Data object locations.
    pub store: &'a DataStore,
    /// Task/transfer predictions.
    pub predictor: &'a dyn Predictor,
    /// Hardware features per endpoint (indexed by endpoint id).
    pub endpoints: &'a [EndpointFeatures],
    /// The home endpoint (client + initial data).
    pub home: EndpointId,
    /// Endpoints that can execute tasks (max_workers > 0).
    pub compute_eps: &'a [EndpointId],
    /// Per-pair transfer congestion (the data manager's queues).
    pub xfer_load: &'a dyn TransferLoad,
    /// Outputs at or below this size travel inline through the FaaS
    /// service (the paper's 10 MB payload limit) and never involve the
    /// data manager.
    pub inline_limit: u64,
    /// True when the runtime wants a [`DecisionRecord`] per placement.
    /// Schedulers should skip building candidate vectors when false so the
    /// untraced hot path stays allocation-free.
    pub trace_decisions: bool,
    /// Endpoint liveness view, when the runtime tracks one. Candidate
    /// loops consult [`SchedCtx::is_down`]; `None` means every endpoint is
    /// schedulable. Kept optional so test fixtures (and runtimes without
    /// fault tolerance) need no monitor.
    health: Option<&'a HealthMonitor>,
    actions: Vec<SchedAction>,
    decisions: Vec<DecisionRecord>,
}

impl<'a> SchedCtx<'a> {
    /// Creates a context (runtime-internal).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        now: SimTime,
        dag: &'a Dag,
        monitor: &'a EndpointMonitor,
        store: &'a DataStore,
        predictor: &'a dyn Predictor,
        endpoints: &'a [EndpointFeatures],
        home: EndpointId,
        compute_eps: &'a [EndpointId],
        xfer_load: &'a dyn TransferLoad,
        inline_limit: u64,
    ) -> Self {
        SchedCtx {
            now,
            dag,
            monitor,
            store,
            predictor,
            endpoints,
            home,
            compute_eps,
            xfer_load,
            inline_limit,
            trace_decisions: false,
            health: None,
            actions: Vec::new(),
            decisions: Vec::new(),
        }
    }

    /// Enables decision-record capture for this hook invocation
    /// (runtime-internal; builder-style so existing call sites are
    /// unchanged).
    pub fn with_decision_trace(mut self, on: bool) -> Self {
        self.trace_decisions = on;
        self
    }

    /// Seeds the action sink with a recycled buffer (runtime-internal).
    /// The runtime hands back the buffer it got from
    /// [`SchedCtx::take_actions`] on the previous hook, cleared, so the
    /// steady-state hook path allocates no fresh `Vec` per event.
    pub fn with_action_buf(mut self, buf: Vec<SchedAction>) -> Self {
        debug_assert!(buf.is_empty());
        self.actions = buf;
        self
    }

    /// Seeds the decision sink with a recycled buffer (runtime-internal);
    /// same contract as [`SchedCtx::with_action_buf`].
    pub fn with_decision_buf(mut self, buf: Vec<DecisionRecord>) -> Self {
        debug_assert!(buf.is_empty());
        self.decisions = buf;
        self
    }

    /// Attaches the runtime's endpoint-health view (runtime-internal;
    /// builder-style so existing call sites are unchanged).
    pub fn with_health(mut self, health: &'a HealthMonitor) -> Self {
        self.health = Some(health);
        self
    }

    /// True if `ep` is known to be Down and must be skipped when picking
    /// placement candidates. Without a health monitor, always false.
    pub fn is_down(&self, ep: EndpointId) -> bool {
        self.health.is_some_and(|h| h.is_down(ep))
    }

    /// True if every compute endpoint is currently Down — placement is
    /// impossible and the task should be parked until capacity returns.
    pub fn all_down(&self) -> bool {
        self.health
            .is_some_and(|h| self.compute_eps.iter().all(|&ep| h.is_down(ep)))
    }

    /// Requests staging of `task`'s inputs to `ep` (also setting/updating
    /// its target endpoint).
    pub fn stage(&mut self, task: TaskId, ep: EndpointId) {
        self.actions.push(SchedAction::Stage { task, ep });
    }

    /// Requests dispatch of `task` to `ep`.
    pub fn dispatch(&mut self, task: TaskId, ep: EndpointId) {
        self.actions.push(SchedAction::Dispatch { task, ep });
    }

    /// Drains the queued actions (runtime-internal).
    pub fn take_actions(&mut self) -> Vec<SchedAction> {
        std::mem::take(&mut self.actions)
    }

    /// Records a placement decision. Schedulers should only call this when
    /// [`SchedCtx::trace_decisions`] is set.
    pub fn decide(&mut self, record: DecisionRecord) {
        self.decisions.push(record);
    }

    /// Drains the recorded decisions (runtime-internal).
    pub fn take_decisions(&mut self) -> Vec<DecisionRecord> {
        std::mem::take(&mut self.decisions)
    }

    /// Data objects `task` consumes: predecessor outputs plus its external
    /// input (if any). Outputs within the inline payload limit are
    /// excluded.
    pub fn task_inputs(&self, task: TaskId) -> Vec<DataId> {
        task_inputs(self.dag, task, self.inline_limit)
    }
}

/// Data-object id conventions shared by the runtime, data manager and
/// schedulers: each task `t` owns two potential objects.
pub fn external_input_id(task: TaskId) -> DataId {
    DataId(task.0 as u64 * 2)
}

/// The data object holding `task`'s output file.
pub fn output_id(task: TaskId) -> DataId {
    DataId(task.0 as u64 * 2 + 1)
}

/// Data objects a task consumes (predecessor outputs + external input).
///
/// Predecessor outputs at or below `inline_limit` bytes are omitted: small
/// results travel inline through the FaaS service (the paper's 10 MB
/// Python-object payload path), so only `RemoteFile`-sized outputs involve
/// the data manager. External inputs are always files.
pub fn task_inputs(dag: &Dag, task: TaskId, inline_limit: u64) -> Vec<DataId> {
    let mut inputs: Vec<DataId> = dag
        .preds(task)
        .iter()
        .filter(|p| {
            let b = dag.spec(**p).output_bytes;
            b > 0 && b > inline_limit
        })
        .map(|p| output_id(*p))
        .collect();
    if dag.spec(task).external_input_bytes > 0 {
        inputs.push(external_input_id(task));
    }
    inputs
}

/// The scheduler interface. Default hook implementations do nothing, so a
/// scheduler only implements the events it cares about.
pub trait Scheduler {
    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// New tasks appeared in the DAG (workflow submission or dynamic
    /// growth).
    fn on_tasks_added(&mut self, _ctx: &mut SchedCtx, _tasks: &[TaskId]) {}

    /// `tasks` became ready at the same instant (the engine delivers
    /// same-timestamp event runs back-to-back and the runtime coalesces
    /// them; a single ready task arrives as a one-task slice).
    ///
    /// **Consume-a-prefix contract.** The scheduler must place at least
    /// one task and return how many it consumed; the runtime then applies
    /// the queued [`SchedAction`]s and calls again with the remainder.
    /// This lets a scheduler stop early whenever a decision it just made
    /// must take effect before the next task can be evaluated (e.g. DHA's
    /// transfer-backlog feedback), while schedulers whose decisions are
    /// independent consume the whole slice in one call — amortizing the
    /// per-hook context setup, wall-clock sampling, and action-drain
    /// overhead across the run.
    fn on_tasks_ready(&mut self, ctx: &mut SchedCtx, tasks: &[TaskId]) -> usize;

    /// `task`'s inputs are all present at its target endpoint.
    fn on_staging_complete(&mut self, ctx: &mut SchedCtx, task: TaskId);

    /// Workers became idle (and no endpoint-queued task consumed them):
    /// `idle` lists endpoints with their current idle-worker counts. Called
    /// once per drive, not once per idle slot; a scheduler holding tasks
    /// ready to dispatch should emit up to `count` dispatches per endpoint
    /// in one pass. Queued actions are applied after the hook returns; the
    /// runtime re-invokes while dispatches keep landing.
    fn on_workers_idle(&mut self, _ctx: &mut SchedCtx, _idle: &[(EndpointId, usize)]) {}

    /// Cheap pre-check for the idle-worker hook: could the scheduler do
    /// anything with an idle worker on `ep` right now? While this returns
    /// `false` the runtime may skip the `on_workers_idle` round-trip
    /// entirely — on large runs that is one saved hook call per freed
    /// worker slot. Implementations must be conservative (return
    /// `true` unless certainly idle-indifferent) and side-effect free; the
    /// default keeps every existing scheduler on the always-invoked path.
    fn has_idle_work(&self, _ep: EndpointId) -> bool {
        true
    }

    /// The resource capacity of some endpoint changed.
    fn on_capacity_change(&mut self, _ctx: &mut SchedCtx) {}

    /// Periodic re-scheduling tick (only delivered if
    /// [`Scheduler::wants_ticks`]).
    fn on_tick(&mut self, _ctx: &mut SchedCtx) {}

    /// `task` left the scheduler's jurisdiction: the runtime took it over
    /// (fault-tolerance retry, §IV-G) or it failed permanently. The
    /// scheduler must drop any internal state it holds for the task.
    fn on_task_removed(&mut self, _task: TaskId) {}

    /// Whether the runtime should schedule periodic ticks.
    fn wants_ticks(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskgraph::TaskSpec;

    #[test]
    fn data_id_conventions_are_disjoint() {
        let mut seen = std::collections::HashSet::new();
        for t in 0..100u32 {
            assert!(seen.insert(external_input_id(TaskId(t))));
            assert!(seen.insert(output_id(TaskId(t))));
        }
    }

    #[test]
    fn task_inputs_includes_external_only_when_present() {
        let mut dag = Dag::new();
        let f = dag.register_function("f");
        let a = dag.add_task(TaskSpec::compute(f, 1.0).with_output_bytes(10), &[]);
        let b = dag.add_task(TaskSpec::compute(f, 1.0).with_external_input_bytes(5), &[a]);
        let c = dag.add_task(TaskSpec::compute(f, 1.0), &[a]);
        assert_eq!(
            task_inputs(&dag, b, 0),
            vec![output_id(a), external_input_id(b)]
        );
        assert_eq!(task_inputs(&dag, c, 0), vec![output_id(a)]);
        assert_eq!(task_inputs(&dag, a, 0), vec![]);
        // An inline limit of 10 bytes swallows the 10-byte output but not
        // the external input.
        assert_eq!(task_inputs(&dag, b, 10), vec![external_input_id(b)]);
        assert_eq!(task_inputs(&dag, c, 10), vec![]);
    }
}
