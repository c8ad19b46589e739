//! Function-pinned scheduling.
//!
//! Maps each function to a fixed endpoint by label. This is not one of the
//! paper's three general algorithms — it reproduces the multi-endpoint
//! elasticity experiment (Fig. 7), where "each endpoint runs a distinct
//! task duration" (task1 on EP1, task2 on EP2, task3 on EP3) so endpoints
//! can be shown scaling independently.

use crate::sched::{SchedCtx, Scheduler};
use fedci::endpoint::EndpointId;
use std::collections::HashMap;
use taskgraph::TaskId;

/// Schedules every task of a function onto its pinned endpoint.
#[derive(Debug)]
pub struct PinnedScheduler {
    /// function name → endpoint label (from the config).
    by_function: Vec<(String, String)>,
    /// Resolved endpoint per function name (lazily built).
    resolved: HashMap<String, EndpointId>,
    /// Fallback endpoint for unpinned functions.
    fallback: Option<EndpointId>,
}

impl PinnedScheduler {
    /// Creates the scheduler from `(function, endpoint label)` pairs.
    pub fn new(by_function: Vec<(String, String)>) -> Self {
        PinnedScheduler {
            by_function,
            resolved: HashMap::new(),
            fallback: None,
        }
    }

    fn endpoint_for(&mut self, ctx: &SchedCtx, task: TaskId) -> EndpointId {
        let fname = ctx.dag.function_name(ctx.dag.spec(task).function);
        if let Some(ep) = self.resolved.get(fname) {
            return *ep;
        }
        let label = self
            .by_function
            .iter()
            .find(|(f, _)| f == fname)
            .map(|(_, l)| l.clone());
        let ep = match label {
            Some(label) => ctx
                .monitor
                .mocks()
                .iter()
                .find(|m| m.label == label)
                .map(|m| m.id)
                .unwrap_or_else(|| panic!("pinned label `{label}` not found")),
            None => *self.fallback.get_or_insert(ctx.compute_eps[0]),
        };
        self.resolved.insert(fname.to_string(), ep);
        ep
    }
}

impl Scheduler for PinnedScheduler {
    fn name(&self) -> &'static str {
        "Pinned"
    }

    fn on_tasks_ready(&mut self, ctx: &mut SchedCtx, tasks: &[TaskId]) -> usize {
        // A pin reads only the function name: applying a `Stage` between
        // tasks changes nothing the next decision reads.
        for &task in tasks {
            let ep = self.endpoint_for(ctx, task);
            ctx.stage(task, ep);
        }
        tasks.len()
    }

    fn on_staging_complete(&mut self, ctx: &mut SchedCtx, task: TaskId) {
        let ep = self.endpoint_for(ctx, task);
        // Like Capacity: dispatch immediately and queue on the endpoint —
        // queue depth is what drives the elastic scale-out.
        ctx.dispatch(task, ep);
    }

    fn has_idle_work(&self, _ep: EndpointId) -> bool {
        // Pinned never reacts to idle workers.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{EndpointMonitor, MockEndpoint};
    use crate::profile::{EndpointFeatures, OracleProfiler};
    use crate::sched::SchedAction;
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

    fn fixture() -> Fixture {
        let mut dag = Dag::new();
        let f1 = dag.register_function("task1");
        let f2 = dag.register_function("task2");
        dag.add_task(TaskSpec::compute(f1, 30.0), &[]);
        dag.add_task(TaskSpec::compute(f2, 15.0), &[]);
        dag.add_task(TaskSpec::compute(f1, 30.0), &[]);
        let mocks = vec![
            MockEndpoint::new(EndpointId(0), "EP1", 2, 1.0),
            MockEndpoint::new(EndpointId(1), "EP2", 2, 1.0),
        ];
        Fixture {
            dag,
            monitor: EndpointMonitor::new(mocks),
            store: DataStore::new(),
            oracle: OracleProfiler::new(
                NetworkTopology::uniform(2, Link::wan()),
                TransferMechanism::Globus.default_params(),
            ),
            features: (0..2)
                .map(|i| EndpointFeatures {
                    id: EndpointId(i as u16),
                    cores: 16,
                    cpu_ghz: 2.6,
                    ram_gb: 64,
                    speed_factor: 1.0,
                })
                .collect(),
            compute: vec![EndpointId(0), EndpointId(1)],
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
    fn pins_functions_to_labels() {
        let fx = fixture();
        let mut sched = PinnedScheduler::new(vec![
            ("task1".into(), "EP1".into()),
            ("task2".into(), "EP2".into()),
        ]);
        let mut c = ctx(&fx);
        sched.on_tasks_ready(&mut c, &[TaskId(0)]);
        sched.on_tasks_ready(&mut c, &[TaskId(1)]);
        sched.on_tasks_ready(&mut c, &[TaskId(2)]);
        assert_eq!(
            c.take_actions(),
            vec![
                SchedAction::Stage {
                    task: TaskId(0),
                    ep: EndpointId(0)
                },
                SchedAction::Stage {
                    task: TaskId(1),
                    ep: EndpointId(1)
                },
                SchedAction::Stage {
                    task: TaskId(2),
                    ep: EndpointId(0)
                },
            ]
        );
        sched.on_staging_complete(&mut c, TaskId(1));
        assert_eq!(
            c.take_actions(),
            vec![SchedAction::Dispatch {
                task: TaskId(1),
                ep: EndpointId(1)
            }]
        );
    }

    #[test]
    fn unpinned_function_falls_back_to_first_endpoint() {
        let fx = fixture();
        let mut sched = PinnedScheduler::new(vec![("task1".into(), "EP1".into())]);
        let mut c = ctx(&fx);
        sched.on_tasks_ready(&mut c, &[TaskId(1)]); // task2 is unpinned
        assert_eq!(
            c.take_actions(),
            vec![SchedAction::Stage {
                task: TaskId(1),
                ep: EndpointId(0)
            }]
        );
    }

    #[test]
    #[should_panic(expected = "not found")]
    fn unknown_label_panics() {
        let fx = fixture();
        let mut sched = PinnedScheduler::new(vec![("task1".into(), "EP9".into())]);
        let mut c = ctx(&fx);
        sched.on_tasks_ready(&mut c, &[TaskId(0)]);
    }
}
