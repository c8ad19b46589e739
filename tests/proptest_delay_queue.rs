//! Property-based tests of the DHA delay queues ([`DelayQueues`]): under
//! arbitrary interleavings of pushes (staging completions), pops (idle
//! workers), and removals (task stealing, fault retries), dispatch order is
//! descending (priority, FIFO) per endpoint and removed tasks never
//! dispatch.
//!
//! The draws are shaped to reach the queue's edge cases: priorities come
//! mostly from a small set (exact ties, −0.0 vs 0.0, ±∞, negatives), task
//! ids are sparse up to `1 << 16` and endpoints go up to 8 (both dense
//! index axes must grow), and push-heavy phases pile well over 64 entries
//! onto one endpoint before remove-heavy phases turn most of them into
//! tombstones (the compaction path).

use fedci::endpoint::EndpointId;
use proptest::prelude::*;
use taskgraph::TaskId;
use unifaas::sched::queue::DelayQueues;

#[derive(Clone, Debug)]
enum Op {
    /// Staging completed: queue the task (moves it if already queued).
    Push { task: u32, ep: u16, prio: f64 },
    /// A worker on `ep` went idle: dispatch the best waiting task.
    Pop { ep: u16 },
    /// The task was stolen or removed: drop it wherever it waits.
    Remove { task: u32 },
}

/// Highest endpoint id drawn.
const MAX_EP: u16 = 8;
/// Distinct tasks per case: enough to hold > 64 live entries at once.
const TASKS: u32 = 200;

/// The `i`-th task id: odd multipliers are bijective modulo `1 << 16`, so
/// the ids are distinct and spread over `0..1 << 16`.
fn sparse_task(i: u32) -> u32 {
    i.wrapping_mul(40_503) % (1 << 16)
}

fn arb_task() -> impl Strategy<Value = u32> {
    (0..TASKS).prop_map(sparse_task)
}

/// Three draws in four on endpoints 0 and 1, so one heap grows past the
/// compaction threshold; otherwise any endpoint up to `MAX_EP`.
fn arb_ep() -> impl Strategy<Value = u16> {
    (0u16..4, 0..MAX_EP + 1).prop_map(|(k, ep)| if k == 0 { ep } else { ep % 2 })
}

/// Four draws in five from a handful of exact values, so ties (and −0.0
/// against 0.0) are common; otherwise any value in a wide range.
fn arb_prio() -> impl Strategy<Value = f64> {
    const EXACT: [f64; 8] = [
        -0.0,
        0.0,
        1.0,
        2.5,
        -1.0,
        -7.25,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    (0..EXACT.len() * 5 / 4, -100.0f64..100.0).prop_map(|(i, x)| EXACT.get(i).copied().unwrap_or(x))
}

/// One operation, drawn with the given relative weights.
fn arb_op(push: u32, pop: u32, remove: u32) -> impl Strategy<Value = Op> {
    (0..push + pop + remove, arb_task(), arb_ep(), arb_prio()).prop_map(
        move |(k, task, ep, prio)| {
            if k < push {
                Op::Push { task, ep, prio }
            } else if k < push + pop {
                Op::Pop { ep }
            } else {
                Op::Remove { task }
            }
        },
    )
}

/// Alternating phases: push-heavy ones (with interleaved removes) grow the
/// queues past 64 live entries, remove/pop-heavy ones shrink them.
fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let phase = prop_oneof![
        proptest::collection::vec(arb_op(6, 1, 2), 100..240),
        proptest::collection::vec(arb_op(1, 3, 4), 20..120),
    ];
    proptest::collection::vec(phase, 1..5).prop_map(|p| p.concat())
}

/// Straight-line reference model: a flat list of live entries; pop scans
/// for the best (priority, then earliest push) entry on the endpoint.
#[derive(Default)]
struct Model {
    entries: Vec<(TaskId, EndpointId, f64, u64)>,
    next_token: u64,
}

impl Model {
    fn push(&mut self, task: TaskId, ep: EndpointId, prio: f64) {
        self.entries.retain(|e| e.0 != task);
        self.entries.push((task, ep, prio, self.next_token));
        self.next_token += 1;
    }

    fn pop(&mut self, ep: EndpointId) -> Option<TaskId> {
        let best = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.1 == ep)
            .max_by(|(_, a), (_, b)| {
                a.2.partial_cmp(&b.2).unwrap().then(b.3.cmp(&a.3)) // earlier push wins ties
            })
            .map(|(i, _)| i)?;
        Some(self.entries.remove(best).0)
    }

    fn remove(&mut self, task: TaskId) -> Option<EndpointId> {
        let i = self.entries.iter().position(|e| e.0 == task)?;
        Some(self.entries.remove(i).1)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn matches_reference_model(ops in arb_ops()) {
        let mut queues = DelayQueues::new();
        let mut model = Model::default();
        let mut removed: std::collections::HashSet<TaskId> =
            std::collections::HashSet::new();
        for op in ops {
            match op {
                Op::Push { task, ep, prio } => {
                    let (task, ep) = (TaskId(task), EndpointId(ep));
                    queues.push(task, ep, prio);
                    model.push(task, ep, prio);
                    removed.remove(&task);
                }
                Op::Pop { ep } => {
                    let ep = EndpointId(ep);
                    let got = queues.pop(ep);
                    let want = model.pop(ep);
                    prop_assert_eq!(
                        got, want,
                        "pop({}) diverged from the reference model", ep.0
                    );
                    if let Some(t) = got {
                        prop_assert!(
                            !removed.contains(&t),
                            "removed task {} was dispatched", t
                        );
                    }
                }
                Op::Remove { task } => {
                    let task = TaskId(task);
                    let got = queues.remove(task);
                    let want = model.remove(task);
                    prop_assert_eq!(got, want, "remove({}) diverged", task);
                    removed.insert(task);
                }
            }
            // Aggregate bookkeeping stays consistent at every step.
            prop_assert_eq!(queues.len(), model.entries.len());
            prop_assert_eq!(queues.is_empty(), model.entries.is_empty());
            for &(t, ep, _, _) in &model.entries {
                prop_assert_eq!(queues.position_of(t), Some(ep));
            }
        }
        // Drain everything that remains: full order must match per endpoint.
        for ep in 0..=MAX_EP {
            let ep = EndpointId(ep);
            loop {
                let got = queues.pop(ep);
                let want = model.pop(ep);
                prop_assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            }
            prop_assert!(queues.is_empty_at(ep));
        }
        prop_assert!(queues.is_empty());
    }

    #[test]
    fn drains_in_descending_priority_fifo(
        prios in proptest::collection::vec(arb_prio(), 1..200)
    ) {
        let mut queues = DelayQueues::new();
        let ep = EndpointId(0);
        for (i, &p) in prios.iter().enumerate() {
            queues.push(TaskId(i as u32), ep, p);
        }
        let mut drained: Vec<(f64, u32)> = Vec::new();
        while let Some(t) = queues.pop(ep) {
            drained.push((prios[t.index()], t.0));
        }
        prop_assert_eq!(drained.len(), prios.len());
        for w in drained.windows(2) {
            let (pa, ta) = w[0];
            let (pb, tb) = w[1];
            prop_assert!(
                pa > pb || (pa == pb && ta < tb),
                "out of order: ({pa}, {ta}) before ({pb}, {tb})"
            );
        }
    }
}
