//! Deterministic tests of the coordinator machine: no fabric, no thread, no
//! sleep. Liveness and the time are a [`Board`] the test sets by hand, and
//! what a driver would stage, submit or resolve is read straight out of the
//! machine's answers.

use super::*;
use crate::monitor::HealthState;
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::cell::Cell;

/// What the machine reads, set by hand: each endpoint's probe, one free
/// worker each, and the time. It counts the clock reads.
struct Board {
    probes: Vec<ProbeState>,
    now_us: u64,
    clock_reads: Cell<u64>,
}

impl Board {
    fn new(n_endpoints: usize) -> Board {
        Board {
            probes: vec![ProbeState::Alive; n_endpoints],
            now_us: 0,
            clock_reads: Cell::new(0),
        }
    }

    fn at_ms(&mut self, ms: u64) -> &mut Board {
        self.now_us = ms * 1_000;
        self
    }
}

impl View for Board {
    fn probe(&self, ep: usize) -> ProbeState {
        self.probes[ep]
    }

    fn free_workers(&self, _ep: usize) -> i64 {
        1
    }

    fn now_us(&self) -> u64 {
        self.clock_reads.set(self.clock_reads.get() + 1);
        self.now_us
    }
}

/// A task's cell, as the machine sees it: its dependencies.
type Deps = Vec<usize>;

fn machine(n_endpoints: usize, retry: LiveRetryPolicy) -> Coord<Deps> {
    let mut coord = Coord::new(n_endpoints);
    coord.retry = retry;
    coord
}

fn policy(max_attempts: u32, timeout_ms: Option<u64>, backoff_ms: u64) -> LiveRetryPolicy {
    LiveRetryPolicy {
        max_attempts,
        task_timeout: timeout_ms.map(Duration::from_millis),
        backoff: Duration::from_millis(backoff_ms),
    }
}

/// Submits an `echo` of `deps`, placing it when it is ready, as the driver does.
fn submit(coord: &mut Coord<Deps>, deps: &[usize], board: &Board) -> (usize, Option<Dispatch>) {
    let (id, ready) = coord.submit(Arc::new(deps.to_vec()), "echo");
    (id, ready.then(|| coord.dispatch(id, 1, board)))
}

fn ok(bytes: &[u8]) -> WireResult {
    Ok(Arc::new(bytes.to_vec()))
}

fn retried(step: Option<Step>) -> Option<Dispatch> {
    match step {
        Some(Step::Retry(next)) => next,
        Some(Step::Resolved(..)) => panic!("resolved, not retried"),
        None => panic!("dropped as stale"),
    }
}

fn resolved(step: Option<Step>) -> (WireResult, Vec<usize>) {
    match step {
        Some(Step::Resolved(result, ready)) => (result, ready),
        Some(Step::Retry(_)) => panic!("retried, not resolved"),
        None => panic!("dropped as stale"),
    }
}

fn bytes(result: &WireResult) -> &[u8] {
    result.as_ref().expect("a success").as_slice()
}

#[test]
fn late_result_of_a_failed_over_attempt_is_dropped() {
    let mut board = Board::new(1);
    let mut coord = machine(1, policy(3, Some(100), 0));
    let first = submit(&mut coord, &[], board.at_ms(1)).1.unwrap();
    assert_eq!(first.task, (0, 1));
    assert!(coord.overdue(&board).is_empty(), "a scan stamps it at 1 ms");
    assert!(
        coord.overdue(board.at_ms(100)).is_empty(),
        "99 ms in flight"
    );
    assert_eq!(coord.overdue(board.at_ms(101)), [(0, 1)]);
    let timeout = Err("attempt 1 timed out".to_string());
    let second = retried(coord.on_result((0, 1), timeout, true, &board));
    assert_eq!(second.expect("no back-off: at once").task, (0, 2));
    // Attempt 1's answer comes in after all: its generation is gone.
    let late = coord.on_result((0, 1), ok(b"first"), true, &board);
    assert!(late.is_none(), "a superseded attempt resolved the task");
    let (result, ready) = resolved(coord.on_result((0, 2), ok(b"second"), true, &board));
    assert_eq!((bytes(&result), ready.len()), (&b"second"[..], 0));
    let again = coord.on_result((0, 2), ok(b"duplicate"), true, &board);
    assert!(again.is_none(), "a duplicate resolved the task twice");
    let stats = coord.stats;
    assert_eq!(
        (stats.dispatched, stats.completed, coord.outstanding),
        (2, 1, 0)
    );
    assert_eq!(
        (stats.retries, stats.watchdog_timeouts),
        (1, 1),
        "{stats:?}"
    );
}

#[test]
fn completion_during_backoff_is_dropped_and_the_retry_dispatches_once() {
    let mut board = Board::new(1);
    let mut coord = machine(1, policy(3, Some(50), 200));
    submit(&mut coord, &[], board.at_ms(0)).1.unwrap();
    assert!(coord.overdue(&board).is_empty(), "a scan stamps it at 0 ms");
    assert_eq!(coord.overdue(board.at_ms(50)), [(0, 1)]);
    let timeout = Err("attempt 1 timed out".to_string());
    assert!(retried(coord.on_result((0, 1), timeout, true, &board)).is_none());
    assert_eq!(coord.next_deadline(), Some(250_000), "waits out 200 ms");
    // Until then the slot is `Retrying`: nothing is in flight.
    let late = coord.on_result((0, 1), ok(b"late"), true, &board);
    assert!(late.is_none(), "an outcome resolved a slot in back-off");
    assert!(coord.overdue(board.at_ms(249)).is_empty());
    assert!(coord.tick(&board).is_none(), "1 ms early");
    let second = coord.tick(board.at_ms(250)).expect("due");
    assert_eq!((second.task, second.last), ((0, 2), false));
    assert!(coord.tick(&board).is_none(), "the retry dispatches once");
    // The back-off doubles for the next attempt, which is the last.
    let failed = Err("boom".to_string());
    assert!(retried(coord.on_result((0, 2), failed, true, board.at_ms(300))).is_none());
    assert_eq!(coord.next_deadline(), Some(700_000), "waits out 400 ms");
    let third = coord.tick(board.at_ms(700)).expect("due");
    assert_eq!(
        (third.task, third.last, coord.next_deadline()),
        ((0, 3), true, None)
    );
    let (result, _) = resolved(coord.on_result((0, 3), ok(b"third"), true, &board));
    assert_eq!(bytes(&result), b"third");
    let stats = coord.stats;
    assert_eq!(
        (stats.dispatched, stats.completed, stats.retries),
        (3, 1, 2)
    );
}

#[test]
fn two_dep_task_is_staged_then_submitted_once_where_its_bytes_are() {
    let mut board = Board::new(2);
    let mut coord = machine(2, LiveRetryPolicy::default());
    // Both endpoints free and nothing to be near: endpoint 0. A Dead
    // reading then pushes `y` to endpoint 1.
    let x = submit(&mut coord, &[], &board).1.unwrap();
    board.probes[0] = ProbeState::Dead;
    let y = submit(&mut coord, &[], &board).1.unwrap();
    board.probes[0] = ProbeState::Alive;
    let (z, ready) = coord.submit(Arc::new(vec![0, 1]), "sum64");
    assert_eq!((x.ep, y.ep, z, ready), (0, 1, 2, false));
    assert!(!x.keep_output && !y.keep_output, "no dependent yet");
    let (_, ready) = resolved(coord.on_result((0, 1), ok(&[1; 2]), true, &board));
    assert!(ready.is_empty(), "`z` still waits for `y`");
    let (_, ready) = resolved(coord.on_result((1, 1), ok(&[2; 10]), true, &board));
    assert_eq!(ready, [2], "ready exactly once");
    // On the endpoint holding 10 of the 12 input bytes, each input staged
    // under the key of the attempt that produced it.
    let d = coord.dispatch(2, 1, &board);
    assert_eq!(
        (d.task, d.ep, &*d.function, d.last),
        ((2, 1), 1, "sum64", true)
    );
    let staged = |d: &Dispatch| -> Vec<(u64, Option<Vec<u8>>)> {
        let stage = d.stage.as_ref().unwrap().iter();
        stage
            .map(|(k, b)| (*k, b.as_ref().map(|b| b.to_vec())))
            .collect()
    };
    let (x, y) = (
        (blob_key(0, 1), Some(vec![1; 2])),
        (blob_key(1, 1), Some(vec![2; 10])),
    );
    assert_eq!(staged(&d), [x.clone(), y.clone()]);
    assert!(resolved(coord.on_result((2, 1), ok(b"z"), true, &board))
        .0
        .is_ok());
    // `f(x, y, x)`: each blob staged once, the input laid out by argument.
    let (_, w) = submit(&mut coord, &[0, 1, 0], &board);
    let w = w.expect("both inputs are in");
    assert_eq!(staged(&w), [x.clone(), y, (x.0, None)]);
    assert_eq!(coord.dag.preds(TaskId(3)), [TaskId(0), TaskId(1)]);
    assert!(resolved(coord.on_result((3, 1), ok(b"w"), true, &board))
        .0
        .is_ok());
    let stats = coord.stats;
    assert_eq!(
        (stats.dispatched, stats.completed, coord.outstanding),
        (4, 4, 0)
    );
}

#[test]
fn a_dependent_submitted_after_its_inputs_resolved_goes_where_the_bytes_are() {
    let mut board = Board::new(2);
    let mut coord = machine(2, LiveRetryPolicy::default());
    // `x` runs on endpoint 0 and `y`, with 0 reading Dead, on endpoint 1.
    let x = submit(&mut coord, &[], &board).1.unwrap();
    board.probes[0] = ProbeState::Dead;
    let y = submit(&mut coord, &[], &board).1.unwrap();
    board.probes[0] = ProbeState::Alive;
    assert_eq!((x.ep, y.ep), (0, 1));
    // Both resolve with nothing waiting on them.
    let (_, ready) = resolved(coord.on_result((0, 1), ok(&[1; 2]), true, &board));
    assert!(ready.is_empty());
    let (_, ready) = resolved(coord.on_result((1, 1), ok(&[2; 10]), true, &board));
    assert!(ready.is_empty());
    // Ready at submit: placed by the outputs' lengths, 10 of 12 bytes on 1.
    let (z, d) = submit(&mut coord, &[0, 1], &board);
    let d = d.expect("both inputs are in");
    assert_eq!((d.task, d.ep), ((z, 1), 1));
}

#[test]
fn a_dependent_is_given_the_accepted_attempts_key_not_the_superseded_ones() {
    let mut board = Board::new(2);
    let mut coord = machine(2, policy(3, Some(100), 0));
    let first = submit(&mut coord, &[], &board).1.unwrap();
    assert_eq!((first.ep, first.keep_output), (0, false));
    assert!(submit(&mut coord, &[0], &board).1.is_none());
    assert!(coord.overdue(&board).is_empty(), "a scan stamps it at 0 ms");
    // Attempt 1 sits on endpoint 0; with that one reading Dead, the attempt
    // the watchdog replaces it with goes to endpoint 1 — told, now, that a
    // dependent waits for its output.
    board.probes[0] = ProbeState::Dead;
    assert_eq!(coord.overdue(board.at_ms(100)), [(0, 1)]);
    let timeout = Err("attempt 1 timed out".to_string());
    let second = retried(coord.on_result((0, 1), timeout, true, &board)).unwrap();
    assert_eq!(
        (second.task, second.ep, second.keep_output),
        ((0, 2), 1, true)
    );
    board.probes[0] = ProbeState::Alive;
    let (_, ready) = resolved(coord.on_result((0, 2), ok(b"second"), true, &board));
    assert_eq!(ready, [1]);
    // Attempt 1 finishes late, where it ran, with other bytes: dropped.
    assert!(coord
        .on_result((0, 1), ok(b"first"), true, &board)
        .is_none());
    let y = coord.dispatch(1, 1, &board);
    assert_eq!(y.ep, 1, "where attempt 2's output lives");
    let stage = y.stage.unwrap();
    assert_eq!((stage.len(), stage[0].0), (1, blob_key(0, 2)));
    assert_eq!(&stage[0].1.as_ref().unwrap()[..], b"second");
}

#[test]
fn dead_probes_steer_placement_and_health() {
    let mut board = Board::new(2);
    let mut coord = machine(2, policy(1, Some(5_000), 0));
    board.probes = vec![ProbeState::Dead; 2];
    let a = submit(&mut coord, &[], &board).1.unwrap();
    board.probes[1] = ProbeState::Alive;
    let b = submit(&mut coord, &[], &board).1.unwrap();
    // Nothing schedulable falls back to endpoint 0; one Dead endpoint is
    // avoided. Placement alone leaves health as it is.
    assert_eq!((a.ep, b.ep), (0, 1));
    assert_eq!(coord.health.state(EndpointId(0)), HealthState::Healthy);
    assert!(resolved(coord.on_result((0, 1), ok(b""), true, &board))
        .0
        .is_ok());
    assert!(resolved(coord.on_result((1, 1), ok(b""), true, &board))
        .0
        .is_ok());
    // The watchdog folds every reading: Dead ⇒ Down.
    coord.on_probe(0, ProbeState::Dead);
    coord.on_probe(1, ProbeState::Alive);
    assert_eq!(coord.health.state(EndpointId(0)), HealthState::Down);
    assert_eq!(coord.health.state(EndpointId(1)), HealthState::Healthy);
    // Alive again ⇒ Recovering; a Suspect reading changes nothing.
    coord.on_probe(0, ProbeState::Suspect);
    assert_eq!(coord.health.state(EndpointId(0)), HealthState::Down);
    coord.on_probe(0, ProbeState::Alive);
    assert_eq!(coord.health.state(EndpointId(0)), HealthState::Recovering);
    assert_eq!(coord.health.state(EndpointId(1)), HealthState::Healthy);
}

#[test]
fn a_respawned_endpoint_is_readmitted_at_placement() {
    let mut board = Board::new(2);
    let mut coord = machine(2, policy(3, Some(5_000), 0));
    coord.on_probe(0, ProbeState::Dead);
    assert_eq!(coord.health.state(EndpointId(0)), HealthState::Down);
    // Its daemon is back: the next placement re-admits it, with no
    // watchdog tick in between, and the tie goes to endpoint 0.
    let mut eps = vec![submit(&mut coord, &[], &board).1.unwrap().ep];
    assert_eq!(coord.health.state(EndpointId(0)), HealthState::Recovering);
    assert!(resolved(coord.on_result((0, 1), ok(b""), true, &board))
        .0
        .is_ok());
    // An endpoint put Down by failed attempts is not: liveness alone does
    // not erase that evidence at placement.
    board.probes[0] = ProbeState::Dead;
    let mut next = submit(&mut coord, &[], &board).1;
    for attempt in 1..=3 {
        eps.push(next.as_ref().expect("placed").ep);
        next = match coord.on_result((1, attempt), Err("boom".into()), true, &board) {
            Some(Step::Retry(next)) => next,
            _ => None,
        };
    }
    assert_eq!(coord.stats.completed, 2, "the third failure is final");
    assert_eq!(coord.health.state(EndpointId(1)), HealthState::Down);
    board.probes[0] = ProbeState::Alive;
    eps.push(submit(&mut coord, &[], &board).1.unwrap().ep);
    assert_eq!(coord.health.state(EndpointId(1)), HealthState::Down);
    assert_eq!(eps, [0, 1, 1, 1, 0]);
}

#[test]
fn a_dispatch_reads_no_clock_and_the_budget_starts_at_the_first_scan() {
    let mut board = Board::new(1);
    for timeout in [None, Some(1_000)] {
        let mut coord = machine(1, policy(2, timeout, 0));
        submit(&mut coord, &[], &board).1.unwrap();
        retried(coord.on_result((0, 1), Err("boom".into()), true, &board)).unwrap();
        assert!(resolved(coord.on_result((0, 2), ok(b""), true, &board))
            .0
            .is_ok());
        for _ in 0..3 {
            submit(&mut coord, &[], &board).1.unwrap();
        }
    }
    assert_eq!(board.clock_reads.get(), 0, "dispatches read no clock");
    // Dispatched at 3 ms, first seen in flight by the scan at 7 ms: the
    // 100 ms budget runs from 7 ms.
    let mut coord = machine(1, policy(1, Some(100), 0));
    submit(&mut coord, &[], board.at_ms(3)).1.unwrap();
    assert!(coord.overdue(board.at_ms(7)).is_empty());
    board.now_us = 107_000 - 1;
    assert!(coord.overdue(&board).is_empty(), "1 µs short of the budget");
    board.now_us = 107_000;
    assert_eq!(coord.overdue(&board), [(0, 1)]);
}

/// One step of a random session.
#[derive(Clone, Debug)]
enum Op {
    /// A task on up to three earlier tasks (indices taken modulo the count).
    Submit(Vec<usize>),
    /// The outcome of an attempt picked among every one dispatched so far —
    /// live, superseded, backing off or resolved alike.
    Outcome { pick: usize, ok: bool },
    /// An endpoint's probe reads otherwise from now on.
    Flip(usize, ProbeState),
    /// The watchdog folds every endpoint's reading into health.
    Probe,
    /// Time passes; the watchdog fails over what is overdue, the timer
    /// dispatches what is due.
    Advance(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let probe = prop_oneof![
        Just(ProbeState::Alive),
        Just(ProbeState::Dead),
        Just(ProbeState::Suspect)
    ];
    prop_oneof![
        vec(0usize..64, 0..4).prop_map(Op::Submit),
        vec(0usize..64, 0..4).prop_map(Op::Submit),
        (0usize..64, 0u8..4).prop_map(|(pick, ok)| Op::Outcome { pick, ok: ok > 0 }),
        (0usize..64, 0u8..4).prop_map(|(pick, ok)| Op::Outcome { pick, ok: ok > 0 }),
        (0usize..3, probe).prop_map(|(ep, state)| Op::Flip(ep, state)),
        Just(Op::Probe),
        (0u64..40).prop_map(Op::Advance),
    ]
}

/// The test's own account of one task.
#[derive(Default)]
struct Task {
    deps: Vec<usize>,
    /// Unresolved dependencies, counted with multiplicity.
    unresolved: usize,
    /// Every task that names this one, once each, in submission order.
    succs: Vec<usize>,
    dispatches: u32,
    /// The attempt in flight and when a watchdog scan first saw it.
    live: Option<(u32, Option<u64>)>,
    /// When the retry waiting out its back-off is due.
    due: Option<u64>,
    /// The accepted attempt and its outcome.
    resolved: Option<(u32, WireResult)>,
}

/// The machine, what it reads, and the test's account of what it must do:
/// a driver that checks each answer before carrying it out.
struct Rig {
    coord: Coord<Deps>,
    board: Board,
    tasks: Vec<Task>,
    /// Every attempt dispatched, in order.
    sent: Vec<(usize, u32)>,
    /// Endpoints a Dead reading folded in put Down and nothing re-admitted.
    probe_down: Vec<bool>,
}

type Checked = Result<(), TestCaseError>;

impl Rig {
    fn endpoint_down(&self, ep: usize) -> bool {
        self.coord.health.is_down(EndpointId(ep as u16))
    }

    /// Checks a dispatch against the account, then sends it: an upstream
    /// failure comes straight back, as the driver reports it.
    fn carry(&mut self, d: Dispatch) -> Checked {
        let ((id, attempt), max) = (d.task, self.coord.retry.max_attempts);
        let task = &self.tasks[id];
        prop_assert!(
            task.live.is_none() && task.resolved.is_none(),
            "{id} is dispatched twice"
        );
        prop_assert_eq!(
            attempt,
            task.dispatches + 1,
            "attempts are numbered in order"
        );
        prop_assert!(
            attempt <= max,
            "task {} got more than {} dispatches",
            id,
            max
        );
        prop_assert_eq!(d.last, attempt == max);
        // Still unresolved, so every dependent so far waits for it.
        prop_assert_eq!(d.keep_output, !task.succs.is_empty());
        // The inputs are the accepted attempts' outputs, under their keys,
        // each staged at its first argument only.
        let mut inputs = Vec::new();
        for (i, &dep) in task.deps.iter().enumerate() {
            let Some((accepted, result)) = &self.tasks[dep].resolved else {
                return Err(TestCaseError::fail(format!(
                    "{id} left before {dep} resolved"
                )));
            };
            let first = !task.deps[..i].contains(&dep);
            inputs.push(
                result
                    .clone()
                    .map(|bytes| (blob_key(dep as u32, *accepted), first.then_some(bytes))),
            );
        }
        let expected: Result<Inputs, String> = inputs.into_iter().collect();
        match (&d.stage, &expected) {
            (Ok(got), Ok(want)) => prop_assert_eq!(got, want),
            (Err(_), Err(_)) => {}
            _ => prop_assert!(
                false,
                "task {} staged {:?}, not {:?}",
                id,
                d.stage,
                expected
            ),
        }
        // A respawned endpoint is re-admitted at placement, and placement
        // avoids Dead readings and Down endpoints while anything is usable.
        let n = self.board.probes.len();
        for ep in 0..n {
            if self.probe_down[ep] && self.board.probes[ep] == ProbeState::Alive {
                prop_assert!(
                    !self.endpoint_down(ep),
                    "endpoint {} was not re-admitted",
                    ep
                );
                self.probe_down[ep] = false;
            }
        }
        let usable =
            |ep: usize| !self.endpoint_down(ep) && self.board.probes[ep] != ProbeState::Dead;
        prop_assert!(
            usable(d.ep) || (d.ep == 0 && !(0..n).any(usable)),
            "placed on {}",
            d.ep
        );
        let task = &mut self.tasks[id];
        task.dispatches += 1;
        task.live = Some((attempt, None));
        self.sent.push((id, attempt));
        match d.stage {
            Err(msg) => self.deliver(id, attempt, Err(msg), false),
            Ok(_) => Ok(()),
        }
    }

    /// Hands the machine an outcome and checks its answer.
    fn deliver(&mut self, id: usize, attempt: u32, result: WireResult, ran: bool) -> Checked {
        let max = self.coord.retry.max_attempts;
        let live = self.tasks[id].live.is_some_and(|(a, _)| a == attempt);
        let failed = result.is_err();
        let step = self
            .coord
            .on_result((id, attempt), result.clone(), ran, &self.board);
        prop_assert_eq!(
            step.is_some(),
            live,
            "task {} attempt {}: guard",
            id,
            attempt
        );
        if live {
            self.tasks[id].live = None;
        }
        match step {
            None => Ok(()),
            Some(Step::Retry(next)) => {
                prop_assert!(failed && ran && attempt < max, "{id}/{attempt} retried");
                match next {
                    Some(next) => self.carry(next),
                    None => {
                        let backoff = self.coord.retry.backoff.as_micros() as u64;
                        let due = self.board.now_us + (backoff << (attempt - 1));
                        self.tasks[id].due = Some(due);
                        Ok(())
                    }
                }
            }
            Some(Step::Resolved(got, ready)) => {
                prop_assert!(
                    !(failed && ran && attempt < max),
                    "{id}/{attempt} gave up early"
                );
                prop_assert!(self.tasks[id].resolved.is_none(), "{id} resolved twice");
                prop_assert_eq!(&got, &result, "resolved with another outcome");
                self.tasks[id].resolved = Some((attempt, got));
                let mut expected = Vec::new();
                for (t, task) in self.tasks.iter_mut().enumerate() {
                    let n = task.deps.iter().filter(|&&d| d == id).count();
                    if n > 0 && task.dispatches == 0 && task.unresolved > 0 {
                        task.unresolved -= n;
                        if task.unresolved == 0 {
                            expected.push(t);
                        }
                    }
                }
                let mut sorted = ready.clone();
                sorted.sort_unstable();
                prop_assert_eq!(sorted, expected, "dependency counting");
                for t in ready {
                    let next = self.coord.dispatch(t, 1, &self.board);
                    self.carry(next)?;
                }
                Ok(())
            }
        }
    }

    fn submit(&mut self, picks: &[usize]) -> Checked {
        let n = self.tasks.len();
        let deps: Vec<usize> = picks
            .iter()
            .filter(|_| n > 0)
            .map(|p| p % n.max(1))
            .collect();
        let unresolved = deps
            .iter()
            .filter(|&&d| self.tasks[d].resolved.is_none())
            .count();
        let mut distinct = deps.clone();
        let mut seen = std::collections::HashSet::new();
        distinct.retain(|&d| seen.insert(d));
        for &d in &distinct {
            self.tasks[d].succs.push(n);
        }
        self.tasks.push(Task {
            deps: deps.clone(),
            unresolved,
            ..Task::default()
        });
        let (id, ready) = self.coord.submit(Arc::new(deps), "echo");
        prop_assert_eq!((id, ready), (n, unresolved == 0));
        // The machine's graph: each edge once, from both ends.
        let dag = &self.coord.dag;
        let preds: Vec<usize> = dag
            .preds(TaskId(id as u32))
            .iter()
            .map(|p| p.index())
            .collect();
        prop_assert_eq!(&preds, &distinct, "the Dag's predecessors of {}", id);
        for &d in &distinct {
            let succs: Vec<usize> = dag
                .succs(TaskId(d as u32))
                .iter()
                .map(|s| s.index())
                .collect();
            prop_assert_eq!(
                &succs,
                &self.tasks[d].succs,
                "the Dag's successors of {}",
                d
            );
        }
        match ready {
            true => {
                let first = self.coord.dispatch(id, 1, &self.board);
                self.carry(first)
            }
            false => Ok(()),
        }
    }

    /// Time passes: the watchdog's scan, then the timer's. The scan
    /// stamps each attempt it sees in flight for the first time, and
    /// fails over those a scan saw `task_timeout` or more ago.
    fn advance(&mut self, ms: u64) -> Checked {
        self.board.now_us += ms * 1_000;
        let now = self.board.now_us;
        let limit = self.coord.retry.task_timeout.map(|t| t.as_micros() as u64);
        let overdue = self.coord.overdue(&self.board);
        let mut expected = Vec::new();
        for (id, task) in self.tasks.iter_mut().enumerate() {
            match (&mut task.live, limit) {
                (Some((_, seen @ None)), _) => *seen = Some(now),
                (Some((a, Some(seen))), Some(limit)) if now - *seen >= limit => {
                    expected.push((id, *a))
                }
                _ => {}
            }
        }
        prop_assert_eq!(&overdue, &expected, "the watchdog's scan");
        for (id, a) in overdue {
            self.deliver(id, a, Err(format!("attempt {a} timed out")), true)?;
        }
        while let Some(next) = self.coord.tick(&self.board) {
            let due = self.tasks[next.task.0].due.take();
            prop_assert!(
                due.is_some_and(|due| due <= now),
                "{:?} ticked early",
                next.task
            );
            self.carry(next)?;
        }
        let waiting = self.tasks.iter().filter_map(|t| t.due).min();
        prop_assert!(
            waiting.is_none_or(|due| due > now),
            "a due retry was left waiting"
        );
        prop_assert_eq!(self.coord.next_deadline(), waiting);
        Ok(())
    }

    fn check_outstanding(&self) -> Checked {
        let unresolved = self.tasks.iter().filter(|t| t.resolved.is_none()).count();
        prop_assert_eq!(self.coord.outstanding, unresolved);
        Ok(())
    }

    fn apply(&mut self, op: &Op) -> Checked {
        match op {
            Op::Submit(picks) => self.submit(picks)?,
            Op::Outcome { pick, ok } if !self.sent.is_empty() => {
                let (id, attempt) = self.sent[pick % self.sent.len()];
                let result = match ok {
                    true => Ok(Arc::new(format!("{id}.{attempt}").into_bytes())),
                    false => Err(format!("{id}.{attempt} failed")),
                };
                self.deliver(id, attempt, result, true)?;
            }
            Op::Outcome { .. } => {}
            Op::Flip(ep, state) => {
                let n = self.board.probes.len();
                self.board.probes[ep % n] = *state;
            }
            Op::Probe => {
                for ep in 0..self.board.probes.len() {
                    let state = self.board.probes[ep];
                    self.coord.on_probe(ep, state);
                    match state {
                        ProbeState::Dead => self.probe_down[ep] = true,
                        ProbeState::Alive => self.probe_down[ep] = false,
                        ProbeState::Suspect => {}
                    }
                }
            }
            Op::Advance(ms) => self.advance(*ms)?,
        }
        self.check_outstanding()
    }

    /// Answers every live attempt with success and lets every back-off
    /// run out, until nothing is left to resolve.
    fn drain(&mut self) -> Checked {
        for _ in 0..=self.tasks.len() * 8 {
            let live: Vec<(usize, u32)> = (self.tasks.iter().enumerate())
                .filter_map(|(id, t)| t.live.map(|(a, _)| (id, a)))
                .collect();
            for (id, a) in live {
                let bytes = format!("{id}.{a}").into_bytes();
                self.deliver(id, a, Ok(Arc::new(bytes)), true)?;
            }
            if self.coord.outstanding == 0 {
                return Ok(());
            }
            self.advance(3_600_000)?;
        }
        prop_assert!(false, "{} tasks never resolved", self.coord.outstanding);
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// Random sessions of submits, outcomes (duplicate, stale and late
    /// ones included), probe flips, watchdog folds and time: every task
    /// resolves exactly once, by its live attempt; a dependent is staged
    /// exactly the accepted attempts' outputs under their keys; no task
    /// gets more than `max_attempts` dispatches; a respawned endpoint is
    /// re-admitted at placement; and `outstanding` counts the unresolved.
    #[test]
    fn random_sessions_resolve_each_task_once_with_its_accepted_attempt(
        config in (1usize..4, 1u32..5, 0u64..40, 0u64..3),
        ops in vec(arb_op(), 0..40)
    ) {
        let (n_endpoints, max_attempts, timeout_ms, backoff_ms) = config;
        let timeout = (timeout_ms > 0).then_some(timeout_ms * 5);
        let mut rig = Rig {
            coord: machine(n_endpoints, policy(max_attempts, timeout, backoff_ms * 10)),
            board: Board::new(n_endpoints),
            tasks: Vec::new(),
            sent: Vec::new(),
            probe_down: vec![false; n_endpoints],
        };
        for op in &ops {
            rig.apply(op)?;
        }
        rig.drain()?;
        prop_assert!(rig.tasks.iter().all(|t| t.resolved.is_some()));
        let stats = rig.coord.stats;
        prop_assert_eq!(stats.completed, rig.tasks.len() as u64);
        prop_assert_eq!(stats.dispatched, rig.sent.len() as u64);
    }
}
