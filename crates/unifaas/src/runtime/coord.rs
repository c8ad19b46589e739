//! The client coordinator: every decision in a live task's life, made by a
//! machine with no thread, lock, channel, clock or fabric call. Its driver,
//! [`FabricRuntime`](super::fabric::FabricRuntime), hands it each event,
//! carries out its answer ([`Dispatch`], [`Step`], [`Coord::next_deadline`])
//! and is the [`View`] it reads. The contract (§IV-G): execution
//! at-least-once, resolution exactly-once (a superseded attempt's outcome
//! fails the generation guard); fail-over once per loss, through the
//! [`Coord::on_result`] an application error takes; probes feed health.
//! Edges, successors and function names live in a [`Dag`], each edge once;
//! the argument order (`f(x, x)` reads `x` twice) lives on the driver's
//! cell, `T: AsRef<[usize]>`, as the `Dag` refuses repeats. A completion
//! writes only its task's [`Slot`]: an output's length is read off the
//! output it keeps, not stored in the `Dag`.

use crate::monitor::HealthMonitor;
use fedci::endpoint::EndpointId;
use fedci::fabric::{blob_key, ProbeState};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use taskgraph::{Dag, TaskId, TaskSpec};

/// Retry/timeout policy of the live runtime (the live analogue of
/// [`RetryPolicy`](crate::config::RetryPolicy)).
///
/// The default — one attempt, no timeout — reproduces the pre-retry
/// behavior exactly: failures propagate immediately and nothing watches
/// the clock.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LiveRetryPolicy {
    /// Attempts per task (≥ 1). An application error or timeout on the
    /// last attempt is final.
    pub max_attempts: u32,
    /// Wall-clock budget per attempt, counted from the first `wait_all`
    /// watchdog scan that sees it in flight; exceeded attempts are
    /// presumed swallowed (crashed worker) and re-dispatched by that
    /// watchdog. `None` disables the watchdog.
    pub task_timeout: Option<Duration>,
    /// Base backoff before retry attempt `k`, doubling per attempt. Zero
    /// disables backoff.
    pub backoff: Duration,
}

impl Default for LiveRetryPolicy {
    fn default() -> Self {
        LiveRetryPolicy {
            max_attempts: 1,
            task_timeout: None,
            backoff: Duration::ZERO,
        }
    }
}

/// Result bytes of one task.
pub type WireResult = Result<Arc<Vec<u8>>, String>;

/// Aggregate robustness statistics for one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricRunStats {
    /// Attempts dispatched to the fabric (retries included).
    pub dispatched: u64,
    /// Tasks resolved (success or final failure).
    pub completed: u64,
    /// Attempts that failed and were re-dispatched.
    pub retries: u64,
    /// Attempts the watchdog timed out (a subset of `retries` unless the
    /// budget was exhausted).
    pub watchdog_timeouts: u64,
}

/// What the machine reads: liveness, free workers, the time (µs since epoch).
pub(crate) trait View {
    fn probe(&self, ep: usize) -> ProbeState;
    fn free_workers(&self, ep: usize) -> i64;
    fn now_us(&self) -> u64;
}

/// Where a task is in its life: `Waiting → InFlight ⇄ Retrying → Done`.
#[derive(Clone, Copy)]
enum Phase {
    /// Submitted; this many dependencies are still unresolved.
    Waiting(u32),
    /// Between attempts, waiting out a back-off: any outcome is stale.
    Retrying,
    /// Sent; first seen in flight by the watchdog's scan at `seen_us`
    /// ([`UNSEEN`] until then); `attempt` is the generation guard.
    InFlight { seen_us: u64, attempt: u32, ep: u16 },
    /// Resolved by `attempt`, and where the output lives (its length is the
    /// slot's `output` length, 0 on failure).
    Done { ep: u16, attempt: u32 },
}

/// `Phase::InFlight::seen_us` of an attempt no scan has seen yet.
const UNSEEN: u64 = u64::MAX;

/// What the machine keeps per task beside its `Dag` entry; `slots[id]` is task `id`.
struct Slot<T> {
    /// The driver's cell: as a slice, the tasks whose outputs prefix the
    /// input, in argument order.
    cell: Arc<T>,
    /// A success's output, staged to whichever endpoint runs a dependent.
    output: Option<Arc<Vec<u8>>>,
    phase: Phase,
}

// Half a cache line, so 100k queued tasks cost the slab 3.2 MB (and their
// `Dag` entries 6 MB: spec, predecessor end, inline successors).
const _: () = assert!(std::mem::size_of::<Slot<()>>() <= 32);

/// One attempt for the driver to hand to the fabric, outside its lock,
/// with the task's cell: the one `submit`'s caller holds, or [`Coord::cell`].
pub(crate) struct Dispatch {
    /// The task and the attempt.
    pub task: (usize, u32),
    pub ep: usize,
    pub function: Arc<str>,
    /// A dependent already waits: keep the output where it is computed.
    pub keep_output: bool,
    /// No later attempt can need the payload.
    pub last: bool,
    /// The inputs, each keyed by its accepted attempt, or the upstream error.
    pub stage: Result<Inputs, String>,
}

/// Every argument's key in order, repeats included (the input's layout),
/// with the output at its first occurrence only: each is staged once.
pub(crate) type Inputs = Vec<(u64, Option<Arc<Vec<u8>>>)>;

/// What an accepted outcome asks of the driver.
pub(crate) enum Step {
    /// Failed over: the next attempt now, or `None` if it waits out a back-off.
    Retry(Option<Dispatch>),
    /// Resolve the future, then [`Coord::dispatch`] each ready dependent.
    Resolved(WireResult, Vec<usize>),
}

pub(crate) struct Coord<T> {
    dag: Dag,
    slots: Vec<Slot<T>>,
    /// `submit`'s scratch: a cell's distinct dependencies.
    distinct: Vec<TaskId>,
    /// Every slot below this index is `Done`: the watchdog scans from here.
    first_live: usize,
    pub outstanding: usize,
    pub health: HealthMonitor,
    /// Endpoints a Dead probe put Down and nothing re-admitted; lazily sized.
    probe_down: Vec<bool>,
    /// Retries waiting out their back-off: `(due µs, task)` → attempt.
    waiting: BTreeMap<(u64, usize), u32>,
    pub retry: LiveRetryPolicy,
    pub stats: FabricRunStats,
}

impl<T: AsRef<[usize]>> Coord<T> {
    pub fn new(n_endpoints: usize) -> Self {
        Coord {
            dag: Dag::new(),
            slots: Vec::new(),
            distinct: Vec::new(),
            first_live: 0,
            outstanding: 0,
            health: HealthMonitor::new(n_endpoints),
            probe_down: Vec::new(),
            waiting: BTreeMap::new(),
            retry: LiveRetryPolicy::default(),
            stats: FabricRunStats::default(),
        }
    }

    pub fn cell(&self, id: usize) -> Option<&Arc<T>> {
        self.slots.get(id).map(|s| &s.cell)
    }

    /// Registers a task whose dependencies are this machine's: its id, and if it is ready.
    pub fn submit(&mut self, cell: Arc<T>, name: &str) -> (usize, bool) {
        let function = self.dag.register_function(name);
        // Each edge once, in first-occurrence order; the cell keeps repeats.
        self.distinct.clear();
        for &d in (*cell).as_ref() {
            let d = TaskId(d as u32);
            if !self.distinct.contains(&d) {
                self.distinct.push(d);
            }
        }
        let done = |d: &TaskId| matches!(self.slots[d.index()].phase, Phase::Done { .. });
        let unresolved = self.distinct.iter().filter(|&d| !done(d)).count() as u32;
        let id = self
            .dag
            .add_task(TaskSpec::compute(function, 0.0), &self.distinct);
        self.slots.push(Slot {
            cell,
            output: None,
            phase: Phase::Waiting(unresolved),
        });
        self.outstanding += 1;
        (id.index(), unresolved == 0)
    }

    /// Places task `id` and marks `attempt` in flight.
    pub fn dispatch(&mut self, id: usize, attempt: u32, view: &impl View) -> Dispatch {
        let ep = self.place(id, view) as u16;
        // No clock read: the watchdog's scan stamps the attempt (`overdue`).
        self.slots[id].phase = Phase::InFlight {
            seen_us: UNSEEN,
            attempt,
            ep,
        };
        let task = TaskId(id as u32);
        let keep_output = !self.dag.succs(task).is_empty();
        self.stats.dispatched += 1;
        let deps = (*self.slots[id].cell).as_ref();
        let stage = deps.iter().enumerate().map(|(i, &d)| match &self.slots[d] {
            Slot {
                output: Some(out),
                phase: Phase::Done { attempt, .. },
                ..
            } => {
                let first = !deps[..i].contains(&d);
                Ok((blob_key(d as u32, *attempt), first.then(|| Arc::clone(out))))
            }
            _ => Err(format!("upstream task {d} failed")),
        });
        // A task without inputs has none to collect (a measured cost per task).
        let stage = (!deps.is_empty()).then(|| stage.collect());
        let function = self.dag.spec(task).function;
        Dispatch {
            stage: stage.unwrap_or(Ok(Vec::new())),
            function: Arc::clone(self.dag.function_arc(function)),
            last: attempt >= self.retry.max_attempts,
            ep: usize::from(ep),
            task: (id, attempt),
            keep_output,
        }
    }

    /// Skips Dead probes and Down endpoints, then prefers a free worker,
    /// then the most input bytes held; with nothing usable, endpoint 0 (the
    /// attempt fails or times out, and retries go on until one recovers).
    fn place(&mut self, id: usize, view: &impl View) -> usize {
        // A respawned endpoint is re-admitted here, not at the next tick.
        for ep in 0..self.probe_down.len() {
            if self.probe_down[ep] && view.probe(ep) == ProbeState::Alive {
                self.on_probe(ep, ProbeState::Alive);
            }
        }
        let usable = |ep: &usize| {
            let healthy = self.health.is_schedulable(EndpointId(*ep as u16));
            healthy && view.probe(*ep) != ProbeState::Dead
        };
        let key = |ep: &usize| {
            let preds = self.dag.preds(TaskId(id as u32)).iter();
            let local_bytes = preds.map(|&p| match &self.slots[p.index()] {
                Slot {
                    output: Some(out),
                    phase: Phase::Done { ep: at, .. },
                    ..
                } if usize::from(*at) == *ep => out.len() as u64,
                _ => 0,
            });
            let local_bytes: u64 = local_bytes.sum();
            // Any free worker is as good as many; ties go to the first.
            (view.free_workers(*ep).min(1), local_bytes, Reverse(*ep))
        };
        let eps = (0..self.health.endpoints()).filter(usable);
        eps.max_by_key(key).unwrap_or(0)
    }

    /// Folds a probe reading into health, the one re-admission rule: Dead
    /// is authoritative; Alive only re-admits a Down endpoint (Recovering),
    /// so liveness does not erase the failures of a flaky, connected one.
    pub fn on_probe(&mut self, ep: usize, state: ProbeState) {
        let id = EndpointId(ep as u16);
        if state == ProbeState::Dead {
            self.health.mark_down(id);
            self.probe_down.resize(self.health.endpoints(), false);
            self.probe_down[ep] = true;
        } else if state == ProbeState::Alive {
            if let Some(down) = self.probe_down.get_mut(ep) {
                *down = false;
            }
            if self.health.is_down(id) {
                self.health.mark_recovering(id);
            }
        }
    }

    /// Takes an attempt's outcome (`ran`: it reached the endpoint): guard,
    /// health, then a retry or the resolution. `None`: stale, the slot is
    /// not in flight with this attempt (superseded, backing off, resolved).
    pub fn on_result(
        &mut self,
        (id, attempt): (usize, u32),
        result: WireResult,
        ran: bool,
        view: &impl View,
    ) -> Option<Step> {
        let ep = match self.slots[id].phase {
            Phase::InFlight { attempt: a, ep, .. } if a == attempt => ep,
            _ => return None,
        };
        if ran {
            self.health.record(EndpointId(ep), result.is_ok());
        }
        if result.is_err() && ran && attempt < self.retry.max_attempts {
            self.stats.retries += 1;
            // The back-off before attempt `k` doubles per attempt.
            let backoff = self.retry.backoff * 2u32.saturating_pow((attempt - 1).min(16));
            if backoff.is_zero() {
                return Some(Step::Retry(Some(self.dispatch(id, attempt + 1, view))));
            }
            self.slots[id].phase = Phase::Retrying;
            let due = view.now_us() + backoff.as_micros() as u64;
            self.waiting.insert((due, id), attempt + 1);
            return Some(Step::Retry(None));
        }
        let slot = &mut self.slots[id];
        slot.phase = Phase::Done { ep, attempt };
        slot.output = result.as_ref().ok().cloned();
        self.stats.completed += 1;
        self.outstanding -= 1;
        let task = TaskId(id as u32);
        let slots = &mut self.slots;
        let ready = self.dag.succs(task).iter().map(|d| d.index()).filter(|&d| {
            let Phase::Waiting(unresolved) = &mut slots[d].phase else {
                unreachable!("a task with unresolved dependencies is Waiting");
            };
            *unresolved -= 1;
            *unresolved == 0
        });
        Some(Step::Resolved(result, ready.collect()))
    }

    /// The next retry whose back-off is over, placed and in flight.
    pub fn tick(&mut self, view: &impl View) -> Option<Dispatch> {
        let now = view.now_us();
        let next = self.waiting.first_entry().filter(|e| e.key().0 <= now)?;
        let ((_, id), attempt) = next.remove_entry();
        Some(self.dispatch(id, attempt, view))
    }

    /// When the next waiting retry is due, in µs since the clock epoch.
    pub fn next_deadline(&self) -> Option<u64> {
        self.waiting.first_key_value().map(|(&(due, _), _)| due)
    }

    /// The watchdog's scan: the attempts a scan at least `task_timeout`
    /// ago saw in flight. It stamps those no scan has seen yet, so a
    /// dispatch reads no clock, and an attempt fails over at an age in
    /// `[T, T + 2 ticks)` when the scans are a tick apart.
    pub fn overdue(&mut self, view: &impl View) -> Vec<(usize, u32)> {
        let done = |s: &Slot<T>| matches!(s.phase, Phase::Done { .. });
        while self.slots.get(self.first_live).is_some_and(done) {
            self.first_live += 1;
        }
        let never = Duration::from_micros(u64::MAX);
        let limit = self.retry.task_timeout.unwrap_or(never).as_micros() as u64;
        let now = view.now_us();
        let live = self.slots.iter_mut().enumerate().skip(self.first_live);
        let overdue = live.filter_map(|(id, slot)| {
            let Phase::InFlight {
                seen_us, attempt, ..
            } = &mut slot.phase
            else {
                return None;
            };
            if *seen_us == UNSEEN {
                *seen_us = now;
                return None;
            }
            (now - *seen_us >= limit).then_some((id, *attempt))
        });
        let overdue: Vec<_> = overdue.collect();
        self.stats.watchdog_timeouts += overdue.len() as u64;
        overdue
    }
}

#[cfg(test)]
#[path = "coord_tests.rs"]
mod tests;
