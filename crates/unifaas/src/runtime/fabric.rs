//! The fabric runtime: one client path over every live backend.
//!
//! [`FabricRuntime`] is the wire-level sibling of
//! [`LiveRuntime`](crate::runtime::live::LiveRuntime): the same
//! future-composition programming model and the same exactly-once
//! coordination machinery — attempt-generation guards, a straggler
//! watchdog, health-filtered placement — but speaking
//! [`fedci::fabric::Fabric`], so the identical code drives in-process
//! worker pools ([`ThreadedFabric`](fedci::fabric::ThreadedFabric)) and
//! process-isolated TCP endpoints
//! ([`ProcessFabric`](fedci::process::ProcessFabric)). That is the point:
//! when a chaos test SIGKILLs a daemon, the recovery it exercises is the
//! one machinery every backend shares.
//!
//! Work is a *named function over bytes* — the only shape that crosses a
//! process boundary. A task's input is the concatenation of its
//! dependencies' outputs (staged to the executing endpoint as keyed
//! blobs) followed by its payload.
//!
//! Robustness contract, mirrored from the simulated runtime (§IV-G):
//!
//! * **execution at-least-once, resolution exactly-once** — a RESULT for
//!   a superseded attempt (the endpoint was declared dead and the task
//!   failed over) no longer matches the in-flight `(task, attempt)`
//!   record and is dropped;
//! * **fail-over exactly once per loss** — a dead connection fails every
//!   in-flight attempt through the same `complete` path an application
//!   error takes, so the retry budget and backoff apply uniformly;
//! * **probes feed health** — the fabric's heartbeat/liveness verdict
//!   ([`ProbeState`]) is folded into the [`HealthMonitor`] by the
//!   watchdog: a Dead probe forces Down, a recovered probe re-admits the
//!   endpoint via Recovering, and attempt outcomes keep their usual
//!   weight in between. Placement filters on both.

use crate::error::UniFaasError;
use crate::monitor::{HealthMonitor, HealthState};
use fedci::endpoint::EndpointId;
use fedci::fabric::{Fabric, JobSpec, ProbeState};
use parking_lot::{Condvar, Mutex};
use simkit::time::SimTime;
use simkit::trace::{LabelId, TraceLevel, Tracer};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use taskgraph::TaskId;

pub use crate::runtime::live::LiveRetryPolicy;

/// Result bytes of one task.
pub type WireResult = Result<Arc<Vec<u8>>, String>;

struct FutureState {
    cell: Mutex<Option<WireResult>>,
    cond: Condvar,
}

/// A handle to the eventual byte result of a fabric task.
#[derive(Clone)]
pub struct WireFuture {
    id: usize,
    state: Arc<FutureState>,
}

impl WireFuture {
    /// The task id backing this future.
    pub fn task_id(&self) -> TaskId {
        TaskId(self.id as u32)
    }

    /// Blocks until the task completes, returning its output bytes.
    pub fn wait(&self) -> Result<Arc<Vec<u8>>, UniFaasError> {
        let mut cell = self.state.cell.lock();
        while cell.is_none() {
            self.state.cond.wait(&mut cell);
        }
        match cell.as_ref().expect("checked above") {
            Ok(v) => Ok(Arc::clone(v)),
            Err(msg) => Err(UniFaasError::FunctionError {
                task: self.task_id(),
                message: msg.clone(),
            }),
        }
    }

    /// Non-blocking poll.
    pub fn is_done(&self) -> bool {
        self.state.cell.lock().is_some()
    }

    fn resolve(&self, result: WireResult) {
        let mut cell = self.state.cell.lock();
        debug_assert!(cell.is_none(), "future resolved twice");
        *cell = Some(result);
        self.state.cond.notify_all();
    }
}

/// Labels for the client-side trace, interned once at setup so the hot
/// path emits only ids.
struct ClientLabels {
    track: LabelId,
    submit: LabelId,
    attempt: LabelId,
    dispatch: LabelId,
    result: LabelId,
    retry: LabelId,
    timeout: LabelId,
    resolve: LabelId,
}

/// Wall-clock tracer for the client half of a fabric run.
///
/// Timestamps are microseconds since the fabric's
/// [`clock_epoch`](Fabric::clock_epoch) — the same zero the process
/// backend's clock-alignment estimator maps daemon stamps onto, so a
/// client trace and offset-corrected daemon telemetry merge onto one
/// timeline without further adjustment.
struct ClientTrace {
    epoch: Instant,
    labels: ClientLabels,
    tracer: Mutex<Tracer>,
}

/// Ring capacity of the client trace: comfortably holds every event of a
/// million-task run at ~6 records per task once the ring wraps old noise.
const CLIENT_TRACE_CAPACITY: usize = 1 << 21;

impl ClientTrace {
    fn new(level: TraceLevel, epoch: Instant) -> ClientTrace {
        let mut tracer = Tracer::new(level, CLIENT_TRACE_CAPACITY);
        let labels = ClientLabels {
            track: tracer.intern("client"),
            submit: tracer.intern("c.submit"),
            attempt: tracer.intern("c.attempt"),
            dispatch: tracer.intern("c.dispatch"),
            result: tracer.intern("c.result"),
            retry: tracer.intern("c.retry"),
            timeout: tracer.intern("c.timeout"),
            resolve: tracer.intern("c.resolve"),
        };
        ClientTrace {
            epoch,
            labels,
            tracer: Mutex::new(tracer),
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    fn instant(&self, name: LabelId, id: u64, arg: i64) {
        let at = self.now();
        self.tracer
            .lock()
            .instant(at, name, self.labels.track, id, arg);
    }

    fn begin(&self, name: LabelId, id: u64) {
        let at = self.now();
        self.tracer.lock().begin(at, name, self.labels.track, id);
    }

    fn end(&self, name: LabelId, id: u64) {
        let at = self.now();
        self.tracer.lock().end(at, name, self.labels.track, id);
    }
}

/// Span correlation id for one attempt: spans are matched by `(name, id)`,
/// so retries of the same task must not collide.
fn attempt_span_id(task: usize, attempt: u32) -> u64 {
    ((task as u64) << 32) | u64::from(attempt)
}

/// What a task needs to be dispatched — immutable once submitted, so
/// the retry table and every attempt share one copy.
struct PendingTask {
    function: Arc<str>,
    payload: Vec<u8>,
    dep_ids: Vec<usize>,
}

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

struct Coord {
    /// Tasks waiting on dependencies: (unresolved dep count, task).
    pending: HashMap<usize, (usize, Arc<PendingTask>)>,
    dependents: HashMap<usize, Vec<usize>>,
    /// Where each resolved task's output lives (endpoint, byte length).
    produced_at: HashMap<usize, (usize, u64)>,
    /// Output bytes of successful tasks, staged on demand to whichever
    /// endpoint runs a dependent.
    outputs: HashMap<usize, Arc<Vec<u8>>>,
    next_id: usize,
    futures: HashMap<usize, WireFuture>,
    outstanding: usize,
    /// Next attempt number per task (absent = first attempt).
    attempts: HashMap<usize, u32>,
    /// In-flight attempts: task → (start, attempt, endpoint). The attempt
    /// number is the generation guard.
    inflight: HashMap<usize, (Instant, u32, usize)>,
    /// Tasks kept re-dispatchable while retries remain.
    retriable: HashMap<usize, Arc<PendingTask>>,
    stats: FabricRunStats,
}

/// The fabric-backed UniFaaS runtime. See the module docs.
pub struct FabricRuntime {
    fabric: Arc<dyn Fabric>,
    coord: Arc<Mutex<Coord>>,
    done_cond: Arc<Condvar>,
    retry: LiveRetryPolicy,
    health: Arc<Mutex<HealthMonitor>>,
    trace: Option<Arc<ClientTrace>>,
}

impl FabricRuntime {
    /// Wraps `fabric` with the default (no-retry) policy.
    pub fn new(fabric: Arc<dyn Fabric>) -> Self {
        let n = fabric.n_endpoints();
        FabricRuntime {
            fabric,
            coord: Arc::new(Mutex::new(Coord {
                pending: HashMap::new(),
                dependents: HashMap::new(),
                produced_at: HashMap::new(),
                outputs: HashMap::new(),
                next_id: 0,
                futures: HashMap::new(),
                outstanding: 0,
                attempts: HashMap::new(),
                inflight: HashMap::new(),
                retriable: HashMap::new(),
                stats: FabricRunStats::default(),
            })),
            done_cond: Arc::new(Condvar::new()),
            retry: LiveRetryPolicy::default(),
            health: Arc::new(Mutex::new(HealthMonitor::new(n))),
            trace: None,
        }
    }

    /// Enables client-side tracing (builder style). Emits the `c.*`
    /// lifecycle events — submit, per-attempt spans, dispatch / result /
    /// retry / timeout instants and final resolution — on a `client`
    /// track stamped in microseconds since the fabric's clock epoch.
    /// Retrieve the recording with [`take_client_tracer`]
    /// (FabricRuntime::take_client_tracer) after the run.
    pub fn with_trace(mut self, level: TraceLevel) -> Self {
        if level != TraceLevel::Off {
            self.trace = Some(Arc::new(ClientTrace::new(level, self.fabric.clock_epoch())));
        }
        self
    }

    /// Takes the client trace recorded so far, leaving a disabled tracer
    /// behind. Returns `None` when tracing was never enabled.
    pub fn take_client_tracer(&self) -> Option<Tracer> {
        self.trace
            .as_ref()
            .map(|t| std::mem::replace(&mut *t.tracer.lock(), Tracer::disabled()))
    }

    /// Sets the retry/timeout policy (builder style). Runs on a fabric
    /// that can lose endpoints need `max_attempts > 1` and a
    /// `task_timeout`; without them a lost attempt is a final failure.
    pub fn with_retry(mut self, policy: LiveRetryPolicy) -> Self {
        assert!(policy.max_attempts >= 1, "need at least one attempt");
        self.retry = policy;
        self
    }

    /// Current health state of endpoint `i`.
    pub fn endpoint_health(&self, i: usize) -> HealthState {
        self.health.lock().state(EndpointId(i as u16))
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Arc<dyn Fabric> {
        &self.fabric
    }

    /// Run statistics so far.
    pub fn stats(&self) -> FabricRunStats {
        self.coord.lock().stats
    }

    /// Submits one task: run `function` over the concatenation of the
    /// dependencies' outputs (in order) and `payload`. Returns
    /// immediately with a future.
    pub fn submit(&self, function: &str, payload: Vec<u8>, deps: &[&WireFuture]) -> WireFuture {
        let mut coord = self.coord.lock();
        let id = coord.next_id;
        coord.next_id += 1;
        let future = WireFuture {
            id,
            state: Arc::new(FutureState {
                cell: Mutex::new(None),
                cond: Condvar::new(),
            }),
        };
        coord.futures.insert(id, future.clone());
        coord.outstanding += 1;

        let dep_ids: Vec<usize> = deps.iter().map(|d| d.id).collect();
        let unresolved: Vec<usize> = dep_ids
            .iter()
            .copied()
            .filter(|d| !coord.produced_at.contains_key(d))
            .collect();
        let task = Arc::new(PendingTask {
            function: Arc::from(function),
            payload,
            dep_ids,
        });
        let n_deps = task.dep_ids.len();
        if unresolved.is_empty() {
            drop(coord);
            if let Some(tr) = &self.trace {
                tr.instant(tr.labels.submit, id as u64, n_deps as i64);
            }
            self.handle().dispatch(id, task);
        } else {
            for d in &unresolved {
                coord.dependents.entry(*d).or_default().push(id);
            }
            coord.pending.insert(id, (unresolved.len(), task));
            drop(coord);
            if let Some(tr) = &self.trace {
                tr.instant(tr.labels.submit, id as u64, n_deps as i64);
            }
        }
        future
    }

    /// Blocks until every submitted task has resolved.
    ///
    /// With a task timeout set this is also the straggler watchdog *and*
    /// the probe-to-health bridge: every tick it fails over attempts past
    /// their budget and folds each endpoint's [`ProbeState`] into the
    /// [`HealthMonitor`] (Dead ⇒ Down, Alive again ⇒ Recovering), which
    /// is how heartbeat-detected crashes steer placement.
    pub fn wait_all(&self) {
        let Some(timeout) = self.retry.task_timeout else {
            let mut coord = self.coord.lock();
            while coord.outstanding > 0 {
                self.done_cond.wait(&mut coord);
            }
            return;
        };
        let tick = (timeout / 4).max(Duration::from_millis(5));
        loop {
            self.feed_probes();
            let overdue: Vec<(usize, usize, u32)> = {
                let mut coord = self.coord.lock();
                if coord.outstanding == 0 {
                    return;
                }
                self.done_cond.wait_for(&mut coord, tick);
                if coord.outstanding == 0 {
                    return;
                }
                coord
                    .inflight
                    .iter()
                    .filter(|(_, (start, _, _))| start.elapsed() >= timeout)
                    .map(|(&id, &(_, attempt, ep))| (id, ep, attempt))
                    .collect()
            };
            if !overdue.is_empty() {
                self.coord.lock().stats.watchdog_timeouts += overdue.len() as u64;
            }
            let handle = self.handle();
            for (id, ep, attempt) in overdue {
                if let Some(tr) = &self.trace {
                    tr.instant(tr.labels.timeout, id as u64, i64::from(attempt));
                }
                handle.complete(
                    id,
                    ep,
                    attempt,
                    Err(format!("attempt {attempt} timed out after {timeout:?}")),
                    true,
                );
            }
        }
    }

    /// Folds fabric probes into the health monitor. A Dead probe is
    /// authoritative (the connection is gone — no attempt outcome will
    /// say it better); an Alive probe only *re-admits* a Down endpoint,
    /// so accumulated attempt-failure evidence against a flaky-but-
    /// connected endpoint is not erased by mere liveness.
    fn feed_probes(&self) {
        let mut h = self.health.lock();
        for ep in 0..self.fabric.n_endpoints() {
            let id = EndpointId(ep as u16);
            match self.fabric.probe(ep) {
                ProbeState::Dead => {
                    h.mark_down(id);
                }
                ProbeState::Alive => {
                    if h.is_down(id) {
                        h.mark_recovering(id);
                    }
                }
                ProbeState::Suspect => {}
            }
        }
    }

    fn handle(&self) -> FabricHandle {
        FabricHandle {
            fabric: Arc::clone(&self.fabric),
            coord: Arc::clone(&self.coord),
            done_cond: Arc::clone(&self.done_cond),
            retry: self.retry,
            health: Arc::clone(&self.health),
            trace: self.trace.clone(),
        }
    }
}

/// What `complete` decided under the coordinator lock; acted on outside
/// it so dispatch and health updates never run with the lock held.
enum Next {
    Retry {
        task: Arc<PendingTask>,
        backoff: Option<Duration>,
    },
    Finalize {
        failed: bool,
        ran: bool,
        ready: Vec<(usize, Arc<PendingTask>)>,
    },
}

/// Cheap clonable view used by fabric completions (which run on fabric
/// threads) to report outcomes and dispatch dependents.
#[derive(Clone)]
struct FabricHandle {
    fabric: Arc<dyn Fabric>,
    coord: Arc<Mutex<Coord>>,
    done_cond: Arc<Condvar>,
    retry: LiveRetryPolicy,
    health: Arc<Mutex<HealthMonitor>>,
    trace: Option<Arc<ClientTrace>>,
}

impl FabricHandle {
    /// Reports the outcome of attempt `attempt` of task `id` on `ep`.
    /// Stale completions — the attempt no longer matches the in-flight
    /// record because a fail-over superseded it — are dropped.
    fn complete(&self, id: usize, ep: usize, attempt: u32, result: WireResult, can_retry: bool) {
        let ok = result.is_ok();
        let next = {
            let mut coord = self.coord.lock();
            match coord.inflight.get(&id) {
                Some(&(_, a, _)) if a == attempt => {}
                _ => return, // stale or already finalized
            }
            coord.inflight.remove(&id);
            // The attempt's span closes before its future can resolve: a
            // caller woken by the future (or by `wait_all`) always finds
            // the span complete in the trace it takes.
            if let Some(tr) = &self.trace {
                tr.end(tr.labels.attempt, attempt_span_id(id, attempt));
                tr.instant(tr.labels.result, id as u64, i64::from(ok));
            }
            if result.is_err() && can_retry && attempt < self.retry.max_attempts {
                coord.attempts.insert(id, attempt + 1);
                coord.stats.retries += 1;
                let task = Arc::clone(coord.retriable.get(&id).expect("retriable recorded"));
                Next::Retry {
                    task,
                    backoff: self.retry.backoff_for(attempt + 1),
                }
            } else {
                coord.retriable.remove(&id);
                coord.attempts.remove(&id);
                let failed = result.is_err();
                let bytes = result.as_ref().map_or(0, |b| b.len() as u64);
                coord.produced_at.insert(id, (ep, bytes));
                if let Ok(out) = &result {
                    coord.outputs.insert(id, Arc::clone(out));
                }
                coord.stats.completed += 1;
                let fut = coord.futures.get(&id).expect("future exists").clone();
                fut.resolve(result);
                coord.outstanding -= 1;
                if coord.outstanding == 0 {
                    self.done_cond.notify_all();
                }
                let mut ready = Vec::new();
                if let Some(deps) = coord.dependents.remove(&id) {
                    for dep in deps {
                        if let Some((remaining, _)) = coord.pending.get_mut(&dep) {
                            *remaining -= 1;
                            if *remaining == 0 {
                                let (_, t) = coord.pending.remove(&dep).expect("present");
                                ready.push((dep, t));
                            }
                        }
                    }
                }
                Next::Finalize {
                    failed,
                    ran: can_retry,
                    ready,
                }
            }
        };
        match next {
            Next::Retry { task, backoff } => {
                if let Some(tr) = &self.trace {
                    tr.instant(tr.labels.retry, id as u64, i64::from(attempt + 1));
                }
                self.record_health(ep, false);
                match backoff {
                    // The completion runs on a fabric thread (often the
                    // endpoint supervisor) — sleeping there would stall
                    // heartbeats, so backoff gets its own short-lived
                    // timer thread.
                    Some(d) if !d.is_zero() => {
                        let this = self.clone();
                        std::thread::spawn(move || {
                            std::thread::sleep(d);
                            this.dispatch(id, task);
                        });
                    }
                    _ => self.dispatch(id, task),
                }
            }
            Next::Finalize { failed, ran, ready } => {
                if let Some(tr) = &self.trace {
                    tr.instant(tr.labels.resolve, id as u64, i64::from(failed));
                }
                if ran {
                    self.record_health(ep, !failed);
                }
                for (rid, task) in ready {
                    self.dispatch(rid, task);
                }
            }
        }
    }

    fn record_health(&self, ep: usize, success: bool) {
        let mut h = self.health.lock();
        let id = EndpointId(ep as u16);
        if success {
            h.record_success(id);
        } else {
            h.record_failure(id);
        }
    }

    /// Picks an endpoint: skip Dead probes and Down health states, then
    /// maximize free workers, breaking ties toward the endpoint already
    /// holding the most input bytes. When everything is down, falls back
    /// to endpoint 0 — the attempt fails fast or times out and the retry
    /// machinery keeps going until something recovers.
    fn place(&self, coord: &Coord, task: &PendingTask) -> usize {
        let health = self.health.lock();
        let mut best: Option<usize> = None;
        let mut best_key = (i64::MIN, i64::MIN);
        for ep in 0..self.fabric.n_endpoints() {
            if self.fabric.probe(ep) == ProbeState::Dead
                || !health.is_schedulable(EndpointId(ep as u16))
            {
                continue;
            }
            let free = self.fabric.n_workers(ep) as i64 - self.fabric.busy_workers(ep) as i64;
            let local_bytes: i64 = task
                .dep_ids
                .iter()
                .filter_map(|d| coord.produced_at.get(d))
                .filter(|(at, _)| *at == ep)
                .map(|(_, b)| *b as i64)
                .sum();
            let key = if free <= 0 {
                (free, local_bytes)
            } else {
                (1, local_bytes)
            };
            if best.is_none() || key > best_key {
                best_key = key;
                best = Some(ep);
            }
        }
        best.unwrap_or(0)
    }

    fn dispatch(&self, id: usize, task: Arc<PendingTask>) {
        let (ep, attempt, stage, upstream_err) = {
            let mut coord = self.coord.lock();
            let ep = self.place(&coord, &task);
            let attempt = coord.attempts.get(&id).copied().unwrap_or(1);
            coord.inflight.insert(id, (Instant::now(), attempt, ep));
            if self.retry.max_attempts > 1 || self.retry.task_timeout.is_some() {
                coord.retriable.insert(id, Arc::clone(&task));
            }
            coord.stats.dispatched += 1;
            // Gather dep outputs for staging — or the upstream error that
            // dooms this task deterministically.
            let mut stage = Vec::with_capacity(task.dep_ids.len());
            let mut upstream_err = None;
            for d in &task.dep_ids {
                match coord.outputs.get(d) {
                    Some(bytes) => stage.push((*d as u64, Arc::clone(bytes))),
                    None => {
                        upstream_err = Some(format!("upstream task {d} failed"));
                        break;
                    }
                }
            }
            (ep, attempt, stage, upstream_err)
        };
        if let Some(tr) = &self.trace {
            tr.begin(tr.labels.attempt, attempt_span_id(id, attempt));
            tr.instant(tr.labels.dispatch, id as u64, ep as i64);
        }
        if let Some(msg) = upstream_err {
            // Never touched the endpoint: not retryable, says nothing
            // about endpoint health.
            self.complete(id, ep, attempt, Err(msg), false);
            return;
        }
        for (key, bytes) in &stage {
            self.fabric.stage(ep, *key, bytes);
        }
        let deps = task.dep_ids.iter().map(|d| *d as u64).collect();
        // The one payload copy of a dispatch, made outside the `Coord`
        // lock — and not made at all when no retry table shares the task.
        let (function, payload) = match Arc::try_unwrap(task) {
            Ok(t) => (t.function, t.payload),
            Err(t) => (Arc::clone(&t.function), t.payload.clone()),
        };
        let job = JobSpec {
            task: id as u64,
            attempt,
            function,
            deps,
            payload,
        };
        let this = self.clone();
        self.fabric.submit(
            ep,
            job,
            Box::new(move |result| {
                this.complete(id, ep, attempt, result.map(Arc::new), true);
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedci::fabric::{FabricTiming, ThreadedFabric};

    fn threaded(workers: &[(&str, usize)]) -> Arc<ThreadedFabric> {
        Arc::new(ThreadedFabric::new(workers, &FabricTiming::fast()))
    }

    #[test]
    fn single_task_round_trip() {
        let rt = FabricRuntime::new(threaded(&[("a", 2)]));
        let f = rt.submit("echo", b"hello".to_vec(), &[]);
        assert_eq!(f.wait().unwrap().as_ref(), b"hello");
        rt.wait_all();
        let stats = rt.stats();
        assert_eq!((stats.dispatched, stats.completed), (1, 1));
    }

    #[test]
    fn chains_concatenate_dep_outputs() {
        let rt = FabricRuntime::new(threaded(&[("a", 1), ("b", 1)]));
        let x = rt.submit("echo", b"AB".to_vec(), &[]);
        let y = rt.submit("echo", b"CD".to_vec(), &[]);
        // input = out(x) ++ out(y) ++ payload
        let z = rt.submit("echo", b"EF".to_vec(), &[&x, &y]);
        assert_eq!(z.wait().unwrap().as_ref(), b"ABCDEF");
        rt.wait_all();
    }

    #[test]
    fn deep_chain_on_single_worker_does_not_deadlock() {
        let rt = FabricRuntime::new(threaded(&[("solo", 1)]));
        let mut prev = rt.submit("echo", b"x".to_vec(), &[]);
        for _ in 0..20 {
            prev = rt.submit("fnv", vec![], &[&prev]);
        }
        assert_eq!(prev.wait().unwrap().len(), 8);
        rt.wait_all();
    }

    #[test]
    fn upstream_errors_propagate_without_retry_burn() {
        let rt = FabricRuntime::new(threaded(&[("a", 2)])).with_retry(LiveRetryPolicy {
            max_attempts: 3,
            task_timeout: None,
            backoff: Duration::ZERO,
        });
        let bad = rt.submit("fail", b"kaput".to_vec(), &[]);
        let child = rt.submit("echo", vec![], &[&bad]);
        let err = child.wait().unwrap_err();
        assert!(err.to_string().contains("upstream"), "err = {err}");
        rt.wait_all();
        // `fail` is an application error: retried per policy. The child
        // fails deterministically: exactly one dispatch.
        let stats = rt.stats();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.retries, 2, "only the app error burns retries");
    }

    #[test]
    fn watchdog_recovers_swallowed_work() {
        let fabric = threaded(&[("flaky", 1)]);
        // Swallow the first job pulled: no completion will ever come.
        fabric.pool(0).faults().set_crash_every(1);
        let rt = FabricRuntime::new(Arc::clone(&fabric) as Arc<dyn Fabric>).with_retry(
            LiveRetryPolicy {
                max_attempts: 5,
                task_timeout: Some(Duration::from_millis(150)),
                backoff: Duration::ZERO,
            },
        );
        let f = rt.submit("echo", b"survivor".to_vec(), &[]);
        // Heal after the first swallow so a retry can land.
        std::thread::sleep(Duration::from_millis(50));
        fabric.pool(0).faults().set_crash_every(0);
        rt.wait_all();
        assert_eq!(f.wait().unwrap().as_ref(), b"survivor");
        let stats = rt.stats();
        assert!(stats.watchdog_timeouts >= 1, "{stats:?}");
        assert!(stats.retries >= 1, "{stats:?}");
    }

    #[test]
    fn down_pool_is_avoided_and_health_reflects_probe() {
        let fabric = threaded(&[("up", 1), ("down", 1)]);
        fabric.pool(1).faults().set_down(true);
        let rt = FabricRuntime::new(Arc::clone(&fabric) as Arc<dyn Fabric>).with_retry(
            LiveRetryPolicy {
                max_attempts: 3,
                task_timeout: Some(Duration::from_millis(200)),
                backoff: Duration::ZERO,
            },
        );
        let futs: Vec<WireFuture> = (0..6)
            .map(|i| rt.submit("echo", vec![i as u8], &[]))
            .collect();
        rt.wait_all();
        for (i, f) in futs.iter().enumerate() {
            assert_eq!(f.wait().unwrap().as_ref(), &[i as u8]);
        }
        assert_eq!(rt.endpoint_health(1), HealthState::Down);
        assert_ne!(rt.endpoint_health(0), HealthState::Down);
    }

    #[test]
    fn client_trace_records_lifecycle_events() {
        let rt = FabricRuntime::new(threaded(&[("a", 2)])).with_trace(TraceLevel::Spans);
        let x = rt.submit("echo", b"ab".to_vec(), &[]);
        let y = rt.submit("echo", b"cd".to_vec(), &[&x]);
        assert_eq!(y.wait().unwrap().as_ref(), b"abcd");
        rt.wait_all();
        let tracer = rt.take_client_tracer().expect("tracing enabled");
        let names: Vec<&str> = tracer
            .records()
            .map(|r| {
                tracer.label(match r.event {
                    simkit::trace::TraceEvent::Begin { name, .. }
                    | simkit::trace::TraceEvent::End { name, .. }
                    | simkit::trace::TraceEvent::Instant { name, .. }
                    | simkit::trace::TraceEvent::Counter { name, .. } => name,
                })
            })
            .collect();
        for expected in [
            "c.submit",
            "c.attempt",
            "c.dispatch",
            "c.result",
            "c.resolve",
        ] {
            assert!(names.contains(&expected), "missing {expected}: {names:?}");
        }
        assert_eq!(
            names.iter().filter(|n| **n == "c.resolve").count(),
            2,
            "one resolve per task"
        );
        // A second take returns an empty (disabled) recording.
        assert!(rt.take_client_tracer().expect("still Some").is_empty());
    }

    #[test]
    fn exhausted_attempts_fail_finally() {
        let rt = FabricRuntime::new(threaded(&[("a", 1)])).with_retry(LiveRetryPolicy {
            max_attempts: 2,
            task_timeout: None,
            backoff: Duration::from_millis(1),
        });
        let f = rt.submit("fail", b"always".to_vec(), &[]);
        let err = f.wait().unwrap_err();
        assert!(err.to_string().contains("always"));
        rt.wait_all();
        assert_eq!(rt.stats().retries, 1);
    }
}
