//! The fabric runtime: one client path over every live backend.
//!
//! [`FabricRuntime`] is the live client: futures go out, functions run on
//! endpoints, and the exactly-once coordination machinery —
//! attempt-generation guards, a straggler watchdog, health-filtered
//! placement — speaks [`fedci::fabric::Fabric`], so the identical code
//! drives in-process worker pools and process-isolated TCP endpoints.
//! That is the point: when a chaos test SIGKILLs a daemon, the recovery
//! it exercises is the one machinery every backend shares.
//!
//! Work is a *named function over bytes* — the only shape that crosses a
//! process boundary. A task's input is the concatenation of its
//! dependencies' outputs (at the executing endpoint as keyed blobs: kept
//! there when it produced them, staged there otherwise) followed by its
//! payload. A blob key names the output of one *accepted attempt*
//! ([`blob_key`]), never a task: DESIGN.md has the hazard that closes.
//!
//! Robustness contract, mirrored from the simulated runtime (§IV-G):
//!
//! * **execution at-least-once, resolution exactly-once** — a RESULT for
//!   a superseded attempt (the endpoint was declared dead and the task
//!   failed over) no longer matches the slot's in-flight attempt and is
//!   dropped;
//! * **fail-over exactly once per loss** — a dead connection fails every
//!   in-flight attempt through the same `complete` path an application
//!   error takes, so the retry budget and backoff apply uniformly;
//! * **probes feed health** — the fabric's heartbeat/liveness verdict
//!   ([`ProbeState`]) is folded into the [`HealthMonitor`] by the
//!   watchdog: a Dead probe forces Down, a recovered probe re-admits the
//!   endpoint via Recovering, and attempt outcomes keep their usual
//!   weight in between. Placement filters on both.
//!
//! Coordination state is one dense slab under one lock (task `id` is
//! `slots[id]`; health included), never held across `Fabric::stage` /
//! `Fabric::submit` — a fabric may fire the completion inline. DESIGN.md
//! has the slot life-cycle.

use crate::error::UniFaasError;
use crate::monitor::{HealthMonitor, HealthState};
use fedci::endpoint::EndpointId;
use fedci::fabric::{blob_key, Fabric, FabricResult, JobSpec, Payload, ProbeState};
use fedci::proto::IO_BUF;
use parking_lot::{Condvar, Mutex, MutexGuard};
use simkit::metrics::{MetricsRegistry, MetricsServer};
use simkit::time::SimTime;
use simkit::trace::{LabelId, TraceLevel, Tracer};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use taskgraph::TaskId;

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
    /// Wall-clock budget per attempt; exceeded attempts are presumed
    /// swallowed (crashed worker) and re-dispatched by the `wait_all`
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

impl LiveRetryPolicy {
    /// Backoff before `attempt` (1-based; the first attempt never waits).
    fn backoff_for(&self, attempt: u32) -> Option<Duration> {
        if attempt <= 1 || self.backoff.is_zero() {
            return None;
        }
        Some(self.backoff * 2u32.saturating_pow((attempt - 2).min(16)))
    }
}

/// Result bytes of one task.
pub type WireResult = Result<Arc<Vec<u8>>, String>;

/// A task's shared cell — its one allocation: the dependency list and,
/// under the mutex, first what a (re-)dispatch needs, then the result.
struct TaskCell {
    /// Tasks whose outputs prefix the input, in order.
    dep_ids: Box<[usize]>,
    state: Mutex<TaskState>,
    cond: Condvar,
}

enum TaskState {
    /// Unresolved: the inline argument bytes, released on resolution.
    Pending(Payload),
    Resolved(WireResult),
}

impl TaskState {
    /// The payload for `attempt`, or `None` once the task is resolved.
    /// The final attempt takes the bytes. (An attempt the watchdog
    /// superseded before it got here may find them taken; its result is
    /// dropped whatever it is.) An earlier one leaves them for the next:
    /// a small payload is copied, one of [`IO_BUF`] or more is shared
    /// from its first such attempt on — large enough that the `Arc`'s
    /// allocation is nothing next to the copy, which a dispatch made from
    /// a completion would do on the endpoint's only I/O thread.
    fn payload_for(&mut self, last_attempt: bool) -> Option<Payload> {
        let TaskState::Pending(p) = self else {
            return None;
        };
        if last_attempt {
            return Some(std::mem::take(p));
        }
        if let Payload::Owned(bytes) = p {
            if bytes.len() >= IO_BUF {
                *p = Payload::Shared(Arc::new(std::mem::take(bytes)));
            }
        }
        Some(p.clone())
    }
}

/// A handle to the eventual byte result of a fabric task.
#[derive(Clone)]
pub struct WireFuture {
    id: usize,
    cell: Arc<TaskCell>,
}

impl WireFuture {
    /// The task id backing this future.
    pub fn task_id(&self) -> TaskId {
        TaskId(self.id as u32)
    }

    /// Blocks until the task completes, returning its output bytes.
    pub fn wait(&self) -> Result<Arc<Vec<u8>>, UniFaasError> {
        let mut state = self.cell.state.lock();
        loop {
            match &*state {
                TaskState::Pending(_) => self.cell.cond.wait(&mut state),
                TaskState::Resolved(Ok(v)) => return Ok(Arc::clone(v)),
                TaskState::Resolved(Err(msg)) => {
                    let (task, message) = (self.task_id(), msg.clone());
                    return Err(UniFaasError::FunctionError { task, message });
                }
            }
        }
    }

    /// Non-blocking poll.
    pub fn is_done(&self) -> bool {
        matches!(*self.cell.state.lock(), TaskState::Resolved(_))
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

/// Where a task is in its life: `Waiting → InFlight ⇄ Retrying → Done`.
#[derive(Clone, Copy)]
enum Phase {
    /// Submitted; this many dependencies are still unresolved.
    Waiting(u32),
    /// An attempt failed and the next waits out its back-off: nothing is
    /// in flight, so whatever completion arrives is stale.
    Retrying,
    /// Dispatched `at_us` µs after the fabric's clock epoch (0 without a
    /// watchdog); `attempt` is the generation guard.
    InFlight { at_us: u64, attempt: u32, ep: u16 },
    /// Resolved by `attempt`: where the output lives and how long it is
    /// (0 on failure).
    Done { ep: u16, attempt: u32, bytes: u64 },
}

/// Everything the coordinator keeps per task; `slots[id]` is task `id`.
struct Slot {
    cell: Arc<TaskCell>,
    /// Output of a successful task, staged on demand to whichever
    /// endpoint runs a dependent.
    output: Option<Arc<Vec<u8>>>,
    /// Tasks waiting on this one.
    dependents: Vec<u32>,
    phase: Phase,
    /// Index into [`Coord::functions`].
    function: u16,
}

// One cache line, so 100k queued tasks cost the slab 6.4 MB.
const _: () = assert!(std::mem::size_of::<Slot>() <= 64);

struct Coord {
    slots: Vec<Slot>,
    /// Every slot below this index is `Done`: the watchdog scans from here.
    first_live: usize,
    /// Interned function names — a workflow calls a handful.
    functions: Vec<Arc<str>>,
    outstanding: usize,
    health: HealthMonitor,
    stats: FabricRunStats,
}

impl Coord {
    fn intern(&mut self, function: &str) -> u16 {
        let known = self.functions.iter().position(|f| &**f == function);
        let i = known.unwrap_or_else(|| {
            self.functions.push(Arc::from(function));
            self.functions.len() - 1
        });
        u16::try_from(i).expect("more than 65536 distinct function names")
    }

    /// Picks an endpoint: skip Dead probes and Down health states, then
    /// maximize free workers, breaking ties toward the endpoint already
    /// holding the most input bytes. When everything is down, falls back
    /// to endpoint 0 — the attempt fails fast or times out and the retry
    /// machinery keeps going until something recovers.
    fn place(&self, fabric: &dyn Fabric, dep_ids: &[usize]) -> usize {
        let usable = |ep: &usize| {
            let healthy = self.health.is_schedulable(EndpointId(*ep as u16));
            healthy && fabric.probe(*ep) != ProbeState::Dead
        };
        let key = |ep: &usize| {
            let free = fabric.n_workers(*ep) as i64 - fabric.busy_workers(*ep) as i64;
            let local_bytes = dep_ids.iter().map(|&d| match self.slots[d].phase {
                Phase::Done { ep: at, bytes, .. } if usize::from(at) == *ep => bytes,
                _ => 0,
            });
            let local_bytes: u64 = local_bytes.sum();
            // Any free worker is as good as many; ties go to the first.
            (free.min(1), local_bytes, Reverse(*ep))
        };
        let eps = (0..fabric.n_endpoints()).filter(usable);
        eps.max_by_key(key).unwrap_or(0)
    }

    /// The in-flight attempts older than `timeout`, as `(task, attempt)`.
    fn overdue(&mut self, rt: &Inner, timeout: Duration) -> Vec<(usize, u32)> {
        let done = |s: &Slot| matches!(s.phase, Phase::Done { .. });
        while self.slots.get(self.first_live).is_some_and(done) {
            self.first_live += 1;
        }
        let (now_us, limit) = (rt.now_us(), timeout.as_micros() as u64);
        let mut overdue = Vec::new();
        for (id, slot) in self.slots.iter().enumerate().skip(self.first_live) {
            match slot.phase {
                Phase::InFlight { at_us, attempt, .. } if now_us - at_us >= limit => {
                    overdue.push((id, attempt));
                }
                _ => {}
            }
        }
        self.stats.watchdog_timeouts += overdue.len() as u64;
        overdue
    }
}

/// What the runtime handle and every completion closure share.
struct Inner {
    fabric: Arc<dyn Fabric>,
    coord: Mutex<Coord>,
    done_cond: Condvar,
    retry: LiveRetryPolicy,
    trace: Option<ClientTrace>,
    /// The fabric's clock epoch: zero of [`Phase::InFlight`] stamps.
    epoch: Instant,
    /// The back-off timer, started by the first retry that has to wait.
    timer: OnceLock<mpsc::Sender<Backoff>>,
}

/// A retry waiting out its back-off: `(due, task, runtime, attempt)`. The
/// entry, not the timer thread, holds the runtime: a waiting retry keeps
/// it alive (futures held after the [`FabricRuntime`] is dropped still
/// resolve), an idle timer holds nothing.
type Backoff = (Instant, usize, Arc<Inner>, u32);

/// The timer thread: keeps the waiting retries ordered by due time and
/// dispatches each when it is due.
fn run_timer(rx: mpsc::Receiver<Backoff>) {
    // A task waits for one retry at a time: `(due, task)` is unique.
    let mut waiting: BTreeMap<(Instant, usize), (Arc<Inner>, u32)> = BTreeMap::new();
    loop {
        let now = Instant::now();
        while let Some(next) = waiting.first_entry().filter(|e| e.key().0 <= now) {
            let ((_, id), (rt, attempt)) = next.remove_entry();
            rt.dispatch(rt.coord.lock(), id, attempt);
        }
        let received = match waiting.first_key_value() {
            Some(((due, _), _)) => rx.recv_timeout(due.saturating_duration_since(Instant::now())),
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match received {
            Ok((due, id, rt, attempt)) => waiting.insert((due, id), (rt, attempt)),
            Err(RecvTimeoutError::Timeout) => continue,
            // Every waiting retry holds the runtime and with it the
            // sender: the channel disconnects only with nothing waiting.
            Err(RecvTimeoutError::Disconnected) => return,
        };
    }
}

/// The builder methods need the state to themselves: no completion yet.
const CONFIGURE_FIRST: &str = "configure the runtime before submitting tasks";

/// The fabric-backed UniFaaS runtime. See the module docs.
pub struct FabricRuntime {
    inner: Arc<Inner>,
}

impl FabricRuntime {
    /// Wraps `fabric` with the default (no-retry) policy.
    pub fn new(fabric: Arc<dyn Fabric>) -> Self {
        let coord = Coord {
            slots: Vec::new(),
            first_live: 0,
            functions: Vec::new(),
            outstanding: 0,
            health: HealthMonitor::new(fabric.n_endpoints()),
            stats: FabricRunStats::default(),
        };
        let inner = Inner {
            epoch: fabric.clock_epoch(),
            fabric,
            coord: Mutex::new(coord),
            done_cond: Condvar::new(),
            retry: LiveRetryPolicy::default(),
            trace: None,
            timer: OnceLock::new(),
        };
        let inner = Arc::new(inner);
        FabricRuntime { inner }
    }

    /// Enables client-side tracing (builder style). Emits the `c.*`
    /// lifecycle events — submit, per-attempt spans, dispatch / result /
    /// retry / timeout instants and final resolution — on a `client`
    /// track stamped in microseconds since the fabric's clock epoch.
    /// Retrieve the recording with [`take_client_tracer`]
    /// (FabricRuntime::take_client_tracer) after the run.
    pub fn with_trace(mut self, level: TraceLevel) -> Self {
        if level != TraceLevel::Off {
            let inner = Arc::get_mut(&mut self.inner).expect(CONFIGURE_FIRST);
            inner.trace = Some(ClientTrace::new(level, inner.epoch));
        }
        self
    }

    /// Takes the client trace recorded so far, leaving a disabled tracer
    /// behind. Returns `None` when tracing was never enabled.
    pub fn take_client_tracer(&self) -> Option<Tracer> {
        let trace = self.inner.trace.as_ref();
        trace.map(|t| std::mem::replace(&mut *t.tracer.lock(), Tracer::disabled()))
    }

    /// Sets the retry/timeout policy (builder style). Runs on a fabric
    /// that can lose endpoints need `max_attempts > 1` and a
    /// `task_timeout`; without them a lost attempt is a final failure.
    pub fn with_retry(mut self, policy: LiveRetryPolicy) -> Self {
        assert!(policy.max_attempts >= 1, "need at least one attempt");
        Arc::get_mut(&mut self.inner).expect(CONFIGURE_FIRST).retry = policy;
        self
    }

    /// Current health state of endpoint `i`.
    pub fn endpoint_health(&self, i: usize) -> HealthState {
        self.inner.coord.lock().health.state(EndpointId(i as u16))
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Arc<dyn Fabric> {
        &self.inner.fabric
    }

    /// Run statistics so far.
    pub fn stats(&self) -> FabricRunStats {
        self.inner.coord.lock().stats
    }

    /// Starts a Prometheus scrape server at `addr` (port 0 picks an
    /// ephemeral port, see [`MetricsServer::local_addr`]) over `registry`,
    /// to which it adds the `unifaas_outstanding_tasks` gauge. Every
    /// scrape first runs `sample` — the fabric's own `sample_metrics`,
    /// over the ids its `register_metrics` put into `registry` — so
    /// `GET /metrics` reads live state. The server stops when the handle
    /// is dropped; the runtime keeps running either way.
    pub fn serve_metrics(
        &self,
        addr: &str,
        registry: Arc<std::sync::Mutex<MetricsRegistry>>,
        sample: impl Fn(&mut MetricsRegistry) + Send + 'static,
    ) -> std::io::Result<MetricsServer> {
        let outstanding = registry.lock().expect("registry lock").gauge(
            "unifaas_outstanding_tasks",
            "Submitted tasks whose futures have not resolved.",
            &[],
        );
        let inner = Arc::clone(&self.inner);
        let refresh = move |reg: &mut MetricsRegistry| {
            sample(reg);
            reg.set(outstanding, inner.coord.lock().outstanding as f64);
        };
        MetricsServer::start(addr, registry, Some(Box::new(refresh)))
    }

    /// Submits one task: run `function` over the concatenation of the
    /// dependencies' outputs (in order) and `payload`. Returns
    /// immediately with a future.
    pub fn submit(&self, function: &str, payload: Vec<u8>, deps: &[&WireFuture]) -> WireFuture {
        let inner = &self.inner;
        let cell = Arc::new(TaskCell {
            dep_ids: deps.iter().map(|d| d.id).collect(),
            state: Mutex::new(TaskState::Pending(payload.into())),
            cond: Condvar::new(),
        });
        // One lock acquisition allocates the slot and, when nothing is
        // left to wait for, places the task and marks it in flight.
        let mut coord = inner.coord.lock();
        // Checked before anything is linked: a foreign future's id would
        // alias an unrelated task of this runtime, or none at all.
        for d in deps {
            let slot = coord.slots.get(d.id);
            let own = slot.is_some_and(|s| Arc::ptr_eq(&s.cell, &d.cell));
            assert!(own, "dependency {} belongs to another runtime", d.id);
        }
        let id = coord.slots.len();
        let function = coord.intern(function);
        let mut unresolved = 0;
        for d in deps {
            let dep = &mut coord.slots[d.id];
            if !matches!(dep.phase, Phase::Done { .. }) {
                dep.dependents.push(id as u32);
                unresolved += 1;
            }
        }
        coord.slots.push(Slot {
            cell: Arc::clone(&cell),
            output: None,
            dependents: Vec::new(),
            phase: Phase::Waiting(unresolved),
            function,
        });
        coord.outstanding += 1;
        if let Some(tr) = &inner.trace {
            tr.instant(tr.labels.submit, id as u64, deps.len() as i64);
        }
        if unresolved == 0 {
            inner.dispatch(coord, id, 1);
        }
        WireFuture { id, cell }
    }

    /// Blocks until every submitted task has resolved.
    ///
    /// With a task timeout set this is also the straggler watchdog *and*
    /// the probe-to-health bridge: every tick it fails over attempts past
    /// their budget and folds each endpoint's [`ProbeState`] into the
    /// [`HealthMonitor`] (Dead ⇒ Down, Alive again ⇒ Recovering), which
    /// is how heartbeat-detected crashes steer placement.
    pub fn wait_all(&self) {
        let inner = &self.inner;
        let Some(timeout) = inner.retry.task_timeout else {
            let mut coord = inner.coord.lock();
            while coord.outstanding > 0 {
                inner.done_cond.wait(&mut coord);
            }
            return;
        };
        let tick = (timeout / 4).max(Duration::from_millis(5));
        loop {
            inner.feed_probes();
            let overdue = {
                let mut coord = inner.coord.lock();
                if coord.outstanding == 0 {
                    return;
                }
                inner.done_cond.wait_for(&mut coord, tick);
                if coord.outstanding == 0 {
                    return;
                }
                coord.overdue(inner, timeout)
            };
            for (id, attempt) in overdue {
                if let Some(tr) = &inner.trace {
                    tr.instant(tr.labels.timeout, id as u64, i64::from(attempt));
                }
                let msg = format!("attempt {attempt} timed out after {timeout:?}");
                inner.complete(id, attempt, Err(msg), true);
            }
        }
    }
}

impl Inner {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Folds fabric probes into the health monitor. A Dead probe is
    /// authoritative (the connection is gone — no attempt outcome will
    /// say it better); an Alive probe only *re-admits* a Down endpoint,
    /// so accumulated attempt-failure evidence against a flaky-but-
    /// connected endpoint is not erased by mere liveness.
    fn feed_probes(&self) {
        let probes: Vec<ProbeState> = (0..self.fabric.n_endpoints())
            .map(|ep| self.fabric.probe(ep))
            .collect();
        let health = &mut self.coord.lock().health;
        for (ep, probe) in probes.into_iter().enumerate() {
            let id = EndpointId(ep as u16);
            if probe == ProbeState::Dead {
                health.mark_down(id);
            } else if probe == ProbeState::Alive && health.is_down(id) {
                health.mark_recovering(id);
            }
        }
    }

    /// Places ready task `id` and marks `attempt` in flight under `coord`
    /// — the tail of the caller's lock acquisition — then releases the
    /// lock and hands the attempt to the fabric.
    fn dispatch(self: &Arc<Self>, mut coord: MutexGuard<'_, Coord>, id: usize, attempt: u32) {
        let cell = Arc::clone(&coord.slots[id].cell);
        let ep = coord.place(&*self.fabric, &cell.dep_ids);
        // Only the watchdog reads the stamp: no clock read without one.
        let at_us = self.retry.task_timeout.map_or(0, |_| self.now_us());
        let ep16 = ep as u16;
        coord.slots[id].phase = Phase::InFlight {
            at_us,
            attempt,
            ep: ep16,
        };
        coord.stats.dispatched += 1;
        let function = Arc::clone(&coord.functions[usize::from(coord.slots[id].function)]);
        // A dependent already waits for this output: worth keeping where
        // it is computed. One that registers later gets it staged.
        let keep_output = !coord.slots[id].dependents.is_empty();
        // The dep outputs to stage, each under the key of the attempt that
        // resolved it — or the upstream error that dooms this task
        // deterministically.
        let stage = cell.dep_ids.iter().map(|&d| match &coord.slots[d] {
            Slot {
                output: Some(bytes),
                phase: Phase::Done { attempt, .. },
                ..
            } => Ok((blob_key(d as u32, *attempt), Arc::clone(bytes))),
            _ => Err(format!("upstream task {d} failed")),
        });
        let stage: Result<Vec<_>, String> = stage.collect();
        drop(coord);
        if let Some(tr) = &self.trace {
            tr.begin(tr.labels.attempt, attempt_span_id(id, attempt));
            tr.instant(tr.labels.dispatch, id as u64, ep as i64);
        }
        let stage = match stage {
            Ok(stage) => stage,
            // Never touched the endpoint: not retryable, says nothing
            // about endpoint health.
            Err(msg) => return self.complete(id, attempt, Err(msg), false),
        };
        for (key, bytes) in &stage {
            self.fabric.stage(ep, *key, bytes);
        }
        let last_attempt = attempt >= self.retry.max_attempts;
        let Some(payload) = cell.state.lock().payload_for(last_attempt) else {
            return;
        };
        let job = JobSpec {
            task: id as u64,
            attempt,
            function,
            deps: stage.iter().map(|&(key, _)| key).collect(),
            payload,
            keep_output,
        };
        let this = Arc::clone(self);
        let done = move |result: FabricResult| {
            this.complete(id, attempt, result.map(Arc::new), true);
        };
        self.fabric.submit(ep, job, Box::new(done));
    }

    /// Queues `attempt` of task `id` on the timer, starting it on first use.
    fn dispatch_after(self: &Arc<Self>, delay: Duration, id: usize, attempt: u32) {
        let timer = self.timer.get_or_init(|| {
            let (tx, rx) = mpsc::channel();
            let thread = std::thread::Builder::new().name("unifaas-backoff".into());
            thread
                .spawn(move || run_timer(rx))
                .expect("failed to spawn the back-off timer");
            tx
        });
        let retry = (Instant::now() + delay, id, Arc::clone(self), attempt);
        timer.send(retry).expect("the timer outlives its sender");
    }

    /// Reports the outcome of attempt `attempt` of task `id`: guard,
    /// resolution, health and dependents under one lock acquisition.
    /// Stale completions — the slot is not in flight with this attempt
    /// because a fail-over superseded it — are dropped. `ran` is false
    /// when the attempt never reached the endpoint.
    fn complete(self: &Arc<Self>, id: usize, attempt: u32, result: WireResult, ran: bool) {
        let ok = result.is_ok();
        let mut coord = self.coord.lock();
        let ep = match coord.slots[id].phase {
            Phase::InFlight { attempt: a, ep, .. } if a == attempt => ep,
            _ => return,
        };
        // The attempt's span closes before its future can resolve: a
        // caller woken by the future (or by `wait_all`) always finds
        // the span complete in the trace it takes.
        if let Some(tr) = &self.trace {
            tr.end(tr.labels.attempt, attempt_span_id(id, attempt));
            tr.instant(tr.labels.result, id as u64, i64::from(ok));
        }
        if ran {
            coord.health.record(EndpointId(ep), ok);
        }
        if !ok && ran && attempt < self.retry.max_attempts {
            coord.slots[id].phase = Phase::Retrying;
            coord.stats.retries += 1;
            drop(coord);
            if let Some(tr) = &self.trace {
                tr.instant(tr.labels.retry, id as u64, i64::from(attempt + 1));
            }
            match self.retry.backoff_for(attempt + 1) {
                // The completion runs on a fabric thread (often the
                // endpoint supervisor) — sleeping there would stall
                // heartbeats, so the retry waits on the timer thread.
                Some(delay) => self.dispatch_after(delay, id, attempt + 1),
                None => self.dispatch(self.coord.lock(), id, attempt + 1),
            }
            return;
        }
        let slot = &mut coord.slots[id];
        let bytes = result.as_ref().map_or(0, |b| b.len() as u64);
        slot.phase = Phase::Done { ep, attempt, bytes };
        slot.output = result.as_ref().ok().cloned();
        let dependents = std::mem::take(&mut slot.dependents);
        // Like the span above, recorded before anyone can be woken.
        if let Some(tr) = &self.trace {
            tr.instant(tr.labels.resolve, id as u64, i64::from(!ok));
        }
        *slot.cell.state.lock() = TaskState::Resolved(result);
        slot.cell.cond.notify_all();
        coord.stats.completed += 1;
        coord.outstanding -= 1;
        if coord.outstanding == 0 {
            self.done_cond.notify_all();
        }
        let mut ready = Vec::new();
        for dep in dependents {
            let dep = dep as usize;
            let Phase::Waiting(unresolved) = &mut coord.slots[dep].phase else {
                unreachable!("a task with unresolved dependencies is Waiting");
            };
            *unresolved -= 1;
            if *unresolved == 0 {
                ready.push(dep);
            }
        }
        drop(coord);
        for dep in ready {
            self.dispatch(self.coord.lock(), dep, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedci::fabric::{Completion, FabricResult, FabricTiming, ThreadedFabric};
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

    fn threaded(workers: &[(&str, usize)]) -> Arc<ThreadedFabric> {
        Arc::new(ThreadedFabric::new(workers, &FabricTiming::fast()))
    }

    /// One call the runtime made into the [`ScriptedFabric`].
    #[derive(Debug, PartialEq)]
    enum Call {
        Stage { ep: usize, key: u64 },
        Submit { ep: usize, job: JobSpec },
    }

    /// A scripted in-memory fabric: records every `stage`/`submit`,
    /// answers probes as told, and completes an attempt when the test
    /// fires it — in any order, so a test picks the interleaving. With
    /// `inline` set the completion fires inside `submit` instead (what
    /// `ProcessFabric::submit` does when a supervisor is gone).
    struct ScriptedFabric {
        labels: Vec<String>,
        probes: Mutex<Vec<ProbeState>>,
        calls: Mutex<Vec<Call>>,
        held: Mutex<Vec<(u64, u32, Completion)>>,
        submitted: Condvar,
        inline: AtomicBool,
    }

    impl ScriptedFabric {
        fn new(n_endpoints: usize) -> Arc<ScriptedFabric> {
            Arc::new(ScriptedFabric {
                labels: (0..n_endpoints).map(|ep| format!("ep{ep}")).collect(),
                probes: Mutex::new(vec![ProbeState::Alive; n_endpoints]),
                calls: Mutex::new(Vec::new()),
                held: Mutex::new(Vec::new()),
                submitted: Condvar::new(),
                inline: AtomicBool::new(false),
            })
        }

        fn set_probe(&self, ep: usize, state: ProbeState) {
            self.probes.lock()[ep] = state;
        }

        /// Endpoint of every `submit` so far, in call order.
        fn submit_eps(&self) -> Vec<usize> {
            let calls = self.calls.lock();
            let eps = calls.iter().filter_map(|c| match c {
                Call::Submit { ep, .. } => Some(*ep),
                Call::Stage { .. } => None,
            });
            eps.collect()
        }

        /// Blocks until `attempt` of `task` was submitted.
        fn await_submit(&self, task: u64, attempt: u32) {
            let mut held = self.held.lock();
            while !held.iter().any(|h| (h.0, h.1) == (task, attempt)) {
                self.submitted.wait(&mut held);
            }
        }

        /// Completes `attempt` of `task` (once it was submitted) with
        /// `result`, from this thread.
        fn fire(&self, task: u64, attempt: u32, result: FabricResult) {
            self.await_submit(task, attempt);
            let mut held = self.held.lock();
            let at = held.iter().position(|h| (h.0, h.1) == (task, attempt));
            let done = held.swap_remove(at.expect("only `fire` removes")).2;
            drop(held);
            done(result);
        }
    }

    impl Fabric for ScriptedFabric {
        fn labels(&self) -> &[String] {
            &self.labels
        }

        fn n_workers(&self, _ep: usize) -> usize {
            1
        }

        fn busy_workers(&self, _ep: usize) -> usize {
            0
        }

        fn probe(&self, ep: usize) -> ProbeState {
            self.probes.lock()[ep]
        }

        fn stage(&self, ep: usize, key: u64, _bytes: &Arc<Vec<u8>>) {
            self.calls.lock().push(Call::Stage { ep, key });
        }

        fn submit(&self, ep: usize, job: JobSpec, done: Completion) {
            let (task, attempt, payload) = (job.task, job.attempt, job.payload.to_vec());
            self.calls.lock().push(Call::Submit { ep, job });
            if self.inline.load(Ordering::SeqCst) {
                done(Ok(payload));
            } else {
                self.held.lock().push((task, attempt, done));
                self.submitted.notify_all();
            }
        }

        fn shutdown(&self) {}
    }

    fn scripted_runtime(fabric: &Arc<ScriptedFabric>, policy: LiveRetryPolicy) -> FabricRuntime {
        FabricRuntime::new(Arc::clone(fabric) as Arc<dyn Fabric>).with_retry(policy)
    }

    fn ok(bytes: &[u8]) -> FabricResult {
        Ok(bytes.to_vec())
    }

    #[test]
    fn late_result_of_a_failed_over_attempt_is_dropped() {
        let fabric = ScriptedFabric::new(1);
        let policy = LiveRetryPolicy {
            max_attempts: 3,
            task_timeout: Some(Duration::from_millis(100)),
            backoff: Duration::ZERO,
        };
        let rt = scripted_runtime(&fabric, policy);
        let f = rt.submit("echo", b"x".to_vec(), &[]);
        std::thread::scope(|s| {
            s.spawn(|| rt.wait_all());
            // Attempt 2 exists once the watchdog failed attempt 1 over;
            // attempt 1's answer then comes in first.
            fabric.await_submit(0, 2);
            fabric.fire(0, 1, ok(b"first"));
            assert!(!f.is_done(), "a superseded attempt resolved the future");
            fabric.fire(0, 2, ok(b"second"));
        });
        assert_eq!(f.wait().unwrap().as_ref(), b"second");
        let stats = rt.stats();
        assert_eq!((stats.dispatched, stats.completed), (2, 1), "{stats:?}");
        assert_eq!(
            (stats.retries, stats.watchdog_timeouts),
            (1, 1),
            "{stats:?}"
        );
    }

    #[test]
    fn completion_during_backoff_is_dropped_and_the_retry_dispatches_once() {
        let fabric = ScriptedFabric::new(1);
        let policy = LiveRetryPolicy {
            max_attempts: 3,
            task_timeout: Some(Duration::from_millis(50)),
            backoff: Duration::from_millis(200),
        };
        let rt = scripted_runtime(&fabric, policy);
        let f = rt.submit("echo", b"x".to_vec(), &[]);
        std::thread::scope(|s| {
            s.spawn(|| rt.wait_all());
            // The watchdog times attempt 1 out; until the back-off is over
            // the slot is `Retrying` and nothing is in flight.
            while rt.stats().retries == 0 {
                std::thread::yield_now();
            }
            fabric.fire(0, 1, ok(b"late"));
            assert!(!f.is_done(), "a completion resolved a slot in back-off");
            fabric.fire(0, 2, ok(b"second"));
        });
        assert_eq!(f.wait().unwrap().as_ref(), b"second");
        assert_eq!(fabric.submit_eps().len(), 2, "the retry dispatched once");
        let stats = rt.stats();
        assert_eq!((stats.dispatched, stats.completed), (2, 1), "{stats:?}");
    }

    #[test]
    fn two_dep_task_is_staged_then_submitted_once_where_its_bytes_are() {
        let fabric = ScriptedFabric::new(2);
        let rt = scripted_runtime(&fabric, LiveRetryPolicy::default());
        // Both endpoints free and nothing to be near: endpoint 0. A Dead
        // probe then pushes `y` to endpoint 1.
        let x = rt.submit("echo", vec![], &[]);
        fabric.set_probe(0, ProbeState::Dead);
        let y = rt.submit("echo", vec![], &[]);
        fabric.set_probe(0, ProbeState::Alive);
        let z = rt.submit("sum64", b"p".to_vec(), &[&x, &y]);
        assert_eq!(fabric.submit_eps(), [0, 1]);
        fabric.fire(0, 1, ok(&[1; 2]));
        assert_eq!(fabric.calls.lock().len(), 2, "`z` still waits for `y`");
        fabric.fire(1, 1, ok(&[2; 10]));
        // Ready exactly once, on the endpoint holding 10 of the 12 input
        // bytes, each input staged there before the submit under the key
        // of the attempt that produced it.
        let keys = [blob_key(0, 1), blob_key(1, 1)];
        let job = JobSpec {
            task: 2,
            attempt: 1,
            function: Arc::from("sum64"),
            deps: keys.to_vec(),
            payload: b"p".to_vec().into(),
            keep_output: false,
        };
        assert_eq!(
            fabric.calls.lock()[2..],
            [
                Call::Stage {
                    ep: 1,
                    key: keys[0]
                },
                Call::Stage {
                    ep: 1,
                    key: keys[1]
                },
                Call::Submit { ep: 1, job },
            ]
        );
        fabric.fire(2, 1, ok(b"z"));
        rt.wait_all();
        assert_eq!(z.wait().unwrap().as_ref(), b"z");
        let stats = rt.stats();
        assert_eq!((stats.dispatched, stats.completed), (3, 3), "{stats:?}");
    }

    #[test]
    fn a_dependent_is_given_the_accepted_attempts_key_not_the_superseded_ones() {
        let fabric = ScriptedFabric::new(2);
        let policy = LiveRetryPolicy {
            max_attempts: 3,
            task_timeout: Some(Duration::from_millis(100)),
            backoff: Duration::ZERO,
        };
        let rt = scripted_runtime(&fabric, policy);
        let x = rt.submit("echo", b"x".to_vec(), &[]);
        let y = rt.submit("echo", vec![], &[&x]);
        // Attempt 1 sits on endpoint 0; with that one reading Dead, the
        // attempt the watchdog replaces it with goes to endpoint 1.
        fabric.set_probe(0, ProbeState::Dead);
        std::thread::scope(|s| {
            s.spawn(|| rt.wait_all());
            fabric.await_submit(0, 2);
            fabric.set_probe(0, ProbeState::Alive);
            fabric.fire(0, 2, ok(b"second"));
            // Attempt 1 finishes late, where it ran, with other bytes: an
            // endpoint told to keep it holds them under attempt 1's key.
            fabric.fire(0, 1, ok(b"first"));
            fabric.await_submit(1, 1);
            fabric.fire(1, 1, ok(b"second"));
        });
        assert_eq!(y.wait().unwrap().as_ref(), b"second");
        let calls = fabric.calls.lock();
        let submits = calls.iter().filter_map(|c| match c {
            Call::Submit { ep, job } => Some((*ep, job)),
            Call::Stage { .. } => None,
        });
        let submits: Vec<(usize, &JobSpec)> = submits.collect();
        assert_eq!(submits.iter().map(|s| s.0).collect::<Vec<_>>()[..2], [0, 1]);
        // `y` registered between the two attempts of `x`: only the second
        // was told a dependent waits for its output.
        let kept: Vec<bool> = submits.iter().map(|s| s.1.keep_output).collect();
        assert_eq!(kept, [false, true, false]);
        // What `y` names, and what was staged for it, is attempt 2's output.
        let accepted = blob_key(0, 2);
        assert_eq!(submits[2].1.deps, [accepted]);
        let staged = calls.iter().filter_map(|c| match c {
            Call::Stage { key, .. } => Some(*key),
            Call::Submit { .. } => None,
        });
        assert_eq!(staged.collect::<Vec<_>>(), [accepted]);
    }

    #[test]
    fn only_a_large_payload_is_shared_between_attempts() {
        let fabric = ScriptedFabric::new(1);
        let policy = LiveRetryPolicy {
            max_attempts: 2,
            ..LiveRetryPolicy::default()
        };
        let rt = scripted_runtime(&fabric, policy);
        let large = rt.submit("echo", vec![7; IO_BUF], &[]);
        rt.submit("echo", vec![7; IO_BUF - 1], &[]);
        fabric.fire(0, 1, Err("lost".into()));
        fabric.fire(0, 2, ok(b"done"));
        fabric.fire(1, 1, ok(b"done"));
        rt.wait_all();
        assert_eq!(large.wait().unwrap().as_ref(), b"done");
        let calls = fabric.calls.lock();
        let payloads: Vec<&Payload> = calls
            .iter()
            .map(|c| match c {
                Call::Submit { job, .. } => &job.payload,
                Call::Stage { .. } => unreachable!("no task has a dependency"),
            })
            .collect();
        // First attempts of the large and the small task, then the large
        // one's last, which takes what the first left shared.
        assert!(
            matches!(
                payloads[..],
                [Payload::Shared(a), Payload::Owned(_), Payload::Shared(b)] if Arc::ptr_eq(a, b)
            ),
            "{payloads:?}"
        );
    }

    #[test]
    fn dead_probes_steer_placement_and_health() {
        let fabric = ScriptedFabric::new(2);
        let policy = LiveRetryPolicy {
            task_timeout: Some(Duration::from_secs(5)),
            ..LiveRetryPolicy::default()
        };
        let rt = scripted_runtime(&fabric, policy);
        fabric.set_probe(0, ProbeState::Dead);
        fabric.set_probe(1, ProbeState::Dead);
        rt.submit("echo", vec![], &[]);
        fabric.set_probe(1, ProbeState::Alive);
        rt.submit("echo", vec![], &[]);
        assert_eq!(
            fabric.submit_eps(),
            [0, 1],
            "nothing schedulable falls back to endpoint 0; one Dead endpoint is avoided"
        );
        fabric.fire(0, 1, ok(b""));
        fabric.fire(1, 1, ok(b""));
        // Nothing outstanding: `wait_all` feeds the probes and returns.
        rt.wait_all();
        assert_eq!(rt.endpoint_health(0), HealthState::Down);
        assert_eq!(rt.endpoint_health(1), HealthState::Healthy);
        fabric.set_probe(0, ProbeState::Alive);
        rt.wait_all();
        assert_eq!(rt.endpoint_health(0), HealthState::Recovering);
        assert_eq!(rt.endpoint_health(1), HealthState::Healthy);
    }

    #[test]
    fn inline_completion_does_not_deadlock() {
        let fabric = ScriptedFabric::new(1);
        let rt = scripted_runtime(&fabric, LiveRetryPolicy::default());
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            // Inside `submit` …
            fabric.inline.store(true, Ordering::SeqCst);
            let a = rt.submit("echo", b"a".to_vec(), &[]);
            // … and inside the completion that made the task ready.
            fabric.inline.store(false, Ordering::SeqCst);
            let b = rt.submit("echo", b"b".to_vec(), &[&a]);
            let c = rt.submit("echo", b"c".to_vec(), &[&b]);
            fabric.inline.store(true, Ordering::SeqCst);
            fabric.fire(1, 1, ok(b"b"));
            rt.wait_all();
            let outputs = [a, b, c].map(|f| f.wait().unwrap().to_vec());
            tx.send((outputs, rt.stats())).unwrap();
        });
        let (outputs, stats) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("an inline completion deadlocked the runtime");
        assert_eq!(outputs, [b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
        assert_eq!((stats.dispatched, stats.completed), (3, 3), "{stats:?}");
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
        // Every second submission is swallowed: task b's first attempt
        // never completes, and its retry (the third submission) lands.
        let plan = fedci::FaultPlan::from_iter(["swallow every=2".parse().unwrap()]);
        let timing = FabricTiming::fast();
        let fabric = ThreadedFabric::new(&[("flaky", 1)], &timing).with_faults(&plan);
        let rt = FabricRuntime::new(Arc::new(fabric.unwrap())).with_retry(LiveRetryPolicy {
            max_attempts: 5,
            task_timeout: Some(Duration::from_millis(150)),
            backoff: Duration::ZERO,
        });
        let a = rt.submit("echo", b"first".to_vec(), &[]);
        let b = rt.submit("echo", b"survivor".to_vec(), &[]);
        rt.wait_all();
        assert_eq!(a.wait().unwrap().as_ref(), b"first");
        assert_eq!(b.wait().unwrap().as_ref(), b"survivor");
        let stats = rt.stats();
        assert_eq!(stats.watchdog_timeouts, 1, "{stats:?}");
        assert_eq!(stats.retries, 1, "{stats:?}");
    }

    #[test]
    fn down_pool_is_avoided_and_health_reflects_probe() {
        let fabric = threaded(&[("up", 1), ("down", 1)]);
        fabric.set_down(1, true);
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

    /// A one-endpoint runtime whose function `flaky` fails its first
    /// `failures` executions, and the execution counter.
    fn flaky_runtime(failures: u32, max_attempts: u32) -> (FabricRuntime, Arc<AtomicU32>) {
        let fabric = threaded(&[("a", 2)]);
        let tries = Arc::new(AtomicU32::new(0));
        let counted = Arc::clone(&tries);
        fabric.registry().register("flaky", move |_| {
            if counted.fetch_add(1, Ordering::SeqCst) < failures {
                return Err("transient".into());
            }
            Ok(vec![7])
        });
        let policy = LiveRetryPolicy {
            max_attempts,
            task_timeout: None,
            backoff: Duration::from_millis(1),
        };
        (FabricRuntime::new(fabric).with_retry(policy), tries)
    }

    #[test]
    fn exhausted_attempts_fail_finally() {
        let (rt, tries) = flaky_runtime(u32::MAX, 2);
        let f = rt.submit("flaky", vec![], &[]);
        let err = f.wait().unwrap_err();
        assert!(err.to_string().contains("transient"));
        rt.wait_all();
        assert_eq!(rt.stats().retries, 1);
        assert_eq!(tries.load(Ordering::SeqCst), 2, "exactly max_attempts runs");
    }

    #[test]
    fn retry_succeeds_after_transient_app_error() {
        let (rt, tries) = flaky_runtime(2, 3);
        let f = rt.submit("flaky", vec![], &[]);
        assert_eq!(f.wait().expect("third attempt succeeds").as_ref(), &[7]);
        rt.wait_all();
        assert_eq!(tries.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn repeated_failures_mark_endpoint_down() {
        let rt = FabricRuntime::new(threaded(&[("a", 1)]));
        for _ in 0..3 {
            assert!(rt.submit("fail", b"kaput".to_vec(), &[]).wait().is_err());
        }
        rt.wait_all();
        assert_eq!(rt.endpoint_health(0), HealthState::Down);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn waiting_retries_share_one_timer_thread() {
        const N: u64 = 1000;
        let threads = || std::fs::read_dir("/proc/self/task").unwrap().count();
        let rt = FabricRuntime::new(threaded(&[("a", 2)])).with_retry(LiveRetryPolicy {
            max_attempts: 3,
            task_timeout: None,
            backoff: Duration::from_millis(100),
        });
        let before = threads();
        let futures: Vec<WireFuture> = (0..N)
            .map(|_| rt.submit("fail", b"no".to_vec(), &[]))
            .collect();
        let mut peak = before;
        while rt.stats().completed < N {
            peak = peak.max(threads());
            std::thread::yield_now();
        }
        // Two workers, the timer, and what the tests running next to this
        // one start meanwhile; a thread per waiting retry would be ~N.
        assert!(peak < before + 50, "{before} -> {peak} threads");
        for f in &futures {
            assert!(f.wait().unwrap_err().to_string().contains("no"));
        }
        assert_eq!(rt.stats().retries, 2 * N);
    }

    #[test]
    fn a_retry_waiting_when_the_runtime_is_dropped_still_resolves() {
        let fabric = ScriptedFabric::new(1);
        let policy = LiveRetryPolicy {
            max_attempts: 2,
            task_timeout: None,
            backoff: Duration::from_millis(50),
        };
        let rt = scripted_runtime(&fabric, policy);
        let f = rt.submit("echo", b"x".to_vec(), &[]);
        fabric.fire(0, 1, Err("lost".into()));
        // From here on only the queued retry holds the runtime.
        drop(rt);
        fabric.fire(0, 2, ok(b"second"));
        assert_eq!(f.wait().unwrap().as_ref(), b"second");
    }

    /// Hands runtime `b`, `own` tasks in, task 0 of another runtime.
    fn submit_foreign_dependency(b: &FabricRuntime, own: usize) {
        let a = FabricRuntime::new(threaded(&[("a", 1)]));
        let foreign = a.submit("echo", vec![], &[]);
        for _ in 0..own {
            b.submit("echo", vec![], &[]);
        }
        b.submit("echo", vec![], &[&foreign]);
    }

    #[test]
    #[should_panic(expected = "belongs to another runtime")]
    fn dependency_id_out_of_range_is_rejected() {
        submit_foreign_dependency(&FabricRuntime::new(threaded(&[("b", 1)])), 0);
    }

    #[test]
    #[should_panic(expected = "belongs to another runtime")]
    fn dependency_id_of_an_unrelated_task_is_rejected_not_aliased() {
        submit_foreign_dependency(&FabricRuntime::new(threaded(&[("b", 1)])), 1);
    }

    #[test]
    fn a_rejected_dependency_leaves_the_runtime_usable() {
        let b = FabricRuntime::new(threaded(&[("b", 1)]));
        let rejected = std::thread::scope(|s| s.spawn(|| submit_foreign_dependency(&b, 1)).join());
        assert!(rejected.is_err());
        // Nothing was linked and the lock is free again.
        let f = b.submit("echo", b"ok".to_vec(), &[]);
        assert_eq!(f.wait().unwrap().as_ref(), b"ok");
        b.wait_all();
        let stats = b.stats();
        assert_eq!((stats.dispatched, stats.completed), (2, 2), "{stats:?}");
    }
}
