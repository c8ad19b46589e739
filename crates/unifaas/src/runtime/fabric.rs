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
//! ([`blob_key`](fedci::fabric::blob_key)), never a task: DESIGN.md has
//! the hazard that closes.
//!
//! Every decision is the sans-IO coordinator's (`runtime/coord.rs`). This
//! module drives it: the one lock around it, the fabric calls outside that
//! lock, the futures and the client trace, and the two threads that wait.
//! The coordinator keeps the task graph in a `taskgraph::Dag` (edges,
//! successors, function names); a task's argument order,
//! repeats included, stays on its `TaskCell`, because the input is laid
//! out by it and the `Dag` holds each edge once. Work enters one task per
//! [`FabricRuntime::submit`]; a batch entry waits for its first caller.

use super::coord::{Coord, Dispatch, Step, View};
pub use super::coord::{FabricRunStats, LiveRetryPolicy, WireResult};
use crate::error::UniFaasError;
use fedci::fabric::{Fabric, FabricResult, JobSpec, Payload, ProbeState};
use fedci::proto::IO_BUF;
use parking_lot::{Condvar, Mutex};
use simkit::metrics::{MetricsRegistry, MetricsServer};
use simkit::time::SimTime;
use simkit::trace::{LabelId, TraceLevel, Tracer};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};
use taskgraph::TaskId;

/// A task's shared cell — its one allocation: the dependency list and,
/// under the mutex, first what a (re-)dispatch needs, then the result.
struct TaskCell {
    /// Tasks whose outputs prefix the input, in argument order, repeats included.
    dep_ids: Box<[usize]>,
    state: Mutex<TaskState>,
    cond: Condvar,
}

impl AsRef<[usize]> for TaskCell {
    fn as_ref(&self) -> &[usize] {
        &self.dep_ids
    }
}

enum TaskState {
    /// Unresolved: the inline argument bytes, released on resolution.
    Pending(Payload),
    Resolved(WireResult),
}

impl TaskState {
    /// An attempt's payload (`None` once resolved). The last attempt takes
    /// the bytes (one the watchdog superseded may find them gone: its result
    /// is dropped anyway); an earlier one copies an inline payload in place
    /// (no allocation), a larger one into a `Vec`, and shares one of
    /// [`IO_BUF`] or more, so a retry dispatched from a completion never
    /// copies it.
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

/// The client trace, in µs since the fabric's [`clock_epoch`](Fabric::clock_epoch),
/// the zero daemon telemetry is aligned to: the two merge onto one timeline.
struct ClientTrace {
    track: LabelId,
    submit: LabelId,
    attempt: LabelId,
    dispatch: LabelId,
    result: LabelId,
    retry: LabelId,
    timeout: LabelId,
    resolve: LabelId,
    tracer: Mutex<Tracer>,
}

impl ClientTrace {
    fn new(level: TraceLevel) -> ClientTrace {
        // Holds a million-task run at ~6 records per task.
        let mut tracer = Tracer::new(level, 1 << 21);
        let mut intern = |name| tracer.intern(name);
        ClientTrace {
            track: intern("client"),
            submit: intern("c.submit"),
            attempt: intern("c.attempt"),
            dispatch: intern("c.dispatch"),
            result: intern("c.result"),
            retry: intern("c.retry"),
            timeout: intern("c.timeout"),
            resolve: intern("c.resolve"),
            tracer: Mutex::new(tracer),
        }
    }
}

/// An attempt's span id: spans match by `(name, id)`, so retries differ.
fn attempt_span_id(task: usize, attempt: u32) -> u64 {
    ((task as u64) << 32) | u64::from(attempt)
}

/// What the runtime handle and every completion closure share.
struct Inner {
    fabric: Arc<dyn Fabric>,
    coord: Mutex<Coord<TaskCell>>,
    done_cond: Condvar,
    trace: Option<ClientTrace>,
    /// The fabric's clock epoch: the machine's zero.
    epoch: Instant,
    /// The back-off timer, started by the first retry that has to wait.
    timer: OnceLock<mpsc::Sender<Arc<Inner>>>,
}

/// An attempt the machine placed, with its task's cell, for [`Inner::send`]
/// to carry out after the lock.
fn with_cell(coord: &Coord<TaskCell>, d: Dispatch) -> (Dispatch, Arc<TaskCell>) {
    let cell = coord.cell(d.task.0).expect("a placed task exists");
    (d, Arc::clone(cell))
}

/// The back-off timer. A retry that starts waiting sends it the runtime,
/// held while the machine has a deadline — a waiting retry keeps the
/// runtime alive, so futures outliving [`FabricRuntime`] still resolve —
/// and let go of after: an idle timer holds nothing.
fn run_timer(rx: mpsc::Receiver<Arc<Inner>>) {
    let mut held = None;
    while let Some(rt) = held.take().or_else(|| rx.recv().ok()) {
        let mut coord = rt.coord.lock();
        let next = coord.tick(&*rt).map(|d| with_cell(&coord, d));
        drop(coord);
        if let Some((next, cell)) = next {
            rt.send(next, &cell);
        } else {
            let due = rt.coord.lock().next_deadline();
            let Some(due) = due else { continue };
            // A newer retry or the timeout (`rt` holds the sender) wakes it.
            let _ = rx.recv_timeout(Duration::from_micros(due.saturating_sub(rt.now_us())));
        }
        held = Some(rt);
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
        let inner = Arc::new(Inner {
            coord: Mutex::new(Coord::new(fabric.n_endpoints())),
            epoch: fabric.clock_epoch(),
            fabric,
            done_cond: Condvar::new(),
            trace: None,
            timer: OnceLock::new(),
        });
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
            inner.trace = Some(ClientTrace::new(level));
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
        let inner = Arc::get_mut(&mut self.inner).expect(CONFIGURE_FIRST);
        inner.coord.lock().retry = policy;
        self
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
        // At most `INLINE_PAYLOAD` bytes travel in place: every attempt
        // copies them without an allocation, and the caller's `Vec` is
        // freed on this thread, not by whichever thread drops the job.
        let payload = Payload::inline(&payload).unwrap_or(Payload::Owned(payload));
        let cell = Arc::new(TaskCell {
            dep_ids: deps.iter().map(|d| d.id).collect(),
            state: Mutex::new(TaskState::Pending(payload)),
            cond: Condvar::new(),
        });
        // One lock acquisition registers the task and places a ready one.
        let mut coord = inner.coord.lock();
        // Before anything is linked: a foreign future's id would alias.
        for d in deps {
            let own = coord.cell(d.id).is_some_and(|c| Arc::ptr_eq(c, &d.cell));
            assert!(own, "dependency {} belongs to another runtime", d.id);
        }
        let (id, ready) = coord.submit(Arc::clone(&cell), function);
        let first = ready.then(|| coord.dispatch(id, 1, &**inner));
        inner.record(|t, at, l| t.instant(at, l.submit, l.track, id as u64, deps.len() as i64));
        drop(coord);
        if let Some(first) = first {
            inner.send(first, &cell);
        }
        WireFuture { id, cell }
    }

    /// Blocks until every submitted task has resolved.
    ///
    /// With a task timeout set this is also the straggler watchdog *and*
    /// the probe-to-health bridge: every tick it fails over attempts past
    /// their budget and folds each endpoint's [`ProbeState`] into the
    /// [`HealthMonitor`](crate::monitor::HealthMonitor) (Dead ⇒ Down, Alive
    /// again ⇒ Recovering), which is how heartbeat-detected crashes steer
    /// placement.
    pub fn wait_all(&self) {
        let inner = &self.inner;
        let mut coord = inner.coord.lock();
        let Some(timeout) = coord.retry.task_timeout else {
            while coord.outstanding > 0 {
                inner.done_cond.wait(&mut coord);
            }
            return;
        };
        let tick = (timeout / 4).max(Duration::from_millis(5));
        loop {
            for ep in 0..inner.fabric.n_endpoints() {
                coord.on_probe(ep, inner.fabric.probe(ep));
            }
            if coord.outstanding > 0 {
                inner.done_cond.wait_for(&mut coord, tick);
            }
            if coord.outstanding == 0 {
                return;
            }
            let overdue = coord.overdue(&**inner);
            drop(coord);
            for (id, a) in overdue {
                inner.record(|t, at, l| t.instant(at, l.timeout, l.track, id as u64, a.into()));
                let msg = format!("attempt {a} timed out after {timeout:?}");
                inner.complete(id, a, Err(msg), true);
            }
            coord = inner.coord.lock();
        }
    }
}

impl View for Inner {
    fn probe(&self, ep: usize) -> ProbeState {
        self.fabric.probe(ep)
    }

    fn free_workers(&self, ep: usize) -> i64 {
        self.fabric.n_workers(ep) as i64 - self.fabric.busy_workers(ep) as i64
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

impl Inner {
    /// Runs `record` on the client trace, if there is one, at the time now.
    fn record(&self, record: impl FnOnce(&mut Tracer, SimTime, &ClientTrace)) {
        if let Some(tr) = &self.trace {
            let at = SimTime::from_micros(self.now_us());
            record(&mut tr.tracer.lock(), at, tr);
        }
    }

    /// Stages a placed attempt's inputs and submits it, outside the lock.
    fn send(self: &Arc<Self>, d: Dispatch, cell: &TaskCell) {
        let ((id, attempt), ep) = (d.task, d.ep);
        self.record(|t, at, l| {
            t.begin(at, l.attempt, l.track, attempt_span_id(id, attempt));
            t.instant(at, l.dispatch, l.track, id as u64, ep as i64);
        });
        let stage = match d.stage {
            Ok(stage) => stage,
            // Never left: neither retried nor held against the endpoint.
            Err(msg) => return self.complete(id, attempt, Err(msg), false),
        };
        for (key, bytes) in &stage {
            if let Some(bytes) = bytes {
                self.fabric.stage(ep, *key, bytes);
            }
        }
        let Some(payload) = cell.state.lock().payload_for(d.last) else {
            return;
        };
        let job = JobSpec {
            task: id as u64,
            attempt,
            function: d.function,
            deps: stage.iter().map(|&(key, _)| key).collect(),
            payload,
            keep_output: d.keep_output,
        };
        let this = Arc::clone(self);
        let done = move |r: FabricResult| this.complete(id, attempt, r.map(Arc::new), true);
        self.fabric.submit(ep, job, Box::new(done));
    }

    /// Hands an attempt's outcome to the machine and carries out its answer:
    /// a resolution under the lock, fabric calls after it.
    fn complete(self: &Arc<Self>, id: usize, attempt: u32, result: WireResult, ran: bool) {
        let ok = result.is_ok();
        let mut coord = self.coord.lock();
        let Some(step) = coord.on_result((id, attempt), result, ran, &**self) else {
            return;
        };
        // Recorded before the future resolves, for whoever it wakes to find.
        self.record(|t, at, l| {
            t.end(at, l.attempt, l.track, attempt_span_id(id, attempt));
            t.instant(at, l.result, l.track, id as u64, i64::from(ok));
            let (label, arg) = match step {
                Step::Retry(_) => (l.retry, attempt + 1),
                Step::Resolved(..) => (l.resolve, u32::from(!ok)),
            };
            t.instant(at, label, l.track, id as u64, i64::from(arg));
        });
        let ready = match step {
            // Not on this (fabric) thread: a retry that waits does so on the timer.
            Step::Retry(next) => {
                let next = next.map(|d| with_cell(&coord, d));
                drop(coord);
                return next.map_or_else(|| self.wake_timer(), |(d, cell)| self.send(d, &cell));
            }
            Step::Resolved(result, ready) => {
                let cell = coord.cell(id).expect("a resolved task exists");
                *cell.state.lock() = TaskState::Resolved(result);
                cell.cond.notify_all();
                if coord.outstanding == 0 {
                    self.done_cond.notify_all();
                }
                ready
            }
        };
        drop(coord);
        for dep in ready {
            let mut coord = self.coord.lock();
            let next = coord.dispatch(dep, 1, &**self);
            let (next, cell) = with_cell(&coord, next);
            drop(coord);
            self.send(next, &cell);
        }
    }

    /// Hands the runtime to the back-off timer, starting it on first use.
    fn wake_timer(self: &Arc<Self>) {
        let timer = self.timer.get_or_init(|| {
            let (tx, rx) = mpsc::channel();
            let thread = std::thread::Builder::new().name("unifaas-backoff".into());
            let spawned = thread.spawn(move || run_timer(rx));
            spawned.expect("failed to spawn the back-off timer");
            tx
        });
        let held = Arc::clone(self);
        timer.send(held).expect("the timer outlives its sender");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::HealthState;
    use fedci::endpoint::EndpointId;
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
    /// reads every endpoint Alive, and completes an attempt when the test
    /// fires it — in any order, so a test picks the interleaving. With
    /// `inline` set the completion fires inside `submit` instead (what
    /// `ProcessFabric::submit` does when a supervisor is gone).
    struct ScriptedFabric {
        labels: Vec<String>,
        calls: Mutex<Vec<Call>>,
        held: Mutex<Vec<(u64, u32, Completion)>>,
        submitted: Condvar,
        inline: AtomicBool,
    }

    impl ScriptedFabric {
        fn new(n_endpoints: usize) -> Arc<ScriptedFabric> {
            Arc::new(ScriptedFabric {
                labels: (0..n_endpoints).map(|ep| format!("ep{ep}")).collect(),
                calls: Mutex::new(Vec::new()),
                held: Mutex::new(Vec::new()),
                submitted: Condvar::new(),
                inline: AtomicBool::new(false),
            })
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

        fn probe(&self, _ep: usize) -> ProbeState {
            ProbeState::Alive
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
    fn only_a_large_payload_is_shared_between_attempts() {
        let fabric = ScriptedFabric::new(1);
        let policy = LiveRetryPolicy {
            max_attempts: 3,
            ..LiveRetryPolicy::default()
        };
        let rt = scripted_runtime(&fabric, policy);
        let small = rt.submit("echo", b"8 bytes!".to_vec(), &[]);
        fabric.fire(0, 1, Err("lost".into()));
        fabric.fire(0, 2, Err("lost".into()));
        fabric.fire(0, 3, ok(b"done"));
        let large = rt.submit("echo", vec![7; IO_BUF], &[]);
        fabric.fire(1, 1, Err("lost".into()));
        fabric.fire(1, 2, Err("lost".into()));
        fabric.fire(1, 3, ok(b"done"));
        rt.submit("echo", vec![7; IO_BUF - 1], &[]);
        fabric.fire(2, 1, ok(b"done"));
        rt.wait_all();
        assert_eq!(small.wait().unwrap().as_ref(), b"done");
        assert_eq!(large.wait().unwrap().as_ref(), b"done");
        let calls = fabric.calls.lock();
        let payloads: Vec<&Payload> = calls
            .iter()
            .map(|c| match c {
                Call::Submit { job, .. } => &job.payload,
                Call::Stage { .. } => unreachable!("no task has a dependency"),
            })
            .collect();
        // The small task: stored in place at submit, so every attempt,
        // the last one too, carries an in-place copy.
        assert!(
            matches!(
                payloads[..3],
                [
                    Payload::Inline(8, _),
                    Payload::Inline(8, _),
                    Payload::Inline(8, _)
                ]
            ),
            "{payloads:?}"
        );
        assert!(payloads[..3].iter().all(|p| &p[..] == b"8 bytes!"));
        // The large task: one allocation, shared by all three attempts.
        // The one in between: copied for its first attempt.
        let [Payload::Shared(a), Payload::Shared(b), Payload::Shared(c), Payload::Owned(mid)] =
            payloads[3..]
        else {
            panic!("{payloads:?}");
        };
        assert!(Arc::ptr_eq(a, b) && Arc::ptr_eq(b, c));
        assert_eq!(mid.len(), IO_BUF - 1);
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
        // A repeated future is read once per argument.
        let w = rt.submit("echo", b"EF".to_vec(), &[&x, &y, &x]);
        assert_eq!(w.wait().unwrap().as_ref(), b"ABCDABEF");
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
        assert_eq!(
            rt.inner.coord.lock().health.state(EndpointId(1)),
            HealthState::Down
        );
        assert_ne!(
            rt.inner.coord.lock().health.state(EndpointId(0)),
            HealthState::Down
        );
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
        assert_eq!(
            rt.inner.coord.lock().health.state(EndpointId(0)),
            HealthState::Down
        );
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
