//! The live runtime: the UniFaaS programming model over real threads.
//!
//! This is the analogue of the paper's Python `@function` interface
//! (Listing 1): register functions, invoke them to get futures, pass
//! futures as arguments to compose a dynamic task graph, and let the
//! runtime place tasks on endpoints — here, per-endpoint worker thread
//! pools from `fedci::threaded`.
//!
//! Placement is locality- and load-aware: a ready task goes to the
//! endpoint with the most free workers, biased toward where its
//! (byte-weighted) inputs were produced; an optional simulated WAN
//! bandwidth converts remote input bytes into real dispatch delay, so the
//! examples can observe data-gravity effects.
//!
//! Dependencies are tracked client-side and a task is only submitted to a
//! pool once every input future resolved — a chain of tasks can never
//! deadlock a single worker.
//!
//! Fault tolerance mirrors the simulated runtime (§IV-G): a
//! [`LiveRetryPolicy`] bounds attempts per task, a watchdog inside
//! [`LiveRuntime::wait_all`] re-dispatches attempts that exceed the task
//! timeout (recovering jobs swallowed by a crashed worker), and a
//! [`HealthMonitor`] fed by pool liveness probes and attempt outcomes
//! steers placement away from Down pools. Execution is at-least-once
//! under retries; future resolution is exactly-once (stale attempts are
//! dropped by an attempt-generation guard).

use crate::error::UniFaasError;
use crate::monitor::{HealthMonitor, HealthState};
pub use crate::runtime::fabric::LiveRetryPolicy;
use crate::trace::TraceConfig;
use fedci::endpoint::EndpointId;
use fedci::threaded::ThreadedEndpoint;
use fedci::trace::FedciTraceLabels;
use parking_lot::{Condvar, Mutex};
use simkit::trace::{LabelId, Tracer};
use simkit::SimTime;
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use taskgraph::TaskId;

/// A dynamically typed value passed between functions.
pub type Value = Arc<dyn Any + Send + Sync>;

/// Wraps a concrete value as a [`Value`].
pub fn value<T: Any + Send + Sync>(x: T) -> Value {
    Arc::new(x)
}

/// Downcasts a [`Value`] to a concrete type.
pub fn downcast<T: Any + Send + Sync>(v: &Value) -> Option<&T> {
    v.downcast_ref::<T>()
}

/// A registered function: takes resolved input values, returns a value or
/// an application error.
pub type AppFn = Arc<dyn Fn(&[Value]) -> Result<Value, String> + Send + Sync>;

struct FutureState {
    cell: Mutex<Option<Result<Value, String>>>,
    cond: Condvar,
}

/// A handle to the eventual result of a task (the paper's `Future`).
#[derive(Clone)]
pub struct AppFuture {
    id: usize,
    state: Arc<FutureState>,
}

impl AppFuture {
    /// The task id backing this future.
    pub fn task_id(&self) -> TaskId {
        TaskId(self.id as u32)
    }

    /// Blocks until the task completes, returning its value.
    pub fn wait(&self) -> Result<Value, UniFaasError> {
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

    fn resolve(&self, result: Result<Value, String>) {
        let mut cell = self.state.cell.lock();
        debug_assert!(cell.is_none(), "future resolved twice");
        *cell = Some(result);
        self.state.cond.notify_all();
    }
}

#[derive(Clone)]
struct PendingTask {
    function: String,
    args: Vec<Value>,
    dep_ids: Vec<usize>,
    remaining: usize,
    output_bytes: u64,
}

/// Wall-clock tracing state for the live runtime: the same event
/// vocabulary as the simulated runtime, stamped with elapsed real time
/// mapped onto [`SimTime`]. Shared behind a mutex because worker threads
/// complete tasks concurrently.
struct LiveTrace {
    tracer: Tracer,
    t0: std::time::Instant,
    labels: FedciTraceLabels,
    client_track: LabelId,
    /// Span: submitted but dependencies/placement still pending.
    pending: LabelId,
}

impl LiveTrace {
    fn new(cfg: &TraceConfig, endpoint_labels: &[String]) -> LiveTrace {
        let mut tracer = Tracer::new(cfg.level, cfg.ring_capacity);
        let labels = FedciTraceLabels::new(&mut tracer, endpoint_labels);
        LiveTrace {
            client_track: tracer.intern("client"),
            pending: tracer.intern("pending"),
            labels,
            tracer,
            t0: std::time::Instant::now(),
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_secs_f64(self.t0.elapsed().as_secs_f64())
    }
}

type SharedTrace = Option<Arc<Mutex<LiveTrace>>>;

/// Opens the pending span for a freshly submitted task.
fn trace_submit(trace: &SharedTrace, id: usize) {
    if let Some(t) = trace {
        let mut tr = t.lock();
        let (at, name, track) = (tr.now(), tr.pending, tr.client_track);
        tr.tracer.begin(at, name, track, id as u64);
    }
}

/// Moves a task's span from pending to executing on its endpoint's track.
/// Only the first attempt closes the pending span; retries just open a
/// fresh executing span.
fn trace_exec_begin(trace: &SharedTrace, id: usize, ep: usize, first: bool) {
    if let Some(t) = trace {
        let mut tr = t.lock();
        let at = tr.now();
        if first {
            let (pending, client) = (tr.pending, tr.client_track);
            tr.tracer.end(at, pending, client, id as u64);
        }
        let (exec, track) = (tr.labels.executing, tr.labels.tracks[ep]);
        tr.tracer.begin(at, exec, track, id as u64);
    }
}

/// Closes a task's executing span, adding a fault instant on failure.
fn trace_done(trace: &SharedTrace, id: usize, ep: usize, failed: bool) {
    if let Some(t) = trace {
        let mut tr = t.lock();
        let at = tr.now();
        let (exec, track) = (tr.labels.executing, tr.labels.tracks[ep]);
        tr.tracer.end(at, exec, track, id as u64);
        if failed {
            let (fault, track) = (tr.labels.fault_task, tr.labels.tracks[ep]);
            tr.tracer.instant(at, fault, track, id as u64, ep as i64);
        }
    }
}

/// Records a retry instant for a failed attempt on `ep`'s track.
fn trace_retry(trace: &SharedTrace, id: usize, ep: usize, attempt: u32) {
    if let Some(t) = trace {
        let mut tr = t.lock();
        let at = tr.now();
        let (retry, track) = (tr.labels.retry, tr.labels.tracks[ep]);
        tr.tracer
            .instant(at, retry, track, id as u64, attempt as i64);
    }
}

/// Records a health-state transition instant for `ep`.
fn trace_health(trace: &SharedTrace, ep: usize, state: HealthState) {
    if let Some(t) = trace {
        let mut tr = t.lock();
        let at = tr.now();
        let (health, track) = (tr.labels.health, tr.labels.tracks[ep]);
        tr.tracer
            .instant(at, health, track, ep as u64, state.code() as i64);
    }
}

struct Coord {
    pending: HashMap<usize, PendingTask>,
    dependents: HashMap<usize, Vec<usize>>,
    /// Where each resolved future's output lives, and its size.
    produced_at: HashMap<usize, (usize, u64)>,
    next_id: usize,
    futures: HashMap<usize, AppFuture>,
    outstanding: usize,
    /// Next attempt number per task (absent = first attempt).
    attempts: HashMap<usize, u32>,
    /// In-flight attempts: task id → (start, attempt, endpoint). The
    /// attempt number is the generation guard: a completion whose attempt
    /// no longer matches is stale (superseded by a watchdog re-dispatch)
    /// and is dropped, so futures resolve exactly once.
    inflight: HashMap<usize, (std::time::Instant, u32, usize)>,
    /// Tasks kept re-dispatchable while retries are still possible.
    retriable: HashMap<usize, PendingTask>,
}

/// The live, multi-threaded UniFaaS runtime.
pub struct LiveRuntime {
    endpoints: Vec<Arc<ThreadedEndpoint>>,
    labels: Vec<String>,
    functions: Mutex<HashMap<String, AppFn>>,
    coord: Arc<Mutex<Coord>>,
    done_cond: Arc<Condvar>,
    /// Simulated WAN bandwidth in bytes/second: moving inputs produced on
    /// another endpoint costs real wall time. `None` disables it.
    transfer_bandwidth_bps: Option<f64>,
    trace: SharedTrace,
    retry: LiveRetryPolicy,
    health: Arc<Mutex<HealthMonitor>>,
}

impl LiveRuntime {
    /// Creates a runtime with one worker pool per `(label, workers)` pair.
    pub fn new(endpoints: &[(&str, usize)]) -> Self {
        Self::with_pool_poll_timeout(endpoints, fedci::threaded::DEFAULT_POLL_TIMEOUT)
    }

    /// Like [`LiveRuntime::new`], with an explicit worker-pool poll/
    /// shutdown timeout (how long an idle worker blocks on its queue
    /// before re-checking for shutdown; see
    /// [`ThreadedEndpoint::with_poll_timeout`]).
    pub fn with_pool_poll_timeout(endpoints: &[(&str, usize)], poll: Duration) -> Self {
        assert!(!endpoints.is_empty(), "need at least one endpoint");
        let pools: Vec<Arc<ThreadedEndpoint>> = endpoints
            .iter()
            .map(|(l, w)| Arc::new(ThreadedEndpoint::with_poll_timeout(l, *w, poll)))
            .collect();
        let n = pools.len();
        LiveRuntime {
            endpoints: pools,
            labels: endpoints.iter().map(|(l, _)| l.to_string()).collect(),
            functions: Mutex::new(HashMap::new()),
            coord: Arc::new(Mutex::new(Coord {
                pending: HashMap::new(),
                dependents: HashMap::new(),
                produced_at: HashMap::new(),
                next_id: 0,
                futures: HashMap::new(),
                outstanding: 0,
                attempts: HashMap::new(),
                inflight: HashMap::new(),
                retriable: HashMap::new(),
            })),
            done_cond: Arc::new(Condvar::new()),
            transfer_bandwidth_bps: None,
            trace: None,
            retry: LiveRetryPolicy::default(),
            health: Arc::new(Mutex::new(HealthMonitor::new(n))),
        }
    }

    /// Sets the retry/timeout policy (builder style). The default policy
    /// — one attempt, no timeout — leaves behavior identical to a
    /// runtime without fault tolerance.
    pub fn with_retry(mut self, policy: LiveRetryPolicy) -> Self {
        assert!(policy.max_attempts >= 1, "need at least one attempt");
        self.retry = policy;
        self
    }

    /// The underlying worker pool for endpoint `i` (fault-injection and
    /// introspection hooks live on the pool).
    pub fn pool(&self, i: usize) -> &ThreadedEndpoint {
        &self.endpoints[i]
    }

    /// Current health state of endpoint `i`.
    pub fn endpoint_health(&self, i: usize) -> HealthState {
        self.health.lock().state(EndpointId(i as u16))
    }

    /// Enables the simulated WAN: remote input bytes are converted into a
    /// real sleep at this bandwidth before the function runs.
    pub fn with_transfer_bandwidth(mut self, bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0);
        self.transfer_bandwidth_bps = Some(bytes_per_sec);
        self
    }

    /// Enables wall-clock tracing: pending/executing spans per task on
    /// per-endpoint tracks and fault instants, with timestamps measured
    /// from this call. Snapshot the result with
    /// [`LiveRuntime::trace_snapshot`].
    pub fn with_trace(mut self, cfg: TraceConfig) -> Self {
        if cfg.level != simkit::trace::TraceLevel::Off {
            self.trace = Some(Arc::new(Mutex::new(LiveTrace::new(&cfg, &self.labels))));
        }
        self
    }

    /// A snapshot of the trace ring so far (`None` when tracing is off).
    /// Typically called after [`LiveRuntime::wait_all`] and exported with
    /// [`Tracer::export_perfetto`] / [`Tracer::export_jsonl`].
    pub fn trace_snapshot(&self) -> Option<Tracer> {
        self.trace.as_ref().map(|t| t.lock().tracer.clone())
    }

    /// Starts a Prometheus scrape server at `addr` (e.g. `127.0.0.1:9100`;
    /// port 0 picks an ephemeral port, readable from
    /// [`MetricsServer::local_addr`](simkit::MetricsServer::local_addr)).
    ///
    /// `GET /metrics` renders per-pool worker/liveness gauges and
    /// completed/crashed job counters plus a client-side outstanding-tasks
    /// gauge, all sampled from live state at scrape time. The server stops
    /// when the returned handle is dropped; the runtime keeps running
    /// either way.
    pub fn serve_metrics(&self, addr: &str) -> std::io::Result<simkit::MetricsServer> {
        let mut reg = simkit::MetricsRegistry::new();
        let ids: Vec<fedci::threaded::PoolMetricIds> = self
            .endpoints
            .iter()
            .map(|ep| ep.register_metrics(&mut reg))
            .collect();
        let outstanding = reg.gauge(
            "unifaas_outstanding_tasks",
            "Submitted tasks whose futures have not resolved.",
            &[],
        );
        let pools = self.endpoints.clone();
        let coord = Arc::clone(&self.coord);
        // The refresh hook is `Fn`, so the per-pool counter high-water
        // marks live behind their own lock.
        let ids = std::sync::Mutex::new(ids);
        let refresh: simkit::metrics::RefreshFn = Box::new(move |reg| {
            let mut ids = ids.lock().expect("refresh hook never panics");
            for (ep, id) in pools.iter().zip(ids.iter_mut()) {
                ep.sample_metrics(reg, id);
            }
            reg.set(outstanding, coord.lock().outstanding as f64);
        });
        simkit::MetricsServer::start(addr, Arc::new(std::sync::Mutex::new(reg)), Some(refresh))
    }

    /// Endpoint labels.
    pub fn endpoint_labels(&self) -> &[String] {
        &self.labels
    }

    /// Registers a function under `name` (the `@function` decorator).
    pub fn register<F>(&self, name: &str, f: F)
    where
        F: Fn(&[Value]) -> Result<Value, String> + Send + Sync + 'static,
    {
        self.functions.lock().insert(name.to_string(), Arc::new(f));
    }

    /// Invokes `name` with plain values and future dependencies; the
    /// function receives `args` followed by the resolved dependency values,
    /// in order. Returns immediately with a future.
    pub fn submit(
        &self,
        name: &str,
        args: Vec<Value>,
        deps: &[&AppFuture],
    ) -> Result<AppFuture, UniFaasError> {
        self.submit_sized(name, args, deps, 0)
    }

    /// Like [`LiveRuntime::submit`], declaring the output size in bytes so
    /// the placer can weigh data gravity (the `RemoteFile` analogue).
    pub fn submit_sized(
        &self,
        name: &str,
        args: Vec<Value>,
        deps: &[&AppFuture],
        output_bytes: u64,
    ) -> Result<AppFuture, UniFaasError> {
        if !self.functions.lock().contains_key(name) {
            return Err(UniFaasError::UnknownFunction(name.to_string()));
        }
        let mut coord = self.coord.lock();
        let id = coord.next_id;
        coord.next_id += 1;
        let future = AppFuture {
            id,
            state: Arc::new(FutureState {
                cell: Mutex::new(None),
                cond: Condvar::new(),
            }),
        };
        coord.futures.insert(id, future.clone());
        coord.outstanding += 1;
        trace_submit(&self.trace, id);

        let dep_ids: Vec<usize> = deps.iter().map(|d| d.id).collect();
        let unresolved: Vec<usize> = dep_ids
            .iter()
            .copied()
            .filter(|d| !coord.produced_at.contains_key(d))
            .collect();
        let task = PendingTask {
            function: name.to_string(),
            args,
            dep_ids,
            remaining: unresolved.len(),
            output_bytes,
        };
        if task.remaining == 0 {
            drop(coord);
            self.handle().dispatch(id, task);
        } else {
            for d in &unresolved {
                coord.dependents.entry(*d).or_default().push(id);
            }
            coord.pending.insert(id, task);
        }
        Ok(future)
    }

    /// Blocks until every submitted task has completed.
    ///
    /// When the retry policy sets a task timeout, this doubles as the
    /// straggler watchdog: it wakes every quarter-timeout, scans in-flight
    /// attempts, and fails-over any that exceeded the budget (covering
    /// attempts swallowed by a crashed worker, which would otherwise never
    /// complete).
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
            let overdue: Vec<(usize, usize, u32, u64)> = {
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
                    .map(|(&id, &(_, attempt, ep))| {
                        let bytes = coord.retriable.get(&id).map_or(0, |t| t.output_bytes);
                        (id, ep, attempt, bytes)
                    })
                    .collect()
            };
            let handle = self.handle();
            for (id, ep, attempt, bytes) in overdue {
                handle.complete(
                    id,
                    ep,
                    attempt,
                    Err(format!("attempt {attempt} timed out after {timeout:?}")),
                    bytes,
                    true,
                );
            }
        }
    }

    fn handle(&self) -> RuntimeHandle {
        RuntimeHandle {
            endpoints: self.endpoints.clone(),
            functions_snapshot: Arc::new(self.functions.lock().clone()),
            coord: Arc::clone(&self.coord),
            done_cond: Arc::clone(&self.done_cond),
            transfer_bandwidth_bps: self.transfer_bandwidth_bps,
            trace: self.trace.clone(),
            retry: self.retry,
            health: Arc::clone(&self.health),
        }
    }
}

/// A cheap clonable view used by worker closures to report completion and
/// dispatch dependents.
#[derive(Clone)]
struct RuntimeHandle {
    endpoints: Vec<Arc<ThreadedEndpoint>>,
    functions_snapshot: Arc<HashMap<String, AppFn>>,
    coord: Arc<Mutex<Coord>>,
    done_cond: Arc<Condvar>,
    transfer_bandwidth_bps: Option<f64>,
    trace: SharedTrace,
    retry: LiveRetryPolicy,
    health: Arc<Mutex<HealthMonitor>>,
}

/// What `complete` decided under the coordinator lock; acted on outside it
/// so dispatch/trace/health never run with the lock held.
enum Next {
    Retry(PendingTask),
    Finalize {
        failed: bool,
        ran: bool,
        ready: Vec<(usize, PendingTask)>,
    },
}

impl RuntimeHandle {
    /// Reports the outcome of attempt `attempt` of task `id` on `ep`.
    ///
    /// `can_retry` is false for deterministic failures (upstream errors)
    /// that never touched the endpoint — retrying cannot change them and
    /// they say nothing about endpoint health. Stale completions (the
    /// attempt number no longer matches the in-flight record, because the
    /// watchdog already failed this attempt over) are dropped: execution
    /// is at-least-once, resolution exactly-once.
    fn complete(
        &self,
        id: usize,
        ep: usize,
        attempt: u32,
        result: Result<Value, String>,
        bytes: u64,
        can_retry: bool,
    ) {
        let next = {
            let mut coord = self.coord.lock();
            match coord.inflight.get(&id) {
                Some(&(_, a, _)) if a == attempt => {}
                _ => return, // stale or already finalized
            }
            coord.inflight.remove(&id);
            if result.is_err() && can_retry && attempt < self.retry.max_attempts {
                coord.attempts.insert(id, attempt + 1);
                let task = coord
                    .retriable
                    .get(&id)
                    .expect("retriable recorded")
                    .clone();
                Next::Retry(task)
            } else {
                coord.retriable.remove(&id);
                coord.attempts.remove(&id);
                let failed = result.is_err();
                coord.produced_at.insert(id, (ep, bytes));
                let fut = coord.futures.get(&id).expect("future exists").clone();
                fut.resolve(result);
                coord.outstanding -= 1;
                if coord.outstanding == 0 {
                    self.done_cond.notify_all();
                }
                let mut ready = Vec::new();
                if let Some(deps) = coord.dependents.remove(&id) {
                    for dep in deps {
                        if let Some(t) = coord.pending.get_mut(&dep) {
                            t.remaining -= 1;
                            if t.remaining == 0 {
                                let t = coord.pending.remove(&dep).expect("present");
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
            Next::Retry(task) => {
                trace_done(&self.trace, id, ep, true);
                trace_retry(&self.trace, id, ep, attempt);
                self.record_health(ep, false);
                self.dispatch(id, task);
            }
            Next::Finalize { failed, ran, ready } => {
                trace_done(&self.trace, id, ep, failed);
                if ran {
                    self.record_health(ep, !failed);
                }
                for (rid, task) in ready {
                    self.dispatch(rid, task);
                }
            }
        }
    }

    /// Feeds an attempt outcome into the health monitor, tracing any
    /// state transition it causes.
    fn record_health(&self, ep: usize, success: bool) {
        let transition = self.health.lock().record(EndpointId(ep as u16), success);
        if let Some(state) = transition {
            trace_health(&self.trace, ep, state);
        }
    }

    /// Picks an endpoint: skip pools that fail the liveness probe or are
    /// marked Down, then maximize free workers, breaking ties toward the
    /// endpoint holding the most input bytes. When every pool is down,
    /// falls back to endpoint 0 — the attempt will fail or time out and
    /// the watchdog keeps retrying until a pool recovers.
    fn place(&self, coord: &Coord, task: &PendingTask) -> usize {
        let health = self.health.lock();
        let mut best: Option<usize> = None;
        let mut best_key = (i64::MIN, i64::MIN);
        for (i, ep) in self.endpoints.iter().enumerate() {
            if !ep.responsive() || !health.is_schedulable(EndpointId(i as u16)) {
                continue;
            }
            let free = ep.n_workers() as i64 - ep.busy_workers() as i64;
            let local_bytes: i64 = task
                .dep_ids
                .iter()
                .filter_map(|d| coord.produced_at.get(d))
                .filter(|(at, _)| *at == i)
                .map(|(_, b)| *b as i64)
                .sum();
            let key = if free <= 0 {
                (free, local_bytes)
            } else {
                (1, local_bytes)
            };
            if best.is_none() || key > best_key {
                best_key = key;
                best = Some(i);
            }
        }
        best.unwrap_or(0)
    }

    fn dispatch(&self, id: usize, task: PendingTask) {
        let (ep_idx, attempt, remote_bytes, dep_values_or_err) = {
            let mut coord = self.coord.lock();
            let ep_idx = self.place(&coord, &task);
            let attempt = coord.attempts.get(&id).copied().unwrap_or(1);
            coord
                .inflight
                .insert(id, (std::time::Instant::now(), attempt, ep_idx));
            if self.retry.enabled() {
                coord.retriable.insert(id, task.clone());
            }
            let remote_bytes: u64 = task
                .dep_ids
                .iter()
                .filter_map(|d| coord.produced_at.get(d))
                .filter(|(at, _)| *at != ep_idx)
                .map(|(_, b)| *b)
                .sum();
            // Collect resolved dependency values (or an upstream error).
            let mut vals = Vec::with_capacity(task.dep_ids.len());
            let mut upstream_err = None;
            for d in &task.dep_ids {
                let fut = coord.futures.get(d).expect("dep future exists");
                match fut.state.cell.lock().as_ref().expect("dep resolved") {
                    Ok(v) => vals.push(Arc::clone(v)),
                    Err(e) => {
                        upstream_err = Some(format!("upstream task {d} failed: {e}"));
                        break;
                    }
                }
            }
            (
                ep_idx,
                attempt,
                remote_bytes,
                upstream_err.map_or(Ok(vals), Err),
            )
        };
        trace_exec_begin(&self.trace, id, ep_idx, attempt == 1);

        match dep_values_or_err {
            Err(msg) => self.complete(id, ep_idx, attempt, Err(msg), task.output_bytes, false),
            Ok(dep_values) => {
                let f = Arc::clone(
                    self.functions_snapshot
                        .get(&task.function)
                        .expect("checked at submit"),
                );
                let mut inputs = task.args;
                inputs.extend(dep_values);
                let transfer_sleep = self
                    .transfer_bandwidth_bps
                    .filter(|_| remote_bytes > 0)
                    .map(|bw| std::time::Duration::from_secs_f64(remote_bytes as f64 / bw));
                let backoff = self.retry.backoff_for(attempt);
                let this = self.clone();
                let output_bytes = task.output_bytes;
                self.endpoints[ep_idx].submit_then(move || {
                    if let Some(d) = backoff {
                        std::thread::sleep(d); // retry backoff
                    }
                    if let Some(d) = transfer_sleep {
                        std::thread::sleep(d); // simulated WAN staging
                    }
                    let result = f(&inputs);
                    // Complete after the worker frees, so dependents see it
                    // as placeable capacity.
                    Some(Box::new(move || {
                        this.complete(id, ep_idx, attempt, result, output_bytes, true);
                    }) as Box<dyn FnOnce() + Send>)
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add_fn(rt: &LiveRuntime) {
        rt.register("add", |args| {
            let mut sum = 0i64;
            for v in args {
                sum += *downcast::<i64>(v).ok_or_else(|| "not an i64".to_string())?;
            }
            Ok(value(sum))
        });
    }

    #[test]
    fn single_task_roundtrip() {
        let rt = LiveRuntime::new(&[("local", 2)]);
        add_fn(&rt);
        let f = rt
            .submit("add", vec![value(2i64), value(3i64)], &[])
            .unwrap();
        let v = f.wait().unwrap();
        assert_eq!(*downcast::<i64>(&v).unwrap(), 5);
    }

    #[test]
    fn future_passing_builds_chains() {
        let rt = LiveRuntime::new(&[("a", 1), ("b", 1)]);
        add_fn(&rt);
        let f1 = rt
            .submit("add", vec![value(1i64), value(1i64)], &[])
            .unwrap();
        let f2 = rt.submit("add", vec![value(10i64)], &[&f1]).unwrap();
        let f3 = rt.submit("add", vec![value(100i64)], &[&f2]).unwrap();
        assert_eq!(*downcast::<i64>(&f3.wait().unwrap()).unwrap(), 112);
    }

    #[test]
    fn chain_on_single_worker_does_not_deadlock() {
        let rt = LiveRuntime::new(&[("solo", 1)]);
        add_fn(&rt);
        let mut prev = rt.submit("add", vec![value(0i64)], &[]).unwrap();
        for _ in 0..20 {
            prev = rt.submit("add", vec![value(1i64)], &[&prev]).unwrap();
        }
        assert_eq!(*downcast::<i64>(&prev.wait().unwrap()).unwrap(), 20);
    }

    #[test]
    fn fan_in_waits_for_all_dependencies() {
        let rt = LiveRuntime::new(&[("a", 4)]);
        add_fn(&rt);
        let parts: Vec<AppFuture> = (0..8)
            .map(|i| rt.submit("add", vec![value(i as i64)], &[]).unwrap())
            .collect();
        let refs: Vec<&AppFuture> = parts.iter().collect();
        let total = rt.submit("add", vec![], &refs).unwrap();
        assert_eq!(*downcast::<i64>(&total.wait().unwrap()).unwrap(), 28);
    }

    #[test]
    fn unknown_function_is_an_error() {
        let rt = LiveRuntime::new(&[("a", 1)]);
        assert!(matches!(
            rt.submit("nope", vec![], &[]),
            Err(UniFaasError::UnknownFunction(_))
        ));
    }

    #[test]
    fn application_errors_propagate_to_dependents() {
        let rt = LiveRuntime::new(&[("a", 2)]);
        rt.register("boom", |_| Err("kaput".into()));
        add_fn(&rt);
        let bad = rt.submit("boom", vec![], &[]).unwrap();
        let child = rt.submit("add", vec![value(1i64)], &[&bad]).unwrap();
        let err = child.wait().unwrap_err();
        match err {
            UniFaasError::FunctionError { message, .. } => {
                assert!(message.contains("upstream"), "{message}");
            }
            other => panic!("unexpected error {other}"),
        }
        assert!(bad.wait().is_err());
    }

    #[test]
    fn wait_all_drains_everything() {
        let rt = LiveRuntime::new(&[("a", 4), ("b", 4)]);
        add_fn(&rt);
        let futures: Vec<AppFuture> = (0..50)
            .map(|i| rt.submit("add", vec![value(i as i64)], &[]).unwrap())
            .collect();
        rt.wait_all();
        for f in &futures {
            assert!(f.is_done());
        }
    }

    #[test]
    fn traced_run_produces_span_pairs() {
        let rt = LiveRuntime::new(&[("a", 2)]).with_trace(TraceConfig::default());
        add_fn(&rt);
        let f = rt
            .submit("add", vec![value(1i64), value(2i64)], &[])
            .unwrap();
        assert_eq!(*downcast::<i64>(&f.wait().unwrap()).unwrap(), 3);
        rt.wait_all();
        let tr = rt.trace_snapshot().expect("tracing enabled");
        // pending begin/end + executing begin/end.
        assert_eq!(tr.len(), 4);
        let mut buf = Vec::new();
        tr.export_perfetto(&mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("executing"));
        // Untraced runtimes have no snapshot.
        assert!(LiveRuntime::new(&[("a", 1)]).trace_snapshot().is_none());
    }

    #[test]
    fn retry_recovers_from_crashing_pool() {
        // Every 2nd job on the only pool is swallowed without running; the
        // wait_all watchdog must time the lost attempts out and retry until
        // everything completes.
        let rt = LiveRuntime::new(&[("flaky", 1)]).with_retry(LiveRetryPolicy {
            max_attempts: 6,
            task_timeout: Some(Duration::from_millis(150)),
            backoff: Duration::from_millis(1),
        });
        add_fn(&rt);
        rt.pool(0).faults().set_crash_every(2);
        let futs: Vec<AppFuture> = (0..6)
            .map(|i| rt.submit("add", vec![value(i as i64)], &[]).unwrap())
            .collect();
        rt.wait_all();
        for (i, f) in futs.iter().enumerate() {
            let v = f.wait().expect("retries recover swallowed jobs");
            assert_eq!(*downcast::<i64>(&v).unwrap(), i as i64);
        }
        assert!(
            rt.pool(0).faults().crashed_jobs() > 0,
            "fault injection actually fired"
        );
    }

    #[test]
    fn placement_avoids_unresponsive_pool() {
        let rt = LiveRuntime::new(&[("dead", 4), ("live", 1)]);
        add_fn(&rt);
        rt.pool(0).faults().set_down(true);
        let futs: Vec<AppFuture> = (0..5)
            .map(|i| rt.submit("add", vec![value(i as i64)], &[]).unwrap())
            .collect();
        rt.wait_all();
        for f in &futs {
            assert!(f.wait().is_ok());
        }
        assert_eq!(
            rt.pool(0).faults().crashed_jobs(),
            0,
            "no job was routed to the dead pool"
        );
    }

    #[test]
    fn repeated_failures_mark_endpoint_down() {
        let rt = LiveRuntime::new(&[("a", 1)]);
        rt.register("boom", |_| Err("kaput".into()));
        for _ in 0..3 {
            let f = rt.submit("boom", vec![], &[]).unwrap();
            assert!(f.wait().is_err());
        }
        rt.wait_all();
        assert_eq!(rt.endpoint_health(0), HealthState::Down);
    }

    #[test]
    fn exhausted_retries_surface_the_last_error() {
        let rt = LiveRuntime::new(&[("a", 1)]).with_retry(LiveRetryPolicy {
            max_attempts: 3,
            task_timeout: None,
            backoff: Duration::ZERO,
        });
        let tries = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let t = Arc::clone(&tries);
        rt.register("always-fails", move |_| {
            t.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Err("kaput".into())
        });
        let f = rt.submit("always-fails", vec![], &[]).unwrap();
        assert!(f.wait().is_err());
        rt.wait_all();
        assert_eq!(
            tries.load(std::sync::atomic::Ordering::SeqCst),
            3,
            "exactly max_attempts executions"
        );
    }

    #[test]
    fn retry_succeeds_after_transient_app_error() {
        let rt = LiveRuntime::new(&[("a", 2)]).with_retry(LiveRetryPolicy {
            max_attempts: 3,
            task_timeout: None,
            backoff: Duration::from_millis(1),
        });
        let tries = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let t = Arc::clone(&tries);
        rt.register("flaky", move |_| {
            if t.fetch_add(1, std::sync::atomic::Ordering::SeqCst) < 2 {
                Err("transient".into())
            } else {
                Ok(value(7i64))
            }
        });
        let f = rt.submit("flaky", vec![], &[]).unwrap();
        let v = f.wait().expect("third attempt succeeds");
        assert_eq!(*downcast::<i64>(&v).unwrap(), 7);
        rt.wait_all();
    }

    #[test]
    fn parallelism_across_endpoints() {
        let rt = LiveRuntime::new(&[("a", 2), ("b", 2)]);
        rt.register("sleepy", |_| {
            std::thread::sleep(std::time::Duration::from_millis(100));
            Ok(value(()))
        });
        let t0 = std::time::Instant::now();
        let futs: Vec<AppFuture> = (0..4)
            .map(|_| rt.submit("sleepy", vec![], &[]).unwrap())
            .collect();
        for f in futs {
            f.wait().unwrap();
        }
        let elapsed = t0.elapsed();
        // 4 × 100 ms across 4 workers ≈ 100 ms; serial would be 400 ms.
        assert!(
            elapsed < std::time::Duration::from_millis(350),
            "{elapsed:?}"
        );
    }
}
