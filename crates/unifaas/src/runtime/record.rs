//! The simulator's one record stream.
//!
//! [`SimRuntime`](super::sim::SimRuntime) reports each run fact once — a
//! delivery, a scheduler decision, a task state change, a transfer's begin
//! and end, a worker count, a health transition, a retry, a predictor drift,
//! a completed task — to the [`Recorder`] here, which hands it to every
//! consumer the run enabled:
//!
//! * the **series** and **latency sums** of [`RunReport`](crate::RunReport)
//!   (always on: the paper's figures read them);
//! * the **trace** ([`SimRuntime::with_trace`](super::sim::SimRuntime::with_trace)):
//!   lifecycle spans on per-endpoint tracks, transfer spans, substrate
//!   instants and counters, decision and transfer records;
//! * the **meter** ([`SimRuntime::with_metrics`](super::sim::SimRuntime::with_metrics)):
//!   the Prometheus registry, the predictor-accuracy monitor and the
//!   scheduler's hook wall time (the run's only clock reads);
//! * the **decision digest** (`Config::verify`) and the run journal's
//!   decision notes ([`SimRuntime::with_journal`](super::sim::SimRuntime::with_journal));
//! * the **progress** consumer ([`SimRuntime::with_flight`](super::sim::SimRuntime::with_flight)).
//!
//! Each optional consumer sits behind one `Option`, so a fact costs an
//! untraced, unmetered run one branch per consumer it could feed.

use crate::data::{XferId, XferInfo};
use crate::flight::{FlightConfig, FlightRecorder, FlightSample};
use crate::metrics::{LatencyBreakdown, RunReport, RunSeries};
use crate::monitor::HealthState;
use crate::profile::accuracy::AccuracyMonitor;
use crate::profile::Predictor;
use crate::runtime::TaskState;
use crate::sched::{Scheduler, TimedScheduler};
use crate::trace::{DecisionRecord, RunTrace, TraceConfig, TransferRecord, MAX_RECORDS};
use fedci::endpoint::{EndpointId, EndpointSim};
use simkit::journal::EventCode;
use simkit::metrics::{CounterId, GaugeId, HistogramId, MetricsRegistry};
use simkit::series::SeriesHandle;
use simkit::trace::{LabelId, TraceLevel, Tracer};
use simkit::{Engine, EngineStats, SimTime};
use std::cell::Cell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::Duration;
use taskgraph::{Dag, TaskId};

/// One kind of simulator event delivery: the run journal's `kind` field
/// indexes [`DELIVERY_KINDS`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct DeliveryKind {
    /// The doctor's name for the kind.
    pub name: &'static str,
    /// The Full-level trace instant's label.
    pub label: &'static str,
    /// True when the record's `a` field is a task id.
    pub task: bool,
}

const fn kind(name: &'static str, label: &'static str, task: bool) -> DeliveryKind {
    DeliveryKind { name, label, task }
}

/// Every delivery kind, in the order of the simulator's event encoding.
pub(crate) const DELIVERY_KINDS: [DeliveryKind; 15] = [
    kind("StagingCheck", "ev.staging_check", true),
    kind("XferDone", "ev.xfer_done", false),
    kind("TaskArrive", "ev.task_arrive", true),
    kind("ExecDone", "ev.exec_done", true),
    kind("ResultObserved", "ev.result_observed", true),
    kind("MockSync", "ev.mock_sync", false),
    kind("ScaleTick", "ev.scale_tick", false),
    kind("RescheduleTick", "ev.reschedule_tick", false),
    kind("CapacityChange", "ev.capacity_change", false),
    kind("Commission", "ev.commission", false),
    kind("Inject", "ev.inject", false),
    kind("OutageStart", "ev.outage_start", false),
    kind("OutageEnd", "ev.outage_end", false),
    kind("RetryTask", "ev.retry_task", true),
    kind("ExecTimeout", "ev.exec_timeout", true),
];

/// The trace consumer: a tracer plus its labels, interned once.
struct Trace {
    tracer: Tracer,
    /// Span: a task sitting in an endpoint's local queue.
    queued: LabelId,
    /// Span: a task occupying a worker.
    executing: LabelId,
    /// Span: a data transfer, on the destination's track.
    transfer: LabelId,
    /// Instant: a transfer attempt failed (arg = attempt number).
    fault_transfer: LabelId,
    /// Instant: a task attempt failed (arg = endpoint id).
    fault_task: LabelId,
    /// Instant: an endpoint's worker count changed (arg = workers).
    capacity: LabelId,
    /// Instant: a health transition (arg = [`HealthState::code`]).
    health: LabelId,
    /// Instant: a failed attempt is retried (arg = failures so far).
    retry: LabelId,
    /// Counter: busy workers, one per endpoint.
    busy: Vec<LabelId>,
    /// One display track per endpoint.
    tracks: Vec<LabelId>,
    /// Track for lifecycle stages before a task has a target.
    client: LabelId,
    ready: LabelId,
    staging: LabelId,
    staged: LabelId,
    dispatched: LabelId,
    polled: LabelId,
    /// Instant: the accuracy monitor flagged drift (arg = signed relative
    /// error in per-mille).
    drift: LabelId,
    /// One Full-level instant label per [`DELIVERY_KINDS`] entry.
    deliveries: [LabelId; 15],
    /// The open lifecycle span per task: `(span name, track)`.
    open: Vec<Option<(LabelId, LabelId)>>,
    decisions: Vec<DecisionRecord>,
    transfers: Vec<TransferRecord>,
    dropped_decisions: u64,
    dropped_transfers: u64,
}

impl Trace {
    /// Interns the labels in a fixed order (their ids are the trace's
    /// label indices): the substrate's, then the client's, then one per
    /// delivery kind.
    fn new(cfg: &TraceConfig, endpoint_labels: &[String], n_tasks: usize) -> Trace {
        let mut tr = Tracer::new(cfg.level, cfg.ring_capacity);
        Trace {
            queued: tr.intern("queued"),
            executing: tr.intern("executing"),
            transfer: tr.intern("transfer"),
            fault_transfer: tr.intern("fault.transfer"),
            fault_task: tr.intern("fault.task"),
            capacity: tr.intern("capacity"),
            health: tr.intern("health"),
            retry: tr.intern("retry.task"),
            busy: (endpoint_labels.iter())
                .map(|l| tr.intern(&format!("busy.{l}")))
                .collect(),
            tracks: endpoint_labels.iter().map(|l| tr.intern(l)).collect(),
            client: tr.intern("client"),
            ready: tr.intern("ready"),
            staging: tr.intern("staging"),
            staged: tr.intern("staged"),
            dispatched: tr.intern("dispatched"),
            polled: tr.intern("polled"),
            drift: tr.intern("predictor.drift"),
            deliveries: DELIVERY_KINDS.map(|k| tr.intern(k.label)),
            tracer: tr,
            open: vec![None; n_tasks],
            decisions: Vec::new(),
            transfers: Vec::new(),
            dropped_decisions: 0,
            dropped_transfers: 0,
        }
    }

    /// Ends `t`'s open lifecycle span and begins `next` (or nothing, for
    /// terminal states). The span id is the task id, so Perfetto stitches
    /// consecutive stages into one async lane per task.
    fn transition(&mut self, t: TaskId, now: SimTime, next: Option<(LabelId, LabelId)>) {
        let slot = &mut self.open[t.index()];
        if let Some((name, track)) = slot.take() {
            self.tracer.end(now, name, track, t.0 as u64);
        }
        if let Some((name, track)) = next {
            self.tracer.begin(now, name, track, t.0 as u64);
            *slot = Some((name, track));
        }
    }

    /// An instant on `ep`'s track.
    fn instant(&mut self, now: SimTime, name: LabelId, ep: EndpointId, id: u64, arg: i64) {
        let track = self.tracks[ep.index()];
        self.tracer.instant(now, name, track, id, arg);
    }

    fn drift(&mut self, ep: EndpointId, id: u64, predicted: f64, actual: f64, now: SimTime) {
        let rel = (predicted - actual) / actual.abs().max(1e-9);
        let arg = (rel * 1000.0).clamp(i64::MIN as f64, i64::MAX as f64) as i64;
        self.instant(now, self.drift, ep, id, arg);
    }

    /// Closes every dangling span and snapshots the engine's always-on
    /// stats as final counters.
    fn seal(mut self, end: SimTime, events: u64, stats: EngineStats) -> RunTrace {
        for i in 0..self.open.len() {
            if self.open[i].is_some() {
                self.transition(TaskId(i as u32), end, None);
            }
        }
        for (name, value) in [
            ("engine.events", events),
            ("engine.scheduled", stats.scheduled),
            ("engine.cancelled", stats.cancelled),
            ("engine.max_pending", stats.max_pending as u64),
        ] {
            let l = self.tracer.intern(name);
            self.tracer.counter(end, l, value as f64);
        }
        RunTrace {
            tracer: self.tracer,
            decisions: self.decisions,
            transfers: self.transfers,
            dropped_decisions: self.dropped_decisions,
            dropped_transfers: self.dropped_transfers,
        }
    }
}

/// The meter consumer: the run's [`MetricsRegistry`] with its series
/// registered up front, plus the predictor-accuracy monitor.
struct Meter {
    reg: MetricsRegistry,
    /// `unifaas_task_dispatches_total{endpoint}` — one per attempt sent
    /// to an endpoint.
    dispatches: Vec<CounterId>,
    /// `unifaas_tasks_completed_total{endpoint}`.
    completed: Vec<CounterId>,
    /// `unifaas_task_attempt_failures_total{endpoint}` — failed attempts
    /// attributed to the endpoint they ran on.
    failures: Vec<CounterId>,
    /// `unifaas_pending_tasks{endpoint}` gauge.
    pending: Vec<GaugeId>,
    /// `unifaas_task_exec_seconds{endpoint}` histogram.
    exec_hist: Vec<HistogramId>,
    /// `unifaas_task_stage_seconds{stage}` histograms, per completed task:
    /// staging, submission, queue, execution, polling.
    stage_hist: [HistogramId; 5],
    /// `unifaas_transfers_total`.
    transfers: CounterId,
    /// `unifaas_transfer_bytes_total`.
    transfer_bytes: CounterId,
    accuracy: AccuracyMonitor,
    /// Predicted duration per in-flight transfer, keyed by `XferId.0`;
    /// consumed when the transfer completes.
    xfer_pred: HashMap<usize, f64>,
    /// Wall time inside the scheduler's hooks, timed by the
    /// [`TimedScheduler`] that [`Recorder::metered_scheduler`] installs.
    hooks: Rc<Cell<Duration>>,
}

impl Meter {
    fn new(endpoints: &[String]) -> Meter {
        let mut reg = MetricsRegistry::new();
        let mut per_ep = |name: &str, help: &str| -> Vec<CounterId> {
            let ep = |l: &String| reg.counter(name, help, &[("endpoint", l)]);
            endpoints.iter().map(ep).collect()
        };
        let dispatches = per_ep(
            "unifaas_task_dispatches_total",
            "Task attempts dispatched to the endpoint.",
        );
        let completed = per_ep(
            "unifaas_tasks_completed_total",
            "Tasks completed successfully on the endpoint.",
        );
        let failures = per_ep(
            "unifaas_task_attempt_failures_total",
            "Failed task attempts on the endpoint (retried or fatal).",
        );
        let pending = endpoints
            .iter()
            .map(|l| {
                reg.gauge(
                    "unifaas_pending_tasks",
                    "Tasks targeted at the endpoint but not yet executing.",
                    &[("endpoint", l)],
                )
            })
            .collect();
        let exec_hist = endpoints
            .iter()
            .map(|l| {
                reg.histogram(
                    "unifaas_task_exec_seconds",
                    "Observed task execution time.",
                    &[("endpoint", l)],
                )
            })
            .collect();
        let stage_hist = ["staging", "submission", "queue", "execution", "polling"].map(|s| {
            reg.histogram(
                "unifaas_task_stage_seconds",
                "Per-task latency stage, sampled once per completed task.",
                &[("stage", s)],
            )
        });
        let transfers = reg.counter(
            "unifaas_transfers_total",
            "Completed inter-endpoint transfers.",
            &[],
        );
        let transfer_bytes = reg.counter(
            "unifaas_transfer_bytes_total",
            "Bytes moved across endpoints.",
            &[],
        );
        Meter {
            reg,
            dispatches,
            completed,
            failures,
            pending,
            exec_hist,
            stage_hist,
            transfers,
            transfer_bytes,
            accuracy: AccuracyMonitor::new(),
            xfer_pred: HashMap::new(),
            hooks: Rc::default(),
        }
    }
}

/// Which optional recorders a run enables; set through `SimRuntime`'s
/// `with_*` builders.
#[derive(Default)]
pub(super) struct RecordConfig {
    pub trace: Option<TraceConfig>,
    pub metrics: bool,
    pub flight: Option<FlightConfig>,
    /// The run journal's path: decisions become journal notes.
    pub journal_out: Option<PathBuf>,
}

/// The one recorder of a simulated run; see the module docs.
pub(super) struct Recorder {
    labels: Vec<String>,
    latency: LatencyBreakdown,
    series: RunSeries,
    /// Interned per-endpoint series handles: recording a sample is an
    /// index, not a label lookup plus `String` clone.
    busy_h: Vec<SeriesHandle>,
    active_h: Vec<SeriesHandle>,
    pending_h: Vec<Option<SeriesHandle>>,
    trace: Option<Box<Trace>>,
    meter: Option<Box<Meter>>,
    /// Running FNV over the scheduler decision stream.
    decision_digest: Option<u64>,
    journal_notes: bool,
    flight: Option<Box<FlightRecorder>>,
    /// True when some consumer reads every delivery.
    deliveries: bool,
}

impl Recorder {
    /// Builds the enabled consumers; `verify` (`Config::verify`) turns on
    /// the decision digest.
    pub fn new(rc: RecordConfig, verify: bool, labels: Vec<String>, n_tasks: usize) -> Recorder {
        let mut series = RunSeries::default();
        let busy_h = labels
            .iter()
            .map(|l| series.busy_workers.handle(l))
            .collect();
        let active_h = labels
            .iter()
            .map(|l| series.active_workers.handle(l))
            .collect();
        let trace = rc
            .trace
            .filter(|tc| tc.level != TraceLevel::Off)
            .map(|tc| Box::new(Trace::new(&tc, &labels, n_tasks)));
        let flight = rc.flight.map(|fc| Box::new(FlightRecorder::new(fc)));
        Recorder {
            deliveries: flight.is_some() || trace.as_ref().is_some_and(|t| t.tracer.full()),
            meter: rc.metrics.then(|| Box::new(Meter::new(&labels))),
            pending_h: vec![None; labels.len()],
            labels,
            latency: LatencyBreakdown::default(),
            series,
            busy_h,
            active_h,
            trace,
            decision_digest: verify.then_some(0xcbf2_9ce4_8422_2325),
            journal_notes: rc.journal_out.is_some(),
            flight,
        }
    }

    /// A metered run's scheduler, behind the meter's [`TimedScheduler`]
    /// (its hook time is [`RunReport::scheduler_wall`]); any other run's,
    /// as it is.
    pub fn metered_scheduler(&mut self, scheduler: Box<dyn Scheduler>) -> Box<dyn Scheduler> {
        let Some(m) = self.meter.as_deref_mut() else {
            return scheduler;
        };
        let (timed, hooks) = TimedScheduler::new(scheduler);
        m.hooks = hooks;
        Box::new(timed)
    }

    /// The run starts: every endpoint's initial worker counts, and no task
    /// staging.
    pub fn start(&mut self, endpoints: &[EndpointSim]) {
        for i in 0..endpoints.len() {
            self.worker_series(EndpointId(i as u16), SimTime::ZERO, endpoints);
        }
        self.staging(SimTime::ZERO, 0);
    }

    /// True when some consumer reads every delivery: only then does the
    /// runtime encode one for [`Recorder::delivery`].
    #[inline]
    pub fn wants_deliveries(&self) -> bool {
        self.deliveries
    }

    /// One delivered event, encoded as the run journal encodes it.
    pub fn delivery(&mut self, now: SimTime, code: EventCode, sample: FlightSample) {
        if let Some(fl) = self.flight.as_deref_mut() {
            fl.on_event(now, sample);
        }
        if let Some(tr) = self.trace.as_deref_mut() {
            if tr.tracer.full() {
                let name = tr.deliveries[code.kind as usize];
                tr.tracer.instant(now, name, tr.client, 0, code.a as i64);
            }
        }
    }

    /// True when the scheduler should build [`DecisionRecord`]s.
    #[inline]
    pub fn traces_decisions(&self) -> bool {
        self.trace.as_ref().is_some_and(|t| t.tracer.enabled())
    }

    /// The decision records one scheduler call built (drained).
    pub fn decision_records(&mut self, records: &mut Vec<DecisionRecord>) {
        let Some(tr) = self.trace.as_deref_mut() else {
            return;
        };
        for d in records.drain(..) {
            if tr.decisions.len() < MAX_RECORDS {
                tr.decisions.push(d);
            } else {
                tr.dropped_decisions += 1;
            }
        }
    }

    /// One applied scheduler decision (`kind` is its journal note kind):
    /// folded into the decision digest and, on journaled runs, interleaved
    /// into the journal as a note record.
    #[inline]
    pub fn decision<E>(&mut self, kind: u16, task: TaskId, ep: EndpointId, eng: &mut Engine<E>) {
        if let Some(h) = self.decision_digest.as_mut() {
            const PRIME: u64 = 0x0000_0100_0000_01b3;
            for byte in kind
                .to_le_bytes()
                .into_iter()
                .chain(task.0.to_le_bytes())
                .chain((ep.0 as u32).to_le_bytes())
            {
                *h ^= byte as u64;
                *h = h.wrapping_mul(PRIME);
            }
        }
        if self.journal_notes {
            eng.journal_note(kind, task.0 as u64, ep.0 as u64);
        }
    }

    /// `t` entered `new`. Stages before a task has a target live on the
    /// client track; targeted stages on the target endpoint's track.
    #[inline]
    pub fn state(
        &mut self,
        t: TaskId,
        new: TaskState,
        targets: &[Option<EndpointId>],
        now: SimTime,
    ) {
        let Some(tr) = self.trace.as_deref_mut() else {
            return;
        };
        let track = targets[t.index()].map_or(tr.client, |ep| tr.tracks[ep.index()]);
        let next = match new {
            TaskState::Ready => Some((tr.ready, tr.client)),
            TaskState::Staging => Some((tr.staging, track)),
            TaskState::Staged => Some((tr.staged, track)),
            TaskState::Dispatched => Some((tr.dispatched, track)),
            TaskState::Running => Some((tr.executing, track)),
            TaskState::AwaitResult => Some((tr.polled, track)),
            TaskState::Waiting | TaskState::Done | TaskState::Failed => None,
        };
        tr.transition(t, now, next);
    }

    /// `t` arrived in `ep`'s local queue: not a [`TaskState`] change, but
    /// a lifecycle stage of its own.
    #[inline]
    pub fn queued(&mut self, t: TaskId, ep: EndpointId, now: SimTime) {
        if let Some(tr) = self.trace.as_deref_mut() {
            let queued = (tr.queued, tr.tracks[ep.index()]);
            tr.transition(t, now, Some(queued));
        }
    }

    /// Tasks appended by dynamic DAG growth.
    pub fn grow(&mut self, n_tasks: usize) {
        if let Some(tr) = self.trace.as_deref_mut() {
            if tr.open.len() < n_tasks {
                tr.open.resize(n_tasks, None);
            }
        }
    }

    /// True when some consumer reads transfer begins and ends: only then
    /// does the runtime look up their [`XferInfo`].
    #[inline]
    pub fn wants_xfers(&self) -> bool {
        self.trace.is_some() || self.meter.is_some()
    }

    /// A transfer started: a span on the destination's track, its
    /// source-choice record at Full level, and its predicted duration for
    /// the accuracy monitor.
    pub fn xfer_begin(&mut self, id: XferId, info: &XferInfo, p: &dyn Predictor, now: SimTime) {
        if let Some(tr) = self.trace.as_deref_mut() {
            let track = tr.tracks[info.dst.index()];
            tr.tracer.begin(now, tr.transfer, track, id.0 as u64);
            if tr.tracer.full() {
                if tr.transfers.len() < MAX_RECORDS {
                    tr.transfers.push(TransferRecord {
                        at: now,
                        xfer: id.0 as u64,
                        object: info.object.0,
                        src: info.src,
                        dst: info.dst,
                        bytes: info.bytes,
                        replica_candidates: info.replica_candidates,
                        attempt: info.attempt,
                    });
                } else {
                    tr.dropped_transfers += 1;
                }
            }
        }
        if let Some(m) = self.meter.as_deref_mut() {
            let pred = p.transfer_seconds(info.bytes, info.src, info.dst);
            m.xfer_pred.insert(id.0, pred);
        }
    }

    /// A transfer attempt ended (`info` as it was before completion).
    /// `observed` is the data manager's `(src, dst, bytes, seconds)` of a
    /// successful transfer.
    pub fn xfer_end(
        &mut self,
        id: XferId,
        info: &XferInfo,
        failed: bool,
        observed: Option<(EndpointId, EndpointId, u64, f64)>,
        now: SimTime,
    ) {
        if let Some(tr) = self.trace.as_deref_mut() {
            let track = tr.tracks[info.dst.index()];
            tr.tracer.end(now, tr.transfer, track, id.0 as u64);
            if failed {
                tr.instant(
                    now,
                    tr.fault_transfer,
                    info.dst,
                    id.0 as u64,
                    info.attempt as i64,
                );
            }
        }
        let Some(m) = self.meter.as_deref_mut() else {
            return;
        };
        let pred = m.xfer_pred.remove(&id.0);
        if let Some((src, dst, bytes, secs)) = observed {
            m.reg.inc(m.transfers, 1.0);
            m.reg.inc(m.transfer_bytes, bytes as f64);
            if let Some(pred) = pred {
                if m.accuracy.record_transfer(src, dst, pred, secs) {
                    if let Some(tr) = self.trace.as_deref_mut() {
                        tr.drift(dst, id.0 as u64, pred, secs, now);
                    }
                }
            }
        }
    }

    /// `ep`'s busy-worker count changed (a task started or stopped there).
    /// Every change to an endpoint's counts is recorded for that endpoint
    /// before any other endpoint's, so the series this call skips already
    /// hold their current values.
    #[inline]
    pub fn busy(&mut self, ep: EndpointId, now: SimTime, endpoints: &[EndpointSim]) {
        self.busy_series(ep, now, endpoints);
        if let Some(tr) = self.trace.as_deref_mut() {
            let busy = endpoints[ep.index()].busy_workers();
            tr.tracer.counter(now, tr.busy[ep.index()], busy as f64);
        }
    }

    #[inline]
    fn busy_series(&mut self, ep: EndpointId, now: SimTime, endpoints: &[EndpointSim]) {
        let busy = endpoints[ep.index()].busy_workers();
        let total: usize = endpoints.iter().map(EndpointSim::busy_workers).sum();
        self.series
            .busy_workers
            .at_mut(self.busy_h[ep.index()])
            .record(now, busy as f64);
        self.series.busy_total.record(now, total as f64);
    }

    #[inline]
    fn worker_series(&mut self, ep: EndpointId, now: SimTime, endpoints: &[EndpointSim]) {
        self.busy_series(ep, now, endpoints);
        let active = endpoints[ep.index()].active_workers();
        let total: usize = endpoints.iter().map(EndpointSim::active_workers).sum();
        self.series
            .active_workers
            .at_mut(self.active_h[ep.index()])
            .record(now, active as f64);
        self.series.active_total.record(now, total as f64);
    }

    /// `ep`'s provisioned worker count changed (scale-out/in, capacity
    /// event).
    pub fn workers(&mut self, ep: EndpointId, now: SimTime, endpoints: &[EndpointSim]) {
        if let Some(tr) = self.trace.as_deref_mut() {
            let workers = endpoints[ep.index()].active_workers();
            tr.instant(now, tr.capacity, ep, ep.0 as u64, workers as i64);
        }
        self.worker_series(ep, now, endpoints);
    }

    /// The number of tasks in data staging.
    #[inline]
    pub fn staging(&mut self, now: SimTime, count: usize) {
        self.series.staging_tasks.record(now, count as f64);
    }

    /// The number of tasks pending on endpoint `ep` changed.
    #[inline]
    pub fn pending(&mut self, ep: EndpointId, now: SimTime, count: usize) {
        let v = count as f64;
        let h = match self.pending_h[ep.index()] {
            Some(h) => h,
            // Interned on first use, so endpoints that never see pending
            // tasks get no empty series.
            None => {
                let h = self.series.pending_tasks.handle(&self.labels[ep.index()]);
                self.pending_h[ep.index()] = Some(h);
                h
            }
        };
        self.series.pending_tasks.at_mut(h).record(now, v);
        if let Some(m) = self.meter.as_deref_mut() {
            m.reg.set(m.pending[ep.index()], v);
        }
    }

    /// A task attempt was sent to `ep`.
    #[inline]
    pub fn dispatched(&mut self, ep: EndpointId) {
        if let Some(m) = self.meter.as_deref_mut() {
            m.reg.inc(m.dispatches[ep.index()], 1.0);
        }
    }

    /// `t`'s attempt on `ep` failed at the endpoint (crash or timeout).
    pub fn task_fault(&mut self, ep: EndpointId, t: TaskId, now: SimTime) {
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.instant(now, tr.fault_task, ep, t.0 as u64, ep.0 as i64);
        }
    }

    /// The client counted a failed attempt on `ep`.
    pub fn attempt_failed(&mut self, ep: EndpointId) {
        if let Some(m) = self.meter.as_deref_mut() {
            m.reg.inc(m.failures[ep.index()], 1.0);
        }
    }

    /// A failed attempt of `t` on `ep` is retried (`attempt` = failures so
    /// far).
    pub fn retry(&mut self, ep: EndpointId, t: TaskId, attempt: u32, now: SimTime) {
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.instant(now, tr.retry, ep, t.0 as u64, attempt as i64);
        }
    }

    /// `ep` moved to health state `state`.
    pub fn health(&mut self, ep: EndpointId, state: HealthState, now: SimTime) {
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.instant(now, tr.health, ep, ep.0 as u64, state.code() as i64);
        }
    }

    /// `t` completed on `ep`. `stages` are its latency stages in seconds
    /// (staging, submission, queue, execution, polling); `predicted` is the
    /// execution time the scheduler was told.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn task_done(
        &mut self,
        t: TaskId,
        ep: EndpointId,
        target: Option<EndpointId>,
        stages: [f64; 5],
        predicted: f64,
        dag: &Dag,
        now: SimTime,
    ) {
        let [staging, submission, queue, execution, polling] = stages;
        let l = &mut self.latency;
        l.count += 1;
        l.staging_s += staging;
        l.submission_s += submission;
        l.queue_s += queue;
        l.execution_s += execution;
        l.polling_s += polling;
        let Some(m) = self.meter.as_deref_mut() else {
            return;
        };
        for (h, x) in m.stage_hist.into_iter().zip(stages) {
            m.reg.observe(h, x);
        }
        if let Some(target) = target {
            m.reg.observe(m.exec_hist[target.index()], execution);
        }
        m.reg.inc(m.completed[ep.index()], 1.0);
        let function = dag.function_name(dag.spec(t).function);
        let label = &self.labels[ep.index()];
        if m.accuracy
            .record_exec(function, label, predicted, execution)
        {
            if let Some(tr) = self.trace.as_deref_mut() {
                tr.drift(ep, t.0 as u64, predicted, execution, now);
            }
        }
    }

    /// Seals every consumer into `report`, which holds the runtime's own
    /// totals; `end` is the makespan's end and `stats` the engine's.
    pub fn finish(self, report: RunReport, end: SimTime, stats: EngineStats) -> RunReport {
        let (metrics, calibration, scheduler_wall) = match self.meter {
            Some(mut m) => {
                m.accuracy.export(&mut m.reg);
                let table = m.accuracy.calibration_table();
                (Some(Box::new(m.reg)), table, m.hooks.get())
            }
            None => (None, Vec::new(), Duration::ZERO),
        };
        let events = report.events_processed;
        RunReport {
            scheduler_wall,
            latency: LatencyBreakdown {
                scheduling_s: scheduler_wall.as_secs_f64(),
                ..self.latency
            },
            series: self.series,
            trace: self.trace.map(|t| Box::new(t.seal(end, events, stats))),
            calibration,
            metrics,
            decision_digest: self.decision_digest,
            flight_stalls: self.flight.map(|f| f.stalls()),
            ..report
        }
    }
}
