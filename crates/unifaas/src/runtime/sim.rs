//! The discrete-event workflow runtime.
//!
//! Executes a workflow DAG against the `fedci` simulation substrate under
//! virtual time, driving the full UniFaaS pipeline of §IV-A:
//!
//! 1. endpoints are deployed from the [`Config`];
//! 2. the DAG generator output (a [`Dag`]) is submitted;
//! 3. profilers predict execution/transfer times (oracle or learned);
//! 4. the scheduler maps ready tasks to endpoints;
//! 5. the data manager stages inputs, and the task executor dispatches
//!    tasks and polls results;
//! 6. the task monitor logs every run, updating the profilers.
//!
//! The runtime also implements multi-endpoint elasticity (§IV-H), fault
//! tolerance (§IV-G: transfer retry + task reassignment), dynamic capacity
//! events (Table V) and dynamic DAG growth (tasks injected mid-run).

use crate::config::{Config, KnowledgeMode, SchedulingStrategy};
use crate::data::StartedXfer;
use crate::data::{DataManager, XferId};
use crate::error::UniFaasError;
use crate::flight::{FlightConfig, FlightSample};
use crate::metrics::RunReport;
use crate::monitor::HistoryDb;
use crate::monitor::{EndpointMonitor, HealthMonitor, MockEndpoint, TaskMonitor, TaskRecord};
use crate::obs::{NOTE_DECISION_DISPATCH, NOTE_DECISION_STAGE};
use crate::profile::transfer::transfer_record_name;
use crate::profile::{EndpointFeatures, LearnedProfiler, OracleProfiler, Predictor};
use crate::runtime::record::{RecordConfig, Recorder};
use crate::runtime::TaskState;
use crate::scaling::{CoordinatedScaling, DefaultScaling, ScaleCommand, ScaleView, Scaling};
use crate::sched::{
    external_input_id, output_id, task_inputs, CapacityScheduler, DhaScheduler, LocalityScheduler,
    PinnedScheduler, SchedAction, SchedCtx, Scheduler,
};
use crate::trace::{DecisionRecord, TraceConfig};
use fedci::endpoint::{EndpointId, EndpointSim};
use fedci::faas::FaasServiceModel;
use fedci::fault::FaultInjector;
use fedci::network::{Link, NetworkTopology};
use fedci::transfer::TransferParams;
use simkit::event::EventId;
use simkit::journal::{EventCode, JournalSummary, JournalWriter};
use simkit::{Engine, EngineStats, SimDuration, SimRng, SimTime};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use taskgraph::{Dag, TaskId};

/// How many new monitor records accumulate before the learned profilers
/// retrain.
const RETRAIN_EVERY: usize = 64;

/// DHA's re-scheduling cadence (§IV-D).
const RESCHEDULE_INTERVAL: SimDuration = SimDuration::from_secs(10);

/// Cadence of the multi-endpoint scaling loop (§IV-H).
const SCALE_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Upper bound on the spare action/decision buffers kept for recycling.
/// Nesting depth of `sched` re-entry is small; anything beyond this is a
/// leak guard, not a tuning knob.
const SCRATCH_POOL: usize = 8;

/// Simulation events.
#[derive(Debug)]
enum Ev {
    /// Re-check whether a task's staging is complete.
    StagingCheck(TaskId),
    /// A transfer finished (success or failure decided on delivery).
    XferDone(XferId),
    /// A dispatched task arrived at its endpoint. The `u32` is the task's
    /// dispatch generation: an arrival whose generation is stale (the task
    /// was drained and re-dispatched meanwhile) is ignored.
    TaskArrive(TaskId, EndpointId, u32),
    /// A task finished executing.
    ExecDone(TaskId, EndpointId),
    /// The client observed a task result (`bool` = success).
    ResultObserved(TaskId, EndpointId, bool),
    /// Periodic mock/endpoint state synchronization.
    MockSync,
    /// Periodic elastic-scaling evaluation.
    ScaleTick,
    /// Periodic DHA re-scheduling.
    RescheduleTick,
    /// A configured capacity change fires.
    CapacityChange(usize),
    /// Requested workers emerged from the batch queue.
    Commission(EndpointId, usize),
    /// Dynamic DAG growth hook fires.
    Inject(usize),
    /// A scheduled outage window opens (index into the outage schedule):
    /// the endpoint goes Down and its queued/staging tasks drain.
    OutageStart(usize),
    /// A scheduled outage window closes: the endpoint re-admits work.
    OutageEnd(usize),
    /// A backed-off task retry fires (§IV-G). The `u32` is the retry
    /// generation at scheduling time; stale retries are ignored.
    RetryTask(TaskId, EndpointId, u32),
    /// The execution-timeout watchdog fires for attempt `u32` of a task.
    ExecTimeout(TaskId, EndpointId, u32),
}

/// Per-task runtime bookkeeping in structure-of-arrays layout: one dense
/// `Vec` per field, indexed by task id.
///
/// The hot paths — `set_state`, the result-observation pipeline,
/// `counter_drift`, `drain_endpoint` — each touch one or two fields of
/// many tasks. The former per-task struct was ~100 bytes, so every such
/// walk strided through mostly-cold cache lines; parallel arrays turn
/// them into sequential scans of small homogeneous vectors. The arena
/// also absorbs what used to be side maps: the `ExecDone` event id of a
/// running task (previously a per-endpoint `HashMap<TaskId, EventId>`)
/// lives in `exec_event`/`run_pos`, and the failed-attempt history
/// (previously a `Vec` allocated inside every task) is a side table
/// touched only by tasks that actually failed.
#[derive(Debug, Default)]
struct TaskArena {
    state: Vec<TaskState>,
    target: Vec<Option<EndpointId>>,
    pending_on: Vec<Option<EndpointId>>,
    attempts: Vec<u32>,
    /// Retry dispatches bypass the scheduler (§IV-G reassignment policy).
    runtime_retry: Vec<bool>,
    /// Bumped on every dispatch; stale `TaskArrive` events are dropped.
    dispatch_gen: Vec<u32>,
    /// Bumped on every scheduled backoff retry; stale `RetryTask` events
    /// are dropped.
    retry_gen: Vec<u32>,
    predicted_exec: Vec<f64>,
    /// The pending `ExecDone` event of a Running task.
    exec_event: Vec<Option<EventId>>,
    /// Index into its endpoint's running list while the task runs.
    run_pos: Vec<u32>,
    t_ready: Vec<SimTime>,
    t_staged: Vec<SimTime>,
    t_dispatched: Vec<SimTime>,
    t_arrived: Vec<SimTime>,
    t_exec_start: Vec<SimTime>,
    t_exec_end: Vec<SimTime>,
    /// Endpoints of failed attempts, populated only for tasks that have
    /// failed at least once (the fatal `TaskFailed` error reports them).
    attempt_eps: HashMap<TaskId, Vec<EndpointId>>,
}

impl TaskArena {
    fn len(&self) -> usize {
        self.state.len()
    }

    /// Appends `n` tasks in the initial (Waiting) state.
    fn grow(&mut self, n: usize) {
        let total = self.state.len() + n;
        self.state.resize(total, TaskState::Waiting);
        self.target.resize(total, None);
        self.pending_on.resize(total, None);
        self.attempts.resize(total, 0);
        self.runtime_retry.resize(total, false);
        self.dispatch_gen.resize(total, 0);
        self.retry_gen.resize(total, 0);
        self.predicted_exec.resize(total, 0.0);
        self.exec_event.resize(total, None);
        self.run_pos.resize(total, 0);
        self.t_ready.resize(total, SimTime::ZERO);
        self.t_staged.resize(total, SimTime::ZERO);
        self.t_dispatched.resize(total, SimTime::ZERO);
        self.t_arrived.resize(total, SimTime::ZERO);
        self.t_exec_start.resize(total, SimTime::ZERO);
        self.t_exec_end.resize(total, SimTime::ZERO);
    }

    /// Records a failed attempt on `ep` for the fatal-error report.
    fn record_failed_attempt(&mut self, t: TaskId, ep: EndpointId) {
        self.attempt_eps.entry(t).or_default().push(ep);
    }

    /// Endpoints of `t`'s failed attempts, oldest first.
    fn failed_attempt_eps(&self, t: TaskId) -> Vec<EndpointId> {
        self.attempt_eps.get(&t).cloned().unwrap_or_default()
    }
}

enum ProfilerKind {
    Oracle(OracleProfiler),
    Learned(Box<LearnedProfiler>),
    /// Caller-supplied predictor (tests and what-if studies; never
    /// retrained).
    Custom(Box<dyn Predictor>),
}

impl ProfilerKind {
    fn get(&self) -> &dyn Predictor {
        match self {
            ProfilerKind::Oracle(p) => p,
            ProfilerKind::Learned(p) => p.as_ref(),
            ProfilerKind::Custom(p) => p.as_ref(),
        }
    }
}

type InjectFn = Box<dyn FnOnce(&mut Dag)>;

/// The simulated-federation workflow runtime.
pub struct SimRuntime {
    cfg: Config,
    dag: Dag,
    net: Option<NetworkTopology>,
    history: Option<HistoryDb>,
    prestage_inputs: bool,
    injections: Vec<(SimTime, InjectFn)>,
    predictor_override: Option<Box<dyn Predictor>>,
    /// The recorders the run enables.
    record: RecordConfig,
}

impl SimRuntime {
    /// Creates a runtime for `dag` under `config`.
    pub fn new(config: Config, dag: Dag) -> Self {
        SimRuntime {
            cfg: config,
            dag,
            net: None,
            history: None,
            prestage_inputs: true,
            injections: Vec::new(),
            predictor_override: None,
            record: RecordConfig::default(),
        }
    }

    /// Writes a run journal to `path`: one binary record per delivered
    /// event plus scheduler decision notes, with rolling per-chunk digests
    /// (see [`simkit::journal`]). The journal is the input of
    /// `unifaas-sim doctor`; a run without one pays a single pointer check
    /// per delivered event, and journaled runs produce bit-identical
    /// reports and digests to unjournaled ones.
    pub fn with_journal<P: Into<PathBuf>>(mut self, path: P) -> Self {
        self.record.journal_out = Some(path.into());
        self
    }

    /// Enables the in-run progress recorder: periodic progress snapshots
    /// streamed to stderr, and a stall detector whose count lands in
    /// [`RunReport::flight_stalls`]. The recorder only observes runtime
    /// counters, so schedules and digests are unchanged.
    pub fn with_flight(mut self, cfg: FlightConfig) -> Self {
        self.record.flight = Some(cfg);
        self
    }

    /// Enables the metrics observatory: counters/gauges/histograms in a
    /// [`MetricsRegistry`](simkit::MetricsRegistry) (returned as
    /// [`RunReport::metrics`], ready for Prometheus text dump) plus a live
    /// predictor-accuracy monitor whose calibration table lands in
    /// [`RunReport::calibration`], and the scheduler's hooks timed
    /// ([`RunReport::scheduler_wall`], Table III's overhead). Unmetered
    /// runs register nothing, read no clock and pay a single branch per
    /// emission site; the determinism digest is the same either way.
    pub fn with_metrics(mut self, yes: bool) -> Self {
        self.record.metrics = yes;
        self
    }

    /// Replaces the config-selected profiler with a caller-supplied
    /// predictor (e.g. a deliberately biased one for calibration tests).
    /// The override is never retrained.
    pub fn with_predictor(mut self, p: Box<dyn Predictor>) -> Self {
        self.predictor_override = Some(p);
        self
    }

    /// Enables run tracing: per-task lifecycle spans on per-endpoint
    /// tracks, transfer spans, scheduler decision records and fault
    /// instants, returned as [`RunReport::trace`]. An untraced run pays a
    /// single pointer check per instrumentation site.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.record.trace = Some(trace);
        self
    }

    /// Overrides the network topology (default: uniform WAN links).
    pub fn with_network(mut self, net: NetworkTopology) -> Self {
        self.net = Some(net);
        self
    }

    /// Preloads a history database so learned profilers start warm.
    pub fn with_history(mut self, db: HistoryDb) -> Self {
        self.history = Some(db);
        self
    }

    /// Controls whether workflow-initial inputs are pre-replicated to every
    /// endpoint before the run (datasets staged ahead of time, the paper's
    /// case-study setup) or transferred on demand from the home endpoint
    /// (the Fig. 5 latency experiment). Default: prestaged.
    pub fn prestage_inputs(mut self, yes: bool) -> Self {
        self.prestage_inputs = yes;
        self
    }

    /// Registers a dynamic DAG growth hook: at `at`, `f` may append tasks
    /// to the DAG (future-passing during execution).
    pub fn inject_at<F: FnOnce(&mut Dag) + 'static>(&mut self, at: SimTime, f: F) {
        self.injections.push((at, Box::new(f)));
    }

    /// Runs the workflow to completion and reports.
    pub fn run(self) -> Result<RunReport, UniFaasError> {
        self.cfg.validate()?;
        let verify = self.cfg.verify;
        let journal_out = self.record.journal_out.clone();
        let mut rt = Rt::build(self)?;
        let mut engine: Engine<Ev> = if verify {
            Engine::new_checked()
        } else {
            Engine::new()
        };
        if let Some(path) = &journal_out {
            let w = JournalWriter::create(path)
                .map_err(|e| UniFaasError::Journal(format!("{}: {e}", path.display())))?;
            engine.set_journal(w, ev_code);
        }
        rt.bootstrap(&mut engine);
        engine.run(|now, ev, eng| rt.handle(now, ev, eng));
        let journal = engine
            .take_journal()
            .map(JournalWriter::finish)
            .transpose()
            .map_err(|e| UniFaasError::Journal(e.to_string()))?;
        rt.finish(engine.processed(), engine.stats(), journal)
    }
}

/// Event → record-stream encoding, shared by the run journal and the
/// recorder. `kind` indexes [`DELIVERY_KINDS`](super::record::DELIVERY_KINDS);
/// `a` carries the task/transfer/schedule id and `b` packs the endpoint id
/// in its low 32 bits with any generation/flag above.
fn ev_code(ev: &Ev) -> EventCode {
    let (kind, a, b) = match ev {
        Ev::StagingCheck(t) => (0, t.0 as u64, 0),
        Ev::XferDone(x) => (1, x.0 as u64, 0),
        Ev::TaskArrive(t, ep, gen) => (2, t.0 as u64, ep.0 as u64 | (*gen as u64) << 32),
        Ev::ExecDone(t, ep) => (3, t.0 as u64, ep.0 as u64),
        Ev::ResultObserved(t, ep, ok) => (4, t.0 as u64, ep.0 as u64 | (*ok as u64) << 32),
        Ev::MockSync => (5, 0, 0),
        Ev::ScaleTick => (6, 0, 0),
        Ev::RescheduleTick => (7, 0, 0),
        Ev::CapacityChange(i) => (8, *i as u64, 0),
        Ev::Commission(ep, n) => (9, *n as u64, ep.0 as u64),
        Ev::Inject(i) => (10, *i as u64, 0),
        Ev::OutageStart(i) => (11, *i as u64, 0),
        Ev::OutageEnd(i) => (12, *i as u64, 0),
        Ev::RetryTask(t, ep, gen) => (13, t.0 as u64, ep.0 as u64 | (*gen as u64) << 32),
        Ev::ExecTimeout(t, ep, gen) => (14, t.0 as u64, ep.0 as u64 | (*gen as u64) << 32),
    };
    EventCode { kind, a, b }
}

/// Internal mutable run state.
struct Rt {
    cfg: Config,
    dag: Dag,
    prestage: bool,
    injections: Vec<Option<(SimTime, InjectFn)>>,
    scheduler: Box<dyn Scheduler>,
    endpoints: Vec<EndpointSim>,
    features: Vec<EndpointFeatures>,
    compute_eps: Vec<EndpointId>,
    home: EndpointId,
    monitor: EndpointMonitor,
    task_monitor: TaskMonitor,
    profiler: ProfilerKind,
    /// True iff a learned profiler trains on the run's history: only then
    /// does an execution attempt or a transfer become a [`TaskRecord`].
    keep_history: bool,
    dm: DataManager,
    faas: FaasServiceModel,
    faults: FaultInjector,
    /// Endpoint liveness state machine, driven by the outage schedule
    /// (authoritative in the sim) and by observed successes.
    health: HealthMonitor,
    /// Flattened, merged outage windows — the index space of
    /// `Ev::OutageStart`/`Ev::OutageEnd`.
    outage_sched: Vec<(EndpointId, SimTime, SimTime)>,
    rng: SimRng,
    /// Independently seeded stream for retry-backoff jitter, so enabling
    /// backoff never perturbs draws on the main stream (determinism: a
    /// zero-backoff run is bit-identical with or without this field).
    retry_rng: SimRng,
    scaler: Box<dyn Scaling>,
    tasks: TaskArena,
    deps_remaining: Vec<usize>,
    ep_queues: Vec<VecDeque<TaskId>>,
    /// Tasks currently executing on each endpoint (dense, swap-removed;
    /// positions mirrored in `TaskArena::run_pos`).
    running: Vec<Vec<TaskId>>,
    pending_count: Vec<usize>,
    client_busy_until: SimTime,
    // Tick counters, maintained at every task state transition by
    // `set_state` so the periodic `MockSync`/`ScaleTick` handlers are
    // O(n_endpoints) instead of O(n_tasks). `reconcile_counters` asserts
    // them against a full scan in debug builds.
    /// Tasks in Dispatched | Running | AwaitResult per target endpoint.
    ep_outstanding: Vec<usize>,
    /// Tasks in Staging | Dispatched | Running | AwaitResult.
    active_task_count: usize,
    /// Tasks in Ready | Staged.
    waiting_task_count: usize,
    /// Ready tasks not yet pending on any endpoint.
    unassigned_ready: usize,
    /// Compute-seconds of those unassigned ready tasks.
    unassigned_work: f64,
    staging_count: usize,
    /// Reusable buffer for transfers started by one staging request.
    xfer_scratch: Vec<StartedXfer>,
    /// Spare `SchedAction` buffers recycled across scheduler hook calls.
    /// A small stack, not a single slot: applying actions can re-enter
    /// `sched` (staging completion → dispatch), and each nesting level
    /// needs its own buffer.
    action_bufs: Vec<Vec<SchedAction>>,
    /// Spare `DecisionRecord` buffers (populated on traced runs only).
    decision_bufs: Vec<Vec<DecisionRecord>>,
    /// Reusable buffer of tasks that turned Ready within one event, fed to
    /// the batched `on_tasks_ready` hook.
    ready_scratch: Vec<TaskId>,
    completed: usize,
    failed_attempts: usize,
    fatal: Option<UniFaasError>,
    makespan_end: SimTime,
    tasks_per_ep: Vec<usize>,
    records_at_last_retrain: usize,
    /// Scheduler hook calls (Table III's count); their wall time is the
    /// meter's, see [`Recorder::metered_scheduler`].
    sched_calls: u64,
    mock_sync_armed: bool,
    scale_armed: bool,
    resched_armed: bool,
    /// Where every run fact is reported; see [`Recorder`].
    rec: Recorder,
}

impl Rt {
    fn build(r: SimRuntime) -> Result<Self, UniFaasError> {
        let cfg = r.cfg;
        let n = cfg.endpoints.len();
        let home = EndpointId((n - 1) as u16);

        let endpoints: Vec<EndpointSim> = cfg
            .endpoints
            .iter()
            .enumerate()
            .map(|(i, e)| {
                EndpointSim::new(
                    EndpointId(i as u16),
                    e.cluster.clone(),
                    e.workers,
                    e.max_workers,
                )
            })
            .collect();
        let features: Vec<EndpointFeatures> = cfg
            .endpoints
            .iter()
            .enumerate()
            .map(|(i, e)| EndpointFeatures {
                id: EndpointId(i as u16),
                cores: e.cluster.cores_per_node,
                cpu_ghz: e.cluster.cpu_ghz,
                ram_gb: e.cluster.ram_gb,
                speed_factor: e.cluster.speed_factor,
            })
            .collect();
        let compute_eps: Vec<EndpointId> = cfg
            .endpoints
            .iter()
            .enumerate()
            .filter(|(_, e)| e.max_workers > 0 || e.workers > 0)
            .map(|(i, _)| EndpointId(i as u16))
            .collect();

        let net = r
            .net
            .unwrap_or_else(|| NetworkTopology::uniform(n, Link::wan()));
        let params: TransferParams = cfg.transfer.default_params();
        let dm = DataManager::new(net.clone(), params.clone(), cfg.max_transfer_retries);

        let profiler = match r.predictor_override {
            Some(p) => ProfilerKind::Custom(p),
            None => match cfg.knowledge {
                KnowledgeMode::Oracle => ProfilerKind::Oracle(OracleProfiler::new(net, params)),
                KnowledgeMode::Learned => {
                    ProfilerKind::Learned(Box::new(LearnedProfiler::with_family(cfg.model_family)))
                }
            },
        };

        let scheduler: Box<dyn Scheduler> = match &cfg.strategy {
            SchedulingStrategy::Capacity => Box::new(CapacityScheduler::new()),
            SchedulingStrategy::Locality => Box::new(LocalityScheduler::new()),
            SchedulingStrategy::Dha { rescheduling } => Box::new(DhaScheduler::new(*rescheduling)),
            SchedulingStrategy::DhaCustom {
                rescheduling,
                delay_dispatch,
                steal_threshold_pct,
            } => Box::new(DhaScheduler::with_options(crate::sched::dha::DhaOptions {
                rescheduling: *rescheduling,
                delay_dispatch: *delay_dispatch,
                steal_threshold: *steal_threshold_pct as f64 / 100.0,
            })),
            SchedulingStrategy::Pinned(map) => Box::new(PinnedScheduler::new(map.clone())),
        };

        let mocks = cfg
            .endpoints
            .iter()
            .enumerate()
            .map(|(i, e)| {
                MockEndpoint::new(
                    EndpointId(i as u16),
                    &e.label,
                    e.workers,
                    e.cluster.speed_factor,
                )
            })
            .collect();

        let mut rng = SimRng::seed_from_u64(cfg.seed);
        let fault_seed = rng.fork().raw().next_u64_compat();
        let faults = FaultInjector::new(fault_seed, &cfg.faults, n);
        let outage_sched = faults.outage_windows();
        let health = HealthMonitor::with_policy(n, cfg.health);
        // Seeded off the config seed but on its own stream: forking the
        // master RNG here would consume a draw and shift every existing
        // run's event timings.
        let retry_rng = SimRng::seed_from_u64(cfg.seed ^ 0x9E37_79B9_7F4A_7C15);

        let task_monitor = TaskMonitor::new(r.history);
        let mut profiler = profiler;
        if let ProfilerKind::Learned(p) = &mut profiler {
            p.retrain(&task_monitor);
        }

        let n_tasks = r.dag.len();
        let scaler: Box<dyn Scaling> = match cfg.scaling.policy {
            crate::config::ScalingPolicyKind::Default => Box::new(DefaultScaling {
                idle_timeout: cfg.scaling.idle_timeout,
            }),
            crate::config::ScalingPolicyKind::Coordinated {
                target_drain_seconds,
            } => Box::new(CoordinatedScaling {
                target_drain_seconds,
                idle_timeout: cfg.scaling.idle_timeout,
            }),
        };
        let faas = cfg.faas.clone();
        let labels = cfg.endpoints.iter().map(|e| e.label.clone()).collect();
        let mut rec = Recorder::new(r.record, cfg.verify, labels, n_tasks);
        let scheduler = rec.metered_scheduler(scheduler);
        Ok(Rt {
            cfg,
            dag: r.dag,
            prestage: r.prestage_inputs,
            injections: r.injections.into_iter().map(Some).collect(),
            scheduler,
            endpoints,
            features,
            compute_eps,
            home,
            monitor: EndpointMonitor::new(mocks),
            task_monitor,
            keep_history: matches!(profiler, ProfilerKind::Learned(_)),
            profiler,
            dm,
            faas,
            faults,
            health,
            outage_sched,
            rng,
            retry_rng,
            scaler,
            tasks: {
                let mut arena = TaskArena::default();
                arena.grow(n_tasks);
                arena
            },
            deps_remaining: Vec::new(),
            ep_queues: (0..n).map(|_| VecDeque::new()).collect(),
            running: (0..n).map(|_| Vec::new()).collect(),
            pending_count: vec![0; n],
            client_busy_until: SimTime::ZERO,
            ep_outstanding: vec![0; n],
            active_task_count: 0,
            waiting_task_count: 0,
            unassigned_ready: 0,
            unassigned_work: 0.0,
            staging_count: 0,
            xfer_scratch: Vec::new(),
            action_bufs: Vec::new(),
            decision_bufs: Vec::new(),
            ready_scratch: Vec::new(),
            completed: 0,
            failed_attempts: 0,
            fatal: None,
            makespan_end: SimTime::ZERO,
            tasks_per_ep: vec![0; n],
            records_at_last_retrain: 0,
            sched_calls: 0,
            mock_sync_armed: false,
            scale_armed: false,
            resched_armed: false,
            rec,
        })
    }

    fn set_pending(&mut self, t: TaskId, ep: Option<EndpointId>, now: SimTime) {
        let old = self.tasks.pending_on[t.index()];
        if old == ep {
            return;
        }
        if let Some(o) = old {
            self.pending_count[o.index()] -= 1;
            self.rec.pending(o, now, self.pending_count[o.index()]);
        }
        if let Some(e) = ep {
            self.pending_count[e.index()] += 1;
            self.rec.pending(e, now, self.pending_count[e.index()]);
        }
        // A Ready task gaining or losing an assignment moves between the
        // unassigned and assigned demand pools (see `set_state`).
        if self.tasks.state[t.index()] == TaskState::Ready {
            if old.is_none() && ep.is_some() {
                self.unassigned_ready -= 1;
                self.unassigned_work -= self.dag.spec(t).compute_seconds;
                if self.unassigned_ready == 0 {
                    self.unassigned_work = 0.0;
                }
            } else if old.is_some() && ep.is_none() {
                self.unassigned_ready += 1;
                self.unassigned_work += self.dag.spec(t).compute_seconds;
            }
        }
        self.tasks.pending_on[t.index()] = ep;
    }

    // ---- scheduler invocation -----------------------------------------

    fn sched<F: FnOnce(&mut dyn Scheduler, &mut SchedCtx)>(
        &mut self,
        now: SimTime,
        f: F,
    ) -> Vec<SchedAction> {
        let mut ctx = SchedCtx::new(
            now,
            &self.dag,
            &self.monitor,
            &self.dm.store,
            self.profiler.get(),
            &self.features,
            self.home,
            &self.compute_eps,
            &self.dm,
            self.faas.max_payload_bytes,
        )
        .with_health(&self.health)
        .with_decision_trace(self.rec.traces_decisions())
        .with_action_buf(self.action_bufs.pop().unwrap_or_default())
        .with_decision_buf(self.decision_bufs.pop().unwrap_or_default());
        f(self.scheduler.as_mut(), &mut ctx);
        let actions = ctx.take_actions();
        self.sched_calls += 1;
        let mut decisions = ctx.take_decisions();
        self.rec.decision_records(&mut decisions);
        if self.decision_bufs.len() < SCRATCH_POOL {
            self.decision_bufs.push(decisions);
        }
        actions
    }

    fn process_actions(
        &mut self,
        mut actions: Vec<SchedAction>,
        now: SimTime,
        eng: &mut Engine<Ev>,
    ) {
        for a in actions.drain(..) {
            match a {
                SchedAction::Stage { task, ep } => {
                    self.rec.decision(NOTE_DECISION_STAGE, task, ep, eng);
                    self.do_stage(task, ep, false, now, eng)
                }
                SchedAction::Dispatch { task, ep } => {
                    self.rec.decision(NOTE_DECISION_DISPATCH, task, ep, eng);
                    self.do_dispatch(task, ep, now, eng)
                }
            }
        }
        // Hand the drained buffer back to `sched` for the next hook call:
        // the steady-state schedule→act cycle then allocates no `Vec`s.
        if self.action_bufs.len() < SCRATCH_POOL {
            self.action_bufs.push(actions);
        }
    }

    // ---- task lifecycle -----------------------------------------------

    /// Central task state transition. Every write to `TaskArena::state` goes
    /// through here so the tick counters stay exact without scans, and so
    /// the recorder hears of every state change from one place. Callers
    /// entering Dispatched must set `target` *before* calling (the
    /// per-endpoint outstanding count is keyed by it).
    fn set_state(&mut self, t: TaskId, new: TaskState, now: SimTime) {
        let old = self.tasks.state[t.index()];
        if old == new {
            return;
        }
        let pending_none = self.tasks.pending_on[t.index()].is_none();
        match old {
            TaskState::Staging => {
                self.active_task_count -= 1;
                self.staging_count -= 1;
            }
            TaskState::Dispatched | TaskState::Running | TaskState::AwaitResult => {
                self.active_task_count -= 1;
                let ep = self.tasks.target[t.index()].expect("outstanding task has a target");
                self.ep_outstanding[ep.index()] -= 1;
            }
            TaskState::Ready => {
                self.waiting_task_count -= 1;
                if pending_none {
                    self.unassigned_ready -= 1;
                    self.unassigned_work -= self.dag.spec(t).compute_seconds;
                    if self.unassigned_ready == 0 {
                        // Pin accumulated float error back to exactly zero
                        // whenever the pool empties.
                        self.unassigned_work = 0.0;
                    }
                }
            }
            TaskState::Staged => self.waiting_task_count -= 1,
            TaskState::Waiting | TaskState::Done | TaskState::Failed => {}
        }
        match new {
            TaskState::Staging => {
                self.active_task_count += 1;
                self.staging_count += 1;
            }
            TaskState::Dispatched | TaskState::Running | TaskState::AwaitResult => {
                self.active_task_count += 1;
                let ep = self.tasks.target[t.index()].expect("outstanding task has a target");
                self.ep_outstanding[ep.index()] += 1;
            }
            TaskState::Ready => {
                self.waiting_task_count += 1;
                if pending_none {
                    self.unassigned_ready += 1;
                    self.unassigned_work += self.dag.spec(t).compute_seconds;
                }
            }
            TaskState::Staged => self.waiting_task_count += 1,
            TaskState::Waiting | TaskState::Done | TaskState::Failed => {}
        }
        self.tasks.state[t.index()] = new;
        self.rec.state(t, new, &self.tasks.target, now);
    }

    /// Full-scan cross-check of the transition-maintained counters, the
    /// witness that the O(n_endpoints) tick handlers see exactly what a
    /// DAG scan would. Returns a description of the first drifted counter,
    /// or `None` when everything reconciles.
    ///
    /// Always compiled: debug builds assert it on every periodic tick, and
    /// release builds do too when [`Config::verify`] is set — which is how
    /// CI catches release-mode-only drift (e.g. an overflow a debug build
    /// would have trapped differently).
    fn counter_drift(&self) -> Option<String> {
        let mut ep_outstanding = vec![0usize; self.endpoints.len()];
        let (mut active, mut waiting, mut staging) = (0usize, 0usize, 0usize);
        let (mut unassigned, mut work) = (0usize, 0.0f64);
        for (i, &state) in self.tasks.state.iter().enumerate() {
            match state {
                TaskState::Staging => {
                    active += 1;
                    staging += 1;
                }
                TaskState::Dispatched | TaskState::Running | TaskState::AwaitResult => {
                    active += 1;
                    let ep = self.tasks.target[i].expect("outstanding task has a target");
                    ep_outstanding[ep.index()] += 1;
                }
                TaskState::Ready => {
                    waiting += 1;
                    if self.tasks.pending_on[i].is_none() {
                        unassigned += 1;
                        work += self.dag.spec(TaskId(i as u32)).compute_seconds;
                    }
                }
                TaskState::Staged => waiting += 1,
                TaskState::Waiting | TaskState::Done | TaskState::Failed => {}
            }
        }
        if self.ep_outstanding != ep_outstanding {
            return Some(format!(
                "per-endpoint outstanding counters drifted: {:?} vs scan {:?}",
                self.ep_outstanding, ep_outstanding
            ));
        }
        if self.active_task_count != active {
            return Some(format!(
                "active counter drifted: {} vs scan {active}",
                self.active_task_count
            ));
        }
        if self.waiting_task_count != waiting {
            return Some(format!(
                "waiting counter drifted: {} vs scan {waiting}",
                self.waiting_task_count
            ));
        }
        if self.staging_count != staging {
            return Some(format!(
                "staging counter drifted: {} vs scan {staging}",
                self.staging_count
            ));
        }
        if self.unassigned_ready != unassigned {
            return Some(format!(
                "unassigned-ready counter drifted: {} vs scan {unassigned}",
                self.unassigned_ready
            ));
        }
        if (self.unassigned_work - work).abs() > 1e-6 * work.abs().max(1.0) {
            return Some(format!(
                "unassigned work-seconds drifted: {} vs scan {work}",
                self.unassigned_work
            ));
        }
        None
    }

    /// Panics on counter drift. Every periodic tick calls this in debug
    /// builds (the whole test suite doubles as a reconciliation harness)
    /// and in release builds with [`Config::verify`] set.
    fn check_counters(&self) {
        if let Some(msg) = self.counter_drift() {
            panic!("counter reconciliation failed: {msg}");
        }
    }

    fn do_stage(
        &mut self,
        t: TaskId,
        ep: EndpointId,
        runtime_retry: bool,
        now: SimTime,
        eng: &mut Engine<Ev>,
    ) {
        debug_assert!(
            matches!(
                self.tasks.state[t.index()],
                TaskState::Ready | TaskState::Staging | TaskState::Staged
            ),
            "stage from invalid state {:?} for {t}",
            self.tasks.state[t.index()]
        );
        // Target before the state change: the staging span (and, for the
        // Dispatched family, the outstanding counter) is keyed by it.
        self.tasks.target[t.index()] = Some(ep);
        self.tasks.runtime_retry[t.index()] = runtime_retry;
        self.set_state(t, TaskState::Staging, now);
        self.set_pending(t, Some(ep), now);
        self.rec.staging(now, self.staging_count);
        let inputs = task_inputs(&self.dag, t, self.faas.max_payload_bytes);
        // Reuse one scratch buffer for the started transfers and schedule
        // their completions in a single batch.
        let mut started = std::mem::take(&mut self.xfer_scratch);
        started.clear();
        let missing = self
            .dm
            .request_stage_into(t, &inputs, ep, now, &mut started);
        self.xfers_started(&started, now, eng);
        self.xfer_scratch = started;
        if missing == 0 {
            eng.schedule(now, Ev::StagingCheck(t));
        }
    }

    /// Schedules the completions of transfers that just started and
    /// reports their begin.
    fn xfers_started(&mut self, started: &[StartedXfer], now: SimTime, eng: &mut Engine<Ev>) {
        for sx in started {
            eng.schedule(sx.completes_at, Ev::XferDone(sx.id));
        }
        if self.rec.wants_xfers() {
            for sx in started {
                let info = self.dm.xfer_info(sx.id);
                self.rec.xfer_begin(sx.id, &info, self.profiler.get(), now);
            }
        }
    }

    /// Checks whether `t`'s staging is complete; fires downstream if so.
    fn check_staged(&mut self, t: TaskId, now: SimTime, eng: &mut Engine<Ev>) {
        if self.tasks.state[t.index()] != TaskState::Staging {
            return; // stale notification (retargeted or already moved on)
        }
        let Some(ep) = self.tasks.target[t.index()] else {
            return;
        };
        let inputs = task_inputs(&self.dag, t, self.faas.max_payload_bytes);
        if self.dm.store.missing_bytes(&inputs, ep) > 0 {
            return; // still waiting for other objects (or retargeted)
        }
        self.set_state(t, TaskState::Staged, now);
        self.tasks.t_staged[t.index()] = now;
        self.rec.staging(now, self.staging_count);
        if self.tasks.runtime_retry[t.index()] {
            // §IV-G reassignment path: bypass the scheduler.
            self.do_dispatch(t, ep, now, eng);
        } else {
            let actions = self.sched(now, |s, ctx| s.on_staging_complete(ctx, t));
            self.process_actions(actions, now, eng);
        }
    }

    fn do_dispatch(&mut self, t: TaskId, ep: EndpointId, now: SimTime, eng: &mut Engine<Ev>) {
        let predicted = self
            .profiler
            .get()
            .exec_seconds(&self.dag, t, &self.features[ep.index()]);
        debug_assert_eq!(
            self.tasks.state[t.index()],
            TaskState::Staged,
            "dispatch of unstaged {t}"
        );
        self.tasks.t_dispatched[t.index()] = now;
        self.tasks.predicted_exec[t.index()] = predicted;
        self.tasks.target[t.index()] = Some(ep);
        self.set_state(t, TaskState::Dispatched, now);
        self.rec.dispatched(ep);
        // Local mocking: push a mock task at submission time.
        self.monitor.mock_mut(ep).push_task(predicted);
        // The client serializes submissions.
        let start = if self.client_busy_until > now {
            self.client_busy_until
        } else {
            now
        };
        self.client_busy_until = start + self.faas.client_submit_overhead;
        let arrive = self.client_busy_until + self.faas.sample_dispatch(&mut self.rng);
        let gen = {
            self.tasks.dispatch_gen[t.index()] += 1;
            self.tasks.dispatch_gen[t.index()]
        };
        eng.schedule(arrive, Ev::TaskArrive(t, ep, gen));
    }

    /// Tracks `t` as running on `ep`, remembering its pending `ExecDone`
    /// event. O(1): dense list push plus two arena writes.
    fn running_insert(&mut self, ep: EndpointId, t: TaskId, eid: EventId) {
        let list = &mut self.running[ep.index()];
        self.tasks.run_pos[t.index()] = list.len() as u32;
        self.tasks.exec_event[t.index()] = Some(eid);
        list.push(t);
    }

    /// Untracks `t` from `ep`'s running list (swap-remove), returning its
    /// pending `ExecDone` event id if it was tracked.
    fn running_remove(&mut self, ep: EndpointId, t: TaskId) -> Option<EventId> {
        let eid = self.tasks.exec_event[t.index()].take()?;
        let list = &mut self.running[ep.index()];
        let pos = self.tasks.run_pos[t.index()] as usize;
        debug_assert_eq!(list[pos], t, "run_pos out of sync");
        list.swap_remove(pos);
        if let Some(&moved) = list.get(pos) {
            self.tasks.run_pos[moved.index()] = pos as u32;
        }
        Some(eid)
    }

    fn try_start(&mut self, ep: EndpointId, now: SimTime, eng: &mut Engine<Ev>) {
        let mut started_any = false;
        while self.endpoints[ep.index()].idle_workers() > 0
            && !self.ep_queues[ep.index()].is_empty()
        {
            let t = self.ep_queues[ep.index()]
                .pop_front()
                .expect("checked non-empty");
            // A swallowed attempt leaves its worker free and schedules no
            // completion: only the watchdog below ever hears of it.
            let swallowed = self.faults.swallows(ep);
            if !swallowed {
                let ok = self.endpoints[ep.index()].occupy_worker();
                debug_assert!(ok);
                started_any = true;
            }
            self.set_state(t, TaskState::Running, now);
            self.tasks.t_exec_start[t.index()] = now;
            self.set_pending(t, None, now);
            if !swallowed {
                let noise = self.rng.normal_min(1.0, self.cfg.exec_noise_cv, 0.1);
                let base = self.dag.spec(t).compute_seconds * noise;
                let dur = self.endpoints[ep.index()].exec_duration(base);
                let eid = eng.schedule(now + dur + self.faults.exec_delay(ep), Ev::ExecDone(t, ep));
                self.running_insert(ep, t, eid);
            }
            // Straggler watchdog (opt-in): kill and reassign an attempt
            // that exceeds the configured execution timeout.
            if let Some(timeout) = self.cfg.retry.exec_timeout {
                let gen = self.tasks.attempts[t.index()];
                eng.schedule(now + timeout, Ev::ExecTimeout(t, ep, gen));
            }
        }
        if started_any {
            self.rec.busy(ep, now, &self.endpoints);
        }
    }

    /// Gives the scheduler a chance to use idle workers on `ep`. One
    /// batched `on_workers_idle` call covers every believed-idle slot —
    /// each dispatch the scheduler emits occupies one mock slot when
    /// applied, so the slot count equals the number of per-slot hook
    /// calls the unbatched loop would have made. Still bounded by the
    /// believed idle count so a scheduler that keeps emitting actions
    /// without filling slots cannot spin forever.
    fn worker_idle_loop(&mut self, ep: EndpointId, now: SimTime, eng: &mut Engine<Ev>) {
        if self.fatal.is_some() {
            return;
        }
        for _ in 0..self.monitor.mock(ep).idle_workers().max(1) {
            let idle = self.monitor.mock(ep).idle_workers();
            if idle == 0 || !self.scheduler.has_idle_work(ep) {
                break;
            }
            let batch = [(ep, idle)];
            let actions = self.sched(now, |s, ctx| s.on_workers_idle(ctx, &batch));
            if actions.is_empty() {
                break;
            }
            self.process_actions(actions, now, eng);
        }
    }

    fn exec_done(&mut self, t: TaskId, ep: EndpointId, now: SimTime, eng: &mut Engine<Ev>) {
        self.running_remove(ep, t);
        self.endpoints[ep.index()].release_worker(now);
        let success = !self.faults.task_fails(ep, now);
        self.set_state(t, TaskState::AwaitResult, now);
        self.tasks.t_exec_end[t.index()] = now;
        self.rec.busy(ep, now, &self.endpoints);
        if !success {
            self.rec.task_fault(ep, t, now);
        }
        if success {
            // The output file exists on the endpoint's shared filesystem
            // immediately.
            let bytes = self.dag.spec(t).output_bytes;
            if bytes > 0 {
                let oid = output_id(t);
                if self.dm.store.contains(oid) {
                    self.dm.store.add_replica(oid, ep);
                } else {
                    self.dm.store.register(oid, bytes, ep);
                }
            }
        }
        let poll = SimDuration::from_secs_f64(
            self.rng.uniform01() * self.faas.poll_interval.as_secs_f64(),
        ) + self.faas.sample_result(&mut self.rng);
        eng.schedule(now + poll, Ev::ResultObserved(t, ep, success));
        // The freed worker may pull from the endpoint's local queue.
        self.try_start(ep, now, eng);
    }

    fn result_observed(
        &mut self,
        t: TaskId,
        ep: EndpointId,
        success: bool,
        now: SimTime,
        eng: &mut Engine<Ev>,
    ) {
        let predicted = self.tasks.predicted_exec[t.index()];
        self.monitor.mock_mut(ep).pop_task(predicted);

        // Observe: count the attempt and, on a learned run, keep its record.
        self.task_monitor.count_attempt(ep, success);
        let duration = self.tasks.t_exec_end[t.index()]
            .saturating_since(self.tasks.t_exec_start[t.index()])
            .as_secs_f64();
        if self.keep_history {
            let input_bytes = self.dag.input_bytes(t);
            self.record_attempt(t, ep, input_bytes, duration, success);
            self.maybe_retrain();
        }

        if success {
            // A completed task is a liveness signal: it promotes a
            // Recovering endpoint back to Healthy. (Outage windows — not
            // stochastic task crashes — are what drive Down in the sim;
            // the live runtime infers liveness from probes instead.)
            if let Some(state) = self.health.record_success(ep) {
                self.rec.health(ep, state, now);
            }
            self.set_state(t, TaskState::Done, now);
            // The per-task attempt log only matters for the fatal
            // `TaskFailed` report; clean first-try successes (the
            // overwhelming majority) skip it entirely.
            if let Some(eps) = self.tasks.attempt_eps.get_mut(&t) {
                eps.push(ep);
            }
            self.completed += 1;
            self.makespan_end = now;
            self.tasks_per_ep[ep.index()] += 1;
            self.task_done(t, ep, predicted, now);
            // Dependencies resolve when the *client* observes the result
            // (it orchestrates successor staging). Indexed re-borrow per
            // successor instead of cloning the slice: the adjacency list
            // and `deps_remaining` are both fields of `self`.
            debug_assert!(self.ready_scratch.is_empty());
            for i in 0..self.dag.succs(t).len() {
                let s = self.dag.succs(t)[i];
                self.deps_remaining[s.index()] -= 1;
                if self.deps_remaining[s.index()] == 0 {
                    self.ready_scratch.push(s);
                }
            }
            self.mark_ready_batch(now, eng);
        } else {
            self.failed_attempts += 1;
            self.task_attempt_failed(t, ep, now, eng);
        }
        // The mock freed a slot: delayed tasks may now dispatch.
        self.worker_idle_loop(ep, now, eng);
    }

    fn mark_ready(&mut self, t: TaskId, now: SimTime, eng: &mut Engine<Ev>) {
        if self.fatal.is_some() {
            return;
        }
        self.set_state(t, TaskState::Ready, now);
        self.tasks.t_ready[t.index()] = now;
        self.sched_ready(t, now, eng);
    }

    /// Hands one ready task to the scheduler as a one-task ready run.
    fn sched_ready(&mut self, t: TaskId, now: SimTime, eng: &mut Engine<Ev>) {
        let actions = self.sched(now, |s, ctx| {
            s.on_tasks_ready(ctx, &[t]);
        });
        self.process_actions(actions, now, eng);
    }

    /// Batched counterpart of [`SimRuntime::mark_ready`] over the tasks in
    /// `ready_scratch`: all of them turn Ready at `now`, then the
    /// scheduler is driven through `on_tasks_ready` under the
    /// consume-a-prefix contract — each call consumes ≥ 1 task, the
    /// emitted actions are applied, and the hook re-enters with the
    /// unconsumed suffix. A scheduler that consumes one task per call is
    /// call-for-call identical to a `mark_ready` loop; the others coalesce
    /// hook overhead across a same-timestamp run without changing any
    /// decision.
    fn mark_ready_batch(&mut self, now: SimTime, eng: &mut Engine<Ev>) {
        if self.fatal.is_some() || self.ready_scratch.is_empty() {
            self.ready_scratch.clear();
            return;
        }
        let mut ready = std::mem::take(&mut self.ready_scratch);
        for &t in &ready {
            self.set_state(t, TaskState::Ready, now);
            self.tasks.t_ready[t.index()] = now;
        }
        let mut i = 0;
        while i < ready.len() && self.fatal.is_none() {
            let rest = &ready[i..];
            let mut consumed = 0usize;
            let actions = self.sched(now, |s, ctx| {
                consumed = s.on_tasks_ready(ctx, rest);
            });
            debug_assert!(
                consumed >= 1 && consumed <= rest.len(),
                "on_tasks_ready must consume a non-empty prefix ({consumed} of {})",
                rest.len()
            );
            self.process_actions(actions, now, eng);
            i += consumed.clamp(1, rest.len());
        }
        ready.clear();
        self.ready_scratch = ready;
    }

    fn task_attempt_failed(
        &mut self,
        t: TaskId,
        ep: EndpointId,
        now: SimTime,
        eng: &mut Engine<Ev>,
    ) {
        self.tasks.attempts[t.index()] += 1;
        self.tasks.record_failed_attempt(t, ep);
        self.rec.attempt_failed(ep);
        // The runtime takes over the task (§IV-G); the scheduler must drop
        // any reservations/queue entries it still holds for it.
        self.scheduler.on_task_removed(t);
        self.set_pending(t, None, now);
        if self.tasks.attempts[t.index()] >= self.cfg.max_task_attempts {
            self.set_state(t, TaskState::Failed, now);
            if self.fatal.is_none() {
                self.fatal = Some(UniFaasError::TaskFailed {
                    task: t,
                    attempts: self.tasks.failed_attempt_eps(t),
                });
            }
            return;
        }
        // §IV-G: first retry re-executes via the scheduler's decision
        // (same endpoint); further retries go to the endpoint with the
        // highest observed success rate.
        let retry_ep = if self.tasks.attempts[t.index()] == 1 {
            ep
        } else {
            self.task_monitor
                .best_endpoint_by_success(&self.compute_eps)
                .unwrap_or(ep)
        };
        self.set_state(t, TaskState::Ready, now);
        // Each attempt samples the latency stages afresh: without this
        // reset a retried task's staging stage would span every previous
        // attempt, double-counting time already attributed to them.
        self.tasks.t_ready[t.index()] = now;
        let attempts = self.tasks.attempts[t.index()];
        self.rec.retry(ep, t, attempts, now);
        let Some(retry_ep) = self.live_retry_ep(retry_ep) else {
            // Every compute endpoint is Down. Hand the task back to the
            // scheduler, which parks it until capacity returns (re-driven
            // by `on_capacity_change` at `OutageEnd`).
            self.sched_ready(t, now, eng);
            return;
        };
        let delay = self.cfg.retry.base_delay_seconds(attempts);
        if delay <= 0.0 {
            // Default policy: retry immediately — the pre-backoff code
            // path, taken without touching the jitter stream.
            self.do_stage(t, retry_ep, true, now, eng);
        } else {
            let jitter = self.cfg.retry.backoff_jitter;
            let factor = if jitter > 0.0 {
                1.0 + jitter * (2.0 * self.retry_rng.uniform01() - 1.0)
            } else {
                1.0
            };
            let gen = {
                self.tasks.retry_gen[t.index()] += 1;
                self.tasks.retry_gen[t.index()]
            };
            let at = now + SimDuration::from_secs_f64(delay * factor);
            eng.schedule(at, Ev::RetryTask(t, retry_ep, gen));
        }
    }

    /// The §IV-G retry target, diverted to a live endpoint when the
    /// preferred one is Down. `None` means every compute endpoint is Down.
    fn live_retry_ep(&self, preferred: EndpointId) -> Option<EndpointId> {
        if !self.health.is_down(preferred) {
            return Some(preferred);
        }
        let live: Vec<EndpointId> = self
            .compute_eps
            .iter()
            .copied()
            .filter(|e| !self.health.is_down(*e))
            .collect();
        if live.is_empty() {
            return None;
        }
        Some(
            self.task_monitor
                .best_endpoint_by_success(&live)
                .unwrap_or(live[0]),
        )
    }

    /// Reports `t`'s completion on `ep` with its latency stages.
    fn task_done(&mut self, t: TaskId, ep: EndpointId, predicted: f64, now: SimTime) {
        let i = t.index();
        let ts = &self.tasks;
        let stages = [
            ts.t_staged[i].saturating_since(ts.t_ready[i]),
            ts.t_arrived[i].saturating_since(ts.t_dispatched[i]),
            ts.t_exec_start[i].saturating_since(ts.t_arrived[i]),
            ts.t_exec_end[i].saturating_since(ts.t_exec_start[i]),
            now.saturating_since(ts.t_exec_end[i]),
        ]
        .map(|d| d.as_secs_f64());
        let target = ts.target[i];
        self.rec
            .task_done(t, ep, target, stages, predicted, &self.dag, now);
    }

    /// Appends one execution attempt of `t` on `ep` to the history. Learned
    /// runs only (see `keep_history`).
    fn record_attempt(
        &mut self,
        t: TaskId,
        ep: EndpointId,
        input_bytes: u64,
        duration_seconds: f64,
        success: bool,
    ) {
        let spec = self.dag.spec(t);
        let (func, output_bytes) = (spec.function, spec.output_bytes);
        // The `Dag` interns names: a history record clones a pointer.
        let function = Arc::clone(self.dag.function_arc(func));
        let f = &self.features[ep.index()];
        self.task_monitor.record(TaskRecord {
            function,
            endpoint: ep,
            input_bytes,
            duration_seconds,
            output_bytes,
            cores: f.cores,
            cpu_ghz: f.cpu_ghz,
            ram_gb: f.ram_gb,
            success,
        });
    }

    /// Appends one completed (or probed) transfer to the history for the
    /// transfer profiler. Learned runs only.
    fn record_transfer(&mut self, src: EndpointId, dst: EndpointId, bytes: u64, secs: f64) {
        self.task_monitor.record(TaskRecord {
            function: transfer_record_name(src, dst).into(),
            endpoint: dst,
            input_bytes: bytes,
            duration_seconds: secs,
            output_bytes: 0,
            cores: 0,
            cpu_ghz: 0.0,
            ram_gb: 0,
            success: true,
        });
    }

    fn maybe_retrain(&mut self) {
        if let ProfilerKind::Learned(p) = &mut self.profiler {
            let n = self.task_monitor.history().len();
            if n >= self.records_at_last_retrain + RETRAIN_EVERY {
                p.retrain(&self.task_monitor);
                self.records_at_last_retrain = n;
            }
        }
    }

    // ---- periodic machinery -------------------------------------------

    fn finished(&self) -> bool {
        (self.completed >= self.dag.len() && self.injections.iter().all(|i| i.is_none()))
            || self.fatal.is_some()
    }

    /// True if something is actively happening (transfers, dispatched or
    /// running tasks, workers in the batch queue). Counter reads — no task
    /// scan.
    fn system_active(&self) -> bool {
        self.active_task_count > 0
            || self.dm.transfers_outstanding() > 0
            || self.endpoints.iter().any(|e| e.pending_workers() > 0)
    }

    /// True if the run can still make forward progress without external
    /// events. Periodic ticks stop re-arming when this is false, so a
    /// stalled workflow (e.g. zero workers with scaling disabled) drains
    /// the event queue and surfaces an error instead of spinning forever.
    fn can_progress(&self) -> bool {
        if self.system_active() {
            return true;
        }
        if self.waiting_task_count == 0 {
            return false;
        }
        // Waiting tasks can proceed if idle workers exist (a sync/tick may
        // unblock a delayed dispatch) ...
        if self.endpoints.iter().any(|e| e.idle_workers() > 0) {
            return true;
        }
        // ... or if elastic scaling can still provision more workers.
        self.cfg.scaling.enabled
            && (0..self.endpoints.len()).any(|i| {
                let e = &self.endpoints[i];
                e.active_workers() + e.pending_workers() < self.cfg.endpoints[i].max_workers
            })
    }

    /// (Re-)arms the periodic tick events. Called at bootstrap and after
    /// any event that can revive a quiesced run (capacity change, worker
    /// commissioning, dynamic DAG injection).
    fn rearm_periodics(&mut self, eng: &mut Engine<Ev>) {
        if !self.mock_sync_armed {
            self.mock_sync_armed = true;
            eng.schedule_after(self.faas.status_sync_interval, Ev::MockSync);
        }
        if self.cfg.scaling.enabled && !self.scale_armed {
            self.scale_armed = true;
            eng.schedule_after(SCALE_INTERVAL, Ev::ScaleTick);
        }
        if self.scheduler.wants_ticks() && !self.resched_armed {
            self.resched_armed = true;
            eng.schedule_after(RESCHEDULE_INTERVAL, Ev::RescheduleTick);
        }
    }

    fn sync_mocks(&mut self, _now: SimTime) {
        if cfg!(debug_assertions) || self.cfg.verify {
            self.check_counters();
        }
        // Ground-truth outstanding per endpoint: the maintained counters.
        for ep in 0..self.endpoints.len() {
            let e = &self.endpoints[ep];
            self.monitor.mock_mut(EndpointId(ep as u16)).sync(
                e.active_workers(),
                self.ep_outstanding[ep],
                e.pending_workers(),
            );
        }
    }

    fn scale_tick(&mut self, now: SimTime, eng: &mut Engine<Ev>) {
        if cfg!(debug_assertions) || self.cfg.verify {
            self.check_counters();
        }
        // Ready tasks without a target yet (e.g. Locality's backlog while no
        // worker is idle anywhere) are demand visible to *every* endpoint —
        // the paper scales out "on all the endpoints" when pending tasks
        // exceed workers. Both figures are maintained counters.
        let (unassigned, unassigned_work) = (self.unassigned_ready, self.unassigned_work);
        let views: Vec<ScaleView> = (0..self.endpoints.len())
            .map(|i| {
                let e = &self.endpoints[i];
                let mock = self.monitor.mock(EndpointId(i as u16));
                ScaleView {
                    id: EndpointId(i as u16),
                    active_workers: e.active_workers(),
                    pending_workers: e.pending_workers(),
                    outstanding_tasks: self.pending_count[i] + e.busy_workers() + unassigned,
                    outstanding_work_seconds: mock.outstanding_work_seconds + unassigned_work,
                    idle_for: e.idle_duration(now),
                    max_workers: self.cfg.endpoints[i].max_workers,
                    workers_per_node: self.cfg.endpoints[i].workers_per_node,
                    provision_delay_s: e.cluster.provision_delay_s,
                }
            })
            .collect();
        let cmds = self.scaler.plan(&views, now);
        for cmd in cmds {
            match cmd {
                ScaleCommand::Out { ep, workers } => {
                    let granted = self.endpoints[ep.index()].request_workers(workers);
                    if granted > 0 {
                        let delay = self.endpoints[ep.index()].provision_delay();
                        eng.schedule(now + delay, Ev::Commission(ep, granted));
                    }
                }
                ScaleCommand::In { ep, workers } => {
                    self.endpoints[ep.index()].release_idle_workers(workers);
                    self.rec.workers(ep, now, &self.endpoints);
                    let e = &self.endpoints[ep.index()];
                    let (a, p) = (e.active_workers(), e.pending_workers());
                    let m = self.monitor.mock_mut(ep);
                    let out = m.outstanding_tasks;
                    m.sync(a, out, p);
                }
            }
        }
    }

    fn capacity_change(&mut self, idx: usize, now: SimTime, eng: &mut Engine<Ev>) {
        let ev = self.cfg.capacity_events[idx];
        let ep = EndpointId(ev.endpoint as u16);
        let preempted = self.endpoints[ep.index()].force_capacity_delta(ev.delta, now);
        self.rec.workers(ep, now, &self.endpoints);
        // Choose the most recently started running tasks as the preempted
        // ones (their batch nodes died); deterministic order.
        if preempted > 0 {
            let mut victims: Vec<(SimTime, TaskId)> = self.running[ep.index()]
                .iter()
                .map(|t| (self.tasks.t_exec_start[t.index()], *t))
                .collect();
            victims.sort_by(|a, b| b.0.cmp(&a.0).then(b.1.cmp(&a.1)));
            victims.truncate(preempted);
            for (_, t) in victims {
                let eid = self.running_remove(ep, t).expect("victim is running");
                eng.cancel(eid);
                self.monitor
                    .mock_mut(ep)
                    .pop_task(self.tasks.predicted_exec[t.index()]);
                // Lost progress: back to ready, rescheduled from scratch.
                self.mark_ready(t, now, eng);
            }
        }
        self.sync_mocks(now);
        let actions = self.sched(now, |s, ctx| s.on_capacity_change(ctx));
        self.process_actions(actions, now, eng);
        // New workers (positive delta) can start queued/staged tasks.
        self.try_start(ep, now, eng);
        self.worker_idle_loop(ep, now, eng);
        self.rearm_periodics(eng);
    }

    /// An outage window opens: mark the endpoint Down and proactively
    /// requeue its in-flight work (§IV-G) instead of letting each task
    /// fail at dispatch and burn an attempt.
    fn outage_start(&mut self, idx: usize, now: SimTime, eng: &mut Engine<Ev>) {
        let (ep, _, _) = self.outage_sched[idx];
        if let Some(state) = self.health.mark_down(ep) {
            self.rec.health(ep, state, now);
        }
        self.drain_endpoint(ep, now, eng);
        self.sync_mocks(now);
        let actions = self.sched(now, |s, ctx| s.on_capacity_change(ctx));
        self.process_actions(actions, now, eng);
        self.rearm_periodics(eng);
    }

    /// An outage window closes: the endpoint is Recovering (its first
    /// completed task promotes it to Healthy) and re-admits work.
    fn outage_end(&mut self, idx: usize, now: SimTime, eng: &mut Engine<Ev>) {
        let (ep, _, _) = self.outage_sched[idx];
        if let Some(state) = self.health.mark_recovering(ep) {
            self.rec.health(ep, state, now);
        }
        self.sync_mocks(now);
        let actions = self.sched(now, |s, ctx| s.on_capacity_change(ctx));
        self.process_actions(actions, now, eng);
        self.try_start(ep, now, eng);
        self.worker_idle_loop(ep, now, eng);
        self.rearm_periodics(eng);
    }

    /// Pulls every task bound to a now-Down endpoint back to Ready so the
    /// scheduler re-places it on live endpoints. Runs in ascending task-id
    /// order for determinism. Requeued tasks do not consume an attempt —
    /// the outage is the runtime's fault, not the task's.
    fn drain_endpoint(&mut self, ep: EndpointId, now: SimTime, eng: &mut Engine<Ev>) {
        let victims: Vec<TaskId> = (0..self.tasks.len() as u32)
            .map(TaskId)
            .filter(|t| {
                self.tasks.target[t.index()] == Some(ep)
                    && matches!(
                        self.tasks.state[t.index()],
                        TaskState::Staging
                            | TaskState::Staged
                            | TaskState::Dispatched
                            | TaskState::Running
                    )
            })
            .collect();
        // The endpoint-local queue empties wholesale; its entries are all
        // Dispatched victims handled below.
        self.ep_queues[ep.index()].clear();
        for t in victims {
            let state = self.tasks.state[t.index()];
            // The scheduler must drop any reservation it still holds.
            self.scheduler.on_task_removed(t);
            match state {
                TaskState::Running => {
                    match self.running_remove(ep, t) {
                        Some(eid) => {
                            eng.cancel(eid);
                            self.endpoints[ep.index()].release_worker(now);
                        }
                        // Only a swallowed attempt runs with no completion.
                        None => assert!(self.faults.has_swallow(ep), "running task tracked"),
                    }
                    let predicted = self.tasks.predicted_exec[t.index()];
                    self.monitor.mock_mut(ep).pop_task(predicted);
                }
                TaskState::Dispatched => {
                    // Queued at the endpoint or still in flight; the
                    // dispatch-generation guard voids an in-flight arrival.
                    let predicted = self.tasks.predicted_exec[t.index()];
                    self.monitor.mock_mut(ep).pop_task(predicted);
                }
                _ => {}
            }
            self.set_pending(t, None, now);
            self.mark_ready(t, now, eng);
        }
        self.rec.busy(ep, now, &self.endpoints);
        self.rec.staging(now, self.staging_count);
    }

    /// A backed-off retry fires. Stale generations (the task moved on) are
    /// dropped; a target that went Down while the backoff ran is diverted.
    fn retry_task(
        &mut self,
        t: TaskId,
        ep: EndpointId,
        gen: u32,
        now: SimTime,
        eng: &mut Engine<Ev>,
    ) {
        if self.fatal.is_some() {
            return;
        }
        if self.tasks.state[t.index()] != TaskState::Ready || self.tasks.retry_gen[t.index()] != gen
        {
            return;
        }
        match self.live_retry_ep(ep) {
            Some(ep) => self.do_stage(t, ep, true, now, eng),
            None => self.sched_ready(t, now, eng),
        }
    }

    /// The execution-timeout watchdog fires: if the attempt it armed for is
    /// still running, kill it and route through the failed-attempt path.
    fn exec_timeout(
        &mut self,
        t: TaskId,
        ep: EndpointId,
        gen: u32,
        now: SimTime,
        eng: &mut Engine<Ev>,
    ) {
        if self.fatal.is_some() {
            return;
        }
        if self.tasks.state[t.index()] != TaskState::Running
            || self.tasks.target[t.index()] != Some(ep)
            || self.tasks.attempts[t.index()] != gen
        {
            return;
        }
        match self.running_remove(ep, t) {
            Some(eid) => {
                eng.cancel(eid);
                self.endpoints[ep.index()].release_worker(now);
            }
            // A swallowed attempt holds no worker and no completion.
            None if self.faults.has_swallow(ep) => {}
            None => return,
        }
        let predicted = self.tasks.predicted_exec[t.index()];
        self.monitor.mock_mut(ep).pop_task(predicted);
        self.tasks.t_exec_end[t.index()] = now;
        self.rec.busy(ep, now, &self.endpoints);
        self.rec.task_fault(ep, t, now);
        // Count a failed attempt so §IV-G retry targeting learns which
        // endpoints strand straggler attempts.
        self.task_monitor.count_attempt(ep, false);
        if self.keep_history {
            let duration = now
                .saturating_since(self.tasks.t_exec_start[t.index()])
                .as_secs_f64();
            self.record_attempt(t, ep, 0, duration, false);
        }
        self.failed_attempts += 1;
        self.task_attempt_failed(t, ep, now, eng);
        self.try_start(ep, now, eng);
        self.worker_idle_loop(ep, now, eng);
    }

    fn inject(&mut self, idx: usize, now: SimTime, eng: &mut Engine<Ev>) {
        let Some((_, f)) = self.injections[idx].take() else {
            return;
        };
        let before = self.dag.len();
        f(&mut self.dag);
        let added: Vec<TaskId> = (before as u32..self.dag.len() as u32).map(TaskId).collect();
        if added.is_empty() {
            return;
        }
        self.tasks.grow(added.len());
        self.deps_remaining
            .resize(self.deps_remaining.len() + added.len(), 0);
        self.rec.grow(self.dag.len());
        self.register_inputs(&added);
        self.init_deps(&added);
        let actions = self.sched(now, |s, ctx| s.on_tasks_added(ctx, &added));
        self.process_actions(actions, now, eng);
        debug_assert!(self.ready_scratch.is_empty());
        for &t in &added {
            if self.deps_remaining[t.index()] == 0 {
                self.ready_scratch.push(t);
            }
        }
        self.mark_ready_batch(now, eng);
    }

    fn register_inputs(&mut self, tasks: &[TaskId]) {
        for &t in tasks {
            let bytes = self.dag.spec(t).external_input_bytes;
            if bytes == 0 {
                continue;
            }
            let id = external_input_id(t);
            self.dm.store.register(id, bytes, self.home);
            if self.prestage {
                for ep in &self.compute_eps {
                    self.dm.store.add_replica(id, *ep);
                }
            }
        }
    }

    fn init_deps(&mut self, tasks: &[TaskId]) {
        for &t in tasks {
            // Count only incomplete predecessors (dynamic tasks may depend
            // on already-finished ones).
            let remaining = self
                .dag
                .preds(t)
                .iter()
                .filter(|p| self.tasks.state[p.index()] != TaskState::Done)
                .count();
            self.deps_remaining[t.index()] = remaining;
        }
    }

    // ---- bootstrap / event loop / teardown ----------------------------

    /// Sends probing transfers across every endpoint pair and feeds the
    /// measured durations to the transfer profiler, so `Learned` runs start
    /// with per-pair bandwidth estimates instead of the generic default.
    fn probe_transfers(&mut self) {
        const PROBE_SIZES: [u64; 2] = [1 << 20, 32 << 20];
        let mut eps: Vec<EndpointId> = self.compute_eps.clone();
        if !eps.contains(&self.home) {
            eps.push(self.home);
        }
        for &src in &eps {
            for &dst in &eps {
                if src == dst {
                    continue;
                }
                for bytes in PROBE_SIZES {
                    let secs = self
                        .dm
                        .lone_transfer_duration(bytes, src, dst)
                        .as_secs_f64();
                    self.record_transfer(src, dst, bytes, secs);
                }
            }
        }
        if let ProfilerKind::Learned(p) = &mut self.profiler {
            p.retrain(&self.task_monitor);
            self.records_at_last_retrain = self.task_monitor.history().len();
        }
    }

    fn bootstrap(&mut self, eng: &mut Engine<Ev>) {
        let now = SimTime::ZERO;
        if self.cfg.probe_transfers && matches!(self.profiler, ProfilerKind::Learned(_)) {
            self.probe_transfers();
        }
        self.deps_remaining = vec![0; self.dag.len()];
        let all: Vec<TaskId> = self.dag.task_ids().collect();
        self.register_inputs(&all);
        self.init_deps(&all);
        self.rec.start(&self.endpoints);

        let actions = self.sched(now, |s, ctx| s.on_tasks_added(ctx, &all));
        self.process_actions(actions, now, eng);
        debug_assert!(self.ready_scratch.is_empty());
        for t in all {
            if self.deps_remaining[t.index()] == 0 {
                self.ready_scratch.push(t);
            }
        }
        self.mark_ready_batch(now, eng);

        // Periodic machinery.
        self.rearm_periodics(eng);
        for (i, ev) in self.cfg.capacity_events.clone().iter().enumerate() {
            eng.schedule(ev.at, Ev::CapacityChange(i));
        }
        let inj: Vec<(usize, SimTime)> = self
            .injections
            .iter()
            .enumerate()
            .filter_map(|(i, x)| x.as_ref().map(|(t, _)| (i, *t)))
            .collect();
        for (i, at) in inj {
            eng.schedule(at, Ev::Inject(i));
        }
        // Outage windows (none configured → no events → event stream is
        // bit-identical to a fault-free build).
        for (i, (_, from, to)) in self.outage_sched.clone().into_iter().enumerate() {
            eng.schedule(from, Ev::OutageStart(i));
            eng.schedule(to, Ev::OutageEnd(i));
        }
    }

    fn handle(&mut self, now: SimTime, ev: Ev, eng: &mut Engine<Ev>) {
        if self.rec.wants_deliveries() {
            let sample = FlightSample {
                completed: self.completed as u64,
                ready: self.waiting_task_count,
                executing: self.active_task_count,
                queue_pending: eng.pending(),
            };
            self.rec.delivery(now, ev_code(&ev), sample);
        }
        match ev {
            Ev::StagingCheck(t) => self.check_staged(t, now, eng),
            Ev::XferDone(x) => {
                let failed = self.faults.transfer_fails();
                let info = self.rec.wants_xfers().then(|| self.dm.xfer_info(x));
                let out = self.dm.complete(x, now, failed);
                if let Some(info) = info {
                    self.rec.xfer_end(x, &info, failed, out.observation, now);
                }
                if let Some((src, dst, bytes, secs)) = out.observation {
                    if self.keep_history {
                        self.record_transfer(src, dst, bytes, secs);
                        self.maybe_retrain();
                    }
                }
                self.xfers_started(&out.started, now, eng);
                for t in out.tasks_to_check {
                    self.check_staged(t, now, eng);
                }
                for t in out.failed_tasks {
                    if self.tasks.state[t.index()] == TaskState::Staging {
                        let ep = self.tasks.target[t.index()].expect("staging has target");
                        self.failed_attempts += 1;
                        // Leaving Staging (to retry or to Failed) adjusts
                        // the staging counter inside `set_state`.
                        self.task_attempt_failed(t, ep, now, eng);
                        self.rec.staging(now, self.staging_count);
                    }
                }
            }
            Ev::TaskArrive(t, ep, gen) => {
                // Stale arrival: the task was drained (endpoint outage) and
                // possibly re-dispatched while this event was in flight.
                if self.tasks.dispatch_gen[t.index()] != gen
                    || self.tasks.state[t.index()] != TaskState::Dispatched
                    || self.tasks.target[t.index()] != Some(ep)
                {
                    return;
                }
                self.tasks.t_arrived[t.index()] = now;
                self.ep_queues[ep.index()].push_back(t);
                self.rec.queued(t, ep, now);
                self.try_start(ep, now, eng);
            }
            Ev::ExecDone(t, ep) => self.exec_done(t, ep, now, eng),
            Ev::ResultObserved(t, ep, ok) => self.result_observed(t, ep, ok, now, eng),
            Ev::MockSync => {
                self.mock_sync_armed = false;
                self.sync_mocks(now);
                if !self.finished() && self.can_progress() {
                    self.mock_sync_armed = true;
                    eng.schedule(now + self.faas.status_sync_interval, Ev::MockSync);
                    // Corrected views may unblock delayed dispatches.
                    // Indexed loop: `compute_eps` is fixed after startup
                    // and cloning it here would allocate on every sync.
                    for i in 0..self.compute_eps.len() {
                        let ep = self.compute_eps[i];
                        self.worker_idle_loop(ep, now, eng);
                    }
                }
            }
            Ev::ScaleTick => {
                self.scale_armed = false;
                self.scale_tick(now, eng);
                let total_active: usize = self.endpoints.iter().map(|e| e.active_workers()).sum();
                // While any workers remain provisioned the scaler must keep
                // watching so idle-timeout scale-in fires even when the
                // workflow is between bursts of (injected) tasks.
                let keep_going = total_active > 0 || (!self.finished() && self.can_progress());
                if keep_going && self.fatal.is_none() {
                    self.scale_armed = true;
                    eng.schedule(now + SCALE_INTERVAL, Ev::ScaleTick);
                }
            }
            Ev::RescheduleTick => {
                self.resched_armed = false;
                let actions = self.sched(now, |s, ctx| s.on_tick(ctx));
                self.process_actions(actions, now, eng);
                if !self.finished() && self.can_progress() {
                    self.resched_armed = true;
                    eng.schedule(now + RESCHEDULE_INTERVAL, Ev::RescheduleTick);
                }
            }
            Ev::CapacityChange(i) => self.capacity_change(i, now, eng),
            Ev::Commission(ep, n) => {
                self.endpoints[ep.index()].commission_workers(n);
                self.rec.workers(ep, now, &self.endpoints);
                let e = &self.endpoints[ep.index()];
                let (a, p) = (e.active_workers(), e.pending_workers());
                let m = self.monitor.mock_mut(ep);
                let out = m.outstanding_tasks;
                m.sync(a, out, p);
                self.try_start(ep, now, eng);
                self.worker_idle_loop(ep, now, eng);
                self.rearm_periodics(eng);
            }
            Ev::Inject(i) => {
                self.inject(i, now, eng);
                self.rearm_periodics(eng);
            }
            Ev::OutageStart(i) => self.outage_start(i, now, eng),
            Ev::OutageEnd(i) => self.outage_end(i, now, eng),
            Ev::RetryTask(t, ep, gen) => self.retry_task(t, ep, gen, now, eng),
            Ev::ExecTimeout(t, ep, gen) => self.exec_timeout(t, ep, gen, now, eng),
        }
    }

    fn finish(
        mut self,
        events: u64,
        stats: EngineStats,
        journal: Option<JournalSummary>,
    ) -> Result<RunReport, UniFaasError> {
        if let Some(err) = self.fatal.take() {
            return Err(err);
        }
        if self.completed < self.dag.len() {
            // The event queue drained without finishing: a scheduling
            // deadlock (e.g. every compute endpoint at zero workers with
            // scaling disabled). Surface it as a configuration error.
            return Err(UniFaasError::InvalidConfig(format!(
                "workflow stalled: {}/{} tasks completed",
                self.completed,
                self.dag.len()
            )));
        }
        if self.cfg.verify {
            self.check_counters();
        }
        let tasks_per_endpoint = self
            .tasks_per_ep
            .iter()
            .enumerate()
            .map(|(i, n)| (self.cfg.endpoints[i].label.clone(), *n))
            .collect();
        let report = RunReport {
            scheduler: self.scheduler.name().to_string(),
            makespan: self.makespan_end.saturating_since(SimTime::ZERO),
            tasks_completed: self.completed,
            failed_attempts: self.failed_attempts,
            transfer_bytes: self.dm.bytes_moved(),
            tasks_per_endpoint,
            scheduler_calls: self.sched_calls,
            events_processed: events,
            journal,
            ..RunReport::default()
        };
        Ok(self.rec.finish(report, self.makespan_end, stats))
    }
}

// Compatibility shim: `rand` 0.8 exposes `next_u64` via RngCore.
trait NextU64Compat {
    fn next_u64_compat(&mut self) -> u64;
}

impl NextU64Compat for rand::rngs::StdRng {
    fn next_u64_compat(&mut self) -> u64 {
        rand::RngCore::next_u64(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EndpointConfig;
    use fedci::hardware::ClusterSpec;
    use taskgraph::TaskSpec;

    fn two_ep_config(strategy: SchedulingStrategy) -> Config {
        Config::builder()
            .endpoint(EndpointConfig::new("fast", ClusterSpec::taiyi(), 4))
            .endpoint(EndpointConfig::new("slow", ClusterSpec::qiming(), 2))
            .strategy(strategy)
            .build()
    }

    fn chain_dag(n: usize, secs: f64) -> Dag {
        let mut dag = Dag::new();
        let f = dag.register_function("step");
        let mut prev = None;
        for _ in 0..n {
            let deps: Vec<TaskId> = prev.into_iter().collect();
            prev = Some(dag.add_task(TaskSpec::compute(f, secs).with_output_bytes(1 << 20), &deps));
        }
        dag
    }

    fn bag_dag(n: usize, secs: f64) -> Dag {
        let mut dag = Dag::new();
        let f = dag.register_function("bag");
        for _ in 0..n {
            dag.add_task(TaskSpec::compute(f, secs), &[]);
        }
        dag
    }

    /// `DELIVERY_KINDS` is indexed by `ev_code`'s kind: each entry names
    /// its `Ev` variant, and flags exactly the kinds whose `a` is a task.
    #[test]
    fn delivery_kinds_match_the_event_encoding() {
        use crate::runtime::record::DELIVERY_KINDS;
        let (t, ep) = (TaskId(7), EndpointId(1));
        let evs = [
            Ev::StagingCheck(t),
            Ev::XferDone(XferId(3)),
            Ev::TaskArrive(t, ep, 2),
            Ev::ExecDone(t, ep),
            Ev::ResultObserved(t, ep, true),
            Ev::MockSync,
            Ev::ScaleTick,
            Ev::RescheduleTick,
            Ev::CapacityChange(0),
            Ev::Commission(ep, 4),
            Ev::Inject(0),
            Ev::OutageStart(0),
            Ev::OutageEnd(0),
            Ev::RetryTask(t, ep, 1),
            Ev::ExecTimeout(t, ep, 1),
        ];
        assert_eq!(evs.len(), DELIVERY_KINDS.len());
        for (i, ev) in evs.iter().enumerate() {
            let code = ev_code(ev);
            let kind = DELIVERY_KINDS[i];
            assert_eq!(code.kind as usize, i, "{ev:?}");
            assert!(format!("{ev:?}").starts_with(kind.name), "{ev:?}");
            assert_eq!(kind.task, code.a == 7, "{ev:?}");
        }
    }

    #[test]
    fn runs_chain_with_all_strategies() {
        for strategy in [
            SchedulingStrategy::Capacity,
            SchedulingStrategy::Locality,
            SchedulingStrategy::Dha { rescheduling: true },
            SchedulingStrategy::Dha {
                rescheduling: false,
            },
        ] {
            let report = SimRuntime::new(two_ep_config(strategy.clone()), chain_dag(5, 10.0))
                .run()
                .unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
            assert_eq!(report.tasks_completed, 5, "{strategy:?}");
            // A 5×10 s chain takes at least 50/1.4 s even on the fastest
            // endpoint.
            assert!(
                report.makespan >= SimDuration::from_secs(35),
                "{strategy:?}: makespan {}",
                report.makespan
            );
            assert_eq!(report.failed_attempts, 0);
        }
    }

    #[test]
    fn bag_of_tasks_parallelizes() {
        let report = SimRuntime::new(
            two_ep_config(SchedulingStrategy::Locality),
            bag_dag(12, 30.0),
        )
        .run()
        .unwrap();
        assert_eq!(report.tasks_completed, 12);
        // 12 tasks on 6 workers: two waves ≈ 60 s at reference speed,
        // clearly below the serial 360 s.
        assert!(
            report.makespan < SimDuration::from_secs(150),
            "makespan {}",
            report.makespan
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            SimRuntime::new(
                two_ep_config(SchedulingStrategy::Dha { rescheduling: true }),
                chain_dag(8, 5.0),
            )
            .run()
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.transfer_bytes, b.transfer_bytes);
        assert_eq!(a.events_processed, b.events_processed);
    }

    /// The meter times the scheduler's hooks and nothing else changes: the
    /// same decisions, hook calls and digests, and no wall time without it.
    #[test]
    fn metering_times_the_scheduler_without_changing_a_decision() {
        let run = |metered: bool| {
            let mut cfg = two_ep_config(SchedulingStrategy::Dha { rescheduling: true });
            cfg.verify = true;
            SimRuntime::new(cfg, bag_dag(40, 60.0))
                .with_metrics(metered)
                .run()
                .unwrap()
        };
        let (plain, metered) = (run(false), run(true));
        assert_eq!(plain.determinism_digest(), metered.determinism_digest());
        assert!(plain.decision_digest.is_some());
        assert_eq!(plain.decision_digest, metered.decision_digest);
        assert_eq!(plain.scheduler_calls, metered.scheduler_calls);
        assert_eq!(plain.scheduler_wall, std::time::Duration::ZERO);
        assert!(metered.scheduler_wall > std::time::Duration::ZERO);
    }

    #[test]
    fn heterogeneity_aware_dha_prefers_fast_endpoint() {
        let mut cfg = two_ep_config(SchedulingStrategy::Dha { rescheduling: true });
        cfg.exec_noise_cv = 0.0;
        let report = SimRuntime::new(cfg, bag_dag(40, 60.0)).run().unwrap();
        let fast = report
            .tasks_per_endpoint
            .iter()
            .find(|(l, _)| l == "fast")
            .unwrap()
            .1;
        let slow = report
            .tasks_per_endpoint
            .iter()
            .find(|(l, _)| l == "slow")
            .unwrap()
            .1;
        // fast has 2× workers and 1.4× speed: it must take the lion's
        // share.
        assert!(fast > slow * 2, "fast={fast} slow={slow}");
    }

    #[test]
    fn transfer_bytes_counted_for_cross_endpoint_chains() {
        // A chain under Capacity on one endpoint: everything stays local.
        let cfg = Config::builder()
            .endpoint(EndpointConfig::new("only", ClusterSpec::qiming(), 4))
            .strategy(SchedulingStrategy::Capacity)
            .build();
        let report = SimRuntime::new(cfg, chain_dag(6, 2.0)).run().unwrap();
        assert_eq!(
            report.transfer_bytes, 0,
            "single endpoint must not transfer"
        );
    }

    #[test]
    fn external_inputs_prestage_toggle() {
        let mut dag = Dag::new();
        let f = dag.register_function("reader");
        dag.add_task(
            TaskSpec::compute(f, 1.0).with_external_input_bytes(10 << 20),
            &[],
        );
        let cfg = || {
            Config::builder()
                .endpoint(EndpointConfig::new("ep", ClusterSpec::qiming(), 2))
                .strategy(SchedulingStrategy::Locality)
                .build()
        };
        let pre = SimRuntime::new(cfg(), dag.clone()).run().unwrap();
        assert_eq!(pre.transfer_bytes, 0);
        let cold = SimRuntime::new(cfg(), dag)
            .prestage_inputs(false)
            .run()
            .unwrap();
        assert_eq!(cold.transfer_bytes, 10 << 20, "input must move from home");
        assert!(cold.makespan > pre.makespan);
    }

    fn fault(cfg: &mut Config, rule: &str) {
        cfg.faults.push(rule.parse().unwrap());
    }

    #[test]
    fn swallowed_attempts_are_recovered_by_the_watchdog() {
        let mut cfg = two_ep_config(SchedulingStrategy::Locality);
        fault(&mut cfg, "swallow ep=0 every=3");
        cfg.retry.exec_timeout = Some(SimDuration::from_secs(60));
        cfg.max_task_attempts = 10;
        let report = SimRuntime::new(cfg.clone(), bag_dag(24, 5.0))
            .run()
            .unwrap();
        assert_eq!(report.tasks_completed, 24);
        assert!(
            report.failed_attempts > 0,
            "every 3rd attempt on ep 0 is lost"
        );
        cfg.faults = Default::default();
        fault(&mut cfg, "swallow every=1");
        let err = SimRuntime::new(cfg, bag_dag(2, 1.0)).run().unwrap_err();
        assert!(matches!(err, UniFaasError::TaskFailed { .. }));
    }

    #[test]
    fn delay_adds_to_execution_time() {
        let run = |rules: &[&str]| {
            let mut cfg = two_ep_config(SchedulingStrategy::Locality);
            rules.iter().for_each(|r| fault(&mut cfg, r));
            SimRuntime::new(cfg, chain_dag(4, 5.0)).run().unwrap()
        };
        let (plain, late) = (run(&[]), run(&["delay ms=2000"]));
        assert_eq!(late.tasks_completed, 4);
        let extra = late.latency.execution_s - plain.latency.execution_s;
        assert!((extra - 8.0).abs() < 1e-6, "4 attempts × 2 s, got {extra}");
    }

    #[test]
    fn task_failures_are_retried_and_reassigned() {
        let mut cfg = two_ep_config(SchedulingStrategy::Locality);
        fault(&mut cfg, "task-fail p=0.3");
        cfg.max_task_attempts = 10;
        let report = SimRuntime::new(cfg, bag_dag(30, 5.0)).run().unwrap();
        assert_eq!(report.tasks_completed, 30);
        assert!(report.failed_attempts > 0, "with p=0.3 some attempts fail");
    }

    #[test]
    fn fatal_when_task_fails_everywhere() {
        let mut cfg = two_ep_config(SchedulingStrategy::Locality);
        fault(&mut cfg, "task-fail p=1");
        cfg.max_task_attempts = 3;
        let err = SimRuntime::new(cfg, bag_dag(2, 1.0)).run().unwrap_err();
        assert!(matches!(err, UniFaasError::TaskFailed { .. }));
    }

    #[test]
    fn outage_drains_endpoint_and_workflow_completes() {
        // "fast" is down for the entire run: everything it was assigned at
        // t=0 must be drained, reassigned and completed by "slow".
        let mut cfg = two_ep_config(SchedulingStrategy::Locality);
        fault(&mut cfg, "down ep=0 from=1 to=100000");
        let report = SimRuntime::new(cfg, bag_dag(24, 30.0)).run().unwrap();
        assert_eq!(report.tasks_completed, 24);
        let by_label = |l: &str| {
            report
                .tasks_per_endpoint
                .iter()
                .find(|(label, _)| label == l)
                .unwrap()
                .1
        };
        assert_eq!(by_label("fast"), 0, "down endpoint must not execute");
        assert_eq!(by_label("slow"), 24);
    }

    #[test]
    fn outage_recovery_readmits_endpoint() {
        // "fast" is down [1, 40). Tasks injected after recovery must be
        // able to land on it again (4 idle workers beat the busy "slow").
        let mut cfg = two_ep_config(SchedulingStrategy::Locality);
        fault(&mut cfg, "down ep=0 from=1 to=40");
        let mut rt = SimRuntime::new(cfg, bag_dag(6, 300.0));
        rt.inject_at(SimTime::from_secs(60), |dag| {
            let f = dag.register_function("late");
            for _ in 0..4 {
                dag.add_task(TaskSpec::compute(f, 10.0), &[]);
            }
        });
        let report = rt.run().unwrap();
        assert_eq!(report.tasks_completed, 10);
        let fast = report
            .tasks_per_endpoint
            .iter()
            .find(|(l, _)| l == "fast")
            .unwrap()
            .1;
        assert!(fast > 0, "recovered endpoint was never re-admitted");
    }

    #[test]
    fn retry_backoff_delays_reassignment() {
        let base = || {
            let mut cfg = two_ep_config(SchedulingStrategy::Locality);
            fault(&mut cfg, "task-fail p=0.5");
            cfg.max_task_attempts = 20;
            cfg
        };
        let fast = SimRuntime::new(base(), bag_dag(10, 5.0)).run().unwrap();
        assert!(fast.failed_attempts > 0, "p=0.5 must produce failures");

        let mut slow_cfg = base();
        slow_cfg.retry.backoff_base = SimDuration::from_secs(30);
        let slow = SimRuntime::new(slow_cfg, bag_dag(10, 5.0)).run().unwrap();
        assert_eq!(slow.tasks_completed, 10);
        assert!(
            slow.makespan > fast.makespan,
            "backoff must lengthen the faulted run: {} vs {}",
            slow.makespan,
            fast.makespan
        );
    }

    #[test]
    fn exec_timeout_kills_stragglers() {
        // Heavy execution noise + a timeout at ~3× the nominal duration:
        // straggler attempts are killed and retried with a fresh draw.
        let mut cfg = two_ep_config(SchedulingStrategy::Locality);
        cfg.exec_noise_cv = 1.5;
        cfg.max_task_attempts = 30;
        cfg.retry.exec_timeout = Some(SimDuration::from_secs(30));
        let report = SimRuntime::new(cfg, bag_dag(40, 10.0)).run().unwrap();
        assert_eq!(report.tasks_completed, 40);
        assert!(
            report.failed_attempts > 0,
            "cv=1.5 must produce at least one straggler kill"
        );
        // No attempt's execution stage may exceed the timeout by more than
        // rounding: the watchdog bounds execution latency.
        assert!(
            report.makespan < SimDuration::from_secs(3_000),
            "timeout bounds stragglers, makespan {}",
            report.makespan
        );
    }

    #[test]
    fn zero_fault_knobs_are_bit_identical_to_default() {
        // Presence of retry/health configuration with zero probabilities
        // and no outages must not perturb a single event.
        let run = |cfg: Config| SimRuntime::new(cfg, chain_dag(8, 5.0)).run().unwrap();
        let baseline = run(two_ep_config(SchedulingStrategy::Dha {
            rescheduling: true,
        }));
        let mut knobs = two_ep_config(SchedulingStrategy::Dha { rescheduling: true });
        knobs.retry = crate::config::RetryPolicy {
            backoff_base: SimDuration::from_secs(17),
            backoff_factor: 3.0,
            backoff_max: SimDuration::from_secs(500),
            backoff_jitter: 0.5,
            // Note: an exec_timeout would add (harmless, state-guarded)
            // watchdog events to the count, so enabling it is the one
            // retry knob that is not event-free.
            exec_timeout: None,
        };
        knobs.health = crate::monitor::HealthPolicy {
            suspect_after: 1,
            down_after: 2,
            recover_after: 2,
        };
        let with_knobs = run(knobs);
        assert_eq!(
            baseline.determinism_digest(),
            with_knobs.determinism_digest(),
            "fault machinery must be pay-for-what-you-use"
        );
        assert_eq!(baseline.events_processed, with_knobs.events_processed);
    }

    #[test]
    fn transfer_failures_retry_transparently() {
        let mut cfg = two_ep_config(SchedulingStrategy::Locality);
        fault(&mut cfg, "transfer-fail p=0.2");
        cfg.max_transfer_retries = 10;
        let report = SimRuntime::new(cfg, chain_dag(6, 2.0)).run().unwrap();
        assert_eq!(report.tasks_completed, 6);
    }

    #[test]
    fn capacity_event_grows_pool() {
        let cfg = Config::builder()
            .endpoint(EndpointConfig::new("ep", ClusterSpec::qiming(), 2))
            .strategy(SchedulingStrategy::Dha { rescheduling: true })
            .capacity_event(10, 0, 8)
            .build();
        let report = SimRuntime::new(cfg, bag_dag(40, 30.0)).run().unwrap();
        assert_eq!(report.tasks_completed, 40);
        // With 10 workers after t=10 the 40×30 s bag finishes far sooner
        // than the 600 s it would take on 2 workers.
        assert!(
            report.makespan < SimDuration::from_secs(400),
            "makespan {}",
            report.makespan
        );
    }

    #[test]
    fn capacity_event_shrink_preempts_and_recovers() {
        let cfg = Config::builder()
            .endpoint(EndpointConfig::new("a", ClusterSpec::qiming(), 8))
            .endpoint(EndpointConfig::new("b", ClusterSpec::qiming(), 2))
            .strategy(SchedulingStrategy::Dha { rescheduling: true })
            .capacity_event(5, 0, -7)
            .build();
        let report = SimRuntime::new(cfg, bag_dag(20, 20.0)).run().unwrap();
        assert_eq!(report.tasks_completed, 20);
    }

    #[test]
    fn dynamic_dag_growth() {
        let cfg = two_ep_config(SchedulingStrategy::Locality);
        let mut rt = SimRuntime::new(cfg, bag_dag(4, 10.0));
        rt.inject_at(SimTime::from_secs(5), |dag| {
            let f = dag.register_function("late");
            // Depend on an existing task to exercise cross-batch deps.
            dag.add_task(TaskSpec::compute(f, 5.0), &[TaskId(0)]);
            dag.add_task(TaskSpec::compute(f, 5.0), &[]);
        });
        let report = rt.run().unwrap();
        assert_eq!(report.tasks_completed, 6);
    }

    #[test]
    fn learned_knowledge_mode_completes() {
        let mut cfg = two_ep_config(SchedulingStrategy::Dha { rescheduling: true });
        cfg.knowledge = KnowledgeMode::Learned;
        let report = SimRuntime::new(cfg, bag_dag(100, 10.0)).run().unwrap();
        assert_eq!(report.tasks_completed, 100);
    }

    #[test]
    fn elasticity_scales_out_and_in() {
        let mut cfg = Config::builder()
            .endpoint(EndpointConfig::new("ep", ClusterSpec::lab_cluster(), 0).elastic(0, 20, 5))
            .strategy(SchedulingStrategy::Locality)
            .build();
        cfg.scaling.enabled = true;
        cfg.scaling.idle_timeout = SimDuration::from_secs(30);
        let report = SimRuntime::new(cfg, bag_dag(20, 10.0)).run().unwrap();
        assert_eq!(report.tasks_completed, 20);
        // Workers were provisioned at some point...
        let ep_active = report.series.active_workers.get("ep").unwrap();
        let peak = ep_active
            .points()
            .iter()
            .map(|(_, v)| *v)
            .fold(0.0, f64::max);
        assert!(peak >= 20.0, "peak workers {peak}");
        // ...and released after the idle timeout.
        let last = ep_active.points().last().unwrap().1;
        assert_eq!(last, 0.0, "workers must scale in to zero at the end");
    }

    #[test]
    fn stalled_workflow_is_an_error() {
        // One endpoint with zero workers and no scaling: tasks can never
        // run.
        let cfg = Config::builder()
            .endpoint(EndpointConfig::new("dead", ClusterSpec::qiming(), 0).elastic(0, 1, 1))
            .strategy(SchedulingStrategy::Locality)
            .build();
        let err = SimRuntime::new(cfg, bag_dag(1, 1.0)).run().unwrap_err();
        assert!(matches!(err, UniFaasError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn latency_breakdown_populates() {
        let report = SimRuntime::new(two_ep_config(SchedulingStrategy::Locality), bag_dag(5, 2.0))
            .run()
            .unwrap();
        let (_, _, submission, _, exec, poll) = report.latency.means();
        assert!(exec > 1.0, "execution ≈ 2 s / speed, got {exec}");
        assert!(submission > 0.0);
        assert!(poll > 0.0);
    }

    #[test]
    fn series_track_utilization() {
        let report = SimRuntime::new(
            two_ep_config(SchedulingStrategy::Locality),
            bag_dag(30, 20.0),
        )
        .run()
        .unwrap();
        // Mid-run, most of the 6 workers should be busy.
        let mid = SimTime::from_secs_f64(report.makespan.as_secs_f64() / 2.0);
        assert!(
            report.series.utilization_at(mid) > 0.5,
            "utilization {}",
            report.series.utilization_at(mid)
        );
        assert!(report.mean_utilization() > 0.3);
    }
}
