//! A real-threads execution fabric.
//!
//! While the discrete-event backend reproduces paper-scale experiments,
//! these per-endpoint worker thread pools execute actual Rust closures —
//! the same shape as a funcX endpoint's worker processes. Their one owner
//! is [`ThreadedFabric`](crate::fabric::ThreadedFabric), the in-process
//! backend the examples and the `threaded-fanout` benchmark run on, and its
//! tests are theirs.
//!
//! Faults act at submission, so the worker loop has none to check: a pool
//! marked down (`ThreadedFabric::set_down`) fails its probe and drops its
//! queued and new jobs, and a fault plan's `swallow` drops every k-th
//! submission (a crashed worker that never reports) and its `delay` makes
//! each job sleep first. The fabric runtime's retry watchdog is what
//! recovers the dropped work.

use crate::fault::AttemptFaults;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use simkit::metrics::{CounterId, GaugeId, MetricsRegistry};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A job returns an optional follow-up that runs *after* the worker is
/// marked idle again — completion callbacks that may inspect pool state
/// (e.g. to place dependent tasks) use this so the finishing worker counts
/// as free, like a funcX worker that reports its result after releasing.
type Followup = Box<dyn FnOnce() + Send + 'static>;
type Job = Box<dyn FnOnce() -> Option<Followup> + Send + 'static>;

/// Metric handles for one pool (see [`ThreadedEndpoint::register_metrics`]),
/// plus the counter high-water marks that keep sampled counters monotone.
pub struct PoolMetricIds {
    workers: GaugeId,
    busy: GaugeId,
    up: GaugeId,
    completed: CounterId,
    crashed: CounterId,
    last_completed: u64,
    last_crashed: u64,
}

/// A pool of worker threads representing one endpoint's workers.
///
/// Each worker executes one job at a time, mirroring the funcX model where
/// each worker process runs a single function invocation.
///
/// The struct is 128 bytes. Growing or shrinking it by 8 moved the
/// `threaded-fanout` benchmark's peak RSS up by about 12 % (glibc heap
/// layout, 2-core x86-64 box), so rarely used state lives behind a pointer.
pub struct ThreadedEndpoint {
    name: String,
    tx: Option<Sender<Job>>,
    rx: Receiver<Job>,
    /// Workers started so far: like a thread pool's core threads, each of
    /// the first `n_workers` submissions starts one (a funcX endpoint
    /// provisions workers when tasks arrive), so an idle pool costs nothing.
    pub(crate) handles: Mutex<Vec<JoinHandle<()>>>,
    started: AtomicUsize,
    counters: Arc<PoolCounters>,
    n_workers: usize,
    /// The operator's switch: the probe fails and jobs are dropped.
    down: AtomicBool,
    /// The plan's `swallow`/`delay` for this pool and the submissions
    /// counted for `swallow`; `None` without either, so an unfaulted pool
    /// allocates nothing for them.
    faults: Option<Box<(AttemptFaults, AtomicU64)>>,
}

/// A pool's job counters, shared with its workers.
#[derive(Default)]
struct PoolCounters {
    busy: AtomicUsize,
    completed: AtomicUsize,
    /// Jobs dropped while down or by a `swallow` rule.
    swallowed: AtomicUsize,
}

impl ThreadedEndpoint {
    /// A pool of `n_workers` worker threads named after the endpoint. An
    /// idle worker blocks on the queue until a job or its closure arrives.
    pub fn new(name: &str, n_workers: usize) -> Self {
        assert!(n_workers > 0, "an endpoint needs at least one worker");
        let (tx, rx): (Sender<Job>, Receiver<Job>) = unbounded();
        ThreadedEndpoint {
            name: name.to_string(),
            tx: Some(tx),
            rx,
            handles: Mutex::new(Vec::with_capacity(n_workers)),
            started: AtomicUsize::new(0),
            counters: Arc::default(),
            n_workers,
            down: AtomicBool::new(false),
            faults: None,
        }
    }

    /// Installs the plan's `swallow`/`delay` for this pool.
    pub fn set_faults(&mut self, faults: AttemptFaults) {
        let active = faults.swallow_every > 0 || faults.delay_ms > 0;
        self.faults = active.then(|| Box::new((faults, AtomicU64::new(0))));
    }

    /// Starts the next worker unless all `n_workers` already run.
    fn start_worker(&self) {
        let mut handles = self.handles.lock();
        if handles.len() == self.n_workers {
            return;
        }
        let rx = self.rx.clone();
        let counters = Arc::clone(&self.counters);
        let handle = std::thread::Builder::new()
            .name(format!("{}-worker-{}", self.name, handles.len()))
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    counters.busy.fetch_add(1, Ordering::SeqCst);
                    let followup = job();
                    counters.busy.fetch_sub(1, Ordering::SeqCst);
                    counters.completed.fetch_add(1, Ordering::SeqCst);
                    if let Some(f) = followup {
                        f();
                    }
                }
            })
            .expect("failed to spawn worker thread");
        handles.push(handle);
        self.started.store(handles.len(), Ordering::SeqCst);
    }

    /// Number of workers.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Workers currently executing a job (racy snapshot, for monitoring).
    pub fn busy_workers(&self) -> usize {
        self.counters.busy.load(Ordering::SeqCst)
    }

    /// Liveness probe: answers whether the endpoint would accept work.
    /// The real-fabric analogue of a heartbeat — a pool marked down stops
    /// answering, and health monitors treat that as a missed probe.
    pub fn responsive(&self) -> bool {
        !self.down.load(Ordering::Relaxed)
    }

    /// Marks the pool down (dropping the jobs it has queued) or back up.
    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::Relaxed);
        if down {
            while let Ok(job) = self.rx.try_recv() {
                drop(job);
                self.counters.swallowed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// True when this submission is lost: the pool is down, or it is the
    /// k-th of a `swallow every=k`.
    fn drops_next(&self) -> bool {
        match self.faults.as_deref() {
            _ if !self.responsive() => true,
            Some((f, seen)) if f.swallow_every > 0 => {
                let n = seen.fetch_add(1, Ordering::SeqCst) + 1;
                n.is_multiple_of(f.swallow_every)
            }
            _ => false,
        }
    }

    /// Enqueues a job whose returned follow-up (if any) runs after the
    /// worker has been marked idle. A dropped job (and the completion it
    /// holds) never runs, like one a crashed worker took: recovery is the
    /// submitter's watchdog's job.
    pub fn submit_then<F>(&self, job: F)
    where
        F: FnOnce() -> Option<Followup> + Send + 'static,
    {
        if self.drops_next() {
            self.counters.swallowed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let job: Job = match self.faults.as_deref() {
            Some((f, _)) if f.delay_ms > 0 => {
                let delay = Duration::from_millis(f.delay_ms);
                Box::new(move || {
                    std::thread::sleep(delay);
                    job()
                })
            }
            _ => Box::new(job),
        };
        if self.started.load(Ordering::SeqCst) < self.n_workers {
            self.start_worker();
        }
        self.tx
            .as_ref()
            .expect("endpoint already shut down")
            .send(job)
            .expect("the pool keeps a receiver");
    }

    /// Registers this pool's gauge/counter families in `reg`, labelled by
    /// endpoint name. Pair with [`ThreadedEndpoint::sample_metrics`] before
    /// the registry is rendered.
    pub fn register_metrics(&self, reg: &mut MetricsRegistry) -> PoolMetricIds {
        let l = &[("endpoint", self.name.as_str())];
        PoolMetricIds {
            workers: reg.gauge("fedci_pool_workers", "Worker threads in the pool.", l),
            busy: reg.gauge(
                "fedci_pool_busy_workers",
                "Workers currently executing a job.",
                l,
            ),
            up: reg.gauge(
                "fedci_pool_up",
                "1 while the pool answers its liveness probe.",
                l,
            ),
            completed: reg.counter(
                "fedci_pool_jobs_completed_total",
                "Jobs executed to completion.",
                l,
            ),
            crashed: reg.counter(
                "fedci_pool_jobs_crashed_total",
                "Jobs swallowed by fault injection.",
                l,
            ),
            last_completed: 0,
            last_crashed: 0,
        }
    }

    /// Snapshots the pool's atomics into `reg`. Counters advance by the
    /// delta since the previous sample (`ids` remembers the high-water
    /// marks), so repeated samples stay monotone.
    pub fn sample_metrics(&self, reg: &mut MetricsRegistry, ids: &mut PoolMetricIds) {
        reg.set(ids.workers, self.n_workers as f64);
        reg.set(ids.busy, self.busy_workers() as f64);
        reg.set(ids.up, if self.responsive() { 1.0 } else { 0.0 });
        let completed = self.counters.completed.load(Ordering::SeqCst) as u64;
        reg.inc(
            ids.completed,
            completed.saturating_sub(ids.last_completed) as f64,
        );
        ids.last_completed = completed;
        let crashed = self.counters.swallowed.load(Ordering::Relaxed) as u64;
        reg.inc(ids.crashed, crashed.saturating_sub(ids.last_crashed) as f64);
        ids.last_crashed = crashed;
    }
}

impl Drop for ThreadedEndpoint {
    /// Drains the queue and joins all workers.
    fn drop(&mut self) {
        if let Some(tx) = self.tx.take() {
            drop(tx); // close the channel; workers exit after draining
            let me = std::thread::current().id();
            for h in self.handles.lock().drain(..) {
                // The last handle on the pool can die inside a job's
                // follow-up; that worker cannot join itself, so it is
                // detached and exits once the queue is drained.
                if h.thread().id() != me {
                    let _ = h.join();
                }
            }
        }
    }
}
