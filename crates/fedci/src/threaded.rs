//! A real-threads execution fabric.
//!
//! While the discrete-event backend reproduces paper-scale experiments,
//! these per-endpoint worker thread pools execute actual Rust closures —
//! the same shape as a funcX endpoint's worker processes. Their one owner
//! is [`ThreadedFabric`](crate::fabric::ThreadedFabric), the in-process
//! backend the examples and the `threaded-fanout` benchmark run on.
//!
//! The pools support fault injection for chaos testing ([`PoolFaults`]):
//! a pool can be marked down (its liveness probe fails and placement
//! avoids it), made to silently swallow every Nth job (a crashed worker
//! that never reports), or slowed by a fixed delay. The fabric runtime's
//! retry watchdog is what recovers the swallowed work.

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
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

/// How long an idle worker blocks on the queue before re-checking pool
/// state (fault flags, channel closure). The previous implementation
/// blocked indefinitely; this is the configurable poll/shutdown timeout.
pub const DEFAULT_POLL_TIMEOUT: Duration = Duration::from_secs(5);

/// Fault-injection switches for one pool, shared with its workers.
///
/// All switches default to off, in which case the worker loop behaves
/// exactly as a fault-free pool. Deterministic by construction: "crash
/// every Nth job" is countable in tests, unlike a probabilistic coin.
#[derive(Debug, Default)]
pub struct PoolFaults {
    /// Endpoint outage: the liveness probe fails and workers swallow
    /// every job (they crash rather than execute).
    down: AtomicBool,
    /// Swallow every Nth job pulled (0 = never): the worker takes the job
    /// and never runs it or reports back, like a worker process dying
    /// mid-execution.
    crash_every: AtomicUsize,
    /// Fixed extra latency per job, in milliseconds (straggler injection).
    delay_ms: AtomicU64,
    /// Jobs pulled from the queue (crashed or executed).
    jobs_seen: AtomicUsize,
    /// Jobs swallowed by fault injection.
    jobs_crashed: AtomicUsize,
}

impl PoolFaults {
    /// Marks the pool down (or back up).
    pub fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::SeqCst);
    }

    /// True while the pool is marked down.
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::SeqCst)
    }

    /// Swallow every `n`th job (0 disables crash injection).
    pub fn set_crash_every(&self, n: usize) {
        self.crash_every.store(n, Ordering::SeqCst);
    }

    /// Adds `delay` of extra latency to every job.
    pub fn set_delay(&self, delay: Duration) {
        self.delay_ms
            .store(delay.as_millis() as u64, Ordering::SeqCst);
    }

    /// Jobs swallowed so far.
    pub fn crashed_jobs(&self) -> usize {
        self.jobs_crashed.load(Ordering::SeqCst)
    }

    /// Decides the fate of the next pulled job. Returns `true` when the
    /// job must be swallowed.
    fn swallows_next(&self) -> bool {
        let n = self.jobs_seen.fetch_add(1, Ordering::SeqCst) + 1;
        let crash_every = self.crash_every.load(Ordering::SeqCst);
        let crash =
            self.down.load(Ordering::SeqCst) || (crash_every > 0 && n.is_multiple_of(crash_every));
        if crash {
            self.jobs_crashed.fetch_add(1, Ordering::SeqCst);
        }
        crash
    }

    fn delay(&self) -> Option<Duration> {
        match self.delay_ms.load(Ordering::SeqCst) {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        }
    }
}

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
pub struct ThreadedEndpoint {
    name: String,
    tx: Option<Sender<Job>>,
    rx: Receiver<Job>,
    poll: Duration,
    /// Workers started so far: like a thread pool's core threads, each of
    /// the first `n_workers` submissions starts one (a funcX endpoint
    /// provisions workers when tasks arrive), so an idle pool costs nothing.
    handles: Mutex<Vec<JoinHandle<()>>>,
    started: AtomicUsize,
    busy: Arc<AtomicUsize>,
    completed: Arc<AtomicUsize>,
    faults: Arc<PoolFaults>,
    n_workers: usize,
}

impl ThreadedEndpoint {
    /// A pool of `n_workers` worker threads named after the endpoint,
    /// polling the queue at [`DEFAULT_POLL_TIMEOUT`].
    pub fn new(name: &str, n_workers: usize) -> Self {
        Self::with_poll_timeout(name, n_workers, DEFAULT_POLL_TIMEOUT)
    }

    /// Like [`ThreadedEndpoint::new`] with an explicit poll timeout: how
    /// long an idle worker blocks before re-checking pool state. Shorter
    /// timeouts make fault-flag changes and shutdown visible faster at the
    /// cost of more wakeups.
    pub fn with_poll_timeout(name: &str, n_workers: usize, poll: Duration) -> Self {
        assert!(n_workers > 0, "an endpoint needs at least one worker");
        assert!(!poll.is_zero(), "poll timeout must be non-zero");
        let (tx, rx): (Sender<Job>, Receiver<Job>) = unbounded();
        ThreadedEndpoint {
            name: name.to_string(),
            tx: Some(tx),
            rx,
            poll,
            handles: Mutex::new(Vec::with_capacity(n_workers)),
            started: AtomicUsize::new(0),
            busy: Arc::new(AtomicUsize::new(0)),
            completed: Arc::new(AtomicUsize::new(0)),
            faults: Arc::new(PoolFaults::default()),
            n_workers,
        }
    }

    /// Starts the next worker unless all `n_workers` already run.
    fn start_worker(&self) {
        let mut handles = self.handles.lock();
        if handles.len() == self.n_workers {
            return;
        }
        let (rx, poll) = (self.rx.clone(), self.poll);
        let busy = Arc::clone(&self.busy);
        let completed = Arc::clone(&self.completed);
        let faults = Arc::clone(&self.faults);
        let handle = std::thread::Builder::new()
            .name(format!("{}-worker-{}", self.name, handles.len()))
            .spawn(move || loop {
                let job = match rx.recv_timeout(poll) {
                    Ok(job) => job,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                };
                if faults.swallows_next() {
                    // Simulated worker crash: the job (and its
                    // completion callback) is dropped on the floor.
                    // Recovery is the submitter's watchdog's job.
                    drop(job);
                    continue;
                }
                if let Some(d) = faults.delay() {
                    std::thread::sleep(d);
                }
                busy.fetch_add(1, Ordering::SeqCst);
                let followup = job();
                busy.fetch_sub(1, Ordering::SeqCst);
                completed.fetch_add(1, Ordering::SeqCst);
                if let Some(f) = followup {
                    f();
                }
            })
            .expect("failed to spawn worker thread");
        handles.push(handle);
        self.started.store(handles.len(), Ordering::SeqCst);
    }

    /// Endpoint name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of workers.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Workers currently executing a job (racy snapshot, for monitoring).
    pub fn busy_workers(&self) -> usize {
        self.busy.load(Ordering::SeqCst)
    }

    /// Total jobs completed so far.
    pub fn completed_jobs(&self) -> usize {
        self.completed.load(Ordering::SeqCst)
    }

    /// The pool's fault-injection switches (chaos testing).
    pub fn faults(&self) -> &Arc<PoolFaults> {
        &self.faults
    }

    /// Liveness probe: answers whether the endpoint would accept work.
    /// The real-fabric analogue of a heartbeat — a pool marked down stops
    /// answering, and health monitors treat that as a missed probe.
    pub fn responsive(&self) -> bool {
        !self.faults.is_down()
    }

    /// Enqueues a job. Jobs are pulled by idle workers in FIFO order.
    pub fn submit<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.submit_then(move || {
            job();
            None
        });
    }

    /// Enqueues a job whose returned follow-up (if any) runs after the
    /// worker has been marked idle.
    pub fn submit_then<F>(&self, job: F)
    where
        F: FnOnce() -> Option<Followup> + Send + 'static,
    {
        if self.started.load(Ordering::SeqCst) < self.n_workers {
            self.start_worker();
        }
        self.tx
            .as_ref()
            .expect("endpoint already shut down")
            .send(Box::new(job))
            .expect("the pool keeps a receiver");
    }

    /// Registers this pool's gauge/counter families in `reg`, labelled by
    /// endpoint name. Pair with [`ThreadedEndpoint::sample_metrics`] from a
    /// scrape refresh hook.
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
    /// marks), so repeated scrapes stay monotone.
    pub fn sample_metrics(&self, reg: &mut MetricsRegistry, ids: &mut PoolMetricIds) {
        reg.set(ids.workers, self.n_workers as f64);
        reg.set(ids.busy, self.busy_workers() as f64);
        reg.set(ids.up, if self.responsive() { 1.0 } else { 0.0 });
        let completed = self.completed_jobs() as u64;
        reg.inc(
            ids.completed,
            completed.saturating_sub(ids.last_completed) as f64,
        );
        ids.last_completed = completed;
        let crashed = self.faults.crashed_jobs() as u64;
        reg.inc(ids.crashed, crashed.saturating_sub(ids.last_crashed) as f64);
        ids.last_crashed = crashed;
    }

    /// Drains the queue and joins all workers.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
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

impl Drop for ThreadedEndpoint {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn executes_all_jobs() {
        let ep = ThreadedEndpoint::new("test", 4);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            ep.submit(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        ep.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn jobs_run_in_parallel() {
        let ep = ThreadedEndpoint::new("par", 4);
        let (tx, rx) = unbounded();
        // Four jobs that each wait until all four have started: only
        // possible if they run concurrently.
        let barrier = Arc::new(std::sync::Barrier::new(4));
        for _ in 0..4 {
            let b = Arc::clone(&barrier);
            let tx = tx.clone();
            ep.submit(move || {
                b.wait();
                tx.send(()).unwrap();
            });
        }
        for _ in 0..4 {
            rx.recv_timeout(DEFAULT_POLL_TIMEOUT)
                .expect("jobs deadlocked: pool is not parallel");
        }
        ep.shutdown();
    }

    #[test]
    fn completed_and_busy_counters() {
        let ep = ThreadedEndpoint::new("count", 2);
        assert_eq!(ep.busy_workers(), 0);
        let (tx, rx) = unbounded::<()>();
        let (started_tx, started_rx) = unbounded::<()>();
        ep.submit(move || {
            started_tx.send(()).unwrap();
            rx.recv().unwrap();
        });
        started_rx.recv_timeout(DEFAULT_POLL_TIMEOUT).unwrap();
        assert_eq!(ep.busy_workers(), 1);
        tx.send(()).unwrap();
        // Wait for completion.
        let deadline = std::time::Instant::now() + DEFAULT_POLL_TIMEOUT;
        while ep.completed_jobs() < 1 {
            assert!(std::time::Instant::now() < deadline);
            std::thread::yield_now();
        }
        assert_eq!(ep.busy_workers(), 0);
        assert_eq!(ep.n_workers(), 2);
        assert_eq!(ep.name(), "count");
    }

    #[test]
    fn drop_joins_cleanly() {
        let ep = ThreadedEndpoint::new("drop", 2);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..10 {
            let c = Arc::clone(&counter);
            ep.submit(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(ep); // must drain the queue before joining
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn workers_start_one_per_submission_up_to_n() {
        let ep = ThreadedEndpoint::new("lazy", 3);
        assert_eq!(ep.n_workers(), 3);
        assert!(ep.responsive());
        assert!(ep.handles.lock().is_empty(), "a thread before any job");
        for submitted in 1..=5 {
            ep.submit(|| {});
            assert_eq!(ep.handles.lock().len(), submitted.min(3));
            assert_eq!(ep.started.load(Ordering::SeqCst), submitted.min(3));
        }
        ep.shutdown();
    }

    #[test]
    fn drop_with_no_or_some_workers_started_joins_cleanly() {
        drop(ThreadedEndpoint::new("idle", 4));
        let ep = ThreadedEndpoint::new("partial", 4);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..2 {
            let c = Arc::clone(&counter);
            ep.submit(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(ep.handles.lock().len(), 2);
        drop(ep);
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn a_worker_can_drop_the_pool() {
        let ep = Arc::new(ThreadedEndpoint::new("orphan", 2));
        let last = Arc::clone(&ep);
        let (go_tx, go_rx) = unbounded::<()>();
        let (tx, rx) = unbounded();
        ep.submit(move || {
            // Until the test let go of its handle: `last` is the last.
            let _ = go_rx.recv();
            let dropped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(last)));
            tx.send(dropped.is_ok()).unwrap();
        });
        ep.submit(|| {});
        drop(ep);
        drop(go_tx);
        let clean = rx
            .recv_timeout(DEFAULT_POLL_TIMEOUT)
            .expect("the worker hung dropping its own pool");
        assert!(clean, "the worker panicked joining itself");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        ThreadedEndpoint::new("bad", 0);
    }

    #[test]
    fn crash_injection_swallows_every_nth_job() {
        let ep = ThreadedEndpoint::with_poll_timeout("crashy", 1, Duration::from_millis(20));
        ep.faults().set_crash_every(2);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..10 {
            let c = Arc::clone(&counter);
            ep.submit(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        ep.shutdown();
        // Every 2nd job swallowed: 5 executed, 5 crashed.
        assert_eq!(counter.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn down_pool_fails_probe_and_eats_jobs() {
        let ep = ThreadedEndpoint::with_poll_timeout("down", 2, Duration::from_millis(20));
        assert!(ep.responsive());
        ep.faults().set_down(true);
        assert!(!ep.responsive());
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..4 {
            let c = Arc::clone(&counter);
            ep.submit(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Give workers a chance to pull while down.
        let deadline = std::time::Instant::now() + DEFAULT_POLL_TIMEOUT;
        while ep.faults().crashed_jobs() < 4 {
            assert!(std::time::Instant::now() < deadline, "jobs not drained");
            std::thread::yield_now();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 0);
        // Restored: new jobs execute again.
        ep.faults().set_down(false);
        let c = Arc::clone(&counter);
        ep.submit(move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        ep.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pool_metrics_sample_and_stay_monotone() {
        let ep = ThreadedEndpoint::with_poll_timeout("metered", 2, Duration::from_millis(20));
        let mut reg = MetricsRegistry::new();
        let mut ids = ep.register_metrics(&mut reg);
        ep.sample_metrics(&mut reg, &mut ids);
        let text = reg.render_prometheus();
        assert!(text.contains("fedci_pool_workers{endpoint=\"metered\"} 2"));
        assert!(text.contains("fedci_pool_up{endpoint=\"metered\"} 1"));

        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..6 {
            let c = Arc::clone(&counter);
            ep.submit(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        let deadline = std::time::Instant::now() + DEFAULT_POLL_TIMEOUT;
        while ep.completed_jobs() < 6 {
            assert!(std::time::Instant::now() < deadline);
            std::thread::yield_now();
        }
        // Two samples in a row: the counter reflects the total exactly
        // once (delta-based sampling, not double-counted).
        ep.sample_metrics(&mut reg, &mut ids);
        ep.sample_metrics(&mut reg, &mut ids);
        let text = reg.render_prometheus();
        assert!(
            text.contains("fedci_pool_jobs_completed_total{endpoint=\"metered\"} 6"),
            "unexpected exposition:\n{text}"
        );
        ep.shutdown();
    }

    #[test]
    fn delay_injection_slows_jobs() {
        let ep = ThreadedEndpoint::with_poll_timeout("slow", 1, Duration::from_millis(20));
        ep.faults().set_delay(Duration::from_millis(50));
        let t0 = std::time::Instant::now();
        let (tx, rx) = unbounded::<()>();
        ep.submit(move || {
            tx.send(()).unwrap();
        });
        rx.recv_timeout(DEFAULT_POLL_TIMEOUT).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(50));
        ep.shutdown();
    }
}
