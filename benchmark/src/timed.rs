//! Timing decorators: the per-layer numbers of the traced pass come from
//! wrapping the program's public traits, not from spans inside it.
//!
//! * [`TimedFabric`] sits between `FabricRuntime` and any
//!   [`Fabric`] and times the calls that cross that boundary;
//! * [`TimedPredictor`] wraps the simulator's [`Predictor`].
//!
//! Both forward every call unchanged, so a decorated run must produce the
//! same bytes / the same determinism digest as an undecorated one — the
//! harness and `tests/decorators.rs` check that.

use fedci::endpoint::EndpointId;
use fedci::fabric::{Completion, Fabric, JobSpec, ProbeState};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use taskgraph::{Dag, TaskId};
use unifaas::profile::{EndpointFeatures, Predictor};

/// One attempt as the fabric boundary saw it.
#[derive(Clone, Copy, Debug)]
pub struct RoundTrip {
    /// Task id of the attempt.
    pub task: u64,
    /// When `Fabric::submit` was called.
    pub submitted: Instant,
    /// When the fabric fired the completion.
    pub completed: Instant,
}

impl RoundTrip {
    /// Submit call → completion fired, nanoseconds.
    pub fn nanos(&self) -> u64 {
        (self.completed - self.submitted).as_nanos() as u64
    }
}

/// Counters shared between a [`TimedFabric`] and whoever reads it after
/// the run. Plain statistics: `Relaxed` everywhere.
#[derive(Default)]
pub struct FabricTimes {
    submit_calls: AtomicU64,
    submit_ns: AtomicU64,
    stage_calls: AtomicU64,
    stage_ns: AtomicU64,
    stage_bytes: AtomicU64,
    attempts_failed: AtomicU64,
    complete_ns: AtomicU64,
    roundtrips: Mutex<Vec<RoundTrip>>,
}

/// A point-in-time copy of [`FabricTimes`].
#[derive(Clone, Debug, Default)]
pub struct FabricTimesSnapshot {
    /// `Fabric::submit` calls.
    pub submit_calls: u64,
    /// Nanoseconds inside `Fabric::submit`.
    pub submit_ns: u64,
    /// `Fabric::stage` calls.
    pub stage_calls: u64,
    /// Nanoseconds inside `Fabric::stage`.
    pub stage_ns: u64,
    /// Bytes handed to `Fabric::stage`.
    pub stage_bytes: u64,
    /// Completions that fired with `Err`.
    pub attempts_failed: u64,
    /// Nanoseconds inside the client's completion callbacks.
    pub complete_ns: u64,
    /// Every attempt's boundary-to-boundary interval.
    pub roundtrips: Vec<RoundTrip>,
}

impl FabricTimes {
    /// Copies the counters out (and takes the round-trip list).
    pub fn snapshot(&self) -> FabricTimesSnapshot {
        FabricTimesSnapshot {
            submit_calls: self.submit_calls.load(Ordering::Relaxed),
            submit_ns: self.submit_ns.load(Ordering::Relaxed),
            stage_calls: self.stage_calls.load(Ordering::Relaxed),
            stage_ns: self.stage_ns.load(Ordering::Relaxed),
            stage_bytes: self.stage_bytes.load(Ordering::Relaxed),
            attempts_failed: self.attempts_failed.load(Ordering::Relaxed),
            complete_ns: self.complete_ns.load(Ordering::Relaxed),
            roundtrips: std::mem::take(
                &mut *self.roundtrips.lock().expect("no panic holds this lock"),
            ),
        }
    }
}

/// A [`Fabric`] that times `stage`, `submit` and the completion it hands
/// back, and forwards everything to `inner`.
pub struct TimedFabric {
    inner: Arc<dyn Fabric>,
    times: Arc<FabricTimes>,
}

impl TimedFabric {
    /// Wraps `inner`; read the measurements through the returned handle.
    pub fn new(inner: Arc<dyn Fabric>) -> (TimedFabric, Arc<FabricTimes>) {
        let times = Arc::new(FabricTimes::default());
        (
            TimedFabric {
                inner,
                times: Arc::clone(&times),
            },
            times,
        )
    }
}

impl Fabric for TimedFabric {
    fn labels(&self) -> &[String] {
        self.inner.labels()
    }

    fn n_workers(&self, ep: usize) -> usize {
        self.inner.n_workers(ep)
    }

    fn busy_workers(&self, ep: usize) -> usize {
        self.inner.busy_workers(ep)
    }

    fn probe(&self, ep: usize) -> ProbeState {
        self.inner.probe(ep)
    }

    fn stage(&self, ep: usize, key: u64, bytes: &Arc<Vec<u8>>) {
        let t0 = Instant::now();
        self.inner.stage(ep, key, bytes);
        let ns = t0.elapsed().as_nanos() as u64;
        self.times.stage_calls.fetch_add(1, Ordering::Relaxed);
        self.times.stage_ns.fetch_add(ns, Ordering::Relaxed);
        self.times
            .stage_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
    }

    fn submit(&self, ep: usize, job: JobSpec, done: Completion) {
        let submitted = Instant::now();
        let task = job.task;
        let times = Arc::clone(&self.times);
        let timed_done: Completion = Box::new(move |result| {
            let completed = Instant::now();
            if result.is_err() {
                times.attempts_failed.fetch_add(1, Ordering::Relaxed);
            }
            times
                .roundtrips
                .lock()
                .expect("no panic holds this lock")
                .push(RoundTrip {
                    task,
                    submitted,
                    completed,
                });
            let entered = Instant::now();
            done(result);
            times
                .complete_ns
                .fetch_add(entered.elapsed().as_nanos() as u64, Ordering::Relaxed);
        });
        self.inner.submit(ep, job, timed_done);
        self.times.submit_calls.fetch_add(1, Ordering::Relaxed);
        self.times
            .submit_ns
            .fetch_add(submitted.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }

    fn clock_epoch(&self) -> Instant {
        self.inner.clock_epoch()
    }
}

/// Call count and busy time of a [`TimedPredictor`]. The simulator is
/// single-threaded and `Predictor` has no `Send` bound, so plain cells do.
#[derive(Default)]
pub struct PredictorTimes {
    calls: Cell<u64>,
    ns: Cell<u64>,
}

impl PredictorTimes {
    /// Calls into any `Predictor` method that does work.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Seconds inside those calls. Each call costs two clock reads, which
    /// at nanosecond-scale predictions is most of the figure: read it as
    /// an upper bound.
    pub fn busy_s(&self) -> f64 {
        self.ns.get() as f64 / 1e9
    }
}

/// A [`Predictor`] that counts and times the calls into `inner`.
pub struct TimedPredictor {
    inner: Box<dyn Predictor>,
    times: Rc<PredictorTimes>,
}

impl TimedPredictor {
    /// Wraps `inner`; read the measurements through the returned handle.
    pub fn new(inner: Box<dyn Predictor>) -> (TimedPredictor, Rc<PredictorTimes>) {
        let times = Rc::new(PredictorTimes::default());
        (
            TimedPredictor {
                inner,
                times: Rc::clone(&times),
            },
            times,
        )
    }

    fn timed<T>(&self, f: impl FnOnce(&dyn Predictor) -> T) -> T {
        let t0 = Instant::now();
        let out = f(self.inner.as_ref());
        self.times
            .ns
            .set(self.times.ns.get() + t0.elapsed().as_nanos() as u64);
        self.times.calls.set(self.times.calls.get() + 1);
        out
    }
}

impl Predictor for TimedPredictor {
    fn exec_seconds(&self, dag: &Dag, task: TaskId, ep: &EndpointFeatures) -> f64 {
        self.timed(|p| p.exec_seconds(dag, task, ep))
    }

    fn transfer_seconds(&self, bytes: u64, src: EndpointId, dst: EndpointId) -> f64 {
        self.timed(|p| p.transfer_seconds(bytes, src, dst))
    }

    fn output_bytes(&self, dag: &Dag, task: TaskId) -> u64 {
        self.timed(|p| p.output_bytes(dag, task))
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }
}
