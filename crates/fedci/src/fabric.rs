//! The execution-fabric abstraction shared by the live backends.
//!
//! The simulated backend reproduces the paper's experiments over virtual
//! time; the *live* backends execute real work on real resources.
//! [`Fabric`] is the contract the live runtime relies on, so one client
//! path — placement, retry/health machinery, straggler watchdog — drives
//! both the in-process worker pools ([`ThreadedFabric`]) and the
//! process-isolated TCP backend ([`crate::process`]):
//!
//! * work is a *named function over bytes* ([`JobSpec`]): the only job
//!   shape that can cross a process boundary. Dependencies are staged as
//!   keyed blobs ([`Fabric::stage`]) so data gravity works over a wire;
//! * completion is asynchronous and **at-most-once per attempt**: the
//!   fabric calls the [`Completion`] exactly once per submitted attempt,
//!   with `Err` covering both application failures and fabric-level loss
//!   (connection cut, endpoint crash). Exactly-once *task* semantics are
//!   the client's job, via attempt generations;
//! * liveness is a cheap probe ([`Fabric::probe`]) distilled from whatever
//!   signal the backend has — the operator's down switch in-process,
//!   heartbeat acknowledgements over TCP.
//!
//! [`FabricTiming`] holds the heartbeat/backoff intervals, with the
//! ordering every liveness pipeline needs validated in one place
//! (heartbeat < suspect < down).

use crate::fault::{Backend, FaultError, FaultPlan};
use crate::threaded::ThreadedEndpoint;
use parking_lot::Mutex;
use simkit::metrics::MetricsRegistry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::threaded::PoolMetricIds;

/// The outcome of one job attempt: result bytes or an error message.
pub type FabricResult = Result<Vec<u8>, String>;

/// Completion callback for one submitted attempt. Called exactly once,
/// from a fabric-owned thread.
pub type Completion = Box<dyn FnOnce(FabricResult) + Send + 'static>;

/// A job's inline argument bytes: owned by the one attempt that will use
/// them, shared with the attempts that may follow, or — when there are at
/// most [`INLINE_PAYLOAD`] of them — copied into the value itself. Shared
/// exists so a large payload is not copied per attempt under a retry
/// policy; inline, so a small one is copied per attempt without an
/// allocation; owned, so an attempt that needs no copy costs none.
#[derive(Clone, Debug)]
pub enum Payload {
    /// This attempt's own bytes.
    Owned(Vec<u8>),
    /// Bytes other attempts of the task hold too.
    Shared(Arc<Vec<u8>>),
    /// A length and that many bytes, stored in place.
    Inline(u8, [u8; INLINE_PAYLOAD]),
}

/// The most bytes [`Payload::Inline`] holds: what fits beside its length
/// in the 16 bytes `Owned` leaves around its capacity's niche.
pub const INLINE_PAYLOAD: usize = 15;

// Every `JobSpec`, fabric event and in-flight table entry carries one. A
// 22-byte inline variant made it 32 bytes and cost the threaded fan-out
// about 15 % of its throughput.
const _: () = assert!(std::mem::size_of::<Payload>() == 24);

impl Payload {
    /// `bytes` stored in place, or `None` if there are more than
    /// [`INLINE_PAYLOAD`] of them.
    pub fn inline(bytes: &[u8]) -> Option<Payload> {
        let mut buf = [0; INLINE_PAYLOAD];
        buf.get_mut(..bytes.len())?.copy_from_slice(bytes);
        Some(Payload::Inline(bytes.len() as u8, buf))
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            Payload::Owned(bytes) => bytes,
            Payload::Shared(bytes) => bytes,
            Payload::Inline(len, bytes) => &bytes[..usize::from(*len)],
        }
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::Owned(Vec::new())
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Payload::Owned(bytes)
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        **self == **other
    }
}

impl Eq for Payload {}

/// The key under which the output of attempt `attempt` of task `task` is
/// staged, kept and named in [`JobSpec::deps`]. A key names one byte
/// string: the task id alone would not, because an attempt the watchdog
/// superseded can finish late on one endpoint after another attempt's
/// output was accepted from a second, and the two need not agree.
pub fn blob_key(task: u32, attempt: u32) -> u64 {
    (u64::from(task) << 32) | u64::from(attempt)
}

/// A function call the fabric can ship across a process boundary.
///
/// The executed input is `concat(blob[d] for d in deps) ++ payload`; the
/// dep blobs must be at the target endpoint first: [`Fabric::stage`]d
/// there (an in-order transport makes "stage then dispatch" race-free) or
/// kept there by the attempt that produced them ([`JobSpec::keep_output`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Task id (stable across attempts).
    pub task: u64,
    /// Attempt number, 1-based. The generation guard: a RESULT carrying a
    /// stale attempt is not this dispatch's answer.
    pub attempt: u32,
    /// Registered function name.
    pub function: Arc<str>,
    /// Keys of staged input blobs, concatenated in this order.
    pub deps: Vec<u64>,
    /// Inline argument bytes, appended after the dep blobs.
    pub payload: Payload,
    /// A dependent is already waiting for this output: an endpoint that
    /// has a blob store of its own keeps it there under
    /// [`JobSpec::kept_key`], so a dependent placed on the same endpoint
    /// is not sent the bytes back.
    pub keep_output: bool,
}

impl JobSpec {
    /// The blob key an endpoint keeps this attempt's output under: `None`
    /// unless [`JobSpec::keep_output`] is set (or for a task id past the
    /// 32 bits a key has room for, which no runtime here produces).
    pub fn kept_key(&self) -> Option<u64> {
        if !self.keep_output {
            return None;
        }
        Some(blob_key(u32::try_from(self.task).ok()?, self.attempt))
    }
}

/// Coarse liveness as seen by the fabric's own signal (heartbeats, fault
/// flags). The client feeds this into its `HealthPolicy` state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeState {
    /// Endpoint answers its liveness signal.
    Alive,
    /// Liveness signal is late (missed heartbeats past the suspect
    /// threshold) but the endpoint is not yet declared gone.
    Suspect,
    /// Endpoint is disconnected / crashed / marked down.
    Dead,
}

/// A live execution fabric: endpoints that run named functions over bytes
/// and report back asynchronously.
///
/// Implementations: [`ThreadedFabric`] (in-process worker pools) and
/// [`ProcessFabric`](crate::process::ProcessFabric) (endpoint daemons over
/// TCP). The simulated backend keeps its own discrete-event path but
/// shares the health/retry machinery and metrics taxonomy above this
/// trait.
pub trait Fabric: Send + Sync {
    /// Endpoint display labels; `labels().len()` is the endpoint count.
    fn labels(&self) -> &[String];

    /// Number of endpoints.
    fn n_endpoints(&self) -> usize {
        self.labels().len()
    }

    /// Configured workers at endpoint `ep`.
    fn n_workers(&self, ep: usize) -> usize;

    /// Workers currently executing (racy snapshot; for placement).
    fn busy_workers(&self, ep: usize) -> usize;

    /// The backend's own liveness verdict for `ep`.
    fn probe(&self, ep: usize) -> ProbeState;

    /// Makes blob `key` available at `ep` for later [`JobSpec::deps`]
    /// references. Idempotent per connection epoch: the fabric tracks
    /// what `ep` already holds and re-ships after a reconnect/restart.
    /// Fire-and-forget; a lost blob surfaces as a failed dispatch.
    fn stage(&self, ep: usize, key: u64, bytes: &Arc<Vec<u8>>);

    /// Submits one attempt to `ep`. `done` fires exactly once — with the
    /// function's result, or `Err` if the attempt was lost (endpoint
    /// down, connection cut, unknown function, missing input blob).
    fn submit(&self, ep: usize, job: JobSpec, done: Completion);

    /// Gracefully stops the fabric (drains daemons/pools). Idempotent.
    fn shutdown(&self);

    /// The instant this fabric's client-side clock started — the epoch
    /// all observability timestamps (client trace events, heartbeat
    /// clock probes) are measured from, so traces recorded against the
    /// fabric and the runtime above it share one timeline. Backends that
    /// keep no clock return "now", which is only consistent within a
    /// single call.
    fn clock_epoch(&self) -> Instant {
        Instant::now()
    }
}

// ---------------------------------------------------------------------------
// FabricTiming
// ---------------------------------------------------------------------------

/// Heartbeat/backoff intervals of the process fabric.
///
/// One validation point: liveness only works if `heartbeat_interval <
/// suspect_after < down_after`, and backoff only terminates if
/// `reconnect_base <= reconnect_max`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FabricTiming {
    /// Interval between heartbeats on a process-fabric connection.
    pub heartbeat_interval: Duration,
    /// No heartbeat ack for this long ⇒ the endpoint is Suspect.
    pub suspect_after: Duration,
    /// No heartbeat ack for this long ⇒ the connection is declared dead:
    /// in-flight work fails over and the reconnect loop starts.
    pub down_after: Duration,
    /// First reconnect backoff delay (doubles per consecutive failure).
    pub reconnect_base: Duration,
    /// Backoff ceiling.
    pub reconnect_max: Duration,
    /// TCP connect attempt budget.
    pub connect_timeout: Duration,
}

impl Default for FabricTiming {
    fn default() -> Self {
        FabricTiming {
            heartbeat_interval: Duration::from_millis(500),
            suspect_after: Duration::from_millis(1500),
            down_after: Duration::from_secs(5),
            reconnect_base: Duration::from_millis(100),
            reconnect_max: Duration::from_secs(5),
            connect_timeout: Duration::from_secs(2),
        }
    }
}

impl FabricTiming {
    /// A millisecond-scale preset for tests: fast heartbeats, fast
    /// suspicion, fast reconnect. Still satisfies [`FabricTiming::validate`].
    pub fn fast() -> Self {
        FabricTiming {
            heartbeat_interval: Duration::from_millis(25),
            suspect_after: Duration::from_millis(80),
            down_after: Duration::from_millis(250),
            reconnect_base: Duration::from_millis(10),
            reconnect_max: Duration::from_millis(200),
            connect_timeout: Duration::from_millis(500),
        }
    }

    /// Checks the interval ordering the liveness pipeline depends on.
    pub fn validate(&self) -> Result<(), String> {
        if self.heartbeat_interval.is_zero() {
            return Err("heartbeat_interval must be non-zero".into());
        }
        if self.heartbeat_interval >= self.suspect_after {
            return Err(format!(
                "heartbeat_interval ({:?}) must be < suspect_after ({:?})",
                self.heartbeat_interval, self.suspect_after
            ));
        }
        if self.suspect_after >= self.down_after {
            return Err(format!(
                "suspect_after ({:?}) must be < down_after ({:?})",
                self.suspect_after, self.down_after
            ));
        }
        if self.reconnect_base.is_zero() || self.reconnect_base > self.reconnect_max {
            return Err(format!(
                "reconnect_base ({:?}) must be non-zero and <= reconnect_max ({:?})",
                self.reconnect_base, self.reconnect_max
            ));
        }
        if self.connect_timeout.is_zero() {
            return Err("connect_timeout must be non-zero".into());
        }
        Ok(())
    }

    /// Missed-beat count at which a connection turns Suspect.
    pub fn suspect_misses(&self) -> u64 {
        Self::misses(self.suspect_after, self.heartbeat_interval)
    }

    /// Missed-beat count at which a connection is declared dead.
    pub fn down_misses(&self) -> u64 {
        Self::misses(self.down_after, self.heartbeat_interval)
    }

    fn misses(threshold: Duration, interval: Duration) -> u64 {
        (threshold.as_micros().div_ceil(interval.as_micros().max(1))).max(1) as u64
    }
}

// ---------------------------------------------------------------------------
// Function registry + builtins
// ---------------------------------------------------------------------------

/// A function the fabric can execute: bytes in, bytes out.
pub type WireFn = Arc<dyn Fn(&[u8]) -> FabricResult + Send + Sync>;

/// A name → [`WireFn`] registry.
///
/// The threaded fabric executes registrations in-process; the endpoint
/// daemon ships with [`FnRegistry::builtins`] so the same function names
/// produce the same bytes on every backend — which is what lets chaos
/// tests compare a faulted run's result set against an unfaulted one.
#[derive(Clone, Default)]
pub struct FnRegistry {
    map: Arc<Mutex<HashMap<String, WireFn>>>,
}

impl std::fmt::Debug for FnRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<String> = self.map.lock().keys().cloned().collect();
        names.sort();
        f.debug_struct("FnRegistry").field("names", &names).finish()
    }
}

impl FnRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The deterministic builtin set every backend agrees on:
    ///
    /// * `echo` — identity;
    /// * `fnv` — 8-byte LE FNV-1a 64 of the input (the workhorse for
    ///   result-set digests: chaining it over deps makes every task's
    ///   output a checksum of its whole ancestry);
    /// * `sum64` — sums the input interpreted as LE u64s (errors unless
    ///   the length is a multiple of 8);
    /// * `sleep` — first 8 bytes are LE milliseconds to sleep; echoes the
    ///   rest (straggler material for watchdog tests);
    /// * `fail` — always errors with the payload as the message.
    pub fn builtins() -> Self {
        let reg = Self::new();
        reg.register("echo", |input| Ok(input.to_vec()));
        reg.register("fnv", |input| Ok(fnv1a64(input).to_le_bytes().to_vec()));
        reg.register("sum64", |input| {
            if !input.len().is_multiple_of(8) {
                return Err(format!("sum64: input length {} not /8", input.len()));
            }
            let mut sum = 0u64;
            for chunk in input.chunks_exact(8) {
                sum = sum.wrapping_add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
            }
            Ok(sum.to_le_bytes().to_vec())
        });
        reg.register("sleep", |input| {
            if input.len() < 8 {
                return Err("sleep: need 8-byte millisecond prefix".into());
            }
            let ms = u64::from_le_bytes(input[..8].try_into().expect("8 bytes"));
            std::thread::sleep(Duration::from_millis(ms.min(60_000)));
            Ok(input[8..].to_vec())
        });
        reg.register("fail", |input| {
            Err(String::from_utf8_lossy(input).into_owned())
        });
        reg
    }

    /// Registers (or replaces) `name`.
    pub fn register<F>(&self, name: &str, f: F)
    where
        F: Fn(&[u8]) -> FabricResult + Send + Sync + 'static,
    {
        self.map.lock().insert(name.to_string(), Arc::new(f));
    }

    /// Looks up `name`.
    pub fn get(&self, name: &str) -> Option<WireFn> {
        self.map.lock().get(name).cloned()
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.map.lock().keys().cloned().collect();
        names.sort();
        names
    }
}

/// FNV-1a 64-bit over `bytes` — the workspace's standing checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The staged blobs `job` names, in `deps` order — the one step of running
/// a job that needs the blob store, so a caller holds the store's lock for
/// this and nothing after it.
pub fn dep_blobs(
    blobs: &HashMap<u64, Arc<Vec<u8>>>,
    job: &JobSpec,
) -> Result<Vec<Arc<Vec<u8>>>, String> {
    let blob = |d: &u64| {
        let found = blobs.get(d).map(Arc::clone);
        found.ok_or_else(|| format!("missing input blob {d} for task {}", job.task))
    };
    job.deps.iter().map(blob).collect()
}

/// Runs `f` over a job's input: `deps` in order, then `payload`. Shared by
/// the threaded fabric and the endpoint daemon so both sides agree
/// byte-for-byte. An input that is one byte string already — no deps, or
/// one dep and no payload — is borrowed, not concatenated.
pub fn run_on_input(f: &WireFn, deps: &[Arc<Vec<u8>>], payload: &[u8]) -> FabricResult {
    match deps {
        [] => f(payload),
        [only] if payload.is_empty() => f(only),
        _ => f(&concat(deps, payload)),
    }
}

fn concat(deps: &[Arc<Vec<u8>>], payload: &[u8]) -> Vec<u8> {
    let size = deps.iter().map(|d| d.len()).sum::<usize>() + payload.len();
    let mut input = Vec::with_capacity(size);
    for d in deps {
        input.extend_from_slice(d);
    }
    input.extend_from_slice(payload);
    input
}

/// A job's whole input as one byte string: what [`run_on_input`] shows
/// the function.
pub fn assemble_input(
    blobs: &HashMap<u64, Arc<Vec<u8>>>,
    job: &JobSpec,
) -> Result<Vec<u8>, String> {
    Ok(concat(&dep_blobs(blobs, job)?, &job.payload))
}

// ---------------------------------------------------------------------------
// ThreadedFabric
// ---------------------------------------------------------------------------

/// The in-process fabric: one worker pool per endpoint behind the
/// [`Fabric`] trait.
///
/// Staged blobs live in a per-endpoint map (the analogue of an endpoint's
/// shared filesystem); jobs execute registry functions on the pool's
/// workers. Faults come from a [`FaultPlan`] ([`ThreadedFabric::with_faults`])
/// and the operator's [`ThreadedFabric::set_down`] — a down pool fails its
/// probe and drops submissions, which is exactly the loss mode the
/// client's watchdog recovers.
pub struct ThreadedFabric {
    pools: Vec<ThreadedEndpoint>,
    labels: Vec<String>,
    registry: FnRegistry,
    blobs: Vec<BlobStore>,
    clock0: Instant,
}

/// One endpoint's staged-blob map (the in-process stand-in for a
/// cluster's shared filesystem).
type BlobStore = Arc<Mutex<HashMap<u64, Arc<Vec<u8>>>>>;

impl ThreadedFabric {
    /// One worker pool per `(label, workers)` pair, with the builtin
    /// function set plus anything later [`ThreadedFabric::registry`]
    /// registrations add.
    pub fn new(endpoints: &[(&str, usize)], timing: &FabricTiming) -> Self {
        timing.validate().expect("invalid fabric timing");
        assert!(!endpoints.is_empty(), "need at least one endpoint");
        ThreadedFabric {
            pools: endpoints
                .iter()
                .map(|(l, w)| ThreadedEndpoint::new(l, *w))
                .collect(),
            labels: endpoints.iter().map(|(l, _)| l.to_string()).collect(),
            registry: FnRegistry::builtins(),
            blobs: endpoints
                .iter()
                .map(|_| Arc::new(Mutex::new(HashMap::new())))
                .collect(),
            clock0: Instant::now(),
        }
    }

    /// The function registry (builtins pre-loaded; add more freely).
    pub fn registry(&self) -> &FnRegistry {
        &self.registry
    }

    /// Runs `plan`'s `swallow` and `delay` rules: every k-th submission to
    /// a covered endpoint is dropped without a result, and each job there
    /// sleeps `ms` first. Call before the first submission. Any other rule
    /// is [`FaultError::Unsupported`].
    pub fn with_faults(mut self, plan: &FaultPlan) -> Result<Self, FaultError> {
        plan.check(Backend::Threaded, self.pools.len())?;
        for (ep, pool) in self.pools.iter_mut().enumerate() {
            pool.set_faults(plan.attempt_faults(ep));
        }
        Ok(self)
    }

    /// Marks endpoint `ep` down (its probe fails; the jobs it has queued
    /// and every new one are dropped) or back up — the in-process
    /// counterpart of `ProcessFabric::kill`.
    pub fn set_down(&self, ep: usize, down: bool) {
        self.pools[ep].set_down(down);
    }

    /// Registers every pool's `fedci_pool_*` gauge/counter families in
    /// `reg` (the counterpart of `ProcessFabric::register_metrics`).
    pub fn register_metrics(&self, reg: &mut MetricsRegistry) -> Vec<PoolMetricIds> {
        let pools = self.pools.iter();
        pools.map(|pool| pool.register_metrics(reg)).collect()
    }

    /// Samples every pool into `reg`; counters advance by delta, so
    /// repeated scrapes stay monotone.
    pub fn sample_metrics(&self, reg: &mut MetricsRegistry, ids: &mut [PoolMetricIds]) {
        for (pool, id) in self.pools.iter().zip(ids) {
            pool.sample_metrics(reg, id);
        }
    }
}

impl Fabric for ThreadedFabric {
    fn labels(&self) -> &[String] {
        &self.labels
    }

    fn clock_epoch(&self) -> Instant {
        self.clock0
    }

    fn n_workers(&self, ep: usize) -> usize {
        self.pools[ep].n_workers()
    }

    fn busy_workers(&self, ep: usize) -> usize {
        self.pools[ep].busy_workers()
    }

    fn probe(&self, ep: usize) -> ProbeState {
        if self.pools[ep].responsive() {
            ProbeState::Alive
        } else {
            ProbeState::Dead
        }
    }

    fn stage(&self, ep: usize, key: u64, bytes: &Arc<Vec<u8>>) {
        self.blobs[ep].lock().insert(key, Arc::clone(bytes));
    }

    fn submit(&self, ep: usize, job: JobSpec, done: Completion) {
        // Resolved here, once: the worker touches neither the registry nor
        // — for a job without staged inputs — the blob store.
        let function = self.registry.get(&job.function);
        let blobs = (!job.deps.is_empty()).then(|| Arc::clone(&self.blobs[ep]));
        self.pools[ep].submit_then(move || {
            let result = match (function, blobs) {
                (None, _) => Err(format!("unknown function `{}`", job.function)),
                (Some(f), None) => f(&job.payload),
                (Some(f), Some(blobs)) => {
                    let deps = dep_blobs(&blobs.lock(), &job);
                    deps.and_then(|deps| run_on_input(&f, &deps, &job.payload))
                }
            };
            // Report after the worker frees, so dependents see this
            // worker as placeable capacity.
            Some(Box::new(move || done(result)) as Box<dyn FnOnce() + Send>)
        });
    }

    fn shutdown(&self) {
        // Pools drain and join on drop; nothing to force here. Kept as a
        // trait hook because the process fabric needs a real drain.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn timing_default_and_fast_validate() {
        assert_eq!(FabricTiming::default().validate(), Ok(()));
        assert_eq!(FabricTiming::fast().validate(), Ok(()));
    }

    #[test]
    fn timing_rejects_bad_orderings() {
        let d = FabricTiming::default();
        let t = FabricTiming {
            heartbeat_interval: d.suspect_after,
            ..d
        };
        assert!(t.validate().unwrap_err().contains("suspect_after"));

        let t = FabricTiming {
            suspect_after: d.down_after,
            ..d
        };
        assert!(t.validate().unwrap_err().contains("down_after"));

        let t = FabricTiming {
            reconnect_base: d.reconnect_max + Duration::from_millis(1),
            ..d
        };
        assert!(t.validate().unwrap_err().contains("reconnect_base"));

        for t in [
            FabricTiming {
                heartbeat_interval: Duration::ZERO,
                ..d
            },
            FabricTiming {
                connect_timeout: Duration::ZERO,
                ..d
            },
        ] {
            assert!(t.validate().is_err());
        }
    }

    #[test]
    fn timing_miss_thresholds() {
        let t = FabricTiming {
            heartbeat_interval: Duration::from_millis(100),
            suspect_after: Duration::from_millis(250),
            down_after: Duration::from_millis(1000),
            ..FabricTiming::default()
        };
        assert_eq!(t.validate(), Ok(()));
        assert_eq!(t.suspect_misses(), 3);
        assert_eq!(t.down_misses(), 10);
        assert!(t.suspect_misses() < t.down_misses());
    }

    #[test]
    fn builtins_are_deterministic() {
        let reg = FnRegistry::builtins();
        let fnv = reg.get("fnv").unwrap();
        assert_eq!(fnv(b"abc").unwrap(), fnv(b"abc").unwrap());
        assert_ne!(fnv(b"abc").unwrap(), fnv(b"abd").unwrap());
        let sum = reg.get("sum64").unwrap();
        let mut input = Vec::new();
        input.extend_from_slice(&3u64.to_le_bytes());
        input.extend_from_slice(&4u64.to_le_bytes());
        assert_eq!(sum(&input).unwrap(), 7u64.to_le_bytes().to_vec());
        assert!(sum(b"odd").unwrap_err().contains("not /8"));
        assert_eq!(reg.get("echo").unwrap()(b"x").unwrap(), b"x".to_vec());
        assert_eq!(reg.get("fail").unwrap()(b"boom").unwrap_err(), "boom");
        assert!(reg.get("nope").is_none());
        assert!(reg.names().contains(&"sleep".to_string()));
    }

    #[test]
    fn assemble_orders_deps_then_payload() {
        let mut blobs = HashMap::new();
        blobs.insert(1u64, Arc::new(b"AA".to_vec()));
        blobs.insert(2u64, Arc::new(b"BB".to_vec()));
        let job = JobSpec {
            task: 9,
            attempt: 1,
            function: Arc::from("echo"),
            deps: vec![2, 1],
            payload: b"CC".to_vec().into(),
            keep_output: false,
        };
        assert_eq!(assemble_input(&blobs, &job).unwrap(), b"BBAACC".to_vec());
        let missing = JobSpec {
            deps: vec![3],
            ..job
        };
        assert!(assemble_input(&blobs, &missing)
            .unwrap_err()
            .contains("missing input blob 3"));
    }

    #[test]
    fn threaded_fabric_round_trip() {
        let fabric = ThreadedFabric::new(&[("a", 2), ("b", 1)], &FabricTiming::fast());
        assert_eq!(fabric.n_endpoints(), 2);
        assert_eq!(fabric.n_workers(0), 2);
        assert_eq!(fabric.probe(1), ProbeState::Alive);

        let blob = Arc::new(b"hello ".to_vec());
        fabric.stage(1, 7, &blob);
        let (tx, rx) = mpsc::channel();
        fabric.submit(
            1,
            JobSpec {
                task: 1,
                attempt: 1,
                function: Arc::from("echo"),
                deps: vec![7],
                payload: b"world".to_vec().into(),
                keep_output: false,
            },
            Box::new(move |r| tx.send(r).unwrap()),
        );
        let got = rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
        assert_eq!(got, b"hello world".to_vec());
    }

    #[test]
    fn threaded_fabric_errors_without_losing_completion() {
        let fabric = ThreadedFabric::new(&[("a", 1)], &FabricTiming::fast());
        let (tx, rx) = mpsc::channel();
        // Unknown function.
        let tx2 = tx.clone();
        fabric.submit(
            0,
            JobSpec {
                task: 1,
                attempt: 1,
                function: Arc::from("nope"),
                deps: vec![],
                payload: Payload::default(),
                keep_output: false,
            },
            Box::new(move |r| tx2.send(r).unwrap()),
        );
        assert!(rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .unwrap_err()
            .contains("unknown function"));
        // Missing staged blob.
        fabric.submit(
            0,
            JobSpec {
                task: 2,
                attempt: 1,
                function: Arc::from("echo"),
                deps: vec![42],
                payload: Payload::default(),
                keep_output: false,
            },
            Box::new(move |r| tx.send(r).unwrap()),
        );
        assert!(rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .unwrap_err()
            .contains("missing input blob"));
    }

    #[test]
    fn pool_workers_start_one_per_submission_up_to_n() {
        let fabric = ThreadedFabric::new(&[("lazy", 2)], &FabricTiming::fast());
        let job = |task| JobSpec {
            task,
            attempt: 1,
            function: Arc::from("echo"),
            deps: vec![],
            payload: Payload::default(),
            keep_output: false,
        };
        assert!(
            fabric.pools[0].handles.lock().is_empty(),
            "a thread before any job"
        );
        for submitted in 1..=4 {
            fabric.submit(0, job(submitted), Box::new(drop));
            assert_eq!(
                fabric.pools[0].handles.lock().len(),
                submitted.min(2) as usize
            );
        }
    }
}
