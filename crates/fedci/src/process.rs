//! Process-isolated endpoints over TCP — the fabric that survives
//! `kill -9`.
//!
//! Two halves:
//!
//! * **Daemon** ([`run_daemon`] / the `unifaas-endpointd` binary): one
//!   endpoint as its own OS process. It binds a listener, announces the
//!   bound address, and serves one client connection at a time with the
//!   [`crate::proto`] framing: blobs staged by TRANSFER (or kept where an
//!   attempt produced them, when a KEEP precedes its DISPATCH), work
//!   arriving as DISPATCH, results flowing back as RESULT, liveness answered
//!   per HEARTBEAT. Results produced while the client is away are queued and
//!   **replayed on the next connection** — deliberately, because that is
//!   exactly the stale-RESULT case the client's attempt-generation guard
//!   must absorb.
//! * **Client** ([`ProcessFabric`]): one supervisor thread per endpoint
//!   owning the child process (spawn mode) or a remote address (connect
//!   mode), the connection, and the in-flight table. Heartbeats drive a
//!   missed-beat liveness verdict ([`FabricTiming::suspect_after`] /
//!   [`FabricTiming::down_after`]); a dead connection fails every
//!   outstanding attempt (the runtime above re-dispatches under a fresh
//!   attempt number), and reconnection runs seeded exponential backoff,
//!   respawning the child if it actually died.
//!
//! [`ChaosProxy`] sits between client and daemon for the nastier failure
//! modes: cut mid-frame after N bytes, stall one direction to fake a
//! half-open connection, or sever on command.

use crate::clock::{ClockEstimate, ClockSample, ClockSync};
use crate::fabric::{
    dep_blobs, run_on_input, Completion, Fabric, FabricTiming, FnRegistry, JobSpec, Payload,
    ProbeState, WireFn,
};
use crate::proto::{
    encode_dispatch_head, encode_result_head, encode_transfer_head, flush_queued, queue_frame,
    Frame, FrameReader, TelemetryEvent, IO_BUF, PROTO_VERSION, TEL_CTR_CHAOS_DELAYS,
    TEL_CTR_CHAOS_SWALLOWED, TEL_CTR_DISPATCHES, TEL_CTR_RESULTS_ERR, TEL_CTR_RESULTS_OK,
    TEL_CTR_RING_DROPPED, TEL_MAX_EVENTS, TEL_STAGE_CHAOS_DELAY, TEL_STAGE_CHAOS_SWALLOW,
    TEL_STAGE_EXEC_BEGIN, TEL_STAGE_EXEC_END, TEL_STAGE_RECV, TEL_STAGE_SENT,
};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::{Condvar, Mutex};
use rand::{rngs::StdRng, Rng, SeedableRng};
use simkit::metrics::{CounterId, GaugeId, HistogramId, LogHistogram, MetricsRegistry};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The line a daemon prints on stdout once its listener is bound:
/// `LISTENING <addr>`. The spawning supervisor parses it to learn the
/// ephemeral port.
pub const LISTENING_PREFIX: &str = "LISTENING ";

/// How long the daemon blocks reading a connection before treating the
/// client as gone. Any live client heartbeats far more often than this.
const DAEMON_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Default capacity of the daemon's telemetry ring: events beyond this
/// drop oldest-first (counted, reported via `TEL_CTR_RING_DROPPED`).
pub const DAEMON_TEL_RING_CAPACITY: usize = 1 << 16;

/// Client-side cap on buffered daemon telemetry events per endpoint.
const CLIENT_TEL_EVENT_CAP: usize = 1 << 18;

/// Most commands and inbound frames a supervisor handles between two
/// checks of its heartbeat/liveness timers.
const DRAIN_BUDGET: usize = 512;

// ---------------------------------------------------------------------------
// Daemon
// ---------------------------------------------------------------------------

/// Daemon-side fault injection, for chaos tests that need the *endpoint*
/// to misbehave (as opposed to the connection, which [`ChaosProxy`]
/// covers).
#[derive(Clone, Copy, Debug, Default)]
pub struct DaemonChaos {
    /// Silently drop every Nth dispatched job (0 = never): the worker
    /// takes it and no RESULT ever comes back.
    pub swallow_every: usize,
    /// Sleep this long before executing each job (straggler injection;
    /// also widens the window for a result to complete while the client
    /// is disconnected).
    pub delay_ms: u64,
    /// Send every RESULT twice — a hostile duplicate the client's
    /// attempt guard must drop.
    pub dup_results: bool,
}

/// Configuration for one endpoint daemon.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Endpoint name, echoed in HELLO.
    pub name: String,
    /// Worker thread count.
    pub workers: usize,
    /// Listen address, typically `127.0.0.1:0` (ephemeral port).
    pub listen: String,
    /// Spawn generation, echoed in HELLO (the supervisor increments it
    /// per respawn).
    pub generation: u64,
    /// Fault injection switches.
    pub chaos: DaemonChaos,
    /// Capacity of the telemetry trace ring (events). The ring only
    /// fills once a client subscribes with TELEMETRY_SUB.
    pub telemetry_ring: usize,
}

impl DaemonConfig {
    /// A daemon on an ephemeral localhost port, no chaos.
    pub fn new(name: &str, workers: usize) -> Self {
        DaemonConfig {
            name: name.to_string(),
            workers,
            listen: "127.0.0.1:0".to_string(),
            generation: 0,
            chaos: DaemonChaos::default(),
            telemetry_ring: DAEMON_TEL_RING_CAPACITY,
        }
    }
}

/// One frame awaiting write at the daemon. A RESULT is not a
/// [`Frame::Result`], whose payload is a `Vec` of its own: a kept output
/// is written from the `Arc` the blob store holds too.
#[derive(Clone, Debug, PartialEq)]
enum Outgoing {
    Frame(Frame),
    Result {
        task: u64,
        attempt: u32,
        ok: bool,
        payload: Payload,
    },
}

/// A daemon's staged and kept blobs, by key.
type BlobStore = Mutex<HashMap<u64, Arc<Vec<u8>>>>;

/// One decoded DISPATCH on its way to a worker, its function already
/// looked up by the connection's reader (`None`: no such function).
struct DaemonJob {
    spec: JobSpec,
    run: Option<WireFn>,
}

/// The reader-to-workers hand-off: every job one socket read brought in
/// enters under one lock acquisition, with one wake-up. Closed at DRAIN;
/// the workers finish what is queued and exit.
struct JobQueue {
    state: Mutex<(VecDeque<DaemonJob>, bool)>,
    ready: Condvar,
}

impl JobQueue {
    fn new() -> Self {
        JobQueue {
            state: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        }
    }

    /// Queues all of `jobs`, leaving it empty.
    fn push_all(&self, jobs: &mut Vec<DaemonJob>) {
        let n = jobs.len();
        if n == 0 {
            return;
        }
        self.state.lock().0.extend(jobs.drain(..));
        if n == 1 {
            self.ready.notify_one();
        } else {
            self.ready.notify_all();
        }
    }

    /// The next job, blocking while the queue is empty and open; `None`
    /// once it is closed and empty.
    fn pop(&self) -> Option<DaemonJob> {
        let mut state = self.state.lock();
        loop {
            if let Some(job) = state.0.pop_front() {
                return Some(job);
            }
            if state.1 {
                return None;
            }
            self.ready.wait(&mut state);
        }
    }

    fn close(&self) {
        self.state.lock().1 = true;
        self.ready.notify_all();
    }
}

/// State shared between the daemon's accept loop, workers and writer.
struct DaemonShared {
    /// Frames awaiting write, in order. RESULTs that fail to write (or
    /// arrive while disconnected) survive here for replay; acks are
    /// connection-scoped and dropped on write failure.
    outbox: Mutex<VecDeque<Outgoing>>,
    outbox_cv: Condvar,
    /// Current client connection (write half); `None` while between
    /// clients. The writer thread takes a handle to it per batch.
    conn: Mutex<Option<Arc<TcpStream>>>,
    busy: AtomicU32,
    queued: AtomicU32,
    completed: AtomicU64,
    jobs_seen: AtomicU64,
    stop_writer: AtomicBool,
}

impl DaemonShared {
    fn new() -> Self {
        DaemonShared {
            outbox: Mutex::new(VecDeque::new()),
            outbox_cv: Condvar::new(),
            conn: Mutex::new(None),
            busy: AtomicU32::new(0),
            queued: AtomicU32::new(0),
            completed: AtomicU64::new(0),
            jobs_seen: AtomicU64::new(0),
            stop_writer: AtomicBool::new(false),
        }
    }

    fn push(&self, f: Frame) {
        self.push_out(Outgoing::Frame(f));
    }

    fn push_out(&self, out: Outgoing) {
        self.outbox.lock().push_back(out);
        self.outbox_cv.notify_all();
    }
}

/// The daemon's observability plane: a compact bounded trace ring of
/// [`TelemetryEvent`]s stamped in local monotonic micros, cumulative
/// counters, and an execution-latency sketch. The ring and the sketch
/// only fill while a client is subscribed (`level > 0`); the counters
/// are a handful of always-on atomic increments per job. Nothing ships
/// unsolicited — batches leave only in response to subscribed-heartbeat
/// and DRAIN flushes.
struct DaemonTelemetry {
    /// Local monotonic epoch — all `t_us` stamps are micros since this.
    start: Instant,
    /// This incarnation's spawn generation, stamped into every batch.
    generation: u64,
    /// 0 = off; >0 mirrors `simkit::trace::TraceLevel` (set by
    /// TELEMETRY_SUB).
    level: AtomicU8,
    /// Next batch sequence number.
    seq: AtomicU64,
    ring: Mutex<TelRing>,
    dispatches: AtomicU64,
    results_ok: AtomicU64,
    results_err: AtomicU64,
    chaos_swallowed: AtomicU64,
    chaos_delays: AtomicU64,
    /// Execution latency (seconds) of completed attempts.
    exec_hist: Mutex<LogHistogram>,
}

struct TelRing {
    events: VecDeque<TelemetryEvent>,
    cap: usize,
    dropped: u64,
}

impl DaemonTelemetry {
    fn new(generation: u64, ring_cap: usize) -> Self {
        DaemonTelemetry {
            start: Instant::now(),
            generation,
            level: AtomicU8::new(0),
            seq: AtomicU64::new(0),
            ring: Mutex::new(TelRing {
                events: VecDeque::new(),
                cap: ring_cap.max(1),
                dropped: 0,
            }),
            dispatches: AtomicU64::new(0),
            results_ok: AtomicU64::new(0),
            results_err: AtomicU64::new(0),
            chaos_swallowed: AtomicU64::new(0),
            chaos_delays: AtomicU64::new(0),
            exec_hist: Mutex::new(LogHistogram::new()),
        }
    }

    /// Micros since daemon start — the daemon's local monotonic clock,
    /// also stamped into HEARTBEAT_ACK for the client's offset estimator.
    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn enabled(&self) -> bool {
        self.level.load(Ordering::Relaxed) != 0
    }

    /// Records one trace event (no-op while unsubscribed). The ring
    /// drops oldest-first under pressure and counts what it lost.
    fn event(&self, stage: u8, task: u64, attempt: u32, arg: u64) {
        if !self.enabled() {
            return;
        }
        let ev = TelemetryEvent {
            stage,
            t_us: self.now_us(),
            task,
            attempt,
            arg,
        };
        let mut ring = self.ring.lock();
        if ring.events.len() == ring.cap {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(ev);
    }

    /// Drains the ring into TELEMETRY frames (possibly several, each at
    /// most [`TEL_MAX_EVENTS`] events). Counters and the latency sketch
    /// ride on the final frame as cumulative state; an empty ring still
    /// yields one frame so counter updates reach the client between
    /// events. Returns nothing while unsubscribed.
    fn flush_frames(&self) -> Vec<Frame> {
        if !self.enabled() {
            return Vec::new();
        }
        let (mut batches, dropped) = {
            let mut ring = self.ring.lock();
            let events: Vec<TelemetryEvent> = ring.events.drain(..).collect();
            let dropped = ring.dropped;
            let mut batches: Vec<Vec<TelemetryEvent>> = events
                .chunks(TEL_MAX_EVENTS)
                .map(<[TelemetryEvent]>::to_vec)
                .collect();
            if batches.is_empty() {
                batches.push(Vec::new());
            }
            (batches, dropped)
        };
        let counters = vec![
            (TEL_CTR_DISPATCHES, self.dispatches.load(Ordering::Relaxed)),
            (TEL_CTR_RESULTS_OK, self.results_ok.load(Ordering::Relaxed)),
            (
                TEL_CTR_RESULTS_ERR,
                self.results_err.load(Ordering::Relaxed),
            ),
            (
                TEL_CTR_CHAOS_SWALLOWED,
                self.chaos_swallowed.load(Ordering::Relaxed),
            ),
            (
                TEL_CTR_CHAOS_DELAYS,
                self.chaos_delays.load(Ordering::Relaxed),
            ),
            (TEL_CTR_RING_DROPPED, dropped),
        ];
        let exec_buckets = self.exec_hist.lock().bucket_counts();
        let last = batches.len() - 1;
        batches
            .drain(..)
            .enumerate()
            .map(|(i, events)| Frame::Telemetry {
                generation: self.generation,
                seq: self.seq.fetch_add(1, Ordering::Relaxed) + 1,
                events,
                counters: if i == last {
                    counters.clone()
                } else {
                    Vec::new()
                },
                exec_buckets: if i == last {
                    exec_buckets.clone()
                } else {
                    Vec::new()
                },
            })
            .collect()
    }
}

/// Runs one endpoint daemon to completion: bind, announce via `on_ready`,
/// serve connections until a DRAIN arrives, finish queued work, flush
/// results, return. This is the entire body of `unifaas-endpointd`, kept
/// in the library so tests can run a daemon on a thread ([`spawn_daemon_thread`])
/// instead of a child process.
pub fn run_daemon<F: FnOnce(SocketAddr)>(cfg: DaemonConfig, on_ready: F) -> std::io::Result<()> {
    let listener = TcpListener::bind(&cfg.listen)?;
    let addr = listener.local_addr()?;
    on_ready(addr);

    let registry = FnRegistry::builtins();
    let blobs: Arc<BlobStore> = Arc::new(Mutex::new(HashMap::new()));
    let tel = Arc::new(DaemonTelemetry::new(cfg.generation, cfg.telemetry_ring));
    let shared = Arc::new(DaemonShared::new());

    let jobs = Arc::new(JobQueue::new());
    let mut workers = Vec::with_capacity(cfg.workers.max(1));
    for i in 0..cfg.workers.max(1) {
        let jobs = Arc::clone(&jobs);
        let shared = Arc::clone(&shared);
        let blobs = Arc::clone(&blobs);
        let chaos = cfg.chaos;
        let tel = Arc::clone(&tel);
        workers.push(
            std::thread::Builder::new()
                .name(format!("{}-worker-{i}", cfg.name))
                .spawn(move || daemon_worker(&jobs, &shared, &blobs, &chaos, &tel))
                .expect("spawn daemon worker"),
        );
    }

    let writer = {
        let shared = Arc::clone(&shared);
        let tel = Arc::clone(&tel);
        std::thread::Builder::new()
            .name(format!("{}-writer", cfg.name))
            .spawn(move || daemon_writer(&shared, &tel))
            .expect("spawn daemon writer")
    };

    // Accept loop: one client at a time, until DRAIN.
    let mut draining = false;
    while !draining {
        let (stream, _) = listener.accept()?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(DAEMON_READ_TIMEOUT)).ok();
        stream.set_write_timeout(Some(Duration::from_secs(5))).ok();
        // HELLO goes out first, before the writer can replay queued
        // results on this connection.
        let hello = Frame::Hello {
            proto: PROTO_VERSION,
            name: cfg.name.clone(),
            workers: cfg.workers as u32,
            generation: cfg.generation,
        };
        let write_half = match stream.try_clone() {
            Ok(s) => Arc::new(s),
            Err(_) => continue,
        };
        if hello.write_to(&mut &*write_half).is_err() {
            continue;
        }
        *shared.conn.lock() = Some(write_half);
        shared.outbox_cv.notify_all();

        draining = daemon_serve_connection(stream, &shared, &blobs, &registry, &jobs, &tel);
        if !draining {
            // Connection lost; the write half stays queued-for-replay.
            *shared.conn.lock() = None;
        }
    }

    // Drain: no new work; finish the queue, flush results (the final
    // connection stays open until the outbox is empty), exit.
    jobs.close();
    for w in workers {
        let _ = w.join();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while !shared.outbox.lock().is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    shared.stop_writer.store(true, Ordering::SeqCst);
    shared.outbox_cv.notify_all();
    let _ = writer.join();
    *shared.conn.lock() = None;
    Ok(())
}

/// Reads frames from one client connection until it breaks or DRAINs.
/// Returns `true` if the daemon should shut down (DRAIN received).
///
/// Each socket read is applied whole, frames in order: a TRANSFER is
/// stored, a KEEP remembered for the DISPATCH behind it, acks pushed. The
/// read's jobs reach the workers together once it is applied (or just
/// ahead of a POLL or DRAIN, whose answers count them). Frames that decoded
/// before a read error are applied before the connection is dropped.
fn daemon_serve_connection(
    stream: TcpStream,
    shared: &DaemonShared,
    blobs: &BlobStore,
    registry: &FnRegistry,
    jobs: &JobQueue,
    tel: &DaemonTelemetry,
) -> bool {
    let mut reader = FrameReader::new(stream);
    // The attempt the last KEEP named: the DISPATCH behind it keeps its
    // output. Any other DISPATCH forgets it.
    let mut keep: Option<(u64, u32)> = None;
    // The functions this connection has named, each looked up once.
    let mut fns: Vec<(Arc<str>, WireFn)> = Vec::new();
    let mut frames = Vec::new();
    let mut batch = Vec::new();
    loop {
        let read = reader.read_batch(&mut frames);
        for frame in frames.drain(..) {
            match frame {
                Frame::Keep { task, attempt } => keep = Some((task, attempt)),
                Frame::Dispatch {
                    task,
                    attempt,
                    generation: _,
                    function,
                    deps,
                    payload,
                } => {
                    tel.dispatches.fetch_add(1, Ordering::Relaxed);
                    if tel.enabled() {
                        let depth = shared.queued.load(Ordering::SeqCst) as usize + batch.len() + 1;
                        tel.event(TEL_STAGE_RECV, task, attempt, depth as u64);
                    }
                    let (function, run) = resolve(&mut fns, registry, &function);
                    batch.push(DaemonJob {
                        spec: JobSpec {
                            task,
                            attempt,
                            function,
                            deps,
                            payload: payload.into(),
                            keep_output: keep.take() == Some((task, attempt)),
                        },
                        run,
                    });
                }
                Frame::Transfer { key, payload } => {
                    let stored = payload.len() as u64;
                    blobs.lock().insert(key, Arc::new(payload));
                    shared.push(Frame::TransferAck { key, stored });
                }
                Frame::Heartbeat { seq, t_client_us } => {
                    shared.push(Frame::HeartbeatAck {
                        seq,
                        busy: shared.busy.load(Ordering::SeqCst),
                        t_client_us,
                        t_daemon_us: tel.now_us(),
                    });
                    // Telemetry rides the heartbeat cadence: anything the
                    // ring gathered since the last beat ships right behind
                    // the ack (nothing while unsubscribed).
                    for f in tel.flush_frames() {
                        shared.push(f);
                    }
                }
                Frame::TelemetrySub { level } => {
                    tel.level.store(level, Ordering::Relaxed);
                }
                Frame::Poll => {
                    hand_off(shared, jobs, &mut batch);
                    shared.push(Frame::PollAck {
                        busy: shared.busy.load(Ordering::SeqCst),
                        queued: shared.queued.load(Ordering::SeqCst),
                        completed: shared.completed.load(Ordering::SeqCst),
                    });
                }
                Frame::Drain => {
                    hand_off(shared, jobs, &mut batch);
                    // The writer puts the final telemetry flush ahead of this.
                    shared.push(Frame::DrainAck {
                        remaining: shared.queued.load(Ordering::SeqCst)
                            + shared.busy.load(Ordering::SeqCst),
                    });
                    return true;
                }
                // Client-bound frames arriving here are a protocol violation;
                // tolerate them rather than crash the endpoint.
                _ => {}
            }
        }
        hand_off(shared, jobs, &mut batch);
        if read.is_err() {
            return false; // connection gone; back to accept
        }
    }
}

/// The function `name` resolves to, and the name as the job carries it.
/// Registered names are looked up once per connection and shared from
/// `fns` after that; only those are remembered, so `fns` never outgrows
/// the registry. An unknown name resolves to `None`, and its attempt fails
/// at the worker.
fn resolve(
    fns: &mut Vec<(Arc<str>, WireFn)>,
    registry: &FnRegistry,
    name: &str,
) -> (Arc<str>, Option<WireFn>) {
    if let Some((known, f)) = fns.iter().find(|(known, _)| **known == *name) {
        return (Arc::clone(known), Some(Arc::clone(f)));
    }
    let name: Arc<str> = Arc::from(name);
    let f = registry.get(&name);
    if let Some(f) = &f {
        fns.push((Arc::clone(&name), Arc::clone(f)));
    }
    (name, f)
}

/// Hands the jobs decoded so far to the workers: one count update, one
/// queue lock, one wake-up.
fn hand_off(shared: &DaemonShared, jobs: &JobQueue, batch: &mut Vec<DaemonJob>) {
    if batch.is_empty() {
        return;
    }
    shared
        .queued
        .fetch_add(batch.len() as u32, Ordering::SeqCst);
    jobs.push_all(batch);
}

/// One daemon worker: pull a job, apply chaos, execute, queue the RESULT.
fn daemon_worker(
    jobs: &JobQueue,
    shared: &DaemonShared,
    blobs: &BlobStore,
    chaos: &DaemonChaos,
    tel: &DaemonTelemetry,
) {
    while let Some(DaemonJob { spec: job, run }) = jobs.pop() {
        shared.queued.fetch_sub(1, Ordering::SeqCst);
        let n = shared.jobs_seen.fetch_add(1, Ordering::SeqCst) + 1;
        if chaos.swallow_every > 0 && n.is_multiple_of(chaos.swallow_every as u64) {
            // Crashed mid-execution: no RESULT, ever. The explicit
            // instant lets the merged timeline show *where* the fault
            // landed instead of leaving an unexplained truncated attempt.
            tel.chaos_swallowed.fetch_add(1, Ordering::Relaxed);
            tel.event(TEL_STAGE_CHAOS_SWALLOW, job.task, job.attempt, 0);
            continue;
        }
        if chaos.delay_ms > 0 {
            tel.chaos_delays.fetch_add(1, Ordering::Relaxed);
            tel.event(TEL_STAGE_CHAOS_DELAY, job.task, job.attempt, chaos.delay_ms);
            std::thread::sleep(Duration::from_millis(chaos.delay_ms));
        }
        shared.busy.fetch_add(1, Ordering::SeqCst);
        tel.event(TEL_STAGE_EXEC_BEGIN, job.task, job.attempt, 0);
        let exec_start = Instant::now();
        let outcome = match &run {
            None => Err(format!("unknown function `{}`", job.function)),
            Some(f) => {
                // The store is locked for the look-up and no longer (and
                // not at all for a job without inputs): the workers run
                // side by side, and the reader's TRANSFER inserts do not
                // wait for a function to return.
                let deps = if job.deps.is_empty() {
                    Ok(Vec::new())
                } else {
                    dep_blobs(&blobs.lock(), &job)
                };
                deps.and_then(|deps| run_on_input(f, &deps, &job.payload))
            }
        };
        let ok = outcome.is_ok();
        tel.event(TEL_STAGE_EXEC_END, job.task, job.attempt, u64::from(ok));
        if tel.enabled() {
            tel.exec_hist
                .lock()
                .observe(exec_start.elapsed().as_secs_f64());
        }
        if ok {
            tel.results_ok.fetch_add(1, Ordering::Relaxed);
        } else {
            tel.results_err.fetch_add(1, Ordering::Relaxed);
        }
        shared.busy.fetch_sub(1, Ordering::SeqCst);
        shared.completed.fetch_add(1, Ordering::SeqCst);
        let payload = match (outcome, job.kept_key()) {
            // Kept before the RESULT can leave: a dependent dispatched on
            // the strength of that RESULT finds the blob.
            (Ok(bytes), Some(key)) => {
                let bytes = Arc::new(bytes);
                blobs.lock().insert(key, Arc::clone(&bytes));
                Payload::Shared(bytes)
            }
            (Ok(bytes), None) => Payload::Owned(bytes),
            (Err(msg), _) => Payload::Owned(msg.into_bytes()),
        };
        let result = Outgoing::Result {
            task: job.task,
            attempt: job.attempt,
            ok,
            payload,
        };
        if chaos.dup_results {
            shared.push_out(result.clone());
        }
        shared.push_out(result);
    }
}

/// The daemon's single writer: takes the whole outbox under one lock and
/// puts it on the current connection with one write. RESULTs that cannot
/// be written survive for the next connection; acks do not (they are
/// meaningless to a future client).
fn daemon_writer(shared: &DaemonShared, tel: &DaemonTelemetry) {
    let mut batch: Vec<Outgoing> = Vec::new();
    let mut wbuf: Vec<u8> = Vec::with_capacity(IO_BUF);
    loop {
        let stream = {
            let mut q = shared.outbox.lock();
            loop {
                if shared.stop_writer.load(Ordering::SeqCst) {
                    return;
                }
                if !q.is_empty() {
                    if let Some(s) = shared.conn.lock().clone() {
                        batch.extend(q.drain(..));
                        break s;
                    }
                }
                shared.outbox_cv.wait_for(&mut q, Duration::from_millis(50));
            }
        };
        // The final telemetry flush goes ahead of DRAIN_ACK (a draining
        // client stops listening at the ack) and must carry the SENT stamp
        // of every RESULT before it — so those are written first.
        let ack = batch
            .iter()
            .position(|f| matches!(f, Outgoing::Frame(Frame::DrainAck { .. })));
        let mut tail = ack.map_or_else(Vec::new, |i| batch.split_off(i));
        let mut wrote = write_batch(&stream, &mut batch, &mut wbuf, tel);
        if wrote && !tail.is_empty() {
            batch = tel
                .flush_frames()
                .into_iter()
                .map(Outgoing::Frame)
                .collect();
            batch.append(&mut tail);
            wrote = write_batch(&stream, &mut batch, &mut wbuf, tel);
        }
        if !wrote {
            // Connection raced away mid-write. Results are precious —
            // requeue the batch's at the front, in order; any that did
            // arrive replay into the client's attempt guard.
            {
                let mut q = shared.outbox.lock();
                for frame in batch.drain(..).chain(tail).rev() {
                    if matches!(frame, Outgoing::Result { .. }) {
                        q.push_front(frame);
                    }
                }
            }
            let mut conn = shared.conn.lock();
            if conn.as_ref().is_some_and(|c| Arc::ptr_eq(c, &stream)) {
                *conn = None;
            }
            drop(conn);
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Puts `batch` on `stream` through `wbuf`: one write per [`IO_BUF`] of
/// frames, a large RESULT payload written from where it lives. On success
/// consumes the batch and gives every RESULT the span's last daemon-side
/// stamp — it hit the wire (replays after a reconnect re-stamp, which is
/// the truth: the first copy never arrived). On failure leaves `batch`
/// intact.
fn write_batch(
    mut stream: &TcpStream,
    batch: &mut Vec<Outgoing>,
    wbuf: &mut Vec<u8>,
    tel: &DaemonTelemetry,
) -> bool {
    let queued = batch.iter().try_for_each(|out| match out {
        Outgoing::Frame(frame) => queue_frame(&mut stream, wbuf, |b| frame.encode_into(b), &[]),
        Outgoing::Result {
            task,
            attempt,
            ok,
            payload,
        } => {
            let (task, attempt, ok) = (*task, *attempt, *ok);
            let head = |b: &mut Vec<u8>| {
                encode_result_head(b, task, attempt, tel.generation, ok, payload.len());
            };
            queue_frame(&mut stream, wbuf, head, payload)
        }
    });
    let wrote = queued
        .and_then(|()| flush_queued(&mut stream, wbuf))
        .is_ok();
    wbuf.clear();
    if wrote {
        for out in batch.drain(..) {
            if let Outgoing::Result {
                task, attempt, ok, ..
            } = out
            {
                tel.event(TEL_STAGE_SENT, task, attempt, u64::from(ok));
            }
        }
    }
    wrote
}

/// Handle to a daemon running on a thread in this process (connect-mode
/// tests; production daemons are child processes).
pub struct DaemonHandle {
    addr: SocketAddr,
    join: Option<JoinHandle<std::io::Result<()>>>,
}

impl DaemonHandle {
    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the daemon to exit (it exits after a DRAIN).
    pub fn join(mut self) -> std::io::Result<()> {
        match self.join.take() {
            Some(j) => j
                .join()
                .unwrap_or_else(|_| Err(std::io::Error::other("daemon thread panicked"))),
            None => Ok(()),
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        // Detach: a daemon that was never drained would block a join
        // forever on accept(). Tests that care call `join()` explicitly.
        drop(self.join.take());
    }
}

/// Runs [`run_daemon`] on a thread and returns once the listener is bound.
pub fn spawn_daemon_thread(cfg: DaemonConfig) -> std::io::Result<DaemonHandle> {
    let (tx, rx) = std::sync::mpsc::channel();
    let name = cfg.name.clone();
    let join = std::thread::Builder::new()
        .name(format!("{name}-daemon"))
        .spawn(move || {
            run_daemon(cfg, |addr| {
                let _ = tx.send(addr);
            })
        })?;
    match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(addr) => Ok(DaemonHandle {
            addr,
            join: Some(join),
        }),
        Err(_) => Err(std::io::Error::other("daemon failed to bind")),
    }
}

// ---------------------------------------------------------------------------
// Client: ProcessFabric
// ---------------------------------------------------------------------------

/// How the fabric reaches one endpoint.
#[derive(Clone, Debug)]
pub enum EndpointMode {
    /// Spawn `command` as a child process (argv prefix; the fabric
    /// appends `--name/--workers/--listen/--generation`), parse the
    /// `LISTENING` line, connect. The supervisor respawns it — with an
    /// incremented generation — if it dies.
    Spawn {
        /// Program and leading arguments (e.g. the `unifaas-endpointd`
        /// path plus chaos flags).
        command: Vec<String>,
    },
    /// Connect to an already-running daemon (or a [`ChaosProxy`] in
    /// front of one).
    Connect {
        /// `host:port` of the daemon.
        addr: String,
    },
}

/// One endpoint's identity and reachability.
#[derive(Clone, Debug)]
pub struct ProcessEndpointSpec {
    /// Endpoint name (also the spawned daemon's `--name`).
    pub name: String,
    /// Worker count (also the spawned daemon's `--workers`; in connect
    /// mode this is the placement-capacity assumption until HELLO says
    /// otherwise).
    pub workers: usize,
    /// Spawn or connect.
    pub mode: EndpointMode,
}

/// Fabric-wide knobs.
#[derive(Clone, Debug)]
pub struct ProcessFabricConfig {
    /// Heartbeat/liveness/backoff intervals (validated at construction).
    pub timing: FabricTiming,
    /// Seed for the per-endpoint backoff-jitter RNG streams.
    pub seed: u64,
    /// Whether a dead spawned child is respawned (generation + 1). With
    /// this off a killed endpoint stays dead — useful for asserting
    /// permanent-loss behaviour.
    pub respawn: bool,
    /// Subscribe to daemon telemetry (TELEMETRY_SUB after every HELLO)
    /// and buffer the returned trace batches for
    /// [`ProcessFabric::telemetry`]. Off by default: a telemetry-off run
    /// exchanges no TELEMETRY frames at all and its results are
    /// bit-identical to pre-observability builds.
    pub telemetry: bool,
}

impl Default for ProcessFabricConfig {
    fn default() -> Self {
        ProcessFabricConfig {
            timing: FabricTiming::default(),
            seed: 1,
            respawn: true,
            telemetry: false,
        }
    }
}

/// Monotone per-endpoint robustness counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcessCounters {
    /// Successful connections established (first connect included).
    pub connects: u64,
    /// Child processes spawned beyond the first (i.e. respawns).
    pub respawns: u64,
    /// Outstanding attempts failed over because their connection died.
    pub failovers: u64,
    /// RESULT frames dropped because no matching (task, attempt) was
    /// outstanding — replays from resurrected endpoints, duplicates.
    pub stale_results: u64,
}

/// Per-endpoint state shared between the supervisor thread and the
/// fabric's public accessors.
struct EpShared {
    probe: AtomicU8, // 0 = Alive, 1 = Suspect, 2 = Dead
    busy: AtomicU32,
    workers: AtomicU32,
    generation: AtomicU64,
    connects: AtomicU64,
    respawns: AtomicU64,
    failovers: AtomicU64,
    stale_results: AtomicU64,
    // Wire-level observability: frame/byte counters for both directions
    // plus telemetry ingest stats, all cheap relaxed atomics.
    frames_sent: AtomicU64,
    frames_recv: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_recv: AtomicU64,
    /// Socket-level `write_all`/`read` calls: frames ÷ these is how many
    /// frames each syscall carried.
    socket_writes: AtomicU64,
    socket_reads: AtomicU64,
    /// TRANSFER payload bytes shipped, and stage requests answered without
    /// a TRANSFER because the daemon kept the output where it was computed.
    transfer_bytes: AtomicU64,
    transfers_elided: AtomicU64,
    tel_frames: AtomicU64,
    tel_events: AtomicU64,
    /// Heartbeat round-trip times, seconds.
    rtt_hist: Mutex<LogHistogram>,
    /// DISPATCH-write to RESULT-arrival latency, seconds.
    dispatch_hist: Mutex<LogHistogram>,
    /// Buffered daemon telemetry and clock evidence.
    telemetry: Mutex<TelemetryStore>,
}

impl EpShared {
    fn new(workers: usize) -> Self {
        EpShared {
            probe: AtomicU8::new(2),
            busy: AtomicU32::new(0),
            workers: AtomicU32::new(workers as u32),
            generation: AtomicU64::new(0),
            connects: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            stale_results: AtomicU64::new(0),
            frames_sent: AtomicU64::new(0),
            frames_recv: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            bytes_recv: AtomicU64::new(0),
            socket_writes: AtomicU64::new(0),
            socket_reads: AtomicU64::new(0),
            transfer_bytes: AtomicU64::new(0),
            transfers_elided: AtomicU64::new(0),
            tel_frames: AtomicU64::new(0),
            tel_events: AtomicU64::new(0),
            rtt_hist: Mutex::new(LogHistogram::new()),
            dispatch_hist: Mutex::new(LogHistogram::new()),
            telemetry: Mutex::new(TelemetryStore::new()),
        }
    }

    fn set_probe(&self, p: ProbeState) {
        self.probe.store(
            match p {
                ProbeState::Alive => 0,
                ProbeState::Suspect => 1,
                ProbeState::Dead => 2,
            },
            Ordering::SeqCst,
        );
    }

    fn get_probe(&self) -> ProbeState {
        match self.probe.load(Ordering::SeqCst) {
            0 => ProbeState::Alive,
            1 => ProbeState::Suspect,
            _ => ProbeState::Dead,
        }
    }
}

/// Client-side accumulation of one endpoint daemon's telemetry. Keyed by
/// spawn generation throughout: a respawned daemon restarts its monotonic
/// clock, so events, counters, sketches, and clock evidence from
/// different incarnations must never be conflated.
struct TelemetryStore {
    /// Buffered trace events, tagged with the generation whose daemon
    /// clock stamped them.
    events: Vec<(u64, TelemetryEvent)>,
    /// Highest batch sequence ingested per generation.
    last_seq: HashMap<u64, u64>,
    /// Latest cumulative counters per generation (code → value).
    gen_counters: HashMap<u64, Vec<(u16, u64)>>,
    /// Latest cumulative exec-latency bucket counts per generation.
    gen_buckets: HashMap<u64, Vec<(i32, u64)>>,
    /// Heartbeat clock evidence per generation.
    clocks: HashMap<u64, ClockSync>,
    /// Batches refused: stale generation or non-advancing sequence.
    dropped_batches: u64,
    /// Events discarded once [`CLIENT_TEL_EVENT_CAP`] was reached.
    dropped_events: u64,
}

impl TelemetryStore {
    fn new() -> Self {
        TelemetryStore {
            events: Vec::new(),
            last_seq: HashMap::new(),
            gen_counters: HashMap::new(),
            gen_buckets: HashMap::new(),
            clocks: HashMap::new(),
            dropped_batches: 0,
            dropped_events: 0,
        }
    }

    /// Ingests one TELEMETRY batch. A batch from any generation other
    /// than the connection's current one, or whose sequence fails to
    /// advance past everything already ingested for that generation, is
    /// dropped whole — merging it would put events on the wrong clock or
    /// regress cumulative counters. Returns whether the batch was kept.
    fn ingest(
        &mut self,
        current_gen: u64,
        generation: u64,
        seq: u64,
        events: Vec<TelemetryEvent>,
        counters: Vec<(u16, u64)>,
        exec_buckets: Vec<(i32, u64)>,
    ) -> bool {
        if generation != current_gen {
            self.dropped_batches += 1;
            return false;
        }
        let last = self.last_seq.entry(generation).or_insert(0);
        if seq <= *last {
            self.dropped_batches += 1;
            return false;
        }
        *last = seq;
        for ev in events {
            if self.events.len() >= CLIENT_TEL_EVENT_CAP {
                self.dropped_events += 1;
            } else {
                self.events.push((generation, ev));
            }
        }
        // Counters and the sketch are cumulative-since-daemon-start, so
        // the newest batch supersedes whatever we held (and a batch that
        // carries neither leaves the last full snapshot in place).
        if !counters.is_empty() {
            self.gen_counters.insert(generation, counters);
        }
        if !exec_buckets.is_empty() {
            self.gen_buckets.insert(generation, exec_buckets);
        }
        true
    }
}

/// Wraps the reader half of a supervisor connection to count inbound
/// reads and bytes at the socket, including frames that later fail to
/// decode.
struct CountingReader {
    inner: TcpStream,
    shared: Arc<EpShared>,
}

impl Read for CountingReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.shared.socket_reads.fetch_add(1, Ordering::Relaxed);
        self.shared
            .bytes_recv
            .fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

/// The writer half of a supervisor connection: counts socket writes and
/// bytes where they happen, a large payload's own write included.
struct CountingWriter {
    inner: TcpStream,
    shared: Arc<EpShared>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.shared.socket_writes.fetch_add(1, Ordering::Relaxed);
        self.shared
            .bytes_sent
            .fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Everything the supervisor thread reacts to, merged into one channel so
/// a single `recv_timeout` drives commands, inbound frames, and timer
/// deadlines alike.
enum Ev {
    Stage(u64, Arc<Vec<u8>>),
    Submit(JobSpec, Completion),
    /// The frames one socket read brought in, from the reader of
    /// connection-epoch `.0`.
    Frames(u64, Vec<Frame>),
    /// The reader of connection-epoch `.0` hit EOF/error.
    ReaderClosed(u64),
    /// SIGKILL the child (chaos hook).
    Kill,
    Shutdown,
}

/// One live connection as the supervisor sees it.
struct Conn {
    stream: CountingWriter,
    /// Encoded frames not yet written (see [`Supervisor::queue`]).
    wbuf: Vec<u8>,
    epoch: u64,
    /// Blob keys a stage request was answered for on this connection.
    staged: HashSet<u64>,
    /// Keys of outputs the daemon kept (their RESULT arrived on this
    /// connection) that no stage request has asked for yet.
    kept: HashSet<u64>,
    hb_last_sent: Instant,
    last_ack: Instant,
}

/// One in-flight attempt: its completion, the instant its DISPATCH entered
/// the write buffer (for the dispatch-roundtrip histogram), and the key the
/// daemon keeps its output under, if it was told to.
struct Pending {
    done: Completion,
    sent_at: Instant,
    kept: Option<u64>,
}

/// A supervisor's in-flight attempts by `(task, attempt)`, hashed by
/// [`InFlightHasher`].
///
/// Keyed for locality on the assumption that task ids are dense: the
/// runtime hands out slab indices, so consecutive tasks sit in
/// consecutive buckets and a near-FIFO stream of RESULTs walks the table
/// in order. Ids that are strided (say, multiples of a power of two
/// larger than the table) share buckets and cost probes; correctness
/// comes from key equality either way, and the table holds only what is
/// in flight. Only `submit` inserts keys; a RESULT from the wire only
/// looks one up, so a hostile daemon cannot lengthen a probe.
type InFlight = HashMap<(u64, u32), Pending, BuildHasherDefault<InFlightHasher>>;

/// The hash of an in-flight key: the task id in the low bits, the attempt
/// folded in above bit 40, and the top seven bits — which the table keeps
/// as a per-slot tag — mixed from both, so a probe over a run of
/// neighbours compares few keys. Not for keys whose low bits are not a
/// dense task id (`blob_key` puts the attempt there).
#[derive(Default)]
struct InFlightHasher(u64);

impl Hasher for InFlightHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, task: u64) {
        self.0 ^= task;
    }

    fn write_u32(&mut self, attempt: u32) {
        self.0 ^= u64::from(attempt) << 40;
    }

    fn finish(&self) -> u64 {
        const TAG: u64 = 0x7f << 57;
        self.0 ^ (self.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) & TAG)
    }
}

/// The supervisor for one endpoint.
struct Supervisor {
    spec: ProcessEndpointSpec,
    timing: FabricTiming,
    respawn: bool,
    telemetry: bool,
    /// The fabric-wide client clock epoch; all `t_client_us` stamps are
    /// micros since this, so every endpoint shares one client timeline.
    clock0: Instant,
    shared: Arc<EpShared>,
    rx: Receiver<Ev>,
    self_tx: Sender<Ev>,
    rng: StdRng,
    child: Option<Child>,
    child_addr: Option<SocketAddr>,
    spawned_once: bool,
    conn: Option<Conn>,
    epoch: u64,
    hb_seq: u64,
    backoff_exp: u32,
    next_connect: Instant,
    gave_up: bool,
    outstanding: InFlight,
    blob_cache: HashMap<u64, Arc<Vec<u8>>>,
}

impl Supervisor {
    /// Micros on the shared client clock.
    fn now_us(&self) -> u64 {
        self.clock0.elapsed().as_micros() as u64
    }

    /// Queues one frame — `head` appends it up to its `payload`, empty for
    /// most kinds — on the connection's write buffer, which is written once
    /// it passes [`IO_BUF`] and otherwise before the supervisor next blocks
    /// (see [`Supervisor::run`]); a payload of [`IO_BUF`] or more goes out
    /// at once, uncopied. Returns `false` while disconnected or if a write
    /// failed.
    fn queue(&mut self, head: impl FnOnce(&mut Vec<u8>), payload: &[u8]) -> bool {
        let Some(c) = &mut self.conn else {
            return false;
        };
        self.shared.frames_sent.fetch_add(1, Ordering::Relaxed);
        let queued = queue_frame(&mut c.stream, &mut c.wbuf, head, payload);
        self.written(queued)
    }

    /// Writes everything buffered with one `write_all`.
    fn flush(&mut self) -> bool {
        let Some(c) = &mut self.conn else {
            return false;
        };
        let flushed = flush_queued(&mut c.stream, &mut c.wbuf);
        self.written(flushed)
    }

    /// A failed write loses the connection, which fails every outstanding
    /// attempt — those whose DISPATCH was still in the buffer included.
    fn written(&mut self, result: std::io::Result<()>) -> bool {
        if result.is_err() {
            self.conn_lost("socket write failed");
        }
        result.is_ok()
    }

    fn run(mut self) {
        loop {
            let now = Instant::now();
            if self.conn.is_none() && !self.gave_up && now >= self.next_connect {
                self.try_connect();
            }
            let hb_due = self.conn.as_ref().is_some_and(|c| {
                now.duration_since(c.hb_last_sent) >= self.timing.heartbeat_interval
            });
            if hb_due {
                self.hb_seq += 1;
                // Every heartbeat is also a clock probe: the daemon
                // echoes t_client_us back with its own stamp.
                let hb = Frame::Heartbeat {
                    seq: self.hb_seq,
                    t_client_us: self.now_us(),
                };
                if let Some(c) = &mut self.conn {
                    c.hb_last_sent = now;
                }
                // Written at once, taking along whatever is buffered: the
                // probe's stamp stays honest and the beat stays on schedule
                // even when the loop below never goes idle.
                let _ = self.queue(|out| hb.encode_into(out), &[]) && self.flush();
            }
            if let Some(c) = &self.conn {
                let silent = now.duration_since(c.last_ack);
                if silent >= self.timing.down_after {
                    self.conn_lost("liveness timeout");
                } else if silent >= self.timing.suspect_after {
                    self.shared.set_probe(ProbeState::Suspect);
                }
            }
            // Block only when idle, and flush first: no frame ever waits
            // in the buffer for a later frame or a timer.
            let mut next = match self.rx.try_recv() {
                Ok(ev) => Some(ev),
                Err(TryRecvError::Disconnected) => return self.shutdown(),
                Err(TryRecvError::Empty) => {
                    self.flush();
                    let wait = self
                        .next_deadline()
                        .saturating_duration_since(Instant::now());
                    match self.rx.recv_timeout(wait.max(Duration::from_millis(1))) {
                        Ok(ev) => Some(ev),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => return self.shutdown(),
                    }
                }
            };
            // Handle what is already queued without flushing in between,
            // so a burst shares socket writes; the budget returns to the
            // timers above on schedule however long the backlog is.
            let mut budget = DRAIN_BUDGET;
            while let Some(ev) = next {
                budget = budget.saturating_sub(match &ev {
                    Ev::Shutdown => return self.shutdown(),
                    Ev::Frames(_, frames) => frames.len(),
                    _ => 1,
                });
                self.handle(ev);
                next = if budget > 0 {
                    self.rx.try_recv().ok()
                } else {
                    None
                };
            }
        }
    }

    /// The earliest instant at which time-driven work (heartbeat,
    /// liveness verdict, reconnect attempt) is due.
    fn next_deadline(&self) -> Instant {
        match &self.conn {
            Some(c) => {
                let hb = c.hb_last_sent + self.timing.heartbeat_interval;
                let suspect = c.last_ack + self.timing.suspect_after;
                let down = c.last_ack + self.timing.down_after;
                hb.min(suspect).min(down)
            }
            None => {
                if self.gave_up {
                    Instant::now() + Duration::from_secs(3600)
                } else {
                    self.next_connect
                }
            }
        }
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Stage(key, bytes) => {
                self.blob_cache.insert(key, bytes);
                self.stage_to_conn(key);
            }
            Ev::Submit(job, done) => self.submit(job, done),
            Ev::Frames(epoch, frames) => self.on_frames(epoch, frames),
            Ev::ReaderClosed(epoch) => {
                if self.conn.as_ref().is_some_and(|c| c.epoch == epoch) {
                    self.conn_lost("connection closed");
                }
            }
            Ev::Kill => self.kill_child(),
            Ev::Shutdown => unreachable!("handled in run()"),
        }
    }

    /// Ships blob `key` to the current connection unless its daemon has
    /// it: TRANSFERred this epoch, or kept where an attempt computed it.
    fn stage_to_conn(&mut self, key: u64) {
        let (Some(c), Some(bytes)) = (&mut self.conn, self.blob_cache.get(&key)) else {
            return;
        };
        if !c.staged.insert(key) {
            return;
        }
        if c.kept.remove(&key) {
            self.shared.transfers_elided.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let bytes = Arc::clone(bytes);
        self.shared
            .transfer_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.queue(|out| encode_transfer_head(out, key, bytes.len()), &bytes);
    }

    fn submit(&mut self, job: JobSpec, done: Completion) {
        // Re-stage any dep this connection epoch hasn't seen (a restarted
        // daemon lost its blob store; a reconnect cleared `staged`).
        for &d in &job.deps {
            if !self.blob_cache.contains_key(&d) {
                done(Err(format!(
                    "dep blob {d} for task {} never staged",
                    job.task
                )));
                return;
            }
            self.stage_to_conn(d);
        }
        if self.conn.is_none() {
            done(Err(format!("endpoint {} not connected", self.spec.name)));
            return;
        }
        // Outstanding from the moment its DISPATCH is buffered: if the
        // write that carries it fails, `conn_lost` fails it with the rest.
        let kept = job.kept_key();
        self.outstanding.insert(
            (job.task, job.attempt),
            Pending {
                done,
                sent_at: Instant::now(),
                kept,
            },
        );
        let (task, attempt) = (job.task, job.attempt);
        if kept.is_some() {
            self.queue(|out| Frame::Keep { task, attempt }.encode_into(out), &[]);
        }
        // Span context: the daemon generation this dispatch believes it
        // is talking to (a respawned daemon will answer with its own,
        // newer generation on the RESULT).
        let generation = self.shared.generation.load(Ordering::SeqCst);
        let (function, deps, len) = (&job.function, &job.deps, job.payload.len());
        let head = |out: &mut Vec<u8>| {
            encode_dispatch_head(out, task, attempt, generation, function, deps, len);
        };
        self.queue(head, &job.payload);
    }

    fn on_frames(&mut self, epoch: u64, frames: Vec<Frame>) {
        let now = Instant::now();
        for frame in frames {
            match &mut self.conn {
                // Any frame is proof of life.
                Some(c) if c.epoch == epoch => c.last_ack = now,
                _ => return, // a stale reader's leftovers
            }
            self.on_frame(frame);
        }
    }

    fn on_frame(&mut self, frame: Frame) {
        match frame {
            Frame::Hello {
                proto,
                workers,
                generation,
                ..
            } => {
                if proto != PROTO_VERSION {
                    self.conn_lost("protocol version mismatch");
                    return;
                }
                self.shared.workers.store(workers, Ordering::SeqCst);
                self.shared.generation.store(generation, Ordering::SeqCst);
                self.shared.set_probe(ProbeState::Alive);
            }
            Frame::HeartbeatAck {
                busy,
                t_client_us,
                t_daemon_us,
                ..
            } => {
                self.shared.busy.store(busy, Ordering::SeqCst);
                self.shared.set_probe(ProbeState::Alive);
                let sample = ClockSample {
                    t0_us: t_client_us,
                    t_daemon_us,
                    t3_us: self.now_us(),
                };
                if sample.t3_us >= sample.t0_us {
                    self.shared
                        .rtt_hist
                        .lock()
                        .observe(sample.rtt_us() as f64 / 1e6);
                    let generation = self.shared.generation.load(Ordering::SeqCst);
                    self.shared
                        .telemetry
                        .lock()
                        .clocks
                        .entry(generation)
                        .or_default()
                        .observe(sample);
                }
            }
            Frame::PollAck { busy, .. } => {
                self.shared.busy.store(busy, Ordering::SeqCst);
            }
            Frame::Result {
                task,
                attempt,
                generation: _,
                ok,
                payload,
            } => match self.outstanding.remove(&(task, attempt)) {
                Some(p) => {
                    self.shared
                        .dispatch_hist
                        .lock()
                        .observe(p.sent_at.elapsed().as_secs_f64());
                    // Outstanding means dispatched on this connection, and
                    // its daemon stored the output before it sent this.
                    if let (true, Some(key), Some(c)) = (ok, p.kept, &mut self.conn) {
                        c.kept.insert(key);
                    }
                    (p.done)(if ok {
                        Ok(payload)
                    } else {
                        Err(String::from_utf8_lossy(&payload).into_owned())
                    });
                }
                None => {
                    // A replay from a resurrected connection, a
                    // duplicate, or an attempt we already failed over.
                    // Exactly-once resolution = drop it here.
                    self.shared.stale_results.fetch_add(1, Ordering::SeqCst);
                }
            },
            Frame::Telemetry {
                generation,
                seq,
                events,
                counters,
                exec_buckets,
            } => {
                let current = self.shared.generation.load(Ordering::SeqCst);
                let n_events = events.len() as u64;
                let kept = self.shared.telemetry.lock().ingest(
                    current,
                    generation,
                    seq,
                    events,
                    counters,
                    exec_buckets,
                );
                if kept {
                    self.shared.tel_frames.fetch_add(1, Ordering::Relaxed);
                    self.shared
                        .tel_events
                        .fetch_add(n_events, Ordering::Relaxed);
                }
            }
            Frame::TransferAck { .. } | Frame::DrainAck { .. } => {}
            _ => {}
        }
    }

    fn try_connect(&mut self) {
        let addr = match self.ensure_target() {
            Some(a) => a,
            None => {
                self.schedule_reconnect();
                return;
            }
        };
        match TcpStream::connect_timeout(&addr, self.timing.connect_timeout) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                stream.set_write_timeout(Some(self.timing.down_after)).ok();
                self.epoch += 1;
                let epoch = self.epoch;
                if let Ok(read_half) = stream.try_clone() {
                    let tx = self.self_tx.clone();
                    let name = self.spec.name.clone();
                    let shared = Arc::clone(&self.shared);
                    std::thread::Builder::new()
                        .name(format!("{name}-reader-{epoch}"))
                        .spawn(move || {
                            let mut reader = FrameReader::new(CountingReader {
                                inner: read_half,
                                shared: Arc::clone(&shared),
                            });
                            loop {
                                let mut frames = Vec::new();
                                let read = reader.read_batch(&mut frames);
                                let n = frames.len() as u64;
                                shared.frames_recv.fetch_add(n, Ordering::Relaxed);
                                if n > 0 && tx.send(Ev::Frames(epoch, frames)).is_err() {
                                    return;
                                }
                                if read.is_err() {
                                    let _ = tx.send(Ev::ReaderClosed(epoch));
                                    return;
                                }
                            }
                        })
                        .expect("spawn reader");
                } else {
                    self.schedule_reconnect();
                    return;
                }
                let now = Instant::now();
                self.conn = Some(Conn {
                    stream: CountingWriter {
                        inner: stream,
                        shared: Arc::clone(&self.shared),
                    },
                    wbuf: Vec::with_capacity(IO_BUF),
                    epoch,
                    staged: HashSet::new(),
                    kept: HashSet::new(),
                    // Backdate so the first heartbeat goes out on the
                    // next loop iteration.
                    hb_last_sent: now - self.timing.heartbeat_interval,
                    last_ack: now,
                });
                self.backoff_exp = 0;
                self.shared.connects.fetch_add(1, Ordering::SeqCst);
                // Telemetry is strictly opt-in and per-connection: the
                // subscription is the first frame on every connection —
                // ahead of any dispatch, so the daemon's RECV stamps
                // cover even the first task, and re-sent on every
                // reconnect so a respawned daemon re-subscribes.
                if self.telemetry {
                    self.queue(|out| Frame::TelemetrySub { level: 2 }.encode_into(out), &[]);
                }
                // Probe flips to Alive when HELLO arrives.
            }
            Err(_) => self.schedule_reconnect(),
        }
    }

    /// Resolves the address to connect to, spawning/respawning the child
    /// if this endpoint owns one and it is not running.
    fn ensure_target(&mut self) -> Option<SocketAddr> {
        match self.spec.mode.clone() {
            EndpointMode::Connect { addr } => {
                addr.to_socket_addrs().ok().and_then(|mut a| a.next())
            }
            EndpointMode::Spawn { command } => {
                let child_dead = match &mut self.child {
                    None => true,
                    Some(ch) => ch.try_wait().map(|st| st.is_some()).unwrap_or(true),
                };
                if child_dead {
                    if self.spawned_once && !self.respawn {
                        self.gave_up = true;
                        return None;
                    }
                    let generation =
                        self.shared.respawns.load(Ordering::SeqCst) + u64::from(self.spawned_once);
                    match spawn_endpointd(&command, &self.spec, generation) {
                        Ok((child, addr)) => {
                            if self.spawned_once {
                                self.shared.respawns.fetch_add(1, Ordering::SeqCst);
                            }
                            self.spawned_once = true;
                            self.child = Some(child);
                            self.child_addr = Some(addr);
                        }
                        Err(_) => return None,
                    }
                }
                self.child_addr
            }
        }
    }

    /// Declares the connection dead: fail every outstanding attempt (the
    /// runtime re-dispatches under fresh attempt numbers), clear the
    /// staged set, and schedule reconnection.
    fn conn_lost(&mut self, reason: &str) {
        let Some(c) = self.conn.take() else { return };
        let _ = c.stream.inner.shutdown(Shutdown::Both);
        self.shared.set_probe(ProbeState::Dead);
        let n = self.outstanding.len() as u64;
        if n > 0 {
            self.shared.failovers.fetch_add(n, Ordering::SeqCst);
        }
        for ((task, _attempt), p) in std::mem::take(&mut self.outstanding) {
            (p.done)(Err(format!(
                "endpoint {}: {reason} (task {task} in flight)",
                self.spec.name
            )));
        }
        // Retry promptly; if the peer is really gone the connect failure
        // path takes over with exponential backoff.
        self.next_connect = Instant::now();
    }

    /// Seeded exponential backoff with multiplicative jitter in
    /// [0.5, 1.5): deterministic per (fabric seed, endpoint), desynced
    /// across endpoints so a mass outage does not produce a reconnect
    /// stampede.
    fn schedule_reconnect(&mut self) {
        let base = self.timing.reconnect_base.as_secs_f64();
        let max = self.timing.reconnect_max.as_secs_f64();
        let exp = f64::from(self.backoff_exp.min(16));
        let jitter = 0.5 + self.rng.gen::<f64>();
        let delay = (base * exp.exp2() * jitter).min(max);
        self.backoff_exp = self.backoff_exp.saturating_add(1);
        self.next_connect = Instant::now() + Duration::from_secs_f64(delay);
    }

    /// SIGKILL the child — the chaos hook. `Child::kill` is SIGKILL on
    /// unix: no cleanup, no flush, the real crash.
    fn kill_child(&mut self) {
        if let Some(mut ch) = self.child.take() {
            let _ = ch.kill();
            let _ = ch.wait(); // reap
        }
    }

    fn shutdown(mut self) {
        if let Some(epoch) = self.conn.as_ref().map(|c| c.epoch) {
            if self.queue(|out| Frame::Drain.encode_into(out), &[]) && self.flush() {
                // Give the daemon a moment to ack so it exits cleanly;
                // results that race in still resolve normally.
                let deadline = Instant::now() + Duration::from_millis(500);
                'wait: while Instant::now() < deadline {
                    let left = deadline.saturating_duration_since(Instant::now());
                    match self.rx.recv_timeout(left.max(Duration::from_millis(1))) {
                        Ok(Ev::Frames(e, frames)) => {
                            let acked = e == epoch
                                && frames.iter().any(|f| matches!(f, Frame::DrainAck { .. }));
                            self.on_frames(e, frames);
                            if acked {
                                break 'wait;
                            }
                        }
                        Ok(Ev::ReaderClosed(e)) if e == epoch => break 'wait,
                        Ok(ev) => refuse(ev),
                        Err(_) => break 'wait,
                    }
                }
            }
        }
        if let Some(c) = self.conn.take() {
            let _ = c.stream.inner.shutdown(Shutdown::Both);
        }
        if let Some(mut ch) = self.child.take() {
            // Post-drain the daemon exits on its own; give it a beat,
            // then make sure.
            let deadline = Instant::now() + Duration::from_secs(2);
            loop {
                match ch.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    _ => {
                        let _ = ch.kill();
                        let _ = ch.wait();
                        break;
                    }
                }
            }
        }
        self.shared.set_probe(ProbeState::Dead);
        for (_, p) in std::mem::take(&mut self.outstanding) {
            (p.done)(Err(SHUT_DOWN.to_string()));
        }
        // Whatever queued up behind the shutdown: a submit among it must
        // still resolve.
        while let Ok(ev) = self.rx.try_recv() {
            refuse(ev);
        }
    }
}

/// The error an attempt submitted after shutdown began resolves with.
const SHUT_DOWN: &str = "fabric shut down";

/// Answers an event that reaches a supervisor after shutdown began: a
/// submit fails (its completion must fire), anything else is dropped.
fn refuse(ev: Ev) {
    if let Ev::Submit(_, done) = ev {
        done(Err(SHUT_DOWN.to_string()));
    }
}

/// Spawns `unifaas-endpointd` (or whatever `command` names) and parses
/// its `LISTENING <addr>` announcement.
fn spawn_endpointd(
    command: &[String],
    spec: &ProcessEndpointSpec,
    generation: u64,
) -> std::io::Result<(Child, SocketAddr)> {
    if command.is_empty() {
        return Err(std::io::Error::other("empty spawn command"));
    }
    let mut cmd = Command::new(&command[0]);
    cmd.args(&command[1..])
        .arg("--name")
        .arg(&spec.name)
        .arg("--workers")
        .arg(spec.workers.to_string())
        .arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--generation")
        .arg(generation.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut child = cmd.spawn()?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| std::io::Error::other("no child stdout"))?;
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other("daemon exited before announcing"));
        }
        if let Some(rest) = line.trim().strip_prefix(LISTENING_PREFIX) {
            match rest.parse::<SocketAddr>() {
                Ok(a) => break a,
                Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(std::io::Error::other("bad LISTENING line"));
                }
            }
        }
    };
    Ok((child, addr))
}

/// Metric handles for one process-fabric endpoint (see
/// [`ProcessFabric::register_metrics`]), with counter high-water marks
/// for monotone sampling — same shape as the threaded pool's.
pub struct ProcMetricIds {
    workers: GaugeId,
    busy: GaugeId,
    up: GaugeId,
    connects: CounterId,
    respawns: CounterId,
    failovers: CounterId,
    stale: CounterId,
    last: ProcessCounters,
    // Wire observability (`fedci_wire_*`).
    frames_sent: CounterId,
    frames_recv: CounterId,
    bytes_sent: CounterId,
    bytes_recv: CounterId,
    socket_writes: CounterId,
    socket_reads: CounterId,
    transfer_bytes: CounterId,
    transfers_elided: CounterId,
    tel_frames: CounterId,
    tel_events: CounterId,
    tel_dropped: CounterId,
    hb_rtt: HistogramId,
    dispatch_rtt: HistogramId,
    clock_offset: GaugeId,
    clock_err: GaugeId,
    last_wire: WireLast,
}

/// Counter high-water marks for the wire series (delta sampling keeps
/// scrapes monotone, matching `ProcessCounters` handling).
#[derive(Clone, Copy, Debug, Default)]
struct WireLast {
    wire: WireCounters,
    tel_frames: u64,
    tel_events: u64,
    tel_dropped: u64,
}

/// Monotone per-endpoint wire counters (client side of the connection).
/// `frames_sent / socket_writes` and `frames_recv / socket_reads` are the
/// frames each syscall carried.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireCounters {
    /// Frames put on the connection.
    pub frames_sent: u64,
    /// Frames decoded off the connection.
    pub frames_recv: u64,
    /// Bytes written to the socket.
    pub bytes_sent: u64,
    /// Bytes read from the socket.
    pub bytes_recv: u64,
    /// Socket writes (one per flush of the coalescing buffer, one more
    /// per large payload).
    pub socket_writes: u64,
    /// Socket reads (one per refill of the read buffer).
    pub socket_reads: u64,
    /// TRANSFER payload bytes shipped to the endpoint.
    pub transfer_bytes: u64,
    /// Stage requests answered without a TRANSFER because the endpoint
    /// kept the output where it was computed.
    pub transfers_elided: u64,
}

/// One endpoint's drained observability plane, ready for merging into a
/// cross-process timeline (`unifaas::obs`): daemon trace events and clock
/// estimates grouped by spawn generation, cumulative daemon counters
/// summed across generations, and the reconstituted execution-latency
/// sketch.
#[derive(Clone, Debug)]
pub struct EndpointTelemetry {
    /// Endpoint name.
    pub endpoint: String,
    /// Daemon trace events as `(generation, event)` — `t_us` is on that
    /// generation's daemon clock.
    pub events: Vec<(u64, TelemetryEvent)>,
    /// Clock mapping per generation (absent generations never completed
    /// a heartbeat round trip).
    pub clocks: Vec<(u64, ClockEstimate)>,
    /// Daemon-side counters summed across generations.
    pub counters: DaemonCounters,
    /// Execution latency (seconds) across generations, rebuilt from the
    /// shipped bucket counts.
    pub exec_hist: LogHistogram,
    /// Events the daemon's ring dropped before they could ship.
    pub ring_dropped: u64,
    /// Telemetry batches the client refused (stale generation or
    /// out-of-order sequence).
    pub dropped_batches: u64,
    /// Events the client discarded at its buffer cap.
    pub dropped_events: u64,
}

/// Cumulative daemon-side work counters (summed across generations).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DaemonCounters {
    /// DISPATCH frames accepted.
    pub dispatches: u64,
    /// Successful RESULTs produced.
    pub results_ok: u64,
    /// Failed RESULTs produced.
    pub results_err: u64,
    /// Jobs swallowed by chaos injection.
    pub chaos_swallowed: u64,
    /// Jobs straggler-delayed by chaos injection.
    pub chaos_delays: u64,
}

/// The process-isolated fabric: one supervisor thread per endpoint, child
/// daemons (or remote addresses) behind it, the [`Fabric`] trait in front.
pub struct ProcessFabric {
    labels: Vec<String>,
    shared: Vec<Arc<EpShared>>,
    txs: Vec<Sender<Ev>>,
    joins: Mutex<Vec<JoinHandle<()>>>,
    down: AtomicBool,
    clock0: Instant,
}

impl ProcessFabric {
    /// Starts one supervisor per endpoint. Spawn-mode children launch
    /// (and connect) asynchronously — use [`ProcessFabric::wait_probe`]
    /// to block until an endpoint is up.
    pub fn new(specs: Vec<ProcessEndpointSpec>, cfg: ProcessFabricConfig) -> Self {
        cfg.timing.validate().expect("invalid fabric timing");
        assert!(!specs.is_empty(), "need at least one endpoint");
        let clock0 = Instant::now();
        let mut labels = Vec::new();
        let mut shared = Vec::new();
        let mut txs = Vec::new();
        let mut joins = Vec::new();
        for (i, spec) in specs.into_iter().enumerate() {
            let (tx, rx) = unbounded::<Ev>();
            let ep_shared = Arc::new(EpShared::new(spec.workers));
            let sup = Supervisor {
                timing: cfg.timing,
                respawn: cfg.respawn,
                telemetry: cfg.telemetry,
                clock0,
                shared: Arc::clone(&ep_shared),
                rx,
                self_tx: tx.clone(),
                rng: StdRng::seed_from_u64(
                    cfg.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)),
                ),
                child: None,
                child_addr: None,
                spawned_once: false,
                conn: None,
                epoch: 0,
                hb_seq: 0,
                backoff_exp: 0,
                next_connect: Instant::now(),
                gave_up: false,
                outstanding: InFlight::default(),
                blob_cache: HashMap::new(),
                spec: spec.clone(),
            };
            labels.push(spec.name.clone());
            shared.push(ep_shared);
            txs.push(tx);
            joins.push(
                std::thread::Builder::new()
                    .name(format!("{}-supervisor", spec.name))
                    .spawn(move || sup.run())
                    .expect("spawn supervisor"),
            );
        }
        ProcessFabric {
            labels,
            shared,
            txs,
            joins: Mutex::new(joins),
            down: AtomicBool::new(false),
            clock0,
        }
    }

    /// Snapshots `ep`'s buffered daemon telemetry. Meaningful only when
    /// the fabric was built with [`ProcessFabricConfig::telemetry`] on;
    /// call after [`Fabric::shutdown`] to include the final DRAIN flush.
    pub fn telemetry(&self, ep: usize) -> EndpointTelemetry {
        let store = self.shared[ep].telemetry.lock();
        let mut events = store.events.clone();
        events.sort_by_key(|&(g, ev)| (g, ev.t_us));
        let mut clocks: Vec<(u64, ClockEstimate)> = store
            .clocks
            .iter()
            .filter_map(|(&g, cs)| cs.estimate().map(|e| (g, e)))
            .collect();
        clocks.sort_by_key(|&(g, _)| g);
        let mut counters = DaemonCounters::default();
        let mut ring_dropped = 0;
        for vals in store.gen_counters.values() {
            for &(code, v) in vals {
                match code {
                    TEL_CTR_DISPATCHES => counters.dispatches += v,
                    TEL_CTR_RESULTS_OK => counters.results_ok += v,
                    TEL_CTR_RESULTS_ERR => counters.results_err += v,
                    TEL_CTR_CHAOS_SWALLOWED => counters.chaos_swallowed += v,
                    TEL_CTR_CHAOS_DELAYS => counters.chaos_delays += v,
                    TEL_CTR_RING_DROPPED => ring_dropped += v,
                    _ => {}
                }
            }
        }
        let mut exec_hist = LogHistogram::new();
        let alpha = exec_hist.relative_error();
        for buckets in store.gen_buckets.values() {
            exec_hist.merge(&LogHistogram::from_bucket_counts(alpha, buckets));
        }
        EndpointTelemetry {
            endpoint: self.labels[ep].clone(),
            events,
            clocks,
            counters,
            exec_hist,
            ring_dropped,
            dropped_batches: store.dropped_batches,
            dropped_events: store.dropped_events,
        }
    }

    /// Blocks until `ep`'s probe reads `want`, up to `timeout`.
    pub fn wait_probe(&self, ep: usize, want: ProbeState, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.shared[ep].get_probe() == want {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.shared[ep].get_probe() == want
    }

    /// SIGKILLs `ep`'s child daemon (spawn mode only; a no-op otherwise).
    /// The supervisor notices via missed heartbeats / connection reset,
    /// fails over in-flight work, and respawns if configured to.
    pub fn kill(&self, ep: usize) {
        let _ = self.txs[ep].send(Ev::Kill);
    }

    /// Robustness counters for `ep`.
    pub fn counters(&self, ep: usize) -> ProcessCounters {
        let s = &self.shared[ep];
        ProcessCounters {
            connects: s.connects.load(Ordering::SeqCst),
            respawns: s.respawns.load(Ordering::SeqCst),
            failovers: s.failovers.load(Ordering::SeqCst),
            stale_results: s.stale_results.load(Ordering::SeqCst),
        }
    }

    /// Wire counters for `ep`.
    pub fn wire_counters(&self, ep: usize) -> WireCounters {
        let s = &self.shared[ep];
        WireCounters {
            frames_sent: s.frames_sent.load(Ordering::Relaxed),
            frames_recv: s.frames_recv.load(Ordering::Relaxed),
            bytes_sent: s.bytes_sent.load(Ordering::Relaxed),
            bytes_recv: s.bytes_recv.load(Ordering::Relaxed),
            socket_writes: s.socket_writes.load(Ordering::Relaxed),
            socket_reads: s.socket_reads.load(Ordering::Relaxed),
            transfer_bytes: s.transfer_bytes.load(Ordering::Relaxed),
            transfers_elided: s.transfers_elided.load(Ordering::Relaxed),
        }
    }

    /// The spawn generation `ep` last announced in HELLO.
    pub fn generation(&self, ep: usize) -> u64 {
        self.shared[ep].generation.load(Ordering::SeqCst)
    }

    /// Registers this fabric's per-endpoint gauge/counter families,
    /// mirroring the threaded pool's taxonomy (`fedci_proc_*`).
    pub fn register_metrics(&self, reg: &mut MetricsRegistry) -> Vec<ProcMetricIds> {
        self.labels
            .iter()
            .map(|name| {
                let l = &[("endpoint", name.as_str())];
                ProcMetricIds {
                    workers: reg.gauge("fedci_proc_workers", "Workers at the endpoint daemon.", l),
                    busy: reg.gauge(
                        "fedci_proc_busy_workers",
                        "Workers executing, per last heartbeat ack.",
                        l,
                    ),
                    up: reg.gauge(
                        "fedci_proc_up",
                        "1 while the endpoint connection is Alive.",
                        l,
                    ),
                    connects: reg.counter(
                        "fedci_proc_connects_total",
                        "Connections established to the endpoint.",
                        l,
                    ),
                    respawns: reg.counter(
                        "fedci_proc_respawns_total",
                        "Endpoint daemons respawned after dying.",
                        l,
                    ),
                    failovers: reg.counter(
                        "fedci_proc_failovers_total",
                        "In-flight attempts failed over on connection loss.",
                        l,
                    ),
                    stale: reg.counter(
                        "fedci_proc_stale_results_total",
                        "RESULT frames dropped by the attempt guard.",
                        l,
                    ),
                    last: ProcessCounters::default(),
                    frames_sent: reg.counter(
                        "fedci_wire_frames_sent_total",
                        "Frames written to the endpoint connection.",
                        l,
                    ),
                    frames_recv: reg.counter(
                        "fedci_wire_frames_received_total",
                        "Frames decoded off the endpoint connection.",
                        l,
                    ),
                    bytes_sent: reg.counter(
                        "fedci_wire_bytes_sent_total",
                        "Bytes written to the endpoint connection.",
                        l,
                    ),
                    bytes_recv: reg.counter(
                        "fedci_wire_bytes_received_total",
                        "Bytes read from the endpoint connection.",
                        l,
                    ),
                    socket_writes: reg.counter(
                        "fedci_wire_socket_writes_total",
                        "Socket writes on the endpoint connection (frames sent / this = frames per write).",
                        l,
                    ),
                    socket_reads: reg.counter(
                        "fedci_wire_socket_reads_total",
                        "Socket reads on the endpoint connection (frames received / this = frames per read).",
                        l,
                    ),
                    transfer_bytes: reg.counter(
                        "fedci_wire_transfer_bytes_total",
                        "TRANSFER payload bytes shipped to the endpoint.",
                        l,
                    ),
                    transfers_elided: reg.counter(
                        "fedci_wire_transfers_elided_total",
                        "Stage requests answered without a TRANSFER: the endpoint kept the output.",
                        l,
                    ),
                    tel_frames: reg.counter(
                        "fedci_wire_telemetry_frames_total",
                        "TELEMETRY batches ingested from the daemon.",
                        l,
                    ),
                    tel_events: reg.counter(
                        "fedci_wire_telemetry_events_total",
                        "Daemon trace events ingested.",
                        l,
                    ),
                    tel_dropped: reg.counter(
                        "fedci_wire_telemetry_dropped_total",
                        "TELEMETRY batches refused (stale generation or out-of-order sequence).",
                        l,
                    ),
                    hb_rtt: reg.histogram(
                        "fedci_wire_heartbeat_rtt_seconds",
                        "Heartbeat round-trip time.",
                        l,
                    ),
                    dispatch_rtt: reg.histogram(
                        "fedci_wire_dispatch_roundtrip_seconds",
                        "DISPATCH write to RESULT arrival.",
                        l,
                    ),
                    clock_offset: reg.gauge(
                        "fedci_wire_clock_offset_seconds",
                        "Estimated daemon-minus-client clock offset (current generation).",
                        l,
                    ),
                    clock_err: reg.gauge(
                        "fedci_wire_clock_uncertainty_seconds",
                        "NTP error bound on the clock offset (half the minimum heartbeat RTT).",
                        l,
                    ),
                    last_wire: WireLast::default(),
                }
            })
            .collect()
    }

    /// Samples every endpoint's atomics into `reg`; counters advance by
    /// delta so repeated scrapes stay monotone.
    pub fn sample_metrics(&self, reg: &mut MetricsRegistry, ids: &mut [ProcMetricIds]) {
        for (ep, id) in ids.iter_mut().enumerate() {
            let s = &self.shared[ep];
            reg.set(id.workers, f64::from(s.workers.load(Ordering::SeqCst)));
            reg.set(id.busy, f64::from(s.busy.load(Ordering::SeqCst)));
            reg.set(
                id.up,
                if s.get_probe() == ProbeState::Alive {
                    1.0
                } else {
                    0.0
                },
            );
            let now = self.counters(ep);
            reg.inc(id.connects, (now.connects - id.last.connects) as f64);
            reg.inc(id.respawns, (now.respawns - id.last.respawns) as f64);
            reg.inc(id.failovers, (now.failovers - id.last.failovers) as f64);
            reg.inc(id.stale, (now.stale_results - id.last.stale_results) as f64);
            id.last = now;

            let wire = WireLast {
                wire: self.wire_counters(ep),
                tel_frames: s.tel_frames.load(Ordering::Relaxed),
                tel_events: s.tel_events.load(Ordering::Relaxed),
                tel_dropped: s.telemetry.lock().dropped_batches,
            };
            let (w, lw) = (wire.wire, id.last_wire.wire);
            for (counter, now, last) in [
                (id.frames_sent, w.frames_sent, lw.frames_sent),
                (id.frames_recv, w.frames_recv, lw.frames_recv),
                (id.bytes_sent, w.bytes_sent, lw.bytes_sent),
                (id.bytes_recv, w.bytes_recv, lw.bytes_recv),
                (id.socket_writes, w.socket_writes, lw.socket_writes),
                (id.socket_reads, w.socket_reads, lw.socket_reads),
                (id.transfer_bytes, w.transfer_bytes, lw.transfer_bytes),
                (id.transfers_elided, w.transfers_elided, lw.transfers_elided),
                (id.tel_frames, wire.tel_frames, id.last_wire.tel_frames),
                (id.tel_events, wire.tel_events, id.last_wire.tel_events),
                (id.tel_dropped, wire.tel_dropped, id.last_wire.tel_dropped),
            ] {
                reg.inc(counter, (now - last) as f64);
            }
            id.last_wire = wire;
            reg.replace_histogram(id.hb_rtt, s.rtt_hist.lock().clone());
            reg.replace_histogram(id.dispatch_rtt, s.dispatch_hist.lock().clone());
            // Clock gauges report the *current* generation's estimate.
            let generation = s.generation.load(Ordering::SeqCst);
            if let Some(est) = s
                .telemetry
                .lock()
                .clocks
                .get(&generation)
                .and_then(ClockSync::estimate)
            {
                reg.set(id.clock_offset, est.offset_us as f64 / 1e6);
                reg.set(id.clock_err, est.uncertainty_us as f64 / 1e6);
            }
        }
    }
}

impl Fabric for ProcessFabric {
    fn labels(&self) -> &[String] {
        &self.labels
    }

    fn clock_epoch(&self) -> Instant {
        self.clock0
    }

    fn n_workers(&self, ep: usize) -> usize {
        self.shared[ep].workers.load(Ordering::SeqCst) as usize
    }

    fn busy_workers(&self, ep: usize) -> usize {
        self.shared[ep].busy.load(Ordering::SeqCst) as usize
    }

    fn probe(&self, ep: usize) -> ProbeState {
        self.shared[ep].get_probe()
    }

    fn stage(&self, ep: usize, key: u64, bytes: &Arc<Vec<u8>>) {
        let _ = self.txs[ep].send(Ev::Stage(key, Arc::clone(bytes)));
    }

    fn submit(&self, ep: usize, job: JobSpec, done: Completion) {
        if self.down.load(Ordering::SeqCst) {
            done(Err(SHUT_DOWN.to_string()));
            return;
        }
        if let Err(e) = self.txs[ep].send(Ev::Submit(job, done)) {
            if let Ev::Submit(_, done) = e.0 {
                done(Err(format!("endpoint {} supervisor gone", self.labels[ep])));
            }
        }
    }

    fn shutdown(&self) {
        if self.down.swap(true, Ordering::SeqCst) {
            return;
        }
        for tx in &self.txs {
            let _ = tx.send(Ev::Shutdown);
        }
        for j in self.joins.lock().drain(..) {
            let _ = j.join();
        }
    }
}

impl Drop for ProcessFabric {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// ChaosProxy
// ---------------------------------------------------------------------------

/// A fault-injecting TCP proxy between a [`ProcessFabric`] client and a
/// daemon: forwards byte streams until told to cut mid-frame
/// ([`ChaosProxy::cut_after_down_bytes`]), sever ([`ChaosProxy::cut_now`]),
/// or stall the daemon→client direction ([`ChaosProxy::set_stall_down`])
/// — the half-open connection where the peer is silent but the socket
/// never errors.
pub struct ChaosProxy {
    addr: SocketAddr,
    ctl: Arc<ProxyCtl>,
    join: Option<JoinHandle<()>>,
}

struct ProxyCtl {
    upstream: SocketAddr,
    /// Remaining daemon→client bytes before an abrupt cut; -1 = no cut
    /// armed. One-shot: disarms itself after firing.
    cut_down_budget: AtomicI64,
    stall_down: AtomicBool,
    closed: AtomicBool,
    conns: Mutex<Vec<TcpStream>>,
}

impl ChaosProxy {
    /// Starts a proxy on an ephemeral localhost port forwarding to
    /// `upstream`. Serves one client connection at a time (matching the
    /// daemon) and re-accepts after every cut, so reconnects flow
    /// through.
    pub fn start(upstream: SocketAddr) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let ctl = Arc::new(ProxyCtl {
            upstream,
            cut_down_budget: AtomicI64::new(-1),
            stall_down: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });
        let ctl2 = Arc::clone(&ctl);
        let join = std::thread::Builder::new()
            .name("chaos-proxy".to_string())
            .spawn(move || proxy_accept_loop(&listener, &ctl2))?;
        Ok(ChaosProxy {
            addr,
            ctl,
            join: Some(join),
        })
    }

    /// The proxy's listen address (point the fabric's connect mode here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Severs the current connection immediately, both directions.
    pub fn cut_now(&self) {
        for s in self.ctl.conns.lock().iter() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }

    /// Arms a one-shot cut after `n` more daemon→client bytes — lands
    /// mid-frame for any frame longer than `n`.
    pub fn cut_after_down_bytes(&self, n: u64) {
        self.ctl
            .cut_down_budget
            .store(n.min(i64::MAX as u64) as i64, Ordering::SeqCst);
    }

    /// Stalls (or resumes) the daemon→client direction while leaving the
    /// sockets open: acks stop arriving, nothing errors — the client
    /// must conclude death from silence alone.
    pub fn set_stall_down(&self, stall: bool) {
        self.ctl.stall_down.store(stall, Ordering::SeqCst);
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.ctl.closed.store(true, Ordering::SeqCst);
        self.cut_now();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

fn proxy_accept_loop(listener: &TcpListener, ctl: &Arc<ProxyCtl>) {
    while !ctl.closed.load(Ordering::SeqCst) {
        let client = match listener.accept() {
            Ok((s, _)) => s,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            Err(_) => return,
        };
        let upstream = match TcpStream::connect_timeout(&ctl.upstream, Duration::from_secs(2)) {
            Ok(s) => s,
            Err(_) => continue,
        };
        client.set_nodelay(true).ok();
        upstream.set_nodelay(true).ok();
        // Short read timeouts let the pumps notice `closed` and cuts.
        client
            .set_read_timeout(Some(Duration::from_millis(50)))
            .ok();
        upstream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .ok();
        {
            let mut conns = ctl.conns.lock();
            conns.clear();
            if let (Ok(c), Ok(u)) = (client.try_clone(), upstream.try_clone()) {
                conns.push(c);
                conns.push(u);
            }
        }
        let up = {
            let (mut src, mut dst) = match (client.try_clone(), upstream.try_clone()) {
                (Ok(s), Ok(d)) => (s, d),
                _ => continue,
            };
            let ctl = Arc::clone(ctl);
            std::thread::spawn(move || proxy_pump(&mut src, &mut dst, &ctl, false))
        };
        let down = {
            let (mut src, mut dst) = (upstream, client);
            let ctl = Arc::clone(ctl);
            std::thread::spawn(move || proxy_pump(&mut src, &mut dst, &ctl, true))
        };
        let _ = up.join();
        let _ = down.join();
        ctl.conns.lock().clear();
    }
}

/// Copies `src` → `dst` in small chunks, applying stall/cut controls when
/// pumping the daemon→client (`down`) direction.
fn proxy_pump(src: &mut TcpStream, dst: &mut TcpStream, ctl: &ProxyCtl, down: bool) {
    let mut buf = [0u8; 256];
    loop {
        if ctl.closed.load(Ordering::SeqCst) {
            let _ = dst.shutdown(Shutdown::Both);
            return;
        }
        let n = match src.read(&mut buf) {
            Ok(0) => {
                let _ = dst.shutdown(Shutdown::Both);
                return;
            }
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => {
                let _ = dst.shutdown(Shutdown::Both);
                return;
            }
        };
        if down {
            while ctl.stall_down.load(Ordering::SeqCst) {
                if ctl.closed.load(Ordering::SeqCst) {
                    let _ = dst.shutdown(Shutdown::Both);
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            let budget = ctl.cut_down_budget.load(Ordering::SeqCst);
            if budget >= 0 {
                let allow = (budget as usize).min(n);
                if allow > 0 && dst.write_all(&buf[..allow]).is_err() {
                    let _ = src.shutdown(Shutdown::Both);
                    return;
                }
                if n >= budget as usize {
                    // The cut: close both sides abruptly, disarm.
                    ctl.cut_down_budget.store(-1, Ordering::SeqCst);
                    let _ = dst.shutdown(Shutdown::Both);
                    let _ = src.shutdown(Shutdown::Both);
                    return;
                }
                ctl.cut_down_budget
                    .store(budget - n as i64, Ordering::SeqCst);
                continue;
            }
        }
        if dst.write_all(&buf[..n]).is_err() {
            let _ = src.shutdown(Shutdown::Both);
            return;
        }
    }
}

#[cfg(test)]
mod tests;
