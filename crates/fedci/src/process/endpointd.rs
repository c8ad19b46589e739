//! The daemon half of the std-net driver: [`run_daemon`], the body of
//! `unifaas-endpointd`. An accept loop serves one client connection at a
//! time — its reader applies each socket read through the daemon core
//! ([`super::daemon`]) — worker threads execute jobs, and one writer
//! thread puts the outbox on the wire. The telemetry ring and counters
//! live here too.

use super::daemon::{
    functions, requeue, split_at_drain_ack, Connection, DaemonJob, Effect, Outgoing,
};
use crate::fabric::{dep_blobs, run_on_input, FabricResult, FnRegistry, Payload, WireFn};
use crate::fault::{AttemptFaults, Backend, FaultPlan};
use crate::proto::{
    encode_result_head, Frame, FrameReader, Outbox, TelemetryEvent, IO_BUF, PROTO_VERSION,
    TEL_CTR_CHAOS_DELAYS, TEL_CTR_CHAOS_SWALLOWED, TEL_CTR_DISPATCHES, TEL_CTR_RESULTS_ERR,
    TEL_CTR_RESULTS_OK, TEL_CTR_RING_DROPPED, TEL_MAX_EVENTS, TEL_STAGE_CHAOS_DELAY,
    TEL_STAGE_CHAOS_SWALLOW, TEL_STAGE_EXEC_BEGIN, TEL_STAGE_EXEC_END, TEL_STAGE_RECV,
    TEL_STAGE_SENT,
};
use parking_lot::{Condvar, Mutex};
use simkit::metrics::LogHistogram;
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
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

/// Capacity of the daemon's telemetry ring: events beyond this drop
/// oldest-first (counted, reported via `TEL_CTR_RING_DROPPED`). The ring
/// only fills once a client subscribes with TELEMETRY_SUB.
pub const DAEMON_TEL_RING_CAPACITY: usize = 1 << 16;

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
    /// Faults to inject: `swallow`, `delay` and `dup`, for chaos tests
    /// that need the *endpoint* to misbehave (the connection is
    /// [`ChaosProxy`](super::ChaosProxy)'s). The daemon is endpoint 0 of
    /// its plan.
    pub faults: FaultPlan,
}

impl DaemonConfig {
    /// A daemon on an ephemeral localhost port, no faults.
    pub fn new(name: &str, workers: usize) -> Self {
        DaemonConfig {
            name: name.to_string(),
            workers,
            listen: "127.0.0.1:0".to_string(),
            generation: 0,
            faults: FaultPlan::default(),
        }
    }
}

/// The reader-to-workers hand-off: the jobs one socket read brought in
/// enter as one entry — the read's `Vec`, moved in whole — under one lock
/// acquisition, with one wake-up. Closed at DRAIN; the workers finish
/// what is queued and exit.
#[derive(Default)]
pub(super) struct JobQueue {
    /// The reads not yet taken apart, oldest first, none of them empty;
    /// and whether the queue is closed.
    state: Mutex<(VecDeque<std::vec::IntoIter<DaemonJob>>, bool)>,
    ready: Condvar,
}

impl JobQueue {
    /// Queues one read's `jobs`.
    pub(super) fn push_read(&self, jobs: Vec<DaemonJob>) {
        let n = jobs.len();
        if n == 0 {
            return;
        }
        self.state.lock().0.push_back(jobs.into_iter());
        if n == 1 {
            self.ready.notify_one();
        } else {
            self.ready.notify_all();
        }
    }

    /// The next job, blocking while the queue is empty and open; `None`
    /// once it is closed and empty. The worker that takes a read's last
    /// job frees the read's buffer, after the lock is released.
    pub(super) fn pop(&self) -> Option<DaemonJob> {
        let mut state = self.state.lock();
        loop {
            // No read is queued empty, so the front one holds a job.
            if let Some(read) = state.0.front_mut() {
                let job = read.next();
                if read.len() == 0 {
                    let spent = state.0.pop_front();
                    drop(state);
                    drop(spent);
                }
                return job;
            }
            if state.1 {
                return None;
            }
            self.ready.wait(&mut state);
        }
    }

    pub(super) fn close(&self) {
        self.state.lock().1 = true;
        self.ready.notify_all();
    }
}

/// Everything the daemon's accept loop, workers and writer share.
pub(super) struct DaemonShared {
    /// Frames awaiting write, in order. RESULTs that fail to write (or
    /// arrive while disconnected) survive here for replay; acks are
    /// connection-scoped and dropped on write failure.
    pub(super) outbox: Mutex<VecDeque<Outgoing>>,
    pub(super) outbox_cv: Condvar,
    /// Current client connection (write half); `None` while between
    /// clients. The writer thread takes a handle to it per batch.
    pub(super) conn: Mutex<Option<Arc<TcpStream>>>,
    /// DISPATCHes handed to the workers; the reader's alone to write.
    dispatched: AtomicU64,
    /// Each worker's counts.
    workers: Box<[WorkerCounts]>,
    /// Jobs pulled, counted only under a `swallow` rule.
    jobs_seen: AtomicU64,
    pub(super) stop_writer: AtomicBool,
    /// Staged and kept blobs, by key.
    blobs: Mutex<HashMap<u64, Arc<Vec<u8>>>>,
    /// The functions jobs name by index.
    fns: Vec<(String, WireFn)>,
    jobs: JobQueue,
    faults: AttemptFaults,
    tel: DaemonTelemetry,
}

impl DaemonShared {
    pub(super) fn new(
        generation: u64,
        registry: &FnRegistry,
        workers: usize,
        faults: AttemptFaults,
    ) -> Self {
        DaemonShared {
            outbox: Mutex::default(),
            outbox_cv: Condvar::new(),
            conn: Mutex::default(),
            dispatched: AtomicU64::new(0),
            workers: (0..workers).map(|_| WorkerCounts::default()).collect(),
            jobs_seen: AtomicU64::new(0),
            stop_writer: AtomicBool::new(false),
            blobs: Mutex::default(),
            fns: functions(registry),
            jobs: JobQueue::default(),
            faults,
            tel: DaemonTelemetry::new(generation),
        }
    }

    fn push(&self, f: Frame) {
        self.push_out(Outgoing::Frame(f));
    }

    fn push_out(&self, out: Outgoing) {
        self.outbox.lock().push_back(out);
        self.outbox_cv.notify_all();
    }

    /// One count summed over the workers.
    fn sum(&self, count: fn(&WorkerCounts) -> &AtomicU64) -> u64 {
        let workers = self.workers.iter();
        workers.map(|w| count(w).load(Ordering::Acquire)).sum()
    }

    /// Jobs queued, and workers executing one (a chaos delay, before
    /// the function starts, is neither), as the reader sees them. The
    /// later count of each pair is read first: a worker counts a job
    /// pulled before it counts it begun, and begun before it counts it
    /// ended, so a count read after its successor is never the smaller.
    fn queued_and_busy(&self) -> (u64, u64) {
        let ended = self.sum(|w| &w.ok) + self.sum(|w| &w.err);
        let begun = self.sum(|w| &w.begun);
        let pulled = self.sum(|w| &w.pulled);
        let dispatched = self.dispatched.load(Ordering::Relaxed);
        (
            dispatched.saturating_sub(pulled),
            begun.saturating_sub(ended),
        )
    }

    /// The `TEL_CTR_*` work counters, the ring's drops aside.
    fn counters(&self) -> [(u16, u64); 5] {
        [
            (TEL_CTR_DISPATCHES, self.dispatched.load(Ordering::Relaxed)),
            (TEL_CTR_RESULTS_OK, self.sum(|w| &w.ok)),
            (TEL_CTR_RESULTS_ERR, self.sum(|w| &w.err)),
            (TEL_CTR_CHAOS_SWALLOWED, self.sum(|w| &w.swallowed)),
            (TEL_CTR_CHAOS_DELAYS, self.sum(|w| &w.delays)),
        ]
    }
}

/// One worker's counts. Only that worker writes them — a load and a
/// store, no read-modify-write — and they sit on a cache line of their
/// own; the reader and the writer sum them where they are read.
#[derive(Default)]
#[repr(align(128))]
struct WorkerCounts {
    /// Jobs taken off the queue.
    pulled: AtomicU64,
    /// Jobs whose function began to run.
    begun: AtomicU64,
    /// Jobs that produced an ok RESULT.
    ok: AtomicU64,
    /// Jobs that produced an error RESULT.
    err: AtomicU64,
    /// Jobs a `swallow` rule ate.
    swallowed: AtomicU64,
    /// Jobs a `delay` rule held back.
    delays: AtomicU64,
}

/// Adds one to a count only the calling thread writes.
fn bump(count: &AtomicU64) {
    count.store(count.load(Ordering::Relaxed) + 1, Ordering::Release);
}

/// The daemon's observability plane: a compact bounded trace ring of
/// [`TelemetryEvent`]s stamped in local monotonic micros and an
/// execution-latency sketch, which only fill while a client is subscribed
/// (`level > 0`); the cumulative counters they ship with are the workers'
/// ([`WorkerCounts`]). Nothing ships unsolicited — batches leave only in
/// response to subscribed-heartbeat and DRAIN flushes.
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
    /// Buffered events, and how many were dropped oldest-first.
    ring: Mutex<(VecDeque<TelemetryEvent>, u64)>,
    /// Execution latency (seconds) of completed attempts.
    exec_hist: Mutex<LogHistogram>,
}

impl DaemonTelemetry {
    fn new(generation: u64) -> Self {
        DaemonTelemetry {
            start: Instant::now(),
            generation,
            level: AtomicU8::new(0),
            seq: AtomicU64::new(0),
            ring: Mutex::new((VecDeque::new(), 0)),
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
        if ring.0.len() == DAEMON_TEL_RING_CAPACITY {
            ring.0.pop_front();
            ring.1 += 1;
        }
        ring.0.push_back(ev);
    }

    /// Drains the ring into TELEMETRY frames (possibly several, each at
    /// most [`TEL_MAX_EVENTS`] events). `counters` and the latency sketch
    /// ride on the final frame as cumulative state; an empty ring still
    /// yields one frame so counter updates reach the client between
    /// events. Returns nothing while unsubscribed.
    fn flush_frames(&self, counters: [(u16, u64); 5]) -> Vec<Frame> {
        if !self.enabled() {
            return Vec::new();
        }
        let (events, dropped) = {
            let mut ring = self.ring.lock();
            (ring.0.drain(..).collect::<Vec<_>>(), ring.1)
        };
        let mut batches: Vec<Vec<TelemetryEvent>> =
            events.chunks(TEL_MAX_EVENTS).map(<[_]>::to_vec).collect();
        if batches.is_empty() {
            batches.push(Vec::new());
        }
        let mut frames: Vec<Frame> = batches
            .into_iter()
            .map(|events| Frame::Telemetry {
                generation: self.generation,
                seq: self.seq.fetch_add(1, Ordering::Relaxed) + 1,
                events,
                counters: Vec::new(),
                exec_buckets: Vec::new(),
            })
            .collect();
        if let Some(Frame::Telemetry {
            counters: shipped,
            exec_buckets,
            ..
        }) = frames.last_mut()
        {
            *shipped = counters
                .into_iter()
                .chain([(TEL_CTR_RING_DROPPED, dropped)])
                .collect();
            *exec_buckets = self.exec_hist.lock().bucket_counts();
        }
        frames
    }
}

/// Runs one endpoint daemon to completion: bind, announce via `on_ready`,
/// serve connections until a DRAIN arrives, finish queued work, flush
/// results, return. This is the entire body of `unifaas-endpointd`, kept
/// in the library so tests can run a daemon on a thread ([`spawn_daemon_thread`])
/// instead of a child process.
pub fn run_daemon<F: FnOnce(SocketAddr)>(cfg: DaemonConfig, on_ready: F) -> std::io::Result<()> {
    cfg.faults
        .check(Backend::Daemon, 1)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    let listener = TcpListener::bind(&cfg.listen)?;
    let addr = listener.local_addr()?;
    on_ready(addr);

    let n_workers = cfg.workers.max(1);
    let d = Arc::new(DaemonShared::new(
        cfg.generation,
        &FnRegistry::builtins(),
        n_workers,
        cfg.faults.attempt_faults(0),
    ));
    let spawn = |name: String, body: Box<dyn FnOnce(&DaemonShared) + Send>| {
        let d = Arc::clone(&d);
        let thread = std::thread::Builder::new().name(name);
        thread.spawn(move || body(&d)).expect("spawn daemon thread")
    };
    let workers: Vec<JoinHandle<()>> = (0..n_workers)
        .map(|i| {
            let name = format!("{}-worker-{i}", cfg.name);
            spawn(name, Box::new(move |d| daemon_worker(d, &d.workers[i])))
        })
        .collect();
    let writer = spawn(format!("{}-writer", cfg.name), Box::new(daemon_writer));

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
        *d.conn.lock() = Some(write_half);
        d.outbox_cv.notify_all();

        draining = serve_connection(stream, &d);
        if !draining {
            // Connection lost; the write half stays queued-for-replay.
            *d.conn.lock() = None;
        }
    }

    // Drain: no new work; finish the queue, flush results (the final
    // connection stays open until the outbox is empty), exit.
    d.jobs.close();
    for w in workers {
        let _ = w.join();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while !d.outbox.lock().is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    d.stop_writer.store(true, Ordering::SeqCst);
    d.outbox_cv.notify_all();
    let _ = writer.join();
    *d.conn.lock() = None;
    Ok(())
}

/// Reads frames from one client connection until it breaks or DRAINs.
/// Returns `true` if the daemon should shut down (DRAIN received).
///
/// Each socket read is applied whole by the daemon core, frame by frame
/// as the reader decodes it; its effects run in frame order and its jobs
/// then reach the workers together. Frames that decoded before a read
/// error are applied before the connection is dropped.
fn serve_connection(stream: TcpStream, d: &DaemonShared) -> bool {
    let tel = &d.tel;
    let mut reader = FrameReader::new(stream);
    let mut conn = Connection::default();
    let (mut batch, mut effects) = (Vec::new(), Vec::new());
    loop {
        let mut drain = false;
        let read = reader.read_batch_with(|frame| {
            drain = drain || conn.apply(frame, &d.fns, &mut batch, &mut effects);
        });
        let n = batch.len();
        let dispatched = d.dispatched.load(Ordering::Relaxed);
        d.dispatched.store(dispatched + n as u64, Ordering::Relaxed);
        for effect in effects.drain(..) {
            match effect {
                Effect::Store { key, payload } => {
                    let stored = payload.len() as u64;
                    d.blobs.lock().insert(key, Arc::new(payload));
                    d.push(Frame::TransferAck { key, stored });
                }
                Effect::Beat { seq, t_client_us } => {
                    d.push(Frame::HeartbeatAck {
                        seq,
                        busy: d.queued_and_busy().1 as u32,
                        t_client_us,
                        t_daemon_us: tel.now_us(),
                    });
                    // Telemetry rides the heartbeat cadence: anything the
                    // ring gathered since the last beat ships right behind
                    // the ack (nothing while unsubscribed).
                    for f in tel.flush_frames(d.counters()) {
                        d.push(f);
                    }
                }
                Effect::Subscribe(level) => tel.level.store(level, Ordering::Relaxed),
                Effect::Recv(i) if tel.enabled() => {
                    // Counted as dispatched, this read's jobs are not yet
                    // queued: job `i` has `i` of them ahead of it.
                    let ahead = d.queued_and_busy().0.saturating_sub(n as u64);
                    let job = &batch[i];
                    let depth = ahead + i as u64 + 1;
                    tel.event(TEL_STAGE_RECV, job.task, job.attempt, depth);
                }
                Effect::Recv(_) => {}
            }
        }
        // The read's jobs reach the workers together, in the read's own
        // `Vec`: one queue lock, one wake-up. The next read's `Vec` is
        // sized like this one.
        if n > 0 {
            d.jobs
                .push_read(std::mem::replace(&mut batch, Vec::with_capacity(n)));
        }
        if drain {
            // The writer puts the final telemetry flush ahead of this.
            let (queued, busy) = d.queued_and_busy();
            d.push(Frame::DrainAck {
                remaining: (queued + busy) as u32,
            });
            return true;
        }
        if read.is_err() {
            return false; // connection gone; back to accept
        }
    }
}

/// One daemon worker: pull a job, apply the plan's faults, execute, queue
/// the RESULT. It counts into `me` alone, and reads the clock only while
/// telemetry is subscribed.
fn daemon_worker(d: &DaemonShared, me: &WorkerCounts) {
    let (tel, faults) = (&d.tel, d.faults);
    while let Some(job) = d.jobs.pop() {
        bump(&me.pulled);
        if faults.swallow_every > 0
            && (d.jobs_seen.fetch_add(1, Ordering::SeqCst) + 1).is_multiple_of(faults.swallow_every)
        {
            // Crashed mid-execution: no RESULT, ever. The explicit
            // instant lets the merged timeline show *where* the fault
            // landed instead of leaving an unexplained truncated attempt.
            bump(&me.swallowed);
            tel.event(TEL_STAGE_CHAOS_SWALLOW, job.task, job.attempt, 0);
            continue;
        }
        if faults.delay_ms > 0 {
            bump(&me.delays);
            let ms = faults.delay_ms;
            tel.event(TEL_STAGE_CHAOS_DELAY, job.task, job.attempt, ms);
            std::thread::sleep(Duration::from_millis(ms));
        }
        bump(&me.begun);
        tel.event(TEL_STAGE_EXEC_BEGIN, job.task, job.attempt, 0);
        let exec_start = tel.enabled().then(Instant::now);
        let outcome = match &job.function {
            Err(name) => Err(format!("unknown function `{name}`")),
            Ok(i) => {
                // The store is locked for the look-up and no longer (and
                // not at all for a job without inputs): the workers run
                // side by side, and the reader's TRANSFER inserts do not
                // wait for a function to return.
                let deps = if job.deps.is_empty() {
                    Ok(Vec::new())
                } else {
                    dep_blobs(&d.blobs.lock(), job.task, &job.deps)
                };
                deps.and_then(|deps| run_on_input(&d.fns[*i].1, &deps, &job.payload))
            }
        };
        let ok = outcome.is_ok();
        tel.event(TEL_STAGE_EXEC_END, job.task, job.attempt, u64::from(ok));
        if let Some(start) = exec_start {
            tel.exec_hist.lock().observe(start.elapsed().as_secs_f64());
        }
        bump(if ok { &me.ok } else { &me.err });
        let payload = result_payload(outcome, job.kept, &d.blobs);
        let result = Outgoing::Result {
            task: job.task,
            attempt: job.attempt,
            ok,
            payload,
        };
        if faults.dup {
            d.push_out(result.clone());
        }
        d.push_out(result);
    }
}

/// The payload of an attempt's RESULT. A kept output is stored before the
/// RESULT can leave — a dependent dispatched on the strength of that
/// RESULT finds the blob — and shares the store's `Arc`; an unkept one of
/// at most [`INLINE_PAYLOAD`](crate::fabric::INLINE_PAYLOAD) bytes travels
/// in place, so the writer frees nothing the worker allocated.
pub(super) fn result_payload(
    outcome: FabricResult,
    kept: Option<u64>,
    blobs: &Mutex<HashMap<u64, Arc<Vec<u8>>>>,
) -> Payload {
    match (outcome, kept) {
        (Ok(bytes), Some(key)) => {
            let bytes = Arc::new(bytes);
            blobs.lock().insert(key, Arc::clone(&bytes));
            Payload::Shared(bytes)
        }
        (Ok(bytes), None) => Payload::inline(&bytes).unwrap_or(Payload::Owned(bytes)),
        (Err(msg), _) => Payload::Owned(msg.into_bytes()),
    }
}

/// The daemon's single writer: takes the whole outbox under one lock and
/// puts it on the current connection, in the order the daemon core sets
/// (telemetry ahead of DRAIN_ACK; after a failed write, RESULTs requeued
/// and acks dropped).
pub(super) fn daemon_writer(d: &DaemonShared) {
    let tel = &d.tel;
    let mut batch: Vec<Outgoing> = Vec::new();
    let mut wbuf: Vec<u8> = Vec::with_capacity(IO_BUF);
    loop {
        let stream = {
            let mut q = d.outbox.lock();
            loop {
                if d.stop_writer.load(Ordering::SeqCst) {
                    return;
                }
                if !q.is_empty() {
                    if let Some(s) = d.conn.lock().clone() {
                        batch.extend(q.drain(..));
                        break s;
                    }
                }
                d.outbox_cv.wait_for(&mut q, Duration::from_millis(50));
            }
        };
        let mut tail = split_at_drain_ack(&mut batch);
        let mut wrote = write_batch(&stream, &mut batch, &mut wbuf, tel);
        if wrote && !tail.is_empty() {
            let flushed = tel.flush_frames(d.counters());
            batch.extend(flushed.into_iter().map(Outgoing::Frame));
            batch.append(&mut tail);
            wrote = write_batch(&stream, &mut batch, &mut wbuf, tel);
        }
        if !wrote {
            // Connection raced away mid-write.
            batch.append(&mut tail);
            requeue(&mut d.outbox.lock(), std::mem::take(&mut batch));
            let mut conn = d.conn.lock();
            if conn.as_ref().is_some_and(|c| Arc::ptr_eq(c, &stream)) {
                *conn = None;
            }
            drop(conn);
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Puts `batch` on `stream` through an [`Outbox`] over `wbuf`: one write
/// per [`IO_BUF`] of frames, a large RESULT payload written from where it
/// lives. On success consumes the batch and gives every RESULT the span's
/// last daemon-side stamp — it hit the wire (replays after a reconnect
/// re-stamp, which is the truth: the first copy never arrived). On
/// failure leaves `batch` intact.
fn write_batch(
    mut stream: &TcpStream,
    batch: &mut Vec<Outgoing>,
    wbuf: &mut Vec<u8>,
    tel: &DaemonTelemetry,
) -> bool {
    let mut out = Outbox {
        bytes: std::mem::take(wbuf),
        large: Vec::new(),
    };
    let queued = batch.iter().try_for_each(|item| {
        match item {
            Outgoing::Frame(frame) => out.push(|b| frame.encode_into(b), &[][..]),
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
                out.push(head, &payload[..]);
            }
        }
        if out.due() {
            out.write_out(&mut stream)
        } else {
            Ok(())
        }
    });
    let wrote = queued.and_then(|()| out.write_out(&mut stream)).is_ok();
    *wbuf = out.bytes;
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
///
/// Dropping the handle detaches the thread: a daemon that was never
/// drained would block a join forever on `accept`.
pub struct DaemonHandle {
    addr: SocketAddr,
    join: JoinHandle<std::io::Result<()>>,
}

impl DaemonHandle {
    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the daemon to exit (it exits after a DRAIN).
    pub fn join(self) -> std::io::Result<()> {
        let panicked = |_| Err(std::io::Error::other("daemon thread panicked"));
        self.join.join().unwrap_or_else(panicked)
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
        Ok(addr) => Ok(DaemonHandle { addr, join }),
        // The daemon returned before it was ready: its error says why.
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => Err(join
            .join()
            .ok()
            .and_then(Result::err)
            .unwrap_or_else(|| std::io::Error::other("daemon exited before binding"))),
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            Err(std::io::Error::other("daemon failed to bind"))
        }
    }
}
