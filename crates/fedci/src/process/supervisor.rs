//! The supervisor machine: one endpoint's client-side protocol, with no
//! socket, thread, channel, lock or clock of its own. The driver hands it
//! each event with the instant it happened and acts on what it leaves in
//! [`Output`]. An attempt is outstanding from the moment its DISPATCH is
//! buffered and resolves exactly once — by its RESULT, or by the failover
//! when its connection goes; a RESULT that matches nothing outstanding is
//! counted stale.

use super::{Ctr, EpShared, SHUT_DOWN};
use crate::clock::ClockSample;
use crate::fabric::{Completion, FabricResult, FabricTiming, JobSpec, Payload, ProbeState};
use crate::proto::{
    encode_dispatch_head, encode_transfer_head, Frame, Outbox, TelemetryEvent, PROTO_VERSION,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One TELEMETRY batch the machine accepted, for the fabric's store.
pub(crate) struct TelBatch {
    pub generation: u64,
    pub events: Vec<TelemetryEvent>,
    pub counters: Vec<(u16, u64)>,
    pub exec_buckets: Vec<(i32, u64)>,
}

/// What the machine leaves for the driver.
#[derive(Default)]
pub(crate) struct Output {
    /// Frames for the current connection.
    pub wire: Outbox<Payload>,
    /// Completions to fire, in order, each with its attempt's outcome.
    pub resolved: Vec<(Completion, FabricResult)>,
    /// DISPATCH-buffered to RESULT-handled latencies.
    pub roundtrips: Vec<Duration>,
    /// Heartbeat round trips, by the generation of the daemon answering.
    pub clocks: Vec<(u64, ClockSample)>,
    /// Accepted TELEMETRY batches.
    pub telemetry: Vec<TelBatch>,
}

/// One live connection as the machine sees it.
struct Conn {
    epoch: u64,
    /// Blob keys a stage request was answered for on this connection.
    staged: HashSet<u64>,
    /// Keys of outputs the daemon kept (their RESULT arrived on this
    /// connection) that no stage request has asked for yet.
    kept: HashSet<u64>,
    hb_next: Instant,
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

/// The supervisor machine for one endpoint.
pub(crate) struct Supervisor {
    name: String,
    timing: FabricTiming,
    telemetry: bool,
    /// The fabric-wide client clock epoch; all `t_client_us` stamps are
    /// micros since this, so every endpoint shares one client timeline.
    clock0: Instant,
    shared: Arc<EpShared>,
    rng: StdRng,
    conn: Option<Conn>,
    epoch: u64,
    hb_seq: u64,
    backoff_exp: u32,
    next_connect: Instant,
    gave_up: bool,
    outstanding: InFlight,
    blob_cache: HashMap<u64, Arc<Vec<u8>>>,
    /// Highest TELEMETRY sequence accepted since the last HELLO.
    tel_seq: u64,
    pub out: Output,
}

impl Supervisor {
    /// A disconnected machine whose first connect is due at once. `seed`
    /// seeds its backoff jitter.
    pub fn new(
        name: &str,
        timing: FabricTiming,
        telemetry: bool,
        seed: u64,
        clock0: Instant,
        shared: Arc<EpShared>,
    ) -> Self {
        Supervisor {
            name: name.to_string(),
            timing,
            telemetry,
            clock0,
            shared,
            rng: StdRng::seed_from_u64(seed),
            conn: None,
            epoch: 0,
            hb_seq: 0,
            backoff_exp: 0,
            next_connect: clock0,
            gave_up: false,
            outstanding: InFlight::default(),
            blob_cache: HashMap::new(),
            tel_seq: 0,
            out: Output::default(),
        }
    }

    /// The current connection's epoch, `None` while disconnected.
    pub fn epoch(&self) -> Option<u64> {
        self.conn.as_ref().map(|c| c.epoch)
    }

    /// Whether the driver should (re)connect now.
    pub fn connect_due(&self, now: Instant) -> bool {
        self.conn.is_none() && !self.gave_up && now >= self.next_connect
    }

    /// The driver connected: a new epoch starts, with its first heartbeat
    /// due at once. Returns the epoch its reader reports frames under.
    pub fn connected(&mut self, now: Instant) -> u64 {
        self.epoch += 1;
        self.conn = Some(Conn {
            epoch: self.epoch,
            staged: HashSet::new(),
            kept: HashSet::new(),
            hb_next: now,
            last_ack: now,
        });
        self.backoff_exp = 0;
        self.shared.add(Ctr::Connects, 1);
        // Telemetry is strictly opt-in and per-connection: the
        // subscription is the first frame on every connection — ahead of
        // any dispatch, so the daemon's RECV stamps cover even the first
        // task, and re-sent on every reconnect so a respawned daemon
        // re-subscribes. The probe turns Alive at HELLO.
        if self.telemetry {
            self.queue(Frame::TelemetrySub { level: 2 });
        }
        self.epoch
    }

    /// The endpoint could not be reached. Seeded exponential backoff with
    /// multiplicative jitter in [0.5, 1.5): deterministic per (fabric
    /// seed, endpoint), desynced across endpoints so a mass outage does
    /// not produce a reconnect stampede.
    pub fn connect_failed(&mut self, now: Instant) {
        let base = self.timing.reconnect_base.as_secs_f64();
        let max = self.timing.reconnect_max.as_secs_f64();
        let exp = f64::from(self.backoff_exp.min(16));
        let jitter = 0.5 + self.rng.gen::<f64>();
        let delay = (base * exp.exp2() * jitter).min(max);
        self.backoff_exp = self.backoff_exp.saturating_add(1);
        self.next_connect = now + Duration::from_secs_f64(delay);
    }

    /// The endpoint's child died and is not to be respawned: no more
    /// connects.
    pub fn give_up(&mut self) {
        self.gave_up = true;
    }

    /// The timers: the liveness verdict on the silence since the last
    /// frame, then the heartbeat if one is due. Returns whether a
    /// heartbeat was queued — it is to be written at once, taking along
    /// whatever is buffered, so the clock probe's stamp stays honest and
    /// the beat stays on schedule under load.
    pub fn tick(&mut self, now: Instant) -> bool {
        let Some(c) = &mut self.conn else {
            return false;
        };
        let silent = now.saturating_duration_since(c.last_ack);
        if silent >= self.timing.down_after {
            self.conn_lost("liveness timeout", now);
            return false;
        }
        if silent >= self.timing.suspect_after {
            self.shared.set_probe(ProbeState::Suspect);
        }
        if now < c.hb_next {
            return false;
        }
        c.hb_next = now + self.timing.heartbeat_interval;
        self.hb_seq += 1;
        // Every heartbeat is also a clock probe: the daemon echoes
        // t_client_us back with its own stamp.
        let t_client_us = self.micros(now);
        self.queue(Frame::Heartbeat {
            seq: self.hb_seq,
            t_client_us,
        })
    }

    /// The earliest instant at which [`Supervisor::tick`] (heartbeat,
    /// liveness verdict) or a reconnect is due; `None` when nothing ever is
    /// (disconnected for good). A verdict already given is not due again:
    /// once the probe reads Suspect, the next is the Dead one.
    pub fn next_deadline(&self) -> Option<Instant> {
        match &self.conn {
            Some(c) => {
                let down = c.last_ack + self.timing.down_after;
                let next = c.hb_next.min(down);
                if self.shared.probe() == ProbeState::Suspect {
                    return Some(next);
                }
                Some(next.min(c.last_ack + self.timing.suspect_after))
            }
            None if self.gave_up => None,
            None => Some(self.next_connect),
        }
    }

    /// Caches blob `key` and ships it to the current connection.
    pub fn stage(&mut self, key: u64, bytes: Arc<Vec<u8>>) {
        self.blob_cache.insert(key, bytes);
        self.stage_to_conn(key);
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
            self.shared.add(Ctr::TransfersElided, 1);
            return;
        }
        let (bytes, len) = (Arc::clone(bytes), bytes.len());
        self.shared.add(Ctr::TransferBytes, len as u64);
        let head = |out: &mut Vec<u8>| encode_transfer_head(out, key, len);
        self.queue_with(head, Payload::Shared(bytes));
    }

    /// Dispatches one attempt, staging any dep this connection has not
    /// seen first (a restarted daemon lost its blob store; a reconnect
    /// cleared `staged`).
    pub fn submit(&mut self, job: JobSpec, done: Completion, now: Instant) {
        for &d in &job.deps {
            if !self.blob_cache.contains_key(&d) {
                let task = job.task;
                let msg = format!("dep blob {d} for task {task} never staged");
                return self.out.resolved.push((done, Err(msg)));
            }
            self.stage_to_conn(d);
        }
        if self.conn.is_none() {
            let msg = format!("endpoint {} not connected", self.name);
            return self.out.resolved.push((done, Err(msg)));
        }
        // Outstanding from the moment its DISPATCH is buffered: if the
        // write that carries it fails, `conn_lost` fails it with the rest.
        let (task, attempt, kept) = (job.task, job.attempt, job.kept_key());
        match self.outstanding.entry((task, attempt)) {
            Entry::Occupied(_) => {
                let msg = format!("task {task} attempt {attempt} is already in flight");
                return self.out.resolved.push((done, Err(msg)));
            }
            Entry::Vacant(slot) => {
                slot.insert(Pending {
                    done,
                    sent_at: now,
                    kept,
                });
            }
        }
        if kept.is_some() {
            self.queue(Frame::Keep { task, attempt });
        }
        // Span context: the daemon generation this dispatch believes it
        // is talking to (a respawned daemon will answer with its own,
        // newer generation on the RESULT).
        let generation = self.shared.generation();
        let JobSpec {
            function,
            deps,
            payload,
            ..
        } = job;
        let len = payload.len();
        let head = |out: &mut Vec<u8>| {
            encode_dispatch_head(out, task, attempt, generation, &function, &deps, len);
        };
        self.queue_with(head, payload);
    }

    /// The frames one socket read of connection `epoch` brought in.
    pub fn on_frames(&mut self, epoch: u64, frames: impl IntoIterator<Item = Frame>, now: Instant) {
        for frame in frames {
            match &mut self.conn {
                // Any frame is proof of life.
                Some(c) if c.epoch == epoch => c.last_ack = now,
                _ => return, // a stale reader's leftovers
            }
            self.on_frame(frame, now);
        }
    }

    fn on_frame(&mut self, frame: Frame, now: Instant) {
        match frame {
            Frame::Hello {
                proto,
                workers,
                generation,
                ..
            } => {
                if proto != PROTO_VERSION {
                    return self.conn_lost("protocol version mismatch", now);
                }
                self.shared.workers.store(workers, Ordering::SeqCst);
                self.shared.generation.store(generation, Ordering::SeqCst);
                self.shared.set_probe(ProbeState::Alive);
                // The daemon behind a HELLO may be another process than
                // the last one to say this generation (a restart at the
                // same address): its TELEMETRY sequence starts afresh.
                self.tel_seq = 0;
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
                    t3_us: self.micros(now),
                };
                if sample.t3_us >= sample.t0_us {
                    let generation = self.shared.generation();
                    self.out.clocks.push((generation, sample));
                }
            }
            Frame::Result {
                task,
                attempt,
                ok,
                payload,
                ..
            } => match self.outstanding.remove(&(task, attempt)) {
                Some(p) => {
                    let sent = now.saturating_duration_since(p.sent_at);
                    self.out.roundtrips.push(sent);
                    // Outstanding means dispatched on this connection, and
                    // its daemon stored the output before it sent this.
                    if let (true, Some(key), Some(c)) = (ok, p.kept, &mut self.conn) {
                        c.kept.insert(key);
                    }
                    let outcome = if ok {
                        Ok(payload)
                    } else {
                        Err(String::from_utf8_lossy(&payload).into_owned())
                    };
                    self.out.resolved.push((p.done, outcome));
                }
                // A replay from a resurrected connection, a duplicate, or
                // an attempt already failed over. Exactly-once resolution
                // = drop it here.
                None => self.shared.add(Ctr::StaleResults, 1),
            },
            Frame::Telemetry {
                generation,
                seq,
                events,
                counters,
                exec_buckets,
            } => {
                // A batch from any generation but the connection's, or
                // whose sequence does not advance past everything accepted
                // since its HELLO, is refused whole: merging it would put
                // events on the wrong clock or regress cumulative counters.
                if generation != self.shared.generation() || seq <= self.tel_seq {
                    return self.shared.add(Ctr::TelDropped, 1);
                }
                self.tel_seq = seq;
                self.shared.add(Ctr::TelFrames, 1);
                self.shared.add(Ctr::TelEvents, events.len() as u64);
                self.out.telemetry.push(TelBatch {
                    generation,
                    events,
                    counters,
                    exec_buckets,
                });
            }
            // Acks that need no answer, and daemon-bound frames a
            // misbehaving peer sent back: ignored.
            _ => {}
        }
    }

    /// The reader of connection `epoch` hit EOF or an error.
    pub fn reader_closed(&mut self, epoch: u64, now: Instant) {
        if self.epoch() == Some(epoch) {
            self.conn_lost("connection closed", now);
        }
    }

    /// Declares the connection dead: what is buffered for it is dropped,
    /// every outstanding attempt fails (the runtime re-dispatches under
    /// fresh attempt numbers), and a reconnect is due at once — if the
    /// peer is really gone, the connect failure backs off.
    pub fn conn_lost(&mut self, reason: &str, now: Instant) {
        if self.conn.take().is_none() {
            return;
        }
        self.out.wire = Outbox::default();
        // Counted before the probe reads Dead, so whoever sees Dead sees
        // the count.
        self.shared
            .add(Ctr::Failovers, self.outstanding.len() as u64);
        self.shared.set_probe(ProbeState::Dead);
        for ((task, _), p) in std::mem::take(&mut self.outstanding) {
            let msg = format!("endpoint {}: {reason} (task {task} in flight)", self.name);
            self.out.resolved.push((p.done, Err(msg)));
        }
        self.next_connect = now;
    }

    /// Queues DRAIN on the current connection. Returns the epoch whose
    /// DRAIN_ACK ends the drain, `None` while disconnected.
    pub fn drain(&mut self) -> Option<u64> {
        let epoch = self.epoch()?;
        self.queue(Frame::Drain);
        Some(epoch)
    }

    /// The end: the connection is dropped and every outstanding attempt
    /// fails with `fabric shut down`.
    pub fn close(&mut self) {
        self.conn = None;
        self.out.wire = Outbox::default();
        self.shared.set_probe(ProbeState::Dead);
        for (_, p) in std::mem::take(&mut self.outstanding) {
            self.out.resolved.push((p.done, Err(SHUT_DOWN.to_string())));
        }
    }

    /// Queues a frame without a payload; `false` while disconnected.
    fn queue(&mut self, frame: Frame) -> bool {
        self.queue_with(|out| frame.encode_into(out), Payload::default())
    }

    /// Queues one frame — `head` appends it up to its `payload`.
    fn queue_with(&mut self, head: impl FnOnce(&mut Vec<u8>), payload: Payload) -> bool {
        if self.conn.is_none() {
            return false;
        }
        self.shared.add(Ctr::FramesSent, 1);
        self.out.wire.push(head, payload);
        true
    }

    /// Micros on the shared client clock.
    fn micros(&self, now: Instant) -> u64 {
        now.saturating_duration_since(self.clock0).as_micros() as u64
    }
}
