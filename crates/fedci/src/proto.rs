//! The process fabric's wire protocol.
//!
//! One frame = `[u32 LE length][u16 LE kind][body]`, where `length` covers
//! the kind tag plus the body (so every valid frame has `length >= 2`).
//! Multi-byte integers are little-endian; strings are `u16` length +
//! UTF-8 bytes; byte blobs are `u32` length + bytes.
//!
//! The codec is written for adversarial input: a frame header is fully
//! validated **before** any allocation (a claimed length beyond
//! [`MAX_FRAME`] is rejected without reserving a byte), truncated bodies
//! and trailing garbage are hard errors, and decode never panics — the
//! proptests in `crates/fedci/tests/proptest_proto.rs` hold it to that.
//!
//! Message flow (client = the [`ProcessFabric`](crate::process::ProcessFabric)
//! manager, daemon = `unifaas-endpointd`):
//!
//! ```text
//! daemon → client   HELLO          once per connection: identity + generation
//! client → daemon   TRANSFER       stage an input blob        → TRANSFER_ACK
//! client → daemon   KEEP           the DISPATCH behind this: keep its output
//! client → daemon   DISPATCH       run a function attempt     → RESULT
//! client → daemon   HEARTBEAT      liveness, seq-numbered,
//!                                  timestamped for clock sync → HEARTBEAT_ACK
//! client → daemon   TELEMETRY_SUB  enable/disable daemon telemetry
//! daemon → client   TELEMETRY      batched trace events + metric deltas
//! client → daemon   DRAIN          finish queued work, stop   → DRAIN_ACK
//! ```
//!
//! The observability plane rides on three things: DISPATCH/RESULT carry
//! the span context `(task, attempt, generation)` so daemon-side spans
//! can be stitched to the client attempt that caused them; HEARTBEAT /
//! HEARTBEAT_ACK carry send/receive timestamps (client monotonic micros
//! out, daemon monotonic micros back, client stamp echoed) feeding the
//! NTP-style offset estimator in [`crate::clock`]; and TELEMETRY frames
//! batch-ship the daemon's trace ring ([`TelemetryEvent`]s in daemon
//! monotonic micros), cumulative counters, and execution-latency sketch
//! buckets back to the supervisor.

use crate::fabric::Payload;
use std::borrow::Cow;
use std::io::{Read, Write};

/// Protocol revision carried in HELLO; peers with a different revision
/// must disconnect. Revision 2 added clock-sync timestamps on the
/// heartbeat exchange, the `generation` span context on DISPATCH/RESULT,
/// and the TELEMETRY_SUB/TELEMETRY pair. Revision 3 added KEEP, and with
/// it the rule that a blob key names one byte string: the output of one
/// attempt ([`crate::fabric::blob_key`]). Revision 4 removed POLL and
/// POLL_ACK (HEARTBEAT_ACK carries the busy count); kinds 4 and 5 are
/// unassigned.
pub const PROTO_VERSION: u16 = 4;

/// Upper bound on `length` (kind + body). Chosen comfortably above any
/// real frame so the only way to hit it is corruption or attack; checked
/// before allocating.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Most [`TelemetryEvent`]s a daemon packs into one TELEMETRY frame.
/// 8192 events × 29 bytes ≈ 232 KiB — far under [`MAX_FRAME`], so even a
/// full ring ships as a short burst of well-bounded frames.
pub const TEL_MAX_EVENTS: usize = 8192;

/// [`TelemetryEvent::stage`]: DISPATCH frame decoded on the daemon
/// (`arg` = queue depth at that instant).
pub const TEL_STAGE_RECV: u8 = 1;
/// [`TelemetryEvent::stage`]: a worker began executing (`arg` unused).
pub const TEL_STAGE_EXEC_BEGIN: u8 = 2;
/// [`TelemetryEvent::stage`]: execution finished (`arg` = 1 ok, 0 error).
pub const TEL_STAGE_EXEC_END: u8 = 3;
/// [`TelemetryEvent::stage`]: the RESULT frame was written to the socket
/// (`arg` = 1 ok, 0 error).
pub const TEL_STAGE_SENT: u8 = 4;
/// [`TelemetryEvent::stage`]: chaos swallowed the attempt — no RESULT
/// will ever come (`arg` unused).
pub const TEL_STAGE_CHAOS_SWALLOW: u8 = 5;
/// [`TelemetryEvent::stage`]: chaos delayed the attempt (`arg` = ms).
pub const TEL_STAGE_CHAOS_DELAY: u8 = 6;

/// Telemetry counter code: DISPATCH frames received.
pub const TEL_CTR_DISPATCHES: u16 = 1;
/// Telemetry counter code: attempts that produced an ok RESULT.
pub const TEL_CTR_RESULTS_OK: u16 = 2;
/// Telemetry counter code: attempts that produced an error RESULT.
pub const TEL_CTR_RESULTS_ERR: u16 = 3;
/// Telemetry counter code: attempts swallowed by chaos injection.
pub const TEL_CTR_CHAOS_SWALLOWED: u16 = 4;
/// Telemetry counter code: attempts delayed by chaos injection.
pub const TEL_CTR_CHAOS_DELAYS: u16 = 5;
/// Telemetry counter code: trace events dropped by the daemon ring.
pub const TEL_CTR_RING_DROPPED: u16 = 6;

/// One daemon-side trace event, stamped in the daemon's local monotonic
/// clock (micros since daemon start). The client maps `t_us` onto its own
/// timeline with the per-generation clock offset from [`crate::clock`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryEvent {
    /// What happened — one of the `TEL_STAGE_*` codes. Unknown codes
    /// pass through the codec untouched (forward compatibility).
    pub stage: u8,
    /// Daemon monotonic micros since daemon start.
    pub t_us: u64,
    /// Task id the event belongs to.
    pub task: u64,
    /// Attempt number the event belongs to.
    pub attempt: u32,
    /// Stage-specific argument (see the `TEL_STAGE_*` docs).
    pub arg: u64,
}

/// Decode/IO failures. Every variant is a clean error — no panics, no
/// partial state.
#[derive(Debug)]
pub enum ProtoError {
    /// The input ended before the frame did.
    Truncated,
    /// The header claims a length over [`MAX_FRAME`] (or under the
    /// 2-byte kind tag).
    Oversized(u32),
    /// Unrecognized kind tag.
    UnknownKind(u16),
    /// A string field was not UTF-8.
    BadUtf8,
    /// Bytes left over after a complete message was decoded.
    TrailingBytes(usize),
    /// A field held a value the encoder can never produce (e.g. a bool
    /// byte other than 0/1) — rejected so the codec stays a bijection on
    /// its valid set.
    Malformed(&'static str),
    /// Underlying socket/file error.
    Io(std::io::Error),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "frame truncated"),
            ProtoError::Oversized(n) => write!(f, "frame length {n} out of bounds"),
            ProtoError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            ProtoError::BadUtf8 => write!(f, "string field is not UTF-8"),
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame"),
            ProtoError::Malformed(what) => write!(f, "malformed field: {what}"),
            ProtoError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Every message the process fabric exchanges.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Daemon → client, once per connection: who am I, how many workers,
    /// and which spawn *generation* — a client that respawned the daemon
    /// knows whether it is talking to the incarnation it expects.
    Hello {
        /// Protocol revision ([`PROTO_VERSION`]).
        proto: u16,
        /// Endpoint name.
        name: String,
        /// Worker thread count.
        workers: u32,
        /// Spawn generation (incremented by the supervisor per respawn).
        generation: u64,
    },
    /// Client → daemon: execute one attempt of a task.
    Dispatch {
        /// Task id (stable across attempts).
        task: u64,
        /// Attempt number — echoed in RESULT; the client drops stale ones.
        attempt: u32,
        /// Span context: the daemon generation the client believes it is
        /// dispatching to (from HELLO). Lets daemon-side telemetry be
        /// stitched to the exact client attempt → incarnation pair.
        generation: u64,
        /// Registered function name.
        function: String,
        /// Staged blob keys, concatenated in order as the input prefix.
        deps: Vec<u64>,
        /// Inline argument bytes, appended after the dep blobs.
        payload: Vec<u8>,
    },
    /// Daemon → client: outcome of one dispatch.
    Result {
        /// Task id from the dispatch.
        task: u64,
        /// Attempt from the dispatch (the exactly-once guard).
        attempt: u32,
        /// Span context: the generation of the daemon incarnation that
        /// actually executed this attempt — a replay from a resurrected
        /// daemon is distinguishable from a fresh result.
        generation: u64,
        /// 1 = payload is the function result; 0 = payload is an
        /// error message.
        ok: bool,
        /// Result bytes or UTF-8 error message.
        payload: Vec<u8>,
    },
    /// Client → daemon: stage blob `key` for later dispatch deps.
    Transfer {
        /// Blob key.
        key: u64,
        /// Blob bytes.
        payload: Vec<u8>,
    },
    /// Daemon → client: blob stored.
    TransferAck {
        /// Blob key being acknowledged.
        key: u64,
        /// Bytes stored.
        stored: u64,
    },
    /// Client → daemon: liveness probe, doubling as a clock-sync probe.
    Heartbeat {
        /// Monotone sequence number per connection.
        seq: u64,
        /// Client monotonic micros when the probe left — NTP `t0`,
        /// echoed back in the ack so the client never has to remember
        /// which probe an ack answers.
        t_client_us: u64,
    },
    /// Daemon → client: answer to [`Frame::Heartbeat`].
    HeartbeatAck {
        /// Echoed sequence number.
        seq: u64,
        /// Workers currently executing (free liveness piggyback).
        busy: u32,
        /// Echo of the probe's `t_client_us` (NTP `t0`).
        t_client_us: u64,
        /// Daemon monotonic micros when the probe was handled — NTP
        /// `t1`≈`t2` (turnaround inside the daemon is sub-millisecond).
        t_daemon_us: u64,
    },
    /// Client → daemon: finish queued work, then exit cleanly.
    Drain,
    /// Daemon → client: drain accepted.
    DrainAck {
        /// Jobs still queued or executing at the time of the ack.
        remaining: u32,
    },
    /// Client → daemon: subscribe to (or mute) the daemon's telemetry
    /// stream. Strictly opt-in: a daemon never ships TELEMETRY frames
    /// unsolicited, so a telemetry-off client sees a byte-identical
    /// conversation.
    TelemetrySub {
        /// 0 = off, 1 = spans, 2 = full — mirrors
        /// `simkit::trace::TraceLevel`.
        level: u8,
    },
    /// Daemon → client: a batch of trace events plus metric state,
    /// shipped opportunistically on the heartbeat cadence and flushed
    /// once more on DRAIN.
    Telemetry {
        /// The sending incarnation's spawn generation. The client drops
        /// batches whose generation is not the one it is connected to —
        /// a resurrected daemon's replayed telemetry never merges.
        generation: u64,
        /// Per-generation batch sequence number, strictly increasing;
        /// the client drops reordered or replayed batches.
        seq: u64,
        /// Trace events in daemon monotonic time, oldest first.
        events: Vec<TelemetryEvent>,
        /// Cumulative (since daemon start) counters as
        /// (`TEL_CTR_*`, value) pairs — cumulative, not deltas, so a
        /// lost batch undercounts nothing.
        counters: Vec<(u16, u64)>,
        /// Cumulative execution-latency sketch as sparse
        /// `LogHistogram` bucket counts (`bucket_counts()` form).
        exec_buckets: Vec<(i32, u64)>,
    },
    /// Client → daemon, directly ahead of the DISPATCH of the same
    /// `(task, attempt)` in the same write: keep that attempt's output in
    /// the blob store under [`blob_key`](crate::fabric::blob_key)`(task,
    /// attempt)` — a dependent is already waiting for it. Its own frame
    /// because DISPATCH's field list is frozen; the in-order transport
    /// makes keep-then-dispatch race-free exactly as stage-then-dispatch
    /// is. A KEEP no DISPATCH follows is forgotten.
    Keep {
        /// Task id of the dispatch that follows.
        task: u64,
        /// Attempt of the dispatch that follows.
        attempt: u32,
    },
}

impl Frame {
    /// The frame's kind tag.
    pub fn kind(&self) -> u16 {
        match self {
            Frame::Hello { .. } => 1,
            Frame::Dispatch { .. } => KIND_DISPATCH,
            Frame::Result { .. } => KIND_RESULT,
            Frame::Transfer { .. } => KIND_TRANSFER,
            Frame::TransferAck { .. } => 7,
            Frame::Heartbeat { .. } => 8,
            Frame::HeartbeatAck { .. } => 9,
            Frame::Drain => 10,
            Frame::DrainAck { .. } => 11,
            Frame::TelemetrySub { .. } => 12,
            Frame::Telemetry { .. } => 13,
            Frame::Keep { .. } => 14,
        }
    }

    /// Encodes the frame, header included.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the encoded frame, header included, to `out` — no
    /// intermediate buffer, so a connection can coalesce many frames into
    /// one write. `out` may already hold earlier frames.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = begin_frame(out, self.kind());
        // What DISPATCH, RESULT and TRANSFER end in: appended last, behind
        // a head that already counts it.
        let mut payload: &[u8] = &[];
        match self {
            Frame::Hello {
                proto,
                name,
                workers,
                generation,
            } => {
                out.extend_from_slice(&proto.to_le_bytes());
                put_str(out, name);
                out.extend_from_slice(&workers.to_le_bytes());
                out.extend_from_slice(&generation.to_le_bytes());
            }
            Frame::Dispatch {
                task,
                attempt,
                generation,
                function,
                deps,
                payload: p,
            } => {
                put_dispatch_head(out, *task, *attempt, *generation, function, deps, p.len());
                payload = p;
            }
            Frame::Transfer { key, payload: p } => {
                put_transfer_head(out, *key, p.len());
                payload = p;
            }
            Frame::Result {
                task,
                attempt,
                generation,
                ok,
                payload: p,
            } => {
                put_result_head(out, *task, *attempt, *generation, *ok, p.len());
                payload = p;
            }
            Frame::Drain => {}
            Frame::TransferAck { key, stored } => {
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&stored.to_le_bytes());
            }
            Frame::Heartbeat { seq, t_client_us } => {
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&t_client_us.to_le_bytes());
            }
            Frame::HeartbeatAck {
                seq,
                busy,
                t_client_us,
                t_daemon_us,
            } => {
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&busy.to_le_bytes());
                out.extend_from_slice(&t_client_us.to_le_bytes());
                out.extend_from_slice(&t_daemon_us.to_le_bytes());
            }
            Frame::DrainAck { remaining } => {
                out.extend_from_slice(&remaining.to_le_bytes());
            }
            Frame::TelemetrySub { level } => {
                out.push(*level);
            }
            Frame::Telemetry {
                generation,
                seq,
                events,
                counters,
                exec_buckets,
            } => {
                out.extend_from_slice(&generation.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&(events.len() as u32).to_le_bytes());
                for e in events {
                    out.push(e.stage);
                    out.extend_from_slice(&e.t_us.to_le_bytes());
                    out.extend_from_slice(&e.task.to_le_bytes());
                    out.extend_from_slice(&e.attempt.to_le_bytes());
                    out.extend_from_slice(&e.arg.to_le_bytes());
                }
                out.extend_from_slice(&(counters.len() as u16).to_le_bytes());
                for (code, value) in counters {
                    out.extend_from_slice(&code.to_le_bytes());
                    out.extend_from_slice(&value.to_le_bytes());
                }
                out.extend_from_slice(&(exec_buckets.len() as u16).to_le_bytes());
                for (bucket, count) in exec_buckets {
                    out.extend_from_slice(&bucket.to_le_bytes());
                    out.extend_from_slice(&count.to_le_bytes());
                }
            }
            Frame::Keep { task, attempt } => {
                out.extend_from_slice(&task.to_le_bytes());
                out.extend_from_slice(&attempt.to_le_bytes());
            }
        }
        end_frame(out, start, payload.len());
        out.extend_from_slice(payload);
    }

    /// Decodes one frame from `buf`, which must contain exactly the frame
    /// (header included) and nothing else.
    pub fn decode(buf: &[u8]) -> Result<Frame, ProtoError> {
        let head = buf.first_chunk::<4>().ok_or(ProtoError::Truncated)?;
        let len = body_len(*head)?;
        match buf.len() - 4 {
            n if n < len => Err(ProtoError::Truncated),
            n if n > len => Err(ProtoError::TrailingBytes(n - len)),
            _ => decode_exact(&buf[4..]),
        }
    }

    /// Reads one frame from `r` (blocking). The length header is bounds
    /// checked before the body buffer is allocated, so a hostile peer
    /// cannot make the reader reserve [`MAX_FRAME`]-scale memory with a
    /// 4-byte header alone — the allocation happens only once, capped.
    pub fn read_from<R: Read>(r: &mut R) -> Result<Frame, ProtoError> {
        let mut head = [0u8; 4];
        read_exact_or_truncated(r, &mut head)?;
        let mut body = vec![0u8; body_len(head)?];
        read_exact_or_truncated(r, &mut body)?;
        decode_exact(&body)
    }

    /// Writes the encoded frame to `w` and flushes.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), ProtoError> {
        w.write_all(&self.encode())?;
        w.flush()?;
        Ok(())
    }
}

/// One frame as [`FrameReader::read_batch_with`] hands it out.
#[derive(Debug, PartialEq)]
pub enum Incoming<'a> {
    /// A DISPATCH.
    Dispatch(Dispatch<'a>),
    /// Any other frame.
    Other(Frame),
}

/// A decoded DISPATCH as the daemon takes it: [`Frame::Dispatch`]'s fields,
/// with the function name borrowed from the read buffer and a payload of
/// at most [`INLINE_PAYLOAD`] bytes stored in place, so that decoding one
/// without deps allocates nothing.
///
/// [`INLINE_PAYLOAD`]: crate::fabric::INLINE_PAYLOAD
#[derive(Debug, PartialEq)]
pub struct Dispatch<'a> {
    /// Task id (stable across attempts).
    pub task: u64,
    /// Attempt number.
    pub attempt: u32,
    /// Span context: the daemon generation the client dispatched to.
    pub generation: u64,
    /// Registered function name.
    pub function: Cow<'a, str>,
    /// Staged blob keys, concatenated in order as the input prefix.
    pub deps: Vec<u64>,
    /// Inline argument bytes, appended after the dep blobs.
    pub payload: Payload,
}

impl From<Frame> for Incoming<'static> {
    fn from(frame: Frame) -> Self {
        match frame {
            Frame::Dispatch {
                task,
                attempt,
                generation,
                function,
                deps,
                payload,
            } => Incoming::Dispatch(Dispatch {
                task,
                attempt,
                generation,
                function: Cow::Owned(function),
                deps,
                payload: payload.into(),
            }),
            other => Incoming::Other(other),
        }
    }
}

/// What [`FrameReader`] found next: a frame whose body sits in its buffer
/// at this range, or one too large for the buffer, already decoded.
enum Next {
    Body(std::ops::Range<usize>),
    Large(Frame),
}

/// Size of the per-connection I/O buffers: [`FrameReader`]'s read buffer,
/// and the threshold at which the process fabric's coalescing write
/// buffers flush.
pub const IO_BUF: usize = 64 * 1024;

/// Reads frames through an [`IO_BUF`]-sized buffer: one `read` on the
/// underlying stream brings in as many frames as the peer has written,
/// and each is decoded straight out of the buffer — no header/body read
/// pair and no body allocation per frame. A frame larger than the buffer
/// (bounds-checked against [`MAX_FRAME`] first, exactly as
/// [`Frame::read_from`] does) that ends in a payload — DISPATCH, RESULT,
/// TRANSFER — has its head decoded from the buffer and its payload read
/// from the stream into the `Vec` the [`Frame`] owns: the bytes are
/// materialised once.
pub struct FrameReader<R> {
    inner: R,
    buf: Box<[u8]>,
    /// `buf[pos..end]` holds bytes read but not yet decoded.
    pos: usize,
    end: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `inner`. The reader may read ahead of the frame it returns,
    /// so it must own the stream for the rest of the conversation.
    pub fn new(inner: R) -> Self {
        FrameReader {
            inner,
            buf: vec![0; IO_BUF].into_boxed_slice(),
            pos: 0,
            end: 0,
        }
    }

    /// Total length (header included) of the frame at the front of the
    /// buffer, once its 4-byte header is in. The length is validated
    /// here, before anything is sized by it.
    fn front_len(&self) -> Result<Option<usize>, ProtoError> {
        let Some(head) = self.buf[self.pos..self.end].first_chunk::<4>() else {
            return Ok(None);
        };
        Ok(Some(4 + body_len(*head)?))
    }

    /// Returns the next frame, blocking on the underlying stream only
    /// when the buffer does not already hold it. EOF — at a frame
    /// boundary or inside a frame — is [`ProtoError::Truncated`].
    pub fn read_frame(&mut self) -> Result<Frame, ProtoError> {
        match self.next_body()? {
            Next::Body(body) => decode_exact(&self.buf[body]),
            Next::Large(frame) => Ok(frame),
        }
    }

    /// Blocks until the next frame is complete in the buffer and consumes
    /// it; a frame larger than the buffer is read and decoded whole.
    fn next_body(&mut self) -> Result<Next, ProtoError> {
        loop {
            if let Some(body) = self.take_buffered() {
                return Ok(Next::Body(body));
            }
            if let Some(total) = self.front_len()? {
                if total > self.buf.len() {
                    return self.read_large(total).map(Next::Large);
                }
            }
            self.fill()?;
        }
    }

    /// The body (kind tag + fields) of the frame at the front of the
    /// buffer, consumed — if all of it is there and its header is valid.
    fn take_buffered(&mut self) -> Option<std::ops::Range<usize>> {
        let total = self.front_len().ok()??;
        if self.end - self.pos < total {
            return None;
        }
        let body = self.pos + 4..self.pos + total;
        self.pos += total;
        Some(body)
    }

    /// Reads more of the stream behind what is buffered, first moving the
    /// partial frame at the front of the buffer to its start so the whole
    /// buffer is free behind it. EOF is [`ProtoError::Truncated`].
    fn fill(&mut self) -> Result<(), ProtoError> {
        self.buf.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        loop {
            match self.inner.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err(ProtoError::Truncated),
                Ok(n) => {
                    self.end += n;
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ProtoError::Io(e)),
            }
        }
    }

    /// Blocks for one frame, then appends every further frame that is
    /// already complete in the buffer — all the frames one socket read
    /// brought in — without touching the stream again. On error, frames
    /// decoded before it are left in `out`.
    pub fn read_batch(&mut self, out: &mut Vec<Frame>) -> Result<(), ProtoError> {
        out.push(self.read_frame()?);
        while let Some(body) = self.take_buffered() {
            out.push(decode_exact(&self.buf[body])?);
        }
        Ok(())
    }

    /// [`FrameReader::read_batch`] for the daemon: hands each frame of one
    /// socket read to `each` in order, a DISPATCH as an
    /// [`Incoming::Dispatch`] (see [`Dispatch`]). On error, the frames
    /// decoded before it have been handed out.
    pub fn read_batch_with(
        &mut self,
        mut each: impl FnMut(Incoming<'_>),
    ) -> Result<(), ProtoError> {
        match self.next_body()? {
            Next::Body(body) => each(decode_incoming(&self.buf[body])?),
            Next::Large(frame) => each(frame.into()),
        }
        while let Some(body) = self.take_buffered() {
            each(decode_incoming(&self.buf[body])?);
        }
        Ok(())
    }

    /// A frame of `total` bytes, more than the buffer holds. One that ends
    /// in a payload and whose head fits the buffer gets the payload read
    /// from the stream into its own `Vec`; its inner length claim is held
    /// to the frame length first, with the errors [`Frame::decode`] gives
    /// the same bytes. Anything else — TELEMETRY, a DISPATCH with tens of
    /// thousands of deps — is read whole and decoded from that.
    fn read_large(&mut self, total: usize) -> Result<Frame, ProtoError> {
        let body_len = total - 4;
        loop {
            // Less than the body is buffered, so `Truncated` here says
            // only that the head is not in yet.
            let have = &self.buf[self.pos + 4..self.end];
            let mut c = Cursor { buf: have, pos: 0 };
            let kind = c.u16();
            match kind.and_then(|kind| Head::decode(kind, &mut c)) {
                Ok(Some((head, n))) => {
                    let rest = body_len - c.pos;
                    if n > rest {
                        return Err(ProtoError::Truncated);
                    }
                    if n < rest {
                        return Err(ProtoError::TrailingBytes(rest - n));
                    }
                    let buffered = &have[c.pos..];
                    let mut payload = vec![0u8; n];
                    payload[..buffered.len()].copy_from_slice(buffered);
                    let behind = buffered.len();
                    (self.pos, self.end) = (0, 0);
                    read_exact_or_truncated(&mut self.inner, &mut payload[behind..])?;
                    return Ok(head.with_payload(payload));
                }
                Err(ProtoError::Truncated) if self.end - self.pos < self.buf.len() => {
                    self.fill()?;
                }
                Ok(None) | Err(ProtoError::Truncated) => break,
                Err(e) => return Err(e),
            }
        }
        let mut body = vec![0u8; body_len];
        let have = self.end - self.pos - 4;
        body[..have].copy_from_slice(&self.buf[self.pos + 4..self.end]);
        (self.pos, self.end) = (0, 0);
        read_exact_or_truncated(&mut self.inner, &mut body[have..])?;
        decode_exact(&body)
    }
}

/// The length a frame header claims for what follows it (kind tag +
/// fields), refused unless a real frame can have it — the check every
/// decode path makes before anything is sized by the claim.
fn body_len(head: [u8; 4]) -> Result<usize, ProtoError> {
    let len = u32::from_le_bytes(head);
    if !(2..=MAX_FRAME).contains(&len) {
        return Err(ProtoError::Oversized(len));
    }
    Ok(len as usize)
}

/// Decodes `body` (kind tag + fields, no length header), which must hold
/// exactly one frame.
fn decode_exact(body: &[u8]) -> Result<Frame, ProtoError> {
    let mut c = Cursor { buf: body, pos: 0 };
    let frame = decode_body(&mut c)?;
    c.finish()?;
    Ok(frame)
}

/// Decodes `body` as [`decode_exact`] does, except that a DISPATCH becomes
/// an [`Incoming::Dispatch`] whose function name is borrowed from `body`.
fn decode_incoming(body: &[u8]) -> Result<Incoming<'_>, ProtoError> {
    let mut c = Cursor { buf: body, pos: 0 };
    let kind = c.u16()?;
    match Head::decode(kind, &mut c)? {
        Some((
            Head::Dispatch {
                task,
                attempt,
                generation,
                function,
                deps,
            },
            n,
        )) => {
            let payload = Payload::from(c.take(n)?);
            c.finish()?;
            Ok(Incoming::Dispatch(Dispatch {
                task,
                attempt,
                generation,
                function: Cow::Borrowed(function),
                deps,
                payload,
            }))
        }
        _ => decode_exact(body).map(Incoming::Other),
    }
}

/// A DISPATCH, RESULT or TRANSFER up to its payload — the kinds that end
/// in one, so a reader that has the head can put the payload straight
/// into the `Vec` the frame will own.
enum Head<'a> {
    Dispatch {
        task: u64,
        attempt: u32,
        generation: u64,
        function: &'a str,
        deps: Vec<u64>,
    },
    Result {
        task: u64,
        attempt: u32,
        generation: u64,
        ok: bool,
    },
    Transfer {
        key: u64,
    },
}

impl<'a> Head<'a> {
    /// Decodes the head of a frame of `kind` and the payload length it
    /// claims (not yet checked against anything); `None` for a kind that
    /// does not end in a payload.
    fn decode(kind: u16, c: &mut Cursor<'a>) -> Result<Option<(Head<'a>, usize)>, ProtoError> {
        let head = match kind {
            KIND_DISPATCH => {
                let task = c.u64()?;
                let attempt = c.u32()?;
                let generation = c.u64()?;
                let function = c.str()?;
                let n = c.u16()? as usize;
                let mut deps = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    deps.push(c.u64()?);
                }
                Head::Dispatch {
                    task,
                    attempt,
                    generation,
                    function,
                    deps,
                }
            }
            KIND_RESULT => Head::Result {
                task: c.u64()?,
                attempt: c.u32()?,
                generation: c.u64()?,
                ok: c.bool()?,
            },
            KIND_TRANSFER => Head::Transfer { key: c.u64()? },
            _ => return Ok(None),
        };
        Ok(Some((head, c.u32()? as usize)))
    }

    fn with_payload(self, payload: Vec<u8>) -> Frame {
        match self {
            Head::Dispatch {
                task,
                attempt,
                generation,
                function,
                deps,
            } => Frame::Dispatch {
                task,
                attempt,
                generation,
                function: function.to_owned(),
                deps,
                payload,
            },
            Head::Result {
                task,
                attempt,
                generation,
                ok,
            } => Frame::Result {
                task,
                attempt,
                generation,
                ok,
                payload,
            },
            Head::Transfer { key } => Frame::Transfer { key, payload },
        }
    }
}

fn decode_body(c: &mut Cursor<'_>) -> Result<Frame, ProtoError> {
    let kind = c.u16()?;
    if let Some((head, n)) = Head::decode(kind, c)? {
        // The one copy of a buffered frame's payload: out of the buffer.
        return Ok(head.with_payload(c.take(n)?.to_vec()));
    }
    Ok(match kind {
        1 => Frame::Hello {
            proto: c.u16()?,
            name: c.str()?.to_owned(),
            workers: c.u32()?,
            generation: c.u64()?,
        },
        7 => Frame::TransferAck {
            key: c.u64()?,
            stored: c.u64()?,
        },
        8 => Frame::Heartbeat {
            seq: c.u64()?,
            t_client_us: c.u64()?,
        },
        9 => Frame::HeartbeatAck {
            seq: c.u64()?,
            busy: c.u32()?,
            t_client_us: c.u64()?,
            t_daemon_us: c.u64()?,
        },
        10 => Frame::Drain,
        11 => Frame::DrainAck {
            remaining: c.u32()?,
        },
        12 => Frame::TelemetrySub { level: c.u8()? },
        13 => {
            let generation = c.u64()?;
            let seq = c.u64()?;
            let n = c.u32()? as usize;
            let mut events = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                events.push(TelemetryEvent {
                    stage: c.u8()?,
                    t_us: c.u64()?,
                    task: c.u64()?,
                    attempt: c.u32()?,
                    arg: c.u64()?,
                });
            }
            let n = c.u16()? as usize;
            let mut counters = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                counters.push((c.u16()?, c.u64()?));
            }
            let n = c.u16()? as usize;
            let mut exec_buckets = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                exec_buckets.push((c.i32()?, c.u64()?));
            }
            Frame::Telemetry {
                generation,
                seq,
                events,
                counters,
                exec_buckets,
            }
        }
        14 => Frame::Keep {
            task: c.u64()?,
            attempt: c.u32()?,
        },
        k => return Err(ProtoError::UnknownKind(k)),
    })
}

/// Appends the head of a DISPATCH frame: everything but the payload
/// bytes, the frame length already counting them. The frame is complete
/// once exactly `payload_len` bytes follow — in `out`, or written to the
/// stream straight from where a large payload lives. Head plus payload is
/// byte-identical to encoding the equivalent [`Frame::Dispatch`].
pub fn encode_dispatch_head(
    out: &mut Vec<u8>,
    task: u64,
    attempt: u32,
    generation: u64,
    function: &str,
    deps: &[u64],
    payload_len: usize,
) {
    let start = begin_frame(out, KIND_DISPATCH);
    put_dispatch_head(out, task, attempt, generation, function, deps, payload_len);
    end_frame(out, start, payload_len);
}

/// Appends the head of a RESULT frame (see [`encode_dispatch_head`]).
pub fn encode_result_head(
    out: &mut Vec<u8>,
    task: u64,
    attempt: u32,
    generation: u64,
    ok: bool,
    payload_len: usize,
) {
    let start = begin_frame(out, KIND_RESULT);
    put_result_head(out, task, attempt, generation, ok, payload_len);
    end_frame(out, start, payload_len);
}

/// Appends the head of a TRANSFER frame (see [`encode_dispatch_head`]).
pub fn encode_transfer_head(out: &mut Vec<u8>, key: u64, payload_len: usize) {
    let start = begin_frame(out, KIND_TRANSFER);
    put_transfer_head(out, key, payload_len);
    end_frame(out, start, payload_len);
}

/// Frames encoded for one connection and not yet written: the coalescing
/// buffer of both ends of the wire. A payload under [`IO_BUF`] is copied
/// in behind its head; one of [`IO_BUF`] or more is not copied at all: it
/// waits in `large`, to be written from where it lives right behind the
/// bytes it follows. A writer that calls [`Outbox::write_out`] whenever
/// [`Outbox::due`] makes one write per [`IO_BUF`] of small frames, and
/// `bytes` stays under two buffers' length.
pub struct Outbox<P> {
    /// The encoded frames, large payloads left out.
    pub bytes: Vec<u8>,
    /// `(offset, payload)`: the payload follows `bytes[..offset]`.
    pub large: Vec<(usize, P)>,
}

impl<P> Default for Outbox<P> {
    fn default() -> Self {
        Outbox {
            bytes: Vec::new(),
            large: Vec::new(),
        }
    }
}

impl<P: std::ops::Deref<Target = [u8]>> Outbox<P> {
    /// Buffers one frame: `head` appends it up to `payload` (all of it,
    /// for a frame that has none).
    pub fn push(&mut self, head: impl FnOnce(&mut Vec<u8>), payload: P) {
        head(&mut self.bytes);
        if payload.len() >= IO_BUF {
            self.large.push((self.bytes.len(), payload));
        } else {
            self.bytes.extend_from_slice(&payload);
        }
    }

    /// To be written now rather than before the writer next blocks:
    /// [`IO_BUF`] is buffered, or a large payload waits.
    pub fn due(&self) -> bool {
        self.bytes.len() >= IO_BUF || !self.large.is_empty()
    }

    /// Writes everything buffered: the bytes up to each large payload,
    /// then the payload from where it lives. On error the outbox holds
    /// garbage and the connection is to be given up.
    pub fn write_out<W: Write>(&mut self, w: &mut W) -> std::io::Result<()> {
        let mut at = 0;
        for (end, payload) in self.large.drain(..) {
            w.write_all(&self.bytes[at..end])?;
            w.write_all(&payload)?;
            at = end;
        }
        w.write_all(&self.bytes[at..])?;
        self.bytes.clear();
        Ok(())
    }
}

const KIND_DISPATCH: u16 = 2;
const KIND_RESULT: u16 = 3;
const KIND_TRANSFER: u16 = 6;

/// Starts a frame at the end of `out`: a length placeholder (patched by
/// [`end_frame`]) and the kind tag. Returns the frame's start offset.
fn begin_frame(out: &mut Vec<u8>, kind: u16) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(&kind.to_le_bytes());
    start
}

/// Patches the length of the frame begun at `start`: what `out` holds of
/// it plus `pending` payload bytes still to follow.
fn end_frame(out: &mut [u8], start: usize, pending: usize) {
    let len = (out.len() - start - 4 + pending) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

fn put_dispatch_head(
    out: &mut Vec<u8>,
    task: u64,
    attempt: u32,
    generation: u64,
    function: &str,
    deps: &[u64],
    payload_len: usize,
) {
    out.extend_from_slice(&task.to_le_bytes());
    out.extend_from_slice(&attempt.to_le_bytes());
    out.extend_from_slice(&generation.to_le_bytes());
    put_str(out, function);
    out.extend_from_slice(&(deps.len() as u16).to_le_bytes());
    for d in deps {
        out.extend_from_slice(&d.to_le_bytes());
    }
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
}

fn put_result_head(
    out: &mut Vec<u8>,
    task: u64,
    attempt: u32,
    generation: u64,
    ok: bool,
    payload_len: usize,
) {
    out.extend_from_slice(&task.to_le_bytes());
    out.extend_from_slice(&attempt.to_le_bytes());
    out.extend_from_slice(&generation.to_le_bytes());
    out.push(u8::from(ok));
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
}

fn put_transfer_head(out: &mut Vec<u8>, key: u64, payload_len: usize) {
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize, "string field too long");
    out.extend_from_slice(&(s.len() as u16).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// `read_exact` with EOF mapped to [`ProtoError::Truncated`]; other IO
/// errors pass through.
fn read_exact_or_truncated<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), ProtoError> {
    match r.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Err(ProtoError::Truncated),
        Err(e) => Err(ProtoError::Io(e)),
    }
}

/// Bounds-checked little-endian reader over a byte slice. Every accessor
/// fails with [`ProtoError::Truncated`] instead of slicing out of range;
/// variable-length fields validate the claimed length against the
/// remaining input before copying, so a hostile length cannot force an
/// allocation larger than the data actually present.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.buf.len() - self.pos < n {
            return Err(ProtoError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Everything was read: what is left is [`ProtoError::TrailingBytes`].
    fn finish(&self) -> Result<(), ProtoError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(ProtoError::TrailingBytes(n)),
        }
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    /// Strict bool: only 0/1 are valid, so decode(encode) stays a
    /// bijection even under single-byte corruption.
    fn bool(&mut self) -> Result<bool, ProtoError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ProtoError::Malformed("bool byte out of range")),
        }
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn i32(&mut self) -> Result<i32, ProtoError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn str(&mut self) -> Result<&'a str, ProtoError> {
        let n = self.u16()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|_| ProtoError::BadUtf8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                proto: PROTO_VERSION,
                name: "taiyi".into(),
                workers: 32,
                generation: 3,
            },
            Frame::Dispatch {
                task: 7,
                attempt: 2,
                generation: 4,
                function: "fnv".into(),
                deps: vec![1, 2, 3],
                payload: b"xyz".to_vec(),
            },
            Frame::Result {
                task: 7,
                attempt: 2,
                generation: 4,
                ok: true,
                payload: vec![0xde, 0xad],
            },
            Frame::Result {
                task: 8,
                attempt: 1,
                generation: 0,
                ok: false,
                payload: b"boom".to_vec(),
            },
            Frame::Transfer {
                key: 42,
                payload: vec![1; 100],
            },
            Frame::TransferAck {
                key: 42,
                stored: 100,
            },
            Frame::Heartbeat {
                seq: 99,
                t_client_us: 123_456,
            },
            Frame::HeartbeatAck {
                seq: 99,
                busy: 2,
                t_client_us: 123_456,
                t_daemon_us: 7_890,
            },
            Frame::Drain,
            Frame::DrainAck { remaining: 5 },
            Frame::TelemetrySub { level: 2 },
            Frame::Keep {
                task: 7,
                attempt: 2,
            },
            Frame::Telemetry {
                generation: 1,
                seq: 9,
                events: vec![
                    TelemetryEvent {
                        stage: TEL_STAGE_RECV,
                        t_us: 1_000,
                        task: 7,
                        attempt: 2,
                        arg: 3,
                    },
                    TelemetryEvent {
                        stage: TEL_STAGE_EXEC_END,
                        t_us: 2_000,
                        task: 7,
                        attempt: 2,
                        arg: 1,
                    },
                ],
                counters: vec![(TEL_CTR_DISPATCHES, 12), (TEL_CTR_RESULTS_OK, 11)],
                exec_buckets: vec![(i32::MIN, 1), (-3, 2), (17, 9)],
            },
            Frame::Telemetry {
                generation: 0,
                seq: 0,
                events: vec![],
                counters: vec![],
                exec_buckets: vec![],
            },
        ]
    }

    #[test]
    fn round_trips_every_kind() {
        for f in all_frames() {
            let bytes = f.encode();
            assert_eq!(Frame::decode(&bytes).unwrap(), f, "decode(encode) != id");
            let mut r = std::io::Cursor::new(bytes.clone());
            assert_eq!(Frame::read_from(&mut r).unwrap(), f);
            let mut w = Vec::new();
            f.write_to(&mut w).unwrap();
            assert_eq!(w, bytes);
        }
    }

    #[test]
    fn stream_of_frames_reads_in_order() {
        let frames = all_frames();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.encode());
        }
        let mut r = std::io::Cursor::new(stream);
        for f in &frames {
            assert_eq!(&Frame::read_from(&mut r).unwrap(), f);
        }
        assert!(matches!(
            Frame::read_from(&mut r),
            Err(ProtoError::Truncated)
        ));
    }

    #[test]
    fn truncation_at_every_byte_errors_cleanly() {
        for f in all_frames() {
            let bytes = f.encode();
            for cut in 0..bytes.len() {
                match Frame::decode(&bytes[..cut]) {
                    Err(_) => {}
                    Ok(got) => panic!("decoded {got:?} from {cut}/{} bytes", bytes.len()),
                }
            }
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut bytes = (MAX_FRAME + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 8]);
        assert!(matches!(
            Frame::decode(&bytes),
            Err(ProtoError::Oversized(_))
        ));
        // And from a reader claiming 4 GiB with only 4 real bytes: the
        // error must come back without trying to read (or allocate) more.
        let huge = u32::MAX.to_le_bytes();
        let mut r = std::io::Cursor::new(huge.to_vec());
        assert!(matches!(
            Frame::read_from(&mut r),
            Err(ProtoError::Oversized(_))
        ));
    }

    #[test]
    fn zero_and_one_byte_lengths_rejected() {
        for len in [0u32, 1] {
            let mut bytes = len.to_le_bytes().to_vec();
            bytes.extend_from_slice(&vec![0; len as usize]);
            assert!(matches!(
                Frame::decode(&bytes),
                Err(ProtoError::Oversized(_))
            ));
        }
    }

    #[test]
    fn unknown_kind_and_trailing_bytes_rejected() {
        let mut bad = Frame::Drain.encode();
        bad[4] = 0xff; // kind := 0x00ff
        assert!(matches!(
            Frame::decode(&bad),
            Err(ProtoError::UnknownKind(255))
        ));

        let mut trailing = Frame::Heartbeat {
            seq: 1,
            t_client_us: 0,
        }
        .encode();
        trailing.push(0);
        assert!(matches!(
            Frame::decode(&trailing),
            Err(ProtoError::TrailingBytes(1))
        ));

        // Inner trailing bytes: length header admits one more byte than
        // the message consumes.
        let mut inner = Frame::Drain.encode();
        inner.push(7);
        let len = (inner.len() - 4) as u32;
        inner[..4].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(
            Frame::decode(&inner),
            Err(ProtoError::TrailingBytes(1))
        ));
    }

    #[test]
    fn bad_utf8_in_string_field_rejected() {
        let f = Frame::Hello {
            proto: 1,
            name: "ab".into(),
            workers: 1,
            generation: 0,
        };
        let mut bytes = f.encode();
        // name bytes start after len(4) + kind(2) + proto(2) + strlen(2).
        bytes[10] = 0xff;
        bytes[11] = 0xfe;
        assert!(matches!(Frame::decode(&bytes), Err(ProtoError::BadUtf8)));
    }

    #[test]
    fn errors_display() {
        let e = ProtoError::Oversized(99);
        assert!(e.to_string().contains("99"));
        assert!(ProtoError::Truncated.to_string().contains("truncated"));
        assert!(ProtoError::UnknownKind(7).to_string().contains('7'));
        assert!(ProtoError::TrailingBytes(3).to_string().contains('3'));
        assert!(ProtoError::BadUtf8.to_string().contains("UTF-8"));
        assert!(ProtoError::Malformed("bool").to_string().contains("bool"));
        let io = ProtoError::from(std::io::Error::other("x"));
        assert!(io.to_string().contains("io"));
    }

    #[test]
    fn non_canonical_bool_byte_rejected() {
        let f = Frame::Result {
            task: 1,
            attempt: 1,
            generation: 0,
            ok: true,
            payload: vec![],
        };
        let mut bytes = f.encode();
        // ok byte sits after len(4) + kind(2) + task(8) + attempt(4) + gen(8).
        bytes[26] = 2;
        assert!(matches!(
            Frame::decode(&bytes),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn full_telemetry_batch_fits_the_frame_cap() {
        let f = Frame::Telemetry {
            generation: u64::MAX,
            seq: u64::MAX,
            events: vec![
                TelemetryEvent {
                    stage: u8::MAX,
                    t_us: u64::MAX,
                    task: u64::MAX,
                    attempt: u32::MAX,
                    arg: u64::MAX,
                };
                TEL_MAX_EVENTS
            ],
            counters: vec![(u16::MAX, u64::MAX); 16],
            exec_buckets: vec![(i32::MIN, u64::MAX); 512],
        };
        let bytes = f.encode();
        assert!((bytes.len() as u32) < MAX_FRAME / 32, "batch far under cap");
        assert_eq!(Frame::decode(&bytes).unwrap(), f);
    }
}
