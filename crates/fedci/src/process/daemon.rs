//! The daemon core: what an endpoint daemon does with the frames of one
//! client connection, and in what order its writer puts replies on the
//! wire — with no socket, thread, lock or clock of its own.
//!
//! [`Connection::apply`] takes the frames one socket read brought in, one
//! at a time and in order: a KEEP is remembered for the DISPATCH right
//! behind it, a DISPATCH becomes a job with its function resolved, and
//! everything else becomes an [`Effect`] for the driver (store a blob,
//! answer a heartbeat, set the telemetry level, stamp a RECV). The driver
//! runs the effects in order, then hands the read's jobs to the workers at
//! once.
//! [`split_at_drain_ack`] and [`requeue`] are the writer's ordering rules.

use crate::fabric::{output_key, FnRegistry, Payload, WireFn};
use crate::proto::{Dispatch, Frame, Incoming};
use std::collections::VecDeque;

/// One frame awaiting write at the daemon. A RESULT is not a
/// [`Frame::Result`], whose payload is a `Vec` of its own: a kept output
/// is written from the `Arc` the blob store holds too.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Outgoing {
    Frame(Frame),
    Result {
        task: u64,
        attempt: u32,
        ok: bool,
        payload: Payload,
    },
}

/// The daemon's functions, by name: fixed when it starts, so a job names
/// its function by index and shares no reference count with the reader.
pub(crate) type Functions = [(String, WireFn)];

/// The [`Functions`] table of `registry`.
pub(crate) fn functions(registry: &FnRegistry) -> Vec<(String, WireFn)> {
    let names = registry.names().into_iter();
    let fns = names.map(|name| registry.get(&name).map(|f| (name, f)));
    fns.flatten().collect()
}

/// One decoded DISPATCH on its way to a worker.
#[derive(Debug)]
pub(crate) struct DaemonJob {
    pub task: u64,
    pub attempt: u32,
    /// The function's index in [`Functions`], or the name no function is
    /// registered under (the attempt fails at the worker).
    pub function: Result<usize, Box<str>>,
    pub deps: Vec<u64>,
    pub payload: Payload,
    /// The key to keep the output under: a KEEP named this attempt.
    pub kept: Option<u64>,
}

/// What a read asks of the daemon besides its jobs, in frame order.
#[derive(Debug, PartialEq)]
pub(crate) enum Effect {
    /// Store a TRANSFERred blob, then acknowledge it.
    Store { key: u64, payload: Vec<u8> },
    /// Answer a HEARTBEAT — the busy count and the daemon's clock ride on
    /// the ack — then ship the telemetry gathered since the last one.
    Beat { seq: u64, t_client_us: u64 },
    /// Set the telemetry level (TELEMETRY_SUB).
    Subscribe(u8),
    /// Stamp RECV for this read's job at the index (the daemon's
    /// telemetry, which owns the level, drops it while unsubscribed). In
    /// frame order, so a heartbeat behind the DISPATCH ships the stamp.
    Recv(usize),
}

/// One client connection's state.
#[derive(Default)]
pub(crate) struct Connection {
    /// The attempt the last KEEP named: the DISPATCH behind it keeps its
    /// output. Any other DISPATCH forgets it.
    keep: Option<(u64, u32)>,
}

impl Connection {
    /// Applies the next frame of a read: a DISPATCH is appended to `jobs`
    /// with its function resolved in `fns`, anything else the daemon must
    /// do to `effects`. Returns `true` at a DRAIN: the frames behind it
    /// are not to be applied, and the daemon is to answer with DRAIN_ACK
    /// once the jobs are handed off.
    pub fn apply(
        &mut self,
        frame: Incoming<'_>,
        fns: &Functions,
        jobs: &mut Vec<DaemonJob>,
        effects: &mut Vec<Effect>,
    ) -> bool {
        let frame = match frame {
            Incoming::Dispatch(Dispatch {
                task,
                attempt,
                function,
                deps,
                payload,
                ..
            }) => {
                effects.push(Effect::Recv(jobs.len()));
                let kept = self.keep.take() == Some((task, attempt));
                jobs.push(DaemonJob {
                    task,
                    attempt,
                    function: fns
                        .iter()
                        .position(|(name, _)| *name == function)
                        .ok_or_else(|| function.into()),
                    deps,
                    payload,
                    kept: output_key(task, attempt).filter(|_| kept),
                });
                return false;
            }
            Incoming::Other(frame) => frame,
        };
        match frame {
            Frame::Keep { task, attempt } => self.keep = Some((task, attempt)),
            Frame::Transfer { key, payload } => effects.push(Effect::Store { key, payload }),
            Frame::Heartbeat { seq, t_client_us } => {
                effects.push(Effect::Beat { seq, t_client_us });
            }
            Frame::TelemetrySub { level } => effects.push(Effect::Subscribe(level)),
            Frame::Drain => return true,
            // Client-bound frames arriving here are a protocol violation
            // (and a DISPATCH never arrives as `Other`); tolerate them
            // rather than crash the endpoint.
            _ => {}
        }
        false
    }
}

/// Splits a writer's batch at its DRAIN_ACK and returns the ack and what
/// follows it. The final telemetry flush goes between the two halves: ahead
/// of DRAIN_ACK (a draining client stops listening at the ack), and behind
/// every RESULT before it, whose SENT stamps it must carry.
pub(crate) fn split_at_drain_ack(batch: &mut Vec<Outgoing>) -> Vec<Outgoing> {
    let ack = batch
        .iter()
        .position(|f| matches!(f, Outgoing::Frame(Frame::DrainAck { .. })));
    ack.map_or_else(Vec::new, |i| batch.split_off(i))
}

/// Puts back what a failed write did not deliver. Results are precious:
/// the batch's RESULTs go to the front of `outbox`, in their order, ahead
/// of anything queued since (any that did arrive replay into the client's
/// attempt guard). Acks are dropped — they mean nothing to a later client.
pub(crate) fn requeue(outbox: &mut VecDeque<Outgoing>, failed: Vec<Outgoing>) {
    for frame in failed.into_iter().rev() {
        if matches!(frame, Outgoing::Result { .. }) {
            outbox.push_front(frame);
        }
    }
}
