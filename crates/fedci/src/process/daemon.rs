//! The daemon core: what an endpoint daemon does with the frames of one
//! client connection, and in what order its writer puts replies on the
//! wire — with no socket, thread, lock or clock of its own.
//!
//! [`Connection::apply`] takes the frames one socket read brought in and
//! applies them in order: a KEEP is remembered for the DISPATCH right
//! behind it, a DISPATCH becomes a job with its function resolved, and
//! everything else becomes an [`Effect`] for the driver (store a blob,
//! answer a heartbeat, set the telemetry level, stamp a RECV). The driver
//! runs the effects in order, then hands the read's jobs to the workers at
//! once.
//! [`split_at_drain_ack`] and [`requeue`] are the writer's ordering rules.

use crate::fabric::{JobSpec, Payload, WireFn};
use crate::proto::Frame;
use std::collections::VecDeque;
use std::sync::Arc;

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

/// One decoded DISPATCH on its way to a worker, its function already
/// resolved (`None`: no such function).
pub(crate) struct DaemonJob {
    pub spec: JobSpec,
    pub run: Option<WireFn>,
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
    /// The functions this connection has named, each looked up once.
    fns: Vec<(Arc<str>, WireFn)>,
}

impl Connection {
    /// Applies one read's `frames` in order, appending DISPATCHes to
    /// `jobs` and everything else the daemon must do to `effects`.
    /// `lookup` resolves a function name. Returns `true` at a DRAIN: the
    /// frames behind it are not applied, and the daemon is to answer with
    /// DRAIN_ACK once the jobs are handed off.
    pub fn apply(
        &mut self,
        frames: impl IntoIterator<Item = Frame>,
        lookup: &dyn Fn(&str) -> Option<WireFn>,
        jobs: &mut Vec<DaemonJob>,
        effects: &mut Vec<Effect>,
    ) -> bool {
        for frame in frames {
            match frame {
                Frame::Keep { task, attempt } => self.keep = Some((task, attempt)),
                Frame::Dispatch {
                    task,
                    attempt,
                    function,
                    deps,
                    payload,
                    ..
                } => {
                    effects.push(Effect::Recv(jobs.len()));
                    let (function, run) = self.resolve(lookup, &function);
                    jobs.push(DaemonJob {
                        spec: JobSpec {
                            task,
                            attempt,
                            function,
                            deps,
                            payload: payload.into(),
                            keep_output: self.keep.take() == Some((task, attempt)),
                        },
                        run,
                    });
                }
                Frame::Transfer { key, payload } => effects.push(Effect::Store { key, payload }),
                Frame::Heartbeat { seq, t_client_us } => {
                    effects.push(Effect::Beat { seq, t_client_us });
                }
                Frame::TelemetrySub { level } => effects.push(Effect::Subscribe(level)),
                Frame::Drain => return true,
                // Client-bound frames arriving here are a protocol
                // violation; tolerate them rather than crash the endpoint.
                _ => {}
            }
        }
        false
    }

    /// The function `name` resolves to, and the name as the job carries
    /// it. Registered names are looked up once per connection and shared
    /// from `fns` after that; only those are remembered, so `fns` never
    /// outgrows the registry. An unknown name resolves to `None`, and its
    /// attempt fails at the worker.
    fn resolve(
        &mut self,
        lookup: &dyn Fn(&str) -> Option<WireFn>,
        name: &str,
    ) -> (Arc<str>, Option<WireFn>) {
        if let Some((known, f)) = self.fns.iter().find(|(known, _)| **known == *name) {
            return (Arc::clone(known), Some(Arc::clone(f)));
        }
        let name: Arc<str> = Arc::from(name);
        let f = lookup(&name);
        if let Some(f) = &f {
            self.fns.push((Arc::clone(&name), Arc::clone(f)));
        }
        (name, f)
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
