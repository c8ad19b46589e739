//! Deterministic tests of the two protocol machines: no socket, no thread,
//! no sleep. Time is an `Instant` the test sets by hand, and what a driver
//! would write is decoded straight out of the machine's buffer.

use super::daemon::{requeue, split_at_drain_ack, Connection, Effect, Outgoing};
use super::supervisor::Supervisor;
use super::{Ctr, EpShared};
use crate::fabric::{Completion, FabricResult, FabricTiming, FnRegistry, JobSpec, ProbeState};
use crate::proto::{Frame, FrameReader, TelemetryEvent, IO_BUF, PROTO_VERSION, TEL_STAGE_RECV};
use proptest::collection::vec;
use proptest::prelude::*;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A supervisor machine, its shared counters, its time origin, and the
/// completions fired so far as `(id, outcome)`.
struct Rig {
    sup: Supervisor,
    shared: Arc<EpShared>,
    t0: Instant,
    fired: Arc<Mutex<Vec<(u64, FabricResult)>>>,
}

impl Rig {
    fn new(seed: u64) -> Rig {
        let t0 = Instant::now();
        let shared = Arc::new(EpShared::new(1));
        let timing = FabricTiming::fast();
        let sup = Supervisor::new("ep", timing, false, seed, t0, Arc::clone(&shared));
        let fired = Arc::default();
        Rig {
            sup,
            shared,
            t0,
            fired,
        }
    }

    fn at(&self, ms: u64) -> Instant {
        self.t0 + Duration::from_millis(ms)
    }

    /// Connects at `ms`; the daemon says HELLO with `generation`.
    fn connect(&mut self, ms: u64, generation: u64) -> u64 {
        let now = self.at(ms);
        let epoch = self.sup.connected(now);
        self.sup.on_frames(epoch, [hello(generation)], now);
        epoch
    }

    fn done(&self, id: u64) -> Completion {
        let fired = Arc::clone(&self.fired);
        Box::new(move |r| fired.lock().unwrap().push((id, r)))
    }

    /// Submits an `echo` of `task` attempt `attempt` at `ms`, as
    /// completion `id`.
    fn submit(&mut self, ms: u64, task: u64, attempt: u32, id: u64) {
        let done = self.done(id);
        self.sup.submit(echo(task, attempt), done, self.at(ms));
    }

    /// Fires what the machine resolved, as the driver does, and returns
    /// every completion fired since the last call.
    fn fire(&mut self) -> Vec<(u64, FabricResult)> {
        for (done, outcome) in self.sup.out.resolved.drain(..) {
            done(outcome);
        }
        std::mem::take(&mut *self.fired.lock().unwrap())
    }

    /// Decodes and empties what the machine buffered for the socket.
    fn sent(&mut self) -> Vec<Frame> {
        let mut bytes = Vec::new();
        self.sup.out.wire.write_out(&mut bytes).unwrap();
        let mut reader = FrameReader::new(bytes.as_slice());
        std::iter::from_fn(|| reader.read_frame().ok()).collect()
    }
}

fn hello(generation: u64) -> Frame {
    Frame::Hello {
        proto: PROTO_VERSION,
        name: "ep".to_string(),
        workers: 1,
        generation,
    }
}

fn echo(task: u64, attempt: u32) -> JobSpec {
    JobSpec {
        task,
        attempt,
        function: Arc::from("echo"),
        deps: vec![],
        payload: task.to_le_bytes().to_vec().into(),
        keep_output: false,
    }
}

fn result(task: u64, attempt: u32, payload: &[u8]) -> Frame {
    Frame::Result {
        task,
        attempt,
        generation: 0,
        ok: true,
        payload: payload.to_vec(),
    }
}

#[test]
fn liveness_turns_suspect_and_dead_exactly_at_its_thresholds() {
    let timing = FabricTiming::fast();
    let ns = Duration::from_nanos(1);
    let mut rig = Rig::new(1);
    let epoch = rig.connect(0, 0);
    assert_eq!(rig.shared.probe(), ProbeState::Alive);
    let t0 = rig.t0;
    rig.sup.tick(t0 + timing.suspect_after - ns);
    assert_eq!(rig.shared.probe(), ProbeState::Alive);
    rig.sup.tick(t0 + timing.suspect_after);
    assert_eq!(rig.shared.probe(), ProbeState::Suspect);
    // Any frame is proof of life: the silence starts over from it.
    let t1 = t0 + timing.suspect_after;
    let ack = Frame::HeartbeatAck {
        seq: 1,
        busy: 0,
        t_client_us: 0,
        t_daemon_us: 0,
    };
    rig.sup.on_frames(epoch, [ack], t1);
    assert_eq!(rig.shared.probe(), ProbeState::Alive);
    rig.sup.tick(t1 + timing.down_after - ns);
    assert_eq!(rig.shared.probe(), ProbeState::Suspect);
    assert_eq!(rig.sup.epoch(), Some(epoch));
    rig.sup.tick(t1 + timing.down_after);
    assert_eq!(rig.shared.probe(), ProbeState::Dead);
    assert_eq!(rig.sup.epoch(), None);
    // The reconnect is due at once.
    assert!(rig.sup.connect_due(t1 + timing.down_after));
}

#[test]
fn heartbeats_leave_on_schedule_and_stamp_the_client_clock() {
    let timing = FabricTiming::fast();
    let mut rig = Rig::new(1);
    rig.connect(0, 0);
    // Due at once on a new connection, then every interval.
    assert!(rig.sup.tick(rig.at(0)));
    assert!(!rig.sup.tick(rig.at(0) + timing.heartbeat_interval / 2));
    assert!(rig.sup.tick(rig.at(0) + timing.heartbeat_interval));
    let beats: Vec<(u64, u64)> = rig
        .sent()
        .into_iter()
        .filter_map(|f| match f {
            Frame::Heartbeat { seq, t_client_us } => Some((seq, t_client_us)),
            _ => None,
        })
        .collect();
    let interval_us = timing.heartbeat_interval.as_micros() as u64;
    assert_eq!(beats, [(1, 0), (2, interval_us)]);
}

#[test]
fn a_lost_connection_fails_every_outstanding_attempt_once() {
    let mut rig = Rig::new(2);
    let epoch = rig.connect(0, 0);
    rig.submit(1, 1, 1, 1);
    rig.submit(1, 2, 1, 2);
    // Those two went out; the third DISPATCH is still in the buffer.
    assert_eq!(rig.sent().len(), 2);
    rig.submit(2, 3, 1, 3);
    rig.sup.conn_lost("socket write failed", rig.at(3));
    let mut fired = rig.fire();
    fired.sort_by_key(|(id, _)| *id);
    assert_eq!(
        fired.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
        [1, 2, 3]
    );
    for (_, outcome) in &fired {
        let err = outcome.as_ref().unwrap_err();
        assert!(err.contains("socket write failed"), "{err}");
    }
    assert_eq!(rig.shared.get(Ctr::Failovers), 3);
    assert!(
        rig.sent().is_empty(),
        "a dead connection's buffer is dropped"
    );
    // The old reader's leftovers are neither proof of life nor results.
    rig.sup.on_frames(epoch, [result(1, 1, b"late")], rig.at(4));
    assert_eq!(rig.shared.get(Ctr::StaleResults), 0);
    // A second loss has nothing left to fail over.
    let epoch = rig.connect(5, 0);
    rig.sup.reader_closed(epoch, rig.at(6));
    assert!(rig.fire().is_empty());
    assert_eq!(rig.shared.get(Ctr::Failovers), 3);
}

#[test]
fn a_late_result_for_a_failed_over_attempt_is_dropped_and_counted_stale() {
    let mut rig = Rig::new(3);
    rig.connect(0, 0);
    rig.submit(1, 7, 1, 1);
    rig.sup.conn_lost("connection closed", rig.at(2));
    assert_eq!(rig.fire().len(), 1);
    let epoch = rig.connect(3, 1);
    rig.submit(4, 7, 2, 2);
    let replies = [
        result(7, 1, b"late"),
        result(7, 2, b"fresh"),
        result(7, 2, b"again"),
    ];
    rig.sup.on_frames(epoch, replies, rig.at(5));
    assert_eq!(rig.fire(), [(2, Ok(b"fresh".to_vec()))]);
    assert_eq!(rig.shared.get(Ctr::StaleResults), 2);
}

#[test]
fn strided_and_colliding_ids_each_resolve_exactly_once() {
    // Ids strided far past the table's size share its low bits, and the
    // last three keys hash to the same value outright.
    let mut keys: Vec<(u64, u32)> = (1..=64u64).map(|i| (i << 24, 1 + (i % 3) as u32)).collect();
    keys.extend([(1 << 40, 1), (2 << 40, 2), (3 << 40, 3)]);
    let mut rig = Rig::new(4);
    let epoch = rig.connect(0, 0);
    for (id, &(task, attempt)) in keys.iter().enumerate() {
        rig.submit(1, task, attempt, id as u64);
    }
    let replies = keys
        .iter()
        .rev()
        .map(|&(task, attempt)| result(task, attempt, &task.to_le_bytes()));
    rig.sup.on_frames(epoch, replies, rig.at(2));
    let mut fired = rig.fire();
    fired.sort_by_key(|(id, _)| *id);
    let want: Vec<(u64, FabricResult)> = keys
        .iter()
        .enumerate()
        .map(|(id, (task, _))| (id as u64, Ok(task.to_le_bytes().to_vec())))
        .collect();
    assert_eq!(fired, want);
    assert_eq!(rig.shared.get(Ctr::StaleResults), 0);
}

#[test]
fn submits_without_a_connection_or_a_staged_dep_fail_at_once() {
    let mut rig = Rig::new(5);
    rig.submit(0, 1, 1, 1);
    let mut job = echo(2, 1);
    job.deps = vec![99];
    let done = rig.done(2);
    rig.sup.submit(job, done, rig.at(0));
    let fired = rig.fire();
    assert!(fired[0].1.as_ref().unwrap_err().contains("not connected"));
    assert!(fired[1].1.as_ref().unwrap_err().contains("never staged"));
    // The same attempt twice in flight: the second is refused.
    rig.connect(1, 0);
    rig.submit(2, 3, 1, 3);
    rig.submit(2, 3, 1, 4);
    let fired = rig.fire();
    assert_eq!(fired.len(), 1);
    assert!(fired[0]
        .1
        .as_ref()
        .unwrap_err()
        .contains("already in flight"));
}

#[test]
fn a_kept_output_is_not_shipped_back_and_a_large_blob_is_not_copied() {
    let mut rig = Rig::new(6);
    let epoch = rig.connect(0, 0);
    let mut job = echo(5, 1);
    job.keep_output = true;
    let key = job.kept_key().unwrap();
    let done = rig.done(1);
    rig.sup.submit(job, done, rig.at(1));
    let sent = rig.sent();
    assert!(matches!(
        sent[0],
        Frame::Keep {
            task: 5,
            attempt: 1
        }
    ));
    assert!(matches!(sent[1], Frame::Dispatch { task: 5, .. }));
    rig.sup.on_frames(epoch, [result(5, 1, b"out")], rig.at(2));
    // Stage requests for the kept key are answered without a TRANSFER; a
    // large blob waits uncopied behind its head.
    rig.sup.stage(key, Arc::new(b"out".to_vec()));
    let big = Arc::new(vec![7u8; IO_BUF]);
    rig.sup.stage(9, Arc::clone(&big));
    assert!(rig.sup.out.wire.due());
    assert!(Arc::ptr_eq(
        match &rig.sup.out.wire.large[0].1 {
            crate::fabric::Payload::Shared(bytes) => bytes,
            owned => panic!("copied: {} bytes", owned.len()),
        },
        &big
    ));
    let sent = rig.sent();
    assert_eq!(sent.len(), 1);
    assert!(matches!(&sent[0], Frame::Transfer { key: 9, payload } if payload.len() == IO_BUF));
    assert_eq!(rig.shared.get(Ctr::TransfersElided), 1);
    assert_eq!(rig.shared.get(Ctr::TransferBytes), IO_BUF as u64);
    // A reconnect forgets what the connection held: both are shipped.
    let epoch = rig.connect(3, 1);
    let mut job = echo(6, 1);
    job.deps = vec![key, 9];
    let done = rig.done(2);
    rig.sup.submit(job, done, rig.at(4));
    let kinds: Vec<u16> = rig.sent().iter().map(Frame::kind).collect();
    assert_eq!(kinds, [6, 6, 2], "TRANSFER, TRANSFER, DISPATCH");
    assert_eq!(epoch, 2);
}

/// A TELEMETRY batch of one RECV event stamped `t_us`.
fn batch(generation: u64, seq: u64, t_us: u64) -> Frame {
    Frame::Telemetry {
        generation,
        seq,
        events: vec![TelemetryEvent {
            stage: TEL_STAGE_RECV,
            t_us,
            task: 1,
            attempt: 1,
            arg: 0,
        }],
        counters: vec![],
        exec_buckets: vec![],
    }
}

#[test]
fn telemetry_from_a_stale_generation_or_an_old_sequence_is_refused() {
    let mut rig = Rig::new(7);
    let epoch = rig.connect(0, 1);
    // A batch from a dead generation must never merge: its clock is
    // another incarnation's and its counters would double-count.
    // Replayed or reordered sequence numbers are refused whole.
    let batches = [
        batch(1, 1, 10),
        batch(0, 7, 20),
        batch(1, 1, 30),
        batch(1, 2, 40),
        batch(1, 2, 50),
    ];
    rig.sup.on_frames(epoch, batches, rig.at(1));
    assert_eq!(rig.shared.get(Ctr::TelDropped), 3);
    assert_eq!(rig.shared.get(Ctr::TelFrames), 2);
    assert_eq!(rig.shared.get(Ctr::TelEvents), 2);
    let kept = &rig.sup.out.telemetry;
    let times: Vec<u64> = kept
        .iter()
        .flat_map(|b| b.events.iter().map(|e| e.t_us))
        .collect();
    assert_eq!(times, [10, 40]);
}

#[test]
fn a_hello_starts_the_telemetry_sequence_afresh() {
    let mut rig = Rig::new(8);
    let epoch = rig.connect(0, 0);
    rig.sup
        .on_frames(epoch, (1..=3).map(|seq| batch(0, seq, seq)), rig.at(1));
    // A daemon restarted at the same address says the same generation;
    // its sequence starts over.
    rig.sup.conn_lost("connection closed", rig.at(2));
    let epoch = rig.connect(3, 0);
    rig.sup
        .on_frames(epoch, (1..=4).map(|seq| batch(0, seq, 10 + seq)), rig.at(4));
    assert_eq!(rig.shared.get(Ctr::TelDropped), 0);
    assert_eq!(rig.shared.get(Ctr::TelFrames), 7);
    // Within one connection a repeated sequence is still refused.
    rig.sup.on_frames(epoch, [batch(0, 4, 20)], rig.at(5));
    assert_eq!(rig.shared.get(Ctr::TelDropped), 1);
    // So is a batch from a generation the endpoint has moved past.
    let epoch = rig.connect(6, 1);
    rig.sup
        .on_frames(epoch, [batch(0, 5, 30), batch(1, 1, 40)], rig.at(7));
    assert_eq!(rig.shared.get(Ctr::TelDropped), 2);
    let times: Vec<u64> = (rig.sup.out.telemetry.iter())
        .flat_map(|b| b.events.iter().map(|e| e.t_us))
        .collect();
    assert_eq!(times, [1, 2, 3, 11, 12, 13, 14, 40]);
}

#[test]
fn a_suspect_verdict_already_given_is_not_due_again() {
    let timing = FabricTiming::fast();
    let mut rig = Rig::new(9);
    rig.connect(0, 0);
    let suspect = rig.t0 + timing.suspect_after;
    assert_eq!(rig.sup.next_deadline(), Some(rig.t0), "the first heartbeat");
    rig.sup.tick(suspect);
    assert_eq!(rig.shared.probe(), ProbeState::Suspect);
    // The next wake is the next heartbeat or the Dead verdict, not the
    // Suspect one again — that one lies in the past.
    let next = rig.sup.next_deadline().unwrap();
    assert!(next > suspect);
    let beat = suspect + timing.heartbeat_interval;
    assert_eq!(next, beat.min(rig.t0 + timing.down_after));
}

#[test]
fn backoff_is_seeded_jittered_doubling_and_capped() {
    let timing = FabricTiming::fast();
    let delays = |seed: u64| {
        let mut rig = Rig::new(seed);
        let now = rig.t0;
        let mut delays: Vec<Duration> = (0..12)
            .map(|_| {
                rig.sup.connect_failed(now);
                rig.sup.next_deadline().unwrap() - now
            })
            .collect();
        // A connection resets the doubling.
        rig.sup.connected(now);
        rig.sup.conn_lost("gone", now);
        rig.sup.connect_failed(now);
        delays.push(rig.sup.next_deadline().unwrap() - now);
        delays
    };
    let (base, max) = (timing.reconnect_base, timing.reconnect_max);
    for seed in 0..32 {
        let got = delays(seed);
        assert_eq!(got, delays(seed), "seed {seed}: same seed, same delays");
        let steps = (0..12).chain([0]);
        for (k, d) in steps.zip(&got) {
            let nominal = base.as_secs_f64() * 2f64.powi(k);
            let (lo, hi) = (0.5 * nominal, 1.5 * nominal);
            let d = d.as_secs_f64();
            assert!(d <= max.as_secs_f64() + 1e-9, "seed {seed} step {k}: {d}");
            assert!(
                d >= lo.min(max.as_secs_f64()) - 1e-9,
                "seed {seed} step {k}: {d}"
            );
            assert!(
                d < hi || d >= max.as_secs_f64() - 1e-9,
                "seed {seed} step {k}: {d}"
            );
        }
    }
    assert_ne!(delays(1), delays(2));
}

#[test]
fn a_read_is_applied_in_order_and_stops_at_drain() {
    let registry = FnRegistry::builtins();
    let lookups = Cell::new(0);
    let lookup = |name: &str| {
        lookups.set(lookups.get() + 1);
        registry.get(name)
    };
    let dispatch = |task, function: &str| Frame::Dispatch {
        task,
        attempt: 1,
        generation: 0,
        function: function.to_string(),
        deps: vec![],
        payload: vec![],
    };
    let frames = vec![
        Frame::Transfer {
            key: 40,
            payload: b"blob".to_vec(),
        },
        Frame::Keep {
            task: 1,
            attempt: 1,
        },
        dispatch(1, "echo"),
        // The KEEP reached the DISPATCH right behind it and no further;
        // a KEEP naming another attempt is forgotten.
        dispatch(2, "echo"),
        Frame::Keep {
            task: 9,
            attempt: 1,
        },
        dispatch(3, "no-such-fn"),
        dispatch(9, "echo"),
        Frame::Heartbeat {
            seq: 4,
            t_client_us: 9,
        },
        Frame::TelemetrySub { level: 2 },
        result(1, 1, b"client-bound: ignored"),
        Frame::Drain,
        dispatch(5, "echo"),
    ];
    let (mut conn, mut jobs, mut effects) = (Connection::default(), Vec::new(), Vec::new());
    assert!(conn.apply(frames, &lookup, &mut jobs, &mut effects));
    let got: Vec<(u64, bool, bool)> = jobs
        .iter()
        .map(|j| (j.spec.task, j.spec.keep_output, j.run.is_some()))
        .collect();
    let want = [
        (1, true, true),
        (2, false, true),
        (3, false, false),
        (9, false, true),
    ];
    assert_eq!(got, want);
    let stored = Effect::Store {
        key: 40,
        payload: b"blob".to_vec(),
    };
    let beat = Effect::Beat {
        seq: 4,
        t_client_us: 9,
    };
    let recvs = (0..4).map(Effect::Recv);
    let want: Vec<Effect> = std::iter::once(stored)
        .chain(recvs)
        .chain([beat, Effect::Subscribe(2)])
        .collect();
    assert_eq!(effects, want);
    // A registered name is looked up once per connection.
    assert_eq!(lookups.get(), 2);
    // Each DISPATCH's RECV stamp takes its place in frame order, ahead of
    // the heartbeat that ships it.
    effects.clear();
    let beat = Frame::Heartbeat {
        seq: 5,
        t_client_us: 0,
    };
    let again = [dispatch(6, "echo"), beat, dispatch(7, "no-such-fn")];
    assert!(!conn.apply(again, &lookup, &mut jobs, &mut effects));
    assert_eq!(lookups.get(), 3);
    let beat = Effect::Beat {
        seq: 5,
        t_client_us: 0,
    };
    assert_eq!(effects, [Effect::Recv(4), beat, Effect::Recv(5)]);
}

#[test]
fn the_writer_puts_telemetry_ahead_of_drain_ack_and_requeues_only_results() {
    let result = |task: u64| Outgoing::Result {
        task,
        attempt: 1,
        ok: true,
        payload: vec![task as u8].into(),
    };
    let ack = Outgoing::Frame(Frame::TransferAck { key: 1, stored: 1 });
    let drain_ack = Outgoing::Frame(Frame::DrainAck { remaining: 0 });
    let mut batch = vec![
        result(1),
        ack.clone(),
        result(2),
        drain_ack.clone(),
        result(3),
    ];
    let tail = split_at_drain_ack(&mut batch);
    assert_eq!(batch, [result(1), ack, result(2)]);
    assert_eq!(tail, [drain_ack, result(3)]);
    assert!(split_at_drain_ack(&mut vec![result(4)]).is_empty());
    // A failed write: the batch's RESULTs go back to the front, in order,
    // ahead of what was queued since; the acks are dropped.
    let mut outbox = VecDeque::from([result(9)]);
    batch.extend(tail);
    requeue(&mut outbox, batch);
    assert_eq!(
        Vec::from(outbox),
        [result(1), result(2), result(3), result(9)]
    );
}

/// One step of a supervisor's life in the property below.
#[derive(Clone, Debug)]
enum Step {
    Connect,
    Submit {
        task: u64,
        attempt: u32,
        keep: bool,
        dep: Option<u64>,
    },
    Stage(u64),
    Frames {
        stale: bool,
        frames: Vec<Frame>,
    },
    Advance(u64),
    WriteFailed,
    ReaderClosed,
    Drain,
}

/// A coin: the shim proptest this workspace vendors has no `any`.
fn coin() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|b| b == 1)
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    let (task, attempt, generation) = (0u64..6, 0u32..4, 0u64..3);
    let bytes = || vec(0u8..255, 0..6);
    let event = (0u8..8, 0u64..1000, 0u64..6).prop_map(|(stage, t_us, task)| TelemetryEvent {
        stage,
        t_us,
        task,
        attempt: 1,
        arg: 0,
    });
    prop_oneof![
        (coin(), 0u32..4, generation.clone()).prop_map(|(ok, workers, generation)| {
            Frame::Hello {
                proto: if ok { PROTO_VERSION } else { PROTO_VERSION - 1 },
                name: "ep".to_string(),
                workers,
                generation,
            }
        }),
        (task.clone(), attempt.clone(), vec(0u64..8, 0..3), bytes()).prop_map(
            |(task, attempt, deps, payload)| Frame::Dispatch {
                task,
                attempt,
                generation: 0,
                function: ["echo", "fnv", "nope"][task as usize % 3].to_string(),
                deps,
                payload,
            }
        ),
        (task.clone(), attempt.clone(), coin(), bytes()).prop_map(
            |(task, attempt, ok, payload)| Frame::Result {
                task,
                attempt,
                generation: 0,
                ok,
                payload,
            }
        ),
        (0u64..8, bytes()).prop_map(|(key, payload)| Frame::Transfer { key, payload }),
        (0u64..8).prop_map(|key| Frame::TransferAck { key, stored: 1 }),
        (0u64..4, 0u64..2_000_000)
            .prop_map(|(seq, t_client_us)| Frame::Heartbeat { seq, t_client_us }),
        (0u32..4, 0u64..2_000_000).prop_map(|(busy, t_client_us)| Frame::HeartbeatAck {
            seq: 1,
            busy,
            t_client_us,
            t_daemon_us: 5,
        }),
        Just(Frame::Drain),
        Just(Frame::DrainAck { remaining: 0 }),
        (0u8..3).prop_map(|level| Frame::TelemetrySub { level }),
        (generation, 0u64..4, vec(event, 0..3)).prop_map(|(generation, seq, events)| {
            Frame::Telemetry {
                generation,
                seq,
                events,
                counters: vec![(1, seq)],
                exec_buckets: vec![],
            }
        }),
        (task, attempt).prop_map(|(task, attempt)| Frame::Keep { task, attempt }),
    ]
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        Just(Step::Connect),
        (
            0u64..6,
            0u32..4,
            coin(),
            (0u64..10).prop_map(|k| (k < 8).then_some(k))
        )
            .prop_map(|(task, attempt, keep, dep)| Step::Submit {
                task,
                attempt,
                keep,
                dep
            }),
        (0u64..8).prop_map(Step::Stage),
        (coin(), vec(arb_frame(), 1..4)).prop_map(|(stale, frames)| Step::Frames {
            stale: stale && frames.len() == 1,
            frames
        }),
        (0u64..300).prop_map(Step::Advance),
        Just(Step::WriteFailed),
        Just(Step::ReaderClosed),
        Just(Step::Drain),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// Arbitrary interleavings of submits, stage requests, timers,
    /// connection losses and inbound frames — any kind, in any order,
    /// hostile values included — panic neither machine, everything the
    /// supervisor buffers decodes, and every submitted attempt resolves
    /// exactly once by the time the machine is closed.
    #[test]
    fn arbitrary_frame_sequences_panic_neither_machine_and_resolve_each_attempt_once(
        steps in vec(arb_step(), 0..20)
    ) {
        let mut rig = Rig::new(11);
        let registry = FnRegistry::builtins();
        let lookup = |name: &str| registry.get(name);
        let (mut conn, mut jobs, mut effects) = (Connection::default(), Vec::new(), Vec::new());
        let (mut now_ms, mut submitted, mut fired) = (0, 0u64, Vec::new());
        for step in steps {
            let now = rig.at(now_ms);
            match step {
                Step::Connect => {
                    if rig.sup.epoch().is_none() {
                        rig.sup.connected(now);
                    }
                }
                Step::Submit { task, attempt, keep, dep } => {
                    let mut job = echo(task, attempt);
                    job.keep_output = keep;
                    job.deps.extend(dep);
                    let done = rig.done(submitted);
                    submitted += 1;
                    rig.sup.submit(job, done, now);
                }
                Step::Stage(key) => rig.sup.stage(key, Arc::new(vec![key as u8; 3])),
                Step::Frames { stale, frames } => {
                    let epoch = rig.sup.epoch().unwrap_or(0);
                    let epoch = if stale { epoch.wrapping_sub(1) } else { epoch };
                    conn.apply(frames.clone(), &lookup, &mut jobs, &mut effects);
                    rig.sup.on_frames(epoch, frames, now);
                }
                Step::Advance(ms) => {
                    now_ms += ms;
                    rig.sup.tick(rig.at(now_ms));
                }
                Step::WriteFailed => rig.sup.conn_lost("socket write failed", now),
                Step::ReaderClosed => {
                    let epoch = rig.sup.epoch().unwrap_or(0);
                    rig.sup.reader_closed(epoch, now);
                }
                Step::Drain => {
                    rig.sup.drain();
                }
            }
            let buffered = rig.sup.out.wire.bytes.len() + rig.sup.out.wire.large.len();
            let sent = rig.sent();
            prop_assert!(buffered == 0 || !sent.is_empty());
            fired.extend(rig.fire());
        }
        rig.sup.close();
        fired.extend(rig.fire());
        let mut ids: Vec<u64> = fired.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..submitted).collect::<Vec<_>>());
    }
}
