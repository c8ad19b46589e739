//! Tests of the std-net driver over real sockets: the daemon, the
//! supervisor thread and the chaos proxy. The machines' own tests, which
//! need neither, are in `machine_tests.rs`.

use super::daemon::Outgoing;
use super::driver::Ev;
use super::endpointd::{daemon_writer, DaemonShared};
use super::*;
use crate::fabric::{Fabric, FabricTiming, FnRegistry, JobSpec, Payload, ProbeState};
use crate::proto::{
    Frame, FrameReader, PROTO_VERSION, TEL_CTR_DISPATCHES, TEL_CTR_RESULTS_OK,
    TEL_STAGE_EXEC_BEGIN, TEL_STAGE_EXEC_END, TEL_STAGE_RECV, TEL_STAGE_SENT,
};
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn fast_cfg(seed: u64) -> ProcessFabricConfig {
    ProcessFabricConfig {
        timing: FabricTiming::fast(),
        seed,
        respawn: true,
        telemetry: false,
    }
}

#[test]
fn daemon_speaks_the_protocol_raw() {
    let daemon = spawn_daemon_thread(DaemonConfig::new("raw", 2)).unwrap();
    let mut s = TcpStream::connect(daemon.addr()).unwrap();
    let hello = Frame::read_from(&mut s).unwrap();
    match hello {
        Frame::Hello {
            proto,
            name,
            workers,
            generation,
        } => {
            assert_eq!(proto, PROTO_VERSION);
            assert_eq!(name, "raw");
            assert_eq!(workers, 2);
            assert_eq!(generation, 0);
        }
        other => panic!("expected HELLO, got {other:?}"),
    }
    // Stage a blob, dispatch against it, read the result.
    Frame::Transfer {
        key: 5,
        payload: b"hi ".to_vec(),
    }
    .write_to(&mut s)
    .unwrap();
    Frame::Dispatch {
        task: 1,
        attempt: 1,
        generation: 0,
        function: "echo".to_string(),
        deps: vec![5],
        payload: b"there".to_vec(),
    }
    .write_to(&mut s)
    .unwrap();
    Frame::Heartbeat {
        seq: 1,
        t_client_us: 777,
    }
    .write_to(&mut s)
    .unwrap();
    let mut saw_result = false;
    let mut saw_hb = false;
    let mut saw_transfer_ack = false;
    for _ in 0..3 {
        match Frame::read_from(&mut s).unwrap() {
            Frame::Result {
                task,
                attempt,
                generation,
                ok,
                payload,
            } => {
                assert_eq!((task, attempt, generation, ok), (1, 1, 0, true));
                assert_eq!(payload, b"hi there".to_vec());
                saw_result = true;
            }
            Frame::HeartbeatAck {
                seq, t_client_us, ..
            } => {
                // Unsubscribed: the ack comes back alone (no
                // TELEMETRY rides behind it) with our stamp echoed.
                assert_eq!((seq, t_client_us), (1, 777));
                saw_hb = true;
            }
            Frame::TransferAck { key, stored } => {
                assert_eq!((key, stored), (5, 3));
                saw_transfer_ack = true;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert!(saw_result && saw_hb && saw_transfer_ack);
    Frame::Drain.write_to(&mut s).unwrap();
    assert!(matches!(
        Frame::read_from(&mut s).unwrap(),
        Frame::DrainAck { .. }
    ));
    daemon.join().unwrap();
}

/// Connects to `daemon` and reads its HELLO.
fn raw_client(daemon: &DaemonHandle) -> TcpStream {
    let mut s = TcpStream::connect(daemon.addr()).unwrap();
    let hello = Frame::read_from(&mut s).unwrap();
    assert!(matches!(hello, Frame::Hello { .. }), "{hello:?}");
    s
}

fn dispatch(task: u64, attempt: u32, function: &str, deps: &[u64], payload: &[u8]) -> Frame {
    Frame::Dispatch {
        task,
        attempt,
        generation: 0,
        function: function.to_string(),
        deps: deps.to_vec(),
        payload: payload.to_vec(),
    }
}

/// Reads until every task in `tasks` has its RESULT; returns them as
/// `task → (ok, payload)`.
fn read_results(s: &mut TcpStream, tasks: &[u64]) -> HashMap<u64, (bool, Vec<u8>)> {
    let mut results = HashMap::new();
    while !tasks.iter().all(|t| results.contains_key(t)) {
        if let Frame::Result {
            task, ok, payload, ..
        } = Frame::read_from(s).unwrap()
        {
            results.insert(task, (ok, payload));
        }
    }
    results
}

#[test]
fn kept_outputs_are_keyed_by_attempt_and_only_kept_when_told() {
    use crate::fabric::blob_key;
    let daemon = spawn_daemon_thread(DaemonConfig::new("keeper", 2)).unwrap();
    let mut s = raw_client(&daemon);
    // Two attempts of one task, both kept, that disagree about the
    // output — and a third task whose DISPATCH no KEEP precedes.
    for frame in [
        Frame::Keep {
            task: 5,
            attempt: 1,
        },
        dispatch(5, 1, "echo", &[], b"first"),
        Frame::Keep {
            task: 5,
            attempt: 2,
        },
        dispatch(5, 2, "echo", &[], b"second"),
        dispatch(8, 1, "echo", &[], b"unkept"),
    ] {
        frame.write_to(&mut s).unwrap();
    }
    // Both attempts of task 5 answer under one task id: wait for the
    // second RESULT of it by counting.
    let mut answered = 0;
    while answered < 3 {
        answered += usize::from(matches!(
            Frame::read_from(&mut s).unwrap(),
            Frame::Result { ok: true, .. }
        ));
    }
    // One dependent per key: each sees its own attempt's bytes.
    dispatch(6, 1, "echo", &[blob_key(5, 1)], b"")
        .write_to(&mut s)
        .unwrap();
    dispatch(7, 1, "echo", &[blob_key(5, 2)], b"")
        .write_to(&mut s)
        .unwrap();
    dispatch(9, 1, "echo", &[blob_key(8, 1)], b"")
        .write_to(&mut s)
        .unwrap();
    let results = read_results(&mut s, &[6, 7, 9]);
    assert_eq!(results[&6], (true, b"first".to_vec()));
    assert_eq!(results[&7], (true, b"second".to_vec()));
    let (ok, msg) = &results[&9];
    let msg = String::from_utf8_lossy(msg);
    assert!(!ok && msg.contains("missing input blob"), "{ok} {msg}");
    Frame::Drain.write_to(&mut s).unwrap();
    daemon.join().unwrap();
}

#[test]
fn functions_run_outside_the_blob_store_lock() {
    let daemon = spawn_daemon_thread(DaemonConfig::new("unlocked", 2)).unwrap();
    let mut s = raw_client(&daemon);
    // `sleep` takes its milliseconds from the head of its input: here
    // from the staged blob both jobs name.
    let mut nap = 300u64.to_le_bytes().to_vec();
    nap.extend_from_slice(b"napped");
    Frame::Transfer {
        key: 1,
        payload: nap,
    }
    .write_to(&mut s)
    .unwrap();
    let started = Instant::now();
    dispatch(1, 1, "sleep", &[1], b"").write_to(&mut s).unwrap();
    dispatch(2, 1, "sleep", &[1], b"").write_to(&mut s).unwrap();
    // Both workers hold a job before the next TRANSFER leaves: a
    // heartbeat ack says so.
    for seq in 1.. {
        let t_client_us = 0;
        Frame::Heartbeat { seq, t_client_us }
            .write_to(&mut s)
            .unwrap();
        let busy = loop {
            if let Frame::HeartbeatAck { busy, .. } = Frame::read_from(&mut s).unwrap() {
                break busy;
            }
        };
        if busy == 2 {
            break;
        }
    }
    Frame::Transfer {
        key: 2,
        payload: b"while they sleep".to_vec(),
    }
    .write_to(&mut s)
    .unwrap();
    let mut order = Vec::new();
    while order.iter().filter(|f| **f == "result").count() < 2 {
        match Frame::read_from(&mut s).unwrap() {
            Frame::TransferAck { key: 2, .. } => order.push("ack"),
            Frame::Result { ok, payload, .. } => {
                assert!(ok && payload == b"napped", "{ok} {payload:?}");
                order.push("result");
            }
            _ => {}
        }
    }
    let took = started.elapsed();
    // The reader stored the blob while both functions slept, and the
    // two naps overlapped.
    assert_eq!(order, ["ack", "result", "result"]);
    assert!(
        took < Duration::from_millis(500),
        "two 300 ms naps: {took:?}"
    );
    Frame::Drain.write_to(&mut s).unwrap();
    daemon.join().unwrap();
}

#[test]
fn daemon_ships_telemetry_only_when_subscribed() {
    let daemon = spawn_daemon_thread(DaemonConfig::new("tel", 1)).unwrap();
    let mut s = TcpStream::connect(daemon.addr()).unwrap();
    assert!(matches!(
        Frame::read_from(&mut s).unwrap(),
        Frame::Hello { .. }
    ));
    Frame::TelemetrySub { level: 2 }.write_to(&mut s).unwrap();
    Frame::Dispatch {
        task: 9,
        attempt: 1,
        generation: 0,
        function: "echo".to_string(),
        deps: vec![],
        payload: b"x".to_vec(),
    }
    .write_to(&mut s)
    .unwrap();
    // Wait for the RESULT, then beat to trigger a flush. The SENT
    // stamp lands just after the RESULT's write returns, so it may
    // miss the first flush and ride the next beat's.
    loop {
        if matches!(Frame::read_from(&mut s).unwrap(), Frame::Result { .. }) {
            break;
        }
    }
    let mut stages = Vec::new();
    let mut counters = Vec::new();
    let mut beat = 0;
    while !stages.contains(&TEL_STAGE_SENT) {
        beat += 1;
        assert!(beat <= 100, "SENT never shipped: {stages:?}");
        Frame::Heartbeat {
            seq: beat,
            t_client_us: 1,
        }
        .write_to(&mut s)
        .unwrap();
        loop {
            match Frame::read_from(&mut s).unwrap() {
                Frame::Telemetry {
                    generation,
                    seq,
                    events,
                    counters: c,
                    ..
                } => {
                    assert_eq!(generation, 0);
                    assert!(seq >= beat);
                    stages.extend(events.iter().map(|e| e.stage));
                    counters = c;
                    break;
                }
                Frame::HeartbeatAck { t_daemon_us, .. } => {
                    assert!(t_daemon_us > 0, "daemon must stamp its clock");
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }
    // The attempt's full daemon-side span made it across.
    for want in [
        TEL_STAGE_RECV,
        TEL_STAGE_EXEC_BEGIN,
        TEL_STAGE_EXEC_END,
        TEL_STAGE_SENT,
    ] {
        assert!(stages.contains(&want), "missing stage {want} in {stages:?}");
    }
    assert!(counters.contains(&(TEL_CTR_DISPATCHES, 1)), "{counters:?}");
    assert!(counters.contains(&(TEL_CTR_RESULTS_OK, 1)), "{counters:?}");
    Frame::Drain.write_to(&mut s).unwrap();
    // The drain-triggered flush precedes the ack.
    let mut saw_final_flush = false;
    loop {
        match Frame::read_from(&mut s).unwrap() {
            Frame::Telemetry { .. } => saw_final_flush = true,
            Frame::DrainAck { .. } => break,
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert!(saw_final_flush, "DRAIN must flush telemetry before acking");
    daemon.join().unwrap();
}

#[test]
fn failed_batch_write_requeues_results_in_order_and_drops_acks() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (stream, _) = listener.accept().unwrap();
    stream.shutdown(Shutdown::Write).unwrap(); // every write fails from here on
    let result = |task| Outgoing::Result {
        task,
        attempt: 1,
        ok: true,
        payload: vec![task as u8].into(),
    };
    let ack = Outgoing::Frame(Frame::TransferAck { key: 1, stored: 1 });
    let drain_ack = Outgoing::Frame(Frame::DrainAck { remaining: 0 });
    let shared = DaemonShared::new(0, &FnRegistry::new(), 1, Default::default());
    *shared.outbox.lock() = [result(1), ack, result(2), drain_ack, result(3)].into();
    *shared.conn.lock() = Some(Arc::new(stream));
    std::thread::scope(|scope| {
        scope.spawn(|| daemon_writer(&shared));
        // The writer requeues, then gives the dead connection up.
        while shared.conn.lock().is_some() {
            std::thread::yield_now();
        }
        shared.stop_writer.store(true, Ordering::SeqCst);
        shared.outbox_cv.notify_all();
    });
    let left: Vec<Outgoing> = shared.outbox.lock().drain(..).collect();
    assert_eq!(left, [result(1), result(2), result(3)]);
}

#[test]
fn process_fabric_connect_mode_round_trip() {
    let daemon = spawn_daemon_thread(DaemonConfig::new("ep0", 2)).unwrap();
    let fabric = ProcessFabric::new(
        vec![ProcessEndpointSpec {
            name: "ep0".to_string(),
            workers: 2,
            mode: EndpointMode::Connect {
                addr: daemon.addr().to_string(),
            },
        }],
        fast_cfg(7),
    );
    assert!(
        fabric.wait_probe(0, ProbeState::Alive, Duration::from_secs(5)),
        "endpoint never came up"
    );
    let blob = Arc::new(b"abc".to_vec());
    fabric.stage(0, 11, &blob);
    let (tx, rx) = mpsc::channel();
    fabric.submit(
        0,
        JobSpec {
            task: 1,
            attempt: 1,
            function: Arc::from("fnv"),
            deps: vec![11],
            payload: b"xyz".to_vec().into(),
            keep_output: false,
        },
        Box::new(move |r| tx.send(r).unwrap()),
    );
    let got = rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
    assert_eq!(
        got,
        crate::fabric::fnv1a64(b"abcxyz").to_le_bytes().to_vec()
    );
    assert!(fabric.counters(0).connects >= 1);
    fabric.shutdown();
    daemon.join().unwrap();
}

#[test]
fn submit_fails_fast_when_unreachable() {
    // Grab an ephemeral port and close the listener: connections are
    // refused, the fabric backs off, submissions fail promptly.
    let dead = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let fabric = ProcessFabric::new(
        vec![ProcessEndpointSpec {
            name: "gone".to_string(),
            workers: 1,
            mode: EndpointMode::Connect {
                addr: dead.to_string(),
            },
        }],
        fast_cfg(3),
    );
    assert_eq!(fabric.probe(0), ProbeState::Dead);
    let (tx, rx) = mpsc::channel();
    fabric.submit(
        0,
        JobSpec {
            task: 1,
            attempt: 1,
            function: Arc::from("echo"),
            deps: vec![],
            payload: Payload::default(),
            keep_output: false,
        },
        Box::new(move |r| tx.send(r).unwrap()),
    );
    let err = rx
        .recv_timeout(Duration::from_secs(5))
        .unwrap()
        .unwrap_err();
    assert!(err.contains("not connected"), "err = {err}");
    fabric.shutdown();
}

#[test]
fn proxy_cut_mid_frame_then_reconnect() {
    let daemon = spawn_daemon_thread(DaemonConfig::new("prox", 1)).unwrap();
    let proxy = ChaosProxy::start(daemon.addr()).unwrap();
    // Cut after 3 daemon→client bytes: mid-HELLO, guaranteed.
    proxy.cut_after_down_bytes(3);
    let fabric = ProcessFabric::new(
        vec![ProcessEndpointSpec {
            name: "prox".to_string(),
            workers: 1,
            mode: EndpointMode::Connect {
                addr: proxy.addr().to_string(),
            },
        }],
        fast_cfg(11),
    );
    // First connection dies mid-frame; the reconnect (budget
    // disarmed) completes and work flows.
    assert!(
        fabric.wait_probe(0, ProbeState::Alive, Duration::from_secs(10)),
        "never recovered from mid-frame cut"
    );
    let (tx, rx) = mpsc::channel();
    fabric.submit(
        0,
        JobSpec {
            task: 1,
            attempt: 1,
            function: Arc::from("echo"),
            deps: vec![],
            payload: b"ok".to_vec().into(),
            keep_output: false,
        },
        Box::new(move |r| tx.send(r).unwrap()),
    );
    assert_eq!(
        rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap(),
        b"ok".to_vec()
    );
    assert!(fabric.counters(0).connects >= 2, "{:?}", fabric.counters(0));
    fabric.shutdown();
    daemon.join().unwrap();
}

/// `frames` back to back, as one socket write carries them.
fn one_write(frames: &[Frame]) -> Vec<u8> {
    let mut buf = Vec::new();
    for f in frames {
        f.encode_into(&mut buf);
    }
    buf
}

type Answers = HashMap<u64, Vec<(bool, Vec<u8>)>>;

/// Files a RESULT under its task; other frames are returned.
fn note_result(frame: Frame, answers: &mut Answers) -> Option<Frame> {
    match frame {
        Frame::Result {
            task, ok, payload, ..
        } => {
            answers.entry(task).or_default().push((ok, payload));
            None
        }
        other => Some(other),
    }
}

#[test]
fn one_socket_read_is_applied_in_order_and_handed_off_whole() {
    use crate::fabric::blob_key;
    use crate::proto::ProtoError;
    let daemon = spawn_daemon_thread(DaemonConfig::new("batched", 2)).unwrap();
    let mut s = raw_client(&daemon);
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut answers = Answers::new();
    // One write: a blob, a kept attempt, a plain attempt on the blob,
    // an unknown function, a beat.
    s.write_all(&one_write(&[
        Frame::Transfer {
            key: 40,
            payload: b"blob:".to_vec(),
        },
        Frame::Keep {
            task: 1,
            attempt: 1,
        },
        dispatch(1, 1, "echo", &[], b"kept"),
        dispatch(2, 1, "echo", &[40], b"plain"),
        dispatch(3, 1, "no-such-fn", &[], b""),
        Frame::Heartbeat {
            seq: 4,
            t_client_us: 9,
        },
    ]))
    .unwrap();
    let (mut stored, mut beat) = (false, false);
    while !(stored && beat && answers.len() == 3) {
        match note_result(Frame::read_from(&mut s).unwrap(), &mut answers) {
            None => {}
            Some(Frame::TransferAck { key, stored: n }) => {
                assert_eq!((key, n), (40, 5));
                stored = true;
            }
            Some(Frame::HeartbeatAck {
                seq, t_client_us, ..
            }) => {
                assert_eq!((seq, t_client_us), (4, 9));
                beat = true;
            }
            Some(other) => panic!("unexpected frame {other:?}"),
        }
    }
    // The KEEP reached the DISPATCH right behind it and no further.
    s.write_all(&one_write(&[
        dispatch(4, 1, "echo", &[blob_key(1, 1)], b""),
        dispatch(5, 1, "echo", &[blob_key(2, 1)], b""),
    ]))
    .unwrap();
    while !(answers.contains_key(&4) && answers.contains_key(&5)) {
        note_result(Frame::read_from(&mut s).unwrap(), &mut answers);
    }
    // A read whose second frame does not decode: the first still runs,
    // then the connection is dropped.
    let mut damaged = one_write(&[dispatch(6, 1, "echo", &[], b"before the damage")]);
    damaged.extend_from_slice(&[2, 0, 0, 0, 0xff, 0xff]); // kind 0xffff
    s.write_all(&damaged).unwrap();
    let dropped = loop {
        match Frame::read_from(&mut s) {
            Ok(frame) => drop(note_result(frame, &mut answers)),
            Err(e) => break e,
        }
    };
    assert!(
        !matches!(&dropped, ProtoError::Io(e) if e.kind() == std::io::ErrorKind::WouldBlock),
        "the connection outlived its damaged read: {dropped}"
    );
    // Its RESULT went out before the drop or replays on the next
    // connection, which a drained daemon flushes before it closes.
    let mut s = raw_client(&daemon);
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    Frame::Drain.write_to(&mut s).unwrap();
    let mut drained = false;
    while let Ok(frame) = Frame::read_from(&mut s) {
        drained |= matches!(
            note_result(frame, &mut answers),
            Some(Frame::DrainAck { .. })
        );
    }
    assert!(drained);
    daemon.join().unwrap();
    for task in 1..=6 {
        assert_eq!(answers[&task].len(), 1, "task {task}: {:?}", answers[&task]);
    }
    let answer = |task: u64| answers[&task][0].clone();
    assert_eq!(answer(1), (true, b"kept".to_vec()));
    assert_eq!(answer(2), (true, b"blob:plain".to_vec()));
    assert_eq!(
        answer(3),
        (false, b"unknown function `no-such-fn`".to_vec())
    );
    assert_eq!(answer(4), (true, b"kept".to_vec()));
    let (ok, msg) = answer(5);
    let msg = String::from_utf8_lossy(&msg);
    assert!(!ok && msg.contains("missing input blob"), "{ok} {msg}");
    assert_eq!(answer(6), (true, b"before the damage".to_vec()));
}

/// A stand-in daemon on a thread, for one connection: says HELLO, acks
/// every HEARTBEAT, and answers any other frame with what `answer`
/// returns for it. The thread ends when the client closes.
fn fake_daemon(
    mut answer: impl FnMut(Frame) -> Vec<Frame> + Send + 'static,
) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let thread = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let hello = Frame::Hello {
            proto: PROTO_VERSION,
            name: "fake".to_string(),
            workers: 1,
            generation: 0,
        };
        let mut reader = FrameReader::new(s.try_clone().unwrap());
        let mut out = one_write(&[hello]);
        loop {
            if s.write_all(&out).is_err() {
                return;
            }
            out = match reader.read_frame() {
                Ok(Frame::Heartbeat { seq, t_client_us }) => one_write(&[Frame::HeartbeatAck {
                    seq,
                    busy: 0,
                    t_client_us,
                    t_daemon_us: 1,
                }]),
                Ok(frame) => one_write(&answer(frame)),
                Err(_) => return,
            };
        }
    });
    (addr, thread)
}

/// A one-endpoint fabric on `addr`, up.
fn connect_fabric(addr: SocketAddr, seed: u64) -> ProcessFabric {
    let fabric = ProcessFabric::new(
        vec![ProcessEndpointSpec {
            name: "fake".to_string(),
            workers: 1,
            mode: EndpointMode::Connect {
                addr: addr.to_string(),
            },
        }],
        fast_cfg(seed),
    );
    assert!(fabric.wait_probe(0, ProbeState::Alive, Duration::from_secs(5)));
    fabric
}

fn echo_job(task: u64, attempt: u32, payload: &[u8]) -> JobSpec {
    JobSpec {
        task,
        attempt,
        function: Arc::from("echo"),
        deps: vec![],
        payload: payload.to_vec().into(),
        keep_output: false,
    }
}

#[test]
fn a_submit_that_meets_a_shutdown_fails_instead_of_vanishing() {
    // A daemon that never acks DRAIN keeps the supervisor in its
    // drain wait for the whole grace period; it says when DRAIN came.
    let (drained_tx, drained) = mpsc::channel();
    let (addr, fake) = fake_daemon(move |frame| {
        if matches!(frame, Frame::Drain) {
            drained_tx.send(()).unwrap();
        }
        vec![]
    });
    let fabric = connect_fabric(addr, 9);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(|| fabric.shutdown());
        drained.recv_timeout(Duration::from_secs(5)).unwrap();
        // Shutdown has begun and the supervisor waits for the ack: one
        // submit straight into its channel, one through the front door.
        let tx2 = tx.clone();
        let done = Box::new(move |r| tx2.send(r).unwrap());
        let _ = fabric.txs[0].send(Ev::Submit(echo_job(1, 1, b""), done));
        fabric.submit(
            0,
            echo_job(2, 1, b""),
            Box::new(move |r| tx.send(r).unwrap()),
        );
        for _ in 0..2 {
            let got = rx.recv_timeout(Duration::from_secs(5));
            assert_eq!(
                got,
                Ok(Err(SHUT_DOWN.to_string())),
                "completion never fired"
            );
        }
    });
    fake.join().unwrap();
}

#[test]
fn submits_queued_behind_a_shutdown_still_resolve() {
    // The supervisor's first connect spawns a command that takes a
    // second to fail, so both events below are queued before it looks.
    let fabric = ProcessFabric::new(
        vec![ProcessEndpointSpec {
            name: "slow".to_string(),
            workers: 1,
            mode: EndpointMode::Spawn {
                command: ["sh", "-c", "sleep 1", "sh"].map(String::from).to_vec(),
            },
        }],
        fast_cfg(13),
    );
    let (tx, rx) = mpsc::channel();
    fabric.txs[0].send(Ev::Shutdown).unwrap();
    let done = Box::new(move |r| tx.send(r).unwrap());
    fabric.txs[0]
        .send(Ev::Submit(echo_job(1, 1, b""), done))
        .unwrap();
    let got = rx.recv_timeout(Duration::from_secs(10));
    assert_eq!(
        got,
        Ok(Err(SHUT_DOWN.to_string())),
        "completion never fired"
    );
    fabric.shutdown();
}

#[test]
fn a_spawned_daemon_that_never_announces_is_killed_and_backed_off() {
    // A child that sleeps without printing: the wait for its LISTENING
    // line is bounded by the connect timeout, then the child is killed
    // and reaped and the supervisor backs off — it keeps serving its
    // channel instead of blocking in the read.
    let fabric = ProcessFabric::new(
        vec![ProcessEndpointSpec {
            name: "mute".to_string(),
            workers: 1,
            mode: EndpointMode::Spawn {
                command: ["sh", "-c", "exec sleep 30", "sh"]
                    .map(String::from)
                    .to_vec(),
            },
        }],
        fast_cfg(17),
    );
    let (tx, rx) = mpsc::channel();
    let done = Box::new(move |r| tx.send(r).unwrap());
    fabric.submit(0, echo_job(1, 1, b""), done);
    let got = rx.recv_timeout(Duration::from_secs(5));
    let err = got.expect("the submit never resolved").unwrap_err();
    assert!(err.contains("not connected"), "err = {err}");
    let started = Instant::now();
    fabric.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(3), "shutdown took {took:?}");
}
