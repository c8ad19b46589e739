//! Standalone layer kernels: one layer's public entry points driven in a
//! tight loop, so the layer can be re-measured alone in seconds
//! (`unifaas-benchmark kernels`). Every kernel runs one discarded pass and
//! then at least [`KERNEL_SECONDS`] of timed passes (less at `--smoke` size); a traced workload run
//! includes the kernels of the layers it exercises.

use crate::catalog::Samples;
use crate::splitmix64;
use fedci::endpoint::EndpointId;
use fedci::network::{Link, NetworkTopology};
use fedci::proto::Frame;
use fedci::storage::DataId;
use fedci::transfer::TransferMechanism;
use simkit::{EventQueue, SimDuration, SimTime};
use std::hint::black_box;
use std::time::Instant;
use taskgraph::rank::{self, FnCosts};
use taskgraph::{Dag, TaskId};
use unifaas::data::DataManager;

/// Minimum timed work per kernel at the committed size, seconds.
pub const KERNEL_SECONDS: f64 = 0.5;

/// One discarded pass, then passes until `seconds` of them are timed.
/// `pass` returns its own sample so it can exclude per-pass set-up.
fn repeat_for(seconds: f64, mut pass: impl FnMut() -> f64) -> Vec<f64> {
    pass();
    let mut out = Vec::new();
    let t0 = Instant::now();
    while out.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        out.push(pass());
    }
    out
}

/// `simkit.queue_ns_per_event`: the classic hold model on
/// [`EventQueue`] — a steady population of pending events, each hold pops
/// the earliest and schedules a successor a random increment later.
pub fn queue_ns_per_event(seed: u64, seconds: f64) -> Vec<f64> {
    const PENDING: usize = 16_384;
    const HOLDS: usize = 1_000_000;
    repeat_for(seconds, || {
        let mut rng = seed;
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..PENDING {
            q.schedule(
                SimTime::from_micros(splitmix64(&mut rng) % 1_000_000),
                i as u32,
            );
        }
        let t0 = Instant::now();
        for _ in 0..HOLDS {
            let (at, ev) = q.pop().expect("population is constant");
            let dt = SimDuration::from_micros(1 + splitmix64(&mut rng) % 2_000_000);
            q.schedule(at + dt, black_box(ev));
        }
        let ns = t0.elapsed().as_nanos() as f64;
        black_box(q.len());
        ns / HOLDS as f64
    })
}

/// `taskgraph.rank_s`: Eq. 2 upward ranks over the workload's own DAG,
/// with each task's compute time as its cost.
pub fn rank_s(dag: &Dag, seconds: f64) -> Vec<f64> {
    let costs = FnCosts {
        staging: |_t: TaskId| 0.0,
        execution: |t: TaskId| dag.spec(t).compute_seconds,
    };
    repeat_for(seconds, || {
        let t0 = Instant::now();
        black_box(rank::priorities(black_box(dag), &costs));
        t0.elapsed().as_secs_f64()
    })
}

/// `data.stage_complete_ns`: one `request_stage` + `complete` pair per
/// object on the 4-endpoint (+ home) topology, one transfer in flight at a
/// time so virtual time stays monotone without a side heap.
pub fn stage_complete_ns(seconds: f64) -> Vec<f64> {
    const OBJECTS: u64 = 200_000;
    const HOME: EndpointId = EndpointId(4);
    repeat_for(seconds, || {
        let mut dm = DataManager::new(
            NetworkTopology::uniform(5, Link::wan()),
            TransferMechanism::Globus.default_params(),
            3,
        );
        for i in 0..OBJECTS {
            dm.store.register(DataId(i), 1 << 20, HOME);
        }
        let mut now = SimTime::ZERO;
        let t0 = Instant::now();
        for i in 0..OBJECTS {
            let dst = EndpointId((i % 4) as u16);
            let req = dm.request_stage(TaskId(i as u32), &[DataId(i)], dst, now);
            let x = req.started[0];
            now = x.completes_at;
            black_box(dm.complete(x.id, now, false));
        }
        let ns = t0.elapsed().as_nanos() as f64;
        assert_eq!(dm.bytes_moved(), OBJECTS << 20, "every object moved once");
        ns / OBJECTS as f64
    })
}

fn dispatch(payload: Vec<u8>) -> Frame {
    Frame::Dispatch {
        task: 1,
        attempt: 1,
        generation: 1,
        function: "fnv".to_string(),
        deps: Vec::new(),
        payload,
    }
}

fn result(payload: Vec<u8>) -> Frame {
    Frame::Result {
        task: 1,
        attempt: 1,
        generation: 1,
        ok: true,
        payload,
    }
}

/// `proto.*`: encode and decode of one DISPATCH + one RESULT, with the
/// 8-byte payload of the fan-out/chain workloads and the 1 MiB payload of
/// `wire-data`.
pub fn proto(seed: u64, seconds: f64, out: &mut Samples) {
    let mut rng = seed;
    let small = splitmix64(&mut rng).to_le_bytes().to_vec();
    let big: Vec<u8> = (0..(1 << 17))
        .flat_map(|_| splitmix64(&mut rng).to_le_bytes())
        .collect();
    let quarter = seconds / 2.0;

    out.set(
        "proto.dispatch_overhead_bytes",
        (dispatch(small.clone()).encode().len() - small.len()) as f64,
    );

    let frames = [dispatch(small.clone()), result(small)];
    let encoded: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
    const SMALL_ITERS: usize = 100_000;
    for v in repeat_for(quarter, || {
        let t0 = Instant::now();
        for _ in 0..SMALL_ITERS {
            for f in &frames {
                black_box(black_box(f).encode());
            }
        }
        t0.elapsed().as_nanos() as f64 / SMALL_ITERS as f64
    }) {
        out.push("proto.encode_ns_small", v);
    }
    for v in repeat_for(quarter, || {
        let t0 = Instant::now();
        for _ in 0..SMALL_ITERS {
            for b in &encoded {
                black_box(Frame::decode(black_box(b)).expect("own encoding"));
            }
        }
        t0.elapsed().as_nanos() as f64 / SMALL_ITERS as f64
    }) {
        out.push("proto.decode_ns_small", v);
    }

    let frames = [dispatch(big.clone()), result(big)];
    let encoded: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
    const BIG_ITERS: usize = 16;
    let mb = (BIG_ITERS * 2 * (1 << 20)) as f64 / 1e6;
    for v in repeat_for(quarter, || {
        let t0 = Instant::now();
        for _ in 0..BIG_ITERS {
            for f in &frames {
                black_box(black_box(f).encode());
            }
        }
        mb / t0.elapsed().as_secs_f64()
    }) {
        out.push("proto.encode_mb_per_s_1m", v);
    }
    for v in repeat_for(quarter, || {
        let t0 = Instant::now();
        for _ in 0..BIG_ITERS {
            for b in &encoded {
                black_box(Frame::decode(black_box(b)).expect("own encoding"));
            }
        }
        mb / t0.elapsed().as_secs_f64()
    }) {
        out.push("proto.decode_mb_per_s_1m", v);
    }
}

/// The kernels of the simulator's layers, over `dag`.
pub fn sim_kernels(seed: u64, dag: &Dag, seconds: f64, out: &mut Samples) {
    for v in queue_ns_per_event(seed, seconds) {
        out.push("simkit.queue_ns_per_event", v);
    }
    for v in rank_s(dag, seconds) {
        out.push("taskgraph.rank_s", v);
    }
    for v in stage_complete_ns(seconds) {
        out.push("data.stage_complete_ns", v);
    }
}
