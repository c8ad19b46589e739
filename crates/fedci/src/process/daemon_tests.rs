//! Tests of the daemon's per-job path: the job queue between the reader
//! and the workers, the payload a RESULT carries, the busy count the
//! workers' own counters add up to, and the allocation gate over a socket
//! read of small DISPATCHes.
//!
//! The gate counts allocations with a global allocator that counts only
//! on the thread inside [`count_allocs`], so the tests that run in
//! parallel on other threads add nothing to its count. `realloc` counts,
//! as a `Vec` doubling is an allocation.

use super::daemon::{functions, Connection, DaemonJob};
use super::endpointd::{result_payload, JobQueue};
use super::{spawn_daemon_thread, DaemonConfig};
use crate::fabric::{blob_key, FnRegistry, Payload, INLINE_PAYLOAD};
use crate::proto::{Frame, FrameReader};
use parking_lot::Mutex;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::io::Read;
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::Duration;

struct Counting;

thread_local! {
    /// `Some(n)` while the current thread counts: `n` allocations so far.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn bump() {
    // `try_with`: the allocator may run while the thread-local is being
    // torn down at thread exit.
    let _ = ALLOCS.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a thread-local `Cell`
// with a constant initializer, so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's obligations are `System.alloc_zeroed`'s own.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller's obligations are `System.realloc`'s own.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are `System.dealloc`'s own.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCS.with(|c| c.set(Some(0)));
    let r = f();
    let n = ALLOCS.with(|c| c.replace(None)).expect("counting was on");
    (r, n)
}

/// A job of `task` that says nothing else.
fn job(task: u64) -> DaemonJob {
    DaemonJob {
        task,
        attempt: 1,
        function: Ok(0),
        deps: Vec::new(),
        payload: Payload::default(),
        kept: None,
    }
}

/// One read's worth of jobs, tasks `tasks`.
fn read(tasks: std::ops::Range<u64>) -> Vec<DaemonJob> {
    tasks.map(job).collect()
}

#[test]
fn jobs_leave_the_queue_in_fifo_order_across_reads() {
    let queue = JobQueue::default();
    queue.push_read(read(0..2));
    queue.push_read(Vec::new());
    queue.push_read(read(2..3));
    queue.push_read(read(3..6));
    let mut got = Vec::new();
    while got.len() < 6 {
        got.push(queue.pop().expect("queued").task);
    }
    assert_eq!(got, [0, 1, 2, 3, 4, 5]);
}

#[test]
fn a_closed_queue_still_hands_out_the_reads_it_holds_then_none() {
    let queue = Arc::new(JobQueue::default());
    queue.push_read(read(0..3));
    queue.push_read(read(3..4));
    queue.close();
    let (tx, rx) = mpsc::channel();
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let (queue, tx) = (Arc::clone(&queue), tx.clone());
            std::thread::spawn(move || {
                while let Some(job) = queue.pop() {
                    tx.send(job.task).expect("the test holds rx");
                }
            })
        })
        .collect();
    drop(tx);
    for w in workers {
        w.join().expect("a worker panicked");
    }
    let mut got: Vec<u64> = rx.iter().collect();
    got.sort_unstable();
    assert_eq!(got, [0, 1, 2, 3]);
    assert!(queue.pop().is_none());
}

#[test]
fn a_read_of_one_job_wakes_one_parked_worker() {
    let queue = Arc::new(JobQueue::default());
    let (tx, rx) = mpsc::channel();
    let workers: Vec<_> = (0..3)
        .map(|_| {
            let (queue, tx) = (Arc::clone(&queue), tx.clone());
            std::thread::spawn(move || {
                let got = queue.pop().map(|job| job.task);
                tx.send(got).expect("the test holds rx");
            })
        })
        .collect();
    // The workers are parked on the condvar by now; one that is not yet
    // finds the job queued, and the test holds either way.
    std::thread::sleep(Duration::from_millis(50));
    queue.push_read(read(7..8));
    let woken = rx.recv_timeout(Duration::from_secs(5));
    assert_eq!(woken, Ok(Some(7)), "one worker takes the job");
    // The others stay parked: there is nothing for them until the close.
    let idle = rx.recv_timeout(Duration::from_millis(100));
    assert_eq!(idle, Err(mpsc::RecvTimeoutError::Timeout));
    queue.close();
    for _ in 0..2 {
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(None));
    }
    for w in workers {
        w.join().expect("a worker panicked");
    }
}

#[test]
fn closing_the_job_queue_wakes_every_parked_worker() {
    let queue = Arc::new(JobQueue::default());
    let (tx, rx) = mpsc::channel();
    let workers: Vec<_> = (0..3)
        .map(|_| {
            let (queue, tx) = (Arc::clone(&queue), tx.clone());
            std::thread::spawn(move || tx.send(queue.pop().is_none()))
        })
        .collect();
    // The workers are parked on the condvar by now; one that is not
    // yet sees the queue closed, and the test holds either way.
    std::thread::sleep(Duration::from_millis(50));
    queue.close();
    for _ in 0..3 {
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(true));
    }
    for w in workers {
        w.join()
            .expect("a worker panicked")
            .expect("the test holds rx");
    }
}

#[test]
fn a_kept_output_shares_the_store_and_a_small_unkept_one_travels_inline() {
    let blobs = Mutex::new(HashMap::new());
    let key = blob_key(4, 2);
    let kept = result_payload(Ok(b"kept output".to_vec()), Some(key), &blobs);
    let stored = Arc::clone(&blobs.lock()[&key]);
    assert!(matches!(&kept, Payload::Shared(bytes) if Arc::ptr_eq(bytes, &stored)));
    assert_eq!(&kept[..], b"kept output");
    // A kept output is shared however small it is, and an unkept one
    // travels in place up to the inline limit and no further.
    for len in 0..=INLINE_PAYLOAD + 1 {
        let bytes: Vec<u8> = (0..len as u8).collect();
        let sent = result_payload(Ok(bytes.clone()), None, &blobs);
        assert_eq!(&sent[..], &bytes[..], "{len} bytes");
        assert_eq!(matches!(sent, Payload::Inline(..)), len <= INLINE_PAYLOAD);
    }
    assert_eq!(blobs.lock().len(), 1, "only the kept output is stored");
    let failed = result_payload(Err("no such blob".into()), Some(blob_key(5, 1)), &blobs);
    assert_eq!(&failed[..], b"no such blob");
    assert_eq!(blobs.lock().len(), 1, "a failed attempt keeps nothing");
}

#[test]
fn a_job_held_by_a_chaos_delay_does_not_count_as_a_busy_worker() {
    let mut cfg = DaemonConfig::new("delayed", 2);
    cfg.faults.push("delay ms=400".parse().unwrap());
    let daemon = spawn_daemon_thread(cfg).unwrap();
    let mut s = TcpStream::connect(daemon.addr()).unwrap();
    assert!(matches!(Frame::read_from(&mut s), Ok(Frame::Hello { .. })));
    let dispatch = Frame::Dispatch {
        task: 1,
        attempt: 1,
        generation: 0,
        function: "fnv".to_string(),
        deps: Vec::new(),
        payload: b"x".to_vec(),
    };
    dispatch.write_to(&mut s).unwrap();
    // A worker holds the job by now, asleep in its delay: queued no
    // longer, and not executing either.
    std::thread::sleep(Duration::from_millis(100));
    let t_client_us = 0;
    Frame::Heartbeat {
        seq: 1,
        t_client_us,
    }
    .write_to(&mut s)
    .unwrap();
    let mut busy = None;
    let mut result = false;
    while busy.is_none() || !result {
        match Frame::read_from(&mut s).unwrap() {
            Frame::HeartbeatAck { busy: b, .. } => busy = Some(b),
            Frame::Result { ok, .. } => result = ok,
            _ => {}
        }
    }
    assert_eq!(busy, Some(0));
    Frame::Drain.write_to(&mut s).unwrap();
    daemon.join().unwrap();
}

/// The encoding of `n` DISPATCHes of `fnv` with an 8-byte payload and no
/// deps — the `wire-fanout` task — as one socket read brings them in.
fn small_dispatches(n: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    for task in 0..n {
        Frame::Dispatch {
            task,
            attempt: 1,
            generation: 0,
            function: "fnv".to_string(),
            deps: Vec::new(),
            payload: task.to_le_bytes().to_vec(),
        }
        .encode_into(&mut bytes);
    }
    bytes
}

/// The allocations the daemon makes to take one socket read of `n` small
/// DISPATCHes: decode and apply each frame, hand the read to the queue in
/// a fresh `Vec` sized like it (as the reader does), take the jobs off the
/// queue, and build each one's RESULT payload from its function's output.
/// Left out of the count: the function, whose output `Vec` is its own;
/// the warm-up read, which gives the queue its first buffer; and the
/// buffers the reader keeps from read to read.
fn allocs_per_read(n: usize) -> u64 {
    let fns = functions(&FnRegistry::builtins());
    let fnv = &fns
        .iter()
        .find(|(name, _)| name == "fnv")
        .expect("builtin")
        .1;
    let (mut conn, queue, blobs) = (Connection::default(), JobQueue::default(), Mutex::default());
    let warm_up = small_dispatches(1);
    let bytes = small_dispatches(n as u64);
    assert!(bytes.len() < crate::proto::IO_BUF, "one read");
    let mut reader = FrameReader::new(warm_up.as_slice().chain(bytes.as_slice()));
    let mut allocs = 0;
    for len in [1, n] {
        let mut batch = Vec::with_capacity(len);
        let mut effects = Vec::with_capacity(len);
        let mut jobs = Vec::with_capacity(len);
        let ((), taken) = count_allocs(|| {
            let read = reader.read_batch_with(|frame| {
                assert!(!conn.apply(frame, &fns, &mut batch, &mut effects));
            });
            assert!(read.is_ok());
            queue.push_read(std::mem::replace(&mut batch, Vec::with_capacity(len)));
            jobs.extend((0..len).map_while(|_| queue.pop()));
        });
        assert_eq!(jobs.len(), len);
        let outputs: Vec<_> = jobs.iter().map(|job| fnv(&job.payload)).collect();
        let mut sent = Vec::with_capacity(len);
        let ((), built) = count_allocs(|| {
            for (job, output) in jobs.iter().zip(outputs) {
                let payload = result_payload(output, job.kept, &blobs);
                sent.push(payload);
            }
        });
        assert!(jobs
            .iter()
            .all(|j| matches!(j.payload, Payload::Inline(8, _))));
        assert!(sent.iter().all(|p| matches!(p, Payload::Inline(8, _))));
        allocs = taken + built;
    }
    allocs
}

#[test]
fn a_read_of_small_dispatches_allocates_per_read_not_per_job() {
    let (few, many) = (allocs_per_read(16), allocs_per_read(1024));
    assert_eq!(few, many, "16 jobs: {few} allocations, 1024 jobs: {many}");
    assert!(many <= 1, "{many} allocations for one read");
}
