//! Process-isolated endpoints over TCP — the fabric that survives
//! `kill -9`.
//!
//! A daemon ([`run_daemon`], the `unifaas-endpointd` binary) is one
//! endpoint as its own OS process, serving one client connection at a time
//! with the [`crate::proto`] framing. Results produced while the client is
//! away are **replayed on the next connection** — deliberately, because
//! that is the stale-RESULT case the client's attempt guard must absorb.
//! The client ([`ProcessFabric`]) runs one supervisor per endpoint, owning
//! its child process (spawn mode) or remote address (connect mode), the
//! connection and the in-flight table: heartbeat silence turns an endpoint
//! Suspect, then Dead; a dead connection fails every outstanding attempt
//! (the runtime re-dispatches under a fresh attempt number); reconnects
//! back off with seeded jitter, respawning a child that died.
//!
//! The protocol's decisions live in two machines that own no socket,
//! thread, process, channel, lock or clock — each event comes with the
//! instant it happened, and their output waits in buffers:
//!
//! * `supervisor` — the client side: outstanding attempts and their
//!   exactly-once resolution, stale RESULTs, liveness, backoff, staged and
//!   kept blobs, the telemetry gate, frames encoded for the socket;
//! * `daemon` — the daemon side: a socket read's frames applied in order,
//!   and the writer's batch order.
//!
//! One std-net driver runs them: `driver` (the [`ProcessFabric`], its
//! supervisor and reader threads, child spawn and kill, socket counters)
//! and `endpointd` ([`run_daemon`]: accept loop, workers, writer, the
//! telemetry ring). [`ChaosProxy`] (`chaos`) sits between client and daemon
//! to cut a connection mid-frame, sever it, or stall one direction.

mod chaos;
mod daemon;
mod driver;
mod endpointd;
mod supervisor;

pub use chaos::ChaosProxy;
pub use driver::{EndpointMode, ProcessEndpointSpec, ProcessFabric, ProcessFabricConfig};
pub use endpointd::{
    run_daemon, spawn_daemon_thread, DaemonConfig, DaemonHandle, DAEMON_TEL_RING_CAPACITY,
    LISTENING_PREFIX,
};

use crate::clock::{ClockEstimate, ClockSync};
use crate::fabric::ProbeState;
use crate::proto::{
    TelemetryEvent, TEL_CTR_CHAOS_DELAYS, TEL_CTR_CHAOS_SWALLOWED, TEL_CTR_DISPATCHES,
    TEL_CTR_RESULTS_ERR, TEL_CTR_RESULTS_OK, TEL_CTR_RING_DROPPED,
};
use parking_lot::Mutex;
use simkit::metrics::{CounterId, GaugeId, HistogramId, LogHistogram, MetricsRegistry};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};

/// The error an attempt submitted after shutdown began resolves with.
const SHUT_DOWN: &str = "fabric shut down";

/// Client-side cap on buffered daemon telemetry events per endpoint.
const CLIENT_TEL_EVENT_CAP: usize = 1 << 18;

/// Declares the counter table: each [`Ctr`] with its metric name and
/// help, in registration order.
macro_rules! counters {
    ($($ctr:ident: $name:literal, $help:literal;)*) => {
        /// The process fabric's monotone per-endpoint counters.
        #[derive(Clone, Copy)]
        enum Ctr { $($ctr),* }

        /// Metric name and help of every [`Ctr`], indexed by it.
        const COUNTERS: &[(&str, &str)] = &[$(($name, $help)),*];
    };
}

counters! {
    Connects: "fedci_proc_connects_total", "Connections established to the endpoint.";
    Respawns: "fedci_proc_respawns_total", "Endpoint daemons respawned after dying.";
    Failovers: "fedci_proc_failovers_total",
        "In-flight attempts failed over on connection loss.";
    StaleResults: "fedci_proc_stale_results_total", "RESULT frames dropped by the attempt guard.";
    FramesSent: "fedci_wire_frames_sent_total", "Frames written to the endpoint connection.";
    FramesRecv: "fedci_wire_frames_received_total", "Frames decoded off the endpoint connection.";
    BytesSent: "fedci_wire_bytes_sent_total", "Bytes written to the endpoint connection.";
    BytesRecv: "fedci_wire_bytes_received_total", "Bytes read from the endpoint connection.";
    SocketWrites: "fedci_wire_socket_writes_total",
        "Socket writes on the endpoint connection (frames sent / this = frames per write).";
    SocketReads: "fedci_wire_socket_reads_total",
        "Socket reads on the endpoint connection (frames received / this = frames per read).";
    TransferBytes: "fedci_wire_transfer_bytes_total",
        "TRANSFER payload bytes shipped to the endpoint.";
    TransfersElided: "fedci_wire_transfers_elided_total",
        "Stage requests answered without a TRANSFER: the endpoint kept the output.";
    TelFrames: "fedci_wire_telemetry_frames_total", "TELEMETRY batches ingested from the daemon.";
    TelEvents: "fedci_wire_telemetry_events_total", "Daemon trace events ingested.";
    TelDropped: "fedci_wire_telemetry_dropped_total",
        "TELEMETRY batches refused (stale generation or out-of-order sequence).";
}

/// How many [`Ctr`]s there are.
const N_CTRS: usize = COUNTERS.len();

/// Per-endpoint state shared between the supervisor thread and the
/// fabric's public accessors: the machine sets the atomics, the driver
/// records into the locked aggregates.
struct EpShared {
    /// A [`ProbeState`] as `u8`.
    probe: AtomicU8,
    busy: AtomicU32,
    workers: AtomicU32,
    generation: AtomicU64,
    counters: [AtomicU64; N_CTRS],
    /// Heartbeat round-trip times, seconds.
    rtt_hist: Mutex<LogHistogram>,
    /// Buffered daemon telemetry and clock evidence.
    telemetry: Mutex<TelemetryStore>,
}

impl EpShared {
    fn new(workers: usize) -> Self {
        EpShared {
            probe: AtomicU8::new(ProbeState::Dead as u8),
            busy: AtomicU32::new(0),
            workers: AtomicU32::new(workers as u32),
            generation: AtomicU64::new(0),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            rtt_hist: Mutex::new(LogHistogram::new()),
            telemetry: Mutex::new(TelemetryStore::default()),
        }
    }

    fn add(&self, c: Ctr, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn get(&self, c: Ctr) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    fn set_probe(&self, p: ProbeState) {
        self.probe.store(p as u8, Ordering::SeqCst);
    }

    fn probe(&self) -> ProbeState {
        match self.probe.load(Ordering::SeqCst) {
            0 => ProbeState::Alive,
            1 => ProbeState::Suspect,
            _ => ProbeState::Dead,
        }
    }
}

/// Client-side accumulation of one endpoint daemon's telemetry: the
/// batches the supervisor machine accepted. Keyed by spawn generation
/// throughout: a respawned daemon restarts its monotonic clock, so
/// events, counters, sketches and clock evidence from different
/// incarnations must never be conflated.
#[derive(Default)]
struct TelemetryStore {
    /// Buffered trace events, tagged with the generation whose daemon
    /// clock stamped them.
    events: Vec<(u64, TelemetryEvent)>,
    /// Latest cumulative counters per generation (code → value).
    gen_counters: HashMap<u64, Vec<(u16, u64)>>,
    /// Latest cumulative exec-latency bucket counts per generation.
    gen_buckets: HashMap<u64, Vec<(i32, u64)>>,
    /// Heartbeat clock evidence per generation.
    clocks: HashMap<u64, ClockSync>,
    /// Events discarded once [`CLIENT_TEL_EVENT_CAP`] was reached.
    dropped_events: u64,
}

impl TelemetryStore {
    fn store(&mut self, batch: supervisor::TelBatch) {
        let generation = batch.generation;
        for ev in batch.events {
            if self.events.len() >= CLIENT_TEL_EVENT_CAP {
                self.dropped_events += 1;
            } else {
                self.events.push((generation, ev));
            }
        }
        // Counters and the sketch are cumulative-since-daemon-start, so
        // the newest batch supersedes whatever we held (and a batch that
        // carries neither leaves the last full snapshot in place).
        if !batch.counters.is_empty() {
            self.gen_counters.insert(generation, batch.counters);
        }
        if !batch.exec_buckets.is_empty() {
            self.gen_buckets.insert(generation, batch.exec_buckets);
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

/// Metric handles for one process-fabric endpoint (see
/// [`ProcessFabric::register_metrics`]), with counter high-water marks
/// for monotone sampling — same shape as the threaded pool's.
pub struct ProcMetricIds {
    workers: GaugeId,
    busy: GaugeId,
    up: GaugeId,
    /// One per [`Ctr`], with the value sampled last.
    counters: Vec<(CounterId, u64)>,
    hb_rtt: HistogramId,
    clock_offset: GaugeId,
    clock_err: GaugeId,
}

impl ProcessFabric {
    /// Robustness counters for `ep`.
    pub fn counters(&self, ep: usize) -> ProcessCounters {
        let s = &self.shared[ep];
        ProcessCounters {
            connects: s.get(Ctr::Connects),
            respawns: s.get(Ctr::Respawns),
            failovers: s.get(Ctr::Failovers),
            stale_results: s.get(Ctr::StaleResults),
        }
    }

    /// Wire counters for `ep`.
    pub fn wire_counters(&self, ep: usize) -> WireCounters {
        let s = &self.shared[ep];
        WireCounters {
            frames_sent: s.get(Ctr::FramesSent),
            frames_recv: s.get(Ctr::FramesRecv),
            bytes_sent: s.get(Ctr::BytesSent),
            bytes_recv: s.get(Ctr::BytesRecv),
            socket_writes: s.get(Ctr::SocketWrites),
            socket_reads: s.get(Ctr::SocketReads),
            transfer_bytes: s.get(Ctr::TransferBytes),
            transfers_elided: s.get(Ctr::TransfersElided),
        }
    }

    /// Snapshots `ep`'s buffered daemon telemetry. Meaningful only when
    /// the fabric was built with [`ProcessFabricConfig::telemetry`] on;
    /// call after [`Fabric::shutdown`](crate::fabric::Fabric::shutdown) to
    /// include the final DRAIN flush.
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
            dropped_batches: self.shared[ep].get(Ctr::TelDropped),
            dropped_events: store.dropped_events,
        }
    }

    /// Registers this fabric's per-endpoint gauge/counter families,
    /// mirroring the threaded pool's taxonomy (`fedci_proc_*`), plus the
    /// wire's (`fedci_wire_*`).
    pub fn register_metrics(&self, reg: &mut MetricsRegistry) -> Vec<ProcMetricIds> {
        let ids = |name: &String| {
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
                counters: COUNTERS
                    .iter()
                    .map(|(name, help)| (reg.counter(name, help, l), 0))
                    .collect(),
                hb_rtt: reg.histogram(
                    "fedci_wire_heartbeat_rtt_seconds",
                    "Heartbeat round-trip time.",
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
            }
        };
        self.labels.iter().map(ids).collect()
    }

    /// Samples every endpoint's state into `reg`; counters advance by
    /// delta so repeated samples stay monotone.
    pub fn sample_metrics(&self, reg: &mut MetricsRegistry, ids: &mut [ProcMetricIds]) {
        for (s, id) in self.shared.iter().zip(ids) {
            reg.set(id.workers, f64::from(s.workers.load(Ordering::SeqCst)));
            reg.set(id.busy, f64::from(s.busy.load(Ordering::SeqCst)));
            let up = s.probe() == ProbeState::Alive;
            reg.set(id.up, if up { 1.0 } else { 0.0 });
            for (value, (counter, last)) in s.counters.iter().zip(&mut id.counters) {
                let now = value.load(Ordering::Relaxed);
                reg.inc(*counter, (now - *last) as f64);
                *last = now;
            }
            reg.replace_histogram(id.hb_rtt, s.rtt_hist.lock().clone());
            // Clock gauges report the *current* generation's estimate.
            let store = s.telemetry.lock();
            if let Some(est) = store
                .clocks
                .get(&s.generation())
                .and_then(ClockSync::estimate)
            {
                reg.set(id.clock_offset, est.offset_us as f64 / 1e6);
                reg.set(id.clock_err, est.uncertainty_us as f64 / 1e6);
            }
        }
    }
}

#[cfg(test)]
mod daemon_tests;
#[cfg(test)]
mod machine_tests;
#[cfg(test)]
mod tests;
