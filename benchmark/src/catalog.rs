//! The names `BENCHMARK.json` fixes: workloads, end-to-end metrics and
//! per-layer metrics, each with its unit. A run prints exactly one of the
//! two metric sets; `tests/contract.rs` keeps this file and
//! `BENCHMARK.json` in step.

use crate::stats::Metric;
use std::collections::BTreeMap;

/// Workload names, in the order a full pass runs them.
pub const WORKLOADS: &[&str] = &[
    "sim-stress-capacity",
    "sim-stress-dha",
    "sim-drug-dha",
    "threaded-fanout",
    "wire-fanout",
    "wire-chain",
    "wire-data",
];

/// What `--trace 0` prints: `(name, unit, higher_is_better, bound)`.
pub const END_TO_END: &[(&str, &str, bool, f64)] = &[
    ("setup_s", "s", false, 0.25),
    ("tasks_per_s", "tasks/s", true, 0.25),
    ("peak_rss_mb", "MiB", false, 0.25),
];

/// What `--trace 1` prints: `(name, unit)`. A metric whose layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Workload-specific end-to-end numbers: each is defined on a subset of
    // the workloads, so none can be a gated metric of every run.
    ("sim_wall_s", "s"),
    ("makespan_s", "s"),
    ("transfer_gb", "GiB"),
    ("rtt_p50_us", "us"),
    ("rtt_p99_us", "us"),
    ("payload_mb_per_s", "MB/s"),
    ("failed_frac", "ratio"),
    // simkit
    ("simkit.events", "count"),
    ("simkit.queue_ns_per_event", "ns"),
    // taskgraph
    ("taskgraph.build_s", "s"),
    ("taskgraph.rank_s", "s"),
    // unifaas::sched
    ("sched.busy_s", "s"),
    ("sched.calls", "count"),
    ("sched.us_per_task", "us"),
    // unifaas::profile
    ("profile.predict_calls", "count"),
    ("profile.busy_s", "s"),
    // unifaas::data + fedci::network/transfer
    ("data.transfer_bytes", "bytes"),
    ("data.stage_complete_ns", "ns"),
    // unifaas::runtime::sim
    ("sim.self_s", "s"),
    ("sim.self_ns_per_event", "ns"),
    ("stage.scheduling_s", "s"),
    ("stage.staging_s", "s"),
    ("stage.submission_s", "s"),
    ("stage.queue_s", "s"),
    ("stage.execution_s", "s"),
    ("stage.polling_s", "s"),
    ("sim.trace_overhead_frac", "ratio"),
    // unifaas::runtime::fabric (client)
    ("client.dispatched", "count"),
    ("client.retries", "count"),
    ("client.watchdog_timeouts", "count"),
    ("client.submit_us", "us"),
    ("client.submit_busy_frac", "ratio"),
    ("client.complete_us", "us"),
    ("client.self_us", "us"),
    // fedci::fabric boundary (TimedFabric)
    ("fabric.submit_call_us", "us"),
    ("fabric.stage_call_us", "us"),
    ("fabric.stage_calls", "count"),
    ("fabric.stage_bytes", "bytes"),
    ("fabric.roundtrip_p50_us", "us"),
    ("fabric.roundtrip_p99_us", "us"),
    ("fabric.attempts_failed", "count"),
    // fedci::proto
    ("proto.encode_ns_small", "ns"),
    ("proto.decode_ns_small", "ns"),
    ("proto.encode_mb_per_s_1m", "MB/s"),
    ("proto.decode_mb_per_s_1m", "MB/s"),
    ("proto.dispatch_overhead_bytes", "bytes"),
    // fedci::process (supervisor)
    ("process.connects", "count"),
    ("process.respawns", "count"),
    ("process.failovers", "count"),
    ("process.stale_results", "count"),
    ("process.heartbeat_rtt_p50_us", "us"),
    // fedci::process (daemon) + fedci::clock
    ("wire.out_p50_us", "us"),
    ("daemon.queue_p50_us", "us"),
    ("daemon.exec_p50_us", "us"),
    ("daemon.send_p50_us", "us"),
    ("wire.back_p50_us", "us"),
    ("chain.complete_frac", "ratio"),
    ("clock.uncertainty_us", "us"),
    ("wire.trace_overhead_frac", "ratio"),
];

/// Per-rep samples by metric name, folded into [`Metric`]s at the end of a
/// run.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Records one sample of `name`.
    pub fn push(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.0 == name) || PER_LAYER.iter().any(|m| m.0 == name),
            "metric `{name}` is not in the catalogue"
        );
        self.0.entry(name).or_default().push(v);
    }

    /// Samples of `name` so far.
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Replaces `name`'s per-rep samples with one whole-run value.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.remove(name);
        self.push(name, v);
    }

    /// Every end-to-end metric, in catalogue order.
    pub fn end_to_end(&self) -> Vec<Metric> {
        END_TO_END
            .iter()
            .map(|&(name, unit, _, _)| Metric::from_samples(name, unit, self.get(name)))
            .collect()
    }

    /// Every per-layer metric, in catalogue order.
    pub fn per_layer(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric::from_samples(name, unit, self.get(name)))
            .collect()
    }
}
