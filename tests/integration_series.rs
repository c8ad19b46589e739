//! Invariants of the recorded worker series under every event that
//! changes a worker count: task start and end, a capacity shrink that
//! preempts running tasks, an outage that drains an endpoint, and the
//! execution-timeout watchdog.
//!
//! The runtime records an endpoint's series only when that endpoint's
//! counts change. These checks fail if a change site forgets to record,
//! or records the wrong endpoint:
//!
//! * the integral of each endpoint's `busy_workers` equals the summed
//!   execution time of every attempt on it, read from the trace's
//!   `executing` spans, interrupted attempts included;
//! * `busy_total` and `active_total` equal the per-endpoint sums at every
//!   change point of any of these series.

use fedci::hardware::ClusterSpec;
use simkit::series::SeriesSet;
use simkit::trace::{LabelId, TraceEvent, TraceLevel};
use simkit::{SimDuration, SimTime, TimeSeries};
use taskgraph::workloads::drug;
use unifaas::config::RetryPolicy;
use unifaas::prelude::*;

/// Watchdog limit: the longest `simulate` tasks hit it on slow endpoints
/// but fit on fast ones, so kills happen under every strategy and every
/// task still completes (600 s strands one task; 660 s kills nothing
/// under DHA).
const TIMEOUT_S: u64 = 630;
/// Taiyi loses 25 of its 40 workers here, while most of them are busy.
const SHRINK_AT_S: u64 = 300;
/// Dept is down over this window, with tasks running when it opens.
const OUTAGE_S: (u64, u64) = (500, 1500);

fn testbed(strategy: SchedulingStrategy) -> Config {
    let retry = RetryPolicy {
        exec_timeout: Some(SimDuration::from_secs(TIMEOUT_S)),
        ..RetryPolicy::default()
    };
    Config::builder()
        .endpoint(EndpointConfig::new("Taiyi", ClusterSpec::taiyi(), 40))
        .endpoint(EndpointConfig::new("Qiming", ClusterSpec::qiming(), 30))
        .endpoint(EndpointConfig::new("Dept", ClusterSpec::dept_cluster(), 16))
        .endpoint(EndpointConfig::new("Lab", ClusterSpec::lab_cluster(), 8))
        .strategy(strategy)
        .seed(7)
        .capacity_event(SHRINK_AT_S, 0, -25)
        .capacity_event(900, 1, 20)
        .fault(
            format!("down ep=2 from={} to={}", OUTAGE_S.0, OUTAGE_S.1)
                .parse()
                .unwrap(),
        )
        .fault("transfer-fail p=0.05".parse().unwrap())
        .fault("task-fail p=0.08".parse().unwrap())
        .retries(5, 40)
        .retry_policy(retry)
        .build()
}

/// One execution attempt, from the trace.
struct Attempt {
    track: LabelId,
    start: SimTime,
    end: SimTime,
    /// False when the attempt was preempted, drained or killed: the task's
    /// next lifecycle stage is not `polled`.
    completed: bool,
}

/// Every `executing` span in the trace. A lifecycle transition ends one
/// span and begins the next in consecutive records, so the record after
/// an `executing` end tells how the attempt ended.
fn attempts(trace: &RunTrace) -> Vec<Attempt> {
    let tracer = &trace.tracer;
    assert_eq!(tracer.dropped(), 0, "ring sized to hold the whole run");
    let records: Vec<_> = tracer.records().collect();
    let mut open = std::collections::HashMap::new();
    let mut out = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        match rec.event {
            TraceEvent::Begin { name, track, id } if tracer.label(name) == "executing" => {
                open.insert(id, (track, rec.at));
            }
            TraceEvent::End { name, id, .. } if tracer.label(name) == "executing" => {
                let (track, start) = open.remove(&id).expect("begin before end");
                let completed = records.get(i + 1).is_some_and(|next| {
                    matches!(next.event, TraceEvent::Begin { name, id: next_id, .. }
                        if next_id == id && tracer.label(name) == "polled")
                });
                out.push(Attempt {
                    track,
                    start,
                    end: rec.at,
                    completed,
                });
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "every attempt ended");
    out
}

/// Asserts `total` equals the sum of the per-endpoint series in `parts` at
/// every change point of any of them.
fn assert_total_is_sum(what: &str, total: &TimeSeries, parts: &SeriesSet) {
    let mut times: Vec<SimTime> = total.points().iter().map(|p| p.0).collect();
    for (_, s) in parts.iter() {
        times.extend(s.points().iter().map(|p| p.0));
    }
    for t in times {
        let sum: f64 = parts.iter().map(|(_, s)| s.value_at(t)).sum();
        assert_eq!(total.value_at(t), sum, "{what} at {t:?}");
    }
}

#[test]
fn worker_series_match_attempts_under_preemption_drain_and_timeout() {
    for strategy in [
        SchedulingStrategy::Capacity,
        SchedulingStrategy::Locality,
        SchedulingStrategy::Dha { rescheduling: true },
    ] {
        let dag = drug::generate(&drug::DrugParams::small(150));
        let n_tasks = dag.len();
        let cfg = testbed(strategy.clone());
        let labels: Vec<String> = cfg.endpoints.iter().map(|e| e.label.clone()).collect();
        let report = SimRuntime::new(cfg, dag)
            .with_trace(TraceConfig {
                ring_capacity: 1 << 20,
                ..TraceConfig::at_level(TraceLevel::Spans)
            })
            .run()
            .unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
        assert_eq!(report.tasks_completed, n_tasks);
        assert!(report.failed_attempts > 0, "{strategy:?}: faults fired");
        let trace = report.trace.as_deref().expect("traced");
        let attempts = attempts(trace);
        let label_of = |a: &Attempt| trace.tracer.label(a.track).to_string();
        let interrupted = |a: &&Attempt| !a.completed;

        // Each worker-count change site ran at least once.
        let secs = |t: SimTime| t.as_secs_f64();
        assert!(
            attempts
                .iter()
                .filter(interrupted)
                .any(|a| label_of(a) == "Taiyi" && secs(a.end) == SHRINK_AT_S as f64),
            "{strategy:?}: the capacity shrink preempted an attempt"
        );
        assert!(
            attempts
                .iter()
                .filter(interrupted)
                .any(|a| label_of(a) == "Dept" && secs(a.end) == OUTAGE_S.0 as f64),
            "{strategy:?}: the outage drained an attempt"
        );
        assert!(
            attempts
                .iter()
                .filter(interrupted)
                .any(|a| a.end.saturating_since(a.start) == SimDuration::from_secs(TIMEOUT_S)),
            "{strategy:?}: the watchdog killed an attempt"
        );

        let series = &report.series;
        let end = SimTime::ZERO + report.makespan;
        for label in &labels {
            let busy = series.busy_workers.get(label).expect("series per endpoint");
            let busy_s = busy.integral(SimTime::ZERO, end);
            let exec_s: f64 = attempts
                .iter()
                .filter(|a| label_of(a) == *label)
                .map(|a| a.end.saturating_since(a.start).as_secs_f64())
                .sum();
            assert!(
                (busy_s - exec_s).abs() <= 1e-6 * exec_s.max(1.0),
                "{strategy:?} {label}: busy-worker integral {busy_s} s vs {exec_s} s executed"
            );
        }
        assert_total_is_sum("busy_total", &series.busy_total, &series.busy_workers);
        assert_total_is_sum("active_total", &series.active_total, &series.active_workers);
    }
}
