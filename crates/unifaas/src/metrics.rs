//! Run metrics: everything the paper's tables and figures report.

use crate::profile::accuracy::CalibrationRow;
use crate::trace::RunTrace;
use simkit::journal::JournalSummary;
use simkit::series::SeriesSet;
use simkit::{MetricsRegistry, SimDuration, SimTime, TimeSeries};

/// Per-task latency stage sums (Fig. 5's breakdown), averaged on demand.
#[derive(Clone, Debug, Default)]
pub struct LatencyBreakdown {
    /// Tasks aggregated.
    pub count: u64,
    /// Client-side scheduling decision time (measured wall clock of
    /// scheduler hooks, attributed evenly), seconds. Zero unless the run
    /// was metered, like [`RunReport::scheduler_wall`].
    pub scheduling_s: f64,
    /// Ready → staging complete (data transfer), seconds.
    pub staging_s: f64,
    /// Dispatch → arrival at the endpoint (submission incl. client
    /// overhead and service latency), seconds.
    pub submission_s: f64,
    /// Endpoint queue wait (arrival → execution start), seconds.
    pub queue_s: f64,
    /// Execution, seconds.
    pub execution_s: f64,
    /// Execution end → result observed by the client (polling), seconds.
    pub polling_s: f64,
}

impl LatencyBreakdown {
    /// Mean seconds per stage: `(scheduling, staging, submission, queue,
    /// execution, polling)`.
    pub fn means(&self) -> (f64, f64, f64, f64, f64, f64) {
        if self.count == 0 {
            return (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        }
        let n = self.count as f64;
        (
            self.scheduling_s / n,
            self.staging_s / n,
            self.submission_s / n,
            self.queue_s / n,
            self.execution_s / n,
            self.polling_s / n,
        )
    }
}

/// Time-series collected during a run, powering Figs. 7, 9, 10, 12, 13.
#[derive(Clone, Debug, Default)]
pub struct RunSeries {
    /// Busy workers per endpoint (label-keyed).
    pub busy_workers: SeriesSet,
    /// Provisioned workers per endpoint.
    pub active_workers: SeriesSet,
    /// Client-visible pending tasks per endpoint: targeted but not yet
    /// executing.
    pub pending_tasks: SeriesSet,
    /// Total busy workers across endpoints.
    pub busy_total: TimeSeries,
    /// Total provisioned workers across endpoints.
    pub active_total: TimeSeries,
    /// Number of tasks in the data-staging state (Fig. 10).
    pub staging_tasks: TimeSeries,
}

impl RunSeries {
    /// Aggregate worker utilization at time `t`: busy / active (0 when no
    /// workers are provisioned).
    pub fn utilization_at(&self, t: SimTime) -> f64 {
        let active = self.active_total.value_at(t);
        if active <= 0.0 {
            0.0
        } else {
            (self.busy_total.value_at(t) / active).clamp(0.0, 1.0)
        }
    }
}

/// The final report of a workflow run.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Scheduler used.
    pub scheduler: String,
    /// Workflow completion time (submission → last result observed),
    /// including scheduling overhead and polling latency.
    pub makespan: SimDuration,
    /// Tasks completed successfully.
    pub tasks_completed: usize,
    /// Task execution attempts that failed (retried or fatal).
    pub failed_attempts: usize,
    /// Total bytes moved across endpoints (Table IV/V "Transfer size").
    pub transfer_bytes: u64,
    /// Tasks executed per endpoint label (Fig. 11's workload distribution).
    pub tasks_per_endpoint: Vec<(String, usize)>,
    /// Total wall-clock time spent inside scheduler hooks. Only a metered
    /// run (`SimRuntime::with_metrics(true)`) times them, so an unmetered
    /// run reports zero: Table III, Fig. 5's scheduling row and
    /// `unifaas-sim --report` read it from metered runs.
    pub scheduler_wall: std::time::Duration,
    /// Number of scheduler hook invocations.
    pub scheduler_calls: u64,
    /// Simulation events processed.
    pub events_processed: u64,
    /// Latency stage sums.
    pub latency: LatencyBreakdown,
    /// Collected time series.
    pub series: RunSeries,
    /// The trace bundle of a traced run (`None` unless the runtime was
    /// built with [`SimRuntime::with_trace`](crate::SimRuntime::with_trace)).
    pub trace: Option<Box<RunTrace>>,
    /// Predictor calibration table (per-function / per-endpoint / per-pair
    /// MAPE, bias, p95 error). Empty unless the runtime was built with
    /// `SimRuntime::with_metrics(true)`. Excluded from the determinism
    /// digest: it describes prediction quality, not simulated behavior.
    pub calibration: Vec<CalibrationRow>,
    /// Final metrics registry of a metered run, ready for Prometheus text
    /// dump (`None` unless built with `with_metrics(true)`). Excluded from
    /// the determinism digest.
    pub metrics: Option<Box<MetricsRegistry>>,
    /// FNV-1a digest over the scheduler decision stream (every staging and
    /// dispatch action, in order). `None` unless the run was configured
    /// with `verify(true)`; when present it is folded into
    /// [`determinism_digest`](RunReport::determinism_digest) so placement
    /// divergence is caught even when the event stream happens to agree.
    pub decision_digest: Option<u64>,
    /// Summary of the run journal written during this run (`None` unless
    /// built with [`SimRuntime::with_journal`](crate::SimRuntime::with_journal)).
    /// Excluded from the determinism digest so journaled and unjournaled
    /// runs of the same config stay bit-identical; the journal digest is
    /// its own, stronger witness.
    pub journal: Option<JournalSummary>,
}

impl RunReport {
    /// Transfer volume in GiB (as the paper's tables report).
    pub fn transfer_gb(&self) -> f64 {
        self.transfer_bytes as f64 / (1u64 << 30) as f64
    }

    /// Scheduler overhead per completed task, seconds of wall clock —
    /// Table III's metric (zero for an unmetered run).
    pub fn scheduler_overhead_per_task(&self) -> f64 {
        if self.tasks_completed == 0 {
            0.0
        } else {
            self.scheduler_wall.as_secs_f64() / self.tasks_completed as f64
        }
    }

    /// FNV-1a digest over the simulation-deterministic report fields,
    /// the replay witness for the determinism gate: two runs with the
    /// same config, seed and fault schedule must produce equal digests.
    ///
    /// Wall-clock measurements (`scheduler_wall`, `latency.scheduling_s`)
    /// are excluded — they vary run to run on a real machine without the
    /// simulation being any less deterministic.
    pub fn determinism_digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(self.scheduler.as_bytes());
        mix(&self.makespan.as_secs_f64().to_bits().to_le_bytes());
        mix(&(self.tasks_completed as u64).to_le_bytes());
        mix(&(self.failed_attempts as u64).to_le_bytes());
        mix(&self.transfer_bytes.to_le_bytes());
        for (label, n) in &self.tasks_per_endpoint {
            mix(label.as_bytes());
            mix(&(*n as u64).to_le_bytes());
        }
        mix(&self.scheduler_calls.to_le_bytes());
        mix(&self.events_processed.to_le_bytes());
        mix(&self.latency.count.to_le_bytes());
        for v in [
            self.latency.staging_s,
            self.latency.submission_s,
            self.latency.queue_s,
            self.latency.execution_s,
            self.latency.polling_s,
        ] {
            mix(&v.to_bits().to_le_bytes());
        }
        if let Some(d) = self.decision_digest {
            mix(&d.to_le_bytes());
        }
        h
    }

    /// Mean aggregate worker utilization over the whole run.
    pub fn mean_utilization(&self) -> f64 {
        let end = SimTime::ZERO + self.makespan;
        let busy = self.series.busy_total.integral(SimTime::ZERO, end);
        let active = self.series.active_total.integral(SimTime::ZERO, end);
        if active <= 0.0 {
            0.0
        } else {
            (busy / active).clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_means() {
        let mut l = LatencyBreakdown::default();
        assert_eq!(l.means(), (0.0, 0.0, 0.0, 0.0, 0.0, 0.0));
        l.count = 2;
        l.execution_s = 4.0;
        l.polling_s = 1.0;
        let (_, _, _, _, exec, poll) = l.means();
        assert_eq!(exec, 2.0);
        assert_eq!(poll, 0.5);
    }

    #[test]
    fn utilization_at() {
        let mut s = RunSeries::default();
        s.active_total.record(SimTime::ZERO, 10.0);
        s.busy_total.record(SimTime::ZERO, 5.0);
        assert_eq!(s.utilization_at(SimTime::from_secs(1)), 0.5);
        // Before any workers: zero.
        let empty = RunSeries::default();
        assert_eq!(empty.utilization_at(SimTime::ZERO), 0.0);
    }

    #[test]
    fn report_helpers() {
        let report = RunReport {
            scheduler: "Capacity".into(),
            makespan: SimDuration::from_secs(100),
            tasks_completed: 10,
            failed_attempts: 0,
            transfer_bytes: 2 << 30,
            tasks_per_endpoint: vec![("a".into(), 10)],
            scheduler_wall: std::time::Duration::from_millis(5),
            scheduler_calls: 30,
            events_processed: 100,
            latency: LatencyBreakdown::default(),
            series: {
                let mut s = RunSeries::default();
                s.active_total.record(SimTime::ZERO, 4.0);
                s.busy_total.record(SimTime::ZERO, 2.0);
                s
            },
            trace: None,
            calibration: Vec::new(),
            metrics: None,
            decision_digest: None,
            journal: None,
        };
        assert_eq!(report.transfer_gb(), 2.0);
        assert!((report.scheduler_overhead_per_task() - 0.0005).abs() < 1e-9);
        assert_eq!(report.mean_utilization(), 0.5);

        // The digest covers sim-deterministic fields and ignores wall clock.
        let d = report.determinism_digest();
        let mut slower = report.clone();
        slower.scheduler_wall = std::time::Duration::from_secs(9);
        slower.latency.scheduling_s = 42.0;
        assert_eq!(slower.determinism_digest(), d, "wall clock must not leak");
        let mut other = report.clone();
        other.failed_attempts = 1;
        assert_ne!(other.determinism_digest(), d);

        // The journal summary is an observation artifact: attaching it
        // must not move the digest.
        let mut journaled = report.clone();
        journaled.journal = Some(JournalSummary {
            records: 100,
            chunks: 1,
            digest: 0xdead_beef,
        });
        assert_eq!(journaled.determinism_digest(), d, "observers must not leak");

        // The decision digest, when enabled, is folded in.
        let mut decided = report.clone();
        decided.decision_digest = Some(7);
        assert_ne!(decided.determinism_digest(), d);
        let mut decided2 = report.clone();
        decided2.decision_digest = Some(8);
        assert_ne!(decided2.determinism_digest(), decided.determinism_digest());
    }
}
