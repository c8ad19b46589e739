//! In-run progress recorder: periodic progress lines, with a stall
//! detector.
//!
//! A million-task simulation is a black box while it executes: the process
//! prints nothing until the event queue drains. The progress recorder
//! makes the run observable *while it is happening* at negligible cost:
//!
//! * a **progress snapshot** — events/s, queue occupancy, ready/executing
//!   counts, wall-vs-virtual time ratio — every [`SNAPSHOT_EVERY`]
//!   deliveries, printed to stderr (`--progress`);
//! * a **stall detector** that flags when [`STALL_HORIZON`] of virtual
//!   time passes with work outstanding and no task completing — the
//!   signature of a livelocked scheduler (periodic ticks firing forever
//!   with no progress), which otherwise burns wall clock silently.
//!
//! The recorder is one consumer of the simulator's record stream; it
//! observes only, so enabling it cannot perturb the determinism digest.

use simkit::{SimDuration, SimTime};
use std::time::Instant;

/// Deliveries between progress snapshots.
const SNAPSHOT_EVERY: u64 = 1 << 16;

/// Virtual time without a completion, while work remains, after which the
/// run is flagged as stalled.
const STALL_HORIZON: SimDuration = SimDuration::from_secs(600);

/// What the progress recorder publishes: the `--progress` flag of
/// `unifaas-sim`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlightConfig {
    /// Print a progress line to stderr at every snapshot, and a line when
    /// the stall detector fires.
    pub progress_stderr: bool,
}

/// Per-event counters the runtime feeds the recorder; all already
/// maintained by the runtime's tick counters, so sampling them is free.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlightSample {
    /// Tasks completed so far.
    pub completed: u64,
    /// Tasks in Ready | Staged.
    pub ready: usize,
    /// Tasks in Staging | Dispatched | Running | AwaitResult.
    pub executing: usize,
    /// Pending events in the engine queue.
    pub queue_pending: usize,
}

/// The progress recorder; see the module docs.
pub(crate) struct FlightRecorder {
    progress_stderr: bool,
    start: Instant,
    events: u64,
    last_snapshot_wall: f64,
    last_snapshot_events: u64,
    last_completed: u64,
    last_completion_vt: SimTime,
    stalled: bool,
    stalls: u64,
}

impl FlightRecorder {
    /// Creates a recorder.
    pub fn new(cfg: FlightConfig) -> FlightRecorder {
        FlightRecorder {
            progress_stderr: cfg.progress_stderr,
            start: Instant::now(),
            events: 0,
            last_snapshot_wall: 0.0,
            last_snapshot_events: 0,
            last_completed: 0,
            last_completion_vt: SimTime::ZERO,
            stalled: false,
            stalls: 0,
        }
    }

    /// Stall episodes detected so far.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Records one delivered event.
    pub fn on_event(&mut self, now: SimTime, sample: FlightSample) {
        self.events += 1;
        // Stall bookkeeping: any completion clears the flag; otherwise the
        // run is stalled once `STALL_HORIZON` of virtual time passes with
        // work still outstanding.
        if sample.completed != self.last_completed {
            self.last_completed = sample.completed;
            self.last_completion_vt = now;
            self.stalled = false;
        } else if !self.stalled
            && (sample.ready + sample.executing) > 0
            && now.saturating_since(self.last_completion_vt) > STALL_HORIZON
        {
            self.stalled = true;
            self.stalls += 1;
            if self.progress_stderr {
                eprintln!(
                    "[flight] STALL: no task completed since T+{:.1}s (virtual now {:.1}s, \
                     {} ready, {} executing)",
                    self.last_completion_vt.as_secs_f64(),
                    now.as_secs_f64(),
                    sample.ready,
                    sample.executing
                );
            }
        }
        if self.progress_stderr && self.events.is_multiple_of(SNAPSHOT_EVERY) {
            self.snapshot(now, sample);
        }
    }

    /// Prints a progress line.
    fn snapshot(&mut self, now: SimTime, sample: FlightSample) {
        let wall_s = self.start.elapsed().as_secs_f64();
        let delta_wall = (wall_s - self.last_snapshot_wall).max(1e-9);
        let events_per_sec = (self.events - self.last_snapshot_events) as f64 / delta_wall;
        let virtual_s = now.as_secs_f64();
        let wall_per_virtual = if virtual_s > 0.0 {
            wall_s / virtual_s
        } else {
            0.0
        };
        self.last_snapshot_wall = wall_s;
        self.last_snapshot_events = self.events;
        eprintln!(
            "[flight] vt={:.1}s events={} ({:.0}/s) completed={} ready={} executing={} \
             queue={} wall/virtual={:.4}{}",
            virtual_s,
            self.events,
            events_per_sec,
            sample.completed,
            sample.ready,
            sample.executing,
            sample.queue_pending,
            wall_per_virtual,
            if self.stalled { " STALLED" } else { "" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(completed: u64, ready: usize, executing: usize) -> FlightSample {
        FlightSample {
            completed,
            ready,
            executing,
            queue_pending: 3,
        }
    }

    #[test]
    fn stall_detector_flags_and_clears() {
        let mut fr = FlightRecorder::new(FlightConfig::default());
        // Completions up to t=5, then virtual time advances with none.
        fr.on_event(SimTime::from_secs(5), sample(1, 2, 1));
        fr.on_event(SimTime::from_secs(600), sample(1, 2, 1));
        assert_eq!(fr.stalls, 0, "within horizon");
        fr.on_event(SimTime::from_secs(606), sample(1, 2, 1));
        assert_eq!(fr.stalls, 1, "horizon exceeded with work outstanding");
        assert!(fr.stalled);
        // A completion clears the stall; a new episode counts separately.
        fr.on_event(SimTime::from_secs(607), sample(2, 1, 1));
        assert!(!fr.stalled);
        fr.on_event(SimTime::from_secs(1300), sample(2, 1, 1));
        assert_eq!(fr.stalls(), 2);
    }

    #[test]
    fn no_stall_when_no_work_remains() {
        let mut fr = FlightRecorder::new(FlightConfig::default());
        fr.on_event(SimTime::from_secs(10_000), sample(5, 0, 0));
        assert_eq!(fr.stalls, 0, "drained run is not a stall");
    }
}
