//! NTP-style clock alignment between the supervisor and a daemon.
//!
//! Every heartbeat is a clock probe: the client stamps `t0` (its own
//! monotonic micros) into HEARTBEAT, the daemon stamps `t1 ≈ t2` (its
//! monotonic micros — turnaround inside the daemon is sub-millisecond,
//! so one stamp stands for both) into HEARTBEAT_ACK along with the `t0`
//! echo, and the client stamps `t3` on arrival. The classic estimate:
//!
//! ```text
//! offset = t_daemon − (t0 + t3) / 2        rtt = t3 − t0
//! ```
//!
//! with the guarantee that the true offset lies within `± rtt / 2` of the
//! estimate regardless of how asymmetrically the path delays were split.
//! [`ClockSync`] keeps a sliding window of samples and reports the
//! offset of the **minimum-RTT** sample — the one with the tightest
//! bound — as the estimate, and `min_rtt / 2` as the stated uncertainty.
//!
//! Offsets are per daemon *incarnation*: a respawned daemon restarts its
//! monotonic clock at zero, so the supervisor keeps one `ClockSync` per
//! spawn generation and discards samples across a generation change.

use std::collections::VecDeque;

/// One heartbeat round-trip's worth of clock evidence. All fields are
/// monotonic micros — `t0_us`/`t3_us` on the client clock, `t_daemon_us`
/// on the daemon clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClockSample {
    /// Client clock when the HEARTBEAT left.
    pub t0_us: u64,
    /// Daemon clock when the probe was handled.
    pub t_daemon_us: u64,
    /// Client clock when the HEARTBEAT_ACK arrived.
    pub t3_us: u64,
}

impl ClockSample {
    /// Round-trip time of this probe.
    pub fn rtt_us(&self) -> u64 {
        self.t3_us.saturating_sub(self.t0_us)
    }

    /// This sample's offset estimate: `t_daemon − midpoint(t0, t3)`.
    fn offset_us(&self) -> i64 {
        let midpoint = (self.t0_us / 2).wrapping_add(self.t3_us / 2) as i64;
        self.t_daemon_us as i64 - midpoint
    }
}

/// A daemon-to-client clock mapping with stated uncertainty:
/// `client_us ≈ daemon_us − offset_us`, true to within
/// `± uncertainty_us`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClockEstimate {
    /// Daemon-clock minus client-clock, from the minimum-RTT sample.
    pub offset_us: i64,
    /// Half the minimum observed RTT — the NTP error bound.
    pub uncertainty_us: u64,
    /// The minimum RTT across the current window.
    pub min_rtt_us: u64,
    /// Samples currently in the window.
    pub samples: usize,
}

impl ClockEstimate {
    /// Maps a daemon timestamp onto the client timeline (may be negative
    /// if the daemon's clock started before the client's epoch — callers
    /// typically clamp at zero for rendering).
    pub fn to_client_us(&self, daemon_us: u64) -> i64 {
        daemon_us as i64 - self.offset_us
    }
}

/// Minimum-RTT sliding-window offset estimator.
#[derive(Clone, Debug)]
pub struct ClockSync {
    window: VecDeque<ClockSample>,
    cap: usize,
}

impl Default for ClockSync {
    fn default() -> Self {
        Self::new()
    }
}

impl ClockSync {
    /// Default sliding-window size. At the default 500 ms heartbeat this
    /// covers the last ~32 s; at the chaos-lab 25 ms cadence, ~1.6 s —
    /// short enough that drift within a window is negligible against the
    /// RTT bound, long enough to catch a quiet-network minimum.
    const DEFAULT_WINDOW: usize = 64;

    /// An estimator with the default window.
    pub fn new() -> Self {
        Self::with_window(Self::DEFAULT_WINDOW)
    }

    /// An estimator keeping the last `cap` samples (`cap >= 1`).
    fn with_window(cap: usize) -> Self {
        assert!(cap >= 1, "window must hold at least one sample");
        ClockSync {
            window: VecDeque::with_capacity(cap),
            cap,
        }
    }

    /// Feeds one heartbeat round trip. Samples that violate causality on
    /// the client clock (`t3 < t0` — a stale echo from a previous
    /// connection) are discarded.
    pub fn observe(&mut self, sample: ClockSample) {
        if sample.t3_us < sample.t0_us {
            return;
        }
        if self.window.len() == self.cap {
            self.window.pop_front();
        }
        self.window.push_back(sample);
    }

    /// Samples currently held.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True when no sample has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// The current estimate: offset of the minimum-RTT sample in the
    /// window (latest wins ties, so a drifting clock tracks forward),
    /// uncertainty `min_rtt / 2`. `None` until a sample arrives.
    pub fn estimate(&self) -> Option<ClockEstimate> {
        let best = self
            .window
            .iter()
            .enumerate()
            .min_by_key(|(i, s)| (s.rtt_us(), std::cmp::Reverse(*i)))?
            .1;
        Some(ClockEstimate {
            offset_us: best.offset_us(),
            uncertainty_us: best.rtt_us().div_ceil(2),
            min_rtt_us: best.rtt_us(),
            samples: self.window.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t0: u64, up: u64, down: u64, offset: i64) -> ClockSample {
        ClockSample {
            t0_us: t0,
            t_daemon_us: ((t0 + up) as i64 + offset) as u64,
            t3_us: t0 + up + down,
        }
    }

    #[test]
    fn symmetric_path_recovers_offset_exactly() {
        let mut cs = ClockSync::new();
        for i in 0..10 {
            cs.observe(sample(1_000 * i, 250, 250, 40_000));
        }
        let est = cs.estimate().unwrap();
        assert_eq!(est.offset_us, 40_000);
        assert_eq!(est.min_rtt_us, 500);
        assert_eq!(est.uncertainty_us, 250);
        assert_eq!(est.samples, 10);
        assert_eq!(est.to_client_us(40_500), 500);
    }

    #[test]
    fn minimum_rtt_sample_wins() {
        let mut cs = ClockSync::new();
        // Congested probes with wildly asymmetric delay...
        for i in 0..5 {
            cs.observe(sample(10_000 * i, 9_000, 100, -7_000));
        }
        // ...and one quiet, nearly-symmetric probe.
        cs.observe(sample(100_000, 120, 130, -7_000));
        let est = cs.estimate().unwrap();
        assert_eq!(est.min_rtt_us, 250);
        // Error is (up − down) / 2 = −5 µs, well inside rtt/2.
        assert!((est.offset_us - -7_000).abs() <= est.uncertainty_us as i64);
        assert!(est.uncertainty_us <= 125);
    }

    #[test]
    fn window_slides_and_ties_prefer_latest() {
        let mut cs = ClockSync::with_window(4);
        for i in 0..20u64 {
            // Same RTT every time, but the offset drifts upward.
            cs.observe(sample(1_000 * i, 200, 200, 1_000 + i as i64));
        }
        assert_eq!(cs.len(), 4);
        let est = cs.estimate().unwrap();
        // Latest of the equal-RTT samples: i == 19.
        assert_eq!(est.offset_us, 1_019);
    }

    #[test]
    fn stale_echo_discarded_and_empty_reports_none() {
        let mut cs = ClockSync::new();
        assert!(cs.estimate().is_none());
        assert!(cs.is_empty());
        cs.observe(ClockSample {
            t0_us: 5_000,
            t_daemon_us: 1,
            t3_us: 4_000, // arrived "before" it left: stale echo
        });
        assert!(cs.estimate().is_none());
    }

    #[test]
    fn negative_daemon_lead_maps_back_onto_client_timeline() {
        // Daemon clock started 1 s after the client epoch, so it reads
        // 1 s behind the client: offset is −1 s.
        let mut cs = ClockSync::new();
        cs.observe(ClockSample {
            t0_us: 2_000_000,
            t_daemon_us: 1_000_250,
            t3_us: 2_000_500,
        });
        let est = cs.estimate().unwrap();
        assert_eq!(est.offset_us, -1_000_000);
        // A daemon event at its local t=0 lands at client t=1 s.
        assert_eq!(est.to_client_us(0), 1_000_000);
    }
}
