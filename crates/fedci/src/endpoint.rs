//! A funcX-style endpoint: an elastic pool of single-task workers on one
//! cluster.
//!
//! `EndpointSim` is a passive state machine — the runtime (in the `unifaas`
//! crate) owns the event loop and calls into it. It models:
//!
//! * **workers**: each worker executes one task at a time (the paper's
//!   "each function is mapped to a worker");
//! * **elastic scaling**: scale-out requests pass through the cluster's
//!   batch scheduler and arrive after `provision_delay`; scale-in (killing
//!   idle workers) is immediate. This asymmetry is why UniFaaS "scales out
//!   aggressively but scales in conservatively" (§IV-H);
//! * **heterogeneity**: execution time scales with the cluster's speed
//!   factor;
//! * **capacity dynamics**: Table V's experiments add/remove workers at
//!   fixed times; [`EndpointSim::force_capacity_delta`] implements that.

use crate::hardware::ClusterSpec;
use simkit::{SimDuration, SimTime};
use std::fmt;

/// Index of an endpoint within the federation (dense, small).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EndpointId(pub u16);

impl EndpointId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EndpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ep{}", self.0)
    }
}

impl fmt::Display for EndpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ep{}", self.0)
    }
}

/// Simulated endpoint state.
#[derive(Clone, Debug)]
pub struct EndpointSim {
    /// This endpoint's id.
    pub id: EndpointId,
    /// The cluster it runs on.
    pub cluster: ClusterSpec,
    /// Upper bound on workers (the experiment's allocation limit).
    pub max_workers: usize,
    active_workers: usize,
    busy_workers: usize,
    /// Workers requested from the batch scheduler but not yet arrived.
    pending_workers: usize,
    /// When the endpoint last became completely idle (no busy workers);
    /// `None` while any worker is busy. Drives idle-timeout scale-in.
    idle_since: Option<SimTime>,
}

impl EndpointSim {
    /// Creates an endpoint with `initial_workers` already provisioned.
    pub fn new(
        id: EndpointId,
        cluster: ClusterSpec,
        initial_workers: usize,
        max_workers: usize,
    ) -> Self {
        assert!(initial_workers <= max_workers);
        EndpointSim {
            id,
            cluster,
            max_workers,
            active_workers: initial_workers,
            busy_workers: 0,
            pending_workers: 0,
            idle_since: Some(SimTime::ZERO),
        }
    }

    /// Provisioned workers currently able to run tasks.
    pub fn active_workers(&self) -> usize {
        self.active_workers
    }

    /// Workers currently executing a task.
    pub fn busy_workers(&self) -> usize {
        self.busy_workers
    }

    /// Workers provisioned but idle.
    pub fn idle_workers(&self) -> usize {
        self.active_workers - self.busy_workers
    }

    /// Workers requested but still in the batch queue.
    pub fn pending_workers(&self) -> usize {
        self.pending_workers
    }

    /// Time this endpoint needs to execute `compute_seconds` of reference
    /// work.
    pub fn exec_duration(&self, compute_seconds: f64) -> SimDuration {
        SimDuration::from_secs_f64(compute_seconds / self.cluster.speed_factor)
    }

    /// Batch-queue delay for newly requested workers.
    pub fn provision_delay(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.cluster.provision_delay_s)
    }

    /// Requests `count` more workers, clamped so
    /// `active + pending <= max_workers`. Returns the number actually
    /// requested; the caller should schedule a commission event after
    /// [`EndpointSim::provision_delay`].
    pub fn request_workers(&mut self, count: usize) -> usize {
        let room = self
            .max_workers
            .saturating_sub(self.active_workers + self.pending_workers);
        let granted = count.min(room);
        self.pending_workers += granted;
        granted
    }

    /// Commissions `count` previously requested workers (the batch job
    /// started).
    pub fn commission_workers(&mut self, count: usize) {
        assert!(
            count <= self.pending_workers,
            "commissioning unrequested workers"
        );
        self.pending_workers -= count;
        self.active_workers += count;
    }

    /// Kills up to `count` idle workers immediately. Returns how many died.
    pub fn release_idle_workers(&mut self, count: usize) -> usize {
        let killable = self.idle_workers().min(count);
        self.active_workers -= killable;
        killable
    }

    /// Forcibly changes capacity by `delta` workers (positive or negative),
    /// used by the Table V dynamic-capacity experiments. A negative delta
    /// may preempt busy workers; preempted tasks must be re-dispatched by
    /// the caller. Returns the number of *busy* workers preempted.
    pub fn force_capacity_delta(&mut self, delta: i64, now: SimTime) -> usize {
        if delta >= 0 {
            let add = (delta as usize).min(self.max_workers * 100); // sanity clamp
            self.active_workers += add;
            self.max_workers = self.max_workers.max(self.active_workers);
            0
        } else {
            let remove = (-delta) as usize;
            let remove = remove.min(self.active_workers);
            self.active_workers -= remove;
            self.max_workers = self
                .max_workers
                .min(self.active_workers.max(1))
                .max(self.active_workers);
            if self.busy_workers > self.active_workers {
                let preempted = self.busy_workers - self.active_workers;
                self.busy_workers = self.active_workers;
                if self.busy_workers == 0 {
                    self.idle_since = Some(now);
                }
                preempted
            } else {
                0
            }
        }
    }

    /// Marks one worker busy (a task started). Returns false if no idle
    /// worker is available.
    pub fn occupy_worker(&mut self) -> bool {
        if self.idle_workers() == 0 {
            return false;
        }
        self.busy_workers += 1;
        self.idle_since = None;
        true
    }

    /// Marks one worker idle again (a task finished).
    pub fn release_worker(&mut self, now: SimTime) {
        assert!(self.busy_workers > 0, "release without occupy");
        self.busy_workers -= 1;
        if self.busy_workers == 0 {
            self.idle_since = Some(now);
        }
    }

    /// How long the endpoint has been completely idle, if it is.
    pub fn idle_duration(&self, now: SimTime) -> Option<SimDuration> {
        self.idle_since.map(|t| now.saturating_since(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(initial: usize, max: usize) -> EndpointSim {
        EndpointSim::new(EndpointId(0), ClusterSpec::qiming(), initial, max)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn worker_accounting() {
        let mut e = ep(4, 10);
        assert_eq!(e.active_workers(), 4);
        assert_eq!(e.idle_workers(), 4);
        assert!(e.occupy_worker());
        assert!(e.occupy_worker());
        assert_eq!(e.busy_workers(), 2);
        assert_eq!(e.idle_workers(), 2);
        e.release_worker(t(5));
        assert_eq!(e.busy_workers(), 1);
    }

    #[test]
    fn occupy_fails_when_saturated() {
        let mut e = ep(1, 1);
        assert!(e.occupy_worker());
        assert!(!e.occupy_worker());
    }

    #[test]
    #[should_panic(expected = "release without occupy")]
    fn release_without_occupy_panics() {
        ep(1, 1).release_worker(t(0));
    }

    #[test]
    fn scale_out_respects_max_and_pending() {
        let mut e = ep(4, 10);
        assert_eq!(e.request_workers(4), 4);
        assert_eq!(e.pending_workers(), 4);
        // Only 2 more fit under the cap.
        assert_eq!(e.request_workers(5), 2);
        assert_eq!(e.pending_workers(), 6);
        e.commission_workers(6);
        assert_eq!(e.active_workers(), 10);
        assert_eq!(e.pending_workers(), 0);
    }

    #[test]
    #[should_panic(expected = "unrequested")]
    fn commission_more_than_requested_panics() {
        let mut e = ep(1, 10);
        e.commission_workers(1);
    }

    #[test]
    fn scale_in_only_kills_idle() {
        let mut e = ep(5, 10);
        e.occupy_worker();
        e.occupy_worker();
        assert_eq!(e.release_idle_workers(100), 3);
        assert_eq!(e.active_workers(), 2);
        assert_eq!(e.busy_workers(), 2);
    }

    #[test]
    fn idle_tracking() {
        let mut e = ep(2, 2);
        assert_eq!(e.idle_duration(t(30)), Some(SimDuration::from_secs(30)));
        e.occupy_worker();
        assert_eq!(e.idle_duration(t(40)), None);
        e.release_worker(t(50));
        assert_eq!(e.idle_duration(t(80)), Some(SimDuration::from_secs(30)));
    }

    #[test]
    fn exec_duration_scales_with_speed() {
        let q = EndpointSim::new(EndpointId(0), ClusterSpec::qiming(), 1, 1);
        let ty = EndpointSim::new(EndpointId(1), ClusterSpec::taiyi(), 1, 1);
        assert_eq!(q.exec_duration(140.0), SimDuration::from_secs(140));
        let taiyi_secs = ty.exec_duration(140.0).as_secs_f64();
        assert!(
            (taiyi_secs - 140.0 / ClusterSpec::taiyi().speed_factor).abs() < 1e-6,
            "taiyi_secs={taiyi_secs}"
        );
        assert!(taiyi_secs < 140.0, "faster cluster must finish sooner");
    }

    #[test]
    fn force_capacity_grows_and_shrinks() {
        let mut e = ep(4, 4);
        assert_eq!(e.force_capacity_delta(6, t(10)), 0);
        assert_eq!(e.active_workers(), 10);
        assert!(e.max_workers >= 10);
        // Shrink below busy count → preemption.
        for _ in 0..8 {
            assert!(e.occupy_worker());
        }
        let preempted = e.force_capacity_delta(-7, t(20));
        assert_eq!(e.active_workers(), 3);
        assert_eq!(preempted, 5); // 8 busy, only 3 slots remain
        assert_eq!(e.busy_workers(), 3);
    }
}
