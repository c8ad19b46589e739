//! Endpoint health tracking.
//!
//! funcX-style fabrics treat endpoint churn as a first-class failure mode:
//! an endpoint may stop heartbeating, come back, or silently eat tasks.
//! This module keeps a per-endpoint liveness state machine,
//!
//! ```text
//!            failures ≥ suspect_after      failures ≥ down_after
//!   Healthy ─────────────────────► Suspect ─────────────────────► Down
//!      ▲                              │                            │
//!      │ success                      │ success (reset)            │ liveness
//!      │                              ▼                            ▼ restored
//!      └───────────────────────── Healthy ◄──────────────────  Recovering
//!                                           probes ≥ recover_after
//! ```
//!
//! fed by whichever liveness signal the runtime has: deterministic outage
//! windows in the simulator ([`HealthMonitor::mark_down`] /
//! [`HealthMonitor::mark_recovering`]), or real probe results in the live
//! runtime ([`HealthMonitor::record`]).
//!
//! Schedulers consult [`HealthMonitor::is_schedulable`]: only `Down`
//! excludes an endpoint from candidate sets. `Suspect` endpoints still
//! receive work (a single crash should not drain a queue), and
//! `Recovering` endpoints are re-admitted immediately so capacity returns
//! as soon as liveness does. The monitor itself draws no randomness and
//! allocates nothing on the query path, so consulting it is free and —
//! crucially for the bit-identical zero-fault guarantee — a monitor that
//! never leaves `Healthy` changes no scheduling decision.

use fedci::endpoint::EndpointId;

/// Liveness state of one endpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HealthState {
    /// Operating normally.
    Healthy,
    /// Recent consecutive failures; still schedulable but under watch.
    Suspect,
    /// Considered disconnected: excluded from scheduling.
    Down,
    /// Liveness restored; schedulable, promoted to Healthy after
    /// consecutive successes.
    Recovering,
}

impl HealthState {
    /// Stable numeric code: the argument of the trace's `health` instants.
    pub fn code(self) -> u32 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Suspect => 1,
            HealthState::Down => 2,
            HealthState::Recovering => 3,
        }
    }
}

/// Thresholds for the health state machine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HealthPolicy {
    /// Consecutive failures that move Healthy → Suspect.
    pub suspect_after: u32,
    /// Consecutive failures that move Suspect → Down.
    pub down_after: u32,
    /// Consecutive successes that move Recovering → Healthy.
    pub recover_after: u32,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            suspect_after: 1,
            down_after: 3,
            recover_after: 1,
        }
    }
}

/// Per-endpoint health state machine (see module docs for the diagram).
#[derive(Clone, Debug)]
pub struct HealthMonitor {
    policy: HealthPolicy,
    states: Vec<HealthState>,
    consecutive_failures: Vec<u32>,
    consecutive_successes: Vec<u32>,
}

impl HealthMonitor {
    /// A monitor for `n` endpoints, all initially Healthy.
    pub fn new(n: usize) -> Self {
        Self::with_policy(n, HealthPolicy::default())
    }

    /// A monitor with explicit thresholds.
    pub fn with_policy(n: usize, policy: HealthPolicy) -> Self {
        assert!(policy.down_after >= policy.suspect_after);
        assert!(policy.recover_after >= 1);
        HealthMonitor {
            policy,
            states: vec![HealthState::Healthy; n],
            consecutive_failures: vec![0; n],
            consecutive_successes: vec![0; n],
        }
    }

    /// Current state of `ep`.
    pub fn state(&self, ep: EndpointId) -> HealthState {
        self.states[ep.index()]
    }

    /// True if `ep` is Down (and must be excluded from placement).
    pub fn is_down(&self, ep: EndpointId) -> bool {
        self.states[ep.index()] == HealthState::Down
    }

    /// True if `ep` may receive placements (anything but Down).
    pub fn is_schedulable(&self, ep: EndpointId) -> bool {
        !self.is_down(ep)
    }

    /// Number of endpoints monitored.
    pub fn endpoints(&self) -> usize {
        self.states.len()
    }

    fn set(&mut self, ep: EndpointId, next: HealthState) -> Option<HealthState> {
        let cur = &mut self.states[ep.index()];
        if *cur == next {
            return None;
        }
        *cur = next;
        Some(next)
    }

    /// Records a successful interaction (completed task, answered probe).
    /// Returns the new state if this caused a transition.
    pub fn record_success(&mut self, ep: EndpointId) -> Option<HealthState> {
        let i = ep.index();
        // Written only on a change: placement reads the health on every
        // dispatch, and a store would dirty a line it shares for nothing.
        if self.consecutive_failures[i] != 0 {
            self.consecutive_failures[i] = 0;
        }
        match self.states[i] {
            HealthState::Healthy => None,
            HealthState::Suspect => self.set(ep, HealthState::Healthy),
            // A success from a Down endpoint is itself evidence of liveness.
            HealthState::Down => {
                self.consecutive_successes[i] = 1;
                let next = if self.policy.recover_after <= 1 {
                    HealthState::Healthy
                } else {
                    HealthState::Recovering
                };
                self.set(ep, next)
            }
            HealthState::Recovering => {
                self.consecutive_successes[i] += 1;
                if self.consecutive_successes[i] >= self.policy.recover_after {
                    self.set(ep, HealthState::Healthy)
                } else {
                    None
                }
            }
        }
    }

    /// Records a failed interaction (crashed task, missed probe).
    /// Returns the new state if this caused a transition.
    fn record_failure(&mut self, ep: EndpointId) -> Option<HealthState> {
        let i = ep.index();
        self.consecutive_successes[i] = 0;
        self.consecutive_failures[i] = self.consecutive_failures[i].saturating_add(1);
        let failures = self.consecutive_failures[i];
        match self.states[i] {
            HealthState::Down => None,
            _ if failures >= self.policy.down_after => self.set(ep, HealthState::Down),
            HealthState::Healthy | HealthState::Recovering
                if failures >= self.policy.suspect_after =>
            {
                self.set(ep, HealthState::Suspect)
            }
            _ => None,
        }
    }

    /// Records the outcome of one interaction, a success or a failure.
    pub fn record(&mut self, ep: EndpointId, success: bool) -> Option<HealthState> {
        if success {
            self.record_success(ep)
        } else {
            self.record_failure(ep)
        }
    }

    /// Forces `ep` Down — used when the liveness source is authoritative
    /// (a simulated outage window opening, an operator draining a pool).
    pub fn mark_down(&mut self, ep: EndpointId) -> Option<HealthState> {
        let i = ep.index();
        self.consecutive_failures[i] = self.policy.down_after;
        self.consecutive_successes[i] = 0;
        self.set(ep, HealthState::Down)
    }

    /// Marks `ep` as Recovering — liveness restored, schedulable again.
    pub fn mark_recovering(&mut self, ep: EndpointId) -> Option<HealthState> {
        let i = ep.index();
        self.consecutive_failures[i] = 0;
        self.consecutive_successes[i] = 0;
        self.set(ep, HealthState::Recovering)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(i: u16) -> EndpointId {
        EndpointId(i)
    }

    #[test]
    fn starts_healthy_and_schedulable() {
        let m = HealthMonitor::new(3);
        for i in 0..3 {
            assert_eq!(m.state(ep(i)), HealthState::Healthy);
            assert!(m.is_schedulable(ep(i)));
        }
    }

    #[test]
    fn failures_escalate_healthy_suspect_down() {
        let mut m = HealthMonitor::new(1);
        assert_eq!(m.record_failure(ep(0)), Some(HealthState::Suspect));
        assert!(m.is_schedulable(ep(0)), "suspect still schedulable");
        assert_eq!(m.record_failure(ep(0)), None);
        assert_eq!(m.record_failure(ep(0)), Some(HealthState::Down));
        assert!(!m.is_schedulable(ep(0)));
        // Further failures while Down are absorbed.
        assert_eq!(m.record_failure(ep(0)), None);
    }

    #[test]
    fn success_resets_suspect() {
        let mut m = HealthMonitor::new(1);
        m.record_failure(ep(0));
        assert_eq!(m.record_success(ep(0)), Some(HealthState::Healthy));
        // The failure streak restarts from zero.
        assert_eq!(m.record_failure(ep(0)), Some(HealthState::Suspect));
        assert_eq!(m.record_failure(ep(0)), None);
    }

    #[test]
    fn recovery_needs_configured_probe_count() {
        let policy = HealthPolicy {
            suspect_after: 1,
            down_after: 2,
            recover_after: 3,
        };
        let mut m = HealthMonitor::with_policy(1, policy);
        m.mark_down(ep(0));
        assert_eq!(m.state(ep(0)), HealthState::Down);
        assert_eq!(m.record_success(ep(0)), Some(HealthState::Recovering));
        assert!(m.is_schedulable(ep(0)), "recovering is schedulable");
        assert_eq!(m.record_success(ep(0)), None);
        assert_eq!(m.record_success(ep(0)), Some(HealthState::Healthy));
    }

    #[test]
    fn failure_during_recovery_demotes() {
        let policy = HealthPolicy {
            suspect_after: 1,
            down_after: 2,
            recover_after: 2,
        };
        let mut m = HealthMonitor::with_policy(1, policy);
        m.mark_down(ep(0));
        m.record_success(ep(0));
        assert_eq!(m.state(ep(0)), HealthState::Recovering);
        assert_eq!(m.record_failure(ep(0)), Some(HealthState::Suspect));
        assert_eq!(m.record_failure(ep(0)), Some(HealthState::Down));
    }

    #[test]
    fn mark_down_and_recovering_are_authoritative() {
        let mut m = HealthMonitor::new(2);
        assert_eq!(m.mark_down(ep(1)), Some(HealthState::Down));
        assert_eq!(m.mark_down(ep(1)), None, "idempotent");
        assert_eq!(m.mark_recovering(ep(1)), Some(HealthState::Recovering));
        assert!(m.is_schedulable(ep(1)));
        // Default policy promotes after one success.
        assert_eq!(m.record_success(ep(1)), Some(HealthState::Healthy));
        assert_eq!(m.state(ep(0)), HealthState::Healthy, "other ep untouched");
    }

    #[test]
    fn success_from_down_is_liveness_evidence() {
        let mut m = HealthMonitor::new(1);
        m.mark_down(ep(0));
        assert_eq!(m.record_success(ep(0)), Some(HealthState::Healthy));
    }
}
