//! The cloud-hosted FaaS service model (the funcX web service the paper's
//! client talks to).
//!
//! UniFaaS never contacts endpoints directly: tasks are submitted through a
//! cloud service and results come back by polling (§IV-F). The latency
//! experiment (Fig. 5) decomposes a task's lifetime into scheduling,
//! submission, transfer, execution and result-polling stages — the
//! parameters here drive the submission and polling stages.

use simkit::{SimDuration, SimRng};

/// Latency/behaviour parameters of the FaaS fabric.
#[derive(Clone, Debug)]
pub struct FaasServiceModel {
    /// One-way client → service → endpoint dispatch latency (mean).
    pub dispatch_latency: SimDuration,
    /// Jitter fraction on dispatch latency (uniform ±).
    pub dispatch_jitter: f64,
    /// Interval at which the client polls the service for results.
    pub poll_interval: SimDuration,
    /// One-way service → client result latency once a poll observes the
    /// completed task.
    pub result_latency: SimDuration,
    /// Maximum serialized payload routed through the service. The paper
    /// states a hard 10 MB limit — anything larger must travel as a
    /// `RemoteFile` via the data manager.
    pub max_payload_bytes: u64,
    /// Cadence of endpoint-status synchronization between the mock
    /// endpoints and the service (§IV-B's "synchronizes the mock objects
    /// with the funcX service periodically").
    pub status_sync_interval: SimDuration,
    /// Client-side serialization cost per task submission (wrapping,
    /// serialization, request assembly). The client is a single process, so
    /// this serializes submissions and is what bends the strong-scaling
    /// curves for short tasks (Fig. 6: "a larger number of 1 s tasks suffer
    /// from higher network latency and scheduling overheads").
    pub client_submit_overhead: SimDuration,
}

impl Default for FaasServiceModel {
    fn default() -> Self {
        FaasServiceModel {
            dispatch_latency: SimDuration::from_millis(120),
            dispatch_jitter: 0.25,
            poll_interval: SimDuration::from_millis(500),
            result_latency: SimDuration::from_millis(100),
            max_payload_bytes: 10 * 1024 * 1024,
            status_sync_interval: SimDuration::from_secs(60),
            client_submit_overhead: SimDuration::from_millis(7),
        }
    }
}

impl FaasServiceModel {
    /// Samples a dispatch latency with jitter.
    pub fn sample_dispatch(&self, rng: &mut SimRng) -> SimDuration {
        jittered(self.dispatch_latency, self.dispatch_jitter, rng)
    }

    /// Samples a result-return latency with the same jitter fraction.
    pub fn sample_result(&self, rng: &mut SimRng) -> SimDuration {
        jittered(self.result_latency, self.dispatch_jitter, rng)
    }
}

fn jittered(base: SimDuration, jitter: f64, rng: &mut SimRng) -> SimDuration {
    if jitter == 0.0 || base.is_zero() {
        return base;
    }
    let factor = rng.uniform(1.0 - jitter, 1.0 + jitter);
    base * factor
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_stays_in_band() {
        let m = FaasServiceModel::default();
        let mut rng = SimRng::seed_from_u64(3);
        let lo = m.dispatch_latency * (1.0 - m.dispatch_jitter);
        let hi = m.dispatch_latency * (1.0 + m.dispatch_jitter);
        for _ in 0..1_000 {
            let d = m.sample_dispatch(&mut rng);
            assert!(d >= lo && d <= hi, "d={d:?}");
        }
    }
}
