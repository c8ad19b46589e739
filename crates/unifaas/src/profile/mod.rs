//! The *predict* stage: execution and transfer profilers (§IV-C).
//!
//! Both profilers implement the [`Predictor`] trait so the DHA scheduler is
//! agnostic to where its knowledge comes from:
//!
//! * [`OracleProfiler`] — ground truth from the simulation substrate, used
//!   when the paper "assume[s] full knowledge can be retrieved from the
//!   profilers" (§VI-A);
//! * [`LearnedProfiler`] — the real observe–predict–decide loop: a random
//!   forest per function for execution time (features: input size, cores,
//!   CPU frequency, RAM) and per-endpoint-pair linear models for transfer
//!   time, trained online from monitor records.

pub mod accuracy;
pub mod execution;
pub mod transfer;

pub use accuracy::{AccuracyMonitor, CalibrationRow, ErrorStats, ScaledPredictor};
pub use execution::{ExecutionProfiler, ModelFamily};
pub use transfer::TransferProfiler;

use crate::monitor::TaskMonitor;
use fedci::endpoint::EndpointId;
use fedci::network::NetworkTopology;
use fedci::transfer::TransferParams;
use taskgraph::{Dag, TaskId};

/// Hardware features of an endpoint, as the profilers see them.
#[derive(Clone, Copy, Debug)]
pub struct EndpointFeatures {
    /// Endpoint id.
    pub id: EndpointId,
    /// Cores per node.
    pub cores: u32,
    /// CPU frequency in GHz.
    pub cpu_ghz: f64,
    /// RAM in GB.
    pub ram_gb: u32,
    /// True relative speed (only the oracle may use this).
    pub speed_factor: f64,
}

/// Prediction interface consumed by the schedulers.
pub trait Predictor {
    /// Predicted execution time of `task` on endpoint `ep`, seconds.
    fn exec_seconds(&self, dag: &Dag, task: TaskId, ep: &EndpointFeatures) -> f64;

    /// Predicted time to move `bytes` from `src` to `dst`, seconds.
    /// Zero when `src == dst`.
    fn transfer_seconds(&self, bytes: u64, src: EndpointId, dst: EndpointId) -> f64;

    /// Predicted output size of `task`, bytes.
    fn output_bytes(&self, dag: &Dag, task: TaskId) -> u64;

    /// Monotone counter bumped whenever the predictor's answers may have
    /// changed (a retrain). Consumers caching predictions invalidate when
    /// the epoch moves; a constant-knowledge predictor never needs to.
    fn epoch(&self) -> u64 {
        0
    }
}

/// Ground-truth predictor backed by the simulator's own parameters.
pub struct OracleProfiler {
    net: NetworkTopology,
    params: TransferParams,
}

impl OracleProfiler {
    /// Creates an oracle for the given substrate.
    pub fn new(net: NetworkTopology, params: TransferParams) -> Self {
        OracleProfiler { net, params }
    }
}

impl Predictor for OracleProfiler {
    fn exec_seconds(&self, dag: &Dag, task: TaskId, ep: &EndpointFeatures) -> f64 {
        dag.spec(task).compute_seconds / ep.speed_factor
    }

    fn transfer_seconds(&self, bytes: u64, src: EndpointId, dst: EndpointId) -> f64 {
        if src == dst || bytes == 0 {
            return 0.0;
        }
        let link = self.net.link(src, dst);
        let dur = self.params.duration(bytes, link.bandwidth_bps);
        link.latency.as_secs_f64() + dur.as_secs_f64()
    }

    fn output_bytes(&self, dag: &Dag, task: TaskId) -> u64 {
        dag.spec(task).output_bytes
    }
}

/// The learned predictor: combines the execution and transfer profilers.
pub struct LearnedProfiler {
    /// Per-function execution models.
    pub execution: ExecutionProfiler,
    /// Per-pair transfer models.
    pub transfer: TransferProfiler,
    /// Retrain counter (see [`Predictor::epoch`]).
    epoch: u64,
}

impl LearnedProfiler {
    /// Creates an untrained profiler (optionally trained later from a
    /// monitor's history).
    pub fn new() -> Self {
        Self::with_family(ModelFamily::default())
    }

    /// Creates an untrained profiler using the given execution model
    /// family.
    pub fn with_family(family: ModelFamily) -> Self {
        LearnedProfiler {
            execution: ExecutionProfiler::with_family(family),
            transfer: TransferProfiler::new(),
            epoch: 0,
        }
    }

    /// Retrains both profilers from the monitor's accumulated records.
    pub fn retrain(&mut self, monitor: &TaskMonitor) {
        self.execution.retrain(monitor.history());
        self.transfer.retrain(monitor.history());
        self.epoch += 1;
    }
}

impl Default for LearnedProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Predictor for LearnedProfiler {
    fn exec_seconds(&self, dag: &Dag, task: TaskId, ep: &EndpointFeatures) -> f64 {
        let spec = dag.spec(task);
        self.execution.predict(
            dag.function_name(spec.function),
            dag.input_bytes(task),
            ep,
            spec.compute_seconds,
        )
    }

    fn transfer_seconds(&self, bytes: u64, src: EndpointId, dst: EndpointId) -> f64 {
        if src == dst || bytes == 0 {
            return 0.0;
        }
        self.transfer.predict(bytes, src, dst)
    }

    fn output_bytes(&self, dag: &Dag, task: TaskId) -> u64 {
        let spec = dag.spec(task);
        self.execution
            .predict_output_bytes(dag.function_name(spec.function))
            .unwrap_or(spec.output_bytes)
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedci::network::Link;
    use fedci::transfer::TransferMechanism;
    use taskgraph::TaskSpec;

    fn features(id: u16, speed: f64) -> EndpointFeatures {
        EndpointFeatures {
            id: EndpointId(id),
            cores: 16,
            cpu_ghz: 2.6,
            ram_gb: 64,
            speed_factor: speed,
        }
    }

    #[test]
    fn oracle_exec_uses_speed_factor() {
        let net = NetworkTopology::uniform(2, Link::wan());
        let oracle = OracleProfiler::new(net, TransferMechanism::Globus.default_params());
        let mut dag = Dag::new();
        let f = dag.register_function("f");
        let t = dag.add_task(TaskSpec::compute(f, 100.0), &[]);
        assert_eq!(oracle.exec_seconds(&dag, t, &features(0, 1.0)), 100.0);
        assert_eq!(oracle.exec_seconds(&dag, t, &features(1, 2.0)), 50.0);
    }

    #[test]
    fn oracle_transfer_zero_for_local() {
        let net = NetworkTopology::uniform(2, Link::wan());
        let oracle = OracleProfiler::new(net, TransferMechanism::Globus.default_params());
        assert_eq!(
            oracle.transfer_seconds(1 << 30, EndpointId(0), EndpointId(0)),
            0.0
        );
        assert!(oracle.transfer_seconds(1 << 30, EndpointId(0), EndpointId(1)) > 0.0);
        assert_eq!(
            oracle.transfer_seconds(0, EndpointId(0), EndpointId(1)),
            0.0
        );
    }

    #[test]
    fn oracle_output_bytes_is_exact() {
        let net = NetworkTopology::uniform(1, Link::wan());
        let oracle = OracleProfiler::new(net, TransferMechanism::Globus.default_params());
        let mut dag = Dag::new();
        let f = dag.register_function("f");
        let t = dag.add_task(TaskSpec::compute(f, 1.0).with_output_bytes(777), &[]);
        assert_eq!(oracle.output_bytes(&dag, t), 777);
    }
}
