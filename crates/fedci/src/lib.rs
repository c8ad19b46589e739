#![warn(missing_docs)]

//! `fedci` — a federated cyberinfrastructure substrate.
//!
//! The UniFaaS paper evaluates on four real HPC clusters federated through
//! the funcX cloud service. This crate rebuilds that substrate so the
//! framework above it can run anywhere:
//!
//! * [`hardware`] — cluster hardware descriptions with presets for the
//!   paper's testbed (Table II: Taiyi, Qiming, Dept. cluster, Lab cluster,
//!   Workstation);
//! * [`endpoint`] — a funcX-style endpoint state machine: an elastic pool of
//!   single-task workers fed by a local queue, with batch-scheduler
//!   provisioning delays on scale-out and idle-timeout scale-in;
//! * [`network`] — wide-area topology: per-pair bandwidth and latency with
//!   concurrency-limited bandwidth sharing;
//! * [`transfer`] — transfer mechanisms (Globus-like and rsync-like) with
//!   distinct startup costs, throughput efficiencies and concurrency limits;
//! * [`storage`] — per-endpoint data stores that cache staged files (a file
//!   staged to a cluster's shared filesystem is visible to every worker
//!   there);
//! * [`faas`] — the cloud service model: dispatch latency, result-polling
//!   cadence, payload limits and batching parameters;
//! * [`fault`] — deterministic fault injection (transfer failures, task
//!   crashes, endpoint outages);
//! * [`threaded`] — real-thread worker pools (crossbeam), owned by
//!   [`fabric::ThreadedFabric`], the in-process live backend;
//! * [`fabric`] — the live-fabric abstraction ([`fabric::Fabric`]) shared
//!   by the threaded pools and the process backend, with the
//!   [`fabric::FabricTiming`] heartbeat/poll configuration;
//! * [`proto`] — the length-prefixed wire codec the process fabric speaks
//!   (HELLO/DISPATCH/RESULT/POLL/TRANSFER/HEARTBEAT/DRAIN);
//! * [`process`] — process-isolated endpoint daemons over TCP: spawn,
//!   heartbeat, reconnect with seeded backoff, survive `kill -9`;
//! * [`trace`] — the substrate's trace-event taxonomy (queue/execute
//!   spans, transfer and fault instants) for the `simkit::trace` sink.

pub mod clock;
pub mod endpoint;
pub mod faas;
pub mod fabric;
pub mod fault;
pub mod hardware;
pub mod network;
pub mod process;
pub mod proto;
pub mod storage;
pub mod threaded;
pub mod trace;
pub mod transfer;

pub use endpoint::{EndpointId, EndpointSim};
pub use faas::FaasServiceModel;
pub use fault::FaultInjector;
pub use hardware::ClusterSpec;
pub use network::NetworkTopology;
pub use storage::DataStore;
pub use transfer::{TransferMechanism, TransferParams};
