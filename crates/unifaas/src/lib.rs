#![warn(missing_docs)]

//! # UniFaaS — federated function serving for scientific workflows
//!
//! A Rust implementation of *"UniFaaS: Programming across Distributed
//! Cyberinfrastructure with Federated Function Serving"* (IPDPS 2024).
//!
//! UniFaaS lets you compose a workflow as a dynamic task DAG and execute its
//! function tasks across a *federated resource pool* of heterogeneous
//! endpoints, with transparent wide-area data management and an
//! observe–predict–decide scheduling loop:
//!
//! * **observe** — the [`monitor`] module tracks task characteristics and
//!   endpoint state (via the paper's *local mocking mechanism*);
//! * **predict** — the [`profile`] module trains per-function random-forest
//!   execution models and polynomial transfer models;
//! * **decide** — the [`sched`] module maps ready tasks to endpoints with
//!   one of three algorithms: **Capacity** (offline, Eq. 1), **Locality**
//!   (real-time, minimum data movement) and **DHA** (hybrid
//!   heterogeneity-aware with delay scheduling and re-scheduling, Eq. 2).
//!
//! Two runtimes execute workflows:
//!
//! * [`runtime::sim`] — a deterministic discrete-event runtime over the
//!   `fedci` substrate, used to reproduce the paper's experiments at scale;
//! * [`runtime::fabric`] — the live runtime: real functions on real
//!   endpoints, in-process worker pools and TCP endpoint daemons alike,
//!   with [`runtime::typed`] functions (Listing 1) on top.
//!
//! ## Quickstart (simulated federation)
//!
//! ```
//! use unifaas::prelude::*;
//!
//! // Two endpoints: a fast cluster and a small lab machine.
//! let config = Config::builder()
//!     .endpoint(EndpointConfig::new("cluster", ClusterSpec::taiyi(), 8))
//!     .endpoint(EndpointConfig::new("lab", ClusterSpec::lab_cluster(), 2))
//!     .strategy(SchedulingStrategy::Dha { rescheduling: true })
//!     .build();
//!
//! // A tiny map-reduce style workflow.
//! let mut dag = Dag::new();
//! let f_map = dag.register_function("map");
//! let f_reduce = dag.register_function("reduce");
//! let maps: Vec<_> = (0..10)
//!     .map(|_| dag.add_task(TaskSpec::compute(f_map, 5.0).with_output_bytes(1 << 20), &[]))
//!     .collect();
//! dag.add_task(TaskSpec::compute(f_reduce, 2.0), &maps);
//!
//! let report = SimRuntime::new(config, dag).run().expect("workflow failed");
//! assert_eq!(report.tasks_completed, 11);
//! ```
//!
//! ## Quickstart (real functions, live fabric)
//!
//! ```
//! use fedci::fabric::{FabricTiming, ThreadedFabric};
//! use std::sync::Arc;
//! use unifaas::prelude::*;
//!
//! let fabric = ThreadedFabric::new(&[("cluster", 4), ("lab", 2)], &FabricTiming::default());
//! // Register functions (the `@function` decorator) ...
//! fabric.registry().register("square", typed(|x: u64| Ok(x * x)));
//! fabric.registry().register("sub", typed(|(a, b): (u64, u64)| Ok(a - b)));
//! let rt = FabricRuntime::new(Arc::new(fabric));
//!
//! // ... invoke them to get futures, and pass futures on as arguments:
//! // a function receives its dependencies' results first, then its own.
//! let nine = rt.call::<_, u64>("square", 3u64, &[]);
//! let five = rt.call::<_, u64>("sub", 4u64, &[&nine]);
//! assert_eq!(five.get().unwrap(), 5);
//! ```

pub mod config;
pub mod data;
pub mod error;
pub mod files;
pub mod flight;
pub mod metrics;
pub mod monitor;
pub mod obs;
pub mod profile;
pub mod runtime;
pub mod scaling;
pub mod sched;
pub mod trace;

/// Convenient glob import for applications.
pub mod prelude {
    pub use crate::config::{
        Config, ConfigBuilder, EndpointConfig, KnowledgeMode, SchedulingStrategy,
    };
    pub use crate::error::UniFaasError;
    pub use crate::files::{GlobusFile, RemoteDirectory, RemoteFile, RsyncFile};
    pub use crate::metrics::RunReport;
    pub use crate::runtime::fabric::{FabricRunStats, FabricRuntime, WireFuture};
    pub use crate::runtime::sim::SimRuntime;
    pub use crate::runtime::typed::{typed, Rest, TypedFuture, Wire};
    pub use crate::trace::{RunTrace, TraceConfig};
    pub use fedci::hardware::ClusterSpec;
    pub use fedci::transfer::TransferMechanism;
    pub use simkit::trace::TraceLevel;
    pub use taskgraph::{Dag, FunctionId, TaskId, TaskSpec};
}

pub use config::{Config, EndpointConfig, SchedulingStrategy};
pub use error::UniFaasError;
pub use metrics::RunReport;
pub use runtime::sim::SimRuntime;
