#![warn(missing_docs)]

//! `simkit` — a small, deterministic discrete-event simulation toolkit.
//!
//! This crate is the foundation of the UniFaaS reproduction: the federated
//! cyberinfrastructure substrate (`fedci`) and the UniFaaS runtime execute
//! against a virtual clock so that experiments spanning hours of simulated
//! wall time complete in milliseconds, bit-for-bit reproducibly.
//!
//! The toolkit provides:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual time,
//! * [`EventQueue`] — a total-order event queue with FIFO tie-breaking,
//! * [`Engine`] — a generic event loop driver,
//! * [`rng`] — seeded random number generation plus the statistical
//!   distributions the workload generators need (implemented in-crate so we
//!   do not depend on `rand_distr`),
//! * [`stats`] — online statistics (Welford mean, variance, min and max),
//! * [`series`] — time-series recorders used to regenerate the paper's
//!   figures.
//!
//! # Example
//!
//! ```
//! use simkit::{Engine, SimDuration, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Ping(u32) }
//!
//! let mut engine = Engine::new();
//! engine.schedule(SimTime::ZERO + SimDuration::from_secs_f64(1.5), Ev::Ping(7));
//! let mut seen = Vec::new();
//! engine.run(|now, ev, _eng| {
//!     match ev { Ev::Ping(x) => seen.push((now, x)) }
//! });
//! assert_eq!(seen, vec![(SimTime::from_secs_f64(1.5), 7)]);
//! ```

pub mod engine;
pub mod event;
pub mod journal;
pub mod metrics;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;
pub mod trace;

pub use engine::{Engine, EngineStats};
pub use event::{EventId, EventQueue};
pub use journal::{Journal, JournalRecord, JournalSummary, JournalWriter};
pub use metrics::{LogHistogram, MetricsRegistry, MetricsServer};
pub use rng::SimRng;
pub use series::TimeSeries;
pub use stats::OnlineStats;
pub use time::{SimDuration, SimTime};
pub use trace::{TraceLevel, Tracer};
