//! Workflow execution runtimes.
//!
//! The same framework components (schedulers, data manager, monitors,
//! profilers) run under two engines:
//!
//! * [`sim`] — a deterministic discrete-event runtime over virtual time,
//!   reproducing the paper's experiments at full scale in milliseconds;
//! * [`fabric`] — the live runtime: futures over any
//!   [`fedci::fabric::Fabric`] backend, in-process worker pools
//!   (`fedci::threaded`) and process-isolated TCP endpoint daemons
//!   (`fedci::process`) alike, with exactly-once retry and health
//!   machinery. [`typed`] is its typed-function veneer (Listing 1).

mod coord;
pub mod fabric;
pub(crate) mod record;
pub mod sim;
pub mod typed;

/// Lifecycle of a task, shared by both runtimes.
///
/// ```text
/// Waiting → Ready → Staging → Staged → Dispatched → Running
///                                                      ├→ AwaitResult → Done
///                                                      └→ (failure) → Ready (retry) | Failed
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskState {
    /// Dependencies incomplete.
    Waiting,
    /// All dependencies complete; scheduler notified.
    Ready,
    /// Target endpoint chosen; transfers in flight.
    Staging,
    /// All inputs present at the target; awaiting dispatch (DHA's delay
    /// queue lives here).
    Staged,
    /// Submitted; travelling to, or queued at, the endpoint.
    Dispatched,
    /// Executing on a worker.
    Running,
    /// Execution finished; result not yet observed by the client.
    AwaitResult,
    /// Completed successfully.
    Done,
    /// Permanently failed.
    Failed,
}
