//! The *observe* stage: task and endpoint monitors (§IV-B).

mod endpoint_monitor;
pub mod health;
pub mod task_monitor;

pub use endpoint_monitor::{EndpointMonitor, MockEndpoint};
pub use health::{HealthMonitor, HealthPolicy, HealthState};
pub use task_monitor::{HistoryDb, TaskMonitor, TaskRecord};
