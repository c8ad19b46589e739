//! Error types for workflow execution.

use fedci::endpoint::EndpointId;
use std::fmt;
use taskgraph::TaskId;

/// Errors surfaced to the workflow submitter.
#[derive(Clone, Debug, PartialEq)]
pub enum UniFaasError {
    /// A task failed on every endpoint it was attempted on (after the
    /// configured retries), so the workflow cannot complete (§IV-G: "If it
    /// fails on all endpoints, UniFaaS returns an error message").
    TaskFailed {
        /// The failing task.
        task: TaskId,
        /// Endpoints it was attempted on, in order.
        attempts: Vec<EndpointId>,
    },
    /// A data transfer exhausted its retries; the dependent task is marked
    /// failed.
    TransferFailed {
        /// The task whose staging failed.
        task: TaskId,
        /// Destination endpoint of the failing transfer.
        dst: EndpointId,
        /// Retries attempted.
        retries: u32,
    },
    /// The configuration is invalid (e.g. no endpoints, or a home index out
    /// of range).
    InvalidConfig(String),
    /// The configuration has more endpoints than the simulator's data
    /// store can place replicas on.
    TooManyEndpoints {
        /// Endpoints configured, the implicit home included.
        endpoints: usize,
        /// The data store's limit.
        max: usize,
    },
    /// The run journal could not be created or sealed (unwritable path,
    /// disk full): an I/O failure, not a configuration error.
    Journal(String),
    /// A live-runtime function returned an application error.
    FunctionError {
        /// The failing task.
        task: TaskId,
        /// The error message the function produced.
        message: String,
    },
}

impl fmt::Display for UniFaasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UniFaasError::TaskFailed { task, attempts } => {
                write!(
                    f,
                    "task {task} failed on all attempted endpoints {attempts:?}"
                )
            }
            UniFaasError::TransferFailed { task, dst, retries } => {
                write!(
                    f,
                    "staging for task {task} to {dst} failed after {retries} retries"
                )
            }
            UniFaasError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            UniFaasError::TooManyEndpoints { endpoints, max } => write!(
                f,
                "invalid configuration: {endpoints} endpoints, the data store holds at most {max}"
            ),
            UniFaasError::Journal(msg) => write!(f, "journal: {msg}"),
            UniFaasError::FunctionError { task, message } => {
                write!(f, "task {task} returned an error: {message}")
            }
        }
    }
}

impl std::error::Error for UniFaasError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = UniFaasError::TaskFailed {
            task: TaskId(3),
            attempts: vec![EndpointId(0), EndpointId(1)],
        };
        assert!(e.to_string().contains("t3"));
        assert!(e.to_string().contains("failed on all"));

        let e = UniFaasError::InvalidConfig("no endpoints".into());
        assert!(e.to_string().contains("no endpoints"));

        let e = UniFaasError::TransferFailed {
            task: TaskId(1),
            dst: EndpointId(2),
            retries: 3,
        };
        assert!(e.to_string().contains("after 3 retries"));
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&UniFaasError::InvalidConfig("f".into()));
    }
}
