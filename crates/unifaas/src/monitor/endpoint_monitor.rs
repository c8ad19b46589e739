//! The endpoint monitor and its *local mocking mechanism* (§IV-B).
//!
//! Polling the FaaS service for endpoint status is slow (updates arrive
//! every minute) and loads the service. UniFaaS instead keeps a **mock
//! endpoint** per real endpoint: a client-side proxy updated synchronously
//! on every submit ("a mock task is pushed into the task queue of the mock
//! endpoint and the number of idle workers is decreased") and on every
//! result ("the mock task is popped"). The mocks are periodically
//! re-synchronized with ground truth so drift (capacity changes, preempted
//! tasks) is bounded by the sync interval.

use fedci::endpoint::EndpointId;

/// Client-side proxy of one endpoint's state.
#[derive(Clone, Debug)]
pub struct MockEndpoint {
    /// The real endpoint this mirrors.
    pub id: EndpointId,
    /// Label from the config.
    pub label: String,
    /// Believed provisioned workers.
    pub active_workers: usize,
    /// Mock task queue length: tasks submitted but whose results have not
    /// been observed yet (busy workers + in-flight dispatches + endpoint
    /// queue).
    pub outstanding_tasks: usize,
    /// Predicted seconds of work outstanding (used by DHA's
    /// earliest-finish-time estimate).
    pub outstanding_work_seconds: f64,
    /// Believed workers still waiting in the batch queue.
    pub pending_workers: usize,
    /// Cluster speed factor (cached from config for prediction).
    pub speed_factor: f64,
}

impl MockEndpoint {
    /// Creates a mock initialized from the real endpoint's startup state
    /// (the endpoint monitor "communicates with the funcX service to
    /// retrieve initial information").
    pub fn new(id: EndpointId, label: &str, active_workers: usize, speed_factor: f64) -> Self {
        MockEndpoint {
            id,
            label: label.to_string(),
            active_workers,
            outstanding_tasks: 0,
            outstanding_work_seconds: 0.0,
            pending_workers: 0,
            speed_factor,
        }
    }

    /// Believed idle workers (never negative).
    pub fn idle_workers(&self) -> usize {
        self.active_workers.saturating_sub(self.outstanding_tasks)
    }

    /// Push a mock task (called at dispatch time).
    pub fn push_task(&mut self, predicted_seconds: f64) {
        self.outstanding_tasks += 1;
        self.outstanding_work_seconds += predicted_seconds.max(0.0);
    }

    /// Pop a mock task (called when the result is observed).
    pub fn pop_task(&mut self, predicted_seconds: f64) {
        debug_assert!(self.outstanding_tasks > 0, "pop on empty mock queue");
        self.outstanding_tasks = self.outstanding_tasks.saturating_sub(1);
        self.outstanding_work_seconds =
            (self.outstanding_work_seconds - predicted_seconds.max(0.0)).max(0.0);
    }

    /// Re-synchronizes with ground truth (periodic sync with the service).
    pub fn sync(
        &mut self,
        active_workers: usize,
        outstanding_tasks: usize,
        pending_workers: usize,
    ) {
        self.active_workers = active_workers;
        self.outstanding_tasks = outstanding_tasks;
        self.pending_workers = pending_workers;
    }
}

/// The set of mock endpoints, indexed by endpoint id.
#[derive(Clone, Debug, Default)]
pub struct EndpointMonitor {
    mocks: Vec<MockEndpoint>,
}

impl EndpointMonitor {
    /// Creates a monitor over the given mocks (one per configured
    /// endpoint, in id order).
    pub fn new(mocks: Vec<MockEndpoint>) -> Self {
        for (i, m) in mocks.iter().enumerate() {
            assert_eq!(m.id.index(), i, "mocks must be in endpoint-id order");
        }
        EndpointMonitor { mocks }
    }

    /// Immutable view of one mock.
    pub fn mock(&self, id: EndpointId) -> &MockEndpoint {
        &self.mocks[id.index()]
    }

    /// Mutable view of one mock.
    pub fn mock_mut(&mut self, id: EndpointId) -> &mut MockEndpoint {
        &mut self.mocks[id.index()]
    }

    /// All mocks in id order.
    pub fn mocks(&self) -> &[MockEndpoint] {
        &self.mocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> EndpointMonitor {
        EndpointMonitor::new(vec![
            MockEndpoint::new(EndpointId(0), "a", 4, 1.0),
            MockEndpoint::new(EndpointId(1), "b", 2, 1.4),
        ])
    }

    #[test]
    fn push_pop_tracks_idle() {
        let mut m = monitor();
        assert_eq!(m.mock(EndpointId(0)).idle_workers(), 4);
        m.mock_mut(EndpointId(0)).push_task(10.0);
        m.mock_mut(EndpointId(0)).push_task(10.0);
        assert_eq!(m.mock(EndpointId(0)).idle_workers(), 2);
        assert_eq!(m.mock(EndpointId(0)).outstanding_work_seconds, 20.0);
        m.mock_mut(EndpointId(0)).pop_task(10.0);
        assert_eq!(m.mock(EndpointId(0)).idle_workers(), 3);
    }

    #[test]
    fn idle_never_negative() {
        let mut m = monitor();
        for _ in 0..10 {
            m.mock_mut(EndpointId(1)).push_task(1.0);
        }
        assert_eq!(m.mock(EndpointId(1)).idle_workers(), 0);
    }

    #[test]
    fn sync_corrects_drift() {
        let mut m = monitor();
        m.mock_mut(EndpointId(0)).push_task(5.0);
        // Real state: capacity shrank to 2, only 1 task outstanding.
        m.mock_mut(EndpointId(0)).sync(2, 1, 3);
        let mock = m.mock(EndpointId(0));
        assert_eq!(mock.active_workers, 2);
        assert_eq!(mock.outstanding_tasks, 1);
        assert_eq!(mock.pending_workers, 3);
        assert_eq!(mock.idle_workers(), 1);
    }

    #[test]
    #[should_panic(expected = "endpoint-id order")]
    fn out_of_order_mocks_panic() {
        EndpointMonitor::new(vec![MockEndpoint::new(EndpointId(1), "b", 1, 1.0)]);
    }
}
