//! The data manager (§IV-E): transparent wide-area staging.
//!
//! When the scheduler targets a task at an endpoint, the data manager
//! computes which input objects are missing there and moves them using the
//! configured mechanism. It implements:
//!
//! * **concurrency-limited queues** per endpoint pair — the mechanism's
//!   `max_concurrent` transfers run at once, each taking a fair bandwidth
//!   share; excess transfers queue FIFO;
//! * **deduplication** — a second task needing the same object at the same
//!   destination joins the in-flight transfer instead of re-sending;
//! * **replica-aware source selection** — objects are pulled from the
//!   replica with the fastest link to the destination;
//! * **retry** — failed transfers are retried up to a configurable number
//!   of times before the dependent tasks are failed (§IV-G);
//! * **accounting** — total bytes moved across endpoints (Table IV/V's
//!   "Transfer size" column).
//!
//! The manager is runtime-agnostic: methods return the set of transfers
//! that *started* (with completion times) and the runtime schedules the
//! completion events.

use fedci::endpoint::EndpointId;
use fedci::network::NetworkTopology;
use fedci::storage::{DataId, DataStore, SourceMemo};
use fedci::transfer::TransferParams;
use simkit::{SimDuration, SimTime};
use std::collections::VecDeque;
use taskgraph::TaskId;

/// Identifier of one transfer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct XferId(pub usize);

/// A transfer that just started; the runtime schedules its completion.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StartedXfer {
    /// The transfer.
    pub id: XferId,
    /// When it will complete.
    pub completes_at: SimTime,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum XferState {
    Queued,
    Active,
    Done,
    Failed,
}

#[derive(Debug)]
struct Xfer {
    object: DataId,
    src: EndpointId,
    dst: EndpointId,
    bytes: u64,
    attempts: u32,
    /// Replica count at source-choice time (trace rationale).
    replica_candidates: u32,
    interested: Vec<TaskId>,
    state: XferState,
    started_at: Option<SimTime>,
    /// The object's previous transfer (`XferId + 1`, 0 = none): the next
    /// link of its chain from `DataManager::latest`.
    prev: u32,
}

/// Snapshot of one transfer's metadata, for tracing and diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XferInfo {
    /// The object being moved.
    pub object: DataId,
    /// Chosen source replica.
    pub src: EndpointId,
    /// Destination endpoint.
    pub dst: EndpointId,
    /// Payload size.
    pub bytes: u64,
    /// 1-based attempt number (>1 after retries).
    pub attempt: u32,
    /// How many replicas the best-source choice considered.
    pub replica_candidates: u32,
}

#[derive(Default, Debug)]
struct PairState {
    active: usize,
    queue: VecDeque<XferId>,
}

/// Result of a staging request.
#[derive(Debug, PartialEq)]
pub struct StageRequest {
    /// Number of input objects not yet at the destination.
    pub missing: usize,
    /// Transfers that started right now.
    pub started: Vec<StartedXfer>,
}

/// Outcome of a transfer completion.
#[derive(Debug, Default)]
pub struct CompleteOutcome {
    /// Tasks whose staging status should be re-checked.
    pub tasks_to_check: Vec<TaskId>,
    /// Follow-up transfers that started (queued behind this one, or the
    /// retry of a failed attempt).
    pub started: Vec<StartedXfer>,
    /// Tasks that permanently failed because this transfer exhausted its
    /// retries.
    pub failed_tasks: Vec<TaskId>,
    /// Observation for the transfer profiler: `(src, dst, bytes, seconds)`.
    /// Present only for successful completions.
    pub observation: Option<(EndpointId, EndpointId, u64, f64)>,
}

/// Read-only view of per-pair transfer congestion, consumed by schedulers
/// whose predictions should account for queued work (DHA's
/// observe–predict–decide loop).
pub trait TransferLoad {
    /// Bytes queued or in flight from `src` to `dst`.
    fn backlog_bytes(&self, src: EndpointId, dst: EndpointId) -> u64;
}

/// A [`TransferLoad`] reporting an idle network (for tests and contexts
/// without a data manager).
pub struct NoTransferLoad;

impl TransferLoad for NoTransferLoad {
    fn backlog_bytes(&self, _src: EndpointId, _dst: EndpointId) -> u64 {
        0
    }
}

/// The data manager.
///
/// Per-pair state (`pairs`, `backlog`) lives in dense `n × n` tables
/// indexed by [`NetworkTopology::pair_id`], and the outstanding-transfer
/// count is a counter maintained at transfer state transitions — the
/// runtime's periodic ticks and the scheduler's per-candidate backlog
/// probes never scan the transfer log.
pub struct DataManager {
    /// Object location/size bookkeeping (public: schedulers read it through
    /// the context).
    pub store: DataStore,
    params: TransferParams,
    net: NetworkTopology,
    xfers: Vec<Xfer>,
    pairs: Vec<PairState>,
    /// Newest transfer of each object (`XferId + 1`, 0 = none), indexed by
    /// `DataId`; older ones chain through `Xfer::prev`. An object has at
    /// most one transfer in flight per destination, and a successful one
    /// leaves the object present there, so a chain holds about one
    /// transfer per endpoint plus any that failed for good.
    latest: Vec<u32>,
    backlog: Vec<u64>,
    /// Transfers currently Queued or Active; +1 on creation, −1 on the
    /// terminal Done/Failed transition (retries stay outstanding).
    outstanding: usize,
    /// Highest-bandwidth replica per (object, destination).
    best_src: SourceMemo,
    bytes_moved: u64,
    max_retries: u32,
}

impl TransferLoad for DataManager {
    fn backlog_bytes(&self, src: EndpointId, dst: EndpointId) -> u64 {
        self.backlog[self.net.pair_id(src, dst)]
    }
}

impl DataManager {
    /// Creates a data manager over the given network and mechanism.
    pub fn new(net: NetworkTopology, params: TransferParams, max_retries: u32) -> Self {
        let n = net.n_endpoints();
        DataManager {
            store: DataStore::new(),
            params,
            net,
            xfers: Vec::new(),
            pairs: (0..n * n).map(|_| PairState::default()).collect(),
            latest: Vec::new(),
            backlog: vec![0; n * n],
            outstanding: 0,
            best_src: SourceMemo::new(n),
            bytes_moved: 0,
            max_retries,
        }
    }

    /// Total bytes moved across endpoints so far.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Number of transfers currently active or queued. O(1): the counter is
    /// maintained at transfer state transitions and reconciled against a
    /// full scan in debug builds.
    pub fn transfers_outstanding(&self) -> usize {
        #[cfg(debug_assertions)]
        self.reconcile_counters();
        self.outstanding
    }

    /// Full-scan cross-check of the maintained counters: the outstanding
    /// count and every pair's backlog must equal what a scan of the
    /// transfer log derives. Debug builds only — this is the witness that
    /// the O(1) accessors never drift.
    #[cfg(debug_assertions)]
    fn reconcile_counters(&self) {
        let scanned = self
            .xfers
            .iter()
            .filter(|x| matches!(x.state, XferState::Queued | XferState::Active))
            .count();
        assert_eq!(
            self.outstanding, scanned,
            "outstanding counter drifted from transfer log"
        );
        let mut backlog = vec![0u64; self.backlog.len()];
        for x in &self.xfers {
            if matches!(x.state, XferState::Queued | XferState::Active) {
                backlog[self.net.pair_id(x.src, x.dst)] += x.bytes;
            }
        }
        assert_eq!(
            self.backlog, backlog,
            "per-pair backlog drifted from transfer log"
        );
    }

    /// Requests that all `inputs` of `task` become present at `dst`,
    /// starting transfers as needed. Objects already in flight to `dst`
    /// gain `task` as an interested party.
    pub fn request_stage(
        &mut self,
        task: TaskId,
        inputs: &[DataId],
        dst: EndpointId,
        now: SimTime,
    ) -> StageRequest {
        let mut started = Vec::new();
        let missing = self.request_stage_into(task, inputs, dst, now, &mut started);
        StageRequest { missing, started }
    }

    /// [`DataManager::request_stage`] with a caller-owned output buffer, so
    /// the runtime's staging hot path can reuse one scratch `Vec` instead
    /// of allocating per task. Returns the number of missing inputs;
    /// started transfers are appended to `out`.
    pub fn request_stage_into(
        &mut self,
        task: TaskId,
        inputs: &[DataId],
        dst: EndpointId,
        now: SimTime,
        out: &mut Vec<StartedXfer>,
    ) -> usize {
        let mut missing = 0;
        for &obj in inputs {
            if self.store.present_at(obj, dst) {
                continue;
            }
            missing += 1;
            if let Some(xid) = self.inflight(obj, dst) {
                let xfer = &mut self.xfers[xid.0];
                if !xfer.interested.contains(&task) {
                    xfer.interested.push(task);
                }
                continue;
            }
            let bytes = self.store.bytes(obj);
            let src = self.best_source(obj, dst);
            let replica_candidates = self.store.replicas(obj).count() as u32;
            let pid = self.net.pair_id(src, dst);
            let xid = XferId(self.xfers.len());
            let o = obj.0 as usize;
            if self.latest.len() <= o {
                self.latest.resize(o + 1, 0);
            }
            let link = u32::try_from(xid.0 + 1).expect("fewer than 2^32 transfers");
            let prev = std::mem::replace(&mut self.latest[o], link);
            self.xfers.push(Xfer {
                object: obj,
                src,
                dst,
                bytes,
                attempts: 0,
                replica_candidates,
                interested: vec![task],
                state: XferState::Queued,
                started_at: None,
                prev,
            });
            self.outstanding += 1;
            self.backlog[pid] += bytes;
            self.pairs[pid].queue.push_back(xid);
            self.pump_pair(pid, now, out);
        }
        missing
    }

    /// Metadata snapshot of a transfer (source-choice rationale for the
    /// trace layer).
    pub fn xfer_info(&self, id: XferId) -> XferInfo {
        let x = &self.xfers[id.0];
        XferInfo {
            object: x.object,
            src: x.src,
            dst: x.dst,
            bytes: x.bytes,
            attempt: x.attempts + 1,
            replica_candidates: x.replica_candidates,
        }
    }

    /// The transfer of `obj` to `dst` that is queued or active, if any.
    fn inflight(&self, obj: DataId, dst: EndpointId) -> Option<XferId> {
        let mut link = self.latest.get(obj.0 as usize).copied().unwrap_or(0);
        while link != 0 {
            let x = &self.xfers[link as usize - 1];
            if x.dst == dst && matches!(x.state, XferState::Queued | XferState::Active) {
                return Some(XferId(link as usize - 1));
            }
            link = x.prev;
        }
        None
    }

    /// Picks the replica with the fastest link to `dst`, memoized per
    /// `(object, dst)` until that object's replica set changes.
    fn best_source(&mut self, obj: DataId, dst: EndpointId) -> EndpointId {
        let (store, net) = (&self.store, &self.net);
        self.best_src.get_or_insert_with(store, obj, dst, || {
            store
                .replicas(obj)
                .max_by(|a, b| {
                    let ba = net.link(*a, dst).bandwidth_bps;
                    let bb = net.link(*b, dst).bandwidth_bps;
                    ba.partial_cmp(&bb)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(b.0.cmp(&a.0)) // tie → lower id
                })
                .expect("object has at least its home replica")
        })
    }

    /// Starts queued transfers on a pair while concurrency allows,
    /// appending them to `out`.
    fn pump_pair(&mut self, pid: usize, now: SimTime, out: &mut Vec<StartedXfer>) {
        let n = self.net.n_endpoints();
        let (src, dst) = (EndpointId((pid / n) as u16), EndpointId((pid % n) as u16));
        loop {
            let state = &mut self.pairs[pid];
            if state.active >= self.params.max_concurrent || state.queue.is_empty() {
                break;
            }
            let xid = state.queue.pop_front().expect("checked non-empty");
            state.active += 1;
            let active_now = state.active;
            let xfer = &mut self.xfers[xid.0];
            debug_assert_eq!(xfer.state, XferState::Queued);
            xfer.state = XferState::Active;
            xfer.started_at = Some(now);
            // Fair share: the link divided by the number of concurrently
            // active transfers on this pair at start time.
            let share = self.net.share_bps(src, dst, active_now);
            let dur = self.params.duration(xfer.bytes, share) + self.net.link(src, dst).latency;
            out.push(StartedXfer {
                id: xid,
                completes_at: now + dur,
            });
        }
    }

    /// Completes a transfer. `failed` is the fault injector's draw for this
    /// attempt.
    pub fn complete(&mut self, id: XferId, now: SimTime, failed: bool) -> CompleteOutcome {
        let (pair, obj, dst, bytes, attempts, started_at) = {
            let x = &self.xfers[id.0];
            debug_assert_eq!(x.state, XferState::Active);
            (
                (x.src, x.dst),
                x.object,
                x.dst,
                x.bytes,
                x.attempts,
                x.started_at,
            )
        };
        let pid = self.net.pair_id(pair.0, pair.1);
        self.pairs[pid].active -= 1;

        let mut out = CompleteOutcome::default();
        // A finished attempt (either way) leaves the pair's backlog, unless
        // it is requeued for retry below.
        self.backlog[pid] = self.backlog[pid].saturating_sub(bytes);
        // Bytes crossed the wire either way (a failed attempt still moved
        // data before dying; we count completed attempts conservatively,
        // i.e. only successes, to match the paper's "transfer size").
        if failed {
            let retry_allowed = attempts < self.max_retries;
            let x = &mut self.xfers[id.0];
            x.attempts += 1;
            if retry_allowed {
                x.state = XferState::Queued;
                x.started_at = None;
                self.backlog[pid] += bytes;
                self.pairs[pid].queue.push_back(id);
            } else {
                x.state = XferState::Failed;
                out.failed_tasks = x.interested.clone();
                self.outstanding -= 1;
            }
        } else {
            let x = &mut self.xfers[id.0];
            x.state = XferState::Done;
            out.tasks_to_check = x.interested.clone();
            self.outstanding -= 1;
            self.store.add_replica(obj, dst);
            self.bytes_moved += bytes;
            let dur = started_at
                .map(|t| now.saturating_since(t).as_secs_f64())
                .unwrap_or(0.0);
            out.observation = Some((pair.0, pair.1, bytes, dur));
        }
        self.pump_pair(pid, now, &mut out.started);
        out
    }

    /// Expected transfer duration for probing/testing: what a lone transfer
    /// of `bytes` on this pair would take.
    pub fn lone_transfer_duration(
        &self,
        bytes: u64,
        src: EndpointId,
        dst: EndpointId,
    ) -> SimDuration {
        let share = self.net.share_bps(src, dst, 1);
        self.params.duration(bytes, share) + self.net.link(src, dst).latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedci::network::Link;
    use fedci::transfer::TransferMechanism;
    use proptest::prelude::*;

    fn ep(i: u16) -> EndpointId {
        EndpointId(i)
    }

    fn dm() -> DataManager {
        DataManager::new(
            NetworkTopology::uniform(3, Link::wan()),
            TransferMechanism::Globus.default_params(),
            2,
        )
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn present_inputs_need_no_transfer() {
        let mut m = dm();
        m.store.register(DataId(1), 100, ep(1));
        let req = m.request_stage(TaskId(0), &[DataId(1)], ep(1), t(0));
        assert_eq!(req.missing, 0);
        assert!(req.started.is_empty());
    }

    #[test]
    fn missing_input_starts_transfer_and_completes() {
        let mut m = dm();
        m.store.register(DataId(1), 1 << 20, ep(0));
        let req = m.request_stage(TaskId(0), &[DataId(1)], ep(1), t(0));
        assert_eq!(req.missing, 1);
        assert_eq!(req.started.len(), 1);
        let sx = req.started[0];
        assert!(sx.completes_at > t(0));
        let out = m.complete(sx.id, sx.completes_at, false);
        assert_eq!(out.tasks_to_check, vec![TaskId(0)]);
        assert!(m.store.present_at(DataId(1), ep(1)));
        assert_eq!(m.bytes_moved(), 1 << 20);
        let (src, dst, bytes, secs) = out.observation.unwrap();
        assert_eq!((src, dst, bytes), (ep(0), ep(1), 1 << 20));
        assert!(secs > 0.0);
    }

    #[test]
    fn concurrent_transfers_queue_beyond_limit() {
        let mut m = dm(); // Globus: max_concurrent = 4
        for i in 0..6u64 {
            m.store.register(DataId(i), 1 << 20, ep(0));
        }
        let inputs: Vec<DataId> = (0..6).map(DataId).collect();
        let req = m.request_stage(TaskId(0), &inputs, ep(1), t(0));
        assert_eq!(req.missing, 6);
        assert_eq!(req.started.len(), 4, "only max_concurrent start");
        assert_eq!(m.transfers_outstanding(), 6);
        // Completing one lets the next start.
        let out = m.complete(req.started[0].id, req.started[0].completes_at, false);
        assert_eq!(out.started.len(), 1);
    }

    #[test]
    fn dedup_joins_inflight_transfer() {
        let mut m = dm();
        m.store.register(DataId(1), 1 << 20, ep(0));
        let r1 = m.request_stage(TaskId(0), &[DataId(1)], ep(1), t(0));
        assert_eq!(r1.started.len(), 1);
        let r2 = m.request_stage(TaskId(1), &[DataId(1)], ep(1), t(0));
        assert_eq!(r2.missing, 1);
        assert!(r2.started.is_empty(), "joined the in-flight transfer");
        let out = m.complete(r1.started[0].id, r1.started[0].completes_at, false);
        assert_eq!(out.tasks_to_check, vec![TaskId(0), TaskId(1)]);
        assert_eq!(m.bytes_moved(), 1 << 20, "moved once, not twice");
    }

    #[test]
    fn retry_then_success() {
        let mut m = dm(); // max_retries = 2
        m.store.register(DataId(1), 1 << 20, ep(0));
        let r = m.request_stage(TaskId(0), &[DataId(1)], ep(1), t(0));
        let x = r.started[0];
        // First attempt fails → retried immediately.
        let out = m.complete(x.id, x.completes_at, true);
        assert!(out.failed_tasks.is_empty());
        assert_eq!(out.started.len(), 1, "retry started");
        assert!(out.observation.is_none());
        // Second attempt succeeds.
        let x2 = out.started[0];
        let out2 = m.complete(x2.id, x2.completes_at, false);
        assert_eq!(out2.tasks_to_check, vec![TaskId(0)]);
    }

    #[test]
    fn retries_exhausted_fails_tasks() {
        let mut m = DataManager::new(
            NetworkTopology::uniform(2, Link::wan()),
            TransferMechanism::Globus.default_params(),
            1,
        );
        m.store.register(DataId(1), 1 << 20, ep(0));
        let r = m.request_stage(TaskId(0), &[DataId(1)], ep(1), t(0));
        let x = r.started[0];
        let out = m.complete(x.id, x.completes_at, true); // attempt 1 fails
        let x2 = out.started[0];
        let out2 = m.complete(x2.id, x2.completes_at, true); // retry fails
        assert_eq!(out2.failed_tasks, vec![TaskId(0)]);
        assert!(!m.store.present_at(DataId(1), ep(1)));
        assert_eq!(m.bytes_moved(), 0);
    }

    #[test]
    fn best_source_prefers_fast_link() {
        let mut net = NetworkTopology::uniform(3, Link::wan());
        net.set_link(ep(1), ep(2), Link::lan());
        let mut m = DataManager::new(net, TransferMechanism::Globus.default_params(), 0);
        m.store.register(DataId(1), 1 << 30, ep(0));
        m.store.add_replica(DataId(1), ep(1));
        // Staging to ep2: replica on ep1 has a LAN link, ep0 only WAN.
        let r = m.request_stage(TaskId(0), &[DataId(1)], ep(2), t(0));
        let x = r.started[0];
        // Verify via duration: the LAN is much faster than the WAN.
        let lan = m.lone_transfer_duration(1 << 30, ep(1), ep(2));
        assert_eq!(
            x.completes_at,
            t(0) + lan,
            "transfer should come from the LAN-linked replica"
        );
    }

    #[test]
    fn backlog_tracks_queued_and_inflight_bytes() {
        let mut m = dm();
        for i in 0..3u64 {
            m.store.register(DataId(i), 10 << 20, ep(0));
        }
        assert_eq!(m.backlog_bytes(ep(0), ep(1)), 0);
        let inputs: Vec<DataId> = (0..3).map(DataId).collect();
        let req = m.request_stage(TaskId(0), &inputs, ep(1), t(0));
        assert_eq!(m.backlog_bytes(ep(0), ep(1)), 30 << 20);
        assert_eq!(m.backlog_bytes(ep(1), ep(0)), 0, "directional");
        // Completing one transfer drains its bytes.
        let out = m.complete(req.started[0].id, req.started[0].completes_at, false);
        assert_eq!(m.backlog_bytes(ep(0), ep(1)), 20 << 20);
        let _ = out;
    }

    #[test]
    fn backlog_restored_on_retry() {
        let mut m = dm();
        m.store.register(DataId(1), 5 << 20, ep(0));
        let req = m.request_stage(TaskId(0), &[DataId(1)], ep(1), t(0));
        assert_eq!(m.backlog_bytes(ep(0), ep(1)), 5 << 20);
        // Failed attempt requeues: bytes stay on the pair.
        let out = m.complete(req.started[0].id, req.started[0].completes_at, true);
        assert_eq!(m.backlog_bytes(ep(0), ep(1)), 5 << 20);
        // Successful retry drains it.
        let out2 = m.complete(out.started[0].id, out.started[0].completes_at, false);
        assert_eq!(m.backlog_bytes(ep(0), ep(1)), 0);
        assert!(out2.observation.is_some());
    }

    #[test]
    fn no_transfer_load_reports_idle() {
        let l = NoTransferLoad;
        assert_eq!(l.backlog_bytes(ep(0), ep(1)), 0);
    }

    #[test]
    fn shared_bandwidth_slows_concurrent_starts() {
        let mut m = dm();
        m.store.register(DataId(1), 1 << 30, ep(0));
        m.store.register(DataId(2), 1 << 30, ep(0));
        let r1 = m.request_stage(TaskId(0), &[DataId(1)], ep(1), t(0));
        let r2 = m.request_stage(TaskId(1), &[DataId(2)], ep(1), t(0));
        // The second transfer sees 2 active → half the share → slower.
        assert!(r2.started[0].completes_at > r1.started[0].completes_at);
    }

    /// A replica mutation or a best-source query, for the memo test.
    #[derive(Clone, Debug)]
    enum MemoOp {
        Add { obj: u64, ep: u16 },
        Evict { obj: u64 },
        Query { obj: u64, dst: u16 },
    }

    const MEMO_EPS: u16 = 6;
    const MEMO_OBJS: u64 = 8;

    fn memo_op() -> impl Strategy<Value = MemoOp> {
        prop_oneof![
            (0..MEMO_OBJS, 0..MEMO_EPS).prop_map(|(obj, ep)| MemoOp::Add { obj, ep }),
            (0..MEMO_OBJS).prop_map(|obj| MemoOp::Evict { obj }),
            (0..MEMO_OBJS, 0..MEMO_EPS).prop_map(|(obj, dst)| MemoOp::Query { obj, dst }),
            (0..MEMO_OBJS, 0..MEMO_EPS).prop_map(|(obj, dst)| MemoOp::Query { obj, dst }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The memoized best source always equals a fresh argmax over the
        /// object's current replicas (highest bandwidth, ties to the lower
        /// id), whatever replica changes happened since it was memoized.
        #[test]
        fn best_source_memo_matches_an_uncached_argmax(
            bandwidths in proptest::collection::vec(1u8..5, 15..16),
            ops in proptest::collection::vec(memo_op(), 1..200),
        ) {
            let n = MEMO_EPS;
            let mut net = NetworkTopology::uniform(n as usize, Link::wan());
            let mut pairs = bandwidths.iter();
            for a in 0..n {
                for b in a + 1..n {
                    let bw = *pairs.next().expect("one per unordered pair");
                    let link = Link { bandwidth_bps: f64::from(bw) * 1e6, ..Link::wan() };
                    net.set_link(ep(a), ep(b), link);
                }
            }
            let mut m = DataManager::new(net.clone(), TransferMechanism::Globus.default_params(), 0);
            for o in 0..MEMO_OBJS {
                m.store.register(DataId(o), 1 << 20, ep(o as u16 % n));
            }
            for op in ops {
                match op {
                    MemoOp::Add { obj, ep } => m.store.add_replica(DataId(obj), EndpointId(ep)),
                    MemoOp::Evict { obj } => m.store.evict_non_home(DataId(obj)),
                    MemoOp::Query { obj, dst } => {
                        let (obj, dst) = (DataId(obj), ep(dst));
                        let mut want: Option<EndpointId> = None;
                        for e in (0..n).map(ep).filter(|e| m.store.present_at(obj, *e)) {
                            let bw = net.link(e, dst).bandwidth_bps;
                            if want.is_none_or(|w| bw > net.link(w, dst).bandwidth_bps) {
                                want = Some(e);
                            }
                        }
                        prop_assert_eq!(Some(m.best_source(obj, dst)), want);
                    }
                }
            }
        }
    }
}
