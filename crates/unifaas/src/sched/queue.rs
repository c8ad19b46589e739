//! Indexed per-endpoint delay queues for the DHA scheduler.
//!
//! The delay mechanism holds every staged-but-not-dispatched task in a
//! client-side queue ordered by descending Eq. 2 priority (FIFO among
//! ties). On the million-task stress DAG a quarter of a million tasks wait
//! at once and every task passes through a queue at least once, so each
//! operation is a few indexed loads and integer compares — nothing hashes:
//!
//! * one binary heap per endpoint, in a `Vec` indexed by endpoint id;
//! * a dense per-task slot (8 bytes, indexed by task id, the idiom DHA's
//!   other per-task state uses) holding the task's current push token and
//!   endpoint, token 0 meaning "not queued";
//! * heap entries that are a single `u128`: an order-preserving image of
//!   the priority, then the inverted push token (earlier push wins ties),
//!   then the task id — so the heap orders by one integer comparison.
//!
//! `push` / `pop` are O(log n). `remove` (fault retry, task stealing) is
//! O(1): the slot is cleared and the heap entry becomes a tombstone,
//! recognised on pop because its token no longer matches the slot, and
//! dropped in bulk by `BinaryHeap::retain` once tombstones outnumber live
//! entries.
//!
//! Entries are ordered by their priority *at push time*; a queued task is
//! never re-sorted when priorities are recomputed.

use fedci::endpoint::EndpointId;
use std::collections::BinaryHeap;
use taskgraph::TaskId;

/// Order-preserving `u64` image of a priority: `a < b` ⇔ `prio_key(a) <
/// prio_key(b)` for all non-NaN values, and −0.0 maps onto 0.0 (they
/// compare equal as floats, so they must tie here too). NaN has no place
/// in that order; it is a bug upstream (debug builds assert), and release
/// builds place it below −∞ so a NaN-priority task dispatches last.
fn prio_key(prio: f64) -> u64 {
    debug_assert!(!prio.is_nan(), "NaN task priority");
    if prio.is_nan() {
        return 0;
    }
    // `+ 0.0` folds −0.0 onto 0.0 and leaves every other value unchanged.
    let bits = (prio + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits // negative: larger magnitude sorts lower
    } else {
        bits | 1 << 63
    }
}

/// A heap entry: priority key, inverted token, task id, high to low bits.
fn entry(key: u64, token: u32, task: TaskId) -> u128 {
    (key as u128) << 64 | ((!token as u128) << 32) | task.0 as u128
}

fn entry_token(e: u128) -> u32 {
    !((e >> 32) as u32)
}

fn entry_task(e: u128) -> TaskId {
    TaskId(e as u32)
}

/// A task's slot value while queued on `ep` under `token` (never 0, since
/// tokens start at 1).
fn slot(token: u32, ep: EndpointId) -> u64 {
    (token as u64) << 16 | ep.0 as u64
}

fn slot_ep(s: u64) -> EndpointId {
    EndpointId(s as u16)
}

#[derive(Debug, Default)]
struct EpQueue {
    heap: BinaryHeap<u128>,
    /// Non-tombstone entries in `heap`.
    live: usize,
}

/// Priority-indexed delay queues, one per endpoint.
#[derive(Debug, Default)]
pub struct DelayQueues {
    /// Indexed by endpoint id.
    queues: Vec<EpQueue>,
    /// Indexed by task id: `slot(token, ep)` of the push that queued the
    /// task, 0 if it is not queued.
    slots: Vec<u64>,
    /// Queued tasks (non-zero slots).
    len: usize,
    /// The token of the latest push (0: none yet). Each push takes a fresh
    /// one, so a stale heap entry never matches its task's slot; push
    /// panics rather than reuse one after 2^32 − 1 pushes.
    last_token: u32,
}

impl DelayQueues {
    /// Creates empty queues.
    pub fn new() -> Self {
        DelayQueues::default()
    }

    /// Queues `task` on `ep` with the given priority. If the task is
    /// already queued (anywhere), it is moved.
    pub fn push(&mut self, task: TaskId, ep: EndpointId, prio: f64) {
        self.remove(task);
        self.last_token = self
            .last_token
            .checked_add(1)
            .expect("delay queue: 2^32 pushes");
        let token = self.last_token;
        if self.slots.len() <= task.index() {
            self.slots.resize(task.index() + 1, 0);
        }
        self.slots[task.index()] = slot(token, ep);
        self.len += 1;
        if self.queues.len() <= ep.index() {
            self.queues.resize_with(ep.index() + 1, EpQueue::default);
        }
        let q = &mut self.queues[ep.index()];
        q.heap.push(entry(prio_key(prio), token, task));
        q.live += 1;
    }

    /// Dequeues the highest-priority task waiting on `ep`, if any.
    pub fn pop(&mut self, ep: EndpointId) -> Option<TaskId> {
        let q = self.queues.get_mut(ep.index())?;
        while let Some(e) = q.heap.pop() {
            let task = entry_task(e);
            let s = &mut self.slots[task.index()];
            if *s == slot(entry_token(e), ep) {
                *s = 0;
                self.len -= 1;
                q.live -= 1;
                return Some(task);
            } // else a tombstone: removed or re-pushed since
        }
        None
    }

    /// Removes `task` from whichever queue holds it, in O(1); its heap
    /// entry becomes a tombstone. Returns the endpoint it waited on.
    pub fn remove(&mut self, task: TaskId) -> Option<EndpointId> {
        let s = self.slots.get_mut(task.index()).filter(|s| **s != 0)?;
        let ep = slot_ep(*s);
        *s = 0;
        self.len -= 1;
        let q = &mut self.queues[ep.index()];
        q.live -= 1;
        // Compact when tombstones dominate, keeping pop amortized
        // O(log live) instead of O(log pushes-ever).
        if q.heap.len() > 64 && q.heap.len() > 2 * q.live {
            let slots = &self.slots;
            q.heap
                .retain(|&e| slots[entry_task(e).index()] == slot(entry_token(e), ep));
            debug_assert_eq!(q.heap.len(), q.live);
        }
        Some(ep)
    }

    /// The endpoint `task` is queued on, if it is queued.
    pub fn position_of(&self, task: TaskId) -> Option<EndpointId> {
        match self.slots.get(task.index()) {
            Some(&s) if s != 0 => Some(slot_ep(s)),
            _ => None,
        }
    }

    /// True if no task waits on `ep`.
    pub fn is_empty_at(&self, ep: EndpointId) -> bool {
        self.queues.get(ep.index()).is_none_or(|q| q.live == 0)
    }

    /// Total queued tasks across all endpoints.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no task is queued anywhere.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All queued tasks and their endpoints, in task-id order.
    pub fn tasks(&self) -> impl Iterator<Item = (TaskId, EndpointId)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, &s)| s != 0)
            .map(|(t, &s)| (TaskId(t as u32), slot_ep(s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(i: u16) -> EndpointId {
        EndpointId(i)
    }
    fn t(i: u32) -> TaskId {
        TaskId(i)
    }

    #[test]
    fn pops_by_descending_priority() {
        let mut q = DelayQueues::new();
        q.push(t(1), ep(0), 1.0);
        q.push(t(2), ep(0), 3.0);
        q.push(t(3), ep(0), 2.0);
        assert_eq!(q.pop(ep(0)), Some(t(2)));
        assert_eq!(q.pop(ep(0)), Some(t(3)));
        assert_eq!(q.pop(ep(0)), Some(t(1)));
        assert_eq!(q.pop(ep(0)), None);
    }

    #[test]
    fn equal_priorities_pop_fifo() {
        let mut q = DelayQueues::new();
        for i in 0..50 {
            q.push(t(i), ep(0), 7.0);
        }
        for i in 0..50 {
            assert_eq!(q.pop(ep(0)), Some(t(i)));
        }
    }

    #[test]
    fn queues_are_per_endpoint() {
        let mut q = DelayQueues::new();
        q.push(t(1), ep(0), 1.0);
        q.push(t(2), ep(1), 9.0);
        assert_eq!(q.pop(ep(0)), Some(t(1)));
        assert_eq!(q.pop(ep(0)), None);
        assert_eq!(q.pop(ep(1)), Some(t(2)));
    }

    #[test]
    fn remove_skips_tombstones_on_pop() {
        let mut q = DelayQueues::new();
        q.push(t(1), ep(0), 5.0);
        q.push(t(2), ep(0), 4.0);
        assert_eq!(q.remove(t(1)), Some(ep(0)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(ep(0)), Some(t(2)));
        assert!(q.is_empty());
        assert_eq!(q.remove(t(1)), None, "double remove is a no-op");
    }

    #[test]
    fn re_push_moves_task_between_endpoints() {
        let mut q = DelayQueues::new();
        q.push(t(1), ep(0), 5.0);
        q.push(t(1), ep(1), 5.0); // steal: moved to ep1
        assert_eq!(q.position_of(t(1)), Some(ep(1)));
        assert_eq!(q.pop(ep(0)), None, "stale entry must not dispatch");
        assert_eq!(q.pop(ep(1)), Some(t(1)));
    }

    #[test]
    fn re_push_to_same_endpoint_keeps_one_entry() {
        let mut q = DelayQueues::new();
        q.push(t(1), ep(0), 5.0);
        q.push(t(1), ep(0), 1.0); // re-push with a new priority
        q.push(t(2), ep(0), 3.0);
        assert_eq!(q.len(), 2);
        // The re-push holds the fresh (lower) priority; the stale
        // higher-priority entry is a tombstone.
        assert_eq!(q.pop(ep(0)), Some(t(2)));
        assert_eq!(q.pop(ep(0)), Some(t(1)));
        assert_eq!(q.pop(ep(0)), None);
    }

    #[test]
    fn emptiness_tracks_live_entries_not_tombstones() {
        let mut q = DelayQueues::new();
        q.push(t(1), ep(0), 5.0);
        q.remove(t(1));
        assert!(q.is_empty_at(ep(0)));
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn compaction_keeps_only_live_entries() {
        let mut q = DelayQueues::new();
        for i in 0..500 {
            q.push(t(i), ep(0), i as f64);
        }
        for i in 0..400 {
            q.remove(t(i));
        }
        assert_eq!(q.len(), 100);
        assert!(
            q.queues[0].heap.len() <= 2 * 100 + 1,
            "tombstones compacted"
        );
        for i in (400..500).rev() {
            assert_eq!(q.pop(ep(0)), Some(t(i)));
        }
    }

    #[test]
    fn prio_key_is_strictly_monotone() {
        let mut sample = vec![
            f64::NEG_INFINITY,
            f64::MIN,
            -1e300,
            -2.5,
            -1.0,
            -f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE / 2.0, // subnormal
            -f64::from_bits(1),       // smallest negative subnormal
            0.0,
            f64::from_bits(1), // smallest positive subnormal
            f64::from_bits(2),
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
            1.0,
            1.0 + f64::EPSILON,
            3.75,
            1e300,
            f64::MAX,
            f64::INFINITY,
        ];
        sample.sort_by(f64::total_cmp);
        for w in sample.windows(2) {
            assert!(w[0] < w[1], "sample must be strictly increasing");
            assert!(
                prio_key(w[0]) < prio_key(w[1]),
                "prio_key({}) !< prio_key({})",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn negative_zero_ties_with_zero() {
        assert_eq!(prio_key(-0.0), prio_key(0.0));
        let mut q = DelayQueues::new();
        q.push(t(1), ep(0), 0.0);
        q.push(t(2), ep(0), -0.0);
        q.push(t(3), ep(0), 0.0);
        // One priority level: FIFO.
        assert_eq!(q.pop(ep(0)), Some(t(1)));
        assert_eq!(q.pop(ep(0)), Some(t(2)));
        assert_eq!(q.pop(ep(0)), Some(t(3)));
    }

    /// Release builds only: debug builds assert on a NaN priority.
    #[test]
    #[cfg(not(debug_assertions))]
    fn nan_sorts_below_negative_infinity() {
        assert_eq!(prio_key(f64::NAN), 0);
        assert_eq!(prio_key(-f64::NAN), 0);
        assert!(prio_key(f64::NAN) < prio_key(f64::NEG_INFINITY));
        let mut q = DelayQueues::new();
        q.push(t(1), ep(0), f64::NAN);
        q.push(t(2), ep(0), f64::NEG_INFINITY);
        q.push(t(3), ep(0), f64::NAN);
        assert_eq!(q.pop(ep(0)), Some(t(2)));
        assert_eq!(q.pop(ep(0)), Some(t(1)));
        assert_eq!(q.pop(ep(0)), Some(t(3)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "NaN task priority")]
    fn nan_priority_is_a_debug_assertion() {
        prio_key(f64::NAN);
    }

    #[test]
    fn max_endpoint_and_large_task_ids_round_trip() {
        let mut q = DelayQueues::new();
        let far = ep(u16::MAX);
        q.push(t(70_000), far, 2.0);
        q.push(t(1), ep(0), 1.0);
        assert_eq!(q.position_of(t(70_000)), Some(far));
        assert_eq!(
            q.tasks().collect::<Vec<_>>(),
            [(t(1), ep(0)), (t(70_000), far)]
        );
        assert_eq!(q.remove(t(70_000)), Some(far));
        q.push(t(70_000), far, 2.0);
        assert_eq!(q.pop(far), Some(t(70_000)));
        assert!(q.is_empty_at(far));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn entry_fields_round_trip() {
        let e = entry(prio_key(-3.5), 0xDEAD_BEEF, t(u32::MAX));
        assert_eq!((e >> 64) as u64, prio_key(-3.5));
        assert_eq!(entry_token(e), 0xDEAD_BEEF);
        assert_eq!(entry_task(e), t(u32::MAX));
    }
}
