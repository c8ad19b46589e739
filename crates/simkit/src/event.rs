//! The event queue: a priority queue over `(SimTime, sequence)` pairs.
//!
//! Events scheduled for the same instant are delivered in the order they were
//! scheduled (FIFO tie-breaking). This matters for determinism: the UniFaaS
//! scheduler frequently schedules several zero-delay follow-up events (e.g.
//! "data staged" immediately followed by "dispatch task") and relies on their
//! relative order being stable across runs.
//!
//! # Implementation
//!
//! Two pieces, both private to [`EventQueue`]:
//!
//! * an `EventSlab`: payloads live in a slot array recycled through a free
//!   list, so the steady-state schedule→deliver→recycle cycle allocates
//!   nothing once the run warms up. [`EventId`] packs `(generation, slot)`;
//!   the generation is bumped every time a slot is freed, which gives exact
//!   cancel semantics ("true exactly once while pending") without the
//!   monotonically growing `pending: Vec<bool>` side-table the old
//!   implementation leaked one bool per event into.
//! * an ordering core (`OrderCore`): either a two-rung hierarchical
//!   calendar wheel (the default — O(1) amortized insert and pop for the
//!   near-future events that dominate simulation traffic) or the original
//!   binary heap, kept as a selectable reference backend that every
//!   differential test and digest gate compares the wheel against.
//!
//! ## Wheel layout
//!
//! Rung 0 has 256 buckets of 2^16 µs (≈65 ms) each — a ≈16.8 s horizon.
//! Rung 1 has 256 buckets of 2^24 µs (≈16.8 s) each — a ≈71 min horizon.
//! A catch-all binary heap absorbs the two cases a bucket cannot hold:
//! events landing in the *current* bucket (zero-delay follow-ups; the heap
//! stays tiny because these drain within 65 ms of virtual time) and events
//! beyond the rung-1 horizon (rare long timers). `pop` is therefore always
//! `min(drain.last(), overlay.peek())`, where `drain` is the current
//! bucket's contents sorted once, descending, and popped from the tail.
//! Bucket vectors and the drain vector trade places via `mem::swap`, so
//! their capacities circulate instead of being reallocated.
//!
//! Ordering argument: a live entry sits in rung-0 bucket `b` only while
//! `cursor0 < b <= cursor0 + 256`, in rung-1 bucket `b1` only while
//! `cursor1 < b1 <= cursor1 + 256` (`cursor1 = cursor0 >> 8`), and rung-1
//! buckets cascade into rung 0 exactly when the cursor crosses into them —
//! so every live wheel entry is strictly later than every entry of the
//! current bucket, and the two-way `min` above is the global minimum.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Identifier of a scheduled event, usable for cancellation.
///
/// Packs a slab slot (low 32 bits) and that slot's generation at scheduling
/// time (high 32 bits), so slots can be recycled without a stale id ever
/// cancelling its successor.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

impl EventId {
    #[inline]
    fn pack(slot: u32, gen: u32) -> Self {
        EventId(((gen as u64) << 32) | slot as u64)
    }
    #[inline]
    fn slot(self) -> u32 {
        self.0 as u32
    }
    #[inline]
    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// One payload slot. `payload == None` means free (or cancelled/delivered).
struct Slot<E> {
    generation: u32,
    payload: Option<E>,
}

/// A slab of event payloads with free-list slot reuse.
///
/// The ordering cores store only copyable `(time, seq, slot, generation)`
/// keys, and liveness is decided here — a key whose generation no longer
/// matches its slot was cancelled (or belongs to a previous anchor epoch)
/// and is lazily skipped.
struct EventSlab<E> {
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
}

impl<E> EventSlab<E> {
    fn new() -> Self {
        EventSlab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores `payload`, reusing a free slot when one exists.
    fn insert(&mut self, payload: E) -> EventId {
        match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                debug_assert!(s.payload.is_none());
                s.payload = Some(payload);
                EventId::pack(slot, s.generation)
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(Slot {
                    generation: 0,
                    payload: Some(payload),
                });
                EventId::pack(slot, 0)
            }
        }
    }

    /// True while the `(slot, generation)` pair names a pending event.
    #[inline]
    fn is_live(&self, slot: u32, generation: u32) -> bool {
        match self.slots.get(slot as usize) {
            Some(s) => s.generation == generation && s.payload.is_some(),
            None => false,
        }
    }

    /// Frees a live slot and returns its payload. The generation bump makes
    /// every outstanding reference to this slot stale.
    fn take(&mut self, slot: u32) -> E {
        let s = &mut self.slots[slot as usize];
        s.generation = s.generation.wrapping_add(1);
        self.free.push(slot);
        s.payload.take().expect("take() on a free slot")
    }

    /// Cancels `id` if still pending, dropping its payload immediately.
    fn cancel(&mut self, id: EventId) -> bool {
        if self.is_live(id.slot(), id.generation()) {
            drop(self.take(id.slot()));
            true
        } else {
            false
        }
    }

    /// Number of slots ever allocated — bounded by the *concurrent* event
    /// high-water mark, not the lifetime event count (regression surface
    /// for the old monotone `pending` table).
    fn slot_capacity(&self) -> usize {
        self.slots.len()
    }
}

/// A pending-event key: everything the ordering cores need, payload-free
/// and `Copy` so heap sifts and bucket moves never touch the payload.
#[derive(Clone, Copy, Debug)]
struct Pending {
    at: u64,
    seq: u64,
    slot: u32,
    generation: u32,
}

impl Pending {
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other.key().cmp(&self.key())
    }
}

/// Rung-0 bucket width: 2^16 µs ≈ 65.5 ms.
const R0_BITS: u32 = 16;
/// Rung-1 bucket width: 2^24 µs ≈ 16.8 s.
const R1_BITS: u32 = 24;
/// Buckets per rung.
const RUNG: u64 = 256;
const RUNG_MASK: u64 = RUNG - 1;

/// Where the next event comes from, decided by [`Wheel::settle`].
enum Src {
    Drain,
    Overlay,
    Empty,
}

/// The two-rung calendar wheel. Holds only [`Pending`] keys; liveness is
/// checked against the slab, so cancelled entries are skipped lazily.
struct Wheel {
    /// Rung 0: bucket `b` (absolute index `at >> 16`) lives at `b & 255`
    /// while `cursor0 < b <= cursor0 + 256`.
    r0: Vec<Vec<Pending>>,
    /// Rung 1: bucket `b1` (absolute index `at >> 24`) lives at `b1 & 255`
    /// while `cursor1 < b1 <= cursor1 + 256`.
    r1: Vec<Vec<Pending>>,
    /// Contents of bucket `cursor0`, sorted descending by `(at, seq)` and
    /// popped from the tail.
    drain: Vec<Pending>,
    /// Catch-all heap: events at or before the current bucket (zero-delay
    /// follow-ups) and events beyond the rung-1 horizon.
    overlay: BinaryHeap<Pending>,
    /// Absolute rung-0 index of the bucket currently being drained.
    cursor0: u64,
    /// Entries (live or stale) currently resident in `r0` / `r1`.
    r0_count: usize,
    r1_count: usize,
}

impl Wheel {
    fn new() -> Self {
        Wheel {
            r0: (0..RUNG).map(|_| Vec::new()).collect(),
            r1: (0..RUNG).map(|_| Vec::new()).collect(),
            drain: Vec::new(),
            overlay: BinaryHeap::new(),
            cursor0: 0,
            r0_count: 0,
            r1_count: 0,
        }
    }

    /// Re-positions the cursor just before `at`'s bucket. Only legal while
    /// the queue holds no *live* events (stale cancelled keys may remain;
    /// they are skipped by generation checks wherever they resurface).
    fn re_anchor(&mut self, at: u64) {
        self.cursor0 = (at >> R0_BITS).saturating_sub(1);
    }

    fn insert(&mut self, p: Pending) {
        let b0 = p.at >> R0_BITS;
        if b0 <= self.cursor0 {
            // Current (or past — standalone queues may re-anchor) bucket:
            // must interleave with the partially drained bucket, so it goes
            // through the heap.
            self.overlay.push(p);
        } else if b0 - self.cursor0 <= RUNG {
            self.r0[(b0 & RUNG_MASK) as usize].push(p);
            self.r0_count += 1;
        } else {
            let b1 = p.at >> R1_BITS;
            let cursor1 = self.cursor0 >> 8;
            // `b0 > cursor0` already implies `b1 >= cursor1`, and
            // `b1 == cursor1` implies `b0 <= cursor0 + 255` (handled
            // above), so here `b1 > cursor1`: no underflow.
            if b1 - cursor1 <= RUNG {
                self.r1[(b1 & RUNG_MASK) as usize].push(p);
                self.r1_count += 1;
            } else {
                self.overlay.push(p);
            }
        }
    }

    /// Moves the rung-1 bucket the cursor just entered down into rung 0.
    /// Every live entry lands in the fresh window `[cursor0, cursor0+255]`;
    /// stale entries from an earlier anchor epoch are dropped here.
    fn cascade<E>(&mut self, slab: &EventSlab<E>) {
        let idx1 = ((self.cursor0 >> 8) & RUNG_MASK) as usize;
        while let Some(p) = self.r1[idx1].pop() {
            self.r1_count -= 1;
            if !slab.is_live(p.slot, p.generation) {
                continue;
            }
            let b0 = p.at >> R0_BITS;
            debug_assert!(b0 >= self.cursor0 && b0 < self.cursor0 + RUNG);
            self.r0[(b0 & RUNG_MASK) as usize].push(p);
            self.r0_count += 1;
        }
    }

    /// Advances the cursor to the next non-empty rung-0 bucket and swaps it
    /// into `drain` (sorted). No-op when both rungs are empty.
    fn refill<E>(&mut self, slab: &EventSlab<E>) {
        debug_assert!(self.drain.is_empty());
        while self.r0_count + self.r1_count > 0 {
            if self.r0_count == 0 {
                // Nothing left in rung 0: jump straight to the next cascade
                // boundary instead of stepping up to 255 empty buckets.
                self.cursor0 |= RUNG_MASK;
            }
            self.cursor0 += 1;
            if self.cursor0 & RUNG_MASK == 0 {
                self.cascade(slab);
            }
            let idx = (self.cursor0 & RUNG_MASK) as usize;
            if !self.r0[idx].is_empty() {
                // Swap, don't take: the drain's capacity rotates back into
                // the bucket, so steady state allocates nothing.
                std::mem::swap(&mut self.drain, &mut self.r0[idx]);
                self.r0_count -= self.drain.len();
                self.drain
                    .sort_unstable_by_key(|p| std::cmp::Reverse(p.key()));
                return;
            }
        }
    }

    /// Scrubs stale keys and positions the next live event at the drain
    /// tail or the overlay top, advancing the cursor as needed.
    fn settle<E>(&mut self, slab: &EventSlab<E>) -> Src {
        loop {
            while let Some(p) = self.drain.last() {
                if slab.is_live(p.slot, p.generation) {
                    break;
                }
                self.drain.pop();
            }
            while let Some(p) = self.overlay.peek() {
                if slab.is_live(p.slot, p.generation) {
                    break;
                }
                self.overlay.pop();
            }
            if self.drain.is_empty() && self.r0_count + self.r1_count > 0 {
                // The overlay head short-circuits a refill only when it
                // precedes everything the wheel can hold (current bucket or
                // earlier; wheel entries are strictly later).
                let overlay_first = self
                    .overlay
                    .peek()
                    .is_some_and(|p| p.at >> R0_BITS <= self.cursor0);
                if !overlay_first {
                    self.refill(slab);
                    continue; // freshly drained bucket may need scrubbing
                }
            }
            return match (self.drain.last(), self.overlay.peek()) {
                (Some(d), Some(o)) => {
                    if d.key() <= o.key() {
                        Src::Drain
                    } else {
                        Src::Overlay
                    }
                }
                (Some(_), None) => Src::Drain,
                (None, Some(_)) => Src::Overlay,
                (None, None) => Src::Empty,
            };
        }
    }
}

/// The ordering backend behind [`EventQueue`]: the calendar wheel by
/// default, or the original binary heap kept as the reference
/// implementation for differential tests and digest gates.
enum OrderCore {
    Wheel(Box<Wheel>),
    /// Reference backend: single binary heap over the same `Pending` keys.
    Heap(BinaryHeap<Pending>),
}

impl OrderCore {
    fn wheel() -> Self {
        OrderCore::Wheel(Box::new(Wheel::new()))
    }

    fn reference_heap() -> Self {
        OrderCore::Heap(BinaryHeap::new())
    }

    /// Must be called before inserting into a core that holds no live
    /// events (the caller tracks live counts); repositions the wheel so
    /// near-future inserts land in rung 0 again.
    fn re_anchor(&mut self, at: u64) {
        if let OrderCore::Wheel(w) = self {
            w.re_anchor(at);
        }
    }

    fn insert(&mut self, p: Pending) {
        match self {
            OrderCore::Wheel(w) => w.insert(p),
            OrderCore::Heap(h) => h.push(p),
        }
    }

    /// Key of the earliest live event, or `None`. Mutates only to scrub
    /// stale keys / rotate wheel buckets.
    fn peek_next<E>(&mut self, slab: &EventSlab<E>) -> Option<Pending> {
        match self {
            OrderCore::Wheel(w) => match w.settle(slab) {
                Src::Drain => w.drain.last().copied(),
                Src::Overlay => w.overlay.peek().copied(),
                Src::Empty => None,
            },
            OrderCore::Heap(h) => {
                while let Some(p) = h.peek() {
                    if slab.is_live(p.slot, p.generation) {
                        return Some(*p);
                    }
                    h.pop();
                }
                None
            }
        }
    }

    /// Removes and returns the earliest live key, or `None`.
    fn pop_next<E>(&mut self, slab: &EventSlab<E>) -> Option<Pending> {
        match self {
            OrderCore::Wheel(w) => match w.settle(slab) {
                Src::Drain => w.drain.pop(),
                Src::Overlay => w.overlay.pop(),
                Src::Empty => None,
            },
            OrderCore::Heap(h) => {
                while let Some(p) = h.pop() {
                    if slab.is_live(p.slot, p.generation) {
                        return Some(p);
                    }
                }
                None
            }
        }
    }
}

/// A deterministic future-event list.
///
/// O(1) amortized insertion and pop-min on the calendar-wheel backend
/// (O(log n) on the reference heap), O(1) cancellation (stale keys are
/// lazily skipped), and zero steady-state allocation: payload slots, bucket
/// vectors and the drain rotate through free lists instead of growing.
pub struct EventQueue<E> {
    slab: EventSlab<E>,
    core: OrderCore,
    next_seq: u64,
    len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue on the calendar-wheel backend.
    pub fn new() -> Self {
        Self::with_core(OrderCore::wheel())
    }

    /// Creates an empty queue on the reference binary-heap backend. Same
    /// semantics and delivery order as [`EventQueue::new`]; exists so
    /// differential tests and benches can compare the two.
    pub fn new_reference_heap() -> Self {
        Self::with_core(OrderCore::reference_heap())
    }

    fn with_core(core: OrderCore) -> Self {
        EventQueue {
            slab: EventSlab::new(),
            core,
            next_seq: 0,
            len: 0,
        }
    }

    /// Schedules `payload` for delivery at `at`. Returns an id that can be
    /// passed to [`EventQueue::cancel`].
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        if self.len == 0 {
            // Empty queue: the wheel may re-position its window (standalone
            // queues are allowed to schedule earlier than a past pop).
            self.core.re_anchor(at.as_micros());
        }
        let id = self.slab.insert(payload);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.core.insert(Pending {
            at: at.as_micros(),
            seq,
            slot: id.slot(),
            generation: id.generation(),
        });
        self.len += 1;
        id
    }

    /// Cancels a previously scheduled event. Returns true if the event was
    /// still pending (not yet delivered or cancelled).
    pub fn cancel(&mut self, id: EventId) -> bool {
        if self.slab.cancel(id) {
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Removes and returns the earliest pending event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let p = self.core.pop_next(&self.slab)?;
        let payload = self.slab.take(p.slot);
        self.len -= 1;
        Some((SimTime::from_micros(p.at), payload))
    }

    /// The delivery time of the earliest pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.core
            .peek_next(&self.slab)
            .map(|p| SimTime::from_micros(p.at))
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no pending events.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of payload slots ever allocated. Bounded by the concurrent
    /// pending high-water mark (slots are recycled), **not** by the
    /// lifetime event count — exposed so tests can pin that down.
    pub fn slot_capacity(&self) -> usize {
        self.slab.slot_capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Runs `f` against both backends.
    fn on_both(f: impl Fn(EventQueue<&'static str>)) {
        f(EventQueue::new());
        f(EventQueue::new_reference_heap());
    }

    #[test]
    fn pops_in_time_order() {
        on_both(|mut q| {
            q.schedule(t(5), "c");
            q.schedule(t(1), "a");
            q.schedule(t(3), "b");
            assert_eq!(q.pop(), Some((t(1), "a")));
            assert_eq!(q.pop(), Some((t(3), "b")));
            assert_eq!(q.pop(), Some((t(5), "c")));
            assert_eq!(q.pop(), None);
        });
    }

    #[test]
    fn fifo_tie_breaking_at_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(7), i)));
        }
    }

    #[test]
    fn cancellation_skips_events() {
        on_both(|mut q| {
            let a = q.schedule(t(1), "a");
            q.schedule(t(2), "b");
            assert_eq!(q.len(), 2);
            assert!(q.cancel(a));
            assert!(!q.cancel(a), "double-cancel must be a no-op");
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop(), Some((t(2), "b")));
            assert!(q.is_empty());
        });
    }

    #[test]
    fn cancel_after_delivery_returns_false() {
        on_both(|mut q| {
            let a = q.schedule(t(1), "a");
            assert_eq!(q.pop(), Some((t(1), "a")));
            assert!(!q.cancel(a));
        });
    }

    #[test]
    fn cancel_after_delivery_with_other_events_pending() {
        // Regression: cancelling an already-delivered event while other
        // events were still pending used to return true and corrupt `len`
        // (the old implementation inferred "delivered" from an empty
        // queue, which only worked when nothing else was scheduled).
        on_both(|mut q| {
            let a = q.schedule(t(1), "a");
            let _b = q.schedule(t(2), "b");
            assert_eq!(q.pop(), Some((t(1), "a")));
            assert_eq!(q.len(), 1);
            assert!(!q.cancel(a), "event a was already delivered");
            assert_eq!(q.len(), 1, "len must not change");
            assert_eq!(q.pop(), Some((t(2), "b")));
            assert!(q.is_empty());
        });
    }

    #[test]
    fn cancel_after_slot_reuse_returns_false() {
        // The slot freed by delivering `a` is recycled for `b`; the stale
        // id must not cancel the new occupant (generation check).
        on_both(|mut q| {
            let a = q.schedule(t(1), "a");
            assert_eq!(q.pop(), Some((t(1), "a")));
            let _b = q.schedule(t(2), "b");
            assert!(!q.cancel(a), "stale id must not cancel the reused slot");
            assert_eq!(q.pop(), Some((t(2), "b")));
        });
    }

    #[test]
    fn cancel_unknown_id_returns_false() {
        let mut q: EventQueue<&str> = EventQueue::new();
        assert!(!q.cancel(EventId(42)));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        on_both(|mut q| {
            let a = q.schedule(t(1), "a");
            q.schedule(t(2), "b");
            q.cancel(a);
            assert_eq!(q.peek_time(), Some(t(2)));
        });
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        assert_eq!(q.pop(), Some((t(10), 1)));
        q.schedule(t(5), 2);
        q.schedule(t(20), 3);
        assert_eq!(q.pop(), Some((t(5), 2)));
        q.schedule(t(15), 4);
        assert_eq!(q.pop(), Some((t(15), 4)));
        assert_eq!(q.pop(), Some((t(20), 3)));
    }

    #[test]
    fn wheel_handles_rung_boundaries_and_far_future() {
        // One event per interesting region: current bucket, rung 0, the
        // rung-0/rung-1 boundary, deep rung 1, beyond the rung-1 horizon.
        let us = SimTime::from_micros;
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        for (i, at) in [
            10u64,          // current bucket → overlay
            1 << 16,        // first rung-0 bucket
            (1 << 24) - 1,  // last rung-0 bucket
            1 << 24,        // first rung-1 bucket (cascades)
            (200u64) << 24, // deep rung 1
            (300u64) << 24, // beyond rung-1 horizon → overlay
            u64::MAX / 2,   // absurdly far
        ]
        .iter()
        .enumerate()
        {
            q.schedule(us(*at), i);
            expect.push((*at, i));
        }
        expect.sort();
        for (at, i) in expect {
            assert_eq!(q.pop(), Some((us(at), i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn wheel_same_timestamp_run_across_schedule_pop_interleaving() {
        // Same-instant events scheduled *while* the run is being popped
        // must still come out in seq order.
        let us = SimTime::from_micros;
        let mut q = EventQueue::new();
        q.schedule(us(1000), 0);
        q.schedule(us(1000), 1);
        assert_eq!(q.pop(), Some((us(1000), 0)));
        q.schedule(us(1000), 2); // lands in the current bucket → overlay
        q.schedule(us(1001), 3);
        assert_eq!(q.pop(), Some((us(1000), 1)));
        assert_eq!(q.pop(), Some((us(1000), 2)));
        assert_eq!(q.pop(), Some((us(1001), 3)));
    }

    #[test]
    fn slot_capacity_bounded_across_schedule_cancel_pop_cycles() {
        // Regression for the monotone `pending: Vec<bool>` side-table: a
        // long run of schedule/cancel/pop cycles must reuse slots, keeping
        // the slab bounded by the concurrent high-water mark (here 3).
        for mut q in [EventQueue::new(), EventQueue::new_reference_heap()] {
            for round in 0..10_000u64 {
                let base = SimTime::from_millis(round * 10);
                let a = q.schedule(base, 0u32);
                let b = q.schedule(base + crate::time::SimDuration::from_millis(1), 1);
                let _c = q.schedule(base + crate::time::SimDuration::from_millis(2), 2);
                assert!(q.cancel(a));
                assert_eq!(q.pop().map(|(_, v)| v), Some(1));
                assert!(!q.cancel(b), "b was delivered");
                assert_eq!(q.pop().map(|(_, v)| v), Some(2));
                assert!(q.is_empty());
            }
            assert!(
                q.slot_capacity() <= 3,
                "slab grew to {} slots over 10k cycles with ≤3 concurrent events",
                q.slot_capacity()
            );
        }
    }

    #[test]
    fn wheel_matches_reference_heap_on_mixed_traffic() {
        // Deterministic xorshift traffic: schedules at mixed horizons,
        // cancels a third of the ids, pops in bursts. Both backends must
        // produce the identical delivery sequence.
        fn next_rand(state: &mut u64) -> u64 {
            let mut x = *state;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *state = x;
            x
        }
        let mut wheel = EventQueue::new();
        let mut heap = EventQueue::new_reference_heap();
        let mut s = 0xdead_beef_u64;
        let mut now = 0u64;
        let mut ids = Vec::new();
        for _ in 0..50_000 {
            match next_rand(&mut s) % 10 {
                0..=5 => {
                    // horizons spanning all wheel regions
                    let d = match next_rand(&mut s) % 5 {
                        0 => next_rand(&mut s) % 100,       // same bucket
                        1 => next_rand(&mut s) % (1 << 20), // rung 0
                        2 => next_rand(&mut s) % (1 << 28), // rung 1
                        3 => next_rand(&mut s) % (1 << 34), // overflow
                        _ => 0,                             // zero-delay
                    };
                    let at = SimTime::from_micros(now + d);
                    let tag = next_rand(&mut s) as u32;
                    let iw = wheel.schedule(at, tag);
                    let ih = heap.schedule(at, tag);
                    ids.push((iw, ih));
                }
                6..=7 => {
                    if !ids.is_empty() {
                        let (iw, ih) = ids[(next_rand(&mut s) as usize) % ids.len()];
                        assert_eq!(wheel.cancel(iw), heap.cancel(ih));
                    }
                }
                _ => {
                    assert_eq!(wheel.peek_time(), heap.peek_time());
                    let a = wheel.pop();
                    let b = heap.pop();
                    assert_eq!(a, b);
                    if let Some((at, _)) = a {
                        now = at.as_micros();
                    }
                }
            }
            assert_eq!(wheel.len(), heap.len());
        }
        // drain the rest
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
