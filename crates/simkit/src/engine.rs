//! The simulation driver: pops events in time order and hands them to a
//! handler closure, which may schedule further events.
//!
//! There is one driver, [`Engine`], over one [`EventQueue`]. The queue's
//! backend is the calendar wheel by default or the reference binary heap
//! ([`Engine::new_reference`]); both deliver in the same `(time, seq)`
//! order, and the digest, journal and doctor gates compare one against the
//! other.

use crate::event::{EventId, EventQueue};
use crate::journal::{EventCode, JournalWriter};
use crate::time::{SimDuration, SimTime};

/// A journal installed on an engine: the writer plus the application's
/// event encoder. Boxed inside the engine so the disabled path costs one
/// pointer-null check per delivery.
struct JournalTap<E> {
    writer: JournalWriter,
    encode: fn(&E) -> EventCode,
}

impl<E> JournalTap<E> {
    #[inline]
    fn record(&mut self, at: SimTime, seq: u64, ev: &E) {
        let c = (self.encode)(ev);
        self.writer.append(at.as_micros(), seq, c.kind, c.a, c.b);
    }
}

/// A generic discrete-event simulation engine.
///
/// The engine owns the clock and the future-event list. The application
/// defines an event enum `E` and drives the simulation with [`Engine::run`]
/// (or [`Engine::run_until`] / [`Engine::step`] for finer control). The
/// handler receives `(now, event, &mut Engine)` so it can schedule follow-up
/// events.
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
    stats: EngineStats,
    journal: Option<Box<JournalTap<E>>>,
}

/// Cheap always-on engine counters, snapshotted into a trace at the end of
/// a run (see `simkit::trace`). Maintaining them is a handful of integer
/// ops per event, so they are not gated on a trace level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events scheduled over the engine's lifetime.
    pub scheduled: u64,
    /// Events cancelled before firing.
    pub cancelled: u64,
    /// High-water mark of the pending-event queue.
    pub max_pending: usize,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at [`SimTime::ZERO`], on the
    /// default calendar-wheel event queue.
    pub fn new() -> Self {
        Self::with_queue(EventQueue::new())
    }

    /// Creates an engine on the reference binary-heap event queue.
    /// Delivery order is identical to [`Engine::new`]; this exists so
    /// digest gates and benches can pin the wheel against the heap.
    pub fn new_reference() -> Self {
        Self::with_queue(EventQueue::new_reference_heap())
    }

    fn with_queue(queue: EventQueue<E>) -> Self {
        Engine {
            queue,
            now: SimTime::ZERO,
            processed: 0,
            stats: EngineStats::default(),
            journal: None,
        }
    }

    /// Installs a run journal: every delivered event is encoded via
    /// `encode` and appended to `writer`, stamped with its delivery time
    /// and sequence number. With no journal installed, delivery pays one
    /// pointer-null check.
    pub fn set_journal(&mut self, writer: JournalWriter, encode: fn(&E) -> EventCode) {
        self.journal = Some(Box::new(JournalTap { writer, encode }));
    }

    /// Removes and returns the installed journal writer (call
    /// [`JournalWriter::finish`] on it to seal the file).
    pub fn take_journal(&mut self) -> Option<JournalWriter> {
        self.journal.take().map(|t| t.writer)
    }

    /// Scheduling/cancellation counters and the queue high-water mark.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events delivered so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — scheduling into the past would break
    /// causality and always indicates a bug in the caller.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule event in the past (now={:?}, at={:?})",
            self.now,
            at
        );
        let id = self.queue.schedule(at, event);
        self.stats.scheduled += 1;
        self.stats.max_pending = self.stats.max_pending.max(self.queue.len());
        id
    }

    /// Schedules `event` after a relative delay.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> EventId {
        let at = self.now + delay;
        let id = self.queue.schedule(at, event);
        self.stats.scheduled += 1;
        self.stats.max_pending = self.stats.max_pending.max(self.queue.len());
        id
    }

    /// Cancels a pending event. Returns true if it had not yet fired.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let hit = self.queue.cancel(id);
        if hit {
            self.stats.cancelled += 1;
        }
        hit
    }

    /// Appends an application note (e.g. a scheduler decision) to the run
    /// journal, stamped with the current time and the sequence number of
    /// the event being handled. No-op when no journal is installed.
    pub fn journal_note(&mut self, kind: u16, a: u64, b: u64) {
        if let Some(j) = self.journal.as_deref_mut() {
            j.writer
                .append(self.now.as_micros(), self.processed, kind, a, b);
        }
    }

    /// Delivers the next event, advancing the clock, and returns false when
    /// the queue is empty.
    pub fn step<F: FnMut(SimTime, E, &mut Engine<E>)>(&mut self, handler: &mut F) -> bool {
        // Take the event out first so the handler can mutably borrow the
        // engine while we hold the payload.
        match self.queue.pop() {
            Some((at, ev)) => {
                debug_assert!(at >= self.now, "event queue returned out-of-order event");
                self.now = at;
                self.processed += 1;
                if let Some(j) = self.journal.as_deref_mut() {
                    j.record(at, self.processed, &ev);
                }
                handler(at, ev, self);
                true
            }
            None => false,
        }
    }

    /// Runs until the event queue drains.
    pub fn run<F: FnMut(SimTime, E, &mut Engine<E>)>(&mut self, mut handler: F) {
        while self.step(&mut handler) {}
    }

    /// Runs until the event queue drains or the clock passes `deadline`
    /// (events strictly after the deadline remain queued). Returns the
    /// number of events delivered.
    pub fn run_until<F: FnMut(SimTime, E, &mut Engine<E>)>(
        &mut self,
        deadline: SimTime,
        mut handler: F,
    ) -> u64 {
        let before = self.processed;
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            if !self.step(&mut handler) {
                break;
            }
        }
        // Advance the clock to the deadline even if the queue drained early,
        // so repeated run_until calls observe monotonic time.
        if self.now < deadline {
            self.now = deadline;
        }
        self.processed - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
        Chain(u32),
    }

    #[test]
    fn runs_events_in_order_and_advances_clock() {
        let mut eng = Engine::new();
        eng.schedule(SimTime::from_secs(2), Ev::Tick(2));
        eng.schedule(SimTime::from_secs(1), Ev::Tick(1));
        let mut order = Vec::new();
        eng.run(|now, ev, _| order.push((now, format!("{ev:?}"))));
        assert_eq!(order.len(), 2);
        assert_eq!(order[0].0, SimTime::from_secs(1));
        assert_eq!(order[1].0, SimTime::from_secs(2));
    }

    #[test]
    fn handler_can_schedule_followups() {
        let mut eng = Engine::new();
        eng.schedule(SimTime::ZERO, Ev::Chain(0));
        let mut count = 0u32;
        eng.run(|_, ev, eng| {
            if let Ev::Chain(n) = ev {
                count += 1;
                if n < 9 {
                    eng.schedule_after(SimDuration::from_secs(1), Ev::Chain(n + 1));
                }
            }
        });
        assert_eq!(count, 10);
        assert_eq!(eng.now(), SimTime::from_secs(9));
        assert_eq!(eng.processed(), 10);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut eng = Engine::new();
        for s in 1..=10 {
            eng.schedule(SimTime::from_secs(s), Ev::Tick(s as u32));
        }
        let n = eng.run_until(SimTime::from_secs(4), |_, _, _| {});
        assert_eq!(n, 4);
        assert_eq!(eng.pending(), 6);
        assert_eq!(eng.now(), SimTime::from_secs(4));
    }

    #[test]
    fn run_until_advances_clock_when_queue_drains() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.run_until(SimTime::from_secs(100), |_, _, _| {});
        assert_eq!(eng.now(), SimTime::from_secs(100));
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut eng = Engine::new();
        eng.schedule(SimTime::from_secs(5), Ev::Tick(1));
        eng.run(|_, _, eng| {
            eng.schedule(SimTime::from_secs(1), Ev::Tick(2));
        });
    }

    #[test]
    fn stats_track_schedules_cancels_and_high_water() {
        let mut eng = Engine::new();
        let a = eng.schedule(SimTime::from_secs(1), Ev::Tick(1));
        eng.schedule_after(SimDuration::from_secs(2), Ev::Tick(2));
        assert_eq!(eng.stats().scheduled, 2);
        assert_eq!(eng.stats().max_pending, 2);
        assert!(eng.cancel(a));
        assert!(!eng.cancel(a), "double cancel is not counted twice");
        assert_eq!(eng.stats().cancelled, 1);
        eng.run(|_, _, _| {});
        assert_eq!(eng.stats().max_pending, 2, "high-water mark persists");
    }

    #[test]
    fn cancellation_via_engine() {
        let mut eng = Engine::new();
        let id = eng.schedule(SimTime::from_secs(1), Ev::Tick(1));
        assert!(eng.cancel(id));
        let mut fired = false;
        eng.run(|_, _, _| fired = true);
        assert!(!fired);
    }

    /// xorshift — deterministic pseudo-random stream for the
    /// equivalence tests below.
    fn next_rand(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// Random traffic derived only from each event's tag: up to two
    /// follow-ups per event, and every fourth event cancels the oldest
    /// follow-up still remembered. Any divergence in delivery order
    /// diverges the log.
    struct Traffic {
        log: Vec<(SimTime, u32)>,
        cancellable: Vec<EventId>,
        budget: u32,
    }

    impl Traffic {
        fn run(mut eng: Engine<Ev>, seeds: u32) -> (Traffic, Engine<Ev>) {
            let mut s = 0x5eed_u64;
            for tag in 0..seeds {
                let at = SimTime::from_millis(next_rand(&mut s) % 5000);
                eng.schedule(at, Ev::Chain(tag));
            }
            let mut t = Traffic {
                log: Vec::new(),
                cancellable: Vec::new(),
                budget: 4000,
            };
            eng.run(|now, ev, eng| t.handle(now, ev, eng));
            (t, eng)
        }

        fn handle(&mut self, now: SimTime, ev: Ev, eng: &mut Engine<Ev>) {
            let Ev::Chain(tag) = ev else { return };
            self.log.push((now, tag));
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            let mut s = (tag as u64 ^ 0x9e37_79b9_7f4a_7c15).max(1);
            for _ in 0..next_rand(&mut s) % 3 {
                let d = SimDuration::from_millis(next_rand(&mut s) % 700);
                let id = eng.schedule(now + d, Ev::Chain(next_rand(&mut s) as u32));
                self.cancellable.push(id);
            }
            if tag % 4 == 0 && !self.cancellable.is_empty() {
                eng.cancel(self.cancellable.remove(0));
            }
        }
    }

    #[test]
    fn wheel_and_heap_engines_deliver_identically_under_cancels_and_followups() {
        let (wheel, weng) = Traffic::run(Engine::new(), 64);
        let (heap, heng) = Traffic::run(Engine::new_reference(), 64);
        assert_eq!(wheel.log, heap.log, "delivery order diverged");
        assert_eq!(weng.processed(), wheel.log.len() as u64);
        assert_eq!(weng.stats(), heng.stats());
        assert!(weng.stats().cancelled > 0, "the traffic must cancel");
        assert!(weng.stats().scheduled > 64, "the traffic must follow up");
    }

    #[test]
    fn journal_is_identical_across_engine_flavors() {
        use crate::journal::{EventCode, Journal, JournalWriter};

        fn encode(ev: &Ev) -> EventCode {
            match ev {
                Ev::Tick(t) => EventCode {
                    kind: 0,
                    a: *t as u64,
                    b: 0,
                },
                Ev::Chain(t) => EventCode {
                    kind: 1,
                    a: *t as u64,
                    b: 0,
                },
            }
        }

        let tmp = |name: &str| {
            let mut p = std::env::temp_dir();
            p.push(format!(
                "simkit-engine-journal-{}-{name}",
                std::process::id()
            ));
            p
        };
        let paths = [tmp("wheel"), tmp("heap")];
        let engines = [Engine::new(), Engine::new_reference()];
        let mut digests = Vec::new();
        for (path, mut eng) in paths.iter().zip(engines) {
            let writer = JournalWriter::create_with_chunk_records(path, 16).unwrap();
            eng.set_journal(writer, encode);
            let (_, mut eng) = Traffic::run(eng, 32);
            digests.push(eng.take_journal().unwrap().finish().unwrap());
        }
        assert_eq!(digests[0], digests[1], "wheel vs heap journal diverged");
        assert!(digests[0].records > 0);
        let j = Journal::open(&paths[0]).unwrap();
        assert!(j.clean_close());
        assert_eq!(j.total_records(), digests[0].records);
        for p in &paths {
            std::fs::remove_file(p).ok();
        }
    }
}
