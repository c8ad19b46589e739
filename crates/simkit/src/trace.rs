//! Zero-cost-when-disabled tracing: compact events, a ring-buffered sink,
//! and Perfetto / JSONL / counters exporters.
//!
//! The tracer is the observability substrate for the whole workspace: the
//! event engine, `fedci`, the runtimes, the data plane and the scheduler all
//! emit [`TraceEvent`]s into one [`Tracer`] owned by the run. Events are
//! *compact* — every string is interned once into a [`LabelId`] and events
//! carry only ids and integers — and *virtual-time stamped* with the
//! [`SimTime`] of the simulation clock (the live runtime stamps wall-clock
//! microseconds since run start instead).
//!
//! # Cost model
//!
//! A disabled tracer ([`Tracer::disabled`]) stores nothing: every emit
//! method checks [`Tracer::enabled`] first and returns immediately, so the
//! disabled path is a single branch on an already-resident bool. Hot call
//! sites that would need to *compute* arguments should guard on
//! `tracer.enabled()` themselves so the argument construction is skipped
//! too. The criterion bench `trace_span_pair_disabled` in
//! `crates/bench/benches/micro.rs` pins this down.
//!
//! An enabled tracer appends into a fixed-capacity ring buffer; when the
//! ring wraps, the oldest records are overwritten and counted in
//! [`Tracer::dropped`]. No allocation happens per event once labels are
//! interned and the ring is full-sized.
//!
//! # Span model
//!
//! Spans are *async* spans in the Chrome `trace_event` sense: a
//! [`TraceEvent::Begin`]/[`TraceEvent::End`] pair matched by `(name, id)`,
//! placed on a *track* (one track per endpoint, plus a client track). Spans
//! on the same track may overlap freely — there is no stack discipline —
//! which matches task lifecycles on a many-worker endpoint.
//!
//! # Exporters
//!
//! * [`Tracer::export_perfetto`] — Chrome/Perfetto `trace_event` JSON
//!   (open at <https://ui.perfetto.dev>): tracks become processes via
//!   `process_name` metadata, spans become `b`/`e` async events, instants
//!   become `i` events and counters become `C` events.
//! * [`Tracer::export_jsonl`] — one JSON object per line, labels resolved
//!   to strings; for machine consumption (jq, pandas).
//! * [`Tracer::counters_snapshot`] — plain-text `name value` lines for the
//!   final value of every counter plus record/drop totals.

use crate::time::SimTime;
use std::collections::HashMap;
use std::io::{self, Write};

/// How much the tracer records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceLevel {
    /// Record nothing; every emit is a no-op (the default).
    #[default]
    Off,
    /// Record spans and counters (task lifecycle, transfers) but not
    /// per-event instants or scheduler decision detail.
    Spans,
    /// Record everything, including per-sim-event instants and scheduler
    /// decision records.
    Full,
}

/// An interned label: an index into the tracer's string table.
///
/// Intern once (at setup), emit many times — emitting an event never
/// touches a string.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LabelId(pub u32);

/// One compact trace event. All payloads are ids/integers; strings live in
/// the tracer's intern table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// Async span begin, matched with [`TraceEvent::End`] by `(name, id)`.
    Begin {
        /// Span name (e.g. a task lifecycle state).
        name: LabelId,
        /// Track the span is displayed on (e.g. an endpoint).
        track: LabelId,
        /// Correlation id (e.g. the task id).
        id: u64,
    },
    /// Async span end.
    End {
        /// Span name; must match the begin.
        name: LabelId,
        /// Track the span is displayed on.
        track: LabelId,
        /// Correlation id; must match the begin.
        id: u64,
    },
    /// A point-in-time event with one integer argument.
    Instant {
        /// Event name.
        name: LabelId,
        /// Track the instant is displayed on.
        track: LabelId,
        /// Correlation id (e.g. task or transfer id).
        id: u64,
        /// Free-form integer argument (meaning depends on `name`).
        arg: i64,
    },
    /// A sample of a named counter's value.
    Counter {
        /// Counter name.
        name: LabelId,
        /// Sampled value.
        value: f64,
    },
}

/// A [`TraceEvent`] plus its virtual timestamp.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceRecord {
    /// Virtual time the event was emitted at.
    pub at: SimTime,
    /// The event payload.
    pub event: TraceEvent,
}

/// Ring-buffered trace sink with label interning.
///
/// See the [module docs](self) for the cost model and span semantics.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    level: TraceLevel,
    labels: Vec<String>,
    index: HashMap<String, LabelId>,
    ring: Vec<TraceRecord>,
    capacity: usize,
    /// Next write position in `ring` once the ring reached capacity.
    cursor: usize,
    wrapped: bool,
    dropped: u64,
    /// Final value per counter label (dense, indexed by `LabelId`; labels
    /// never used as counters just hold 0 and are skipped on export).
    counter_values: Vec<f64>,
    counter_labels: Vec<LabelId>,
}

/// Default ring capacity: 1 Mi records (~32 MiB) — enough for the full
/// lifecycle of ~100k tasks at `Spans` level.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 20;

impl Tracer {
    /// A disabled tracer: stores nothing, every emit is a cheap no-op.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// An enabled tracer recording at `level` into a ring of `capacity`
    /// records. A `capacity` of 0 or a level of [`TraceLevel::Off`]
    /// produces a disabled tracer.
    pub fn new(level: TraceLevel, capacity: usize) -> Tracer {
        if level == TraceLevel::Off || capacity == 0 {
            return Tracer::disabled();
        }
        Tracer {
            level,
            capacity,
            ..Tracer::default()
        }
    }

    /// True if *any* recording is happening. This is the fast path: hot
    /// call sites guard argument computation on it.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.level != TraceLevel::Off
    }

    /// True if the verbose tier ([`TraceLevel::Full`]) is active.
    #[inline(always)]
    pub fn full(&self) -> bool {
        self.level == TraceLevel::Full
    }

    /// Interns `label`, returning a stable id. Repeated calls with the
    /// same string return the same id. Works on disabled tracers too so
    /// setup code does not need to special-case them.
    pub fn intern(&mut self, label: &str) -> LabelId {
        if let Some(&id) = self.index.get(label) {
            return id;
        }
        let id = LabelId(self.labels.len() as u32);
        self.labels.push(label.to_string());
        self.index.insert(label.to_string(), id);
        if self.counter_values.len() < self.labels.len() {
            self.counter_values.resize(self.labels.len(), 0.0);
        }
        id
    }

    /// Resolves a label id back to its string.
    pub fn label(&self, id: LabelId) -> &str {
        &self.labels[id.0 as usize]
    }

    #[inline]
    fn push(&mut self, at: SimTime, event: TraceEvent) {
        if self.ring.len() < self.capacity {
            self.ring.push(TraceRecord { at, event });
        } else {
            self.ring[self.cursor] = TraceRecord { at, event };
            self.cursor = (self.cursor + 1) % self.capacity;
            self.wrapped = true;
            self.dropped += 1;
        }
    }

    /// Emits an async span begin. No-op when disabled.
    #[inline]
    pub fn begin(&mut self, at: SimTime, name: LabelId, track: LabelId, id: u64) {
        if !self.enabled() {
            return;
        }
        self.push(at, TraceEvent::Begin { name, track, id });
    }

    /// Emits an async span end. No-op when disabled.
    #[inline]
    pub fn end(&mut self, at: SimTime, name: LabelId, track: LabelId, id: u64) {
        if !self.enabled() {
            return;
        }
        self.push(at, TraceEvent::End { name, track, id });
    }

    /// Emits an instant event. No-op when disabled.
    #[inline]
    pub fn instant(&mut self, at: SimTime, name: LabelId, track: LabelId, id: u64, arg: i64) {
        if !self.enabled() {
            return;
        }
        self.push(
            at,
            TraceEvent::Instant {
                name,
                track,
                id,
                arg,
            },
        );
    }

    /// Sets the named counter to `value` and records a timeline sample.
    /// No-op when disabled.
    #[inline]
    pub fn counter(&mut self, at: SimTime, name: LabelId, value: f64) {
        if !self.enabled() {
            return;
        }
        if !self.counter_labels.contains(&name) {
            self.counter_labels.push(name);
        }
        self.counter_values[name.0 as usize] = value;
        self.push(at, TraceEvent::Counter { name, value });
    }

    /// Number of records currently held in the ring.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if no records are held.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Number of records overwritten because the ring wrapped.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates records oldest-first (accounting for ring wraparound).
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        let (tail, head) = if self.wrapped {
            self.ring.split_at(self.cursor)
        } else {
            self.ring.split_at(self.ring.len())
        };
        head.iter().chain(tail.iter())
    }

    /// Copies every record of `other` into this tracer, shifting each
    /// timestamp by `offset_us` (negative shifts clamp at zero). Labels
    /// are re-interned by string, so the two tracers need not share an
    /// intern table — this is the primitive the cross-process timeline
    /// merger builds on: per-daemon tracers recorded on their own
    /// monotonic clocks fold into one client-timeline tracer by passing
    /// each daemon's estimated clock offset.
    ///
    /// Records are appended in `other`'s oldest-first order; if the
    /// receiving ring overflows, its usual drop-oldest accounting
    /// applies. Counter final values merge by name (the shifted sample
    /// stream is replayed, so last-writer-wins per name as always).
    /// No-op when this tracer is disabled.
    pub fn merge_from(&mut self, other: &Tracer, offset_us: i64) {
        if !self.enabled() {
            return;
        }
        let mut map: HashMap<LabelId, LabelId> = HashMap::new();
        let mut remap = |this: &mut Tracer, id: LabelId| -> LabelId {
            if let Some(&m) = map.get(&id) {
                return m;
            }
            let m = this.intern(other.label(id));
            map.insert(id, m);
            m
        };
        let records: Vec<TraceRecord> = other.records().copied().collect();
        for rec in records {
            let at = SimTime::from_micros(
                (rec.at.as_micros() as i64).saturating_add(offset_us).max(0) as u64,
            );
            match rec.event {
                TraceEvent::Begin { name, track, id } => {
                    let (name, track) = (remap(self, name), remap(self, track));
                    self.begin(at, name, track, id);
                }
                TraceEvent::End { name, track, id } => {
                    let (name, track) = (remap(self, name), remap(self, track));
                    self.end(at, name, track, id);
                }
                TraceEvent::Instant {
                    name,
                    track,
                    id,
                    arg,
                } => {
                    let (name, track) = (remap(self, name), remap(self, track));
                    self.instant(at, name, track, id, arg);
                }
                TraceEvent::Counter { name, value } => {
                    let name = remap(self, name);
                    self.counter(at, name, value);
                }
            }
        }
    }

    /// Writes the trace as Chrome/Perfetto `trace_event` JSON.
    ///
    /// Each track becomes a "process" (named via `process_name` metadata),
    /// spans become `b`/`e` async events with the span name as category,
    /// instants become `i` events and counters become `C` events.
    /// Timestamps are virtual microseconds.
    pub fn export_perfetto<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut out = io::BufWriter::new(w);
        writeln!(out, "{{\"traceEvents\":[")?;
        let mut first = true;
        let sep = |out: &mut dyn Write, first: &mut bool| -> io::Result<()> {
            if *first {
                *first = false;
                Ok(())
            } else {
                writeln!(out, ",")
            }
        };
        // Tracks seen in the trace, in first-appearance order, each given a
        // synthetic pid and a process_name metadata record.
        let mut track_pid: HashMap<LabelId, u32> = HashMap::new();
        for rec in self.records() {
            if let Some(track) = match rec.event {
                TraceEvent::Begin { track, .. }
                | TraceEvent::End { track, .. }
                | TraceEvent::Instant { track, .. } => Some(track),
                TraceEvent::Counter { .. } => None,
            } {
                let next = track_pid.len() as u32 + 1;
                let pid = *track_pid.entry(track).or_insert(next);
                if pid == next {
                    sep(&mut out, &mut first)?;
                    write!(
                        out,
                        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                         \"args\":{{\"name\":{}}}}}",
                        pid,
                        json_string(self.label(track))
                    )?;
                }
            }
        }
        for rec in self.records() {
            let ts = rec.at.as_micros();
            sep(&mut out, &mut first)?;
            match rec.event {
                TraceEvent::Begin { name, track, id } | TraceEvent::End { name, track, id } => {
                    let ph = if matches!(rec.event, TraceEvent::Begin { .. }) {
                        "b"
                    } else {
                        "e"
                    };
                    write!(
                        out,
                        "{{\"cat\":{cat},\"name\":{cat},\"ph\":\"{ph}\",\"id\":{id},\
                         \"pid\":{pid},\"tid\":0,\"ts\":{ts}}}",
                        cat = json_string(self.label(name)),
                        pid = track_pid[&track],
                    )?;
                }
                TraceEvent::Instant {
                    name,
                    track,
                    id,
                    arg,
                } => {
                    write!(
                        out,
                        "{{\"name\":{},\"ph\":\"i\",\"s\":\"p\",\"pid\":{},\"tid\":0,\
                         \"ts\":{ts},\"args\":{{\"id\":{id},\"arg\":{arg}}}}}",
                        json_string(self.label(name)),
                        track_pid[&track],
                    )?;
                }
                TraceEvent::Counter { name, value } => {
                    write!(
                        out,
                        "{{\"name\":{},\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":{ts},\
                         \"args\":{{\"value\":{}}}}}",
                        json_string(self.label(name)),
                        json_f64(value),
                    )?;
                }
            }
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }

    /// Writes the trace as JSON Lines: one object per record, labels
    /// resolved to strings, timestamps in microseconds under `"t_us"`.
    pub fn export_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut out = io::BufWriter::new(w);
        for rec in self.records() {
            let ts = rec.at.as_micros();
            match rec.event {
                TraceEvent::Begin { name, track, id } | TraceEvent::End { name, track, id } => {
                    let kind = if matches!(rec.event, TraceEvent::Begin { .. }) {
                        "begin"
                    } else {
                        "end"
                    };
                    writeln!(
                        out,
                        "{{\"t_us\":{ts},\"kind\":\"{kind}\",\"name\":{},\"track\":{},\
                         \"id\":{id}}}",
                        json_string(self.label(name)),
                        json_string(self.label(track)),
                    )?;
                }
                TraceEvent::Instant {
                    name,
                    track,
                    id,
                    arg,
                } => {
                    writeln!(
                        out,
                        "{{\"t_us\":{ts},\"kind\":\"instant\",\"name\":{},\"track\":{},\
                         \"id\":{id},\"arg\":{arg}}}",
                        json_string(self.label(name)),
                        json_string(self.label(track)),
                    )?;
                }
                TraceEvent::Counter { name, value } => {
                    writeln!(
                        out,
                        "{{\"t_us\":{ts},\"kind\":\"counter\",\"name\":{},\"value\":{}}}",
                        json_string(self.label(name)),
                        json_f64(value),
                    )?;
                }
            }
        }
        out.flush()
    }

    /// A plain-text snapshot: one `name value` line per counter (in
    /// first-use order) plus `trace.records` / `trace.dropped` totals.
    pub fn counters_snapshot(&self) -> String {
        let mut s = String::new();
        for &name in &self.counter_labels {
            s.push_str(&format!(
                "{} {}\n",
                self.label(name),
                json_f64(self.counter_values[name.0 as usize])
            ));
        }
        s.push_str(&format!("trace.records {}\n", self.ring.len()));
        s.push_str(&format!("trace.dropped {}\n", self.dropped));
        s
    }
}

/// Encodes `s` as a JSON string literal (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an f64 as a JSON number (finite values only; non-finite become
/// `0`, which JSON cannot represent).
pub fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::disabled();
        assert!(!tr.enabled());
        let name = tr.intern("span");
        let track = tr.intern("ep0");
        tr.begin(t(1), name, track, 1);
        tr.end(t(2), name, track, 1);
        tr.instant(t(2), name, track, 1, 7);
        tr.counter(t(3), name, 4.0);
        assert!(tr.is_empty());
        assert_eq!(tr.dropped(), 0);
    }

    #[test]
    fn off_level_or_zero_capacity_disables() {
        assert!(!Tracer::new(TraceLevel::Off, 100).enabled());
        assert!(!Tracer::new(TraceLevel::Full, 0).enabled());
        assert!(Tracer::new(TraceLevel::Spans, 1).enabled());
    }

    #[test]
    fn interning_deduplicates() {
        let mut tr = Tracer::new(TraceLevel::Spans, 16);
        let a = tr.intern("alpha");
        let b = tr.intern("beta");
        assert_ne!(a, b);
        assert_eq!(tr.intern("alpha"), a);
        assert_eq!(tr.label(a), "alpha");
        assert_eq!(tr.label(b), "beta");
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let mut tr = Tracer::new(TraceLevel::Spans, 4);
        let name = tr.intern("n");
        let track = tr.intern("tr");
        for i in 0..6u64 {
            tr.instant(t(i), name, track, i, 0);
        }
        assert_eq!(tr.len(), 4);
        assert_eq!(tr.dropped(), 2);
        let ids: Vec<u64> = tr
            .records()
            .map(|r| match r.event {
                TraceEvent::Instant { id, .. } => id,
                _ => panic!("unexpected event"),
            })
            .collect();
        assert_eq!(ids, vec![2, 3, 4, 5], "oldest records dropped first");
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let mut tr = Tracer::new(TraceLevel::Spans, 16);
        let c = tr.intern("tasks.done");
        tr.counter(t(1), c, 1.0);
        tr.counter(t(2), c, 2.0);
        tr.counter(t(3), c, 10.0);
        let snap = tr.counters_snapshot();
        assert!(snap.contains("tasks.done 10"), "snapshot: {snap}");
        assert!(snap.contains("trace.records 3"));
        assert!(snap.contains("trace.dropped 0"));
    }

    #[test]
    fn perfetto_export_shape() {
        let mut tr = Tracer::new(TraceLevel::Full, 16);
        let stage = tr.intern("staging");
        let ep = tr.intern("Taiyi \"gpu\"");
        let c = tr.intern("busy");
        tr.begin(t(1), stage, ep, 42);
        tr.end(t(3), stage, ep, 42);
        tr.instant(t(3), stage, ep, 42, -1);
        tr.counter(t(4), c, 2.5);
        let mut buf = Vec::new();
        tr.export_perfetto(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("{\"traceEvents\":["));
        assert!(s.trim_end().ends_with("]}"));
        assert!(s.contains("\"process_name\""));
        assert!(s.contains("Taiyi \\\"gpu\\\""), "quotes escaped: {s}");
        assert!(s.contains("\"ph\":\"b\""));
        assert!(s.contains("\"ph\":\"e\""));
        assert!(s.contains("\"ph\":\"i\""));
        assert!(s.contains("\"ph\":\"C\""));
        assert!(s.contains("\"ts\":1000000"), "virtual micros: {s}");
        // Balanced braces — cheap structural sanity without a JSON parser.
        let open = s.matches('{').count();
        let close = s.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn jsonl_export_one_line_per_record() {
        let mut tr = Tracer::new(TraceLevel::Spans, 16);
        let n = tr.intern("xfer");
        let track = tr.intern("ep1");
        tr.begin(t(0), n, track, 7);
        tr.end(t(1), n, track, 7);
        tr.counter(t(1), n, 1.0);
        let mut buf = Vec::new();
        tr.export_jsonl(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"kind\":\"begin\""));
        assert!(lines[1].contains("\"kind\":\"end\""));
        assert!(lines[2].contains("\"kind\":\"counter\""));
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn merge_from_shifts_and_reinterns() {
        let mut daemon = Tracer::new(TraceLevel::Full, 16);
        let exec = daemon.intern("exec");
        let ep = daemon.intern("ep0");
        daemon.begin(SimTime::from_micros(100), exec, ep, 7);
        daemon.end(SimTime::from_micros(400), exec, ep, 7);

        let mut merged = Tracer::new(TraceLevel::Full, 16);
        // Give the receiver a colliding intern table: id numbers must not
        // be trusted across tracers.
        let other = merged.intern("something-else");
        assert_eq!(other.0, exec.0);
        // Daemon clock leads the client by 150 µs → shift records back;
        // the begin at 100 µs would go negative and clamps at zero.
        merged.merge_from(&daemon, -150);
        let recs: Vec<_> = merged.records().copied().collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].at.as_micros(), 0, "clamped, not underflowed");
        assert_eq!(recs[1].at.as_micros(), 250);
        match recs[0].event {
            TraceEvent::Begin { name, track, id } => {
                assert_eq!(merged.label(name), "exec");
                assert_eq!(merged.label(track), "ep0");
                assert_eq!(id, 7);
            }
            ref e => panic!("unexpected {e:?}"),
        }
        // Disabled receivers stay empty.
        let mut off = Tracer::disabled();
        off.merge_from(&daemon, 0);
        assert!(off.is_empty());
    }

    #[test]
    fn json_helpers() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_f64(2.0), "2");
        assert_eq!(json_f64(2.5), "2.5");
        assert_eq!(json_f64(f64::NAN), "0");
    }
}
