//! Post-hoc trace analytics: critical-path extraction, stage attribution,
//! and flamegraph export over [`RunTrace`] lifecycle spans.
//!
//! The sim runtime emits one span per task lifecycle stage
//! (`ready → staging → staged → dispatched → queued → executing → polled`),
//! all with span id = task id, and the stages of one task tile its lifetime
//! with no gaps (every transition closes the previous span at the instant it
//! opens the next). Because a successor becomes `ready` at the *exact*
//! virtual instant its last predecessor's result is observed (the `polled`
//! span's end), chaining backwards from the task that finishes last yields a
//! contiguous critical path from `t = 0` whose per-stage durations sum to
//! the makespan — the attribution printed by `unifaas-sim --report`.
//!
//! The chain follows timestamps, not DAG edges (the trace does not record
//! edges): when several tasks finish at the picked instant, the lowest task
//! id is chosen deterministically. Any prefix that cannot be chained (ring
//! overwrote the oldest spans, or a task was injected mid-run) is reported
//! as `unattributed` rather than silently miscounted.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

use simkit::time::SimTime;
use simkit::trace::{LabelId, TraceEvent};

use crate::trace::RunTrace;

/// Task lifecycle stages, in pipeline order. Matches the span names the
/// sim runtime emits.
const LIFECYCLE_STAGES: [&str; 7] = [
    "ready",
    "staging",
    "staged",
    "dispatched",
    "queued",
    "executing",
    "polled",
];

/// Per-stage share of the critical path.
#[derive(Clone, Copy, Debug)]
pub struct StageAttribution {
    /// Stage name, one of the task lifecycle stages in pipeline order.
    pub stage: &'static str,
    /// Seconds spent in this stage along the critical path.
    pub seconds: f64,
}

/// The critical path through a run, with its makespan attribution.
#[derive(Clone, Debug)]
pub struct CriticalPath {
    /// Task ids along the path, in chronological order.
    pub tasks: Vec<u64>,
    /// End of the last task's `polled` span — the traced makespan.
    pub makespan_s: f64,
    /// Seconds per lifecycle stage along the path, in pipeline order.
    pub stages: Vec<StageAttribution>,
    /// Leading time that could not be chained to any traced task
    /// (dropped ring prefix or mid-run injection).
    pub unattributed_s: f64,
}

impl CriticalPath {
    /// Sum of the per-stage attributions (excluding `unattributed`).
    fn attributed_s(&self) -> f64 {
        self.stages.iter().map(|s| s.seconds).sum()
    }

    /// Renders the attribution as an aligned text table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "critical path: {} tasks, {:.3} s makespan\n",
            self.tasks.len(),
            self.makespan_s
        ));
        let denom = if self.makespan_s > 0.0 {
            self.makespan_s
        } else {
            1.0
        };
        for s in &self.stages {
            out.push_str(&format!(
                "  {:<12} {:>12.3} s  {:>5.1}%\n",
                s.stage,
                s.seconds,
                100.0 * s.seconds / denom
            ));
        }
        if self.unattributed_s > 0.0 {
            out.push_str(&format!(
                "  {:<12} {:>12.3} s  {:>5.1}%\n",
                "unattributed",
                self.unattributed_s,
                100.0 * self.unattributed_s / denom
            ));
        }
        out.push_str(&format!(
            "  {:<12} {:>12.3} s\n",
            "sum",
            self.attributed_s() + self.unattributed_s
        ));
        out
    }
}

struct Span {
    stage: usize,
    track: LabelId,
    id: u64,
    t0: SimTime,
    t1: SimTime,
}

/// A non-lifecycle span: (name, track, begin, end).
type OtherSpan = (LabelId, LabelId, SimTime, SimTime);

/// Matches Begin/End pairs in the trace ring into lifecycle spans.
/// Non-lifecycle spans (e.g. transfers) are returned separately keyed by
/// their interned name so the flamegraph can show them too.
fn extract_spans(trace: &RunTrace) -> (Vec<Span>, Vec<OtherSpan>) {
    // Memoize LabelId -> lifecycle stage index.
    let mut stage_of: HashMap<u32, Option<usize>> = HashMap::new();
    let mut classify = |name: LabelId| -> Option<usize> {
        *stage_of.entry(name.0).or_insert_with(|| {
            LIFECYCLE_STAGES
                .iter()
                .position(|s| *s == trace.tracer.label(name))
        })
    };
    let mut open: HashMap<(u32, u64), (LabelId, SimTime)> = HashMap::new();
    let mut lifecycle = Vec::new();
    let mut other = Vec::new();
    for rec in trace.tracer.records() {
        match rec.event {
            TraceEvent::Begin { name, track, id } => {
                open.insert((name.0, id), (track, rec.at));
            }
            TraceEvent::End { name, id, .. } => {
                let Some((track, t0)) = open.remove(&(name.0, id)) else {
                    continue; // begin fell off the ring
                };
                match classify(name) {
                    Some(stage) => lifecycle.push(Span {
                        stage,
                        track,
                        id,
                        t0,
                        t1: rec.at,
                    }),
                    None => other.push((name, track, t0, rec.at)),
                }
            }
            _ => {}
        }
    }
    (lifecycle, other)
}

#[derive(Default)]
struct TaskSpans {
    start: Option<SimTime>,
    polled_end: Option<SimTime>,
    per_stage: [f64; LIFECYCLE_STAGES.len()],
}

/// Extracts the critical path from a recorded trace. Returns `None` when
/// the trace holds no completed task lifecycles (e.g. tracing was off).
pub fn critical_path(trace: &RunTrace) -> Option<CriticalPath> {
    let (spans, _) = extract_spans(trace);
    let polled_idx = LIFECYCLE_STAGES.len() - 1;
    let mut tasks: HashMap<u64, TaskSpans> = HashMap::new();
    for s in &spans {
        let e = tasks.entry(s.id).or_default();
        e.start = Some(match e.start {
            Some(t) => t.min(s.t0),
            None => s.t0,
        });
        if s.stage == polled_idx {
            e.polled_end = Some(match e.polled_end {
                Some(t) => t.max(s.t1),
                None => s.t1,
            });
        }
        e.per_stage[s.stage] += s.t1.saturating_since(s.t0).as_secs_f64();
    }

    // Index completion instants for predecessor lookup.
    let mut by_polled_end: HashMap<u64, Vec<u64>> = HashMap::new();
    for (&id, t) in &tasks {
        if let Some(pe) = t.polled_end {
            by_polled_end.entry(pe.as_micros()).or_default().push(id);
        }
    }
    for ids in by_polled_end.values_mut() {
        ids.sort_unstable();
    }

    // The path ends at the task whose polled span ends last (ties: lowest
    // id, deterministically).
    let (&last_id, last) = tasks
        .iter()
        .filter(|(_, t)| t.polled_end.is_some())
        .max_by_key(|(&id, t)| (t.polled_end.unwrap(), std::cmp::Reverse(id)))?;
    let makespan_end = last.polled_end.unwrap();

    let mut path = vec![last_id];
    let mut stages = [0.0f64; LIFECYCLE_STAGES.len()];
    let mut cur = last_id;
    let mut unattributed_s = 0.0;
    loop {
        let t = &tasks[&cur];
        for (acc, s) in stages.iter_mut().zip(t.per_stage.iter()) {
            *acc += s;
        }
        let start = t.start.expect("chained task has spans");
        if start == SimTime::ZERO {
            break;
        }
        // Predecessor: a task whose result was observed at exactly this
        // task's first-ready instant (dependency resolution happens at the
        // same virtual time). Skip tasks already on the path (a zero-length
        // self-match is possible when spans are instantaneous).
        let pred = by_polled_end
            .get(&start.as_micros())
            .and_then(|ids| ids.iter().find(|id| !path.contains(id)))
            .copied();
        match pred {
            Some(p) => {
                path.push(p);
                cur = p;
            }
            None => {
                unattributed_s = start.as_secs_f64();
                break;
            }
        }
    }
    path.reverse();

    Some(CriticalPath {
        tasks: path,
        makespan_s: makespan_end.as_secs_f64(),
        stages: LIFECYCLE_STAGES
            .iter()
            .zip(stages.iter())
            .map(|(name, &seconds)| StageAttribution {
                stage: name,
                seconds,
            })
            .collect(),
        unattributed_s,
    })
}

/// Renders the whole trace as folded stacks (`frames... count` lines, one
/// stack per line, weight in microseconds) — the input format of standard
/// flamegraph renderers. Frames are `track;stage`; spans on the critical
/// path are additionally emitted under a `critical` root so the path is
/// visible as its own subtree.
fn flamegraph_folded(trace: &RunTrace) -> String {
    let (lifecycle, other) = extract_spans(trace);
    let on_path: std::collections::HashSet<u64> = critical_path(trace)
        .map(|cp| cp.tasks.into_iter().collect())
        .unwrap_or_default();

    // Aggregate by stack so renderers get pre-summed lines.
    let mut agg: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for s in &lifecycle {
        let us = s.t1.saturating_since(s.t0).as_micros();
        if us == 0 {
            continue;
        }
        let track = trace.tracer.label(s.track);
        let stage = LIFECYCLE_STAGES[s.stage];
        *agg.entry(format!("all;{track};{stage}")).or_insert(0) += us;
        if on_path.contains(&s.id) {
            *agg.entry(format!("critical;{track};{stage}")).or_insert(0) += us;
        }
    }
    for (name, track, t0, t1) in &other {
        let us = t1.saturating_since(*t0).as_micros();
        if us == 0 {
            continue;
        }
        let track = trace.tracer.label(*track);
        let name = trace.tracer.label(*name);
        *agg.entry(format!("all;{track};{name}")).or_insert(0) += us;
    }

    let mut out = String::new();
    for (stack, us) in agg {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&us.to_string());
        out.push('\n');
    }
    out
}

/// Writes the run as folded stacks (one line per stack, for
/// `flamegraph.pl`/inferno) to `path`.
pub fn write_flamegraph(trace: &RunTrace, path: &Path) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    f.write_all(flamegraph_folded(trace).as_bytes())
}

// ---------------------------------------------------------------------------
// Run-journal divergence doctor
// ---------------------------------------------------------------------------

use crate::runtime::record::DELIVERY_KINDS;
use simkit::journal::{Journal, JournalRecord, NOTE_KIND_FLAG};

/// Journal note kind: the scheduler decided to stage data for task `a`
/// toward endpoint `b`.
pub const NOTE_DECISION_STAGE: u16 = NOTE_KIND_FLAG | 1;
/// Journal note kind: the scheduler decided to dispatch task `a` to
/// endpoint `b`.
pub const NOTE_DECISION_DISPATCH: u16 = NOTE_KIND_FLAG | 2;

/// Human name for a journal record kind (delivery or note).
fn kind_name(kind: u16) -> &'static str {
    match kind {
        NOTE_DECISION_STAGE => "Decision:Stage",
        NOTE_DECISION_DISPATCH => "Decision:Dispatch",
        k if k & NOTE_KIND_FLAG != 0 => "Note:?",
        k => DELIVERY_KINDS.get(k as usize).map_or("Event:?", |d| d.name),
    }
}

/// The task id a journal record is about, when its kind carries one in
/// field `a` (staging checks, arrivals, completions, retries, timeouts,
/// and scheduler decision notes).
fn task_of(rec: &JournalRecord) -> Option<u64> {
    let task = match rec.kind {
        NOTE_DECISION_STAGE | NOTE_DECISION_DISPATCH => true,
        k => DELIVERY_KINDS.get(k as usize).is_some_and(|d| d.task),
    };
    task.then_some(rec.a)
}

/// One side of a divergence: the record (if that journal still has one at
/// the divergent index) paired with its global record index.
type IndexedRecord = (u64, JournalRecord);

/// Full context around the first divergent record of two journals.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Global index (0-based, over delivery + note records) of the first
    /// record on which the journals disagree.
    pub index: u64,
    /// The record journal A holds at [`index`](Divergence::index)
    /// (`None` when A ended first).
    pub a: Option<JournalRecord>,
    /// The record journal B holds at the same index (`None` when B ended
    /// first).
    pub b: Option<JournalRecord>,
    /// The records immediately preceding the divergence (shared prefix,
    /// taken from journal A), oldest first.
    pub preceding: Vec<IndexedRecord>,
    /// Journal A's records for the task owning the divergent record — its
    /// lifecycle span through the journal (capped).
    pub task_lifecycle: Vec<IndexedRecord>,
    /// The nearest scheduler decision note at or before the divergence
    /// concerning the owning task, from journal A.
    pub nearest_decision: Option<IndexedRecord>,
}

impl Divergence {
    /// True when neither journal contradicts the other: one simply ends
    /// where the other continues, and every record they share matched.
    /// This is the signature of a crash-truncated journal — a `kill -9`
    /// mid-run leaves a clean prefix of the surviving run, not a real
    /// divergence — and the doctor words its verdict accordingly.
    pub fn is_clean_prefix(&self) -> bool {
        self.a.is_none() != self.b.is_none()
    }

    /// How many records the two journals agree on before one ends or
    /// they differ.
    pub fn shared_records(&self) -> u64 {
        self.index
    }
}

/// Verdict of [`doctor`]: either the journals agree record for record, or
/// the first divergent record with its context.
#[derive(Clone, Debug)]
pub enum DoctorReport {
    /// The journals hold identical record streams.
    Identical {
        /// Records compared.
        records: u64,
        /// Shared final rolling digest.
        digest: u64,
    },
    /// The journals diverge; context localizes the first differing record.
    Diverged(Box<Divergence>),
}

impl DoctorReport {
    /// True when the verdict is [`DoctorReport::Identical`].
    pub fn is_identical(&self) -> bool {
        matches!(self, DoctorReport::Identical { .. })
    }
}

/// How many shared-prefix records to show before a divergence.
const PRECEDING_WINDOW: usize = 8;
/// Cap on lifecycle records collected for the owning task.
const LIFECYCLE_CAP: usize = 64;

/// Compares two run journals and localizes their first divergent record.
///
/// The rolling per-chunk digests are prefix digests (each covers every
/// record from the start of the journal), so when both journals use the
/// same chunk size the first divergent *chunk* is found by binary search —
/// O(log chunks) digest comparisons — and only that one chunk is decoded
/// record by record. Journals with different chunk sizes fall back to a
/// linear scan.
pub fn doctor(a: &Journal, b: &Journal) -> DoctorReport {
    if a.total_records() == b.total_records() && a.final_digest() == b.final_digest() {
        return DoctorReport::Identical {
            records: a.total_records(),
            digest: a.final_digest(),
        };
    }

    // Narrow to the first chunk whose prefix digest disagrees. The
    // predicate "digest differs at chunk k" is monotone in k (a prefix
    // digest covers everything before it), so binary search applies.
    let start = if a.chunk_records() == b.chunk_records() {
        let n = a.chunk_count().min(b.chunk_count());
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if a.chunk(mid).digest != b.chunk(mid).digest {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        if lo < n {
            a.chunk(lo).first_index
        } else if n > 0 {
            // All common chunks agree: the divergence is in the tail.
            let last = a.chunk(n - 1);
            last.first_index + last.records as u64
        } else {
            0
        }
    } else {
        0
    };

    // Record-by-record scan from the narrowed start.
    let mut ia = a.iter().skip(start as usize);
    let mut ib = b.iter().skip(start as usize);
    let mut index = start;
    let (rec_a, rec_b) = loop {
        match (ia.next(), ib.next()) {
            (Some(ra), Some(rb)) if ra == rb => index += 1,
            (None, None) => {
                // Same content despite differing summaries (e.g. one side
                // closed uncleanly after its last record): treat the
                // compared streams as identical.
                return DoctorReport::Identical {
                    records: index,
                    digest: a.final_digest(),
                };
            }
            (ra, rb) => break (ra, rb),
        }
    };

    // Context: one pass over journal A's shared prefix collects the
    // preceding window, the owning task's lifecycle, and the nearest
    // decision note.
    let owner = rec_a
        .as_ref()
        .and_then(task_of)
        .or_else(|| rec_b.as_ref().and_then(task_of));
    let mut preceding = Vec::new();
    let mut task_lifecycle = Vec::new();
    let mut nearest_decision = None;
    for (i, rec) in a.iter().enumerate() {
        let i = i as u64;
        if i < index {
            if i + (PRECEDING_WINDOW as u64) >= index {
                preceding.push((i, rec));
            }
            if owner == task_of(&rec) && owner.is_some() && rec.is_note() {
                nearest_decision = Some((i, rec));
            }
        }
        if owner.is_some() && task_of(&rec) == owner && task_lifecycle.len() < LIFECYCLE_CAP {
            task_lifecycle.push((i, rec));
        }
    }

    DoctorReport::Diverged(Box::new(Divergence {
        index,
        a: rec_a,
        b: rec_b,
        preceding,
        task_lifecycle,
        nearest_decision,
    }))
}

/// Rewrites the journal at `src` into `dst` with record `index`'s
/// timestamp bumped by one microsecond — the injected single-event
/// divergence used by the perturbation harness and CI's doctor smoke job.
/// Chunk digests and checksums are recomputed, so the output is a valid
/// journal that differs from the source in exactly one record.
pub fn perturb_journal(src: &Path, dst: &Path, index: u64) -> std::io::Result<()> {
    use simkit::journal::JournalWriter;
    let j = Journal::open(src)?;
    if index >= j.total_records() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "record index {index} out of range ({} records)",
                j.total_records()
            ),
        ));
    }
    let mut w = JournalWriter::create_with_chunk_records(dst, j.chunk_records())?;
    for (i, rec) in j.iter().enumerate() {
        let at = if i as u64 == index {
            rec.at_us + 1
        } else {
            rec.at_us
        };
        w.append(at, rec.seq, rec.kind, rec.a, rec.b);
    }
    w.finish()?;
    Ok(())
}

fn render_record(out: &mut String, idx: u64, rec: &JournalRecord) {
    out.push_str(&format!(
        "  #{idx:<8} t={:>14.6}s seq={:<8} {:<18} a={} b={}\n",
        rec.at_us as f64 / 1e6,
        rec.seq,
        kind_name(rec.kind),
        rec.a,
        rec.b
    ));
}

/// Renders a [`DoctorReport`] as the human diagnosis `unifaas-sim doctor`
/// prints.
pub fn render_doctor(report: &DoctorReport) -> String {
    let mut out = String::new();
    match report {
        DoctorReport::Identical { records, digest } => {
            out.push_str(&format!(
                "journals identical: {records} records, digest {digest:#018x}\n"
            ));
        }
        DoctorReport::Diverged(d) => {
            if d.is_clean_prefix() {
                let (short, long) = if d.a.is_none() {
                    ("A", "B")
                } else {
                    ("B", "A")
                };
                out.push_str(&format!(
                    "journal {short} is a CLEAN PREFIX of journal {long}: first {} records \
                     identical, then {short} ends (truncated run — crash or kill, not a \
                     divergence)\n",
                    d.index
                ));
            } else {
                out.push_str(&format!("journals DIVERGE at record #{}\n", d.index));
            }
            match (&d.a, &d.b) {
                (Some(ra), Some(rb)) => {
                    out.push_str("journal A:\n");
                    render_record(&mut out, d.index, ra);
                    out.push_str("journal B:\n");
                    render_record(&mut out, d.index, rb);
                }
                (Some(ra), None) => {
                    out.push_str("journal B ends here; journal A continues with:\n");
                    render_record(&mut out, d.index, ra);
                }
                (None, Some(rb)) => {
                    out.push_str("journal A ends here; journal B continues with:\n");
                    render_record(&mut out, d.index, rb);
                }
                (None, None) => {}
            }
            if !d.preceding.is_empty() {
                out.push_str("shared prefix before divergence:\n");
                for (i, rec) in &d.preceding {
                    render_record(&mut out, *i, rec);
                }
            }
            if let Some((i, rec)) = &d.nearest_decision {
                out.push_str("nearest scheduler decision for the owning task:\n");
                render_record(&mut out, *i, rec);
            }
            if !d.task_lifecycle.is_empty() {
                out.push_str("owning task's lifecycle in journal A:\n");
                for (i, rec) in &d.task_lifecycle {
                    render_record(&mut out, *i, rec);
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Federated observability: cross-process timeline merge
// ---------------------------------------------------------------------------

use fedci::clock::ClockEstimate;
use fedci::process::EndpointTelemetry;
use fedci::proto::{
    TEL_STAGE_CHAOS_DELAY, TEL_STAGE_CHAOS_SWALLOW, TEL_STAGE_EXEC_BEGIN, TEL_STAGE_EXEC_END,
    TEL_STAGE_RECV, TEL_STAGE_SENT,
};
use simkit::trace::{TraceLevel, Tracer};

/// Ring capacity of the merged cross-process timeline: the client trace
/// plus every daemon's telemetry for a large chaos run.
const MERGED_TRACE_CAPACITY: usize = 1 << 21;

/// Clock estimate for one daemon generation, if a heartbeat round trip
/// ever completed for it.
fn clock_for(ep: &EndpointTelemetry, generation: u64) -> Option<&ClockEstimate> {
    ep.clocks
        .iter()
        .find(|(g, _)| *g == generation)
        .map(|(_, e)| e)
}

/// Maps a daemon-clock stamp onto the client timeline. Without an
/// estimate the raw daemon time is kept — the events still render, on a
/// track whose label says the clock is unsynced.
fn map_stamp(est: Option<&ClockEstimate>, t_us: u64) -> SimTime {
    match est {
        Some(e) => SimTime::from_micros(e.to_client_us(t_us).max(0) as u64),
        None => SimTime::from_micros(t_us),
    }
}

/// Span correlation id for one attempt — same layout the client runtime
/// uses, so daemon spans and client spans of the same attempt correlate.
fn span_id(task: u64, attempt: u32) -> u64 {
    (task << 32) | u64::from(attempt)
}

/// Merges the client trace and every endpoint's daemon telemetry into one
/// timeline, all timestamps in microseconds since the fabric's clock
/// epoch.
///
/// Each daemon generation gets its own track, labelled with the endpoint
/// name and the clock mapping applied to it — `offset ±uncertainty` when
/// that generation completed a heartbeat round trip, `clock unsynced`
/// otherwise (its stamps stay on the daemon's own clock). Daemon events
/// become `d.queued` (RECV → EXEC_BEGIN) and `d.exec`
/// (EXEC_BEGIN → EXEC_END) spans plus `d.recv` / `d.sent` / chaos
/// instants; attempts truncated by a crash leave their spans open, which
/// Perfetto renders as unfinished — exactly what a SIGKILL looks like.
/// Export with [`Tracer::export_perfetto`].
pub fn merge_process_timeline(client: Option<&Tracer>, eps: &[EndpointTelemetry]) -> Tracer {
    let mut out = Tracer::new(TraceLevel::Full, MERGED_TRACE_CAPACITY);
    if let Some(c) = client {
        out.merge_from(c, 0);
    }
    for ep in eps {
        merge_endpoint(&mut out, ep);
    }
    out
}

fn merge_endpoint(out: &mut Tracer, ep: &EndpointTelemetry) {
    let queued = out.intern("d.queued");
    let exec = out.intern("d.exec");
    let recv = out.intern("d.recv");
    let sent = out.intern("d.sent");
    let swallow = out.intern("d.chaos.swallow");
    let delay = out.intern("d.chaos.delay");
    let other = out.intern("d.event");
    let depth = out.intern(&format!("d.queue_depth/{}", ep.endpoint));

    let mut track_of: HashMap<u64, LabelId> = HashMap::new();
    let mut open_recv: HashMap<(u64, u64, u32), SimTime> = HashMap::new();
    let mut open_exec: HashMap<(u64, u64, u32), SimTime> = HashMap::new();
    for &(generation, ev) in &ep.events {
        let est = clock_for(ep, generation);
        let track = *track_of.entry(generation).or_insert_with(|| {
            let label = match est {
                Some(e) => format!(
                    "{} gen{} (offset {:+} µs ±{} µs)",
                    ep.endpoint, generation, e.offset_us, e.uncertainty_us
                ),
                None => format!("{} gen{} (clock unsynced)", ep.endpoint, generation),
            };
            out.intern(&label)
        });
        let at = map_stamp(est, ev.t_us);
        let key = (generation, ev.task, ev.attempt);
        let sid = span_id(ev.task, ev.attempt);
        match ev.stage {
            TEL_STAGE_RECV => {
                out.begin(at, queued, track, sid);
                open_recv.insert(key, at);
                out.instant(at, recv, track, ev.task, ev.arg as i64);
                out.counter(at, depth, ev.arg as f64);
            }
            TEL_STAGE_EXEC_BEGIN => {
                if open_recv.remove(&key).is_some() {
                    out.end(at, queued, track, sid);
                }
                out.begin(at, exec, track, sid);
                open_exec.insert(key, at);
            }
            TEL_STAGE_EXEC_END => {
                if open_exec.remove(&key).is_some() {
                    out.end(at, exec, track, sid);
                } else {
                    out.instant(at, other, track, ev.task, i64::from(ev.stage));
                }
            }
            TEL_STAGE_SENT => out.instant(at, sent, track, ev.task, ev.arg as i64),
            TEL_STAGE_CHAOS_SWALLOW => out.instant(at, swallow, track, ev.task, 0),
            TEL_STAGE_CHAOS_DELAY => out.instant(at, delay, track, ev.task, ev.arg as i64),
            _ => out.instant(at, other, track, ev.task, i64::from(ev.stage)),
        }
    }
}

/// One attempt's end-to-end causal chain, every stamp in client
/// microseconds (daemon stamps offset-corrected when the generation's
/// clock synced). Absent stamps mean the stage was never observed — a
/// crash-truncated attempt has the daemon-side prefix only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AttemptChain {
    /// Task id.
    pub task: u64,
    /// Attempt number.
    pub attempt: u32,
    /// Index of the endpoint (into the slice given to
    /// [`attempt_chains`]) that executed the attempt, when any daemon
    /// event was seen.
    pub endpoint: Option<usize>,
    /// Daemon generation the attempt ran under.
    pub generation: u64,
    /// Whether the daemon stamps were offset-corrected (the generation's
    /// clock synced). Unsynced chains keep raw daemon time and are
    /// exempt from cross-clock causality checks.
    pub synced: bool,
    /// Clock uncertainty applied to the daemon stamps.
    pub uncertainty_us: u64,
    /// Client dispatched the attempt (`c.attempt` span begin).
    pub c_dispatch_us: Option<i64>,
    /// Daemon decoded the DISPATCH frame.
    pub d_recv_us: Option<i64>,
    /// A daemon worker began executing.
    pub d_exec_begin_us: Option<i64>,
    /// Execution finished on the daemon.
    pub d_exec_end_us: Option<i64>,
    /// The RESULT frame was written to the socket.
    pub d_sent_us: Option<i64>,
    /// Client observed the attempt's outcome (`c.attempt` span end).
    pub c_done_us: Option<i64>,
}

impl AttemptChain {
    /// True when every stage of the chain was observed.
    pub fn is_complete(&self) -> bool {
        self.c_dispatch_us.is_some()
            && self.d_recv_us.is_some()
            && self.d_exec_begin_us.is_some()
            && self.d_exec_end_us.is_some()
            && self.d_sent_us.is_some()
            && self.c_done_us.is_some()
    }

    /// True when the daemon saw the attempt but never sent a RESULT —
    /// the signature of a crash (or chaos swallow) mid-attempt.
    pub fn is_truncated(&self) -> bool {
        self.d_recv_us.is_some() && self.d_sent_us.is_none()
    }
}

/// Joins the client trace's per-attempt spans with every endpoint's
/// daemon telemetry into per-attempt causal chains, sorted by
/// `(task, attempt)`.
pub fn attempt_chains(client: Option<&Tracer>, eps: &[EndpointTelemetry]) -> Vec<AttemptChain> {
    let mut chains: HashMap<(u64, u32), AttemptChain> = HashMap::new();
    fn chain(
        m: &mut HashMap<(u64, u32), AttemptChain>,
        task: u64,
        attempt: u32,
    ) -> &mut AttemptChain {
        m.entry((task, attempt)).or_insert_with(|| AttemptChain {
            task,
            attempt,
            ..AttemptChain::default()
        })
    }

    if let Some(c) = client {
        for rec in c.records() {
            let (name, id, is_begin) = match rec.event {
                TraceEvent::Begin { name, id, .. } => (name, id, true),
                TraceEvent::End { name, id, .. } => (name, id, false),
                _ => continue,
            };
            if c.label(name) != "c.attempt" {
                continue;
            }
            let (task, attempt) = (id >> 32, (id & 0xffff_ffff) as u32);
            let t = rec.at.as_micros() as i64;
            let ch = chain(&mut chains, task, attempt);
            if is_begin {
                ch.c_dispatch_us = Some(t);
            } else {
                ch.c_done_us = Some(t);
            }
        }
    }

    for (i, ep) in eps.iter().enumerate() {
        for &(generation, ev) in &ep.events {
            let est = clock_for(ep, generation);
            let t = match est {
                Some(e) => e.to_client_us(ev.t_us),
                None => ev.t_us as i64,
            };
            let ch = chain(&mut chains, ev.task, ev.attempt);
            ch.endpoint = Some(i);
            ch.generation = generation;
            ch.synced = est.is_some();
            ch.uncertainty_us = est.map_or(0, |e| e.uncertainty_us);
            match ev.stage {
                TEL_STAGE_RECV => ch.d_recv_us = ch.d_recv_us.or(Some(t)),
                TEL_STAGE_EXEC_BEGIN => ch.d_exec_begin_us = ch.d_exec_begin_us.or(Some(t)),
                TEL_STAGE_EXEC_END => ch.d_exec_end_us = Some(t),
                TEL_STAGE_SENT => ch.d_sent_us = Some(t),
                _ => {}
            }
        }
    }

    let mut out: Vec<AttemptChain> = chains.into_values().collect();
    out.sort_unstable_by_key(|c| (c.task, c.attempt));
    out
}

/// Checks every chain's stamps for causal order and reports violations as
/// human-readable strings (empty = all consistent).
///
/// Daemon-internal order (`recv ≤ exec_begin ≤ exec_end ≤ sent`) is on
/// one clock and must hold strictly. Cross-clock edges
/// (`c_dispatch → d_recv`, `d_sent → c_done`) are checked only for
/// synced chains, with the chain's clock uncertainty plus `slack_us`
/// allowed — the estimator's stated bound is exactly the slack the
/// timeline is entitled to.
pub fn causal_violations(chains: &[AttemptChain], slack_us: u64) -> Vec<String> {
    let mut out = Vec::new();
    for c in chains {
        let daemon_steps = [
            ("d.recv", c.d_recv_us),
            ("d.exec_begin", c.d_exec_begin_us),
            ("d.exec_end", c.d_exec_end_us),
            ("d.sent", c.d_sent_us),
        ];
        let mut prev: Option<(&str, i64)> = None;
        for (name, t) in daemon_steps {
            let Some(t) = t else { continue };
            if let Some((pn, pt)) = prev {
                if t < pt {
                    out.push(format!(
                        "task {} attempt {}: {name} ({t} µs) precedes {pn} ({pt} µs)",
                        c.task, c.attempt
                    ));
                }
            }
            prev = Some((name, t));
        }
        if !c.synced {
            continue;
        }
        let bound = (c.uncertainty_us + slack_us) as i64;
        if let (Some(cd), Some(dr)) = (c.c_dispatch_us, c.d_recv_us) {
            if dr + bound < cd {
                out.push(format!(
                    "task {} attempt {}: d.recv ({dr} µs) precedes c.dispatch ({cd} µs) \
                     beyond ±{bound} µs",
                    c.task, c.attempt
                ));
            }
        }
        if let (Some(ds), Some(cd)) = (c.d_sent_us, c.c_done_us) {
            if cd + bound < ds {
                out.push(format!(
                    "task {} attempt {}: c.done ({cd} µs) precedes d.sent ({ds} µs) \
                     beyond ±{bound} µs",
                    c.task, c.attempt
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, EndpointConfig, SchedulingStrategy};
    use crate::runtime::sim::SimRuntime;
    use crate::trace::TraceConfig;
    use fedci::hardware::ClusterSpec;
    use simkit::TraceLevel;
    use taskgraph::{Dag, TaskSpec};

    fn two_site(strategy: SchedulingStrategy) -> Config {
        Config::builder()
            .endpoint(EndpointConfig::new("fast", ClusterSpec::taiyi(), 4))
            .endpoint(EndpointConfig::new("slow", ClusterSpec::qiming(), 2))
            .strategy(strategy)
            .build()
    }

    fn chain_dag(n: usize) -> Dag {
        let mut dag = Dag::new();
        let f = dag.register_function("f");
        let mut prev = None;
        for _ in 0..n {
            let deps: Vec<_> = prev.into_iter().collect();
            prev = Some(dag.add_task(TaskSpec::compute(f, 5.0).with_output_bytes(1 << 20), &deps));
        }
        dag
    }

    #[test]
    fn chain_critical_path_covers_every_task() {
        let cfg = two_site(SchedulingStrategy::Dha {
            rescheduling: false,
        });
        let n = 12;
        let report = SimRuntime::new(cfg, chain_dag(n))
            .with_trace(TraceConfig::at_level(TraceLevel::Spans))
            .run()
            .expect("run succeeds");
        let trace = report.trace.as_ref().expect("trace recorded");
        let cp = critical_path(trace).expect("path found");
        assert_eq!(cp.tasks.len(), n, "a pure chain is all critical");
        // Stage sums tile the makespan exactly (virtual time, no noise).
        let total = cp.attributed_s() + cp.unattributed_s;
        assert!(
            (total - cp.makespan_s).abs() <= 0.01 * cp.makespan_s.max(1e-9),
            "attributed {total} vs makespan {}",
            cp.makespan_s
        );
        assert!(
            (cp.makespan_s - report.makespan.as_secs_f64()).abs() < 1e-6,
            "traced makespan matches report"
        );
        // Execution dominates a compute chain.
        let exec = cp
            .stages
            .iter()
            .find(|s| s.stage == "executing")
            .unwrap()
            .seconds;
        assert!(
            exec > 0.5 * cp.makespan_s,
            "exec {exec} of {}",
            cp.makespan_s
        );
        let table = cp.render_table();
        assert!(table.contains("executing"));
    }

    #[test]
    fn fanout_path_sums_to_makespan() {
        // Diamond fan-out/fan-in: many parallel branches, path must still
        // tile the makespan.
        let mut dag = Dag::new();
        let f = dag.register_function("f");
        let root = dag.add_task(TaskSpec::compute(f, 1.0).with_output_bytes(1 << 20), &[]);
        let mids: Vec<_> = (0..8)
            .map(|i| {
                dag.add_task(
                    TaskSpec::compute(f, 2.0 + i as f64).with_output_bytes(1 << 20),
                    &[root],
                )
            })
            .collect();
        dag.add_task(TaskSpec::compute(f, 1.0), &mids);
        let cfg = two_site(SchedulingStrategy::Dha {
            rescheduling: false,
        });
        let report = SimRuntime::new(cfg, dag)
            .with_trace(TraceConfig::at_level(TraceLevel::Spans))
            .run()
            .expect("run succeeds");
        let trace = report.trace.as_ref().unwrap();
        let cp = critical_path(trace).expect("path found");
        assert_eq!(cp.tasks.len(), 3, "root -> slowest mid -> sink");
        let total = cp.attributed_s() + cp.unattributed_s;
        assert!(
            (total - cp.makespan_s).abs() <= 0.01 * cp.makespan_s.max(1e-9),
            "attributed {total} vs makespan {}",
            cp.makespan_s
        );
    }

    #[test]
    fn flamegraph_has_critical_subtree_and_positive_weights() {
        let cfg = two_site(SchedulingStrategy::Dha {
            rescheduling: false,
        });
        let report = SimRuntime::new(cfg, chain_dag(6))
            .with_trace(TraceConfig::at_level(TraceLevel::Spans))
            .run()
            .unwrap();
        let folded = flamegraph_folded(report.trace.as_ref().unwrap());
        assert!(!folded.is_empty());
        let mut saw_critical = false;
        for line in folded.lines() {
            let (stack, weight) = line.rsplit_split_once();
            assert!(weight > 0, "weights positive: {line}");
            assert!(stack.matches(';').count() == 2, "3 frames: {line}");
            if stack.starts_with("critical;") {
                saw_critical = true;
            }
        }
        assert!(saw_critical, "critical subtree present:\n{folded}");
    }

    trait RSplit {
        fn rsplit_split_once(&self) -> (&str, u64);
    }
    impl RSplit for str {
        fn rsplit_split_once(&self) -> (&str, u64) {
            let (stack, w) = self.rsplit_once(' ').expect("folded line");
            (stack, w.parse().expect("weight"))
        }
    }

    fn write_journal(path: &Path, n: u64, chunk: u32, perturb: Option<u64>) {
        use simkit::journal::JournalWriter;
        let mut w = JournalWriter::create_with_chunk_records(path, chunk).unwrap();
        for i in 0..n {
            let at = if perturb == Some(i) {
                i * 1_000 + 1
            } else {
                i * 1_000
            };
            // Every 5th record is a decision note about the same task.
            if i % 5 == 0 {
                w.append(at, i + 1, NOTE_DECISION_DISPATCH, i % 7, 1);
            } else {
                w.append(at, i + 1, (i % 15) as u16, i % 7, 0);
            }
        }
        w.finish().unwrap();
    }

    #[test]
    fn doctor_reports_identical_for_equal_journals() {
        let dir = std::env::temp_dir().join(format!("ufdoc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pa = dir.join("a.journal");
        let pb = dir.join("b.journal");
        write_journal(&pa, 100, 16, None);
        write_journal(&pb, 100, 16, None);
        let report = doctor(&Journal::open(&pa).unwrap(), &Journal::open(&pb).unwrap());
        assert!(report.is_identical());
        assert!(render_doctor(&report).contains("identical"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn doctor_localizes_single_record_perturbation() {
        let dir = std::env::temp_dir().join(format!("ufdoc2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pa = dir.join("a.journal");
        let pb = dir.join("b.journal");
        write_journal(&pa, 200, 16, None);
        write_journal(&pb, 200, 16, Some(123));
        let report = doctor(&Journal::open(&pa).unwrap(), &Journal::open(&pb).unwrap());
        let DoctorReport::Diverged(d) = &report else {
            panic!("expected divergence");
        };
        assert_eq!(d.index, 123, "exact perturbed record");
        assert!(d.a.is_some() && d.b.is_some());
        assert!(!d.preceding.is_empty());
        // Record 123's task id is 123 % 7 = 4; the nearest decision note
        // about task 4 at or before index 123 exists (notes every 5th).
        assert!(d.nearest_decision.is_some());
        assert!(!d.task_lifecycle.is_empty());
        assert!(
            !d.is_clean_prefix(),
            "a contradicting record is a real divergence, not truncation"
        );
        let rendered = render_doctor(&report);
        assert!(rendered.contains("DIVERGE at record #123"), "{rendered}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn doctor_reports_truncation_as_tail_divergence() {
        let dir = std::env::temp_dir().join(format!("ufdoc3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pa = dir.join("a.journal");
        let pb = dir.join("b.journal");
        write_journal(&pa, 64, 16, None); // 4 full chunks
        write_journal(&pb, 80, 16, None); // one chunk more
        let report = doctor(&Journal::open(&pa).unwrap(), &Journal::open(&pb).unwrap());
        let DoctorReport::Diverged(d) = &report else {
            panic!("expected divergence");
        };
        assert_eq!(d.index, 64);
        assert!(d.a.is_none() && d.b.is_some());
        // Pure truncation gets the softer verdict: a clean prefix (the
        // shape a `kill -9` mid-run leaves behind), called out as such.
        assert!(d.is_clean_prefix());
        assert_eq!(d.shared_records(), 64);
        let rendered = render_doctor(&report);
        assert!(rendered.contains("CLEAN PREFIX"), "{rendered}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kind_names_cover_events_and_notes() {
        // The names themselves are pinned against the simulator's event
        // encoding by `runtime::sim`'s `delivery_kinds_match_the_event_encoding`.
        assert_eq!(kind_name(2), DELIVERY_KINDS[2].name);
        assert_eq!(kind_name(NOTE_DECISION_STAGE), "Decision:Stage");
        assert_eq!(kind_name(NOTE_DECISION_DISPATCH), "Decision:Dispatch");
        assert_eq!(kind_name(99), "Event:?");
    }

    #[test]
    fn no_trace_yields_no_path() {
        let cfg = two_site(SchedulingStrategy::Dha {
            rescheduling: false,
        });
        let report = SimRuntime::new(cfg, chain_dag(3))
            .with_trace(TraceConfig::at_level(TraceLevel::Off))
            .run()
            .unwrap();
        if let Some(trace) = report.trace.as_ref() {
            assert!(critical_path(trace).is_none());
        }
    }

    // -- federated merge ---------------------------------------------------

    use fedci::proto::TelemetryEvent;
    use simkit::metrics::LogHistogram;

    fn tel(stage: u8, t_us: u64, task: u64, attempt: u32, arg: u64) -> TelemetryEvent {
        TelemetryEvent {
            stage,
            t_us,
            task,
            attempt,
            arg,
        }
    }

    /// One endpoint whose daemon clock runs 1 ms ahead of the client,
    /// estimated to ±50 µs: a full attempt for task 7 plus a truncated
    /// attempt for task 9 (recv + exec begin, then the daemon died).
    fn skewed_endpoint() -> EndpointTelemetry {
        EndpointTelemetry {
            endpoint: "ep0".into(),
            events: vec![
                (0, tel(TEL_STAGE_RECV, 2_000, 7, 1, 3)),
                (0, tel(TEL_STAGE_EXEC_BEGIN, 2_100, 7, 1, 0)),
                (0, tel(TEL_STAGE_EXEC_END, 2_500, 7, 1, 1)),
                (0, tel(TEL_STAGE_SENT, 2_550, 7, 1, 1)),
                (0, tel(TEL_STAGE_RECV, 2_600, 9, 1, 1)),
                (0, tel(TEL_STAGE_EXEC_BEGIN, 2_650, 9, 1, 0)),
            ],
            clocks: vec![(
                0,
                ClockEstimate {
                    offset_us: 1_000,
                    uncertainty_us: 50,
                    min_rtt_us: 100,
                    samples: 4,
                },
            )],
            counters: Default::default(),
            exec_hist: LogHistogram::new(),
            ring_dropped: 0,
            dropped_batches: 0,
            dropped_events: 0,
        }
    }

    fn client_tracer() -> Tracer {
        let mut t = Tracer::new(TraceLevel::Full, 1 << 10);
        let attempt = t.intern("c.attempt");
        let track = t.intern("client");
        // Client clock: dispatch at 900, result observed at 1 700 — the
        // daemon stamps above map to [1 000, 1 550] in between.
        t.begin(SimTime::from_micros(900), attempt, track, span_id(7, 1));
        t.end(SimTime::from_micros(1_700), attempt, track, span_id(7, 1));
        t.begin(SimTime::from_micros(1_550), attempt, track, span_id(9, 1));
        t.end(SimTime::from_micros(1_900), attempt, track, span_id(9, 1));
        t
    }

    #[test]
    fn merged_timeline_offset_corrects_daemon_tracks() {
        let client = client_tracer();
        let merged = merge_process_timeline(Some(&client), &[skewed_endpoint()]);
        let labels: Vec<&str> = merged
            .records()
            .filter_map(|r| match r.event {
                TraceEvent::Begin { track, .. }
                | TraceEvent::End { track, .. }
                | TraceEvent::Instant { track, .. } => Some(merged.label(track)),
                TraceEvent::Counter { .. } => None,
            })
            .collect();
        assert!(labels.contains(&"client"), "client track merged in");
        assert!(
            labels.contains(&"ep0 gen0 (offset +1000 µs ±50 µs)"),
            "daemon track labelled with its clock mapping: {labels:?}"
        );
        // The d.exec span begin for task 7 lands at daemon 2 100 − 1 000.
        let exec_begin = merged
            .records()
            .find(|r| {
                matches!(r.event, TraceEvent::Begin { name, id, .. }
                    if merged.label(name) == "d.exec" && id == span_id(7, 1))
            })
            .expect("exec span present");
        assert_eq!(exec_begin.at.as_micros(), 1_100);
        // Task 9's exec span never ends: exactly one unmatched begin.
        let begins = merged
            .records()
            .filter(|r| {
                matches!(r.event, TraceEvent::Begin { name, id, .. }
                    if merged.label(name) == "d.exec" && id == span_id(9, 1))
            })
            .count();
        let ends = merged
            .records()
            .filter(|r| {
                matches!(r.event, TraceEvent::End { name, id, .. }
                    if merged.label(name) == "d.exec" && id == span_id(9, 1))
            })
            .count();
        assert_eq!((begins, ends), (1, 0), "truncated attempt stays open");
        // The whole thing exports as Perfetto JSON.
        let mut buf = Vec::new();
        merged.export_perfetto(&mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("traceEvents"));
    }

    #[test]
    fn attempt_chains_join_both_sides_and_stay_causal() {
        let client = client_tracer();
        let eps = [skewed_endpoint()];
        let chains = attempt_chains(Some(&client), &eps);
        assert_eq!(chains.len(), 2);
        let full = &chains[0];
        assert_eq!((full.task, full.attempt), (7, 1));
        assert!(full.is_complete(), "{full:?}");
        assert!(!full.is_truncated());
        assert_eq!(full.c_dispatch_us, Some(900));
        assert_eq!(full.d_recv_us, Some(1_000), "offset-corrected");
        assert_eq!(full.d_sent_us, Some(1_550));
        assert_eq!(full.c_done_us, Some(1_700));
        assert!(full.synced);
        assert_eq!(full.uncertainty_us, 50);
        let cut = &chains[1];
        assert_eq!((cut.task, cut.attempt), (9, 1));
        assert!(cut.is_truncated(), "{cut:?}");
        assert!(!cut.is_complete());
        assert_eq!(cut.d_exec_end_us, None);
        assert_eq!(causal_violations(&chains, 0), Vec::<String>::new());
    }

    #[test]
    fn causal_violations_flag_misordered_and_cross_clock_stamps() {
        // Daemon-internal disorder: exec_end before exec_begin.
        let mut ep = skewed_endpoint();
        ep.events = vec![
            (0, tel(TEL_STAGE_RECV, 2_000, 1, 1, 0)),
            (0, tel(TEL_STAGE_EXEC_BEGIN, 2_400, 1, 1, 0)),
            (0, tel(TEL_STAGE_EXEC_END, 2_200, 1, 1, 1)),
        ];
        let chains = attempt_chains(None, &[ep]);
        let v = causal_violations(&chains, 0);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("d.exec_end"), "{v:?}");

        // Cross-clock: the daemon claims it received the dispatch long
        // before the client sent it — beyond the stated uncertainty.
        let mut ep = skewed_endpoint();
        ep.events = vec![(0, tel(TEL_STAGE_RECV, 1_200, 2, 1, 0))];
        let mut client = Tracer::new(TraceLevel::Full, 64);
        let attempt = client.intern("c.attempt");
        let track = client.intern("client");
        client.begin(SimTime::from_micros(900), attempt, track, span_id(2, 1));
        let chains = attempt_chains(Some(&client), &[ep.clone()]);
        // recv maps to 200 µs, dispatch at 900 µs: 700 µs > ±50 bound.
        let v = causal_violations(&chains, 0);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("d.recv"), "{v:?}");
        // An unsynced generation is exempt from the cross-clock check.
        ep.clocks.clear();
        let chains = attempt_chains(Some(&client), &[ep]);
        assert!(causal_violations(&chains, 0).is_empty());
        assert!(!chains[0].synced);
    }
}
