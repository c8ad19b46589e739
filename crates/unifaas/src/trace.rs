//! Run-level tracing: scheduler decision records, transfer rationale and
//! the bundle returned by a traced run ([`RunTrace`]).
//!
//! The low-level event machinery lives in [`simkit::trace`]; this module
//! adds the two structured record types that do not fit a compact event —
//! one [`DecisionRecord`] per scheduler placement (candidate set and EFT
//! terms) and one [`TransferRecord`] per data-plane transfer (source-choice
//! rationale) — plus the exporters that merge them with the event ring:
//!
//! * [`RunTrace::export_perfetto`] — Chrome/Perfetto `trace_event` JSON
//!   (per-endpoint tracks, per-task lifecycle spans, decision instants);
//! * [`RunTrace::export_jsonl`] — JSONL: every ring event plus one
//!   `"kind":"decision"` / `"kind":"transfer"` line per structured record;
//! * [`RunTrace::counters_snapshot`] — plain-text counter totals.
//!
//! See DESIGN.md "Observability" for the taxonomy and README for how to
//! open an exported trace in the Perfetto UI.

use fedci::endpoint::EndpointId;
use simkit::trace::{json_f64, json_string, TraceLevel, Tracer};
use simkit::SimTime;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use taskgraph::TaskId;

/// Configuration for a traced run, passed to
/// [`SimRuntime::with_trace`](crate::runtime::SimRuntime::with_trace).
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// What to record. [`TraceLevel::Off`] disables tracing entirely.
    pub level: TraceLevel,
    /// Event-ring capacity in records (oldest overwritten when full).
    pub ring_capacity: usize,
}

/// Scheduler decision and transfer records a traced run keeps of each kind;
/// later ones are counted in [`RunTrace::dropped_decisions`] and
/// [`RunTrace::dropped_transfers`].
pub(crate) const MAX_RECORDS: usize = 1 << 18;

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            level: TraceLevel::Full,
            ring_capacity: simkit::trace::DEFAULT_RING_CAPACITY,
        }
    }
}

impl TraceConfig {
    /// A config recording at `level` with default capacities.
    pub fn at_level(level: TraceLevel) -> TraceConfig {
        TraceConfig {
            level,
            ..TraceConfig::default()
        }
    }
}

/// Why the scheduler produced a placement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionKind {
    /// First placement of a task when it became ready.
    Initial,
    /// A rescheduling pass moved (stole) the task to a better endpoint.
    Steal,
}

impl DecisionKind {
    fn as_str(self) -> &'static str {
        match self {
            DecisionKind::Initial => "initial",
            DecisionKind::Steal => "steal",
        }
    }
}

/// One candidate endpoint's EFT terms, as evaluated by the scheduler.
///
/// `EFT = max(data_ready, avail) + exec` (paper §IV-E); candidates pruned
/// by the `avail + exec` lower bound before the staging estimate have
/// `staging_s`/`eft_s` of `None`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CandidateEval {
    /// The candidate endpoint.
    pub ep: EndpointId,
    /// Availability estimate: seconds until a worker frees up.
    pub avail_s: f64,
    /// Predicted execution seconds on this endpoint.
    pub exec_s: f64,
    /// Staging-time estimate (None if pruned before evaluation).
    pub staging_s: Option<f64>,
    /// Resulting earliest finish time (None if pruned).
    pub eft_s: Option<f64>,
}

/// One structured record per scheduler placement: the candidate set with
/// EFT terms, the chosen endpoint and cache-hit flags.
#[derive(Clone, Debug, PartialEq)]
pub struct DecisionRecord {
    /// Virtual time of the decision.
    pub at: SimTime,
    /// The task being placed.
    pub task: TaskId,
    /// Initial placement or a rescheduling steal.
    pub kind: DecisionKind,
    /// The endpoint the scheduler picked.
    pub chosen: EndpointId,
    /// The winning EFT in seconds from `at`.
    pub chosen_eft_s: f64,
    /// Every candidate evaluated (including pruned ones).
    pub candidates: Vec<CandidateEval>,
    /// True if the per-endpoint execution predictions were served from the
    /// scheduler's cache rather than recomputed.
    pub exec_cache_hit: bool,
    /// True if the task's input set was served from the scheduler's cache.
    pub inputs_cache_hit: bool,
}

/// One record per data-plane transfer, including the source-choice
/// rationale (how many replicas were considered).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransferRecord {
    /// Virtual time the transfer started.
    pub at: SimTime,
    /// Data-plane transfer id.
    pub xfer: u64,
    /// The object being moved (raw `DataId`).
    pub object: u64,
    /// Chosen source replica.
    pub src: EndpointId,
    /// Destination endpoint.
    pub dst: EndpointId,
    /// Payload size.
    pub bytes: u64,
    /// Number of replica candidates the best-source choice considered.
    pub replica_candidates: u32,
    /// 1-based attempt number (>1 after transfer-fault retries).
    pub attempt: u32,
}

/// Everything a traced run produced: the event ring plus the structured
/// decision and transfer records.
#[derive(Clone, Debug, Default)]
pub struct RunTrace {
    /// The event ring (spans, instants, counters) with its intern table.
    pub tracer: Tracer,
    /// Scheduler decision records, oldest first (bounded; see `dropped_decisions`).
    pub decisions: Vec<DecisionRecord>,
    /// Transfer records, oldest first (bounded; see `dropped_transfers`).
    pub transfers: Vec<TransferRecord>,
    /// Decision records discarded because [`MAX_RECORDS`] were kept.
    pub dropped_decisions: u64,
    /// Transfer records discarded because [`MAX_RECORDS`] were kept.
    pub dropped_transfers: u64,
}

impl RunTrace {
    /// Writes the merged trace as Chrome/Perfetto `trace_event` JSON.
    ///
    /// Decision and transfer *events* are already in the ring (as instants
    /// and spans); this is the ring export, so one file opens in
    /// <https://ui.perfetto.dev> with per-endpoint tracks.
    pub fn export_perfetto<W: Write>(&self, w: &mut W) -> io::Result<()> {
        self.tracer.export_perfetto(w)
    }

    /// Writes the trace as JSONL: every ring event, then one
    /// `"kind":"decision"` line per [`DecisionRecord`] and one
    /// `"kind":"transfer"` line per [`TransferRecord`].
    pub fn export_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        self.tracer.export_jsonl(w)?;
        let mut out = io::BufWriter::new(w);
        for d in &self.decisions {
            let mut cands = String::from("[");
            for (i, c) in d.candidates.iter().enumerate() {
                if i > 0 {
                    cands.push(',');
                }
                cands.push_str(&format!(
                    "{{\"ep\":{},\"avail_s\":{},\"exec_s\":{},\"staging_s\":{},\"eft_s\":{}}}",
                    c.ep.0,
                    json_f64(c.avail_s),
                    json_f64(c.exec_s),
                    c.staging_s.map_or("null".to_string(), json_f64),
                    c.eft_s.map_or("null".to_string(), json_f64),
                ));
            }
            cands.push(']');
            writeln!(
                out,
                "{{\"t_us\":{},\"kind\":\"decision\",\"decision\":{},\"task\":{},\
                 \"chosen\":{},\"eft_s\":{},\"exec_cache_hit\":{},\"inputs_cache_hit\":{},\
                 \"candidates\":{}}}",
                d.at.as_micros(),
                json_string(d.kind.as_str()),
                d.task.0,
                d.chosen.0,
                json_f64(d.chosen_eft_s),
                d.exec_cache_hit,
                d.inputs_cache_hit,
                cands,
            )?;
        }
        for t in &self.transfers {
            writeln!(
                out,
                "{{\"t_us\":{},\"kind\":\"transfer\",\"xfer\":{},\"object\":{},\"src\":{},\
                 \"dst\":{},\"bytes\":{},\"replica_candidates\":{},\"attempt\":{}}}",
                t.at.as_micros(),
                t.xfer,
                t.object,
                t.src.0,
                t.dst.0,
                t.bytes,
                t.replica_candidates,
                t.attempt,
            )?;
        }
        out.flush()
    }

    /// Plain-text counter totals plus structured-record tallies.
    fn counters_snapshot(&self) -> String {
        let mut s = self.tracer.counters_snapshot();
        s.push_str(&format!("trace.decisions {}\n", self.decisions.len()));
        s.push_str(&format!(
            "trace.decisions_dropped {}\n",
            self.dropped_decisions
        ));
        s.push_str(&format!("trace.transfers {}\n", self.transfers.len()));
        s.push_str(&format!(
            "trace.transfers_dropped {}\n",
            self.dropped_transfers
        ));
        s
    }

    /// Writes the three export files next to `path`: the Perfetto JSON at
    /// `path` itself, JSONL at `path` + `.jsonl` and the counters snapshot
    /// at `path` + `.counters.txt`. Returns the written paths.
    pub fn write_files(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let perfetto = path.to_path_buf();
        let jsonl = append_ext(path, "jsonl");
        let counters = append_ext(path, "counters.txt");
        let mut f = std::fs::File::create(&perfetto)?;
        self.export_perfetto(&mut f)?;
        let mut f = std::fs::File::create(&jsonl)?;
        self.export_jsonl(&mut f)?;
        std::fs::write(&counters, self.counters_snapshot())?;
        Ok(vec![perfetto, jsonl, counters])
    }
}

fn append_ext(path: &Path, ext: &str) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".");
    s.push(ext);
    PathBuf::from(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> DecisionRecord {
        DecisionRecord {
            at: SimTime::from_secs(1),
            task: TaskId(5),
            kind: DecisionKind::Initial,
            chosen: EndpointId(1),
            chosen_eft_s: 2.5,
            candidates: vec![
                CandidateEval {
                    ep: EndpointId(0),
                    avail_s: 1.0,
                    exec_s: 4.0,
                    staging_s: None,
                    eft_s: None,
                },
                CandidateEval {
                    ep: EndpointId(1),
                    avail_s: 0.0,
                    exec_s: 2.0,
                    staging_s: Some(0.5),
                    eft_s: Some(2.5),
                },
            ],
            exec_cache_hit: true,
            inputs_cache_hit: false,
        }
    }

    #[test]
    fn jsonl_includes_decisions_and_transfers() {
        let mut rt = RunTrace {
            decisions: vec![record()],
            transfers: vec![TransferRecord {
                at: SimTime::from_secs(2),
                xfer: 9,
                object: 11,
                src: EndpointId(0),
                dst: EndpointId(1),
                bytes: 1 << 20,
                replica_candidates: 2,
                attempt: 1,
            }],
            ..RunTrace::default()
        };
        rt.tracer = Tracer::new(TraceLevel::Spans, 8);
        let n = rt.tracer.intern("ready");
        let tr = rt.tracer.intern("client");
        rt.tracer.begin(SimTime::ZERO, n, tr, 5);

        let mut buf = Vec::new();
        rt.export_jsonl(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"kind\":\"begin\""));
        assert!(lines[1].contains("\"kind\":\"decision\""));
        assert!(
            lines[1].contains("\"staging_s\":null"),
            "pruned: {}",
            lines[1]
        );
        assert!(lines[1].contains("\"exec_cache_hit\":true"));
        assert!(lines[2].contains("\"kind\":\"transfer\""));
        assert!(lines[2].contains("\"replica_candidates\":2"));
    }

    #[test]
    fn counters_snapshot_tallies_structured_records() {
        let rt = RunTrace {
            decisions: vec![record()],
            dropped_decisions: 3,
            ..RunTrace::default()
        };
        let snap = rt.counters_snapshot();
        assert!(snap.contains("trace.decisions 1"));
        assert!(snap.contains("trace.decisions_dropped 3"));
        assert!(snap.contains("trace.transfers 0"));
    }

    #[test]
    fn write_files_produces_three_outputs() {
        let dir = std::env::temp_dir().join("unifaas_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("run.json");
        let rt = RunTrace::default();
        let paths = rt.write_files(&base).unwrap();
        assert_eq!(paths.len(), 3);
        for p in &paths {
            assert!(p.exists(), "missing {p:?}");
        }
        assert!(paths[1].to_string_lossy().ends_with("run.json.jsonl"));
        assert!(paths[2]
            .to_string_lossy()
            .ends_with("run.json.counters.txt"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
