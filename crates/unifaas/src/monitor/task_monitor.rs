//! Task monitor and history database (§IV-B).
//!
//! The monitor keeps (a) per-endpoint success counts of execution attempts
//! for the fault tolerance policy and (b) an append-only [`HistoryDb`] of
//! [`TaskRecord`]s that the learned profilers train on. The history
//! database persists as a plain CSV file so a later run can "start a
//! workflow by loading an existing database" and pre-build performance
//! models.

use crate::profile::transfer::parse_transfer_record_name;
use fedci::endpoint::EndpointId;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

/// One observed task execution (or transfer — the transfer profiler reuses
/// this structure with `function_name = "__transfer__/<src>/<dst>"`).
#[derive(Clone, Debug, PartialEq)]
pub struct TaskRecord {
    /// Name of the function executed. Shared (`Arc<str>`) so a learned
    /// run's per-completion record clones an interned name instead of
    /// allocating a fresh `String` per task.
    pub function: Arc<str>,
    /// Endpoint it ran on.
    pub endpoint: EndpointId,
    /// Total input bytes (dependency outputs + external inputs).
    pub input_bytes: u64,
    /// Observed wall time, seconds.
    pub duration_seconds: f64,
    /// Bytes produced.
    pub output_bytes: u64,
    /// Endpoint hardware features at execution time.
    pub cores: u32,
    /// CPU frequency, GHz.
    pub cpu_ghz: f64,
    /// RAM, GB.
    pub ram_gb: u32,
    /// Whether the attempt succeeded.
    pub success: bool,
}

/// Append-only store of task records.
#[derive(Clone, Debug, Default)]
pub struct HistoryDb {
    records: Vec<TaskRecord>,
}

impl HistoryDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        HistoryDb::default()
    }

    /// Appends a record.
    pub fn push(&mut self, rec: TaskRecord) {
        self.records.push(rec);
    }

    /// All records in insertion order.
    pub fn records(&self) -> &[TaskRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records exist.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Saves as CSV (header + one row per record).
    pub fn save_csv<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = BufWriter::new(file);
        writeln!(
            w,
            "function,endpoint,input_bytes,duration_seconds,output_bytes,cores,cpu_ghz,ram_gb,success"
        )?;
        for r in &self.records {
            writeln!(
                w,
                "{},{},{},{},{},{},{},{},{}",
                escape_csv(&r.function),
                r.endpoint.0,
                r.input_bytes,
                r.duration_seconds,
                r.output_bytes,
                r.cores,
                r.cpu_ghz,
                r.ram_gb,
                r.success
            )?;
        }
        w.flush()
    }

    /// Loads a CSV written by [`HistoryDb::save_csv`].
    ///
    /// Quote-aware: a record may span multiple physical lines when the
    /// function name contains embedded newlines (RFC 4180 quoting).
    pub fn load_csv<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        let mut db = HistoryDb::new();
        for (i, fields) in CsvRecords::new(&text).enumerate() {
            let fields = fields?;
            if i == 0 {
                continue; // header
            }
            if fields.len() != 9 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("record {} has {} fields, expected 9", i + 1, fields.len()),
                ));
            }
            let parse_err = |what: &str| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("record {}: bad {what}", i + 1),
                )
            };
            db.push(TaskRecord {
                function: Arc::from(fields[0].as_str()),
                endpoint: EndpointId(fields[1].parse().map_err(|_| parse_err("endpoint"))?),
                input_bytes: fields[2].parse().map_err(|_| parse_err("input_bytes"))?,
                duration_seconds: fields[3]
                    .parse()
                    .map_err(|_| parse_err("duration_seconds"))?,
                output_bytes: fields[4].parse().map_err(|_| parse_err("output_bytes"))?,
                cores: fields[5].parse().map_err(|_| parse_err("cores"))?,
                cpu_ghz: fields[6].parse().map_err(|_| parse_err("cpu_ghz"))?,
                ram_gb: fields[7].parse().map_err(|_| parse_err("ram_gb"))?,
                success: fields[8].parse().map_err(|_| parse_err("success"))?,
            });
        }
        Ok(db)
    }
}

/// RFC 4180 field escaping: fields containing a comma, quote, CR or LF are
/// wrapped in double quotes with embedded quotes doubled; everything else
/// passes through unchanged so the common case stays grep-friendly.
fn escape_csv(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for ch in s.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
        out
    } else {
        s.to_string()
    }
}

/// Iterator over CSV records, splitting on newlines *outside* quoted fields
/// so a quoted field may contain commas, doubled quotes and line breaks.
struct CsvRecords<'a> {
    rest: std::str::Chars<'a>,
    done: bool,
}

impl<'a> CsvRecords<'a> {
    fn new(text: &'a str) -> Self {
        CsvRecords {
            rest: text.chars(),
            done: false,
        }
    }
}

impl Iterator for CsvRecords<'_> {
    type Item = std::io::Result<Vec<String>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let bad = |msg: &str| {
            Some(Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                msg.to_string(),
            )))
        };
        let mut fields: Vec<String> = Vec::new();
        let mut field = String::new();
        let mut saw_any = false;
        let mut in_quotes = false;
        loop {
            let Some(ch) = self.rest.next() else {
                if in_quotes {
                    return bad("unterminated quoted field");
                }
                self.done = true;
                if !saw_any && fields.is_empty() && field.is_empty() {
                    return None; // trailing newline at EOF, no final record
                }
                fields.push(field);
                return Some(Ok(fields));
            };
            saw_any = true;
            if in_quotes {
                if ch == '"' {
                    // Either a doubled quote (literal `"`) or the closing one.
                    let mut peek = self.rest.clone();
                    if peek.next() == Some('"') {
                        self.rest = peek;
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                } else {
                    field.push(ch);
                }
                continue;
            }
            match ch {
                '"' if field.is_empty() => in_quotes = true,
                '"' => return bad("quote inside unquoted field"),
                ',' => fields.push(std::mem::take(&mut field)),
                '\r' => {} // tolerate CRLF line endings
                '\n' => {
                    if fields.is_empty() && field.is_empty() {
                        // Blank line: skip rather than yield an empty record.
                        saw_any = false;
                        continue;
                    }
                    fields.push(field);
                    return Some(Ok(fields));
                }
                _ => field.push(ch),
            }
        }
    }
}

/// Live aggregation over the record stream: per-endpoint success counts
/// of execution attempts for the fault tolerance policy, plus the history
/// database the learned profiler trains on.
///
/// The two are fed separately. Every execution attempt is counted
/// ([`TaskMonitor::count_attempt`]), but a record joins the history
/// ([`TaskMonitor::record`]) only when something will read it, so a run
/// without a learned profiler builds no per-task record at all.
#[derive(Clone, Debug, Default)]
pub struct TaskMonitor {
    db: HistoryDb,
    /// Endpoint index → (successes, attempts) of execution attempts.
    success_counts: Vec<(u64, u64)>,
}

impl TaskMonitor {
    /// Creates a monitor that takes over a prior history database, if any.
    /// Its execution rows count toward the success rates; its transfer
    /// rows (named by [`transfer_record_name`]) do not.
    ///
    /// [`transfer_record_name`]: crate::profile::transfer::transfer_record_name
    pub fn new(history: Option<HistoryDb>) -> Self {
        let db = history.unwrap_or_default();
        let mut m = TaskMonitor::default();
        for rec in db.records() {
            if parse_transfer_record_name(&rec.function).is_none() {
                m.count_attempt(rec.endpoint, rec.success);
            }
        }
        m.db = db;
        m
    }

    /// Counts one execution attempt on `endpoint`. An attempt the
    /// execution timeout killed counts as failed.
    pub fn count_attempt(&mut self, endpoint: EndpointId, success: bool) {
        let i = endpoint.index();
        if i >= self.success_counts.len() {
            self.success_counts.resize(i + 1, (0, 0));
        }
        let (ok, attempts) = &mut self.success_counts[i];
        *ok += u64::from(success);
        *attempts += 1;
    }

    /// Appends `rec` to the history. Counts nothing: execution attempts
    /// go through [`TaskMonitor::count_attempt`].
    pub fn record(&mut self, rec: TaskRecord) {
        self.db.push(rec);
    }

    /// The underlying history database (for persistence and training).
    pub fn history(&self) -> &HistoryDb {
        &self.db
    }

    /// Task success rate of an endpoint (`None` if never attempted). Drives
    /// §IV-G's "reassigns it to the endpoint with the highest success rate".
    pub fn success_rate(&self, endpoint: EndpointId) -> Option<f64> {
        self.success_counts
            .get(endpoint.index())
            .filter(|(_, attempts)| *attempts > 0)
            .map(|(ok, attempts)| *ok as f64 / *attempts as f64)
    }

    /// The endpoint with the highest success rate among `candidates`
    /// (unattempted endpoints count as rate 1.0 — optimistic, matching the
    /// intent of escaping a consistently failing endpoint).
    pub fn best_endpoint_by_success(&self, candidates: &[EndpointId]) -> Option<EndpointId> {
        candidates.iter().copied().max_by(|a, b| {
            let ra = self.success_rate(*a).unwrap_or(1.0);
            let rb = self.success_rate(*b).unwrap_or(1.0);
            ra.partial_cmp(&rb)
                .unwrap_or(std::cmp::Ordering::Equal)
                // Stable tie-break toward the lower id.
                .then(b.0.cmp(&a.0))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(function: &str, ep: u16, dur: f64, success: bool) -> TaskRecord {
        TaskRecord {
            function: function.into(),
            endpoint: EndpointId(ep),
            input_bytes: 1000,
            duration_seconds: dur,
            output_bytes: 500,
            cores: 16,
            cpu_ghz: 2.6,
            ram_gb: 64,
            success,
        }
    }

    #[test]
    fn recording_history_counts_no_attempt() {
        let mut m = TaskMonitor::default();
        m.record(rec("dock", 0, 999.0, false));
        assert_eq!(m.history().len(), 1);
        assert_eq!(m.success_rate(EndpointId(0)), None);
        m.count_attempt(EndpointId(0), false);
        assert_eq!(m.success_rate(EndpointId(0)), Some(0.0));
    }

    #[test]
    fn success_rates_and_best_endpoint() {
        let mut m = TaskMonitor::default();
        for _ in 0..8 {
            m.count_attempt(EndpointId(0), true);
        }
        m.count_attempt(EndpointId(0), false);
        m.count_attempt(EndpointId(0), false); // ep0: 8/10
        m.count_attempt(EndpointId(1), true); // ep1: 1/1
        assert!((m.success_rate(EndpointId(0)).unwrap() - 0.8).abs() < 1e-9);
        assert_eq!(m.success_rate(EndpointId(1)), Some(1.0));
        assert_eq!(m.success_rate(EndpointId(9)), None);
        assert_eq!(
            m.best_endpoint_by_success(&[EndpointId(0), EndpointId(1)]),
            Some(EndpointId(1))
        );
        // Unattempted endpoints are optimistic (rate 1.0), lower id wins tie.
        assert_eq!(
            m.best_endpoint_by_success(&[EndpointId(0), EndpointId(5), EndpointId(6)]),
            Some(EndpointId(5))
        );
        assert_eq!(m.best_endpoint_by_success(&[]), None);
    }

    #[test]
    fn seeded_transfers_are_not_task_attempts() {
        use crate::profile::transfer::transfer_record_name;
        let transfer_into = |dst: u16| TaskRecord {
            function: transfer_record_name(EndpointId(1), EndpointId(dst)).into(),
            ..rec("", dst, 3.0, true)
        };
        // ep0: one failed task and many inbound transfers; ep1: one success.
        let mut db = HistoryDb::new();
        db.push(rec("dock", 0, 10.0, false));
        for _ in 0..10 {
            db.push(transfer_into(0));
        }
        db.push(rec("dock", 1, 10.0, true));
        let m = TaskMonitor::new(Some(db.clone()));
        assert_eq!(m.success_rate(EndpointId(0)), Some(0.0));
        assert_eq!(m.success_rate(EndpointId(1)), Some(1.0));
        assert_eq!(m.history().len(), 12, "transfer rows stay in the history");

        // With ep1 at one success in two, received data must not make ep0
        // (never a successful task) the better retry target.
        db.push(rec("dock", 1, 10.0, false));
        let m = TaskMonitor::new(Some(db));
        assert_eq!(
            m.best_endpoint_by_success(&[EndpointId(0), EndpointId(1)]),
            Some(EndpointId(1))
        );
    }

    #[test]
    fn csv_roundtrip() {
        let mut db = HistoryDb::new();
        db.push(rec("dock", 0, 12.5, true));
        db.push(rec("fingerprint", 3, 0.75, false));
        let path = std::env::temp_dir().join("unifaas_history_test.csv");
        db.save_csv(&path).unwrap();
        let loaded = HistoryDb::load_csv(&path).unwrap();
        assert_eq!(loaded.records(), db.records());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_rejects_malformed_rows() {
        let path = std::env::temp_dir().join("unifaas_history_bad.csv");
        std::fs::write(&path, "header\nonly,three,fields\n").unwrap();
        assert!(HistoryDb::load_csv(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn monitor_seeds_from_history() {
        let mut db = HistoryDb::new();
        db.push(rec("dock", 0, 10.0, true));
        db.push(rec("dock", 0, 10.0, false));
        let m = TaskMonitor::new(Some(db));
        assert_eq!(m.success_rate(EndpointId(0)), Some(0.5));
        assert_eq!(m.history().len(), 2);
    }

    #[test]
    fn function_names_with_commas_quotes_newlines_roundtrip() {
        let names = [
            "weird,name",
            "say \"hi\"",
            "multi\nline",
            "all,of\r\nthe \"above\", twice\n\"\"",
            "trailing,",
            ",leading",
            "\"fully quoted\"",
            "plain_name",
        ];
        let mut db = HistoryDb::new();
        for (i, name) in names.iter().enumerate() {
            db.push(rec(name, i as u16, 1.0 + i as f64, i % 2 == 0));
        }
        let path = std::env::temp_dir().join("unifaas_history_comma.csv");
        db.save_csv(&path).unwrap();
        let loaded = HistoryDb::load_csv(&path).unwrap();
        assert_eq!(loaded.records(), db.records());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_rejects_unterminated_quote() {
        let path = std::env::temp_dir().join("unifaas_history_unterminated.csv");
        std::fs::write(&path, "header\n\"open,0,1,1.0,1,1,1.0,1,true\n").unwrap();
        assert!(HistoryDb::load_csv(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
