//! The transfer profiler (§IV-C).
//!
//! "Data transfer time is primarily determined by the data size and the
//! network conditions between endpoints." The profiler keeps a per-pair
//! polynomial model `time = f(size)` fitted from observed transfers of that
//! pair (observed transfers are streamed into the history database as
//! pseudo-records by the runtime). Before any observation exists for a
//! pair, predictions use a probing estimate: a configurable default
//! bandwidth, standing in for the paper's "probing file transfers to
//! measure the network bandwidth between endpoints".

use crate::monitor::HistoryDb;
use fedci::endpoint::EndpointId;
use perfmodel::polyreg::{PolynomialModel, PolynomialRegression};
use perfmodel::{Dataset, Regressor, Trainer};
use std::collections::HashMap;

/// Prefix of pseudo-records carrying transfer observations in the history
/// database. Format: `__transfer__/<src>/<dst>`.
const TRANSFER_RECORD_PREFIX: &str = "__transfer__";

/// Builds the pseudo-function name for a transfer observation record.
pub fn transfer_record_name(src: EndpointId, dst: EndpointId) -> String {
    format!("{TRANSFER_RECORD_PREFIX}/{}/{}", src.0, dst.0)
}

/// Parses a pseudo-record name back into `(src, dst)`.
pub fn parse_transfer_record_name(name: &str) -> Option<(EndpointId, EndpointId)> {
    let mut parts = name.split('/');
    if parts.next()? != TRANSFER_RECORD_PREFIX {
        return None;
    }
    let src: u16 = parts.next()?.parse().ok()?;
    let dst: u16 = parts.next()?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some((EndpointId(src), EndpointId(dst)))
}

/// Minimum observations before a pair model is trained.
const MIN_TRAIN_ROWS: usize = 4;

struct PairModel {
    data: Dataset,
    model: Option<PolynomialModel>,
    rows_at_last_fit: usize,
}

/// Per-endpoint-pair transfer-time models.
pub struct TransferProfiler {
    pairs: HashMap<(EndpointId, EndpointId), PairModel>,
    trainer: PolynomialRegression,
    /// Probing estimate used for unseen pairs, bytes/second.
    pub probe_bandwidth_bps: f64,
    /// Fixed overhead assumed for unseen pairs, seconds.
    pub probe_startup_seconds: f64,
    history_rows_seen: usize,
}

impl TransferProfiler {
    /// Creates a profiler with WAN-class probing defaults (100 MiB/s).
    pub fn new() -> Self {
        TransferProfiler {
            pairs: HashMap::new(),
            trainer: PolynomialRegression {
                degree: 1,
                cross_terms: false,
                ridge: 1e-6,
            },
            probe_bandwidth_bps: 100.0 * 1024.0 * 1024.0,
            probe_startup_seconds: 2.0,
            history_rows_seen: 0,
        }
    }

    /// Ingests new transfer pseudo-records from the history database and
    /// refits the affected pair models.
    pub fn retrain(&mut self, history: &HistoryDb) {
        let records = history.records();
        let mut touched: Vec<(EndpointId, EndpointId)> = Vec::new();
        for rec in &records[self.history_rows_seen.min(records.len())..] {
            let Some(pair) = parse_transfer_record_name(&rec.function) else {
                continue;
            };
            if !rec.success {
                continue;
            }
            let entry = self.pairs.entry(pair).or_insert_with(|| PairModel {
                data: Dataset::new(1),
                model: None,
                rows_at_last_fit: 0,
            });
            entry
                .data
                .push(&[rec.input_bytes as f64], rec.duration_seconds);
            entry.data.truncate_oldest(1_000);
            if !touched.contains(&pair) {
                touched.push(pair);
            }
        }
        self.history_rows_seen = records.len();

        for pair in touched {
            let entry = self.pairs.get_mut(&pair).expect("just inserted");
            if entry.data.len() >= MIN_TRAIN_ROWS && entry.data.len() > entry.rows_at_last_fit {
                entry.model = self.trainer.fit(&entry.data);
                entry.rows_at_last_fit = entry.data.len();
            }
        }
    }

    /// Predicted transfer time for `bytes` on the `src → dst` pair, seconds.
    pub fn predict(&self, bytes: u64, src: EndpointId, dst: EndpointId) -> f64 {
        if src == dst || bytes == 0 {
            return 0.0;
        }
        if let Some(entry) = self.pairs.get(&(src, dst)) {
            if let Some(model) = &entry.model {
                return model.predict(&[bytes as f64]).max(0.0);
            }
        }
        self.probe_startup_seconds + bytes as f64 / self.probe_bandwidth_bps
    }
}

impl Default for TransferProfiler {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::TaskRecord;

    fn xfer_record(src: u16, dst: u16, bytes: u64, dur: f64) -> TaskRecord {
        TaskRecord {
            function: transfer_record_name(EndpointId(src), EndpointId(dst)).into(),
            endpoint: EndpointId(dst),
            input_bytes: bytes,
            duration_seconds: dur,
            output_bytes: 0,
            cores: 0,
            cpu_ghz: 0.0,
            ram_gb: 0,
            success: true,
        }
    }

    #[test]
    fn record_name_roundtrip() {
        let name = transfer_record_name(EndpointId(3), EndpointId(7));
        assert_eq!(
            parse_transfer_record_name(&name),
            Some((EndpointId(3), EndpointId(7)))
        );
        assert_eq!(parse_transfer_record_name("dock"), None);
        assert_eq!(parse_transfer_record_name("__transfer__/x/1"), None);
        assert_eq!(parse_transfer_record_name("__transfer__/1/2/3"), None);
    }

    #[test]
    fn unseen_pair_uses_probe_estimate() {
        let p = TransferProfiler::new();
        let t = p.predict(100 * 1024 * 1024, EndpointId(0), EndpointId(1));
        // 2 s startup + 100 MiB / 100 MiB/s = 3 s.
        assert!((t - 3.0).abs() < 0.01, "t={t}");
        assert_eq!(p.predict(123, EndpointId(1), EndpointId(1)), 0.0);
    }

    #[test]
    fn learns_linear_pair_model() {
        let mut p = TransferProfiler::new();
        let mut db = HistoryDb::new();
        // Ground truth: 1 s + bytes / 50 MiB/s on pair (0→1).
        let bw = 50.0 * 1024.0 * 1024.0;
        for mb in [1u64, 10, 50, 100, 200, 400] {
            let bytes = mb * 1024 * 1024;
            db.push(xfer_record(0, 1, bytes, 1.0 + bytes as f64 / bw));
        }
        p.retrain(&db);
        assert_eq!(p.pairs.values().filter(|p| p.model.is_some()).count(), 1);
        let pred = p.predict(150 * 1024 * 1024, EndpointId(0), EndpointId(1));
        let want = 1.0 + 3.0;
        assert!((pred - want).abs() / want < 0.05, "pred={pred} want={want}");
        // Other direction remains on the probe estimate.
        let rev = p.predict(150 * 1024 * 1024, EndpointId(1), EndpointId(0));
        assert!((rev - (2.0 + 1.5)).abs() < 0.05, "rev={rev}");
    }

    #[test]
    fn non_transfer_records_ignored() {
        let mut p = TransferProfiler::new();
        let mut db = HistoryDb::new();
        db.push(TaskRecord {
            function: "dock".into(),
            endpoint: EndpointId(0),
            input_bytes: 100,
            duration_seconds: 1.0,
            output_bytes: 0,
            cores: 1,
            cpu_ghz: 1.0,
            ram_gb: 1,
            success: true,
        });
        p.retrain(&db);
        assert_eq!(p.pairs.values().filter(|p| p.model.is_some()).count(), 0);
        assert!(p.pairs.is_empty());
    }

    #[test]
    fn prediction_never_negative() {
        let mut p = TransferProfiler::new();
        let mut db = HistoryDb::new();
        // Degenerate data that could fit a negative intercept.
        for _ in 0..5 {
            db.push(xfer_record(0, 1, 1_000_000, 0.001));
        }
        p.retrain(&db);
        assert!(p.predict(1, EndpointId(0), EndpointId(1)) >= 0.0);
    }
}
