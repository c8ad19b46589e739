//! Spans the harness records around its calls into each layer: name,
//! start, end, the span that caused it and (for per-attempt spans) the
//! task id. Kept in memory; written once when a traced run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in microseconds since the log's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.run` or `fabric.roundtrip`.
    pub name: &'static str,
    /// Start, µs since the epoch.
    pub start_us: u64,
    /// End, µs since the epoch.
    pub end_us: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Task id for per-attempt spans.
    pub task: Option<u64>,
}

/// An append-only span log with a stack of open spans.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose epoch is now.
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let now = self.us(Instant::now());
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
            task: None,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the span `enter` returned (and any left open inside it).
    pub fn exit(&mut self, idx: usize) {
        let now = self.us(Instant::now());
        while let Some(open) = self.open.pop() {
            self.spans[open].end_us = now;
            if open == idx {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name` and returns `f`'s value with
    /// the seconds it took.
    pub fn scoped<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let idx = self.enter(name);
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.exit(idx);
        (out, secs)
    }

    /// Adds an already measured span under the innermost open span.
    pub fn add(&mut self, name: &'static str, start: Instant, end: Instant, task: Option<u64>) {
        self.spans.push(Span {
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            parent: self.open.last().copied(),
            task,
        });
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the log as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"unit\": \"us\", \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {}, \"task\": {}}}{sep}",
                s.name,
                s.start_us,
                s.end_us,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.task.map_or("null".to_string(), |t| t.to_string()),
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents() {
        let mut log = SpanLog::new();
        let rep = log.enter("rep");
        log.scoped("sim.run", || ());
        let t = Instant::now();
        log.add("fabric.roundtrip", t, t, Some(7));
        log.exit(rep);
        let s = log.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!((s[2].parent, s[2].task), (Some(0), Some(7)));
        assert!(s[0].end_us >= s[1].end_us);
    }
}
