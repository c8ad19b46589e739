//! The committed benchmark harness behind `BENCHMARK.json`.
//!
//! One binary runs one workload per process (`--workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`): the simulator workloads in [`sim`], the
//! live-fabric workloads in [`wire`], the standalone layer kernels in
//! [`kernels`]. Everything is measured from outside the program — by
//! timing calls into public functions, by the decorators in [`timed`] and
//! by reading counters the program already exposes. See `README.md`.

pub mod catalog;
pub mod kernels;
pub mod pass;
pub mod sim;
pub mod spans;
pub mod stats;
pub mod timed;
pub mod wire;

use catalog::Samples;
use spans::SpanLog;
use std::path::PathBuf;
use std::time::Instant;

/// What one run of one workload was asked to do.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Workload name (one of [`catalog::WORKLOADS`]).
    pub workload: String,
    /// Seed of the generated inputs (sim `Config` seed / fabric payloads).
    pub seed: u64,
    /// Measuring time after the warm-up rep, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced run (end-to-end metrics).
    pub trace: bool,
    /// Size divisor: 1 is the committed size, `--smoke` uses 20.
    pub scale: usize,
    /// Path of the built `unifaas-endpointd` (wire workloads).
    pub daemon: Option<PathBuf>,
    /// Where traced runs write `trace-<workload>.json`.
    pub out_dir: PathBuf,
}

impl Opts {
    /// Timed work per layer kernel, shrunk with the workload.
    pub fn kernel_seconds(&self) -> f64 {
        kernels::KERNEL_SECONDS / self.scale as f64
    }
}

/// What a run measured.
pub struct Outcome {
    /// Tasks attempted over the timed reps.
    pub attempted: u64,
    /// Of those, tasks whose result was missing, an error or wrong.
    pub failed: u64,
    /// Per-rep samples by metric name.
    pub samples: Samples,
    /// One result digest per rep (warm-up first), for the human output.
    pub digests: Vec<u64>,
    /// The harness's own spans.
    pub spans: SpanLog,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            samples: Samples::default(),
            digests: Vec::new(),
            spans: SpanLog::new(),
        }
    }
}

/// Runs `rep` once, then again while at least half of a rep like the last
/// one still fits into `seconds` of measuring time.
pub fn run_reps(seconds: f64, mut rep: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let start = Instant::now();
    let mut last = 0.0;
    let mut done = 0;
    while done == 0 || start.elapsed().as_secs_f64() + 0.5 * last < seconds {
        let t0 = Instant::now();
        rep()?;
        last = t0.elapsed().as_secs_f64();
        done += 1;
    }
    Ok(())
}

/// Runs `cycle` — one set-up, timed by itself, then torn down — often
/// enough for a steady median: set-up is short next to a rep, so it needs
/// more samples than there are reps. At least 5 cycles, then up to 30 while
/// 1.5 s last. Returns the cycles' set-up seconds.
pub fn sample_setups(mut cycle: impl FnMut() -> Result<f64, String>) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < 5 || (out.len() < 30 && start.elapsed().as_secs_f64() < 1.5) {
        out.push(cycle()?);
    }
    Ok(out)
}

/// `VmHWM` of this process in MiB — the client side's peak resident set.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the harness's only random source, so inputs depend on the
/// seed and nothing else.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs the workload `opts` names.
pub fn run_workload(opts: &Opts) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        "sim-stress-capacity" | "sim-stress-dha" | "sim-drug-dha" => sim::run(opts),
        "threaded-fanout" | "wire-fanout" | "wire-chain" | "wire-data" => wire::run(opts),
        other => Err(format!("unknown workload `{other}`")),
    }
}
