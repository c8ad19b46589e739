//! The simulator workloads: `sim-stress-capacity`, `sim-stress-dha`,
//! `sim-drug-dha`.
//!
//! Each rep regenerates the DAG and the §VI-A static pool (that is the
//! rep's set-up), runs a fresh `SimRuntime`, and checks the report against
//! the oracle: every task completed, no failed attempt, and digest,
//! makespan, transfer bytes and event count identical to the first rep.
//! Nothing is pinned as a constant — a scheduling change may move the
//! simulated outputs; two reps of one build may not disagree.

use crate::catalog::Samples;
use crate::kernels;
use crate::spans::SpanLog;
use crate::stats::median;
use crate::timed::{PredictorTimes, TimedPredictor};
use crate::{peak_rss_mib, run_reps, sample_setups, Opts, Outcome};
use fedci::hardware::ClusterSpec;
use fedci::network::{Link, NetworkTopology};
use simkit::TraceLevel;
use std::rc::Rc;
use std::time::Instant;
use taskgraph::workloads::{drug, stress};
use taskgraph::Dag;
use unifaas::config::{Config, EndpointConfig, SchedulingStrategy};
use unifaas::metrics::RunReport;
use unifaas::profile::OracleProfiler;
use unifaas::trace::TraceConfig;
use unifaas::SimRuntime;

/// Width of each of the four dependent stress layers at scale 1.
const STRESS_WIDTH: usize = 250_000;

/// The §VI-A drug static pool: 2000/384/48/52 workers on
/// Taiyi/Qiming/Dept/Lab (the home workstation is appended by `build`).
fn pool(strategy: SchedulingStrategy, seed: u64) -> Config {
    Config::builder()
        .endpoint(EndpointConfig::new("Taiyi", ClusterSpec::taiyi(), 2000))
        .endpoint(EndpointConfig::new("Qiming", ClusterSpec::qiming(), 384))
        .endpoint(EndpointConfig::new("Dept", ClusterSpec::dept_cluster(), 48))
        .endpoint(EndpointConfig::new("Lab", ClusterSpec::lab_cluster(), 52))
        .strategy(strategy)
        .seed(seed)
        .build()
}

fn strategy_of(workload: &str) -> SchedulingStrategy {
    if workload == "sim-stress-capacity" {
        SchedulingStrategy::Capacity
    } else {
        SchedulingStrategy::Dha { rescheduling: true }
    }
}

fn build_dag(workload: &str, scale: usize) -> Dag {
    if workload == "sim-drug-dha" {
        let full = drug::DrugParams::full();
        drug::generate(&drug::DrugParams {
            n_pipelines: (full.n_pipelines / scale).max(1),
            ..full
        })
    } else {
        stress::layered_bag((STRESS_WIDTH / scale).max(1), 4, 1.0)
    }
}

/// How a rep is instrumented.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Observability off: the end-to-end measurement.
    Plain,
    /// `with_trace(Spans)` + `with_metrics(true)`.
    Traced,
    /// The config's own (oracle) predictor behind a [`TimedPredictor`].
    TimedPredictor,
}

/// The simulated outputs two reps of one build must agree on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Witness {
    digest: u64,
    makespan_bits: u64,
    transfer_bytes: u64,
    events: u64,
}

struct Rep {
    setup_s: f64,
    build_s: f64,
    wall_s: f64,
    tasks: usize,
    report: RunReport,
    predictor: Option<(u64, f64)>,
}

/// A rep's set-up: the DAG, the pool and a `SimRuntime` ready to run.
struct Prepared {
    rt: SimRuntime,
    tasks: usize,
    setup_s: f64,
    build_s: f64,
    times: Option<Rc<PredictorTimes>>,
}

fn prepare(opts: &Opts, mode: Mode, spans: &mut SpanLog) -> Prepared {
    let t_setup = Instant::now();
    let (dag, build_s) = spans.scoped("taskgraph.build", || build_dag(&opts.workload, opts.scale));
    let tasks = dag.len();
    let cfg = pool(strategy_of(&opts.workload), opts.seed);
    let mut rt = SimRuntime::new(cfg.clone(), dag);
    let mut times = None;
    match mode {
        Mode::Plain => {}
        Mode::Traced => {
            rt = rt
                .with_trace(TraceConfig::at_level(TraceLevel::Spans))
                .with_metrics(true);
        }
        Mode::TimedPredictor => {
            // What `SimRuntime` builds for `KnowledgeMode::Oracle` with
            // the default network.
            let own = OracleProfiler::new(
                NetworkTopology::uniform(cfg.endpoints.len(), Link::wan()),
                cfg.transfer.default_params(),
            );
            let (p, t) = TimedPredictor::new(Box::new(own));
            rt = rt.with_predictor(Box::new(p));
            times = Some(t);
        }
    }
    Prepared {
        rt,
        tasks,
        setup_s: t_setup.elapsed().as_secs_f64(),
        build_s,
        times,
    }
}

fn rep(opts: &Opts, mode: Mode, spans: &mut SpanLog) -> Result<Rep, String> {
    let rep_span = spans.enter("rep");
    let p = prepare(opts, mode, spans);
    let (report, wall_s) = spans.scoped("sim.run", || p.rt.run());
    spans.exit(rep_span);
    let report = report.map_err(|e| format!("simulated run failed: {e}"))?;
    Ok(Rep {
        setup_s: p.setup_s,
        build_s: p.build_s,
        wall_s,
        tasks: p.tasks,
        report,
        predictor: p.times.map(|t| (t.calls(), t.busy_s())),
    })
}

/// Checks one rep against the oracle; returns how many tasks count as
/// failed.
fn check(rep: &Rep, first: &mut Option<Witness>) -> u64 {
    let r = &rep.report;
    let w = Witness {
        digest: r.determinism_digest(),
        makespan_bits: r.makespan.as_secs_f64().to_bits(),
        transfer_bytes: r.transfer_bytes,
        events: r.events_processed,
    };
    let same = *first.get_or_insert(w) == w;
    if !same {
        eprintln!("oracle: rep disagrees with the first rep: {w:?} vs {first:?}");
        return rep.tasks as u64;
    }
    let incomplete = rep.tasks.saturating_sub(r.tasks_completed) as u64;
    (incomplete + r.failed_attempts as u64).min(rep.tasks as u64)
}

fn push_report(s: &mut Samples, rep: &Rep) {
    let r = &rep.report;
    let sched_s = r.scheduler_wall.as_secs_f64();
    let self_s = rep.wall_s - sched_s;
    s.push("sim_wall_s", rep.wall_s);
    s.push("makespan_s", r.makespan.as_secs_f64());
    s.push("transfer_gb", r.transfer_gb());
    s.push("simkit.events", r.events_processed as f64);
    s.push("taskgraph.build_s", rep.build_s);
    s.push("sched.busy_s", sched_s);
    s.push("sched.calls", r.scheduler_calls as f64);
    s.push("sched.us_per_task", r.scheduler_overhead_per_task() * 1e6);
    s.push("data.transfer_bytes", r.transfer_bytes as f64);
    s.push("sim.self_s", self_s);
    s.push(
        "sim.self_ns_per_event",
        self_s * 1e9 / r.events_processed.max(1) as f64,
    );
    let (scheduling, staging, submission, queue, execution, polling) = r.latency.means();
    s.push("stage.scheduling_s", scheduling);
    s.push("stage.staging_s", staging);
    s.push("stage.submission_s", submission);
    s.push("stage.queue_s", queue);
    s.push("stage.execution_s", execution);
    s.push("stage.polling_s", polling);
}

/// Runs one simulator workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let mut first = None;
    // One rep in `mode`, checked against the oracle and counted.
    let mut checked = |mode: Mode, out: &mut Outcome| -> Result<Rep, String> {
        let r = rep(opts, mode, &mut out.spans)?;
        out.failed += check(&r, &mut first);
        out.attempted += r.tasks as u64;
        out.digests.push(r.report.determinism_digest());
        Ok(r)
    };

    // Discarded warm-up rep: the first large run of a process pays for
    // fresh pages (3.7 s cold vs 1.4 s warm at a million tasks).
    checked(Mode::Plain, &mut out)?;

    if !opts.trace {
        for s in sample_setups(|| Ok(prepare(opts, Mode::Plain, &mut out.spans).setup_s))? {
            out.samples.push("setup_s", s);
        }
        run_reps(opts.seconds, || {
            let r = checked(Mode::Plain, &mut out)?;
            out.samples.push("setup_s", r.setup_s);
            out.samples.push("tasks_per_s", r.tasks as f64 / r.wall_s);
            Ok(())
        })?;
    } else {
        run_reps(opts.seconds / 2.0, || {
            let r = checked(Mode::Plain, &mut out)?;
            push_report(&mut out.samples, &r);
            Ok(())
        })?;
        let mut traced_walls = Vec::new();
        run_reps(opts.seconds / 2.0, || {
            traced_walls.push(checked(Mode::Traced, &mut out)?.wall_s);
            Ok(())
        })?;
        let plain = median(out.samples.get("sim_wall_s"));
        out.samples.set(
            "sim.trace_overhead_frac",
            (median(&traced_walls) - plain) / plain,
        );

        let r = checked(Mode::TimedPredictor, &mut out)?;
        let (calls, busy_s) = r.predictor.expect("timed rep");
        out.samples.push("profile.predict_calls", calls as f64);
        out.samples.push("profile.busy_s", busy_s);
        drop(r);

        let dag = build_dag(&opts.workload, opts.scale);
        let samples = &mut out.samples;
        out.spans.scoped("kernels", || {
            kernels::sim_kernels(opts.seed, &dag, opts.kernel_seconds(), samples)
        });
        out.samples
            .set("failed_frac", out.failed as f64 / out.attempted as f64);
    }
    out.samples.push("peak_rss_mb", peak_rss_mib());
    Ok(out)
}
