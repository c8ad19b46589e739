//! The experiment-spec parser (line-oriented, no external dependencies).

use fedci::hardware::ClusterSpec;
use taskgraph::workloads::{drug, ensemble, montage, stress};
use taskgraph::Dag;
use unifaas::config::{Config, ConfigBuilder, ScalingConfig, SchedulingStrategy};
use unifaas::prelude::EndpointConfig;

/// A parse failure, with the offending line number.
#[derive(Debug, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "spec line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SpecError {}

/// Which workload the spec requests.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// Drug-screening pipelines.
    Drug {
        /// Pipelines (tasks = 1 + 4 × pipelines).
        pipelines: usize,
    },
    /// Montage mosaic.
    Montage {
        /// Tiles (tasks = 5 × tiles + 6 with the default overlap ratio).
        tiles: usize,
    },
    /// Layered bag of stress tasks (`stress::layered_bag`): `depth` layers
    /// of `n` tasks, task `j` of each layer depending on task `j` of the
    /// layer before. Depth 1 is a bag of independent tasks.
    Bag {
        /// Tasks per layer.
        n: usize,
        /// Layers (at least 1).
        depth: usize,
        /// Seconds per task.
        secs: f64,
    },
    /// ML-steered simulation ensemble.
    Ensemble {
        /// Steering rounds.
        rounds: usize,
        /// Simulations per round.
        batch: usize,
    },
}

impl WorkloadSpec {
    /// Builds the DAG for this workload.
    pub fn build(&self) -> Dag {
        match self {
            WorkloadSpec::Drug { pipelines } => {
                drug::generate(&drug::DrugParams::small(*pipelines))
            }
            WorkloadSpec::Montage { tiles } => {
                montage::generate(&montage::MontageParams::small(*tiles))
            }
            WorkloadSpec::Bag { n, depth, secs } => stress::layered_bag(*n, *depth, *secs),
            WorkloadSpec::Ensemble { rounds, batch } => {
                ensemble::generate(&ensemble::EnsembleParams {
                    rounds: *rounds,
                    batch: *batch,
                    ..Default::default()
                })
            }
        }
    }
}

/// A fully parsed experiment.
#[derive(Debug)]
pub struct RunSpec {
    /// The deployment configuration.
    pub config: Config,
    /// The workload to run.
    pub workload: WorkloadSpec,
}

fn err(line: usize, message: impl Into<String>) -> SpecError {
    SpecError {
        line,
        message: message.into(),
    }
}

fn cluster_by_name(name: &str, line: usize) -> Result<ClusterSpec, SpecError> {
    if let Some(speed) = name.strip_prefix("uniform:") {
        let speed: f64 = speed
            .parse()
            .map_err(|_| err(line, format!("bad uniform speed `{speed}`")))?;
        return Ok(ClusterSpec::uniform("uniform", speed));
    }
    Ok(match name {
        "taiyi" => ClusterSpec::taiyi(),
        "qiming" => ClusterSpec::qiming(),
        "dept" => ClusterSpec::dept_cluster(),
        "lab" => ClusterSpec::lab_cluster(),
        "workstation" => ClusterSpec::workstation(),
        other => return Err(err(line, format!("unknown cluster `{other}`"))),
    })
}

fn kv<'a>(tokens: &'a [&'a str], key: &str) -> Option<&'a str> {
    tokens
        .iter()
        .find_map(|t| t.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
}

/// Parses an experiment spec.
pub fn parse_spec(text: &str) -> Result<RunSpec, SpecError> {
    let mut builder: ConfigBuilder = Config::builder();
    let mut workload: Option<WorkloadSpec> = None;
    let mut scaling: Option<ScalingConfig> = None;
    let mut any_endpoint = false;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens[0] {
            "endpoint" => {
                if tokens.len() < 4 {
                    return Err(err(line_no, "endpoint needs: <label> <cluster> <workers>"));
                }
                let label = tokens[1];
                let cluster = cluster_by_name(tokens[2], line_no)?;
                let workers: usize = tokens[3]
                    .parse()
                    .map_err(|_| err(line_no, format!("bad worker count `{}`", tokens[3])))?;
                let mut ep = EndpointConfig::new(label, cluster, workers);
                if let Some(max) = kv(&tokens, "max") {
                    let max: usize = max
                        .parse()
                        .map_err(|_| err(line_no, format!("bad max `{max}`")))?;
                    let node = kv(&tokens, "node")
                        .map(|n| n.parse::<usize>())
                        .transpose()
                        .map_err(|_| err(line_no, "bad node size"))?
                        .unwrap_or(workers.max(1));
                    if max < workers {
                        return Err(err(line_no, "max must be >= workers"));
                    }
                    ep = ep.elastic(workers, max, node);
                }
                builder = builder.endpoint(ep);
                any_endpoint = true;
            }
            "strategy" => {
                let strategy = match tokens.get(1).copied() {
                    Some("capacity") => SchedulingStrategy::Capacity,
                    Some("locality") => SchedulingStrategy::Locality,
                    Some("dha") => SchedulingStrategy::Dha { rescheduling: true },
                    Some("dha-no-resched") => SchedulingStrategy::Dha {
                        rescheduling: false,
                    },
                    other => {
                        return Err(err(
                            line_no,
                            format!("unknown strategy `{}`", other.unwrap_or("")),
                        ))
                    }
                };
                builder = builder.strategy(strategy);
            }
            "seed" => {
                let seed: u64 = tokens
                    .get(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(line_no, "seed needs a u64"))?;
                builder = builder.seed(seed);
            }
            "capacity-event" => {
                let at: u64 = tokens
                    .get(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(line_no, "capacity-event needs <at> <ep> <delta>"))?;
                let ep: usize = tokens
                    .get(2)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(line_no, "capacity-event needs <at> <ep> <delta>"))?;
                let delta: i64 = tokens
                    .get(3)
                    .and_then(|s| s.trim_start_matches('+').parse().ok())
                    .ok_or_else(|| err(line_no, "capacity-event needs <at> <ep> <delta>"))?;
                builder = builder.capacity_event(at, ep, delta);
            }
            "scaling" => {
                let enabled = match tokens.get(1).copied() {
                    Some("on") => true,
                    Some("off") => false,
                    other => {
                        return Err(err(
                            line_no,
                            format!("scaling needs on|off, got `{}`", other.unwrap_or("")),
                        ))
                    }
                };
                scaling = Some(ScalingConfig {
                    enabled,
                    ..ScalingConfig::default()
                });
            }
            "workload" => {
                let kind = tokens.get(1).copied().unwrap_or("");
                let keys: &[&str] = match kind {
                    "drug" => &["pipelines"],
                    "montage" => &["tiles"],
                    "bag" => &["n", "depth", "secs"],
                    "ensemble" => &["rounds", "batch"],
                    other => return Err(err(line_no, format!("unknown workload `{other}`"))),
                };
                let known = |t: &&str| {
                    keys.iter()
                        .any(|k| t.strip_prefix(k).is_some_and(|r| r.starts_with('=')))
                };
                if let Some(bad) = tokens[2..].iter().find(|t| !known(t)) {
                    return Err(err(
                        line_no,
                        format!(
                            "workload {kind}: unknown key `{bad}` (keys: {})",
                            keys.join(", ")
                        ),
                    ));
                }
                let num = |key: &str| -> Result<usize, SpecError> {
                    kv(&tokens, key)
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err(line_no, format!("workload {kind} needs {key}=N")))
                };
                let w = match kind {
                    "drug" => WorkloadSpec::Drug {
                        pipelines: num("pipelines")?,
                    },
                    "montage" => WorkloadSpec::Montage {
                        tiles: num("tiles")?,
                    },
                    "bag" => {
                        let secs: f64 = kv(&tokens, "secs")
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| err(line_no, "workload bag needs secs=S"))?;
                        if !(secs.is_finite() && secs >= 0.0) {
                            return Err(err(
                                line_no,
                                format!("workload bag: secs must be finite and >= 0, got {secs}"),
                            ));
                        }
                        let depth = match kv(&tokens, "depth") {
                            None => 1,
                            Some(_) => num("depth")?,
                        };
                        if depth == 0 {
                            return Err(err(line_no, "workload bag: depth must be >= 1"));
                        }
                        WorkloadSpec::Bag {
                            n: num("n")?,
                            depth,
                            secs,
                        }
                    }
                    // "ensemble", the one kind left.
                    _ => WorkloadSpec::Ensemble {
                        rounds: num("rounds")?,
                        batch: num("batch")?,
                    },
                };
                workload = Some(w);
            }
            other => return Err(err(line_no, format!("unknown directive `{other}`"))),
        }
    }

    if !any_endpoint {
        return Err(err(0, "spec declares no endpoints"));
    }
    let workload = workload.ok_or_else(|| err(0, "spec declares no workload"))?;
    let mut config = builder.build();
    if let Some(s) = scaling {
        config.scaling = s;
    }
    Ok(RunSpec { config, workload })
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# comment
endpoint Taiyi taiyi 200          # trailing comment
endpoint Lab   lab   8 max=40 node=8
strategy dha
seed 7
capacity-event 120 0 -50
scaling on
workload drug pipelines=10
";

    #[test]
    fn parses_full_spec() {
        let spec = parse_spec(GOOD).unwrap();
        assert_eq!(spec.config.endpoints.len(), 3); // + implicit home
        assert_eq!(spec.config.endpoints[0].label, "Taiyi");
        assert_eq!(spec.config.endpoints[1].max_workers, 40);
        assert_eq!(spec.config.endpoints[1].workers_per_node, 8);
        assert_eq!(
            spec.config.strategy,
            SchedulingStrategy::Dha { rescheduling: true }
        );
        assert_eq!(spec.config.seed, 7);
        assert_eq!(spec.config.capacity_events.len(), 1);
        assert_eq!(spec.config.capacity_events[0].delta, -50);
        assert!(spec.config.scaling.enabled);
        assert_eq!(spec.workload, WorkloadSpec::Drug { pipelines: 10 });
        assert_eq!(spec.workload.build().len(), 41);
    }

    #[test]
    fn uniform_cluster_and_bag_workload() {
        let spec = parse_spec("endpoint a uniform:1.5 4\nworkload bag n=20 secs=3.5\n").unwrap();
        assert_eq!(spec.config.endpoints[0].cluster.speed_factor, 1.5);
        assert_eq!(
            spec.workload,
            WorkloadSpec::Bag {
                n: 20,
                depth: 1,
                secs: 3.5
            }
        );
        assert_eq!(spec.workload.build().len(), 20);
        let spec = parse_spec("endpoint a qiming 4\nworkload bag n=10 depth=3 secs=2\n").unwrap();
        let dag = spec.workload.build();
        assert_eq!((dag.len(), dag.n_edges()), (30, 20));
    }

    #[test]
    fn montage_workload_builds() {
        let spec = parse_spec("endpoint a qiming 4\nworkload montage tiles=10\n").unwrap();
        assert_eq!(spec.workload, WorkloadSpec::Montage { tiles: 10 });
        assert_eq!(spec.workload.build().len(), 56);
    }

    #[test]
    fn ensemble_workload_builds() {
        let spec = parse_spec(
            "endpoint a qiming 4
workload ensemble rounds=3 batch=5
",
        )
        .unwrap();
        assert_eq!(
            spec.workload,
            WorkloadSpec::Ensemble {
                rounds: 3,
                batch: 5
            }
        );
        assert_eq!(spec.workload.build().len(), 18);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_spec("endpoint a qiming 4\nbogus directive\nworkload bag n=1 secs=1\n")
            .unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn bad_workload_lines_fail_on_their_line() {
        for (line, why) in [
            ("workload bag n=10 secs=-1", "secs must be finite"),
            ("workload bag n=10 secs=nan", "secs must be finite"),
            ("workload bag n=10 secs=inf", "secs must be finite"),
            ("workload bag n=10 depth=0 secs=1", "depth must be >= 1"),
            ("workload bag n=10 depth=x secs=1", "needs depth=N"),
            ("workload bag n=10 secs=1 bogus=3", "unknown key `bogus=3`"),
            ("workload bag n=10 dept=4 secs=1", "unknown key `dept=4`"),
            ("workload bag n=10 secs=1 depth", "unknown key `depth`"),
            ("workload drug pipelines=4 tiles=2", "unknown key `tiles=2`"),
            ("workload fractal n=1", "unknown workload `fractal`"),
        ] {
            let e = parse_spec(&format!("endpoint a qiming 4\n{line}\n")).unwrap_err();
            assert_eq!(e.line, 2, "`{line}`");
            assert!(e.message.contains(why), "`{line}`: {}", e.message);
        }
    }

    #[test]
    fn missing_workload_is_an_error() {
        let e = parse_spec("endpoint a qiming 4\n").unwrap_err();
        assert!(e.message.contains("no workload"));
    }

    #[test]
    fn missing_endpoints_is_an_error() {
        let e = parse_spec("workload bag n=1 secs=1\n").unwrap_err();
        assert!(e.message.contains("no endpoints"));
    }

    #[test]
    fn bad_cluster_and_bad_numbers() {
        assert!(parse_spec("endpoint a nebula 4\nworkload bag n=1 secs=1\n").is_err());
        assert!(parse_spec("endpoint a qiming four\nworkload bag n=1 secs=1\n").is_err());
        assert!(parse_spec("endpoint a qiming 4 max=2\nworkload bag n=1 secs=1\n").is_err());
        assert!(parse_spec("endpoint a qiming 4\nworkload drug\n").is_err());
    }

    #[test]
    fn parsed_spec_actually_runs() {
        let spec = parse_spec(
            "endpoint a qiming 8\nendpoint b taiyi 8\nstrategy locality\nworkload bag n=30 secs=5\n",
        )
        .unwrap();
        let report = unifaas::SimRuntime::new(spec.config, spec.workload.build())
            .run()
            .unwrap();
        assert_eq!(report.tasks_completed, 30);
    }
}
