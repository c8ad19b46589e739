//! The experiment-spec parser (line-oriented, no external dependencies).

use fedci::hardware::ClusterSpec;
use fedci::transfer::TransferMechanism;
use simkit::SimDuration;
use taskgraph::workloads::{drug, ensemble, montage, stress};
use taskgraph::Dag;
use unifaas::config::{Config, ConfigBuilder, KnowledgeMode, ScalingConfig, SchedulingStrategy};
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
    /// Bag of independent stress tasks.
    Bag {
        /// Task count.
        n: usize,
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
            WorkloadSpec::Bag { n, secs } => stress::bag_of_tasks(*n, *secs),
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
            "knowledge" => {
                let k = match tokens.get(1).copied() {
                    Some("oracle") => KnowledgeMode::Oracle,
                    Some("learned") => KnowledgeMode::Learned,
                    other => {
                        return Err(err(
                            line_no,
                            format!("unknown knowledge mode `{}`", other.unwrap_or("")),
                        ))
                    }
                };
                builder = builder.knowledge(k);
            }
            "transfer" => {
                let t = match tokens.get(1).copied() {
                    Some("globus") => TransferMechanism::Globus,
                    Some("rsync") => TransferMechanism::Rsync,
                    other => {
                        return Err(err(
                            line_no,
                            format!("unknown transfer mechanism `{}`", other.unwrap_or("")),
                        ))
                    }
                };
                builder = builder.transfer(t);
            }
            "seed" => {
                let seed: u64 = tokens
                    .get(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(line_no, "seed needs a u64"))?;
                builder = builder.seed(seed);
            }
            "noise" => {
                let cv: f64 = tokens
                    .get(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(line_no, "noise needs a float cv"))?;
                builder = builder.exec_noise_cv(cv);
            }
            "faults" => {
                let xfer: f64 = tokens
                    .get(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(line_no, "faults needs two probabilities"))?;
                let task: f64 = tokens
                    .get(2)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(line_no, "faults needs two probabilities"))?;
                builder = builder.faults(xfer, task);
            }
            "outage" => {
                let ep: usize = tokens
                    .get(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(line_no, "outage needs <ep> <from-s> <to-s>"))?;
                let from: u64 = tokens
                    .get(2)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(line_no, "outage needs <ep> <from-s> <to-s>"))?;
                let to: u64 = tokens
                    .get(3)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| err(line_no, "outage needs <ep> <from-s> <to-s>"))?;
                if to <= from {
                    return Err(err(line_no, "outage window must end after it starts"));
                }
                builder = builder.outage(ep, from, to);
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
                let idle = kv(&tokens, "idle")
                    .map(|v| v.parse::<u64>())
                    .transpose()
                    .map_err(|_| err(line_no, "bad idle seconds"))?
                    .unwrap_or(30);
                scaling = Some(ScalingConfig {
                    enabled,
                    idle_timeout: SimDuration::from_secs(idle),
                    interval: SimDuration::from_secs(1),
                    policy: unifaas::config::ScalingPolicyKind::Default,
                });
            }
            "workload" => {
                let w = match tokens.get(1).copied() {
                    Some("drug") => WorkloadSpec::Drug {
                        pipelines: kv(&tokens, "pipelines")
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| err(line_no, "workload drug needs pipelines=N"))?,
                    },
                    Some("montage") => WorkloadSpec::Montage {
                        tiles: kv(&tokens, "tiles")
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| err(line_no, "workload montage needs tiles=N"))?,
                    },
                    Some("bag") => WorkloadSpec::Bag {
                        n: kv(&tokens, "n")
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| err(line_no, "workload bag needs n=N"))?,
                        secs: kv(&tokens, "secs")
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| err(line_no, "workload bag needs secs=S"))?,
                    },
                    Some("ensemble") => WorkloadSpec::Ensemble {
                        rounds: kv(&tokens, "rounds")
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| err(line_no, "workload ensemble needs rounds=N"))?,
                        batch: kv(&tokens, "batch")
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| err(line_no, "workload ensemble needs batch=N"))?,
                    },
                    other => {
                        return Err(err(
                            line_no,
                            format!("unknown workload `{}`", other.unwrap_or("")),
                        ))
                    }
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
    use simkit::SimTime;

    const GOOD: &str = "\
# comment
endpoint Taiyi taiyi 200          # trailing comment
endpoint Lab   lab   8 max=40 node=8
strategy dha
knowledge learned
transfer rsync
seed 7
noise 0.05
faults 0.1 0.05
outage 1 100 200
capacity-event 120 0 -50
scaling on idle=20
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
        assert_eq!(spec.config.knowledge, KnowledgeMode::Learned);
        assert_eq!(spec.config.transfer, TransferMechanism::Rsync);
        assert_eq!(spec.config.seed, 7);
        assert_eq!(spec.config.exec_noise_cv, 0.05);
        assert_eq!(spec.config.transfer_failure_prob, 0.1);
        assert_eq!(spec.config.outages.len(), 1);
        assert_eq!(spec.config.outages[0].endpoint, 1);
        assert_eq!(spec.config.outages[0].from, SimTime::from_secs(100));
        assert_eq!(spec.config.outages[0].to, SimTime::from_secs(200));
        assert_eq!(spec.config.capacity_events.len(), 1);
        assert_eq!(spec.config.capacity_events[0].delta, -50);
        assert!(spec.config.scaling.enabled);
        assert_eq!(spec.config.scaling.idle_timeout, SimDuration::from_secs(20));
        assert_eq!(spec.workload, WorkloadSpec::Drug { pipelines: 10 });
        assert_eq!(spec.workload.build().len(), 41);
    }

    #[test]
    fn uniform_cluster_and_bag_workload() {
        let spec = parse_spec("endpoint a uniform:1.5 4\nworkload bag n=20 secs=3.5\n").unwrap();
        assert_eq!(spec.config.endpoints[0].cluster.speed_factor, 1.5);
        assert_eq!(spec.workload.build().len(), 20);
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
        // Outage windows must be well-formed.
        assert!(
            parse_spec("endpoint a qiming 4\noutage 0 200 100\nworkload bag n=1 secs=1\n").is_err()
        );
        assert!(parse_spec("endpoint a qiming 4\noutage 0 50\nworkload bag n=1 secs=1\n").is_err());
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

    #[test]
    fn out_of_range_faults_and_noise_fail_the_run() {
        // The parser accepts any float; `Config::validate` is where the
        // range is enforced, so the error surfaces from `run`.
        for directive in ["faults nan 2", "faults -1 7", "noise nan", "noise -3"] {
            let spec = parse_spec(&format!(
                "endpoint a qiming 8\nendpoint b taiyi 8\n{directive}\nworkload bag n=4 secs=5\n"
            ))
            .unwrap();
            let err = unifaas::SimRuntime::new(spec.config, spec.workload.build())
                .run()
                .unwrap_err();
            assert!(
                matches!(err, unifaas::UniFaasError::InvalidConfig(_)),
                "`{directive}`: {err}"
            );
        }
    }
}
