//! Workflow/deployment configuration — the paper's `Config` interface
//! (§III-C, Listing 2).
//!
//! The configuration is deliberately separate from the programming
//! interface: a workflow is written once and redeployed on a different set
//! of endpoints by changing only the `Config` ("write once, run anywhere").

use crate::error::UniFaasError;
use fedci::faas::FaasServiceModel;
use fedci::fault::{Backend, FaultPlan, FaultRule};
use fedci::hardware::ClusterSpec;
use fedci::storage::MAX_ENDPOINTS;
use fedci::transfer::TransferMechanism;
use simkit::{SimDuration, SimTime};

/// One endpoint entry (the paper's `Executor(label=..., endpoint=UUID)`).
#[derive(Clone, Debug)]
pub struct EndpointConfig {
    /// Human-readable label.
    pub label: String,
    /// The cluster this endpoint runs on.
    pub cluster: ClusterSpec,
    /// Workers provisioned at start.
    pub workers: usize,
    /// Upper bound on workers (elastic scaling limit).
    pub max_workers: usize,
    /// Worker granularity of the batch scheduler: scale-out requests are
    /// rounded up to whole nodes of this many workers.
    pub workers_per_node: usize,
}

impl EndpointConfig {
    /// Creates an endpoint with `workers` static workers.
    pub fn new(label: &str, cluster: ClusterSpec, workers: usize) -> Self {
        EndpointConfig {
            label: label.to_string(),
            cluster,
            workers,
            max_workers: workers,
            workers_per_node: workers.max(1),
        }
    }

    /// Makes the endpoint elastic: starts at `initial`, may grow to `max`,
    /// in node units of `per_node` workers.
    pub fn elastic(mut self, initial: usize, max: usize, per_node: usize) -> Self {
        assert!(initial <= max && per_node >= 1);
        self.workers = initial;
        self.max_workers = max;
        self.workers_per_node = per_node;
        self
    }
}

/// Which scheduling algorithm maps tasks to endpoints (Table I).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedulingStrategy {
    /// Offline capacity-proportional partitioning (Eq. 1) in DFS order.
    Capacity,
    /// Real-time minimum-data-movement placement on idle resources.
    Locality,
    /// Dynamic heterogeneity-aware scheduling: HEFT-style prioritization
    /// (Eq. 2), earliest-finish-time endpoint selection, delay dispatch and
    /// (optionally) periodic re-scheduling with task stealing.
    Dha {
        /// Enable the re-scheduling mechanism (Table V ablates this).
        rescheduling: bool,
    },
    /// DHA with every knob exposed, for ablation studies.
    DhaCustom {
        /// Enable re-scheduling.
        rescheduling: bool,
        /// Enable the delay mechanism (off = dispatch straight to the
        /// endpoint queue after staging).
        delay_dispatch: bool,
        /// Steal hysteresis as a percentage: a task moves only if the
        /// candidate EFT is below this percent of the current EFT.
        steal_threshold_pct: u8,
    },
    /// Pin each function to the endpoint with the given label — used by the
    /// multi-endpoint elasticity experiment (Fig. 7) where each task type
    /// runs on its own endpoint.
    Pinned(Vec<(String, String)>),
}

/// Where DHA's task/transfer knowledge comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KnowledgeMode {
    /// Ground truth from the simulator — the paper's "we assume full
    /// knowledge can be retrieved from the profilers" (§VI-A).
    Oracle,
    /// Models trained online from the task monitor's records (plus any
    /// preloaded history database), i.e. the observe–predict–decide loop.
    Learned,
}

/// A scheduled capacity change for the dynamic-resource experiments
/// (Table V, Figs. 12–13).
#[derive(Clone, Copy, Debug)]
pub struct CapacityEvent {
    /// When the change takes effect.
    pub at: SimTime,
    /// Index of the endpoint affected.
    pub endpoint: usize,
    /// Worker delta (positive adds, negative removes; removals may preempt
    /// running tasks, which are re-queued).
    pub delta: i64,
}

/// Retry behavior for failed task attempts (§IV-G).
///
/// The delay before attempt `n + 1` (after `n` failures) is
///
/// ```text
/// delay(n) = min(backoff_max, backoff_base · backoff_factor^(n-1))
///            · (1 + backoff_jitter · u),   u ~ Uniform[-1, 1)
/// ```
///
/// drawn from a dedicated RNG stream seeded from the master seed, so
/// enabling backoff perturbs no other random draw. The default
/// `backoff_base` of zero retries immediately — bit-identical to the
/// behavior before backoff existed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Delay before the second attempt; `ZERO` retries immediately.
    pub backoff_base: SimDuration,
    /// Multiplier applied per additional failure.
    pub backoff_factor: f64,
    /// Upper bound on the (pre-jitter) delay.
    pub backoff_max: SimDuration,
    /// Symmetric jitter fraction in `[0, 1]`: the delay is scaled by a
    /// factor drawn uniformly from `[1 - jitter, 1 + jitter)`.
    pub backoff_jitter: f64,
    /// Kill an execution attempt that exceeds this duration and reassign
    /// the task (straggler mitigation). `None` disables the watchdog.
    pub exec_timeout: Option<SimDuration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            backoff_base: SimDuration::ZERO,
            backoff_factor: 2.0,
            backoff_max: SimDuration::from_secs(300),
            backoff_jitter: 0.1,
            exec_timeout: None,
        }
    }
}

impl RetryPolicy {
    /// The pre-jitter delay before the attempt following `failures`
    /// consecutive failures (`failures ≥ 1`).
    pub fn base_delay_seconds(&self, failures: u32) -> f64 {
        let base = self.backoff_base.as_secs_f64();
        if base == 0.0 {
            return 0.0;
        }
        let raw = base * self.backoff_factor.powi(failures.saturating_sub(1) as i32);
        raw.min(self.backoff_max.as_secs_f64())
    }
}

/// Which multi-endpoint scaling policy drives elasticity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScalingPolicyKind {
    /// The paper's default: scale out when pending tasks exceed workers,
    /// scale in after the idle timeout.
    Default,
    /// Scheduling-coordinated elasticity (the paper's future work):
    /// provision by predicted backlog seconds, skipping batch queues slower
    /// than the backlog they would relieve.
    Coordinated {
        /// Desired time-to-drain per endpoint, seconds.
        target_drain_seconds: f64,
    },
}

/// Elastic-scaling configuration (§IV-H).
#[derive(Clone, Debug)]
pub struct ScalingConfig {
    /// Master switch; static-capacity experiments disable scaling.
    pub enabled: bool,
    /// Endpoint-side idle interval after which idle workers are released.
    pub idle_timeout: SimDuration,
    /// Which policy plans the scaling commands.
    pub policy: ScalingPolicyKind,
}

impl Default for ScalingConfig {
    fn default() -> Self {
        ScalingConfig {
            enabled: false,
            idle_timeout: SimDuration::from_secs(30),
            policy: ScalingPolicyKind::Default,
        }
    }
}

/// Full deployment configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// The federated resource pool. The last entry is the *home*
    /// endpoint, where the client runs and workflow-initial data lives:
    /// the zero-worker workstation [`ConfigBuilder::build`] appends.
    pub endpoints: Vec<EndpointConfig>,
    /// Scheduling algorithm.
    pub strategy: SchedulingStrategy,
    /// Data transfer mechanism (Globus or rsync).
    pub transfer: TransferMechanism,
    /// Max retries for a failed transfer before the task fails (§IV-G).
    pub max_transfer_retries: u32,
    /// Max execution attempts for a failed task before the workflow errors.
    pub max_task_attempts: u32,
    /// FaaS fabric latency model.
    pub faas: FaasServiceModel,
    /// Elastic scaling.
    pub scaling: ScalingConfig,
    /// DHA knowledge source.
    pub knowledge: KnowledgeMode,
    /// Execution-profiler model family used in `Learned` mode.
    pub model_family: crate::profile::ModelFamily,
    /// In `Learned` mode, send probing transfers between every endpoint
    /// pair at initialization so the transfer profiler starts with measured
    /// bandwidths (§IV-C: "the transfer profiler can send probing file
    /// transfers ... when UniFaaS is initialized").
    pub probe_transfers: bool,
    /// Coefficient of variation of simulated execution time around the
    /// task's nominal duration (hardware noise).
    pub exec_noise_cv: f64,
    /// Scheduled capacity changes (dynamic-resource experiments).
    pub capacity_events: Vec<CapacityEvent>,
    /// Faults to inject (`task-fail`, `transfer-fail`, `down`, `swallow`,
    /// `delay`; see [`fedci::fault`]). Empty by default.
    pub faults: FaultPlan,
    /// Retry backoff and execution-timeout policy (§IV-G).
    pub retry: RetryPolicy,
    /// Endpoint health state-machine thresholds.
    pub health: crate::monitor::HealthPolicy,
    /// Master RNG seed; every run with the same seed replays exactly.
    pub seed: u64,
    /// Check this run as it goes, at a cost: reconcile the runtime's
    /// transition-maintained counters against a full task scan on every
    /// periodic tick (debug builds always do), fold the scheduler decision
    /// stream into [`RunReport::decision_digest`](crate::metrics::RunReport::decision_digest)
    /// and the determinism digest, and check every event delivery of the
    /// calendar-wheel queue against a reference binary heap. Panics at the
    /// first counter drift or out-of-order delivery. Schedules, report
    /// counters and series are the same either way; only the digest gains
    /// the decision stream. Default off.
    pub verify: bool,
}

impl Config {
    /// Starts building a configuration.
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder::default()
    }

    /// Validates invariants the runtimes rely on.
    pub fn validate(&self) -> Result<(), UniFaasError> {
        if self.endpoints.is_empty() {
            return Err(UniFaasError::InvalidConfig(
                "at least one endpoint is required".into(),
            ));
        }
        if self.endpoints.len() > MAX_ENDPOINTS {
            return Err(UniFaasError::TooManyEndpoints {
                endpoints: self.endpoints.len(),
                max: MAX_ENDPOINTS,
            });
        }
        if self
            .endpoints
            .iter()
            .all(|e| e.max_workers == 0 && e.workers == 0)
        {
            return Err(UniFaasError::InvalidConfig(
                "no endpoint has any workers".into(),
            ));
        }
        for ev in &self.capacity_events {
            if ev.endpoint >= self.endpoints.len() {
                return Err(UniFaasError::InvalidConfig(format!(
                    "capacity event references endpoint {} out of range",
                    ev.endpoint
                )));
            }
        }
        self.faults.check(Backend::Sim, self.endpoints.len())?;
        self.faults
            .check_watchdog(self.retry.exec_timeout.is_some())?;
        if !(self.exec_noise_cv.is_finite() && self.exec_noise_cv >= 0.0) {
            return Err(UniFaasError::InvalidConfig(format!(
                "execution noise CV must be finite and >= 0, got {}",
                self.exec_noise_cv
            )));
        }
        if !(0.0..=1.0).contains(&self.retry.backoff_jitter) {
            return Err(UniFaasError::InvalidConfig(
                "retry backoff jitter must be in [0, 1]".into(),
            ));
        }
        if self.retry.backoff_factor < 1.0 {
            return Err(UniFaasError::InvalidConfig(
                "retry backoff factor must be >= 1".into(),
            ));
        }
        // The status sync re-arms at `now + interval` while the run can
        // progress, so a zero interval stops virtual time.
        if self.faas.status_sync_interval == SimDuration::ZERO {
            return Err(UniFaasError::InvalidConfig(
                "status sync interval must be positive".into(),
            ));
        }
        if let SchedulingStrategy::Pinned(map) = &self.strategy {
            for (_, label) in map {
                if !self.endpoints.iter().any(|e| &e.label == label) {
                    return Err(UniFaasError::InvalidConfig(format!(
                        "pinned strategy references unknown endpoint label `{label}`"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Builder for [`Config`].
#[derive(Clone, Debug)]
pub struct ConfigBuilder {
    config: Config,
}

impl Default for ConfigBuilder {
    fn default() -> Self {
        ConfigBuilder {
            config: Config {
                endpoints: Vec::new(),
                strategy: SchedulingStrategy::Locality,
                transfer: TransferMechanism::Globus,
                max_transfer_retries: 3,
                max_task_attempts: 3,
                faas: FaasServiceModel::default(),
                scaling: ScalingConfig::default(),
                knowledge: KnowledgeMode::Oracle,
                model_family: crate::profile::ModelFamily::default(),
                probe_transfers: true,
                exec_noise_cv: 0.02,
                capacity_events: Vec::new(),
                faults: FaultPlan::default(),
                retry: RetryPolicy::default(),
                health: crate::monitor::HealthPolicy::default(),
                seed: 0x05E5,
                verify: false,
            },
        }
    }
}

impl ConfigBuilder {
    /// Adds an endpoint to the pool.
    pub fn endpoint(mut self, ep: EndpointConfig) -> Self {
        self.config.endpoints.push(ep);
        self
    }

    /// Sets the scheduling strategy.
    pub fn strategy(mut self, s: SchedulingStrategy) -> Self {
        self.config.strategy = s;
        self
    }

    /// Sets the transfer mechanism.
    pub fn transfer(mut self, t: TransferMechanism) -> Self {
        self.config.transfer = t;
        self
    }

    /// Sets the scaling configuration.
    pub fn scaling(mut self, s: ScalingConfig) -> Self {
        self.config.scaling = s;
        self
    }

    /// Sets the knowledge mode.
    pub fn knowledge(mut self, k: KnowledgeMode) -> Self {
        self.config.knowledge = k;
        self
    }

    /// Sets the execution model family for `Learned` mode.
    pub fn model_family(mut self, f: crate::profile::ModelFamily) -> Self {
        self.config.model_family = f;
        self
    }

    /// Sets execution-time noise.
    pub fn exec_noise_cv(mut self, cv: f64) -> Self {
        self.config.exec_noise_cv = cv;
        self
    }

    /// Adds a capacity event.
    pub fn capacity_event(mut self, at_seconds: u64, endpoint: usize, delta: i64) -> Self {
        self.config.capacity_events.push(CapacityEvent {
            at: SimTime::from_secs(at_seconds),
            endpoint,
            delta,
        });
        self
    }

    /// Adds a fault rule to [`Config::faults`].
    pub fn fault(mut self, rule: FaultRule) -> Self {
        self.config.faults.push(rule);
        self
    }

    /// Sets retry limits.
    pub fn retries(mut self, max_transfer_retries: u32, max_task_attempts: u32) -> Self {
        self.config.max_transfer_retries = max_transfer_retries;
        self.config.max_task_attempts = max_task_attempts;
        self
    }

    /// Sets the retry backoff / execution-timeout policy.
    pub fn retry_policy(mut self, p: RetryPolicy) -> Self {
        self.config.retry = p;
        self
    }

    /// Turns the run's self-checks on (see [`Config::verify`]).
    pub fn verify(mut self, yes: bool) -> Self {
        self.config.verify = yes;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Finishes building: appends a zero-worker workstation as the home
    /// endpoint (the submitting host of Table II).
    pub fn build(mut self) -> Config {
        self.config.endpoints.push(EndpointConfig {
            label: "home".into(),
            cluster: ClusterSpec::workstation(),
            workers: 0,
            max_workers: 0,
            workers_per_node: 1,
        });
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedci::fault::FaultError;

    fn two_ep_config() -> Config {
        Config::builder()
            .endpoint(EndpointConfig::new("a", ClusterSpec::qiming(), 4))
            .endpoint(EndpointConfig::new("b", ClusterSpec::taiyi(), 8))
            .build()
    }

    #[test]
    fn builder_appends_home_workstation() {
        let c = two_ep_config();
        assert_eq!(c.endpoints.len(), 3);
        assert_eq!(c.endpoints[2].workers, 0);
        assert_eq!(c.endpoints[2].cluster.name, "Workstation");
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_empty_pool() {
        let c = Config {
            endpoints: vec![],
            ..two_ep_config()
        };
        assert!(matches!(c.validate(), Err(UniFaasError::InvalidConfig(_))));
    }

    #[test]
    fn validation_catches_bad_capacity_event() {
        let c = Config::builder()
            .endpoint(EndpointConfig::new("a", ClusterSpec::qiming(), 4))
            .capacity_event(10, 7, 100)
            .build();
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_catches_unknown_pinned_label() {
        let c = Config::builder()
            .endpoint(EndpointConfig::new("a", ClusterSpec::qiming(), 4))
            .strategy(SchedulingStrategy::Pinned(vec![(
                "f".into(),
                "nonexistent".into(),
            )]))
            .build();
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_catches_all_zero_workers() {
        let c = Config::builder()
            .endpoint(EndpointConfig::new("ws", ClusterSpec::workstation(), 0))
            .build();
        assert!(c.validate().is_err());
    }

    fn with_faults(rules: &[&str]) -> Config {
        let mut c = two_ep_config();
        c.faults = rules.iter().map(|r| r.parse().unwrap()).collect();
        c
    }

    #[test]
    fn validation_checks_the_fault_plan() {
        let fault = |c: Config| match c.validate() {
            Err(UniFaasError::Fault(e)) => e,
            other => panic!("expected a fault error, got {other:?}"),
        };
        let e = fault(with_faults(&["down ep=9 from=10 to=20"]));
        assert!(matches!(e, FaultError::NoSuchEndpoint { .. }));
        let e = fault(with_faults(&["kill ep=0 after=5"]));
        assert!(matches!(e, FaultError::Unsupported { .. }));
        let e = fault(with_faults(&["swallow every=3"]));
        assert!(matches!(e, FaultError::NeedsWatchdog { .. }));
        let mut watched = with_faults(&["swallow every=3", "down ep=0 from=10 to=20"]);
        watched.retry.exec_timeout = Some(SimDuration::from_secs(60));
        assert!(watched.validate().is_ok());
        // A rule built as a value is range-checked like a parsed one.
        let mut bad = two_ep_config();
        bad.faults.push(FaultRule::TaskFail { p: 1.5 });
        assert!(matches!(fault(bad), FaultError::Probability { .. }));
    }

    #[test]
    fn validation_catches_bad_retry_policy() {
        let bad_jitter = Config {
            retry: RetryPolicy {
                backoff_jitter: 1.5,
                ..RetryPolicy::default()
            },
            ..two_ep_config()
        };
        assert!(bad_jitter.validate().is_err());
        let bad_factor = Config {
            retry: RetryPolicy {
                backoff_factor: 0.5,
                ..RetryPolicy::default()
            },
            ..two_ep_config()
        };
        assert!(bad_factor.validate().is_err());
    }

    #[test]
    fn validation_catches_out_of_range_noise_values() {
        for bad in [f64::NAN, f64::INFINITY, -3.0] {
            let noise = Config {
                exec_noise_cv: bad,
                ..two_ep_config()
            };
            assert!(noise.validate().is_err(), "exec_noise_cv {bad}");
        }
        let edge = Config {
            exec_noise_cv: 1.5,
            ..with_faults(&["task-fail p=1", "transfer-fail p=0"])
        };
        assert!(edge.validate().is_ok());
    }

    #[test]
    fn validation_rejects_a_zero_status_sync_interval() {
        let mut sync = two_ep_config();
        sync.faas.status_sync_interval = SimDuration::ZERO;
        assert!(matches!(
            sync.validate(),
            Err(UniFaasError::InvalidConfig(_))
        ));
    }

    #[test]
    fn validation_rejects_more_endpoints_than_the_data_store_holds() {
        let pool = |n: usize| {
            (0..n).fold(Config::builder(), |b, i| {
                b.endpoint(EndpointConfig::new(
                    &format!("ep{i}"),
                    ClusterSpec::qiming(),
                    1,
                ))
            })
        };
        // `build` appends the home: 63 + 1 fit, 64 + 1 do not.
        assert!(pool(MAX_ENDPOINTS - 1).build().validate().is_ok());
        assert_eq!(
            pool(MAX_ENDPOINTS).build().validate(),
            Err(UniFaasError::TooManyEndpoints {
                endpoints: MAX_ENDPOINTS + 1,
                max: MAX_ENDPOINTS
            })
        );
    }

    #[test]
    fn retry_backoff_grows_and_caps() {
        let p = RetryPolicy {
            backoff_base: SimDuration::from_secs(2),
            backoff_factor: 3.0,
            backoff_max: SimDuration::from_secs(10),
            ..RetryPolicy::default()
        };
        assert_eq!(p.base_delay_seconds(1), 2.0);
        assert_eq!(p.base_delay_seconds(2), 6.0);
        assert_eq!(p.base_delay_seconds(3), 10.0, "capped");
        // Default policy retries immediately regardless of failures.
        assert_eq!(RetryPolicy::default().base_delay_seconds(5), 0.0);
    }

    #[test]
    fn elastic_builder() {
        let e = EndpointConfig::new("a", ClusterSpec::qiming(), 4).elastic(0, 100, 20);
        assert_eq!(e.workers, 0);
        assert_eq!(e.max_workers, 100);
        assert_eq!(e.workers_per_node, 20);
    }
}
