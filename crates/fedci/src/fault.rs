//! Deterministic fault injection: one fault plan for every backend.
//!
//! UniFaaS implements transfer retry and task reassignment (§IV-G). To
//! exercise those paths every backend reads the same [`FaultPlan`], a list
//! of [`FaultRule`]s with one text form, `<kind> key=value …`:
//!
//! ```text
//! task-fail p=<0..1>               a task attempt crashes (sim)
//! transfer-fail p=<0..1>             a transfer attempt fails (sim)
//! down ep=<i> from=<s> to=<s>        endpoint outage, whole virtual seconds (sim)
//! swallow [ep=<i>] every=<k>         every k-th attempt never reports
//! delay [ep=<i>] ms=<ms>             each attempt starts ms late
//! dup [ep=<i>]                       every RESULT is sent twice (daemon)
//! kill ep=<i> after=<k>              SIGKILL the endpoint's daemon once k
//!                                    tasks completed in the whole run
//! ```
//!
//! A backend given a rule it cannot run rejects the plan with
//! [`FaultError::Unsupported`] ([`FaultRule::runs_on`] is the table);
//! no rule is silently ignored. Several `task-fail`/`transfer-fail`
//! probabilities add up, several `delay`s add up, and two `swallow`s on
//! one endpoint are rejected.
//!
//! The simulator's [`FaultInjector`] draws every probabilistic fault from
//! one seeded stream, so a failing run replays exactly. Outage windows are
//! kept per endpoint, sorted and merged on insert, so the hot-path
//! [`FaultInjector::in_outage`] check is a binary search.

use crate::endpoint::EndpointId;
use simkit::{SimDuration, SimRng, SimTime};
use std::fmt;
use std::str::FromStr;

/// The backends a [`FaultPlan`] runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The discrete-event simulator.
    Sim,
    /// The in-process pools of `ThreadedFabric`.
    Threaded,
    /// One endpoint daemon (`unifaas-endpointd`): it is endpoint 0.
    Daemon,
    /// The process fabric as `unifaas-fabric` drives it: `kill` from its
    /// killer thread, the attempt rules forwarded to each daemon.
    Process,
}

impl Backend {
    /// The backend's short name.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Threaded => "threaded",
            Backend::Daemon => "daemon",
            Backend::Process => "process",
        }
    }
}

/// One fault. Each variant's fields are the keys of its text form (see
/// the module docs); an `ep` of `None` covers every endpoint.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultRule {
    /// A task attempt crashes with probability `p`.
    TaskFail {
        /// Per-attempt probability.
        p: f64,
    },
    /// A transfer attempt fails with probability `p`.
    TransferFail {
        /// Per-attempt probability.
        p: f64,
    },
    /// Endpoint `ep` is down over `[from, to)`, in whole virtual seconds:
    /// its work drains through the reassignment policy.
    Down {
        /// The endpoint.
        ep: usize,
        /// Start of the outage, seconds.
        from: u64,
        /// End of the outage, seconds.
        to: u64,
    },
    /// Every `every`-th attempt started on a covered endpoint is dropped
    /// without a result; the client's watchdog recovers it.
    Swallow {
        /// The endpoint, if only one.
        ep: Option<usize>,
        /// The period, at least 1.
        every: u64,
    },
    /// Each attempt on a covered endpoint starts `ms` late (a straggler).
    Delay {
        /// The endpoint, if only one.
        ep: Option<usize>,
        /// Extra latency per attempt.
        ms: u64,
    },
    /// Every RESULT from a covered endpoint is sent twice.
    Dup {
        /// The endpoint, if only one.
        ep: Option<usize>,
    },
    /// SIGKILL endpoint `ep`'s daemon once `after` tasks completed across
    /// the whole run.
    Kill {
        /// The endpoint.
        ep: usize,
        /// Completions that trigger the kill.
        after: u64,
    },
}

impl FaultRule {
    /// The endpoint the rule names, if any.
    fn ep(&self) -> Option<usize> {
        match *self {
            FaultRule::Swallow { ep, .. } | FaultRule::Delay { ep, .. } | FaultRule::Dup { ep } => {
                ep
            }
            FaultRule::Down { ep, .. } | FaultRule::Kill { ep, .. } => Some(ep),
            FaultRule::TaskFail { .. } | FaultRule::TransferFail { .. } => None,
        }
    }

    /// Whether `backend` can run this rule (the support table).
    pub fn runs_on(&self, backend: Backend) -> bool {
        match self {
            FaultRule::TaskFail { .. }
            | FaultRule::TransferFail { .. }
            | FaultRule::Down { .. } => backend == Backend::Sim,
            FaultRule::Swallow { .. } | FaultRule::Delay { .. } => true,
            FaultRule::Dup { .. } => matches!(backend, Backend::Daemon | Backend::Process),
            FaultRule::Kill { .. } => backend == Backend::Process,
        }
    }

    /// The rule itself, if its values are in range: `p` in `[0, 1]`,
    /// `from < to`, `every ≥ 1`, and times the simulator's microsecond
    /// clock can hold.
    fn validate(self) -> Result<Self, FaultError> {
        let rule = self;
        match self {
            FaultRule::TaskFail { p } | FaultRule::TransferFail { p }
                if !(0.0..=1.0).contains(&p) =>
            {
                Err(FaultError::Probability(rule))
            }
            FaultRule::Down { from, to, .. } if from >= to => Err(FaultError::EmptyWindow(rule)),
            FaultRule::Down { to, .. } if to > u64::MAX / 1_000_000 => {
                Err(FaultError::TooLarge(rule))
            }
            FaultRule::Delay { ms, .. } if ms > u64::MAX / 1_000 => Err(FaultError::TooLarge(rule)),
            FaultRule::Swallow { every: 0, .. } => Err(FaultError::ZeroEvery(rule)),
            _ => Ok(self),
        }
    }

    fn covers(&self, ep: usize) -> bool {
        self.ep().is_none_or(|e| e == ep)
    }
}

impl fmt::Display for FaultRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let at = |ep: Option<usize>| ep.map(|ep| format!(" ep={ep}")).unwrap_or_default();
        match *self {
            FaultRule::TaskFail { p } => write!(f, "task-fail p={p}"),
            FaultRule::TransferFail { p } => write!(f, "transfer-fail p={p}"),
            FaultRule::Down { ep, from, to } => write!(f, "down ep={ep} from={from} to={to}"),
            FaultRule::Swallow { ep, every } => write!(f, "swallow{} every={every}", at(ep)),
            FaultRule::Delay { ep, ms } => write!(f, "delay{} ms={ms}", at(ep)),
            FaultRule::Dup { ep } => write!(f, "dup{}", at(ep)),
            FaultRule::Kill { ep, after } => write!(f, "kill ep={ep} after={after}"),
        }
    }
}

/// Why a rule or plan was rejected; each names the offending rule.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultError {
    /// Not `<kind> key=value …` (the text, and what is wrong with it): an
    /// unknown kind, an unknown, missing or repeated key, or a bad number.
    Syntax(String, String),
    /// A probability outside `[0, 1]` (or NaN).
    Probability(FaultRule),
    /// A `down` window with `from ≥ to`.
    EmptyWindow(FaultRule),
    /// `swallow every=0`.
    ZeroEvery(FaultRule),
    /// A `down` bound or `delay` past the simulator's microsecond clock.
    TooLarge(FaultRule),
    /// A rule the backend cannot run.
    Unsupported(FaultRule, Backend),
    /// A rule naming an endpoint past the backend's endpoint count.
    NoSuchEndpoint(FaultRule, usize),
    /// A second `swallow` covering an endpoint another one covers.
    OverlappingSwallow(FaultRule),
    /// A `swallow` with no execution timeout to recover it.
    NeedsWatchdog(FaultRule),
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (rule, why) = match self {
            FaultError::Syntax(text, why) => return write!(f, "fault rule `{text}`: {why}"),
            FaultError::Probability(r) => (r, "p must be in [0, 1]".into()),
            FaultError::EmptyWindow(r) => (r, "the window must end after it starts".into()),
            FaultError::ZeroEvery(r) => (r, "every must be at least 1".into()),
            FaultError::TooLarge(r) => (r, "too large for the simulated clock".into()),
            FaultError::Unsupported(r, b) => {
                (r, format!("not supported by the {} backend", b.name()))
            }
            FaultError::NoSuchEndpoint(r, n) => (r, format!("only {n} endpoint(s)")),
            FaultError::OverlappingSwallow(r) => (r, "another swallow covers its endpoint".into()),
            FaultError::NeedsWatchdog(r) => (r, "needs an execution timeout to recover".into()),
        };
        write!(f, "fault rule `{rule}`: {why}")
    }
}

impl std::error::Error for FaultError {}

/// A rule's `key=value` words, consumed key by key.
struct Fields<'a> {
    text: &'a str,
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    fn syntax(&self, reason: String) -> FaultError {
        FaultError::Syntax(self.text.to_string(), reason)
    }

    fn opt<T: FromStr>(&mut self, key: &str) -> Result<Option<T>, FaultError> {
        let Some(at) = self.pairs.iter().position(|&(k, _)| k == key) else {
            return Ok(None);
        };
        let (_, value) = self.pairs.remove(at);
        value
            .parse()
            .map(Some)
            .map_err(|_| self.syntax(format!("`{key}={value}` is not a number")))
    }

    fn req<T: FromStr>(&mut self, key: &str) -> Result<T, FaultError> {
        self.opt(key)?
            .ok_or_else(|| self.syntax(format!("missing `{key}=`")))
    }
}

impl FromStr for FaultRule {
    type Err = FaultError;

    fn from_str(text: &str) -> Result<Self, FaultError> {
        let mut words = text.split_whitespace();
        let kind = words.next().unwrap_or("");
        let mut f = Fields {
            text,
            pairs: Vec::new(),
        };
        for word in words {
            let pair = word.split_once('=');
            f.pairs
                .push(pair.ok_or_else(|| f.syntax(format!("`{word}` is not key=value")))?);
        }
        let rule = match kind {
            "task-fail" => FaultRule::TaskFail { p: f.req("p")? },
            "transfer-fail" => FaultRule::TransferFail { p: f.req("p")? },
            "down" => FaultRule::Down {
                ep: f.req("ep")?,
                from: f.req("from")?,
                to: f.req("to")?,
            },
            "swallow" => FaultRule::Swallow {
                ep: f.opt("ep")?,
                every: f.req("every")?,
            },
            "delay" => FaultRule::Delay {
                ep: f.opt("ep")?,
                ms: f.req("ms")?,
            },
            "dup" => FaultRule::Dup { ep: f.opt("ep")? },
            "kill" => FaultRule::Kill {
                ep: f.req("ep")?,
                after: f.req("after")?,
            },
            other => return Err(f.syntax(format!("unknown kind `{other}`"))),
        };
        match f.pairs.first() {
            Some((key, _)) => Err(f.syntax(format!("unknown or repeated key `{key}`"))),
            None => rule.validate(),
        }
    }
}

/// What the attempt rules (`swallow`, `delay`, `dup`) do on one endpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AttemptFaults {
    /// Drop every `swallow_every`-th attempt (0 = never).
    pub swallow_every: u64,
    /// Extra latency per attempt, milliseconds.
    pub delay_ms: u64,
    /// Send every RESULT twice.
    pub dup: bool,
}

/// A list of fault rules: the one fault description every backend reads.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Adds a rule.
    pub fn push(&mut self, rule: FaultRule) {
        self.rules.push(rule);
    }

    /// The rules, in the order they were added.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Checks that `backend`, with `endpoints` endpoints, can run every
    /// rule.
    pub fn check(&self, backend: Backend, endpoints: usize) -> Result<(), FaultError> {
        for (i, &rule) in self.rules.iter().enumerate() {
            rule.validate()?;
            if !rule.runs_on(backend) {
                return Err(FaultError::Unsupported(rule, backend));
            }
            if rule.ep().is_some_and(|ep| ep >= endpoints) {
                return Err(FaultError::NoSuchEndpoint(rule, endpoints));
            }
            let swallows = |r: &FaultRule| matches!(r, FaultRule::Swallow { .. });
            let overlaps = |r: &FaultRule| (0..endpoints).any(|ep| r.covers(ep) && rule.covers(ep));
            if swallows(&rule) && self.rules[..i].iter().any(|r| swallows(r) && overlaps(r)) {
                return Err(FaultError::OverlappingSwallow(rule));
            }
        }
        Ok(())
    }

    /// Checks that a swallowed attempt can be recovered: a `swallow` rule
    /// needs the client's execution-timeout `watchdog`.
    pub fn check_watchdog(&self, watchdog: bool) -> Result<(), FaultError> {
        let mut swallows = self
            .rules
            .iter()
            .filter(|r| matches!(r, FaultRule::Swallow { .. }));
        match swallows.next() {
            Some(&rule) if !watchdog => Err(FaultError::NeedsWatchdog(rule)),
            _ => Ok(()),
        }
    }

    /// The attempt rules covering endpoint `ep`, combined.
    pub fn attempt_faults(&self, ep: usize) -> AttemptFaults {
        let mut a = AttemptFaults::default();
        for rule in self.rules.iter().filter(|r| r.covers(ep)) {
            match *rule {
                FaultRule::Swallow { every, .. } => a.swallow_every = every,
                FaultRule::Delay { ms, .. } => a.delay_ms += ms,
                FaultRule::Dup { .. } => a.dup = true,
                _ => {}
            }
        }
        a
    }

    /// The attempt rules covering endpoint `ep`, with the endpoint dropped:
    /// the plan to hand that endpoint's daemon.
    pub fn for_endpoint(&self, ep: usize) -> FaultPlan {
        let rules = self.rules.iter().filter(|r| r.covers(ep));
        let rules = rules.filter_map(|r| match *r {
            FaultRule::Swallow { every, .. } => Some(FaultRule::Swallow { ep: None, every }),
            FaultRule::Delay { ms, .. } => Some(FaultRule::Delay { ep: None, ms }),
            FaultRule::Dup { .. } => Some(FaultRule::Dup { ep: None }),
            _ => None,
        });
        FaultPlan {
            rules: rules.collect(),
        }
    }
}

impl FromIterator<FaultRule> for FaultPlan {
    fn from_iter<I: IntoIterator<Item = FaultRule>>(rules: I) -> Self {
        FaultPlan {
            rules: rules.into_iter().collect(),
        }
    }
}

/// The simulator's fault state, built from a [`FaultPlan`].
#[derive(Debug)]
pub struct FaultInjector {
    rng: SimRng,
    /// Probability that any single transfer attempt fails.
    transfer_p: f64,
    /// Probability that a task attempt crashes.
    task_p: f64,
    /// Outage windows per endpoint, sorted by start and non-overlapping
    /// (merged on insert). Tasks dispatched inside a window fail.
    outages: Vec<Vec<(SimTime, SimTime)>>,
    /// Per endpoint: its attempt rules and the attempts started there.
    /// Empty when the plan has no `swallow` or `delay`.
    attempts: Vec<(AttemptFaults, u64)>,
}

impl FaultInjector {
    /// The injector for `plan` on `endpoints` endpoints (the plan passed
    /// [`FaultPlan::check`] for them). Draws come from a stream seeded with
    /// `seed`; a plan without probabilistic rules draws nothing.
    pub fn new(seed: u64, plan: &FaultPlan, endpoints: usize) -> Self {
        let mut f = FaultInjector {
            rng: SimRng::seed_from_u64(seed),
            transfer_p: 0.0,
            task_p: 0.0,
            outages: vec![Vec::new(); endpoints],
            attempts: Vec::new(),
        };
        for rule in plan.rules() {
            match *rule {
                FaultRule::TaskFail { p } => f.task_p += p,
                FaultRule::TransferFail { p } => f.transfer_p += p,
                FaultRule::Down { ep, from, to } => {
                    f.add_outage(ep, SimTime::from_secs(from), SimTime::from_secs(to))
                }
                FaultRule::Swallow { .. } | FaultRule::Delay { .. } if f.attempts.is_empty() => {
                    f.attempts = (0..endpoints)
                        .map(|ep| (plan.attempt_faults(ep), 0))
                        .collect();
                }
                _ => {}
            }
        }
        f
    }

    /// Declares an outage window `[from, to)` on an endpoint. Windows that
    /// touch or overlap an existing one are merged.
    fn add_outage(&mut self, ep: usize, from: SimTime, to: SimTime) {
        assert!(from < to, "outage window must be non-empty");
        let windows = &mut self.outages[ep];
        let at = windows.partition_point(|&(start, _)| start < from);
        windows.insert(at, (from, to));
        // Merge neighbours that touch or overlap, starting one to the left
        // (the predecessor may swallow the inserted window).
        let mut i = at.saturating_sub(1);
        while i + 1 < windows.len() {
            if windows[i].1 >= windows[i + 1].0 {
                windows[i].1 = windows[i].1.max(windows[i + 1].1);
                windows.remove(i + 1);
            } else {
                i += 1;
            }
        }
    }

    /// Draws whether a transfer attempt fails.
    pub fn transfer_fails(&mut self) -> bool {
        self.rng.chance(self.transfer_p)
    }

    /// Draws whether a task attempt on `ep` at `now` fails (outage windows
    /// fail deterministically; otherwise the summed `task-fail`
    /// probability, clamped to [0, 1]).
    pub fn task_fails(&mut self, ep: EndpointId, now: SimTime) -> bool {
        if self.in_outage(ep, now) {
            return true;
        }
        self.rng.chance(self.task_p.clamp(0.0, 1.0))
    }

    /// Counts an attempt starting on `ep`; true when a `swallow` rule drops
    /// it (it never completes).
    pub fn swallows(&mut self, ep: EndpointId) -> bool {
        match self.attempts.get_mut(ep.index()) {
            Some((a, seen)) if a.swallow_every > 0 => {
                *seen += 1;
                (*seen).is_multiple_of(a.swallow_every)
            }
            _ => false,
        }
    }

    /// True when a `swallow` rule covers `ep`: only then can an attempt
    /// there be Running with no completion scheduled.
    pub fn has_swallow(&self, ep: EndpointId) -> bool {
        let a = self.attempts.get(ep.index());
        a.is_some_and(|(a, _)| a.swallow_every > 0)
    }

    /// The `delay` rules' extra execution time on `ep`.
    pub fn exec_delay(&self, ep: EndpointId) -> SimDuration {
        let ms = self.attempts.get(ep.index()).map_or(0, |(a, _)| a.delay_ms);
        SimDuration::from_millis(ms)
    }

    /// True if `ep` is inside an outage window at `now`.
    pub fn in_outage(&self, ep: EndpointId, now: SimTime) -> bool {
        let Some(windows) = self.outages.get(ep.index()) else {
            return false;
        };
        // Last window starting at or before `now`, if any, decides.
        let at = windows.partition_point(|&(start, _)| start <= now);
        at > 0 && now < windows[at - 1].1
    }

    /// All declared (merged) outage windows, sorted by endpoint then start —
    /// a stable order so runtimes can schedule outage events
    /// deterministically.
    pub fn outage_windows(&self) -> Vec<(EndpointId, SimTime, SimTime)> {
        let eps = (0u16..).map(EndpointId).zip(&self.outages);
        let windows = eps.flat_map(|(ep, ws)| ws.iter().map(move |&(from, to)| (ep, from, to)));
        windows.collect()
    }
}
