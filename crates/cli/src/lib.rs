//! `unifaas-cli` — run simulated federated workflows from a plain-text
//! experiment spec.
//!
//! The spec format is deliberately dependency-free (one directive per
//! line, `#` comments):
//!
//! ```text
//! # the paper's drug-screening case study at small scale
//! endpoint Taiyi  taiyi  200
//! endpoint Qiming qiming 38 max=100 node=10
//! strategy dha
//! seed 42
//! capacity-event 120 1 +60
//! scaling on
//! workload drug pipelines=600
//! ```
//!
//! Directives:
//! * `endpoint <label> <cluster> <workers> [max=N] [node=N]` — cluster is
//!   one of `taiyi`, `qiming`, `dept`, `lab`, `workstation`, or
//!   `uniform:<speed>`;
//! * `strategy capacity|locality|dha|dha-no-resched`;
//! * `seed <u64>`;
//! * `capacity-event <at_secs> <endpoint_index> <±delta>`;
//! * `scaling on|off`;
//! * `workload drug pipelines=N | montage tiles=N | bag n=N [depth=D] secs=S |
//!   ensemble rounds=R batch=B` — `bag` is `D` dependent layers of `N`
//!   tasks of `S ≥ 0` seconds each (`D` defaults to one); a key the
//!   workload does not take is an error.

pub mod fabricrun;
pub mod spec;

pub use spec::{parse_spec, RunSpec, SpecError};
