//! `unifaas-endpointd` — a process-isolated endpoint daemon.
//!
//! ```text
//! unifaas-endpointd [--name <label>] [--workers <n>] [--listen <addr>]
//!                   [--generation <g>] [--fault <rule>]...
//! ```
//!
//! The daemon binds a TCP listener, prints `LISTENING <addr>` on stdout
//! (the handshake its supervisor parses — `--listen 127.0.0.1:0` lets the
//! OS pick a free port), then serves the `fedci::proto` frame protocol:
//! DISPATCH jobs run on `--workers` threads over the builtin byte-level
//! function registry, TRANSFER frames stage input blobs, HEARTBEATs are
//! acked with current busy count (plus a local-clock stamp feeding the
//! client's offset estimator), and DRAIN flushes and exits. When a client
//! subscribes with TELEMETRY_SUB, per-attempt trace events accumulate in
//! a bounded ring (`fedci::process::DAEMON_TEL_RING_CAPACITY` events,
//! drop-oldest) and ship as TELEMETRY batches behind every heartbeat ack.
//!
//! `--fault <rule>` (repeatable) is for crash/fault testing only, one
//! `fedci::fault` rule each: `swallow every=<k>` drops every k-th job
//! without replying (a hung worker), `delay ms=<ms>` delays every
//! execution (a straggler), and `dup` sends every RESULT twice (a
//! duplicating network); any other rule is rejected. The chaos tests in
//! `crates/cli/tests` drive these — and plain `kill -9` — to prove the
//! client's exactly-once machinery holds against real process failures.

use fedci::process::{run_daemon, DaemonConfig};

fn usage() -> ! {
    eprintln!(
        "usage: unifaas-endpointd [--name <label>] [--workers <n>] [--listen <addr>] \
         [--generation <g>] [--fault <rule>]...\n\
         \n\
         Binds --listen (default 127.0.0.1:0), prints `LISTENING <addr>` on stdout and\n\
         serves one fedci::proto client at a time until it sends DRAIN. --generation is\n\
         echoed in HELLO; each --fault is one fedci::fault rule: `swallow every=<k>`,\n\
         `delay ms=<ms>` or `dup`."
    );
    std::process::exit(2);
}

fn parse_or_usage<T: std::str::FromStr<Err: std::fmt::Display>>(
    flag: &str,
    value: Option<String>,
) -> T {
    let Some(v) = value else {
        eprintln!("unifaas-endpointd: {flag} needs a value");
        usage();
    };
    v.parse().unwrap_or_else(|e| {
        eprintln!("unifaas-endpointd: bad value `{v}` for {flag}: {e}");
        usage();
    })
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut cfg = DaemonConfig::new("endpoint", 2);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--name" => cfg.name = parse_or_usage("--name", args.next()),
            "--workers" => cfg.workers = parse_or_usage("--workers", args.next()),
            "--listen" => cfg.listen = parse_or_usage("--listen", args.next()),
            "--generation" => cfg.generation = parse_or_usage("--generation", args.next()),
            "--fault" => cfg.faults.push(parse_or_usage("--fault", args.next())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unifaas-endpointd: unknown flag `{other}`");
                usage();
            }
        }
    }
    let name = cfg.name.clone();
    if let Err(e) = run_daemon(cfg, |addr| {
        // The supervisor reads this exact line to learn the bound port.
        println!("{}{addr}", fedci::process::LISTENING_PREFIX);
    }) {
        eprintln!("unifaas-endpointd[{name}]: {e}");
        std::process::exit(1);
    }
}
