//! `unifaas-benchmark` — see `README.md` beside this package.
//!
//! ```text
//! unifaas-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                   [--daemon <unifaas-endpointd>] [--scale <k>] [--out <dir>]
//! unifaas-benchmark kernels [--seed <n>]
//! unifaas-benchmark pass [--smoke] [--selfcheck] [--seed <n>] [--seconds <s>]
//!                   [--daemon <unifaas-endpointd>] [--out <dir>]
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload in
//! this process, a human table, then the result as the last line of
//! standard output.

use std::path::PathBuf;
use unifaas_benchmark::catalog::Samples;
use unifaas_benchmark::{kernels, pass, run_workload, stats, Opts};

fn usage() -> ! {
    eprintln!(
        "usage: unifaas-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> \
         [--daemon <path>] [--scale <k>] [--out <dir>]\n       \
         unifaas-benchmark kernels [--seed <n>]\n       \
         unifaas-benchmark pass [--smoke] [--selfcheck] [--seed <n>] [--seconds <s>] \
         [--daemon <path>] [--out <dir>]"
    );
    std::process::exit(2);
}

fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    let Some(v) = v else {
        eprintln!("unifaas-benchmark: {flag} needs a value");
        usage();
    };
    v.parse().unwrap_or_else(|_| {
        eprintln!("unifaas-benchmark: bad value `{v}` for {flag}");
        usage();
    })
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let command = match args.peek().map(String::as_str) {
        Some("kernels") | Some("pass") => args.next(),
        _ => None,
    };
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 12.0,
        trace: false,
        scale: 1,
        daemon: None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut smoke = false;
    let mut selfcheck = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => opts.workload = value("--workload", args.next()),
            "--seed" => opts.seed = value("--seed", args.next()),
            "--seconds" => opts.seconds = value("--seconds", args.next()),
            "--trace" => opts.trace = value::<u8>("--trace", args.next()) != 0,
            "--scale" => opts.scale = value::<usize>("--scale", args.next()).max(1),
            "--daemon" => {
                opts.daemon = Some(PathBuf::from(value::<String>("--daemon", args.next())))
            }
            "--out" => opts.out_dir = PathBuf::from(value::<String>("--out", args.next())),
            "--smoke" => smoke = true,
            "--selfcheck" => selfcheck = true,
            _ => {
                eprintln!("unifaas-benchmark: unknown argument `{arg}`");
                usage();
            }
        }
    }

    match command.as_deref() {
        Some("kernels") => {
            let mut s = Samples::default();
            let dag = taskgraph::workloads::stress::layered_bag(250_000, 4, 1.0);
            kernels::sim_kernels(opts.seed, &dag, opts.kernel_seconds(), &mut s);
            kernels::proto(opts.seed, opts.kernel_seconds(), &mut s);
            let ms: Vec<stats::Metric> = s
                .per_layer()
                .into_iter()
                .filter(|m| m.n > 1 || m.value != 0.0)
                .collect();
            print!("{}", stats::render_table(&ms));
        }
        Some("pass") => std::process::exit(pass::run(&opts, smoke, selfcheck)),
        _ => {
            if opts.workload.is_empty() {
                usage();
            }
            std::process::exit(run_one(&opts));
        }
    }
}

/// Runs one workload in this process; the result is the last line printed.
fn run_one(opts: &Opts) -> i32 {
    let outcome = match run_workload(opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("unifaas-benchmark: {e}");
            return 1;
        }
    };
    let metrics = if opts.trace {
        outcome.samples.per_layer()
    } else {
        outcome.samples.end_to_end()
    };
    println!(
        "workload={} seed={} seconds={} trace={} scale=1/{} nproc={} transport=loopback",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.scale,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let mut distinct = outcome.digests.clone();
    distinct.dedup();
    let distinct: Vec<String> = distinct.iter().map(|d| format!("{d:#018x}")).collect();
    println!(
        "result digest over {} reps (warm-up included): {}",
        outcome.digests.len(),
        distinct.join(" != ")
    );
    print!("{}", stats::render_table(&metrics));
    if opts.trace {
        let path = opts.out_dir.join(format!("trace-{}.json", opts.workload));
        match outcome.spans.write_json(&path) {
            Ok(()) => println!(
                "wrote {} ({} spans)",
                path.display(),
                outcome.spans.spans().len()
            ),
            Err(e) => eprintln!("unifaas-benchmark: cannot write {}: {e}", path.display()),
        }
    }
    let correct = outcome.failed == 0;
    println!(
        "{}",
        stats::result_line(correct, outcome.attempted, outcome.failed, &metrics)
    );
    if correct {
        0
    } else {
        1
    }
}
