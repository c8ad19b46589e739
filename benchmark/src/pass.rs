//! A full pass: every workload in a fresh child process, untraced then
//! traced, with the environment the numbers were taken in. Also the
//! repeatability self-check (`--selfcheck`) and the CI-sized pass
//! (`--smoke`).

use crate::catalog::{END_TO_END, WORKLOADS};
use crate::stats::{int_field, json_num, metric_value};
use crate::Opts;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

/// Size divisor of `--smoke`.
const SMOKE_SCALE: usize = 20;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment block every pass carries.
fn environment(opts: &Opts) -> Vec<(&'static str, String)> {
    vec![
        ("commit", command_line("git", &["rev-parse", "HEAD"])),
        ("rustc", command_line("rustc", &["-V"])),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, usize::from)
                .to_string(),
        ),
        ("seed", opts.seed.to_string()),
        ("seconds", json_num(opts.seconds)),
        ("scale", format!("1/{}", opts.scale)),
        ("transport", "loopback".to_string()),
    ]
}

/// One pass: per workload, the child's result line (`None` if it printed
/// none).
type PassRuns = Vec<(&'static str, Option<String>)>;

/// One child run: its result line, or `None` if it failed to produce one.
fn child(opts: &Opts, workload: &str, trace: bool) -> Option<String> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &json_num(opts.seconds)])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", &opts.scale.to_string()])
        .arg("--out")
        .arg(&opts.out_dir);
    if let Some(d) = &opts.daemon {
        cmd.arg("--daemon").arg(d);
    }
    let out = cmd.stderr(Stdio::inherit()).output().ok()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().filter(|l| l.starts_with("{\"correct\""));
    for l in lines {
        println!("{l}");
    }
    if !out.status.success() {
        eprintln!("{workload}: child exited with {}", out.status);
    }
    last.map(str::to_string)
}

/// Runs every workload with `trace` on or off.
fn pass(opts: &Opts, trace: bool) -> PassRuns {
    WORKLOADS
        .iter()
        .map(|&w| (w, child(opts, w, trace)))
        .collect()
}

fn all_correct(runs: &PassRuns) -> bool {
    runs.iter().all(|(_, line)| {
        line.as_deref()
            .is_some_and(|l| l.contains("\"correct\": true") && int_field(l, "failed") == Some(0))
    })
}

fn write_result(opts: &Opts, passes: &[(bool, PassRuns)]) {
    let mut json = String::from("{\n  \"env\": {");
    for (i, (k, v)) in environment(opts).iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(json, "{sep}\"{k}\": \"{v}\"");
    }
    json.push_str("},\n  \"runs\": [\n");
    let rows: Vec<String> = passes
        .iter()
        .flat_map(|(trace, runs)| {
            runs.iter().map(move |(w, line)| {
                format!(
                    "    {{\"workload\": \"{w}\", \"trace\": {}, \"result\": {}}}",
                    u8::from(*trace),
                    line.as_deref().unwrap_or("null")
                )
            })
        })
        .collect();
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ]\n}\n");
    let path = opts.out_dir.join("result.json");
    let written = std::fs::create_dir_all(&opts.out_dir).and_then(|()| std::fs::write(&path, json));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// Two untraced passes of the same code must agree within each metric's
/// bound. Returns whether they did.
fn selfcheck(opts: &Opts) -> bool {
    let a = pass(opts, false);
    let b = pass(opts, false);
    let mut ok = all_correct(&a) && all_correct(&b);
    println!(
        "\n{:<22} {:<14} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for ((w, la), (_, lb)) in a.iter().zip(&b) {
        for &(name, _, _, bound) in END_TO_END {
            let v = |l: &Option<String>| l.as_deref().and_then(|l| metric_value(l, name));
            let (Some(x), Some(y)) = (v(la), v(lb)) else {
                println!("{w:<22} {name:<14} missing");
                ok = false;
                continue;
            };
            let diff = (y - x).abs() / x.abs();
            let verdict = if diff <= bound { "" } else { "  EXCEEDS" };
            ok &= diff <= bound;
            println!(
                "{w:<22} {name:<14} {x:>16.6} {y:>16.6} {:>8.2}% {:>6.0}%{verdict}",
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    write_result(opts, &[(false, a), (false, b)]);
    ok
}

/// Entry point of `unifaas-benchmark pass`; returns the exit code.
pub fn run(opts: &Opts, smoke: bool, check: bool) -> i32 {
    let mut opts = opts.clone();
    if smoke {
        opts.scale = SMOKE_SCALE;
        // No measuring time beyond the one rep every run makes.
        opts.seconds = 0.0;
    }
    for (k, v) in environment(&opts) {
        println!("env {k}={v}");
    }
    let ok = if check {
        selfcheck(&opts)
    } else {
        let untraced = pass(&opts, false);
        let traced = pass(&opts, true);
        let ok = all_correct(&untraced) && all_correct(&traced);
        write_result(&opts, &[(false, untraced), (true, traced)]);
        ok
    };
    println!("{}", if ok { "PASS" } else { "FAIL" });
    i32::from(!ok)
}
