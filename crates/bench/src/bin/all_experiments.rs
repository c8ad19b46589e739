//! Runs the paper's experiments in-process and prints their tables and
//! figures; `results/all_experiments.txt` is this program's full output.
//!
//! `cargo run --release -p unifaas-bench --bin all_experiments [name ...]`
//!
//! With no names it runs every experiment in [`EXPERIMENTS`] order; given
//! names, only those, in the order given. An unknown name lists the valid
//! ones and exits with status 2.

use unifaas_bench::experiments::{Experiment, EXPERIMENTS};
use unifaas_bench::Runs;

/// The registry entry called `name`, or the list of valid names and exit 2.
fn lookup(name: &str) -> &'static (&'static str, Experiment) {
    EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| {
            eprintln!("unknown experiment `{name}`; valid names:");
            for (n, _) in EXPERIMENTS {
                eprintln!("  {n}");
            }
            std::process::exit(2)
        })
}

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let chosen: Vec<_> = if names.is_empty() {
        EXPERIMENTS.iter().collect()
    } else {
        names.iter().map(|name| lookup(name)).collect()
    };
    let mut runs = Runs::default();
    for (name, experiment) in chosen {
        println!("\n################ {name} ################\n");
        experiment(&mut runs);
    }
    println!("\nall experiments completed.");
}
