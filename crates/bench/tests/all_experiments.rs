//! The `all_experiments` binary: a named experiment prints exactly its
//! section of the committed golden, and an unknown name is refused with
//! the list of valid ones.

use std::process::Command;

use unifaas_bench::experiments::EXPERIMENTS;

const GOLDEN: &str = include_str!("../../../results/all_experiments.txt");

#[test]
fn one_named_experiment_prints_its_golden_section() {
    let out = Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .arg("fig8_workloads")
        .output()
        .expect("run all_experiments");
    assert!(out.status.success(), "{out:?}");
    // Fig. 8 runs no simulation and prints no wall-clock field, so its
    // section is compared byte for byte, header included.
    let start = GOLDEN
        .find("\n################ fig8_workloads ################\n")
        .expect("fig8 section in the golden");
    let len = GOLDEN[start + 1..]
        .find("\n################ ")
        .expect("a section after fig8")
        + 1;
    let section = &GOLDEN[start..start + len];
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert_eq!(stdout, format!("{section}\nall experiments completed.\n"));
}

#[test]
fn unknown_name_exits_2_and_lists_every_experiment() {
    let out = Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .arg("fig99_bogus")
        .output()
        .expect("run all_experiments");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing runs before the name check");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("fig99_bogus"), "{stderr}");
    for (name, _) in EXPERIMENTS {
        assert!(
            stderr.lines().any(|l| l.trim() == *name),
            "{name} missing from:\n{stderr}"
        );
    }
}
