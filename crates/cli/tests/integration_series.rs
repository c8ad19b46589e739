//! `unifaas-sim --series <dir>`: writes one CSV per series set, and an
//! unwritable directory is a one-line error with exit status 1, not a
//! panic.

use std::path::PathBuf;
use std::process::{Command, Output};

const SPEC: &str = "\
endpoint fast taiyi 4
endpoint slow qiming 2
strategy dha
seed 7
workload bag n=20 secs=5
";

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("unifaas-series-{}-{name}", std::process::id()))
}

fn run_with_series(spec: &PathBuf, dir: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_unifaas-sim"))
        .arg(spec)
        .arg("--quiet")
        .arg("--series")
        .arg(dir)
        .output()
        .expect("spawn unifaas-sim")
}

#[test]
fn series_are_written_as_csv() {
    let spec = temp_path("ok.spec");
    std::fs::write(&spec, SPEC).unwrap();
    let dir = temp_path("ok-series");
    let out = run_with_series(&spec, &dir);
    assert!(out.status.success(), "{out:?}");
    for name in ["busy_workers", "active_workers", "pending_tasks"] {
        let csv = std::fs::read_to_string(dir.join(format!("{name}.csv"))).unwrap();
        assert!(csv.starts_with("t_seconds,"), "{name}: {csv}");
        assert!(csv.lines().count() > 2, "{name}: {csv}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_file(&spec).unwrap();
}

#[test]
fn unwritable_series_dir_is_an_error_not_a_panic() {
    let spec = temp_path("bad.spec");
    std::fs::write(&spec, SPEC).unwrap();
    // A directory below a regular file can never be created.
    let file = temp_path("not-a-dir");
    std::fs::write(&file, "").unwrap();
    let dir = file.join("series");
    let out = run_with_series(&spec, &dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    let want = format!("cannot write series {}: ", dir.display());
    assert!(stderr.starts_with(&want), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    std::fs::remove_file(&file).unwrap();
    std::fs::remove_file(&spec).unwrap();
}
