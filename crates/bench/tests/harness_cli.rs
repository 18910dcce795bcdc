//! The harness binary's exit-code contract, end to end: 1 for a run that
//! could not write its output, 2 for a command line it rejects.

use std::process::{Command, Output};

fn harness(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(args)
        .output()
        .expect("harness runs")
}

#[test]
fn unwritable_bench_out_exits_1_naming_the_path() {
    let path = "/nonexistent/dir/x.json";
    let out = harness(&["--reg-bench", "--bench-out", path]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.lines().any(|l| l.contains(path)),
        "no stderr line names {path}:\n{stderr}"
    );
    // The document still reached stdout before the write failed.
    assert!(String::from_utf8_lossy(&out.stdout).contains("regcache_rendezvous"));
}

#[test]
fn rejected_command_lines_exit_2() {
    for args in [
        &[][..],
        &["--sim-floor", "5"],
        &["--bw-curve", "--reg-bench", "--bench-out", "x.json"],
    ] {
        let out = harness(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: harness"));
    }
}
