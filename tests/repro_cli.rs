//! The `repro` binary's flag handling: `--help` prints usage instead of
//! running every experiment, and an unknown flag exits 2 before any work.
//! (Its own test target: only the `bench` package can run its binary.)

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn help_prints_usage_and_runs_nothing() {
    for flag in ["--help", "-h"] {
        let out = repro(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: repro"), "{flag}: {stdout}");
    }
}

#[test]
fn unknown_flag_exits_2_before_any_work() {
    let out = repro(&["all", "--fsat"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no experiment may have run");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--fsat`"));
}
