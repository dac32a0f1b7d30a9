//! Argument errors of the bench binaries: a named error on stderr and
//! exit status 2, never a panic.

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .expect("binary spawns")
}

fn assert_usage_error(out: &Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(flag), "error must name {flag}: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn dgs_bench_rejects_an_unknown_flag() {
    let out = run(env!("CARGO_BIN_EXE_dgs-bench"), &["--nodes", "5"]);
    assert_usage_error(&out, "--nodes");
}

#[test]
fn dgs_bench_rejects_a_flag_without_its_value() {
    let out = run(env!("CARGO_BIN_EXE_dgs-bench"), &["--area"]);
    assert_usage_error(&out, "--area");
}

#[test]
fn experiments_rejects_an_unknown_flag() {
    let out = run(
        env!("CARGO_BIN_EXE_experiments"),
        &["--json", "x", "serving"],
    );
    assert_usage_error(&out, "--json");
}

#[test]
fn experiments_rejects_a_malformed_value() {
    let out = run(env!("CARGO_BIN_EXE_experiments"), &["--scale", "big"]);
    assert_usage_error(&out, "--scale");
}
