//! The `bench_baseline` command line: arguments that would break its own
//! document or gate are refused before anything is measured, and the flag
//! set is exactly the one documented in `docs/benchmarks.md`.

use std::process::{Command, Output};

fn bench_baseline(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_baseline"))
        .args(args)
        .output()
        .expect("bench_baseline runs")
}

/// Asserts the run failed and its stderr names `flag`.
fn assert_rejected(args: &[&str], flag: &str) {
    let out = bench_baseline(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} was accepted");
    assert!(stderr.contains(flag), "{args:?}: stderr {stderr:?}");
}

#[test]
fn zero_iters_is_rejected() {
    // A document claiming `"iters": 0` fails its own `--check`.
    let out = concat!(env!("CARGO_TARGET_TMPDIR"), "/iters0.json");
    assert_rejected(&["--quick", "--iters", "0", "--out", out], "--iters");
}

#[test]
fn min_ratio_must_be_finite_and_positive() {
    // NaN compares false against every floor, so the gate would pass
    // without comparing anything.
    for ratio in ["NaN", "inf", "0", "-1"] {
        assert_rejected(
            &["--min-ratio", ratio, "--check", "BENCH_PR2.json"],
            "--min-ratio",
        );
    }
}

#[test]
fn removed_grid_flags_are_unknown() {
    for flag in ["--engine", "--serve"] {
        assert_rejected(&["--quick", flag], &format!("unknown argument '{flag}'"));
    }
}

#[test]
fn help_lists_exactly_the_remaining_flags() {
    let out = bench_baseline(&["--help"]);
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout);
    let flags: Vec<&str> = help
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|w| w.starts_with("--"))
        .collect();
    assert_eq!(
        flags,
        [
            "--quick",
            "--iters",
            "--seed",
            "--out",
            "--baselines",
            "--chaos",
            "--sim",
            "--telemetry",
            "--trace",
            "--check",
            "--min-ratio",
        ]
    );
}
