//! `bench_baseline` — the paper's §6 update-cost grid and the determinism
//! fingerprints.
//!
//! Times `GPSUpdate` over the scenario grid (weights × streams × reservoir
//! sizes) and writes a machine-readable document (`BENCH_PR2.json` by
//! default). The optional sections add the ported baselines (the timing
//! half of Table 2) and the determinism fingerprints. End-to-end engine
//! and serving throughput belong to the repository benchmark,
//! `perfbench/` (see `BENCHMARK.json`).
//!
//! ```text
//! bench_baseline [--quick] [--iters N] [--seed N] [--out PATH]
//!                [--baselines] [--chaos] [--sim] [--telemetry] [--trace]
//!                [--check PATH [--min-ratio R]]
//! ```
//!
//! - `--quick`: reduced streams and capacities (CI smoke scale).
//! - `--iters N`: timed runs per scenario, best kept (at least 1).
//! - `--out PATH`: where to write the baseline (default `BENCH_PR2.json`).
//! - `--baselines`: additionally measure the ported `gps-baselines`
//!   samplers (`baseline_samplers` section; see docs/benchmarks.md).
//! - `--chaos`: additionally measure crash recovery at S ∈ {2, 4} shards —
//!   clean vs faulted ingest with a scripted mid-stream panic + checkpoint
//!   restore, exact arrivals-lost/restart counts from the engine's
//!   incident ledger, and the degraded-epoch count of a gated serving
//!   probe under a scripted stall (`chaos` section; schema stays
//!   v1-compatible).
//! - `--sim`: additionally run the `gps-sim` discrete-event scale-out
//!   sweep — S ∈ {16, 64, 256} simulated shard-nodes (quick: {16, 64}) ×
//!   keyspace skew × fault scenario, in virtual time over the production
//!   sampler/estimator/merge code (`sim` section; schema stays
//!   v1-compatible and the numbers are bit-deterministic per seed).
//! - `--telemetry`: additionally capture the engine's deterministic
//!   `Stable`-class telemetry counters from one clean, checkpointed run,
//!   plus the fingerprint that pins the whole stable snapshot
//!   (`telemetry` section; schema stays v1-compatible and `--check`
//!   validates its shape).
//! - `--trace`: additionally capture a determinism fingerprint of the
//!   serving stack's flight recorder: per-stage p50/p99 span durations
//!   over a run that advances its own manual clock one fixed step per
//!   epoch, plus a digest of every retained timeline (`trace` section;
//!   schema stays v1-compatible and `--check` validates its shape). The
//!   percentiles are constants of that clock — `arrival_batch` is the
//!   250 µs step, every other stage 0 — not latencies.
//! - `--check PATH`: *instead of* writing, validate the committed baseline
//!   at `PATH` against `perf::SECTIONS` (schema, every declared field and
//!   its range) and fail — exit code 1 — if the current sampler
//!   throughput falls below `min-ratio` × the committed number for any
//!   shared scenario (default ratio 0.5, i.e. a >2× regression trips it;
//!   `R` must be finite and above 0).

use gps_bench::json::{self, Value};
use gps_bench::perf::{self, PerfConfig, ScenarioResult};
use std::process::{Command, ExitCode};

struct Args {
    cfg: PerfConfig,
    out: String,
    check: Option<String>,
    min_ratio: f64,
    /// Flags of the optional [`perf::SECTIONS`] turned on.
    sections: Vec<&'static str>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cfg: PerfConfig::default(),
        out: "BENCH_PR2.json".to_owned(),
        check: None,
        min_ratio: 0.5,
        sections: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut take = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--quick" => args.cfg.quick = true,
            "--iters" => {
                args.cfg.iters = take("--iters")?
                    .parse()
                    .map_err(|e| format!("--iters: {e}"))?;
                if args.cfg.iters == 0 {
                    return Err("--iters must be at least 1".to_owned());
                }
            }
            "--seed" => {
                args.cfg.seed = take("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--out" => args.out = take("--out")?,
            "--check" => args.check = Some(take("--check")?),
            "--min-ratio" => {
                args.min_ratio = take("--min-ratio")?
                    .parse()
                    .map_err(|e| format!("--min-ratio: {e}"))?;
                if !(args.min_ratio.is_finite() && args.min_ratio > 0.0) {
                    return Err("--min-ratio must be finite and above 0".to_owned());
                }
            }
            "--help" | "-h" => {
                let sections: String = section_flags().map(|f| format!(" [{f}]")).collect();
                println!(
                    "bench_baseline [--quick] [--iters N] [--seed N] [--out PATH]{sections} \
                     [--check PATH [--min-ratio R]]"
                );
                std::process::exit(0);
            }
            other => match section_flags().find(|&f| f == other) {
                Some(flag) => args.sections.push(flag),
                None => return Err(format!("unknown argument '{other}'")),
            },
        }
    }
    Ok(args)
}

fn section_flags() -> impl Iterator<Item = &'static str> {
    perf::SECTIONS.iter().filter_map(|s| s.flag)
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Reads, parses and shape-validates the committed baseline at `path`.
fn read_committed(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let problems = perf::validate_baseline(&doc);
    if problems.is_empty() {
        return Ok(doc);
    }
    Err(format!(
        "{path} is malformed:\n  - {}",
        problems.join("\n  - ")
    ))
}

/// Compares freshly measured sampler throughput against a committed
/// baseline; returns the list of failures. At least one measured scenario
/// must match a committed one — otherwise the gate would pass vacuously
/// after a grid or naming change.
fn check_against(committed: &Value, results: &[ScenarioResult], min_ratio: f64) -> Vec<String> {
    // `committed` has already passed `perf::validate_baseline` in main().
    let mut failures = Vec::new();
    let scenarios = committed
        .get("scenarios")
        .and_then(Value::as_array)
        .unwrap_or(&[]);
    let mut matched = 0usize;
    for r in results {
        let name = r.scenario.name();
        let Some(entry) = scenarios.iter().find(|s| s.get_str("name") == Some(&name)) else {
            // The committed file may predate a scenario; shape problems are
            // already reported by validate_baseline.
            continue;
        };
        let Some(floor) = entry
            .get("compact")
            .and_then(|m| m.get_f64("edges_per_sec"))
        else {
            continue; // reported by validate_baseline
        };
        matched += 1;
        let current = r.compact.edges_per_sec;
        if current < min_ratio * floor {
            failures.push(format!(
                "{name}: current {current:.0} edges/s < {min_ratio} x committed {floor:.0} \
                 (>{:.1}x regression)",
                1.0 / min_ratio
            ));
        }
    }
    if matched == 0 {
        failures.push(
            "no measured scenario matches the committed baseline — the regression gate \
             compared nothing (grid or scenario naming changed? re-generate the baseline)"
                .to_owned(),
        );
    }
    failures
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("bench_baseline: {msg}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "bench_baseline: mode={} iters={} seed={}",
        if args.cfg.quick { "quick" } else { "full" },
        args.cfg.iters,
        args.cfg.seed
    );
    // Fail fast in check mode: read, parse and shape-validate the committed
    // baseline before burning minutes on measurement.
    let committed = match args.check.as_deref().map(read_committed).transpose() {
        Ok(committed) => committed,
        Err(msg) => {
            eprintln!("bench_baseline: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut report = perf::Report {
        cfg: args.cfg,
        git_rev: git_rev(),
        ..Default::default()
    };
    for section in &perf::SECTIONS {
        // The check gate only reads the GPS grid; don't burn minutes
        // measuring the optional sections just to discard them.
        let on = section
            .flag
            .is_none_or(|f| args.check.is_none() && args.sections.contains(&f));
        if on {
            (section.run)(&args.cfg, &mut report);
        }
    }

    if let (Some(path), Some(committed)) = (&args.check, &committed) {
        let failures = check_against(committed, &report.scenarios, args.min_ratio);
        if failures.is_empty() {
            println!(
                "check OK: {path} is well-formed and throughput is within {:.1}x of the committed floor",
                1.0 / args.min_ratio
            );
            return ExitCode::SUCCESS;
        }
        eprintln!("check FAILED against {path}:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        return ExitCode::FAILURE;
    }

    let doc = perf::results_json(&report);
    if let Err(e) = std::fs::write(&args.out, doc.to_pretty()) {
        eprintln!("bench_baseline: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", args.out);
    ExitCode::SUCCESS
}
