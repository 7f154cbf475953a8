//! `bench_baseline` — the repo's reproducible `GPSUpdate` perf harness.
//!
//! Runs the update-throughput scenario grid (weights × streams × reservoir
//! sizes) and writes a machine-readable baseline (`BENCH_PR2.json` by default) so every future perf PR has a
//! trajectory to beat.
//!
//! ```text
//! bench_baseline [--quick] [--iters N] [--seed N] [--out PATH]
//!                [--baselines] [--engine] [--serve] [--chaos] [--sim]
//!                [--telemetry] [--trace] [--check PATH [--min-ratio R]]
//! ```
//!
//! - `--quick`: reduced streams and capacities (CI smoke scale).
//! - `--out PATH`: where to write the baseline (default `BENCH_PR2.json`).
//! - `--baselines`: additionally measure the ported `gps-baselines`
//!   samplers and include the grid in the output document (`baseline_samplers` section; see docs/benchmarks.md).
//! - `--engine`: additionally measure the `gps-engine` sharded ingest at
//!   S ∈ {1, 2, 4, 8} shards and include the scaling grid in the output
//!   document (`engine` section; schema stays v1-compatible).
//! - `--serve`: additionally measure `gps-serve` live-serving ingest at
//!   0/1/4 concurrent reader threads, with epoch staleness (`serve`
//!   section; schema stays v1-compatible).
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
//! - `--trace`: additionally capture per-stage epoch latency attribution
//!   (p50/p99 per pipeline stage) from the serving stack's flight
//!   recorder over a manual-clock driven run — fully deterministic per
//!   seed (`trace` section; schema stays v1-compatible and `--check`
//!   validates its shape).
//! - `--check PATH`: *instead of* writing, validate the committed baseline
//!   at `PATH` (schema + required fields) and fail — exit code 1 — if the
//!   current sampler throughput falls below `min-ratio` × the
//!   committed number for any shared scenario (default ratio 0.5, i.e. a
//!   >2× regression trips it).

use gps_bench::json::{self, Value};
use gps_bench::perf::{
    self, BaselineResult, ChaosResult, EngineResult, Measurement, PerfConfig, ScenarioResult,
    ServeResult, TelemetryResult, TraceResult,
};
use std::process::{Command, ExitCode};

struct Args {
    cfg: PerfConfig,
    out: String,
    check: Option<String>,
    min_ratio: f64,
    baselines: bool,
    engine: bool,
    serve: bool,
    chaos: bool,
    sim: bool,
    telemetry: bool,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cfg: PerfConfig::default(),
        out: "BENCH_PR2.json".to_owned(),
        check: None,
        min_ratio: 0.5,
        baselines: false,
        engine: false,
        serve: false,
        chaos: false,
        sim: false,
        telemetry: false,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut take = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--quick" => args.cfg.quick = true,
            "--baselines" => args.baselines = true,
            "--engine" => args.engine = true,
            "--serve" => args.serve = true,
            "--chaos" => args.chaos = true,
            "--sim" => args.sim = true,
            "--telemetry" => args.telemetry = true,
            "--trace" => args.trace = true,
            "--iters" => {
                args.cfg.iters = take("--iters")?
                    .parse()
                    .map_err(|e| format!("--iters: {e}"))?
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
                    .map_err(|e| format!("--min-ratio: {e}"))?
            }
            "--help" | "-h" => {
                println!(
                    "bench_baseline [--quick] [--iters N] [--seed N] [--out PATH] \
                     [--baselines] [--engine] [--serve] [--chaos] [--sim] \
                     [--telemetry] [--trace] [--check PATH [--min-ratio R]]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
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

fn print_result(r: &ScenarioResult) {
    print_sampler(&r.scenario.name(), r.edges, &r.compact);
}

fn print_sampler(name: &str, edges: usize, m: &Measurement) {
    println!(
        "{:<28} {:>9} edges  sampler {:>8.1} ns/e ({:>7.3} Me/s)",
        name,
        edges,
        m.ns_per_edge,
        m.edges_per_sec / 1e6,
    );
}

fn print_engine(r: &EngineResult) {
    println!(
        "{:<28} {:>9} edges  ingest  {:>8.1} ns/e ({:>7.3} Me/s)  [{} shard{}]",
        r.scenario,
        r.edges,
        r.measurement.ns_per_edge,
        r.measurement.edges_per_sec / 1e6,
        r.shards,
        if r.shards == 1 { "" } else { "s" },
    );
}

fn print_serve(r: &ServeResult) {
    println!(
        "{:<34} {:>9} edges  ingest  {:>8.1} ns/e ({:>7.3} Me/s)  [{} reader{}, {} reads, lag mean {:.0} max {}]",
        r.scenario,
        r.edges,
        r.measurement.ns_per_edge,
        r.measurement.edges_per_sec / 1e6,
        r.readers,
        if r.readers == 1 { "" } else { "s" },
        r.reads,
        r.staleness_mean_edges,
        r.staleness_max_edges,
    );
}

fn print_chaos(r: &ChaosResult) {
    println!(
        "{:<34} {:>9} edges  clean {:>8.1} ns/e  faulted {:>8.1} ns/e  [lost {}, {} restart{}, degraded {}/{} epochs]",
        r.scenario,
        r.edges,
        r.clean.ns_per_edge,
        r.faulted.ns_per_edge,
        r.arrivals_lost,
        r.restarts,
        if r.restarts == 1 { "" } else { "s" },
        r.degraded_epochs,
        r.epochs,
    );
}

fn print_sim(p: &gps_sim::SweepPoint) {
    println!(
        "{:<34} {:>9} edges  tri ARE {:>6.3} (cov {})  wedge ARE {:>6.3} (cov {})  [{}/{} degraded epochs, stale max {:.2} ms, lost {}, tree {}]",
        p.name(),
        p.pushed,
        p.tri_are,
        u8::from(p.tri_covered),
        p.wedge_are,
        u8::from(p.wedge_covered),
        p.degraded_epochs,
        p.epochs,
        p.staleness_max_ns as f64 / 1e6,
        p.lost_arrivals,
        if p.tree_identical { "ok" } else { "DIVERGED" },
    );
}

fn print_telemetry(t: &TelemetryResult) {
    println!(
        "{:<34} {:>9} edges  stable fingerprint {}  [{} counters]",
        t.scenario,
        t.edges,
        t.stable_fingerprint,
        t.counters.len(),
    );
}

fn print_trace(t: &TraceResult) {
    println!(
        "{:<34} {:>9} edges  stable fingerprint {}  [{} epochs]",
        t.scenario, t.edges, t.stable_fingerprint, t.epochs,
    );
    for s in &t.stages {
        println!(
            "  {:<20} n={:<4} p50 {:>9} ns  p99 {:>9} ns",
            s.stage, s.count, s.p50_ns, s.p99_ns
        );
    }
}

fn print_baseline(r: &BaselineResult) {
    print_sampler(&r.scenario, r.edges, &r.compact);
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
    let committed = match &args.check {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("bench_baseline: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match json::parse(&text) {
                Ok(v) => {
                    let problems = perf::validate_baseline(&v);
                    if !problems.is_empty() {
                        eprintln!("bench_baseline: {path} is malformed:");
                        for p in &problems {
                            eprintln!("  - {p}");
                        }
                        return ExitCode::FAILURE;
                    }
                    Some(v)
                }
                Err(e) => {
                    eprintln!("bench_baseline: {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let results = perf::run_all(&args.cfg, print_result);
    // The check gate only reads the GPS grid; don't burn minutes measuring
    // the baseline-sampler or engine grids just to discard them.
    let baselines = if args.baselines && args.check.is_none() {
        perf::run_baselines(&args.cfg, print_baseline)
    } else {
        Vec::new()
    };
    let engine = if args.engine && args.check.is_none() {
        perf::run_engine(&args.cfg, print_engine)
    } else {
        Vec::new()
    };
    let serve = if args.serve && args.check.is_none() {
        perf::run_serve(&args.cfg, print_serve)
    } else {
        Vec::new()
    };
    let chaos = if args.chaos && args.check.is_none() {
        perf::run_chaos(&args.cfg, print_chaos)
    } else {
        Vec::new()
    };
    let sim = if args.sim && args.check.is_none() {
        perf::run_sim(&args.cfg, print_sim)
    } else {
        Vec::new()
    };
    let telemetry = if args.telemetry && args.check.is_none() {
        let t = perf::run_telemetry(&args.cfg);
        print_telemetry(&t);
        Some(t)
    } else {
        None
    };
    let trace = if args.trace && args.check.is_none() {
        let t = perf::run_trace(&args.cfg);
        print_trace(&t);
        Some(t)
    } else {
        None
    };

    if let (Some(path), Some(committed)) = (&args.check, &committed) {
        let failures = check_against(committed, &results, args.min_ratio);
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

    let doc = perf::results_json(
        &args.cfg,
        &git_rev(),
        &results,
        perf::OptionalGrids {
            baselines: &baselines,
            engine: &engine,
            serve: &serve,
            chaos: &chaos,
            sim: &sim,
            telemetry: telemetry.as_ref(),
            trace: trace.as_ref(),
        },
    );
    if let Err(e) = std::fs::write(&args.out, doc.to_pretty()) {
        eprintln!("bench_baseline: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", args.out);
    ExitCode::SUCCESS
}
