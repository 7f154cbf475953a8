//! The repository benchmark. See `perfbench/METRICS.md` for every metric,
//! and `BENCHMARK.json` for the workloads and bounds.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bulk-ingest|checkpointed-ingest|paced-serve|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats full passes of one workload until `--seconds` is spent,
//! prints each metric with its unit and sample count, checks the outputs,
//! and ends with one JSON line: the bounded end-to-end metrics (from
//! untraced passes) with `--trace 0`; the unbounded end-to-end and the
//! per-layer metrics with `--trace 1`. A traced run alternates untraced
//! and traced passes, then replays the stream single-threaded for the
//! layer ledger. The exit code is nonzero when any output check fails.

mod input;
mod measure;
mod replay;
mod workload;

use measure::{mean, median, percentile, Machine};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Pass, Workload, WORKLOADS};

/// Extra set-ups timed per run, so `setup_s` is a median of many.
const SETUP_PROBES: usize = 64;
/// End-to-end metrics whose run-to-run spread on a shared two-vCPU host
/// exceeds the largest allowed regression bound (the host's speed swings
/// up to 2× for minutes at a time): every run prints them, and traced runs
/// report them beside the per-layer metrics, unbounded.
const UNBOUNDED: [&str; 6] = [
    "ingest_eps",
    "fresh_p50_ms",
    "fresh_p99_ms",
    "sched_late_p99_ms",
    "read_p99_ns",
    "query_ms",
];

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    generate_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        generate_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--generate-inputs" {
            args.generate_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = WORKLOADS.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::by_name(&value).ok_or_else(|| bad("unknown workload"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected positive seconds"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workloads.is_empty() && !args.generate_only {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.generate_only {
        return match input::generate_to_cache(args.seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: generating inputs: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // The checkpointed workload's scripted crash is expected; keep its
    // panic message out of the report (the engine contains the panic and
    // the run checks the loss it causes).
    let report_panic = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let text = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !text.starts_with("chaos: injected panic") {
            report_panic(info);
        }
    }));
    let machine = Machine::probe();
    let (inputs, generated) = match input::load(args.seed) {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "inputs: Holme-Kim(n={}, k={}, p={}) seed {}, permuted: {} edges, {} exact triangles ({})",
        input::NODES,
        input::EDGES_PER_NODE,
        input::TRIAD_P,
        args.seed,
        inputs.stream.len(),
        inputs.exact_triangles,
        match generated {
            Some(s) => format!("generated in {s:.2} s, excluded from every metric"),
            None => "cached".to_string(),
        }
    );
    println!(
        "machine: nproc {}, two-thread spin efficiency {:.3}",
        machine.nproc, machine.spin_efficiency
    );
    let mut all_correct = true;
    for w in &args.workloads {
        all_correct &= run_workload(w, &inputs, &args, &machine);
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
}

fn metric(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

/// Pass / total counts per named output check.
#[derive(Default)]
struct Checks(BTreeMap<&'static str, (u64, u64)>);

impl Checks {
    fn record(&mut self, name: &'static str, ok: bool) {
        let entry = self.0.entry(name).or_default();
        entry.0 += u64::from(ok);
        entry.1 += 1;
    }
    fn total(&self) -> u64 {
        self.0.values().map(|c| c.1).sum()
    }
    fn failed(&self) -> u64 {
        self.0.values().map(|c| c.1 - c.0).sum()
    }
}

/// The bit patterns an exact comparison of two estimates looks at
/// (clustering is derived from these).
fn bits(t: &gps_core::TriadEstimates) -> [u64; 5] {
    [
        t.triangles.value.to_bits(),
        t.triangles.variance.to_bits(),
        t.wedges.value.to_bits(),
        t.wedges.variance.to_bits(),
        t.tri_wedge_cov.to_bits(),
    ]
}

fn check_pass(p: &Pass, scripted_loss: u64, exact: u64, checks: &mut Checks) {
    let served = p.final_epoch.estimates;
    let expected = if p.degraded {
        served.widened_for_loss(p.lost as f64 / p.pushed.max(1) as f64)
    } else {
        served
    };
    checks.record(
        "final_epoch_eq_estimate_in_stream",
        bits(&expected) == bits(&p.in_stream),
    );
    checks.record(
        "edges_seen_eq_pushed_minus_lost",
        p.final_epoch.edges_seen == p.pushed - p.lost,
    );
    checks.record("lost_eq_scripted_loss", p.lost == scripted_loss);
    checks.record(
        "reader_saw_final_epoch",
        p.reader.last_version == p.final_epoch.version,
    );
    let tri = p.in_stream.triangles;
    checks.record(
        "exact_within_4_se",
        (tri.value - exact as f64).abs() <= 4.0 * tri.std_dev(),
    );
}

fn pooled(passes: &[&Pass], f: impl Fn(&Pass) -> Vec<u64>) -> Vec<u64> {
    passes.iter().flat_map(|p| f(p)).collect()
}

fn pct(samples: &[u64], q: f64, scale: f64) -> f64 {
    percentile(samples, q).map_or(f64::NAN, |v| v / scale)
}

fn median_of(passes: &[&Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>())
}

/// A percentile of each pass's own samples, then the median over passes:
/// one disturbed pass cannot move it. Returns the value and the number of
/// samples behind it.
fn pass_pct(
    passes: &[&Pass],
    samples: impl Fn(&Pass) -> &[u64],
    q: f64,
    scale: f64,
) -> (f64, usize) {
    let per_pass: Vec<f64> = passes.iter().map(|p| pct(samples(p), q, scale)).collect();
    let n = passes.iter().map(|p| samples(p).len()).sum();
    (median(&per_pass), n)
}

fn end_to_end(timed: &[&Pass], all: &[Pass], setups: &[f64]) -> Vec<Metric> {
    let n = timed.len();
    let pass_metric = |name, unit, samples: fn(&Pass) -> &[u64], q, scale| {
        let (value, n) = pass_pct(timed, samples, q, scale);
        metric(name, unit, value, n)
    };
    let queries: Vec<f64> = timed
        .iter()
        .flat_map(|p| p.query_s.iter().map(|q| q * 1e3))
        .collect();
    vec![
        metric(
            "ingest_eps",
            "edges/s",
            median_of(timed, |p| p.pushed as f64 / p.ingest_s),
            n,
        ),
        pass_metric("fresh_p50_ms", "ms", |p| &p.reader.fresh_ns, 0.50, 1e6),
        pass_metric("fresh_p99_ms", "ms", |p| &p.reader.fresh_ns, 0.99, 1e6),
        pass_metric("sched_late_p99_ms", "ms", |p| &p.late_ns, 0.99, 1e6),
        pass_metric("read_p50_ns", "ns", |p| &p.reader.read_ns, 0.50, 1.0),
        pass_metric("read_p99_ns", "ns", |p| &p.reader.read_ns, 0.99, 1.0),
        // A mean, not a median: single-thread speed on a shared host
        // flips between two levels, and a median jumps between them.
        metric("query_ms", "ms", mean(&queries), queries.len()),
        metric(
            "mem_mb",
            "MB",
            median(
                &all.iter()
                    .map(|p| p.mem_bytes as f64 / 1e6)
                    .collect::<Vec<_>>(),
            ),
            all.len(),
        ),
        metric("setup_s", "s", median(setups), setups.len()),
    ]
}

fn per_layer(
    untraced: &[&Pass],
    traced: &[&Pass],
    ledger: &replay::Ledger,
    machine: &Machine,
) -> Vec<Metric> {
    let n = traced.len();
    let push = pooled(traced, |p| p.push.iter().map(|s| s.1).collect());
    let counter = |name: &str| {
        median_of(traced, |p| {
            p.counters.get(name).map_or(f64::NAN, |&v| v as f64)
        })
    };
    let stage = |name: &str| {
        pooled(traced, |p| {
            p.reader
                .traces
                .values()
                .filter_map(|t| t.stage_ns(name))
                .collect()
        })
    };
    let (report, gate, merge, publish, observe) = (
        stage("shard_report"),
        stage("gate_wait"),
        stage("merge"),
        stage("seqlock_publish"),
        stage("first_observation"),
    );
    let recv = pooled(traced, |p| p.reader.recv.iter().map(|s| s.1).collect());
    let scrape = pooled(traced, |p| p.reader.scrape.iter().map(|s| s.1).collect());
    let snapshot = pooled(traced, |p| p.snapshot_ns.clone());
    let skew = {
        let a = &traced[0].shard_arrivals;
        let (max, min) = (a.iter().max(), a.iter().min());
        max.zip(min)
            .map_or(f64::NAN, |(&x, &y)| x as f64 / y.max(1) as f64)
    };
    let eps = |ps: &[&Pass]| median_of(ps, |p| p.pushed as f64 / p.ingest_s);
    let cpu_s = median_of(untraced, |p| p.cpu_s);
    let all: Vec<&Pass> = untraced.iter().chain(traced).copied().collect();
    vec![
        metric(
            "engine.route_ns_per_edge",
            "ns",
            ledger.route_ns_per_edge,
            1,
        ),
        metric(
            "engine.push_p50_us",
            "us",
            pct(&push, 0.50, 1e3),
            push.len(),
        ),
        metric(
            "engine.push_p99_us",
            "us",
            pct(&push, 0.99, 1e3),
            push.len(),
        ),
        metric(
            "engine.producer_busy_share",
            "ratio",
            median_of(traced, |p| {
                p.push.iter().map(|s| s.1).sum::<u64>() as f64 / 1e9 / p.ingest_s
            }),
            n,
        ),
        metric(
            "engine.finish_ms",
            "ms",
            median_of(traced, |p| p.finish_s * 1e3),
            n,
        ),
        metric(
            "engine.queue_depth_hwm",
            "count",
            counter("gps_engine_queue_depth_highwater"),
            n,
        ),
        metric("engine.shard_skew", "ratio", skew, 1),
        metric(
            "engine.checkpoints",
            "count",
            counter("gps_engine_checkpoints_total"),
            n,
        ),
        metric(
            "engine.checkpoint_mb",
            "MB",
            counter("gps_engine_checkpoint_bytes_total") / 1e6,
            n,
        ),
        metric(
            "engine.restarts",
            "count",
            counter("gps_engine_restarts_total"),
            n,
        ),
        metric(
            "engine.lost_arrivals",
            "count",
            counter("gps_engine_lost_arrivals_total"),
            n,
        ),
        metric(
            "core.update_ns_per_edge",
            "ns",
            ledger.update_ns_per_edge,
            1,
        ),
        metric(
            "core.instream_ns_per_edge",
            "ns",
            ledger.instream_ns_per_edge,
            1,
        ),
        metric(
            "core.alg3_ns_per_edge",
            "ns",
            ledger.instream_ns_per_edge - ledger.update_ns_per_edge,
            1,
        ),
        metric("core.insert_share", "ratio", ledger.insert_share, 1),
        metric("core.evict_share", "ratio", ledger.evict_share, 1),
        metric("core.duplicate_share", "ratio", ledger.duplicate_share, 1),
        metric(
            "core.checkpoint_ms",
            "ms",
            ledger.checkpoint_ms,
            ledger.checkpoints,
        ),
        metric(
            "core.checkpoint_ns_per_sampled_edge",
            "ns",
            ledger.checkpoint_ns_per_sampled_edge,
            ledger.checkpoints,
        ),
        metric(
            "core.checkpoint_kb",
            "KB",
            ledger.checkpoint_kb,
            ledger.checkpoints,
        ),
        metric("core.restore_ms", "ms", ledger.restore_ms, 1),
        metric("core.post_stream_ms", "ms", ledger.post_stream_ms, 1),
        metric("core.merge_ns", "ns", ledger.merge_ns, 1),
        metric("graph.triad_probe_ns", "ns", ledger.triad_probe_ns, 1),
        metric(
            "serve.report_p50_us",
            "us",
            pct(&report, 0.50, 1e3),
            report.len(),
        ),
        // Without a publication gate only the launch epoch waits (for the
        // second worker's first report), so every percentile reads 0: the
        // maximum is the one gate wait these workloads have.
        metric(
            "serve.gate_wait_max_us",
            "us",
            gate.iter().max().map_or(f64::NAN, |&v| v as f64 / 1e3),
            gate.len(),
        ),
        metric(
            "serve.merge_p50_ns",
            "ns",
            pct(&merge, 0.50, 1.0),
            merge.len(),
        ),
        metric(
            "serve.publish_p50_ns",
            "ns",
            pct(&publish, 0.50, 1.0),
            publish.len(),
        ),
        metric(
            "serve.observe_p50_us",
            "us",
            pct(&observe, 0.50, 1e3),
            observe.len(),
        ),
        metric(
            "serve.epochs",
            "count",
            counter("gps_serve_epochs_published_total"),
            n,
        ),
        metric("serve.recv_p50_ns", "ns", pct(&recv, 0.50, 1.0), recv.len()),
        metric(
            "serve.scrape_p50_ms",
            "ms",
            pct(&scrape, 0.50, 1e6),
            scrape.len(),
        ),
        metric(
            "telemetry.snapshot_us",
            "us",
            pct(&snapshot, 0.50, 1e3),
            snapshot.len(),
        ),
        metric("attrib.cpu_s", "s", cpu_s, untraced.len()),
        metric("attrib.cpu_cover", "ratio", ledger.layer_s / cpu_s, 1),
        metric(
            "attrib.trace_overhead",
            "ratio",
            1.0 - eps(traced) / eps(untraced),
            all.len(),
        ),
        metric("machine.nproc", "count", machine.nproc as f64, 1),
        metric(
            "machine.spin_efficiency",
            "ratio",
            machine.spin_efficiency,
            1,
        ),
        metric(
            "machine.cpu_wall_ratio",
            "ratio",
            median_of(&all, |p| p.cpu_s / p.ingest_s),
            all.len(),
        ),
    ]
}

/// Runs one workload for `args.seconds`; prints its report and JSON line.
/// Returns whether every output check passed.
fn run_workload(w: &Workload, inputs: &input::Inputs, args: &Args, machine: &Machine) -> bool {
    let stream = &inputs.stream;
    let plan = replay::Plan::new(stream);
    let scripted_loss = plan.scripted_loss(w);
    let start = Instant::now();
    // Pass 0 warms caches and code paths: its outputs and memory count, but
    // its timings are not reported.
    let mut passes = vec![w.run_pass(stream, false)];
    let mut setups: Vec<f64> = (0..SETUP_PROBES).map(|_| w.setup_probe()).collect();
    loop {
        let traced = args.trace && passes.len() % 2 == 0;
        passes.push(w.run_pass(stream, traced));
        let elapsed = start.elapsed().as_secs_f64();
        let per_pass = elapsed / passes.len() as f64;
        let minimum = if args.trace { 3 } else { 2 };
        if passes.len() >= minimum && elapsed + per_pass > args.seconds {
            break;
        }
    }
    let measured_s = start.elapsed().as_secs_f64();
    setups.extend(passes.iter().map(|p| p.setup_s));

    let mut checks = Checks::default();
    for p in &passes {
        check_pass(p, scripted_loss, inputs.exact_triangles, &mut checks);
    }
    let untraced: Vec<&Pass> = passes[1..].iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();

    println!(
        "\n== {}  seed {}  {} passes (1 warm-up, {} traced) in {:.1} s  scripted loss {}",
        w.name,
        args.seed,
        passes.len(),
        traced.len(),
        measured_s,
        scripted_loss
    );
    println!(
        "pass  kind      Medges/s  cpu/wall  query_ms  fresh50  fresh99  late99  read50  read99  mem_mb"
    );
    for (i, p) in passes.iter().enumerate() {
        let kind = match (i, p.traced) {
            (0, _) => "warm-up",
            (_, true) => "traced",
            _ => "timed",
        };
        println!(
            "{i:>4}  {kind:<8}  {:>8.3}  {:>8.2}  {:>8.2}  {:>7.3}  {:>7.3}  {:>6.3}  {:>6.1}  {:>6.1}  {:>6.2}",
            p.pushed as f64 / p.ingest_s / 1e6,
            p.cpu_s / p.ingest_s,
            median(&p.query_s) * 1e3,
            pct(&p.reader.fresh_ns, 0.50, 1e6),
            pct(&p.reader.fresh_ns, 0.99, 1e6),
            pct(&p.late_ns, 0.99, 1e6),
            pct(&p.reader.read_ns, 0.50, 1.0),
            pct(&p.reader.read_ns, 0.99, 1.0),
            p.mem_bytes as f64 / 1e6,
        );
    }
    let (unbounded, e2e): (Vec<Metric>, Vec<Metric>) = end_to_end(&untraced, &passes, &setups)
        .into_iter()
        .partition(|m| UNBOUNDED.contains(&m.name));
    let late = pooled(&untraced, |p| p.late_ns.clone());
    print_metrics("end-to-end (untraced passes)", &e2e);
    print_metrics("end-to-end, unbounded (untraced passes)", &unbounded);

    let layers = if args.trace {
        let t = Instant::now();
        let ledger = replay::replay(stream, &plan, w);
        println!("replay took {:.1} s", t.elapsed().as_secs_f64());
        // Where the workload is crash-free the replay runs the workers'
        // exact computation; with the crash it restores and continues as
        // the supervisor does. Either way it must match to the bit.
        let served = traced[0].final_epoch.estimates;
        checks.record("replay_bit_equal", bits(&ledger.merged) == bits(&served));
        let layers = per_layer(&untraced, &traced, &ledger, machine);
        print_metrics("per-layer (traced passes and replay)", &layers);
        write_spans(w, &traced);
        Some(layers)
    } else {
        None
    };

    // Metrics that could not be measured fail the run as well.
    let unmeasured: Vec<&str> = e2e
        .iter()
        .chain(&unbounded)
        .chain(layers.iter().flatten())
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    checks.record("every_metric_measured", unmeasured.is_empty());
    let reads: u64 = passes.iter().map(|p| p.reader.read_ns.len() as u64).sum();
    let recvs: u64 = passes.iter().map(|p| p.reader.recvs).sum();
    let scrapes: u64 = passes.iter().map(|p| p.reader.scrapes).sum();
    let pushed: u64 = passes.iter().map(|p| p.pushed).sum();
    let op_failures: u64 = passes
        .iter()
        .map(|p| p.reader.none_after_first + p.reader.scrape_failures)
        .sum();
    let lost: u64 = passes.iter().map(|p| p.lost).sum();
    let attempted = pushed + reads + recvs + scrapes + checks.total();
    let failed = op_failures + checks.failed();
    println!(
        "fail_share {:.6} ratio (n={attempted}: {pushed} arrivals, {reads} reads, {recvs} try_recv, \
         {scrapes} scrapes, {} checks; {lost} arrivals lost to the scripted crash, {failed} other failures)",
        (lost + failed) as f64 / attempted as f64,
        checks.total(),
    );
    if w.rate.is_some() {
        println!(
            "schedule: {} of {} batches accepted more than 1 ms after their due time",
            late.iter().filter(|&&l| l > 1_000_000).count(),
            late.len()
        );
    }
    for (name, (ok, total)) in &checks.0 {
        println!(
            "check {name}: {ok}/{total}{}",
            if ok == total { "" } else { "  FAILED" }
        );
    }
    if !unmeasured.is_empty() {
        println!("unmeasured: {}", unmeasured.join(", "));
    }
    let correct = checks.failed() == 0;
    let reported: Vec<&Metric> = match &layers {
        Some(layers) => unbounded.iter().chain(layers).collect(),
        None => e2e.iter().collect(),
    };
    println!("{}", json_line(correct, attempted, failed, &reported));
    correct
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("-- {title}");
    for m in metrics {
        println!(
            "{:<36} {:>16.6} {:<8} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { -1.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Writes the traced passes' spans and epoch traces beside the build.
fn write_spans(w: &Workload, traced: &[&Pass]) {
    let Ok(dir) = input::build_dir().map(|d| d.join("perfbench-traces")) else {
        return;
    };
    let mut spans = String::from("pass\tkind\tstart_ns\tdur_ns\n");
    let mut epochs = String::new();
    for (i, p) in traced.iter().enumerate() {
        let mut emit = |kind: &str, list: &[(u64, u64)]| {
            for (start, dur) in list {
                let _ = writeln!(spans, "{i}\t{kind}\t{start}\t{dur}");
            }
        };
        emit("push_batch", &p.push);
        let reads: Vec<(u64, u64)> = p
            .reader
            .read_at
            .iter()
            .copied()
            .zip(p.reader.read_ns.iter().copied())
            .collect();
        emit("latest", &reads);
        emit("try_recv", &p.reader.recv);
        emit("scrape", &p.reader.scrape);
        for t in p.reader.traces.values() {
            let _ = writeln!(epochs, "{}", t.to_json());
        }
    }
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{}.spans.tsv", w.name)), spans))
        .and_then(|()| std::fs::write(dir.join(format!("{}.epochs.jsonl", w.name)), epochs));
    match written {
        Ok(()) => println!("spans written to {}", dir.display()),
        Err(e) => println!("spans not written: {e}"),
    }
}
