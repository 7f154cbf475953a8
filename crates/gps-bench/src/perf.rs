//! Reproducible `GPSUpdate` throughput measurement and determinism
//! fingerprints — the harness behind the `bench_baseline` binary and the
//! committed `BENCH_PR2.json` document.
//!
//! Each [`Scenario`] is a full-stream sampling run: weight function ×
//! synthetic stream × reservoir capacity. Timing takes the best of `iters`
//! runs (minimum wall time — the standard way to suppress scheduler noise
//! for CPU-bound loops); stream generation and sampler construction are
//! untimed.
//!
//! The `run_*` functions measure one section of the baseline document each
//! into a [`Report`]: the scenario grid ([`run_all`]), the ported baselines
//! ([`run_baselines`], the update-cost half of the paper's Table 2), crash
//! recovery ([`run_chaos`]), the simulated scale-out sweep ([`run_sim`]),
//! and the telemetry and trace fingerprints ([`run_telemetry`],
//! [`run_trace`]). [`SECTIONS`] describes every section once — its
//! `bench_baseline` flag, its JSON key, and each field's key, validation
//! rule and getter — and [`results_json`], [`validate_baseline`] and
//! the binary's flag parser all read that one table.
//!
//! Sharded-ingest and live-serving throughput are measured elsewhere: end
//! to end by the repository benchmark (`perfbench/`), the shard axis by
//! `cargo bench --bench scaling` and the reader axis by the
//! `serve_throughput` example.

use crate::json::Value;
use gps_baselines::{
    JhaWedgeSampler, Mascot, TriangleEstimator, TriestBase, TriestImpr, UniformReservoir,
};
use gps_chaos::run_engine_scenario;
use gps_core::weights::{TriadWeight, TriangleWeight, UniformWeight};
use gps_core::GpsSampler;
use gps_engine::{EngineConfig, EngineHealth, FaultPlan};
use gps_graph::types::Edge;
use gps_serve::{ClockMode, ServeConfig, ServeEngine};
use gps_stream::{gen, permuted};
use std::time::{Duration, Instant};

/// Weight functions covered by the baseline (brackets the per-edge cost:
/// uniform ≈ floor, triangle/triad pay the common-neighbor intersection).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightKind {
    /// `W ≡ 1` — no topology probe.
    Uniform,
    /// `W = 9·|△̂(k)| + 1` — the paper's headline weight.
    Triangle,
    /// Triangle + wedge mixture — heaviest per-edge cost.
    Triad,
}

impl WeightKind {
    /// All weights, in reporting order.
    pub const ALL: [WeightKind; 3] = [WeightKind::Uniform, WeightKind::Triangle, WeightKind::Triad];

    /// Stable scenario-name fragment.
    pub fn name(self) -> &'static str {
        match self {
            WeightKind::Uniform => "uniform",
            WeightKind::Triangle => "triangle",
            WeightKind::Triad => "triad",
        }
    }
}

/// Stream generators covered by the baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamKind {
    /// Holme–Kim: clustered power-law (many triangles; heavy intersection).
    HolmeKim,
    /// R-MAT (social parameters): skewed hub degrees.
    Rmat,
}

impl StreamKind {
    /// All streams, in reporting order.
    pub const ALL: [StreamKind; 2] = [StreamKind::HolmeKim, StreamKind::Rmat];

    /// Stable scenario-name fragment.
    pub fn name(self) -> &'static str {
        match self {
            StreamKind::HolmeKim => "holme_kim",
            StreamKind::Rmat => "rmat",
        }
    }

    /// Generates the (seeded, permuted) edge stream at the given scale.
    /// Full-mode scales approximate the paper's §6 regime (graphs of
    /// hundreds of thousands of edges, reservoirs up to hundreds of
    /// thousands of slots); quick mode is CI-smoke sized.
    pub fn edges(self, quick: bool, seed: u64) -> Vec<Edge> {
        let edges = match (self, quick) {
            (StreamKind::HolmeKim, false) => gen::holme_kim(80_000, 4, 0.5, seed),
            (StreamKind::HolmeKim, true) => gen::holme_kim(2_000, 3, 0.5, seed),
            (StreamKind::Rmat, false) => gen::rmat(18, 320_000, gen::RmatParams::social(), seed),
            (StreamKind::Rmat, true) => gen::rmat(12, 8_000, gen::RmatParams::social(), seed),
        };
        permuted(&edges, seed ^ 0x5eed)
    }
}

/// One measured configuration.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Stream generator.
    pub stream: StreamKind,
    /// Weight function.
    pub weight: WeightKind,
    /// Reservoir capacity `m`.
    pub capacity: usize,
}

impl Scenario {
    /// Stable machine-readable name, e.g. `holme_kim/triangle/m2000`.
    pub fn name(&self) -> String {
        format!(
            "{}/{}/m{}",
            self.stream.name(),
            self.weight.name(),
            self.capacity
        )
    }
}

/// Timing result of one scenario.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Best-of-iters wall time for the full stream, in nanoseconds.
    pub elapsed_ns: u128,
    /// Nanoseconds per processed edge (best run).
    pub ns_per_edge: f64,
    /// Processed edges per second (best run).
    pub edges_per_sec: f64,
}

/// A measured scenario.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// The configuration.
    pub scenario: Scenario,
    /// Edges in the stream (arrivals processed per run).
    pub edges: usize,
    /// Sampler timing.
    pub compact: Measurement,
}

/// Harness configuration.
#[derive(Clone, Copy, Debug)]
pub struct PerfConfig {
    /// Reduced streams/capacities for CI smoke runs.
    pub quick: bool,
    /// Timed repetitions per scenario; the minimum is reported.
    pub iters: usize,
    /// Stream / sampler seed.
    pub seed: u64,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig {
            quick: false,
            iters: 3,
            seed: 42,
        }
    }
}

/// Reservoir capacities measured per stream.
pub fn capacities(quick: bool) -> [usize; 2] {
    if quick {
        [500, 2_000]
    } else {
        [8_000, 16_000]
    }
}

fn time_once<W: gps_core::weights::EdgeWeight + Copy>(
    edges: &[Edge],
    capacity: usize,
    weight_fn: W,
    seed: u64,
) -> u128 {
    let mut sampler = GpsSampler::new(capacity, weight_fn, seed);
    let start = Instant::now();
    for &e in edges {
        sampler.process(e);
    }
    let elapsed = start.elapsed().as_nanos();
    std::hint::black_box(sampler.len());
    elapsed
}

fn to_measurement(best_ns: u128, edges: usize) -> Measurement {
    let secs = best_ns as f64 / 1e9;
    Measurement {
        elapsed_ns: best_ns,
        ns_per_edge: best_ns as f64 / edges as f64,
        edges_per_sec: edges as f64 / secs.max(f64::MIN_POSITIVE),
    }
}

/// Best of `iters` timed runs of `run`.
fn best_of(iters: usize, edges: usize, mut run: impl FnMut() -> u128) -> Measurement {
    let best = (0..iters.max(1)).map(|_| run()).min().unwrap_or(u128::MAX);
    to_measurement(best, edges)
}

fn measure(edges: &[Edge], scenario: Scenario, cfg: &PerfConfig) -> Measurement {
    let (m, seed) = (scenario.capacity, cfg.seed);
    best_of(cfg.iters, edges.len(), || match scenario.weight {
        WeightKind::Uniform => time_once(edges, m, UniformWeight, seed),
        WeightKind::Triangle => time_once(edges, m, TriangleWeight::default(), seed),
        WeightKind::Triad => time_once(edges, m, TriadWeight::default(), seed),
    })
}

/// Runs the full scenario grid (streams × weights × capacities),
/// invoking `progress` with each finished scenario.
pub fn run_all(cfg: &PerfConfig, mut progress: impl FnMut(&ScenarioResult)) -> Vec<ScenarioResult> {
    let mut results = Vec::new();
    for stream in StreamKind::ALL {
        let edges = stream.edges(cfg.quick, cfg.seed);
        for capacity in capacities(cfg.quick) {
            for weight in WeightKind::ALL {
                let scenario = Scenario {
                    stream,
                    weight,
                    capacity,
                };
                let result = ScenarioResult {
                    scenario,
                    edges: edges.len(),
                    compact: measure(&edges, scenario, cfg),
                };
                progress(&result);
                results.push(result);
            }
        }
    }
    results
}

/// A ported baseline sampler timed over one full stream (same
/// best-of-iters protocol as the GPS grid).
#[derive(Clone, Debug)]
pub struct BaselineResult {
    /// Estimator display name (e.g. `TRIEST`).
    pub name: &'static str,
    /// Stable machine-readable scenario name, e.g. `baseline/triest/m8000`.
    pub scenario: String,
    /// Stored-edge budget the estimator was configured for.
    pub capacity: usize,
    /// Edges in the stream (arrivals processed per run).
    pub edges: usize,
    /// Sampler timing.
    pub compact: Measurement,
}

fn time_estimator(edges: &[Edge], mut est: Box<dyn TriangleEstimator>) -> u128 {
    let start = Instant::now();
    for &e in edges {
        est.process(e);
    }
    let elapsed = start.elapsed().as_nanos();
    std::hint::black_box(est.stored_edges());
    elapsed
}

/// Times the ported `gps-baselines` samplers: the update-cost half of the
/// paper's Table 2. NSAMP is excluded — its cost is covered by the
/// criterion `baselines` bench.
pub fn run_baselines(
    cfg: &PerfConfig,
    mut progress: impl FnMut(&BaselineResult),
) -> Vec<BaselineResult> {
    let edges = StreamKind::HolmeKim.edges(cfg.quick, cfg.seed);
    let m = if cfg.quick { 500 } else { 8_000 };
    let p = (m as f64 / edges.len() as f64).min(1.0);
    let seed = cfg.seed;
    type Factory<'a> = Box<dyn Fn() -> Box<dyn TriangleEstimator> + 'a>;
    let factories: Vec<(&'static str, Factory)> = vec![
        (
            "triest",
            Box::new(move || Box::new(TriestBase::new(m, seed))),
        ),
        (
            "triest_impr",
            Box::new(move || Box::new(TriestImpr::new(m, seed))),
        ),
        ("mascot", Box::new(move || Box::new(Mascot::new(p, seed)))),
        (
            "jha",
            Box::new(move || Box::new(JhaWedgeSampler::new(m, (m / 8).max(16), seed))),
        ),
        (
            "uniform_reservoir",
            Box::new(move || Box::new(UniformReservoir::new(m, seed))),
        ),
    ];
    let mut results = Vec::new();
    for (name, factory) in &factories {
        let result = BaselineResult {
            name: factory().name(),
            scenario: format!("baseline/{name}/m{m}"),
            capacity: m,
            edges: edges.len(),
            compact: best_of(cfg.iters, edges.len(), || time_estimator(&edges, factory())),
        };
        progress(&result);
        results.push(result);
    }
    results
}

/// Total reservoir budget of the chaos, telemetry and trace runs: the
/// scenario grid's largest capacity, split across shards.
pub fn engine_capacity(quick: bool) -> usize {
    if quick {
        2_000
    } else {
        16_000
    }
}

/// Shard counts measured by the chaos grid (crash recovery and degraded
/// serving at `S ∈ {2, 4}`).
pub const CHAOS_SHARDS: [usize; 2] = [2, 4];

/// One shard count of the chaos scenario: full-stream sharded ingest with
/// a scripted mid-stream worker crash that the supervisor must absorb via
/// a checkpoint restore.
#[derive(Clone, Debug)]
pub struct ChaosResult {
    /// Shard / worker count `S`.
    pub shards: usize,
    /// Stable machine-readable name, e.g. `chaos/holme_kim/triangle/m16000/s4`.
    pub scenario: String,
    /// Total reservoir budget `m` (split across shards).
    pub capacity: usize,
    /// Edges in the stream (arrivals offered per run).
    pub edges: usize,
    /// Best-of-iters ingest with supervision + checkpointing armed but no
    /// fault injected — the honest denominator for recovery cost (both
    /// runs pay the checkpoint cadence).
    pub clean: Measurement,
    /// Best-of-iters ingest with the scripted crash + restore inline.
    pub faulted: Measurement,
    /// Arrivals in the (checkpoint, crash] window the engine admits
    /// losing — exact, from [`EngineHealth`]; deterministic per seed.
    pub arrivals_lost: u64,
    /// Worker restarts the supervisor performed (1 for the single
    /// scripted crash).
    pub restarts: u64,
    /// Epochs a gated serving probe published while one shard was
    /// scripted to stall (timing-dependent; context for the next field).
    pub epochs: u64,
    /// Of those, epochs published in degraded mode (partial contributing
    /// set, honest per-color merge) once the publication gate expired.
    pub degraded_epochs: u64,
}

fn time_chaos_once(
    edges: &[Edge],
    capacity: usize,
    shards: usize,
    seed: u64,
    crash_at: Option<u64>,
) -> (u128, EngineHealth) {
    // Small batches so checkpoint boundaries actually precede the crash
    // site — otherwise the "restore" would be a from-scratch replay and
    // the loss window would swallow the whole substream so far.
    let cfg = EngineConfig {
        batch: 64,
        checkpoint_every: 64,
        ..EngineConfig::new(capacity, shards, seed)
    };
    let plan = match crash_at {
        Some(at) => FaultPlan::new().panic_at(shards - 1, at),
        None => FaultPlan::new(),
    };
    let start = Instant::now();
    let out = run_engine_scenario(cfg, TriangleWeight::default(), edges.iter().copied(), plan);
    let elapsed = start.elapsed().as_nanos();
    std::hint::black_box(out.estimate.triangles.value);
    (elapsed, out.health)
}

/// Runs a quick-scale serving engine with one shard scripted to stall for
/// 400 ms behind a 50 ms publication gate (and a slowdown on shard 0 so a
/// live shard keeps reporting through the stall window), then counts the
/// epochs published and how many were degraded. Probe size is fixed at
/// quick scale regardless of mode: the metric is the gate's behavior
/// during the stall window, not throughput.
fn probe_degraded_epochs(shards: usize, seed: u64) -> (u64, u64) {
    let edges = StreamKind::HolmeKim.edges(true, seed);
    let cfg = ServeConfig {
        engine: EngineConfig {
            batch: 16,
            epoch_every: 32,
            checkpoint_every: 32,
            ..EngineConfig::new(edges.len() / 4, shards, seed)
        },
        subscribe_depth: 1 << 15,
        gate_timeout: Some(Duration::from_millis(50)),
        clock: ClockMode::Wall,
    };
    let faults = FaultPlan::new()
        .stall_at(shards - 1, 1, 400)
        .slowdown_at(0, 1, 2_000, 250);
    let mut serve = ServeEngine::with_config_and_faults(cfg, TriangleWeight::default(), faults);
    let sub = serve.handle().subscribe().expect("engine is live");
    serve.push_stream(edges.iter().copied());
    serve.finish();
    let mut epochs = 0u64;
    let mut degraded = 0u64;
    for epoch in sub {
        epochs += 1;
        if epoch.degraded() {
            degraded += 1;
        }
    }
    (epochs, degraded)
}

/// Measures crash recovery at `S ∈` [`CHAOS_SHARDS`] on the triangle-weight
/// Holme–Kim scenario: each shard count runs the stream clean (supervision
/// and checkpointing armed, no fault) and faulted (scripted panic on the
/// last shard a quarter into its expected substream), best of `iters`
/// each. Loss and restart counts come from the engine's deterministic
/// incident ledger; a gated serving probe contributes the degraded-epoch
/// count under a scripted stall.
pub fn run_chaos(cfg: &PerfConfig, mut progress: impl FnMut(&ChaosResult)) -> Vec<ChaosResult> {
    let edges = StreamKind::HolmeKim.edges(cfg.quick, cfg.seed);
    let m = engine_capacity(cfg.quick);
    let mut results = Vec::new();
    for shards in CHAOS_SHARDS {
        // A quarter into the expected per-shard substream: far enough in
        // that checkpoints exist, early enough that every shard count
        // reaches it even with hash-partition imbalance.
        let crash_at = (edges.len() / shards / 4).max(1) as u64;
        let mut clean_best = u128::MAX;
        let mut faulted_best = u128::MAX;
        let mut health = EngineHealth::default();
        for _ in 0..cfg.iters.max(1) {
            clean_best = clean_best.min(time_chaos_once(&edges, m, shards, cfg.seed, None).0);
            let (elapsed, h) = time_chaos_once(&edges, m, shards, cfg.seed, Some(crash_at));
            faulted_best = faulted_best.min(elapsed);
            // The ledger is deterministic per (seed, plan): identical
            // across iterations, so keeping the last run's copy is exact.
            health = h;
        }
        let (epochs, degraded_epochs) = probe_degraded_epochs(shards, cfg.seed);
        let result = ChaosResult {
            shards,
            scenario: format!("chaos/holme_kim/triangle/m{m}/s{shards}"),
            capacity: m,
            edges: edges.len(),
            clean: to_measurement(clean_best, edges.len()),
            faulted: to_measurement(faulted_best, edges.len()),
            arrivals_lost: health.lost_arrivals,
            restarts: health.incidents.iter().map(|i| u64::from(i.restarts)).sum(),
            epochs,
            degraded_epochs,
        };
        progress(&result);
        results.push(result);
    }
    results
}

/// Shard counts swept by the simulated scale-out grid per mode. Full mode
/// reaches `S = 256` — far beyond physical cores; the simulator runs nodes
/// as events, not threads, so the axis is pure algorithm behavior.
pub fn sim_shards(quick: bool) -> &'static [usize] {
    if quick {
        &[16, 64]
    } else {
        &[16, 64, 256]
    }
}

/// Runs the `gps-sim` discrete-event scale-out sweep: shard counts from
/// [`sim_shards`] × keyspace skew (hash vs Zipf) × fault scenario (clean /
/// straggler / crash-restore), every point in **virtual time** over the
/// production sampler/estimator/merge code. Unlike the wall-clock grids,
/// every number here is bit-deterministic per seed.
pub fn run_sim(
    cfg: &PerfConfig,
    mut progress: impl FnMut(&gps_sim::SweepPoint),
) -> Vec<gps_sim::SweepPoint> {
    let (n_edges, capacity) = if cfg.quick {
        (6_000, 3_000)
    } else {
        (20_000, 8_192)
    };
    gps_sim::sweep(sim_shards(cfg.quick), n_edges, capacity, cfg.seed, |p| {
        progress(p)
    })
}

/// One deterministic telemetry capture for the baseline document: the
/// engine's `Stable`-class counters after a clean, checkpointed run, plus
/// the FNV-1a fingerprint of the whole stable snapshot (counters *and*
/// histograms). Everything here is a pure function of seed + mode — no
/// wall clock — so a committed document re-validates bit-for-bit.
#[derive(Clone, Debug)]
pub struct TelemetryResult {
    /// Stable scenario name (`telemetry/holme_kim/triangle/mM/sS`).
    pub scenario: String,
    /// Stream length.
    pub edges: usize,
    /// Shard count of the capture run.
    pub shards: usize,
    /// `{:016x}` digest of the stable snapshot's text exposition.
    pub stable_fingerprint: String,
    /// Stable counters `(name, value)`, in snapshot (name) order.
    pub counters: Vec<(String, u64)>,
}

/// Captures the `telemetry` section: one clean engine run on the
/// triangle-weight Holme–Kim scenario with checkpointing armed, reduced to
/// its deterministic stable subset (see `TelemetrySnapshot::stable` in
/// `gps-telemetry`). Timing-class metrics and the event ring are excluded
/// on purpose — the committed numbers must replay exactly under
/// `bench_baseline --check`.
pub fn run_telemetry(cfg: &PerfConfig) -> TelemetryResult {
    let edges = StreamKind::HolmeKim.edges(cfg.quick, cfg.seed);
    let m = engine_capacity(cfg.quick);
    let shards = 2usize;
    let engine_cfg = EngineConfig {
        checkpoint_every: 64,
        ..EngineConfig::new(m, shards, cfg.seed)
    };
    let outcome = run_engine_scenario(
        engine_cfg,
        TriangleWeight::default(),
        edges.iter().copied(),
        FaultPlan::new(),
    );
    let stable = outcome.telemetry.stable();
    TelemetryResult {
        scenario: format!("telemetry/holme_kim/triangle/m{m}/s{shards}"),
        edges: edges.len(),
        shards,
        stable_fingerprint: format!("{:016x}", stable.fingerprint()),
        counters: stable
            .counters
            .iter()
            .map(|c| (c.name.clone(), c.value))
            .collect(),
    }
}

/// One stage row of the trace section: a pipeline stage's span durations
/// across every epoch of the traced run.
#[derive(Clone, Debug)]
pub struct TraceStage {
    /// Stage name from the trace-stage catalog (`docs/observability.md`).
    pub stage: String,
    /// Epochs that recorded this stage.
    pub count: u64,
    /// The ⌊(n−1)·50/100⌋-th smallest of the `n` durations (the lower
    /// median), in clock nanoseconds.
    pub p50_ns: u64,
    /// The ⌊(n−1)·99/100⌋-th smallest of the `n` durations, in clock
    /// nanoseconds. This rounds the rank down: of 18 values it picks the
    /// 17th, where nearest-rank would pick the 18th.
    pub p99_ns: u64,
}

/// The `trace` section of the baseline document: a **determinism
/// fingerprint**, not a latency measurement. It tabulates the serving
/// stack's flight recorder over one run that advances its own manual
/// clock one fixed 250 µs step per epoch, so every percentile is a
/// constant of that clock: `arrival_batch` reads exactly the step (p50 =
/// p99 = 250,000 ns) and every in-publication stage reads 0. What the
/// section pins is the stage set, the per-stage epoch counts and the
/// digest over every retained timeline, all of which replay bit-for-bit
/// under `--check`.
#[derive(Clone, Debug)]
pub struct TraceResult {
    /// Stable scenario name (`trace/holme_kim/triangle/mM/s1`).
    pub scenario: String,
    /// Stream length of the traced run.
    pub edges: usize,
    /// Epochs retained by the flight recorder (all of them — the run is
    /// sized under the recorder capacity).
    pub epochs: usize,
    /// Per-stage attribution rows, in stage-name order.
    pub stages: Vec<TraceStage>,
    /// `{:016x}` FNV-1a digest of the rows plus every retained trace's
    /// own fingerprint.
    pub stable_fingerprint: String,
}

/// The element at index ⌊(len−1)·p/100⌋ of an ascending-sorted slice
/// (rank rounded down, not nearest-rank).
fn percentile_ns(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * p / 100]
}

/// Captures the `trace` section: a single-shard serving engine on the
/// manual clock, driven one epoch-sized batch at a time — push a batch,
/// wait for its epoch, advance the clock one fixed step. Because the
/// driver owns the clock, every span the flight recorder stamps is a pure
/// function of seed + mode (the inter-epoch `arrival_batch` stage is
/// exactly one step; the in-publication stages are zero-width), so the
/// percentile table and its fingerprint replay exactly under
/// `bench_baseline --check`.
pub fn run_trace(cfg: &PerfConfig) -> TraceResult {
    let m = engine_capacity(cfg.quick);
    let chunk = 64usize;
    // Sized under the flight recorder's 64-trace capacity (one epoch per
    // chunk, plus the start-of-worker and drain-end epochs).
    let chunks = if cfg.quick { 16 } else { 48 };
    let mut edges = StreamKind::HolmeKim.edges(cfg.quick, cfg.seed);
    edges.truncate(chunk * chunks);
    let serve_cfg = ServeConfig {
        engine: EngineConfig {
            batch: chunk,
            epoch_every: chunk as u64,
            ..EngineConfig::new(m, 1, cfg.seed)
        },
        subscribe_depth: 1 << 10,
        gate_timeout: None,
        clock: ClockMode::Manual,
    };
    let mut serve = ServeEngine::with_config(serve_cfg, TriangleWeight::default());
    let handle = serve.handle();
    let step = Duration::from_micros(250);
    let mut pushed = 0u64;
    for batch in edges.chunks(chunk) {
        serve.push_batch(batch);
        pushed += batch.len() as u64;
        // Blocks until the batch's epoch publishes; also stamps its
        // first-observation span at the current (pre-advance) instant.
        handle.wait_for_edges(pushed);
        serve.advance_clock(step);
    }
    serve.finish();
    // Observe the drain-end epoch so its trace is complete too.
    std::hint::black_box(handle.latest());
    let traces = handle.recent_traces(gps_telemetry::DEFAULT_TRACE_CAPACITY);
    let mut by_stage: std::collections::BTreeMap<&'static str, Vec<u64>> =
        std::collections::BTreeMap::new();
    for t in &traces {
        for s in &t.spans {
            by_stage.entry(s.stage).or_default().push(s.duration_ns());
        }
    }
    let stages: Vec<TraceStage> = by_stage
        .into_iter()
        .map(|(stage, mut d)| {
            d.sort_unstable();
            TraceStage {
                stage: stage.to_string(),
                count: d.len() as u64,
                p50_ns: percentile_ns(&d, 50),
                p99_ns: percentile_ns(&d, 99),
            }
        })
        .collect();
    let scenario = format!("trace/holme_kim/triangle/m{m}/s1");
    let mut text = format!("{scenario} edges={} epochs={}", edges.len(), traces.len());
    for s in &stages {
        text.push_str(&format!(
            " {}:{}:{}:{}",
            s.stage, s.count, s.p50_ns, s.p99_ns
        ));
    }
    // FNV-1a over the rows, then fold in every retained trace's own digest
    // so the committed fingerprint pins full timelines, not just the table.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for t in &traces {
        h ^= t.fingerprint();
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    TraceResult {
        scenario,
        edges: edges.len(),
        epochs: traces.len(),
        stages,
        stable_fingerprint: format!("{h:016x}"),
    }
}

fn measurement_json(m: &Measurement) -> Value {
    Value::object(vec![
        ("elapsed_ns", Value::Number(m.elapsed_ns as f64)),
        ("ns_per_edge", Value::Number(round2(m.ns_per_edge))),
        ("edges_per_sec", Value::Number(round2(m.edges_per_sec))),
    ])
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

fn num(x: f64) -> Value {
    Value::Number(x)
}

fn text(s: &str) -> Value {
    Value::String(s.into())
}

/// Booleans as 0/1: the document stays in the numbers-and-strings subset.
fn flag(b: bool) -> Value {
    num(f64::from(u8::from(b)))
}

/// Schema tag checked by the CI smoke run.
pub const SCHEMA: &str = "gps-bench/bench-baseline/v1";

/// Everything one `bench_baseline` run measured, as the [`SECTIONS`]
/// getters read it. An optional section with no rows is left out of the
/// document, so documents written before that section existed still
/// validate under the same schema.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Harness configuration (`mode`, `iters` and `seed` of the document).
    pub cfg: PerfConfig,
    /// Short revision of the producing checkout.
    pub git_rev: String,
    /// GPS scenario grid from [`run_all`] (`scenarios`).
    pub scenarios: Vec<ScenarioResult>,
    /// Ported `gps-baselines` grid from [`run_baselines`] (`baseline_samplers`).
    pub baselines: Vec<BaselineResult>,
    /// Fault-injection grid from [`run_chaos`] (`chaos`).
    pub chaos: Vec<ChaosResult>,
    /// Simulated scale-out sweep from [`run_sim`] (`sim`).
    pub sim: Vec<gps_sim::SweepPoint>,
    /// Deterministic telemetry capture from [`run_telemetry`] (`telemetry`).
    pub telemetry: Option<TelemetryResult>,
    /// Deterministic flight-recorder capture from [`run_trace`] (`trace`).
    pub trace: Option<TraceResult>,
}

impl Report {
    fn telemetry(&self) -> &TelemetryResult {
        self.telemetry.as_ref().expect("read only when captured")
    }

    fn trace(&self) -> &TraceResult {
        self.trace.as_ref().expect("read only when captured")
    }
}

/// What [`validate_baseline`] asks of one field's value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Rule {
    /// Exactly [`SCHEMA`].
    Schema,
    /// Any string.
    Text,
    /// A number above 0 (wall-clock timings and rates).
    Positive,
    /// A number of at least 0 (counters that may legitimately stay 0).
    NonNegative,
    /// A number of at least 1 (sizes, and counters that must have moved).
    AtLeastOne,
    /// A `{:016x}` digest: 16 hex digits.
    Digest,
    /// A measurement object whose `elapsed_ns`, `ns_per_edge` and
    /// `edges_per_sec` are all [`Rule::Positive`].
    Timing,
}

use Rule::{AtLeastOne, Digest, NonNegative, Positive, Schema, Text, Timing};

/// One field of a section: its JSON key, the [`Rule`] the validator
/// applies, and the getter the emitter reads it with from row `i` of a
/// [`Report`] (header getters get `i = 0`). A getter returning
/// `Value::Null` leaves the field out.
pub(crate) type Field = (&'static str, Rule, fn(&Report, usize) -> Value);

/// One section of the baseline document: a header object plus an array of
/// rows. [`results_json`] emits it, [`validate_baseline`] checks it and
/// `bench_baseline` turns it on, all from this one description.
pub struct Section {
    /// `bench_baseline` flag that turns the section on; `None` for the
    /// scenario grid, which every run measures and every document carries.
    pub flag: Option<&'static str>,
    /// Top-level key of the section object; `None` splices the header and
    /// the row array into the document root.
    key: Option<&'static str>,
    /// Key of the row array.
    rows: &'static str,
    /// What one row is called in problem messages (`chaos entry 0 …`).
    noun: &'static str,
    /// Fields of the section object.
    header: &'static [Field],
    /// Fields of every row.
    row: &'static [Field],
    /// `(field, value)` that at least one row must carry: a capture
    /// without it measured nothing.
    must_include: Option<(&'static str, &'static str)>,
    /// Rows the report holds for this section.
    len: fn(&Report) -> usize,
    /// Measures the section into the report, printing a progress line as
    /// each row finishes.
    pub run: fn(&PerfConfig, &mut Report),
}

/// Every section of a `gps-bench/bench-baseline/v1` document, in emission
/// order. See `docs/benchmarks.md` for what each field means.
#[rustfmt::skip]
pub static SECTIONS: [Section; 6] = [
    // The run's configuration plus the GPS scenario grid. The measurement
    // key stays `compact` (the sampler's adjacency representation), so
    // documents from before the nested-hash comparison arm was removed
    // still validate and `--check`.
    Section {
        flag: None,
        key: None,
        rows: "scenarios",
        noun: "scenario",
        header: &[
            ("schema",   Schema,       |_, _| text(SCHEMA)),
            ("git_rev",  Text,         |r, _| text(&r.git_rev)),
            ("mode",     Text,         |r, _| text(if r.cfg.quick { "quick" } else { "full" })),
            ("iters",    AtLeastOne,   |r, _| num(r.cfg.iters as f64)),
            ("seed",     NonNegative,  |r, _| num(r.cfg.seed as f64)),
        ],
        row: &[
            ("name",     Text,         |r, i| text(&r.scenarios[i].scenario.name())),
            ("stream",   Text,         |r, i| text(r.scenarios[i].scenario.stream.name())),
            ("weight",   Text,         |r, i| text(r.scenarios[i].scenario.weight.name())),
            ("capacity", AtLeastOne,   |r, i| num(r.scenarios[i].scenario.capacity as f64)),
            ("edges",    AtLeastOne,   |r, i| num(r.scenarios[i].edges as f64)),
            ("compact",  Timing,       |r, i| measurement_json(&r.scenarios[i].compact)),
        ],
        must_include: None,
        len: |r| r.scenarios.len(),
        run: |cfg, r| r.scenarios = run_all(cfg, |s| print_sampler(&s.scenario.name(), s.edges, &s.compact)),
    },
    Section {
        flag: Some("--baselines"),
        key: None,
        rows: "baseline_samplers",
        noun: "baseline",
        header: &[],
        row: &[
            ("name",     Text,         |r, i| text(&r.baselines[i].scenario)),
            ("method",   Text,         |r, i| text(r.baselines[i].name)),
            ("capacity", AtLeastOne,   |r, i| num(r.baselines[i].capacity as f64)),
            ("edges",    AtLeastOne,   |r, i| num(r.baselines[i].edges as f64)),
            ("compact",  Timing,       |r, i| measurement_json(&r.baselines[i].compact)),
        ],
        must_include: None,
        len: |r| r.baselines.len(),
        run: |cfg, r| r.baselines = run_baselines(cfg, |b| print_sampler(&b.scenario, b.edges, &b.compact)),
    },
    Section {
        flag: Some("--chaos"),
        key: Some("chaos"),
        rows: "shards",
        noun: "chaos entry",
        header: &[
            ("stream",          Text,        |_, _| text("holme_kim")),
            ("weight",          Text,        |_, _| text("triangle")),
            ("capacity",        AtLeastOne,  |r, _| num(r.chaos[0].capacity as f64)),
            ("edges",           AtLeastOne,  |r, _| num(r.chaos[0].edges as f64)),
        ],
        // A supervised crash always loses at least the panicking arrival
        // and restarts the worker once: a 0 in `arrivals_lost` or
        // `restarts` means the scripted fault never fired. The probe's
        // epoch counts are timing-dependent and may be 0.
        row: &[
            ("name",            Text,        |r, i| text(&r.chaos[i].scenario)),
            ("shards",          AtLeastOne,  |r, i| num(r.chaos[i].shards as f64)),
            ("clean",           Timing,      |r, i| measurement_json(&r.chaos[i].clean)),
            ("faulted",         Timing,      |r, i| measurement_json(&r.chaos[i].faulted)),
            ("arrivals_lost",   AtLeastOne,  |r, i| num(r.chaos[i].arrivals_lost as f64)),
            ("restarts",        AtLeastOne,  |r, i| num(r.chaos[i].restarts as f64)),
            ("epochs",          NonNegative, |r, i| num(r.chaos[i].epochs as f64)),
            ("degraded_epochs", NonNegative, |r, i| num(r.chaos[i].degraded_epochs as f64)),
        ],
        must_include: None,
        len: |r| r.chaos.len(),
        run: |cfg, r| r.chaos = run_chaos(cfg, print_chaos),
    },
    // Virtual-time quality numbers: the checks are about ledger shape, not
    // wall-clock positivity.
    Section {
        flag: Some("--sim"),
        key: Some("sim"),
        rows: "points",
        noun: "sim point",
        header: &[
            ("edges",             AtLeastOne,  |r, _| num(r.sim[0].pushed as f64)),
        ],
        row: &[
            ("name",              Text,        |r, i| text(&r.sim[i].name())),
            ("shards",            AtLeastOne,  |r, i| num(r.sim[i].shards as f64)),
            ("skew",              Text,        |r, i| text(r.sim[i].skew)),
            ("scenario",          Text,        |r, i| text(r.sim[i].scenario)),
            ("seed",              NonNegative, |r, i| num(r.sim[i].seed as f64)),
            ("pushed",            NonNegative, |r, i| num(r.sim[i].pushed as f64)),
            ("exact_triangles",   NonNegative, |r, i| num(r.sim[i].exact_triangles as f64)),
            ("exact_wedges",      NonNegative, |r, i| num(r.sim[i].exact_wedges as f64)),
            ("tri_are",           NonNegative, |r, i| num(round2(r.sim[i].tri_are))),
            ("wedge_are",         NonNegative, |r, i| num(round2(r.sim[i].wedge_are))),
            ("tri_covered",       NonNegative, |r, i| flag(r.sim[i].tri_covered)),
            ("wedge_covered",     NonNegative, |r, i| flag(r.sim[i].wedge_covered)),
            ("epochs",            NonNegative, |r, i| num(r.sim[i].epochs as f64)),
            ("degraded_epochs",   NonNegative, |r, i| num(r.sim[i].degraded_epochs as f64)),
            ("staleness_max_ns",  NonNegative, |r, i| num(r.sim[i].staleness_max_ns as f64)),
            ("staleness_mean_ns", NonNegative, |r, i| num(r.sim[i].staleness_mean_ns as f64)),
            ("arrivals_lost",     NonNegative, |r, i| num(r.sim[i].lost_arrivals as f64)),
            ("restarts",          NonNegative, |r, i| num(r.sim[i].restarts as f64)),
            ("finished_at_ns",    NonNegative, |r, i| num(r.sim[i].finished_at_ns as f64)),
        ],
        must_include: None,
        len: |r| r.sim.len(),
        run: |cfg, r| r.sim = run_sim(cfg, print_sim),
    },
    // Counter values are bounded by stream length × small constants, far
    // below 2^53: exact in a JSON number.
    Section {
        flag: Some("--telemetry"),
        key: Some("telemetry"),
        rows: "counters",
        noun: "telemetry counter",
        header: &[
            ("scenario",           Text,        |r, _| text(&r.telemetry().scenario)),
            ("edges",              AtLeastOne,  |r, _| num(r.telemetry().edges as f64)),
            ("shards",             AtLeastOne,  |r, _| num(r.telemetry().shards as f64)),
            ("stable_fingerprint", Digest,      |r, _| text(&r.telemetry().stable_fingerprint)),
        ],
        row: &[
            ("name",               Text,        |r, i| text(&r.telemetry().counters[i].0)),
            ("value",              NonNegative, |r, i| num(r.telemetry().counters[i].1 as f64)),
        ],
        must_include: Some(("name", "gps_engine_arrivals_total")),
        len: |r| r.telemetry.as_ref().map_or(0, |t| t.counters.len()),
        run: |cfg, r| r.telemetry = Some(run_telemetry(cfg)).inspect(print_telemetry),
    },
    Section {
        flag: Some("--trace"),
        key: Some("trace"),
        rows: "stages",
        noun: "trace stage",
        header: &[
            ("scenario",           Text,        |r, _| text(&r.trace().scenario)),
            ("edges",              AtLeastOne,  |r, _| num(r.trace().edges as f64)),
            ("epochs",             AtLeastOne,  |r, _| num(r.trace().epochs as f64)),
            ("stable_fingerprint", Digest,      |r, _| text(&r.trace().stable_fingerprint)),
        ],
        row: &[
            ("stage",              Text,        |r, i| text(&r.trace().stages[i].stage)),
            ("count",              AtLeastOne,  |r, i| num(r.trace().stages[i].count as f64)),
            ("p50_ns",             NonNegative, |r, i| num(r.trace().stages[i].p50_ns as f64)),
            ("p99_ns",             NonNegative, |r, i| num(r.trace().stages[i].p99_ns as f64)),
        ],
        must_include: Some(("stage", "merge")),
        len: |r| r.trace.as_ref().map_or(0, |t| t.stages.len()),
        run: |cfg, r| r.trace = Some(run_trace(cfg)).inspect(print_trace),
    },
];

/// Builds the machine-readable baseline document from [`SECTIONS`]:
/// optional sections appear only when the report holds rows for them.
pub fn results_json(report: &Report) -> Value {
    let emit = |fields: &[Field], i| -> Vec<(&str, Value)> {
        fields
            .iter()
            .map(|&(key, _, get)| (key, get(report, i)))
            .filter(|(_, v)| *v != Value::Null)
            .collect()
    };
    let mut doc = Vec::new();
    for s in &SECTIONS {
        let len = (s.len)(report);
        if s.flag.is_some() && len == 0 {
            continue;
        }
        let mut body = emit(s.header, 0);
        let rows = (0..len).map(|i| Value::object(emit(s.row, i))).collect();
        body.push((s.rows, Value::Array(rows)));
        match s.key {
            Some(key) => doc.push((key, Value::object(body))),
            None => doc.extend(body),
        }
    }
    Value::object(doc)
}

/// Validates a parsed baseline document against [`SECTIONS`]. Returns the
/// list of problems (empty = valid). Keys the table does not declare, such
/// as the `hashmap`/`speedup` fields of early documents, are ignored.
pub fn validate_baseline(doc: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    for s in &SECTIONS {
        if s.flag.is_some() && doc.get(s.key.unwrap_or(s.rows)).is_none() {
            continue;
        }
        let body = s.key.and_then(|key| doc.get(key)).unwrap_or(doc);
        let title = s
            .key
            .map_or("document".into(), |key| format!("{key} section"));
        check_fields(body, s.header, &title, &mut problems);
        let rows = body
            .get(s.rows)
            .and_then(Value::as_array)
            .unwrap_or_default();
        if rows.is_empty() {
            problems.push(format!("{title} missing '{}' entries", s.rows));
            continue;
        }
        for (i, row) in rows.iter().enumerate() {
            check_fields(row, s.row, &format!("{} {i}", s.noun), &mut problems);
        }
        if let Some((field, value)) = s.must_include {
            if !rows.iter().any(|row| row.get_str(field) == Some(value)) {
                let owner = s.key.unwrap_or("document");
                problems.push(format!("{owner} {} missing '{value}'", s.rows));
            }
        }
    }
    problems
}

fn check_fields(obj: &Value, fields: &[Field], what: &str, problems: &mut Vec<String>) {
    for &(key, rule, _) in fields {
        check(what, key, rule, obj.get(key), problems);
    }
}

/// Checks one field of `what`; `key` names it in problems (a dotted path
/// inside measurement objects).
fn check(what: &str, key: &str, rule: Rule, value: Option<&Value>, problems: &mut Vec<String>) {
    let Some(v) = value else {
        problems.push(format!("{what} missing '{key}'"));
        return;
    };
    let x = v.as_f64();
    let complaint = match rule {
        Schema if v.as_str() != Some(SCHEMA) => "is not the v1 schema id",
        Text if v.as_str().is_none() => "is not a string",
        Positive if !x.is_some_and(|x| x > 0.0) => "is not positive",
        NonNegative if !x.is_some_and(|x| x >= 0.0) => "is negative",
        AtLeastOne if !x.is_some_and(|x| x >= 1.0) => "is less than 1",
        Digest if !v.as_str().is_some_and(is_digest) => "is not a 64-bit hex digest",
        Timing => {
            for field in ["elapsed_ns", "ns_per_edge", "edges_per_sec"] {
                let path = format!("{key}.{field}");
                check(what, &path, Positive, v.get(field), problems);
            }
            return;
        }
        _ => return,
    };
    problems.push(format!("{what} {key} {complaint}"));
}

fn is_digest(s: &str) -> bool {
    s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit())
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
        "{:<34} {:>9} edges  tri ARE {:>6.3} (cov {})  wedge ARE {:>6.3} (cov {})  [{}/{} degraded epochs, stale max {:.2} ms, lost {}]",
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
        "{:<34} {:>9} edges  stable fingerprint {}  [{} epochs; manual-clock constants, not latencies]",
        t.scenario, t.edges, t.stable_fingerprint, t.epochs,
    );
    for s in &t.stages {
        println!(
            "  {:<20} n={:<4} p50 {:>9} ns  p99 {:>9} ns",
            s.stage, s.count, s.p50_ns, s.p99_ns
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn tiny_cfg() -> PerfConfig {
        PerfConfig {
            quick: true,
            iters: 1,
            seed: 7,
        }
    }

    #[test]
    fn scenario_names_are_stable() {
        let s = Scenario {
            stream: StreamKind::HolmeKim,
            weight: WeightKind::Triangle,
            capacity: 2000,
        };
        assert_eq!(s.name(), "holme_kim/triangle/m2000");
    }

    #[test]
    fn quick_streams_are_nonempty_and_deterministic() {
        for kind in StreamKind::ALL {
            let a = kind.edges(true, 3);
            let b = kind.edges(true, 3);
            assert!(!a.is_empty());
            assert_eq!(a, b, "stream generation must be seeded");
        }
    }

    /// The all-sections fixture: fixed numbers in every section, chosen so
    /// the two-decimal rounding is exercised.
    fn all_sections_document() -> Value {
        let edges = 6_000usize;
        let compact = to_measurement(1_234_567, edges);
        let result = ScenarioResult {
            scenario: Scenario {
                stream: StreamKind::HolmeKim,
                weight: WeightKind::Uniform,
                capacity: 128,
            },
            edges,
            compact,
        };
        let baseline = BaselineResult {
            name: "TRIEST",
            scenario: "baseline/triest/m128".into(),
            capacity: 128,
            edges,
            compact,
        };
        let chaos = CHAOS_SHARDS
            .map(|shards| ChaosResult {
                shards,
                scenario: format!("chaos/holme_kim/triangle/m128/s{shards}"),
                capacity: 128,
                edges,
                clean: compact,
                faulted: to_measurement(1_700_001, edges),
                arrivals_lost: 33,
                restarts: 1,
                epochs: 40,
                degraded_epochs: 3,
            })
            .to_vec();
        let sim = vec![gps_sim::SweepPoint {
            shards: 16,
            skew: "hash",
            scenario: "clean",
            seed: 7,
            pushed: 6_000,
            exact_triangles: 900,
            exact_wedges: 40_000,
            tri_are: 0.1234,
            wedge_are: 0.01,
            tri_covered: true,
            wedge_covered: true,
            epochs: 12,
            degraded_epochs: 1,
            staleness_max_ns: 5_000_000,
            staleness_mean_ns: 800_000,
            lost_arrivals: 0,
            restarts: 0,
            finished_at_ns: 9_000_000,
        }];
        let telemetry = TelemetryResult {
            scenario: "telemetry/holme_kim/triangle/m128/s2".into(),
            edges,
            shards: 2,
            stable_fingerprint: "00c0ffee00c0ffee".into(),
            counters: vec![
                ("gps_engine_arrivals_total".into(), edges as u64),
                ("gps_sampler_inserts_total".into(), 77),
            ],
        };
        let trace = TraceResult {
            scenario: "trace/holme_kim/triangle/m128/s1".into(),
            edges,
            epochs: 18,
            stages: vec![
                TraceStage {
                    stage: "arrival_batch".into(),
                    count: 18,
                    p50_ns: 250_000,
                    p99_ns: 250_000,
                },
                TraceStage {
                    stage: "merge".into(),
                    count: 18,
                    p50_ns: 0,
                    p99_ns: 0,
                },
            ],
            stable_fingerprint: "00c0ffee00c0ffee".into(),
        };
        results_json(&Report {
            cfg: tiny_cfg(),
            git_rev: "deadbeef".into(),
            scenarios: vec![result],
            baselines: vec![baseline],
            chaos,
            sim,
            telemetry: Some(telemetry),
            trace: Some(trace),
        })
    }

    /// Key order, number formatting and two-decimal rounding of an
    /// all-sections document, byte for byte.
    #[test]
    fn all_sections_document_layout_is_pinned() {
        assert_eq!(
            all_sections_document().to_pretty(),
            include_str!("../tests/data/all_sections.json")
        );
    }

    fn member<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
        match v {
            Value::Object(members) => {
                let found = members.iter_mut().find(|(k, _)| k == key);
                &mut found.expect("member present").1
            }
            _ => panic!("'{key}' looked up in a non-object"),
        }
    }

    /// The object holding section `s`'s header: its own, or the root.
    fn section_body<'a>(doc: &'a mut Value, s: &Section) -> &'a mut Value {
        match s.key {
            Some(key) => member(doc, key),
            None => doc,
        }
    }

    fn section_row<'a>(doc: &'a mut Value, s: &Section, i: usize) -> &'a mut Value {
        match member(section_body(doc, s), s.rows) {
            Value::Array(rows) => &mut rows[i],
            _ => panic!("'{}' is not an array", s.rows),
        }
    }

    fn remove(obj: &mut Value, key: &str) {
        if let Value::Object(members) = obj {
            members.retain(|(k, _)| k != key);
        }
    }

    fn out_of_range(rule: Rule) -> Value {
        match rule {
            Schema => text("gps-bench/other/v0"),
            Text => num(1.0),
            Positive | AtLeastOne => num(0.0),
            NonNegative => num(-1.0),
            Digest => text("nope"),
            Timing => json::parse(r#"{"elapsed_ns": 0, "ns_per_edge": 1, "edges_per_sec": 1}"#)
                .expect("literal parses"),
        }
    }

    /// Breaks a copy of `valid` and asserts the validator reports exactly
    /// one problem, about `key` of `what`.
    fn expect_one_problem(valid: &Value, what: &str, key: &str, breakage: impl FnOnce(&mut Value)) {
        let mut doc = valid.clone();
        breakage(&mut doc);
        let problems = validate_baseline(&doc);
        assert!(
            problems.len() == 1
                && problems[0].starts_with(&format!("{what} "))
                && problems[0].contains(key),
            "{what} '{key}': {problems:?}"
        );
    }

    #[test]
    fn validation_flags_every_missing_or_out_of_range_field() {
        let valid = all_sections_document();
        assert!(validate_baseline(&valid).is_empty());
        for s in &SECTIONS {
            let title = s
                .key
                .map_or("document".into(), |key| format!("{key} section"));
            for &(key, rule, _) in s.header {
                expect_one_problem(&valid, &title, key, |doc| remove(section_body(doc, s), key));
                expect_one_problem(&valid, &title, key, |doc| {
                    *member(section_body(doc, s), key) = out_of_range(rule)
                });
            }
            // Break a row that the "rows must include" check does not lean on.
            let mut doc = valid.clone();
            let rows = member(section_body(&mut doc, s), s.rows)
                .as_array()
                .expect("rows");
            let i = rows
                .iter()
                .position(|row| {
                    s.must_include
                        .is_none_or(|(f, v)| row.get_str(f) != Some(v))
                })
                .expect("a row the include check does not need");
            let what = format!("{} {i}", s.noun);
            for &(key, rule, _) in s.row {
                expect_one_problem(&valid, &what, key, |doc| {
                    remove(section_row(doc, s, i), key)
                });
                expect_one_problem(&valid, &what, key, |doc| {
                    *member(section_row(doc, s, i), key) = out_of_range(rule)
                });
            }
        }
    }

    #[test]
    fn baseline_document_round_trips_and_validates() {
        // One micro-scenario end to end: measure, emit, parse, validate.
        let cfg = tiny_cfg();
        let edges = StreamKind::HolmeKim.edges(true, cfg.seed);
        let scenario = Scenario {
            stream: StreamKind::HolmeKim,
            weight: WeightKind::Uniform,
            capacity: 128,
        };
        let compact = measure(&edges, scenario, &cfg);
        let result = ScenarioResult {
            scenario,
            edges: edges.len(),
            compact,
        };
        // Without the optional sections (the committed-file shape)…
        let doc = results_json(&Report {
            cfg,
            scenarios: vec![result],
            ..Report::default()
        });
        assert!(doc.get("baseline_samplers").is_none());
        assert!(doc.get("chaos").is_none());
        assert!(doc.get("sim").is_none());
        assert!(doc.get("telemetry").is_none());
        assert!(doc.get("trace").is_none());
        let parsed = json::parse(&doc.to_pretty()).expect("emitted JSON must parse");
        assert_eq!(parsed, doc);
        assert!(validate_baseline(&parsed).is_empty());
        // …and with every one of them.
        let doc = all_sections_document();
        let parsed = json::parse(&doc.to_pretty()).expect("emitted JSON must parse");
        assert_eq!(parsed, doc);
        assert!(validate_baseline(&parsed).is_empty());
        let chaos_entries = parsed
            .get("chaos")
            .and_then(|c| c.get("shards"))
            .and_then(Value::as_array)
            .expect("chaos section present");
        assert_eq!(chaos_entries.len(), CHAOS_SHARDS.len());
        assert_eq!(chaos_entries[0].get_f64("arrivals_lost"), Some(33.0));
        assert_eq!(chaos_entries[0].get_f64("degraded_epochs"), Some(3.0));
        let points = parsed
            .get("sim")
            .and_then(|s| s.get("points"))
            .and_then(Value::as_array)
            .expect("sim section present");
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].get_str("name"), Some("sim/s16/hash/clean"));
        assert_eq!(points[0].get_f64("wedge_covered"), Some(1.0));
        let tele = parsed.get("telemetry").expect("telemetry section present");
        assert_eq!(tele.get_str("stable_fingerprint"), Some("00c0ffee00c0ffee"));
        let counters = tele
            .get("counters")
            .and_then(Value::as_array)
            .expect("telemetry counters present");
        assert_eq!(counters.len(), 2);
        assert_eq!(
            counters[0].get_str("name"),
            Some("gps_engine_arrivals_total")
        );
        assert_eq!(counters[0].get_f64("value"), Some(6_000.0));
        let tr = parsed.get("trace").expect("trace section present");
        assert_eq!(tr.get_f64("epochs"), Some(18.0));
        let stages = tr
            .get("stages")
            .and_then(Value::as_array)
            .expect("trace stages present");
        assert_eq!(stages[0].get_str("stage"), Some("arrival_batch"));
        assert_eq!(stages[0].get_f64("p50_ns"), Some(250_000.0));
    }

    #[test]
    fn telemetry_capture_is_deterministic_and_validates() {
        let cfg = tiny_cfg();
        let a = run_telemetry(&cfg);
        let b = run_telemetry(&cfg);
        // The capture is the stable subset of a seeded engine run: two
        // invocations must agree to the bit, digest included.
        assert_eq!(a.stable_fingerprint, b.stable_fingerprint);
        assert_eq!(a.counters, b.counters);
        // A clean run loses nothing: arrivals == stream length, zero
        // restarts, zero losses — and the always-on sampler ledger moved.
        let counter = |name: &str| a.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        assert_eq!(counter("gps_engine_arrivals_total"), Some(a.edges as u64));
        assert_eq!(counter("gps_engine_lost_arrivals_total"), Some(0));
        assert_eq!(counter("gps_engine_restarts_total"), Some(0));
        assert!(counter("gps_sampler_inserts_total").unwrap() > 0);
        assert!(counter("gps_engine_checkpoints_total").unwrap() > 0);
        // And the emitted section round-trips through the validator.
        let doc = results_json(&Report {
            cfg,
            telemetry: Some(a),
            ..Report::default()
        });
        let parsed = json::parse(&doc.to_pretty()).expect("emitted JSON must parse");
        let problems = validate_baseline(&parsed);
        // The empty scenarios array is the only complaint expected here.
        assert!(
            problems.iter().all(|p| p.contains("scenarios")),
            "{problems:?}"
        );
    }

    /// The committed `BENCH_PR2.json` predates the current table: it
    /// carries `engine`/`serve` objects the table no longer declares and the
    /// legacy `hashmap`/`speedup` keys. Undeclared keys are ignored, so it
    /// must still validate.
    #[test]
    fn committed_pr2_baseline_still_validates() {
        let doc =
            json::parse(include_str!("../../../BENCH_PR2.json")).expect("BENCH_PR2.json parses");
        assert_eq!(validate_baseline(&doc), Vec::<String>::new());
    }

    #[test]
    fn validation_catches_malformed_telemetry() {
        let doc = json::parse(
            r#"{
                "schema": "gps-bench/bench-baseline/v1",
                "git_rev": "deadbeef",
                "mode": "quick",
                "scenarios": [],
                "telemetry": {
                    "scenario": "telemetry/x",
                    "edges": 10,
                    "shards": 2,
                    "stable_fingerprint": "nope",
                    "counters": [{"name": "gps_sampler_inserts_total", "value": 3}]
                }
            }"#,
        )
        .unwrap();
        let problems = validate_baseline(&doc);
        assert!(problems
            .iter()
            .any(|p| p.contains("stable_fingerprint is not a 64-bit hex digest")));
        assert!(problems
            .iter()
            .any(|p| p.contains("missing 'gps_engine_arrivals_total'")));
    }

    #[test]
    fn trace_capture_is_deterministic_and_validates() {
        let cfg = tiny_cfg();
        let a = run_trace(&cfg);
        let b = run_trace(&cfg);
        // The driver owns the manual clock, so two runs agree to the bit —
        // including the digest that folds every retained timeline.
        assert_eq!(a.stable_fingerprint, b.stable_fingerprint);
        assert_eq!(a.epochs, b.epochs);
        // One epoch per chunk plus the start-of-worker and drain-end
        // publications, all under the recorder capacity.
        assert!(a.epochs >= 17, "only {} epochs traced", a.epochs);
        let stage = |name: &str| a.stages.iter().find(|s| s.stage == name);
        let merge = stage("merge").expect("merge stage recorded");
        assert_eq!(merge.count, a.epochs as u64, "every epoch merges");
        assert_eq!(
            merge.p99_ns, 0,
            "in-publication stages are zero-width under the driven clock"
        );
        let batch = stage("arrival_batch").expect("arrival_batch stage recorded");
        assert_eq!(
            batch.p50_ns, 250_000,
            "inter-epoch latency is exactly the driver's clock step"
        );
        // And the emitted section round-trips through the validator.
        let doc = results_json(&Report {
            cfg,
            trace: Some(a),
            ..Report::default()
        });
        let parsed = json::parse(&doc.to_pretty()).expect("emitted JSON must parse");
        let problems = validate_baseline(&parsed);
        // The empty scenarios array is the only complaint expected here.
        assert!(
            problems.iter().all(|p| p.contains("scenarios")),
            "{problems:?}"
        );
    }

    #[test]
    fn validation_catches_malformed_trace() {
        let doc = json::parse(
            r#"{
                "schema": "gps-bench/bench-baseline/v1",
                "git_rev": "deadbeef",
                "mode": "quick",
                "scenarios": [],
                "trace": {
                    "scenario": "trace/x",
                    "edges": 10,
                    "epochs": 0,
                    "stable_fingerprint": "nope",
                    "stages": [{"stage": "arrival_batch", "count": 3, "p50_ns": -1, "p99_ns": 0}]
                }
            }"#,
        )
        .unwrap();
        let problems = validate_baseline(&doc);
        assert!(problems
            .iter()
            .any(|p| p.contains("trace section epochs is less than 1")));
        assert!(problems
            .iter()
            .any(|p| p.contains("trace section stable_fingerprint is not a 64-bit hex digest")));
        assert!(problems
            .iter()
            .any(|p| p.contains("trace stage 0 p50_ns is negative")));
        assert!(problems.iter().any(|p| p.contains("missing 'merge'")));
    }

    #[test]
    fn sim_sweep_runs_the_quick_grid_deterministically() {
        let cfg = tiny_cfg();
        let mut seen = 0;
        let points = run_sim(&cfg, |_| seen += 1);
        // 2 shard counts × 2 skews × 3 scenarios in quick mode.
        assert_eq!(points.len(), 12);
        assert_eq!(seen, 12);
        for p in &points {
            assert!(p.epochs > 0, "{}: no publishes", p.name());
            match p.scenario {
                "crash_restore" => assert!(p.lost_arrivals > 0 && p.restarts == 1),
                _ => assert!(p.lost_arrivals == 0 && p.restarts == 0),
            }
        }
        // Virtual time makes the whole sweep reproducible bit-for-bit.
        let again = run_sim(&cfg, |_| {});
        for (a, b) in points.iter().zip(&again) {
            assert_eq!(a.tri_are.to_bits(), b.tri_are.to_bits(), "{}", a.name());
            assert_eq!(a.finished_at_ns, b.finished_at_ns, "{}", a.name());
        }
    }

    #[test]
    fn chaos_grid_measures_every_shard_count_and_records_the_crash() {
        let cfg = tiny_cfg();
        let mut seen = 0;
        let results = run_chaos(&cfg, |_| seen += 1);
        assert_eq!(results.len(), CHAOS_SHARDS.len());
        assert_eq!(seen, CHAOS_SHARDS.len());
        for (r, s) in results.iter().zip(CHAOS_SHARDS) {
            assert_eq!(r.shards, s);
            assert!(r.scenario.starts_with("chaos/"));
            assert!(r.clean.edges_per_sec > 0.0);
            assert!(r.faulted.edges_per_sec > 0.0);
            // The scripted crash must actually fire and be on the ledger —
            // a zero here would make the grid vacuous.
            assert!(r.restarts >= 1, "s{s}: scripted crash never fired");
            assert!(r.arrivals_lost >= 1, "s{s}: crash must lose its window");
        }
    }

    #[test]
    fn ported_baseline_grid_measures_every_sampler() {
        let cfg = tiny_cfg();
        let mut seen = 0;
        let results = run_baselines(&cfg, |_| seen += 1);
        assert_eq!(results.len(), 5);
        assert_eq!(seen, 5);
        for r in &results {
            assert!(r.compact.edges_per_sec > 0.0);
            assert!(r.scenario.starts_with("baseline/"));
        }
    }

    #[test]
    fn validation_catches_missing_fields() {
        let doc = json::parse(r#"{"schema": "gps-bench/bench-baseline/v1"}"#).unwrap();
        let problems = validate_baseline(&doc);
        assert!(problems.iter().any(|p| p.contains("scenarios")));
        assert!(problems.iter().any(|p| p.contains("git_rev")));

        let doc = json::parse(
            r#"{"schema": "gps-bench/bench-baseline/v1", "git_rev": "x", "mode": "full",
                "scenarios": [{"name": "a", "compact": {"elapsed_ns": 0}}]}"#,
        )
        .unwrap();
        let problems = validate_baseline(&doc);
        assert!(problems.iter().any(|p| p.contains("missing 'stream'")));
        assert!(problems.iter().any(|p| p.contains("not positive")));

        let doc = json::parse(
            r#"{"schema": "gps-bench/bench-baseline/v1", "git_rev": "x", "mode": "full",
                "scenarios": [],
                "baseline_samplers": [{"name": "baseline/triest/m8"}]}"#,
        )
        .unwrap();
        let problems = validate_baseline(&doc);
        assert!(problems
            .iter()
            .any(|p| p.contains("baseline 0 missing 'method'")));

        let doc = json::parse(
            r#"{"schema": "gps-bench/bench-baseline/v1", "git_rev": "x", "mode": "full",
                "scenarios": [],
                "chaos": {"stream": "holme_kim",
                          "shards": [{"shards": 2, "restarts": 0,
                                      "clean": {"elapsed_ns": -4},
                                      "degraded_epochs": -1}]}}"#,
        )
        .unwrap();
        let problems = validate_baseline(&doc);
        assert!(problems
            .iter()
            .any(|p| p.contains("chaos section missing 'weight'")));
        assert!(problems
            .iter()
            .any(|p| p.contains("chaos entry 0 missing 'name'")));
        assert!(problems
            .iter()
            .any(|p| p.contains("chaos entry 0 missing 'faulted'")));
        assert!(problems
            .iter()
            .any(|p| p.contains("chaos entry 0 clean.elapsed_ns is not positive")));
        assert!(problems
            .iter()
            .any(|p| p.contains("chaos entry 0 restarts is less than 1")));
        assert!(problems
            .iter()
            .any(|p| p.contains("chaos entry 0 missing 'arrivals_lost'")));
        assert!(problems
            .iter()
            .any(|p| p.contains("chaos entry 0 degraded_epochs is negative")));

        let doc = json::parse(
            r#"{"schema": "gps-bench/bench-baseline/v1", "git_rev": "x", "mode": "full",
                "scenarios": [],
                "sim": {"points": [{"shards": 16, "skew": "hash", "tri_are": -0.5}]}}"#,
        )
        .unwrap();
        let problems = validate_baseline(&doc);
        assert!(problems
            .iter()
            .any(|p| p.contains("sim section missing 'edges'")));
        assert!(problems
            .iter()
            .any(|p| p.contains("sim point 0 missing 'name'")));
        assert!(problems
            .iter()
            .any(|p| p.contains("sim point 0 tri_are is negative")));
        assert!(problems
            .iter()
            .any(|p| p.contains("sim point 0 missing 'restarts'")));
    }
}
