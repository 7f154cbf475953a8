//! Experiment drivers: the quality-vs-scale sweep.
//!
//! Each sweep point runs one full simulated cluster over a generated
//! stream, computes exact ground truth for that stream, and reduces the
//! run to the numbers the quality suites (and `bench_baseline --sim`)
//! pin: estimate error vs truth, CI coverage, epoch staleness in virtual
//! time, and loss/restart accounting.
//!
//! The grid axes follow the scale-out question the simulator exists to
//! answer: shard count `S ∈ {16, 64, 256}` (far beyond physical cores) ×
//! keyspace skew (hash-friendly uniform vs Zipf-skewed) × fault scenario
//! (clean, straggler, crash/restore).

use crate::cluster::{run_cluster, SimConfig, SimFaults, SimOutcome};
use crate::zipf::zipf_edges_distinct;
use gps_core::weights::TriangleWeight;
use gps_graph::csr::CsrGraph;
use gps_graph::exact;
use gps_graph::types::Edge;
use gps_stream::gen::holme_kim;
use gps_stream::permuted;

/// Keyspace shape of the generated stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Skew {
    /// Triangle-rich Holme–Kim graph in permuted order: node ids spread the
    /// key space roughly uniformly, the hash partitioner's home turf.
    Hash,
    /// Distinct edges with Zipf(α)-skewed endpoints: a few hot hubs carry
    /// most of the degree mass, so wedge counts concentrate on them.
    Zipf(f64),
}

impl Skew {
    /// Short stable label for reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            Skew::Hash => "hash",
            Skew::Zipf(_) => "zipf",
        }
    }
}

/// Fault scenario applied to the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// No faults.
    Clean,
    /// One leaf's links gain latency far above the publish cadence: its
    /// reports go stale at the root but nothing is lost.
    Straggler,
    /// One leaf crashes mid-stream (losing its post-checkpoint window) and
    /// restores from its checkpoint in virtual time.
    CrashRestore,
}

impl Scenario {
    /// Short stable label for reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            Scenario::Clean => "clean",
            Scenario::Straggler => "straggler",
            Scenario::CrashRestore => "crash_restore",
        }
    }
}

/// One reduced sweep point (see the [module docs](self)).
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Leaf count `S`.
    pub shards: usize,
    /// Keyspace label (`"hash"` / `"zipf"`).
    pub skew: &'static str,
    /// Scenario label (`"clean"` / `"straggler"` / `"crash_restore"`).
    pub scenario: &'static str,
    /// Seed the point ran under.
    pub seed: u64,
    /// Edges pushed by the source.
    pub pushed: u64,
    /// Exact triangle count of the (deduplicated) stream graph.
    pub exact_triangles: u64,
    /// Exact wedge count of the stream graph.
    pub exact_wedges: u128,
    /// Absolute relative error of the merged triangle estimate.
    pub tri_are: f64,
    /// Absolute relative error of the merged wedge estimate.
    pub wedge_are: f64,
    /// Whether the merged 95% CI covered the exact triangle count.
    pub tri_covered: bool,
    /// Whether the merged 95% CI covered the exact wedge count.
    pub wedge_covered: bool,
    /// Root publishes during the run.
    pub epochs: usize,
    /// Publishes that extrapolated from a partial leaf set.
    pub degraded_epochs: usize,
    /// Worst included-report age over all publishes, virtual ns.
    pub staleness_max_ns: u64,
    /// Mean of per-publish mean report ages, virtual ns.
    pub staleness_mean_ns: u64,
    /// Arrivals lost to crashes.
    pub lost_arrivals: u64,
    /// Completed shard restarts.
    pub restarts: u64,
    /// Virtual completion time, ns.
    pub finished_at_ns: u64,
}

impl SweepPoint {
    /// Stable machine-readable name, e.g. `sim/s64/zipf/crash_restore`.
    pub fn name(&self) -> String {
        format!("sim/s{}/{}/{}", self.shards, self.skew, self.scenario)
    }
}

/// The generated edge stream for a skew setting: deterministic in
/// `(skew, n_edges, seed)`.
pub fn stream_for(skew: Skew, n_edges: usize, seed: u64) -> Vec<Edge> {
    match skew {
        Skew::Hash => {
            // Size the generator so ~n_edges come out, then truncate.
            let per_node = 4;
            let nodes = (n_edges / per_node + 8) as u32;
            let mut edges = permuted(&holme_kim(nodes, per_node, 0.6, seed), seed ^ 0x9E37);
            edges.truncate(n_edges);
            edges
        }
        Skew::Zipf(alpha) => zipf_edges_distinct(n_edges / 8, n_edges, alpha, seed),
    }
}

/// Fault script for a scenario, sized to the run (crash site scales with
/// per-shard arrivals so it fires at every `S`).
pub fn faults_for(scenario: Scenario, shards: usize, n_edges: usize) -> SimFaults {
    match scenario {
        Scenario::Clean => SimFaults::none(),
        Scenario::Straggler => SimFaults::none().straggler(1 % shards, 5_000_000),
        Scenario::CrashRestore => {
            let at = ((n_edges / shards / 2) as u64).max(5);
            SimFaults::none().crash_at(1 % shards, at, 2_000_000)
        }
    }
}

/// Runs one sweep point end to end: generate the stream, simulate the
/// cluster, compute exact truth, reduce.
pub fn quality_point(
    shards: usize,
    capacity: usize,
    skew: Skew,
    scenario: Scenario,
    n_edges: usize,
    seed: u64,
) -> SweepPoint {
    let edges = stream_for(skew, n_edges, seed);
    let mut cfg = SimConfig::new(shards, capacity, seed);
    // Keep the epoch/checkpoint cadence meaningful at every S: a 256-leaf
    // cluster sees ~n/S arrivals per shard.
    cfg.epoch_every = ((n_edges / shards / 4) as u64).clamp(8, 256);
    cfg.checkpoint_every = (cfg.epoch_every / 2).max(4);
    let faults = faults_for(scenario, shards, n_edges);
    let outcome = run_cluster(&cfg, &faults, TriangleWeight::default(), &edges);
    reduce(&cfg, skew, scenario, seed, &edges, &outcome)
}

fn reduce(
    cfg: &SimConfig,
    skew: Skew,
    scenario: Scenario,
    seed: u64,
    edges: &[Edge],
    outcome: &SimOutcome,
) -> SweepPoint {
    let graph = CsrGraph::from_edges(edges);
    let exact_triangles = exact::triangle_count(&graph);
    let exact_wedges = exact::wedge_count(&graph);
    let tri = outcome.flat.triangles;
    let wedge = outcome.flat.wedges;
    let (tlo, thi) = tri.ci95();
    let (wlo, whi) = wedge.ci95();
    let tri_truth = exact_triangles as f64;
    let wedge_truth = exact_wedges as f64;
    let staleness_mean_ns = if outcome.epochs.is_empty() {
        0
    } else {
        outcome
            .epochs
            .iter()
            .map(|e| e.staleness_mean_ns)
            .sum::<u64>()
            / outcome.epochs.len() as u64
    };
    SweepPoint {
        shards: cfg.shards,
        skew: skew.label(),
        scenario: scenario.label(),
        seed,
        pushed: outcome.pushed,
        exact_triangles,
        exact_wedges,
        tri_are: tri.are(tri_truth),
        wedge_are: wedge.are(wedge_truth),
        tri_covered: tlo <= tri_truth && tri_truth <= thi,
        wedge_covered: wlo <= wedge_truth && wedge_truth <= whi,
        epochs: outcome.epochs.len(),
        degraded_epochs: outcome.degraded_epochs(),
        staleness_max_ns: outcome
            .epochs
            .iter()
            .map(|e| e.staleness_max_ns)
            .max()
            .unwrap_or(0),
        staleness_mean_ns,
        lost_arrivals: outcome.lost_arrivals,
        restarts: outcome.restarts,
        finished_at_ns: outcome.finished_at_ns,
    }
}

/// Runs the sweep grid `shard_counts` × {hash, Zipf(1.0)} × {clean,
/// straggler, crash/restore}, one run per point, invoking `progress` as
/// each point completes. `n_edges` and `capacity` size every point.
pub fn sweep(
    shard_counts: &[usize],
    n_edges: usize,
    capacity: usize,
    seed: u64,
    mut progress: impl FnMut(&SweepPoint),
) -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for &shards in shard_counts {
        for &skew in &[Skew::Hash, Skew::Zipf(1.0)] {
            for &scenario in &[Scenario::Clean, Scenario::Straggler, Scenario::CrashRestore] {
                let point = quality_point(shards, capacity, skew, scenario, n_edges, seed);
                progress(&point);
                out.push(point);
            }
        }
    }
    out
}

/// The default sweep grid: `S ∈ {16, 64, 256}` over [`sweep`]'s skew and
/// scenario axes.
pub fn default_sweep(n_edges: usize, capacity: usize, seed: u64) -> Vec<SweepPoint> {
    sweep(&[16, 64, 256], n_edges, capacity, seed, |_| {})
}
