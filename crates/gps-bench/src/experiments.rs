//! The paper's experiments as library functions.
//!
//! Every function builds its workloads from `gps_stream::corpus` at the
//! configured scale, streams a seeded random permutation (the paper's §6
//! setup), and returns paper-shaped tables. Sample sizes scale with the
//! workloads so the sampling *fractions* stay comparable to the paper's
//! (DESIGN.md §5 and §6 record the mapping).

use std::time::Instant;

use gps_baselines::{Mascot, NSampBulk, TriangleEstimator, TriestBase, TriestImpr};
use gps_core::weights::{TriadWeight, TriangleWeight, UniformWeight, WedgeWeight};
use gps_core::{post_stream, EdgeWeight, InStreamEstimator, TriadEstimates};
use gps_graph::types::Edge;
use gps_graph::IncrementalCounter;
use gps_stats::{format, metrics, ErrorSeries, Running, Table};
use gps_stream::corpus::{self, WorkloadSpec};
use gps_stream::{permuted, Checkpoints};

use crate::adapters::{GpsInStream, GpsPost, ShardedInStream};
use crate::config::Config;
use crate::truth::GroundTruth;
use gps_engine::{EngineConfig, Estimation, Launch, ShardedGps};

/// Reservoir capacity used by Table 1 (the paper's 200K edges, scaled to our
/// workload sizes: ≈8% of a 250K-edge graph).
pub fn table1_capacity(cfg: &Config) -> usize {
    ((20_000.0 * cfg.scale) as usize).max(200)
}

/// Reservoir capacity for Table 2 / Figure 1.
///
/// The paper uses ≈100K stored edges (0.6–0.8% of its graphs). Expected
/// wholly-sampled triangles scale as `T·(m/|K|)³`, and our stand-ins hold
/// ~10³–10⁵ triangles versus the paper's 10⁷–10¹⁰, so matching the paper's
/// *fraction* would leave every estimator with zero sampled triangles.
/// Matching the paper's *regime* (tens of wholly-sampled triangles) puts
/// the fraction near 10%, which is what this capacity realizes at scale 1.
pub fn table2_capacity(cfg: &Config) -> usize {
    ((25_000.0 * cfg.scale) as usize).max(150)
}

/// Reservoir capacity for Table 3 / Figure 3 (paper: 80K).
pub fn table3_capacity(cfg: &Config) -> usize {
    ((8_000.0 * cfg.scale) as usize).max(120)
}

fn build(spec: &WorkloadSpec, cfg: &Config) -> Vec<Edge> {
    spec.build(cfg.scale, cfg.sub_seed("workload")).edges
}

/// One full GPS pass over a stream: in-stream estimates plus post-stream
/// estimates from the *same* sample (the paper's paired comparison).
fn run_gps_pair(edges: &[Edge], m: usize, stream_seed: u64, sampler_seed: u64) -> GpsPair {
    let stream = permuted(edges, stream_seed);
    let mut in_est = InStreamEstimator::new(m, TriangleWeight::default(), sampler_seed);
    in_est.process_stream(stream);
    let post = post_stream::estimate(in_est.sampler());
    GpsPair {
        in_stream: in_est.estimates(),
        post,
    }
}

/// One full sharded-engine pass (the real `ShardedGps`, worker threads and
/// all, in in-stream estimating mode): merged in-stream and post-stream
/// estimates from the same sharded samples, with the honest `S > 1`
/// variance decomposition behind both CI columns.
fn run_engine_pair(
    edges: &[Edge],
    m: usize,
    stream_seed: u64,
    engine_seed: u64,
    shards: usize,
) -> GpsPair {
    let stream = permuted(edges, stream_seed);
    let cfg = EngineConfig::new(m, shards, engine_seed);
    let launch = Launch {
        estimation: Estimation::InStream(None),
        ..Launch::default()
    };
    let mut engine = ShardedGps::launch(cfg, TriangleWeight::default(), launch);
    engine.push_stream(stream);
    GpsPair {
        in_stream: engine.estimate_in_stream(),
        post: engine.estimate(),
    }
}

struct GpsPair {
    in_stream: TriadEstimates,
    post: TriadEstimates,
}

/// Aggregates `runs` estimate pairs for one workload and emits its three
/// Table-1 rows (triangles / wedges / clustering) under `graph_label`.
fn table1_rows(
    table: &mut Table,
    graph_label: &str,
    edges_len: usize,
    truth: &GroundTruth,
    m: usize,
    runs: u64,
    mut pair_of: impl FnMut(u64) -> GpsPair,
) {
    let mut agg = [[Running::new(); 6]; 3]; // [stat][value, lb, ub in/post...]
    for r in 0..runs {
        let pair = pair_of(r);
        for (idx, (est_in, est_post)) in [
            (pair.in_stream.triangles, pair.post.triangles),
            (pair.in_stream.wedges, pair.post.wedges),
            (pair.in_stream.clustering, pair.post.clustering),
        ]
        .into_iter()
        .enumerate()
        {
            let (lb_i, ub_i) = est_in.ci95();
            let (lb_p, ub_p) = est_post.ci95();
            agg[idx][0].push(est_in.value);
            agg[idx][1].push(lb_i);
            agg[idx][2].push(ub_i);
            agg[idx][3].push(est_post.value);
            agg[idx][4].push(lb_p);
            agg[idx][5].push(ub_p);
        }
    }
    let actuals = [truth.triangles, truth.wedges, truth.clustering];
    for (idx, stat) in ["TRIANGLES", "WEDGES", "CC"].iter().enumerate() {
        let a = actuals[idx];
        let fmt = |x: f64| {
            if idx == 2 {
                format!("{x:.4}")
            } else {
                format::si(x)
            }
        };
        table.row([
            stat.to_string(),
            graph_label.to_string(),
            format::si(edges_len as f64),
            format!("{:.4}", m as f64 / edges_len as f64),
            fmt(a),
            fmt(agg[idx][0].mean()),
            format!("{:.4}", metrics::are(agg[idx][0].mean(), a)),
            fmt(agg[idx][1].mean()),
            fmt(agg[idx][2].mean()),
            fmt(agg[idx][3].mean()),
            format!("{:.4}", metrics::are(agg[idx][3].mean(), a)),
            fmt(agg[idx][4].mean()),
            fmt(agg[idx][5].mean()),
        ]);
    }
}

/// Paper **Table 1**: triangle / wedge / clustering estimates with ARE and
/// 95% bounds, GPS in-stream vs GPS post-stream on identical samples, for
/// the 11 Table-1 graphs. Estimates are averaged over `runs` independent
/// stream permutations + samples; bounds are averaged as well.
///
/// With `--shards S > 1` every graph gains a second set of rows
/// (`<graph>@S<S>`) from the sharded engine at the **same total budget** —
/// the accuracy half of the accuracy-vs-throughput tradeoff, end to end
/// through the real `ShardedGps` (threads, partition, honest-CI merge).
pub fn table1(cfg: &Config, runs: u64) -> Table {
    let m = table1_capacity(cfg);
    let mut table = Table::new([
        "stat",
        "graph",
        "|K|",
        "m/|K|",
        "actual",
        "X^(in)",
        "ARE(in)",
        "LB(in)",
        "UB(in)",
        "X^(post)",
        "ARE(post)",
        "LB(post)",
        "UB(post)",
    ]);
    for spec in corpus::table1() {
        let edges = build(&spec, cfg);
        let truth = GroundTruth::of(&edges);
        table1_rows(&mut table, spec.name, edges.len(), &truth, m, runs, |r| {
            run_gps_pair(
                &edges,
                m,
                cfg.sub_seed(&format!("t1-stream-{}-{r}", spec.name)),
                cfg.sub_seed(&format!("t1-sampler-{}-{r}", spec.name)),
            )
        });
        if cfg.shards > 1 {
            let label = format!("{}@S{}", spec.name, cfg.shards);
            table1_rows(&mut table, &label, edges.len(), &truth, m, runs, |r| {
                run_engine_pair(
                    &edges,
                    m,
                    cfg.sub_seed(&format!("t1-stream-{}-{r}", spec.name)),
                    cfg.sub_seed(&format!("t1-engine-{}-{r}", spec.name)),
                    cfg.shards,
                )
            });
        }
    }
    table
}

/// Paper **Table 2**: baseline comparison at equal stored-edge budgets —
/// mean ARE over `runs` and measured average update time (µs/edge) for
/// NSAMP, TRIEST, MASCOT and GPS post-stream.
pub fn table2(cfg: &Config, runs: u64) -> Table {
    let m = table2_capacity(cfg);
    let mut table = Table::new(["graph", "method", "stored", "ARE", "us/edge"]);
    for spec in corpus::table2() {
        let edges = build(&spec, cfg);
        let truth = GroundTruth::of(&edges);
        let p_mascot = (m as f64 / edges.len() as f64).min(1.0);
        // Bulk-processed NSAMP (the configuration the paper measured; the
        // naive variant is benchmarked separately) at the same stored-edge
        // budget: each estimator holds up to two edges.
        let r_nsamp = (m / 2).max(8);

        // One factory per method so each run gets fresh state.
        type Factory<'a> = Box<dyn Fn(u64) -> Box<dyn TriangleEstimator> + 'a>;
        let factories: Vec<Factory> = vec![
            Box::new(move |seed| Box::new(NSampBulk::new(r_nsamp, seed))),
            Box::new(move |seed| Box::new(TriestBase::new(m, seed))),
            Box::new(move |seed| Box::new(Mascot::new(p_mascot, seed))),
            Box::new(move |seed| Box::new(GpsPost::new(m, seed))),
            // Not in the paper's Table 2; added for the apples-to-apples
            // arrival-counting comparison against MASCOT.
            Box::new(move |seed| Box::new(GpsInStream::new(m, seed))),
        ];
        for factory in &factories {
            let mut err = Running::new();
            let mut micros_per_edge = 0.0;
            let mut stored = 0usize;
            let mut name = "";
            for r in 0..runs {
                let stream = permuted(
                    &edges,
                    cfg.sub_seed(&format!("t2-stream-{}-{r}", spec.name)),
                );
                let mut est = factory(cfg.sub_seed(&format!("t2-est-{}-{r}", spec.name)));
                let start = Instant::now();
                for &e in &stream {
                    est.process(e);
                }
                let elapsed = start.elapsed();
                if r == 0 {
                    micros_per_edge = elapsed.as_secs_f64() * 1e6 / stream.len() as f64;
                    stored = est.stored_edges();
                    name = est.name();
                }
                err.push(metrics::are(est.triangle_estimate(), truth.triangles));
            }
            table.row([
                spec.name.to_string(),
                name.to_string(),
                stored.to_string(),
                format!("{:.4}", err.mean()),
                format::micros(micros_per_edge),
            ]);
        }
    }
    table
}

/// Paper **Table 3**: tracking error of triangle estimates over the stream —
/// Max ARE and MARE across checkpoints, for TRIEST, TRIEST-IMPR, GPS post
/// and GPS in-stream, averaged over `runs`.
///
/// With `--shards S > 1` a `GPS ENGINE(S) IN-STREAM` arm rides along: the
/// deterministic single-threaded mirror of the sharded engine
/// ([`ShardedInStream`], bit-identical estimates to `ShardedGps` on the
/// same config), queryable at every checkpoint — the tracking-accuracy
/// half of the sharding tradeoff at the same total budget.
pub fn table3(cfg: &Config, runs: u64, checkpoints: usize) -> Table {
    let m = table3_capacity(cfg);
    let mut table = Table::new(["graph", "method", "MaxARE", "MARE"]);
    let engine_label = format!("GPS ENGINE({}) IN-STREAM", cfg.shards);
    for spec in corpus::table3() {
        let edges = build(&spec, cfg);
        let mut names = vec!["TRIEST", "TRIEST-IMPR", "GPS POST", "GPS IN-STREAM"];
        if cfg.shards > 1 {
            names.push(&engine_label);
        }
        let mut series: Vec<ErrorSeries> = vec![ErrorSeries::new(); names.len()];
        for r in 0..runs {
            let stream = permuted(
                &edges,
                cfg.sub_seed(&format!("t3-stream-{}-{r}", spec.name)),
            );
            let seed = cfg.sub_seed(&format!("t3-est-{}-{r}", spec.name));
            let mut methods: Vec<Box<dyn TriangleEstimator>> = vec![
                Box::new(TriestBase::new(m, seed)),
                Box::new(TriestImpr::new(m, seed)),
                Box::new(GpsPost::new(m, seed)),
                Box::new(GpsInStream::new(m, seed)),
            ];
            if cfg.shards > 1 {
                methods.push(Box::new(ShardedInStream::new(m, seed, cfg.shards)));
            }
            let actual = std::cell::RefCell::new(IncrementalCounter::new());
            let cps = Checkpoints::linear(stream.len(), checkpoints);
            let run_series = std::cell::RefCell::new(vec![ErrorSeries::new(); methods.len()]);
            let methods_cell = std::cell::RefCell::new(&mut methods);
            cps.drive(
                stream.iter().copied(),
                |e| {
                    actual.borrow_mut().insert(e);
                    for mth in methods_cell.borrow_mut().iter_mut() {
                        mth.process(e);
                    }
                },
                |_t| {
                    let truth = actual.borrow().triangles() as f64;
                    if truth == 0.0 {
                        return; // ARE undefined this early in the stream
                    }
                    for (i, mth) in methods_cell.borrow_mut().iter_mut().enumerate() {
                        run_series.borrow_mut()[i].push(mth.triangle_estimate(), truth);
                    }
                },
            );
            for (agg, run) in series.iter_mut().zip(run_series.into_inner()) {
                agg.merge(&run);
            }
        }
        for (name, s) in names.iter().zip(&series) {
            table.row([
                spec.name.to_string(),
                name.to_string(),
                format!("{:.3}", s.max_are()),
                format!("{:.3}", s.mare()),
            ]);
        }
    }
    table
}

/// Paper **Figure 1**: the x̂/x scatter — per graph, the ratio of estimated
/// to actual counts for triangles and wedges simultaneously, from in-stream
/// estimation on a single sample per run (averaged over `runs`).
pub fn fig1(cfg: &Config, runs: u64) -> Table {
    let m = table2_capacity(cfg);
    let mut table = Table::new(["graph", "profile", "tri_ratio", "wedge_ratio"]);
    for spec in corpus::figure_panels() {
        let edges = build(&spec, cfg);
        let truth = GroundTruth::of(&edges);
        let (mut tri, mut wedge) = (Running::new(), Running::new());
        for r in 0..runs {
            let pair = run_gps_pair(
                &edges,
                m,
                cfg.sub_seed(&format!("f1-stream-{}-{r}", spec.name)),
                cfg.sub_seed(&format!("f1-sampler-{}-{r}", spec.name)),
            );
            tri.push(pair.in_stream.triangles.value / truth.triangles.max(1.0));
            wedge.push(pair.in_stream.wedges.value / truth.wedges.max(1.0));
        }
        table.row([
            spec.name.to_string(),
            spec.profile.to_string(),
            format!("{:.4}", tri.mean()),
            format!("{:.4}", wedge.mean()),
        ]);
    }
    table
}

/// Paper **Figure 2**: convergence of the triangle estimate and its 95%
/// bounds (all normalized by the true count) as the sample size sweeps a
/// geometric grid of fractions of `|K|`.
pub fn fig2(cfg: &Config) -> Table {
    let mut table = Table::new(["graph", "m", "m/|K|", "ratio", "lb_ratio", "ub_ratio"]);
    for spec in corpus::figure_panels() {
        let edges = build(&spec, cfg);
        let truth = GroundTruth::of(&edges);
        if truth.triangles == 0.0 {
            continue;
        }
        for &frac in &[0.01, 0.02, 0.04, 0.08, 0.16, 0.32] {
            let m = ((edges.len() as f64 * frac) as usize).max(50);
            let pair = run_gps_pair(
                &edges,
                m,
                cfg.sub_seed(&format!("f2-stream-{}-{frac}", spec.name)),
                cfg.sub_seed(&format!("f2-sampler-{}-{frac}", spec.name)),
            );
            let est = pair.in_stream.triangles;
            let (lb, ub) = est.ci95();
            table.row([
                spec.name.to_string(),
                m.to_string(),
                format!("{frac:.2}"),
                format!("{:.4}", est.value / truth.triangles),
                format!("{:.4}", lb / truth.triangles),
                format!("{:.4}", ub / truth.triangles),
            ]);
        }
    }
    table
}

/// Paper **Figure 3**: real-time tracking — triangle count and clustering
/// coefficient estimates with 95% bounds versus the exact values, at
/// checkpoints along the stream (orkut and skitter stand-ins).
pub fn fig3(cfg: &Config, checkpoints: usize) -> Table {
    let m = table3_capacity(cfg);
    let mut table = Table::new([
        "graph",
        "t",
        "tri_actual",
        "tri_est",
        "tri_lb",
        "tri_ub",
        "cc_actual",
        "cc_est",
        "cc_lb",
        "cc_ub",
    ]);
    for name in ["orkut-sim", "skitter-sim"] {
        let spec = corpus::by_name(name).expect("known workload");
        let edges = build(&spec, cfg);
        let stream = permuted(&edges, cfg.sub_seed(&format!("f3-stream-{name}")));
        let mut est = InStreamEstimator::new(
            m,
            TriangleWeight::default(),
            cfg.sub_seed(&format!("f3-{name}")),
        );
        let mut actual = IncrementalCounter::new();
        let cps = Checkpoints::linear(stream.len(), checkpoints);
        let est_cell = std::cell::RefCell::new(&mut est);
        let actual_cell = std::cell::RefCell::new(&mut actual);
        let rows = std::cell::RefCell::new(Vec::new());
        cps.drive(
            stream.iter().copied(),
            |e| {
                actual_cell.borrow_mut().insert(e);
                est_cell.borrow_mut().process(e);
            },
            |t| {
                let e = est_cell.borrow().estimates();
                let (tlb, tub) = e.triangles.ci95();
                let (clb, cub) = e.clustering.ci95();
                let act = actual_cell.borrow();
                rows.borrow_mut().push([
                    name.to_string(),
                    t.to_string(),
                    format!("{:.0}", act.triangles() as f64),
                    format!("{:.0}", e.triangles.value),
                    format!("{tlb:.0}"),
                    format!("{tub:.0}"),
                    format!("{:.5}", act.clustering()),
                    format!("{:.5}", e.clustering.value),
                    format!("{clb:.5}"),
                    format!("{cub:.5}"),
                ]);
            },
        );
        for row in rows.into_inner() {
            table.row(row);
        }
    }
    table
}

/// Weight-function ablation (paper §3.5's design choice): triangle and
/// wedge estimation MSE under uniform / wedge / triangle / triad weights,
/// for both estimation modes, at `m = |K| / 12`.
pub fn ablation(cfg: &Config, runs: u64) -> Table {
    let mut table = Table::new(["graph", "weights", "mode", "tri_rmse", "wedge_rmse"]);
    for name in ["hollywood-sim", "higgs-sim"] {
        let spec = corpus::by_name(name).expect("known workload");
        let edges = build(&spec, cfg);
        let truth = GroundTruth::of(&edges);
        let m = (edges.len() / 12).max(100);

        fn rmse_runs<W: EdgeWeight + Copy>(
            cfg: &Config,
            edges: &[Edge],
            truth: &GroundTruth,
            m: usize,
            w: W,
            runs: u64,
            label: &str,
        ) -> [f64; 4] {
            let (mut ti, mut wi, mut tp, mut wp) = (0.0, 0.0, 0.0, 0.0);
            for r in 0..runs {
                let stream = permuted(edges, cfg.sub_seed(&format!("ab-stream-{label}-{r}")));
                let mut est =
                    InStreamEstimator::new(m, w, cfg.sub_seed(&format!("ab-est-{label}-{r}")));
                est.process_stream(stream);
                let e_in = est.estimates();
                let e_post = post_stream::estimate(est.sampler());
                let rel = |x: f64, a: f64| (x - a) / a.max(1.0);
                ti += rel(e_in.triangles.value, truth.triangles).powi(2);
                wi += rel(e_in.wedges.value, truth.wedges).powi(2);
                tp += rel(e_post.triangles.value, truth.triangles).powi(2);
                wp += rel(e_post.wedges.value, truth.wedges).powi(2);
            }
            let n = runs as f64;
            [
                (ti / n).sqrt(),
                (wi / n).sqrt(),
                (tp / n).sqrt(),
                (wp / n).sqrt(),
            ]
        }

        let results: Vec<(&str, [f64; 4])> = vec![
            (
                "uniform",
                rmse_runs(
                    cfg,
                    &edges,
                    &truth,
                    m,
                    UniformWeight,
                    runs,
                    &format!("{name}-u"),
                ),
            ),
            (
                "wedge(4L+1)",
                rmse_runs(
                    cfg,
                    &edges,
                    &truth,
                    m,
                    WedgeWeight::default(),
                    runs,
                    &format!("{name}-w"),
                ),
            ),
            (
                "triangle(9T+1)",
                rmse_runs(
                    cfg,
                    &edges,
                    &truth,
                    m,
                    TriangleWeight::default(),
                    runs,
                    &format!("{name}-t"),
                ),
            ),
            (
                "triad(9T+4L+1)",
                rmse_runs(
                    cfg,
                    &edges,
                    &truth,
                    m,
                    TriadWeight::default(),
                    runs,
                    &format!("{name}-b"),
                ),
            ),
        ];
        for (wname, [ti, wi, tp, wp]) in results {
            table.row([
                name.to_string(),
                wname.to_string(),
                "in-stream".to_string(),
                format!("{ti:.4}"),
                format!("{wi:.4}"),
            ]);
            table.row([
                name.to_string(),
                wname.to_string(),
                "post".to_string(),
                format!("{tp:.4}"),
                format!("{wp:.4}"),
            ]);
        }
    }
    table
}

/// Renders a table to stdout with a title, and writes the TSV artifact.
pub fn emit(cfg: &Config, title: &str, artifact: &str, table: &Table) {
    println!("== {title}\n");
    println!("{}", table.render());
    if let Some(path) = cfg.write_tsv(artifact, &table.to_tsv()) {
        println!("[wrote {}]\n", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> Config {
        Config {
            scale: 0.02,
            seed: 7,
            out_dir: None,
            threads: 2,
            shards: 2,
        }
    }

    #[test]
    fn table1_has_three_stats_per_graph() {
        let solo = Config {
            shards: 1,
            ..tiny_cfg()
        };
        let t = table1(&solo, 1);
        assert_eq!(t.len(), 11 * 3);
    }

    #[test]
    fn table1_gains_engine_rows_when_sharded() {
        // tiny_cfg has shards = 2: every graph gets a second row set from
        // the real sharded engine at the same total budget.
        let t = table1(&tiny_cfg(), 1);
        assert_eq!(t.len(), 11 * 3 * 2);
        assert!(t.to_tsv().contains("@S2"));
    }

    #[test]
    fn table2_covers_all_methods() {
        let t = table2(&tiny_cfg(), 1);
        assert_eq!(t.len(), 3 * 5);
        let tsv = t.to_tsv();
        for m in ["NSAMP", "TRIEST", "MASCOT", "GPS POST", "GPS IN-STREAM"] {
            assert!(tsv.contains(m), "missing method {m}");
        }
    }

    #[test]
    fn table2_is_reproducible_up_to_timing() {
        // Same seeds, same streams: every estimate — and hence every ARE
        // and stored-edge cell — must be bit-identical across runs; only
        // the us/edge timing column may differ.
        let first = table2(&tiny_cfg(), 1);
        let second = table2(&tiny_cfg(), 1);
        let strip_timing = |t: &Table| -> Vec<String> {
            t.to_tsv()
                .lines()
                .map(|l| {
                    let cells: Vec<&str> = l.split('\t').collect();
                    cells[..cells.len() - 1].join("\t")
                })
                .collect()
        };
        assert_eq!(strip_timing(&first), strip_timing(&second));
    }

    #[test]
    fn table3_reports_four_methods_per_graph() {
        let solo = Config {
            shards: 1,
            ..tiny_cfg()
        };
        let t = table3(&solo, 1, 10);
        assert_eq!(t.len(), 4 * 4);
    }

    #[test]
    fn table3_gains_sharded_tracking_arm_when_sharded() {
        let t = table3(&tiny_cfg(), 1, 10);
        assert_eq!(t.len(), 4 * 5);
        assert!(t.to_tsv().contains("GPS ENGINE(2) IN-STREAM"));
    }

    #[test]
    fn fig1_rows_have_finite_ratios() {
        let t = fig1(&tiny_cfg(), 1);
        assert_eq!(t.len(), 12);
        for line in t.to_tsv().lines().skip(1) {
            let cells: Vec<&str> = line.split('\t').collect();
            let tri: f64 = cells[2].parse().unwrap();
            let wedge: f64 = cells[3].parse().unwrap();
            assert!(tri.is_finite() && tri >= 0.0);
            assert!(wedge.is_finite() && wedge >= 0.0);
        }
    }

    #[test]
    fn fig2_sweeps_six_sizes_per_graph() {
        let t = fig2(&tiny_cfg());
        assert!(t.len().is_multiple_of(6) && !t.is_empty());
    }

    #[test]
    fn fig3_emits_checkpoint_series() {
        let t = fig3(&tiny_cfg(), 8);
        assert_eq!(t.len(), 2 * 8);
    }

    #[test]
    fn ablation_covers_weight_grid() {
        let t = ablation(&tiny_cfg(), 1);
        assert_eq!(t.len(), 2 * 4 * 2);
    }
}
