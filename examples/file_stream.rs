//! Stream a real edge-list file through GPS — the drop-in path for the
//! paper's datasets (networkrepository.com / SNAP format).
//!
//! ```text
//! cargo run --release --example file_stream [PATH] [SAMPLE_SIZE]
//! ```
//!
//! With no arguments, writes a synthetic edge list to a temp file first so
//! the example is self-contained. With a path, expects white-space separated
//! `u v` lines (`#`/`%` comments fine; extra columns ignored; self-loops and
//! duplicates dropped — the paper's preprocessing).

use graph_priority_sampling::prelude::*;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (path, cleanup) = match args.get(1) {
        Some(p) => (std::path::PathBuf::from(p), false),
        None => {
            let p = std::env::temp_dir().join("gps-demo-edges.txt");
            let edges = gps_stream::gen::holme_kim(40_000, 3, 0.45, 3);
            gps_graph::io::write_edge_list_file(&p, &edges).expect("write demo edge list");
            println!("(no input given; wrote demo graph to {})\n", p.display());
            (p, true)
        }
    };
    let m: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(10_000);

    // Load + simplify (relabels sparse ids onto dense u32s).
    let t0 = Instant::now();
    let edges = gps_graph::io::read_edge_list_file(&path).expect("read edge list");
    println!("loaded {} edges in {:.2?}", edges.len(), t0.elapsed());

    // One GPS pass over a random permutation.
    let t0 = Instant::now();
    let mut est = InStreamEstimator::new(m, TriangleWeight::default(), 42);
    for e in permuted(&edges, 7) {
        est.process(e);
    }
    let elapsed = t0.elapsed();
    let triads = est.estimates();
    let (lb, ub) = triads.triangles.ci95();
    println!(
        "sampled {} of {} edges in {:.2?} ({:.2} us/edge)",
        est.sampler().len(),
        edges.len(),
        elapsed,
        elapsed.as_secs_f64() * 1e6 / edges.len() as f64
    );
    println!(
        "triangles ≈ {:.0}   95% CI [{lb:.0}, {ub:.0}]",
        triads.triangles.value
    );
    println!("wedges    ≈ {:.0}", triads.wedges.value);
    println!("clustering ≈ {:.4}", triads.clustering.value);

    // If the graph is small enough, print the exact values for comparison.
    if edges.len() <= 2_000_000 {
        let g = CsrGraph::from_edges(&edges);
        println!(
            "exact:      {} triangles, {} wedges, clustering {:.4}",
            gps_graph::exact::triangle_count(&g),
            gps_graph::exact::wedge_count(&g),
            gps_graph::exact::global_clustering(&g)
        );
    }
    if cleanup {
        std::fs::remove_file(&path).ok();
    }
}
