//! End-to-end pipeline tests across the whole corpus: generate → permute →
//! sample → estimate, through the public facade only.

use graph_priority_sampling::prelude::*;

/// Every corpus workload, built tiny.
fn tiny_workloads() -> Vec<(String, Vec<Edge>)> {
    gps_stream::corpus::all()
        .into_iter()
        .map(|spec| (spec.name.to_string(), spec.build(0.02, 11).edges))
        .collect()
}

#[test]
fn full_retention_reproduces_exact_counts_on_every_workload() {
    for (name, edges) in tiny_workloads() {
        let g = CsrGraph::from_edges(&edges);
        let exact_tri = gps_graph::exact::triangle_count(&g) as f64;
        let exact_wedge = gps_graph::exact::wedge_count(&g) as f64;

        let mut est = InStreamEstimator::new(edges.len() + 1, TriangleWeight::default(), 5);
        for e in permuted(&edges, 3) {
            est.process(e);
        }
        let triads = est.estimates();
        assert!(
            (triads.triangles.value - exact_tri).abs() < 1e-6 * (1.0 + exact_tri),
            "{name}: in-stream triangles {} != exact {exact_tri}",
            triads.triangles.value
        );
        assert!(
            (triads.wedges.value - exact_wedge).abs() < 1e-6 * (1.0 + exact_wedge),
            "{name}: in-stream wedges {} != exact {exact_wedge}",
            triads.wedges.value
        );

        let post = post_stream::estimate(est.sampler());
        assert!(
            (post.triangles.value - exact_tri).abs() < 1e-6 * (1.0 + exact_tri),
            "{name}: post-stream triangles {} != exact {exact_tri}",
            post.triangles.value
        );
    }
}

#[test]
fn subsampled_estimates_are_in_a_sane_range_on_every_workload() {
    // At 25% sampling the estimates will vary, but across the whole corpus
    // they must be finite, nonnegative, and within a loose factor of truth
    // for non-tiny counts.
    for (name, edges) in tiny_workloads() {
        let g = CsrGraph::from_edges(&edges);
        let exact_tri = gps_graph::exact::triangle_count(&g) as f64;
        let exact_wedge = gps_graph::exact::wedge_count(&g) as f64;
        let m = (edges.len() / 4).max(60);
        let mut est = InStreamEstimator::new(m, TriangleWeight::default(), 7);
        for e in permuted(&edges, 13) {
            est.process(e);
        }
        let triads = est.estimates();
        assert!(
            triads.triangles.value.is_finite() && triads.triangles.value >= 0.0,
            "{name}"
        );
        assert!(triads.wedges.value.is_finite(), "{name}");
        assert!(triads.triangles.variance >= 0.0, "{name}");
        if exact_wedge > 500.0 {
            let ratio = triads.wedges.value / exact_wedge;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "{name}: wedge ratio {ratio} wildly off at 25% sampling"
            );
        }
        if exact_tri > 500.0 {
            let ratio = triads.triangles.value / exact_tri;
            assert!(
                (0.2..=5.0).contains(&ratio),
                "{name}: triangle ratio {ratio} wildly off at 25% sampling"
            );
        }
    }
}

#[test]
fn sample_size_is_exactly_m_for_every_workload() {
    for (name, edges) in tiny_workloads() {
        let m = (edges.len() / 5).max(10);
        let mut sampler = GpsSampler::new(m, TriangleWeight::default(), 3);
        for e in permuted(&edges, 1) {
            sampler.process(e);
        }
        assert_eq!(sampler.len(), m, "{name}: fixed-size property violated");
        // HT normalization: all inclusion probabilities in (0, 1].
        for se in sampler.edges() {
            assert!(
                se.inclusion_prob > 0.0 && se.inclusion_prob <= 1.0,
                "{name}"
            );
        }
    }
}

#[test]
fn edge_list_io_round_trips_through_files() {
    let edges = gps_stream::gen::holme_kim(300, 2, 0.4, 9);
    let dir = std::env::temp_dir().join("gps-io-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("edges.txt");
    gps_graph::io::write_edge_list_file(&path, &edges).unwrap();
    let back = gps_graph::io::read_edge_list_file(&path).unwrap();
    assert_eq!(back.len(), edges.len());
    // Identical graph shape after relabeling.
    let a = CsrGraph::from_edges(&edges);
    let b = CsrGraph::from_edges(&back);
    assert_eq!(
        gps_graph::exact::triangle_count(&a),
        gps_graph::exact::triangle_count(&b)
    );
    std::fs::remove_file(&path).ok();
}
