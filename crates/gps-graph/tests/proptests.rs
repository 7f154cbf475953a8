//! Property-based tests for the graph substrate.

use gps_graph::csr::CsrGraph;
use gps_graph::exact;
use gps_graph::incremental::IncrementalCounter;
use gps_graph::io;
use gps_graph::types::{Edge, NodeId};
use gps_graph::AdjacencyMap;
use proptest::prelude::*;

/// Random small simple-graph edge list: up to `max_n` nodes, deduplicated.
fn arb_edges(max_n: NodeId, max_m: usize) -> impl Strategy<Value = Vec<Edge>> {
    prop::collection::vec((0..max_n, 0..max_n), 0..max_m).prop_map(|pairs| {
        let raw: Vec<Edge> = pairs
            .into_iter()
            .filter_map(|(a, b)| Edge::try_new(a, b))
            .collect();
        io::simplify(&raw)
    })
}

proptest! {
    #[test]
    fn csr_triangles_match_brute_force(edges in arb_edges(24, 120)) {
        let g = CsrGraph::from_edges(&edges);
        prop_assert_eq!(exact::triangle_count(&g), exact::brute_force_triangle_count(&g));
    }

    #[test]
    fn csr_edge_count_matches_input(edges in arb_edges(64, 200)) {
        let g = CsrGraph::from_edges(&edges);
        prop_assert_eq!(g.num_edges(), edges.len());
        // Every input edge is present; no others.
        for e in &edges {
            prop_assert!(g.has_edge(e.u(), e.v()));
        }
        prop_assert_eq!(g.edges().count(), edges.len());
    }

    #[test]
    fn triangle_enumeration_agrees_with_count(edges in arb_edges(20, 80)) {
        let g = CsrGraph::from_edges(&edges);
        let mut n = 0u64;
        exact::for_each_triangle(&g, |a, b, c| {
            n += 1;
            // Every reported triple is a real triangle.
            assert!(g.has_edge(a, b) && g.has_edge(b, c) && g.has_edge(a, c));
        });
        prop_assert_eq!(n, exact::triangle_count(&g));
    }

    #[test]
    fn wedge_count_matches_naive(edges in arb_edges(32, 150)) {
        let g = CsrGraph::from_edges(&edges);
        // Naive: for each node, count unordered neighbor pairs.
        let mut naive = 0u128;
        for v in 0..g.num_nodes() as NodeId {
            let d = g.degree(v) as u128;
            naive += d * d.saturating_sub(1) / 2;
        }
        prop_assert_eq!(exact::wedge_count(&g), naive);
    }

    #[test]
    fn incremental_matches_batch_at_every_prefix(edges in arb_edges(20, 60)) {
        let mut inc = IncrementalCounter::new();
        for (i, &e) in edges.iter().enumerate() {
            inc.insert(e);
            let csr = CsrGraph::from_edges(&edges[..=i]);
            prop_assert_eq!(inc.triangles(), exact::triangle_count(&csr));
            prop_assert_eq!(inc.wedges(), exact::wedge_count(&csr));
        }
    }

    #[test]
    fn incremental_removal_in_random_order_reaches_zero(
        edges in arb_edges(16, 40),
        seed in any::<u64>(),
    ) {
        let mut inc = IncrementalCounter::new();
        for &e in &edges {
            inc.insert(e);
        }
        // Deterministic pseudo-random removal order from the seed.
        let mut order = edges.clone();
        let mut state = seed | 1;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        for &e in &order {
            prop_assert!(inc.remove(e));
        }
        prop_assert_eq!(inc.triangles(), 0);
        prop_assert_eq!(inc.wedges(), 0);
        prop_assert_eq!(inc.num_edges(), 0);
    }

    #[test]
    fn adjacency_insert_remove_is_consistent(edges in arb_edges(32, 100)) {
        let mut g: AdjacencyMap<u32> = AdjacencyMap::new();
        for (i, &e) in edges.iter().enumerate() {
            prop_assert_eq!(g.insert(e, i as u32), None);
        }
        prop_assert_eq!(g.num_edges(), edges.len());
        // Sum of degrees is twice the number of edges.
        let deg_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(deg_sum, 2 * edges.len());
        for (i, &e) in edges.iter().enumerate() {
            prop_assert_eq!(g.get(e), Some(i as u32));
            prop_assert_eq!(g.remove(e), Some(i as u32));
        }
        prop_assert!(g.is_empty());
        prop_assert_eq!(g.num_nodes(), 0);
    }

    #[test]
    fn common_neighbor_count_matches_csr_intersection(edges in arb_edges(24, 100)) {
        let mut adj: AdjacencyMap<()> = AdjacencyMap::new();
        for &e in &edges {
            adj.insert(e, ());
        }
        let csr = CsrGraph::from_edges(&edges);
        for &e in edges.iter().take(20) {
            prop_assert_eq!(
                adj.common_neighbor_count(e.u(), e.v()) as u64,
                exact::triangles_of_edge(&csr, e.u(), e.v())
            );
        }
    }

    #[test]
    fn edge_list_io_round_trips(edges in arb_edges(64, 200)) {
        let mut buf = Vec::new();
        io::write_edge_list(&mut buf, &edges).unwrap();
        let back = io::read_edge_list(buf.as_slice()).unwrap();
        // Node ids are relabeled in first-seen order; the *shape* must be
        // identical: same edge count and same exact triangle count.
        prop_assert_eq!(back.len(), edges.len());
        let g1 = CsrGraph::from_edges(&edges);
        let g2 = CsrGraph::from_edges(&back);
        prop_assert_eq!(exact::triangle_count(&g1), exact::triangle_count(&g2));
        prop_assert_eq!(exact::wedge_count(&g1), exact::wedge_count(&g2));
    }
}
