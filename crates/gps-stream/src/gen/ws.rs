//! Watts–Strogatz small-world graphs.

use super::EdgeAccumulator;
use gps_graph::types::{Edge, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generates a Watts–Strogatz graph: a ring of `n` nodes each linked to its
/// `k/2` nearest neighbors on both sides, with each edge rewired to a random
/// target with probability `beta`.
///
/// With small `beta` this keeps the lattice's high local clustering and
/// near-constant degrees — the profile of infrastructure networks (the
/// paper's infra-roadNet-CA), where triangle-weighted sampling has few
/// triangles to chase.
///
/// # Panics
/// Panics if `k` is odd, `k < 2`, `n <= k`, or `beta ∉ [0, 1]`.
pub fn watts_strogatz(n: NodeId, k: usize, beta: f64, seed: u64) -> Vec<Edge> {
    assert!(k >= 2 && k.is_multiple_of(2), "k must be even and ≥ 2");
    assert!((n as usize) > k, "need n > k");
    assert!((0.0..=1.0).contains(&beta));
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut acc = EdgeAccumulator::with_capacity(n as usize * k / 2);

    // Ring lattice.
    for v in 0..n {
        for offset in 1..=(k / 2) as NodeId {
            let w = (v + offset) % n;
            acc.push(Edge::new(v, w));
        }
    }
    let mut edges = acc.into_edges();

    // Rewire pass: replace (v, w) by (v, random) with probability beta,
    // skipping rewires that would duplicate or self-loop. Membership under
    // rewiring is answered by an adjacency over the current edge set (same
    // substrate as the other generators' dedup; identical predicate, so
    // seeded outputs are unchanged).
    let mut seen: gps_graph::CompactAdjacency<()> =
        gps_graph::CompactAdjacency::with_capacity(n as usize, edges.len());
    for &e in &edges {
        seen.insert(e, ());
    }
    for slot in &mut edges {
        if rng.random::<f64>() >= beta {
            continue;
        }
        let old = *slot;
        let v = old.u();
        let mut target = rng.random_range(0..n);
        let mut tries = 0;
        while (target == v || seen.contains(Edge::new(v, target))) && tries < 32 {
            target = rng.random_range(0..n);
            tries += 1;
        }
        if target == v || seen.contains(Edge::new(v, target)) {
            continue;
        }
        let new = Edge::new(v, target);
        seen.remove(old);
        seen.insert(new, ());
        *slot = new;
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::super::testutil::assert_simple;
    use super::*;
    use gps_graph::csr::CsrGraph;
    use gps_graph::exact;

    #[test]
    fn lattice_shape_without_rewiring() {
        let edges = watts_strogatz(100, 4, 0.0, 0);
        assert_eq!(edges.len(), 200);
        assert_simple(&edges);
        let g = CsrGraph::from_edges(&edges);
        // Pure k=4 ring: every node has degree exactly 4.
        assert!((0..100u32).all(|v| g.degree(v) == 4));
        // k=4 ring has n triangles (each node closes one with offsets 1,2).
        assert_eq!(exact::triangle_count(&g), 100);
    }

    #[test]
    fn rewiring_preserves_edge_count_and_simplicity() {
        let edges = watts_strogatz(200, 6, 0.3, 9);
        assert_eq!(edges.len(), 600);
        assert_simple(&edges);
    }

    #[test]
    fn rewiring_lowers_clustering() {
        let rigid = watts_strogatz(2000, 6, 0.0, 1);
        let loose = watts_strogatz(2000, 6, 0.8, 1);
        let a0 = exact::global_clustering(&CsrGraph::from_edges(&rigid));
        let a1 = exact::global_clustering(&CsrGraph::from_edges(&loose));
        assert!(
            a1 < a0 / 2.0,
            "rewiring should destroy clustering: {a0} -> {a1}"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(watts_strogatz(64, 4, 0.2, 3), watts_strogatz(64, 4, 0.2, 3));
    }

    #[test]
    #[should_panic(expected = "even")]
    fn rejects_odd_k() {
        watts_strogatz(10, 3, 0.0, 0);
    }
}
