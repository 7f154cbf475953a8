//! Ground-truth computation for experiment workloads.

use gps_graph::csr::CsrGraph;
use gps_graph::exact;
use gps_graph::types::Edge;

/// Exact statistics of a workload graph.
#[derive(Clone, Copy, Debug)]
pub struct GroundTruth {
    /// Exact triangle count.
    pub triangles: f64,
    /// Exact wedge count.
    pub wedges: f64,
    /// Exact global clustering coefficient.
    pub clustering: f64,
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
}

impl GroundTruth {
    /// Computes exact counts for an edge list.
    pub fn of(edges: &[Edge]) -> Self {
        let g = CsrGraph::from_edges(edges);
        let t = exact::triangle_count(&g);
        let w = exact::wedge_count(&g);
        GroundTruth {
            triangles: t as f64,
            wedges: w as f64,
            clustering: if w == 0 {
                0.0
            } else {
                3.0 * t as f64 / w as f64
            },
            nodes: g.num_nodes(),
            edges: g.num_edges(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_of_k4() {
        let mut edges = vec![];
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                edges.push(Edge::new(a, b));
            }
        }
        let t = GroundTruth::of(&edges);
        assert_eq!(t.triangles, 4.0);
        assert_eq!(t.wedges, 12.0);
        assert!((t.clustering - 1.0).abs() < 1e-12);
        assert_eq!(t.nodes, 4);
        assert_eq!(t.edges, 6);
    }

    #[test]
    fn truth_of_empty() {
        let t = GroundTruth::of(&[]);
        assert_eq!(t.triangles, 0.0);
        assert_eq!(t.clustering, 0.0);
    }
}
