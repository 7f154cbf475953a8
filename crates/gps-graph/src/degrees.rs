//! Degree summaries of edge populations.
//!
//! The synthetic-corpus generators are validated by their degree profiles
//! (heavy-tailed for social stand-ins, near-constant for road stand-ins), and
//! the experiment harness prints these summaries next to each workload so the
//! reader can compare against the paper's graph table.

use crate::csr::CsrGraph;

/// Summary statistics of a degree sequence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    /// Number of nodes considered (nodes with degree ≥ 1 plus padded ones).
    pub nodes: usize,
    /// Number of undirected edges.
    pub edges: usize,
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree (`2m/n`).
    pub mean: f64,
    /// Median degree.
    pub median: usize,
    /// 99th-percentile degree — the tail indicator separating heavy-tailed
    /// social graphs from flat road networks.
    pub p99: usize,
}

impl DegreeStats {
    /// Computes stats over all nodes of `g` (isolated nodes count as degree 0).
    pub fn of(g: &CsrGraph) -> Self {
        let n = g.num_nodes();
        if n == 0 {
            return DegreeStats {
                nodes: 0,
                edges: 0,
                min: 0,
                max: 0,
                mean: 0.0,
                median: 0,
                p99: 0,
            };
        }
        let mut degs: Vec<usize> = (0..n).map(|v| g.degree(v as u32)).collect();
        degs.sort_unstable();
        let edges = g.num_edges();
        DegreeStats {
            nodes: n,
            edges,
            min: degs[0],
            max: degs[n - 1],
            mean: 2.0 * edges as f64 / n as f64,
            median: degs[n / 2],
            p99: degs[((n as f64 * 0.99) as usize).min(n - 1)],
        }
    }

    /// Crude heavy-tail indicator: max degree at least 10× the median
    /// (and a median of at least 1 to avoid trivial graphs).
    pub fn is_heavy_tailed(&self) -> bool {
        self.median >= 1 && self.max >= 10 * self.median.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Edge;

    #[test]
    fn stats_of_star() {
        let g = CsrGraph::from_edges(&[
            Edge::new(0, 1),
            Edge::new(0, 2),
            Edge::new(0, 3),
            Edge::new(0, 4),
        ]);
        let s = DegreeStats::of(&g);
        assert_eq!(s.nodes, 5);
        assert_eq!(s.edges, 4);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert_eq!(s.median, 1);
        assert!((s.mean - 8.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn stats_of_empty() {
        let s = DegreeStats::of(&CsrGraph::from_edges(&[]));
        assert_eq!(s.nodes, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn heavy_tail_indicator() {
        // A big star is heavy tailed; a cycle is not.
        let star: Vec<Edge> = (1..=50).map(|i| Edge::new(0, i)).collect();
        assert!(DegreeStats::of(&CsrGraph::from_edges(&star)).is_heavy_tailed());
        let cycle: Vec<Edge> = (0..50u32).map(|i| Edge::new(i, (i + 1) % 50)).collect();
        assert!(!DegreeStats::of(&CsrGraph::from_edges(&cycle)).is_heavy_tailed());
    }
}
