//! Immutable compressed-sparse-row (CSR) graph.
//!
//! [`CsrGraph`] stores an undirected simple graph as sorted neighbor slices,
//! the standard layout for exact analytics: neighbor access is a contiguous
//! slice, membership is a binary search, and the whole structure is two flat
//! allocations. Exact triangle/wedge counting (see [`crate::exact`]) runs on
//! this representation.

use crate::types::{Edge, NodeId};

/// An immutable undirected simple graph in CSR form.
///
/// Node ids are dense `0..num_nodes()`. Each edge appears in both endpoint
/// neighbor lists; lists are sorted ascending and deduplicated.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    num_edges: usize,
}

impl CsrGraph {
    /// Builds a CSR graph from an edge list.
    ///
    /// The input may contain duplicates (in either orientation); they are
    /// collapsed. Self-loops cannot be represented by [`Edge`] and so cannot
    /// occur. Node count is `max endpoint + 1` (isolated trailing nodes can
    /// be forced with `min_nodes`).
    pub fn from_edges(edges: &[Edge]) -> Self {
        Self::from_edges_with_min_nodes(edges, 0)
    }

    /// As [`CsrGraph::from_edges`], forcing at least `min_nodes` nodes.
    pub fn from_edges_with_min_nodes(edges: &[Edge], min_nodes: usize) -> Self {
        let num_nodes = edges
            .iter()
            .map(|e| e.v() as usize + 1)
            .max()
            .unwrap_or(0)
            .max(min_nodes);

        // Counting sort into CSR: one pass for degrees, one to scatter.
        let mut degree = vec![0usize; num_nodes];
        for e in edges {
            degree[e.u() as usize] += 1;
            degree[e.v() as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(num_nodes + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as NodeId; acc];
        for e in edges {
            let (u, v) = e.endpoints();
            targets[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            targets[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }

        // Sort + dedupe each neighbor list in place, then compact.
        let mut write = 0usize;
        let mut new_offsets = Vec::with_capacity(num_nodes + 1);
        new_offsets.push(0);
        for v in 0..num_nodes {
            let (start, end) = (offsets[v], offsets[v + 1]);
            targets[start..end].sort_unstable();
            let mut prev: Option<NodeId> = None;
            for i in start..end {
                let t = targets[i];
                if prev != Some(t) {
                    targets[write] = t;
                    write += 1;
                    prev = Some(t);
                }
            }
            new_offsets.push(write);
        }
        targets.truncate(write);
        debug_assert_eq!(write % 2, 0);
        CsrGraph {
            offsets: new_offsets,
            targets,
            num_edges: write / 2,
        }
    }

    /// Number of nodes (including isolated ones below the max id).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Sorted neighbor slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Membership test by binary search: `O(log deg)`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u as usize >= self.num_nodes() || v as usize >= self.num_nodes() {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterates every undirected edge exactly once, in `(u, v)` order with
    /// `u < v`, ascending.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.num_nodes() as NodeId).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| Edge::new(u, v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph() -> CsrGraph {
        // 0 - 1 - 2 - 3
        CsrGraph::from_edges(&[Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)])
    }

    #[test]
    fn basic_shape() {
        let g = path_graph();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(3), &[2]);
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = CsrGraph::from_edges(&[
            Edge::new(0, 1),
            Edge::new(1, 0),
            Edge::new(0, 1),
            Edge::new(1, 2),
        ]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn has_edge_both_orientations() {
        let g = path_graph();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(0, 99), "out-of-range nodes are simply absent");
    }

    #[test]
    fn edges_round_trip() {
        let input = vec![
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(2, 3),
            Edge::new(0, 3),
        ];
        let g = CsrGraph::from_edges(&input);
        let mut expect = input.clone();
        expect.sort();
        assert_eq!(g.edges().collect::<Vec<_>>(), expect);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(&[]);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn min_nodes_pads_isolated_vertices() {
        let g = CsrGraph::from_edges_with_min_nodes(&[Edge::new(0, 1)], 10);
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.degree(7), 0);
        assert_eq!(g.neighbors(7), &[] as &[NodeId]);
    }
}
