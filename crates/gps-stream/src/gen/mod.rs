//! Synthetic graph generators — the workload substrate.
//!
//! The paper evaluates on ~50 real graphs from networkrepository.com. Those
//! datasets are not redistributable here, so the experiments run on seeded
//! synthetic graphs whose structural knobs (degree skew, clustering,
//! density) are chosen per stand-in; see `corpus` and DESIGN.md §5. Real
//! edge lists can be dropped in via `gps_graph::io`.
//!
//! Every generator is deterministic in its `seed`, emits a *simple*
//! undirected graph (no self-loops, no duplicates), and returns edges in
//! generation order. Streams are then shuffled by [`crate::permute`].

mod ba;
mod chung_lu;
mod cliques;
mod er;
mod holme_kim;
mod lattice;
mod rmat;
mod ws;

pub use ba::barabasi_albert;
pub use chung_lu::chung_lu;
pub use cliques::collaboration;
pub use er::erdos_renyi;
pub use holme_kim::holme_kim;
pub use lattice::grid;
pub use rmat::{rmat, RmatParams};
pub use ws::watts_strogatz;

use gps_graph::types::Edge;
use gps_graph::CompactAdjacency;

/// Deduplicating edge accumulator shared by the generators.
///
/// Duplicate suppression is answered by a growing compact adjacency's own
/// membership check on insert — the same substrate the samplers and the
/// Holme–Kim generator run on — instead of a separate `FxHashSet` of edge
/// keys (the ROADMAP generator-dedup item). The membership predicate
/// ("was this edge new?") is identical and no RNG draw depends on the
/// structure, so seeded generator outputs are unchanged; generators that
/// need topology (degree-indexed draws, membership under rewiring) get it
/// from the same structure for free.
pub(crate) struct EdgeAccumulator {
    seen: CompactAdjacency<()>,
    edges: Vec<Edge>,
}

impl EdgeAccumulator {
    pub(crate) fn with_capacity(m: usize) -> Self {
        EdgeAccumulator {
            // Node-count hint: a simple graph of m edges touches at most 2m
            // nodes, but generators cluster far below that; m avoids
            // over-reserving while the adjacency grows on demand.
            seen: CompactAdjacency::with_capacity(m, m),
            edges: Vec::with_capacity(m),
        }
    }

    /// Adds the edge if it is new; returns whether it was added.
    pub(crate) fn push(&mut self, edge: Edge) -> bool {
        if self.seen.insert(edge, ()).is_none() {
            self.edges.push(edge);
            true
        } else {
            false
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.edges.len()
    }

    pub(crate) fn into_edges(self) -> Vec<Edge> {
        self.edges
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use gps_graph::types::Edge;

    /// Asserts the list is a simple graph (already guaranteed no self-loops
    /// by `Edge`; checks duplicates).
    pub(crate) fn assert_simple(edges: &[Edge]) {
        let mut keys: Vec<u64> = edges.iter().map(Edge::key).collect();
        keys.sort_unstable();
        let before = keys.len();
        keys.dedup();
        assert_eq!(before, keys.len(), "duplicate edges in generator output");
    }
}
