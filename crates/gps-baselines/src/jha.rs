//! Wedge sampling — Jha, Seshadhri & Pinar (KDD 2013), "A space efficient
//! streaming algorithm for triangle counting using the birthday paradox".
//!
//! The GPS paper compares against this method too ("results omitted for
//! brevity"; §6 notes it is slow at `O(s_e)` per edge and that GPS achieves
//! ≥ 10× better accuracy). Two coupled reservoirs:
//!
//! 1. a uniform edge reservoir `R_e` of size `s_e`;
//! 2. a wedge reservoir `R_w` of size `s_w`, holding uniform wedges among
//!    those formed by the *current* edge reservoir. A wedge is `closed` if
//!    its closing edge arrived after the wedge entered the reservoir.
//!
//! Estimates at time `t`:
//! - transitivity `κ̂ = 3 · (closed fraction of R_w)`;
//! - total wedges `Ŵ = tot_wedges · t(t−1) / (s_e(s_e−1))` where
//!   `tot_wedges` counts wedges inside `R_e`;
//! - triangles `T̂ = κ̂ · Ŵ / 3`.

use crate::common::{EdgeSampleStore, TriangleEstimator};
use gps_graph::types::Edge;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Clone, Copy, Debug)]
struct WedgeSlot {
    e1: Edge,
    e2: Edge,
    closed: bool,
}

impl WedgeSlot {
    fn closing_edge(&self) -> Option<Edge> {
        let shared = self.e1.shared_endpoint(&self.e2)?;
        let a = self.e1.other(shared).expect("shared endpoint on e1");
        let b = self.e2.other(shared).expect("shared endpoint on e2");
        Edge::try_new(a, b)
    }
}

/// The Jha–Seshadhri–Pinar streaming wedge sampler.
pub struct JhaWedgeSampler {
    edge_capacity: usize,
    store: EdgeSampleStore,
    wedges: Vec<Option<WedgeSlot>>,
    /// Number of wedges formed by the current edge reservoir.
    tot_wedges: u64,
    t: u64,
    rng: SmallRng,
    /// Scratch for the wedges the newest edge created.
    new_wedges: Vec<Edge>,
}

impl JhaWedgeSampler {
    /// Creates a sampler with `edge_capacity` reservoir edges and
    /// `wedge_capacity` wedge slots. The new wedges formed by an admitted
    /// edge are canonically sorted before the uniform slot draw, so the
    /// draw does not depend on the adjacency's neighbor order.
    pub fn new(edge_capacity: usize, wedge_capacity: usize, seed: u64) -> Self {
        assert!(edge_capacity >= 2, "need at least two reservoir edges");
        assert!(wedge_capacity >= 1, "need at least one wedge slot");
        JhaWedgeSampler {
            edge_capacity,
            store: EdgeSampleStore::new(),
            wedges: vec![None; wedge_capacity],
            tot_wedges: 0,
            t: 0,
            rng: SmallRng::seed_from_u64(seed),
            new_wedges: Vec::new(),
        }
    }

    /// Estimated transitivity (global clustering coefficient) `κ̂`.
    pub fn transitivity_estimate(&self) -> f64 {
        let filled = self.wedges.iter().flatten().count();
        if filled == 0 {
            return 0.0;
        }
        let closed = self.wedges.iter().flatten().filter(|w| w.closed).count();
        3.0 * closed as f64 / filled as f64
    }

    /// Estimated total number of wedges in the stream so far.
    pub fn wedge_estimate(&self) -> f64 {
        let t = self.t as f64;
        let s = self.store.len() as f64;
        if s < 2.0 {
            return self.tot_wedges as f64;
        }
        self.tot_wedges as f64 * (t * (t - 1.0)) / (s * (s - 1.0))
    }

    /// Removes `edge` from the reservoir, updating `tot_wedges`.
    fn evict(&mut self, index: usize) {
        let edge = self.store.edges()[index];
        self.store.remove(edge);
        let lost = self.store.degree(edge.u()) + self.store.degree(edge.v());
        self.tot_wedges -= lost as u64;
        // Wedge slots built on the evicted edge stay; their statistics
        // remain valid snapshots of uniform wedges at their creation time
        // (the JSP analysis keeps them until replaced).
    }

    fn admit(&mut self, edge: Edge) {
        // Wedges the new edge forms with the current reservoir.
        self.new_wedges.clear();
        let (u, v) = (edge.u(), edge.v());
        let adj = self.store.adjacency();
        for &(nbr, ()) in adj.neighbor_slice(u) {
            if nbr != v {
                self.new_wedges.push(Edge::new(u, nbr));
            }
        }
        for &(nbr, ()) in adj.neighbor_slice(v) {
            if nbr != u {
                self.new_wedges.push(Edge::new(v, nbr));
            }
        }
        // Canonical order: the uniform index draw below selects a wedge
        // independently of neighbor-list order (short lists are in
        // arrival order, long ones id-sorted).
        self.new_wedges.sort_unstable();
        self.store.insert(edge);
        self.tot_wedges += self.new_wedges.len() as u64;
        if self.tot_wedges == 0 || self.new_wedges.is_empty() {
            return;
        }
        // Each wedge slot is replaced by a uniform new wedge with
        // probability new/tot — this keeps R_w uniform over the wedges of
        // R_e (the birthday-paradox core of the algorithm).
        let p_new = self.new_wedges.len() as f64 / self.tot_wedges as f64;
        for i in 0..self.wedges.len() {
            if self.wedges[i].is_none() || self.rng.random::<f64>() < p_new {
                let partner = self.new_wedges[self.rng.random_range(0..self.new_wedges.len())];
                self.wedges[i] = Some(WedgeSlot {
                    e1: edge,
                    e2: partner,
                    closed: false,
                });
            }
        }
    }
}

impl TriangleEstimator for JhaWedgeSampler {
    fn process(&mut self, edge: Edge) {
        if self.store.contains(edge) {
            return;
        }
        self.t += 1;
        // Closure detection against the wedge reservoir.
        for slot in self.wedges.iter_mut().flatten() {
            if !slot.closed && slot.closing_edge() == Some(edge) {
                slot.closed = true;
            }
        }
        // Uniform edge reservoir.
        if self.store.len() < self.edge_capacity {
            self.admit(edge);
        } else if self.rng.random::<f64>() < self.edge_capacity as f64 / self.t as f64 {
            let victim = self.rng.random_range(0..self.store.len());
            self.evict(victim);
            self.admit(edge);
        }
    }

    fn triangle_estimate(&self) -> f64 {
        self.transitivity_estimate() / 3.0 * self.wedge_estimate()
    }

    fn stored_edges(&self) -> usize {
        // Edge reservoir + two edges per wedge slot.
        self.store.len() + 2 * self.wedges.iter().flatten().count()
    }

    fn name(&self) -> &'static str {
        "JHA-WEDGE"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_graph::csr::CsrGraph;
    use gps_graph::exact;
    use gps_stream::{gen, permuted};

    #[test]
    fn transitivity_converges_on_clustered_graph() {
        let edges = gen::holme_kim(600, 3, 0.6, 11);
        let g = CsrGraph::from_edges(&edges);
        let alpha = exact::global_clustering(&g);
        let runs = 40;
        let mut sum = 0.0;
        for seed in 0..runs {
            let stream = permuted(&edges, 600 + seed);
            let mut jha = JhaWedgeSampler::new(edges.len() / 3, 200, seed);
            for &e in &stream {
                jha.process(e);
            }
            sum += jha.transitivity_estimate();
        }
        let mean = sum / runs as f64;
        assert!(
            (mean - alpha).abs() / alpha < 0.35,
            "JHA transitivity mean {mean} vs exact {alpha}"
        );
    }

    #[test]
    fn wedge_estimate_tracks_truth() {
        let edges = gen::holme_kim(600, 3, 0.5, 3);
        let g = CsrGraph::from_edges(&edges);
        let truth = exact::wedge_count(&g) as f64;
        let runs = 30;
        let mut sum = 0.0;
        for seed in 0..runs {
            let stream = permuted(&edges, 100 + seed);
            let mut jha = JhaWedgeSampler::new(edges.len() / 4, 100, seed);
            for &e in &stream {
                jha.process(e);
            }
            sum += jha.wedge_estimate();
        }
        let mean = sum / runs as f64;
        assert!(
            (mean - truth).abs() / truth < 0.15,
            "JHA wedge mean {mean} vs truth {truth}"
        );
    }

    #[test]
    fn triangle_estimate_is_in_the_right_ballpark() {
        let edges = gen::holme_kim(600, 3, 0.6, 17);
        let g = CsrGraph::from_edges(&edges);
        let truth = exact::triangle_count(&g) as f64;
        let runs = 40;
        let mut sum = 0.0;
        for seed in 0..runs {
            let stream = permuted(&edges, 900 + seed);
            let mut jha = JhaWedgeSampler::new(edges.len() / 3, 300, seed);
            for &e in &stream {
                jha.process(e);
            }
            sum += jha.triangle_estimate();
        }
        let mean = sum / runs as f64;
        assert!(
            (mean - truth).abs() / truth < 0.40,
            "JHA triangle mean {mean} vs truth {truth} (additive-error method)"
        );
    }

    #[test]
    fn triangle_free_stream_estimates_zero() {
        let mut jha = JhaWedgeSampler::new(64, 32, 5);
        for i in 0..300u32 {
            jha.process(Edge::new(i, i + 1));
        }
        assert_eq!(jha.transitivity_estimate(), 0.0);
        assert_eq!(jha.triangle_estimate(), 0.0);
        assert!(jha.wedge_estimate() > 0.0, "the path still has wedges");
    }

    #[test]
    fn stored_edges_respects_both_budgets() {
        let mut jha = JhaWedgeSampler::new(50, 20, 1);
        for e in gen::erdos_renyi(100, 400, 3) {
            jha.process(e);
        }
        assert!(jha.stored_edges() <= 50 + 2 * 20);
    }
}
