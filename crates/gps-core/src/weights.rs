//! Edge sampling-weight functions `W(k, K̂)`.
//!
//! GPS's distinguishing feature (paper §3.2, property S3) is that the weight
//! of an arriving edge may depend on the *topology of the current reservoir*
//! — e.g. how many sampled triangles the edge would close — as well as on
//! intrinsic edge attributes. The [`EdgeWeight`] trait captures that
//! contract; the paper's variance-minimizing choice for triangle counting
//! (§3.5 and §4: `W(k, K̂) = 9·|△̂(k)| + 1`) is [`TriangleWeight`].
//!
//! Weights must be strictly positive and, per Theorem 1's measurability
//! condition, may only depend on the sample as the edge *finds* it — the
//! sampler guarantees this by computing the weight before the provisional
//! insertion.

use crate::reservoir::SampleView;
use gps_graph::types::Edge;

/// A sampling-weight function `W(k, K̂)`.
pub trait EdgeWeight {
    /// Weight for the arriving `edge` given the current sample view.
    /// Must return a finite value `> 0`.
    fn weight(&self, edge: Edge, sample: &SampleView<'_>) -> f64;

    /// Weight plus "is `edge` already sampled" in one call — the sampler's
    /// per-arrival fast path. The default composes [`EdgeWeight::weight`]
    /// with a separate membership test; the topology-driven built-in
    /// weights write their formula here, on one fused query that answers
    /// presence too, and derive [`EdgeWeight::weight`] from it.
    /// Implementations must return exactly
    /// `(self.weight(edge, sample), sample.contains(edge))`.
    #[inline]
    fn weight_and_presence(&self, edge: Edge, sample: &SampleView<'_>) -> (f64, bool) {
        (self.weight(edge, sample), sample.contains(edge))
    }
}

/// Uniform weights: `W ≡ 1`. GPS degenerates to classic uniform reservoir
/// sampling (paper §3.2: "if we set W(k, K̂) = 1 for every k, Algorithm 1
/// leads to uniform sampling as in the standard reservoir sampling").
#[derive(Clone, Copy, Debug, Default)]
pub struct UniformWeight;

impl EdgeWeight for UniformWeight {
    #[inline]
    fn weight(&self, _edge: Edge, _sample: &SampleView<'_>) -> f64 {
        1.0
    }
}

/// Triangle-targeted weights: `W(k, K̂) = coefficient · |△̂(k)| + floor`,
/// where `|△̂(k)|` is the number of sampled triangles the arriving edge
/// completes.
///
/// The paper derives the coefficient from IPPS variance minimization (§3.5)
/// and uses `9·|△̂(k)| + 1` throughout its evaluation (§4, "we use
/// W(k, K̂) = 9 ∗ |△̂(k)|+1"): 9 = 3² because each triangle contributes
/// three edges, and the `+1` floor keeps edges that currently close no
/// triangle sampleable.
#[derive(Clone, Copy, Debug)]
pub struct TriangleWeight {
    /// Multiplier on the closed-triangle count (paper: 9).
    pub coefficient: f64,
    /// Default weight added to every edge (paper: 1).
    pub floor: f64,
}

impl Default for TriangleWeight {
    fn default() -> Self {
        TriangleWeight {
            coefficient: 9.0,
            floor: 1.0,
        }
    }
}

impl EdgeWeight for TriangleWeight {
    #[inline]
    fn weight(&self, edge: Edge, sample: &SampleView<'_>) -> f64 {
        self.weight_and_presence(edge, sample).0
    }

    #[inline]
    fn weight_and_presence(&self, edge: Edge, sample: &SampleView<'_>) -> (f64, bool) {
        let (triangles, present) = sample.triangle_closure_raw(edge);
        (self.coefficient * triangles as f64 + self.floor, present)
    }
}

/// Wedge-targeted weights: `W(k, K̂) = coefficient · |Λ̂(k)| + floor` where
/// `|Λ̂(k)|` is the number of sampled edges adjacent to the arriving edge —
/// i.e. the number of wedges it completes (paper §3.2 suggests "the number
/// of edges in the currently sampled graph that are adjacent to an arriving
/// edge" as a weight). The analogous IPPS coefficient is 4 = 2² since a
/// wedge has two edges.
#[derive(Clone, Copy, Debug)]
pub struct WedgeWeight {
    /// Multiplier on the adjacent-edge count (wedges completed).
    pub coefficient: f64,
    /// Default weight added to every edge.
    pub floor: f64,
}

impl Default for WedgeWeight {
    fn default() -> Self {
        WedgeWeight {
            coefficient: 4.0,
            floor: 1.0,
        }
    }
}

impl EdgeWeight for WedgeWeight {
    #[inline]
    fn weight(&self, edge: Edge, sample: &SampleView<'_>) -> f64 {
        self.weight_and_presence(edge, sample).0
    }

    #[inline]
    fn weight_and_presence(&self, edge: Edge, sample: &SampleView<'_>) -> (f64, bool) {
        let (_, wedges, present) = triad_closure(edge, sample);
        (self.coefficient * wedges as f64 + self.floor, present)
    }
}

/// Combined triangle + wedge weights, for samples that must serve both
/// estimands well simultaneously (the paper's Table 1 shows one sample
/// estimating triangles, wedges and clustering together).
#[derive(Clone, Copy, Debug)]
pub struct TriadWeight {
    /// Triangle coefficient (paper-style default 9).
    pub triangle_coefficient: f64,
    /// Wedge coefficient (default 4).
    pub wedge_coefficient: f64,
    /// Default weight added to every edge.
    pub floor: f64,
}

impl Default for TriadWeight {
    fn default() -> Self {
        TriadWeight {
            triangle_coefficient: 9.0,
            wedge_coefficient: 4.0,
            floor: 1.0,
        }
    }
}

impl EdgeWeight for TriadWeight {
    #[inline]
    fn weight(&self, edge: Edge, sample: &SampleView<'_>) -> f64 {
        self.weight_and_presence(edge, sample).0
    }

    #[inline]
    fn weight_and_presence(&self, edge: Edge, sample: &SampleView<'_>) -> (f64, bool) {
        let (triangles, wedges, present) = triad_closure(edge, sample);
        let w = self.triangle_coefficient * triangles as f64
            + self.wedge_coefficient * wedges as f64
            + self.floor;
        (w, present)
    }
}

/// `(triangles, wedges, present)` for `edge`: the sampled triangles it
/// closes, the sampled edges adjacent to it (the wedges it closes; a
/// sampled `edge` sits in both endpoints' degrees and is not its own
/// partner), and whether it is sampled.
#[inline]
fn triad_closure(edge: Edge, sample: &SampleView<'_>) -> (usize, usize, bool) {
    let (triangles, deg_sum, present) = sample.triad_counts_raw(edge);
    (triangles, deg_sum - 2 * present as usize, present)
}

/// Arbitrary user-supplied weight function (attributes, auxiliary variables,
/// byte counts, …; paper §3.2 S3 lists "endpoint node/edge identities,
/// attributes, and other auxiliary variables").
pub struct FnWeight<F>(pub F);

impl<F: Fn(Edge, &SampleView<'_>) -> f64> EdgeWeight for FnWeight<F> {
    #[inline]
    fn weight(&self, edge: Edge, sample: &SampleView<'_>) -> f64 {
        (self.0)(edge, sample)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reservoir::GpsSampler;

    /// Builds a sampler holding a triangle (1,2,3) plus edge (3,4), with
    /// capacity large enough that nothing is evicted.
    fn loaded_sampler() -> GpsSampler<UniformWeight> {
        let mut s = GpsSampler::new(16, UniformWeight, 1);
        for e in [
            Edge::new(1, 2),
            Edge::new(2, 3),
            Edge::new(1, 3),
            Edge::new(3, 4),
        ] {
            s.process(e);
        }
        s
    }

    #[test]
    fn uniform_weight_is_one() {
        let s = loaded_sampler();
        assert_eq!(UniformWeight.weight(Edge::new(9, 10), &s.view()), 1.0);
    }

    #[test]
    fn triangle_weight_counts_closed_triangles() {
        let s = loaded_sampler();
        let w = TriangleWeight::default();
        // (1,4) closes triangle (1,3,4)? needs edges (1,3) ✓ and (3,4) ✓.
        assert_eq!(w.weight(Edge::new(1, 4), &s.view()), 9.0 + 1.0);
        // (2,4) closes (2,3,4) via (2,3) and (3,4).
        assert_eq!(w.weight(Edge::new(2, 4), &s.view()), 10.0);
        // (5,6) closes nothing → floor.
        assert_eq!(w.weight(Edge::new(5, 6), &s.view()), 1.0);
        // Re-arrival of (1,2) would close triangle (1,2,3) — weight counts it.
        assert_eq!(w.weight(Edge::new(1, 2), &s.view()), 10.0);
    }

    #[test]
    fn wedge_weight_counts_adjacent_edges() {
        let s = loaded_sampler();
        let w = WedgeWeight::default();
        // (4,5): node 4 touches edge (3,4) → 1 adjacent edge; node 5 none.
        assert_eq!(w.weight(Edge::new(4, 5), &s.view()), 4.0 + 1.0);
        // (1,4): node 1 touches 2 sampled edges, node 4 touches 1 → 3.
        assert_eq!(w.weight(Edge::new(1, 4), &s.view()), 12.0 + 1.0);
        assert_eq!(w.weight(Edge::new(8, 9), &s.view()), 1.0);
    }

    #[test]
    fn triad_weight_combines_both() {
        let s = loaded_sampler();
        let w = TriadWeight::default();
        // (1,4): 1 triangle closed, 3 adjacent edges.
        assert_eq!(w.weight(Edge::new(1, 4), &s.view()), 9.0 + 12.0 + 1.0);
    }

    #[test]
    fn fn_weight_sees_sample() {
        let s = loaded_sampler();
        let w = FnWeight(|e: Edge, view: &SampleView<'_>| {
            1.0 + view.degree(e.u()) as f64 + view.degree(e.v()) as f64
        });
        // degrees in sample: node 3 has degree 3, node 5 degree 0.
        assert_eq!(w.weight(Edge::new(3, 5), &s.view()), 4.0);
    }
}
