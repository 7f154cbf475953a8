//! Post-stream estimation — paper Algorithm 2 (`GPSEstimate`).
//!
//! Computes unbiased triangle/wedge count estimates, their unbiased
//! variances, the triangle–wedge covariance, and the (delta-method)
//! clustering coefficient — *purely from the reservoir*, at any point in the
//! stream. This supports the paper's "reference sample" use case:
//! retrospective graph queries against a stored sample.
//!
//! The computation is local per sampled edge `k = (v1, v2)` (paper §4,
//! "Efficiency"): every triangle and wedge containing `k` is enumerated from
//! `k`'s sampled neighborhoods, and each subgraph's Horvitz–Thompson product
//! uses the *current* threshold `z*`. Per-edge accumulators (`c△`, `cΛ` in
//! the pseudocode) turn the pairwise covariance sums into a single pass.
//! Each triangle is seen from its 3 edges and each wedge from its 2, giving
//! the 1/3 and 1/2 normalizations of Eq. (13)/(14). Total cost is
//! `O(Σ_k min(deĝ(v1), deĝ(v2)) + deĝ(v1) + deĝ(v2)) = O(a(K̂)·m) ≤ O(m^{3/2})`,
//! and the per-edge independence makes the pass embarrassingly parallel
//! ([`estimate_with_threads`]).

use crate::estimate::{Estimate, TriadEstimates};
use crate::reservoir::{prob, GpsSampler, SampleView};
use crate::slab::EdgeRecord;
use crate::weights::EdgeWeight;

/// Per-edge partial sums (one edge's share of Eq. 13/14 and the covariance).
#[derive(Clone, Copy, Debug, Default)]
struct Contribution {
    n_tri: f64,
    v_tri: f64,
    c_tri_pairs: f64,
    n_wedge: f64,
    v_wedge: f64,
    c_wedge_pairs: f64,
    tri_wedge_cov: f64,
}

impl Contribution {
    fn merge(&mut self, other: &Contribution) {
        self.n_tri += other.n_tri;
        self.v_tri += other.v_tri;
        self.c_tri_pairs += other.c_tri_pairs;
        self.n_wedge += other.n_wedge;
        self.v_wedge += other.v_wedge;
        self.c_wedge_pairs += other.c_wedge_pairs;
        self.tri_wedge_cov += other.tri_wedge_cov;
    }

    fn into_estimates(self) -> TriadEstimates {
        let triangles = Estimate {
            value: self.n_tri / 3.0,
            variance: self.v_tri / 3.0 + self.c_tri_pairs,
        };
        let wedges = Estimate {
            value: self.n_wedge / 2.0,
            variance: self.v_wedge / 2.0 + self.c_wedge_pairs,
        };
        TriadEstimates::from_parts(triangles, wedges, self.tri_wedge_cov)
    }
}

/// One sampled edge's contribution (paper Alg 2 lines 3–30).
///
/// The triangle and wedge enumerations share one fused adjacency walk
/// ([`SampleView::for_each_record_completion`]), started from the two
/// endpoint slots the record's hints name, so no endpoint of `k` costs an
/// index probe. The two callbacks write disjoint local accumulators
/// (merged below) because they are borrowed simultaneously by the fused
/// walk.
fn edge_contribution(view: &SampleView<'_>, record: &EdgeRecord) -> Contribution {
    let z = view.threshold();
    let qi = 1.0 / prob(record.weight, z);
    // Running sums over subgraphs at this edge, used to accumulate the
    // pairwise covariance products incrementally (c△ / cΛ in Alg 2).
    let mut c_tri = 0.0;
    let mut c_wedge = 0.0;
    let (mut n_tri, mut v_tri, mut c_tri_pairs) = (0.0, 0.0, 0.0);
    let (mut n_wedge, mut v_wedge, mut c_wedge_pairs) = (0.0, 0.0, 0.0);

    view.for_each_record_completion(
        record,
        // Triangles (k1, k2, k) closed by k: sampled common neighbors.
        |_, s1, s2| {
            let q1 = prob(view.record(s1).weight, z);
            let q2 = prob(view.record(s2).weight, z);
            let inv12 = 1.0 / (q1 * q2);
            let inv = qi * inv12;
            n_tri += inv;
            v_tri += inv * (inv - 1.0);
            c_tri_pairs += c_tri * inv12;
            c_tri += inv12;
        },
        // Wedges (k1, k) sharing endpoint v1, then (k2, k) sharing v2 —
        // the walk excludes k itself. The pairwise accumulator spans both
        // arms: any two wedges containing k intersect in exactly {k},
        // regardless of which endpoint they pivot on.
        |slot| {
            let q1 = prob(view.record(slot).weight, z);
            let inv1 = 1.0 / q1;
            let inv = qi * inv1;
            n_wedge += inv;
            v_wedge += inv * (inv - 1.0);
            c_wedge_pairs += c_wedge * inv1;
            c_wedge += inv1;
        },
    );

    // Close the covariance accumulators (Alg 2 lines 29–30) and the
    // triangle–wedge cross term feeding the clustering CI (Eq. 12 restricted
    // to single-edge overlaps, matching the per-edge accumulators of Alg 3).
    let factor = qi * (qi - 1.0);
    Contribution {
        n_tri,
        v_tri,
        c_tri_pairs: c_tri_pairs * 2.0 * factor,
        n_wedge,
        v_wedge,
        c_wedge_pairs: c_wedge_pairs * 2.0 * factor,
        tri_wedge_cov: c_tri * c_wedge * factor,
    }
}

/// Runs Algorithm 2 serially over the current sample.
pub fn estimate<W: EdgeWeight>(sampler: &GpsSampler<W>) -> TriadEstimates {
    let view = sampler.view();
    let mut total = Contribution::default();
    for record in view.records() {
        total.merge(&edge_contribution(&view, record));
    }
    total.into_estimates()
}

/// Runs Algorithm 2 with `threads` workers over contiguous slot-range
/// chunks (the paper notes Alg 2 "already has abundant parallelism").
///
/// Results are identical to [`estimate`] up to floating-point summation
/// order. Falls back to the serial path for `threads <= 1` or tiny samples.
pub fn estimate_with_threads<W: EdgeWeight>(
    sampler: &GpsSampler<W>,
    threads: usize,
) -> TriadEstimates {
    let records = sampler.view().records();
    if threads <= 1 || records.len() < 1024 {
        return estimate(sampler);
    }
    let chunk = records.len().div_ceil(threads);
    let mut partials = vec![Contribution::default(); threads];
    std::thread::scope(|scope| {
        for (part, partial) in records.chunks(chunk).zip(partials.iter_mut()) {
            let view = sampler.view();
            scope.spawn(move || {
                let mut acc = Contribution::default();
                for record in part {
                    acc.merge(&edge_contribution(&view, record));
                }
                *partial = acc;
            });
        }
    });
    let mut total = Contribution::default();
    for p in &partials {
        total.merge(p);
    }
    total.into_estimates()
}

/// Point estimates only (no variance bookkeeping) — used by tight loops
/// that need just `N̂(△)`, `N̂(Λ)` (e.g. per-checkpoint tracking).
pub fn estimate_counts<W: EdgeWeight>(sampler: &GpsSampler<W>) -> (f64, f64) {
    let view = sampler.view();
    let z = view.threshold();
    let (mut tri, mut wedge) = (0.0f64, 0.0f64);
    for record in view.records() {
        let qi = 1.0 / prob(record.weight, z);
        let (mut tri_k, mut wedge_k) = (0.0, 0.0);
        view.for_each_record_completion(
            record,
            |_, s1, s2| {
                let q1 = prob(view.record(s1).weight, z);
                let q2 = prob(view.record(s2).weight, z);
                tri_k += qi / (q1 * q2);
            },
            |slot| {
                wedge_k += qi / prob(view.record(slot).weight, z);
            },
        );
        tri += tri_k;
        wedge += wedge_k;
    }
    (tri / 3.0, wedge / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::{TriangleWeight, UniformWeight};
    use gps_graph::types::Edge;

    fn k4_edges() -> Vec<Edge> {
        let mut v = vec![];
        for a in 0..4u32 {
            for b in (a + 1)..4 {
                v.push(Edge::new(a, b));
            }
        }
        v
    }

    #[test]
    fn full_retention_is_exact_with_zero_variance() {
        // Capacity ≥ stream: z* = 0, every p = 1, estimates are exact and
        // every variance term carries a (1/p - 1) = 0 factor.
        let mut s = GpsSampler::new(64, TriangleWeight::default(), 5);
        s.process_stream(k4_edges());
        let est = estimate(&s);
        assert!((est.triangles.value - 4.0).abs() < 1e-12);
        assert!((est.wedges.value - 12.0).abs() < 1e-12);
        assert_eq!(est.triangles.variance, 0.0);
        assert_eq!(est.wedges.variance, 0.0);
        assert_eq!(est.tri_wedge_cov, 0.0);
        assert!((est.clustering.value - 1.0).abs() < 1e-12);
    }

    #[test]
    fn counts_only_matches_full_path() {
        let mut s = GpsSampler::new(32, TriangleWeight::default(), 8);
        // Two overlapping triangles plus a tail.
        s.process_stream([
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(0, 2),
            Edge::new(2, 3),
            Edge::new(0, 3),
            Edge::new(3, 4),
        ]);
        let est = estimate(&s);
        let (t, w) = estimate_counts(&s);
        assert!((est.triangles.value - t).abs() < 1e-12);
        assert!((est.wedges.value - w).abs() < 1e-12);
        assert!((t - 2.0).abs() < 1e-12);
        // Wedges: deg = [3, 2, 3, 3, 1] → 3+1+3+3+0 = 10.
        assert!((w - 10.0).abs() < 1e-12);
    }

    #[test]
    fn variances_are_nonnegative_under_eviction() {
        // Small capacity forces evictions and z* > 0.
        let mut s = GpsSampler::new(12, TriangleWeight::default(), 3);
        let mut edges = vec![];
        for base in 0..12u32 {
            edges.push(Edge::new(base, base + 1));
            edges.push(Edge::new(base, base + 2));
            edges.push(Edge::new(base + 1, base + 2));
        }
        s.process_stream(edges);
        assert!(s.threshold() > 0.0, "eviction must have occurred");
        let est = estimate(&s);
        assert!(est.triangles.variance >= 0.0);
        assert!(est.wedges.variance >= 0.0);
        assert!(est.tri_wedge_cov >= 0.0, "Theorem 3(ii): covariance ≥ 0");
        assert!(est.triangles.value >= 0.0);
    }

    #[test]
    fn parallel_matches_serial() {
        let mut s = GpsSampler::new(2000, TriangleWeight::default(), 17);
        let mut edges = vec![];
        for base in (0..3000u32).step_by(3) {
            edges.push(Edge::new(base, base + 1));
            edges.push(Edge::new(base + 1, base + 2));
            edges.push(Edge::new(base, base + 2));
        }
        s.process_stream(edges);
        let serial = estimate(&s);
        let parallel = estimate_with_threads(&s, 4);
        assert!((serial.triangles.value - parallel.triangles.value).abs() < 1e-6);
        assert!((serial.wedges.value - parallel.wedges.value).abs() < 1e-6);
        assert!(
            (serial.triangles.variance - parallel.triangles.variance).abs()
                < 1e-6 * (1.0 + serial.triangles.variance)
        );
    }

    #[test]
    fn empty_sampler_estimates_zero() {
        let s = GpsSampler::new(8, UniformWeight, 0);
        let est = estimate(&s);
        assert_eq!(est.triangles.value, 0.0);
        assert_eq!(est.wedges.value, 0.0);
        assert_eq!(est.clustering.value, 0.0);
    }

    #[test]
    fn single_edge_has_no_subgraphs() {
        let mut s = GpsSampler::new(8, UniformWeight, 0);
        s.process(Edge::new(0, 1));
        let est = estimate(&s);
        assert_eq!(est.triangles.value, 0.0);
        assert_eq!(est.wedges.value, 0.0);
    }
}
