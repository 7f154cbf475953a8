//! The Graph Priority Sampler — paper Algorithm 1, `GPS(m)`.
//!
//! [`GpsSampler`] maintains a fixed-capacity reservoir `K̂` of edges over a
//! one-pass stream. Each arriving edge `k` receives:
//!
//! 1. a weight `w(k) = W(k, K̂)` from a pluggable [`EdgeWeight`] function,
//!    computed against the sample *as the edge finds it* (Theorem 1's
//!    measurability condition);
//! 2. an independent uniform `u(k) ∈ (0, 1]`;
//! 3. the priority `r(k) = w(k)/u(k)`.
//!
//! The reservoir keeps the `m` highest-priority edges seen so far; the
//! threshold `z*` tracks the maximum priority ever discarded. At any time,
//! the conditional inclusion probability of a sampled edge is
//! `p(k) = min{1, w(k)/z*}` (procedure `GPSNormalize`), and `1/p(k)` is its
//! Horvitz–Thompson edge estimator.
//!
//! Data structures follow the paper §3.2: a binary min-heap over priorities
//! (O(1) eviction candidate, O(log m) updates) plus a hash adjacency over
//! the sampled edges so that topology-dependent weights cost
//! `O(min(deĝ(v1), deĝ(v2)))`, and total space is `O(|V̂| + m)`.

use crate::heap::{HeapEntry, MinHeap};
use crate::slab::{EdgeRecord, Slab, SlotId};
use crate::weights::EdgeWeight;
use gps_graph::types::{Edge, NodeId};
use gps_graph::{BackendKind, CompactAdjacency};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Outcome of processing one stream arrival.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrival {
    /// The edge is already in the reservoir; the arrival was ignored.
    /// (The paper's model assumes unique edges; duplicates in real streams
    /// are skipped so estimators stay unbiased for the simplified graph.)
    Duplicate,
    /// Inserted while the reservoir had spare capacity.
    Inserted {
        /// Weight assigned to the arriving edge.
        weight: f64,
    },
    /// Inserted; the previous lowest-priority edge was evicted.
    Replaced {
        /// Weight assigned to the arriving edge.
        weight: f64,
        /// The evicted edge.
        evicted: Edge,
    },
    /// The arriving edge itself had the lowest priority among the `m + 1`
    /// candidates and was discarded.
    Rejected {
        /// Weight assigned to the arriving edge.
        weight: f64,
    },
}

/// A sampled edge as exposed by [`GpsSampler::edges`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SampledEdge {
    /// The edge.
    pub edge: Edge,
    /// Its sampling weight `w(k)` (assigned at arrival).
    pub weight: f64,
    /// Its priority `r(k) = w(k)/u(k)`.
    pub priority: f64,
    /// Its current HT inclusion probability `p(k) = min{1, w(k)/z*}`.
    pub inclusion_prob: f64,
}

/// Read-only view of the sample, passed to weight functions and estimators.
pub struct SampleView<'a> {
    slab: &'a Slab,
    adj: &'a CompactAdjacency<SlotId>,
    threshold: f64,
}

impl<'a> SampleView<'a> {
    /// Number of sampled edges `|K̂|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.slab.len()
    }

    /// Number of nodes touched by sampled edges `|V̂|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.adj.num_nodes()
    }

    /// Current threshold `z*` (0 until the first discard).
    #[inline]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Sampled degree of `node`.
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.adj.degree(node)
    }

    /// Whether `edge` is currently sampled.
    #[inline]
    pub fn contains(&self, edge: Edge) -> bool {
        self.adj.contains(edge)
    }

    /// Weight of a sampled edge.
    #[inline]
    pub fn weight_of(&self, edge: Edge) -> Option<f64> {
        self.adj.get(edge).map(|slot| self.slab.get(slot).weight)
    }

    /// Current HT inclusion probability `p(k) = min{1, w(k)/z*}` of a
    /// sampled edge (`1` while `z* = 0`, i.e. before any discard).
    #[inline]
    pub fn inclusion_prob_of(&self, edge: Edge) -> Option<f64> {
        self.adj.get(edge).map(|slot| self.prob_of_slot(slot))
    }

    /// Number of sampled triangles the (not necessarily sampled) edge
    /// `(u, v)` closes: `|Γ̂(u) ∩ Γ̂(v)|`.
    #[inline]
    pub fn triangles_closed_by(&self, edge: Edge) -> usize {
        self.adj.common_neighbor_count(edge.u(), edge.v())
    }

    /// Number of sampled edges adjacent to `edge` — the number of wedges it
    /// closes. If `edge` is itself sampled it is not counted.
    #[inline]
    pub fn wedges_closed_by(&self, edge: Edge) -> usize {
        let (deg_sum, present) = self.adj.wedge_closure_counts(edge.u(), edge.v());
        deg_sum - if present { 2 } else { 0 }
    }

    /// Fused `(triangles, wedges)` closed by `edge` — one endpoint
    /// resolution instead of the three separate
    /// [`SampleView::triangles_closed_by`] + [`SampleView::wedges_closed_by`]
    /// walks; the inner loop of [`crate::weights::TriadWeight`].
    #[inline]
    pub fn triad_closed_by(&self, edge: Edge) -> (usize, usize) {
        let (triangles, deg_sum, present) = self.adj.triad_counts(edge.u(), edge.v());
        (triangles, deg_sum - if present { 2 } else { 0 })
    }

    /// Raw fused topology query `(triangles, degree-sum, edge_present)` —
    /// the single-resolution primitive behind
    /// [`crate::weights::EdgeWeight::weight_and_presence`].
    #[inline]
    pub fn triad_counts_raw(&self, edge: Edge) -> (usize, usize, bool) {
        self.adj.triad_counts(edge.u(), edge.v())
    }

    /// Raw fused `(triangles, edge_present)` query (triangle weights).
    #[inline]
    pub fn triangle_closure_raw(&self, edge: Edge) -> (usize, bool) {
        self.adj.triangle_closure_counts(edge.u(), edge.v())
    }

    /// Raw fused `(degree-sum, edge_present)` query (wedge weights).
    #[inline]
    pub fn wedge_closure_raw(&self, edge: Edge) -> (usize, bool) {
        self.adj.wedge_closure_counts(edge.u(), edge.v())
    }

    /// HT inclusion probability for a slot.
    #[inline]
    pub(crate) fn prob_of_slot(&self, slot: SlotId) -> f64 {
        prob(self.slab.get(slot).weight, self.threshold)
    }

    /// Calls `f(w, slot_uw, slot_vw)` for each sampled common neighbor `w`
    /// of the endpoints of `(u, v)` — i.e. per sampled triangle the edge
    /// closes.
    #[inline]
    pub(crate) fn for_each_common_slot<F: FnMut(NodeId, SlotId, SlotId)>(
        &self,
        u: NodeId,
        v: NodeId,
        f: F,
    ) {
        self.adj.for_each_common_neighbor(u, v, f);
    }

    /// Fused completion walk (the estimator inner loop of Algorithms 2/3):
    /// one endpoint resolution answers both the triangle enumeration —
    /// `tri(w, slot_uw, slot_vw)` per sampled common neighbor, as
    /// [`SampleView::for_each_common_slot`] — and the wedge enumeration —
    /// `wedge(slot)` per sampled edge incident to `u` excluding `(u, v)`
    /// itself, then per sampled edge incident to `v` likewise, in each
    /// node's incident-list order (it subsumes the separate incident walks
    /// the estimators performed before the fusion).
    #[inline]
    pub(crate) fn for_each_completion_slots<FT, FW>(&self, u: NodeId, v: NodeId, tri: FT, wedge: FW)
    where
        FT: FnMut(NodeId, SlotId, SlotId),
        FW: FnMut(SlotId),
    {
        self.adj.for_each_completion(u, v, tri, wedge);
    }

    /// Iterates the sampled edges themselves — for weight functions that
    /// scan the reservoir (e.g. the space-lean O(m)-rescan alternative the
    /// paper discusses in §3.2 S4).
    pub fn sampled_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.slab.records().iter().map(|r| r.edge)
    }

    /// Calls `f(w)` for each sampled common neighbor `w` of `u` and `v` —
    /// i.e. per sampled triangle an edge `(u, v)` would close. Public
    /// counterpart of the estimators' slot-level iteration, for custom
    /// weight functions and motif detectors.
    pub fn for_each_common_sampled_neighbor<F: FnMut(NodeId)>(
        &self,
        u: NodeId,
        v: NodeId,
        mut f: F,
    ) {
        self.adj.for_each_common_neighbor(u, v, |w, _, _| f(w));
    }

    /// Direct record access by slot (estimator internals).
    #[inline]
    pub(crate) fn record(&self, slot: SlotId) -> &EdgeRecord {
        self.slab.get(slot)
    }

    /// Every sampled edge's record, in slot order (a contiguous slice, so
    /// the parallel estimator chunks it directly).
    #[inline]
    pub(crate) fn records(&self) -> &'a [EdgeRecord] {
        self.slab.records()
    }
}

/// Inclusion probability `min{1, w/z*}`, with `p = 1` while `z* = 0`.
#[inline]
pub(crate) fn prob(weight: f64, threshold: f64) -> f64 {
    if threshold <= 0.0 {
        1.0
    } else {
        (weight / threshold).min(1.0)
    }
}

/// The GPS(m) sampler (paper Algorithm 1).
pub struct GpsSampler<W> {
    capacity: usize,
    weight_fn: W,
    slab: Slab,
    heap: MinHeap,
    adj: CompactAdjacency<SlotId>,
    z_star: f64,
    rng: SmallRng,
    arrivals: u64,
    duplicates: u64,
    inserts: u64,
    evictions: u64,
    rejections: u64,
}

/// Always-on sampler counters (plain `u64` fields bumped on the ingest
/// path — cheap enough to never gate). Harvested by the engine layer into
/// `gps-telemetry` registries; every field is a pure function of seed +
/// stream, so the derived metrics are stable-class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SamplerStats {
    /// Total arrivals processed (stream position `t`).
    pub arrivals: u64,
    /// Arrivals skipped as duplicates of sampled edges.
    pub duplicates: u64,
    /// Arrivals admitted to the reservoir (fill inserts + replacements).
    pub inserts: u64,
    /// Sampled edges discarded to make room for a higher priority.
    pub evictions: u64,
    /// Arrivals discarded on arrival (priority at or below the minimum).
    pub rejections: u64,
    /// Lifetime adjacency-pool spill transitions (see
    /// `gps_graph::CompactAdjacency::spill_count`).
    pub slab_spills: u64,
}

impl<W: EdgeWeight> GpsSampler<W> {
    /// Creates a sampler with reservoir capacity `m`, a weight function and
    /// a deterministic RNG seed.
    ///
    /// ```
    /// use gps_core::{GpsSampler, TriangleWeight};
    /// use gps_graph::Edge;
    ///
    /// let mut sampler = GpsSampler::new(100, TriangleWeight::default(), 42);
    /// sampler.process_stream([Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)]);
    /// assert_eq!(sampler.len(), 3);
    /// // Capacity exceeds the stream, so nothing was discarded and every
    /// // sampled edge still has inclusion probability 1.
    /// assert_eq!(sampler.inclusion_prob(Edge::new(0, 2)), Some(1.0));
    /// ```
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, weight_fn: W, seed: u64) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        GpsSampler {
            capacity,
            weight_fn,
            slab: Slab::with_capacity(capacity),
            heap: MinHeap::with_capacity(capacity),
            adj: Self::sized_adjacency(capacity),
            z_star: 0.0,
            rng: SmallRng::seed_from_u64(seed),
            arrivals: 0,
            duplicates: 0,
            inserts: 0,
            evictions: 0,
            rejections: 0,
        }
    }

    /// [`GpsSampler::new`], kept for callers that still name the adjacency
    /// representation. [`BackendKind`] has the single variant
    /// [`BackendKind::Compact`], so the argument is ignored; the function
    /// goes once its last caller, the benchmark package, stops using it.
    ///
    /// ```
    /// use gps_core::{GpsSampler, TriangleWeight};
    /// use gps_graph::{BackendKind, Edge};
    ///
    /// let stream: Vec<Edge> = (0..200).map(|i| Edge::new(i, i + 1)).collect();
    /// let mut a = GpsSampler::with_backend(16, TriangleWeight::default(), 7, BackendKind::Compact);
    /// let mut b = GpsSampler::new(16, TriangleWeight::default(), 7);
    /// a.process_stream(stream.iter().copied());
    /// b.process_stream(stream.iter().copied());
    /// assert_eq!(a.threshold(), b.threshold());
    /// ```
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn with_backend(capacity: usize, weight_fn: W, seed: u64, _backend: BackendKind) -> Self {
        Self::new(capacity, weight_fn, seed)
    }

    /// Adjacency pre-sized for the most it ever holds: `capacity + 1`
    /// edges, because a replacement inserts the arriving edge before it
    /// removes the evicted one (the slab and heap never exceed `capacity`),
    /// hence at most `2 * (capacity + 1)` incident nodes. That bound sizes
    /// the slot table, spill pool and presence filter; the node-interning
    /// index is not pre-sized: it grows with the nodes actually sampled.
    fn sized_adjacency(capacity: usize) -> CompactAdjacency<SlotId> {
        CompactAdjacency::with_capacity(2 * (capacity + 1), capacity + 1)
    }

    /// Restores a sampler from a previously saved sample state (see
    /// `gps_core::persist`): the sampled edges with their original weights
    /// and priorities, plus the threshold `z*` and the stream position.
    ///
    /// Post-stream estimation on the restored sampler is *identical* to
    /// estimation on the original. The RNG restarts from `seed`, so if the
    /// restored sampler keeps consuming the stream, its future `u(k)` draws
    /// are fresh — statistically equivalent (they are IID) but not
    /// bit-identical to the original process continuing.
    ///
    /// # Panics
    /// Panics if `capacity == 0`, more than `capacity` edges are supplied,
    /// a duplicate edge is supplied, or a weight/priority is not finite and
    /// positive. A section loaded through `gps_core::persist` never
    /// panics here: the loader rejects all of these as a `PersistError`.
    pub fn restore<I>(
        capacity: usize,
        weight_fn: W,
        seed: u64,
        threshold: f64,
        arrivals: u64,
        records: I,
    ) -> Self
    where
        I: IntoIterator<Item = (Edge, f64, f64)>,
    {
        assert!(capacity > 0, "reservoir capacity must be positive");
        assert!(
            threshold >= 0.0 && threshold.is_finite(),
            "invalid threshold {threshold}"
        );
        let mut sampler = GpsSampler {
            capacity,
            weight_fn,
            slab: Slab::with_capacity(capacity),
            heap: MinHeap::with_capacity(capacity),
            adj: Self::sized_adjacency(capacity),
            z_star: threshold,
            rng: SmallRng::seed_from_u64(seed),
            arrivals,
            duplicates: 0,
            inserts: 0,
            evictions: 0,
            rejections: 0,
        };
        for (edge, weight, priority) in records {
            assert!(
                weight.is_finite() && weight > 0.0 && priority > 0.0,
                "invalid record for {edge}: weight {weight}, priority {priority}"
            );
            assert!(
                !sampler.adj.contains(edge),
                "duplicate edge {edge} in restored sample"
            );
            let slot = sampler.slab.push(EdgeRecord::new(edge, weight, priority));
            let (_, hints) = sampler.adj.insert_with_hints(edge, slot);
            sampler.slab.get_mut(slot).hints = hints;
            sampler.heap.push(HeapEntry { priority, slot });
            assert!(
                sampler.slab.len() <= capacity,
                "more edges than capacity {capacity}"
            );
        }
        sampler
    }

    /// Processes one stream arrival (procedure `GPSUpdate`).
    pub fn process(&mut self, edge: Edge) -> Arrival {
        self.arrivals += 1;
        // Weight against the sample as the edge finds it (before the
        // provisional insert), per Theorem 1's measurability requirement.
        // The fused call also answers the duplicate check, reusing the
        // endpoint resolutions the weight walk performs anyway; a
        // duplicate's weight is discarded and no uniform draw is consumed,
        // exactly as if the check had run first.
        let view = SampleView {
            slab: &self.slab,
            adj: &self.adj,
            threshold: self.z_star,
        };
        let (weight, duplicate) = self.weight_fn.weight_and_presence(edge, &view);
        if duplicate {
            self.duplicates += 1;
            return Arrival::Duplicate;
        }
        assert!(
            weight.is_finite() && weight > 0.0,
            "weight function returned invalid weight {weight} for {edge}"
        );
        // u ∈ (0, 1]: rand yields [0, 1), so 1 - x is in (0, 1].
        let u = 1.0 - self.rng.random::<f64>();
        let priority = weight / u;

        if self.slab.len() < self.capacity {
            let slot = self.slab.push(EdgeRecord::new(edge, weight, priority));
            let (_, hints) = self.adj.insert_with_hints(edge, slot);
            self.slab.get_mut(slot).hints = hints;
            self.heap.push(HeapEntry { priority, slot });
            self.inserts += 1;
            return Arrival::Inserted { weight };
        }

        // Reservoir full: of the m+1 candidates, discard the lowest
        // priority and raise the threshold to it (Alg 1 lines 11–14).
        let current_min = self.heap.peek().expect("full reservoir has a minimum");
        if priority <= current_min.priority {
            self.z_star = self.z_star.max(priority);
            self.rejections += 1;
            return Arrival::Rejected { weight };
        }
        // The arriving edge takes over the evicted edge's slot. The
        // adjacency still gains the new edge before it loses the old one
        // (both entries briefly carry the same slot; removal goes by edge).
        let slot = current_min.slot;
        let (_, hints) = self.adj.insert_with_hints(edge, slot);
        self.heap.replace_min(HeapEntry { priority, slot });
        self.z_star = self.z_star.max(current_min.priority);
        let evicted_record = std::mem::replace(
            self.slab.get_mut(slot),
            EdgeRecord {
                hints,
                ..EdgeRecord::new(edge, weight, priority)
            },
        );
        self.adj
            .remove_hinted(evicted_record.edge, evicted_record.hints);
        self.inserts += 1;
        self.evictions += 1;
        Arrival::Replaced {
            weight,
            evicted: evicted_record.edge,
        }
    }

    /// Feeds every edge of an iterator through [`GpsSampler::process`].
    pub fn process_stream<I: IntoIterator<Item = Edge>>(&mut self, edges: I) {
        for e in edges {
            self.process(e);
        }
    }

    /// Reservoir capacity `m`.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current sample size `|K̂|` (equal to `m` once the stream has produced
    /// at least `m` distinct edges).
    #[inline]
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// True if the sample is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// Current threshold `z*`: the `(m+1)`-st highest priority seen, or 0 if
    /// nothing has been discarded yet.
    #[inline]
    pub fn threshold(&self) -> f64 {
        self.z_star
    }

    /// Total arrivals processed (stream position `t`).
    #[inline]
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Arrivals skipped as duplicates of sampled edges.
    #[inline]
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Always-on ingest counters (see [`SamplerStats`]). Counter fields
    /// restart from zero on [`GpsSampler::restore`] (only `arrivals`
    /// carries the checkpointed stream position), so consumers harvesting
    /// across restarts should track deltas per sampler instance.
    #[inline]
    pub fn stats(&self) -> SamplerStats {
        SamplerStats {
            arrivals: self.arrivals,
            duplicates: self.duplicates,
            inserts: self.inserts,
            evictions: self.evictions,
            rejections: self.rejections,
            slab_spills: self.adj.spill_count(),
        }
    }

    /// Read-only sample view (for estimators and weight functions).
    #[inline]
    pub fn view(&self) -> SampleView<'_> {
        SampleView {
            slab: &self.slab,
            adj: &self.adj,
            threshold: self.z_star,
        }
    }

    /// Whether `edge` is currently sampled.
    #[inline]
    pub fn contains(&self, edge: Edge) -> bool {
        self.adj.contains(edge)
    }

    /// Current HT inclusion probability of a sampled edge (procedure
    /// `GPSNormalize`, paper Alg 1 lines 15–17); `None` if not sampled.
    pub fn inclusion_prob(&self, edge: Edge) -> Option<f64> {
        self.adj
            .get(edge)
            .map(|slot| prob(self.slab.get(slot).weight, self.z_star))
    }

    /// Iterates the sampled edges with their weights, priorities and current
    /// inclusion probabilities.
    pub fn edges(&self) -> impl Iterator<Item = SampledEdge> + '_ {
        self.slab.records().iter().map(move |r| SampledEdge {
            edge: r.edge,
            weight: r.weight,
            priority: r.priority,
            inclusion_prob: prob(r.weight, self.z_star),
        })
    }

    /// Horvitz–Thompson estimator `Ŝ_J = ∏_{i∈J} 1/p(i)` of the subgraph
    /// indicator for an arbitrary edge set `J` (paper Theorem 2): nonzero —
    /// and unbiased for "all of `J` has arrived" — only when every edge of
    /// `J` is in the sample.
    ///
    /// Duplicate edges in `subgraph` are counted once (a subgraph is a set).
    pub fn subgraph_estimate(&self, subgraph: &[Edge]) -> f64 {
        // Motif-sized queries dedup with an allocation-free backward scan;
        // larger edge sets sort instead so the query never goes O(|J|²).
        const SCAN_DEDUP_MAX: usize = 16;
        if subgraph.len() <= SCAN_DEDUP_MAX {
            let mut product = 1.0;
            for (i, &e) in subgraph.iter().enumerate() {
                if subgraph[..i].contains(&e) {
                    continue;
                }
                match self.inclusion_prob(e) {
                    Some(p) => product /= p,
                    None => return 0.0,
                }
            }
            return product;
        }
        let mut edges = subgraph.to_vec();
        edges.sort_unstable();
        edges.dedup();
        let mut product = 1.0;
        for &e in &edges {
            match self.inclusion_prob(e) {
                Some(p) => product /= p,
                None => return 0.0,
            }
        }
        product
    }

    /// In-stream internals: mutable slab (per-edge covariance
    /// accumulators) plus the threshold `z*`.
    pub(crate) fn estimator_parts(&mut self) -> (&mut Slab, f64) {
        (&mut self.slab, self.z_star)
    }

    /// Per-edge covariance accumulators `(C̃_k(△), C̃_k(Λ))`, in the same
    /// slot order as [`GpsSampler::edges`] (all zero unless an
    /// [`crate::InStreamEstimator`] drove this sampler).
    pub(crate) fn covariances(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.slab.records().iter().map(|r| (r.cov_tri, r.cov_wedge))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::{TriangleWeight, UniformWeight};

    fn edges_chain(n: u32) -> Vec<Edge> {
        (0..n).map(|i| Edge::new(i, i + 1)).collect()
    }

    #[test]
    fn fills_then_holds_capacity() {
        let mut s = GpsSampler::new(8, UniformWeight, 3);
        for (i, e) in edges_chain(50).into_iter().enumerate() {
            s.process(e);
            assert!(s.len() <= 8);
            if i < 8 {
                assert_eq!(s.len(), i + 1);
            } else {
                assert_eq!(s.len(), 8, "fixed-size property S1");
            }
        }
        assert_eq!(s.arrivals(), 50);
    }

    #[test]
    fn threshold_is_monotone_and_zero_before_discard() {
        let mut s = GpsSampler::new(4, UniformWeight, 7);
        let mut last = 0.0;
        for (i, e) in edges_chain(100).into_iter().enumerate() {
            s.process(e);
            if i < 4 {
                assert_eq!(s.threshold(), 0.0);
            }
            assert!(s.threshold() >= last, "threshold must be non-decreasing");
            last = s.threshold();
        }
        assert!(last > 0.0);
    }

    #[test]
    fn inclusion_probs_lie_in_unit_interval() {
        let mut s = GpsSampler::new(16, TriangleWeight::default(), 11);
        s.process_stream(gps_stream_like(200));
        for se in s.edges() {
            assert!(se.inclusion_prob > 0.0 && se.inclusion_prob <= 1.0);
            assert_eq!(s.inclusion_prob(se.edge), Some(se.inclusion_prob));
        }
        assert_eq!(s.inclusion_prob(Edge::new(9999, 10000)), None);
    }

    /// A denser synthetic stream with triangles (clique chunks).
    fn gps_stream_like(n: u32) -> Vec<Edge> {
        let mut edges = vec![];
        for base in (0..n).step_by(5) {
            for a in 0..5 {
                for b in (a + 1)..5 {
                    edges.push(Edge::new(base + a, base + b));
                }
            }
        }
        edges
    }

    #[test]
    fn duplicates_are_skipped() {
        let mut s = GpsSampler::new(8, UniformWeight, 5);
        assert!(matches!(
            s.process(Edge::new(1, 2)),
            Arrival::Inserted { .. }
        ));
        assert_eq!(s.process(Edge::new(2, 1)), Arrival::Duplicate);
        assert_eq!(s.len(), 1);
        assert_eq!(s.duplicates(), 1);
    }

    #[test]
    fn same_seed_reproduces_sample_exactly() {
        let stream = gps_stream_like(100);
        let mut a = GpsSampler::new(20, TriangleWeight::default(), 42);
        let mut b = GpsSampler::new(20, TriangleWeight::default(), 42);
        a.process_stream(stream.clone());
        b.process_stream(stream);
        let mut ea: Vec<Edge> = a.edges().map(|s| s.edge).collect();
        let mut eb: Vec<Edge> = b.edges().map(|s| s.edge).collect();
        ea.sort();
        eb.sort();
        assert_eq!(ea, eb);
        assert_eq!(a.threshold(), b.threshold());
    }

    #[test]
    fn different_seeds_differ() {
        let stream = gps_stream_like(100);
        let mut a = GpsSampler::new(10, UniformWeight, 1);
        let mut b = GpsSampler::new(10, UniformWeight, 2);
        a.process_stream(stream.clone());
        b.process_stream(stream);
        let ea: std::collections::BTreeSet<Edge> = a.edges().map(|s| s.edge).collect();
        let eb: std::collections::BTreeSet<Edge> = b.edges().map(|s| s.edge).collect();
        assert_ne!(ea, eb);
    }

    #[test]
    fn full_retention_keeps_probability_one() {
        // Capacity exceeds the stream: z* stays 0, all p = 1, and the
        // subgraph estimator is the exact indicator.
        let mut s = GpsSampler::new(1000, TriangleWeight::default(), 9);
        let tri = [Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)];
        s.process_stream(tri);
        assert_eq!(s.threshold(), 0.0);
        for e in tri {
            assert_eq!(s.inclusion_prob(e), Some(1.0));
        }
        assert_eq!(s.subgraph_estimate(&tri), 1.0);
        assert_eq!(
            s.subgraph_estimate(&[Edge::new(0, 1), Edge::new(5, 6)]),
            0.0
        );
    }

    #[test]
    fn subgraph_estimate_ignores_duplicate_edges() {
        let mut s = GpsSampler::new(10, UniformWeight, 0);
        s.process(Edge::new(0, 1));
        let dup = [Edge::new(0, 1), Edge::new(1, 0)];
        assert_eq!(s.subgraph_estimate(&dup), 1.0);
    }

    #[test]
    fn subgraph_estimate_dedups_large_queries_via_sort_path() {
        // > 16 edges forces the sort+dedup branch; the answer must match
        // the small-query scan branch on the same logical set.
        let mut s = GpsSampler::new(64, UniformWeight, 0);
        let chain: Vec<Edge> = (0..12u32).map(|i| Edge::new(i, i + 1)).collect();
        s.process_stream(chain.iter().copied());
        // 36 entries, every edge three times in both orientations.
        let mut large: Vec<Edge> = Vec::new();
        for &e in &chain {
            large.push(e);
            large.push(Edge::new(e.v(), e.u()));
            large.push(e);
        }
        assert!(large.len() > 16);
        assert_eq!(s.subgraph_estimate(&large), s.subgraph_estimate(&chain));
        // A large query containing an unsampled edge is still 0.
        large.push(Edge::new(100, 101));
        assert_eq!(s.subgraph_estimate(&large), 0.0);
    }

    #[test]
    fn eviction_reports_the_displaced_edge() {
        let mut s = GpsSampler::new(1, UniformWeight, 13);
        s.process(Edge::new(0, 1));
        // Process arrivals until one replaces (priority coin flips).
        let mut replaced = false;
        for i in 2..100u32 {
            match s.process(Edge::new(0, i)) {
                Arrival::Replaced { evicted, .. } => {
                    assert!(!s.contains(evicted));
                    replaced = true;
                    break;
                }
                Arrival::Rejected { .. } => continue,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert!(
            replaced,
            "100 arrivals at capacity 1 should replace at least once"
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        let _ = GpsSampler::new(0, UniformWeight, 0);
    }

    #[test]
    fn view_reflects_sampled_topology() {
        let mut s = GpsSampler::new(100, UniformWeight, 3);
        s.process_stream([
            Edge::new(1, 2),
            Edge::new(2, 3),
            Edge::new(1, 3),
            Edge::new(3, 4),
        ]);
        let v = s.view();
        assert_eq!(v.num_edges(), 4);
        assert_eq!(v.num_nodes(), 4);
        assert_eq!(v.degree(3), 3);
        assert_eq!(v.triangles_closed_by(Edge::new(1, 4)), 1);
        assert_eq!(v.wedges_closed_by(Edge::new(4, 5)), 1);
        // For an edge already in the sample, adjacency excludes itself:
        // partners are (1,3) at node 1 and (2,3) at node 2.
        assert_eq!(v.wedges_closed_by(Edge::new(1, 2)), 2);
        assert!(v.weight_of(Edge::new(1, 2)).is_some());
        assert_eq!(v.weight_of(Edge::new(7, 8)), None);
    }
}
