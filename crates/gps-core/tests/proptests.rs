//! Property-based tests for the GPS core.

use gps_core::weights::{TriangleWeight, UniformWeight};
use gps_core::{heap, post_stream, GpsSampler, InStreamEstimator};
use gps_graph::csr::CsrGraph;
use gps_graph::exact;
use gps_graph::types::Edge;
use proptest::prelude::*;

/// Random simple edge list over up to `max_n` nodes.
fn arb_edges(max_n: u32, max_m: usize) -> impl Strategy<Value = Vec<Edge>> {
    prop::collection::vec((0..max_n, 0..max_n), 1..max_m).prop_map(|pairs| {
        let mut seen = std::collections::HashSet::new();
        pairs
            .into_iter()
            .filter_map(|(a, b)| Edge::try_new(a, b))
            .filter(|e| seen.insert(e.key()))
            .collect()
    })
}

/// The array-of-structs 4-ary heap `MinHeap` was before its priorities and
/// slots moved to separate arrays, kept verbatim as the oracle for
/// `heap_matches_the_array_of_structs_oracle`: same comparisons, same swaps.
#[derive(Default)]
struct AosHeap {
    entries: Vec<heap::HeapEntry>,
}

impl AosHeap {
    const ARITY: usize = 4;

    fn peek(&self) -> Option<heap::HeapEntry> {
        self.entries.first().copied()
    }

    fn push(&mut self, entry: heap::HeapEntry) {
        self.entries.push(entry);
        self.sift_up(self.entries.len() - 1);
    }

    fn pop(&mut self) -> Option<heap::HeapEntry> {
        let n = self.entries.len();
        if n == 0 {
            return None;
        }
        self.entries.swap(0, n - 1);
        let min = self.entries.pop();
        if !self.entries.is_empty() {
            self.sift_down(0);
        }
        min
    }

    fn replace_min(&mut self, entry: heap::HeapEntry) -> Option<heap::HeapEntry> {
        if self.entries.is_empty() {
            self.push(entry);
            return None;
        }
        let old = self.entries[0];
        self.entries[0] = entry;
        self.sift_down(0);
        Some(old)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / Self::ARITY;
            if self.entries[i].priority < self.entries[parent].priority {
                self.entries.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.entries.len();
        loop {
            let first = Self::ARITY * i + 1;
            if first >= n {
                break;
            }
            let last = (first + Self::ARITY).min(n);
            let mut smallest = i;
            for child in first..last {
                if self.entries[child].priority < self.entries[smallest].priority {
                    smallest = child;
                }
            }
            if smallest == i {
                break;
            }
            self.entries.swap(i, smallest);
            i = smallest;
        }
    }
}

/// Priorities the heap oracle test draws from: few enough that ties are
/// common, with both zeros (equal, different bits) and both infinities.
const TIE_PRIORITIES: [f64; 8] = [
    f64::NEG_INFINITY,
    -1.5,
    -0.0,
    0.0,
    0.25,
    1.0,
    7.0,
    f64::INFINITY,
];

/// An entry's exact identity: priority bits and slot.
fn entry_bits(e: Option<heap::HeapEntry>) -> Option<(u64, u32)> {
    e.map(|e| (e.priority.to_bits(), e.slot))
}

proptest! {
    #[test]
    fn heap_pops_sorted(priorities in prop::collection::vec(0.0f64..1e12, 0..200)) {
        let mut h = heap::MinHeap::new();
        for (i, &p) in priorities.iter().enumerate() {
            h.push(heap::HeapEntry { priority: p, slot: i as u32 });
            prop_assert!(h.check_invariant());
        }
        let mut out = vec![];
        while let Some(e) = h.pop() {
            out.push(e.priority);
        }
        let mut expect = priorities.clone();
        expect.sort_by(f64::total_cmp);
        prop_assert_eq!(out, expect);
    }

    #[test]
    fn heap_matches_the_array_of_structs_oracle(
        ops in prop::collection::vec((0u8..8, 0usize..TIE_PRIORITIES.len()), 0..400),
    ) {
        // Pushes outnumber pops so the heap grows several levels deep;
        // replace_min is the sampler's eviction path.
        let mut h = heap::MinHeap::new();
        let mut oracle = AosHeap::default();
        for (step, &(kind, p)) in ops.iter().enumerate() {
            let entry = heap::HeapEntry { priority: TIE_PRIORITIES[p], slot: step as u32 };
            match kind {
                0..=3 => {
                    h.push(entry);
                    oracle.push(entry);
                }
                4 | 5 => prop_assert_eq!(
                    entry_bits(h.replace_min(entry)),
                    entry_bits(oracle.replace_min(entry)),
                    "replace_min at step {}", step
                ),
                _ => prop_assert_eq!(
                    entry_bits(h.pop()),
                    entry_bits(oracle.pop()),
                    "pop at step {}", step
                ),
            }
            prop_assert_eq!(h.len(), oracle.entries.len());
            prop_assert_eq!(entry_bits(h.peek()), entry_bits(oracle.peek()), "peek after step {}", step);
            prop_assert!(h.check_invariant());
        }
        let drained: Vec<_> = std::iter::from_fn(|| h.pop()).map(|e| entry_bits(Some(e))).collect();
        let expected: Vec<_> = std::iter::from_fn(|| oracle.pop()).map(|e| entry_bits(Some(e))).collect();
        prop_assert_eq!(drained, expected);
    }

    #[test]
    fn reservoir_respects_capacity_and_threshold_monotonicity(
        edges in arb_edges(64, 300),
        capacity in 1usize..32,
        seed in any::<u64>(),
    ) {
        let mut s = GpsSampler::new(capacity, TriangleWeight::default(), seed);
        let mut last_z = 0.0;
        for (i, &e) in edges.iter().enumerate() {
            s.process(e);
            prop_assert!(s.len() <= capacity);
            prop_assert!(s.len() <= i + 1);
            prop_assert!(s.threshold() >= last_z, "threshold must be monotone");
            last_z = s.threshold();
        }
        // Fixed-size property S1: once enough distinct edges arrived, the
        // sample is exactly at capacity.
        if edges.len() >= capacity {
            prop_assert_eq!(s.len(), capacity);
        }
        // All inclusion probabilities in (0, 1].
        for se in s.edges() {
            prop_assert!(se.inclusion_prob > 0.0 && se.inclusion_prob <= 1.0);
        }
    }

    #[test]
    fn full_retention_post_stream_matches_exact_counts(edges in arb_edges(40, 120)) {
        // Capacity ≥ stream length: nothing discarded, z* = 0, so the
        // estimates must equal the exact subgraph counts of the streamed
        // graph — for ANY input graph.
        let mut s = GpsSampler::new(edges.len() + 1, TriangleWeight::default(), 7);
        s.process_stream(edges.iter().copied());
        let est = post_stream::estimate(&s);
        let g = CsrGraph::from_edges(&edges);
        let t = exact::triangle_count(&g) as f64;
        let w = exact::wedge_count(&g) as f64;
        prop_assert!((est.triangles.value - t).abs() < 1e-9 * (1.0 + t));
        prop_assert!((est.wedges.value - w).abs() < 1e-9 * (1.0 + w));
        prop_assert_eq!(est.triangles.variance, 0.0);
        prop_assert_eq!(est.wedges.variance, 0.0);
    }

    #[test]
    fn full_retention_in_stream_matches_exact_counts(
        edges in arb_edges(40, 120),
        seed in any::<u64>(),
    ) {
        let mut est = InStreamEstimator::new(edges.len() + 1, TriangleWeight::default(), seed);
        est.process_stream(edges.iter().copied());
        let g = CsrGraph::from_edges(&edges);
        let t = exact::triangle_count(&g) as f64;
        let w = exact::wedge_count(&g) as f64;
        prop_assert!((est.triangle_count() - t).abs() < 1e-9 * (1.0 + t));
        prop_assert!((est.wedge_count() - w).abs() < 1e-9 * (1.0 + w));
    }

    #[test]
    fn in_stream_sample_identical_to_bare_sampler(
        edges in arb_edges(48, 200),
        capacity in 2usize..24,
        seed in any::<u64>(),
    ) {
        let mut bare = GpsSampler::new(capacity, TriangleWeight::default(), seed);
        bare.process_stream(edges.iter().copied());
        let mut wrapped = InStreamEstimator::new(capacity, TriangleWeight::default(), seed);
        wrapped.process_stream(edges.iter().copied());
        let mut a: Vec<Edge> = bare.edges().map(|s| s.edge).collect();
        let mut b: Vec<Edge> = wrapped.sampler().edges().map(|s| s.edge).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
        prop_assert_eq!(bare.threshold(), wrapped.sampler().threshold());
    }

    #[test]
    fn variance_estimates_are_nonnegative(
        edges in arb_edges(48, 250),
        capacity in 4usize..24,
        seed in any::<u64>(),
    ) {
        let mut wrapped = InStreamEstimator::new(capacity, TriangleWeight::default(), seed);
        wrapped.process_stream(edges.iter().copied());
        let e_in = wrapped.estimates();
        prop_assert!(e_in.triangles.variance >= 0.0);
        prop_assert!(e_in.wedges.variance >= 0.0);
        prop_assert!(e_in.tri_wedge_cov >= 0.0);
        let e_post = post_stream::estimate(wrapped.sampler());
        prop_assert!(e_post.triangles.variance >= 0.0);
        prop_assert!(e_post.wedges.variance >= 0.0);
        prop_assert!(e_post.tri_wedge_cov >= 0.0);
    }

    #[test]
    fn subgraph_estimate_is_product_of_inverse_probs(
        edges in arb_edges(32, 100),
        seed in any::<u64>(),
    ) {
        let mut s = GpsSampler::new(16, UniformWeight, seed);
        s.process_stream(edges.iter().copied());
        let sampled: Vec<Edge> = s.edges().map(|e| e.edge).collect();
        if sampled.len() >= 2 {
            let subgraph = [sampled[0], sampled[1]];
            let expect = 1.0 / s.inclusion_prob(sampled[0]).unwrap()
                / s.inclusion_prob(sampled[1]).unwrap();
            prop_assert!((s.subgraph_estimate(&subgraph) - expect).abs() < 1e-12);
        }
        // A subgraph containing an unsampled edge estimates 0.
        let absent = Edge::new(9999, 10000);
        prop_assert_eq!(s.subgraph_estimate(&[absent]), 0.0);
    }

    #[test]
    fn parallel_post_stream_agrees_with_serial(
        edges in arb_edges(64, 400),
        seed in any::<u64>(),
    ) {
        let mut s = GpsSampler::new(2048, TriangleWeight::default(), seed);
        s.process_stream(edges.iter().copied());
        let a = post_stream::estimate(&s);
        let b = post_stream::estimate_with_threads(&s, 3);
        prop_assert!((a.triangles.value - b.triangles.value).abs() < 1e-6 * (1.0 + a.triangles.value));
        prop_assert!((a.wedges.value - b.wedges.value).abs() < 1e-6 * (1.0 + a.wedges.value));
    }
}

proptest! {
    #[test]
    fn persist_round_trip_preserves_estimates(
        edges in arb_edges(48, 200),
        capacity in 4usize..32,
        seed in any::<u64>(),
    ) {
        use gps_core::persist;
        let mut sampler = GpsSampler::new(capacity, TriangleWeight::default(), seed);
        sampler.process_stream(edges.iter().copied());
        let before = post_stream::estimate(&sampler);

        let mut buf = Vec::new();
        persist::save(&sampler, &mut buf).unwrap();
        let restored = persist::load(buf.as_slice()).unwrap().into_sampler(UniformWeight, 0);
        prop_assert_eq!(restored.len(), sampler.len());
        prop_assert_eq!(restored.threshold(), sampler.threshold());
        // Adjacency hash maps may iterate neighbors in a different order
        // after the rebuild, permuting float summation: allow 1-ULP-scale
        // relative error.
        let after = post_stream::estimate(&restored);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * (1.0 + a.abs().max(b.abs()));
        prop_assert!(close(before.triangles.value, after.triangles.value));
        prop_assert!(close(before.wedges.value, after.wedges.value));
        prop_assert!(close(before.triangles.variance, after.triangles.variance));
    }

    #[test]
    fn persist_save_load_save_is_byte_identical(
        edges in arb_edges(48, 300),
        capacity in 1usize..40,
        seed in any::<u64>(),
        cut in 0.0f64..1.0,
    ) {
        use gps_core::persist;
        // Cut the stream anywhere: before the reservoir fills, right at it,
        // or deep into evictions.
        let cut = ((cut * (edges.len() + 1) as f64) as usize).min(edges.len());
        let mut est = InStreamEstimator::new(capacity, TriangleWeight::default(), seed);
        est.process_stream(edges[..cut].iter().copied());
        let totals = est.totals();

        // v1: sample only.
        let mut first = Vec::new();
        persist::save(est.sampler(), &mut first).unwrap();
        let restored = persist::load(first.as_slice()).unwrap().into_sampler(UniformWeight, 0);
        let mut second = Vec::new();
        persist::save(&restored, &mut second).unwrap();
        prop_assert_eq!(&first, &second, "v1 section moved through load and restore");

        // v2: sample plus the in-stream accumulators, restored exactly.
        let mut first = Vec::new();
        persist::save_with_totals(est.sampler(), &totals, &mut first).unwrap();
        let saved = persist::load(first.as_slice()).unwrap();
        prop_assert_eq!(saved.totals, Some(totals));
        let resumed = InStreamEstimator::resume(saved.into_sampler(UniformWeight, 0), totals);
        let mut second = Vec::new();
        persist::save_with_totals(resumed.sampler(), &resumed.totals(), &mut second).unwrap();
        prop_assert_eq!(&first, &second, "v2 section moved through load and restore");
    }

    #[test]
    fn local_counts_sum_to_three_times_global(
        edges in arb_edges(32, 150),
        capacity in 4usize..32,
        seed in any::<u64>(),
    ) {
        use gps_core::local::LocalTriangleCounter;
        let mut counter = LocalTriangleCounter::new(capacity, TriangleWeight::default(), seed);
        counter.process_stream(edges.iter().copied());
        // Each snapshot credits exactly three corners, so Σ local = 3·global.
        let local_sum: f64 = counter.top_k(usize::MAX).iter().map(|(_, c)| c).sum();
        prop_assert!((local_sum - 3.0 * counter.global_count()).abs()
            < 1e-9 * (1.0 + local_sum));
    }
}
