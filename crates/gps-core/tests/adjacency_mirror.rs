//! The sampler's adjacency against an [`AdjacencyMap`] mirror.
//!
//! Weight functions see the sample only through the topology counts of
//! `SampleView` (triangles and wedges closed, degrees, presence). This
//! suite keeps an `AdjacencyMap` — the reference implementation — in
//! lockstep with the `Arrival` outcomes of `GpsSampler::process` and, before
//! every arrival, checks that the sampler's view answers the fused topology
//! queries exactly as the mirror does. A divergence would change weights,
//! and with them every priority after it. After every arrival it checks
//! that `GpsSampler::edges` lists exactly the mirror's edges, each once.

use gps_core::weights::{EdgeWeight, TriadWeight, TriangleWeight, UniformWeight, WedgeWeight};
use gps_core::{Arrival, GpsSampler, SampleView};
use gps_graph::types::Edge;
use gps_graph::AdjacencyMap;
use gps_stream::{gen, permuted};
use proptest::prelude::*;

/// Random edge stream (duplicates intentionally allowed, so the
/// duplicate-skip path is mirrored too).
fn arb_stream(max_n: u32, max_m: usize) -> impl Strategy<Value = Vec<Edge>> {
    prop::collection::vec((0..max_n, 0..max_n), 1..max_m).prop_map(|pairs| {
        pairs
            .into_iter()
            .filter_map(|(a, b)| Edge::try_new(a, b))
            .collect()
    })
}

/// Asserts `EdgeWeight`'s documented contract for every built-in weight:
/// `weight_and_presence(e, view) == (weight(e, view), view.contains(e))`.
fn assert_weight_contract(view: &SampleView<'_>, e: Edge) {
    fn check<W: EdgeWeight>(weight_fn: W, view: &SampleView<'_>, e: Edge) {
        assert_eq!(
            weight_fn.weight_and_presence(e, view),
            (weight_fn.weight(e, view), view.contains(e)),
            "weight_and_presence of {e} under {}",
            std::any::type_name::<W>()
        );
    }
    check(UniformWeight, view, e);
    check(TriangleWeight::default(), view, e);
    check(WedgeWeight::default(), view, e);
    check(TriadWeight::default(), view, e);
}

/// Streams `stream` through a sampler and its mirror, asserting equal
/// topology answers and the weight contract before each arrival and equal
/// edge sets after it.
fn assert_mirrors<W: EdgeWeight>(stream: &[Edge], capacity: usize, weight_fn: W, seed: u64) {
    let mut sampler = GpsSampler::new(capacity, weight_fn, seed);
    let mut mirror: AdjacencyMap<()> = AdjacencyMap::new();
    // The mirror's edges in the sampler's slot order: slots fill in
    // arrival order, and an admitted edge takes its evictee's slot.
    let mut by_slot: Vec<Edge> = Vec::with_capacity(capacity);
    for (i, &e) in stream.iter().enumerate() {
        let (u, v) = e.endpoints();
        let view = sampler.view();
        assert_eq!(
            view.triad_counts_raw(e),
            mirror.triad_counts(u, v),
            "triad counts diverged before arrival {i} ({e})"
        );
        assert_eq!(
            view.triangle_closure_raw(e),
            mirror.triangle_closure_counts(u, v)
        );
        assert_weight_contract(&view, e);
        match sampler.process(e) {
            Arrival::Duplicate => assert!(mirror.contains(e), "duplicate of unsampled {e}"),
            Arrival::Inserted { .. } => {
                assert_eq!(mirror.insert(e, ()), None);
                by_slot.push(e);
            }
            Arrival::Replaced { evicted, .. } => {
                assert_eq!(mirror.insert(e, ()), None);
                assert_eq!(
                    mirror.remove(evicted),
                    Some(()),
                    "evicted unsampled {evicted}"
                );
                let slot = by_slot.iter().position(|&x| x == evicted).unwrap();
                by_slot[slot] = e;
            }
            Arrival::Rejected { .. } => {}
        }
        assert_eq!(sampler.len(), mirror.num_edges());
        // The sampler reads each sampled edge's ids back from its endpoint
        // slots: the list must be the mirror's edges, each once, in slot
        // order.
        assert!(
            sampler.edges().map(|s| s.edge).eq(by_slot.iter().copied()),
            "reservoir and mirror hold different edges after arrival {i} ({e})"
        );
    }
    let mut mirrored: Vec<Edge> = mirror.edges().map(|(e, ())| e).collect();
    mirrored.sort_unstable();
    by_slot.sort_unstable();
    assert_eq!(
        by_slot, mirrored,
        "reservoir and mirror hold different edges"
    );
}

proptest! {
    #[test]
    fn triangle_weight_sampler_tracks_oracle(
        stream in arb_stream(24, 400),
        capacity in 1usize..64,
        seed in any::<u64>(),
    ) {
        assert_mirrors(&stream, capacity, TriangleWeight::default(), seed);
    }

    #[test]
    fn triad_weight_sampler_tracks_oracle(
        stream in arb_stream(16, 250),
        capacity in 1usize..32,
        seed in any::<u64>(),
    ) {
        assert_mirrors(&stream, capacity, TriadWeight::default(), seed);
    }

    #[test]
    fn uniform_and_wedge_weight_samplers_track_oracle(
        stream in arb_stream(32, 300),
        capacity in 1usize..48,
        seed in any::<u64>(),
    ) {
        assert_mirrors(&stream, capacity, UniformWeight, seed);
        assert_mirrors(&stream, capacity, WedgeWeight::default(), seed);
    }
}

#[test]
fn holme_kim_stream_tracks_oracle_at_scale() {
    // A clustered stream large enough to force evictions, node slot reuse,
    // spill-block churn and the binary-search intersection arm.
    let edges = permuted(&gen::holme_kim(3_000, 4, 0.6, 11), 5);
    assert!(edges.len() > 10_000);
    assert_mirrors(&edges, 1_500, TriangleWeight::default(), 42);
}

#[test]
fn rmat_stream_tracks_oracle_with_hubs() {
    // R-MAT's skewed degrees produce hubs whose sampled degree blows past
    // every inline/linear-probe threshold.
    let edges = permuted(&gen::rmat(12, 20_000, gen::RmatParams::social(), 3), 9);
    assert_mirrors(&edges, 2_000, TriangleWeight::default(), 7);
}
