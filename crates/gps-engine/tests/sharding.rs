//! Structural equivalence properties of the sharded engine.
//!
//! The anchor property: an `S = 1` engine is a plumbing-only wrapper —
//! shard 0 runs on the engine seed with the full budget and receives the
//! stream in order, so its reservoir, threshold and estimates must be
//! **bit-identical** to a bare `GpsSampler` fed the same stream. Everything
//! the engine adds (batching, channels, worker threads, merge/rescale with
//! `S = 1` factors of 1) must be invisible.

use gps_core::weights::{EdgeWeight, TriangleWeight, UniformWeight};
use gps_core::{post_stream, GpsSampler};
use gps_engine::{EngineConfig, Launch, ShardedGps};
use gps_graph::types::Edge;
use proptest::prelude::*;

/// Random edge stream (duplicates intentionally allowed: the duplicate
/// routing invariant must hold through the partition).
fn arb_stream(max_n: u32, max_m: usize) -> impl Strategy<Value = Vec<Edge>> {
    prop::collection::vec((0..max_n, 0..max_n), 1..max_m).prop_map(|pairs| {
        pairs
            .into_iter()
            .filter_map(|(a, b)| Edge::try_new(a, b))
            .collect()
    })
}

fn assert_single_shard_matches_bare<W: EdgeWeight + Clone + Send + 'static>(
    stream: &[Edge],
    capacity: usize,
    weight_fn: W,
    seed: u64,
    batch: usize,
) {
    let mut bare = GpsSampler::new(capacity, weight_fn.clone(), seed);
    bare.process_stream(stream.iter().copied());

    let cfg = EngineConfig {
        batch,
        ..EngineConfig::new(capacity, 1, seed)
    };
    let mut engine = ShardedGps::launch(cfg, weight_fn, Launch::default());
    engine.push_stream(stream.iter().copied());
    let engine_est = engine.estimate();
    let shard = &engine.samplers()[0];

    assert_eq!(shard.threshold().to_bits(), bare.threshold().to_bits());
    assert_eq!(shard.arrivals(), bare.arrivals());
    assert_eq!(shard.duplicates(), bare.duplicates());
    let mut a: Vec<_> = bare
        .edges()
        .map(|s| (s.edge, s.weight.to_bits(), s.priority.to_bits()))
        .collect();
    let mut b: Vec<_> = shard
        .edges()
        .map(|s| (s.edge, s.weight.to_bits(), s.priority.to_bits()))
        .collect();
    a.sort();
    b.sort();
    assert_eq!(a, b, "S=1 reservoir must be bit-identical");

    // The merged estimate path (strata sum of one stratum, rescale by 1)
    // must also be bit-identical to plain post-stream estimation.
    let bare_est = post_stream::estimate(&bare);
    assert_eq!(
        engine_est.triangles.value.to_bits(),
        bare_est.triangles.value.to_bits()
    );
    assert_eq!(
        engine_est.triangles.variance.to_bits(),
        bare_est.triangles.variance.to_bits()
    );
    assert_eq!(
        engine_est.wedges.value.to_bits(),
        bare_est.wedges.value.to_bits()
    );
    assert_eq!(
        engine_est.wedges.variance.to_bits(),
        bare_est.wedges.variance.to_bits()
    );
    assert_eq!(
        engine_est.tri_wedge_cov.to_bits(),
        bare_est.tri_wedge_cov.to_bits()
    );
    assert_eq!(
        engine_est.clustering.value.to_bits(),
        bare_est.clustering.value.to_bits()
    );
}

proptest! {
    #[test]
    fn single_shard_engine_is_bit_identical_to_bare_sampler_triangle(
        stream in arb_stream(24, 300),
        capacity in 1usize..48,
        seed in any::<u64>(),
    ) {
        assert_single_shard_matches_bare(&stream, capacity, TriangleWeight::default(), seed, 64);
    }

    #[test]
    fn single_shard_engine_is_bit_identical_to_bare_sampler_uniform(
        stream in arb_stream(32, 300),
        capacity in 1usize..48,
        seed in any::<u64>(),
        batch in 1usize..128,
    ) {
        // Batch size must be invisible too.
        assert_single_shard_matches_bare(&stream, capacity, UniformWeight, seed, batch);
    }

    #[test]
    fn sharded_run_is_deterministic_in_the_engine_seed(
        stream in arb_stream(40, 400),
        seed in any::<u64>(),
        shards in 1usize..6,
    ) {
        let capacity = 16 * shards;
        let run = |batch: usize| {
            let cfg = EngineConfig { batch, ..EngineConfig::new(capacity, shards, seed) };
            let mut engine = ShardedGps::launch(cfg, TriangleWeight::default(), Launch::default());
            engine.push_stream(stream.iter().copied());
            let est = engine.estimate();
            let mut edges: Vec<(usize, Edge)> = engine
                .samplers()
                .iter()
                .enumerate()
                .flat_map(|(i, s)| s.edges().map(move |se| (i, se.edge)).collect::<Vec<_>>())
                .collect();
            edges.sort();
            (est.triangles.value.to_bits(), est.wedges.value.to_bits(), edges)
        };
        // Same seed, different batching: identical samples and estimates.
        prop_assert_eq!(run(1024), run(7));
    }

    #[test]
    fn every_shard_respects_its_budget_and_owns_its_color(
        stream in arb_stream(64, 600),
        seed in any::<u64>(),
        shards in 2usize..5,
    ) {
        let capacity = 8 * shards;
        let mut engine = ShardedGps::new(capacity, UniformWeight, seed, shards);
        engine.push_stream(stream.iter().copied());
        engine.finish();
        let partitioner = *engine.partitioner();
        for (i, sampler) in engine.samplers().iter().enumerate() {
            prop_assert!(sampler.len() <= sampler.capacity());
            for se in sampler.edges() {
                prop_assert_eq!(
                    partitioner.shard_of(se.edge), i,
                    "edge {} sampled by shard {} but colored {}",
                    se.edge, i, partitioner.shard_of(se.edge)
                );
            }
        }
    }
}
