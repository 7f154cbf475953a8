//! Property: a corrupted engine snapshot NEVER restores silently wrong —
//! and with the container checksum, never restores at all.
//!
//! `ShardedGps::save` writes a `crc` header (FNV-1a over the canonical
//! header values and the raw section bytes), so for any saved engine —
//! plain (`gps-sample v1` sections) or estimating (`v2` sections with
//! in-stream accumulators) — every strict-prefix truncation and every
//! single bit flip must surface as a `PersistError` from `load_engine`.
//! No panic, no `Ok` carrying different state.

use gps_core::weights::TriangleWeight;
use gps_engine::{load_engine, EngineConfig, Estimation, Launch, ShardedGps};
use gps_graph::types::Edge;
use proptest::prelude::*;

fn arb_stream(max_n: u32, max_m: usize) -> impl Strategy<Value = Vec<Edge>> {
    prop::collection::vec((0..max_n, 0..max_n), 1..max_m).prop_map(|pairs| {
        pairs
            .into_iter()
            .filter_map(|(a, b)| Edge::try_new(a, b))
            .collect()
    })
}

/// Saved bytes of an engine over `stream`; estimating mode writes the v2
/// sections (accumulators + per-edge covariances) that must be covered by
/// the same corruption guarantees as v1.
fn saved_bytes(stream: &[Edge], capacity: usize, shards: usize, seed: u64, live: bool) -> Vec<u8> {
    let cfg = EngineConfig::new(capacity, shards, seed);
    let estimation = if live {
        Estimation::InStream(None)
    } else {
        Estimation::PostStream
    };
    let launch = Launch {
        estimation,
        ..Launch::default()
    };
    let mut engine = ShardedGps::launch(cfg, TriangleWeight::default(), launch);
    engine.push_stream(stream.iter().copied());
    let mut buf = Vec::new();
    engine.save(&mut buf).expect("saving to a Vec cannot fail");
    buf
}

proptest! {
    #[test]
    fn truncated_snapshots_always_error(
        stream in arb_stream(48, 120),
        capacity in 4usize..24,
        seed in 0u64..1000,
        live in any::<bool>(),
        cut in 0.0f64..1.0,
    ) {
        let shards = 1 + (seed % 3) as usize;
        let capacity = capacity.max(shards);
        let bytes = saved_bytes(&stream, capacity, shards, seed, live);
        // Any strict prefix — down to the empty file — must error.
        let len = (bytes.len() as f64 * cut) as usize; // < len since cut < 1
        prop_assert!(
            load_engine(&bytes[..len]).is_err(),
            "truncation to {len}/{} bytes must not load",
            bytes.len()
        );
    }

    #[test]
    fn bit_flipped_snapshots_always_error(
        stream in arb_stream(48, 120),
        capacity in 4usize..24,
        seed in 0u64..1000,
        live in any::<bool>(),
        pos in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let shards = 1 + (seed % 3) as usize;
        let capacity = capacity.max(shards);
        let mut bytes = saved_bytes(&stream, capacity, shards, seed, live);
        let idx = ((bytes.len() as f64 * pos) as usize).min(bytes.len() - 1);
        bytes[idx] ^= 1 << bit;
        prop_assert!(
            load_engine(bytes.as_slice()).is_err(),
            "flipping bit {bit} of byte {idx} must not load"
        );
    }

    #[test]
    fn intact_snapshots_always_load(
        stream in arb_stream(48, 120),
        capacity in 4usize..24,
        seed in 0u64..1000,
        live in any::<bool>(),
    ) {
        let shards = 1 + (seed % 3) as usize;
        let capacity = capacity.max(shards);
        let bytes = saved_bytes(&stream, capacity, shards, seed, live);
        let saved = load_engine(bytes.as_slice()).expect("uncorrupted snapshot");
        prop_assert_eq!(saved.shards.len(), shards);
        prop_assert!(saved.shards.iter().all(|s| s.totals.is_some() == live));
    }
}
