//! Byte-exact pins of the persisted forms of one seeded in-stream run.
//!
//! The in-memory shape of saved and restored state may change, but what
//! reaches disk may not: the `gps-sample v1` and `v2` sections of a
//! single estimator, the `gps-engine v1` container of a two-shard
//! in-stream engine, and the in-stream estimates that engine resumes to
//! after a save → load → resume round trip. Each pin is an FNV-1a digest
//! plus the byte length, so a mismatch says which form moved.

use gps_core::persist;
use gps_core::{InStreamEstimator, TriadEstimates, TriangleWeight};
use gps_engine::{load_engine, EngineConfig, Estimation, Launch, ShardedGps};
use gps_stream::gen;

/// FNV-1a (64-bit) over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a over the estimate fields' bits, as little-endian `u64`s.
fn estimate_digest(e: &TriadEstimates) -> u64 {
    let fields = [
        e.triangles.value,
        e.triangles.variance,
        e.wedges.value,
        e.wedges.variance,
        e.tri_wedge_cov,
        e.clustering.value,
        e.clustering.variance,
    ];
    let bytes: Vec<u8> = fields
        .iter()
        .flat_map(|x| x.to_bits().to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

const CAPACITY: usize = 2_000;

fn stream() -> Vec<gps_graph::types::Edge> {
    gen::holme_kim(20_000, 4, 0.5, 1)
}

#[test]
fn sample_sections_are_pinned() {
    let mut est = InStreamEstimator::new(CAPACITY, TriangleWeight::default(), 1);
    est.process_stream(stream());

    let mut v1 = Vec::new();
    persist::save(est.sampler(), &mut v1).unwrap();
    let mut v2 = Vec::new();
    persist::save_with_totals(est.sampler(), &est.totals(), &mut v2).unwrap();

    assert_eq!(
        (v1.len(), fnv1a(&v1)),
        (59_986, 0xc119_c437_ac9e_d567),
        "v1 section"
    );
    assert_eq!(
        (v2.len(), fnv1a(&v2)),
        (101_775, 0x5adc_5986_b97d_ba8a),
        "v2 section"
    );
}

#[test]
fn engine_container_and_resumed_estimates_are_pinned() {
    let cfg = EngineConfig::new(CAPACITY, 2, 7);
    let launch = Launch {
        estimation: Estimation::InStream(None),
        ..Launch::default()
    };
    let mut engine = ShardedGps::launch(cfg, TriangleWeight::default(), launch);
    engine.push_stream(stream());
    let original = engine.estimate_in_stream();
    let mut container = Vec::new();
    engine.save(&mut container).unwrap();
    assert_eq!(
        (container.len(), fnv1a(&container)),
        (99_225, 0x5424_5eab_46d6_5f3e),
        "engine container"
    );

    let launch = Launch {
        estimation: Estimation::InStream(None),
        resume: Some(load_engine(container.as_slice()).unwrap()),
        ..Launch::default()
    };
    let mut resumed = ShardedGps::launch(cfg, TriangleWeight::default(), launch);
    let again = resumed.estimate_in_stream();
    assert_eq!(estimate_digest(&again), estimate_digest(&original));
    assert_eq!(
        estimate_digest(&again),
        0x8a67_6939_28d2_699b,
        "resumed in-stream estimates"
    );
}
