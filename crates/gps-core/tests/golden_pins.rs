//! Bit-exact pins of one seeded in-stream run.
//!
//! The sampler's storage layout (slab slots, adjacency slots and blocks)
//! may change, but what it computes may not: the sample, its weights and
//! priorities, the threshold `z*`, and the in-stream (Algorithm 3)
//! estimates, whose summation order follows the adjacency's neighbor
//! order. The values below were recorded before the 24-byte node slot
//! and the dense slab went in, and must stay bit-identical.

use gps_core::{InStreamEstimator, TriangleWeight};
use gps_graph::types::Edge;
use gps_stream::gen;

/// FNV-1a over the sample sorted by edge: `u`, `v` as little-endian
/// `u32`s, then the weight and priority bits as little-endian `u64`s.
fn sample_digest(mut sample: Vec<(Edge, f64, f64)>) -> u64 {
    sample.sort_by_key(|s| s.0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (e, w, p) in sample {
        let bytes = e
            .u()
            .to_le_bytes()
            .into_iter()
            .chain(e.v().to_le_bytes())
            .chain(w.to_bits().to_le_bytes())
            .chain(p.to_bits().to_le_bytes());
        for b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn holme_kim_in_stream_run_is_pinned() {
    let mut est = InStreamEstimator::new(2000, TriangleWeight::default(), 1);
    est.process_stream(gen::holme_kim(20_000, 4, 0.5, 1));

    let sampler = est.sampler();
    assert_eq!(sampler.len(), 2000);
    assert_eq!(sampler.threshold().to_bits(), 0x4047_1096_8a9f_a39b);
    let sample = sampler
        .edges()
        .map(|s| (s.edge, s.weight, s.priority))
        .collect();
    assert_eq!(sample_digest(sample), 0x539c_0e20_88af_8e1c);

    let e = est.estimates();
    let got = [
        e.triangles.value,
        e.triangles.variance,
        e.wedges.value,
        e.wedges.variance,
        e.tri_wedge_cov,
        e.clustering.value,
        e.clustering.variance,
    ]
    .map(f64::to_bits);
    assert_eq!(
        got,
        [
            0x40e1_298e_87a9_3ef7,
            0x417c_fd2c_50aa_8a25,
            0x413b_9311_c7fc_ffb0,
            0x41e4_a0d5_3482_d87f,
            0x4181_e440_6b80_5c78,
            0x3fad_e009_8276_9a45,
            0x3f15_a9a0_b2e8_dbe0,
        ]
    );
}
