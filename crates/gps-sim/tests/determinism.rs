//! Acceptance (c): same-seed simulations are identical **to the f64
//! bit** — the virtual clock, stable event heap, seeded jitter, and the
//! production code's own seeded sampling leave no nondeterminism anywhere,
//! even through crash/restore and straggler reordering.
//!
//! Committed seeds shift by `GPS_SEED_OFFSET` when set: CI re-runs the
//! suite under a small seed matrix, because the contract is *every* seed
//! replays exactly, not three lucky ones.

use gps_core::weights::TriangleWeight;
use gps_sim::{run_cluster, stream_for, SimConfig, SimFaults, Skew};

/// Suite seed: the committed base shifted by the CI matrix offset.
fn seed(base: u64) -> u64 {
    let offset = std::env::var("GPS_SEED_OFFSET")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);
    base + offset
}

fn faulted_cfg(seed: u64) -> (SimConfig, SimFaults) {
    let mut cfg = SimConfig::new(64, 4_096, seed);
    cfg.epoch_every = 32;
    cfg.checkpoint_every = 16;
    let faults = SimFaults::none()
        .straggler(3, 5_000_000)
        .crash_at(1, 40, 2_000_000);
    (cfg, faults)
}

#[test]
fn same_seed_same_bits_clean() {
    let edges = stream_for(Skew::Hash, 8_000, seed(21));
    let cfg = SimConfig::new(16, 4_096, seed(21));
    let a = run_cluster(&cfg, &SimFaults::none(), TriangleWeight::default(), &edges);
    let b = run_cluster(&cfg, &SimFaults::none(), TriangleWeight::default(), &edges);
    assert_eq!(a.fingerprint(), b.fingerprint());
}

#[test]
fn same_seed_same_bits_under_faults() {
    let edges = stream_for(Skew::Zipf(1.0), 8_000, seed(22));
    let (cfg, faults) = faulted_cfg(seed(22));
    let a = run_cluster(&cfg, &faults, TriangleWeight::default(), &edges);
    let b = run_cluster(&cfg, &faults, TriangleWeight::default(), &edges);
    assert_eq!(a.fingerprint(), b.fingerprint());
    // The faults actually exercised the recovery machinery.
    assert_eq!(a.restarts, 1);
    assert!(a.lost_arrivals > 0);
}

#[test]
fn different_seeds_different_runs() {
    let edges = stream_for(Skew::Hash, 8_000, seed(23));
    let a = run_cluster(
        &SimConfig::new(16, 4_096, seed(23)),
        &SimFaults::none(),
        TriangleWeight::default(),
        &edges,
    );
    let b = run_cluster(
        &SimConfig::new(16, 4_096, seed(24)),
        &SimFaults::none(),
        TriangleWeight::default(),
        &edges,
    );
    assert_ne!(
        a.fingerprint(),
        b.fingerprint(),
        "different engine seeds must draw different samples"
    );
}

#[test]
fn streams_are_deterministic_in_their_seed() {
    for skew in [Skew::Hash, Skew::Zipf(1.0)] {
        assert_eq!(
            stream_for(skew, 5_000, seed(31)),
            stream_for(skew, 5_000, seed(31)),
            "{skew:?}"
        );
        assert_ne!(
            stream_for(skew, 5_000, seed(31)),
            stream_for(skew, 5_000, seed(32)),
            "{skew:?}"
        );
    }
}
