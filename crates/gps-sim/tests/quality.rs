//! Acceptance (b): estimate error and CI coverage vs exact ground truth,
//! across the scale-out grid (`S ∈ {16, 64, 256}` × keyspace skew ×
//! fault scenario), in virtual time.
//!
//! Bounds are calibrated to the physics of the colorful merge, not wished
//! into place: a `j`-edge subgraph is monochromatic with probability
//! `S^{-(j-1)}`, so triangle signal thins as `S²` while wedge signal only
//! thins as `S`. At `S = 256` a ~10k-triangle stream has *under one*
//! expected monochromatic triangle (9.5k/65k) — the triangle estimate is
//! legitimately near-useless there, and the suite asserts exactly the
//! graceful part: wedges stay tight at every `S`, triangles are tight at
//! `S = 16`, CI coverage holds where the CLT has anything to work with,
//! and faults never break any of it. `docs/scale-out.md` tabulates the
//! measured decay.

use gps_sim::{quality_point, Scenario, Skew, SweepPoint};

const N_EDGES: usize = 20_000;
const CAPACITY: usize = 8_192;

fn grid_point(shards: usize, skew: Skew, scenario: Scenario, seed: u64) -> SweepPoint {
    quality_point(shards, CAPACITY, skew, scenario, N_EDGES, seed)
}

/// Every grid point, every scenario: wedge estimates stay accurate and
/// covered, and fault ledgers match the scenario.
#[test]
fn wedges_stay_tight_across_the_full_grid() {
    for &shards in &[16usize, 64, 256] {
        for &skew in &[Skew::Hash, Skew::Zipf(1.0)] {
            for &scenario in &[Scenario::Clean, Scenario::Straggler, Scenario::CrashRestore] {
                for seed in [1u64, 2] {
                    let p = grid_point(shards, skew, scenario, seed);
                    let tag = format!("S={shards} {} {} seed={seed}", p.skew, p.scenario);
                    // Wedge signal thins only as 1/S: stays tight everywhere
                    // (observed ≤ 0.06 across the calibration grid).
                    assert!(
                        p.wedge_are < 0.15,
                        "{tag}: wedge ARE {:.3} out of bounds",
                        p.wedge_are
                    );
                    assert!(p.wedge_covered, "{tag}: wedge CI missed the truth");
                    match scenario {
                        Scenario::Clean => {
                            assert_eq!(p.lost_arrivals, 0, "{tag}");
                            assert_eq!(p.restarts, 0, "{tag}");
                        }
                        Scenario::Straggler => {
                            assert_eq!(p.lost_arrivals, 0, "{tag}");
                            // The straggler's reports age at the root well
                            // past the injected 5 ms extra latency.
                            assert!(
                                p.staleness_max_ns > 5_000_000,
                                "{tag}: staleness {} ns too low",
                                p.staleness_max_ns
                            );
                        }
                        Scenario::CrashRestore => {
                            assert!(p.lost_arrivals > 0, "{tag}: crash lost nothing");
                            assert_eq!(p.restarts, 1, "{tag}");
                        }
                    }
                    assert!(p.epochs > 2, "{tag}: only {} publishes", p.epochs);
                }
            }
        }
    }
}

/// At `S = 16` the triangle estimator still has signal (monochromatic
/// probability 1/256 against ~10k–90k triangles): error is bounded and
/// 95% CIs cover the truth at near-nominal rates over seeds.
#[test]
fn triangles_are_accurate_and_covered_at_s16() {
    let mut covered = 0usize;
    let n = 12u64;
    for seed in 0..n {
        for &skew in &[Skew::Hash, Skew::Zipf(1.0)] {
            let p = grid_point(16, skew, Scenario::Clean, seed);
            assert!(
                p.tri_are < 1.0,
                "S=16 {} seed={seed}: triangle ARE {:.3}",
                p.skew,
                p.tri_are
            );
            covered += usize::from(p.tri_covered);
        }
    }
    // Calibrated: 23/24 covered; require ≥ 18/24 (nominal 95% minus slack
    // for the small-sample variance of the variance estimate).
    assert!(
        covered >= 18,
        "triangle CI covered truth only {covered}/24 times"
    );
}

/// Straggling delays reports but loses nothing: accuracy stays in the
/// clean regime (the delayed link reorders arrivals, so the draw differs,
/// but nothing is lost), while staleness and degraded-publish counts move.
#[test]
fn stragglers_cost_staleness_not_accuracy() {
    let clean = grid_point(64, Skew::Hash, Scenario::Clean, 5);
    let slow = grid_point(64, Skew::Hash, Scenario::Straggler, 5);
    assert_eq!(slow.lost_arrivals, 0);
    assert!(
        slow.wedge_are < 0.15 && slow.wedge_covered,
        "straggler run lost accuracy: wedge ARE {:.3}",
        slow.wedge_are
    );
    assert!(
        slow.staleness_max_ns > clean.staleness_max_ns,
        "straggler staleness {} must exceed clean {}",
        slow.staleness_max_ns,
        clean.staleness_max_ns
    );
    assert!(
        slow.degraded_epochs >= clean.degraded_epochs,
        "late reports can only increase partial publishes"
    );
}

/// Crash/restore keeps wedge accuracy within the clean run's regime (the
/// lost window is a small fraction of the stream) while the loss ledger
/// reports exactly what recovery cost.
#[test]
fn crash_restore_degrades_gracefully() {
    for seed in [3u64, 4, 5] {
        let p = grid_point(16, Skew::Zipf(1.0), Scenario::CrashRestore, seed);
        assert!(p.lost_arrivals > 0);
        assert_eq!(p.restarts, 1);
        assert!(
            p.wedge_are < 0.1,
            "seed={seed}: wedge ARE {:.3} after crash",
            p.wedge_are
        );
        assert!(p.wedge_covered, "seed={seed}: widened CI missed truth");
    }
}
