//! Bit-exact pins of four seeded simulator runs.
//!
//! Three points of the quality grid (S = 16 hash clean, S = 64 Zipf
//! crash/restore, S = 256 hash straggler) and one S = 64 run with two
//! crashes and a straggler. Each pin covers what a run publishes: the
//! merged and per-leaf estimate bits, the loss and restart ledger, the
//! publish and degraded-publish counts, report staleness, the virtual
//! finish time, and the telemetry and trace digests. How reports travel
//! from the leaves to the root must move none of them.

use gps_core::weights::TriangleWeight;
use gps_core::TriadEstimates;
use gps_sim::experiment::faults_for;
use gps_sim::{run_cluster, stream_for, Scenario, SimConfig, SimFaults, SimOutcome, Skew};

/// Everything one run publishes, reduced to integers.
#[derive(Debug, PartialEq, Eq)]
struct Pins {
    /// Bits of the merged (loss-widened) estimate: triangle value and
    /// variance, wedge value and variance, triangle–wedge covariance.
    flat: [u64; 5],
    /// FNV-1a over the same five fields of every leaf, in shard order.
    leaves: u64,
    pushed: u64,
    lost_arrivals: u64,
    restarts: u64,
    epochs: usize,
    degraded_epochs: usize,
    /// Worst included-report age over all publishes, virtual ns.
    staleness_max_ns: u64,
    /// Mean of the per-publish mean report ages, virtual ns.
    staleness_mean_ns: u64,
    finished_at_ns: u64,
    telemetry: u64,
    /// FNV-1a over every publish's trace fingerprint, in publish order.
    traces: u64,
}

/// FNV-1a (64-bit) over `words` as little-endian bytes.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn bits(e: &TriadEstimates) -> [u64; 5] {
    [
        e.triangles.value.to_bits(),
        e.triangles.variance.to_bits(),
        e.wedges.value.to_bits(),
        e.wedges.variance.to_bits(),
        e.tri_wedge_cov.to_bits(),
    ]
}

fn pins(out: &SimOutcome) -> Pins {
    let publishes = out.epochs.len().max(1) as u64;
    Pins {
        flat: bits(&out.flat),
        leaves: fnv1a(out.leaves.iter().flat_map(bits)),
        pushed: out.pushed,
        lost_arrivals: out.lost_arrivals,
        restarts: out.restarts,
        epochs: out.epochs.len(),
        degraded_epochs: out.degraded_epochs(),
        staleness_max_ns: out
            .epochs
            .iter()
            .map(|e| e.staleness_max_ns)
            .max()
            .unwrap_or(0),
        staleness_mean_ns: out.epochs.iter().map(|e| e.staleness_mean_ns).sum::<u64>() / publishes,
        finished_at_ns: out.finished_at_ns,
        telemetry: out.telemetry.fingerprint(),
        traces: fnv1a(out.traces.iter().map(|t| t.fingerprint())),
    }
}

/// `SimConfig::new` for the shape `(shards, capacity, seed)`. The
/// constructor is reached through [`Shape`], which also serves a
/// constructor that takes a report fan-out before the capacity: no pinned
/// value depends on how reports are relayed to the root.
fn config<A>(new: impl Shape<A>, shards: usize, capacity: usize, seed: u64) -> SimConfig {
    new.build(shards, capacity, seed)
}

trait Shape<A> {
    fn build(self, shards: usize, capacity: usize, seed: u64) -> SimConfig;
}

impl<F: Fn(usize, usize, u64) -> SimConfig> Shape<(usize, usize, u64)> for F {
    fn build(self, shards: usize, capacity: usize, seed: u64) -> SimConfig {
        self(shards, capacity, seed)
    }
}

impl<F: Fn(usize, usize, usize, u64) -> SimConfig> Shape<(usize, usize, usize, u64)> for F {
    fn build(self, shards: usize, capacity: usize, seed: u64) -> SimConfig {
        self(shards, 2, capacity, seed)
    }
}

const N_EDGES: usize = 20_000;
const CAPACITY: usize = 8_192;
const SEED: u64 = 1;

/// One quality-grid point, configured like `quality_point`.
fn grid_run(shards: usize, skew: Skew, scenario: Scenario) -> Pins {
    let edges = stream_for(skew, N_EDGES, SEED);
    let mut cfg = config(SimConfig::new, shards, CAPACITY, SEED);
    cfg.epoch_every = ((N_EDGES / shards / 4) as u64).clamp(8, 256);
    cfg.checkpoint_every = (cfg.epoch_every / 2).max(4);
    let faults = faults_for(scenario, shards, N_EDGES);
    pins(&run_cluster(
        &cfg,
        &faults,
        TriangleWeight::default(),
        &edges,
    ))
}

#[test]
fn s16_hash_clean_is_pinned() {
    let got = grid_run(16, Skew::Hash, Scenario::Clean);
    let want = Pins {
        flat: [
            0x40c0_a990_4ebb_43dc,
            0x4158_aeca_1f6d_c8da,
            0x4118_01c7_245f_aff2,
            0x4199_170b_c3f4_ea3f,
            0x411f_7a42_10ad_9b6c,
        ],
        leaves: 0xccda_a27f_bce9_dacd,
        pushed: 20_000,
        lost_arrivals: 0,
        restarts: 0,
        epochs: 18,
        degraded_epochs: 1,
        staleness_max_ns: 5_231_276,
        staleness_mean_ns: 2_196_561,
        finished_at_ns: 21_000_000,
        telemetry: 0xe34d_54d7_2b9c_ac62,
        traces: 0xffce_a2b1_e27e_36ba,
    };
    assert_eq!(got, want, "{got:#x?}");
}

#[test]
fn s64_zipf_crash_restore_is_pinned() {
    let got = grid_run(64, Skew::Zipf(1.0), Scenario::CrashRestore);
    let want = Pins {
        flat: [
            0x4106_44dd_7457_6cac,
            0x41e0_2572_a8f9_b8b4,
            0x414d_e3dd_4ab4_6d32,
            0x4200_6837_7044_96d2,
            0x4193_285b_2005_f5f6,
        ],
        leaves: 0x2e37_4862_b404_9dec,
        pushed: 20_000,
        lost_arrivals: 39,
        restarts: 1,
        epochs: 18,
        degraded_epochs: 3,
        staleness_max_ns: 10_608_810,
        staleness_mean_ns: 2_444_807,
        finished_at_ns: 21_000_000,
        telemetry: 0x99a3_620a_0885_f93c,
        traces: 0x2266_8ee5_eee3_ca57,
    };
    assert_eq!(got, want, "{got:#x?}");
}

#[test]
fn s256_hash_straggler_is_pinned() {
    let got = grid_run(256, Skew::Hash, Scenario::Straggler);
    let want = Pins {
        flat: [0, 0, 0x4116_e0b8_6c57_af75, 0x41a9_079e_81ac_5c41, 0],
        leaves: 0x6bec_90be_6ca0_5548,
        pushed: 20_000,
        lost_arrivals: 0,
        restarts: 0,
        epochs: 27,
        degraded_epochs: 14,
        staleness_max_ns: 15_394_103,
        staleness_mean_ns: 4_063_029,
        finished_at_ns: 29_000_000,
        telemetry: 0xe690_cbd2_67b9_c153,
        traces: 0x4d17_626e_cc5a_20de,
    };
    assert_eq!(got, want, "{got:#x?}");
}

/// S = 64 with a straggler and two crashes: both restarts complete, the
/// crashes lose arrivals, and every published number stays pinned.
#[test]
fn s64_two_crashes_and_a_straggler_are_pinned() {
    let edges = stream_for(Skew::Zipf(1.0), 10_000, 15);
    let mut cfg = config(SimConfig::new, 64, 4_096, 15);
    cfg.epoch_every = 32;
    cfg.checkpoint_every = 16;
    let faults = SimFaults::none()
        .straggler(2, 5_000_000)
        .crash_at(1, 40, 2_000_000)
        .crash_at(5, 60, 3_000_000);
    let got = pins(&run_cluster(
        &cfg,
        &faults,
        TriangleWeight::default(),
        &edges,
    ));
    assert_eq!(got.restarts, 2);
    assert!(got.lost_arrivals > 0, "crashes must lose arrivals");
    let want = Pins {
        flat: [
            0x40dc_bb41_9aa2_241c,
            0x41b1_cd20_354f_128f,
            0x4133_0a73_d842_001a,
            0x41d4_599a_bde6_b43a,
            0x415d_fee8_830d_5e63,
        ],
        leaves: 0xa2d6_4139_4a08_9d59,
        pushed: 10_000,
        lost_arrivals: 20,
        restarts: 2,
        epochs: 18,
        degraded_epochs: 11,
        staleness_max_ns: 11_473_753,
        staleness_mean_ns: 3_549_652,
        finished_at_ns: 19_000_000,
        telemetry: 0x83bc_c64c_ca63_38f8,
        traces: 0xa479_62e2_5758_fbfd,
    };
    assert_eq!(got, want, "{got:#x?}");
}
