//! Chaos acceptance: a seeded fault scenario is **bit-reproducible**.
//!
//! Every fault trigger, checkpoint watermark, restart seed, and loss window
//! in the engine is keyed on per-shard arrival counts, so running the same
//! scenario twice must produce identical estimates (`f64::to_bits`-level)
//! and an identical incident ledger — no tolerances, no "approximately the
//! same crash". This is what makes chaos failures debuggable: a failing
//! seed replays exactly.
//!
//! The committed seeds are shifted by `GPS_SEED_OFFSET` when set, so CI
//! re-runs the whole suite under a small seed matrix — the contract is
//! "every seed replays exactly", and a matrix keeps the assertions from
//! overfitting one lucky seed. The scenario shape (which shard crashes,
//! at which arrival count) stays fixed; only the coloring/sampling/stream
//! randomness moves.

use gps_chaos::{fingerprint, resume_engine_scenario, run_engine_scenario, ScenarioOutcome};
use gps_core::weights::TriangleWeight;
use gps_engine::{load_engine, EngineConfig, FaultPlan};
use gps_serve::ServeEngine;
use gps_stream::{gen, permuted};

/// Suite seed: the committed base shifted by the CI matrix offset.
fn seed(base: u64) -> u64 {
    let offset = std::env::var("GPS_SEED_OFFSET")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);
    base + offset
}

fn crash_scenario(seed: u64, plan: FaultPlan) -> ScenarioOutcome {
    let edges = gen::collaboration(300, 260, (3, 6), 0.5, 11);
    let cfg = EngineConfig {
        batch: 16,
        checkpoint_every: 32,
        ..EngineConfig::new(edges.len() / 4, 4, seed)
    };
    run_engine_scenario(cfg, TriangleWeight::default(), permuted(&edges, seed), plan)
}

/// Save → resume → crash: a serving engine (default config, so
/// unsupervised) ingests the first half of the stream and is saved; the
/// snapshot resumes with checkpointing on (`checkpoint_every = 16`, batches
/// of 8), and shard 2 panics at its 40th arrival after the resume.
/// Per-shard arrival counts continue across the resume, so the crash is
/// placed relative to the shard's saved position. Returns the outcome and
/// the saved engine's checkpoint count.
fn resumed_crash_scenario(seed: u64) -> (ScenarioOutcome, u64) {
    let edges = permuted(&gen::collaboration(300, 260, (3, 6), 0.5, 11), seed);
    let (prefix, suffix) = edges.split_at(edges.len() / 2);
    let capacity = edges.len() / 4;
    let mut serve = ServeEngine::new(capacity, TriangleWeight::default(), seed, 4);
    serve.push_stream(prefix.iter().copied());
    let mut buf = Vec::new();
    serve.save(&mut buf).expect("saving to a Vec cannot fail");
    let saved_checkpoints = serve
        .telemetry()
        .counter_value("gps_engine_checkpoints_total")
        .expect("engine metric is registered");
    let saved = load_engine(buf.as_slice()).expect("a fresh snapshot loads");
    let crash_at = saved.shards[2].arrivals + 40;
    let cfg = EngineConfig {
        batch: 8,
        checkpoint_every: 16,
        ..EngineConfig::new(capacity, 4, seed)
    };
    let outcome = resume_engine_scenario(
        saved,
        cfg,
        TriangleWeight::default(),
        suffix.iter().copied(),
        FaultPlan::new().panic_at(2, crash_at),
    );
    (outcome, saved_checkpoints)
}

#[test]
fn resumed_engine_is_supervised_by_its_config() {
    // `resume_engine_scenario` panics on any terminal engine error, so
    // reaching the assertions means the crash was recovered — a resumed
    // engine that dropped the caller's `checkpoint_every` would surface it
    // as `EngineError::ShardPanicked` instead.
    let (run, saved_checkpoints) = resumed_crash_scenario(seed(61));
    assert_eq!(saved_checkpoints, 0, "the saved engine ran unsupervised");
    let checkpoints = run
        .telemetry
        .counter_value("gps_engine_checkpoints_total")
        .expect("engine metric is registered");
    assert!(checkpoints > 0, "the resumed engine must checkpoint");
    assert_eq!(run.health.incidents.len(), 1);
    let incident = &run.health.incidents[0];
    assert_eq!(incident.shard, 2);
    assert_eq!(incident.restarts, 1);
    assert!(!incident.stalled && !incident.checkpoint_corrupt);
    // Batches of 8 land the post-resume checkpoints on exact multiples of
    // 16, so the crash at +40 loses exactly (+32, +40].
    assert_eq!(incident.lost_arrivals, 8);
    assert_eq!(run.health.lost_arrivals, 8);
    assert_eq!(
        run.telemetry.counter_value("gps_engine_restarts_total"),
        Some(1)
    );
}

#[test]
fn saved_resumed_and_crashed_run_is_bit_reproducible() {
    let (a, _) = resumed_crash_scenario(seed(61));
    let (b, _) = resumed_crash_scenario(seed(61));
    assert!(a.degraded(), "the post-resume crash must be on the ledger");
    assert_eq!(a.health, b.health);
    assert_eq!(fingerprint(&a.estimate), fingerprint(&b.estimate));
    assert_eq!(fingerprint(&a.in_stream), fingerprint(&b.in_stream));
    assert_eq!(a.pushed, b.pushed);
    let (sa, sb) = (a.telemetry.stable(), b.telemetry.stable());
    assert_eq!(sa, sb, "stable telemetry must replay exactly");
    assert_eq!(sa.fingerprint(), sb.fingerprint());
}

#[test]
fn crashed_and_restored_run_is_bit_reproducible() {
    // ISSUE acceptance: seeded FaultPlan panicking one shard at S = 4 —
    // the engine survives, restarts from its checkpoint, and two
    // invocations with the same seed agree to the bit.
    let runs: Vec<ScenarioOutcome> = (0..2)
        .map(|_| crash_scenario(seed(97), FaultPlan::new().panic_at(2, 150)))
        .collect();
    let (a, b) = (&runs[0], &runs[1]);
    assert!(a.degraded(), "the injected crash must be on the ledger");
    assert_eq!(a.health, b.health, "incident ledgers must be identical");
    assert_eq!(fingerprint(&a.estimate), fingerprint(&b.estimate));
    assert_eq!(fingerprint(&a.in_stream), fingerprint(&b.in_stream));
    assert_eq!(a.pushed, b.pushed);
    // The Stable telemetry subset — arrivals, batches, checkpoints,
    // restarts, losses, sampler activity — is a pure function of
    // seed + config + plan: bit-identical snapshots, bit-identical
    // renderings.
    let (sa, sb) = (a.telemetry.stable(), b.telemetry.stable());
    assert_eq!(sa, sb, "stable telemetry must replay exactly");
    assert_eq!(sa.fingerprint(), sb.fingerprint());
    // And it agrees with the independent ledgers of the run.
    assert_eq!(
        sa.counter_value("gps_engine_lost_arrivals_total"),
        Some(a.health.lost_arrivals)
    );
    assert_eq!(sa.counter_value("gps_engine_restarts_total"), Some(1));
    // The ledger itself is exact: one crash, restarted once, with the
    // (checkpoint, crash] window — at most one checkpoint interval plus
    // the in-flight batch — lost and accounted.
    assert_eq!(a.health.incidents.len(), 1);
    let incident = &a.health.incidents[0];
    assert_eq!(incident.shard, 2);
    assert_eq!(incident.restarts, 1);
    assert!(!incident.stalled && !incident.checkpoint_corrupt);
    assert!(incident.lost_arrivals > 0, "crash past a checkpoint loses");
    assert!(
        incident.lost_arrivals <= 32 + 16,
        "bounded by cadence + batch"
    );
    assert_eq!(a.health.lost_arrivals, incident.lost_arrivals);
}

#[test]
fn corrupt_checkpoint_scenario_is_bit_reproducible() {
    // Harder path: the recovery checkpoint itself is corrupted, forcing a
    // from-scratch restart with the whole prefix lost — still exactly
    // reproducible.
    let plan = || {
        FaultPlan::new()
            .corrupt_checkpoints_at(1, 0)
            .panic_at(1, 100)
    };
    let a = crash_scenario(seed(41), plan());
    let b = crash_scenario(seed(41), plan());
    assert_eq!(a.health, b.health);
    assert_eq!(fingerprint(&a.estimate), fingerprint(&b.estimate));
    assert_eq!(fingerprint(&a.in_stream), fingerprint(&b.in_stream));
    let incident = &a.health.incidents[0];
    assert!(incident.checkpoint_corrupt, "corruption must be flagged");
    assert_eq!(
        incident.lost_arrivals, 100,
        "from-scratch restart loses the shard's whole consumed prefix"
    );
}

#[test]
fn different_seeds_actually_change_the_run() {
    // Guard against the reproducibility assertions passing vacuously
    // (e.g. constant estimates): a different seed must change the bits.
    let a = crash_scenario(seed(97), FaultPlan::new().panic_at(2, 150));
    let b = crash_scenario(seed(98), FaultPlan::new().panic_at(2, 150));
    assert_ne!(fingerprint(&a.estimate), fingerprint(&b.estimate));
}
