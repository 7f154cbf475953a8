//! Deterministic chaos harness for the fault-tolerant sharded GPS engine.
//!
//! This crate packages the repo's failure testing into reusable *scenarios*:
//! an edge stream, an engine configuration, and a scripted [`FaultPlan`]
//! run to completion, with everything
//! the caller needs for exact assertions returned in a [`ScenarioOutcome`].
//! Because every fault trigger, checkpoint, and loss window in the engine is
//! keyed on per-shard arrival counts — never wall-clock time — a scenario
//! with a fixed seed is **bit-reproducible**: the integration suites here
//! assert `f64::to_bits`-level equality across repeated runs instead of
//! tolerances, and `gps-bench --chaos` reuses the same runners to report
//! recovery metrics.
//!
//! The three suites under `tests/` pin the fault-tolerance contract:
//!
//! - `reproducibility` — same seed + same plan ⇒ identical estimates (to
//!   the bit) and an identical incident ledger, across crash-and-restore,
//!   corrupt-checkpoint and save → resume → crash scenarios; the last also
//!   pins that a resumed engine is supervised by the caller's config.
//! - `crash_unbiasedness` — a supervised crash + checkpoint restore leaves
//!   the HT estimators unbiased over many independent seeds (the mean
//!   tracks exact ground truth as tightly as the unfaulted engine suite).
//! - `degraded_serve` — a crashed *serving* shard restarts from its
//!   checkpoint and the epoch stream stays monotone, ends full, and
//!   reconciles with the engine's loss accounting.

#![forbid(unsafe_code)]

use gps_core::weights::EdgeWeight;
use gps_core::TriadEstimates;
use gps_engine::{
    EngineConfig, EngineHealth, Estimation, FaultPlan, Launch, SavedEngine, ShardedGps,
};
use gps_graph::types::Edge;
use gps_telemetry::TelemetrySnapshot;

/// Bit-level fingerprint of an estimate bundle: the five independently
/// stored floats of a [`TriadEstimates`] (clustering is derived), as raw
/// bits. Two outcomes with equal fingerprints are *the same estimate*, not
/// merely close — the currency of the reproducibility suites.
pub fn fingerprint(estimates: &TriadEstimates) -> [u64; 5] {
    [
        estimates.triangles.value.to_bits(),
        estimates.triangles.variance.to_bits(),
        estimates.wedges.value.to_bits(),
        estimates.wedges.variance.to_bits(),
        estimates.tri_wedge_cov.to_bits(),
    ]
}

/// Everything a chaos scenario run produces, captured for exact assertions.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// Merged post-stream estimates (loss-widened if the run degraded).
    pub estimate: TriadEstimates,
    /// Merged in-stream estimates (loss-widened if the run degraded).
    pub in_stream: TriadEstimates,
    /// The engine's incident ledger: who failed, what was lost, how many
    /// restarts. Deterministic for a fixed seed and plan.
    pub health: EngineHealth,
    /// Arrivals offered to the engine (the full stream length).
    pub pushed: u64,
    /// Telemetry snapshot taken after the engine finished. Its
    /// [`TelemetrySnapshot::stable`] subset (arrival/checkpoint/restart/
    /// sampler counters) is a pure function of seed + config + plan and is
    /// asserted bit-identical across same-seed runs by the reproducibility
    /// suite; `Timing`-class entries (queue depth high-water) and the event
    /// ring order may vary with thread scheduling.
    pub telemetry: TelemetrySnapshot,
}

impl ScenarioOutcome {
    /// True when the run recorded at least one incident.
    pub fn degraded(&self) -> bool {
        self.health.degraded()
    }
}

/// Runs one estimating engine over `stream` with `faults` injected and
/// returns the outcome. The engine must survive whatever the plan throws at
/// it — a terminal engine error here is a harness bug, so it panics with
/// the underlying error.
///
/// `cfg.checkpoint_every > 0` arms supervision (crashed shards restart
/// from their checkpoints); `0` leaves faults fatal, which chaos scenarios
/// generally do not want.
pub fn run_engine_scenario<W: EdgeWeight + Clone + Send + 'static>(
    cfg: EngineConfig,
    weight_fn: W,
    stream: impl IntoIterator<Item = Edge>,
    faults: FaultPlan,
) -> ScenarioOutcome {
    run_scenario(cfg, weight_fn, stream, faults, None)
}

/// [`run_engine_scenario`] on an engine resumed from `saved` rather than
/// started empty: the snapshot supplies the samples and the stream
/// position, `cfg` everything else — checkpointing included. Fault
/// triggers count per-shard arrivals from the start of the *original*
/// stream, so a crash after the resume sits past the snapshot's per-shard
/// arrivals. The outcome's telemetry covers the resumed run only (it
/// starts on a fresh registry); `pushed` counts the whole stream.
///
/// # Panics
/// Panics if `saved` does not match `cfg` (see `ShardedGps::launch`).
pub fn resume_engine_scenario<W: EdgeWeight + Clone + Send + 'static>(
    saved: SavedEngine,
    cfg: EngineConfig,
    weight_fn: W,
    stream: impl IntoIterator<Item = Edge>,
    faults: FaultPlan,
) -> ScenarioOutcome {
    run_scenario(cfg, weight_fn, stream, faults, Some(saved))
}

fn run_scenario<W: EdgeWeight + Clone + Send + 'static>(
    cfg: EngineConfig,
    weight_fn: W,
    stream: impl IntoIterator<Item = Edge>,
    faults: FaultPlan,
    resume: Option<SavedEngine>,
) -> ScenarioOutcome {
    let launch = Launch {
        estimation: Estimation::InStream(None),
        faults: Some(faults),
        registry: None,
        resume,
    };
    let mut engine = ShardedGps::launch(cfg, weight_fn, launch);
    engine.push_stream(stream);
    engine.finish();
    ScenarioOutcome {
        estimate: engine.estimate(),
        in_stream: engine.estimate_in_stream(),
        health: engine.health().clone(),
        pushed: engine.pushed(),
        telemetry: engine.telemetry(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_core::weights::UniformWeight;

    #[test]
    fn fingerprints_separate_distinct_estimates() {
        let a = TriadEstimates::from_parts(
            gps_core::Estimate {
                value: 1.0,
                variance: 2.0,
            },
            gps_core::Estimate {
                value: 3.0,
                variance: 4.0,
            },
            5.0,
        );
        let b = TriadEstimates::from_parts(
            gps_core::Estimate {
                value: 1.0,
                variance: 2.0,
            },
            gps_core::Estimate {
                value: 3.0,
                variance: 4.5,
            },
            5.0,
        );
        assert_eq!(fingerprint(&a), fingerprint(&a));
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn unfaulted_scenario_is_clean() {
        let cfg = EngineConfig {
            checkpoint_every: 16,
            ..EngineConfig::new(16, 2, 3)
        };
        let stream = (0..100u32).map(|i| Edge::new(i, i + 1));
        let out = run_engine_scenario(cfg, UniformWeight, stream, FaultPlan::new());
        assert!(!out.degraded());
        assert_eq!(out.pushed, 100);
        assert_eq!(out.health, EngineHealth::default());
    }
}
