//! Deterministic fault injection for the sharded engine.
//!
//! A [`FaultPlan`] scripts failures at exact per-shard arrival counts:
//! worker panics, stalls (bounded or permanent), slowdowns, and checkpoint
//! corruption. Because every trigger is keyed on a shard's own arrival
//! counter — not on wall-clock time or thread scheduling — a faulted run is
//! **bit-reproducible**: the same seed and plan crash the same shard at the
//! same arrival, lose the same checkpoint interval, and restore the same
//! state, every time. The chaos suites in `gps-chaos` lean on this to pin
//! recovery semantics (and estimator unbiasedness after recovery) with
//! exact assertions instead of sleeps and tolerances.
//!
//! Plans are built fluently and handed to the engine's one constructor,
//! [`ShardedGps::launch`](crate::ShardedGps::launch), as
//! [`Launch::faults`](crate::Launch::faults):
//!
//! ```
//! use gps_engine::{EngineConfig, FaultPlan, Launch, ShardedGps};
//! use gps_core::UniformWeight;
//! use gps_graph::Edge;
//!
//! let plan = FaultPlan::new().panic_at(0, 50);
//! let cfg = EngineConfig {
//!     checkpoint_every: 16,
//!     ..EngineConfig::new(16, 2, 7)
//! };
//! let launch = Launch {
//!     faults: Some(plan),
//!     ..Launch::default()
//! };
//! let mut engine = ShardedGps::launch(cfg, UniformWeight, launch);
//! for i in 0..200u32 {
//!     engine.push(Edge::new(i, i + 1));
//! }
//! engine.finish();
//! // Shard 0 panicked at its 50th arrival, restarted from the checkpoint
//! // at 48, and lost exactly the (48, 50] interval.
//! assert!(engine.health().degraded());
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// What an injected fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic the worker thread (payload
    /// `"chaos: injected panic (shard …, arrival …)"`), exercising
    /// containment and checkpoint restart.
    Panic,
    /// Sleep the worker for `millis` milliseconds (`u64::MAX` parks it
    /// forever), exercising backpressure, push timeouts, and the
    /// finish-time straggler write-off.
    Stall {
        /// Stall duration in milliseconds; `u64::MAX` never wakes.
        millis: u64,
    },
    /// Sleep `micros` microseconds before each of the next `arrivals`
    /// arrivals (the trigger arrival inclusive) — a soft degradation that
    /// must *not* trip any failure path, only slow the shard down.
    Slowdown {
        /// Per-arrival delay in microseconds.
        micros: u64,
        /// How many consecutive arrivals are slowed.
        arrivals: u64,
    },
    /// Truncate every checkpoint the shard writes at or after the trigger
    /// arrival, so the next restart finds an unparseable checkpoint and
    /// must fall back to a from-scratch restart (with the whole lost
    /// prefix accounted).
    CorruptCheckpoint,
}

/// One scripted fault: `kind` fires on `shard` at its `at_arrival`-th
/// per-shard arrival (`0` fires at worker spawn, before any arrival).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Target shard index.
    pub shard: usize,
    /// Per-shard arrival count that triggers the fault; `0` = at spawn.
    pub at_arrival: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic failure script for one engine run (see the module docs).
///
/// `Panic` and `Stall` events fire exactly once — a shard restarted after a
/// panic replays arrivals past the trigger point without re-tripping it.
/// `Slowdown` covers its arrival range wherever execution passes through
/// it, and `CorruptCheckpoint` poisons every checkpoint from its trigger
/// on (so a "next good checkpoint" can never mask the corruption).
#[derive(Debug, Default)]
pub struct FaultPlan {
    events: Vec<(FaultEvent, AtomicBool)>,
}

impl FaultPlan {
    /// An empty plan (no faults; the engine behaves exactly unfaulted).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an explicit [`FaultEvent`].
    pub fn with(mut self, event: FaultEvent) -> Self {
        self.events.push((event, AtomicBool::new(false)));
        self
    }

    /// Panics `shard` at its `at_arrival`-th arrival.
    pub fn panic_at(self, shard: usize, at_arrival: u64) -> Self {
        self.with(FaultEvent {
            shard,
            at_arrival,
            kind: FaultKind::Panic,
        })
    }

    /// Stalls `shard` for `millis` ms at its `at_arrival`-th arrival.
    pub fn stall_at(self, shard: usize, at_arrival: u64, millis: u64) -> Self {
        self.with(FaultEvent {
            shard,
            at_arrival,
            kind: FaultKind::Stall { millis },
        })
    }

    /// Parks `shard` forever at its `at_arrival`-th arrival.
    pub fn stall_forever(self, shard: usize, at_arrival: u64) -> Self {
        self.with(FaultEvent {
            shard,
            at_arrival,
            kind: FaultKind::Stall { millis: u64::MAX },
        })
    }

    /// Slows `shard` by `micros` µs per arrival for `arrivals` arrivals
    /// starting at its `at_arrival`-th.
    pub fn slowdown_at(self, shard: usize, at_arrival: u64, micros: u64, arrivals: u64) -> Self {
        self.with(FaultEvent {
            shard,
            at_arrival,
            kind: FaultKind::Slowdown { micros, arrivals },
        })
    }

    /// Corrupts (truncates) every checkpoint `shard` writes at or after
    /// its `at_arrival`-th arrival.
    pub fn corrupt_checkpoints_at(self, shard: usize, at_arrival: u64) -> Self {
        self.with(FaultEvent {
            shard,
            at_arrival,
            kind: FaultKind::CorruptCheckpoint,
        })
    }

    /// Number of scripted events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the plan scripts nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Fires spawn-time (`at_arrival == 0`) faults for `shard`. Called by
    /// the worker prologue, inside panic containment.
    pub(crate) fn at_spawn(&self, shard: usize) {
        self.fire(shard, 0);
    }

    /// Fires faults scheduled for `shard`'s `arrival`-th arrival. Called
    /// by the worker immediately before processing that arrival, inside
    /// panic containment.
    pub(crate) fn before_arrival(&self, shard: usize, arrival: u64) {
        self.fire(shard, arrival);
    }

    /// True when a checkpoint written by `shard` at watermark `arrival`
    /// must be corrupted.
    pub(crate) fn corrupts_checkpoint(&self, shard: usize, arrival: u64) -> bool {
        self.events.iter().any(|(ev, _)| {
            ev.shard == shard && ev.kind == FaultKind::CorruptCheckpoint && arrival >= ev.at_arrival
        })
    }

    fn fire(&self, shard: usize, arrival: u64) {
        for (ev, fired) in &self.events {
            if ev.shard != shard {
                continue;
            }
            match ev.kind {
                FaultKind::Panic => {
                    // ordering: the flag is a fire-once latch read and
                    // written only from this shard's (single) live worker
                    // thread; Relaxed is enough, no data is published.
                    if arrival == ev.at_arrival && !fired.swap(true, Ordering::Relaxed) {
                        panic!("chaos: injected panic (shard {shard}, arrival {arrival})");
                    }
                }
                FaultKind::Stall { millis } => {
                    // ordering: same single-writer fire-once latch as Panic.
                    if arrival == ev.at_arrival && !fired.swap(true, Ordering::Relaxed) {
                        if millis == u64::MAX {
                            loop {
                                std::thread::sleep(Duration::from_secs(3600));
                            }
                        }
                        std::thread::sleep(Duration::from_millis(millis));
                    }
                }
                FaultKind::Slowdown { micros, arrivals } => {
                    if arrival >= ev.at_arrival && arrival < ev.at_arrival.saturating_add(arrivals)
                    {
                        std::thread::sleep(Duration::from_micros(micros));
                    }
                }
                FaultKind::CorruptCheckpoint => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_fires_exactly_once() {
        let plan = FaultPlan::new().panic_at(0, 5);
        let hit =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.before_arrival(0, 5)));
        assert!(hit.is_err(), "first pass must panic");
        // A restarted worker replaying arrival 5 must sail through.
        plan.before_arrival(0, 5);
    }

    #[test]
    fn faults_are_shard_scoped() {
        let plan = FaultPlan::new().panic_at(1, 5);
        plan.before_arrival(0, 5); // other shard: no fire
        plan.at_spawn(0);
        assert!(!plan.corrupts_checkpoint(0, 100));
    }

    #[test]
    fn corrupt_checkpoint_covers_every_later_watermark() {
        let plan = FaultPlan::new().corrupt_checkpoints_at(2, 64);
        assert!(!plan.corrupts_checkpoint(2, 63));
        assert!(plan.corrupts_checkpoint(2, 64));
        assert!(plan.corrupts_checkpoint(2, 6400));
        assert!(!plan.corrupts_checkpoint(1, 6400));
    }

    #[test]
    fn slowdown_covers_its_range_without_failing() {
        let plan = FaultPlan::new().slowdown_at(0, 3, 1, 2);
        for a in 0..10 {
            plan.before_arrival(0, a); // arrivals 3 and 4 sleep 1µs; none panic
        }
        assert!(plan.len() == 1 && !plan.is_empty());
    }
}
