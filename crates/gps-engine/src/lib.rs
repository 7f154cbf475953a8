//! # gps-engine — sharded multi-threaded GPS streaming
//!
//! A single [`gps_core::GpsSampler`] is fed by one thread, so ingest
//! throughput is capped by one core even though the estimation side "has
//! abundant parallelism" (paper §4; exploited by
//! `post_stream::estimate_with_threads`). This crate scales the *ingest*
//! side: [`ShardedGps`] hash-partitions arriving edges across `S` worker
//! threads, each owning an independent `GPS(m/S)` reservoir on the compact
//! adjacency backend, fed through bounded batch channels.
//!
//! ## Why the merge is unbiased
//!
//! The partition assigns every edge one of `S` "colors" by a seeded hash of
//! its canonical endpoint pair ([`partition::EdgePartitioner`]), so each
//! shard runs ordinary GPS over the substream of its color and its
//! Horvitz–Thompson estimates are unbiased *for subgraph counts within that
//! substream*. Two facts turn the per-shard estimates into unbiased global
//! estimates:
//!
//! 1. **Strata sum.** The substreams are disjoint and sampled
//!    independently, so values, variance estimates and within-shard
//!    covariances add ([`gps_core::TriadEstimates::merged_strata`]) —
//!    the stratification argument Tiered Sampling (De Stefani et al.)
//!    uses to split a budget across tiers.
//! 2. **Monochromacy correction.** A subgraph with `j` edges is visible to
//!    a shard only if all `j` edges share its color, which happens with
//!    probability `S^{-(j-1)}` under the seeded uniform coloring — the
//!    "colorful counting" argument of Pagh–Tsourakakis. The merged sums
//!    are therefore rescaled by `S²` for triangles (3 edges) and `S` for
//!    wedges (2 edges); [`ShardedGps::estimate`] applies exactly this.
//!
//! With `S = 1` the engine degenerates to a single reservoir on the engine
//! seed, and the output is **bit-identical** to a bare `GpsSampler` fed the
//! same stream (pinned by a property test).
//!
//! Reported variances are **honest for `S > 1`**: the strata-sum of
//! per-shard (within-coloring) variance estimates is combined with a
//! between-shard empirical term that accounts for the randomness of the
//! coloring itself (each shard alone is an unbiased global estimator after
//! rescaling; the dispersion of those per-shard estimates around their mean
//! measures what conditioning on the partition used to hide) — see
//! [`gps_core::TriadEstimates::merged_colored`] for the decomposition. The
//! statistical test suites (here and in `gps-serve`) verify unbiasedness
//! over both sources of randomness empirically, and that CI coverage holds
//! near nominal where the conditional-only intervals collapsed.
//!
//! ## In-stream estimation inside the engine
//!
//! [`ShardedGps::launch`] with [`Estimation::InStream`] puts the paper's
//! Algorithm 3 *inside* each worker: every shard runs an
//! `InStreamEstimator` over its substream, so the lower-variance snapshot
//! estimates are available sharded
//! ([`ShardedGps::estimate_in_stream`]) — the merge argument is identical,
//! since a shard's in-stream estimate is unbiased for the same
//! monochromatic counts its post-stream estimate targets. Workers
//! optionally report progress through an [`EpochHook`] every
//! [`EngineConfig::epoch_every`] arrivals; the `gps-serve` crate turns
//! those reports into atomically published, immutable estimate epochs for
//! concurrent readers.
//!
//! ## Snapshots
//!
//! [`ShardedGps::save`] composes the existing `gps_core::persist` format
//! per shard — an engine header followed by one `gps-sample` section per
//! shard (`v2` with in-stream accumulators in estimating mode, `v1`
//! otherwise) — so sharded reference samples outlive the process like
//! single-reservoir ones do, and a restored serving engine resumes its
//! in-stream estimates **exactly** ([`snapshot`]). Restoring goes through
//! the same constructor as starting fresh: [`ShardedGps::launch`] with
//! [`Launch::resume`] set.
//!
//! ## Fault tolerance
//!
//! Workers are supervised: a panic inside a worker is contained with
//! `catch_unwind` and surfaces as a typed [`EngineError`] — or, with
//! checkpointing enabled ([`EngineConfig::checkpoint_every`]), the shard
//! restarts from its last persisted checkpoint and only the arrivals since
//! it are lost. Loss is never silent: [`ShardedGps::health`] itemizes
//! every [`ShardIncident`], and estimates from a degraded run widen their
//! variances by the lost fraction so confidence intervals stay honest.
//! Bounded queues gain deadlines ([`EngineConfig::push_timeout`] →
//! [`PushError::Backpressure`]; [`EngineConfig::finish_timeout`] writes
//! stragglers off from their checkpoints). The whole failure surface is
//! testable deterministically through [`FaultPlan`] ([`fault`]): faults
//! trigger at exact per-shard arrival counts, so chaos runs are
//! bit-reproducible.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod fault;
pub mod partition;
pub mod shard;
pub mod snapshot;

pub use engine::{
    EngineConfig, EngineError, EngineHealth, EpochHook, Estimation, Launch, PushError,
    ShardIncident, ShardReport, ShardedGps, DEFAULT_EPOCH_EVERY,
};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use partition::{shard_seed, EdgePartitioner};
pub use shard::ShardRunner;
pub use snapshot::{load_engine, load_engine_file, SavedEngine};
