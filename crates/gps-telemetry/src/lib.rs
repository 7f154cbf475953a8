//! # gps-telemetry — deterministic runtime metrics for the GPS stack
//!
//! The engine's `EngineHealth` ledger and the bench JSON are *post-hoc*:
//! an operator of a live `ServeEngine` cannot see ingest rate, queue
//! depth, checkpoint cost, or degraded-mode transitions while they
//! happen. This crate is the missing substrate: a [`Registry`] of named
//! atomic [`Counter`]s, [`Gauge`]s, and log2-bucketed [`Histogram`]s, plus
//! a bounded, lossy-counted structured [`EventRing`], snapshotted into an
//! immutable [`TelemetrySnapshot`] with a Prometheus-style text
//! renderer. Per-epoch provenance lives next door: an [`EpochTrace`]
//! records one epoch's pipeline stage timeline and the [`FlightRecorder`]
//! ring retains the recent ones (see [`trace`](crate::EpochTrace)).
//!
//! ## Concurrency model
//!
//! Recording is wait-free-ish and never blocks a reader:
//!
//! - Counters and gauges are single `AtomicU64` words — a relaxed RMW can
//!   not tear, so snapshots read them directly.
//! - A histogram records three-plus words (bucket, count, sum) per sample,
//!   so it publishes under the **same seqlock discipline as the verified
//!   `EpochCell`** in `gps-serve`: the writer takes the sequence word odd,
//!   mutates the payload with relaxed stores, and releases it even; the
//!   reader copies the payload between two equal even sequence reads. The
//!   one extension over `EpochCell` is the writer side: histograms have
//!   many writers, so "go odd" is a CAS (even → odd) that doubles as a
//!   writer lock. The reader protocol is *unchanged* from the model the
//!   `gps-analyze interleave` suite exhaustively verifies — see
//!   `docs/observability.md` for the line-by-line correspondence.
//!
//! ## Determinism
//!
//! Nothing in this crate reads a wall clock. Every recorded value is a
//! count or a caller-supplied duration (the serve clock hook, the sim's
//! virtual clock), so a metric is exactly as deterministic as its writer.
//! Each metric is registered with a [`Stability`] class:
//! [`Stability::Stable`] values are pure functions of seed + fault plan
//! and are pinned bit-identically by the reproducibility suites via
//! [`TelemetrySnapshot::stable`]; [`Stability::Timing`] values
//! (queue high-water marks, wall-gate staleness) may vary with thread
//! scheduling and are excluded from the stable view.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod metric;
mod registry;
mod ring;
mod snapshot;
mod trace;

pub use metric::{bucket_of, bucket_upper_bound, Counter, Gauge, Histogram, Stability, BUCKETS};
pub use registry::Registry;
pub use ring::{Event, EventKind, EventRing, DEFAULT_EVENT_CAPACITY};
pub use snapshot::{CounterSample, GaugeSample, HistogramSample, TelemetrySnapshot};
pub use trace::{
    EpochTrace, FlightRecorder, StageSpan, TraceCause, TraceMark, DEFAULT_TRACE_CAPACITY,
};
