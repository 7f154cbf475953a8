//! # gps-sim — deterministic discrete-event scale-out testbed
//!
//! The engine (`gps-engine`) runs `S` shards on `S` threads, so on a small
//! machine nothing above a handful of shards is ever *observed* — yet the
//! colorful-merge math ([`gps_core::TriadEstimates::merged_colored`]) and
//! the fault-tolerance story are claimed for `S ≫ cores`. This crate closes
//! that gap with a seeded discrete-event simulator: a virtual u64-nanosecond
//! clock, a stable event heap, simulated hosts connected by links with
//! configurable latency/jitter, straggler and crash/restore-from-checkpoint
//! injection — and **no wall clock anywhere**, so every run is
//! bit-reproducible.
//!
//! The crucial property: simulated shard-nodes drive the **real** code.
//! Each [`LeafNode`] hosts a production
//! [`ShardRunner`](gps_engine::ShardRunner) (real `GpsSampler`, real
//! `InStreamEstimator`), checkpoints in the real `gps_core::persist`
//! format, restores through the engine's real restart path, and the run's
//! estimate is the real [`TriadEstimates`](gps_core::TriadEstimates)
//! colorful merge over the leaves' final estimates. The sim is a test harness over production logic, not a
//! model of it — what it pins at `S = 256` is the code that ships.
//!
//! Layers:
//! - [`event`]: virtual clock + stable `(time, sequence)` event heap.
//! - [`net`]: per-link latency/jitter model (seeded).
//! - [`node`]: a simulated shard host over the production runner, with
//!   crash/queue/replay semantics mirroring the engine supervisor.
//! - [`cluster`]: source → `S` leaves → relay → root, publish cadence,
//!   staleness ledger, and the one colored merge over the leaves' final
//!   estimates.
//! - [`zipf`]: Zipf-skewed keyspaces for partition-skew experiments.
//! - [`experiment`]: the quality-vs-scale sweep
//!   (`S ∈ {16,64,256}` × skew × fault scenario) reduced to pinned numbers.
//!
//! See `docs/scale-out.md` for the architecture and measured results.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod event;
pub mod experiment;
pub mod net;
pub mod node;
pub mod zipf;

pub use cluster::{run_cluster, EpochStats, SimConfig, SimFaults, SimOutcome};
pub use event::Scheduler;
pub use experiment::{default_sweep, quality_point, stream_for, sweep, Scenario, Skew, SweepPoint};
pub use net::Link;
pub use node::LeafNode;
pub use zipf::{zipf_edges, zipf_edges_distinct, Zipf};
