//! Edge-stream substrate for the `graph-priority-sampling` workspace.
//!
//! The paper's graph-stream model presents a graph as a sequence of edges in
//! arbitrary order, each processed exactly once. This crate provides:
//!
//! - [`stream`]: adapters for treating edge collections as streams, with
//!   checkpoint scheduling for the "estimates vs. time" experiments.
//! - [`permute`]: seeded Fisher–Yates permutation — the paper generates each
//!   stream "by randomly permuting the set of edges in each graph" (§6).
//! - [`gen`]: synthetic workload generators (Erdős–Rényi, Barabási–Albert,
//!   Holme–Kim, Chung–Lu, R-MAT, Watts–Strogatz, grid lattices). These are
//!   the substitution for the paper's networkrepository.com corpus; see
//!   DESIGN.md §5 for the substitution argument.
//! - [`corpus`]: named stand-ins for the specific graphs used in the paper's
//!   tables and figures, at configurable scale.
//! - [`EdgeFileStream`]: lazy single-pass edge streaming from disk, for
//!   graphs that do not fit in memory (the streaming model's raison d'être);
//!   re-exported from `gps_graph::io`, which holds the workspace's one
//!   edge-list parser.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod corpus;
pub mod gen;
pub mod permute;
pub mod stream;

pub use corpus::{Workload, WorkloadSpec};
pub use gps_graph::io::EdgeFileStream;
pub use permute::permuted;
pub use stream::{batched, Batched, Checkpoints};
