//! Graph substrate for the `graph-priority-sampling` workspace.
//!
//! This crate provides everything the sampling layers need to talk about
//! graphs, independent of any sampling logic:
//!
//! - [`types`]: compact node/edge types ([`NodeId`], [`Edge`]) with packed
//!   64-bit edge keys suitable for hashing.
//! - [`hash`]: a fast Fx-style hasher and the [`FxHashMap`]/[`FxHashSet`]
//!   aliases used throughout the workspace (std's SipHash is needlessly slow
//!   for small integer keys).
//! - [`adjacency`]: a dynamic undirected adjacency structure with O(1)
//!   edge membership tests and value storage per edge — kept as the
//!   reference implementation / differential-test oracle.
//! - [`compact`]: the cache-friendly interned adjacency backend
//!   ([`CompactAdjacency`]) that actually backs the GPS reservoir: inline
//!   small-buffer neighbor lists spilling into a shared block pool, with an
//!   adaptive common-neighbor kernel.
//! - [`csr`]: an immutable compressed-sparse-row graph for exact analytics.
//! - [`exact`]: exact triangle / wedge / clustering-coefficient computation
//!   (degree-ordered intersection, `O(m^{3/2})`) plus brute-force references
//!   used by the test-suite.
//! - [`incremental`]: an exact counter maintained edge-by-edge, used as the
//!   time-series ground truth for the paper's "estimates vs. time" plots.
//! - [`degrees`]: degree summaries of edge populations.
//! - [`io`]: white-space edge lists: the lazy [`io::EdgeFileStream`] (the
//!   one parser, with node relabeling), the eager [`io::read_edge_list`]
//!   that also drops duplicates (the paper uses undirected, simplified
//!   graphs), and the writer.
//!
//! The crate has no dependencies and makes no assumptions about where edges
//! come from; streaming abstractions live in `gps-stream`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adjacency;
pub mod compact;
pub mod csr;
pub mod degrees;
pub mod error;
pub mod exact;
pub mod hash;
pub mod incremental;
pub mod io;
pub mod types;

pub use adjacency::AdjacencyMap;
pub use compact::{BackendKind, CompactAdjacency, EdgeHints};
pub use csr::CsrGraph;
pub use error::GraphError;
pub use hash::{FxHashMap, FxHashSet};
pub use incremental::IncrementalCounter;
pub use types::{Edge, EdgeKey, NodeId};
