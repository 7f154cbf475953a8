//! # Graph Priority Sampling (GPS)
//!
//! A faithful, production-oriented implementation of *"On Sampling from
//! Massive Graph Streams"* (Ahmed, Duffield, Willke, Rossi — VLDB 2017):
//! order-based reservoir sampling over graph edge streams with
//! topology-dependent weights, plus unbiased subgraph-count estimation in
//! two flavors.
//!
//! ## The pieces
//!
//! - [`reservoir::GpsSampler`] — Algorithm 1, `GPS(m)`: a fixed-size
//!   priority reservoir. Each arriving edge gets weight `W(k, K̂)` (see
//!   [`weights`]), priority `w/u` with uniform `u ∈ (0,1]`, and the `m`
//!   highest-priority edges are retained. The running threshold `z*` turns
//!   sampled edges into Horvitz–Thompson estimators `1/p(k)`,
//!   `p(k) = min{1, w(k)/z*}`.
//! - [`post_stream`] — Algorithm 2: at any time, compute unbiased
//!   triangle/wedge counts, unbiased variances, and a delta-method global
//!   clustering coefficient from the reservoir alone.
//! - [`in_stream::InStreamEstimator`] — Algorithm 3: snapshot
//!   (stopped-Martingale) estimators updated at the instant each subgraph is
//!   completed by an arrival; same sample, lower variance.
//! - [`snapshot::MotifCounter`] — Theorem 4 generalized to arbitrary motifs
//!   (e.g. 4-cliques).
//! - [`subset`] — classic priority-sampling subset sums over edges with
//!   attributes/auxiliary variables.
//!
//! ## Quick start
//!
//! ```
//! use gps_core::{GpsSampler, TriangleWeight, post_stream};
//! use gps_graph::Edge;
//!
//! // Sample a tiny stream with the paper's triangle-targeted weights.
//! let mut sampler = GpsSampler::new(1_000, TriangleWeight::default(), 42);
//! for e in [Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2), Edge::new(2, 3)] {
//!     sampler.process(e);
//! }
//! let est = post_stream::estimate(&sampler);
//! assert!((est.triangles.value - 1.0).abs() < 1e-12);
//! let (lb, ub) = est.triangles.ci95();
//! assert!(lb <= 1.0 && 1.0 <= ub);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod estimate;
pub mod heap;
pub mod in_stream;
pub mod local;
pub mod persist;
pub mod post_stream;
pub mod reservoir;
pub mod slab;
pub mod snapshot;
pub mod subset;
pub mod weights;

pub use estimate::{variance_of_mean, Estimate, TriadEstimates};
pub use in_stream::{InStreamEstimator, InStreamTotals};
pub use reservoir::{Arrival, GpsSampler, SampleView, SampledEdge, SamplerStats};
pub use snapshot::MotifCounter;
pub use weights::{EdgeWeight, FnWeight, TriadWeight, TriangleWeight, UniformWeight, WedgeWeight};
