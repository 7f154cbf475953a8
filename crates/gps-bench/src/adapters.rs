//! [`TriangleEstimator`] adapters for the GPS estimators, so the harness can
//! drive GPS and the baselines through one interface.

use gps_baselines::TriangleEstimator;
use gps_core::weights::TriangleWeight;
use gps_core::{post_stream, GpsSampler, InStreamEstimator, TriadEstimates};
use gps_engine::{shard_seed, EdgePartitioner, ShardedGps};
use gps_graph::types::Edge;

/// GPS with post-stream estimation (paper "GPS POST"): samples with the
/// triangle-optimized weights and answers queries from the reservoir.
pub struct GpsPost {
    sampler: GpsSampler<TriangleWeight>,
}

impl GpsPost {
    /// Creates the adapter with reservoir capacity `m`.
    pub fn new(m: usize, seed: u64) -> Self {
        GpsPost {
            sampler: GpsSampler::new(m, TriangleWeight::default(), seed),
        }
    }

    /// The underlying sampler.
    pub fn sampler(&self) -> &GpsSampler<TriangleWeight> {
        &self.sampler
    }
}

impl TriangleEstimator for GpsPost {
    fn process(&mut self, edge: Edge) {
        self.sampler.process(edge);
    }

    fn triangle_estimate(&self) -> f64 {
        post_stream::estimate_counts(&self.sampler).0
    }

    fn stored_edges(&self) -> usize {
        self.sampler.len()
    }

    fn name(&self) -> &'static str {
        "GPS POST"
    }
}

/// GPS with in-stream estimation (paper "GPS IN-STREAM").
pub struct GpsInStream {
    est: InStreamEstimator<TriangleWeight>,
}

impl GpsInStream {
    /// Creates the adapter with reservoir capacity `m`.
    pub fn new(m: usize, seed: u64) -> Self {
        GpsInStream {
            est: InStreamEstimator::new(m, TriangleWeight::default(), seed),
        }
    }

    /// The wrapped estimator.
    pub fn inner(&self) -> &InStreamEstimator<TriangleWeight> {
        &self.est
    }
}

impl TriangleEstimator for GpsInStream {
    fn process(&mut self, edge: Edge) {
        self.est.process(edge);
    }

    fn triangle_estimate(&self) -> f64 {
        self.est.triangle_count()
    }

    fn stored_edges(&self) -> usize {
        self.est.sampler().len()
    }

    fn name(&self) -> &'static str {
        "GPS IN-STREAM"
    }
}

/// Single-threaded, checkpointable mirror of a `gps-engine` sharded run
/// with in-stream estimation: one `InStreamEstimator` per shard on the
/// engine's exact per-shard seeds and budgets, routed by the engine's
/// exact partition — so its estimates are **bit-identical** to
/// an in-stream `ShardedGps::launch` + `estimate_in_stream` on the same
/// config and stream (threading never changes per-shard arrival order),
/// while remaining queryable at any mid-stream checkpoint. Table 3's
/// sharded tracking arm runs on this.
pub struct ShardedInStream {
    parts: Vec<InStreamEstimator<TriangleWeight>>,
    partitioner: EdgePartitioner,
}

impl ShardedInStream {
    /// Mirror of `ShardedGps::new(m, TriangleWeight, seed, shards)` with
    /// in-stream estimation.
    pub fn new(m: usize, seed: u64, shards: usize) -> Self {
        assert!(shards > 0 && m >= shards, "every shard needs a budget");
        ShardedInStream {
            parts: (0..shards)
                .map(|i| {
                    InStreamEstimator::new(
                        ShardedGps::<TriangleWeight>::shard_capacity(m, shards, i),
                        TriangleWeight::default(),
                        shard_seed(seed, i),
                    )
                })
                .collect(),
            partitioner: EdgePartitioner::new(seed, shards),
        }
    }

    /// Merged estimates at the current stream position (the engine's
    /// `estimate_in_stream`, available at any checkpoint).
    pub fn estimates(&self) -> TriadEstimates {
        let parts: Vec<TriadEstimates> = self.parts.iter().map(|p| p.estimates()).collect();
        TriadEstimates::merged_colored(&parts)
    }
}

impl TriangleEstimator for ShardedInStream {
    fn process(&mut self, edge: Edge) {
        let s = self.partitioner.shard_of(edge);
        self.parts[s].process(edge);
    }

    fn triangle_estimate(&self) -> f64 {
        let s = self.parts.len() as f64;
        s * s * self.parts.iter().map(|p| p.triangle_count()).sum::<f64>()
    }

    fn stored_edges(&self) -> usize {
        self.parts.iter().map(|p| p.sampler().len()).sum()
    }

    fn name(&self) -> &'static str {
        "GPS SHARDED IN-STREAM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_engine::{Estimation, Launch};

    fn k5() -> Vec<Edge> {
        let mut v = vec![];
        for a in 0..5u32 {
            for b in (a + 1)..5 {
                v.push(Edge::new(a, b));
            }
        }
        v
    }

    #[test]
    fn sharded_mirror_is_bit_identical_to_the_engine() {
        let mut edges = vec![];
        for base in (0..200u32).step_by(5) {
            for a in 0..5 {
                for b in (a + 1)..5 {
                    edges.push(Edge::new(base + a, base + b));
                }
            }
        }
        for shards in [1usize, 3] {
            let launch = Launch {
                estimation: Estimation::InStream(None),
                ..Launch::default()
            };
            let cfg = gps_engine::EngineConfig::new(60, shards, 21);
            let mut engine = ShardedGps::launch(cfg, TriangleWeight::default(), launch);
            engine.push_stream(edges.iter().copied());
            let from_engine = engine.estimate_in_stream();
            let mut mirror = ShardedInStream::new(60, 21, shards);
            for &e in &edges {
                mirror.process(e);
            }
            let from_mirror = mirror.estimates();
            assert_eq!(
                from_engine.triangles.value.to_bits(),
                from_mirror.triangles.value.to_bits(),
                "S={shards}"
            );
            assert_eq!(
                from_engine.triangles.variance.to_bits(),
                from_mirror.triangles.variance.to_bits()
            );
            assert_eq!(
                from_engine.wedges.value.to_bits(),
                from_mirror.wedges.value.to_bits()
            );
            assert_eq!(
                from_mirror.triangles.value.to_bits(),
                mirror.triangle_estimate().to_bits(),
                "trait accessor must agree with the merged bundle"
            );
        }
    }

    #[test]
    fn adapters_are_exact_under_full_retention() {
        let mut post = GpsPost::new(100, 1);
        let mut instream = GpsInStream::new(100, 1);
        for e in k5() {
            post.process(e);
            instream.process(e);
        }
        assert!((post.triangle_estimate() - 10.0).abs() < 1e-9);
        assert!((instream.triangle_estimate() - 10.0).abs() < 1e-9);
        assert_eq!(post.stored_edges(), 10);
        assert_eq!(instream.stored_edges(), 10);
        assert_eq!(post.name(), "GPS POST");
        assert_eq!(instream.name(), "GPS IN-STREAM");
    }
}
