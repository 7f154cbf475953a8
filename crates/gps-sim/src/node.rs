//! A simulated shard host driving the **production** shard runner.
//!
//! [`LeafNode`] owns exactly what a `gps-engine` worker thread owns — a
//! [`ShardRunner`] in estimating mode (real `GpsSampler` + real
//! `InStreamEstimator`), recovery checkpoints in the real
//! `gps_core::persist` format, and the engine's restart-seed derivation —
//! but is driven by discrete events instead of a thread. Crash semantics
//! mirror the engine's supervisor: the crashing arrival is consumed and
//! lost along with everything after the last checkpoint; edges delivered
//! while the node is down are queued (the engine's feed channel survives a
//! worker crash) and replayed on restore; the restore RNG stream is
//! re-derived deterministically from the engine seed and restart ordinal.
//! Epoch reports are the runner's own ([`ShardRunner::maybe_report`]), on
//! the engine's cadence, anchored at the restored watermark after a
//! restore.

use gps_core::weights::EdgeWeight;
use gps_core::GpsSampler;
use gps_core::TriadEstimates;
use gps_engine::shard::{restart_seed, ShardRunner};
use gps_engine::{shard_seed, ShardReport};
use gps_graph::types::Edge;
use gps_graph::BackendKind;

/// One simulated shard node (see the [module docs](self)).
pub struct LeafNode<W> {
    shard: usize,
    engine_seed: u64,
    capacity: usize,
    checkpoint_every: u64,
    epoch_every: u64,
    weight_fn: W,
    /// `None` while crashed (between crash and restore).
    runner: Option<ShardRunner<W>>,
    ckpt: Vec<u8>,
    ckpt_arrivals: u64,
    next_ckpt: u64,
    /// Edges delivered while down, replayed in delivery order on restore.
    pending: Vec<Edge>,
    lost: u64,
    restarts: u32,
}

impl<W: EdgeWeight + Clone> LeafNode<W> {
    /// A fresh node for `shard` with per-shard budget `capacity`, seeded
    /// exactly like the engine seeds its workers
    /// (`shard_seed(engine_seed, shard)`). An initial checkpoint of the
    /// empty state is taken so a pre-first-checkpoint crash restores to
    /// watermark 0 cleanly.
    pub fn new(
        shard: usize,
        capacity: usize,
        engine_seed: u64,
        checkpoint_every: u64,
        epoch_every: u64,
        weight_fn: W,
    ) -> Self {
        let epoch_every = epoch_every.max(1);
        let sampler = GpsSampler::new(capacity, weight_fn.clone(), shard_seed(engine_seed, shard));
        let runner = ShardRunner::estimating(shard, sampler, None, None, epoch_every);
        let ckpt = runner.checkpoint_bytes();
        LeafNode {
            shard,
            engine_seed,
            capacity,
            checkpoint_every,
            epoch_every,
            weight_fn,
            runner: Some(runner),
            ckpt,
            ckpt_arrivals: 0,
            next_ckpt: checkpoint_every.max(1),
            pending: Vec::new(),
            lost: 0,
            restarts: 0,
        }
    }

    /// True while the node is down (crashed, restore not yet delivered).
    pub fn is_down(&self) -> bool {
        self.runner.is_none()
    }

    /// Arrivals processed so far (the crashed-and-rolled-back window is
    /// not included — it was lost).
    pub fn arrivals(&self) -> u64 {
        match &self.runner {
            Some(r) => r.arrivals(),
            None => self.ckpt_arrivals,
        }
    }

    /// Arrivals lost across all crashes of this node.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Completed restarts.
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// Current in-stream estimates (the node's live state; `None` while
    /// down).
    pub fn estimates(&self) -> Option<TriadEstimates> {
        self.runner.as_ref().and_then(|r| r.estimates())
    }

    /// Delivers one routed edge. Down nodes queue it (the engine's feed
    /// channel outlives a crashed worker); live nodes process it through
    /// the production runner, checkpointing on the engine's cadence, and
    /// return a [`ShardReport`] when the arrival crossed an epoch boundary.
    pub fn deliver(&mut self, edge: Edge) -> Option<ShardReport> {
        let Some(runner) = self.runner.as_mut() else {
            self.pending.push(edge);
            return None;
        };
        runner.process(edge);
        let arrivals = runner.arrivals();
        if self.checkpoint_every > 0 && arrivals >= self.next_ckpt {
            self.ckpt = runner.checkpoint_bytes();
            self.ckpt_arrivals = arrivals;
            while self.next_ckpt <= arrivals {
                self.next_ckpt += self.checkpoint_every;
            }
        }
        runner.maybe_report()
    }

    /// Crashes the node *while consuming* its next arrival (engine panic
    /// semantics): that arrival counts as attempted-and-lost, state rolls
    /// back to the last checkpoint, and everything after it is lost.
    pub fn crash_consuming(&mut self) {
        let attempted = self.arrivals() + 1;
        self.lost += attempted - self.ckpt_arrivals;
        self.runner = None;
    }

    /// Restores the node from its last checkpoint through the engine's
    /// real restart path ([`ShardRunner::from_checkpoint`], restart-ordinal
    /// RNG seed) and replays every edge queued while down. Returns the
    /// epoch reports the replay produced, in order.
    pub fn restore(&mut self) -> Vec<ShardReport> {
        assert!(self.runner.is_none(), "restore of a live node");
        self.restarts += 1;
        let seed = restart_seed(self.engine_seed, self.shard, self.restarts);
        let (runner, watermark, _corrupt) = ShardRunner::from_checkpoint(
            self.shard,
            &self.ckpt,
            self.weight_fn.clone(),
            seed,
            BackendKind::Compact,
            self.capacity,
            true,
            None,
            self.epoch_every,
        );
        self.runner = Some(runner);
        self.ckpt_arrivals = watermark;
        self.next_ckpt = watermark + self.checkpoint_every.max(1);
        let pending = std::mem::take(&mut self.pending);
        let mut reports = Vec::new();
        for edge in pending {
            if let Some(report) = self.deliver(edge) {
                reports.push(report);
            }
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_core::weights::TriangleWeight;

    fn edges(n: u32) -> Vec<Edge> {
        (0..n)
            .flat_map(|b| {
                [
                    Edge::new(b, b + 1),
                    Edge::new(b, b + 2),
                    Edge::new(b + 1, b + 2),
                ]
            })
            .collect()
    }

    fn node() -> LeafNode<TriangleWeight> {
        LeafNode::new(0, 32, 7, 16, 64, TriangleWeight::default())
    }

    #[test]
    fn clean_delivery_matches_a_bare_runner() {
        let mut n = node();
        let sampler = GpsSampler::new(32, TriangleWeight::default(), gps_engine::shard_seed(7, 0));
        let mut bare = ShardRunner::estimating(0, sampler, None, None, 64);
        for e in edges(50) {
            n.deliver(e);
            bare.process(e);
        }
        let a = n.estimates().unwrap();
        let b = bare.estimates().unwrap();
        assert_eq!(a.triangles.value.to_bits(), b.triangles.value.to_bits());
        assert_eq!(a.wedges.value.to_bits(), b.wedges.value.to_bits());
    }

    #[test]
    fn crash_loses_exactly_the_post_checkpoint_window_and_replays_queue() {
        let mut n = node();
        let stream = edges(40);
        // 40 arrivals → checkpoints at 16 and 32.
        for e in &stream[..40] {
            n.deliver(*e);
        }
        assert_eq!(n.arrivals(), 40);
        // Crash consuming arrival 41: loss = 41 − 32 = 9.
        n.crash_consuming();
        assert!(n.is_down());
        assert_eq!(n.lost(), 9);
        // Deliveries while down queue up.
        n.deliver(stream[41]);
        n.deliver(stream[42]);
        assert_eq!(n.arrivals(), 32, "down node reports checkpoint watermark");
        let _ = n.restore();
        assert_eq!(n.restarts(), 1);
        // Replayed queue: 32 (checkpoint) + 2 queued = 34.
        assert_eq!(n.arrivals(), 34);
        assert!(n.estimates().is_some());
    }

    #[test]
    fn reports_follow_the_epoch_cadence() {
        let mut n = node();
        let mut reports = Vec::new();
        for e in edges(50) {
            if let Some(r) = n.deliver(e) {
                reports.push(r);
            }
        }
        // 150 arrivals at epoch_every = 64 → reports at 64 and 128.
        assert_eq!(
            reports.iter().map(|r| r.arrivals).collect::<Vec<_>>(),
            vec![64, 128]
        );
    }
}
