//! The per-layer ledger: a single-threaded replay of each shard's
//! substream through the same public `gps-engine` / `gps-core` /
//! `gps-graph` calls the shard workers make, timed from here. Nothing is
//! traced inside the library.
//!
//! [`Plan`] mirrors the engine's routing exactly — `EdgePartitioner` over
//! 1024-edge `push_batch` chunks, a shard ships once its pending buffer
//! holds a batch — so the replay knows every shard's batch ends, hence
//! where its worker writes recovery checkpoints and how many arrivals the
//! scripted crash loses.

use crate::measure::{median, ns};
use crate::workload::{Workload, BATCH, CHECKPOINT_EVERY, CRASH, ENGINE_SEED, SHARDS};
use gps_core::{post_stream, GpsSampler, TriadEstimates, TriangleWeight};
use gps_engine::shard::restart_seed;
use gps_engine::{shard_seed, EdgePartitioner, ShardRunner, ShardedGps, DEFAULT_EPOCH_EVERY};
use gps_graph::{BackendKind, Edge};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Merges timed for `core.merge_ns`.
const MERGES: u32 = 100_000;
/// Arrivals per timed block of `graph.triad_probe_ns`: long enough to
/// amortise the clock read, short enough that the sample barely moves.
const PROBE_BLOCK: usize = 256;

/// The engine's routing of one stream.
pub struct Plan {
    /// Each shard's substream, in arrival order.
    pub substreams: Vec<Vec<Edge>>,
    /// Per shard: its arrival count at the end of every shipped batch.
    batch_ends: Vec<Vec<u64>>,
}

impl Plan {
    pub fn new(stream: &[Edge]) -> Self {
        let partitioner = EdgePartitioner::new(ENGINE_SEED, SHARDS);
        let mut substreams: Vec<Vec<Edge>> = (0..SHARDS)
            .map(|_| Vec::with_capacity(stream.len() / SHARDS + BATCH))
            .collect();
        let mut batch_ends = vec![Vec::new(); SHARDS];
        let mut pending = [0usize; SHARDS];
        for chunk in stream.chunks(BATCH) {
            for &e in chunk {
                let s = partitioner.shard_of(e);
                substreams[s].push(e);
                pending[s] += 1;
            }
            for s in 0..SHARDS {
                if pending[s] >= BATCH {
                    batch_ends[s].push(substreams[s].len() as u64);
                    pending[s] = 0;
                }
            }
        }
        // `finish()` ships whatever is still pending.
        for s in 0..SHARDS {
            if pending[s] > 0 {
                batch_ends[s].push(substreams[s].len() as u64);
            }
        }
        Plan {
            substreams,
            batch_ends,
        }
    }

    /// Arrival counts at which shard `s`'s worker writes a checkpoint: the
    /// first batch end at or past each multiple of `CHECKPOINT_EVERY`.
    pub fn checkpoint_positions(&self, s: usize) -> Vec<u64> {
        let mut next = CHECKPOINT_EVERY;
        let mut out = Vec::new();
        for &end in &self.batch_ends[s] {
            if end >= next {
                while next <= end {
                    next += CHECKPOINT_EVERY;
                }
                out.push(end);
            }
        }
        out
    }

    /// The last checkpoint shard `CRASH.0` wrote before its crash arrival
    /// (0 is the launch checkpoint).
    fn crash_checkpoint(&self) -> u64 {
        self.checkpoint_positions(CRASH.0)
            .into_iter()
            .filter(|&p| p < CRASH.1)
            .max()
            .unwrap_or(0)
    }

    /// Arrivals the workload's scripted crash loses: those after the last
    /// checkpoint, up to and including the panicking one.
    pub fn scripted_loss(&self, w: &Workload) -> u64 {
        match w.crash {
            Some((_, at)) => at - self.crash_checkpoint(),
            None => 0,
        }
    }
}

/// Per-layer costs from the replay.
pub struct Ledger {
    pub route_ns_per_edge: f64,
    pub update_ns_per_edge: f64,
    pub instream_ns_per_edge: f64,
    pub insert_share: f64,
    pub evict_share: f64,
    pub duplicate_share: f64,
    /// Checkpoint positions replayed (both shards).
    pub checkpoints: usize,
    /// Medians over every checkpoint position of both shards.
    pub checkpoint_ms: f64,
    pub checkpoint_ns_per_sampled_edge: f64,
    pub checkpoint_kb: f64,
    pub restore_ms: f64,
    /// Σ over shards of `post_stream::estimate` on the final sample.
    pub post_stream_ms: f64,
    pub merge_ns: f64,
    pub triad_probe_ns: f64,
    /// Seconds of replayed work the workers' timed phase contains: route,
    /// in-stream processing, and — where the workload checkpoints — every
    /// checkpoint and the one restore.
    pub layer_s: f64,
    /// Merged final in-stream estimates of the replay, crash included.
    pub merged: TriadEstimates,
}

fn fresh_sampler(w: &Workload, s: usize) -> GpsSampler<TriangleWeight> {
    GpsSampler::with_backend(
        shard_capacity(w, s),
        TriangleWeight::default(),
        shard_seed(ENGINE_SEED, s),
        BackendKind::Compact,
    )
}

fn shard_capacity(w: &Workload, s: usize) -> usize {
    ShardedGps::<TriangleWeight>::shard_capacity(w.capacity, SHARDS, s)
}

fn estimating(w: &Workload, s: usize) -> ShardRunner<TriangleWeight> {
    ShardRunner::estimating(s, fresh_sampler(w, s), None, None, DEFAULT_EPOCH_EVERY)
}

/// Replays `plan` for workload `w`.
pub fn replay(stream: &[Edge], plan: &Plan, w: &Workload) -> Ledger {
    let arrivals = stream.len() as f64;
    let partitioner = EdgePartitioner::new(ENGINE_SEED, SHARDS);
    let route_s = median(
        &(0..3)
            .map(|_| {
                let t = Instant::now();
                let mut acc = 0usize;
                for &e in stream {
                    acc = acc.wrapping_add(partitioner.shard_of(black_box(e)));
                }
                black_box(acc);
                t.elapsed().as_secs_f64()
            })
            .collect::<Vec<_>>(),
    );

    // GPSUpdate alone.
    let mut update = Duration::ZERO;
    let (mut inserts, mut evictions, mut duplicates) = (0u64, 0u64, 0u64);
    for (s, sub) in plan.substreams.iter().enumerate() {
        let mut sampler = fresh_sampler(w, s);
        let t = Instant::now();
        for &e in sub {
            sampler.process(e);
        }
        update += t.elapsed();
        let stats = sampler.stats();
        inserts += stats.inserts;
        evictions += stats.evictions;
        duplicates += stats.duplicates;
    }

    // In-stream estimation, pausing at every checkpoint position to time
    // the checkpoint the worker would write there.
    let crash_at = plan.crash_checkpoint();
    let mut instream = Duration::ZERO;
    let (mut ckpt_ms, mut ckpt_ns_per_edge, mut ckpt_kb) = (vec![], vec![], vec![]);
    let mut ckpt_total = Duration::ZERO;
    let mut crash_bytes = Vec::new();
    let mut parts = Vec::with_capacity(SHARDS);
    let mut post_stream = Duration::ZERO;
    for (s, sub) in plan.substreams.iter().enumerate() {
        let mut runner = estimating(w, s);
        if s == CRASH.0 && crash_at == 0 {
            crash_bytes = runner.checkpoint_bytes();
        }
        let mut process = |runner: &mut ShardRunner<TriangleWeight>, edges: &[Edge]| {
            let t = Instant::now();
            for &e in edges {
                runner.process(e);
            }
            instream += t.elapsed();
        };
        let mut pos = 0usize;
        for end in plan.checkpoint_positions(s) {
            let end = end as usize;
            process(&mut runner, &sub[pos..end]);
            pos = end;
            let t = Instant::now();
            let bytes = runner.checkpoint_bytes();
            let took = t.elapsed();
            ckpt_total += took;
            ckpt_ms.push(took.as_secs_f64() * 1e3);
            ckpt_ns_per_edge.push(ns(took) as f64 / runner.sampler().len().max(1) as f64);
            ckpt_kb.push(bytes.len() as f64 / 1e3);
            if s == CRASH.0 && end as u64 == crash_at {
                crash_bytes = bytes;
            }
        }
        process(&mut runner, &sub[pos..]);
        let t = Instant::now();
        black_box(post_stream::estimate(runner.sampler()));
        post_stream += t.elapsed();
        parts.push(runner.estimates().expect("estimating runner"));
    }

    // The restart the supervisor performs at the crash site; where the
    // workload really crashes, the restored shard finishes its substream
    // (minus the poison arrival) so the replay covers the faulted run.
    let t = Instant::now();
    let (mut restored, from, corrupt) = ShardRunner::from_checkpoint(
        CRASH.0,
        &crash_bytes,
        TriangleWeight::default(),
        restart_seed(ENGINE_SEED, CRASH.0, 1),
        BackendKind::Compact,
        shard_capacity(w, CRASH.0),
        true,
        None,
        DEFAULT_EPOCH_EVERY,
    );
    let restore = t.elapsed();
    assert!(
        !corrupt && from == crash_at,
        "checkpoint restores where it was written"
    );
    if w.crash.is_some() {
        let rest = usize::try_from(CRASH.1).expect("crash site fits usize");
        for &e in &plan.substreams[CRASH.0][rest..] {
            restored.process(e);
        }
        parts[CRASH.0] = restored.estimates().expect("estimating runner");
    }

    // The graph probe the weight function and Alg. 3 resolve per arrival,
    // timed in blocks: each block's arrivals are probed against the sample
    // as it stands at the block's start, then processed untimed.
    let mut probed = Duration::ZERO;
    for (s, sub) in plan.substreams.iter().enumerate() {
        let mut sampler = fresh_sampler(w, s);
        for block in sub.chunks(PROBE_BLOCK) {
            let t = Instant::now();
            let view = sampler.view();
            for &e in block {
                black_box(view.triad_counts_raw(black_box(e)));
            }
            probed += t.elapsed();
            for &e in block {
                sampler.process(e);
            }
        }
    }

    let t = Instant::now();
    for _ in 0..MERGES {
        black_box(TriadEstimates::merged_colored(black_box(&parts)));
    }
    let merge_ns = ns(t.elapsed()) as f64 / f64::from(MERGES);

    let checkpointing = w.checkpoint_every > 0;
    let layer_s = route_s
        + instream.as_secs_f64()
        + if checkpointing {
            ckpt_total.as_secs_f64() + restore.as_secs_f64()
        } else {
            0.0
        };
    let per_edge = |d: Duration| ns(d) as f64 / arrivals;
    Ledger {
        route_ns_per_edge: route_s * 1e9 / arrivals,
        update_ns_per_edge: per_edge(update),
        instream_ns_per_edge: per_edge(instream),
        insert_share: inserts as f64 / arrivals,
        evict_share: evictions as f64 / arrivals,
        duplicate_share: duplicates as f64 / arrivals,
        checkpoints: ckpt_ms.len(),
        checkpoint_ms: median(&ckpt_ms),
        checkpoint_ns_per_sampled_edge: median(&ckpt_ns_per_edge),
        checkpoint_kb: median(&ckpt_kb),
        restore_ms: restore.as_secs_f64() * 1e3,
        post_stream_ms: post_stream.as_secs_f64() * 1e3,
        merge_ns,
        triad_probe_ns: per_edge(probed),
        layer_s,
        merged: TriadEstimates::merged_colored(&parts),
    }
}
