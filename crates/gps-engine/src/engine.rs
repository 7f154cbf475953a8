//! The sharded streaming engine: [`ShardedGps`].
//!
//! Threading model: each shard is one worker thread owning an independent
//! `GpsSampler` (per-shard budget `m/S` of the engine's total budget `m`).
//! The ingest thread routes every arrival to its shard's pending batch
//! buffer and ships full batches over a bounded `sync_channel` — the same
//! chunking idea as `post_stream::estimate_with_threads`, turned around to
//! parallelize `GPSUpdate` itself. Bounded queues give natural
//! backpressure: a producer outrunning the workers waits (or, with
//! [`EngineConfig::push_timeout`] set, gets a typed
//! [`PushError::Backpressure`]) instead of buffering the stream.
//!
//! Edges are routed by the seeded [`EdgePartitioner`], so a duplicate
//! arrival always lands on the shard that holds (or rejected) its first
//! occurrence — the per-shard duplicate skip is exactly the global one.
//!
//! ## Supervision and recovery
//!
//! Workers run every batch under `catch_unwind`: a panic inside `GPSUpdate`
//! (or injected by a [`FaultPlan`]) is contained, reported to the
//! supervisor as a typed event carrying the panic payload, and — when
//! checkpointing is on ([`EngineConfig::checkpoint_every`] > 0) — the shard
//! is restarted from its last checkpoint. Checkpoints reuse the
//! `gps_core::persist` format (a `gps-sample v2` section in estimating
//! mode, so the in-stream accumulators restore *exactly*); a restarted
//! shard resumes with a deterministically re-derived RNG stream and keeps
//! consuming its feed channel, including every batch that was queued when
//! it crashed. The arrivals between the checkpoint and the crash are lost —
//! deterministically so: the loss is exactly the per-shard arrival interval
//! `(checkpoint, crash]`, which makes whole chaos runs bit-reproducible.
//!
//! Loss is never silent: [`ShardedGps::health`] itemizes every incident,
//! and estimates from a degraded engine widen their variance by the lost
//! arrival fraction ([`gps_core::TriadEstimates::widened_for_loss`]) so
//! confidence intervals stay honest about what the engine did not see.
//! Without checkpointing, a worker panic is terminal and surfaces as
//! [`EngineError::ShardPanicked`] (from `try_*` methods) or a panic
//! carrying the same message (from the panicking wrappers).

use crate::fault::FaultPlan;
use crate::partition::{shard_seed, EdgePartitioner};
use crate::snapshot::SavedEngine;
use gps_core::weights::EdgeWeight;
use gps_core::{post_stream, GpsSampler, InStreamTotals, TriadEstimates};
use gps_graph::types::Edge;
use gps_graph::BackendKind;
use gps_telemetry::{
    Counter, Event, EventKind, Gauge, Histogram, Registry, Stability, TelemetrySnapshot,
};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Engine construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Total reservoir budget `m`, split across shards (shard `i` gets
    /// `m/S`, the first `m mod S` shards one more).
    pub capacity: usize,
    /// Number of shards / worker threads `S`.
    pub shards: usize,
    /// Engine seed: drives every shard RNG and the edge partition.
    pub seed: u64,
    /// Edges per channel batch (amortizes one `send` over this many
    /// arrivals).
    pub batch: usize,
    /// Bounded channel depth, in batches per shard.
    pub queue: usize,
    /// Per-shard arrivals between two [`ShardReport`]s on the epoch hook
    /// (in-stream estimating mode only; ignored without a hook).
    pub epoch_every: u64,
    /// Per-shard arrivals between two recovery checkpoints; `0` (the
    /// default) disables checkpointing, making any worker panic terminal.
    /// With checkpointing on, a crashed shard restarts from its last
    /// checkpoint and only the arrivals since it are lost (accounted in
    /// [`ShardedGps::health`]).
    pub checkpoint_every: u64,
    /// How long a `push` may wait on a full shard queue before reporting
    /// [`PushError::Backpressure`]; `None` (the default) waits
    /// indefinitely, matching the pre-supervision blocking behavior.
    pub push_timeout: Option<Duration>,
    /// How long [`ShardedGps::finish`] waits for workers to drain before
    /// writing stragglers off from their checkpoints; `None` (the default)
    /// waits indefinitely.
    pub finish_timeout: Option<Duration>,
}

/// Default [`EngineConfig::epoch_every`]: one shard report per 2048
/// per-shard arrivals.
pub const DEFAULT_EPOCH_EVERY: u64 = 2048;

/// Restart budget per shard: a shard that panics more often than this
/// becomes a terminal [`EngineError::ShardPanicked`].
const MAX_RESTARTS: u32 = 3;

/// Sleep between two queue-full retries of a pending batch.
const SHIP_BACKOFF: Duration = Duration::from_micros(50);

impl EngineConfig {
    /// A config with the tuned defaults: 1024-edge batches, 4-batch queues,
    /// a shard report every [`DEFAULT_EPOCH_EVERY`]
    /// per-shard arrivals, no checkpointing, no timeouts.
    pub fn new(capacity: usize, shards: usize, seed: u64) -> Self {
        EngineConfig {
            capacity,
            shards,
            seed,
            batch: 1024,
            queue: 4,
            epoch_every: DEFAULT_EPOCH_EVERY,
            checkpoint_every: 0,
            push_timeout: None,
            finish_timeout: None,
        }
    }
}

/// A terminal shard failure: the engine could not (or was configured not
/// to) recover the shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A shard worker panicked and no recovery was possible (checkpointing
    /// off, the restart budget exhausted, or the thread died without even
    /// delivering a crash report). Carries the panic payload text.
    ShardPanicked {
        /// The failed shard.
        shard: usize,
        /// Panic payload (or a synthetic description for silent deaths).
        payload: String,
    },
    /// A shard worker failed to drain within [`EngineConfig::finish_timeout`]
    /// and there was no checkpoint substrate to write it off from
    /// ([`EngineConfig::checkpoint_every`] is `0`).
    ShardStalled {
        /// The stalled shard.
        shard: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ShardPanicked { shard, payload } => {
                write!(f, "shard {shard} worker panicked: {payload}")
            }
            EngineError::ShardStalled { shard } => {
                write!(
                    f,
                    "shard {shard} worker stalled past the finish deadline (no checkpoint to recover from)"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Why a `try_push` could not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The shard's queue stayed full past [`EngineConfig::push_timeout`].
    /// The offered edge stays buffered in the shard's pending batch; a
    /// later push (or `finish`) retries shipping it, so nothing is lost.
    Backpressure {
        /// The congested shard.
        shard: usize,
    },
    /// A shard failed terminally (see [`EngineError`]).
    Shard(EngineError),
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Backpressure { shard } => {
                write!(f, "shard {shard} queue stayed full past the push deadline")
            }
            PushError::Shard(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PushError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PushError::Shard(e) => Some(e),
            PushError::Backpressure { .. } => None,
        }
    }
}

/// One recovered (or written-off) shard failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardIncident {
    /// The shard that failed.
    pub shard: usize,
    /// Panic payload for crashes; `None` for stalls.
    pub payload: Option<String>,
    /// True when the shard was written off as a straggler at finish time
    /// rather than crashing.
    pub stalled: bool,
    /// Per-shard arrivals lost: consumed (or routed) past the checkpoint
    /// the shard was recovered from.
    pub lost_arrivals: u64,
    /// True when the recovery checkpoint failed to parse and the shard
    /// restarted from scratch (losing its whole prefix).
    pub checkpoint_corrupt: bool,
    /// The shard's restart count after handling this incident.
    pub restarts: u32,
}

/// Aggregated fault/recovery record of an engine run. Empty incidents ⇔
/// the engine behaved exactly like the pre-supervision one, bit for bit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineHealth {
    /// Every recovered or written-off failure, in handling order.
    pub incidents: Vec<ShardIncident>,
    /// Total arrivals lost across all incidents.
    pub lost_arrivals: u64,
}

impl EngineHealth {
    /// True when any shard lost arrivals or was recovered: estimates are
    /// still reported, with variances widened by the lost fraction, but
    /// they no longer cover the full stream.
    pub fn degraded(&self) -> bool {
        !self.incidents.is_empty()
    }
}

/// One shard's progress report, delivered on the [`EpochHook`] from the
/// shard's worker thread: its current in-stream (snapshot) estimates at its
/// current substream position. Reports from one shard arrive in order;
/// reports from different shards are concurrent.
#[derive(Clone, Copy, Debug)]
pub struct ShardReport {
    /// Reporting shard index.
    pub shard: usize,
    /// Arrivals this shard has consumed (its substream position).
    pub arrivals: u64,
    /// Arrivals consumed since this shard's previous report — the size of
    /// the batch that triggered this one. Zero for the unconditional
    /// start-of-worker report. Provenance traces use it to attribute the
    /// arrival-batch stage of an epoch.
    pub batch_arrivals: u64,
    /// The shard's in-stream estimates of *its own* (monochromatic)
    /// subgraph counts — merge across shards with
    /// [`TriadEstimates::merged_colored`].
    pub estimates: TriadEstimates,
}

/// Callback invoked by estimating-mode workers every
/// [`EngineConfig::epoch_every`] per-shard arrivals, plus once at drain end
/// (so the final state of every shard is always reported). Runs on the
/// worker thread — keep it cheap; `gps-serve` publishes an epoch from it.
pub type EpochHook = Arc<dyn Fn(ShardReport) + Send + Sync>;

/// What each worker runs per edge — factored into [`crate::shard`] so
/// thread-free hosts (the `gps-sim` discrete-event nodes) drive the exact
/// same logic.
use crate::shard::ShardRunner as Runner;

/// What the shard workers estimate. Sampling is the same either way — one
/// reservoir serves both of the paper's estimators — so an in-stream engine
/// selects bit-identical reservoirs to a post-stream one on the same config,
/// and [`ShardedGps::estimate`] stays available on both.
#[derive(Default)]
pub enum Estimation {
    /// Bare samplers (`GPSUpdate` only): post-stream estimation at finish.
    #[default]
    PostStream,
    /// Every worker runs the paper's in-stream estimator (Algorithm 3) over
    /// its substream, so the lower-variance snapshot estimates become
    /// available through [`ShardedGps::estimate_in_stream`]; the hook, if
    /// given, receives a [`ShardReport`] every [`EngineConfig::epoch_every`]
    /// per-shard arrivals (the publication hook `gps-serve` builds its live
    /// epochs on).
    InStream(Option<EpochHook>),
}

/// How [`ShardedGps::launch`] starts an engine, beyond its [`EngineConfig`]
/// and weight function. [`Launch::default`] is a fresh post-stream engine
/// with no injected faults on a private telemetry registry.
#[derive(Default)]
pub struct Launch {
    /// What the workers estimate.
    pub estimation: Estimation,
    /// A deterministic [`FaultPlan`] injected into the workers — the
    /// chaos-testing hook.
    pub faults: Option<FaultPlan>,
    /// The telemetry registry the engine's metrics are registered on;
    /// `None` creates a private one. Layers that stack their own metrics
    /// on top of the engine (`gps-serve`) pass a shared registry so a
    /// single [`TelemetrySnapshot`] covers the whole stack. Registration
    /// is idempotent by name, so a registry that has seen a previous engine
    /// generation hands back the *same* counters and the ledgers stay
    /// cumulative across restores.
    pub registry: Option<Arc<Registry>>,
    /// A saved engine to resume from instead of empty reservoirs. The
    /// snapshot supplies the per-shard samplers, their in-stream
    /// accumulators and the stream position; the config supplies
    /// everything else. In-stream workers resume *exactly* from
    /// `gps-sample v2` sections and re-seed from the restored sample's
    /// post-stream estimate on `v1` ones.
    pub resume: Option<SavedEngine>,
}

/// What `snapshot` reads off a finished engine: config, per-shard
/// samplers, per-shard in-stream totals, and the stream position.
pub(crate) type EngineParts<'a, W> = (
    &'a EngineConfig,
    &'a [GpsSampler<W>],
    &'a [Option<InStreamTotals>],
    u64,
);

/// The last recovery checkpoint a shard wrote: a serialized `gps-sample`
/// section (sampler plus, in estimating mode, accumulator state — the
/// arrival watermark travels inside it). Written by the worker, read by
/// the supervisor on restart.
type CheckpointSlot = Vec<u8>;

/// What a worker thread reports back to the supervisor. Every worker ends
/// with exactly one event: `Done` after a clean drain, `Panicked` when a
/// batch blew up. A panicking worker hands its feed receiver back, so the
/// channel — and every batch still queued on it — survives the crash and a
/// restarted worker continues exactly where routing left off.
enum WorkerEvent<W> {
    Done {
        shard: usize,
        /// Boxed: a sampler is hundreds of bytes and would dwarf the
        /// `Panicked` variant in every channel slot.
        collected: Box<Collected<W>>,
    },
    Panicked {
        shard: usize,
        payload: String,
        /// Per-shard arrivals consumed-or-attempted when the panic hit
        /// (the panicking arrival inclusive).
        at: u64,
        /// Unprocessed remainder of the in-flight batch.
        rest: Vec<Edge>,
        /// The feed receiver, handed back for the restarted worker.
        rx: Receiver<Vec<Edge>>,
    },
}

/// Telemetry handles shared with every worker thread. All counters here
/// are stable-class: batch boundaries, checkpoint sites, and crash sites
/// are arrival-keyed, so same-seed same-plan runs record identical
/// totals. The queue-depth gauge is the one timing-class member — it
/// measures scheduling.
#[derive(Clone)]
struct WorkerMetrics {
    /// Arrivals consumed in *completed* batches (includes arrivals later
    /// rolled back by a checkpoint restore; the rollback is itemized in
    /// `gps_engine_lost_arrivals_total`).
    arrivals: Counter,
    batches: Counter,
    checkpoints: Counter,
    checkpoint_bytes: Counter,
    /// Per-shard arrivals between consecutive checkpoint writes.
    checkpoint_interval: Histogram,
    /// Batches shipped by the supervisor (internal, unregistered).
    shipped: Counter,
    /// Batches taken off a feed channel by a worker (internal,
    /// unregistered).
    drained: Counter,
    /// High-water mark of engine-wide in-flight batches (shipped minus
    /// drained, sampled by workers at batch pickup — approximate by
    /// construction, hence timing-class).
    depth_highwater: Gauge,
    registry: Arc<Registry>,
}

/// Supervisor-side telemetry: the worker bundle plus the incident
/// counters only `handle_panic` / `abandon_straggler` touch.
struct EngineMetrics {
    worker: WorkerMetrics,
    restarts: Counter,
    lost: Counter,
    sampler_inserts: Counter,
    sampler_evictions: Counter,
    sampler_rejections: Counter,
    sampler_duplicates: Counter,
    sampler_slab_spills: Counter,
}

impl EngineMetrics {
    /// Registers the engine's metric set on `registry`. Metric names and
    /// meanings are cataloged in `docs/observability.md` (enforced by
    /// `gps-analyze metric-name-registry`).
    fn register(registry: Arc<Registry>) -> Self {
        EngineMetrics {
            worker: WorkerMetrics {
                arrivals: registry.counter("gps_engine_arrivals_total", Stability::Stable),
                batches: registry.counter("gps_engine_batches_total", Stability::Stable),
                checkpoints: registry.counter("gps_engine_checkpoints_total", Stability::Stable),
                checkpoint_bytes: registry
                    .counter("gps_engine_checkpoint_bytes_total", Stability::Stable),
                checkpoint_interval: registry
                    .histogram("gps_engine_checkpoint_interval_arrivals", Stability::Stable),
                shipped: Counter::default(),
                drained: Counter::default(),
                depth_highwater: registry
                    .gauge("gps_engine_queue_depth_highwater", Stability::Timing),
                registry: Arc::clone(&registry),
            },
            restarts: registry.counter("gps_engine_restarts_total", Stability::Stable),
            lost: registry.counter("gps_engine_lost_arrivals_total", Stability::Stable),
            sampler_inserts: registry.counter("gps_sampler_inserts_total", Stability::Stable),
            sampler_evictions: registry.counter("gps_sampler_evictions_total", Stability::Stable),
            sampler_rejections: registry.counter("gps_sampler_rejections_total", Stability::Stable),
            sampler_duplicates: registry.counter("gps_sampler_duplicates_total", Stability::Stable),
            sampler_slab_spills: registry
                .counter("gps_sampler_slab_spills_total", Stability::Stable),
        }
    }
}

/// Everything a worker thread owns; `run` is the worker loop.
struct WorkerLoop<W> {
    shard: usize,
    runner: Runner<W>,
    rx: Receiver<Vec<Edge>>,
    /// Batch to process before reading the channel (restart remainder).
    first: Option<Vec<Edge>>,
    recycle_tx: Sender<Vec<Edge>>,
    event_tx: Sender<WorkerEvent<W>>,
    ckpt: Arc<Mutex<CheckpointSlot>>,
    checkpoint_every: u64,
    faults: Option<Arc<FaultPlan>>,
    initial_report: bool,
    metrics: WorkerMetrics,
}

impl<W: EdgeWeight + Send + 'static> WorkerLoop<W> {
    fn spawn(self) -> JoinHandle<()> {
        std::thread::spawn(move || self.run())
    }

    fn run(mut self) {
        {
            // The prologue (spawn-time faults, initial report) runs under
            // the same panic containment as the batch loop.
            let runner = &self.runner;
            let faults = self.faults.clone();
            let shard = self.shard;
            let initial_report = self.initial_report;
            if let Err(payload) = catch_unwind(AssertUnwindSafe(move || {
                if let Some(plan) = &faults {
                    plan.at_spawn(shard);
                }
                if initial_report {
                    runner.report_now();
                }
            })) {
                let _ = self.event_tx.send(WorkerEvent::Panicked {
                    shard: self.shard,
                    payload: panic_text(payload),
                    at: self.runner.arrivals(),
                    rest: self.first.take().unwrap_or_default(),
                    rx: self.rx,
                });
                return;
            }
        }
        let mut next_ckpt = self.runner.arrivals() + self.checkpoint_every.max(1);
        let mut last_ckpt = self.runner.arrivals();
        loop {
            let batch = match self.first.take() {
                Some(batch) => batch,
                None => match self.rx.recv() {
                    Ok(batch) => {
                        self.metrics.drained.incr();
                        // In-flight depth at pickup: shipped minus drained
                        // plus the batch in hand. Cross-thread reads race
                        // benignly — the gauge is timing-class.
                        let shipped = self.metrics.shipped.get();
                        let drained = self.metrics.drained.get();
                        self.metrics
                            .depth_highwater
                            .record_max(shipped.saturating_sub(drained) + 1);
                        batch
                    }
                    Err(_) => break,
                },
            };
            let mut batch = batch;
            let before = self.runner.arrivals();
            let consumed = Cell::new(0usize);
            let outcome = {
                let runner = &mut self.runner;
                let faults = &self.faults;
                let shard = self.shard;
                let consumed = &consumed;
                let batch = &batch;
                catch_unwind(AssertUnwindSafe(move || {
                    for (i, &edge) in batch.iter().enumerate() {
                        consumed.set(i + 1);
                        if let Some(plan) = faults {
                            plan.before_arrival(shard, before + i as u64 + 1);
                        }
                        runner.process(edge);
                    }
                }))
            };
            match outcome {
                Ok(()) => {
                    batch.clear();
                    // Hand the drained buffer back for reuse; the
                    // producer may already be gone at drain time.
                    let _ = self.recycle_tx.send(batch);
                    self.metrics.arrivals.add(self.runner.arrivals() - before);
                    self.metrics.batches.incr();
                    self.runner.maybe_report();
                    if self.checkpoint_every > 0 && self.runner.arrivals() >= next_ckpt {
                        let arrivals = self.runner.arrivals();
                        while next_ckpt <= arrivals {
                            next_ckpt += self.checkpoint_every;
                        }
                        let mut bytes = self.runner.checkpoint_bytes();
                        if let Some(plan) = &self.faults {
                            if plan.corrupts_checkpoint(self.shard, arrivals) {
                                // Half a section never parses (truncated
                                // header or record-count mismatch), so the
                                // corruption is guaranteed detectable.
                                bytes.truncate(bytes.len() / 2);
                            }
                        }
                        self.metrics.checkpoints.incr();
                        self.metrics.checkpoint_bytes.add(bytes.len() as u64);
                        self.metrics
                            .checkpoint_interval
                            .record(arrivals - last_ckpt);
                        last_ckpt = arrivals;
                        self.metrics.registry.event(Event {
                            at: arrivals,
                            kind: EventKind::CheckpointWrite,
                            shard: Some(self.shard as u32),
                            epoch: None,
                            detail: bytes.len() as u64,
                        });
                        *locked(&self.ckpt) = bytes;
                    }
                }
                Err(payload) => {
                    // `consumed` counts the panicking arrival: it was
                    // offered and is not retried (it may be the poison).
                    // The *unconsumed* tail of the batch was never offered
                    // — it rides back as `rest` for the restarted worker,
                    // so only the (checkpoint, crash] window is lost and
                    // the loss ledger stays exact.
                    batch.drain(..consumed.get());
                    let _ = self.event_tx.send(WorkerEvent::Panicked {
                        shard: self.shard,
                        payload: panic_text(payload),
                        at: before + consumed.get() as u64,
                        rest: batch,
                        rx: self.rx,
                    });
                    return;
                }
            }
        }
        let (sampler, totals) = self.runner.into_parts();
        let _ = self.event_tx.send(WorkerEvent::Done {
            shard: self.shard,
            collected: Box::new(Collected { sampler, totals }),
        });
    }
}

/// Renders a panic payload for [`EngineError::ShardPanicked`].
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// Locks a mutex, riding through poison: checkpoint slots are whole-value
/// swaps, so a slot is coherent even if the writer panicked nearby.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One shard from the supervisor's side.
struct Worker {
    /// Feed sender; `None` once hung up (finish) or terminally failed.
    tx: Option<SyncSender<Vec<Edge>>>,
    /// The worker thread; `None` after joining or detaching a straggler.
    handle: Option<JoinHandle<()>>,
    /// Shared recovery checkpoint slot (worker writes, supervisor reads).
    ckpt: Arc<Mutex<CheckpointSlot>>,
    /// Per-shard arrivals shipped to (though not necessarily consumed by)
    /// this shard, counted from the same baseline as `sampler.arrivals()`.
    routed: u64,
    restarts: u32,
    /// Set when the shard failed terminally.
    dead: Option<EngineError>,
}

/// A shard's final state, collected from its `Done` event (or synthesized
/// from its checkpoint when the shard was written off as a straggler).
struct Collected<W> {
    sampler: GpsSampler<W>,
    totals: Option<InStreamTotals>,
}

/// Sharded `GPS(m)`: `S` independent reservoirs over a hash-partitioned
/// stream, with unbiased cross-shard estimate merging (see the crate docs
/// for the stratification + monochromacy-correction argument).
///
/// Lifecycle: start one with [`ShardedGps::launch`] (or its shorthand
/// [`ShardedGps::new`]), fresh or resumed from a snapshot;
/// [`ShardedGps::push`] while streaming, then
/// [`ShardedGps::finish`] (or any estimation call, which finishes
/// implicitly) to drain the channels and join the workers; after that the
/// per-shard samplers are owned by the engine and estimation/persistence
/// are available. `finish` is idempotent; pushing after it panics. The
/// `try_` variants ([`ShardedGps::try_push`], [`ShardedGps::try_finish`])
/// surface shard failures as typed errors instead of panicking.
///
/// ```
/// use gps_core::TriangleWeight;
/// use gps_engine::ShardedGps;
/// use gps_graph::Edge;
///
/// let mut engine = ShardedGps::new(64, TriangleWeight::default(), 42, 2);
/// engine.push_stream([Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)]);
/// let est = engine.estimate();
/// // Capacity exceeds the stream: every shard retained everything, so the
/// // merged estimate counts each shard's monochromatic triangles exactly —
/// // unbiased (not exact) for the global count under the random coloring.
/// assert!(est.triangles.value >= 0.0);
/// assert_eq!(engine.pushed(), 3);
/// ```
pub struct ShardedGps<W> {
    cfg: EngineConfig,
    weight_fn: W,
    partitioner: EdgePartitioner,
    /// Per-shard pending batch buffers (ingest side).
    pending: Vec<Vec<Edge>>,
    /// Live workers; empty once finished.
    workers: Vec<Worker>,
    /// Drained batch `Vec`s returned by the workers for reuse (kills the
    /// per-batch allocation that dominated the engine's single-core
    /// overhead; capacity survives the round trip).
    recycled: Receiver<Vec<Edge>>,
    recycle_tx: Sender<Vec<Edge>>,
    /// Worker → supervisor event channel (crash reports, final states).
    events: Receiver<WorkerEvent<W>>,
    event_tx: Sender<WorkerEvent<W>>,
    /// Per-shard final states as they arrive during finish.
    collected: Vec<Option<Collected<W>>>,
    estimation: Estimation,
    faults: Option<Arc<FaultPlan>>,
    health: EngineHealth,
    /// Terminal failure recorded by a completed `try_finish`.
    failed: Option<EngineError>,
    /// Collected samplers; filled by `finish`.
    samplers: Vec<GpsSampler<W>>,
    /// Per-shard final in-stream totals (estimating mode, post-finish).
    /// With the samplers' records, which hold the per-edge covariance
    /// accumulators, they are what `save` writes as `gps-sample v2`
    /// sections.
    in_states: Vec<Option<InStreamTotals>>,
    pushed: u64,
    /// Runtime metric handles (the registry lives behind
    /// [`ShardedGps::telemetry_registry`]).
    metrics: EngineMetrics,
    /// True once the final sampler stats were folded into the registry
    /// (`try_finish` success path; guards the idempotent re-entry).
    harvested: bool,
}

impl<W: EdgeWeight + Clone + Send + 'static> ShardedGps<W> {
    /// Starts a fresh post-stream engine with total budget `capacity` split
    /// across `shards` workers: [`ShardedGps::launch`] on
    /// [`EngineConfig::new`] with [`Launch::default`].
    ///
    /// # Panics
    /// Panics if `shards == 0` or `capacity < shards` (every shard needs a
    /// positive reservoir).
    pub fn new(capacity: usize, weight_fn: W, seed: u64, shards: usize) -> Self {
        Self::launch(
            EngineConfig::new(capacity, shards, seed),
            weight_fn,
            Launch::default(),
        )
    }

    /// Starts an engine: one worker thread per shard, each owning a
    /// `GpsSampler` with its share of `cfg.capacity` on its own
    /// seed-derived RNG stream. `launch` says what the workers estimate,
    /// which faults they inject, where their metrics go, and whether the
    /// reservoirs start empty or from a [`SavedEngine`]. A resumed engine
    /// takes its samplers, in-stream states and stream position from the
    /// snapshot and everything else — batch and queue sizes, epoch
    /// cadence, checkpointing, timeouts — from `cfg`.
    ///
    /// # Panics
    /// Panics if `cfg.shards == 0`, `cfg.capacity < cfg.shards`, or
    /// `batch`, `queue` or `epoch_every` is `0`. When resuming, also panics
    /// if the snapshot's seed, capacity or shard count differs from `cfg`'s,
    /// or its shard budgets do not sum to its capacity.
    pub fn launch(cfg: EngineConfig, weight_fn: W, launch: Launch) -> Self {
        assert!(cfg.shards > 0, "need at least one shard");
        assert!(
            cfg.capacity >= cfg.shards,
            "capacity {} cannot give {} shards a positive budget",
            cfg.capacity,
            cfg.shards
        );
        assert!(cfg.batch > 0, "batch size must be positive");
        assert!(cfg.queue > 0, "queue depth must be positive");
        assert!(cfg.epoch_every > 0, "epoch cadence must be positive");
        let Launch {
            estimation,
            faults,
            registry,
            resume,
        } = launch;
        let (pushed, shards) = match resume {
            Some(saved) => (saved.pushed(), saved.restore(&cfg, &weight_fn)),
            None => {
                let fresh = (0..cfg.shards).map(|i| {
                    let capacity = Self::shard_capacity(cfg.capacity, cfg.shards, i);
                    let sampler =
                        GpsSampler::new(capacity, weight_fn.clone(), shard_seed(cfg.seed, i));
                    (sampler, None)
                });
                (0, fresh.collect())
            }
        };
        let (recycle_tx, recycled) = channel::<Vec<Edge>>();
        let (event_tx, events) = channel::<WorkerEvent<W>>();
        let metrics = EngineMetrics::register(registry.unwrap_or_default());
        let mut engine = ShardedGps {
            partitioner: EdgePartitioner::new(cfg.seed, cfg.shards),
            pending: (0..cfg.shards)
                .map(|_| Vec::with_capacity(cfg.batch))
                .collect(),
            workers: Vec::with_capacity(cfg.shards),
            recycled,
            recycle_tx,
            events,
            event_tx,
            collected: (0..cfg.shards).map(|_| None).collect(),
            estimation,
            faults: faults.map(Arc::new),
            weight_fn,
            health: EngineHealth::default(),
            failed: None,
            samplers: Vec::with_capacity(cfg.shards),
            in_states: Vec::with_capacity(cfg.shards),
            pushed,
            metrics,
            harvested: false,
            cfg,
        };
        for (shard, (sampler, totals)) in shards.into_iter().enumerate() {
            let routed = sampler.arrivals();
            let runner = engine.runner_for(shard, sampler, totals);
            let ckpt: Arc<Mutex<CheckpointSlot>> =
                Arc::new(Mutex::new(if engine.cfg.checkpoint_every > 0 {
                    runner.checkpoint_bytes()
                } else {
                    Vec::new()
                }));
            let (tx, rx) = sync_channel::<Vec<Edge>>(engine.cfg.queue);
            let handle = WorkerLoop {
                shard,
                runner,
                rx,
                first: None,
                recycle_tx: engine.recycle_tx.clone(),
                event_tx: engine.event_tx.clone(),
                ckpt: ckpt.clone(),
                checkpoint_every: engine.cfg.checkpoint_every,
                faults: engine.faults.clone(),
                initial_report: true,
                metrics: engine.metrics.worker.clone(),
            }
            .spawn();
            engine.workers.push(Worker {
                tx: Some(tx),
                handle: Some(handle),
                ckpt,
                routed,
                restarts: 0,
                dead: None,
            });
        }
        engine
    }

    /// Budget of shard `i`: `m/S`, first `m mod S` shards get one more.
    /// Public (with [`shard_seed`]) so
    /// single-threaded mirrors of the engine can reproduce its exact
    /// per-shard samplers.
    pub fn shard_capacity(capacity: usize, shards: usize, i: usize) -> usize {
        capacity / shards + usize::from(i < capacity % shards)
    }

    /// Wraps a sampler in this engine's per-edge runner (an in-stream
    /// runner resumes its accumulators exactly when `totals` are given).
    fn runner_for(
        &self,
        shard: usize,
        sampler: GpsSampler<W>,
        totals: Option<InStreamTotals>,
    ) -> Runner<W> {
        match &self.estimation {
            Estimation::PostStream => Runner::plain(sampler),
            Estimation::InStream(hook) => {
                Runner::estimating(shard, sampler, totals, hook.clone(), self.cfg.epoch_every)
            }
        }
    }

    /// Rebuilds a runner for `shard` from its checkpoint slot. Returns the
    /// runner, the arrival watermark it restarts from, and whether the
    /// checkpoint was corrupt (in which case the shard restarts from
    /// scratch at watermark 0). The restart RNG stream is re-derived
    /// deterministically from the engine seed and the restart ordinal.
    fn restored_runner(
        &self,
        shard: usize,
        restarts: u32,
        with_hook: bool,
    ) -> (Runner<W>, u64, bool) {
        let bytes = locked(&self.workers[shard].ckpt).clone();
        let seed = crate::shard::restart_seed(self.cfg.seed, shard, restarts);
        let hook = match &self.estimation {
            Estimation::InStream(hook) if with_hook => hook.clone(),
            _ => None,
        };
        Runner::from_checkpoint(
            shard,
            &bytes,
            self.weight_fn.clone(),
            seed,
            BackendKind::Compact,
            Self::shard_capacity(self.cfg.capacity, self.cfg.shards, shard),
            matches!(self.estimation, Estimation::InStream(_)),
            hook,
            self.cfg.epoch_every,
        )
    }

    /// Offers one stream arrival to the engine (routes it to its shard;
    /// ships a batch when that shard's buffer fills).
    ///
    /// # Panics
    /// Panics if called after [`ShardedGps::finish`], if a shard failed
    /// terminally, or (with [`EngineConfig::push_timeout`] set) on
    /// backpressure past the deadline — use [`ShardedGps::try_push`] for
    /// the typed-error variant.
    pub fn push(&mut self, edge: Edge) {
        if let Err(e) = self.try_push(edge) {
            panic!("{e}");
        }
    }

    /// [`ShardedGps::push`] with typed errors instead of panics. On
    /// [`PushError::Backpressure`] the edge stays buffered (nothing is
    /// lost) and a later push or [`ShardedGps::finish`] retries shipping.
    ///
    /// # Panics
    /// Panics if called after [`ShardedGps::finish`].
    pub fn try_push(&mut self, edge: Edge) -> Result<(), PushError> {
        assert!(
            !self.workers.is_empty(),
            "push on a finished ShardedGps engine"
        );
        self.pushed += 1;
        let s = self.partitioner.shard_of(edge);
        self.pending[s].push(edge);
        if self.pending[s].len() >= self.cfg.batch {
            self.ship(s, self.cfg.push_timeout)?;
        }
        Ok(())
    }

    /// Feeds a pre-batched chunk (e.g. from `gps_stream::batched`); exactly
    /// equivalent to pushing each edge, but the whole chunk is routed to
    /// the per-shard buffers first and each shard ships at most once per
    /// call — one `len`-check pass per chunk instead of per edge (shipped
    /// batches may exceed [`EngineConfig::batch`]; per-shard edge order,
    /// and hence every result, is unaffected).
    ///
    /// # Panics
    /// Same conditions as [`ShardedGps::push`].
    pub fn push_batch(&mut self, batch: &[Edge]) {
        if let Err(e) = self.try_push_batch(batch) {
            panic!("{e}");
        }
    }

    /// [`ShardedGps::push_batch`] with typed errors instead of panics (see
    /// [`ShardedGps::try_push`] for the backpressure contract).
    ///
    /// # Panics
    /// Panics if called after [`ShardedGps::finish`].
    pub fn try_push_batch(&mut self, batch: &[Edge]) -> Result<(), PushError> {
        assert!(
            !self.workers.is_empty(),
            "push on a finished ShardedGps engine"
        );
        self.pushed += batch.len() as u64;
        for &e in batch {
            let s = self.partitioner.shard_of(e);
            self.pending[s].push(e);
        }
        for s in 0..self.cfg.shards {
            if self.pending[s].len() >= self.cfg.batch {
                self.ship(s, self.cfg.push_timeout)?;
            }
        }
        Ok(())
    }

    /// Feeds every edge of an iterator through [`ShardedGps::push`].
    pub fn push_stream<I: IntoIterator<Item = Edge>>(&mut self, edges: I) {
        for e in edges {
            self.push(e);
        }
    }

    /// Ships shard `s`'s pending buffer, retrying with backoff while its
    /// queue is full (up to `timeout`, indefinitely for `None`), draining
    /// supervisor events — and thereby restarting crashed shards — between
    /// attempts. On any error the batch is restored to the pending buffer.
    fn ship(&mut self, s: usize, timeout: Option<Duration>) -> Result<(), PushError> {
        let fresh = self
            .recycled
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(self.cfg.batch));
        let mut batch = std::mem::replace(&mut self.pending[s], fresh);
        let n = batch.len() as u64;
        let mut deadline: Option<Instant> = None;
        loop {
            if let Err(e) = self.drain_events() {
                self.unship(s, batch);
                return Err(PushError::Shard(e));
            }
            let Some(tx) = self.workers[s].tx.clone() else {
                let e = self.shard_error(s);
                self.unship(s, batch);
                return Err(PushError::Shard(e));
            };
            match tx.try_send(batch) {
                Ok(()) => {
                    self.workers[s].routed += n;
                    self.metrics.worker.shipped.incr();
                    return Ok(());
                }
                Err(TrySendError::Full(back)) => {
                    batch = back;
                    if let Some(t) = timeout {
                        let d = *deadline.get_or_insert_with(|| Instant::now() + t);
                        if Instant::now() >= d {
                            self.unship(s, batch);
                            return Err(PushError::Backpressure { shard: s });
                        }
                    }
                    std::thread::sleep(SHIP_BACKOFF);
                }
                Err(TrySendError::Disconnected(back)) => {
                    batch = back;
                    // The receiver is gone. If the worker panicked, its
                    // crash report (carrying the receiver) either already
                    // surfaced as a terminal error, or one more drain
                    // surfaces it now; a clean drain here means the thread
                    // died without reporting at all.
                    if let Err(e) = self.drain_events() {
                        self.unship(s, batch);
                        return Err(PushError::Shard(e));
                    }
                    let e = self.shard_error(s);
                    self.workers[s].dead.get_or_insert_with(|| e.clone());
                    self.workers[s].tx = None;
                    self.unship(s, batch);
                    return Err(PushError::Shard(e));
                }
            }
        }
    }

    /// Puts an unshippable batch back in front of the pending buffer.
    fn unship(&mut self, s: usize, mut batch: Vec<Edge>) {
        batch.append(&mut self.pending[s]);
        self.pending[s] = batch;
    }

    /// The terminal error of shard `s`, synthesizing one for silent deaths.
    fn shard_error(&self, s: usize) -> EngineError {
        self.workers[s]
            .dead
            .clone()
            .unwrap_or(EngineError::ShardPanicked {
                shard: s,
                payload: "worker terminated without a crash report".to_string(),
            })
    }

    /// Handles every queued worker event without blocking.
    fn drain_events(&mut self) -> Result<(), EngineError> {
        loop {
            match self.events.try_recv() {
                Ok(ev) => self.handle_event(ev)?,
                Err(_) => return Ok(()),
            }
        }
    }

    fn handle_event(&mut self, ev: WorkerEvent<W>) -> Result<(), EngineError> {
        match ev {
            WorkerEvent::Done { shard, collected } => {
                // A late Done from a shard already written off (straggler
                // restore) or failed is ignored: the books are closed.
                if self.collected[shard].is_none() && self.workers[shard].dead.is_none() {
                    self.collected[shard] = Some(*collected);
                }
                Ok(())
            }
            WorkerEvent::Panicked {
                shard,
                payload,
                at,
                rest,
                rx,
            } => self.handle_panic(shard, payload, at, rest, rx),
        }
    }

    /// Supervises one crash report: joins the dead thread, then either
    /// restarts the shard from its checkpoint (accounting the lost
    /// arrivals) or — without a checkpoint substrate or restart budget —
    /// records the failure as terminal.
    fn handle_panic(
        &mut self,
        shard: usize,
        payload: String,
        at: u64,
        rest: Vec<Edge>,
        rx: Receiver<Vec<Edge>>,
    ) -> Result<(), EngineError> {
        // Reap the dead thread eagerly; its JoinHandle result is `()`, the
        // real report arrived in the event we are holding.
        if let Some(handle) = self.workers[shard].handle.take() {
            let _ = handle.join();
        }
        let supervised = self.cfg.checkpoint_every > 0;
        if !supervised || self.workers[shard].restarts >= MAX_RESTARTS {
            // Dropping the receiver here makes later sends Disconnected.
            drop(rx);
            drop(rest);
            let err = EngineError::ShardPanicked { shard, payload };
            self.workers[shard].dead = Some(err.clone());
            self.workers[shard].tx = None;
            return Err(err);
        }
        self.workers[shard].restarts += 1;
        let restarts = self.workers[shard].restarts;
        let (runner, ckpt_arrivals, checkpoint_corrupt) =
            self.restored_runner(shard, restarts, true);
        let lost = at.saturating_sub(ckpt_arrivals);
        self.health.incidents.push(ShardIncident {
            shard,
            payload: Some(payload),
            stalled: false,
            lost_arrivals: lost,
            checkpoint_corrupt,
            restarts,
        });
        self.health.lost_arrivals += lost;
        self.metrics.restarts.incr();
        self.metrics.lost.add(lost);
        self.metrics.worker.registry.event(Event {
            at,
            kind: EventKind::ShardRestart,
            shard: Some(shard as u32),
            epoch: None,
            detail: lost,
        });
        // Re-anchor the slot at the state actually restarted from (if the
        // checkpoint was corrupt, the shard restarts from scratch and the
        // slot must say so rather than fail the same way again).
        *locked(&self.workers[shard].ckpt) = runner.checkpoint_bytes();
        // `routed` stands: it counts shipped batches, and the restarted
        // worker still drains everything queued on the channel. No initial
        // report — the shard's published watermark must not regress.
        let handle = WorkerLoop {
            shard,
            runner,
            rx,
            first: Some(rest),
            recycle_tx: self.recycle_tx.clone(),
            event_tx: self.event_tx.clone(),
            ckpt: self.workers[shard].ckpt.clone(),
            checkpoint_every: self.cfg.checkpoint_every,
            faults: self.faults.clone(),
            initial_report: false,
            metrics: self.metrics.worker.clone(),
        }
        .spawn();
        self.workers[shard].handle = Some(handle);
        Ok(())
    }

    /// Writes a straggler off at finish time: restores its last checkpoint
    /// as the shard's final state, accounts everything routed past that
    /// watermark as lost, and detaches the stuck thread. Without a
    /// checkpoint substrate the shard is marked terminally stalled instead.
    fn abandon_straggler(&mut self, s: usize) {
        if self.cfg.checkpoint_every == 0 {
            self.workers[s].dead = Some(EngineError::ShardStalled { shard: s });
            self.workers[s].handle = None;
            return;
        }
        let restarts = self.workers[s].restarts;
        let (runner, ckpt_arrivals, checkpoint_corrupt) = self.restored_runner(s, restarts, false);
        let tail = self.pending[s].len() as u64;
        self.pending[s].clear();
        let routed = self.workers[s].routed + tail;
        let lost = routed.saturating_sub(ckpt_arrivals);
        self.health.incidents.push(ShardIncident {
            shard: s,
            payload: None,
            stalled: true,
            lost_arrivals: lost,
            checkpoint_corrupt,
            restarts,
        });
        self.health.lost_arrivals += lost;
        self.metrics.lost.add(lost);
        self.metrics.worker.registry.event(Event {
            at: routed,
            kind: EventKind::StragglerAbandoned,
            shard: Some(s as u32),
            epoch: None,
            detail: lost,
        });
        // Detach the stuck thread: it holds only channel clones and the
        // checkpoint Arc, and its late Done (if any) is ignored.
        self.workers[s].handle = None;
        let (sampler, totals) = runner.into_parts();
        self.collected[s] = Some(Collected { sampler, totals });
    }

    /// Drains all pending batches, shuts the channels and collects the
    /// per-shard final states, taking ownership of the samplers.
    /// Idempotent.
    ///
    /// # Panics
    /// Panics on a terminal shard failure (see [`ShardedGps::try_finish`]
    /// for the typed-error variant).
    pub fn finish(&mut self) {
        if let Err(e) = self.try_finish() {
            panic!("{e}");
        }
    }

    /// [`ShardedGps::finish`] with typed errors instead of panics.
    ///
    /// With [`EngineConfig::finish_timeout`] set, shards that fail to
    /// drain in time are written off from their checkpoints (recorded as
    /// stalled incidents in [`ShardedGps::health`], their unconsumed
    /// arrivals counted lost) instead of blocking forever. A worker panic
    /// during the drain is restarted from its checkpoint like any other;
    /// it only becomes an error when recovery is impossible.
    pub fn try_finish(&mut self) -> Result<(), EngineError> {
        if self.workers.is_empty() {
            return match &self.failed {
                Some(e) => Err(e.clone()),
                None => Ok(()),
            };
        }
        let deadline = self.cfg.finish_timeout.map(|t| Instant::now() + t);
        let mut first_err: Option<EngineError> = None;
        for s in 0..self.cfg.shards {
            if self.pending[s].is_empty() {
                continue;
            }
            match self.ship(s, self.cfg.finish_timeout) {
                Ok(()) => {}
                // The unshipped tail stays pending; straggler accounting
                // below counts it as lost.
                Err(PushError::Backpressure { .. }) => {}
                Err(PushError::Shard(e)) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        // Hang up every live feed: recv loops end, workers report Done.
        for w in &mut self.workers {
            w.tx = None;
        }
        loop {
            let unresolved: Vec<usize> = (0..self.cfg.shards)
                .filter(|&s| self.collected[s].is_none() && self.workers[s].dead.is_none())
                .collect();
            if unresolved.is_empty() {
                break;
            }
            let ev = match deadline {
                None => self.events.recv().ok(),
                Some(d) => match d.checked_duration_since(Instant::now()) {
                    Some(left) => self.events.recv_timeout(left).ok(),
                    None => None,
                },
            };
            match ev {
                Some(ev) => {
                    if let Err(e) = self.handle_event(ev) {
                        first_err.get_or_insert(e);
                    }
                }
                // Deadline passed (or every event sender vanished, which
                // cannot happen while we hold one): write stragglers off.
                None => {
                    for s in unresolved {
                        self.abandon_straggler(s);
                    }
                }
            }
        }
        for w in &self.workers {
            if let Some(e) = &w.dead {
                first_err.get_or_insert(e.clone());
            }
        }
        self.workers.clear();
        if let Some(e) = first_err {
            for slot in &mut self.collected {
                *slot = None;
            }
            self.failed = Some(e.clone());
            return Err(e);
        }
        for slot in &mut self.collected {
            if let Some(Collected { sampler, totals }) = slot.take() {
                self.samplers.push(sampler);
                self.in_states.push(totals);
            }
        }
        self.harvest_sampler_stats();
        Ok(())
    }

    /// Folds the finished samplers' always-on ingest counters
    /// ([`gps_core::SamplerStats`]) into the registry — once, at
    /// successful finish. Stable-class: the final sampler states are a
    /// pure function of seed + config + fault plan. A restarted shard's
    /// counters restart from its recovery checkpoint (the rolled-back
    /// interval is accounted in `gps_engine_lost_arrivals_total`).
    fn harvest_sampler_stats(&mut self) {
        if self.harvested {
            return;
        }
        self.harvested = true;
        let mut totals = gps_core::SamplerStats::default();
        for s in &self.samplers {
            let st = s.stats();
            totals.inserts += st.inserts;
            totals.evictions += st.evictions;
            totals.rejections += st.rejections;
            totals.duplicates += st.duplicates;
            totals.slab_spills += st.slab_spills;
        }
        self.metrics.sampler_inserts.add(totals.inserts);
        self.metrics.sampler_evictions.add(totals.evictions);
        self.metrics.sampler_rejections.add(totals.rejections);
        self.metrics.sampler_duplicates.add(totals.duplicates);
        self.metrics.sampler_slab_spills.add(totals.slab_spills);
    }

    /// Whether [`ShardedGps::finish`] has run (workers are constructed
    /// alive, so "no live workers" is exactly "finished").
    #[inline]
    pub fn is_finished(&self) -> bool {
        self.workers.is_empty()
    }

    /// Merged triangle/wedge/clustering estimates over all shards
    /// (finishing the engine first if needed): per-shard post-stream
    /// estimates merged by [`TriadEstimates::merged_colored`] — strata sum,
    /// monochromacy rescale (`S²` triangles / `S` wedges / `S³`
    /// covariance), and for `S > 1` the between-shard empirical variance
    /// term, so reported CIs account for the coloring randomness instead
    /// of conditioning on the partition. See the crate docs.
    ///
    /// On a degraded engine (recovered crashes or written-off stragglers —
    /// see [`ShardedGps::health`]) the variances are additionally widened
    /// by the lost arrival fraction, so the CI honestly covers what the
    /// engine did not see; values are never silently rescaled.
    pub fn estimate(&mut self) -> TriadEstimates {
        self.finish();
        let parts: Vec<TriadEstimates> = self.samplers.iter().map(post_stream::estimate).collect();
        self.degrade(TriadEstimates::merged_colored(&parts))
    }

    /// Merged **in-stream** (snapshot, Algorithm 3) estimates over all
    /// shards, via the same [`TriadEstimates::merged_colored`] machinery —
    /// the lower-variance counterpart of [`ShardedGps::estimate`] on the
    /// identical samples. Finishes the engine first if needed; degraded
    /// runs widen variances exactly like [`ShardedGps::estimate`].
    ///
    /// # Panics
    /// Panics unless the engine was launched with [`Estimation::InStream`].
    pub fn estimate_in_stream(&mut self) -> TriadEstimates {
        self.finish();
        let parts = self
            .in_stream_parts()
            .expect("engine was not built with in-stream estimation");
        self.degrade(TriadEstimates::merged_colored(&parts))
    }

    /// Applies the honest-degradation widening when the run lost arrivals.
    /// A healthy run returns `est` untouched — bit for bit.
    fn degrade(&self, est: TriadEstimates) -> TriadEstimates {
        if !self.health.degraded() {
            return est;
        }
        let lost = self.health.lost_arrivals as f64;
        est.widened_for_loss(lost / self.pushed.max(1) as f64)
    }

    /// Per-shard final in-stream estimates (estimating mode, after
    /// finish); `None` for a plain engine or while workers are live.
    pub fn in_stream_parts(&self) -> Option<Vec<TriadEstimates>> {
        if self.in_states.is_empty() {
            return None;
        }
        self.in_states
            .iter()
            .map(|t| t.as_ref().map(InStreamTotals::estimates))
            .collect()
    }

    /// The per-shard samplers (available once finished).
    ///
    /// # Panics
    /// Panics if the engine has not been finished.
    pub fn samplers(&self) -> &[GpsSampler<W>] {
        assert!(
            !self.samplers.is_empty(),
            "samplers are owned by the workers until finish()"
        );
        &self.samplers
    }

    /// Consumes the engine, returning the per-shard samplers (finishing
    /// first if needed).
    pub fn into_samplers(mut self) -> Vec<GpsSampler<W>> {
        self.finish();
        std::mem::take(&mut self.samplers)
    }
}

impl<W: EdgeWeight> ShardedGps<W> {
    /// Number of shards `S`.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.cfg.shards
    }

    /// Total reservoir budget `m` (sum of per-shard budgets).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cfg.capacity
    }

    /// Engine seed (drives shard RNGs and the partition).
    #[inline]
    pub fn seed(&self) -> u64 {
        self.cfg.seed
    }

    /// Arrivals pushed so far (stream position `t`).
    #[inline]
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// The fault/recovery record of this run: every contained crash and
    /// written-off straggler, with lost-arrival accounting. Empty on a
    /// healthy run.
    #[inline]
    pub fn health(&self) -> &EngineHealth {
        &self.health
    }

    /// The engine's telemetry registry. Shared (`Arc`) so higher layers —
    /// `gps-serve` publishes board metrics here — can register their own
    /// metrics into the same snapshot, and so the lost-arrivals counter
    /// can be read from other threads while the supervisor runs.
    #[inline]
    pub fn telemetry_registry(&self) -> Arc<Registry> {
        Arc::clone(&self.metrics.worker.registry)
    }

    /// A consistent snapshot of every registered metric and the event
    /// ring. Sampler ingest counters land at finish; the rest are live.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.metrics.worker.registry.snapshot()
    }

    /// The engine's lost-arrivals counter handle (stable-class; tracks
    /// [`EngineHealth::lost_arrivals`]). `gps-serve` stamps its value on
    /// published epochs so degraded epochs are self-describing.
    #[inline]
    pub fn lost_arrivals_counter(&self) -> Counter {
        self.metrics.lost.clone()
    }

    /// The edge → shard assignment this engine routes with.
    #[inline]
    pub fn partitioner(&self) -> &EdgePartitioner {
        &self.partitioner
    }

    /// Sum of per-shard sample sizes `Σ|K̂_i|` (available once finished).
    pub fn len(&self) -> usize {
        self.samplers.iter().map(GpsSampler::len).sum()
    }

    /// True when no shard holds any edge (trivially true before finish).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Save-path internals for `snapshot`: the config, collected
    /// samplers and in-stream totals of a finished engine.
    pub(crate) fn parts(&self) -> EngineParts<'_, W> {
        (&self.cfg, &self.samplers, &self.in_states, self.pushed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_core::weights::{TriangleWeight, UniformWeight};

    fn faulted(plan: FaultPlan) -> Launch {
        Launch {
            faults: Some(plan),
            ..Launch::default()
        }
    }

    fn in_stream(hook: Option<EpochHook>) -> Launch {
        Launch {
            estimation: Estimation::InStream(hook),
            ..Launch::default()
        }
    }

    fn clique_chunks(n: u32) -> Vec<Edge> {
        let mut edges = vec![];
        for base in (0..n).step_by(5) {
            for a in 0..5 {
                for b in (a + 1)..5 {
                    edges.push(Edge::new(base + a, base + b));
                }
            }
        }
        edges
    }

    #[test]
    fn shard_budgets_partition_the_total() {
        for (m, s) in [(10, 3), (16, 4), (7, 7), (100, 8), (5, 1)] {
            let budgets: Vec<usize> = (0..s)
                .map(|i| ShardedGps::<UniformWeight>::shard_capacity(m, s, i))
                .collect();
            assert_eq!(budgets.iter().sum::<usize>(), m, "m={m} S={s}");
            assert!(budgets.iter().all(|&b| b > 0));
            assert!(budgets.iter().max().unwrap() - budgets.iter().min().unwrap() <= 1);
        }
    }

    #[test]
    fn finish_is_idempotent_and_estimation_finishes_implicitly() {
        let mut engine = ShardedGps::new(32, TriangleWeight::default(), 7, 4);
        engine.push_stream(clique_chunks(50));
        let est = engine.estimate(); // implicit finish
        assert!(engine.is_finished());
        engine.finish();
        engine.finish();
        let again = engine.estimate();
        assert_eq!(est.triangles.value, again.triangles.value);
        assert_eq!(
            engine.len(),
            engine.samplers().iter().map(|s| s.len()).sum()
        );
    }

    #[test]
    fn every_arrival_reaches_exactly_one_shard() {
        let edges = clique_chunks(100);
        let mut engine = ShardedGps::new(1000, UniformWeight, 3, 4);
        engine.push_stream(edges.iter().copied());
        engine.finish();
        let total: u64 = engine.samplers().iter().map(|s| s.arrivals()).sum();
        assert_eq!(total, edges.len() as u64);
        assert_eq!(engine.pushed(), edges.len() as u64);
        // Capacity exceeds the stream: nothing dropped, so the union of the
        // shard reservoirs is the whole (deduplicated) stream.
        assert_eq!(engine.len(), edges.len());
    }

    #[test]
    fn duplicates_are_skipped_exactly_once_globally() {
        let mut engine = ShardedGps::new(100, UniformWeight, 5, 4);
        let edges = [Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)];
        engine.push_stream(edges);
        engine.push_stream(edges); // all duplicates
        engine.finish();
        let dups: u64 = engine.samplers().iter().map(|s| s.duplicates()).sum();
        assert_eq!(dups, 3, "same edge must route to the same shard");
        assert_eq!(engine.len(), 3);
    }

    #[test]
    fn push_batch_matches_per_edge_push() {
        let edges = clique_chunks(60);
        let mut a = ShardedGps::new(40, TriangleWeight::default(), 11, 3);
        a.push_stream(edges.iter().copied());
        let ea = a.estimate();
        let mut b = ShardedGps::new(40, TriangleWeight::default(), 11, 3);
        for chunk in edges.chunks(17) {
            b.push_batch(chunk);
        }
        let eb = b.estimate();
        assert_eq!(ea.triangles.value.to_bits(), eb.triangles.value.to_bits());
        assert_eq!(ea.wedges.value.to_bits(), eb.wedges.value.to_bits());
    }

    #[test]
    fn small_batches_and_deep_queues_agree_with_defaults() {
        // Batch boundaries must not affect results, only throughput.
        let edges = clique_chunks(80);
        let mut defaults = ShardedGps::new(50, TriangleWeight::default(), 2, 2);
        defaults.push_stream(edges.iter().copied());
        let a = defaults.estimate();
        let mut tiny = ShardedGps::launch(
            EngineConfig {
                batch: 3,
                queue: 1,
                ..EngineConfig::new(50, 2, 2)
            },
            TriangleWeight::default(),
            Launch::default(),
        );
        tiny.push_stream(edges.iter().copied());
        let b = tiny.estimate();
        assert_eq!(a.triangles.value.to_bits(), b.triangles.value.to_bits());
        assert_eq!(a.wedges.variance.to_bits(), b.wedges.variance.to_bits());
    }

    #[test]
    fn checkpointing_alone_changes_nothing() {
        // With no faults, a checkpointing engine must be bit-identical to
        // the default one: checkpoints are pure bookkeeping.
        let edges = clique_chunks(80);
        let mut plain = ShardedGps::new(50, TriangleWeight::default(), 2, 2);
        plain.push_stream(edges.iter().copied());
        let a = plain.estimate();
        let mut ckpt = ShardedGps::launch(
            EngineConfig {
                checkpoint_every: 16,
                ..EngineConfig::new(50, 2, 2)
            },
            TriangleWeight::default(),
            Launch::default(),
        );
        ckpt.push_stream(edges.iter().copied());
        let b = ckpt.estimate();
        assert_eq!(a.triangles.value.to_bits(), b.triangles.value.to_bits());
        assert_eq!(
            a.triangles.variance.to_bits(),
            b.triangles.variance.to_bits()
        );
        assert!(!ckpt.health().degraded());
    }

    #[test]
    fn estimating_engine_matches_bare_in_stream_estimator_at_s1() {
        let edges = clique_chunks(60);
        let mut bare = gps_core::InStreamEstimator::new(30, TriangleWeight::default(), 13);
        bare.process_stream(edges.iter().copied());
        let mut engine = ShardedGps::launch(
            EngineConfig::new(30, 1, 13),
            TriangleWeight::default(),
            in_stream(None),
        );
        engine.push_stream(edges.iter().copied());
        let merged = engine.estimate_in_stream();
        let expect = bare.estimates();
        assert_eq!(
            merged.triangles.value.to_bits(),
            expect.triangles.value.to_bits()
        );
        assert_eq!(
            merged.triangles.variance.to_bits(),
            expect.triangles.variance.to_bits()
        );
        assert_eq!(merged.wedges.value.to_bits(), expect.wedges.value.to_bits());
        assert_eq!(
            merged.tri_wedge_cov.to_bits(),
            expect.tri_wedge_cov.to_bits()
        );
        // Sampling is untouched by the estimator wrapper.
        assert_eq!(engine.samplers()[0].threshold(), bare.sampler().threshold());
    }

    #[test]
    fn estimating_engine_sampling_is_identical_to_plain_engine() {
        let edges = clique_chunks(80);
        let mut plain = ShardedGps::new(40, TriangleWeight::default(), 5, 3);
        plain.push_stream(edges.iter().copied());
        let a = plain.estimate();
        let mut live = ShardedGps::launch(
            EngineConfig::new(40, 3, 5),
            TriangleWeight::default(),
            in_stream(None),
        );
        live.push_stream(edges.iter().copied());
        let b = live.estimate();
        assert_eq!(a.triangles.value.to_bits(), b.triangles.value.to_bits());
        assert_eq!(
            a.triangles.variance.to_bits(),
            b.triangles.variance.to_bits()
        );
        assert_eq!(a.wedges.value.to_bits(), b.wedges.value.to_bits());
        // And the in-stream merge is available on top.
        let instream = live.estimate_in_stream();
        assert!(instream.triangles.value >= 0.0);
        assert!(live.in_stream_parts().unwrap().len() == 3);
        assert!(plain.in_stream_parts().is_none());
    }

    #[test]
    fn epoch_hook_reports_are_ordered_and_reach_the_final_state() {
        let reports: Arc<Mutex<Vec<ShardReport>>> = Arc::default();
        let sink = reports.clone();
        let hook: EpochHook = Arc::new(move |r| sink.lock().unwrap().push(r));
        let mut engine = ShardedGps::launch(
            EngineConfig {
                batch: 16,
                epoch_every: 32,
                ..EngineConfig::new(50, 2, 3)
            },
            TriangleWeight::default(),
            in_stream(Some(hook)),
        );
        let edges = clique_chunks(100);
        engine.push_stream(edges.iter().copied());
        engine.finish();
        let reports = reports.lock().unwrap();
        assert!(!reports.is_empty());
        // Per-shard arrivals are non-decreasing across that shard's reports
        // and the last report per shard matches the finished sampler.
        for shard in 0..2 {
            let of_shard: Vec<&ShardReport> = reports.iter().filter(|r| r.shard == shard).collect();
            assert!(!of_shard.is_empty(), "shard {shard} never reported");
            assert!(of_shard.windows(2).all(|w| w[0].arrivals <= w[1].arrivals));
            assert_eq!(
                of_shard.last().unwrap().arrivals,
                engine.samplers()[shard].arrivals(),
                "final report must carry the shard's final position"
            );
        }
        let total: u64 = (0..2)
            .map(|s| {
                reports
                    .iter()
                    .filter(|r| r.shard == s)
                    .map(|r| r.arrivals)
                    .max()
                    .unwrap()
            })
            .sum();
        assert_eq!(total, edges.len() as u64);
    }

    #[test]
    fn unsupervised_panic_surfaces_typed_engine_error() {
        let plan = FaultPlan::new().panic_at(1, 10);
        let cfg = EngineConfig {
            batch: 4,
            ..EngineConfig::new(32, 2, 9)
        };
        let mut engine = ShardedGps::launch(cfg, UniformWeight, faulted(plan));
        let mut seen = None;
        for e in clique_chunks(100) {
            if let Err(err) = engine.try_push(e) {
                seen = Some(err);
                break;
            }
        }
        let err = match seen {
            Some(PushError::Shard(e)) => e,
            Some(other) => panic!("unexpected push error {other:?}"),
            // Queue depth can absorb the whole stream; the crash report
            // then surfaces at finish.
            None => engine
                .try_finish()
                .expect_err("injected panic must surface"),
        };
        match err {
            EngineError::ShardPanicked { shard, payload } => {
                assert_eq!(shard, 1);
                assert!(payload.contains("chaos: injected panic"), "{payload}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // A failed engine stays failed.
        assert!(matches!(
            engine.try_finish(),
            Err(EngineError::ShardPanicked { shard: 1, .. })
        ));
    }

    #[test]
    fn supervised_panic_restarts_from_checkpoint_and_accounts_loss() {
        let run = || {
            let plan = FaultPlan::new().panic_at(0, 120);
            let cfg = EngineConfig {
                batch: 16,
                checkpoint_every: 64,
                ..EngineConfig::new(48, 2, 21)
            };
            let mut engine = ShardedGps::launch(cfg, TriangleWeight::default(), faulted(plan));
            engine.push_stream(clique_chunks(200));
            engine.finish();
            let health = engine.health().clone();
            let est = engine.estimate();
            (
                health,
                est.triangles.value.to_bits(),
                est.triangles.variance.to_bits(),
            )
        };
        let (h1, tri1, var1) = run();
        assert!(h1.degraded());
        assert_eq!(h1.incidents.len(), 1);
        let inc = &h1.incidents[0];
        assert_eq!(inc.shard, 0);
        assert!(!inc.stalled);
        assert!(!inc.checkpoint_corrupt);
        assert!(
            inc.payload
                .as_deref()
                .unwrap()
                .contains("chaos: injected panic"),
            "{:?}",
            inc.payload
        );
        // Checkpoints land on exact multiples of the cadence (batch sizes
        // divide it here), so the loss is exactly (64, 120].
        assert_eq!(inc.lost_arrivals, 120 - 64);
        assert_eq!(h1.lost_arrivals, inc.lost_arrivals);
        // Same seed, same fault plan ⇒ bit-identical everything.
        let (h2, tri2, var2) = run();
        assert_eq!(h1, h2, "chaos runs must be reproducible");
        assert_eq!(tri1, tri2);
        assert_eq!(var1, var2);
    }

    #[test]
    fn degraded_estimates_widen_but_keep_values() {
        let baseline = {
            let mut engine = ShardedGps::launch(
                EngineConfig {
                    batch: 16,
                    checkpoint_every: 64,
                    ..EngineConfig::new(48, 2, 21)
                },
                TriangleWeight::default(),
                Launch::default(),
            );
            engine.push_stream(clique_chunks(200));
            engine.estimate()
        };
        let mut engine = ShardedGps::launch(
            EngineConfig {
                batch: 16,
                checkpoint_every: 64,
                ..EngineConfig::new(48, 2, 21)
            },
            TriangleWeight::default(),
            faulted(FaultPlan::new().panic_at(0, 120)),
        );
        engine.push_stream(clique_chunks(200));
        let est = engine.estimate();
        // The degraded run saw fewer arrivals, so its value differs from
        // the healthy one's — but its variance must carry the extra
        // loss-widening term on top of whatever the merge reports.
        assert!(est.triangles.variance > 0.0);
        let (lo, hi) = est.triangles.ci95();
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi);
        let _ = baseline;
    }

    #[test]
    fn try_push_backpressure_times_out_and_recovers() {
        let plan = FaultPlan::new().stall_at(0, 1, 300);
        let cfg = EngineConfig {
            batch: 1,
            queue: 1,
            push_timeout: Some(Duration::from_millis(30)),
            ..EngineConfig::new(8, 1, 3)
        };
        let mut engine = ShardedGps::launch(cfg, UniformWeight, faulted(plan));
        // S = 1: every edge hits the stalled shard. The first edge puts the
        // worker to sleep, the next fills the queue, then backpressure.
        let mut hit = false;
        for i in 0..10u32 {
            match engine.try_push(Edge::new(i, i + 1)) {
                Ok(()) => {}
                Err(PushError::Backpressure { shard }) => {
                    assert_eq!(shard, 0);
                    hit = true;
                    break;
                }
                Err(PushError::Shard(e)) => panic!("unexpected shard error {e}"),
            }
        }
        assert!(
            hit,
            "bounded queue behind a stalled worker must backpressure"
        );
        // Once the stall ends, finish drains everything that stayed
        // buffered: nothing is lost, the run is not degraded.
        engine.finish();
        assert!(!engine.health().degraded());
        assert_eq!(engine.samplers()[0].arrivals(), engine.pushed());
    }

    #[test]
    fn permanently_stalled_shard_is_written_off_from_its_checkpoint() {
        let plan = FaultPlan::new().stall_forever(0, 80);
        let cfg = EngineConfig {
            batch: 8,
            checkpoint_every: 32,
            push_timeout: Some(Duration::from_millis(50)),
            finish_timeout: Some(Duration::from_millis(250)),
            ..EngineConfig::new(48, 2, 17)
        };
        let mut engine = ShardedGps::launch(cfg, TriangleWeight::default(), faulted(plan));
        for e in clique_chunks(120) {
            // The stalled shard may backpressure; every unshipped edge is
            // accounted as lost at finish, so ignoring the error is safe.
            let _ = engine.try_push(e);
        }
        engine.finish();
        let health = engine.health();
        assert!(health.degraded());
        let inc = health
            .incidents
            .iter()
            .find(|i| i.shard == 0)
            .expect("stalled shard must be recorded");
        assert!(inc.stalled);
        assert!(inc.payload.is_none());
        assert!(inc.lost_arrivals > 0);
        assert!(health.lost_arrivals >= inc.lost_arrivals);
        let est = engine.estimate();
        assert!(est.triangles.value.is_finite());
        assert!(est.triangles.variance >= 0.0);
    }

    #[test]
    fn corrupt_checkpoint_restarts_from_scratch_and_says_so() {
        let plan = FaultPlan::new()
            .corrupt_checkpoints_at(0, 1)
            .panic_at(0, 100);
        let cfg = EngineConfig {
            batch: 8,
            checkpoint_every: 32,
            ..EngineConfig::new(48, 2, 23)
        };
        let mut engine = ShardedGps::launch(cfg, TriangleWeight::default(), faulted(plan));
        engine.push_stream(clique_chunks(150));
        engine.finish();
        let inc = engine
            .health()
            .incidents
            .iter()
            .find(|i| i.shard == 0)
            .cloned()
            .expect("crash incident must be recorded");
        assert!(inc.checkpoint_corrupt);
        assert_eq!(
            inc.lost_arrivals, 100,
            "a corrupt checkpoint loses the whole prefix"
        );
        assert!(engine.estimate().triangles.value.is_finite());
    }

    #[test]
    #[should_panic(expected = "not built with in-stream estimation")]
    fn plain_engine_rejects_in_stream_estimation() {
        let mut engine = ShardedGps::new(8, UniformWeight, 0, 2);
        engine.push(Edge::new(0, 1));
        let _ = engine.estimate_in_stream();
    }

    #[test]
    #[should_panic(expected = "push on a finished")]
    fn pushing_after_finish_panics() {
        let mut engine = ShardedGps::new(8, UniformWeight, 0, 2);
        engine.finish();
        engine.push(Edge::new(0, 1));
    }

    #[test]
    #[should_panic(expected = "positive budget")]
    fn rejects_capacity_below_shard_count() {
        let _ = ShardedGps::new(3, UniformWeight, 0, 4);
    }
}
