//! The serving engine and its query handles.

use crate::board::Board;
use crate::clock::{Clock, ClockMode};
use crate::epoch::EstimateEpoch;
use crate::scrape::ScrapeServer;
use gps_core::weights::EdgeWeight;
use gps_core::TriadEstimates;
use gps_engine::snapshot::SavedEngine;
use gps_engine::{
    EngineConfig, EngineHealth, EpochHook, Estimation, FaultPlan, Launch, ShardedGps,
};
use gps_graph::types::Edge;
use gps_telemetry::{EpochTrace, Registry, TelemetrySnapshot};
use std::net::SocketAddr;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Duration;

/// Serving-layer configuration: the wrapped engine's config plus the
/// query-side knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Configuration of the wrapped [`ShardedGps`] engine (including
    /// [`EngineConfig::epoch_every`], the publication cadence).
    pub engine: EngineConfig,
    /// Bounded per-subscription queue depth. Subscriptions are lossy when
    /// a subscriber lags: epochs are cumulative, so dropped intermediates
    /// are restated by the next delivered epoch.
    pub subscribe_depth: usize,
    /// Publication-gate deadline for graceful degradation. `None` (the
    /// default) publishes only *full* epochs — every shard merged — and a
    /// stalled or crashed shard simply freezes the epoch stream until it
    /// recovers. `Some(gate)` bounds how long readers can be starved:
    /// once the gate has elapsed, epochs publish from the shards that
    /// reported within the last `gate` — stamped degraded via
    /// [`EstimateEpoch::contributing`], with honestly widened variances —
    /// and recover to full epochs as soon as the missing shard reports
    /// again. Choose a gate comfortably above the expected inter-report
    /// gap ([`EngineConfig::epoch_every`] arrivals at your ingest rate),
    /// or a healthy-but-slow stream will be flagged degraded.
    pub gate_timeout: Option<Duration>,
    /// Time source for the gate and the bounded watermark waits.
    /// [`ClockMode::Wall`] (the default) is production behavior;
    /// [`ClockMode::Manual`] freezes time at 0 until
    /// [`ServeEngine::advance_clock`] moves it — deterministic tests and
    /// discrete-event harnesses drive every deadline explicitly.
    pub clock: ClockMode,
}

impl ServeConfig {
    /// Defaults: engine defaults ([`EngineConfig::new`]) plus a
    /// 16-epoch subscription queue and no publication gate (full epochs
    /// only).
    pub fn new(capacity: usize, shards: usize, seed: u64) -> Self {
        ServeConfig {
            engine: EngineConfig::new(capacity, shards, seed),
            subscribe_depth: 16,
            gate_timeout: None,
            clock: ClockMode::Wall,
        }
    }
}

/// A sharded GPS engine that *serves* its estimates while ingest runs:
/// every shard worker runs the paper's in-stream estimator (Algorithm 3)
/// over its substream, and the merged estimates — with honest `S > 1`
/// confidence intervals — are published as immutable, versioned
/// [`EstimateEpoch`]s that any number of [`QueryHandle`]s read without
/// ever stalling ingest.
///
/// ```
/// use gps_core::TriangleWeight;
/// use gps_serve::ServeEngine;
/// use gps_graph::Edge;
///
/// let mut serve = ServeEngine::new(64, TriangleWeight::default(), 42, 2);
/// let handle = serve.handle();
/// serve.push_stream([Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)]);
/// serve.finish();
/// let epoch = handle.latest().expect("finish always publishes an epoch");
/// assert_eq!(epoch.edges_seen, 3);
/// let (lb, ub) = epoch.estimates.triangles.ci95();
/// assert!(lb <= epoch.estimates.triangles.value);
/// assert!(epoch.estimates.triangles.value <= ub);
/// ```
pub struct ServeEngine<W> {
    engine: ShardedGps<W>,
    board: Arc<Board>,
    subscribe_depth: usize,
    /// Running scrape endpoint, if started; stops when the engine drops.
    scrape: Option<ScrapeServer>,
}

impl<W: EdgeWeight + Clone + Send + 'static> ServeEngine<W> {
    /// Creates a serving engine with total budget `capacity` split across
    /// `shards` workers, on the default [`ServeConfig`].
    ///
    /// # Panics
    /// Same conditions as [`ShardedGps::new`].
    pub fn new(capacity: usize, weight_fn: W, seed: u64, shards: usize) -> Self {
        Self::with_config(ServeConfig::new(capacity, shards, seed), weight_fn)
    }

    /// Creates a serving engine from an explicit [`ServeConfig`].
    ///
    /// # Panics
    /// Same conditions as [`ShardedGps::launch`] on a fresh engine.
    pub fn with_config(cfg: ServeConfig, weight_fn: W) -> Self {
        Self::build(cfg, weight_fn, None)
    }

    /// [`ServeEngine::with_config`] with a scripted [`FaultPlan`] injected
    /// into the wrapped engine — the serving-layer entry point of the
    /// deterministic chaos harness. The plan's panics, stalls, slowdowns,
    /// and checkpoint corruptions hit the shard workers exactly as
    /// [`Launch::faults`] does on a bare engine; combined with
    /// [`ServeConfig::gate_timeout`] this is how the degraded-epoch path
    /// is driven under test.
    ///
    /// # Panics
    /// Same conditions as [`ShardedGps::launch`] on a fresh engine.
    pub fn with_config_and_faults(cfg: ServeConfig, weight_fn: W, faults: FaultPlan) -> Self {
        Self::build(cfg, weight_fn, Some(faults))
    }

    fn build(cfg: ServeConfig, weight_fn: W, faults: Option<FaultPlan>) -> Self {
        let board = Arc::new(Board::with_registry(
            cfg.engine.shards,
            cfg.gate_timeout,
            Clock::new(cfg.clock),
            Arc::new(Registry::new()),
        ));
        let launch = Launch {
            faults,
            ..Launch::default()
        };
        Self::start(board, cfg.engine, weight_fn, launch, cfg.subscribe_depth)
    }

    /// Resumes serving from a saved engine snapshot **onto an existing
    /// handle's board**: epoch versions continue monotonically from where
    /// the saved engine's final epoch left off, the watermark picks up at
    /// the saved stream position, and estimates continue from the restored
    /// samples. A snapshot saved by a serving engine carries the v2
    /// sections (in-stream accumulators and per-edge covariance ledgers),
    /// so the resumed estimators continue **bit-exactly** where the saved
    /// ones stopped; a v1 (plain) snapshot falls back to re-seeding each
    /// estimator from its shard's post-stream estimate
    /// (`InStreamEstimator::from_sampler`). The publication gate
    /// ([`ServeConfig::gate_timeout`]) carries over from the board's
    /// original configuration and is re-armed, so the restored workers get
    /// a fresh grace window before any degraded epoch can publish.
    /// Stragglers of the previous engine (e.g. after a drop without
    /// finish) cannot publish into the resumed board — reopening bumps the
    /// accepted report generation. Subscriptions ended when the previous
    /// engine finished; re-subscribe on the handle.
    ///
    /// `engine` configures the resumed engine exactly as
    /// [`ServeConfig::engine`] configures a fresh one — publication
    /// cadence, checkpointing, timeouts and restart budget all come from
    /// it, since the snapshot records none of them. Its seed, capacity and
    /// shard count must be the snapshot's.
    ///
    /// # Panics
    /// Panics if the handle's previous engine has not finished, or if the
    /// snapshot does not match `engine` or is inconsistent (see
    /// [`ShardedGps::launch`]).
    pub fn resume(
        saved: SavedEngine,
        weight_fn: W,
        engine: EngineConfig,
        handle: &QueryHandle,
    ) -> Self {
        let board = handle.board.clone();
        board.reopen(engine.shards);
        let launch = Launch {
            resume: Some(saved),
            ..Launch::default()
        };
        Self::start(board, engine, weight_fn, launch, handle.subscribe_depth)
    }

    /// Shared construction: the engine's workers estimate in-stream and
    /// publish into `board` at its current generation, and its metrics register on
    /// the board's telemetry registry, so a single snapshot covers the
    /// whole stack — and, on resume, idempotent registration hands the
    /// restored engine the same counters, keeping the ledgers cumulative.
    /// The engine's lost-arrivals counter is attached last so epochs stamp
    /// it; launch-time reports racing the attach all carry zero loss
    /// (losses require pushed arrivals, which follow construction).
    fn start(
        board: Arc<Board>,
        cfg: EngineConfig,
        weight_fn: W,
        launch: Launch,
        subscribe_depth: usize,
    ) -> Self {
        let (publisher, generation) = (board.clone(), board.generation());
        let hook: EpochHook = Arc::new(move |report| publisher.publish_report(generation, report));
        let launch = Launch {
            estimation: Estimation::InStream(Some(hook)),
            registry: Some(board.telemetry_registry()),
            ..launch
        };
        let engine = ShardedGps::launch(cfg, weight_fn, launch);
        board.attach_lost_counter(engine.lost_arrivals_counter());
        ServeEngine {
            engine,
            board,
            subscribe_depth,
            scrape: None,
        }
    }

    /// A cheap, cloneable query handle onto this engine's epoch stream.
    /// Handles stay valid after the engine finishes (they answer from the
    /// final epoch) and across [`ServeEngine::resume`].
    pub fn handle(&self) -> QueryHandle {
        QueryHandle {
            board: self.board.clone(),
            subscribe_depth: self.subscribe_depth,
        }
    }

    /// Offers one stream arrival (see [`ShardedGps::push`]).
    pub fn push(&mut self, edge: Edge) {
        self.engine.push(edge);
    }

    /// Feeds a pre-batched chunk (see [`ShardedGps::push_batch`]).
    pub fn push_batch(&mut self, batch: &[Edge]) {
        self.engine.push_batch(batch);
    }

    /// Feeds every edge of an iterator.
    pub fn push_stream<I: IntoIterator<Item = Edge>>(&mut self, edges: I) {
        self.engine.push_stream(edges);
    }

    /// Drains and joins the engine workers, then closes the board: one
    /// final epoch (carrying every shard's final state) is published,
    /// watermark waiters wake, and subscriptions end. Idempotent.
    pub fn finish(&mut self) {
        self.engine.finish();
        self.board.close();
    }

    /// Merged post-stream estimates (finishing first if needed); see
    /// [`ShardedGps::estimate`].
    pub fn estimate(&mut self) -> TriadEstimates {
        self.finish();
        self.engine.estimate()
    }

    /// Merged in-stream estimates — identical to the final epoch's
    /// estimates (finishing first if needed).
    pub fn estimate_in_stream(&mut self) -> TriadEstimates {
        self.finish();
        self.engine.estimate_in_stream()
    }

    /// Saves the engine snapshot (finishing + closing the board first);
    /// see [`ShardedGps::save`]. Resume later with [`ServeEngine::resume`].
    pub fn save<Out: std::io::Write>(
        &mut self,
        writer: Out,
    ) -> Result<(), gps_core::persist::PersistError> {
        self.finish();
        self.engine.save(writer)
    }

    /// Saves to a file path. See [`ServeEngine::save`].
    pub fn save_file<P: AsRef<std::path::Path>>(
        &mut self,
        path: P,
    ) -> Result<(), gps_core::persist::PersistError> {
        self.finish();
        self.engine.save_file(path)
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &ShardedGps<W> {
        &self.engine
    }

    /// Fault-tolerance ledger of the wrapped engine: per-shard incidents
    /// (panics, stalls, corrupt checkpoints, restart counts) and the total
    /// arrivals lost to crash windows. `health().degraded()` is the
    /// serving-side signal that estimates carry loss-widened intervals —
    /// distinct from [`EstimateEpoch::degraded`], which flags a *single
    /// epoch* merged without every shard.
    pub fn health(&self) -> &EngineHealth {
        self.engine.health()
    }

    /// Snapshot of every metric and event across the serving stack: the
    /// wrapped engine's ingest/checkpoint/restart counters, the per-shard
    /// sampler counters, and the board's publication metrics all live on
    /// one shared registry. Torn-read-free (each histogram is copied under
    /// its seqlock) and wall-clock-free, so `Stability::Stable` metrics of
    /// a finished same-seed run are bit-identical — see
    /// [`TelemetrySnapshot::stable`] and `docs/observability.md`.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.board.telemetry()
    }

    /// The shared telemetry registry itself, for callers that want to
    /// register additional metrics alongside the stack's own.
    pub fn telemetry_registry(&self) -> Arc<Registry> {
        self.board.telemetry_registry()
    }

    /// Arrivals pushed so far (stream position `t` at the producer; the
    /// published watermark trails this by at most the in-flight batches).
    pub fn pushed(&self) -> u64 {
        self.engine.pushed()
    }

    /// Shard count `S`.
    pub fn num_shards(&self) -> usize {
        self.engine.num_shards()
    }

    /// Whether [`ServeEngine::finish`] has run.
    pub fn is_finished(&self) -> bool {
        self.engine.is_finished()
    }

    /// Advances a [`ClockMode::Manual`] board clock by `d` and wakes every
    /// blocked waiter, so expired gate and wait deadlines are observed
    /// immediately. Returns `false` (and moves nothing) on the wall clock.
    /// This is the test-side lever of the deterministic clock hook; see
    /// [`ServeConfig::clock`].
    pub fn advance_clock(&self, d: Duration) -> bool {
        self.board.advance_clock(d)
    }

    /// Starts (or replaces) the telemetry scrape endpoint on `addr` —
    /// e.g. `"127.0.0.1:0"` for an ephemeral loopback port — and returns
    /// the bound address. The endpoint serves `GET /metrics` (text
    /// exposition), `/health` (JSON summary with the degraded bitmask),
    /// and `/trace/<version>` (flight-recorder JSON); see
    /// `docs/observability.md` for the exact shapes. It runs on its own
    /// thread over the shared board, keeps answering after
    /// [`ServeEngine::finish`] (handles do too), and stops — thread
    /// joined — when the engine drops or [`ServeEngine::stop_scrape`]
    /// runs.
    pub fn start_scrape(&mut self, addr: &str) -> std::io::Result<SocketAddr> {
        let server = ScrapeServer::bind(self.board.clone(), addr)?;
        let bound = server.local_addr();
        self.scrape = Some(server);
        Ok(bound)
    }

    /// Address of the running scrape endpoint, if one was started.
    pub fn scrape_addr(&self) -> Option<SocketAddr> {
        self.scrape.as_ref().map(ScrapeServer::local_addr)
    }

    /// Stops the scrape endpoint and joins its thread. Idempotent; also
    /// implied by dropping the engine.
    pub fn stop_scrape(&mut self) {
        self.scrape = None;
    }
}

impl<W> Drop for ServeEngine<W> {
    /// An abandoned serving engine must not leave waiters blocked: close
    /// the board (workers may still be draining, but no further epochs
    /// will come once the feed channels drop).
    fn drop(&mut self) {
        self.board.close();
    }
}

/// A cloneable, thread-safe reader onto a [`ServeEngine`]'s epoch stream.
#[derive(Clone)]
pub struct QueryHandle {
    board: Arc<Board>,
    subscribe_depth: usize,
}

impl QueryHandle {
    /// The latest published epoch (`None` only before the engine's workers
    /// have started reporting). Lock-free: never blocks ingest or other
    /// readers, and retries only while racing a concurrent publication.
    pub fn latest(&self) -> Option<EstimateEpoch> {
        self.board.latest()
    }

    /// Blocks until an epoch whose watermark covers at least `n` arrivals
    /// is published, and returns it; `None` if the engine finishes without
    /// the stream ever reaching `n` arrivals.
    pub fn wait_for_edges(&self, n: u64) -> Option<EstimateEpoch> {
        self.board.wait_for_edges(n)
    }

    /// [`QueryHandle::wait_for_edges`] with a deadline: returns the first
    /// epoch whose watermark covers `n` arrivals, or `None` once `timeout`
    /// elapses or the engine finishes below the watermark — whichever
    /// comes first. The bounded wait is what a serving tier should use
    /// against a possibly-degraded engine: a crashed or stalled shard can
    /// delay the watermark indefinitely, and this never hangs with it.
    pub fn wait_for_edges_timeout(&self, n: u64, timeout: Duration) -> Option<EstimateEpoch> {
        self.board.wait_for_edges_timeout(n, timeout)
    }

    /// Subscribes to the epoch stream over a bounded queue: the
    /// subscription is primed with the current epoch, receives subsequent
    /// epochs in version order, drops intermediates while the subscriber
    /// lags (epochs are cumulative — the next delivery restates them), and
    /// ends when the engine finishes. The **final** epoch is never lost to
    /// lag: at end of stream the subscription drains the board's latest
    /// epoch directly if the queue dropped it. `None` if the engine has
    /// already finished.
    pub fn subscribe(&self) -> Option<EpochSubscription> {
        self.board
            .subscribe(self.subscribe_depth)
            .map(|rx| EpochSubscription {
                rx,
                board: self.board.clone(),
                last_version: 0,
                drained: false,
            })
    }

    /// Snapshot of every metric and event on the serving stack's shared
    /// registry (see [`ServeEngine::telemetry`]); handles keep answering
    /// after the engine finishes and across [`ServeEngine::resume`].
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.board.telemetry()
    }

    /// Whether the producing engine has finished (and not been resumed).
    pub fn is_closed(&self) -> bool {
        self.board.is_closed()
    }

    /// The provenance trace of epoch `version`, if it is still in the
    /// flight recorder: the complete per-stage pipeline timeline
    /// (arrival batch → shard report → gate wait → merge → seqlock
    /// publish → first observation), per-shard report marks and skew,
    /// and the degraded/partial-merge cause code. Timestamps come from
    /// the board clock, so manual-clock runs pin traces bit-identically.
    pub fn trace(&self, version: u64) -> Option<EpochTrace> {
        self.board.trace(version)
    }

    /// The last `n` retained provenance traces, oldest first.
    pub fn recent_traces(&self, n: usize) -> Vec<EpochTrace> {
        self.board.recent_traces(n)
    }

    /// Traces evicted from the bounded flight recorder so far (the
    /// recorder is lossy-counted, like the event ring).
    pub fn traces_lost(&self) -> u64 {
        self.board.traces_lost()
    }

    /// Advances a [`ClockMode::Manual`] board clock by `d`; see
    /// [`ServeEngine::advance_clock`] (the board — and so the clock — is
    /// shared by every handle and the engine). `false` on the wall clock.
    pub fn advance_clock(&self, d: Duration) -> bool {
        self.board.advance_clock(d)
    }
}

/// A bounded, lossy-on-lag subscription to the epoch stream (see
/// [`QueryHandle::subscribe`]). Iterate it, or call
/// [`EpochSubscription::recv`] directly. Intermediate epochs may be
/// dropped while the subscriber lags, but the stream never *ends* on a
/// stale epoch: when the channel closes, the board's latest epoch is
/// delivered once more if the queue had dropped it.
pub struct EpochSubscription {
    rx: Receiver<EstimateEpoch>,
    board: Arc<Board>,
    last_version: u64,
    drained: bool,
}

impl EpochSubscription {
    /// Blocks for the next epoch; `None` once the engine has finished and
    /// every delivery — including the guaranteed final epoch — is drained.
    pub fn recv(&mut self) -> Option<EstimateEpoch> {
        match self.rx.recv() {
            Ok(epoch) => {
                self.last_version = epoch.version;
                self.board.observe(&epoch);
                Some(epoch)
            }
            Err(_) => self.final_drain(),
        }
    }

    /// Non-blocking poll for an already-queued epoch (or the guaranteed
    /// final epoch once the stream has ended).
    pub fn try_recv(&mut self) -> Option<EstimateEpoch> {
        match self.rx.try_recv() {
            Ok(epoch) => {
                self.last_version = epoch.version;
                self.board.observe(&epoch);
                Some(epoch)
            }
            Err(std::sync::mpsc::TryRecvError::Empty) => None,
            Err(std::sync::mpsc::TryRecvError::Disconnected) => self.final_drain(),
        }
    }

    /// Channel closed: hand out the board's latest epoch if the bounded
    /// queue dropped it (a lagging subscriber must not end on a stale
    /// watermark), exactly once.
    fn final_drain(&mut self) -> Option<EstimateEpoch> {
        if self.drained {
            return None;
        }
        self.drained = true;
        self.board
            .latest()
            .filter(|epoch| epoch.version > self.last_version)
    }
}

impl Iterator for EpochSubscription {
    type Item = EstimateEpoch;

    fn next(&mut self) -> Option<EstimateEpoch> {
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_core::weights::{TriangleWeight, UniformWeight};

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
    fn final_epoch_matches_engine_in_stream_estimate() {
        let mut serve = ServeEngine::new(60, TriangleWeight::default(), 9, 3);
        let handle = serve.handle();
        serve.push_stream(clique_chunks(100));
        let merged = serve.estimate_in_stream();
        let epoch = handle.latest().unwrap();
        assert_eq!(
            epoch.estimates.triangles.value.to_bits(),
            merged.triangles.value.to_bits()
        );
        assert_eq!(
            epoch.estimates.triangles.variance.to_bits(),
            merged.triangles.variance.to_bits()
        );
        assert_eq!(
            epoch.estimates.wedges.value.to_bits(),
            merged.wedges.value.to_bits()
        );
        assert_eq!(epoch.edges_seen, serve.pushed());
        assert_eq!(epoch.shards, 3);
        assert!(handle.is_closed());
    }

    #[test]
    fn wait_for_edges_observes_mid_stream_progress() {
        let edges = clique_chunks(200);
        let mut serve = ServeEngine::with_config(
            ServeConfig {
                engine: EngineConfig {
                    batch: 32,
                    epoch_every: 64,
                    ..EngineConfig::new(100, 2, 4)
                },
                subscribe_depth: 16,
                gate_timeout: None,
                clock: ClockMode::Wall,
            },
            UniformWeight,
        );
        let handle = serve.handle();
        let half = edges.len() as u64 / 2;
        let waiter = {
            let handle = handle.clone();
            std::thread::spawn(move || handle.wait_for_edges(half))
        };
        serve.push_stream(edges.iter().copied());
        serve.finish();
        let epoch = waiter.join().unwrap().expect("stream exceeds watermark");
        assert!(epoch.edges_seen >= half);
        // Waiting past the stream end must not hang.
        assert!(handle.wait_for_edges(u64::MAX).is_none());
    }

    #[test]
    fn subscription_sees_versions_in_order_and_ends_at_finish() {
        let mut serve = ServeEngine::with_config(
            ServeConfig {
                engine: EngineConfig {
                    batch: 16,
                    epoch_every: 32,
                    ..EngineConfig::new(50, 2, 7)
                },
                subscribe_depth: 1024,
                gate_timeout: None,
                clock: ClockMode::Wall,
            },
            UniformWeight,
        );
        let handle = serve.handle();
        let sub = handle.subscribe().expect("engine is live");
        let collector = std::thread::spawn(move || sub.collect::<Vec<_>>());
        serve.push_stream(clique_chunks(150));
        serve.finish();
        let epochs = collector.join().unwrap();
        assert!(!epochs.is_empty());
        assert!(
            epochs.windows(2).all(|w| w[0].version < w[1].version),
            "epoch versions must be strictly increasing"
        );
        assert!(epochs
            .windows(2)
            .all(|w| w[0].edges_seen <= w[1].edges_seen));
        assert_eq!(epochs.last().unwrap().edges_seen, serve.pushed());
        assert!(handle.subscribe().is_none(), "closed engine: no new subs");
    }

    #[test]
    fn lagging_subscriber_still_receives_the_final_epoch() {
        // Depth-1 queue, never drained during ingest: intermediates drop,
        // but the stream must end on the true final epoch, not a stale one.
        let mut serve = ServeEngine::with_config(
            ServeConfig {
                engine: EngineConfig {
                    batch: 16,
                    epoch_every: 32,
                    ..EngineConfig::new(50, 2, 19)
                },
                subscribe_depth: 1,
                gate_timeout: None,
                clock: ClockMode::Wall,
            },
            UniformWeight,
        );
        let handle = serve.handle();
        let sub = handle.subscribe().expect("live engine");
        serve.push_stream(clique_chunks(400));
        serve.finish();
        let epochs: Vec<EstimateEpoch> = sub.collect();
        assert!(epochs.windows(2).all(|w| w[0].version < w[1].version));
        assert_eq!(
            epochs.last().unwrap().edges_seen,
            serve.pushed(),
            "subscription must not end on a stale watermark"
        );
    }

    #[test]
    fn concurrent_readers_never_block_ingest_or_each_other() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = Arc::new(AtomicBool::new(false));
        let mut serve = ServeEngine::with_config(
            ServeConfig {
                engine: EngineConfig {
                    batch: 64,
                    epoch_every: 128,
                    ..EngineConfig::new(200, 4, 11)
                },
                subscribe_depth: 8,
                gate_timeout: None,
                clock: ClockMode::Wall,
            },
            TriangleWeight::default(),
        );
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let handle = serve.handle();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut reads = 0u64;
                    let mut last = 0u64;
                    // ordering: Relaxed — stop flag only ends the loop;
                    // epochs synchronize through the board, not this flag.
                    // Each reader keeps going until it has read one epoch:
                    // on a busy core ingest and `finish` can complete before
                    // a reader is first scheduled, and `finish` always
                    // publishes a final epoch, so the loop still ends.
                    while reads == 0 || !stop.load(Ordering::Relaxed) {
                        if let Some(e) = handle.latest() {
                            assert!(e.version >= last);
                            last = e.version;
                            reads += 1;
                        }
                    }
                    reads
                })
            })
            .collect();
        serve.push_stream(clique_chunks(1000));
        serve.finish();
        // ordering: Relaxed — shutdown signal; readers' final state was
        // already published via the board before finish() returned.
        stop.store(true, Ordering::Relaxed);
        let reads: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(reads > 0);
        assert_eq!(serve.handle().latest().unwrap().edges_seen, serve.pushed());
    }

    #[test]
    fn dropping_an_unfinished_engine_releases_waiters() {
        let serve = ServeEngine::new(16, UniformWeight, 1, 2);
        let handle = serve.handle();
        let waiter = {
            let handle = handle.clone();
            std::thread::spawn(move || handle.wait_for_edges(u64::MAX))
        };
        drop(serve);
        assert!(waiter.join().unwrap().is_none());
        assert!(handle.is_closed());
    }

    #[test]
    fn stalled_shard_degrades_epochs_then_recovers_to_full() {
        // Graceful-degradation acceptance path, on the deterministic
        // clock: shard 1 parks for 400 ms of *wall* time at its first
        // arrival (thread scheduling scaffolding only), while the 50 ms
        // publication gate runs on frozen *virtual* time. The test first
        // waits for the launch-time full epoch — proof both shards'
        // initial reports are on the board — then advances virtual time
        // past the gate, aging shard 1's report out of the liveness
        // window. Every epoch shard 0 publishes while shard 1 is parked is
        // then provably degraded (no sleep-tuned margin between gate and
        // scheduling: the gate can neither expire early nor late). When
        // the stall ends, shard 1 drains, reports at the same virtual
        // instant, and the stream must recover to full epochs.
        let cfg = ServeConfig {
            engine: EngineConfig {
                batch: 8,
                epoch_every: 16,
                ..EngineConfig::new(60, 2, 5)
            },
            subscribe_depth: 4096,
            gate_timeout: Some(Duration::from_millis(50)),
            clock: ClockMode::Manual,
        };
        let faults = FaultPlan::new().stall_at(1, 1, 400);
        let mut serve = ServeEngine::with_config_and_faults(cfg, UniformWeight, faults);
        let handle = serve.handle();
        let sub = handle.subscribe().expect("live engine");
        // Launch reports from both shards produce the first (full) epoch.
        handle.wait_for_edges(0).expect("launch epoch");
        // Virtual time now jumps past the gate: both standing reports age
        // out, and only shards reporting *after* this instant are live.
        assert!(serve.advance_clock(Duration::from_millis(51)));
        serve.push_stream(clique_chunks(400));
        serve.finish();
        let epochs: Vec<EstimateEpoch> = sub.collect();
        assert!(
            epochs
                .iter()
                .any(|e| e.degraded() && e.contributing == 0b01),
            "gate must publish shard-0-only epochs while shard 1 stalls"
        );
        let last = epochs.last().expect("finish publishes a final epoch");
        assert!(
            !last.degraded(),
            "after recovery the epoch stream must be full again"
        );
        assert_eq!(last.contributing, 0b11);
        assert_eq!(last.edges_seen, serve.pushed());
        // A stall is a delay, not a failure: no incident, no lost arrivals.
        assert!(!serve.health().degraded());
        assert_eq!(last.lost_arrivals, 0, "stalls lose nothing");
        // The degraded stretch is visible in the shared telemetry: gate
        // expiry and degraded-epoch counters moved, and the transition
        // events landed in the ring.
        let snap = serve.telemetry();
        assert_eq!(snap.counter_value("gps_serve_gate_expiries_total"), Some(1));
        assert!(
            snap.counter_value("gps_serve_degraded_epochs_total")
                .unwrap()
                >= 1
        );
        let kinds: Vec<_> = snap.events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&gps_telemetry::EventKind::GateExpiry));
        assert!(kinds.contains(&gps_telemetry::EventKind::DegradedEpoch));
        assert!(kinds.contains(&gps_telemetry::EventKind::EpochRecovered));
    }

    #[test]
    fn telemetry_spans_engine_and_serve_layers_on_one_registry() {
        let mut serve = ServeEngine::with_config(
            ServeConfig {
                engine: EngineConfig {
                    batch: 16,
                    epoch_every: 32,
                    ..EngineConfig::new(50, 2, 7)
                },
                subscribe_depth: 16,
                gate_timeout: None,
                clock: ClockMode::Manual,
            },
            TriangleWeight::default(),
        );
        let handle = serve.handle();
        serve.push_stream(clique_chunks(150));
        serve.finish();
        let snap = serve.telemetry();
        // Engine-side: every pushed arrival was consumed in a batch.
        assert_eq!(
            snap.counter_value("gps_engine_arrivals_total"),
            Some(serve.pushed())
        );
        assert_eq!(snap.counter_value("gps_engine_restarts_total"), Some(0));
        assert_eq!(
            snap.counter_value("gps_engine_lost_arrivals_total"),
            Some(0)
        );
        // Sampler-side: the final harvest saw every arrival act.
        let inserts = snap.counter_value("gps_sampler_inserts_total").unwrap();
        assert!(inserts > 0, "a non-empty stream inserts something");
        // Serve-side: the board published at least launch + final epochs,
        // and the staleness histogram recorded one value per publication
        // (all zero on the frozen manual clock: bucket 0 holds them all).
        let epochs = snap
            .counter_value("gps_serve_epochs_published_total")
            .unwrap();
        assert!(epochs >= 1);
        let h = snap
            .histogram_sample("gps_serve_publish_staleness_ns")
            .unwrap();
        assert_eq!(h.count, epochs);
        assert_eq!((h.sum, h.buckets[0]), (0, epochs));
        // The handle reads the same registry, before and after finish.
        assert_eq!(handle.telemetry(), snap);
        // Renderers cover every registered metric.
        let text = snap.to_text();
        for name in [
            "gps_engine_arrivals_total",
            "gps_sampler_inserts_total",
            "gps_serve_publish_staleness_ns_count",
        ] {
            assert!(text.contains(name), "missing {name} in exposition");
        }
    }
}
