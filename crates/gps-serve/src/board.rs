//! The epoch board: merges per-shard reports into published epochs and
//! services blocking queries and subscriptions.
//!
//! The board is the rendezvous between the engine's worker threads (which
//! deliver [`ShardReport`]s through the epoch hook) and any number of
//! reader threads holding [`QueryHandle`]s. Workers merge under a mutex —
//! contended only among the `S` workers, once per epoch cadence — and
//! publish the merged result into the lock-free [`EpochCell`], so the
//! read path (`latest()`) never touches the mutex at all.
//!
//! [`QueryHandle`]: crate::QueryHandle

use crate::clock::{duration_ns, Clock};
use crate::epoch::{EpochCell, EstimateEpoch};
use gps_core::{Estimate, TriadEstimates};
use gps_engine::ShardReport;
use gps_telemetry::{
    Counter, EpochTrace, Event, EventKind, FlightRecorder, Histogram, Registry, Stability,
    TelemetrySnapshot, TraceCause,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn zero_triad() -> TriadEstimates {
    TriadEstimates::from_parts(Estimate::exact(0.0), Estimate::exact(0.0), 0.0)
}

/// Contributing-mask bit for `shard` (shards ≥ 64 share the top bit; see
/// [`EstimateEpoch::contributing`]).
fn shard_bit(shard: usize) -> u64 {
    1u64 << shard.min(63)
}

/// Mask with one bit per shard, saturating at 64 tracked shards.
fn full_mask(shards: usize) -> u64 {
    if shards >= 64 {
        u64::MAX
    } else {
        (1u64 << shards) - 1
    }
}

/// Serve-layer metric handles, registered on the registry shared with the
/// producing engine (all `Timing`-class: publication counts and staleness
/// depend on worker scheduling; see `docs/observability.md`).
pub(crate) struct BoardMetrics {
    /// Every epoch published through [`Board::publish_epoch`].
    epochs: Counter,
    /// Epochs published with a partial contributing mask.
    degraded: Counter,
    /// Transitions into degraded publishing after a gate deadline passed.
    gate_expiries: Counter,
    /// Epochs dropped on a full subscriber channel (the subscriber lags;
    /// a later epoch supersedes the dropped one).
    lag_drops: Counter,
    /// Age, in clock nanoseconds, of the **oldest** contributing shard
    /// report at publication time — the watermark staleness a reader of
    /// that epoch observes. Keyed off the board clock, so manual-clock
    /// tests pin exact histogram contents.
    staleness: Histogram,
    /// Shared registry, kept for snapshots and event-ring pushes.
    registry: Arc<Registry>,
}

impl BoardMetrics {
    fn register(registry: Arc<Registry>) -> Self {
        BoardMetrics {
            epochs: registry.counter("gps_serve_epochs_published_total", Stability::Timing),
            degraded: registry.counter("gps_serve_degraded_epochs_total", Stability::Timing),
            gate_expiries: registry.counter("gps_serve_gate_expiries_total", Stability::Timing),
            lag_drops: registry.counter("gps_serve_subscriber_lag_drops_total", Stability::Timing),
            staleness: registry.histogram("gps_serve_publish_staleness_ns", Stability::Timing),
            registry,
        }
    }
}

/// Publisher-side state, serialized by the board mutex.
struct BoardState {
    /// Latest report per shard (`None` until that shard first reports; a
    /// silent shard merges as a zero estimate at position 0, which is
    /// exactly its in-stream accumulator state at that point).
    per_shard: Vec<Option<ShardReport>>,
    /// When each shard last reported, in clock nanoseconds (drives the
    /// liveness window of the publication gate; meaningless — and unread —
    /// without a gate).
    reported_at: Vec<Option<u64>>,
    /// Last assigned epoch version (monotone over the board's lifetime,
    /// across engine restores).
    version: u64,
    /// Copy of the latest epoch for the blocking paths.
    latest: Option<EstimateEpoch>,
    /// Whether the producing engine has finished (no more epochs until the
    /// board is reopened by a restore).
    closed: bool,
    /// Engine generation this board currently accepts reports from;
    /// bumped by [`Board::reopen`]. Workers of a dropped or superseded
    /// engine may still be draining their queues and firing the hook —
    /// their reports carry a stale generation and are discarded instead
    /// of contaminating the current engine's epochs.
    generation: u64,
    /// Publication-gate timeout in clock nanoseconds: how long after
    /// (re)opening the board waits for *every* shard to report before it
    /// starts publishing degraded epochs from the reporting shards only.
    /// `None` gates forever (the pre-fault-tolerance behavior).
    gate_ns: Option<u64>,
    /// When the current gate expires, in clock nanoseconds (re-armed by
    /// [`Board::reopen`]).
    gate_deadline: Option<u64>,
    /// Live subscription senders; lossy on full, pruned on disconnect.
    subscribers: Vec<SyncSender<EstimateEpoch>>,
    /// Producing engine's lost-arrivals counter, stamped on every epoch
    /// (see [`EstimateEpoch::lost_arrivals`]). `None` until the serve layer
    /// attaches the engine — the launch-time reports that can race the
    /// attach all carry zero loss anyway (losses require pushed arrivals,
    /// which follow construction).
    lost: Option<Counter>,
    /// Whether the board is currently publishing degraded epochs; drives
    /// the `DegradedEpoch` / `EpochRecovered` transition events.
    was_degraded: bool,
    /// Whether the current gate arming already expired (first degraded
    /// publication fired a `GateExpiry` event); reset by [`Board::reopen`].
    gate_expired: bool,
    /// Clock instant of the first report withheld since the last
    /// publication — the start of the `gate_wait` trace stage. `None`
    /// when nothing is currently withheld.
    gate_wait_from: Option<u64>,
}

/// What triggered a publication: the report that tipped the board over,
/// carried into the epoch's provenance trace. (The triggering shard
/// itself is identifiable as the newest `report_mark`.)
struct Trigger {
    batch_arrivals: u64,
    prev_report_at: Option<u64>,
}

/// Publication context threaded from the report/close entry point down to
/// [`Board::publish_epoch`], for trace stamping.
struct PublishCtx {
    /// Report-arrival instant captured by the caller.
    now: u64,
    cause: TraceCause,
    trigger: Option<Trigger>,
    t_merge_start: u64,
    t_merge_end: u64,
}

/// Shared epoch board (see module docs).
pub(crate) struct Board {
    cell: EpochCell,
    state: Mutex<BoardState>,
    wake: Condvar,
    /// Time source for the gate and the bounded waits (see `clock`).
    clock: Clock,
    /// Serve-layer metric handles on the registry shared with the engine.
    metrics: BoardMetrics,
    /// Recent epoch provenance traces (bounded, lossy-counted).
    recorder: FlightRecorder,
    /// Highest epoch version whose first observation has been stamped
    /// into the recorder — readers race through a CAS on this word so
    /// only the first observer of a version takes the recorder lock.
    observed: AtomicU64,
}

impl Board {
    /// Locks the publisher state, shrugging off poisoning: the state is
    /// updated atomically under the lock (no partial writes survive a
    /// panic), and a serving layer must keep answering readers even if
    /// one publisher panicked.
    fn locked(&self) -> std::sync::MutexGuard<'_, BoardState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Creates a board with its serve metrics registered on the
    /// caller-supplied registry — the serve layer passes the same registry
    /// to the engine so one snapshot covers both layers (tests pass a
    /// fresh detached registry).
    pub(crate) fn with_registry(
        shards: usize,
        gate: Option<Duration>,
        clock: Clock,
        registry: Arc<Registry>,
    ) -> Self {
        let gate_ns = gate.map(duration_ns);
        let now = clock.now_ns();
        Board {
            cell: EpochCell::new(),
            state: Mutex::new(BoardState {
                per_shard: vec![None; shards],
                reported_at: vec![None; shards],
                version: 0,
                latest: None,
                closed: false,
                generation: 0,
                gate_ns,
                gate_deadline: gate_ns.map(|d| now.saturating_add(d)),
                subscribers: Vec::new(),
                lost: None,
                was_degraded: false,
                gate_expired: false,
                gate_wait_from: None,
            }),
            wake: Condvar::new(),
            clock,
            metrics: BoardMetrics::register(registry),
            recorder: FlightRecorder::default(),
            observed: AtomicU64::new(0),
        }
    }

    /// Registry shared by this board's serve metrics (and, once the serve
    /// layer wires it through, the producing engine's).
    pub(crate) fn telemetry_registry(&self) -> Arc<Registry> {
        self.metrics.registry.clone()
    }

    /// Snapshot of every metric and event on the shared registry.
    pub(crate) fn telemetry(&self) -> TelemetrySnapshot {
        self.metrics.registry.snapshot()
    }

    /// Binds the producing engine's lost-arrivals counter so subsequent
    /// epochs stamp its value (see [`EstimateEpoch::lost_arrivals`]).
    pub(crate) fn attach_lost_counter(&self, lost: Counter) {
        self.locked().lost = Some(lost);
    }

    /// Advances a manual clock (see [`crate::ClockMode::Manual`]) and wakes
    /// every blocked waiter so expired deadlines are observed immediately.
    /// No-op on a wall clock.
    pub(crate) fn advance_clock(&self, d: Duration) -> bool {
        // Advance under the lock so a waiter cannot read the clock between
        // our bump and our notify, then miss the wakeup.
        let state = self.locked();
        let moved = self.clock.advance(d);
        drop(state);
        if moved {
            self.wake.notify_all();
        }
        moved
    }

    /// Epoch-hook target: folds one shard's report in and publishes the
    /// re-merged epoch. Runs on the reporting worker's thread.
    ///
    /// Reports from a closed board or a stale `generation` are dropped:
    /// a dropped-without-finish engine's workers keep draining their
    /// queues (nothing joins them) and would otherwise publish after
    /// `close()` or into a successor engine's board.
    ///
    /// Without a publication gate (`gate == None`), no epoch is published
    /// until **every** shard has reported at least once since the board
    /// (re)opened: a partial merge would understate both the watermark and
    /// the estimates — on the restore path it would make them visibly
    /// regress. Workers report immediately at launch, so the gate clears
    /// before any new stream is consumed.
    ///
    /// With a gate, the board degrades instead of withholding: once the
    /// gate deadline has passed, reports still publish while some shard is
    /// silent or stale — a *degraded* epoch merged from the live shards
    /// only (see [`Board::live_shards`]), stamped with the contributing
    /// mask so readers can tell. When the missing shard reports again the
    /// next publication is full.
    pub(crate) fn publish_report(&self, generation: u64, report: ShardReport) {
        let mut state = self.locked();
        if state.closed || generation != state.generation {
            return;
        }
        let slot = report.shard;
        assert!(slot < state.per_shard.len(), "report from unknown shard");
        let now = self.clock.now_ns();
        let prev_report_at = state.reported_at[slot];
        state.per_shard[slot] = Some(report);
        state.reported_at[slot] = Some(now);
        let trigger = Some(Trigger {
            batch_arrivals: report.batch_arrivals,
            prev_report_at,
        });
        let live = self.live_shards(&state, now);
        if live.len() == state.per_shard.len() {
            self.publish(&mut state, &live, now, TraceCause::Full, trigger);
        } else if state.gate_deadline.is_some_and(|d| now >= d) && !live.is_empty() {
            self.publish(&mut state, &live, now, TraceCause::GateExpired, trigger);
        } else {
            // Still inside the gate window with shards missing — keep
            // withholding until they report or the deadline passes. The
            // first withheld report starts the `gate_wait` trace stage.
            state.gate_wait_from.get_or_insert(now);
        }
    }

    /// Generation the board currently accepts reports for.
    pub(crate) fn generation(&self) -> u64 {
        self.locked().generation
    }

    /// Indices of shards with a *live* report at `now`: one that exists
    /// and — when a publication gate is configured — is no older than the
    /// gate timeout (a permanently stalled or crashed-and-recovering shard
    /// stops reporting, so its last report ages out of the window and the
    /// board degrades around it). Without a gate every received report
    /// counts indefinitely, reproducing the ungated behavior exactly.
    ///
    /// The shard that just reported always qualifies: its `reported_at`
    /// equals the `now` captured by the caller, so even a zero gate keeps
    /// `elapsed <= window` true for it.
    fn live_shards(&self, state: &BoardState, now: u64) -> Vec<usize> {
        (0..state.per_shard.len())
            .filter(|&i| {
                state.per_shard[i].is_some()
                    && match (state.gate_ns, state.reported_at[i]) {
                        (Some(window), Some(at)) => now.saturating_sub(at) <= window,
                        (Some(_), None) => false,
                        (None, _) => true,
                    }
            })
            .collect()
    }

    /// Merges the `shards`' snapshots and publishes the epoch (caller
    /// holds the lock; `shards` is non-empty and ascending).
    ///
    /// Every shard contributes to a full or forced-close publication; a
    /// shard that never reported merges as a zero estimate at position 0,
    /// which is exactly its state. A degraded publication passes only the
    /// live shards: [`TriadEstimates::merged_colored_partial`] extrapolates
    /// from the reporting colors — unbiased, with honestly widened
    /// variances — and the watermark covers the reporting substreams only,
    /// so it can sit below a prior full epoch's until the silent shard
    /// returns. With every shard contributing that merge is
    /// `merged_colored` bit for bit.
    fn publish(
        &self,
        state: &mut BoardState,
        shards: &[usize],
        now: u64,
        cause: TraceCause,
        trigger: Option<Trigger>,
    ) {
        let parts: Vec<TriadEstimates> = shards
            .iter()
            .map(|&i| state.per_shard[i].map_or_else(zero_triad, |r| r.estimates))
            .collect();
        let edges_seen: u64 = shards
            .iter()
            .filter_map(|&i| state.per_shard[i])
            .map(|r| r.arrivals)
            .sum();
        let contributing = shards.iter().fold(0u64, |mask, &i| mask | shard_bit(i));
        let t_merge_start = self.clock.now_ns();
        let estimates = TriadEstimates::merged_colored_partial(&parts, state.per_shard.len());
        let t_merge_end = self.clock.now_ns();
        let ctx = PublishCtx {
            now,
            cause,
            trigger,
            t_merge_start,
            t_merge_end,
        };
        self.publish_epoch(state, edges_seen, contributing, estimates, ctx);
    }

    /// Stamps, records, and fans out one epoch (caller holds the lock),
    /// then records its provenance trace in the flight recorder.
    fn publish_epoch(
        &self,
        state: &mut BoardState,
        edges_seen: u64,
        contributing: u64,
        estimates: TriadEstimates,
        ctx: PublishCtx,
    ) {
        let now = ctx.now;
        state.version += 1;
        let epoch = EstimateEpoch {
            version: state.version,
            edges_seen,
            shards: state.per_shard.len() as u64,
            contributing,
            lost_arrivals: state.lost.as_ref().map(|c| c.get()).unwrap_or(0),
            estimates,
        };
        self.metrics.epochs.incr();
        // Watermark staleness: the age of the oldest report this epoch
        // merges — zero when every contributor reported "now" (and for the
        // forced close-time epoch of a board nobody ever reported to).
        let contributing_at: Vec<u64> = (0..state.per_shard.len())
            .filter(|&i| contributing & shard_bit(i) != 0)
            .filter_map(|i| state.reported_at[i])
            .collect();
        let oldest = contributing_at.iter().copied().min().unwrap_or(now);
        let newest = contributing_at.iter().copied().max().unwrap_or(now);
        self.metrics.staleness.record(now.saturating_sub(oldest));
        let shards = state.per_shard.len();
        if contributing != full_mask(shards) {
            self.metrics.degraded.incr();
            let missing = (shards.min(64) as u64) - u64::from(contributing.count_ones());
            if !state.gate_expired {
                // First degraded publication since this gate was armed:
                // the deadline passing is what let it through.
                state.gate_expired = true;
                self.metrics.gate_expiries.incr();
                self.metrics.registry.event(Event {
                    at: now,
                    kind: EventKind::GateExpiry,
                    shard: None,
                    epoch: Some(state.version),
                    detail: missing,
                });
            }
            if !state.was_degraded {
                state.was_degraded = true;
                self.metrics.registry.event(Event {
                    at: now,
                    kind: EventKind::DegradedEpoch,
                    shard: None,
                    epoch: Some(state.version),
                    detail: missing,
                });
            }
        } else if state.was_degraded {
            state.was_degraded = false;
            self.metrics.registry.event(Event {
                at: now,
                kind: EventKind::EpochRecovered,
                shard: None,
                epoch: Some(state.version),
                detail: 0,
            });
        }
        state.latest = Some(epoch);
        self.cell.publish(&epoch);
        state.subscribers.retain(|tx| match tx.try_send(epoch) {
            Ok(()) => true,
            // Lagging subscriber: epochs are cumulative (the latest
            // supersedes all prior), so dropping this one loses nothing a
            // later delivery won't restate.
            Err(TrySendError::Full(_)) => {
                self.metrics.lag_drops.incr();
                true
            }
            Err(TrySendError::Disconnected(_)) => false,
        });
        // Provenance trace: the epoch's pipeline timeline, in stage
        // order. Every instant comes from the board clock, so manual
        // clocks and virtual time pin traces bit-identically.
        let t_publish_end = self.clock.now_ns();
        let mut trace = EpochTrace::new(
            state.version,
            edges_seen,
            shards.min(u32::MAX as usize) as u32,
            contributing,
        );
        trace.cause = ctx.cause;
        trace.report_skew_ns = newest.saturating_sub(oldest);
        trace.published_at_ns = t_publish_end;
        for i in 0..state.per_shard.len() {
            if contributing & shard_bit(i) == 0 {
                continue;
            }
            if let (Some(at), Some(r)) = (state.reported_at[i], state.per_shard[i]) {
                trace.mark(
                    "report_mark",
                    at,
                    Some(i.min(u32::MAX as usize) as u32),
                    r.arrivals,
                );
            }
        }
        if let Some(t) = &ctx.trigger {
            trace.stage(
                "arrival_batch",
                t.prev_report_at.unwrap_or(now),
                now,
                t.batch_arrivals,
            );
        }
        let merged = u64::from(contributing.count_ones());
        trace.stage("shard_report", oldest, newest, merged);
        trace.stage(
            "gate_wait",
            state.gate_wait_from.take().unwrap_or(ctx.t_merge_start),
            ctx.t_merge_start,
            0,
        );
        trace.stage("merge", ctx.t_merge_start, ctx.t_merge_end, merged);
        trace.stage(
            "seqlock_publish",
            ctx.t_merge_end,
            t_publish_end,
            state.subscribers.len() as u64,
        );
        self.recorder.record(trace);
        self.wake.notify_all();
    }

    /// Stamps the first observation of `epoch` into its provenance trace
    /// (called from every reader path). The version CAS keeps the fast
    /// path lock-free: only the first observer of a new version touches
    /// the recorder mutex; later and out-of-order observations return
    /// immediately.
    pub(crate) fn observe(&self, epoch: &EstimateEpoch) {
        loop {
            // ordering: Relaxed — the word is a monotone version
            // high-water mark used only to elect one marker; the recorder
            // mutex serialises the trace mutation itself, and a stale
            // read just retries the CAS.
            let seen = self.observed.load(Ordering::Relaxed);
            if epoch.version <= seen {
                return;
            }
            if self
                .observed
                // ordering: Relaxed — see above; no payload is published
                // through this word.
                .compare_exchange(seen, epoch.version, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                self.recorder
                    .mark_observed(epoch.version, self.clock.now_ns());
                return;
            }
        }
    }

    /// Provenance trace for `version`, if it is still in the flight
    /// recorder.
    pub(crate) fn trace(&self, version: u64) -> Option<EpochTrace> {
        self.recorder.trace(version)
    }

    /// The last `n` retained provenance traces, oldest first.
    pub(crate) fn recent_traces(&self, n: usize) -> Vec<EpochTrace> {
        self.recorder.latest(n)
    }

    /// Traces evicted from the flight recorder since the board was built.
    pub(crate) fn traces_lost(&self) -> u64 {
        self.recorder.lost()
    }

    /// Marks the producer finished: wakes all waiters and ends all
    /// subscriptions. Idempotent.
    ///
    /// No re-publication happens on the normal path: `publish_report`
    /// publishes on every complete report, so by close time `latest`
    /// already is the final epoch (re-merging here would only deliver a
    /// byte-identical duplicate under a bumped version). In particular, a
    /// just-resumed engine abandoned before all restored workers reported
    /// leaves the standing pre-restore epoch untouched instead of
    /// regressing the watermark with zero-filled slots. Only a board that
    /// never published anything force-publishes, so even an empty run
    /// yields one (zero) epoch.
    pub(crate) fn close(&self) {
        let mut state = self.locked();
        if state.closed {
            return;
        }
        if state.latest.is_none() {
            let now = self.clock.now_ns();
            let all: Vec<usize> = (0..state.per_shard.len()).collect();
            self.publish(&mut state, &all, now, TraceCause::ForcedClose, None);
        }
        state.closed = true;
        state.subscribers.clear();
        self.wake.notify_all();
    }

    /// Reopens a closed board for a restored engine with `shards` shards,
    /// keeping the version counter (epochs stay monotone across the
    /// restore) and bumping the accepted generation (stragglers of the
    /// previous engine are locked out). Returns the new generation for the
    /// restored engine's hook. The restored workers' initial reports
    /// re-seed the per-shard slots before any new stream is consumed.
    ///
    /// # Panics
    /// Panics if the board is still open (two engines must not publish
    /// into one board concurrently).
    pub(crate) fn reopen(&self, shards: usize) -> u64 {
        let mut state = self.locked();
        assert!(
            state.closed,
            "board is still owned by a running engine; finish it before resuming"
        );
        state.closed = false;
        state.generation += 1;
        state.per_shard = vec![None; shards];
        state.reported_at = vec![None; shards];
        // Re-arm the publication gate: the restored engine gets a fresh
        // grace window for all of its workers to file initial reports
        // before the board starts degrading around the missing ones.
        let now = self.clock.now_ns();
        state.gate_deadline = state.gate_ns.map(|d| now.saturating_add(d));
        state.gate_expired = false;
        state.gate_wait_from = None;
        // `state.lost` is deliberately kept: the restored engine registers
        // onto the same shared registry, so the counter handle is the same
        // and the serve-lifetime loss ledger stays cumulative across the
        // restore (the serve layer re-attaches it anyway).
        state.generation
    }

    /// Latest epoch (lock-free; `None` before the first publication).
    /// Reading it counts as observing it — the first reader of each
    /// version stamps the trace's final pipeline stage.
    pub(crate) fn latest(&self) -> Option<EstimateEpoch> {
        let epoch = self.cell.load();
        if let Some(e) = &epoch {
            self.observe(e);
        }
        epoch
    }

    /// Blocks until an epoch with `edges_seen >= n` is published and
    /// returns it, or `None` if the board closes first without reaching
    /// the watermark.
    pub(crate) fn wait_for_edges(&self, n: u64) -> Option<EstimateEpoch> {
        self.wait_until(n, None)
    }

    /// [`Board::wait_for_edges`] with a deadline: blocks until an epoch
    /// with `edges_seen >= n` is published and returns it, or `None` once
    /// `timeout` has elapsed or the board closes first — whichever comes
    /// sooner.
    pub(crate) fn wait_for_edges_timeout(
        &self,
        n: u64,
        timeout: Duration,
    ) -> Option<EstimateEpoch> {
        let deadline = self.clock.now_ns().saturating_add(duration_ns(timeout));
        self.wait_until(n, Some(deadline))
    }

    /// The blocking wait behind both `wait_for_edges` forms: an epoch with
    /// `edges_seen >= n`, or `None` on close or once the clock reaches
    /// `deadline`. Tolerates both lock poisoning and spurious wakeups (the
    /// remaining time is re-derived on every pass, never decremented in
    /// place).
    fn wait_until(&self, n: u64, deadline: Option<u64>) -> Option<EstimateEpoch> {
        let mut state = self.locked();
        loop {
            if let Some(epoch) = state.latest {
                if epoch.edges_seen >= n {
                    self.observe(&epoch);
                    return Some(epoch);
                }
            }
            if state.closed {
                return None;
            }
            let now = self.clock.now_ns();
            if deadline.is_some_and(|d| now >= d) {
                return None;
            }
            state = match deadline {
                // Manual time cannot expire on its own: park until an
                // epoch, a close, or an `advance_clock` wakes us.
                Some(d) if !self.clock.is_manual() => {
                    self.wake
                        .wait_timeout(state, Duration::from_nanos(d - now))
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
                _ => self.wake.wait(state).unwrap_or_else(|e| e.into_inner()),
            };
        }
    }

    /// Registers a bounded subscription; `None` if the board is closed
    /// (no further epochs will ever arrive).
    pub(crate) fn subscribe(&self, depth: usize) -> Option<Receiver<EstimateEpoch>> {
        let mut state = self.locked();
        if state.closed {
            return None;
        }
        let (tx, rx) = sync_channel(depth.max(1));
        // Prime with the current epoch so a subscriber never starts blind.
        if let Some(epoch) = state.latest {
            let _ = tx.try_send(epoch);
        }
        state.subscribers.push(tx);
        Some(rx)
    }

    /// Whether the board is closed (producer finished, not resumed).
    pub(crate) fn is_closed(&self) -> bool {
        self.locked().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockMode;

    fn wall_board(shards: usize, gate: Option<Duration>) -> Board {
        Board::with_registry(
            shards,
            gate,
            Clock::new(ClockMode::Wall),
            Arc::new(Registry::new()),
        )
    }

    fn manual_board(shards: usize, gate: Option<Duration>) -> Board {
        Board::with_registry(
            shards,
            gate,
            Clock::new(ClockMode::Manual),
            Arc::new(Registry::new()),
        )
    }

    fn report(shard: usize, arrivals: u64, tri: f64) -> ShardReport {
        ShardReport {
            shard,
            arrivals,
            batch_arrivals: arrivals,
            estimates: TriadEstimates::from_parts(
                Estimate {
                    value: tri,
                    variance: 0.0,
                },
                Estimate::exact(0.0),
                0.0,
            ),
        }
    }

    #[test]
    fn watermark_sums_shards_and_versions_increase() {
        let board = wall_board(2, None);
        assert!(board.latest().is_none());
        // Publication is gated until every shard has reported once.
        board.publish_report(0, report(0, 100, 1.0));
        assert!(board.latest().is_none());
        board.publish_report(0, report(1, 50, 2.0));
        let e1 = board.latest().unwrap();
        assert_eq!((e1.version, e1.edges_seen), (1, 150));
        assert_eq!(e1.contributing, 0b11);
        assert!(!e1.degraded(), "ungated full merges are never degraded");
        // S = 2 triangles rescale by S²·Σ = 4·3.
        assert_eq!(e1.estimates.triangles.value, 12.0);
        board.publish_report(0, report(0, 120, 1.0));
        let e2 = board.latest().unwrap();
        assert_eq!((e2.version, e2.edges_seen), (2, 170));
    }

    #[test]
    fn close_publishes_final_epoch_and_is_idempotent() {
        let board = wall_board(1, None);
        board.close();
        let final_epoch = board.latest().unwrap();
        assert_eq!(final_epoch.edges_seen, 0);
        board.close();
        assert_eq!(board.latest().unwrap().version, final_epoch.version);
        assert!(board.is_closed());
        assert!(board.subscribe(4).is_none());
    }

    #[test]
    fn wait_for_edges_returns_none_on_close_below_watermark() {
        let board = std::sync::Arc::new(wall_board(1, None));
        let waiter = {
            let board = board.clone();
            std::thread::spawn(move || board.wait_for_edges(1_000))
        };
        board.publish_report(0, report(0, 10, 0.0));
        board.close();
        assert!(waiter.join().unwrap().is_none());
        // Already-satisfied watermarks still answer from the final epoch.
        assert_eq!(board.wait_for_edges(5).unwrap().edges_seen, 10);
    }

    #[test]
    fn subscriptions_prime_drop_when_full_and_end_on_close() {
        let board = wall_board(1, None);
        board.publish_report(0, report(0, 1, 0.0));
        let rx = board.subscribe(2).unwrap();
        // Primed with the current epoch.
        assert_eq!(rx.recv().unwrap().edges_seen, 1);
        for i in 2..=5 {
            board.publish_report(0, report(0, i, 0.0));
        }
        // Depth 2: epochs 2 and 3 buffered, 4 and 5 dropped (lossy).
        assert_eq!(rx.recv().unwrap().edges_seen, 2);
        assert_eq!(rx.recv().unwrap().edges_seen, 3);
        board.close();
        // Close does not re-publish (latest already is the final epoch);
        // the raw channel just ends — the final-epoch delivery guarantee
        // for lagging subscribers lives in `EpochSubscription`'s drain of
        // `Board::latest`, tested at the serve layer.
        assert!(rx.recv().is_err(), "subscription must end after close");
        assert_eq!(board.latest().unwrap().edges_seen, 5);
    }

    #[test]
    fn reopen_keeps_versions_monotone_and_gates_partial_merges() {
        let board = wall_board(2, None);
        board.publish_report(0, report(0, 5, 0.0));
        board.close();
        let at_close = board.latest().unwrap();
        let generation = board.reopen(3);
        // Until all 3 restored shards report, the closed-time epoch stands.
        board.publish_report(generation, report(2, 7, 0.0));
        assert_eq!(board.latest().unwrap().version, at_close.version);
        board.publish_report(generation, report(0, 4, 0.0));
        board.publish_report(generation, report(1, 2, 0.0));
        let e = board.latest().unwrap();
        assert!(e.version > at_close.version);
        assert_eq!(e.shards, 3);
        assert_eq!(e.edges_seen, 13);
    }

    #[test]
    fn straggler_reports_are_dropped_after_close_and_across_generations() {
        let board = wall_board(1, None);
        board.publish_report(0, report(0, 5, 1.0));
        board.close();
        let final_version = board.latest().unwrap().version;
        // A worker of the dead engine drains late: no new epoch.
        board.publish_report(0, report(0, 9, 9.0));
        assert_eq!(board.latest().unwrap().version, final_version);
        // Resume with MORE shards: a stale-generation report must be
        // ignored (not out-of-bounds-panic, not merged), only the new
        // generation publishes.
        let generation = board.reopen(2);
        board.publish_report(0, report(0, 999, 9.0)); // stale generation
        board.publish_report(generation, report(0, 6, 1.0));
        board.publish_report(generation, report(1, 4, 1.0));
        let e = board.latest().unwrap();
        assert_eq!(e.edges_seen, 10, "only current-generation reports merge");
        assert!(e.version > final_version);
    }

    #[test]
    fn closing_a_gated_reopened_board_does_not_regress_the_watermark() {
        // Resume then abandon before every restored worker reports: the
        // close-time publication must not merge zero-filled slots below
        // the standing pre-restore epoch.
        let board = wall_board(1, None);
        board.publish_report(0, report(0, 50, 3.0));
        board.close();
        let standing = board.latest().unwrap();
        let generation = board.reopen(2);
        board.publish_report(generation, report(0, 50, 3.0)); // 1 of 2 shards
        board.close();
        let after = board.latest().unwrap();
        assert_eq!(after.version, standing.version, "no partial final epoch");
        assert_eq!(after.edges_seen, 50);
    }

    #[test]
    #[should_panic(expected = "still owned by a running engine")]
    fn reopen_of_open_board_panics() {
        wall_board(1, None).reopen(1);
    }

    #[test]
    fn expired_gate_publishes_degraded_epochs_from_reporting_shards() {
        // Zero gate on a manual clock: the deadline equals "now" at the
        // first report, so the board publishes immediately from whichever
        // shard spoke — degraded, with an honest contributing mask.
        let board = manual_board(3, Some(Duration::ZERO));
        board.publish_report(0, report(1, 40, 6.0));
        let e = board.latest().unwrap();
        assert_eq!(e.version, 1);
        assert_eq!(e.shards, 3);
        assert_eq!(e.contributing, 0b010);
        assert_eq!(e.contributing_count(), 1);
        assert!(e.degraded());
        // Watermark covers the reporting substream only.
        assert_eq!(e.edges_seen, 40);
        // One of S = 3 colors extrapolates by S³: 27·6.
        assert_eq!(e.estimates.triangles.value, 162.0);
        // A second reporting shard joins the merge (zero gate keeps the
        // earlier reporter out of the live window — only the current
        // reporter is provably fresh once virtual time has moved past
        // shard 1's report; no sleep, no coarse-clock caveat).
        board.advance_clock(Duration::from_nanos(1));
        board.publish_report(0, report(0, 10, 6.0));
        let e2 = board.latest().unwrap();
        assert_eq!(e2.version, 2);
        assert_eq!(e2.contributing, 0b001);
        assert_eq!(e2.edges_seen, 10);
    }

    #[test]
    fn unexpired_gate_withholds_then_full_reports_publish_undegraded() {
        // A generous gate behaves like the ungated board until every shard
        // reports, then publishes full, undegraded epochs.
        let board = manual_board(2, Some(Duration::from_secs(3600)));
        board.publish_report(0, report(0, 10, 1.0));
        assert!(
            board.latest().is_none(),
            "inside the gate window no partial epoch may publish"
        );
        board.publish_report(0, report(1, 5, 2.0));
        let e = board.latest().unwrap();
        assert_eq!(e.contributing, 0b11);
        assert!(!e.degraded());
        assert_eq!(e.edges_seen, 15);
    }

    #[test]
    fn wait_for_edges_timeout_returns_satisfying_epoch_before_deadline() {
        let board = std::sync::Arc::new(manual_board(1, None));
        let waiter = {
            let board = board.clone();
            std::thread::spawn(move || board.wait_for_edges_timeout(100, Duration::from_secs(30)))
        };
        board.publish_report(0, report(0, 150, 0.0));
        let got = waiter.join().unwrap().expect("epoch before deadline");
        assert_eq!(got.edges_seen, 150);
        // An already-satisfied watermark answers without waiting at all.
        let quick = board.wait_for_edges_timeout(1, Duration::ZERO);
        assert_eq!(quick.unwrap().edges_seen, 150);
    }

    #[test]
    fn manual_clock_pins_exact_staleness_histogram_contents() {
        use gps_telemetry::{bucket_of, BUCKETS};
        let board = manual_board(2, None);
        board.publish_report(0, report(0, 10, 0.0));
        board.advance_clock(Duration::from_nanos(5));
        // First full merge at t = 5: shard 0 reported at t = 0, so the
        // oldest contributing report is 5 ns stale.
        board.publish_report(0, report(1, 5, 0.0));
        board.advance_clock(Duration::from_nanos(95));
        // Re-merge at t = 100: shard 1's report from t = 5 is now the
        // oldest, 95 ns stale.
        board.publish_report(0, report(0, 20, 0.0));
        let snap = board.telemetry();
        let h = snap
            .histogram_sample("gps_serve_publish_staleness_ns")
            .expect("staleness histogram registered");
        assert_eq!((h.count, h.sum), (2, 100));
        let mut expect = [0u64; BUCKETS];
        expect[bucket_of(5)] += 1;
        expect[bucket_of(95)] += 1;
        assert_eq!(h.buckets, expect, "virtual time pins exact buckets");
        assert_eq!(
            snap.counter_value("gps_serve_epochs_published_total"),
            Some(2)
        );
        assert_eq!(
            snap.counter_value("gps_serve_degraded_epochs_total"),
            Some(0)
        );
    }

    #[test]
    fn degraded_transitions_emit_events_and_stamp_lost_arrivals() {
        use gps_telemetry::{Counter, EventKind};
        let board = manual_board(2, Some(Duration::ZERO));
        // Zero gate: the lone reporter publishes degraded immediately —
        // one gate expiry, one degraded-transition event.
        board.publish_report(0, report(0, 10, 0.0));
        assert!(board.latest().unwrap().degraded());
        // The second shard reports within the same instant, so both are
        // live and the board recovers to a full epoch.
        board.publish_report(0, report(1, 5, 0.0));
        assert!(!board.latest().unwrap().degraded());
        let snap = board.telemetry();
        assert_eq!(snap.counter_value("gps_serve_gate_expiries_total"), Some(1));
        assert_eq!(
            snap.counter_value("gps_serve_degraded_epochs_total"),
            Some(1)
        );
        let kinds: Vec<EventKind> = snap.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::GateExpiry,
                EventKind::DegradedEpoch,
                EventKind::EpochRecovered
            ]
        );
        // Epochs stamp the attached engine loss ledger; before any attach
        // they stamp zero.
        assert_eq!(board.latest().unwrap().lost_arrivals, 0);
        let lost = Counter::default();
        lost.add(7);
        board.attach_lost_counter(lost);
        board.publish_report(0, report(0, 20, 0.0));
        assert_eq!(board.latest().unwrap().lost_arrivals, 7);
    }

    #[test]
    fn wait_for_edges_timeout_expires_on_an_open_board() {
        let board = std::sync::Arc::new(manual_board(1, None));
        board.publish_report(0, report(0, 10, 0.0));
        // Board stays open and never reaches the watermark: the call must
        // come back `None` once virtual time passes the deadline instead
        // of hanging. Advancing in a loop is ordering-insensitive: the
        // waiter's deadline is fixed at entry, and each advance moves
        // virtual time another full timeout, so whichever side runs first
        // the deadline is passed after at most two advances.
        let waiter = {
            let board = board.clone();
            std::thread::spawn(move || {
                board.wait_for_edges_timeout(1_000, Duration::from_millis(25))
            })
        };
        while !waiter.is_finished() {
            board.advance_clock(Duration::from_millis(26));
            std::thread::yield_now();
        }
        assert!(
            waiter.join().unwrap().is_none(),
            "deadline expiry must return None"
        );
        assert!(!board.is_closed());
        // A zero timeout on an unsatisfied watermark expires synchronously.
        assert!(board
            .wait_for_edges_timeout(1_000, Duration::ZERO)
            .is_none());
    }

    #[test]
    fn manual_clock_pins_the_exact_trace_timeline() {
        use gps_telemetry::StageSpan;
        let board = manual_board(2, None);
        // t = 0: shard 0 reports; the ungated board withholds until every
        // shard has spoken, which starts the gate_wait stage.
        board.publish_report(0, report(0, 100, 1.0));
        assert!(board.trace(1).is_none(), "no epoch, no trace");
        board.advance_clock(Duration::from_nanos(10));
        // t = 10: shard 1 reports and the full merge publishes.
        board.publish_report(0, report(1, 50, 2.0));
        // Reading the epoch stamps the first-observation stage at t = 10.
        assert_eq!(board.latest().unwrap().version, 1);
        let trace = board.trace(1).expect("epoch 1 is in the recorder");
        assert_eq!(trace.cause, TraceCause::Full);
        assert_eq!(trace.contributing, 0b11);
        assert_eq!(trace.report_skew_ns, 10);
        assert_eq!(trace.first_observed_ns, Some(10));
        assert_eq!(
            trace.spans,
            vec![
                // Shard 1's first report has no predecessor: the batch
                // span collapses to the report instant.
                StageSpan {
                    stage: "arrival_batch",
                    start_ns: 10,
                    end_ns: 10,
                    detail: 50,
                },
                StageSpan {
                    stage: "shard_report",
                    start_ns: 0,
                    end_ns: 10,
                    detail: 2,
                },
                StageSpan {
                    stage: "gate_wait",
                    start_ns: 0,
                    end_ns: 10,
                    detail: 0,
                },
                StageSpan {
                    stage: "merge",
                    start_ns: 10,
                    end_ns: 10,
                    detail: 2,
                },
                StageSpan {
                    stage: "seqlock_publish",
                    start_ns: 10,
                    end_ns: 10,
                    detail: 0,
                },
                StageSpan {
                    stage: "first_observation",
                    start_ns: 10,
                    end_ns: 10,
                    detail: 0,
                },
            ]
        );
        let marks: Vec<(u64, Option<u32>, u64)> = trace
            .marks
            .iter()
            .map(|m| (m.at_ns, m.shard, m.detail))
            .collect();
        assert_eq!(marks, vec![(0, Some(0), 100), (10, Some(1), 50)]);
        // A second publication attributes the triggering shard's batch.
        board.advance_clock(Duration::from_nanos(5));
        board.publish_report(0, report(0, 164, 1.0));
        let t2 = board.trace(2).expect("epoch 2 traced");
        let batch = t2.span("arrival_batch").expect("arrival_batch recorded");
        assert_eq!((batch.start_ns, batch.end_ns, batch.detail), (0, 15, 164));
        assert_eq!(
            t2.stage_ns("gate_wait"),
            Some(0),
            "nothing was withheld before epoch 2"
        );
        assert_eq!(
            board
                .recent_traces(10)
                .iter()
                .map(|t| t.version)
                .collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(board.traces_lost(), 0);
    }

    #[test]
    fn degraded_trace_names_the_gate_expiry_and_missing_shards() {
        let board = manual_board(3, Some(Duration::ZERO));
        // Zero gate: the lone reporter publishes a degraded epoch at once.
        board.publish_report(0, report(1, 40, 6.0));
        let trace = board.trace(1).expect("degraded epoch traced");
        assert_eq!(trace.cause, TraceCause::GateExpired);
        assert!(trace.degraded());
        assert_eq!(trace.missing_shards(), vec![0, 2]);
        assert_eq!(trace.contributing, 0b010);
        let json = trace.to_json();
        assert!(json.contains("\"cause\":\"gate_expired\",\"degraded\":true"));
        // A board closed before any publication traces a forced close.
        let empty = manual_board(1, None);
        empty.close();
        let t = empty.trace(1).expect("forced close-time epoch traced");
        assert_eq!(t.cause, TraceCause::ForcedClose);
        assert!(t.span("arrival_batch").is_none(), "no triggering report");
    }

    /// A board past 63 shards, where shard 63 and above share the top
    /// mask bit. A full publication sets every bit and merges like
    /// `merged_colored`; with shard 3 silent past a zero gate the epoch is
    /// degraded and merges the 64 live shards like
    /// `merged_colored_partial`.
    #[test]
    fn sixty_five_shards_publish_full_and_degraded_epochs() {
        const SHARDS: usize = 65;
        fn part(shard: usize, round: u64) -> ShardReport {
            let x = 1.0 + shard as f64 * 0.377 + round as f64 * 0.1;
            ShardReport {
                shard,
                arrivals: 100 * round + shard as u64,
                batch_arrivals: 100,
                estimates: TriadEstimates::from_parts(
                    Estimate {
                        value: x,
                        variance: 0.1 + x / 7.0,
                    },
                    Estimate {
                        value: 6.0 * x,
                        variance: 0.2 + x / 3.0,
                    },
                    x / 11.0,
                ),
            }
        }
        fn bits(e: &TriadEstimates) -> [u64; 5] {
            [
                e.triangles.value.to_bits(),
                e.triangles.variance.to_bits(),
                e.wedges.value.to_bits(),
                e.wedges.variance.to_bits(),
                e.tri_wedge_cov.to_bits(),
            ]
        }
        let board = manual_board(SHARDS, Some(Duration::ZERO));

        for shard in 0..SHARDS {
            board.publish_report(0, part(shard, 1));
        }
        let full = board.latest().unwrap();
        assert_eq!(full.shards, SHARDS as u64);
        assert_eq!(full.contributing, u64::MAX);
        assert!(!full.degraded());
        let parts: Vec<TriadEstimates> = (0..SHARDS).map(|s| part(s, 1).estimates).collect();
        assert_eq!(
            bits(&full.estimates),
            bits(&TriadEstimates::merged_colored(&parts))
        );

        // Shard 3's report ages out of the zero-width live window.
        board.advance_clock(Duration::from_nanos(1));
        let live: Vec<usize> = (0..SHARDS).filter(|&s| s != 3).collect();
        for &shard in &live {
            board.publish_report(0, part(shard, 2));
        }
        let partial = board.latest().unwrap();
        assert_eq!(partial.contributing, !(1u64 << 3));
        assert!(partial.degraded());
        let parts: Vec<TriadEstimates> = live.iter().map(|&s| part(s, 2).estimates).collect();
        assert_eq!(
            bits(&partial.estimates),
            bits(&TriadEstimates::merged_colored_partial(&parts, SHARDS))
        );
    }
}
