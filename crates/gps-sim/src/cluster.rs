//! The simulated cluster: source → leaves → relay → root, in virtual
//! time.
//!
//! One *source* host emits the edge stream, routing each edge with the
//! engine's real [`EdgePartitioner`] to one of `S` *leaf* nodes
//! ([`LeafNode`], hosting the production shard runner). Each leaf epoch
//! report crosses two links on its way to the *root*: leaf → relay
//! ([`SimConfig::leaf_link`]) and relay → root ([`SimConfig::agg_link`]).
//! The relay only forwards; the two hops are the latency model. The root
//! keeps the freshest report per leaf and periodically publishes over
//! whoever has reported, recording staleness, degraded publishes and a
//! provenance trace for each publish.
//!
//! Shards only sample and report. The colored merge
//! ([`TriadEstimates::merged_colored`]) runs once, over the leaves' final
//! estimates in leaf order, into [`SimOutcome::flat`].
//!
//! ## Determinism
//!
//! Everything is a pure function of the config, fault script, and edge
//! stream: virtual clock (no wall time anywhere), stable event ordering
//! ([`Scheduler`]), seeded network jitter, and the production code's own
//! seeded sampling. Same seed → same run, to the last f64 bit
//! ([`SimOutcome::fingerprint`]).

use crate::event::Scheduler;
use crate::net::Link;
use crate::node::LeafNode;
use gps_core::weights::EdgeWeight;
use gps_core::TriadEstimates;
use gps_engine::{EdgePartitioner, ShardReport, ShardedGps};
use gps_graph::types::Edge;
use gps_telemetry::{
    EpochTrace, Event as TelemetryEvent, EventKind, Registry, Stability, TelemetrySnapshot,
    TraceCause,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Static cluster shape and timing model.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Number of leaf shard-nodes `S` (the scale-out axis; may far exceed
    /// physical cores — nodes are events, not threads).
    pub shards: usize,
    /// Total reservoir budget `m`, split across leaves exactly like the
    /// engine splits it (`m/S`, first `m mod S` leaves get one more).
    pub capacity: usize,
    /// Engine seed: drives partitioner, per-shard samplers, restart seeds,
    /// and (xor-folded) the network jitter stream.
    pub seed: u64,
    /// Per-shard arrivals between epoch reports.
    pub epoch_every: u64,
    /// Per-shard arrivals between recovery checkpoints (0 = only the
    /// initial empty checkpoint).
    pub checkpoint_every: u64,
    /// Virtual time between consecutive source emissions.
    pub source_gap_ns: u64,
    /// Source→leaf and leaf→relay link model.
    pub leaf_link: Link,
    /// Relay→root link model: the second hop of every report.
    pub agg_link: Link,
    /// Root publish cadence in virtual time.
    pub publish_every_ns: u64,
}

impl SimConfig {
    /// A config with sane timing defaults: 1 µs source gap, 50 µs ± 20 µs
    /// leaf links, 100 µs ± 40 µs relay links, 1 ms publishes,
    /// epoch every 256 arrivals, checkpoint every 128.
    pub fn new(shards: usize, capacity: usize, seed: u64) -> Self {
        SimConfig {
            shards,
            capacity,
            seed,
            epoch_every: 256,
            checkpoint_every: 128,
            source_gap_ns: 1_000,
            leaf_link: Link {
                base_ns: 50_000,
                jitter_ns: 20_000,
            },
            agg_link: Link {
                base_ns: 100_000,
                jitter_ns: 40_000,
            },
            publish_every_ns: 1_000_000,
        }
    }
}

/// One scripted crash: the shard dies *consuming* its `at_arrival`-th
/// arrival (engine panic semantics) and is restored `restore_after_ns`
/// later in virtual time.
#[derive(Clone, Copy, Debug)]
struct CrashSite {
    shard: usize,
    at_arrival: u64,
    restore_after_ns: u64,
    fired: bool,
}

/// Deterministic fault script for one run.
#[derive(Clone, Debug, Default)]
pub struct SimFaults {
    crashes: Vec<CrashSite>,
    /// Extra one-way latency per leaf's links (stragglers).
    stragglers: Vec<(usize, u64)>,
}

impl SimFaults {
    /// No faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Crash `shard` while it consumes its `at_arrival`-th arrival;
    /// restore it `restore_after_ns` later. Fires once (on the first
    /// arrival ≥ the site, so a site inside a lost window still fires).
    pub fn crash_at(mut self, shard: usize, at_arrival: u64, restore_after_ns: u64) -> Self {
        self.crashes.push(CrashSite {
            shard,
            at_arrival,
            restore_after_ns,
            fired: false,
        });
        self
    }

    /// Adds `extra_ns` to every delivery to and from `shard` — a straggler
    /// whose reports arrive late (stale at the root) without any loss.
    pub fn straggler(mut self, shard: usize, extra_ns: u64) -> Self {
        self.stragglers.push((shard, extra_ns));
        self
    }
}

/// Per-publish statistics recorded at the root.
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    /// Virtual publish instant.
    pub at_ns: u64,
    /// Leaves whose reports were included.
    pub reporting: usize,
    /// Whether the publish extrapolated from a partial leaf set.
    pub degraded: bool,
    /// Oldest included report's age at publish time.
    pub staleness_max_ns: u64,
    /// Mean included report age at publish time.
    pub staleness_mean_ns: u64,
}

/// Everything a finished run pins down.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// Final per-leaf estimates, in shard order.
    pub leaves: Vec<TriadEstimates>,
    /// Flat `merged_colored` over [`Self::leaves`] (loss-widened when any
    /// arrivals were lost, exactly like the engine's degraded estimates).
    pub flat: TriadEstimates,
    /// Edges the source pushed.
    pub pushed: u64,
    /// Arrivals lost to crashes (post-checkpoint windows).
    pub lost_arrivals: u64,
    /// Completed shard restarts.
    pub restarts: u64,
    /// Root publishes, in virtual-time order.
    pub epochs: Vec<EpochStats>,
    /// Virtual instant the last event finished.
    pub finished_at_ns: u64,
    /// Full telemetry of the run: counters, the virtual-time staleness
    /// histogram, and the structured event ring. The sim is single-threaded
    /// over a virtual clock, so — unlike the threaded engine's — this
    /// snapshot is deterministic *in its entirety* (events included) and is
    /// folded into [`SimOutcome::fingerprint`].
    pub telemetry: TelemetrySnapshot,
    /// Per-publish provenance traces, one per entry of [`Self::epochs`],
    /// stamped in virtual time with the sim's own stage names
    /// (`sim_report_spread`: oldest → newest included report;
    /// `sim_publish_wait`: newest report → publish instant). A partial
    /// publish carries [`TraceCause::Partial`]. Deterministic like the
    /// telemetry, and folded into [`SimOutcome::fingerprint`].
    pub traces: Vec<EpochTrace>,
}

impl SimOutcome {
    /// Publishes that extrapolated from a partial leaf set.
    pub fn degraded_epochs(&self) -> usize {
        self.epochs.iter().filter(|e| e.degraded).count()
    }

    /// A bit-exact digest of the run: every f64 of the flat merge and of
    /// each leaf (as raw bits), plus the integer trajectory (pushed,
    /// losses, restarts, epoch count, finish time). Two runs with equal
    /// fingerprints produced identical estimates.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut fp = bits(&self.flat);
        for leaf in &self.leaves {
            fp.extend(bits(leaf));
        }
        fp.extend([
            self.pushed,
            self.lost_arrivals,
            self.restarts,
            self.epochs.len() as u64,
            self.finished_at_ns,
            // Digest of the full telemetry rendering — pins every counter,
            // histogram bucket, and ring event of the run.
            self.telemetry.fingerprint(),
        ]);
        // Every publish's full provenance trace (stage timings, skew,
        // cause, contributing mask), each as its own JSON digest.
        fp.extend(self.traces.iter().map(EpochTrace::fingerprint));
        fp
    }
}

fn bits(e: &TriadEstimates) -> Vec<u64> {
    vec![
        e.triangles.value.to_bits(),
        e.triangles.variance.to_bits(),
        e.wedges.value.to_bits(),
        e.wedges.variance.to_bits(),
        e.tri_wedge_cov.to_bits(),
    ]
}

/// Freshest root-side view of one leaf.
#[derive(Clone, Copy)]
struct Slot {
    arrivals: u64,
    generated_at_ns: u64,
}

enum Event {
    /// Source emits edge `i` of the stream.
    Emit(usize),
    /// A routed edge reaches its leaf.
    Deliver { shard: usize, edge: Edge },
    /// A leaf report reaches the relay.
    Report {
        report: ShardReport,
        generated_at_ns: u64,
    },
    /// The relay forwards a report to the root.
    Forward {
        report: ShardReport,
        generated_at_ns: u64,
    },
    /// Root publish tick.
    Publish,
    /// A crashed shard comes back.
    Restore { shard: usize },
}

/// Runs one simulated cluster over `edges` and returns the pinned
/// outcome. Pure function of its arguments — bit-reproducible.
pub fn run_cluster<W>(
    cfg: &SimConfig,
    faults: &SimFaults,
    weight_fn: W,
    edges: &[Edge],
) -> SimOutcome
where
    W: EdgeWeight + Clone + Send + 'static,
{
    assert!(cfg.shards > 0, "need at least one leaf");

    let partitioner = EdgePartitioner::new(cfg.seed, cfg.shards);
    let mut leaves: Vec<LeafNode<W>> = (0..cfg.shards)
        .map(|s| {
            LeafNode::new(
                s,
                ShardedGps::<W>::shard_capacity(cfg.capacity, cfg.shards, s).max(1),
                cfg.seed,
                cfg.checkpoint_every,
                cfg.epoch_every,
                weight_fn.clone(),
            )
        })
        .collect();
    // Decorrelated from the sampler seeds, same fold as the partitioner
    // uses for its mix — any constant works, it just must be fixed.
    let mut net_rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5EED_0F0F_CAFE_F00D);
    let mut faults = faults.clone();
    let mut sched: Scheduler<Event> = Scheduler::new();
    let mut slots: Vec<Option<Slot>> = vec![None; cfg.shards];
    let mut epochs: Vec<EpochStats> = Vec::new();
    let mut traces: Vec<EpochTrace> = Vec::new();
    let mut pushed = 0u64;
    // Single-threaded virtual-time run: every metric here is Stable by
    // construction (see `docs/observability.md`).
    let registry = Registry::new();
    let m_publishes = registry.counter("gps_sim_publishes_total", Stability::Stable);
    let m_degraded = registry.counter("gps_sim_degraded_publishes_total", Stability::Stable);
    let m_staleness = registry.histogram("gps_sim_report_staleness_ns", Stability::Stable);
    let mut was_degraded = false;
    // Non-Publish events in flight: publishes self-reschedule only while
    // work remains, so the heap drains when the run is over.
    let mut work_events = 0usize;

    let extra_ns = |shard: usize| -> u64 {
        faults
            .stragglers
            .iter()
            .filter(|(s, _)| *s == shard)
            .map(|(_, ns)| *ns)
            .sum()
    };

    if !edges.is_empty() {
        sched.schedule(0, Event::Emit(0));
        work_events += 1;
        sched.schedule(cfg.publish_every_ns, Event::Publish);
    }

    while let Some(event) = sched.pop() {
        match event {
            Event::Emit(i) => {
                work_events -= 1;
                let edge = edges[i];
                let shard = partitioner.shard_of(edge);
                pushed += 1;
                let delay = cfg
                    .leaf_link
                    .delay(&mut net_rng)
                    .saturating_add(extra_ns(shard));
                sched.schedule(delay, Event::Deliver { shard, edge });
                work_events += 1;
                if i + 1 < edges.len() {
                    sched.schedule(cfg.source_gap_ns, Event::Emit(i + 1));
                    work_events += 1;
                }
            }
            Event::Deliver { shard, edge } => {
                work_events -= 1;
                let leaf = &mut leaves[shard];
                // Fire a pending crash site on the first live arrival at or
                // past it (so sites that land in a lost window still fire).
                let live = !leaf.is_down();
                let arrivals = leaf.arrivals();
                let site = faults
                    .crashes
                    .iter_mut()
                    .find(|c| !c.fired && c.shard == shard && live && arrivals + 1 >= c.at_arrival);
                if let Some(site) = site {
                    site.fired = true;
                    let after = site.restore_after_ns;
                    leaf.crash_consuming();
                    sched.schedule(after, Event::Restore { shard });
                    work_events += 1;
                } else if let Some(report) = leaf.deliver(edge) {
                    let delay = cfg
                        .leaf_link
                        .delay(&mut net_rng)
                        .saturating_add(extra_ns(shard));
                    let generated_at_ns = sched.now();
                    sched.schedule(
                        delay,
                        Event::Report {
                            report,
                            generated_at_ns,
                        },
                    );
                    work_events += 1;
                }
            }
            Event::Report {
                report,
                generated_at_ns,
            } => {
                work_events -= 1;
                // The relay hop: forward after a second link delay.
                let delay = cfg.agg_link.delay(&mut net_rng);
                sched.schedule(
                    delay,
                    Event::Forward {
                        report,
                        generated_at_ns,
                    },
                );
                work_events += 1;
            }
            Event::Forward {
                report,
                generated_at_ns,
            } => {
                work_events -= 1;
                let slot = &mut slots[report.shard];
                // Jittered links reorder reports; keep only the freshest.
                if slot.is_none_or(|s| s.arrivals < report.arrivals) {
                    *slot = Some(Slot {
                        arrivals: report.arrivals,
                        generated_at_ns,
                    });
                }
            }
            Event::Publish => {
                let now = sched.now();
                let reporting: Vec<(usize, Slot)> = slots
                    .iter()
                    .enumerate()
                    .filter_map(|(l, s)| s.map(|s| (l, s)))
                    .collect();
                if !reporting.is_empty() {
                    let degraded = reporting.len() < cfg.shards;
                    let ages: Vec<u64> = reporting
                        .iter()
                        .map(|(_, s)| now - s.generated_at_ns)
                        .collect();
                    let max = ages.iter().copied().max().unwrap_or(0);
                    let mean = ages.iter().sum::<u64>() / ages.len() as u64;
                    m_publishes.incr();
                    for age in &ages {
                        m_staleness.record(*age);
                    }
                    if degraded {
                        m_degraded.incr();
                        if !was_degraded {
                            was_degraded = true;
                            registry.event(TelemetryEvent {
                                at: now,
                                kind: EventKind::DegradedEpoch,
                                shard: None,
                                epoch: Some(epochs.len() as u64 + 1),
                                detail: (cfg.shards - reporting.len()) as u64,
                            });
                        }
                    } else if was_degraded {
                        was_degraded = false;
                        registry.event(TelemetryEvent {
                            at: now,
                            kind: EventKind::EpochRecovered,
                            shard: None,
                            epoch: Some(epochs.len() as u64 + 1),
                            detail: 0,
                        });
                    }
                    // The publish's provenance trace, in virtual time.
                    // Distinct `sim_*` stage names keep the trace-name
                    // registry honest about which layer records what.
                    let oldest = reporting
                        .iter()
                        .map(|(_, s)| s.generated_at_ns)
                        .min()
                        .unwrap_or(now);
                    let newest = reporting
                        .iter()
                        .map(|(_, s)| s.generated_at_ns)
                        .max()
                        .unwrap_or(now);
                    let mut contributing = 0u64;
                    for (leaf, _) in &reporting {
                        contributing |= 1u64 << (*leaf).min(63);
                    }
                    let mut trace = EpochTrace::new(
                        epochs.len() as u64 + 1,
                        reporting.iter().map(|(_, s)| s.arrivals).sum(),
                        cfg.shards.min(u32::MAX as usize) as u32,
                        contributing,
                    );
                    trace.cause = if degraded {
                        TraceCause::Partial
                    } else {
                        TraceCause::Full
                    };
                    trace.report_skew_ns = newest - oldest;
                    trace.published_at_ns = now;
                    trace.stage("sim_report_spread", oldest, newest, reporting.len() as u64);
                    trace.stage("sim_publish_wait", newest, now, reporting.len() as u64);
                    traces.push(trace);
                    epochs.push(EpochStats {
                        at_ns: now,
                        reporting: reporting.len(),
                        degraded,
                        staleness_max_ns: max,
                        staleness_mean_ns: mean,
                    });
                }
                if work_events > 0 {
                    sched.schedule(cfg.publish_every_ns, Event::Publish);
                }
            }
            Event::Restore { shard } => {
                work_events -= 1;
                let generated_at_ns = sched.now();
                registry.event(TelemetryEvent {
                    at: generated_at_ns,
                    kind: EventKind::ShardRestart,
                    shard: Some(shard.min(u32::MAX as usize) as u32),
                    epoch: None,
                    detail: leaves[shard].lost(),
                });
                for report in leaves[shard].restore() {
                    let delay = cfg
                        .leaf_link
                        .delay(&mut net_rng)
                        .saturating_add(extra_ns(shard));
                    sched.schedule(
                        delay,
                        Event::Report {
                            report,
                            generated_at_ns,
                        },
                    );
                    work_events += 1;
                }
            }
        }
    }

    let finished_at_ns = sched.now();
    let lost_arrivals: u64 = leaves.iter().map(LeafNode::lost).sum();
    let restarts: u64 = leaves.iter().map(|l| u64::from(l.restarts())).sum();
    let finals: Vec<TriadEstimates> = leaves
        .iter()
        .map(|l| {
            l.estimates()
                .expect("every crash schedules a restore; leaves end live")
        })
        .collect();
    let flat = TriadEstimates::merged_colored(&finals);
    // Widen like the engine's degraded estimates do; skip when clean so
    // clean runs stay bit-identical to an unwidened merge.
    let flat = if lost_arrivals > 0 {
        flat.widened_for_loss(lost_arrivals as f64 / (pushed.max(1)) as f64)
    } else {
        flat
    };

    // End-of-run totals (monotone over the run, so recording them once at
    // the end is equivalent to incrementing live — and cheaper).
    registry
        .counter("gps_sim_pushed_total", Stability::Stable)
        .add(pushed);
    registry
        .counter("gps_sim_lost_arrivals_total", Stability::Stable)
        .add(lost_arrivals);
    registry
        .counter("gps_sim_restarts_total", Stability::Stable)
        .add(restarts);

    SimOutcome {
        leaves: finals,
        flat,
        pushed,
        lost_arrivals,
        restarts,
        epochs,
        finished_at_ns,
        telemetry: registry.snapshot(),
        traces,
    }
}
