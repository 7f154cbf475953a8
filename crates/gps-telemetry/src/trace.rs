//! Epoch provenance tracing: per-epoch stage timelines and the bounded
//! flight recorder that retains recent ones.
//!
//! An [`EpochTrace`] answers "*why* was this epoch slow, degraded, or
//! lossy" — it records the pipeline timeline of one published epoch as
//! named [`StageSpan`]s (arrival batch → shard report → gate wait →
//! merge → seqlock publish → first subscriber observation) plus
//! point-in-time [`TraceMark`]s (one per contributing shard report) and
//! a [`TraceCause`] code naming why publication happened at all.
//!
//! All timestamps are **caller-supplied** in the caller's own time base
//! (the serve layer stamps clock-hook nanoseconds, the simulator stamps
//! virtual nanoseconds); this module never reads a wall clock, which is
//! what makes traces bit-reproducible under a manual clock and in
//! discrete-event simulation.
//!
//! The [`FlightRecorder`] is the trace analogue of [`crate::EventRing`]:
//! a bounded mutex-guarded ring that drops (and counts) the **oldest**
//! trace when full, so consumers always know the window is incomplete
//! rather than silently seeing a gap.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default flight-recorder capacity. Large enough to cover the recent
/// epochs an operator asks about, small enough to bound memory at a few
/// hundred KiB even with per-shard marks.
pub const DEFAULT_TRACE_CAPACITY: usize = 64;

/// Why an epoch was published — the degraded/partial-merge cause code.
///
/// `as_str` names are stable identifiers used by the JSON exposition and
/// pinned by reproducibility suites.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceCause {
    /// Every live shard contributed; the merge was complete.
    Full,
    /// The publication gate timed out waiting for a laggard shard and a
    /// partial merge was published instead.
    GateExpired,
    /// Shutdown forced a final publish from whatever had reported.
    ForcedClose,
    /// A partial merge outside the gate path (the simulator's degraded
    /// publishes, where some leaves had no report in flight).
    Partial,
}

impl TraceCause {
    /// Stable identifier for exposition output.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceCause::Full => "full",
            TraceCause::GateExpired => "gate_expired",
            TraceCause::ForcedClose => "forced_close",
            TraceCause::Partial => "partial",
        }
    }
}

/// One named stage interval inside an epoch's pipeline timeline.
///
/// Stage names are `'static` literals registered at exactly one library
/// call site and documented in `docs/observability.md` (the
/// `gps-analyze` name-registry rule enforces both).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageSpan {
    /// Stage name from the documented catalog.
    pub stage: &'static str,
    /// Caller-supplied start timestamp (ns in the caller's time base).
    pub start_ns: u64,
    /// Caller-supplied end timestamp; `end_ns >= start_ns`.
    pub end_ns: u64,
    /// Stage-specific payload (arrivals in the batch, contributing-shard
    /// count, subscriber fan-out, zero when unused).
    pub detail: u64,
}

impl StageSpan {
    /// The span's duration (saturating, so a clock that never advances
    /// yields zero rather than wrapping).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One point-in-time annotation inside an epoch's timeline — e.g. the
/// instant a contributing shard's report landed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceMark {
    /// Mark name from the documented catalog.
    pub name: &'static str,
    /// Caller-supplied timestamp (ns in the caller's time base).
    pub at_ns: u64,
    /// Originating shard, when shard-scoped.
    pub shard: Option<u32>,
    /// Mark-specific payload (arrivals at report time, zero when unused).
    pub detail: u64,
}

/// The provenance record of one published epoch (stage catalog and
/// determinism classes: docs/observability.md).
#[derive(Clone, Debug, PartialEq)]
pub struct EpochTrace {
    /// Epoch version this trace describes.
    pub version: u64,
    /// Total edges routed when the epoch was published.
    pub edges_seen: u64,
    /// Configured shard count.
    pub shards: u32,
    /// Bitmask of contributing shards, bit `min(shard, 63)` (the serve
    /// layer's mask). From 65 shards on, shards 63 and up share bit 63,
    /// which any one of them sets (ROADMAP item C).
    pub contributing: u64,
    /// Why publication happened.
    pub cause: TraceCause,
    /// Newest-minus-oldest contributing report instant: how spread out
    /// the merged shard states were.
    pub report_skew_ns: u64,
    /// Instant the epoch became visible to readers (seqlock publish).
    pub published_at_ns: u64,
    /// Instant the first subscriber/reader observed it, once marked via
    /// [`FlightRecorder::mark_observed`].
    pub first_observed_ns: Option<u64>,
    /// Stage intervals, in pipeline order.
    pub spans: Vec<StageSpan>,
    /// Point annotations (per-shard report marks), in insertion order.
    pub marks: Vec<TraceMark>,
}

impl EpochTrace {
    /// A trace with the identity fields filled and an empty timeline.
    pub fn new(version: u64, edges_seen: u64, shards: u32, contributing: u64) -> Self {
        EpochTrace {
            version,
            edges_seen,
            shards,
            contributing,
            cause: TraceCause::Full,
            report_skew_ns: 0,
            published_at_ns: 0,
            first_observed_ns: None,
            spans: Vec::new(),
            marks: Vec::new(),
        }
    }

    /// Record one stage interval. `name` must be a documented catalog
    /// literal (see [`StageSpan`]); call sites are linted.
    pub fn stage(&mut self, name: &'static str, start_ns: u64, end_ns: u64, detail: u64) {
        self.spans.push(StageSpan {
            stage: name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            detail,
        });
    }

    /// Record one point annotation. `name` must be a documented catalog
    /// literal (see [`TraceMark`]); call sites are linted.
    pub fn mark(&mut self, name: &'static str, at_ns: u64, shard: Option<u32>, detail: u64) {
        self.marks.push(TraceMark {
            name,
            at_ns,
            shard,
            detail,
        });
    }

    /// Look up a stage span by name.
    pub fn span(&self, stage: &str) -> Option<&StageSpan> {
        self.spans.iter().find(|s| s.stage == stage)
    }

    /// A stage's duration, if it was recorded.
    pub fn stage_ns(&self, stage: &str) -> Option<u64> {
        self.span(stage).map(StageSpan::duration_ns)
    }

    /// True when the mask has fewer bits set than there are configured
    /// shards. Exact up to 64 shards. The mask holds at most 64 bits, so
    /// from 65 shards on this reads `true` for every epoch, full ones
    /// included. The serve layer's `EstimateEpoch::degraded` compares
    /// against `min(S, 64)` instead and reads `false` for a full one
    /// (ROADMAP item C).
    pub fn degraded(&self) -> bool {
        self.contributing.count_ones() < self.shards
    }

    /// Shard ids that did **not** contribute to this epoch, read from the
    /// mask: shard `s` is listed when bit `min(s, 63)` is clear. From 65
    /// shards on, shards 63 and up share bit 63, so a silent shard ≥ 63 is
    /// listed only when all of them are silent: the list can be empty
    /// while [`degraded`](Self::degraded) reads `true` (ROADMAP item C).
    pub fn missing_shards(&self) -> Vec<u32> {
        (0..self.shards)
            .filter(|&s| self.contributing & (1u64 << s.min(63)) == 0)
            .collect()
    }

    /// Minimal JSON rendering (hand-rolled; stage and cause names are
    /// bare identifiers so no string escaping is needed).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"version\":{},\"edges_seen\":{},\"shards\":{},\"contributing\":{},\
             \"cause\":\"{}\",\"degraded\":{},\"report_skew_ns\":{},\"published_at_ns\":{},\
             \"first_observed_ns\":{}",
            self.version,
            self.edges_seen,
            self.shards,
            self.contributing,
            self.cause.as_str(),
            self.degraded(),
            self.report_skew_ns,
            self.published_at_ns,
            match self.first_observed_ns {
                Some(ns) => ns.to_string(),
                None => "null".to_string(),
            }
        );
        out.push_str(",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"detail\":{}}}",
                s.stage, s.start_ns, s.end_ns, s.detail
            );
        }
        out.push_str("],\"marks\":[");
        for (i, m) in self.marks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"at_ns\":{},\"shard\":{},\"detail\":{}}}",
                m.name,
                m.at_ns,
                match m.shard {
                    Some(s) => s.to_string(),
                    None => "null".to_string(),
                },
                m.detail
            );
        }
        out.push_str("]}");
        out
    }

    /// FNV-1a hash of the JSON rendering — a 64-bit digest for folding a
    /// trace stream into reproducibility fingerprints.
    pub fn fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.to_json().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

/// Bounded ring of recent [`EpochTrace`]s with an explicit loss counter:
/// recording when full evicts the oldest trace and counts it, like the
/// event ring's lossy-counted retention contract.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    traces: Mutex<VecDeque<EpochTrace>>,
    lost: AtomicU64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` traces (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            traces: Mutex::new(VecDeque::with_capacity(capacity)),
            lost: AtomicU64::new(0),
        }
    }

    /// Maximum retained traces.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append a trace, dropping (and counting) the oldest if full.
    pub fn record(&self, trace: EpochTrace) {
        let mut guard = self.locked();
        if guard.len() == self.capacity {
            guard.pop_front();
            // ordering: Relaxed — single-word loss tally; readers take
            // the lock for trace contents anyway, mirroring `EventRing`.
            self.lost.fetch_add(1, Ordering::Relaxed);
        }
        guard.push_back(trace);
    }

    /// Traces dropped because the ring was full.
    pub fn lost(&self) -> u64 {
        // ordering: Relaxed — see `record`.
        self.lost.load(Ordering::Relaxed)
    }

    /// The retained trace for `version`, if it has not been evicted.
    pub fn trace(&self, version: u64) -> Option<EpochTrace> {
        self.locked().iter().find(|t| t.version == version).cloned()
    }

    /// The last `n` retained traces, oldest first.
    pub fn latest(&self, n: usize) -> Vec<EpochTrace> {
        let guard = self.locked();
        let skip = guard.len().saturating_sub(n);
        guard.iter().skip(skip).cloned().collect()
    }

    /// Copy out every retained trace (oldest first) and the loss count.
    pub fn snapshot(&self) -> (Vec<EpochTrace>, u64) {
        let guard = self.locked();
        let traces = guard.iter().cloned().collect();
        // ordering: Relaxed — see `record`; the lock already serialises
        // the snapshot against concurrent records.
        (traces, self.lost.load(Ordering::Relaxed))
    }

    /// Stamp the first observation of `version` at `at_ns`: records the
    /// final pipeline stage (publish instant → first reader) exactly
    /// once. Returns `true` if this call was the first observation of a
    /// retained trace.
    pub fn mark_observed(&self, version: u64, at_ns: u64) -> bool {
        let mut guard = self.locked();
        let Some(trace) = guard.iter_mut().rev().find(|t| t.version == version) else {
            return false;
        };
        if trace.first_observed_ns.is_some() {
            return false;
        }
        trace.first_observed_ns = Some(at_ns);
        let published = trace.published_at_ns;
        trace.stage("first_observation", published, at_ns, 0);
        true
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, VecDeque<EpochTrace>> {
        match self.traces.lock() {
            Ok(g) => g,
            // A panicking recorder client must not wedge tracing; traces
            // are plain owned data, so the poisoned state is usable.
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(version: u64) -> EpochTrace {
        let mut t = EpochTrace::new(version, version * 100, 2, 0b11);
        t.stage("demo_stage", 10, 25, 7);
        t.mark("demo_mark", 12, Some(1), 64);
        t.published_at_ns = 25;
        t
    }

    #[test]
    fn recorder_drops_oldest_and_counts_loss() {
        let rec = FlightRecorder::with_capacity(2);
        for v in 1..=5 {
            rec.record(trace(v));
        }
        let (traces, lost) = rec.snapshot();
        assert_eq!(lost, 3);
        assert_eq!(
            traces.iter().map(|t| t.version).collect::<Vec<_>>(),
            vec![4, 5]
        );
        assert!(rec.trace(3).is_none());
        assert_eq!(rec.trace(5).map(|t| t.edges_seen), Some(500));
        assert_eq!(
            rec.latest(1).iter().map(|t| t.version).collect::<Vec<_>>(),
            vec![5]
        );
    }

    #[test]
    fn mark_observed_is_first_wins_and_appends_the_final_stage() {
        let rec = FlightRecorder::with_capacity(4);
        rec.record(trace(1));
        assert!(rec.mark_observed(1, 40));
        assert!(!rec.mark_observed(1, 99), "second observation is a no-op");
        assert!(!rec.mark_observed(2, 40), "unknown version is a no-op");
        let t = rec.trace(1).unwrap();
        assert_eq!(t.first_observed_ns, Some(40));
        let obs = t.span("first_observation").unwrap();
        assert_eq!((obs.start_ns, obs.end_ns, obs.duration_ns()), (25, 40, 15));
    }

    #[test]
    fn degraded_traces_name_the_missing_shards() {
        let mut t = EpochTrace::new(7, 700, 4, 0b0101);
        t.cause = TraceCause::GateExpired;
        assert!(t.degraded());
        assert_eq!(t.missing_shards(), vec![1, 3]);
        assert_eq!(t.cause.as_str(), "gate_expired");
        let full = EpochTrace::new(8, 800, 2, 0b11);
        assert!(!full.degraded());
        assert!(full.missing_shards().is_empty());
    }

    #[test]
    fn json_shape_and_fingerprint_track_content() {
        let t = trace(3);
        let json = t.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"version\":3,\"edges_seen\":300,\"shards\":2,\"contributing\":3"));
        assert!(json.contains("\"cause\":\"full\",\"degraded\":false"));
        assert!(json.contains(
            "\"spans\":[{\"stage\":\"demo_stage\",\"start_ns\":10,\"end_ns\":25,\"detail\":7}]"
        ));
        assert!(json.contains(
            "\"marks\":[{\"name\":\"demo_mark\",\"at_ns\":12,\"shard\":1,\"detail\":64}]"
        ));
        assert!(json.contains("\"first_observed_ns\":null"));
        assert_eq!(t.fingerprint(), trace(3).fingerprint());
        assert_ne!(t.fingerprint(), trace(4).fingerprint());
    }

    #[test]
    fn spans_never_run_backwards() {
        let mut t = EpochTrace::new(1, 0, 1, 1);
        t.stage("demo_stage", 50, 20, 0);
        assert_eq!(t.spans[0].end_ns, 50);
        assert_eq!(t.stage_ns("demo_stage"), Some(0));
        assert_eq!(t.stage_ns("absent"), None);
    }
}
