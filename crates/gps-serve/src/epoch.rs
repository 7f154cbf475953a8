//! Immutable estimate epochs and the lock-free publication cell.
//!
//! An [`EstimateEpoch`] is a self-contained, monotonically-versioned
//! snapshot of the engine's merged estimates: once published it never
//! changes, a later epoch supersedes it wholesale. Publication goes through
//! an [`EpochCell`] — a seqlock over plain atomic words — so readers load
//! the latest epoch without taking any lock: a read never blocks the
//! publisher (an engine worker thread), and the publisher never blocks
//! readers. Readers retry only if a publication raced their copy, which a
//! version-counter check detects; with publications every few thousand
//! arrivals and copies of ~8 words, retries are vanishingly rare.

use gps_core::{Estimate, TriadEstimates};
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// One immutable, versioned snapshot of the live merged estimates.
///
/// `estimates` carries the full [`TriadEstimates`] bundle — triangle and
/// wedge counts with **honest variances** (strata-sum conditional variance
/// plus the between-shard coloring term for `S > 1`; see
/// [`TriadEstimates::merged_colored`]) and the derived clustering
/// coefficient — so `epoch.estimates.triangles.ci95()` is a valid interval
/// without further processing.
#[derive(Clone, Copy, Debug)]
pub struct EstimateEpoch {
    /// Publication sequence number; strictly increasing over the lifetime
    /// of a [`QueryHandle`]'s board, including across engine
    /// snapshot/restore cycles.
    ///
    /// [`QueryHandle`]: crate::QueryHandle
    pub version: u64,
    /// Stream watermark: total arrivals the merged estimates reflect
    /// (sum of per-shard substream positions at merge time; shards report
    /// at batch boundaries, so this trails the producer by at most the
    /// in-flight batches plus the epoch cadence).
    pub edges_seen: u64,
    /// Shard count `S` of the producing engine.
    pub shards: u64,
    /// Bitmask of the shards whose reports this epoch merges (bit `i` set
    /// ⇔ shard `i` contributed; shards beyond index 63 are not
    /// individually tracked — the engine's worker-thread counts are far
    /// below that). A **full** epoch has every shard's bit set; a
    /// **degraded** one (published past the gate deadline while some shard
    /// was stalled or recovering) merges only the reporting shards, with
    /// the missing strata's loss reflected in the widened variances of
    /// [`TriadEstimates::merged_colored_partial`].
    pub contributing: u64,
    /// Total arrivals the producing engine has lost to crash-recovery
    /// rollbacks or written-off stragglers at publication time (the
    /// engine's `EngineHealth::lost_arrivals` ledger, stamped here so a
    /// degraded epoch is self-describing: readers see the loss without
    /// reaching into the engine). `0` on a healthy run.
    pub lost_arrivals: u64,
    /// Merged triangle / wedge / clustering estimates with variances.
    pub estimates: TriadEstimates,
}

impl EstimateEpoch {
    /// How many shards contributed reports to this epoch.
    pub fn contributing_count(&self) -> u32 {
        self.contributing.count_ones()
    }

    /// True when some shard did **not** contribute: the epoch was published
    /// past the gate deadline from the reporting shards only. Watermark and
    /// estimates cover the reporting substreams; the variances already
    /// carry the partial-merge widening, so intervals stay honest.
    pub fn degraded(&self) -> bool {
        u64::from(self.contributing_count()) != self.shards.min(64)
    }
}

/// Words of the seqlock payload: version, edges_seen, shards, the
/// contributing-shard mask, the lost-arrivals stamp, and the five
/// independent floats of a `TriadEstimates` (clustering is re-derived).
const WORDS: usize = 10;

impl EstimateEpoch {
    fn encode(&self) -> [u64; WORDS] {
        [
            self.version,
            self.edges_seen,
            self.shards,
            self.contributing,
            self.lost_arrivals,
            self.estimates.triangles.value.to_bits(),
            self.estimates.triangles.variance.to_bits(),
            self.estimates.wedges.value.to_bits(),
            self.estimates.wedges.variance.to_bits(),
            self.estimates.tri_wedge_cov.to_bits(),
        ]
    }

    fn decode(words: [u64; WORDS]) -> Self {
        EstimateEpoch {
            version: words[0],
            edges_seen: words[1],
            shards: words[2],
            contributing: words[3],
            lost_arrivals: words[4],
            estimates: TriadEstimates::from_parts(
                Estimate {
                    value: f64::from_bits(words[5]),
                    variance: f64::from_bits(words[6]),
                },
                Estimate {
                    value: f64::from_bits(words[7]),
                    variance: f64::from_bits(words[8]),
                },
                f64::from_bits(words[9]),
            ),
        }
    }
}

/// Seqlock-published epoch slot: one writer at a time (the publisher runs
/// under the board mutex), any number of lock-free readers.
///
/// Memory-ordering protocol (the standard seqlock recipe): the writer bumps
/// the sequence to odd, release-fences, stores the payload relaxed, then
/// release-stores the even sequence; a reader acquire-loads the sequence,
/// copies the payload relaxed, acquire-fences, and re-checks the sequence —
/// an unchanged even value proves the copy is a consistent published epoch.
/// Every payload word is an `AtomicU64`, so torn copies are impossible at
/// the word level and detected at the epoch level.
pub(crate) struct EpochCell {
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl EpochCell {
    /// An empty cell (no epoch published yet).
    pub(crate) fn new() -> Self {
        EpochCell {
            seq: AtomicU64::new(0),
            words: [const { AtomicU64::new(0) }; WORDS],
        }
    }

    /// Publishes `epoch`, superseding any previous one. Caller must
    /// guarantee writer exclusivity (the board publishes under its mutex).
    pub(crate) fn publish(&self, epoch: &EstimateEpoch) {
        // ordering: Relaxed — single-writer (board mutex): only this thread
        // ever stores seq, so it reads its own last store; no edge needed.
        let s = self.seq.load(Ordering::Relaxed);
        debug_assert!(s.is_multiple_of(2), "concurrent publisher");
        // ordering: Relaxed — going odd need not be ordered before the
        // payload stores: readers that see odd retry, and readers that miss
        // it are caught by the recheck after the payload copy.
        self.seq.store(s + 1, Ordering::Relaxed);
        // ordering: Release fence — orders the odd store before every
        // payload store: a reader's recheck (Acquire fence + relaxed seq
        // load) that sees even therefore saw no mid-write payload.
        fence(Ordering::Release);
        for (slot, word) in self.words.iter().zip(epoch.encode()) {
            // ordering: Relaxed — ordered collectively by the fences and
            // the final Release store, not individually.
            slot.store(word, Ordering::Relaxed);
        }
        // ordering: Release — pairs with the reader's Acquire first load:
        // a reader that observes s+2 also observes every payload store
        // sequenced before this (the happens-before edge of the seqlock).
        self.seq.store(s + 2, Ordering::Release);
    }

    /// Latest published epoch, or `None` before the first publication.
    /// Lock-free: retries only while racing a concurrent publication.
    pub(crate) fn load(&self) -> Option<EstimateEpoch> {
        loop {
            // ordering: Acquire — pairs with the writer's final Release
            // store: seeing seq == s1 (even) makes the matching payload
            // stores visible to the relaxed copy below.
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 == 0 {
                return None;
            }
            if !s1.is_multiple_of(2) {
                std::hint::spin_loop();
                continue;
            }
            let mut words = [0u64; WORDS];
            for (out, slot) in words.iter_mut().zip(&self.words) {
                // ordering: Relaxed — bracketed by the Acquire load above
                // and the Acquire fence below; torn values are discarded
                // by the recheck.
                *out = slot.load(Ordering::Relaxed);
            }
            // ordering: Acquire fence — orders the payload copy before the
            // seq recheck; pairs with the writer's Release fence so a
            // recheck that still reads s1 proves no writer went odd
            // during the copy.
            fence(Ordering::Acquire);
            // ordering: Relaxed — the fence above provides the edge; the
            // recheck itself only needs the value.
            if self.seq.load(Ordering::Relaxed) == s1 {
                return Some(EstimateEpoch::decode(words));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch(version: u64, edges: u64, tri: f64) -> EstimateEpoch {
        EstimateEpoch {
            version,
            edges_seen: edges,
            shards: 4,
            contributing: 0b1011,
            lost_arrivals: edges / 10,
            estimates: TriadEstimates::from_parts(
                Estimate {
                    value: tri,
                    variance: tri / 2.0,
                },
                Estimate {
                    value: 3.0 * tri,
                    variance: 1.0,
                },
                0.25,
            ),
        }
    }

    #[test]
    fn empty_cell_loads_none() {
        assert!(EpochCell::new().load().is_none());
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let cell = EpochCell::new();
        cell.publish(&epoch(7, 1234, 56.5));
        let got = cell.load().unwrap();
        assert_eq!(got.version, 7);
        assert_eq!(got.edges_seen, 1234);
        assert_eq!(got.shards, 4);
        assert_eq!(got.contributing, 0b1011);
        assert_eq!(got.contributing_count(), 3);
        assert_eq!(got.lost_arrivals, 123);
        assert!(got.degraded(), "3 of 4 shards contributing is degraded");
        assert_eq!(got.estimates.triangles.value.to_bits(), 56.5f64.to_bits());
        assert_eq!(
            got.estimates.triangles.variance.to_bits(),
            28.25f64.to_bits()
        );
        assert_eq!(got.estimates.tri_wedge_cov.to_bits(), 0.25f64.to_bits());
        // Clustering is re-derived consistently from the stored parts.
        let expect = TriadEstimates::from_parts(
            got.estimates.triangles,
            got.estimates.wedges,
            got.estimates.tri_wedge_cov,
        );
        assert_eq!(
            got.estimates.clustering.value.to_bits(),
            expect.clustering.value.to_bits()
        );
    }

    #[test]
    fn later_publication_supersedes() {
        let cell = EpochCell::new();
        cell.publish(&epoch(1, 10, 1.0));
        cell.publish(&epoch(2, 20, 2.0));
        let got = cell.load().unwrap();
        assert_eq!(got.version, 2);
        assert_eq!(got.edges_seen, 20);
    }

    #[test]
    fn concurrent_readers_always_see_consistent_epochs() {
        // Hammer the cell from reader threads while a writer publishes
        // epochs whose fields are linked (edges = 10·version, tri =
        // version as f64): any torn read would break the linkage.
        let cell = std::sync::Arc::new(EpochCell::new());
        let stop = std::sync::Arc::new(AtomicU64::new(0));
        let mut readers = vec![];
        for _ in 0..4 {
            let cell = cell.clone();
            let stop = stop.clone();
            readers.push(std::thread::spawn(move || {
                let mut last = 0u64;
                let mut seen = 0u64;
                // ordering: Relaxed — stop flag only ends the loop; no
                // data is published through it. Each reader keeps going
                // until it has seen one epoch: on a busy core the writer
                // can publish its last epoch before a reader is first
                // scheduled, and that epoch stays loadable.
                while seen == 0 || stop.load(Ordering::Relaxed) == 0 {
                    if let Some(e) = cell.load() {
                        assert_eq!(e.edges_seen, 10 * e.version, "torn epoch");
                        assert_eq!(e.estimates.triangles.value, e.version as f64);
                        assert!(e.version >= last, "version went backwards");
                        last = e.version;
                        seen += 1;
                    }
                }
                seen
            }));
        }
        // Miri explores this test's interleavings orders of magnitude more
        // slowly than native execution; scale the publication count down so
        // `cargo miri test` stays tractable while still crossing epochs.
        let rounds: u64 = if cfg!(miri) { 200 } else { 20_000 };
        for v in 1..=rounds {
            cell.publish(&epoch(v, 10 * v, v as f64));
        }
        // ordering: Relaxed — only signals loop exit; readers synchronize
        // with publications via the cell's seqlock, not this flag.
        stop.store(1, Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(total > 0, "readers observed no epochs");
        assert_eq!(cell.load().unwrap().version, rounds);
    }
}
