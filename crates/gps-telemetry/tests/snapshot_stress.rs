//! Concurrent snapshot consistency stress: writer threads hammer a shared
//! histogram and counters while readers snapshot continuously. A torn
//! histogram read would break the algebraic invariants asserted below;
//! the seqlock protocol must never let one through.
//!
//! Scaled down under Miri (which executes a real, if slow, concurrent
//! interleaving search) the same way `gps-serve/tests/torn_read.rs` is.

use gps_telemetry::{Registry, Stability, TelemetrySnapshot, BUCKETS};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

/// (records per writer, writer threads, reader threads)
fn scale() -> (u64, usize, usize) {
    if cfg!(miri) {
        (40, 2, 1)
    } else {
        (20_000, 4, 2)
    }
}

/// Every writer `t` records only the value `1 << t`, which lands only in
/// bucket `t + 1`. Any consistent sample therefore satisfies
/// `sum == Σ_b buckets[b] · 2^(b-1)` exactly; a copy that straddles a
/// writer's critical section would violate it.
fn check_histogram_invariants(snap: &TelemetrySnapshot) {
    let h = snap
        .histogram_sample("gps_stress_values")
        .expect("histogram registered");
    let bucket_total: u64 = h.buckets.iter().sum();
    assert_eq!(bucket_total, h.count, "bucket occupancy must equal count");
    let weighted: u64 = (1..BUCKETS).map(|b| h.buckets[b] * (1u64 << (b - 1))).sum();
    assert_eq!(weighted, h.sum, "sum must match bucket-weighted total");
}

#[test]
fn snapshots_never_observe_torn_histograms() {
    let (records, writers, readers) = scale();
    let reg = Arc::new(Registry::new());
    // Register up front so readers always find the metrics.
    let hist = reg.histogram("gps_stress_values", Stability::Stable);
    let total = reg.counter("gps_stress_records_total", Stability::Stable);
    drop((hist, total));

    let done = Arc::new(AtomicBool::new(false));

    let writer_handles: Vec<_> = (0..writers)
        .map(|t| {
            let reg = Arc::clone(&reg);
            thread::spawn(move || {
                let h = reg.histogram("gps_stress_values", Stability::Stable);
                let c = reg.counter("gps_stress_records_total", Stability::Stable);
                for _ in 0..records {
                    h.record(1u64 << t);
                    c.incr();
                }
            })
        })
        .collect();

    let reader_handles: Vec<_> = (0..readers)
        .map(|_| {
            let reg = Arc::clone(&reg);
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let mut last_count = 0u64;
                let mut iters = 0u64;
                // ordering: Relaxed — plain stop flag; no data is
                // transferred through it. Each reader runs at least once:
                // on a busy core the writers can finish before a reader is
                // first scheduled.
                while iters == 0 || !done.load(Ordering::Relaxed) {
                    let snap = reg.snapshot();
                    check_histogram_invariants(&snap);
                    let count = snap.histogram_sample("gps_stress_values").unwrap().count;
                    assert!(count >= last_count, "histogram count must be monotone");
                    last_count = count;
                    iters += 1;
                }
                iters
            })
        })
        .collect();

    for h in writer_handles {
        h.join().unwrap();
    }
    // ordering: Relaxed — see the reader loop; joining writers already
    // happened-before this store via the join itself.
    done.store(true, Ordering::Relaxed);
    for h in reader_handles {
        assert!(h.join().unwrap() > 0, "readers must have snapshotted");
    }

    // Final totals are exact once all writers joined.
    let snap = reg.snapshot();
    check_histogram_invariants(&snap);
    let expected = records * writers as u64;
    assert_eq!(
        snap.counter_value("gps_stress_records_total"),
        Some(expected)
    );
    let h = snap.histogram_sample("gps_stress_values").unwrap();
    assert_eq!(h.count, expected);
    for t in 0..writers {
        assert_eq!(h.buckets[t + 1], records, "writer {t}'s bucket is exact");
    }
}

#[test]
fn event_ring_loss_counting_under_contention() {
    let (records, writers, _) = scale();
    let cap = 16usize;
    let reg = Arc::new(Registry::with_event_capacity(cap));
    let handles: Vec<_> = (0..writers)
        .map(|t| {
            let reg = Arc::clone(&reg);
            thread::spawn(move || {
                for i in 0..records {
                    reg.event(gps_telemetry::Event {
                        at: i,
                        kind: gps_telemetry::EventKind::CheckpointWrite,
                        shard: Some(t as u32),
                        epoch: None,
                        detail: i,
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = reg.snapshot();
    let pushed = records * writers as u64;
    assert_eq!(snap.events.len(), cap.min(pushed as usize));
    // Retained + lost accounts for every push exactly.
    assert_eq!(snap.events.len() as u64 + snap.events_lost, pushed);
}

#[test]
fn flight_recorder_under_concurrent_record_and_query() {
    let (records, writers, readers) = scale();
    let cap = 8usize;
    let rec = Arc::new(gps_telemetry::FlightRecorder::with_capacity(cap));
    let done = Arc::new(AtomicBool::new(false));

    // Writers append version-disjoint traces; observers race to stamp
    // first observations; readers continuously snapshot and check the
    // ring's accounting invariants.
    let writer_handles: Vec<_> = (0..writers)
        .map(|t| {
            let rec = Arc::clone(&rec);
            thread::spawn(move || {
                for i in 0..records {
                    let version = i * writers as u64 + t as u64 + 1;
                    let mut trace = gps_telemetry::EpochTrace::new(version, i, 1, 0b1);
                    trace.published_at_ns = version;
                    trace.stage("stress_stage", 0, version, 1);
                    rec.record(trace);
                    rec.mark_observed(version, version + 1);
                }
            })
        })
        .collect();

    let reader_handles: Vec<_> = (0..readers.max(1))
        .map(|_| {
            let rec = Arc::clone(&rec);
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let mut iters = 0u64;
                // ordering: Relaxed — plain stop flag; no data is
                // transferred through it. Each reader runs at least once:
                // on a busy core the writers can finish before a reader is
                // first scheduled.
                while iters == 0 || !done.load(Ordering::Relaxed) {
                    let (traces, _lost) = rec.snapshot();
                    assert!(traces.len() <= cap, "ring never exceeds capacity");
                    for t in &traces {
                        // An observed trace carries the stamp both in the
                        // field and as a closing span.
                        if let Some(at) = t.first_observed_ns {
                            assert_eq!(at, t.version + 1);
                            assert_eq!(t.stage_ns("first_observation"), Some(1));
                        }
                        let _ = rec.trace(t.version);
                        let _ = t.to_json();
                    }
                    let _ = rec.latest(3);
                    iters += 1;
                }
                iters
            })
        })
        .collect();

    for h in writer_handles {
        h.join().unwrap();
    }
    // ordering: Relaxed — see the reader loop; writer joins already
    // happened-before this store.
    done.store(true, Ordering::Relaxed);
    for h in reader_handles {
        assert!(h.join().unwrap() > 0, "readers must have snapshotted");
    }

    // Exact accounting once quiescent: retained + lost == recorded.
    let (traces, lost) = rec.snapshot();
    let pushed = records * writers as u64;
    assert_eq!(traces.len() as u64 + lost, pushed);
    assert_eq!(traces.len(), cap.min(pushed as usize));
    // Every retained trace was observed exactly once, by its writer.
    for t in &traces {
        assert_eq!(t.first_observed_ns, Some(t.version + 1));
    }
    // A second observation of a retained version is a no-op.
    let newest = traces.last().expect("non-empty ring").version;
    assert!(!rec.mark_observed(newest, 12345));
}
