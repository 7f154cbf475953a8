//! Snapshot/restore of a serving engine **while a live `QueryHandle` is
//! attached**: epoch versions stay strictly monotone across the restore,
//! the watermark never regresses, and estimates continue from the restored
//! samples instead of restarting at zero.

use gps_core::weights::TriangleWeight;
use gps_engine::snapshot::load_engine;
use gps_graph::types::Edge;
use gps_serve::{EstimateEpoch, ServeEngine};

fn triangle_stream(lo: u32, hi: u32) -> Vec<Edge> {
    let mut edges = vec![];
    for base in lo..hi {
        edges.push(Edge::new(base, base + 1));
        edges.push(Edge::new(base, base + 2));
        edges.push(Edge::new(base + 1, base + 2));
    }
    edges
}

#[test]
fn epochs_stay_monotone_across_save_and_restore() {
    // Capacity comfortably above the stream: every shard retains its whole
    // substream, so the restored post-stream seeding and the post-restore
    // completions are deterministic (nonzero for any partition) and the
    // "estimates build on the saved state" assertion cannot flake.
    let mut serve = ServeEngine::new(600, TriangleWeight::default(), 17, 3);
    let handle = serve.handle();
    let sub = handle.subscribe().expect("live engine");
    let phase1 = triangle_stream(0, 60);
    serve.push_stream(phase1.iter().copied());

    // Save: finishes the engine, publishes the final epoch, ends the
    // subscription.
    let mut buf = Vec::new();
    serve.save(&mut buf).unwrap();
    let epochs1: Vec<EstimateEpoch> = sub.collect();
    assert!(!epochs1.is_empty());
    assert!(handle.is_closed());
    let at_save = handle.latest().unwrap();
    assert_eq!(at_save.edges_seen, phase1.len() as u64);
    let tri_at_save = at_save.estimates.triangles.value;
    assert!(tri_at_save > 0.0);

    // Restore onto the SAME handle's board: versions continue, the
    // watermark picks up where the snapshot left off (the workers' initial
    // reports carry the restored positions), and a fresh subscription
    // starts delivering again.
    let saved = load_engine(buf.as_slice()).unwrap();
    let mut resumed = ServeEngine::resume(
        saved,
        TriangleWeight::default(),
        gps_engine::DEFAULT_EPOCH_EVERY,
        &handle,
    );
    assert!(!handle.is_closed());
    let sub2 = handle.subscribe().expect("board reopened");
    let phase2 = triangle_stream(60, 120);
    resumed.push_stream(phase2.iter().copied());
    resumed.finish();
    let epochs2: Vec<EstimateEpoch> = sub2.collect();
    assert!(!epochs2.is_empty());

    // Version monotonicity over the concatenated epoch history: strictly
    // increasing within each subscription, and non-decreasing at the
    // save/resume boundary (the fresh subscription is primed with the
    // final pre-save epoch, which may restate its version once).
    for epochs in [&epochs1, &epochs2] {
        assert!(
            epochs.windows(2).all(|w| w[0].version < w[1].version),
            "epoch versions must be strictly increasing within a subscription"
        );
    }
    let all: Vec<&EstimateEpoch> = epochs1.iter().chain(&epochs2).collect();
    assert!(
        all.windows(2).all(|w| w[0].version <= w[1].version),
        "epoch versions must never regress across the restore"
    );
    // The watermark never regresses across the restore either: the first
    // resumed epoch already reflects the saved stream position.
    assert!(all.windows(2).all(|w| w[0].edges_seen <= w[1].edges_seen));
    let final_epoch = handle.latest().unwrap();
    assert_eq!(
        final_epoch.edges_seen,
        (phase1.len() + phase2.len()) as u64,
        "restored watermark must count the pre-save arrivals"
    );
    // Estimates continued from the restored samples (seeded accumulators),
    // not from zero: the final count reflects both phases.
    assert!(
        final_epoch.estimates.triangles.value > tri_at_save,
        "post-restore estimates must build on the saved state: {} vs {}",
        final_epoch.estimates.triangles.value,
        tri_at_save
    );
}

#[test]
fn resume_requires_a_finished_predecessor() {
    let serve = ServeEngine::new(16, TriangleWeight::default(), 1, 2);
    let handle = serve.handle();
    // Build an unrelated snapshot to feed resume.
    let mut donor = ServeEngine::new(16, TriangleWeight::default(), 1, 2);
    donor.push_stream(triangle_stream(0, 10));
    let mut buf = Vec::new();
    donor.save(&mut buf).unwrap();
    let saved = load_engine(buf.as_slice()).unwrap();
    let result = std::panic::catch_unwind(move || {
        ServeEngine::resume(
            saved,
            TriangleWeight::default(),
            gps_engine::DEFAULT_EPOCH_EVERY,
            &handle,
        )
    });
    assert!(result.is_err(), "resume onto a live board must panic");
}

#[test]
fn waiters_on_the_resumed_generation_see_the_combined_watermark() {
    // A reader blocks on a watermark only the *combined* pre-save +
    // post-restore stream reaches: the handle is one continuous query
    // surface across engine generations, so the wait completes once the
    // resumed engine pushes past the target.
    let mut serve = ServeEngine::new(30, TriangleWeight::default(), 3, 2);
    let handle = serve.handle();
    let phase1 = triangle_stream(0, 40);
    let phase2 = triangle_stream(40, 80);
    let target = (phase1.len() + phase2.len()) as u64;
    serve.push_stream(phase1.iter().copied());
    let mut buf = Vec::new();
    serve.save(&mut buf).unwrap();
    // A closed board answers satisfied watermarks from the final epoch and
    // declines unreachable ones instead of hanging.
    assert!(handle.wait_for_edges(1).is_some());
    assert!(handle.wait_for_edges(target).is_none());

    let saved = load_engine(buf.as_slice()).unwrap();
    let mut resumed = ServeEngine::resume(
        saved,
        TriangleWeight::default(),
        gps_engine::DEFAULT_EPOCH_EVERY,
        &handle,
    );
    let waiter = {
        let handle = handle.clone();
        std::thread::spawn(move || handle.wait_for_edges(target))
    };
    resumed.push_stream(phase2.iter().copied());
    resumed.finish();
    let epoch = waiter
        .join()
        .unwrap()
        .expect("restored stream reaches target");
    assert!(epoch.edges_seen >= target);
}
