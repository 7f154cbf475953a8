//! The per-shard runner: what one shard executes per edge, with no
//! threading attached.
//!
//! [`ShardRunner`] is the exact logic a [`ShardedGps`](crate::ShardedGps)
//! worker thread drives — a bare [`GpsSampler`] (`GPSUpdate` only) or an
//! [`InStreamEstimator`] (paper Algorithm 3 per shard) plus the engine's
//! checkpoint and epoch-report plumbing — factored out of the worker loop
//! so a host that is *not* a thread can drive it too. The discrete-event
//! simulator in `gps-sim` builds S ≫ cores shard-nodes on this type: every
//! edge processed, checkpoint serialized, and restart seed derived in the
//! sim goes through the same code the production engine runs, which is
//! what makes the sim a test harness over production logic rather than a
//! model of it.
//!
//! The contract worth spelling out:
//!
//! - [`ShardRunner::checkpoint_bytes`] is the engine's recovery checkpoint
//!   format verbatim: a `gps_core::persist` `gps-sample v1` section for a
//!   plain shard, `v2` (sampler + in-stream accumulators, restoring
//!   *exactly*) for an estimating one.
//! - [`ShardRunner::from_checkpoint`] is the engine's restart path
//!   verbatim, including the corrupt-checkpoint fallback to a from-scratch
//!   shard and the deterministic restart RNG stream
//!   ([`restart_seed`]).

use crate::engine::{EpochHook, ShardReport};
use crate::partition::{shard_seed, splitmix64};
use gps_core::persist;
use gps_core::weights::EdgeWeight;
use gps_core::{GpsSampler, InStreamEstimator, InStreamTotals, TriadEstimates};
use gps_graph::types::Edge;
use gps_graph::BackendKind;

/// The deterministic RNG seed a shard restarts with after its
/// `restarts`-th recovery: the restart ordinal folded into the shard's
/// base seed, so every restart draws a fresh — but reproducible — RNG
/// stream (`restarts == 0` is *not* the original stream; the original
/// shard seed is `shard_seed(engine_seed, shard)` unmixed).
pub fn restart_seed(engine_seed: u64, shard: usize, restarts: u32) -> u64 {
    splitmix64(shard_seed(engine_seed, shard) ^ u64::from(restarts))
}

/// What each shard runs per edge: a bare sampler (`GPSUpdate` only) or an
/// in-stream estimator (snapshot estimation inside the engine, paper Alg 3
/// per shard) with an optional report hook. See the [module docs](self).
pub struct ShardRunner<W> {
    inner: Inner<W>,
}

enum Inner<W> {
    Plain(GpsSampler<W>),
    Live {
        shard: usize,
        est: InStreamEstimator<W>,
        hook: Option<EpochHook>,
        every: u64,
        next: u64,
        /// Arrival watermark of the previous report, for per-report batch
        /// attribution in `ShardReport::batch_arrivals`.
        last_report: u64,
    },
}

impl<W: EdgeWeight> ShardRunner<W> {
    /// A plain (post-stream-estimation-only) runner over `sampler`.
    pub fn plain(sampler: GpsSampler<W>) -> Self {
        ShardRunner {
            inner: Inner::Plain(sampler),
        }
    }

    /// An in-stream estimating runner for `shard`: wraps `sampler` in an
    /// [`InStreamEstimator`] — resumed *exactly* with `totals` when given
    /// (the sampler's records carry the per-edge accumulators), seeded
    /// from the sampler's post-stream estimate otherwise — and
    /// fires `hook` every `every` per-shard arrivals (report positions are
    /// anchored at the sampler's current arrival watermark, so a resumed
    /// shard keeps its cadence instead of restarting it).
    pub fn estimating(
        shard: usize,
        sampler: GpsSampler<W>,
        totals: Option<InStreamTotals>,
        hook: Option<EpochHook>,
        every: u64,
    ) -> Self {
        let start = sampler.arrivals();
        let next = start + every;
        let est = match totals {
            Some(totals) => InStreamEstimator::resume(sampler, totals),
            None => InStreamEstimator::from_sampler(sampler),
        };
        ShardRunner {
            inner: Inner::Live {
                shard,
                est,
                hook,
                every,
                next,
                last_report: start,
            },
        }
    }

    /// Rebuilds a runner for `shard` from recovery-checkpoint `bytes` (as
    /// written by [`ShardRunner::checkpoint_bytes`]). Returns the runner,
    /// the arrival watermark it restarts from, and whether the checkpoint
    /// was corrupt — in which case the shard restarts from scratch with
    /// budget `scratch_capacity` at watermark 0, exactly like the engine's
    /// supervisor. `estimating` selects the runner kind (a v2 section's
    /// in-stream totals are dropped for a plain runner); `every` is the
    /// report cadence for estimating runners.
    ///
    /// A checkpoint is corrupt whenever `persist::load` rejects it, which
    /// covers sections that parse but describe no valid sampler (more
    /// records than capacity, a duplicated edge): those take the same
    /// from-scratch path instead of panicking in the restore.
    ///
    /// `_backend` is ignored: [`BackendKind`] has the single variant
    /// [`BackendKind::Compact`]. The parameter stays only so the benchmark
    /// package's call keeps compiling; it goes once that call drops it.
    #[allow(clippy::too_many_arguments)]
    pub fn from_checkpoint(
        shard: usize,
        bytes: &[u8],
        weight_fn: W,
        seed: u64,
        _backend: BackendKind,
        scratch_capacity: usize,
        estimating: bool,
        hook: Option<EpochHook>,
        every: u64,
    ) -> (Self, u64, bool) {
        let build = |sampler: GpsSampler<W>, totals: Option<InStreamTotals>| {
            if estimating {
                Self::estimating(shard, sampler, totals, hook, every)
            } else {
                Self::plain(sampler)
            }
        };
        match persist::load(bytes) {
            Ok(saved) => {
                let (arrivals, totals) = (saved.arrivals, saved.totals);
                let sampler = saved.into_sampler(weight_fn, seed);
                (build(sampler, totals), arrivals, false)
            }
            Err(_) => {
                let sampler = GpsSampler::new(scratch_capacity, weight_fn, seed);
                (build(sampler, None), 0, true)
            }
        }
    }

    /// Feeds one stream arrival through the shard (sampler `GPSUpdate`, or
    /// snapshot-estimation update then `GPSUpdate` in estimating mode).
    #[inline]
    pub fn process(&mut self, edge: Edge) {
        match &mut self.inner {
            Inner::Plain(sampler) => {
                sampler.process(edge);
            }
            Inner::Live { est, .. } => {
                est.process(edge);
            }
        }
    }

    /// Arrivals this shard has consumed (its substream position).
    pub fn arrivals(&self) -> u64 {
        self.sampler().arrivals()
    }

    /// The underlying sampler (read-only).
    pub fn sampler(&self) -> &GpsSampler<W> {
        match &self.inner {
            Inner::Plain(sampler) => sampler,
            Inner::Live { est, .. } => est.sampler(),
        }
    }

    /// Current in-stream (snapshot) estimates of this shard's own
    /// monochromatic subgraph counts; `None` for a plain runner.
    pub fn estimates(&self) -> Option<TriadEstimates> {
        match &self.inner {
            Inner::Plain(_) => None,
            Inner::Live { est, .. } => Some(est.estimates()),
        }
    }

    /// Serializes the runner's full recovery state: a `gps-sample v1`
    /// section for a plain shard, a `v2` section (sampler + in-stream
    /// accumulators, restoring exactly) for an estimating one.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        let res = match &self.inner {
            Inner::Plain(sampler) => persist::save(sampler, &mut bytes),
            Inner::Live { est, .. } => {
                persist::save_with_totals(est.sampler(), &est.totals(), &mut bytes)
            }
        };
        // Writing into a Vec cannot fail; if it somehow does, the empty
        // slot restores through the corrupt-checkpoint path (restart from
        // scratch, loss accounted) instead of panicking the worker.
        if res.is_err() {
            bytes.clear();
        }
        bytes
    }

    /// Fires the hook unconditionally with the shard's current state —
    /// once at worker start, so the board sees every shard's position
    /// before any new stream is consumed (on the restore path this is the
    /// restored watermark, keeping resumed epochs from regressing).
    pub fn report_now(&self) {
        if let Inner::Live {
            shard,
            est,
            hook: Some(hook),
            ..
        } = &self.inner
        {
            hook(ShardReport {
                shard: *shard,
                arrivals: est.sampler().arrivals(),
                batch_arrivals: 0,
                estimates: est.estimates(),
            });
        }
    }

    /// Reports if this shard crossed its next reporting position (called
    /// between batches, so reports align with batch boundaries): the
    /// report goes to the hook, if any, and is returned. `None` for a plain
    /// runner or between reporting positions.
    pub fn maybe_report(&mut self) -> Option<ShardReport> {
        let Inner::Live {
            shard,
            est,
            hook,
            every,
            next,
            last_report,
        } = &mut self.inner
        else {
            return None;
        };
        let arrivals = est.sampler().arrivals();
        if arrivals < *next {
            return None;
        }
        while *next <= arrivals {
            *next += *every;
        }
        let report = ShardReport {
            shard: *shard,
            arrivals,
            batch_arrivals: arrivals - *last_report,
            estimates: est.estimates(),
        };
        *last_report = arrivals;
        if let Some(hook) = hook {
            hook(report);
        }
        Some(report)
    }

    /// Final report + teardown at drain end: the sampler, and the in-stream
    /// totals of an estimating runner (its estimates are
    /// [`InStreamTotals::estimates`]).
    pub fn into_parts(self) -> (GpsSampler<W>, Option<InStreamTotals>) {
        match self.inner {
            Inner::Plain(sampler) => (sampler, None),
            Inner::Live {
                shard,
                est,
                hook,
                last_report,
                ..
            } => {
                if let Some(hook) = hook {
                    let arrivals = est.sampler().arrivals();
                    hook(ShardReport {
                        shard,
                        arrivals,
                        batch_arrivals: arrivals - last_report,
                        estimates: est.estimates(),
                    });
                }
                let (sampler, totals) = est.into_parts();
                (sampler, Some(totals))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_core::weights::TriangleWeight;

    fn stream(n: u32) -> impl Iterator<Item = Edge> {
        (0..n).flat_map(|b| {
            [
                Edge::new(b, b + 1),
                Edge::new(b, b + 2),
                Edge::new(b + 1, b + 2),
            ]
        })
    }

    #[test]
    fn checkpoint_round_trip_resumes_estimates_exactly() {
        let sampler = GpsSampler::new(32, TriangleWeight::default(), 7);
        let mut runner = ShardRunner::estimating(0, sampler, None, None, 1 << 30);
        for e in stream(60) {
            runner.process(e);
        }
        let bytes = runner.checkpoint_bytes();
        let before = runner.estimates().expect("estimating runner");
        let (restored, watermark, corrupt) = ShardRunner::from_checkpoint(
            0,
            &bytes,
            TriangleWeight::default(),
            restart_seed(7, 0, 1),
            BackendKind::Compact,
            32,
            true,
            None,
            1 << 30,
        );
        assert!(!corrupt);
        assert_eq!(watermark, runner.arrivals());
        let after = restored.estimates().expect("estimating runner");
        assert_eq!(
            before.triangles.value.to_bits(),
            after.triangles.value.to_bits()
        );
        assert_eq!(
            before.triangles.variance.to_bits(),
            after.triangles.variance.to_bits()
        );
        assert_eq!(before.wedges.value.to_bits(), after.wedges.value.to_bits());
        assert_eq!(
            before.tri_wedge_cov.to_bits(),
            after.tri_wedge_cov.to_bits()
        );
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_scratch() {
        let (runner, watermark, corrupt) = ShardRunner::from_checkpoint(
            3,
            b"not a checkpoint",
            TriangleWeight::default(),
            restart_seed(7, 3, 1),
            BackendKind::Compact,
            16,
            false,
            None,
            2048,
        );
        assert!(corrupt);
        assert_eq!(watermark, 0);
        assert_eq!(runner.arrivals(), 0);
        assert!(runner.estimates().is_none(), "plain runner: no estimates");
    }

    /// A full 32-edge estimating shard's checkpoint with one line edited.
    fn edited_checkpoint(edit: impl Fn(Vec<&str>) -> Vec<String>) -> Vec<u8> {
        let mut runner = ShardRunner::estimating(
            0,
            GpsSampler::new(32, TriangleWeight::default(), 7),
            None,
            None,
            1 << 30,
        );
        for e in stream(60) {
            runner.process(e);
        }
        let bytes = runner.checkpoint_bytes();
        let text = String::from_utf8(bytes).expect("text checkpoint");
        assert!(text.contains("capacity 32\n") && text.contains("edges 32\n"));
        let mut out = edit(text.lines().collect()).join("\n");
        out.push('\n');
        out.into_bytes()
    }

    /// Index of the first record line (header lines start with a key).
    fn first_record(lines: &[&str]) -> usize {
        lines
            .iter()
            .position(|l| l.starts_with(|c: char| c.is_ascii_digit()))
            .expect("a record line")
    }

    #[test]
    fn checkpoints_that_parse_but_cannot_restore_are_corrupt() {
        let shrunk = edited_checkpoint(|lines| {
            lines
                .iter()
                .map(|l| l.replace("capacity 32", "capacity 12"))
                .collect()
        });
        let duplicated = edited_checkpoint(|lines| {
            let first = first_record(&lines);
            let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            out[first + 1] = lines[first].to_string();
            out
        });
        let zero_weight = edited_checkpoint(|lines| {
            let first = first_record(&lines);
            let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            let mut fields: Vec<&str> = lines[first].split(' ').collect();
            fields[2] = "0";
            out[first] = fields.join(" ");
            out
        });
        for (what, bytes) in [
            ("capacity edit", shrunk),
            ("duplicated record", duplicated),
            ("zero weight", zero_weight),
        ] {
            assert!(persist::load(bytes.as_slice()).is_err(), "{what} loaded");
            for estimating in [false, true] {
                let (runner, watermark, corrupt) = ShardRunner::from_checkpoint(
                    0,
                    &bytes,
                    TriangleWeight::default(),
                    restart_seed(7, 0, 1),
                    BackendKind::Compact,
                    32,
                    estimating,
                    None,
                    1 << 30,
                );
                assert!(corrupt, "{what}: not reported corrupt");
                assert_eq!(watermark, 0, "{what}");
                assert_eq!(runner.arrivals(), 0, "{what}");
                assert_eq!(runner.sampler().capacity(), 32, "{what}: scratch budget");
            }
        }
    }

    #[test]
    fn restart_seeds_differ_by_ordinal_and_shard() {
        let a = restart_seed(42, 0, 1);
        let b = restart_seed(42, 0, 2);
        let c = restart_seed(42, 1, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
