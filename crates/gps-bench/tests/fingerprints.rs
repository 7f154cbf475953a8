//! Pins the determinism fingerprints that
//! `bench_baseline --quick --iters 1 --seed 42 --telemetry --trace` prints.
//!
//! Both digests are pure functions of seed and mode: the telemetry one
//! covers the engine's stable counters and histograms after a clean,
//! checkpointed run, the trace one the flight recorder's timelines under a
//! driven manual clock. They are the behaviour-identity check for any
//! change to the engine, the serving stack or the sampler. A change that
//! moves either value re-pins it here on purpose and records the old and
//! the new value in `CHANGES.md`.

use gps_bench::perf::{run_telemetry, run_trace, PerfConfig};

const CFG: PerfConfig = PerfConfig {
    quick: true,
    iters: 1,
    seed: 42,
};

#[test]
fn telemetry_fingerprint_is_pinned() {
    assert_eq!(run_telemetry(&CFG).stable_fingerprint, "9a3fdc770d7fe5cc");
}

#[test]
fn trace_fingerprint_is_pinned() {
    assert_eq!(run_trace(&CFG).stable_fingerprint, "c02141887e24f8e2");
}
