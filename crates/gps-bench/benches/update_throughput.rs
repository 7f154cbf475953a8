//! Per-edge update cost of GPS(m) — the paper's headline "a few
//! microseconds per edge" claim (§6, Table 2's time column).
//!
//! Measures full-stream processing throughput for each weight function; the
//! weight computation (`O(min deĝ)` set intersection for triangles) is the
//! dominant per-edge cost, so uniform vs triangle weights brackets the
//! achievable range.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use gps_core::weights::{TriadWeight, TriangleWeight, UniformWeight};
use gps_core::GpsSampler;
use gps_stream::{gen, permuted};

fn bench_updates(c: &mut Criterion) {
    let edges = permuted(&gen::holme_kim(20_000, 3, 0.5, 7), 1);
    let m = 5_000;
    let mut group = c.benchmark_group("gps_update");
    group.throughput(Throughput::Elements(edges.len() as u64));
    group.sample_size(10);

    group.bench_function("uniform_weight", |b| {
        b.iter_batched(
            || GpsSampler::new(m, UniformWeight, 42),
            |mut s| {
                for &e in &edges {
                    s.process(e);
                }
                s.len()
            },
            BatchSize::LargeInput,
        )
    });

    group.bench_function("triangle_weight", |b| {
        b.iter_batched(
            || GpsSampler::new(m, TriangleWeight::default(), 42),
            |mut s| {
                for &e in &edges {
                    s.process(e);
                }
                s.len()
            },
            BatchSize::LargeInput,
        )
    });

    group.bench_function("triad_weight", |b| {
        b.iter_batched(
            || GpsSampler::new(m, TriadWeight::default(), 42),
            |mut s| {
                for &e in &edges {
                    s.process(e);
                }
                s.len()
            },
            BatchSize::LargeInput,
        )
    });

    group.finish();

    // Capacity sensitivity: heap depth is O(log m); adjacency lookups grow
    // with sampled degrees.
    let mut group = c.benchmark_group("gps_update_capacity");
    group.throughput(Throughput::Elements(edges.len() as u64));
    group.sample_size(10);
    for m in [1_000usize, 4_000, 16_000] {
        group.bench_function(format!("m_{m}"), |b| {
            b.iter_batched(
                || GpsSampler::new(m, TriangleWeight::default(), 42),
                |mut s| {
                    for &e in &edges {
                        s.process(e);
                    }
                    s.len()
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_updates);
criterion_main!(benches);
