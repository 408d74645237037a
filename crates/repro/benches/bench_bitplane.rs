//! Criterion microbenchmarks of the native bitplane codecs (the §4 claim
//! carriers): encode/decode wall-clock per layout and size, prefix
//! decoding cost as a function of retained planes, and the progressive
//! decoder's two steps on the group every retrieval spends most of its
//! decode time in.
//!
//! `progressive/{advance,materialize,materialize_into_grid}` runs on the
//! finest level group of a 64³ and a 32³ chunk (≈ 230 k and ≈ 28 k
//! coefficients of a decomposed turbulent field) at the plane counts the
//! repository benchmark's `coarse` (8–12) and `fine` (20–24) plans reach,
//! and reports nanoseconds per value and the share of a same-run `memcpy`
//! of the group's rate, like `bench_transform`. Bare decoder calls:
//! `advance` is serial; `materialize` (into a fresh vector) and
//! `materialize_into_grid` (straight into the group's nodes of a kept
//! chunk grid, through `hpmdr_mgard::write_group`, what a retrieval does)
//! fan out on the default pool (printed). All run on the default
//! `Interleaved32` stream; `advance/Natural/{k}` repeats the first on a
//! `Natural` encoding of the same group.
//!
//! `encode_{64,32}/{Interleaved32,Natural}` encodes every level group of
//! the same chunks at 32 planes — one chunk's worth of the ingest's
//! bitplane stage — with the same two figures, one thread wide
//! (`CpuBackend::with_threads(1)`), so the figure is per core.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hpmdr_bitplane::native::ProgressiveDecoder;
use hpmdr_bitplane::{decode_prefix, encode, BitplaneChunk, Layout, Reconstruction};
use hpmdr_exec::{Backend, CpuBackend};
use hpmdr_mgard::Hierarchy;

mod common;
use common::{bench_median, level_groups, report_rate};

fn field(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((i % 8191) as f32 * 0.173).sin() * 3.0)
        .collect()
}

fn bench_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("bitplane_encode");
    for &n in &[1usize << 16, 1 << 20] {
        let data = field(n);
        g.throughput(Throughput::Bytes((n * 4) as u64));
        for layout in [Layout::Natural, Layout::Interleaved32] {
            g.bench_with_input(
                BenchmarkId::new(format!("{layout:?}"), n),
                &data,
                |b, data| b.iter(|| encode(data, 32, layout)),
            );
        }
    }
    g.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("bitplane_decode");
    let n = 1usize << 20;
    let data = field(n);
    g.throughput(Throughput::Bytes((n * 4) as u64));
    for layout in [Layout::Natural, Layout::Interleaved32] {
        let chunk = encode(&data, 32, layout);
        g.bench_with_input(
            BenchmarkId::new(format!("{layout:?}_full"), n),
            &chunk,
            |b, chunk| b.iter(|| decode_prefix::<f32>(chunk, 32, Reconstruction::Truncate)),
        );
    }
    g.finish();
}

fn bench_prefix_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("bitplane_prefix");
    let n = 1usize << 20;
    let data = field(n);
    let chunk = encode(&data, 32, Layout::Interleaved32);
    g.throughput(Throughput::Bytes((n * 4) as u64));
    for k in [4usize, 16, 32] {
        g.bench_with_input(BenchmarkId::new("planes", k), &k, |b, &k| {
            b.iter(|| decode_prefix::<f32>(&chunk, k, Reconstruction::Truncate))
        });
    }
    g.finish();
}

/// `encode` over every level group of a 64³ and a 32³ chunk.
fn bench_encode_groups(c: &mut Criterion) {
    println!("chunk encode micro-bench: f32, 32 planes, CpuBackend (one thread)");
    let backend = CpuBackend::with_threads(1);
    for e in [64usize, 32] {
        let groups = level_groups(e);
        let flat = groups.concat();
        let n = flat.len();
        let mut g = c.benchmark_group(format!("encode_{e}"));
        g.throughput(Throughput::Elements(n as u64));
        let mut copy = vec![0.0f32; n];
        let memcpy = bench_median(&mut g, "memcpy", || {
            copy.copy_from_slice(criterion::black_box(&flat));
            criterion::black_box(&mut copy);
        });
        for layout in [Layout::Interleaved32, Layout::Natural] {
            let secs = bench_median(&mut g, &format!("{layout:?}"), || {
                backend.install(|| {
                    for group in criterion::black_box(&groups) {
                        criterion::black_box(encode(group, 32, layout));
                    }
                })
            });
            let what = format!("{e}^3 chunk ({n} values) encode/{layout:?}");
            report_rate(&what, secs, n, "value", memcpy);
        }
        g.finish();
    }
}

fn bench_progressive(c: &mut Criterion) {
    println!(
        "progressive decode micro-bench: f32, Interleaved32, default pool of {} thread(s)",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for e in [64usize, 32] {
        let group = level_groups(e).pop().expect("a chunk has a finest group");
        let n = group.len();
        let h = Hierarchy::full(&[e; 3]);
        let mut grid = vec![0.0f32; h.len()];
        let chunk = encode(&group, 32, Layout::Interleaved32);
        let natural = encode(&group, 32, Layout::Natural);
        let mut g = c.benchmark_group(format!("progressive_{e}"));
        g.throughput(Throughput::Elements(n as u64));

        let mut copy = vec![0.0f32; n];
        let memcpy = bench_median(&mut g, "memcpy", || {
            copy.copy_from_slice(criterion::black_box(&group));
            criterion::black_box(&mut copy);
        });
        let report = |name: &str, secs: f64| {
            let what = format!("{e}^3 finest group ({n} values) {name}");
            report_rate(&what, secs, n, "value", memcpy);
        };
        report("memcpy", memcpy);
        for k in [8usize, 12, 20, 24] {
            // `advance` includes the fresh decoder's zeroed accumulators,
            // as every one-shot retrieval pays them.
            let mut advance_on = |name: String, chunk: &BitplaneChunk| {
                bench_median(&mut g, &name, || {
                    let mut decoder = ProgressiveDecoder::new(chunk);
                    decoder.advance(criterion::black_box(chunk), k);
                    criterion::black_box(&decoder);
                })
            };
            let advance = advance_on(format!("advance/{k}"), &chunk);
            let advance_natural = advance_on(format!("advance/Natural/{k}"), &natural);
            let mut decoder = ProgressiveDecoder::new(&chunk);
            decoder.advance(&chunk, k);
            let materialize = bench_median(&mut g, &format!("materialize/{k}"), || {
                criterion::black_box(
                    criterion::black_box(&decoder)
                        .materialize::<f32>(&chunk, Reconstruction::Truncate),
                );
            });
            let into_grid = bench_median(&mut g, &format!("materialize_into_grid/{k}"), || {
                let values =
                    criterion::black_box(&decoder).values::<f32>(&chunk, Reconstruction::Truncate);
                hpmdr_mgard::write_group(&mut grid, &h, h.levels, |from, out| {
                    values.fill(from, out)
                });
                criterion::black_box(&mut grid);
            });
            report(&format!("advance/{k}"), advance);
            report(&format!("advance/Natural/{k}"), advance_natural);
            report(&format!("materialize/{k}"), materialize);
            report(&format!("materialize_into_grid/{k}"), into_grid);
        }
        g.finish();
    }
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_encode, bench_decode, bench_prefix_scaling
);
criterion_group!(
    name = progressive;
    config = Criterion::default().sample_size(30);
    targets = bench_encode_groups, bench_progressive
);
criterion_main!(benches, progressive);
