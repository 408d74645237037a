//! Criterion microbenchmarks of the lossless stage: Huffman, RLE, and the
//! hybrid selector over synthetic bitplane-group payloads, and — the
//! figures to quote — the `units_{64,32}` group over the real merged
//! units of one 64³ / 32³ chunk of a decomposed turbulent field (every
//! level group encoded at 32 planes, `Interleaved32`, merged four planes
//! to a unit): `hybrid_compress` (Algorithm 2), `select` (its selector
//! alone), `huffman_encode` (`CodeBook::encode` alone on the units the
//! selector sends to Huffman, books built outside the timed loop) and
//! `hybrid_decompress` (the inverse), in nanoseconds per plane byte,
//! with the share of the bytes each codec took and the share of a
//! same-run `memcpy`'s rate, one thread wide
//! (`CpuBackend::with_threads(1)`), so the figure is per core. Decompress
//! runs the retrieval path's `decompress_to` into one reused buffer.
//! Synthetic `sparse`/`noisy` payloads flatter kernels that win only on
//! zero-dominated input; real units are mostly neither.
//! `HPMDR_BENCH_EXTENT=N` runs the units group at `N³` alone (CI's smoke
//! size is 16).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hpmdr_bitplane::{encode, Layout};
use hpmdr_exec::{Backend, CpuBackend};
use hpmdr_lossless::{huffman, rle, Codec, HybridCompressor, HybridConfig};

mod common;
use common::{bench_median, level_groups, report_rate};

/// High-order-plane-like payload: heavily zero-dominated.
fn sparse_payload(n: usize) -> Vec<u8> {
    (0..n)
        .map(|i| if i % 37 == 0 { (i % 7 + 1) as u8 } else { 0 })
        .collect()
}

/// Low-order-plane-like payload: near-random bits.
fn noisy_payload(n: usize) -> Vec<u8> {
    let mut s = 0x12345u32;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            (s >> 24) as u8
        })
        .collect()
}

fn bench_codecs(c: &mut Criterion) {
    let n = 1usize << 20;
    let payloads = [("sparse", sparse_payload(n)), ("noisy", noisy_payload(n))];
    let mut g = c.benchmark_group("lossless_compress");
    g.throughput(Throughput::Bytes(n as u64));
    for (name, data) in &payloads {
        g.bench_with_input(BenchmarkId::new("huffman", name), data, |b, d| {
            b.iter(|| huffman::compress(d))
        });
        g.bench_with_input(BenchmarkId::new("rle", name), data, |b, d| {
            b.iter(|| rle::compress(d))
        });
        let hybrid = HybridCompressor::new(HybridConfig::with_rc(1.0));
        g.bench_with_input(BenchmarkId::new("hybrid_rc1", name), data, |b, d| {
            b.iter(|| hybrid.compress(d))
        });
    }
    g.finish();

    let mut g = c.benchmark_group("lossless_decompress");
    g.throughput(Throughput::Bytes(n as u64));
    for (name, data) in &payloads {
        let hc = huffman::compress(data);
        let rc = rle::compress(data);
        g.bench_with_input(BenchmarkId::new("huffman", name), &hc, |b, d| {
            b.iter(|| huffman::decompress(d))
        });
        g.bench_with_input(BenchmarkId::new("rle", name), &rc, |b, d| {
            b.iter(|| rle::decompress(d))
        });
    }
    g.finish();
}

fn bench_estimators(c: &mut Criterion) {
    let n = 1usize << 20;
    let data = sparse_payload(n);
    let mut g = c.benchmark_group("lossless_estimate");
    g.throughput(Throughput::Bytes(n as u64));
    g.bench_function("huffman_cr", |b| {
        b.iter(|| hpmdr_lossless::estimate_huffman_cr(&data))
    });
    g.bench_function("rle_cr", |b| {
        b.iter(|| hpmdr_lossless::estimate_rle_cr(&data))
    });
    let hybrid = HybridCompressor::new(HybridConfig::with_rc(1.0));
    g.bench_function("select", |b| {
        b.iter(|| {
            let c = hybrid.select(&data);
            assert_ne!(c, Codec::Rle); // sparse payload routes to Huffman
            c
        })
    });
    g.finish();
}

/// The merged units of an `e³` chunk, as the lossless stage sees them:
/// four planes of little-endian words each, a group's first unit led by
/// its sign plane.
fn chunk_units(e: usize) -> Vec<Vec<u8>> {
    let m = HybridConfig::default().group_size;
    let mut units = Vec::new();
    for group in level_groups(e) {
        let chunk = encode(&group, 32, Layout::Interleaved32);
        for lo in (0..chunk.num_planes()).step_by(m) {
            let signs: &[u32] = if lo == 0 { &chunk.signs } else { &[] };
            let planes = chunk.plane_range(lo, (lo + m).min(chunk.num_planes()));
            let words = signs.iter().chain(planes);
            units.push(words.flat_map(|w| w.to_le_bytes()).collect());
        }
    }
    units
}

fn bench_units(c: &mut Criterion) {
    let extent = std::env::var("HPMDR_BENCH_EXTENT").ok();
    let extents = match extent.and_then(|v| v.parse::<usize>().ok()) {
        Some(e) => vec![e.max(3)],
        None => vec![64, 32],
    };
    println!(
        "merged-unit micro-bench: f32, 32 planes, Interleaved32, 4 planes a unit, CpuBackend (one thread)"
    );
    let hybrid = HybridCompressor::new(HybridConfig::default());
    let backend = CpuBackend::with_threads(1);
    for e in extents {
        let units = chunk_units(e);
        let flat = units.concat();
        let n = flat.len();
        let mut g = c.benchmark_group(format!("units_{e}"));
        g.throughput(Throughput::Bytes(n as u64));
        let mut copy = vec![0u8; n];
        let memcpy = bench_median(&mut g, "memcpy", || {
            copy.copy_from_slice(criterion::black_box(&flat));
            criterion::black_box(&mut copy);
        });
        let secs = bench_median(&mut g, "hybrid_compress", || {
            backend.install(|| {
                for unit in criterion::black_box(&units) {
                    criterion::black_box(hybrid.compress(unit));
                }
            })
        });
        // The selector alone, then the encoder alone on the units it
        // sends to Huffman, each book built outside the timed loop.
        let select_secs = bench_median(&mut g, "select", || {
            backend.install(|| {
                for unit in criterion::black_box(&units) {
                    criterion::black_box(hybrid.select(unit));
                }
            })
        });
        let huffman_units: Vec<&Vec<u8>> = units
            .iter()
            .filter(|unit| hybrid.select(unit) == Codec::Huffman)
            .collect();
        let huffman_bytes: usize = huffman_units.iter().map(|unit| unit.len()).sum();
        let books: Vec<_> = huffman_units
            .iter()
            .map(|unit| huffman::CodeBook::new(unit))
            .collect();
        let encode_secs = bench_median(&mut g, "huffman_encode", || {
            backend.install(|| {
                for book in criterion::black_box(&books) {
                    criterion::black_box(book.encode());
                }
            })
        });
        let groups: Vec<_> = units.iter().map(|unit| hybrid.compress(unit)).collect();
        let mut scratch = Vec::new();
        let back_secs = bench_median(&mut g, "hybrid_decompress", || {
            backend.install(|| {
                for group in criterion::black_box(&groups) {
                    let raw = hybrid.decompress_to(group, &mut scratch);
                    criterion::black_box(raw.expect("a unit this run compressed"));
                }
            })
        });
        g.finish();

        let mut bytes = [0usize; 3];
        let mut stored = 0;
        for (unit, group) in units.iter().zip(&groups) {
            bytes[group.codec as usize] += unit.len();
            stored += group.stored_len();
        }
        let what = format!("{e}^3 chunk ({} units, {n} bytes)", units.len());
        report_rate(&format!("{what} hybrid_compress"), secs, n, "byte", memcpy);
        report_rate(&format!("{what} select"), select_secs, n, "byte", memcpy);
        // The memcpy figure scaled to the Huffman units' bytes.
        let huffman_memcpy = memcpy * huffman_bytes as f64 / n.max(1) as f64;
        report_rate(
            &format!("{what} huffman_encode ({huffman_bytes} bytes)"),
            encode_secs,
            huffman_bytes.max(1),
            "byte",
            huffman_memcpy,
        );
        report_rate(
            &format!("{what} hybrid_decompress"),
            back_secs,
            n,
            "byte",
            memcpy,
        );
        let share = |codec: Codec| 100.0 * bytes[codec as usize] as f64 / n.max(1) as f64;
        println!(
            "  {:<44} Huffman {:.1} %, RLE {:.1} %, Direct {:.1} % of the bytes; ratio {:.3}",
            "",
            share(Codec::Huffman),
            share(Codec::Rle),
            share(Codec::Direct),
            n as f64 / stored.max(1) as f64
        );
    }
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_codecs, bench_estimators
);
criterion_group!(
    name = units;
    config = Criterion::default().sample_size(20);
    targets = bench_units
);
criterion_main!(benches, units);
