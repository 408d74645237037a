//! Micro-benchmarks of the multilevel transform stage on one chunk:
//! `decompose` / `recompose` / `extract_levels` / `inject_levels` on an
//! `N³` `f32` array, each reported as nanoseconds per sample and as the
//! share of a same-run `memcpy` of the array's rate it reaches (the
//! roofline a stencil this simple should sit near — ROADMAP item 1's
//! "each stage as a fraction of memcpy bandwidth").
//!
//! Two rows time a recompose that reads part of its chunk (a window, see
//! `hpmdr_mgard::RecomposeTo`): one octant of the chunk, and the eight
//! chunks an `N³` region query at an unaligned offset straddles, each
//! reading its corner of the region — what a region query's chunks cost
//! against eight full recomposes.
//!
//! Runs 32³, 64³ and 128³ — the benchmark's small chunk, its large chunk
//! and its whole domain; `HPMDR_BENCH_EXTENT=N` runs `N³` alone. The
//! transform runs on the default pool, as a bare `hpmdr_mgard` call does;
//! the thread count is printed with the results.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hpmdr_mgard::{
    decompose, extract_levels, inject_levels, recompose, recompose_to_level, Hierarchy, RecomposeTo,
};
use std::ops::Range;

mod common;
use common::{bench_median, report_rate};

fn bench_extents() -> Vec<usize> {
    match std::env::var("HPMDR_BENCH_EXTENT")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(e) => vec![e.max(3)],
        None => vec![32, 64, 128],
    }
}

fn field(e: usize) -> Vec<f32> {
    let mut v = Vec::with_capacity(e * e * e);
    for x in 0..e {
        for y in 0..e {
            for z in 0..e {
                let (xf, yf, zf) = (x as f32, y as f32, z as f32);
                v.push((xf * 0.31).sin() * (yf * 0.17).cos() + 0.05 * (zf * 0.9).sin());
            }
        }
    }
    v
}

fn bench_transform(c: &mut Criterion) {
    println!(
        "transform micro-bench: f32, default pool of {} thread(s)",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for e in bench_extents() {
        let h = Hierarchy::full(&[e, e, e]);
        let n = h.len();
        let orig = field(e);
        let mut coeffs = orig.clone();
        decompose(&mut coeffs, &h, true);
        let groups = extract_levels(&coeffs, &h);

        let mut g = c.benchmark_group(format!("transform_{e}"));
        g.throughput(Throughput::Elements(n as u64));
        let mut work = vec![0.0f32; n];

        // Each timed op starts with the copy that resets its input, so
        // the copy's own time (measured first) is subtracted below.
        let memcpy = bench_median(&mut g, "memcpy", || {
            work.copy_from_slice(criterion::black_box(&orig));
            criterion::black_box(&mut work);
        });
        let dec = bench_median(&mut g, "copy+decompose", || {
            work.copy_from_slice(&orig);
            decompose(criterion::black_box(&mut work), &h, true);
        });
        let rec = bench_median(&mut g, "copy+recompose", || {
            work.copy_from_slice(&coeffs);
            recompose(criterion::black_box(&mut work), &h, true);
        });
        let windowed = |work: &mut [f32], window: &[Range<usize>]| {
            work.copy_from_slice(&coeffs);
            let to = RecomposeTo {
                window: Some(window),
                ..RecomposeTo::default()
            };
            recompose_to_level(criterion::black_box(work), &h, true, to);
        };
        let octant = vec![0..e / 2; 3];
        let oct = bench_median(&mut g, "copy+recompose/octant", || {
            windowed(&mut work, &octant)
        });
        // An e³ region at offset `off` covers, of the chunk at each corner
        // of the 2×2×2 block it straddles, `off..e` on the low side of a
        // dimension and `0..off` on the high side.
        let off = [e / 3, e / 2, 2 * e / 3];
        let corners: Vec<Vec<Range<usize>>> = (0..8)
            .map(|c| {
                (0..3)
                    .map(|d| {
                        if c >> d & 1 == 0 {
                            off[d]..e
                        } else {
                            0..off[d]
                        }
                    })
                    .collect()
            })
            .collect();
        let straddle = bench_median(&mut g, "8x(copy+recompose/straddle)", || {
            for window in &corners {
                windowed(&mut work, window);
            }
        });
        let ext = bench_median(&mut g, "extract_levels", || {
            criterion::black_box(extract_levels(criterion::black_box(&coeffs), &h));
        });
        let inj = bench_median(&mut g, "inject_levels", || {
            criterion::black_box(inject_levels(criterion::black_box(&groups), &h));
        });
        g.finish();

        let report = |name: &str, secs: f64| {
            report_rate(&format!("{e}^3 {name}"), secs, n, "sample", memcpy);
        };
        report("memcpy", memcpy);
        report("decompose", (dec - memcpy).max(0.0));
        report("recompose", (rec - memcpy).max(0.0));
        let full = (rec - memcpy).max(f64::MIN_POSITIVE);
        let oct = (oct - memcpy).max(0.0);
        let per_chunk = (straddle / 8.0 - memcpy).max(0.0);
        report("recompose, one-octant window", oct);
        report("recompose, 8-chunk straddle (per chunk)", per_chunk);
        println!(
            "  {:<44} {:>7.2}x / {:.2}x faster than a full recompose",
            format!("{e}^3 octant / straddle"),
            full / oct.max(f64::MIN_POSITIVE),
            full / per_chunk.max(f64::MIN_POSITIVE)
        );
        report("extract_levels", ext);
        report("inject_levels", inj);
    }
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_transform
);
criterion_main!(benches);
