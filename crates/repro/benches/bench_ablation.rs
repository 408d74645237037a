//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! locality-block size sweep (simulated), hybrid merge-group size `m`,
//! L2 correction on/off, and midpoint reconstruction on/off.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hpmdr_bitplane::{decode_prefix, encode, Layout, Reconstruction};
use hpmdr_core::{refactor, RefactorConfig};
use hpmdr_datasets::{Dataset, DatasetKind};
use hpmdr_lossless::HybridConfig;
use hpmdr_repro::{CostModel, DesignKind, DeviceConfig};

/// Locality-block size sweep: the paper notes finding the right block is
/// this design's key tuning knob (small blocks lose ILP, large blocks lose
/// cache mitigation). Evaluated through the cost model, wrapped in
/// criterion so the sweep is part of `cargo bench` output.
fn ablation_block_size(c: &mut Criterion) {
    let cfg = DeviceConfig::h100_like();
    let n = 1usize << 24;
    let mut g = c.benchmark_group("ablation_block_size");
    for m in [32usize, 64, 128, 256] {
        g.bench_with_input(BenchmarkId::new("sim_time", m), &m, |b, &m| {
            b.iter(|| {
                let counters =
                    DesignKind::LocalityBlock { block_elems: m }.encode_counters(&cfg, n, 32, 4);
                CostModel::kernel_time(&cfg, &counters)
            })
        });
    }
    g.finish();
    // Print the sweep itself once for the record.
    println!("\nlocality-block simulated encode throughput (H100-like, 2^24 elems):");
    for m in [32usize, 64, 128, 256, 512] {
        let counters = DesignKind::LocalityBlock { block_elems: m }.encode_counters(&cfg, n, 32, 4);
        println!(
            "  block {m:>4}: {:>7.1} GB/s",
            CostModel::throughput_gbps(&cfg, &counters, n * 4)
        );
    }
}

/// Hybrid merge-group size `m`: larger groups amortize codec headers but
/// coarsen the retrieval granularity.
fn ablation_group_size(c: &mut Criterion) {
    let ds = Dataset::generate_with_shape(DatasetKind::Jhtdb, &[32, 32, 32], 9);
    let data = ds.variables[0].as_f32();
    let mut g = c.benchmark_group("ablation_group_size");
    g.throughput(Throughput::Bytes((data.len() * 4) as u64));
    for m in [1usize, 2, 4, 8] {
        let cfg = RefactorConfig {
            hybrid: HybridConfig {
                group_size: m,
                ..HybridConfig::default()
            },
            ..RefactorConfig::default()
        };
        g.bench_with_input(BenchmarkId::new("refactor", m), &cfg, |b, cfg| {
            b.iter(|| refactor(&data, &ds.shape, cfg))
        });
    }
    g.finish();
}

/// MGARD L2 correction on/off: correction costs tridiagonal solves per
/// line but buys reconstruction quality at truncated precision.
fn ablation_correction(c: &mut Criterion) {
    let ds = Dataset::generate_with_shape(DatasetKind::Jhtdb, &[48, 48, 48], 9);
    let data = ds.variables[0].as_f32();
    let mut g = c.benchmark_group("ablation_correction");
    g.throughput(Throughput::Bytes((data.len() * 4) as u64));
    for correction in [true, false] {
        let cfg = RefactorConfig {
            correction,
            ..RefactorConfig::default()
        };
        g.bench_with_input(BenchmarkId::new("refactor", correction), &cfg, |b, cfg| {
            b.iter(|| refactor(&data, &ds.shape, cfg))
        });
    }
    g.finish();
}

/// Midpoint vs truncation reconstruction (decode-side only).
fn ablation_midpoint(c: &mut Criterion) {
    let data: Vec<f32> = (0..1 << 18)
        .map(|i| ((i % 511) as f32 * 0.11).sin())
        .collect();
    let chunk = encode(&data, 32, Layout::Interleaved32);
    let mut g = c.benchmark_group("ablation_midpoint");
    g.throughput(Throughput::Bytes((data.len() * 4) as u64));
    for (name, recon) in [
        ("truncate", Reconstruction::Truncate),
        ("midpoint", Reconstruction::Midpoint),
    ] {
        g.bench_function(name, |b| b.iter(|| decode_prefix::<f32>(&chunk, 12, recon)));
    }
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = ablation_block_size, ablation_group_size, ablation_correction, ablation_midpoint
);
criterion_main!(benches);
