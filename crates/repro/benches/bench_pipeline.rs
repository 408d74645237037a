//! Criterion benchmarks of the end-to-end refactor/retrieve paths and the
//! pipeline modes (wall-clock on the host).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hpmdr_core::{
    refactor, refactor_with, CpuBackend, ExecCtx, PipelineMode, RefactorConfig, RetrievalPlan,
    RetrievalSession,
};
use hpmdr_datasets::{Dataset, DatasetKind};
use hpmdr_repro::pipeline::refactor_pipeline;
use hpmdr_repro::{Device, DeviceConfig};
use std::sync::Arc;

fn bench_refactor(c: &mut Criterion) {
    let ds = Dataset::generate_with_shape(DatasetKind::Jhtdb, &[48, 48, 48], 5);
    let data = ds.variables[0].as_f32();
    let bytes = (data.len() * 4) as u64;
    let mut g = c.benchmark_group("refactor");
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function("jhtdb_48cubed", |b| {
        b.iter(|| refactor(&data, &ds.shape, &RefactorConfig::default()))
    });
    g.finish();
}

fn bench_retrieve(c: &mut Criterion) {
    let ds = Dataset::generate_with_shape(DatasetKind::Jhtdb, &[48, 48, 48], 5);
    let data = ds.variables[0].as_f32();
    let refactored = refactor(&data, &ds.shape, &RefactorConfig::default());
    let mut g = c.benchmark_group("retrieve");
    g.throughput(Throughput::Bytes((data.len() * 4) as u64));
    for rel in [1e-2f64, 1e-4, 1e-6] {
        let eb = rel * refactored.value_range;
        g.bench_with_input(
            BenchmarkId::new("to_tolerance", format!("{rel:.0e}")),
            &eb,
            |b, &eb| {
                b.iter(|| {
                    let (plan, _) = RetrievalPlan::for_error(&refactored, eb);
                    let mut sess = RetrievalSession::new(&refactored);
                    sess.refine_to(&plan);
                    sess.reconstruct::<f32>()
                })
            },
        );
    }
    g.finish();
}

fn bench_pipeline_modes(c: &mut Criterion) {
    let shape = vec![64usize, 48, 48];
    let ds = Dataset::generate_with_shape(DatasetKind::Jhtdb, &shape, 5);
    let data = Arc::new(ds.variables[0].as_f32());
    let cfg = RefactorConfig::default();
    let tile_rows = 16;
    let tile_bytes = tile_rows * shape[1] * shape[2] * 4 + 4096;
    let device = Device::new(DeviceConfig::h100_like(), tile_bytes, 3);
    let mut g = c.benchmark_group("pipeline_mode");
    g.throughput(Throughput::Bytes((data.len() * 4) as u64));
    for (name, mode) in [
        ("sequential", PipelineMode::Sequential),
        ("overlapped", PipelineMode::Overlapped),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                refactor_pipeline(
                    data.clone(),
                    &shape,
                    &cfg,
                    &device,
                    mode,
                    tile_rows,
                    CpuBackend::default(),
                )
            })
        });
    }
    g.finish();
}

/// Grid extent per dimension for the backend comparison. Defaults to a
/// laptop-friendly 160³; set `HPMDR_BENCH_EXTENT=512` for the full
/// 512³-element acceptance run on a multi-core host.
fn backend_bench_extent() -> usize {
    std::env::var("HPMDR_BENCH_EXTENT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(160)
        .max(8) // zero/tiny extents have no valid hierarchy
}

/// `CpuBackend` one thread wide ("scalar") vs host-wide ("parallel") on
/// the same refactoring workload — the executor-layer speedup claim.
/// Artifacts are bit-identical (see tests/tests/backend_equivalence.rs);
/// only wall-clock may differ, and on a multi-core host the wide backend
/// must win.
fn bench_backends(c: &mut Criterion) {
    let e = backend_bench_extent();
    let shape = vec![e, e, e];
    let ds = Dataset::generate_with_shape(DatasetKind::Jhtdb, &shape, 5);
    let data = ds.variables[0].as_f32();
    let cfg = RefactorConfig::default();
    let ctx = ExecCtx::default();
    let mut g = c.benchmark_group("backend_refactor");
    g.throughput(Throughput::Bytes((data.len() * 4) as u64));
    g.bench_function(BenchmarkId::new("scalar", e), |b| {
        let backend = CpuBackend::with_threads(1);
        b.iter(|| refactor_with(&data, &shape, &cfg, &backend, &ctx))
    });
    g.bench_function(BenchmarkId::new("parallel", e), |b| {
        let backend = CpuBackend::new();
        b.iter(|| refactor_with(&data, &shape, &cfg, &backend, &ctx))
    });
    g.finish();

    // The same comparison through the overlapped device pipeline: backend
    // kernels scheduled on the compute engine, copies on the DMA engines.
    let tile_rows = (e / 8).max(1);
    let tile_bytes = tile_rows * shape[1] * shape[2] * 4 + 4096;
    let device = Device::new(DeviceConfig::h100_like(), tile_bytes, 3);
    let arc_data = Arc::new(data);
    let mut g = c.benchmark_group("backend_pipeline");
    g.throughput(Throughput::Bytes((arc_data.len() * 4) as u64));
    g.bench_function(BenchmarkId::new("scalar_overlapped", e), |b| {
        b.iter(|| {
            refactor_pipeline(
                arc_data.clone(),
                &shape,
                &cfg,
                &device,
                PipelineMode::Overlapped,
                tile_rows,
                CpuBackend::with_threads(1),
            )
        })
    });
    g.bench_function(BenchmarkId::new("parallel_overlapped", e), |b| {
        b.iter(|| {
            refactor_pipeline(
                arc_data.clone(),
                &shape,
                &cfg,
                &device,
                PipelineMode::Overlapped,
                tile_rows,
                CpuBackend::new(),
            )
        })
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_refactor, bench_retrieve, bench_pipeline_modes, bench_backends
);
criterion_main!(benches);
