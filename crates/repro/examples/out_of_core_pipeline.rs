//! Tiled refactoring through the device pipeline, with and without the
//! Figure 4 overlap optimization, one thread wide and host-wide.
//!
//! Datasets larger than device memory are processed as sub-domain tiles
//! staged through a bounded buffer pool. With overlap enabled, the next
//! tile's host→device copy is prefetched by a dedicated DMA-engine thread
//! while the compute engine refactors the current tile. The compute
//! engine itself schedules portable `Backend` kernels, so the tile
//! executor's width (`CpuBackend::with_threads(1)` vs the host-wide
//! default) changes independently of the overlap schedule — with
//! bit-identical artifacts either way.
//!
//! ```text
//! cargo run -p hpmdr-repro --release --example out_of_core_pipeline
//! ```

use hpmdr_core::{Backend, CpuBackend, RefactorConfig};
use hpmdr_datasets::{Dataset, DatasetKind};
use hpmdr_repro::pipeline::{refactor_pipeline, PipelineMode};
use hpmdr_repro::{Device, DeviceConfig};
use std::sync::Arc;

/// A byte count in MiB.
fn human_bytes(bytes: usize) -> String {
    format!("{:.2} MiB", bytes as f64 / (1 << 20) as f64)
}

fn main() {
    let shape = vec![128usize, 64, 64];
    let ds = Dataset::generate_with_shape(DatasetKind::Jhtdb, &shape, 5);
    let data = Arc::new(ds.variables[0].as_f32());
    let tile_rows = 16;
    let tile_bytes = tile_rows * shape[1] * shape[2] * 4;
    println!(
        "input {} ({:?}), tiles of {} rows ({} each)\n",
        human_bytes(data.len() * 4),
        shape,
        tile_rows,
        human_bytes(tile_bytes)
    );

    let config = RefactorConfig::default();
    // Three staging buffers: current tile, prefetched tile, draining tile.
    let device = Device::new(DeviceConfig::h100_like(), tile_bytes + 4096, 3);

    // The overlap comparison runs one thread wide, so the schedule alone
    // accounts for the difference.
    let one = CpuBackend::with_threads(1);
    let seq = refactor_pipeline(
        data.clone(),
        &shape,
        &config,
        &device,
        PipelineMode::Sequential,
        tile_rows,
        one,
    );
    let ovl = refactor_pipeline(
        data.clone(),
        &shape,
        &config,
        &device,
        PipelineMode::Overlapped,
        tile_rows,
        one,
    );

    println!(
        "{:<12} {:>10} {:>12} {:>10}",
        "mode", "wall", "throughput", "output"
    );
    for (name, rep) in [("sequential", &seq), ("overlapped", &ovl)] {
        println!(
            "{name:<12} {:>9.3}s {:>9.3} GB/s {:>10}",
            rep.wall_seconds,
            rep.throughput_gbps,
            human_bytes(rep.bytes_out)
        );
    }
    println!(
        "\noverlap speedup: {:.2}x (identical artifacts: {})",
        seq.wall_seconds / ovl.wall_seconds,
        seq.artifacts == ovl.artifacts
    );

    // Same overlapped schedule on the default, host-wide tile executor.
    let wide = CpuBackend::new();
    let par = refactor_pipeline(
        data.clone(),
        &shape,
        &config,
        &device,
        PipelineMode::Overlapped,
        tile_rows,
        wide,
    );
    println!(
        "\nbackend {:>8} ({} threads): {:.3}s, {:.3} GB/s",
        one.name(),
        one.threads(),
        ovl.wall_seconds,
        ovl.throughput_gbps
    );
    println!(
        "backend {:>8} ({} threads): {:.3}s, {:.3} GB/s (identical artifacts: {})",
        wide.name(),
        wide.threads(),
        par.wall_seconds,
        par.throughput_gbps,
        par.artifacts == ovl.artifacts
    );
}
