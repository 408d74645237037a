//! Figure 9: end-to-end throughput with and without pipeline
//! optimization, for refactoring and reconstruction on both device models
//! (discrete-event replay of the Figure 4 DAGs), plus real host-CPU
//! wall-clock overlap as a sanity measurement.
//!
//! Paper shape: overlap buys ~1.43×/1.83× (refactor/reconstruct) on H100
//! and ~1.41×/1.43× on MI250X.

use hpmdr_core::{CpuBackend, PipelineMode, RefactorConfig};
use hpmdr_datasets::{Dataset, DatasetKind};
use hpmdr_repro::pipeline::{des_pipeline, refactor_pipeline};
use hpmdr_repro::{reconstruct_stage_times, refactor_stage_times, Device, DeviceConfig, Table};
use std::sync::Arc;

fn main() {
    let mut json = Vec::new();

    // ---------- DES replay on the device models ------------------------
    let tile_elems = 1usize << 22; // 16 MiB f32 tiles
    let n_tiles = 16;
    let out_ratio = 0.85; // compressed stream size per tile (measured below)
    let mut t = Table::new(
        "Figure 9: end-to-end throughput ±pipeline optimization (DES, GB/s)",
        &[
            "device",
            "direction",
            "w/o pipeline",
            "w/ pipeline",
            "speedup",
        ],
    );
    for cfg in [DeviceConfig::h100_like(), DeviceConfig::mi250x_like()] {
        for dir in ["refactor", "reconstruct"] {
            let st = if dir == "refactor" {
                refactor_stage_times(
                    &cfg,
                    tile_elems,
                    4,
                    32,
                    (tile_elems as f64 * 4.0 * out_ratio) as usize,
                )
            } else {
                reconstruct_stage_times(
                    &cfg,
                    tile_elems,
                    4,
                    32,
                    (tile_elems as f64 * 4.0 * out_ratio) as usize,
                )
            };
            let tiles = vec![st; n_tiles];
            let seq = des_pipeline(&tiles, false, 0, 3).makespan;
            let ovl = des_pipeline(&tiles, true, 0, 3).makespan;
            let bytes = (tile_elems * 4 * n_tiles) as f64;
            t.row(&[
                cfg.name.clone(),
                dir.to_string(),
                format!("{:.1}", bytes / seq / 1e9),
                format!("{:.1}", bytes / ovl / 1e9),
                format!("{:.2}x", seq / ovl),
            ]);
            json.push(serde_json::json!({
                "device": cfg.name, "direction": dir,
                "seq_gbps": bytes / seq / 1e9, "ovl_gbps": bytes / ovl / 1e9,
                "speedup": seq / ovl,
            }));
        }
    }
    t.print();
    println!("(paper: H100 1.43x/1.83x; MI250X 1.41x/1.43x)");

    // ---------- Real wall-clock overlap on host CPU ---------------------
    let shape = vec![96usize, 64, 64];
    let ds = Dataset::generate_with_shape(DatasetKind::Jhtdb, &shape, 3);
    let data = Arc::new(ds.variables[0].as_f32());
    let cfg = RefactorConfig::default();
    let tile_rows = 12;
    let tile_bytes = tile_rows * shape[1] * shape[2] * 4 + 4096;
    let device = Device::new(DeviceConfig::h100_like(), tile_bytes, 3);
    // Warm-up, then measure.
    let _ = refactor_pipeline(
        data.clone(),
        &shape,
        &cfg,
        &device,
        PipelineMode::Sequential,
        tile_rows,
        CpuBackend::default(),
    );
    let seq = refactor_pipeline(
        data.clone(),
        &shape,
        &cfg,
        &device,
        PipelineMode::Sequential,
        tile_rows,
        CpuBackend::default(),
    );
    let ovl = refactor_pipeline(
        data.clone(),
        &shape,
        &cfg,
        &device,
        PipelineMode::Overlapped,
        tile_rows,
        CpuBackend::default(),
    );
    let mut t = Table::new(
        "Host-CPU wall-clock refactoring ±overlap (sanity measurement)",
        &["mode", "seconds", "GB/s"],
    );
    t.row(&[
        "sequential".into(),
        format!("{:.3}", seq.wall_seconds),
        format!("{:.3}", seq.throughput_gbps),
    ]);
    t.row(&[
        "overlapped".into(),
        format!("{:.3}", ovl.wall_seconds),
        format!("{:.3}", ovl.throughput_gbps),
    ]);
    t.print();
    println!(
        "CPU overlap speedup {:.2}x (copies are tiny relative to CPU compute,\nso most of the paper's gain only materializes at GPU kernel speeds)",
        seq.wall_seconds / ovl.wall_seconds
    );
    json.push(serde_json::json!({
        "device": "host-cpu", "direction": "refactor",
        "seq_gbps": seq.throughput_gbps, "ovl_gbps": ovl.throughput_gbps,
        "speedup": seq.wall_seconds / ovl.wall_seconds,
    }));
    hpmdr_repro::write_json("fig9", &json);
}
