//! Figure 10: weak scaling on single-node multi-GPU configurations.
//!
//! Each device processes an identical shard through the overlapped
//! pipeline; all host↔device copies contend on the node's shared host
//! memory system. Paper shape: ~95% of ideal on 4×H100, ~89% on 8×MI250X.

use hpmdr_repro::multi_device::weak_scaling_sweep;
use hpmdr_repro::pipeline::StageTimes;
use hpmdr_repro::{refactor_stage_times, DeviceConfig, Table};

/// Aggregate host memory bandwidth available for staging copies (shared
/// by every device on the node; the scaling bottleneck). The Frontier
/// node's staging path is narrower per GCD than the H100 node's.
fn host_staging_gbps(cfg: &DeviceConfig) -> f64 {
    match cfg.arch {
        hpmdr_repro::Arch::Rocm => 160.0,
        _ => 300.0,
    }
}

fn shard_stages(cfg: &DeviceConfig, tiles: usize) -> Vec<StageTimes> {
    let tile_elems = 1usize << 22;
    let bytes = tile_elems * 4;
    let out_bytes = (bytes as f64 * 0.85) as usize;
    let st = refactor_stage_times(cfg, tile_elems, 4, 32, out_bytes);
    // Copies ride the shared host staging path in this study.
    let staging = host_staging_gbps(cfg);
    let shared = StageTimes {
        h2d: bytes as f64 / (staging * 1e9),
        compute: st.compute,
        d2h: out_bytes as f64 / (staging * 1e9),
    };
    vec![shared; tiles]
}

fn main() {
    let mut json = Vec::new();
    for (cfg, counts) in [
        (DeviceConfig::h100_like(), vec![1usize, 2, 4]),
        (DeviceConfig::mi250x_like(), vec![1usize, 2, 4, 8]),
    ] {
        let tiles = shard_stages(&cfg, 12);
        let pts = weak_scaling_sweep(&tiles, &counts, true, 3);
        let mut t = Table::new(
            &format!("Figure 10: weak scaling, {}", cfg.name),
            &["devices", "makespan (ms)", "speedup", "efficiency"],
        );
        for p in &pts {
            t.row(&[
                p.devices.to_string(),
                format!("{:.2}", p.makespan * 1e3),
                format!("{:.2}", p.speedup),
                format!("{:.1}%", p.efficiency * 100.0),
            ]);
            json.push(serde_json::json!({
                "device": cfg.name, "devices": p.devices,
                "speedup": p.speedup, "efficiency": p.efficiency,
            }));
        }
        t.print();
        let last = pts.last().expect("non-empty sweep");
        println!(
            "{}: {:.0}% of ideal at {} devices (paper: 95% on 4xH100, 89% on 8xMI250X)",
            cfg.name,
            last.efficiency * 100.0,
            last.devices
        );
    }
    hpmdr_repro::write_json("fig10", &json);
}
