//! Multi-device scaling studies (Figures 10 and 14).
//!
//! Weak scaling assigns each device an identical shard and replays the
//! per-device pipeline DAGs in the discrete-event simulator, with all
//! host↔device copies contending on the node's shared host link — the
//! first-order effect that keeps measured efficiency below ideal on real
//! nodes (95% on 4×H100, 89% on 8×MI250X in the paper).

use crate::pipeline::{tile_shape, StageTimes};
use crate::refactor::{refactor_with, RefactorConfig};
use hpmdr_bitplane::BitplaneFloat;
use hpmdr_device::des::ResourceKind;
use hpmdr_device::{DesSim, Resource, SimOutcome};
use hpmdr_exec::{Backend, ExecCtx};
use hpmdr_mgard::Real;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Result of one weak-scaling point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalingPoint {
    /// Device count.
    pub devices: usize,
    /// Simulated makespan, seconds.
    pub makespan: f64,
    /// Aggregate speedup relative to one device on one shard.
    pub speedup: f64,
    /// Fraction of ideal speedup achieved.
    pub efficiency: f64,
}

/// Replay `tiles_per_device` pipeline stages on each of `devices` devices,
/// with copies serialized over the shared host link.
pub fn weak_scaling_des(
    tiles_per_device: &[StageTimes],
    devices: usize,
    overlapped: bool,
    buffers: usize,
) -> SimOutcome {
    let mut sim = DesSim::new();
    let link = Resource::on(0, ResourceKind::HostLink);
    for dev in 0..devices {
        let comp = Resource::on(dev, ResourceKind::Compute);
        if overlapped {
            let mut computes: Vec<usize> = Vec::new();
            let mut copies: Vec<usize> = Vec::new();
            for (i, st) in tiles_per_device.iter().enumerate() {
                let mut cdeps = Vec::new();
                if let Some(&p) = copies.last() {
                    cdeps.push(p);
                }
                if i >= buffers {
                    cdeps.push(computes[i - buffers]);
                }
                let c = sim.add(link, st.h2d, cdeps, &format!("d{dev}h2d{i}"));
                copies.push(c);
                let mut kdeps = vec![c];
                if let Some(&p) = computes.last() {
                    kdeps.push(p);
                }
                let k = sim.add(comp, st.compute, kdeps, &format!("d{dev}comp{i}"));
                computes.push(k);
                sim.add(link, st.d2h, vec![k], &format!("d{dev}d2h{i}"));
            }
        } else {
            let mut prev: Option<usize> = None;
            for (i, st) in tiles_per_device.iter().enumerate() {
                let deps = prev.map(|p| vec![p]).unwrap_or_default();
                let c = sim.add(link, st.h2d, deps, &format!("d{dev}h2d{i}"));
                let k = sim.add(comp, st.compute, vec![c], &format!("d{dev}comp{i}"));
                let o = sim.add(link, st.d2h, vec![k], &format!("d{dev}d2h{i}"));
                prev = Some(o);
            }
        }
    }
    sim.run()
}

/// Sweep device counts and compute weak-scaling efficiencies.
pub fn weak_scaling_sweep(
    tiles_per_device: &[StageTimes],
    device_counts: &[usize],
    overlapped: bool,
    buffers: usize,
) -> Vec<ScalingPoint> {
    let base = weak_scaling_des(tiles_per_device, 1, overlapped, buffers).makespan;
    device_counts
        .iter()
        .map(|&d| {
            let makespan = weak_scaling_des(tiles_per_device, d, overlapped, buffers).makespan;
            // Weak scaling: total work grows with d; speedup = d * base / t.
            let speedup = d as f64 * base / makespan;
            ScalingPoint {
                devices: d,
                makespan,
                speedup,
                efficiency: speedup / d as f64,
            }
        })
        .collect()
}

/// Measure per-tile [`StageTimes`] by running `backend`'s refactoring
/// kernels on each tile of `data` and modeling the copies at
/// `link_gbps` over the shared host link.
///
/// This grounds the weak-scaling DES replays in *measured* compute
/// durations for a concrete backend instead of purely modeled ones: run
/// it once per backend, then feed the tiles to [`weak_scaling_sweep`] to
/// ask "how would N devices running this executor scale?".
pub fn profile_stage_times<F: BitplaneFloat + Real, B: Backend>(
    data: &[F],
    shape: &[usize],
    config: &RefactorConfig,
    backend: &B,
    ctx: &ExecCtx,
    link_gbps: f64,
) -> Vec<StageTimes> {
    assert!(link_gbps > 0.0, "link bandwidth must be positive");
    let tiling = tile_shape(shape, ctx.tile_rows());
    let elem = std::mem::size_of::<F>();
    tiling
        .shapes
        .iter()
        .zip(&tiling.offsets)
        .map(|(tshape, &off)| {
            let len: usize = tshape.iter().product();
            let tile = &data[off..off + len];
            let t0 = Instant::now();
            let refactored = refactor_with(tile, tshape, config, backend, ctx);
            let compute = t0.elapsed().as_secs_f64();
            let in_bytes = (len * elem) as f64;
            let out_bytes = refactored.total_bytes() as f64;
            StageTimes {
                h2d: in_bytes / (link_gbps * 1e9),
                compute,
                d2h: out_bytes / (link_gbps * 1e9),
            }
        })
        .collect()
}

/// End-to-end retrieval model for Figure 14: kernel time plus I/O time
/// (reading many small unit files) and device bring-up overhead.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EndToEndModel {
    /// Pure kernel (compute) seconds.
    pub kernel_seconds: f64,
    /// Storage read seconds.
    pub io_seconds: f64,
    /// Per-run constant overhead (allocation, small files), seconds.
    pub overhead_seconds: f64,
}

impl EndToEndModel {
    /// Total end-to-end retrieval time.
    pub fn total(&self) -> f64 {
        self.kernel_seconds + self.io_seconds + self.overhead_seconds
    }

    /// Kernel-only throughput for `bytes` of reconstructed data (GB/s).
    pub fn kernel_throughput_gbps(&self, bytes: usize) -> f64 {
        bytes as f64 / self.kernel_seconds / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiles(compute: f64, copy: f64, n: usize) -> Vec<StageTimes> {
        vec![
            StageTimes {
                h2d: copy,
                compute,
                d2h: copy / 2.0
            };
            n
        ]
    }

    #[test]
    fn single_device_efficiency_is_one() {
        let pts = weak_scaling_sweep(&tiles(1.0, 0.05, 8), &[1], true, 3);
        assert!((pts[0].efficiency - 1.0).abs() < 1e-9);
    }

    #[test]
    fn efficiency_degrades_gracefully_with_devices() {
        let pts = weak_scaling_sweep(&tiles(1.0, 0.05, 8), &[1, 2, 4, 8], true, 3);
        for w in pts.windows(2) {
            assert!(w[1].efficiency <= w[0].efficiency + 1e-9);
        }
        // Compute-heavy pipeline: shared link costs a few percent, as in
        // the paper's 89-95% range.
        let last = pts.last().expect("non-empty");
        assert!(last.efficiency > 0.7, "efficiency {}", last.efficiency);
        assert!(last.efficiency < 1.0);
    }

    #[test]
    fn copy_bound_pipelines_scale_poorly() {
        let pts = weak_scaling_sweep(&tiles(0.05, 1.0, 4), &[1, 8], true, 3);
        assert!(pts[1].efficiency < 0.5);
    }

    #[test]
    fn profiled_stage_times_feed_the_scaling_sweep() {
        use hpmdr_exec::CpuBackend;
        let data: Vec<f32> = (0..48 * 16)
            .map(|i| (i as f32 * 0.07).sin() * 2.0)
            .collect();
        let ctx = ExecCtx::new(16);
        let tiles = profile_stage_times(
            &data,
            &[48, 16],
            &RefactorConfig::default(),
            &CpuBackend::with_threads(1),
            &ctx,
            25.0,
        );
        assert_eq!(tiles.len(), 3, "48 rows / 16 per tile");
        for t in &tiles {
            assert!(t.compute > 0.0 && t.h2d > 0.0 && t.d2h > 0.0);
        }
        let pts = weak_scaling_sweep(&tiles, &[1, 4], true, 3);
        assert!((pts[0].efficiency - 1.0).abs() < 1e-9);
        assert!(pts[1].efficiency <= 1.0 + 1e-9);
    }

    #[test]
    fn end_to_end_model_accounting() {
        let m = EndToEndModel {
            kernel_seconds: 2.0,
            io_seconds: 1.0,
            overhead_seconds: 0.5,
        };
        assert!((m.total() - 3.5).abs() < 1e-12);
        assert!((m.kernel_throughput_gbps(4_000_000_000) - 2.0).abs() < 1e-9);
    }
}
