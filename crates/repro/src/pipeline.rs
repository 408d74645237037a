//! End-to-end refactoring / reconstruction pipelines (Figure 4).
//!
//! Large datasets are processed as sub-domain tiles staged through device
//! buffers. Two executable modes:
//!
//! * [`PipelineMode::Sequential`] — copy-in, compute, copy-out strictly in
//!   order per tile (the "w/o pipeline" baseline of Figure 9);
//! * [`PipelineMode::Overlapped`] — the paper's optimized schedule: the
//!   next tile's host→device copy is prefetched during the current tile's
//!   kernels, and device→host copies of finished tiles overlap subsequent
//!   compute. Implemented with the two real DMA-engine threads plus the
//!   compute engine of [`Device`], so the measured speedup is genuine
//!   overlap, not a model.
//!
//! [`des_pipeline`] replays the same DAGs in the discrete-event simulator
//! with modeled stage durations, which is how the figure harness evaluates
//! H100-like / MI250X-like devices and multi-device scaling.

use crate::des::ResourceKind;
use crate::{DesSim, Device, Event, Resource, SimOutcome};
use hpmdr_bitplane::BitplaneFloat;
use hpmdr_core::refactor::{refactor_with, RefactorConfig, Refactored};
use hpmdr_core::serialize;
use hpmdr_exec::{Backend, ExecCtx};
use hpmdr_mgard::Real;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Stage schedule of the tiled device pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineMode {
    /// No overlap: each tile runs through every stage to completion
    /// before the next one starts.
    Sequential,
    /// The Figure 4 schedule: the next tile's copy-in is prefetched and
    /// the previous tile's copy-out deferred while the current tile
    /// computes.
    Overlapped,
}

/// Tiling of a row-major array along its slowest dimension.
#[derive(Debug, Clone)]
pub struct Tiling {
    /// Tile shapes (same rank as the input shape).
    pub shapes: Vec<Vec<usize>>,
    /// Element offsets of each tile in the flat array.
    pub offsets: Vec<usize>,
}

/// Split `shape` into slabs of at most `max_rows` leading-dimension rows.
///
/// Degenerate inputs — an empty shape, zero rows, or any zero extent —
/// produce an empty tiling (no tiles, nothing to process) instead of
/// panicking.
///
/// # Panics
/// Panics if `max_rows` is zero.
pub fn tile_shape(shape: &[usize], max_rows: usize) -> Tiling {
    assert!(max_rows > 0, "tiles need at least one row");
    if shape.is_empty() || shape.contains(&0) {
        return Tiling {
            shapes: Vec::new(),
            offsets: Vec::new(),
        };
    }
    let rows = shape[0];
    let row_elems: usize = shape.iter().skip(1).product::<usize>().max(1);
    let mut shapes = Vec::new();
    let mut offsets = Vec::new();
    let mut r = 0usize;
    while r < rows {
        let take = max_rows.min(rows - r);
        let mut s = shape.to_vec();
        s[0] = take;
        shapes.push(s);
        offsets.push(r * row_elems);
        r += take;
    }
    Tiling { shapes, offsets }
}

/// Outcome of an executable pipeline run.
pub struct PipelineReport {
    /// Wall-clock seconds of the whole run.
    pub wall_seconds: f64,
    /// Input bytes processed.
    pub bytes_in: usize,
    /// Serialized output bytes produced.
    pub bytes_out: usize,
    /// Per-tile refactored artifacts (refactoring direction only).
    pub artifacts: Vec<Refactored>,
    /// End-to-end throughput relative to the input size, GB/s.
    pub throughput_gbps: f64,
}

/// Per-tile slots filled by the compute engine: the refactored artifact
/// plus its serialized bytes.
type TileResults = Mutex<Vec<Option<(Refactored, Vec<u8>)>>>;

fn as_bytes<F>(v: &[F]) -> &[u8] {
    // SAFETY: plain-old-data floats reinterpreted as bytes for DMA copies.
    unsafe { std::slice::from_raw_parts(v.as_ptr() as *const u8, std::mem::size_of_val(v)) }
}

fn from_bytes_vec<F: Copy>(bytes: &[u8]) -> Vec<F> {
    let n = bytes.len() / std::mem::size_of::<F>();
    let mut out = Vec::with_capacity(n);
    // SAFETY: sizes divide exactly; alignment handled by copying.
    unsafe {
        std::ptr::copy_nonoverlapping(
            bytes.as_ptr(),
            out.as_mut_ptr() as *mut u8,
            n * std::mem::size_of::<F>(),
        );
        out.set_len(n);
    }
    out
}

/// Run the refactoring pipeline over `data` (shape `shape`) on `device`,
/// with tile kernels scheduled on `backend`.
///
/// Tiles of at most `tile_rows` leading rows are staged through the
/// device's buffer pool; results are serialized back to host memory.
/// The compute engine executes each tile as one backend kernel batch
/// (decompose → encode → compress), so swapping `backend` swaps the
/// execution strategy of every tile without touching the schedule. Both
/// [`PipelineMode`]s and all backends produce identical artifacts.
pub fn refactor_pipeline<F: BitplaneFloat + Real, B: Backend>(
    data: Arc<Vec<F>>,
    shape: &[usize],
    config: &RefactorConfig,
    device: &Device,
    mode: PipelineMode,
    tile_rows: usize,
    backend: B,
) -> PipelineReport {
    let ctx = Arc::new(ExecCtx::default());
    let tiling = tile_shape(shape, tile_rows);
    let n_tiles = tiling.shapes.len();
    let elem = std::mem::size_of::<F>();
    let results: Arc<TileResults> = Arc::new(Mutex::new((0..n_tiles).map(|_| None).collect()));

    let t0 = Instant::now();
    match mode {
        PipelineMode::Sequential => {
            for i in 0..n_tiles {
                let tile_shape = tiling.shapes[i].clone();
                let off = tiling.offsets[i];
                let len: usize = tile_shape.iter().product();
                // Copy-in on the DMA engine, waiting for completion.
                let staged = {
                    let pool = device.pool().clone();
                    let data = data.clone();
                    let buf = Arc::new(Mutex::new(None));
                    let out = buf.clone();
                    device
                        .h2d
                        .submit(vec![], move || {
                            let mut b = pool.acquire();
                            b.buffer_mut().upload(as_bytes(&data[off..off + len]));
                            *out.lock().unwrap_or_else(PoisonError::into_inner) = Some(b);
                        })
                        .wait();
                    let taken = buf.lock().unwrap_or_else(PoisonError::into_inner).take();
                    // lint:allow(L3): `wait()` above returned, so the upload
                    // closure ran and filled the slot.
                    taken.expect("upload completed")
                };
                // Compute on the compute engine: one backend kernel batch.
                let cfg = config.clone();
                let res = results.clone();
                let be = backend.clone();
                let cx = ctx.clone();
                device
                    .compute
                    .submit(vec![], move || {
                        let tile: Vec<F> = from_bytes_vec(staged.buffer().as_slice());
                        let r = refactor_with(&tile, &tile_shape, &cfg, &be, &cx);
                        let bytes = serialize::to_bytes(&r);
                        res.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some((r, bytes));
                    })
                    .wait();
                // Copy-out is accounted as the serialized write-back.
                device.d2h.submit(vec![], move || {}).wait();
            }
        }
        PipelineMode::Overlapped => {
            let mut prev_compute: Option<Event> = None;
            let mut d2h_events = Vec::new();
            for i in 0..n_tiles {
                let tile_shape = tiling.shapes[i].clone();
                let off = tiling.offsets[i];
                let len: usize = tile_shape.iter().product();
                // Prefetch: the h2d engine runs ahead, bounded by the pool.
                let staged = Arc::new(Mutex::new(None));
                let h2d_done = {
                    let pool = device.pool().clone();
                    let data = data.clone();
                    let out = staged.clone();
                    device.h2d.submit(vec![], move || {
                        let mut b = pool.acquire();
                        b.buffer_mut().upload(as_bytes(&data[off..off + len]));
                        *out.lock().unwrap_or_else(PoisonError::into_inner) = Some(b);
                    })
                };
                // Compute depends on its input copy and the previous kernel
                // (one compute engine), freeing the buffer when done.
                let mut deps = vec![h2d_done];
                if let Some(p) = prev_compute.take() {
                    deps.push(p);
                }
                let cfg = config.clone();
                let res = results.clone();
                let be = backend.clone();
                let cx = ctx.clone();
                let compute_done = device.compute.submit(deps, move || {
                    // lint:allow(L3): the engine runs this task after its
                    // `deps` (the staging upload) completed, filling the slot.
                    let buf = staged
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .take()
                        .expect("staged buffer present");
                    let tile: Vec<F> = from_bytes_vec(buf.buffer().as_slice());
                    drop(buf); // release the staging slot for prefetch
                    let r = refactor_with(&tile, &tile_shape, &cfg, &be, &cx);
                    let bytes = serialize::to_bytes(&r);
                    res.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some((r, bytes));
                });
                // Write-back overlaps with the next tiles' compute.
                d2h_events.push(device.d2h.submit(vec![compute_done.clone()], move || {}));
                prev_compute = Some(compute_done);
            }
            if let Some(p) = prev_compute {
                p.wait();
            }
            for e in d2h_events {
                e.wait();
            }
        }
    }
    device.sync();
    let wall = t0.elapsed().as_secs_f64();

    let collected: Vec<(Refactored, Vec<u8>)> = Arc::try_unwrap(results)
        .unwrap_or_else(|arc| {
            Mutex::new(arc.lock().unwrap_or_else(PoisonError::into_inner).clone())
        })
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        // lint:allow(L3): every tile's compute task was waited on above, so
        // each slot was filled exactly once.
        .map(|o| o.expect("all tiles processed"))
        .collect();
    let bytes_in = data.len() * elem;
    let bytes_out: usize = collected.iter().map(|(_, b)| b.len()).sum();
    PipelineReport {
        wall_seconds: wall,
        bytes_in,
        bytes_out,
        artifacts: collected.into_iter().map(|(r, _)| r).collect(),
        throughput_gbps: bytes_in as f64 / wall / 1e9,
    }
}

/// Modeled durations of one tile's pipeline stages (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageTimes {
    /// Host→device copy.
    pub h2d: f64,
    /// Decompose + encode + lossless kernels.
    pub compute: f64,
    /// Device→host copy of the refactored output.
    pub d2h: f64,
}

/// Build and run the Figure 4 DAG in the discrete-event simulator for one
/// device processing `tiles` stages. With `overlapped = false` every tile
/// is fully serialized (the baseline); with `true`, copies use the two DMA
/// engines concurrently with compute, bounded by `buffers` staging slots.
pub fn des_pipeline(
    tiles: &[StageTimes],
    overlapped: bool,
    device: usize,
    buffers: usize,
) -> SimOutcome {
    let mut sim = DesSim::new();
    let dma1 = Resource::on(device, ResourceKind::Dma1);
    let dma2 = Resource::on(device, ResourceKind::Dma2);
    let comp = Resource::on(device, ResourceKind::Compute);
    if overlapped {
        let mut computes: Vec<usize> = Vec::new();
        let mut copies: Vec<usize> = Vec::new();
        for (i, st) in tiles.iter().enumerate() {
            // Prefetch bounded by staging slots: copy i waits for compute
            // i - buffers to have released its buffer.
            let mut cdeps = Vec::new();
            if let Some(&prev_copy) = copies.last() {
                cdeps.push(prev_copy);
            }
            if i >= buffers {
                cdeps.push(computes[i - buffers]);
            }
            let c = sim.add(dma1, st.h2d, cdeps, &format!("h2d{i}"));
            copies.push(c);
            let mut kdeps = vec![c];
            if let Some(&prev) = computes.last() {
                kdeps.push(prev);
            }
            let k = sim.add(comp, st.compute, kdeps, &format!("compute{i}"));
            computes.push(k);
            sim.add(dma2, st.d2h, vec![k], &format!("d2h{i}"));
        }
    } else {
        let mut prev: Option<usize> = None;
        for (i, st) in tiles.iter().enumerate() {
            let deps = prev.map(|p| vec![p]).unwrap_or_default();
            let c = sim.add(dma1, st.h2d, deps, &format!("h2d{i}"));
            let k = sim.add(comp, st.compute, vec![c], &format!("compute{i}"));
            let o = sim.add(dma2, st.d2h, vec![k], &format!("d2h{i}"));
            prev = Some(o);
        }
    }
    sim.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceConfig;
    use hpmdr_exec::CpuBackend;

    fn field(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.001).sin() * 2.0).collect()
    }

    #[test]
    fn degenerate_shapes_tile_to_nothing() {
        for shape in [&[][..], &[0][..], &[0, 7][..], &[5, 0, 3][..]] {
            let t = tile_shape(shape, 16);
            assert!(t.shapes.is_empty(), "shape {shape:?}");
            assert!(t.offsets.is_empty(), "shape {shape:?}");
        }
    }

    #[test]
    fn pipeline_handles_empty_tiling() {
        let data: Arc<Vec<f32>> = Arc::new(Vec::new());
        let dev = Device::new(DeviceConfig::h100_like(), 1024, 2);
        let rep = refactor_pipeline(
            data,
            &[0, 8],
            &RefactorConfig::default(),
            &dev,
            PipelineMode::Overlapped,
            16,
            CpuBackend::default(),
        );
        assert_eq!(rep.artifacts.len(), 0);
        assert_eq!(rep.bytes_out, 0);
    }

    #[test]
    fn backends_produce_identical_pipeline_artifacts() {
        let shape = [48usize, 21];
        let data = Arc::new(field(48 * 21));
        let cfg = RefactorConfig::default();
        let dev = Device::new(DeviceConfig::h100_like(), 48 * 21 * 4 + 1024, 3);
        let a = refactor_pipeline(
            data.clone(),
            &shape,
            &cfg,
            &dev,
            PipelineMode::Overlapped,
            16,
            CpuBackend::with_threads(1),
        );
        let b = refactor_pipeline(
            data,
            &shape,
            &cfg,
            &dev,
            PipelineMode::Overlapped,
            16,
            CpuBackend::with_threads(4),
        );
        assert_eq!(a.artifacts, b.artifacts);
        assert_eq!(a.bytes_out, b.bytes_out);
    }

    #[test]
    fn tiling_covers_the_array() {
        let t = tile_shape(&[100, 7], 32);
        assert_eq!(t.shapes.len(), 4);
        let total: usize = t.shapes.iter().map(|s| s.iter().product::<usize>()).sum();
        assert_eq!(total, 700);
        assert_eq!(t.offsets[1], 32 * 7);
        assert_eq!(t.shapes[3][0], 4);
    }

    #[test]
    fn sequential_and_overlapped_produce_identical_artifacts() {
        let shape = [64usize, 33];
        let data = Arc::new(field(64 * 33));
        let cfg = RefactorConfig::default();
        let dev = Device::new(DeviceConfig::h100_like(), 64 * 33 * 4 + 1024, 3);
        let a = refactor_pipeline(
            data.clone(),
            &shape,
            &cfg,
            &dev,
            PipelineMode::Sequential,
            16,
            CpuBackend::default(),
        );
        let b = refactor_pipeline(
            data,
            &shape,
            &cfg,
            &dev,
            PipelineMode::Overlapped,
            16,
            CpuBackend::default(),
        );
        assert_eq!(a.artifacts.len(), b.artifacts.len());
        for (x, y) in a.artifacts.iter().zip(&b.artifacts) {
            assert_eq!(x, y);
        }
        assert_eq!(a.bytes_out, b.bytes_out);
    }

    #[test]
    fn pipeline_tiles_reconstruct_to_original() {
        use hpmdr_core::retrieve::{RetrievalPlan, RetrievalSession};
        let shape = [40usize, 17];
        let data = Arc::new(field(40 * 17));
        let cfg = RefactorConfig::default();
        let dev = Device::new(DeviceConfig::h100_like(), 40 * 17 * 4 + 1024, 3);
        let rep = refactor_pipeline(
            data.clone(),
            &shape,
            &cfg,
            &dev,
            PipelineMode::Overlapped,
            16,
            CpuBackend::default(),
        );
        let mut rebuilt: Vec<f32> = Vec::new();
        for r in &rep.artifacts {
            let mut s = RetrievalSession::new(r);
            s.refine_to(&RetrievalPlan::full(r));
            rebuilt.extend(s.reconstruct::<f32>());
        }
        assert_eq!(rebuilt.len(), data.len());
        let scale = data.iter().fold(0.0f32, |m, v| m.max(v.abs())) as f64;
        for (a, b) in data.iter().zip(&rebuilt) {
            assert!(((a - b).abs() as f64) <= scale * 1e-6);
        }
    }

    #[test]
    fn des_overlap_beats_sequential() {
        let tiles = vec![
            StageTimes {
                h2d: 1.0,
                compute: 2.0,
                d2h: 0.5
            };
            6
        ];
        let seq = des_pipeline(&tiles, false, 0, 3);
        let ovl = des_pipeline(&tiles, true, 0, 3);
        assert!(ovl.makespan < seq.makespan);
        // Sequential = 6 * 3.5 = 21; overlapped ≈ 1 + 6*2 + 0.5 = 13.5.
        assert!((seq.makespan - 21.0).abs() < 1e-9);
        assert!((ovl.makespan - 13.5).abs() < 1e-9);
    }

    #[test]
    fn des_buffer_limit_throttles_prefetch() {
        // Copies are fast; with only 1 staging buffer, copy i must wait for
        // compute i-1 to finish, serializing the pipeline.
        let tiles = vec![
            StageTimes {
                h2d: 0.1,
                compute: 1.0,
                d2h: 0.1
            };
            4
        ];
        let tight = des_pipeline(&tiles, true, 0, 1);
        let roomy = des_pipeline(&tiles, true, 0, 3);
        assert!(roomy.makespan <= tight.makespan);
    }
}
