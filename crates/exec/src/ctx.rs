//! Execution context: tiling parameters and reusable scratch buffers.

use std::sync::Mutex;

/// Default leading-dimension rows per pipeline tile.
pub const DEFAULT_TILE_ROWS: usize = 16;

/// Per-run execution state shared by all kernels of a backend.
///
/// * **Tiling** — how many leading-dimension rows each pipeline tile
///   spans (the staging-buffer granularity of the Figure 4 schedule).
/// * **Buffer reuse** — a bounded pool of byte buffers leased by the
///   merge/compress and decode kernels, so steady-state pipeline tiles
///   stop allocating (the `I1..I3`/`O1..O3` reuse discipline of the
///   paper's device buffers, applied to host scratch).
///
/// The context is `Sync`: a fan's workers lease distinct buffers
/// concurrently.
#[derive(Debug)]
pub struct ExecCtx {
    tile_rows: usize,
    scratch: Mutex<Vec<Vec<u8>>>,
    max_pooled: usize,
}

impl Default for ExecCtx {
    fn default() -> Self {
        ExecCtx::new(DEFAULT_TILE_ROWS)
    }
}

impl ExecCtx {
    /// Context tiling `tile_rows` leading rows per pipeline tile.
    pub fn new(tile_rows: usize) -> Self {
        ExecCtx {
            tile_rows: tile_rows.max(1),
            scratch: Mutex::new(Vec::new()),
            max_pooled: 32,
        }
    }

    /// Rows per pipeline tile.
    pub fn tile_rows(&self) -> usize {
        self.tile_rows
    }

    /// Number of scratch buffers currently pooled (for tests/metrics).
    pub fn pooled_buffers(&self) -> usize {
        self.scratch.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Lease a cleared scratch buffer, run `f`, return it to the pool.
    pub fn with_buffer<R>(&self, f: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        let mut buf = self
            .scratch
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .pop()
            .unwrap_or_default();
        buf.clear();
        let out = f(&mut buf);
        let mut pool = self.scratch.lock().unwrap_or_else(|p| p.into_inner());
        if pool.len() < self.max_pooled {
            pool.push(buf);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_reused() {
        let ctx = ExecCtx::default();
        let ptr1 = ctx.with_buffer(|b| {
            b.extend_from_slice(&[1, 2, 3]);
            b.as_ptr() as usize + b.capacity() // identify the allocation
        });
        let (ptr2, len2) = ctx.with_buffer(|b| (b.as_ptr() as usize + b.capacity(), b.len()));
        assert_eq!(ptr1, ptr2, "second lease reuses the same allocation");
        assert_eq!(len2, 0, "leased buffers arrive cleared");
        assert_eq!(ctx.pooled_buffers(), 1);
    }

    #[test]
    fn tile_rows_clamped_to_one() {
        assert_eq!(ExecCtx::new(0).tile_rows(), 1);
        assert_eq!(ExecCtx::new(64).tile_rows(), 64);
    }
}
