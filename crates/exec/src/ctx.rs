//! Execution context: reusable scratch buffers.

use std::sync::Mutex;

/// Most scratch buffers the pool keeps between leases.
const MAX_POOLED: usize = 32;

/// Per-run execution state shared by all kernels of a backend: a bounded
/// pool of byte buffers leased by the merge/compress and decode kernels,
/// so steady-state chunks stop allocating (the `I1..I3`/`O1..O3` reuse
/// discipline of the paper's device buffers, applied to host scratch).
///
/// The context is `Sync`: a fan's workers lease distinct buffers
/// concurrently.
#[derive(Debug, Default)]
pub struct ExecCtx {
    scratch: Mutex<Vec<Vec<u8>>>,
}

impl ExecCtx {
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
        if pool.len() < MAX_POOLED {
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
}
