//! The multi-core host backend: fan-out over level groups and merged
//! units.

use crate::backend::{compress_one_unit, stream_from_chunk, Backend, EncodedStream};
use crate::ctx::ExecCtx;
use hpmdr_bitplane::{BitplaneChunk, BitplaneFloat, Layout};
use hpmdr_lossless::{CompressedGroup, HybridCompressor};
use rayon::prelude::*;

/// Multi-threaded host execution — the default backend of the façade.
///
/// Parallelism shape (mirroring the paper's GPU kernels, which assign
/// independent tiles/planes/units to independent thread blocks):
///
/// * `map_batch` fans out **per item** (a chunk of the chunk grid);
/// * `encode_and_compress` fans out **per level group** — groups are
///   fully independent streams;
/// * `compress_units` fans out **per merged unit** — units compress
///   disjoint plane ranges;
/// * element-parallel leaf kernels (decompose lines, plane transposes,
///   decoder materialization) split at `threads` width via `install`.
///
/// Every fan runs on the process's one worker pool and draws on its one
/// core budget (see the `rayon` shim): a fan takes only the cores no
/// other thread holds, so a fan nested inside a batch item runs inline
/// once the items fill the machine, and concurrent clients or pipeline
/// stages that already occupy every core fan nothing.
///
/// Work is only ever *split*, never reassociated, so artifacts are
/// bit-identical to [`crate::ScalarBackend`]'s (property-tested in
/// `tests/tests/backend_equivalence.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelBackend {
    threads: usize,
}

impl Default for ParallelBackend {
    fn default() -> Self {
        ParallelBackend::new()
    }
}

impl ParallelBackend {
    /// Backend as wide as the host (free: the width is read once per
    /// process).
    pub fn new() -> Self {
        Self::with_threads(rayon::host_threads())
    }

    /// Backend splitting its kernels `threads` ways (1 behaves like
    /// [`crate::ScalarBackend`]).
    pub fn with_threads(threads: usize) -> Self {
        ParallelBackend {
            threads: threads.max(1),
        }
    }
}

impl Backend for ParallelBackend {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        rayon::install(self.threads, f)
    }

    fn compress_units(
        &self,
        ctx: &ExecCtx,
        chunk: &BitplaneChunk,
        group_size: usize,
        compressor: &HybridCompressor,
    ) -> Vec<CompressedGroup> {
        let m = group_size.max(1);
        let num_units = chunk.num_planes().div_ceil(m);
        self.install(|| {
            (0..num_units)
                .into_par_iter()
                .map(|u| compress_one_unit(ctx, chunk, u, m, compressor))
                .collect()
        })
    }

    fn map_batch<T, R, F>(&self, _ctx: &ExecCtx, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Send + Sync,
    {
        self.install(|| items.par_iter().map(&f).collect())
    }

    fn encode_and_compress<F: BitplaneFloat>(
        &self,
        ctx: &ExecCtx,
        groups: &[Vec<F>],
        planes: usize,
        layout: Layout,
        group_size: usize,
        compressor: &HybridCompressor,
    ) -> Vec<EncodedStream> {
        let m = group_size.max(1);
        self.install(|| {
            groups
                .par_iter()
                .map(|g| {
                    let chunk = hpmdr_bitplane::encode(g, planes, layout);
                    let num_units = chunk.num_planes().div_ceil(m);
                    let units: Vec<CompressedGroup> = (0..num_units)
                        .into_par_iter()
                        .map(|u| compress_one_unit(ctx, &chunk, u, m, compressor))
                        .collect();
                    stream_from_chunk(&chunk, m, units)
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::ScalarBackend;

    fn field(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.17).sin() * 2.0 + (i as f32 * 0.013).cos())
            .collect()
    }

    #[test]
    fn parallel_matches_scalar_bit_for_bit() {
        let ctx = ExecCtx::default();
        let scalar = ScalarBackend::new();
        let parallel = ParallelBackend::with_threads(4);
        let compressor = HybridCompressor::new(Default::default());
        let groups: Vec<Vec<f32>> = (0..5).map(|g| field(100 + 37 * g)).collect();
        let a =
            scalar.encode_and_compress(&ctx, &groups, 32, Layout::Interleaved32, 4, &compressor);
        let b =
            parallel.encode_and_compress(&ctx, &groups, 32, Layout::Interleaved32, 4, &compressor);
        assert_eq!(a, b);
    }

    #[test]
    fn map_batch_preserves_input_order() {
        let ctx = ExecCtx::default();
        let items: Vec<usize> = (0..57).collect();
        let square = |&i: &usize| i * i;
        let scalar = ScalarBackend::new().map_batch(&ctx, &items, square);
        let parallel = ParallelBackend::with_threads(4).map_batch(&ctx, &items, square);
        assert_eq!(scalar, parallel);
        assert_eq!(scalar[10], 100);
    }

    #[test]
    fn thread_budget_is_clamped() {
        assert_eq!(ParallelBackend::with_threads(0).threads(), 1);
        assert_eq!(ParallelBackend::new().threads(), rayon::host_threads());
        assert_eq!(ParallelBackend::default(), ParallelBackend::new());
    }

    #[test]
    fn a_panicking_batch_item_reaches_the_caller_and_the_next_batch_runs() {
        let ctx = ExecCtx::default();
        let backend = ParallelBackend::with_threads(4);
        let items: Vec<usize> = (0..8).collect();
        let failed = std::panic::catch_unwind(|| {
            backend.map_batch(&ctx, &items, |&i| {
                assert_ne!(i, 5, "item 5 failed");
                i
            })
        });
        assert!(failed.is_err());
        assert_eq!(backend.map_batch(&ctx, &items, |&i| i), items);
    }

    #[test]
    fn decompose_agrees_with_scalar() {
        use hpmdr_mgard::Hierarchy;
        let ctx = ExecCtx::default();
        let h = Hierarchy::full(&[33, 20]);
        let orig: Vec<f64> = field(33 * 20).into_iter().map(f64::from).collect();
        let mut a = orig.clone();
        let mut b = orig;
        ScalarBackend::new().decompose(&ctx, &mut a, &h, true);
        ParallelBackend::with_threads(4).decompose(&ctx, &mut b, &h, true);
        assert_eq!(a, b, "decompose must be bit-identical across backends");
    }
}
