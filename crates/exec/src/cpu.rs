//! The host executor: the portable kernels at a chosen thread width.

use crate::backend::Backend;

/// Host execution `threads` wide — the one CPU backend, and the façade's
/// default at host width.
///
/// Parallelism shape (mirroring the paper's GPU kernels, which assign
/// independent tiles/planes/units to independent thread blocks), all of
/// it in [`Backend`]'s provided bodies:
///
/// * `map_batch` fans out **per item** (a chunk of the chunk grid);
/// * `encode_and_compress` fans out **per level group** — groups are
///   fully independent streams — and within a group **per merged unit**;
/// * element-parallel leaf kernels (decompose lines, plane transposes,
///   decoder materialization) split at `threads` width via `install`.
///
/// Every fan runs on the process's one worker pool and draws on its one
/// core budget (see `hpmdr_rt`): a fan takes only the cores no
/// other thread holds, so a fan nested inside a batch item runs inline
/// once the items fill the machine, and concurrent clients that already
/// occupy every core fan nothing. At
/// `with_threads(1)` every fan runs its parts in order on the calling
/// thread — one canonical execution order, the semantics reference.
///
/// Work is only ever *split*, never reassociated, so artifacts are
/// bit-identical at every width (property-tested in
/// `tests/tests/backend_equivalence.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuBackend {
    threads: usize,
}

impl Default for CpuBackend {
    fn default() -> Self {
        CpuBackend::new()
    }
}

impl CpuBackend {
    /// Backend as wide as the host (free: the width is read once per
    /// process).
    pub fn new() -> Self {
        Self::with_threads(hpmdr_rt::host_threads())
    }

    /// Backend splitting its kernels `threads` ways; 1 runs everything on
    /// the calling thread.
    pub fn with_threads(threads: usize) -> Self {
        CpuBackend {
            threads: threads.max(1),
        }
    }
}

impl Backend for CpuBackend {
    fn name(&self) -> &'static str {
        "cpu"
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        hpmdr_rt::install(self.threads, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::StreamView;
    use crate::ctx::ExecCtx;
    use hpmdr_bitplane::Layout;
    use hpmdr_lossless::{HybridCompressor, HybridConfig};

    fn field(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.17).sin() * 2.0 + (i as f32 * 0.013).cos())
            .collect()
    }

    #[test]
    fn width_four_matches_width_one_bit_for_bit() {
        let ctx = ExecCtx::default();
        let one = CpuBackend::with_threads(1);
        let four = CpuBackend::with_threads(4);
        let compressor = HybridCompressor::new(Default::default());
        let groups: Vec<Vec<f32>> = (0..5).map(|g| field(100 + 37 * g)).collect();
        let a = one.encode_and_compress(&ctx, &groups, 32, Layout::Interleaved32, 4, &compressor);
        let b = four.encode_and_compress(&ctx, &groups, 32, Layout::Interleaved32, 4, &compressor);
        assert_eq!(a, b);
    }

    #[test]
    fn map_batch_preserves_input_order() {
        let ctx = ExecCtx::default();
        let items: Vec<usize> = (0..57).collect();
        let square = |&i: &usize| i * i;
        let one = CpuBackend::with_threads(1).map_batch(&ctx, &items, square);
        let four = CpuBackend::with_threads(4).map_batch(&ctx, &items, square);
        assert_eq!(one, four);
        assert_eq!(one[10], 100);
    }

    #[test]
    fn thread_budget_is_clamped() {
        assert_eq!(CpuBackend::with_threads(0).threads(), 1);
        assert_eq!(CpuBackend::new().threads(), hpmdr_rt::host_threads());
        assert_eq!(CpuBackend::default(), CpuBackend::new());
    }

    #[test]
    fn width_one_reports_one_thread() {
        let b = CpuBackend::with_threads(1);
        assert_eq!(b.threads(), 1);
        assert_eq!(b.name(), "cpu");
        b.install(|| assert_eq!(hpmdr_rt::current_num_threads(), 1));
    }

    #[test]
    fn a_panicking_batch_item_reaches_the_caller_and_the_next_batch_runs() {
        let ctx = ExecCtx::default();
        let backend = CpuBackend::with_threads(4);
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
    fn decompose_agrees_at_widths_one_and_four() {
        use hpmdr_mgard::Hierarchy;
        let ctx = ExecCtx::default();
        let h = Hierarchy::full(&[33, 20]);
        let orig: Vec<f64> = field(33 * 20).into_iter().map(f64::from).collect();
        let mut a = orig.clone();
        let mut b = orig;
        CpuBackend::with_threads(1).decompose(&ctx, &mut a, &h, true);
        CpuBackend::with_threads(4).decompose(&ctx, &mut b, &h, true);
        assert_eq!(a, b, "decompose must be bit-identical at every width");
    }

    #[test]
    fn materializing_into_the_grid_is_materialize_then_inject() {
        // Odd, even and prime extents in 1-D, 2-D and 3-D; the last two
        // shapes' finest groups are large enough to split across four
        // workers. Every group of a decomposed field goes through its own
        // decoder at a few plane counts.
        use hpmdr_bitplane::native::ProgressiveDecoder;
        use hpmdr_bitplane::Reconstruction;
        use hpmdr_mgard::{decompose, extract_levels, inject_levels, Hierarchy};
        let ctx = ExecCtx::default();
        let shapes = [
            vec![33usize],
            vec![64],
            vec![97],
            vec![17, 12],
            vec![31, 37],
            vec![9, 8, 7],
            vec![13, 11, 5],
            vec![48, 48, 48],
            vec![41, 43, 47],
        ];
        for shape in shapes {
            let h = Hierarchy::full(&shape);
            let mut data = field(h.len());
            decompose(&mut data, &h, true);
            let chunks: Vec<_> = extract_levels(&data, &h)
                .iter()
                .map(|g| hpmdr_bitplane::encode(g, 32, Layout::Interleaved32))
                .collect();
            for (k, recon) in [
                (3, Reconstruction::Truncate),
                (20, Reconstruction::Midpoint),
            ] {
                let decoders: Vec<ProgressiveDecoder> = chunks
                    .iter()
                    .map(|c| {
                        let mut dec = ProgressiveDecoder::new(c);
                        dec.advance(c, k);
                        dec
                    })
                    .collect();
                for threads in [1, 4] {
                    let backend = CpuBackend::with_threads(threads);
                    let groups: Vec<Vec<f32>> = decoders
                        .iter()
                        .zip(&chunks)
                        .map(|(dec, c)| backend.materialize(&ctx, dec, c, recon))
                        .collect();
                    let want = inject_levels(&groups, &h);
                    let mut grid = vec![f32::NAN; h.len()];
                    for (g, (dec, c)) in decoders.iter().zip(&chunks).enumerate() {
                        backend.materialize_group(&ctx, dec, c, recon, &mut grid, &h, g);
                    }
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&grid),
                        bits(&want),
                        "{shape:?} k={k} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn direct_payloads_hold_their_own_size_not_the_scratch_buffers() {
        // Two chunks' level groups in ingest order through one context:
        // the tiny coarse groups of the second chunk (`Direct`, under the
        // size threshold) lease the scratch buffer its predecessor's
        // largest units grew, and must not keep that capacity.
        let ctx = ExecCtx::default();
        let backend = CpuBackend::with_threads(1);
        let compressor = HybridCompressor::new(HybridConfig::default());
        let mut s = 0x2545_f491u32;
        let groups: Vec<Vec<f32>> = [1usize, 7, 19, 98, 604, 4184, 30_000]
            .iter()
            .map(|&n| {
                (0..n)
                    .map(|i| {
                        s ^= s << 13;
                        s ^= s >> 17;
                        s ^= s << 5;
                        (i as f32 * 0.01).sin() + (s >> 8) as f32 * 1e-9
                    })
                    .collect()
            })
            .collect();
        let (mut moved, mut largest) = (0, 0);
        for chunk in 0..2 {
            let streams = backend.encode_and_compress(
                &ctx,
                &groups,
                32,
                Layout::Interleaved32,
                4,
                &compressor,
            );
            for (g, stream) in streams.iter().enumerate() {
                for (u, unit) in stream.units.iter().enumerate() {
                    let (len, cap) = (unit.payload.len(), unit.payload.capacity());
                    assert!(
                        cap <= len + 16,
                        "chunk {chunk} group {g} unit {u} ({:?}): {len} bytes hold {cap}",
                        unit.codec
                    );
                    moved += usize::from(unit.codec == hpmdr_lossless::Codec::Direct);
                    largest = largest.max(unit.original_len);
                }
            }
        }
        assert!(
            moved > 0 && largest > 16 * 640,
            "no buffer was ever oversized"
        );
    }

    #[test]
    fn encode_compress_decode_roundtrip() {
        let ctx = ExecCtx::default();
        let backend = CpuBackend::with_threads(1);
        let data: Vec<f32> = (0..300).map(|i| (i as f32 * 0.21).sin() * 3.0).collect();
        let compressor = HybridCompressor::new(HybridConfig::default());
        let streams =
            backend.encode_and_compress(&ctx, &[data], 32, Layout::Interleaved32, 5, &compressor);
        assert_eq!(streams.len(), 1);
        let s = &streams[0];
        let view = StreamView {
            n: s.n,
            exp: s.exp,
            num_planes: s.num_planes,
            layout: s.layout,
            group_size: s.group_size,
            plane_bytes: s.plane_bytes,
            units: &s.units,
        };
        let full = backend
            .decode_units(&ctx, view, s.units.len(), &compressor, "f32")
            .unwrap();
        full.validate().unwrap();
        assert_eq!(full.num_planes(), s.num_planes);

        // Any run of units decodes to exactly its slice of the full
        // arena; the sign plane comes with unit 0 and only with it. The
        // group size 5 leaves the last unit short (32 = 6·5 + 2).
        let units = s.units.len();
        for (a, b) in [
            (0, 1),
            (0, units),
            (1, 3),
            (3, units),
            (units - 1, units + 4),
            (2, 2),
        ] {
            let run = backend
                .decode_unit_range(&ctx, view, a..b, &compressor)
                .unwrap();
            let planes = view.planes_in_units(a)..view.planes_in_units(b.min(units));
            assert_eq!(run.planes, full.plane_range(planes.start, planes.end));
            assert_eq!(run.signs, (a == 0).then(|| full.signs.clone()), "{a}..{b}");
        }
    }
}
