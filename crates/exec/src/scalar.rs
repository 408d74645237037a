//! The portable single-threaded reference backend.

use crate::backend::Backend;

/// Sequential execution on the calling thread — the "most compatible
/// processor" configuration the paper's portability story falls back to.
///
/// All kernels run one thread wide, so even leaf kernels that know how
/// to parallelize execute sequentially. This is also what makes the
/// backend the semantics reference: no scheduling, no nondeterministic
/// interleaving, one canonical execution order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScalarBackend;

impl ScalarBackend {
    /// Construct the scalar backend.
    pub fn new() -> Self {
        ScalarBackend
    }
}

impl Backend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn threads(&self) -> usize {
        1
    }

    fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        // One thread wide: every parallel-capable leaf kernel runs its
        // parts in order on the calling thread.
        rayon::install(1, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::ExecCtx;
    use hpmdr_bitplane::Layout;
    use hpmdr_lossless::{HybridCompressor, HybridConfig};

    #[test]
    fn scalar_reports_one_thread() {
        let b = ScalarBackend::new();
        assert_eq!(b.threads(), 1);
        assert_eq!(b.name(), "scalar");
        b.install(|| assert_eq!(rayon::current_num_threads(), 1));
    }

    #[test]
    fn direct_payloads_hold_their_own_size_not_the_scratch_buffers() {
        // Two chunks' level groups in ingest order through one context:
        // the tiny coarse groups of the second chunk (`Direct`, under the
        // size threshold) lease the scratch buffer its predecessor's
        // largest units grew, and must not keep that capacity.
        let ctx = ExecCtx::default();
        let backend = ScalarBackend::new();
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
        let backend = ScalarBackend::new();
        let data: Vec<f32> = (0..300).map(|i| (i as f32 * 0.21).sin() * 3.0).collect();
        let compressor = HybridCompressor::new(HybridConfig::default());
        let streams =
            backend.encode_and_compress(&ctx, &[data], 32, Layout::Interleaved32, 5, &compressor);
        assert_eq!(streams.len(), 1);
        let s = &streams[0];
        let view = crate::backend::StreamView {
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
