//! Runtime-dispatched SIMD backend.

use crate::backend::Backend;
use crate::ctx::ExecCtx;
use hpmdr_bitplane::{BitplaneChunk, BitplaneFloat, Layout};
use hpmdr_simd::Isa;

/// Single-threaded execution with the bitplane encode loops dispatched to
/// vectorized kernels (AVX2 on x86-64, NEON on aarch64, scalar elsewhere).
///
/// The instruction set is probed **once at construction** and pinned for
/// the backend's lifetime, so every kernel call dispatches through a plain
/// field read — no per-call feature detection. [`SimdBackend::new`]
/// honors the `HPMDR_FORCE_SCALAR` and `HPMDR_SIMD` environment overrides
/// (see [`Isa::detect`]); [`SimdBackend::with_isa`] pins an explicit ISA,
/// degraded to scalar if the host lacks it.
///
/// # Bit identity
///
/// Artifacts are **byte-identical** to [`ScalarBackend`](crate::ScalarBackend)'s
/// for every ISA: the vector kernels restructure *how* bits are computed
/// (transposes, conversion widths), never *which* values — arithmetic is
/// never reassociated across elements. The
/// `backend_equivalence` and `golden_bytes` suites in `tests/` enforce
/// this; it is the portability property HP-MDR's refactored data relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimdBackend {
    isa: Isa,
}

impl SimdBackend {
    /// Backend using the best ISA the host supports, subject to the
    /// `HPMDR_FORCE_SCALAR` / `HPMDR_SIMD` environment overrides.
    pub fn new() -> Self {
        SimdBackend { isa: Isa::detect() }
    }

    /// Backend pinned to the best ISA the hardware supports, ignoring
    /// environment overrides.
    pub fn best_available() -> Self {
        SimdBackend {
            isa: Isa::best_available(),
        }
    }

    /// Backend pinned to `isa`, degraded to [`Isa::Scalar`] if the host
    /// does not support it (never panics, never emits illegal
    /// instructions).
    pub fn with_isa(isa: Isa) -> Self {
        SimdBackend {
            isa: isa.or_scalar(),
        }
    }

    /// Instruction set every kernel of this backend dispatches to.
    pub fn isa(&self) -> Isa {
        self.isa
    }
}

impl Default for SimdBackend {
    fn default() -> Self {
        SimdBackend::new()
    }
}

impl Backend for SimdBackend {
    fn name(&self) -> &'static str {
        match self.isa {
            Isa::Scalar => "simd-scalar",
            Isa::Avx2 => "simd-avx2",
            Isa::Neon => "simd-neon",
        }
    }

    fn threads(&self) -> usize {
        1
    }

    fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        // One thread wide, as the scalar backend: SIMD speeds up
        // the lanes inside a kernel, not the scheduling around it.
        rayon::install(1, f)
    }

    fn encode_group<F: BitplaneFloat>(
        &self,
        _ctx: &ExecCtx,
        group: &[F],
        planes: usize,
        layout: Layout,
    ) -> BitplaneChunk {
        self.install(|| hpmdr_bitplane::encode_with_isa(group, planes, layout, self.isa))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::StreamView;
    use crate::ScalarBackend;
    use hpmdr_lossless::{HybridCompressor, HybridConfig};

    fn field(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.21).sin() * 3.0).collect()
    }

    #[test]
    fn names_reflect_pinned_isa() {
        assert_eq!(SimdBackend::with_isa(Isa::Scalar).name(), "simd-scalar");
        let b = SimdBackend::best_available();
        assert!(b.name().starts_with("simd-"));
        assert!(b.isa().is_available());
        assert_eq!(b.threads(), 1);
    }

    #[test]
    fn unavailable_isa_pins_scalar() {
        if !Isa::Avx2.is_available() {
            assert_eq!(SimdBackend::with_isa(Isa::Avx2).isa(), Isa::Scalar);
        }
        if !Isa::Neon.is_available() {
            assert_eq!(SimdBackend::with_isa(Isa::Neon).isa(), Isa::Scalar);
        }
    }

    #[test]
    fn artifacts_match_scalar_backend_exactly() {
        let ctx = ExecCtx::default();
        let scalar = ScalarBackend::new();
        let compressor = HybridCompressor::new(HybridConfig::default());
        for isa in [Isa::Scalar, Isa::Avx2, Isa::Neon] {
            if !isa.is_available() {
                continue;
            }
            let simd = SimdBackend::with_isa(isa);
            for n in [1usize, 31, 32, 33, 300, 1025] {
                let groups = [field(n)];
                let want = scalar.encode_and_compress(
                    &ctx,
                    &groups,
                    32,
                    Layout::Interleaved32,
                    4,
                    &compressor,
                );
                let got = simd.encode_and_compress(
                    &ctx,
                    &groups,
                    32,
                    Layout::Interleaved32,
                    4,
                    &compressor,
                );
                assert_eq!(got, want, "isa={isa} n={n}");
            }
        }
    }

    #[test]
    fn encode_compress_decode_roundtrip() {
        let ctx = ExecCtx::default();
        let backend = SimdBackend::new();
        let data = field(300);
        let compressor = HybridCompressor::new(HybridConfig::default());
        let streams =
            backend.encode_and_compress(&ctx, &[data], 32, Layout::Interleaved32, 4, &compressor);
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
    }
}
