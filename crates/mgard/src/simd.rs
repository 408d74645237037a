//! Runtime-dispatched SIMD kernels for [`quantize`](crate::quantize).
//!
//! The MGARD baseline codec's encode side spends most of its
//! coefficient-processing time in two embarrassingly parallel loops:
//! fixed-point quantization (`(v * inv).round() as i64`) and the zig-zag
//! map feeding the varint byte stream. This module provides AVX2 and NEON
//! implementations of both behind the same [`Isa`] dispatch used by the
//! bitplane and Huffman kernels. (Dequantization stays the scalar
//! [`dequantize`](crate::quantize::dequantize): a vector kernel measured
//! slower than the loop the compiler already vectorises.)
//!
//! # Bit identity
//!
//! Every kernel reproduces the scalar reference *exactly*, element by
//! element:
//!
//! * **Rounding.** Rust's `f64::round` rounds half away from zero. NEON has
//!   that mode in hardware (`FRINTA`); AVX2 only rounds half to even, so
//!   the x86 kernels round ties-even and then add `copysign(1, s)` to the
//!   lanes where `s - r == copysign(0.5, s)` — precisely the ties the two
//!   modes disagree on. The subtraction `s - r` is exact (Sterbenz lemma)
//!   for every value the conversion below accepts, so the fix-up is exact.
//! * **Conversion.** `as i64` saturates and maps NaN to zero. NEON's
//!   `FCVTZS` has identical semantics. AVX2 has no packed `f64 -> i64`
//!   conversion, so the kernels use the magic-constant trick
//!   (`(r + 1.5·2^52) reinterpreted - magic`), which is exact for
//!   `|r| ≤ 2^51`; lanes outside that range (or NaN) take a per-block
//!   scalar fallback that replicates the Rust cast verbatim.
//!
//! # Safety model
//!
//! All `unsafe` lives in `#[target_feature]` leaf functions with a single
//! precondition: the named feature is available on the running CPU. Safe
//! entry points establish it by dispatching on [`Isa::is_available`]
//! (via [`Isa::or_scalar`]) before any kernel is selected.

use crate::Real;
use std::any::TypeId;

pub use hpmdr_simd::Isa;

/// [`quantize`](crate::quantize::quantize) with the hot loop dispatched to
/// `isa`'s vectorized kernel (degraded to scalar if unavailable). Output is
/// bit-identical to the scalar reference for every ISA and input, including
/// non-finite values and magnitudes that saturate `i64`.
///
/// # Panics
/// Panics if `eb` is not positive.
pub fn quantize_with_isa<F: Real>(values: &[F], eb: f64, isa: Isa) -> Vec<i64> {
    assert!(eb > 0.0, "error bound must be positive");
    let inv = 1.0 / (2.0 * eb);
    let mut out = vec![0i64; values.len()];
    if !quantize_into::<F, false>(values, inv, isa.or_scalar(), &mut out) {
        for (o, v) in out.iter_mut().zip(values) {
            *o = (v.to_f64() * inv).round() as i64;
        }
    }
    out
}

/// Fused quantize + zig-zag: returns `((c << 1) ^ (c >> 63)) as u64` for
/// each quantization code `c`, with the zig-zag map applied in-register so
/// the codes never round-trip through memory. Feeding the result through a
/// varint writer yields the same bytes as
/// [`codes_to_bytes`](crate::quantize::codes_to_bytes) on
/// [`quantize_with_isa`]'s output.
///
/// # Panics
/// Panics if `eb` is not positive.
pub fn quantize_zigzag_with_isa<F: Real>(values: &[F], eb: f64, isa: Isa) -> Vec<u64> {
    assert!(eb > 0.0, "error bound must be positive");
    let inv = 1.0 / (2.0 * eb);
    let mut out = vec![0u64; values.len()];
    // SAFETY: u64 and i64 have identical size/alignment; the kernels write
    // zig-zagged values whose bit patterns are the intended u64 contents.
    let out_i = unsafe { std::slice::from_raw_parts_mut(out.as_mut_ptr() as *mut i64, out.len()) };
    if !quantize_into::<F, true>(values, inv, isa.or_scalar(), out_i) {
        for (o, v) in out_i.iter_mut().zip(values) {
            let c = (v.to_f64() * inv).round() as i64;
            *o = (c << 1) ^ (c >> 63);
        }
    }
    out
}

/// Dispatch to a vector quantize kernel; `false` means no kernel applies
/// (unsupported ISA/arch/type) and the caller must run the scalar loop.
fn quantize_into<F: Real, const ZIGZAG: bool>(
    values: &[F],
    inv: f64,
    isa: Isa,
    out: &mut [i64],
) -> bool {
    debug_assert_eq!(values.len(), out.len());
    let _ = (values, inv, isa, &mut *out);
    #[cfg(target_arch = "x86_64")]
    if isa == Isa::Avx2 {
        if TypeId::of::<F>() == TypeId::of::<f32>() {
            // SAFETY: F is f32 (TypeId match), so the slice cast is a
            // layout no-op; Avx2 was verified available by the dispatch.
            unsafe {
                let v = std::slice::from_raw_parts(values.as_ptr() as *const f32, values.len());
                quantize_f32_avx2::<ZIGZAG>(v, inv, out);
            }
            return true;
        }
        if TypeId::of::<F>() == TypeId::of::<f64>() {
            // SAFETY: F is f64 (TypeId match), so the slice cast is a
            // layout no-op; Avx2 was verified available by the dispatch.
            unsafe {
                let v = std::slice::from_raw_parts(values.as_ptr() as *const f64, values.len());
                quantize_f64_avx2::<ZIGZAG>(v, inv, out);
            }
            return true;
        }
    }
    #[cfg(target_arch = "aarch64")]
    if isa == Isa::Neon {
        if TypeId::of::<F>() == TypeId::of::<f32>() {
            // SAFETY: F is f32 (TypeId match), so the slice cast is a
            // layout no-op; Neon was verified available by the dispatch.
            unsafe {
                let v = std::slice::from_raw_parts(values.as_ptr() as *const f32, values.len());
                quantize_f32_neon::<ZIGZAG>(v, inv, out);
            }
            return true;
        }
        if TypeId::of::<F>() == TypeId::of::<f64>() {
            // SAFETY: F is f64 (TypeId match), so the slice cast is a
            // layout no-op; Neon was verified available by the dispatch.
            unsafe {
                let v = std::slice::from_raw_parts(values.as_ptr() as *const f64, values.len());
                quantize_f64_neon::<ZIGZAG>(v, inv, out);
            }
            return true;
        }
    }
    false
}

/// Scalar zig-zag map, shared by fallback blocks and tails.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
#[inline]
fn zz(c: i64) -> i64 {
    (c << 1) ^ (c >> 63)
}

/// 1.5 · 2^52: adding it to a double with `|r| ≤ 2^51` pins the exponent,
/// leaving `r`'s two's-complement integer value in the low mantissa bits.
#[cfg(target_arch = "x86_64")]
const MAGIC_BITS: i64 = 0x4338_0000_0000_0000;
#[cfg(target_arch = "x86_64")]
const MAGIC_LIMIT: f64 = 2_251_799_813_685_248.0; // 2^51

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{zz, MAGIC_BITS, MAGIC_LIMIT};
    use std::arch::x86_64::*;

    /// Round ties-even result `r` of `s` fixed up to ties-away (`f64::round`
    /// semantics), then converted to `i64` via the magic constant, with a
    /// scalar fallback closure for out-of-range blocks.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    // SAFETY: precondition is AVX2 availability, dispatch-established.
    pub(super) unsafe fn round_away_convert(s: __m256d) -> (__m256i, bool) {
        let neg_zero = _mm256_set1_pd(-0.0);
        let r = _mm256_round_pd::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(s);
        let sign = _mm256_and_pd(s, neg_zero);
        let diff = _mm256_sub_pd(s, r);
        let half_s = _mm256_or_pd(_mm256_set1_pd(0.5), sign);
        let tie = _mm256_cmp_pd::<_CMP_EQ_OQ>(diff, half_s);
        let adj = _mm256_and_pd(_mm256_or_pd(_mm256_set1_pd(1.0), sign), tie);
        let r = _mm256_add_pd(r, adj);
        // Magic conversion is exact only for |r| ≤ 2^51; NaN compares false.
        let mag = _mm256_andnot_pd(neg_zero, r);
        let ok = _mm256_cmp_pd::<_CMP_LE_OQ>(mag, _mm256_set1_pd(MAGIC_LIMIT));
        let q = _mm256_sub_epi64(
            _mm256_castpd_si256(_mm256_add_pd(
                r,
                _mm256_set1_pd(f64::from_bits(MAGIC_BITS as u64)),
            )),
            _mm256_set1_epi64x(MAGIC_BITS),
        );
        (q, _mm256_movemask_pd(ok) == 0xF)
    }

    /// Zig-zag in-register: `(c << 1) ^ (c >> 63)`. AVX2 has no 64-bit
    /// arithmetic right shift, but `c >> 63` is exactly the all-ones mask
    /// `0 > c`, which `cmpgt` produces directly.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    // SAFETY: precondition is AVX2 availability, dispatch-established.
    pub(super) unsafe fn zigzag(q: __m256i) -> __m256i {
        _mm256_xor_si256(
            _mm256_slli_epi64::<1>(q),
            _mm256_cmpgt_epi64(_mm256_setzero_si256(), q),
        )
    }

    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    // SAFETY: precondition is AVX2 availability (dispatch-gated); all
    // accesses stay inside the argument slices.
    pub(super) unsafe fn quantize_f64<const ZIGZAG: bool>(
        values: &[f64],
        inv: f64,
        out: &mut [i64],
    ) {
        let vinv = _mm256_set1_pd(inv);
        let n = values.len() & !3;
        for i in (0..n).step_by(4) {
            let x = _mm256_loadu_pd(values.as_ptr().add(i));
            let (q, ok) = round_away_convert(_mm256_mul_pd(x, vinv));
            if ok {
                let q = if ZIGZAG { zigzag(q) } else { q };
                _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, q);
            } else {
                // Saturating or non-finite lanes: replicate the Rust cast.
                for j in i..i + 4 {
                    let c = (values[j] * inv).round() as i64;
                    out[j] = if ZIGZAG { zz(c) } else { c };
                }
            }
        }
        for i in n..values.len() {
            let c = (values[i] * inv).round() as i64;
            out[i] = if ZIGZAG { zz(c) } else { c };
        }
    }

    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    // SAFETY: precondition is AVX2 availability (dispatch-gated); all
    // accesses stay inside the argument slices.
    pub(super) unsafe fn quantize_f32<const ZIGZAG: bool>(
        values: &[f32],
        inv: f64,
        out: &mut [i64],
    ) {
        let vinv = _mm256_set1_pd(inv);
        let n = values.len() & !3;
        for i in (0..n).step_by(4) {
            // Widening f32 -> f64 is exact, matching `v as f64 * inv`.
            let x = _mm256_cvtps_pd(_mm_loadu_ps(values.as_ptr().add(i)));
            let (q, ok) = round_away_convert(_mm256_mul_pd(x, vinv));
            if ok {
                let q = if ZIGZAG { zigzag(q) } else { q };
                _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, q);
            } else {
                for j in i..i + 4 {
                    let c = (values[j] as f64 * inv).round() as i64;
                    out[j] = if ZIGZAG { zz(c) } else { c };
                }
            }
        }
        for i in n..values.len() {
            let c = (values[i] as f64 * inv).round() as i64;
            out[i] = if ZIGZAG { zz(c) } else { c };
        }
    }
}

#[cfg(target_arch = "x86_64")]
use x86::{quantize_f32 as quantize_f32_avx2, quantize_f64 as quantize_f64_avx2};

#[cfg(target_arch = "aarch64")]
mod arm {
    use super::zz;
    use std::arch::aarch64::*;

    /// # Safety
    /// Caller must ensure NEON is available.
    #[target_feature(enable = "neon")]
    // SAFETY: precondition is NEON availability (aarch64 baseline,
    // dispatch-gated); all accesses stay inside the argument slices.
    pub(super) unsafe fn quantize_f64<const ZIGZAG: bool>(
        values: &[f64],
        inv: f64,
        out: &mut [i64],
    ) {
        let n = values.len() & !1;
        for i in (0..n).step_by(2) {
            let s = vmulq_n_f64(vld1q_f64(values.as_ptr().add(i)), inv);
            // FRINTA rounds ties away (f64::round); FCVTZS saturates and
            // maps NaN to 0, exactly matching Rust's `as i64`.
            let q = vcvtq_s64_f64(vrndaq_f64(s));
            let q = if ZIGZAG {
                veorq_s64(vshlq_n_s64::<1>(q), vshrq_n_s64::<63>(q))
            } else {
                q
            };
            vst1q_s64(out.as_mut_ptr().add(i), q);
        }
        for i in n..values.len() {
            let c = (values[i] * inv).round() as i64;
            out[i] = if ZIGZAG { zz(c) } else { c };
        }
    }

    /// # Safety
    /// Caller must ensure NEON is available.
    #[target_feature(enable = "neon")]
    // SAFETY: precondition is NEON availability (aarch64 baseline,
    // dispatch-gated); all accesses stay inside the argument slices.
    pub(super) unsafe fn quantize_f32<const ZIGZAG: bool>(
        values: &[f32],
        inv: f64,
        out: &mut [i64],
    ) {
        let n = values.len() & !1;
        for i in (0..n).step_by(2) {
            // Widening f32 -> f64 is exact, matching `v as f64 * inv`.
            let x = vcvt_f64_f32(vld1_f32(values.as_ptr().add(i)));
            let q = vcvtq_s64_f64(vrndaq_f64(vmulq_n_f64(x, inv)));
            let q = if ZIGZAG {
                veorq_s64(vshlq_n_s64::<1>(q), vshrq_n_s64::<63>(q))
            } else {
                q
            };
            vst1q_s64(out.as_mut_ptr().add(i), q);
        }
        for i in n..values.len() {
            let c = (values[i] as f64 * inv).round() as i64;
            out[i] = if ZIGZAG { zz(c) } else { c };
        }
    }
}

#[cfg(target_arch = "aarch64")]
use arm::{quantize_f32 as quantize_f32_neon, quantize_f64 as quantize_f64_neon};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantize::{codes_to_bytes, quantize};

    fn available_isas() -> Vec<Isa> {
        [Isa::Scalar, Isa::Avx2, Isa::Neon]
            .into_iter()
            .filter(|i| i.is_available())
            .collect()
    }

    /// Value sets covering smooth data, exact ties (with `eb = 0.25`,
    /// `v = 0.25·k` lands on `k/2`, half of which are ties), negatives,
    /// zeros, saturating magnitudes, and non-finite inputs.
    fn f64_cases() -> Vec<Vec<f64>> {
        vec![
            (0..1001).map(|i| (i as f64 * 0.17).sin() * 9.0).collect(),
            (-200..200).map(|i| i as f64 * 0.25).collect(),
            vec![0.0, -0.0, 1.0, -1.0],
            vec![1e300, -1e300, 4e15, -4e15, 2.5e15],
            vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.5, -0.5],
            Vec::new(),
            vec![3.75],
            (0..37).map(|i| i as f64 - 18.0).collect(),
        ]
    }

    fn f32_cases() -> Vec<Vec<f32>> {
        f64_cases()
            .into_iter()
            .map(|v| v.into_iter().map(|x| x as f32).collect())
            .collect()
    }

    #[test]
    fn quantize_with_isa_matches_scalar_f64() {
        for vals in f64_cases() {
            for eb in [0.25, 1e-3, 7.5e-7] {
                let want = quantize(&vals, eb);
                for isa in available_isas() {
                    assert_eq!(
                        quantize_with_isa(&vals, eb, isa),
                        want,
                        "isa={isa} eb={eb} n={}",
                        vals.len()
                    );
                }
            }
        }
    }

    #[test]
    fn quantize_with_isa_matches_scalar_f32() {
        for vals in f32_cases() {
            for eb in [0.25, 1e-3] {
                let want = quantize(&vals, eb);
                for isa in available_isas() {
                    assert_eq!(quantize_with_isa(&vals, eb, isa), want, "isa={isa} eb={eb}");
                }
            }
        }
    }

    #[test]
    fn ties_round_away_from_zero() {
        // eb = 0.25 → inv = 2; v = ±0.25 quantizes to s = ±0.5, a tie.
        let vals = [0.25f64, -0.25, 0.75, -0.75, 1.25, -1.25];
        let want: Vec<i64> = vec![1, -1, 2, -2, 3, -3];
        for isa in available_isas() {
            assert_eq!(quantize_with_isa(&vals, 0.25, isa), want, "isa={isa}");
        }
    }

    #[test]
    fn fused_zigzag_matches_two_pass() {
        for vals in f64_cases() {
            let codes = quantize(&vals, 0.25);
            let want: Vec<u64> = codes
                .iter()
                .map(|&c| ((c << 1) ^ (c >> 63)) as u64)
                .collect();
            for isa in available_isas() {
                assert_eq!(
                    quantize_zigzag_with_isa(&vals, 0.25, isa),
                    want,
                    "isa={isa}"
                );
            }
        }
    }

    #[test]
    fn fused_zigzag_feeds_varint_stream() {
        let vals: Vec<f64> = (0..500).map(|i| (i as f64 * 0.31).cos() * 40.0).collect();
        let eb = 1e-2;
        let want = codes_to_bytes(&quantize(&vals, eb));
        for isa in available_isas() {
            let zig = quantize_zigzag_with_isa(&vals, eb, isa);
            let mut got = Vec::new();
            for &z in &zig {
                let mut v = z;
                loop {
                    let byte = (v & 0x7f) as u8;
                    v >>= 7;
                    if v == 0 {
                        got.push(byte);
                        break;
                    }
                    got.push(byte | 0x80);
                }
            }
            assert_eq!(got, want, "isa={isa}");
        }
    }

    #[test]
    fn unavailable_isa_degrades_to_scalar() {
        let vals: Vec<f64> = (0..100).map(|i| i as f64 * 0.3).collect();
        let missing = [Isa::Avx2, Isa::Neon]
            .into_iter()
            .find(|i| !i.is_available());
        if let Some(isa) = missing {
            assert_eq!(quantize_with_isa(&vals, 0.1, isa), quantize(&vals, 0.1));
        }
    }

    #[test]
    #[should_panic]
    fn zero_error_bound_rejected() {
        quantize_with_isa(&[1.0f64], 0.0, Isa::Scalar);
    }
}
