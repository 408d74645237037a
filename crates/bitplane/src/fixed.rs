//! Exponent alignment and fixed-point conversion (Algorithm 1, step 1).
//!
//! All elements of a chunk are aligned to the chunk-wide maximum exponent
//! `e` (the smallest power of two strictly greater than every `|v|`), then
//! scaled to a `B`-bit unsigned magnitude plus a sign bit. After alignment,
//! magnitude bitplane `k` (0 = most significant) carries weight
//! `2^(e-1-k)`, so truncating to a `k`-plane prefix bounds the pointwise
//! error by `2^(e-k)`.

use serde::{Deserialize, Serialize};

/// Floating-point element type refactorable by HP-MDR.
///
/// Implemented for `f32` and `f64`. The associated fixed-point type is wide
/// enough to hold the maximum plane count (`32` and `64` respectively).
pub trait BitplaneFloat: Copy + PartialOrd + Send + Sync + 'static {
    /// Maximum number of magnitude bitplanes this type supports.
    const MAX_PLANES: usize;
    /// Identifying name (`"f32"` / `"f64"`), stored in stream metadata.
    const TYPE_NAME: &'static str;

    /// Absolute value.
    fn abs_val(self) -> Self;
    /// Is the value negative (sign bit set)?
    fn is_neg(self) -> bool;
    /// Convert to f64 for exponent math.
    fn to_f64(self) -> f64;
    /// Convert from f64 after reconstruction.
    fn from_f64(v: f64) -> Self;

    /// Align `|self|` to exponent `exp` and truncate to a `planes`-bit
    /// magnitude: `floor(|v| * 2^(planes - exp))`, guaranteed `< 2^planes`
    /// when `|v| < 2^exp`.
    fn to_fixed(self, exp: i32, planes: usize) -> u64 {
        let scale = Scale::pow2(planes as i32 - exp);
        scale.apply_rest(self).to_fixed_scaled(scale.main, planes)
    }

    /// [`Self::to_fixed`] with the quantum `2^(planes - exp)` precomputed
    /// — the encode loop hoists the `exp2` out, like
    /// [`Self::from_fixed_scaled`] does for decode.
    #[inline]
    fn to_fixed_scaled(self, scale: f64, planes: usize) -> u64 {
        let scaled = self.abs_val().to_f64() * scale;
        // |v| < 2^exp ⇒ scaled < 2^planes; clamp defends against rounding
        // at the very top of the range.
        if planes <= 32 {
            // The same value through the cheaper 32-bit conversion: both
            // casts truncate and saturate, and whatever a `u32` cannot
            // hold is above `max` either way.
            let max = ((1u64 << planes) - 1) as u32;
            return u64::from((scaled as u32).min(max));
        }
        let max = if planes >= 64 {
            u64::MAX
        } else {
            (1u64 << planes) - 1
        };
        (scaled as u64).min(max)
    }

    /// Inverse of [`Self::to_fixed`] for a possibly truncated magnitude.
    fn from_fixed(sign: bool, fixed: u64, exp: i32, planes: usize) -> Self {
        let scale = Scale::pow2(exp - planes as i32);
        scale.apply_rest(Self::from_fixed_scaled(sign, fixed, scale.main))
    }

    /// [`Self::from_fixed`] with the quantum `2^(exp - planes)`
    /// precomputed — element loops hoist the `exp2` out so the per-value
    /// work is one multiply, with bit-identical results.
    #[inline]
    fn from_fixed_scaled(sign: bool, fixed: u64, scale: f64) -> Self {
        let mag = fixed as f64 * scale;
        Self::from_f64(if sign { -mag } else { mag })
    }

    /// `2^e` in `Self` when it is a normal number there: the quantum
    /// [`Self::from_fixed_native`] multiplies by.
    fn pow2_normal(e: i32) -> Option<Self>;

    /// [`Self::from_fixed_scaled`] of a magnitude of at most 32 bits,
    /// computed in `Self`: `±(fixed as Self)·q`. Bit-identical to it for
    /// every `q = 2^e` that [`Self::pow2_normal`] returns: the conversion
    /// rounds `fixed` to nearest once, and scaling by a power of two
    /// commutes with round-to-nearest while the result stays normal — it
    /// is at least `q` when `fixed ≥ 1` — so it lands on the one rounding
    /// of the exact product `fixed·2^e` that the wide path makes. An
    /// overflow is infinite on both paths, and zero keeps its sign.
    fn from_fixed_native(sign: bool, fixed: u32, q: Self) -> Self;
}

/// `2^e` as f64 without going through `powi` (exact for the full exponent
/// range used by alignment).
#[inline]
pub fn exp2(e: i32) -> f64 {
    f64::exp2(e as f64)
}

/// A group's quantum `2^e` as two factors: `main`, which the element
/// loops multiply by, and `rest`, applied once per group — before them
/// to encode, after them to decode.
///
/// `rest` is 1 wherever `2^e` is a finite, non-zero `f64`. An `f64` group
/// below ≈ 2^-959 at 64 planes overflows the encode quantum (deeper
/// still, the decode one underflows), so there each factor is half of
/// `e`: the product in between stays normal, the scaling stays exact,
/// and [`prefix_error_bound`] holds. An `f32` group is never split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Scale {
    /// The factor the element loops apply.
    pub(crate) main: f64,
    /// The rest of `2^e`.
    rest: f64,
}

impl Scale {
    /// The quantum `2^e`, decided once per group.
    pub(crate) fn pow2(e: i32) -> Scale {
        match exp2(e) {
            main if main.is_finite() && main != 0.0 => Scale { main, rest: 1.0 },
            _ => Scale {
                main: exp2(e / 2),
                rest: exp2(e - e / 2),
            },
        }
    }

    /// Whether `2^e` needed two factors.
    pub(crate) fn is_split(self) -> bool {
        self.rest != 1.0
    }

    /// `v · rest` (exact: only `f64` groups are split).
    #[inline]
    pub(crate) fn apply_rest<F: BitplaneFloat>(self, v: F) -> F {
        F::from_f64(v.to_f64() * self.rest)
    }
}

impl BitplaneFloat for f32 {
    const MAX_PLANES: usize = 32;
    const TYPE_NAME: &'static str = "f32";

    #[inline]
    fn abs_val(self) -> Self {
        self.abs()
    }
    #[inline]
    fn is_neg(self) -> bool {
        self.is_sign_negative()
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    fn pow2_normal(e: i32) -> Option<Self> {
        // The biased exponent field of a normal `f32` is 1..=254.
        (-126..=127)
            .contains(&e)
            .then(|| f32::from_bits(((e + 127) as u32) << 23))
    }
    #[inline]
    fn from_fixed_native(sign: bool, fixed: u32, q: Self) -> Self {
        // `mag` is never NaN and its sign bit is clear, so setting the
        // bit negates it.
        let mag = fixed as f32 * q;
        f32::from_bits(mag.to_bits() | (u32::from(sign) << 31))
    }
}

impl BitplaneFloat for f64 {
    const MAX_PLANES: usize = 64;
    const TYPE_NAME: &'static str = "f64";

    #[inline]
    fn abs_val(self) -> Self {
        self.abs()
    }
    #[inline]
    fn is_neg(self) -> bool {
        self.is_sign_negative()
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    fn pow2_normal(e: i32) -> Option<Self> {
        (-1022..=1023).contains(&e).then(|| exp2(e))
    }
    #[inline]
    fn from_fixed_native(sign: bool, fixed: u32, q: Self) -> Self {
        Self::from_fixed_scaled(sign, u64::from(fixed), q)
    }
}

/// Alignment metadata of one encoded chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Alignment {
    /// Chunk exponent: smallest `e` with `|v| < 2^e` for all elements
    /// (`i32::MIN` for an all-zero chunk).
    pub exp: i32,
    /// Number of magnitude bitplanes encoded.
    pub planes: usize,
}

/// Compute the chunk alignment exponent: the smallest `e` such that
/// `|v| < 2^e` for every element. Returns `i32::MIN` when every element is
/// zero (nothing to encode). Non-finite values are rejected.
///
/// # Panics
/// Panics if any element is NaN or infinite — refactoring is only defined
/// for finite scientific data, and silently encoding NaN would corrupt the
/// stream for *all* elements sharing the chunk.
pub fn align_exponent<F: BitplaneFloat>(data: &[F]) -> i32 {
    // Eight independent running maxima in the element type: one `max`
    // chain is bound by its own latency, a per-element `assert!` keeps
    // the scan scalar, and widening every element to `f64` halves the
    // lanes. A NaN never wins a `>` and, like an infinity, fails
    // `< inf`, so the flag asserted after the loop rejects what the
    // per-element check rejected, and the maximum over the lanes is the
    // maximum of the sequential scan.
    let (zero, inf) = (F::from_f64(0.0), F::from_f64(f64::INFINITY));
    let mut lanes = [zero; 8];
    let mut finite = true;
    let mut scan = |block: &[F]| {
        for (max, &v) in lanes.iter_mut().zip(block) {
            let a = v.abs_val();
            finite &= a < inf;
            if a > *max {
                *max = a;
            }
        }
    };
    let mut blocks = data.chunks_exact(8);
    blocks.by_ref().for_each(&mut scan);
    scan(blocks.remainder());
    assert!(finite, "bitplane encoding requires finite data");
    let max_abs = lanes.into_iter().fold(0.0f64, |m, a| m.max(a.to_f64()));
    if max_abs == 0.0 {
        return i32::MIN;
    }
    // Smallest e with max_abs < 2^e; for exact powers of two we need e+1.
    let e = max_abs.log2().floor() as i32;
    if exp2(e + 1) > max_abs {
        e + 1
    } else {
        // log2 rounding placed us one too low (max_abs == 2^(e+1)).
        e + 2
    }
}

/// Upper bound on the pointwise reconstruction error after decoding the
/// first `k` of the chunk's magnitude bitplanes (truncation reconstruction).
///
/// `k = 0` (nothing retrieved) bounds by the magnitude range `2^exp`.
pub fn prefix_error_bound(exp: i32, k: usize) -> f64 {
    if exp == i32::MIN {
        return 0.0;
    }
    exp2(exp - k as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponent_covers_all_values() {
        let data = [0.3f32, -1.7, 0.01, 1.99];
        let e = align_exponent(&data);
        assert_eq!(e, 1); // all |v| < 2^1
        for v in data {
            assert!((v.abs() as f64) < exp2(e));
        }
    }

    #[test]
    fn exponent_of_exact_power_of_two_is_strict() {
        // |v| = 4.0 requires 2^e > 4 ⇒ e = 3.
        let e = align_exponent(&[4.0f64]);
        assert_eq!(e, 3);
        assert!(4.0 < exp2(e));
    }

    #[test]
    fn zero_chunk_sentinel() {
        assert_eq!(align_exponent::<f32>(&[0.0, -0.0]), i32::MIN);
        assert_eq!(prefix_error_bound(i32::MIN, 0), 0.0);
    }

    #[test]
    #[should_panic]
    fn nan_rejected() {
        align_exponent(&[1.0f32, f32::NAN]);
    }

    #[test]
    #[should_panic]
    fn infinity_rejected() {
        align_exponent(&[f64::INFINITY]);
    }

    #[test]
    fn fixed_roundtrip_error_within_one_ulp_of_grid() {
        let data = [0.37f64, -0.9999, 0.5, -0.0001, 0.000244140625];
        let e = align_exponent(&data);
        let planes = 52;
        for &v in &data {
            let fixed = v.to_fixed(e, planes);
            let back = f64::from_fixed(v.is_neg(), fixed, e, planes);
            let quantum = exp2(e - planes as i32);
            assert!(
                (back - v).abs() <= quantum,
                "v={v} back={back} quantum={quantum}"
            );
        }
    }

    #[test]
    fn narrow_conversion_equals_the_wide_one() {
        // `to_fixed_scaled` converts through `u32` at up to 32 planes; the
        // defining formula is the 64-bit one, on every class of product.
        let products = [
            0.0,
            0.999,
            1.0,
            123_456.789,
            2_147_483_647.5,
            2_147_483_648.0,
            4_294_967_295.0,
            4_294_967_295.999,
            4_294_967_296.0,
            1e19,
            1e300,
            f64::INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
        ];
        for planes in 1usize..=32 {
            for x in products {
                let wide = (x as u64).min((1u64 << planes) - 1);
                assert_eq!(1.0f64.to_fixed_scaled(x, planes), wide, "{x} at {planes}");
            }
        }
    }

    #[test]
    fn fixed_is_monotone_in_magnitude() {
        let e = 2;
        let planes = 24;
        let a = 0.5f32.to_fixed(e, planes);
        let b = 1.5f32.to_fixed(e, planes);
        let c = 3.9f32.to_fixed(e, planes);
        assert!(a < b && b < c);
        assert!(c < 1u64 << planes);
    }

    #[test]
    fn full_width_f32_fixed_fits() {
        // 32 planes of an f32 near the top of its range must not overflow.
        let data = [1.999_999f32];
        let e = align_exponent(&data);
        let fixed = data[0].to_fixed(e, 32);
        assert!(fixed <= u32::MAX as u64);
    }

    #[test]
    fn prefix_bound_halves_per_plane() {
        let e = 3;
        for k in 0..20 {
            let b0 = prefix_error_bound(e, k);
            let b1 = prefix_error_bound(e, k + 1);
            assert!((b0 / b1 - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn truncation_error_respects_prefix_bound() {
        let data: Vec<f64> = (0..256).map(|i| (i as f64 * 0.013).sin() * 7.3).collect();
        let e = align_exponent(&data);
        for k in [1usize, 4, 9, 17, 30] {
            let bound = prefix_error_bound(e, k);
            for &v in &data {
                let fixed = v.to_fixed(e, 60);
                let kept = fixed >> (60 - k);
                let back = f64::from_fixed(v.is_neg(), kept << (60 - k), e, 60);
                assert!(
                    (back - v).abs() <= bound,
                    "k={k} v={v} back={back} bound={bound}"
                );
            }
        }
    }
}
