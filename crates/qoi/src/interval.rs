//! Sound interval arithmetic for QoI error propagation.
//!
//! Every operation returns an interval guaranteed to contain the image of
//! its operand intervals; outward rounding is unnecessary here because the
//! bounds feed a *conservative* retrieval loop (a few ULPs of slack are
//! absorbed by the estimate-vs-tolerance comparison, and the validation
//! experiment of Figure 13 confirms estimated ≥ actual).

use serde::{Deserialize, Serialize};

/// A closed interval `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interval {
    /// Lower end.
    pub lo: f64,
    /// Upper end.
    pub hi: f64,
}

impl Interval {
    /// The degenerate interval `[v, v]`.
    pub fn point(v: f64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// The ball `[v - r, v + r]` (`r ≥ 0`).
    pub fn ball(v: f64, r: f64) -> Self {
        debug_assert!(r >= 0.0, "negative radius");
        Interval {
            lo: v - r,
            hi: v + r,
        }
    }

    /// Construct from endpoints, normalizing order.
    pub fn new(a: f64, b: f64) -> Self {
        if a <= b {
            Interval { lo: a, hi: b }
        } else {
            Interval { lo: b, hi: a }
        }
    }

    /// Width `hi - lo`.
    pub fn width(self) -> f64 {
        self.hi - self.lo
    }

    /// Whether `v` lies inside.
    pub fn contains(self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Interval sum.
    #[allow(clippy::should_implement_trait)] // interval algebra, not operator overloading
    pub fn add(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo + o.lo,
            hi: self.hi + o.hi,
        }
    }

    /// Interval difference.
    #[allow(clippy::should_implement_trait)] // interval algebra, not operator overloading
    pub fn sub(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo - o.hi,
            hi: self.hi - o.lo,
        }
    }

    /// Interval product (max/min of the four endpoint products).
    #[allow(clippy::should_implement_trait)] // interval algebra, not operator overloading
    pub fn mul(self, o: Interval) -> Interval {
        let p = [
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        ];
        Interval {
            lo: p.iter().cloned().fold(f64::INFINITY, f64::min),
            hi: p.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Interval square (tighter than `mul(self)`: the result is ≥ 0).
    pub fn square(self) -> Interval {
        let a = self.lo * self.lo;
        let b = self.hi * self.hi;
        if self.lo <= 0.0 && self.hi >= 0.0 {
            Interval {
                lo: 0.0,
                hi: a.max(b),
            }
        } else {
            Interval::new(a, b)
        }
    }

    /// Interval square root; negative parts are clamped to zero, matching
    /// QoIs defined as `√(non-negative combination)` where small negative
    /// excursions only arise from reconstruction error.
    pub fn sqrt(self) -> Interval {
        Interval {
            lo: self.lo.max(0.0).sqrt(),
            hi: self.hi.max(0.0).sqrt(),
        }
    }

    /// Interval absolute value.
    pub fn abs(self) -> Interval {
        if self.lo >= 0.0 {
            self
        } else if self.hi <= 0.0 {
            Interval {
                lo: -self.hi,
                hi: -self.lo,
            }
        } else {
            Interval {
                lo: 0.0,
                hi: (-self.lo).max(self.hi),
            }
        }
    }

    /// Scale by a constant.
    pub fn scale(self, c: f64) -> Interval {
        Interval::new(self.lo * c, self.hi * c)
    }

    /// Natural logarithm with the operand clamped to `[floor, ∞)`;
    /// QoIs like `log ρ` are only used on positive fields, and `floor`
    /// keeps reconstruction error excursions from producing `-∞` bounds.
    pub fn ln_clamped(self, floor: f64) -> Interval {
        debug_assert!(floor > 0.0, "log floor must be positive");
        Interval {
            lo: self.lo.max(floor).ln(),
            hi: self.hi.max(floor).ln(),
        }
    }

    /// Reciprocal for intervals that exclude zero; intervals straddling
    /// zero return the conservative unbounded-side result clamped to the
    /// representable range (the retrieval loop treats huge bounds as
    /// "fetch more").
    pub fn recip(self) -> Interval {
        if self.lo > 0.0 || self.hi < 0.0 {
            Interval::new(1.0 / self.hi, 1.0 / self.lo)
        } else {
            Interval {
                lo: -f64::MAX,
                hi: f64::MAX,
            }
        }
    }

    /// Largest deviation of the interval from `v`; `+∞` when `v` or an
    /// end is not finite (`[∞, ∞]` around `∞` bounds nothing, and NaN
    /// would compare below every bound).
    pub fn max_deviation_from(self, v: f64) -> f64 {
        if v.is_finite() && self.lo.is_finite() && self.hi.is_finite() {
            (self.hi - v).max(v - self.lo).max(0.0)
        } else {
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ball_and_point() {
        let b = Interval::ball(2.0, 0.5);
        assert_eq!(b, Interval { lo: 1.5, hi: 2.5 });
        assert!(Interval::point(3.0).contains(3.0));
        assert_eq!(Interval::point(3.0).width(), 0.0);
    }

    #[test]
    fn mul_covers_all_sign_combinations() {
        let a = Interval::new(-2.0, 3.0);
        let b = Interval::new(-5.0, 1.0);
        let m = a.mul(b);
        for &x in &[-2.0, 0.0, 1.0, 3.0] {
            for &y in &[-5.0, -1.0, 0.0, 1.0] {
                assert!(m.contains(x * y), "{x}*{y}");
            }
        }
    }

    #[test]
    fn square_is_nonnegative_and_tight() {
        let s = Interval::new(-2.0, 3.0).square();
        assert_eq!(s.lo, 0.0);
        assert_eq!(s.hi, 9.0);
        let s2 = Interval::new(2.0, 3.0).square();
        assert_eq!(s2, Interval { lo: 4.0, hi: 9.0 });
        let s3 = Interval::new(-3.0, -2.0).square();
        assert_eq!(s3, Interval { lo: 4.0, hi: 9.0 });
    }

    #[test]
    fn sqrt_clamps_negative() {
        let s = Interval::new(-1.0, 4.0).sqrt();
        assert_eq!(s, Interval { lo: 0.0, hi: 2.0 });
    }

    #[test]
    fn abs_straddles_zero() {
        assert_eq!(
            Interval::new(-3.0, 1.0).abs(),
            Interval { lo: 0.0, hi: 3.0 }
        );
        assert_eq!(
            Interval::new(-3.0, -1.0).abs(),
            Interval { lo: 1.0, hi: 3.0 }
        );
    }

    #[test]
    fn scale_flips_on_negative_constant() {
        assert_eq!(
            Interval::new(1.0, 2.0).scale(-2.0),
            Interval { lo: -4.0, hi: -2.0 }
        );
    }

    #[test]
    fn max_deviation_is_one_sided_safe() {
        let i = Interval::new(0.0, 10.0);
        assert_eq!(i.max_deviation_from(2.0), 8.0);
        assert_eq!(i.max_deviation_from(9.0), 9.0);
    }

    #[test]
    fn non_finite_deviation_is_unbounded() {
        let inf = Interval::point(f64::INFINITY);
        assert_eq!(inf.max_deviation_from(f64::INFINITY), f64::INFINITY);
        assert_eq!(
            Interval::point(f64::NAN).max_deviation_from(1.0),
            f64::INFINITY
        );
        assert_eq!(
            Interval::new(0.0, 1.0).max_deviation_from(f64::NAN),
            f64::INFINITY
        );
    }

    #[test]
    fn ln_clamped_is_monotone_and_floored() {
        let i = Interval::new(0.5, 4.0).ln_clamped(1e-12);
        assert!((i.lo - 0.5f64.ln()).abs() < 1e-12);
        assert!((i.hi - 4.0f64.ln()).abs() < 1e-12);
        let neg = Interval::new(-1.0, 2.0).ln_clamped(1e-3);
        assert!((neg.lo - 1e-3f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn recip_flips_and_orders() {
        let i = Interval::new(2.0, 4.0).recip();
        assert!((i.lo - 0.25).abs() < 1e-15);
        assert!((i.hi - 0.5).abs() < 1e-15);
        let n = Interval::new(-4.0, -2.0).recip();
        assert!((n.lo + 0.5).abs() < 1e-15);
        assert!((n.hi + 0.25).abs() < 1e-15);
    }

    #[test]
    fn recip_through_zero_is_conservative() {
        let i = Interval::new(-1.0, 1.0).recip();
        assert_eq!(i.lo, -f64::MAX);
        assert_eq!(i.hi, f64::MAX);
        assert!(i.contains(1e9));
    }
}
