//! Domain-wide QoI error evaluation (the GPU kernels of Algorithm 3).
//!
//! Three kernels, all embarrassingly parallel over grid points:
//!
//! * [`eval_field`] — the QoI values themselves;
//! * [`max_qoi_error`] — the supremum of the pointwise error bounds given
//!   per-variable reconstruction bounds, plus its arg-max (the point the
//!   CP estimator iterates on);
//! * [`actual_max_error`] — ground-truth validation used by Figure 13 to
//!   show `actual ≤ estimated ≤ tolerance`.
//!
//! All three run one evaluator, the way a GPU kernel fuses a per-element
//! operator chain. The expression is compiled once per scan into a flat
//! postfix program, which runs over blocks of 256 points with a value lane
//! and, for the error bound, `lo`/`hi` interval lanes per stack slot. The
//! domain fans over runs of 16 blocks (a range of runs per part, or the
//! output's runs for [`eval_field`]); a part allocates its stack once and
//! loads each variable block by block, widening `f32` inputs to `f64` as
//! it goes. No point allocates, walks the expression tree or
//! materializes an index. Every point goes through
//! the same IEEE operations as [`QoiExpr::eval`] and
//! [`QoiExpr::error_bound`], so each scan is bit-identical to that
//! per-point API, which stays the reference (and the CP estimator's
//! single-point probe). A pointwise bound whose value or image is not
//! finite counts as `+∞` (see [`crate::Interval::max_deviation_from`]):
//! the retrieval loop then refines to exhaustion instead of claiming a
//! guarantee it cannot give.

use crate::expr::{QoiExpr, MAX_VARS};
use crate::interval::Interval;
use crate::program::{Program, BLOCK};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Points per unit of the fan's cut: a part allocates its stack once and
/// evaluates its runs block by block.
const RUN: usize = 16 * BLOCK;

/// Result of a domain-wide max-error scan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MaxError {
    /// Supremum of the pointwise error bounds.
    pub value: f64,
    /// Index of the point attaining it.
    pub argmax: usize,
}

/// Evaluate `expr` at every grid point of the multi-variable field.
///
/// # Panics
/// Panics if variables have differing lengths or fewer variables than the
/// expression references.
pub fn eval_field<T: Copy + Into<f64> + Sync>(expr: &QoiExpr, vars: &[&[T]]) -> Vec<f64> {
    let n = validate(expr, vars);
    let program = Program::compile(expr);
    let mut out = vec![0.0; n];
    hpmdr_rt::map_blocks_mut(&mut out, RUN, 1, |r, out| {
        let mut stack = program.stack();
        for (b, out) in out.chunks_mut(BLOCK).enumerate() {
            let top = program.run(vars, None, r * RUN + b * BLOCK, out.len(), &mut stack);
            out.copy_from_slice(&top.v[..out.len()]);
        }
    });
    out
}

/// Supremum over the domain of the pointwise QoI error bound, given the
/// reconstructed variables and one uniform error bound per variable. The
/// arg-max is the lowest index attaining the supremum (0 when it is 0).
///
/// # Panics
/// Panics if variables have differing lengths or are fewer than the
/// expression references, if there is not one bound per variable, or on
/// a log floor that is not finite and positive.
pub fn max_qoi_error<T: Copy + Into<f64> + Sync>(
    expr: &QoiExpr,
    vars: &[&[T]],
    errs: &[f64],
) -> MaxError {
    let n = validate(expr, vars);
    assert_eq!(vars.len(), errs.len(), "one error bound per variable");
    expr.assert_log_floors();
    let program = Program::compile(expr);
    let parts = hpmdr_rt::map_blocks(n.div_ceil(RUN), 1, |runs| {
        let mut stack = program.stack();
        let mut bounds = [0.0f64; BLOCK];
        let mut best = (0.0f64, 0usize);
        for (start, len) in blocks(runs, n) {
            let top = program.run(vars, Some(errs), start, len, &mut stack);
            let lanes = top.v[..len]
                .iter()
                .zip(top.lo[..len].iter().zip(&top.hi[..len]));
            for (e, (&v, (&lo, &hi))) in bounds[..len].iter_mut().zip(lanes) {
                *e = Interval { lo, hi }.max_deviation_from(v);
            }
            // No bound is NaN, so the first lane holding the block's
            // maximum is where a strict `>` scan would stop.
            let peak = bounds[..len].iter().fold(0.0f64, |m, &e| m.max(e));
            if peak > best.0 {
                let j = bounds[..len].iter().position(|&e| e == peak).unwrap_or(0);
                best = (peak, start + j);
            }
        }
        best
    });
    let first_max = |a: (f64, usize), b: (f64, usize)| if b.0 > a.0 { b } else { a };
    let (value, argmax) = parts.into_iter().fold((0.0, 0), first_max);
    MaxError { value, argmax }
}

/// Maximum actual QoI error between ground-truth variables and their
/// reconstructions. A point whose difference is NaN (a NaN on either
/// side) counts as `+∞`, as an unbounded pointwise bound does in
/// [`max_qoi_error`]: a NaN reconstruction is never a zero error.
pub fn actual_max_error<T: Copy + Into<f64> + Sync>(
    expr: &QoiExpr,
    truth: &[&[T]],
    approx: &[&[T]],
) -> f64 {
    let n = validate(expr, truth);
    assert_eq!(validate(expr, approx), n, "fields must share the grid");
    assert_eq!(truth.len(), approx.len());
    let program = Program::compile(expr);
    let parts = hpmdr_rt::map_blocks(n.div_ceil(RUN), 1, |runs| {
        let (mut exact, mut approximate) = (program.stack(), program.stack());
        let mut worst = 0.0f64;
        for (start, len) in blocks(runs, n) {
            let t = program.run(truth, None, start, len, &mut exact);
            let a = program.run(approx, None, start, len, &mut approximate);
            for (&x, &y) in t.v[..len].iter().zip(&a.v[..len]) {
                let e = (x - y).abs();
                worst = worst.max(if e.is_nan() { f64::INFINITY } else { e });
            }
        }
        worst
    });
    parts.into_iter().fold(0.0, f64::max)
}

/// The blocks `(start, len)` of runs `runs` of an `n`-point domain.
fn blocks(runs: Range<usize>, n: usize) -> impl Iterator<Item = (usize, usize)> {
    let end = (runs.end * RUN).min(n);
    (runs.start * RUN..end)
        .step_by(BLOCK)
        .map(move |start| (start, BLOCK.min(end - start)))
}

/// Check the field against `expr` and return its length.
fn validate<T>(expr: &QoiExpr, vars: &[&[T]]) -> usize {
    assert!(
        vars.len() >= expr.num_vars(),
        "expression references {} variables, {} supplied",
        expr.num_vars(),
        vars.len()
    );
    assert!(vars.len() <= MAX_VARS, "at most 8 variables supported");
    let n = vars.first().map_or(0, |v| v.len());
    assert!(
        vars.iter().all(|v| v.len() == n),
        "variable fields must have equal lengths"
    );
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn velocity_field(n: usize, phase: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.013 + phase).sin() * 3.0)
            .collect()
    }

    #[test]
    fn eval_field_matches_pointwise() {
        let q = QoiExpr::vector_magnitude(3);
        let vx = velocity_field(1000, 0.0);
        let vy = velocity_field(1000, 1.0);
        let vz = velocity_field(1000, 2.0);
        let f = eval_field(&q, &[&vx, &vy, &vz]);
        for i in (0..1000).step_by(97) {
            let expect = (vx[i] * vx[i] + vy[i] * vy[i] + vz[i] * vz[i]).sqrt();
            assert!((f[i] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn max_error_dominates_every_point() {
        let q = QoiExpr::vector_magnitude(3);
        let vx = velocity_field(5000, 0.0);
        let vy = velocity_field(5000, 1.0);
        let vz = velocity_field(5000, 2.0);
        let errs = [0.01, 0.02, 0.005];
        let m = max_qoi_error(&q, &[&vx, &vy, &vz], &errs);
        for i in (0..5000).step_by(313) {
            let b = q.error_bound(&[vx[i], vy[i], vz[i]], &errs);
            assert!(b <= m.value + 1e-15);
        }
        let arg_b = q.error_bound(&[vx[m.argmax], vy[m.argmax], vz[m.argmax]], &errs);
        assert!((arg_b - m.value).abs() < 1e-15);
    }

    #[test]
    fn estimated_bound_covers_actual_error() {
        // Perturb each variable within its bound; the actual QoI error
        // must never exceed the estimate (the Figure 13 invariant).
        let q = QoiExpr::vector_magnitude(3);
        let truth: Vec<Vec<f64>> = (0..3).map(|k| velocity_field(4096, k as f64)).collect();
        let errs = [0.02, 0.01, 0.03];
        let approx: Vec<Vec<f64>> = truth
            .iter()
            .zip(&errs)
            .map(|(t, &e)| {
                t.iter()
                    .enumerate()
                    .map(|(i, &v)| v + e * if i % 2 == 0 { 0.99 } else { -0.99 })
                    .collect()
            })
            .collect();
        let tr: Vec<&[f64]> = truth.iter().map(|v| v.as_slice()).collect();
        let ap: Vec<&[f64]> = approx.iter().map(|v| v.as_slice()).collect();
        let est = max_qoi_error(&q, &ap, &errs).value;
        let act = actual_max_error(&q, &tr, &ap);
        assert!(act <= est, "actual {act} > estimated {est}");
    }

    #[test]
    fn zero_errors_give_zero_estimate() {
        let q = QoiExpr::vector_magnitude(2);
        let vx = velocity_field(100, 0.0);
        let vy = velocity_field(100, 1.0);
        let m = max_qoi_error(&q, &[&vx, &vy], &[0.0, 0.0]);
        assert_eq!(m.value, 0.0);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let q = QoiExpr::vector_magnitude(2);
        let a = vec![0.0; 10];
        let b = vec![0.0; 11];
        max_qoi_error(&q, &[&a, &b], &[0.1, 0.1]);
    }

    #[test]
    #[should_panic]
    fn missing_variables_panic() {
        let q = QoiExpr::vector_magnitude(3);
        let a = vec![0.0; 10];
        eval_field(&q, &[&a]);
    }

    #[test]
    fn non_finite_pointwise_bounds_count_as_unbounded() {
        // `∞·x` images to `[∞, ∞]` around `∞` and NaN constants poison
        // every comparison; neither may read as a zero error.
        let x = velocity_field(1000, 0.5);
        let var = || Box::new(QoiExpr::Var(0));
        for q in [
            QoiExpr::Scale(f64::INFINITY, var()),
            QoiExpr::Scale(f64::NAN, var()),
            QoiExpr::Add(var(), Box::new(QoiExpr::Const(f64::NAN))),
        ] {
            let m = max_qoi_error(&q, &[&x], &[1e-3]);
            assert_eq!(m.value, f64::INFINITY, "{q:?}");
            assert_eq!(m.argmax, 0, "{q:?}");
            assert_eq!(q.error_bound(&[x[7]], &[1e-3]), f64::INFINITY, "{q:?}");
        }
    }

    #[test]
    fn a_nan_reconstruction_is_an_unbounded_actual_error() {
        // One NaN point among exact ones: the actual error is `+∞`, as the
        // estimate over the same field is — never the 0 that a maximum
        // dropping NaN reads.
        let truth = [1.0f64, 2.0, 3.0];
        let approx = [1.0f64, f64::NAN, 3.0];
        let q = QoiExpr::Var(0);
        assert_eq!(actual_max_error(&q, &[&truth], &[&approx]), f64::INFINITY);
        assert_eq!(max_qoi_error(&q, &[&approx], &[0.0]).value, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "log floor 0 is not a finite positive number")]
    fn a_zero_log_floor_is_rejected_by_the_domain_scan() {
        let x = velocity_field(100, 0.5);
        max_qoi_error(&QoiExpr::log_density(0.0), &[&x], &[1e-3]);
    }

    #[test]
    #[should_panic(expected = "log floor 0 is not a finite positive number")]
    fn a_zero_log_floor_is_rejected_by_the_pointwise_bound() {
        QoiExpr::log_density(0.0).error_bound(&[1.0], &[1e-3]);
    }

    /// The per-point reference: `error_bound` at every point in index
    /// order, keeping the first strict maximum above 0.
    fn pointwise_max(q: &QoiExpr, vars: &[Vec<f64>], errs: &[f64]) -> MaxError {
        let n = vars.first().map_or(0, Vec::len);
        let mut best = MaxError {
            value: 0.0,
            argmax: 0,
        };
        for i in 0..n {
            let point: Vec<f64> = vars.iter().map(|v| v[i]).collect();
            let b = q.error_bound(&point, errs);
            if b > best.value {
                best = MaxError {
                    value: b,
                    argmax: i,
                };
            }
        }
        best
    }

    fn pointwise_values(q: &QoiExpr, vars: &[Vec<f64>]) -> Vec<f64> {
        let n = vars.first().map_or(0, Vec::len);
        (0..n)
            .map(|i| q.eval(&vars.iter().map(|v| v[i]).collect::<Vec<_>>()))
            .collect()
    }

    fn constant(rng: &mut TestRng) -> f64 {
        [0.0, -0.0, 1.0, -2.5, 0.5, 3.0, -1e-3][rng.below(7)]
    }

    /// A random tree over `nvars` variables; every variant is reachable.
    fn random_expr(rng: &mut TestRng, nvars: usize, depth: usize) -> QoiExpr {
        if depth == 0 || rng.below(5) == 0 {
            return if rng.below(4) == 0 {
                QoiExpr::Const(constant(rng))
            } else {
                QoiExpr::Var(rng.below(nvars))
            };
        }
        let sub = |rng: &mut TestRng| Box::new(random_expr(rng, nvars, depth - 1));
        match rng.below(8) {
            0 => QoiExpr::Add(sub(rng), sub(rng)),
            1 => QoiExpr::Sub(sub(rng), sub(rng)),
            2 => QoiExpr::Mul(sub(rng), sub(rng)),
            3 => QoiExpr::Scale(constant(rng), sub(rng)),
            4 => QoiExpr::Square(sub(rng)),
            5 => QoiExpr::Sqrt(sub(rng)),
            6 => QoiExpr::Abs(sub(rng)),
            _ => QoiExpr::Ln {
                arg: sub(rng),
                floor: [1e-9, 1e-3, 0.5, 2.0][rng.below(4)],
            },
        }
    }

    /// A field value: signed zeros, exact small values and a spread.
    fn sample(rng: &mut TestRng) -> f64 {
        match rng.below(6) {
            0 => 0.0,
            1 => -0.0,
            2 => [0.25, -0.5, 1.0][rng.below(3)],
            _ => (rng.unit_f64() - 0.5) * 8.0,
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The block scans against the per-point API, bit for bit, on
        /// random trees over 1–8 variables, at lengths around one block
        /// and across several fanned runs, with `f64` and `f32` inputs.
        #[test]
        fn block_scans_match_the_pointwise_api_bit_for_bit(seed in any::<u64>()) {
            let mut rng = TestRng::from_case("block_scans", seed);
            let nvars = 1 + rng.below(8);
            let q = random_expr(&mut rng, nvars, 4);
            // Radii from exact to wider than the values, so intervals
            // straddle zero.
            let errs: Vec<f64> = (0..nvars)
                .map(|_| [0.0, 1e-3, 0.3, 2.0][rng.below(4)])
                .collect();
            for n in [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * RUN + 3] {
                let wide: Vec<Vec<f64>> = (0..nvars)
                    .map(|_| (0..n).map(|_| sample(&mut rng)).collect())
                    .collect();
                let narrow: Vec<Vec<f32>> = wide
                    .iter()
                    .map(|v| v.iter().map(|&x| x as f32).collect())
                    .collect();
                let widened: Vec<Vec<f64>> = narrow
                    .iter()
                    .map(|v| v.iter().map(|&x| f64::from(x)).collect())
                    .collect();
                let shifted: Vec<Vec<f64>> = wide
                    .iter()
                    .zip(&errs)
                    .map(|(v, &e)| v.iter().map(|&x| x + 0.7 * e).collect())
                    .collect();
                let wide_refs: Vec<&[f64]> = wide.iter().map(Vec::as_slice).collect();
                let narrow_refs: Vec<&[f32]> = narrow.iter().map(Vec::as_slice).collect();
                let shifted_refs: Vec<&[f64]> = shifted.iter().map(Vec::as_slice).collect();

                for (got, want) in [
                    (max_qoi_error(&q, &wide_refs, &errs), pointwise_max(&q, &wide, &errs)),
                    (max_qoi_error(&q, &narrow_refs, &errs), pointwise_max(&q, &widened, &errs)),
                ] {
                    prop_assert_eq!(got.value.to_bits(), want.value.to_bits(), "{:?} n={}", q, n);
                    prop_assert_eq!(got.argmax, want.argmax, "{:?} n={}", q, n);
                }
                prop_assert_eq!(bits(&eval_field(&q, &wide_refs)), bits(&pointwise_values(&q, &wide)));
                prop_assert_eq!(
                    bits(&eval_field(&q, &narrow_refs)),
                    bits(&pointwise_values(&q, &widened))
                );
                let want = pointwise_values(&q, &wide)
                    .iter()
                    .zip(&pointwise_values(&q, &shifted))
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max);
                let got = actual_max_error(&q, &wide_refs, &shifted_refs);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?} n={}", q, n);
            }
        }
    }
}
