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

use crate::expr::QoiExpr;
use hpmdr_rt::prelude::*;
use serde::{Deserialize, Serialize};

/// Result of a domain-wide max-error scan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MaxError {
    /// Supremum of the pointwise error bounds.
    pub value: f64,
    /// Index of the point attaining it.
    pub argmax: usize,
}

fn gather(vars: &[&[f64]], idx: usize, out: &mut [f64]) {
    for (o, v) in out.iter_mut().zip(vars) {
        *o = v[idx];
    }
}

/// Evaluate `expr` at every grid point of the multi-variable field.
///
/// # Panics
/// Panics if variables have differing lengths or fewer variables than the
/// expression references.
pub fn eval_field(expr: &QoiExpr, vars: &[&[f64]]) -> Vec<f64> {
    validate(expr, vars);
    let n = vars.first().map_or(0, |v| v.len());
    (0..n)
        .into_par_iter()
        .with_min_len(4096)
        .map(|i| {
            let mut point = [0.0f64; 8];
            gather(vars, i, &mut point[..vars.len()]);
            expr.eval(&point[..vars.len()])
        })
        .collect()
}

/// Supremum over the domain of the pointwise QoI error bound, given the
/// reconstructed variables and one uniform error bound per variable.
pub fn max_qoi_error(expr: &QoiExpr, vars: &[&[f64]], errs: &[f64]) -> MaxError {
    validate(expr, vars);
    assert_eq!(vars.len(), errs.len(), "one error bound per variable");
    let n = vars.first().map_or(0, |v| v.len());
    let best = (0..n)
        .into_par_iter()
        .with_min_len(4096)
        .map(|i| {
            let mut point = [0.0f64; 8];
            gather(vars, i, &mut point[..vars.len()]);
            (expr.error_bound(&point[..vars.len()], errs), i)
        })
        .reduce(|| (0.0f64, 0usize), |a, b| if b.0 > a.0 { b } else { a });
    MaxError {
        value: best.0,
        argmax: best.1,
    }
}

/// Maximum actual QoI error between ground-truth variables and their
/// reconstructions.
pub fn actual_max_error(expr: &QoiExpr, truth: &[&[f64]], approx: &[&[f64]]) -> f64 {
    validate(expr, truth);
    validate(expr, approx);
    assert_eq!(truth.len(), approx.len());
    let n = truth.first().map_or(0, |v| v.len());
    (0..n)
        .into_par_iter()
        .with_min_len(4096)
        .map(|i| {
            let mut a = [0.0f64; 8];
            let mut b = [0.0f64; 8];
            gather(truth, i, &mut a[..truth.len()]);
            gather(approx, i, &mut b[..approx.len()]);
            (expr.eval(&a[..truth.len()]) - expr.eval(&b[..approx.len()])).abs()
        })
        .reduce(|| 0.0, f64::max)
}

fn validate(expr: &QoiExpr, vars: &[&[f64]]) {
    assert!(
        vars.len() >= expr.num_vars(),
        "expression references {} variables, {} supplied",
        expr.num_vars(),
        vars.len()
    );
    assert!(vars.len() <= 8, "at most 8 variables supported");
    if let Some(first) = vars.first() {
        assert!(
            vars.iter().all(|v| v.len() == first.len()),
            "variable fields must have equal lengths"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
