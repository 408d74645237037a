//! QoI expression language.
//!
//! Covers the base QoI families of \[39\] that the paper's retrieval
//! workflow supports: variables, constants, linear combinations, products,
//! squares, square roots, and absolute values. Expressions are evaluated
//! pointwise (a constant number of operations per grid point, which is why
//! the paper notes the QoI estimation kernel is fast on GPUs).

use crate::interval::Interval;
use serde::{Deserialize, Serialize};

/// Most variables one expression may read at a point.
pub(crate) const MAX_VARS: usize = 8;

/// A pointwise quantity of interest over `n` variables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QoiExpr {
    /// The `i`-th input variable.
    Var(usize),
    /// A constant.
    Const(f64),
    /// Sum of two sub-expressions.
    Add(Box<QoiExpr>, Box<QoiExpr>),
    /// Difference of two sub-expressions.
    Sub(Box<QoiExpr>, Box<QoiExpr>),
    /// Product of two sub-expressions.
    Mul(Box<QoiExpr>, Box<QoiExpr>),
    /// Scaling by a constant.
    Scale(f64, Box<QoiExpr>),
    /// Square.
    Square(Box<QoiExpr>),
    /// Square root (operands clamped at zero).
    Sqrt(Box<QoiExpr>),
    /// Absolute value.
    Abs(Box<QoiExpr>),
    /// Natural log with the operand clamped to a positive floor
    /// (`log ρ` style QoIs on positive fields).
    Ln {
        /// Operand.
        arg: Box<QoiExpr>,
        /// Positive clamp floor.
        floor: f64,
    },
}

impl QoiExpr {
    /// `√(Σ_i x_i²)` over `nvars` variables — the paper's `V_total`.
    pub fn vector_magnitude(nvars: usize) -> Self {
        assert!(nvars >= 1, "magnitude needs at least one variable");
        let mut sum = QoiExpr::Square(Box::new(QoiExpr::Var(0)));
        for i in 1..nvars {
            sum = QoiExpr::Add(
                Box::new(sum),
                Box::new(QoiExpr::Square(Box::new(QoiExpr::Var(i)))),
            );
        }
        QoiExpr::Sqrt(Box::new(sum))
    }

    /// Kinetic-energy-like QoI `½ Σ_i x_i²`.
    pub fn kinetic_energy(nvars: usize) -> Self {
        assert!(nvars >= 1);
        let mut sum = QoiExpr::Square(Box::new(QoiExpr::Var(0)));
        for i in 1..nvars {
            sum = QoiExpr::Add(
                Box::new(sum),
                Box::new(QoiExpr::Square(Box::new(QoiExpr::Var(i)))),
            );
        }
        QoiExpr::Scale(0.5, Box::new(sum))
    }

    /// `log(x_0)` clamped at `floor` (a \[39\] base QoI family).
    pub fn log_density(floor: f64) -> Self {
        QoiExpr::Ln {
            arg: Box::new(QoiExpr::Var(0)),
            floor,
        }
    }

    /// Linear combination `Σ c_i x_i`.
    pub fn linear(coeffs: &[f64]) -> Self {
        assert!(!coeffs.is_empty());
        let mut acc = QoiExpr::Scale(coeffs[0], Box::new(QoiExpr::Var(0)));
        for (i, &c) in coeffs.iter().enumerate().skip(1) {
            acc = QoiExpr::Add(
                Box::new(acc),
                Box::new(QoiExpr::Scale(c, Box::new(QoiExpr::Var(i)))),
            );
        }
        acc
    }

    /// Number of variables referenced (max index + 1).
    pub fn num_vars(&self) -> usize {
        match self {
            QoiExpr::Var(i) => i + 1,
            QoiExpr::Const(_) => 0,
            QoiExpr::Add(a, b) | QoiExpr::Sub(a, b) | QoiExpr::Mul(a, b) => {
                a.num_vars().max(b.num_vars())
            }
            QoiExpr::Scale(_, a) | QoiExpr::Square(a) | QoiExpr::Sqrt(a) | QoiExpr::Abs(a) => {
                a.num_vars()
            }
            QoiExpr::Ln { arg, .. } => arg.num_vars(),
        }
    }

    /// Check the expression's constants: every `Const` and `Scale` factor
    /// must be finite and every `Ln` floor finite and positive (a zero,
    /// negative or NaN floor has no finite logarithm to clamp to). Returns
    /// a description of the first constant that is not.
    pub fn check_constants(&self) -> Result<(), String> {
        match self {
            QoiExpr::Var(_) => Ok(()),
            QoiExpr::Const(c) if !c.is_finite() => Err(format!("constant {c} is not finite")),
            QoiExpr::Const(_) => Ok(()),
            QoiExpr::Add(a, b) | QoiExpr::Sub(a, b) | QoiExpr::Mul(a, b) => {
                a.check_constants()?;
                b.check_constants()
            }
            QoiExpr::Scale(c, _) if !c.is_finite() => {
                Err(format!("scale factor {c} is not finite"))
            }
            QoiExpr::Scale(_, a) | QoiExpr::Square(a) | QoiExpr::Sqrt(a) | QoiExpr::Abs(a) => {
                a.check_constants()
            }
            QoiExpr::Ln { arg, floor } => match bad_floor(*floor) {
                Some(why) => Err(why),
                None => arg.check_constants(),
            },
        }
    }

    /// The argument check of the entry points that bound errors: every
    /// `Ln` floor finite and positive, as [`Self::check_constants`]
    /// requires. A floor that is not has no logarithm to clamp to, and
    /// the check fails the same way in every build profile. Other
    /// non-finite constants pass: their bounds read `+∞`.
    ///
    /// # Panics
    /// Panics, naming it, on the first floor that is not usable.
    pub fn assert_log_floors(&self) {
        match self {
            QoiExpr::Var(_) | QoiExpr::Const(_) => {}
            QoiExpr::Add(a, b) | QoiExpr::Sub(a, b) | QoiExpr::Mul(a, b) => {
                a.assert_log_floors();
                b.assert_log_floors();
            }
            QoiExpr::Scale(_, a) | QoiExpr::Square(a) | QoiExpr::Sqrt(a) | QoiExpr::Abs(a) => {
                a.assert_log_floors()
            }
            QoiExpr::Ln { arg, floor } => {
                let why = bad_floor(*floor);
                assert!(why.is_none(), "{}", why.unwrap_or_default());
                arg.assert_log_floors();
            }
        }
    }

    /// Operation count per point (used by the simulated QoI kernel cost).
    pub fn op_count(&self) -> usize {
        match self {
            QoiExpr::Var(_) | QoiExpr::Const(_) => 0,
            QoiExpr::Add(a, b) | QoiExpr::Sub(a, b) | QoiExpr::Mul(a, b) => {
                1 + a.op_count() + b.op_count()
            }
            QoiExpr::Scale(_, a) | QoiExpr::Square(a) | QoiExpr::Abs(a) => 1 + a.op_count(),
            QoiExpr::Sqrt(a) => 4 + a.op_count(), // sqrt ≈ several FLOPs
            QoiExpr::Ln { arg, .. } => 8 + arg.op_count(),
        }
    }

    /// Pointwise evaluation.
    pub fn eval(&self, vars: &[f64]) -> f64 {
        match self {
            QoiExpr::Var(i) => vars[*i],
            QoiExpr::Const(c) => *c,
            QoiExpr::Add(a, b) => a.eval(vars) + b.eval(vars),
            QoiExpr::Sub(a, b) => a.eval(vars) - b.eval(vars),
            QoiExpr::Mul(a, b) => a.eval(vars) * b.eval(vars),
            QoiExpr::Scale(c, a) => c * a.eval(vars),
            QoiExpr::Square(a) => {
                let v = a.eval(vars);
                v * v
            }
            QoiExpr::Sqrt(a) => a.eval(vars).max(0.0).sqrt(),
            QoiExpr::Abs(a) => a.eval(vars).abs(),
            QoiExpr::Ln { arg, floor } => arg.eval(vars).max(*floor).ln(),
        }
    }

    /// Interval evaluation: the image of the per-variable boxes.
    pub fn eval_interval(&self, vars: &[Interval]) -> Interval {
        match self {
            QoiExpr::Var(i) => vars[*i],
            QoiExpr::Const(c) => Interval::point(*c),
            QoiExpr::Add(a, b) => a.eval_interval(vars).add(b.eval_interval(vars)),
            QoiExpr::Sub(a, b) => a.eval_interval(vars).sub(b.eval_interval(vars)),
            QoiExpr::Mul(a, b) => a.eval_interval(vars).mul(b.eval_interval(vars)),
            QoiExpr::Scale(c, a) => a.eval_interval(vars).scale(*c),
            QoiExpr::Square(a) => a.eval_interval(vars).square(),
            QoiExpr::Sqrt(a) => a.eval_interval(vars).sqrt(),
            QoiExpr::Abs(a) => a.eval_interval(vars).abs(),
            QoiExpr::Ln { arg, floor } => arg.eval_interval(vars).ln_clamped(*floor),
        }
    }

    /// Guaranteed bound on `|Q(v + δ) − Q(v)|` over all `|δ_i| ≤ errs[i]`;
    /// `+∞` when the value or its image is not finite.
    ///
    /// # Panics
    /// Panics with more than 8 variables (the domain-wide scans' cap) or
    /// on a log floor that is not finite and positive.
    pub fn error_bound(&self, vars: &[f64], errs: &[f64]) -> f64 {
        debug_assert_eq!(vars.len(), errs.len());
        assert!(vars.len() <= MAX_VARS, "at most 8 variables supported");
        self.assert_log_floors();
        let mut boxes = [Interval::point(0.0); MAX_VARS];
        let n = vars.len().min(errs.len());
        for ((b, &v), &e) in boxes.iter_mut().zip(vars).zip(errs) {
            *b = Interval::ball(v, e);
        }
        let img = self.eval_interval(&boxes[..n]);
        img.max_deviation_from(self.eval(vars))
    }
}

/// Why `floor` cannot clamp a logarithm, if it cannot.
fn bad_floor(floor: f64) -> Option<String> {
    (!(floor.is_finite() && floor > 0.0))
        .then(|| format!("log floor {floor} is not a finite positive number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_magnitude_evaluates() {
        let q = QoiExpr::vector_magnitude(3);
        assert_eq!(q.num_vars(), 3);
        let v = q.eval(&[3.0, 4.0, 0.0]);
        assert!((v - 5.0).abs() < 1e-12);
    }

    #[test]
    fn kinetic_energy_evaluates() {
        let q = QoiExpr::kinetic_energy(2);
        assert!((q.eval(&[2.0, 4.0]) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn linear_combination_evaluates() {
        let q = QoiExpr::linear(&[2.0, -1.0, 0.5]);
        assert!((q.eval(&[1.0, 2.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn error_bound_is_sound_for_magnitude() {
        // Deterministic sampling of the perturbation box corners.
        let q = QoiExpr::vector_magnitude(3);
        let v = [1.3, -0.4, 2.2];
        let e = [0.05, 0.02, 0.1];
        let bound = q.error_bound(&v, &e);
        let q0 = q.eval(&v);
        for sx in [-1.0, 1.0] {
            for sy in [-1.0, 1.0] {
                for sz in [-1.0, 1.0] {
                    let p = [v[0] + sx * e[0], v[1] + sy * e[1], v[2] + sz * e[2]];
                    assert!((q.eval(&p) - q0).abs() <= bound + 1e-12);
                }
            }
        }
    }

    #[test]
    fn error_bound_shrinks_with_errors() {
        let q = QoiExpr::vector_magnitude(3);
        let v = [1.0, 2.0, 3.0];
        let b1 = q.error_bound(&v, &[0.1, 0.1, 0.1]);
        let b2 = q.error_bound(&v, &[0.01, 0.01, 0.01]);
        assert!(b2 < b1);
        let b0 = q.error_bound(&v, &[0.0, 0.0, 0.0]);
        assert_eq!(b0, 0.0);
    }

    #[test]
    fn magnitude_error_bound_near_triangle_inequality() {
        // |‖v+δ‖ − ‖v‖| ≤ ‖δ‖; the interval bound may be looser but should
        // stay within the Manhattan norm of the errors.
        let q = QoiExpr::vector_magnitude(3);
        let v = [10.0, -7.0, 3.0];
        let e = [0.1, 0.2, 0.05];
        let bound = q.error_bound(&v, &e);
        assert!(bound >= (e[0] * e[0] + e[1] * e[1] + e[2] * e[2]).sqrt() * 0.5);
        assert!(bound <= e.iter().sum::<f64>() + 1e-9);
    }

    #[test]
    fn product_qoi_bound_sound_at_corners() {
        let q = QoiExpr::Mul(Box::new(QoiExpr::Var(0)), Box::new(QoiExpr::Var(1)));
        let v = [3.0, -2.0];
        let e = [0.5, 0.25];
        let bound = q.error_bound(&v, &e);
        let q0 = q.eval(&v);
        for sx in [-1.0, 1.0] {
            for sy in [-1.0, 1.0] {
                let p = [v[0] + sx * e[0], v[1] + sy * e[1]];
                assert!((q.eval(&p) - q0).abs() <= bound + 1e-12);
            }
        }
    }

    #[test]
    fn op_count_positive_for_composites() {
        assert!(QoiExpr::vector_magnitude(3).op_count() >= 8);
        assert_eq!(QoiExpr::Var(0).op_count(), 0);
    }

    #[test]
    fn log_density_bound_sound_at_corners() {
        let q = QoiExpr::log_density(1e-9);
        for v0 in [0.5f64, 3.0, 100.0] {
            let e = [0.1 * v0];
            let v = [v0];
            let bound = q.error_bound(&v, &e);
            let q0 = q.eval(&v);
            for s in [-1.0, 1.0] {
                let p = [v0 + s * e[0]];
                assert!((q.eval(&p) - q0).abs() <= bound + 1e-12, "v0={v0}");
            }
        }
    }

    #[test]
    fn log_floor_prevents_unbounded_errors() {
        let q = QoiExpr::log_density(1e-6);
        // Error larger than the value: the clamp keeps the bound finite.
        let bound = q.error_bound(&[1e-3], &[1e-2]);
        assert!(bound.is_finite());
    }

    #[test]
    fn serde_roundtrip() {
        let q = QoiExpr::vector_magnitude(3);
        let s = serde_json::to_string(&q).unwrap();
        let q2: QoiExpr = serde_json::from_str(&s).unwrap();
        assert_eq!(q, q2);
    }
}
