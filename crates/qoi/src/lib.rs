//! # hpmdr-qoi — Quantities of Interest with guaranteed error bounds
//!
//! Scientists rarely consume raw fields; they derive *Quantities of
//! Interest* (QoIs) such as the total velocity
//! `V_total = √(Vx² + Vy² + Vz²)` used throughout the paper's §7.3
//! evaluation. Progressive retrieval with QoI error control (Algorithm 3)
//! needs, at every iteration, a *guaranteed* upper bound on the pointwise
//! QoI error given the current per-variable reconstruction error bounds.
//!
//! This crate provides:
//!
//! * [`expr::QoiExpr`] — a small expression language covering the base QoI
//!   families of \[39\] (squares, square roots, absolute values, linear
//!   combinations, products);
//! * [`interval`] — sound interval arithmetic used to propagate the
//!   per-variable bounds through an expression;
//! * [`propagate`] — the GPU-kernel-shaped evaluation: pointwise supremum
//!   error estimates, their domain-wide maximum (with arg-max, needed by
//!   the CP estimator), and actual-error measurement for validation
//!   (Figure 13), all run by one block evaluator that compiles the
//!   expression into a flat postfix program once per scan.

pub mod expr;
pub mod interval;
mod program;
pub mod propagate;

pub use expr::QoiExpr;
pub use interval::Interval;
pub use propagate::{actual_max_error, eval_field, max_qoi_error, MaxError};
