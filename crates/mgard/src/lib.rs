//! # hpmdr-mgard — multilevel data decomposition substrate
//!
//! HP-MDR composes its optimized encoding stages with the multilevel
//! (re)decomposition of (P)MGARD \[13, 24\]: data is recursively split into
//! a coarse grid plus per-level *multilevel coefficients* (detail values
//! minus their multilinear interpolation from the coarser grid, with an
//! L2-projection correction applied to the coarse nodes). MDR then encodes
//! each level's coefficients into bitplanes independently, which is what
//! makes error-controlled progressive retrieval possible.
//!
//! This crate implements that substrate from scratch for 1D/2D/3D arrays
//! of `f32`/`f64` with arbitrary (non-dyadic) extents:
//!
//! * [`mod@grid`] — level geometry: per-dimension active index sets coarsening
//!   as `n_{l+1} = ceil(n_l / 2)`.
//! * `line` (internal) — the 1D transform: interpolation detail plus the
//!   L2 correction obtained from a symmetric tridiagonal (Thomas) solve,
//!   applied to a panel of independent lines in lockstep.
//! * [`transform`] — tensor-product application along each axis per level,
//!   one panel of lines at a time, exactly invertible by construction.
//! * [`levels`] — extraction/injection of per-level coefficient groups and
//!   the conservative error-propagation weights MDR's retrieval planner
//!   uses.
//! * [`quantize`] — uniform level-scaled quantization (used by the MGARD
//!   baseline codec of the evaluation, not by HP-MDR's bitplane path).
//!
//! Every kernel is portable Rust with no architecture-specific code: the
//! panel loops are written so the compiler vectorises them for AVX2 and
//! NEON alike, which is the one algorithm source every executor runs.

pub mod grid;
pub mod levels;
mod line;
pub mod quantize;
pub mod transform;

pub use grid::Hierarchy;
pub use levels::{extract_levels, inject_levels, level_error_weights, write_group, LevelSet};
pub use transform::{decompose, extract_active_grid, recompose, recompose_to_level, RecomposeTo};

/// Minimal float abstraction for the decomposition math. Both element
/// types widen to `f64` exactly (`Into<f64>`), which is how the QoI scans
/// read a reconstruction without copying it.
pub trait Real:
    Copy
    + Into<f64>
    + PartialOrd
    + Send
    + Sync
    + 'static
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
{
    /// Additive identity.
    const ZERO: Self;
    /// Convert from f64 (used for constants like ½).
    fn from_f64(v: f64) -> Self;
    /// Convert to f64 (used for metrics and error estimates).
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs_val(self) -> Self;
}

impl Real for f32 {
    const ZERO: Self = 0.0;
    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn abs_val(self) -> Self {
        self.abs()
    }
}

impl Real for f64 {
    const ZERO: Self = 0.0;
    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn abs_val(self) -> Self {
        self.abs()
    }
}
