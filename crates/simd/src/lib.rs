//! # hpmdr-simd — runtime instruction-set detection and dispatch policy
//!
//! HP-MDR's bit-level stages (32×32 bit transpose, aligned fixed-point
//! conversion, fixed-point quantization) map directly
//! onto 128/256-bit vector units, but refactored artifacts are a
//! portability contract: whatever instruction set runs the kernels, the
//! bytes must be identical. This crate owns the *policy* half of that
//! bargain — which ISA a process may use — while the kernels themselves
//! live next to the data structures they operate on (`hpmdr-bitplane`,
//! `hpmdr-mgard`) as explicit `*_with_isa` entry points.
//!
//! [`Isa`] is decided **once**, at backend construction (see
//! `hpmdr-exec`'s `SimdBackend`), and then pinned: kernels receive the
//! pinned value and resolve their function pointers from it at kernel
//! entry, never per element. Detection layers, in priority order:
//!
//! 1. `HPMDR_FORCE_SCALAR` — any non-empty value other than `0` forces
//!    [`Isa::Scalar`], trumping everything else (the CI escape hatch).
//! 2. `HPMDR_SIMD` — `scalar`/`off`/`0` force scalar; `avx2` / `neon`
//!    request that ISA (silently degrading to scalar when the CPU lacks
//!    it, so test matrices run unchanged everywhere); `auto`, empty, or
//!    unset defer to hardware detection.
//! 3. Hardware detection — `is_x86_feature_detected!("avx2")` on
//!    x86_64, NEON (baseline, but still verified) on aarch64.
//!
//! SSE2 needs no detection tier of its own: it is part of the x86_64
//! baseline, so the "scalar" kernels are already compiled against it and
//! the compiler auto-vectorizes the straight-line reference loops.
//! Every kernel keeps its scalar fallback compiled and reachable on
//! every target — forcing [`Isa::Scalar`] is always valid.

use std::fmt;

/// Instruction set a pipeline's kernels are allowed to use.
///
/// The variant set is deliberately small: one tier per implemented
/// kernel family. Adding an ISA means adding a variant here, a
/// detection arm in [`Isa::best_available`], and kernel arms in the
/// owning crates' dispatch functions (see ARCHITECTURE.md, "SIMD
/// backend").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Isa {
    /// Portable reference kernels; always available, always compiled.
    #[default]
    Scalar,
    /// 256-bit AVX2 kernels (x86_64; implies SSE2/SSSE3/SSE4).
    Avx2,
    /// 128-bit NEON kernels (aarch64 baseline).
    Neon,
}

impl Isa {
    /// Best ISA the *hardware* supports, ignoring environment overrides.
    ///
    /// Use this for microbenchmarks that compare scalar and SIMD paths
    /// explicitly; production construction goes through [`Isa::detect`].
    pub fn best_available() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return Isa::Avx2;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if std::arch::is_aarch64_feature_detected!("neon") {
                return Isa::Neon;
            }
        }
        Isa::Scalar
    }

    /// Resolve the ISA to pin, honoring the `HPMDR_FORCE_SCALAR` and
    /// `HPMDR_SIMD` environment overrides described in the crate docs.
    ///
    /// The environment is re-read on every call (construction-time cost
    /// only; nothing here is cached), so tests can flip the override
    /// between backend constructions without process-global state.
    pub fn detect() -> Isa {
        if let Ok(v) = std::env::var("HPMDR_FORCE_SCALAR") {
            if !v.is_empty() && v != "0" {
                return Isa::Scalar;
            }
        }
        match std::env::var("HPMDR_SIMD").as_deref() {
            Ok("scalar") | Ok("off") | Ok("0") => Isa::Scalar,
            Ok("avx2") => Isa::Avx2.or_scalar(),
            Ok("neon") => Isa::Neon.or_scalar(),
            _ => Isa::best_available(),
        }
    }

    /// Whether this ISA can run on the current CPU. [`Isa::Scalar`] is
    /// always available.
    pub fn is_available(self) -> bool {
        match self {
            Isa::Scalar => true,
            Isa::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    std::arch::is_x86_feature_detected!("avx2")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            Isa::Neon => {
                #[cfg(target_arch = "aarch64")]
                {
                    std::arch::is_aarch64_feature_detected!("neon")
                }
                #[cfg(not(target_arch = "aarch64"))]
                {
                    false
                }
            }
        }
    }

    /// This ISA when available on the current CPU, [`Isa::Scalar`]
    /// otherwise — the degradation rule every construction path applies
    /// so a pinned ISA is *always* runnable.
    pub fn or_scalar(self) -> Isa {
        if self.is_available() {
            self
        } else {
            Isa::Scalar
        }
    }

    /// Short lowercase name (`"scalar"`, `"avx2"`, `"neon"`).
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Neon => "neon",
        }
    }
}

impl fmt::Display for Isa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available() {
        assert!(Isa::Scalar.is_available());
        assert_eq!(Isa::Scalar.or_scalar(), Isa::Scalar);
    }

    #[test]
    fn best_available_is_available() {
        let best = Isa::best_available();
        assert!(best.is_available(), "{best} must be runnable");
        assert_eq!(best.or_scalar(), best);
    }

    #[test]
    fn unavailable_isas_degrade_to_scalar() {
        for isa in [Isa::Avx2, Isa::Neon] {
            if !isa.is_available() {
                assert_eq!(isa.or_scalar(), Isa::Scalar);
            }
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Isa::Scalar.name(), "scalar");
        assert_eq!(Isa::Avx2.name(), "avx2");
        assert_eq!(Isa::Neon.name(), "neon");
        assert_eq!(format!("{}", Isa::Avx2), "avx2");
    }

    #[test]
    fn default_is_scalar() {
        assert_eq!(Isa::default(), Isa::Scalar);
    }
}
