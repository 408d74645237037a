//! # hpmdr-exec — portable executor layer (the HPDR abstraction)
//!
//! HP-MDR's portability claim rests on routing every hot pipeline stage
//! through a backend-agnostic execution layer: the same refactoring /
//! retrieval dataflow runs on CUDA, HIP, or SYCL devices (HPDR,
//! arXiv:2503.06322), or on host CPUs. This crate is that seam for the
//! workspace: a [`Backend`] trait whose kernels cover the hot stages —
//! multilevel decompose/recompose, bitplane encode/decode, and hybrid
//! lossless (de)compression of merged units — plus an [`ExecCtx`]
//! carrying reusable scratch buffers. A batch entry point
//! ([`Backend::map_batch`]) fans independent work items — notably the
//! chunks of `hpmdr-core`'s chunk grid — across the same worker budget,
//! so domain-decomposed workloads get chunk-level parallelism from the
//! identical kernel set.
//!
//! One backend ships: [`CpuBackend`], host execution `threads` wide and
//! the façade's default at host width. Batch items, level groups, merged
//! units and element ranges fan out on the process's one persistent
//! worker pool; every `install` counts its thread against one
//! process-wide core budget for the duration of the call, and a fan takes
//! only the cores that budget leaves free — so a lone query or ingest
//! (see [`stages`]) uses the whole machine while concurrent clients and
//! fans nested in a batch item do not oversubscribe it.
//! `CpuBackend::with_threads(1)` runs every kernel in order on the
//! calling thread, the one canonical execution order.
//!
//! Its kernels are one portable source with no hand-written SIMD: the
//! panel- and tile-lockstep loops of `hpmdr-mgard` and `hpmdr-bitplane`
//! are what the compiler vectorises for AVX2 and NEON alike. Every width
//! produces **bit-identical artifacts**: parallelism only ever splits
//! independent work (groups, units, elements), never reassociates
//! arithmetic. `tests/tests/backend_equivalence.rs` property-tests that
//! invariant, which is the portability property refactored data relies on.
//!
//! Adding an accelerator backend means implementing [`Backend`]'s kernels
//! and nothing else; `hpmdr-core`'s refactor/retrieve/ingest code is
//! generic over `B: Backend`. See `ARCHITECTURE.md` at the workspace root.

mod backend;
mod cpu;
mod ctx;
pub mod stages;

pub use backend::{Backend, DecodeError, EncodedStream, StreamView, UnitPlanes};
pub use cpu::CpuBackend;
pub use ctx::ExecCtx;
pub use stages::CountingGate;

/// The widest vector instruction set the host supports — a fingerprint
/// for benchmark reports. Nothing dispatches on it: every kernel is one
/// portable source the compiler vectorises for its target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// No vector extension this probe knows.
    Scalar,
    /// 256-bit AVX2 (x86_64).
    Avx2,
    /// 128-bit NEON (aarch64).
    Neon,
}

impl Isa {
    /// Probe the hardware for the widest instruction set it supports.
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

    /// Short lowercase name (`"scalar"`, `"avx2"`, `"neon"`).
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Neon => "neon",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_available_is_available() {
        let best = Isa::best_available();
        assert_eq!(best, Isa::best_available(), "the probe is deterministic");
        if !cfg!(target_arch = "x86_64") {
            assert_ne!(best, Isa::Avx2);
        }
        if !cfg!(target_arch = "aarch64") {
            assert_ne!(best, Isa::Neon);
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Isa::Scalar.name(), "scalar");
        assert_eq!(Isa::Avx2.name(), "avx2");
        assert_eq!(Isa::Neon.name(), "neon");
    }
}
