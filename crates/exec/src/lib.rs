//! # hpmdr-exec — portable executor layer (the HPDR abstraction)
//!
//! HP-MDR's portability claim rests on routing every hot pipeline stage
//! through a backend-agnostic execution layer: the same refactoring /
//! retrieval dataflow runs on CUDA, HIP, or SYCL devices (HPDR,
//! arXiv:2503.06322), or on host CPUs. This crate is that seam for the
//! workspace: a [`Backend`] trait whose kernels cover the hot stages —
//! multilevel decompose/recompose, bitplane encode/decode, and hybrid
//! lossless (de)compression of merged units — plus an [`ExecCtx`]
//! carrying tiling parameters and reusable scratch buffers. A batch
//! entry point ([`Backend::map_batch`]) fans independent work items —
//! notably the chunks of `hpmdr-core`'s chunk grid — across the same
//! worker budget, so domain-decomposed workloads get chunk-level
//! parallelism from the identical kernel set.
//!
//! Three backends ship today:
//!
//! * [`ScalarBackend`] — the portable reference: every kernel runs
//!   sequentially on the calling thread (the paper's "most compatible
//!   processor" configuration), one canonical execution order.
//! * [`ParallelBackend`] — multi-core host execution and the façade's
//!   default: batch items, level groups, merged units, and element
//!   ranges fan out on the process's one persistent worker pool.
//!   Every backend's `install` counts its thread against one
//!   process-wide core budget for the duration of the call, and a fan
//!   takes only the cores that budget leaves free — so a lone query uses
//!   the whole machine while concurrent clients, pipeline stage threads
//!   (see [`stages`]) and fans nested in a batch item do not
//!   oversubscribe it.
//! * [`SimdBackend`] — single-threaded execution with the bitplane
//!   encode loops (32×32 transpose, aligned fixed-point conversion)
//!   dispatched at construction to AVX2 or NEON kernels, with a scalar
//!   fallback that is always compiled and reachable
//!   (`HPMDR_FORCE_SCALAR=1`). The lossless stage has one portable path
//!   on every backend.
//!
//! All of them produce **bit-identical artifacts**: parallelism only ever splits
//! independent work (groups, units, elements), never reassociates
//! arithmetic. `tests/tests/backend_equivalence.rs` property-tests that
//! invariant, which is the portability property refactored data relies on.
//!
//! Adding a GPU/SIMD backend means implementing [`Backend`]'s kernels and
//! nothing else; `hpmdr-core`'s refactor/retrieve/pipeline code is generic
//! over `B: Backend`. See `ARCHITECTURE.md` at the workspace root.

mod backend;
mod ctx;
mod parallel;
mod scalar;
mod simd;
pub mod stages;

pub use backend::{Backend, DecodeError, EncodedStream, StreamView, UnitPlanes};
pub use ctx::{ExecCtx, DEFAULT_TILE_ROWS};
pub use hpmdr_simd::Isa;
pub use parallel::ParallelBackend;
pub use scalar::ScalarBackend;
pub use simd::SimdBackend;
pub use stages::{fan_ordered, CountingGate};
