//! # hpmdr-bitplane — portable bitplane encoding/decoding (HP-MDR §4)
//!
//! Bitplane encoding is the stage that turns exponent-aligned fixed-point
//! coefficients into independently retrievable bitplanes, enabling the
//! fine-grained progressiveness of MDR. This crate implements:
//!
//! * **Exponent alignment** ([`fixed`]): all values of a chunk are aligned
//!   to the chunk's maximum exponent so bitplane `k` always carries weight
//!   `2^(exp-1-k)`, giving closed-form error bounds for any plane prefix.
//! * **Two stream layouts** ([`layout`]): `Natural` (bit *i* of plane word
//!   *g* is element `32g+i`, produced by the paper's locality-block and
//!   register-shuffling kernels) and `Interleaved32` (bit-transposed within
//!   32×32-element tiles, produced by its register-block kernel). Layouts
//!   are *device independent*: a 64-lane wavefront device produces byte-
//!   identical streams to a 32-lane device, which is the portability
//!   property HP-MDR's refactored data relies on.
//! * **Fast native codecs** ([`native`]): tile-parallel encoders built on
//!   a 32×32 bit-matrix transpose, used for wall-clock benchmarking and by
//!   the end-to-end pipelines. They are portable Rust with no
//!   architecture-specific code: the encoder transposes a 1024-element
//!   tile's 32 word columns in lockstep, a unit-stride loop the compiler
//!   vectorises for AVX2 and NEON alike (a hand-written AVX2 per-column
//!   encoder lost to it and was deleted).
//!
//! The paper's three GPU kernels that produce these streams are simulated,
//! warp by warp, in `hpmdr-repro` over this crate's codecs.

pub mod chunk;
pub mod fixed;
pub mod layout;
pub mod native;
pub mod transpose;

pub use chunk::BitplaneChunk;
pub use fixed::{align_exponent, prefix_error_bound, BitplaneFloat};
pub use layout::Layout;
pub use native::{decode_prefix, encode, Reconstruction};
