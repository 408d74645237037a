//! # hpmdr-lossless — hybrid lossless bitplane compression (HP-MDR §5)
//!
//! Encoded bitplanes are losslessly compressed before storage; the paper
//! selects, per merged group of bitplanes, among three methods with
//! complementary strengths:
//!
//! * [`huffman`] — chunked canonical Huffman coding, effective on
//!   higher-order planes whose symbol distribution concentrates on few
//!   values (mostly zeros).
//! * [`rle`] — run-length encoding with varint run lengths, effective on
//!   planes with long structured zero runs, at much higher throughput.
//! * **Direct copy** — a zero-cost fallback for small or incompressible
//!   groups, avoiding encoding effort where it cannot pay off.
//!
//! [`hybrid`] implements Algorithm 2: each group is size-gated (`T_s`),
//! then cheap compression-ratio estimators ([`estimate`]) decide between
//! Huffman, RLE, and direct copy against the ratio threshold `T_cr`.

pub mod estimate;
mod framing;
pub mod huffman;
pub mod hybrid;
pub mod rle;

pub use estimate::{estimate_huffman_cr, estimate_rle_cr};
pub use huffman::HuffmanError;
pub use hybrid::{Codec, CodecError, CompressedGroup, HybridCompressor, HybridConfig};
pub use rle::RleError;
