//! Stream layouts: where each element's bit lands in each plane word.
//!
//! A layout is a pure function from element index to `(word, bit)`
//! position, fixed by the stream specification and *independent of the
//! device that produced the stream*. Two layouts exist:
//!
//! * [`Layout::Natural`] — plane word `g` covers elements `32g..32g+32`,
//!   bit `i` within the word is element `32g+i`. Produced by the
//!   paper's locality-block and register-shuffling kernels; preserves spatial
//!   locality of the input in the bit order, which helps downstream
//!   lossless compression.
//! * [`Layout::Interleaved32`] — within each tile of `32×32 = 1024`
//!   elements, element `t + 32j` maps to bit `j` of tile word `t`.
//!   Produced by the register-block design: each simulated thread owns 32
//!   interleaved elements so loads coalesce and no cross-lane
//!   communication is needed; the cost is that bit correlation is only
//!   preserved within each tile (the paper's `warp_size × B` region).

use serde::{Deserialize, Serialize};

/// Elements covered by one plane word.
pub const WORD_BITS: usize = 32;
/// Elements covered by one interleaved tile (32 threads × 32 elements).
pub const TILE_ELEMS: usize = WORD_BITS * WORD_BITS;

/// Bit-placement rule of an encoded stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Layout {
    /// Locality-preserving layout (locality-block / register-shuffling).
    Natural,
    /// Tile-transposed layout (register-block design).
    #[default]
    Interleaved32,
}

impl Layout {
    /// Number of `u32` words each plane occupies for `n` elements.
    pub fn words_per_plane(self, n: usize) -> usize {
        match self {
            Layout::Natural => n.div_ceil(WORD_BITS),
            // Interleaved tiles are whole: 32 words per started tile.
            Layout::Interleaved32 => n.div_ceil(TILE_ELEMS) * WORD_BITS,
        }
    }

    /// Map element index `i` to its `(word, bit)` position within a plane.
    pub fn position(self, i: usize) -> (usize, usize) {
        match self {
            Layout::Natural => (i / WORD_BITS, i % WORD_BITS),
            Layout::Interleaved32 => {
                let tile = i / TILE_ELEMS;
                let within = i % TILE_ELEMS;
                let t = within % WORD_BITS; // owning thread = word in tile
                let j = within / WORD_BITS; // element slot = bit position
                (tile * WORD_BITS + t, j)
            }
        }
    }

    /// The words of an `n`-element plane that carry padding bits, with a
    /// mask of those bits (set = padding). Padding only ever lives in the
    /// last word (natural) or last tile (interleaved), so the list stays
    /// O(1)-small and validation can check whole words with one `&` each
    /// instead of walking every bit of every word.
    pub fn padding_masks(self, n: usize) -> Vec<(usize, u32)> {
        match self {
            Layout::Natural => {
                if n.is_multiple_of(WORD_BITS) {
                    Vec::new()
                } else {
                    vec![(n / WORD_BITS, !0u32 << (n % WORD_BITS))]
                }
            }
            Layout::Interleaved32 => {
                let rem = n % TILE_ELEMS;
                if rem == 0 {
                    return Vec::new();
                }
                let tile = n / TILE_ELEMS;
                let mut out = Vec::new();
                for t in 0..WORD_BITS {
                    // Bit j of tile word t is element tile·1024 + j·32 + t,
                    // valid while j·32 + t < rem.
                    let valid = if t < rem {
                        (rem - t).div_ceil(WORD_BITS)
                    } else {
                        0
                    };
                    if valid < WORD_BITS {
                        let mask = if valid == 0 { !0u32 } else { !0u32 << valid };
                        out.push((tile * WORD_BITS + t, mask));
                    }
                }
                out
            }
        }
    }

    /// Inverse of [`Self::position`].
    pub fn element(self, word: usize, bit: usize) -> usize {
        match self {
            Layout::Natural => word * WORD_BITS + bit,
            Layout::Interleaved32 => {
                let tile = word / WORD_BITS;
                let t = word % WORD_BITS;
                tile * TILE_ELEMS + bit * WORD_BITS + t
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn natural_positions_are_contiguous() {
        assert_eq!(Layout::Natural.position(0), (0, 0));
        assert_eq!(Layout::Natural.position(31), (0, 31));
        assert_eq!(Layout::Natural.position(32), (1, 0));
        assert_eq!(Layout::Natural.position(100), (3, 4));
    }

    #[test]
    fn interleaved_positions_transpose_within_tile() {
        let l = Layout::Interleaved32;
        // Element 0 -> word 0 bit 0; element 1 -> word 1 bit 0 (next thread).
        assert_eq!(l.position(0), (0, 0));
        assert_eq!(l.position(1), (1, 0));
        // Element 32 is thread 0's second element -> word 0 bit 1.
        assert_eq!(l.position(32), (0, 1));
        // First element of the second tile.
        assert_eq!(l.position(TILE_ELEMS), (32, 0));
    }

    #[test]
    fn position_element_roundtrip_both_layouts() {
        for layout in [Layout::Natural, Layout::Interleaved32] {
            for i in (0..5000).step_by(7) {
                let (w, b) = layout.position(i);
                assert_eq!(layout.element(w, b), i, "{layout:?} i={i}");
            }
        }
    }

    #[test]
    fn words_per_plane_rounding() {
        assert_eq!(Layout::Natural.words_per_plane(1), 1);
        assert_eq!(Layout::Natural.words_per_plane(32), 1);
        assert_eq!(Layout::Natural.words_per_plane(33), 2);
        assert_eq!(Layout::Interleaved32.words_per_plane(1), 32);
        assert_eq!(Layout::Interleaved32.words_per_plane(1024), 32);
        assert_eq!(Layout::Interleaved32.words_per_plane(1025), 64);
    }

    #[test]
    fn padding_masks_match_per_bit_definition() {
        for layout in [Layout::Natural, Layout::Interleaved32] {
            for n in [1usize, 31, 32, 33, 100, 1023, 1024, 1025, 2048 + 17] {
                let words = layout.words_per_plane(n);
                // Brute-force reference: bit-by-bit padding classification.
                let mut reference = vec![0u32; words];
                for (word, mask) in reference.iter_mut().enumerate() {
                    for bit in 0..WORD_BITS {
                        if layout.element(word, bit) >= n {
                            *mask |= 1u32 << bit;
                        }
                    }
                }
                let mut from_masks = vec![0u32; words];
                for (word, mask) in layout.padding_masks(n) {
                    from_masks[word] = mask;
                }
                assert_eq!(from_masks, reference, "{layout:?} n={n}");
            }
        }
    }

    #[test]
    fn positions_are_injective_within_capacity() {
        for layout in [Layout::Natural, Layout::Interleaved32] {
            let n = 2048 + 17;
            let words = layout.words_per_plane(n);
            let mut seen = vec![false; words * WORD_BITS];
            for i in 0..n {
                let (w, b) = layout.position(i);
                assert!(w < words, "{layout:?}: word {w} out of range");
                let slot = w * WORD_BITS + b;
                assert!(!seen[slot], "{layout:?}: collision at element {i}");
                seen[slot] = true;
            }
        }
    }
}
