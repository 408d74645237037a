//! Encoded bitplane streams.

use crate::fixed::BitplaneFloat;
use crate::layout::Layout;
use serde::{Deserialize, Serialize};

/// The bitplane-encoded form of one chunk of aligned coefficients
/// (Algorithm 1's output stream `S`).
///
/// Magnitude planes live in one contiguous **plane-major arena**: plane
/// `b` occupies words `[b·W, (b+1)·W)` of [`Self::arena`], where `W` is
/// [`Self::words_per_plane`], most significant plane first. One
/// allocation holds every plane, a plane prefix is a single contiguous
/// slice, and the plane range of a merged unit copies out with one
/// `memcpy` — the dense register-block stream form the encode/decode hot
/// path works in. `signs` is the dedicated sign plane, always retrieved
/// together with the first magnitude plane. All planes of one chunk
/// share a [`Layout`] and the alignment exponent `exp`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitplaneChunk {
    /// Number of encoded elements.
    pub n: usize,
    /// Alignment exponent (`i32::MIN` for an all-zero chunk).
    pub exp: i32,
    /// Bit-placement rule of every plane.
    pub layout: Layout,
    /// Element type name (`"f32"` / `"f64"`), for stream validation.
    pub dtype: String,
    /// Sign plane (one bit per element, same layout as magnitude planes).
    pub signs: Vec<u32>,
    /// Magnitude plane count (the arena holds exactly this many planes).
    num_planes: usize,
    /// Plane-major arena of all magnitude planes.
    planes: Vec<u32>,
}

impl BitplaneChunk {
    /// An empty chunk for `n` elements of type `F` (used for all-zero
    /// input, where no planes are needed).
    pub fn zero<F: BitplaneFloat>(n: usize, layout: Layout) -> Self {
        BitplaneChunk {
            n,
            exp: i32::MIN,
            layout,
            dtype: F::TYPE_NAME.to_string(),
            signs: vec![0; layout.words_per_plane(n)],
            num_planes: 0,
            planes: Vec::new(),
        }
    }

    /// A chunk whose sign plane and `num_planes`-plane arena are zeroed,
    /// ready for in-place encoding through [`Self::arena_mut`].
    pub fn zeroed<F: BitplaneFloat>(n: usize, exp: i32, layout: Layout, num_planes: usize) -> Self {
        let words = layout.words_per_plane(n);
        BitplaneChunk {
            n,
            exp,
            layout,
            dtype: F::TYPE_NAME.to_string(),
            signs: vec![0; words],
            num_planes,
            planes: vec![0; num_planes * words],
        }
    }

    /// Assemble a chunk from a pre-filled plane-major arena.
    ///
    /// # Panics
    /// Panics if `signs` or `planes` do not match the layout geometry.
    pub fn from_arena(
        n: usize,
        exp: i32,
        layout: Layout,
        dtype: String,
        signs: Vec<u32>,
        num_planes: usize,
        planes: Vec<u32>,
    ) -> Self {
        let words = layout.words_per_plane(n);
        assert_eq!(signs.len(), words, "sign plane length");
        assert_eq!(planes.len(), num_planes * words, "arena length");
        BitplaneChunk {
            n,
            exp,
            layout,
            dtype,
            signs,
            num_planes,
            planes,
        }
    }

    /// Number of magnitude planes held.
    pub fn num_planes(&self) -> usize {
        self.num_planes
    }

    /// Words per plane (identical for every plane of the chunk).
    pub fn words_per_plane(&self) -> usize {
        self.layout.words_per_plane(self.n)
    }

    /// Magnitude plane `b` (0 = most significant).
    #[inline]
    pub fn plane(&self, b: usize) -> &[u32] {
        let words = self.words_per_plane();
        &self.planes[b * words..(b + 1) * words]
    }

    /// The contiguous words of planes `lo..hi` — what a merged unit
    /// copies out in one go.
    #[inline]
    pub fn plane_range(&self, lo: usize, hi: usize) -> &[u32] {
        let words = self.words_per_plane();
        &self.planes[lo * words..hi * words]
    }

    /// The whole plane-major arena.
    #[inline]
    pub fn arena(&self) -> &[u32] {
        &self.planes
    }

    /// The whole plane-major arena, mutably (encode/decode fill path).
    #[inline]
    pub fn arena_mut(&mut self) -> &mut [u32] {
        &mut self.planes
    }

    /// Payload bytes of one magnitude plane.
    pub fn plane_bytes(&self) -> usize {
        self.words_per_plane() * 4
    }

    /// Total payload bytes: sign plane plus all magnitude planes.
    pub fn total_bytes(&self) -> usize {
        self.plane_bytes() * (self.num_planes() + 1)
    }

    /// Check internal consistency (plane lengths, padding-bit hygiene).
    ///
    /// Padding is checked word-wise against the layout's precomputed
    /// padding masks — O(planes) `&`s on the few tail words — instead of
    /// classifying every bit of every word.
    pub fn validate(&self) -> Result<(), String> {
        let words = self.words_per_plane();
        if self.signs.len() != words {
            return Err(format!(
                "sign plane has {} words, expected {words}",
                self.signs.len()
            ));
        }
        if self.planes.len() != self.num_planes * words {
            return Err(format!(
                "plane arena has {} words, expected {} planes × {words}",
                self.planes.len(),
                self.num_planes
            ));
        }
        // Bits beyond `n` must be zero so lossless sizes are layout-stable.
        for (word, mask) in self.layout.padding_masks(self.n) {
            if self.signs[word] & mask != 0 {
                return Err(format!("padding sign bit set in word {word}"));
            }
            for b in 0..self.num_planes {
                if self.planes[b * words + word] & mask != 0 {
                    return Err(format!("padding bit set in plane {b} word {word}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_chunk_has_no_planes_and_validates() {
        let c = BitplaneChunk::zero::<f32>(100, Layout::Natural);
        assert_eq!(c.num_planes(), 0);
        assert_eq!(c.total_bytes(), c.plane_bytes());
        c.validate().unwrap();
    }

    #[test]
    fn plane_accessors_cover_the_arena() {
        let mut c = BitplaneChunk::zeroed::<f32>(64, 1, Layout::Natural, 4);
        let words = c.words_per_plane();
        for (b, plane) in c.arena_mut().chunks_exact_mut(words).enumerate() {
            plane.fill(b as u32 + 1);
        }
        assert_eq!(c.plane(2), &[3, 3]);
        assert_eq!(c.plane(3), &[4, 4]);
        assert_eq!(c.plane_range(1, 3), &[2, 2, 3, 3]);
        assert_eq!(c.arena().len(), 4 * words);
    }

    #[test]
    fn validate_rejects_wrong_arena_length() {
        let mut c = BitplaneChunk::zeroed::<f32>(64, 1, Layout::Natural, 1);
        c.arena_mut(); // touch the arena so the chunk is otherwise valid
        c.planes.push(0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_dirty_padding() {
        let mut c = BitplaneChunk::zero::<f32>(33, Layout::Natural);
        // Elements 33..64 are padding in word 1.
        c.signs = vec![0, 1 << 5];
        assert!(c.validate().is_err());

        // Plane 1, word 1: two words a plane.
        let mut c = BitplaneChunk::zeroed::<f32>(33, 1, Layout::Natural, 2);
        c.arena_mut()[3] = 1 << 31;
        assert!(c.validate().is_err());
        c.arena_mut()[3] = 0;
        c.validate().unwrap();
    }

    #[test]
    fn from_arena_checks_geometry() {
        let c = BitplaneChunk::from_arena(
            64,
            1,
            Layout::Natural,
            "f32".to_string(),
            vec![0; 2],
            3,
            vec![0; 6],
        );
        c.validate().unwrap();
        assert_eq!(c.num_planes(), 3);
    }

    #[test]
    #[should_panic]
    fn from_arena_rejects_bad_length() {
        BitplaneChunk::from_arena(
            64,
            1,
            Layout::Natural,
            "f32".to_string(),
            vec![0; 2],
            3,
            vec![0; 5],
        );
    }
}
