//! 32×32 bit-matrix transpose.
//!
//! Both stream layouts reduce to transposing 32×32 bit tiles: the natural
//! layout transposes a group of 32 aligned values into 32 plane words, and
//! the interleaved (register-block) layout applies the same transpose to a
//! strided gather. The implementation is the classic recursive
//! block-swap (Hacker's Delight §7-3): five masked swap stages, ~10 word
//! operations per stage per half — the same instruction pattern a GPU lane
//! executes in the register-block kernel.

/// Transpose a 32×32 bit matrix in place: afterwards, bit `c` of word `r`
/// equals bit `r` of the original word `c`.
///
/// Stage `s` swaps element `(r, c+s)` with `(r+s, c)` for every `r`,`c`
/// whose `s` bit is clear; after the five stages every `(r, c)` has moved
/// to `(c, r)`.
pub fn transpose32(m: &mut [u32; 32]) {
    let mut s = 16usize;
    let mut mask: u32 = 0x0000_FFFF; // bits with (c & s) == 0
    while s != 0 {
        let mut k = 0;
        while k < 32 {
            let t = ((m[k] >> s) ^ m[k + s]) & mask;
            m[k] ^= t << s;
            m[k + s] ^= t;
            k = (k + s + 1) & !s; // next row with (k & s) == 0
        }
        s >>= 1;
        mask ^= mask << s;
    }
}

/// [`transpose32`] on each of the 32 word columns of `tile` at once:
/// afterwards bit `c` of `tile[r][t]` is bit `r` of the original
/// `tile[c][t]`, for every column `t`.
///
/// The same five masked swap stages, but each row-pair step runs across
/// the 32 columns of the pair — a unit-stride loop the compiler
/// vectorises — so a whole 1024-value tile costs 80 row-pair steps
/// instead of 32 separate transposes.
pub fn transpose32_columns(tile: &mut [[u32; 32]; 32]) {
    let mut s = 16usize;
    let mut mask: u32 = 0x0000_FFFF;
    while s != 0 {
        let mut k = 0;
        while k < 32 {
            let (upper, lower) = tile.split_at_mut(k + s);
            for (a, b) in upper[k].iter_mut().zip(lower[0].iter_mut()) {
                let t = ((*a >> s) ^ *b) & mask;
                *a ^= t << s;
                *b ^= t;
            }
            k = (k + s + 1) & !s;
        }
        s >>= 1;
        mask ^= mask << s;
    }
}

/// Reference implementation used to validate the fast paths (the
/// block-swaps above). Test-only: release binaries carry only the fast
/// paths.
#[cfg(test)]
#[doc(hidden)]
pub fn transpose32_naive(m: &[u32; 32]) -> [u32; 32] {
    let mut out = [0u32; 32];
    for (r, out_word) in out.iter_mut().enumerate() {
        for (c, &col) in m.iter().enumerate() {
            *out_word |= ((col >> r) & 1) << c;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(seed: u32) -> [u32; 32] {
        let mut s = seed;
        let mut m = [0u32; 32];
        for w in m.iter_mut() {
            // xorshift32
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            *w = s;
        }
        m
    }

    /// `m` transposed by [`transpose32`], out of place.
    fn transposed32(m: &[u32; 32]) -> [u32; 32] {
        let mut out = *m;
        transpose32(&mut out);
        out
    }

    #[test]
    fn matches_naive_on_random_matrices() {
        for seed in 1..64u32 {
            let m = pattern(seed);
            assert_eq!(transposed32(&m), transpose32_naive(&m), "seed {seed}");
        }
    }

    #[test]
    fn transpose_is_involution() {
        let m = pattern(0xdead_beef);
        let mut t = m;
        transpose32(&mut t);
        transpose32(&mut t);
        assert_eq!(t, m);
    }

    #[test]
    fn identity_matrix_is_fixed_point() {
        let mut m = [0u32; 32];
        for (i, w) in m.iter_mut().enumerate() {
            *w = 1 << i;
        }
        let t = transposed32(&m);
        assert_eq!(t, m);
    }

    #[test]
    fn single_bit_moves_to_mirrored_position() {
        let mut m = [0u32; 32];
        m[3] = 1 << 17; // bit (row 3, col 17)
        let t = transposed32(&m);
        assert_eq!(t[17], 1 << 3);
        assert_eq!(t.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
    }

    #[test]
    fn column_lockstep_transposes_every_column_like_transpose32() {
        let mut tile = [[0u32; 32]; 32];
        for (j, row) in tile.iter_mut().enumerate() {
            *row = pattern(0x51ed_270b ^ j as u32);
        }
        let mut got = tile;
        transpose32_columns(&mut got);
        for t in 0..32 {
            let column: [u32; 32] = std::array::from_fn(|j| tile[j][t]);
            let want = transposed32(&column);
            let have: [u32; 32] = std::array::from_fn(|j| got[j][t]);
            assert_eq!(have, want, "column {t}");
        }
    }

    #[test]
    fn all_ones_unchanged() {
        let m = [u32::MAX; 32];
        assert_eq!(transposed32(&m), m);
    }
}
