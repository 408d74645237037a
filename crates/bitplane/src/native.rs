//! Fast native (CPU) bitplane codecs.
//!
//! Both stream layouts are produced by the same engine: each output word
//! column is a 32×32 bit-tile transpose of 32 aligned values chosen by
//! the layout's `element(word, row)` rule, and the encoder transposes the
//! 32 columns of a 1024-element tile in lockstep. Tiles are independent,
//! so encoding fans out over the worker pool with no synchronization;
//! this is the same structure that makes the paper's register-block GPU
//! kernel communication-free.

use crate::chunk::BitplaneChunk;
use crate::fixed::{align_exponent, BitplaneFloat, Scale};
use crate::layout::{Layout, TILE_ELEMS, WORD_BITS};
use crate::transpose::{transpose32, transpose32_columns};

/// How truncated magnitudes are turned back into floats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Reconstruction {
    /// Keep the truncated magnitude (error `< 2^(exp-k)`).
    Truncate,
    /// Add half of the dropped quantum to non-zero prefixes, halving the
    /// expected error (worst case unchanged).
    #[default]
    Midpoint,
}

/// Raw pointer into a plane-major arena (the magnitude planes, or the sign
/// plane as an arena of one), letting disjoint word ranges be written
/// from pool workers without locks. Soundness: every tile is processed by
/// exactly one worker, and a worker only writes its own words of each
/// plane — words `32·tile .. 32·tile + 32` (`arena[plane·words + word]`).
struct ArenaColumns {
    ptr: *mut u32,
    words: usize,
}
// SAFETY: the pointer targets a plain `u32` arena owned by the caller for
// the whole scope; workers write disjoint slots (see `write`), so moving
// the handle across threads cannot race.
unsafe impl Send for ArenaColumns {}
// SAFETY: shared use only performs `write` calls on disjoint (plane, word)
// ranges — no two threads ever touch the same address.
unsafe impl Sync for ArenaColumns {}

impl ArenaColumns {
    /// Store `vals` at words `word..word + vals.len()` of `plane`.
    ///
    /// # Safety
    /// `plane` and the word range must be in-bounds and the range written
    /// by only one thread.
    // SAFETY: contract is on the caller — an in-bounds range, one writer
    // per slot; the body is then a plain copy into owned memory that
    // `vals` (a live shared borrow) cannot overlap.
    #[inline]
    unsafe fn write(&self, plane: usize, word: usize, vals: &[u32]) {
        let dst = self.ptr.add(plane * self.words + word);
        std::ptr::copy_nonoverlapping(vals.as_ptr(), dst, vals.len());
    }
}

/// Encode `data` into `planes` magnitude bitplanes plus a sign plane.
///
/// `planes` is clamped to `F::MAX_PLANES`. All-zero input produces a
/// plane-less chunk whose reconstruction is exact.
///
/// Works a 1024-element tile at a time: one unit-stride pass converts the
/// tile's values into a 32×32 matrix of left-aligned magnitudes in
/// element order, [`transpose32_columns`] bit-transposes all 32 word
/// columns of it in lockstep, and row `31 - p` of the result is plane
/// `p`'s 32 words of the tile — one contiguous copy per plane. For
/// [`Layout::Interleaved32`] the element-order matrix already is the one
/// to transpose (`tile[j][t]` = element `32j + t` = bit `j` of tile word
/// `t`); [`Layout::Natural`] word-transposes it first.
pub fn encode<F: BitplaneFloat>(data: &[F], planes: usize, layout: Layout) -> BitplaneChunk {
    let b = planes.min(F::MAX_PLANES).max(1);
    let exp = align_exponent(data);
    if exp == i32::MIN {
        return BitplaneChunk::zero::<F>(data.len(), layout);
    }
    let n = data.len();
    let words = layout.words_per_plane(n);
    let mut chunk = BitplaneChunk::zeroed::<F>(n, exp, layout, b);
    // A split group is staged at `rest` times its values, so the tile
    // loop multiplies by one factor whatever the group (see `Scale`).
    let scale = Scale::pow2(b as i32 - exp);
    let staged: Vec<F>;
    let data: &[F] = if scale.is_split() {
        staged = data.iter().map(|&v| scale.apply_rest(v)).collect();
        &staged
    } else {
        data
    };
    let scale = scale.main;
    let cols = ArenaColumns {
        ptr: chunk.arena_mut().as_mut_ptr(),
        words,
    };
    let signs_col = ArenaColumns {
        ptr: chunk.signs.as_mut_ptr(),
        words,
    };
    // Fan out over tiles, 32 or more to a worker (a thread spawn's worth).
    // `move`: the conversion loop must read `scale` and `b` as values to
    // vectorise (see `materialize`).
    hpmdr_rt::map_blocks(n.div_ceil(TILE_ELEMS), 32, move |tiles| {
        let vals = data[tiles.start * TILE_ELEMS..].chunks(TILE_ELEMS);
        for (tile, vals) in tiles.zip(vals) {
            // Elements past `n` stay zero: padding bits are never set.
            let mut hi = [[0u32; WORD_BITS]; WORD_BITS];
            let mut lo = [[0u32; WORD_BITS]; WORD_BITS];
            let mut signs = [0u32; WORD_BITS];
            let rows = hi.iter_mut().zip(&mut lo).zip(&mut signs);
            for (((hi, lo), sign), row) in rows.zip(vals.chunks(WORD_BITS)) {
                let cells = hi.iter_mut().zip(lo).zip(row).enumerate();
                if b <= 32 {
                    // The magnitude fits the `hi` half.
                    for (t, ((h, _), &v)) in cells {
                        *h = (v.to_fixed_scaled(scale, b) as u32) << (32 - b);
                        *sign |= u32::from(v.is_neg()) << t;
                    }
                } else {
                    for (t, ((h, l), &v)) in cells {
                        // Left-aligned in 64 bits: plane 0 is always bit 63.
                        let a = v.to_fixed_scaled(scale, b) << (64 - b);
                        (*h, *l) = ((a >> 32) as u32, a as u32);
                        *sign |= u32::from(v.is_neg()) << t;
                    }
                }
            }
            // The last natural tile may be short of 32 words.
            let first = tile * WORD_BITS;
            let len = (words - first).min(WORD_BITS);
            let halves = [(&mut hi, 0), (&mut lo, 32)];
            for (half, base) in halves.into_iter().filter(|&(_, base)| base < b) {
                if layout == Layout::Natural {
                    *half = word_transposed(half);
                }
                transpose32_columns(half);
                for (p, row) in half.iter().rev().take(b - base).enumerate() {
                    // SAFETY: `base + p < b` planes, `first + len <= words`,
                    // and this worker alone owns the tile's words.
                    unsafe { cols.write(base + p, first, &row[..len]) };
                }
            }
            // Row `j` of `signs` masks elements `32j..32j + 32`: a natural
            // sign word as it stands, an interleaved one after a transpose.
            if layout == Layout::Interleaved32 {
                transpose32(&mut signs);
            }
            // SAFETY: as above, on the one-plane sign arena.
            unsafe { signs_col.write(0, first, &signs[..len]) };
        }
    });
    chunk
}

/// `m` with rows and columns of words exchanged.
fn word_transposed(m: &[[u32; WORD_BITS]; WORD_BITS]) -> [[u32; WORD_BITS]; WORD_BITS] {
    let mut out = [[0u32; WORD_BITS]; WORD_BITS];
    for (w, row) in m.iter().enumerate() {
        for (i, &word) in row.iter().enumerate() {
            out[i][w] = word;
        }
    }
    out
}

/// The per-column encoder [`encode`] shipped before the lockstep tile —
/// one 32-value gather, one [`transpose32`] and 32 stores a plane apart
/// per word column — kept as its bit-exact oracle.
#[cfg(test)]
fn encode_columns<F: BitplaneFloat>(data: &[F], planes: usize, layout: Layout) -> BitplaneChunk {
    let b = planes.min(F::MAX_PLANES).max(1);
    let exp = align_exponent(data);
    if exp == i32::MIN {
        return BitplaneChunk::zero::<F>(data.len(), layout);
    }
    let n = data.len();
    let words = layout.words_per_plane(n);
    let mut chunk = BitplaneChunk::zeroed::<F>(n, exp, layout, b);
    for u in 0..words {
        let mut hi = [0u32; 32];
        let mut lo = [0u32; 32];
        let mut sign_word = 0u32;
        for r in 0..WORD_BITS {
            let e = layout.element(u, r);
            if e >= n {
                continue;
            }
            let v = data[e];
            // Left-align into 64 bits so plane 0 is always bit 63.
            let a = v.to_fixed(exp, b) << (64 - b);
            hi[r] = (a >> 32) as u32;
            lo[r] = a as u32;
            sign_word |= (v.is_neg() as u32) << r;
        }
        transpose32(&mut hi);
        transpose32(&mut lo);
        let arena = chunk.arena_mut();
        for (p, col) in hi.iter().rev().chain(lo.iter().rev()).take(b).enumerate() {
            arena[p * words + u] = *col;
        }
        chunk.signs[u] = sign_word;
    }
    chunk
}

/// Decode the first `k` magnitude planes of `chunk` into values: a
/// fresh [`ProgressiveDecoder`] advanced to `k` and materialized.
///
/// `k` is clamped to the number of available planes. The pointwise error is
/// bounded by [`crate::fixed::prefix_error_bound`]`(chunk.exp, k)`.
///
/// # Panics
/// Panics if the chunk was encoded from a different element type.
pub fn decode_prefix<F: BitplaneFloat>(
    chunk: &BitplaneChunk,
    k: usize,
    recon: Reconstruction,
) -> Vec<F> {
    assert_eq!(chunk.dtype, F::TYPE_NAME, "chunk dtype mismatch");
    let k = k.min(chunk.num_planes());
    if k == 0 {
        return vec![F::from_f64(0.0); chunk.n];
    }
    let mut decoder = ProgressiveDecoder::new(chunk);
    decoder.advance(chunk, k);
    decoder.materialize(chunk, recon)
}

/// Incremental decoder: accumulates plane prefixes across progressive
/// retrieval iterations so each round only touches the newly fetched
/// planes (the recompose step of Algorithm 3).
///
/// `total_planes` is the plane count of the *full* stream, not of the
/// (possibly partial) chunks handed to [`Self::advance`]: bit weights must
/// stay stable across refinements even when earlier chunks carried fewer
/// planes.
///
/// Magnitudes accumulate left-aligned (plane 0 at bit 63) as two `u32`
/// halves in **element order**, padded to whole tiles: [`Self::advance`]
/// pays the layout permutation once per 1024-element tile (one lockstep
/// transpose, then unit-stride ORs) and [`Self::materialize`] is a
/// unit-stride loop.
#[derive(Debug, Clone)]
pub struct ProgressiveDecoder {
    n: usize,
    /// Planes `0..32`: plane `p` is bit `31 - p`.
    hi: Vec<u32>,
    /// Planes `32..64` (plane `p` is bit `63 - p`); empty until one is
    /// applied, so streams of at most 32 planes never allocate it.
    lo: Vec<u32>,
    applied: usize,
    total_planes: usize,
}

impl ProgressiveDecoder {
    /// Fresh state for a stream of `chunk.num_planes()` planes.
    pub fn new(chunk: &BitplaneChunk) -> Self {
        Self::with_total_planes(chunk.n, chunk.num_planes())
    }

    /// Fresh state for `n` elements of a stream with `total_planes`
    /// magnitude planes.
    pub fn with_total_planes(n: usize, total_planes: usize) -> Self {
        ProgressiveDecoder {
            n,
            hi: vec![0; n.div_ceil(TILE_ELEMS) * TILE_ELEMS],
            lo: Vec::new(),
            applied: 0,
            total_planes,
        }
    }

    /// Number of planes applied so far.
    pub fn applied(&self) -> usize {
        self.applied
    }

    /// Apply planes `applied..k` of `chunk` to the accumulator. The chunk
    /// must carry at least `k` planes of the same stream. A `k` at or
    /// below [`Self::applied`] is a no-op: planes are never un-applied.
    ///
    /// # Panics
    /// Panics if the chunk's element count differs from the decoder's or
    /// it carries fewer than `k` planes.
    pub fn advance(&mut self, chunk: &BitplaneChunk, k: usize) {
        assert_eq!(chunk.n, self.n, "chunk and decoder element counts differ");
        let k = k.min(self.total_planes);
        if chunk.exp == i32::MIN {
            self.applied = self.applied.max(k);
        } else if k > self.applied {
            assert!(
                chunk.num_planes() >= k,
                "chunk carries fewer than {k} planes"
            );
            self.advance_planes(chunk.layout, chunk.plane_range(self.applied, k), k);
        }
    }

    /// Apply planes `applied..k`, handed over as one plane-major `delta`
    /// (what a refinement step decompressed), in one pass over the tiles:
    /// however many planes arrive, each tile is gathered and transposed
    /// once per accumulator half.
    ///
    /// # Panics
    /// Panics unless `delta` is exactly the planes `applied..k` of the
    /// stream, `layout.words_per_plane(n)` words each.
    pub fn advance_planes(&mut self, layout: Layout, delta: &[u32], k: usize) {
        let (from, words) = (self.applied, layout.words_per_plane(self.n));
        assert!(from <= k && k <= self.total_planes, "no planes {from}..{k}");
        assert_eq!(
            delta.len(),
            (k - from) * words,
            "delta is not planes {from}..{k}"
        );
        if k > 32 && self.lo.is_empty() {
            self.lo = vec![0; self.hi.len()];
        }
        let (hi_planes, lo_planes) = delta.split_at(k.min(32).saturating_sub(from) * words);
        accumulate(&mut self.hi, hi_planes, words, from, layout);
        accumulate(&mut self.lo, lo_planes, words, from.max(32), layout);
        self.applied = k;
    }

    /// Materialize current values (signs/exp/layout read from `chunk`):
    /// [`Self::values`] written out in element order, fanned over tiles.
    ///
    /// # Panics
    /// Panics on an element type or element count other than the chunk's.
    pub fn materialize<F: BitplaneFloat>(
        &self,
        chunk: &BitplaneChunk,
        recon: Reconstruction,
    ) -> Vec<F> {
        let values = self.values::<F>(chunk, recon);
        let mut out = vec![F::from_f64(0.0); self.n];
        // Fan out over tiles, 32 or more to a worker (a thread spawn's
        // worth).
        hpmdr_rt::map_blocks_mut(&mut out, TILE_ELEMS, 32, move |tile, out| {
            values.fill(tile * TILE_ELEMS, out);
        });
        out
    }

    /// The current values, to be read a range at a time with
    /// [`Values::fill`] wherever the caller places them (signs, exponent
    /// and layout read from `chunk`).
    ///
    /// # Panics
    /// Panics on an element type or element count other than the chunk's.
    pub fn values<'a, F: BitplaneFloat>(
        &'a self,
        chunk: &'a BitplaneChunk,
        recon: Reconstruction,
    ) -> Values<'a, F> {
        assert_eq!(chunk.dtype, F::TYPE_NAME, "chunk dtype mismatch");
        assert_eq!(chunk.n, self.n, "chunk and decoder element counts differ");
        let b = if chunk.exp == i32::MIN {
            0
        } else {
            self.total_planes
        };
        // Midpoint offset: half of the first dropped plane's quantum.
        let midpoint: u64 = if self.applied < b && matches!(recon, Reconstruction::Midpoint) {
            1u64 << (b - self.applied - 1)
        } else {
            0
        };
        let e = if b == 0 { 0 } else { chunk.exp - b as i32 };
        Values {
            decoder: self,
            signs: &chunk.signs,
            layout: chunk.layout,
            b,
            midpoint,
            quantum: Scale::pow2(e),
            native: (b <= 32).then(|| F::pow2_normal(e)).flatten(),
        }
    }
}

/// A [`ProgressiveDecoder`]'s current values, read a range at a time:
/// the per-group setup done once, so the caller decides where each value
/// lands (see [`ProgressiveDecoder::values`]).
///
/// A value is computed from its accumulator, its sign bit and the
/// group's quantum `2^(exp − b)` (`b` the stream's plane count). Streams
/// of at most 32 planes whose quantum is a normal number of `F` compute
/// it in `F` ([`BitplaneFloat::from_fixed_native`]); every other group
/// goes through `f64`. Both give the same bits.
#[derive(Debug, Clone, Copy)]
pub struct Values<'a, F> {
    decoder: &'a ProgressiveDecoder,
    signs: &'a [u32],
    layout: Layout,
    /// Magnitude planes of the full stream; 0 when every value is `+0.0`.
    b: usize,
    midpoint: u64,
    quantum: Scale,
    /// `quantum` in `F`, when the native path applies.
    native: Option<F>,
}

impl<F: BitplaneFloat> Values<'_, F> {
    /// Write values `from .. from + out.len()` into `out`.
    ///
    /// # Panics
    /// Panics if the range runs past the last value.
    pub fn fill(&self, from: usize, out: &mut [F]) {
        assert!(
            from + out.len() <= self.decoder.n,
            "values {from}..{} of {}",
            from + out.len(),
            self.decoder.n
        );
        if self.b == 0 {
            out.fill(F::from_f64(0.0));
            return;
        }
        let mut done = 0;
        while done < out.len() {
            let e = from + done;
            let tile = e / TILE_ELEMS;
            let len = ((tile + 1) * TILE_ELEMS - e).min(out.len() - done);
            self.tile(tile, e % TILE_ELEMS, &mut out[done..done + len]);
            done += len;
        }
        // A split quantum's rest comes last (see `Scale`).
        if self.quantum.is_split() {
            out.iter_mut()
                .for_each(|o| *o = self.quantum.apply_rest(*o));
        }
    }

    /// Values `start .. start + out.len()` of tile `tile`.
    fn tile(&self, tile: usize, start: usize, out: &mut [F]) {
        // The sign of tile value `32·j + t` is bit `j` of sign word `t`
        // (interleaved) or bit `t` of word `j` (natural, made interleaved
        // by one transpose), so each row below reads its sign words at
        // unit stride.
        let mut signs = [0u32; WORD_BITS];
        let words = self.signs[tile * WORD_BITS..].iter();
        signs.iter_mut().zip(words).for_each(|(s, &w)| *s = w);
        if self.layout == Layout::Natural {
            transpose32(&mut signs);
        }
        let base = tile * TILE_ELEMS;
        let mut done = 0;
        while done < out.len() {
            let (j, lane) = ((start + done) / WORD_BITS, (start + done) % WORD_BITS);
            let len = (WORD_BITS - lane).min(out.len() - done);
            let e = base + start + done;
            self.row(e, j, &signs[lane..lane + len], &mut out[done..done + len]);
            done += len;
        }
    }

    /// Values `e .. e + out.len()`, all in row `j` of their tile, whose
    /// sign words are `signs`.
    #[inline]
    fn row(&self, e: usize, j: usize, signs: &[u32], out: &mut [F]) {
        let len = out.len();
        let hi = &self.decoder.hi[e..e + len];
        let (b, scale) = (self.b, self.quantum.main);
        if b <= 32 {
            // The magnitude fits the `hi` half.
            let mid = self.midpoint as u32;
            let fixed = |h: u32| {
                let f = h >> (32 - b);
                f | if f != 0 { mid } else { 0 }
            };
            let cells = out.iter_mut().zip(hi).zip(signs);
            match self.native {
                Some(q) => {
                    for ((o, &h), &s) in cells {
                        *o = F::from_fixed_native((s >> j) & 1 == 1, fixed(h), q);
                    }
                }
                None => {
                    for ((o, &h), &s) in cells {
                        let f = u64::from(fixed(h));
                        *o = F::from_fixed_scaled((s >> j) & 1 == 1, f, scale);
                    }
                }
            }
        } else {
            let lo = self
                .decoder
                .lo
                .get(e..e + len)
                .unwrap_or(&[0; WORD_BITS][..len]);
            let cells = out.iter_mut().zip(hi).zip(lo).zip(signs);
            for (((o, &h), &l), &s) in cells {
                let f = ((u64::from(h) << 32) | u64::from(l)) >> (64 - b);
                let f = f | if f != 0 { self.midpoint } else { 0 };
                *o = F::from_fixed_scaled((s >> j) & 1 == 1, f, scale);
            }
        }
    }
}

/// OR plane-major `planes` (`words` words each, stream planes `first..`
/// of one accumulator half) into the element-order accumulator `acc`.
///
/// The inverse of [`encode`]'s tile loop, a 1024-element tile at a time:
/// each plane's 32 words of the tile are copied into row `31 - p` of a
/// zeroed matrix (plane `p`'s bit weight), [`transpose32_columns`] turns
/// the rows back into element order — word-transposed for
/// [`Layout::Natural`] — and the 32 rows are ORed into the tile's
/// accumulators, unit stride. A tile whose gathered words are all zero —
/// most tiles of the high planes — is skipped before the transpose.
fn accumulate(acc: &mut [u32], planes: &[u32], words: usize, first: usize, layout: Layout) {
    if planes.is_empty() {
        return;
    }
    let top = 31 - first % 32;
    for (tile, acc) in acc.chunks_exact_mut(TILE_ELEMS).enumerate() {
        // The last natural tile may be short of 32 words.
        let from = tile * WORD_BITS;
        let len = (words - from).min(WORD_BITS);
        let mut m = [[0u32; WORD_BITS]; WORD_BITS];
        let mut any = 0;
        for (p, plane) in planes.chunks_exact(words).enumerate() {
            let src = &plane[from..from + len];
            m[top - p][..len].copy_from_slice(src);
            any |= src.iter().fold(0, |a, &w| a | w);
        }
        if any == 0 {
            continue;
        }
        transpose32_columns(&mut m);
        if layout == Layout::Natural {
            m = word_transposed(&m);
        }
        acc.iter_mut()
            .zip(m.as_flattened())
            .for_each(|(a, &v)| *a |= v);
    }
}

/// The decoder this module shipped before the word-parallel kernel —
/// one accumulator update per *set bit*, one `layout.position` per
/// materialized element — kept verbatim as the bit-exact reference.
#[cfg(test)]
mod oracle {
    use super::*;

    /// [`ProgressiveDecoder::materialize`] as it was before the native
    /// path: every value through `f64`, a tile at a time — the reference
    /// the native path is held to, bit for bit.
    pub fn materialize_wide<F: BitplaneFloat>(
        dec: &ProgressiveDecoder,
        chunk: &BitplaneChunk,
        recon: Reconstruction,
    ) -> Vec<F> {
        assert_eq!(chunk.dtype, F::TYPE_NAME, "chunk dtype mismatch");
        assert_eq!(chunk.n, dec.n, "chunk and decoder element counts differ");
        let b = dec.total_planes;
        let mut out = vec![F::from_f64(0.0); dec.n];
        if chunk.exp == i32::MIN || b == 0 {
            return out;
        }
        // Midpoint offset: half of the first dropped plane's quantum.
        let midpoint: u64 = if dec.applied < b && matches!(recon, Reconstruction::Midpoint) {
            1u64 << (b - dec.applied - 1)
        } else {
            0
        };
        let quantum = Scale::pow2(chunk.exp - b as i32);
        let (scale, mid32) = (quantum.main, midpoint as u32);
        // Fan out over tiles, 32 or more to a worker (a thread spawn's
        // worth). `move`: the row loops must read `b`, `midpoint` and
        // `scale` as values — behind references the compiler reloads them
        // after every store to `out` and the loops do not vectorise.
        hpmdr_rt::map_blocks_mut(&mut out, TILE_ELEMS, 32, move |first, part| {
            for (tile, out) in (first..).zip(part.chunks_mut(TILE_ELEMS)) {
                let acc = tile * TILE_ELEMS..(tile + 1) * TILE_ELEMS;
                let lo = dec.lo.get(acc.clone()).unwrap_or(&[0; TILE_ELEMS]);
                let (hi, lo) = (
                    dec.hi[acc].chunks_exact(WORD_BITS),
                    lo.chunks_exact(WORD_BITS),
                );
                // The sign of tile element `32·j + t` is bit `j` of sign word
                // `t` (interleaved) or bit `t` of word `j` (natural, made
                // interleaved by one transpose), so row `j` below reads 32
                // consecutive accumulators and sign words, unit stride.
                let mut signs = [0u32; WORD_BITS];
                let words = chunk.signs[tile * WORD_BITS..].iter();
                signs.iter_mut().zip(words).for_each(|(s, &w)| *s = w);
                if chunk.layout == Layout::Natural {
                    transpose32(&mut signs);
                }
                for (j, ((row, hi), lo)) in out.chunks_mut(WORD_BITS).zip(hi).zip(lo).enumerate() {
                    let cells = row.iter_mut().zip(hi).zip(lo).zip(&signs);
                    if b <= 32 {
                        // The magnitude fits the `hi` half: `u32` up to a
                        // `u32 → f64` conversion the compiler vectorises.
                        for (((o, &h), _), &s) in cells {
                            let fixed = h >> (32 - b);
                            let fixed = fixed | if fixed != 0 { mid32 } else { 0 };
                            *o = F::from_fixed_scaled((s >> j) & 1 == 1, u64::from(fixed), scale);
                        }
                    } else {
                        for (((o, &h), &l), &s) in cells {
                            let fixed = ((u64::from(h) << 32) | u64::from(l)) >> (64 - b);
                            let fixed = fixed | if fixed != 0 { midpoint } else { 0 };
                            *o = F::from_fixed_scaled((s >> j) & 1 == 1, fixed, scale);
                        }
                    }
                }
            }
        });
        // A split quantum's rest comes last (see `Scale`).
        if quantum.is_split() {
            out.iter_mut().for_each(|o| *o = quantum.apply_rest(*o));
        }
        out
    }

    pub struct Decoder {
        fixed: Vec<u64>,
        applied: usize,
        total_planes: usize,
    }

    impl Decoder {
        pub fn with_total_planes(n: usize, total_planes: usize) -> Self {
            Decoder {
                fixed: vec![0u64; n],
                applied: 0,
                total_planes,
            }
        }

        pub fn advance(&mut self, chunk: &BitplaneChunk, k: usize) {
            let k = k.min(self.total_planes);
            if chunk.exp == i32::MIN {
                self.applied = k;
                return;
            }
            let layout = chunk.layout;
            let n = chunk.n;
            for p in self.applied..k {
                let weight_shift = (self.total_planes - 1 - p) as u32;
                let plane = chunk.plane(p);
                for (u, &word) in plane.iter().enumerate() {
                    let mut w = word;
                    while w != 0 {
                        let r = w.trailing_zeros() as usize;
                        w &= w - 1;
                        let e = layout.element(u, r);
                        if e < n {
                            self.fixed[e] |= 1u64 << weight_shift;
                        }
                    }
                }
            }
            self.applied = k;
        }

        pub fn materialize<F: BitplaneFloat>(
            &self,
            chunk: &BitplaneChunk,
            recon: Reconstruction,
        ) -> Vec<F> {
            let b = self.total_planes;
            if chunk.exp == i32::MIN || b == 0 {
                return vec![F::from_f64(0.0); chunk.n];
            }
            let midpoint: u64 = if self.applied < b && matches!(recon, Reconstruction::Midpoint) {
                1u64 << (b - self.applied - 1)
            } else {
                0
            };
            let layout = chunk.layout;
            (0..chunk.n)
                .map(|e| {
                    let (u, r) = layout.position(e);
                    let sign = (chunk.signs[u] >> r) & 1 == 1;
                    let mut fixed = self.fixed[e];
                    if fixed != 0 {
                        fixed |= midpoint;
                    }
                    F::from_fixed(sign, fixed, chunk.exp, b)
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::prefix_error_bound;
    use proptest::prelude::*;

    fn wave(n: usize, scale: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.37).sin() * scale + (i as f64 * 0.011).cos())
            .collect()
    }

    fn wave32(n: usize) -> Vec<f32> {
        wave(n, 3.7).into_iter().map(|v| v as f32).collect()
    }

    #[test]
    fn full_decode_is_near_lossless_f32() {
        for layout in [Layout::Natural, Layout::Interleaved32] {
            let data = wave32(1000);
            let c = encode(&data, 32, layout);
            c.validate().unwrap();
            let back: Vec<f32> = decode_prefix(&c, 32, Reconstruction::Truncate);
            let bound = prefix_error_bound(c.exp, 32);
            for (a, b) in data.iter().zip(&back) {
                assert!((a - b).abs() as f64 <= bound, "{layout:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn full_decode_is_near_lossless_f64() {
        for layout in [Layout::Natural, Layout::Interleaved32] {
            let data = wave(1027, 123.0);
            let c = encode(&data, 64, layout);
            c.validate().unwrap();
            let back: Vec<f64> = decode_prefix(&c, 64, Reconstruction::Truncate);
            let bound = prefix_error_bound(c.exp, 64);
            for (a, b) in data.iter().zip(&back) {
                assert!((a - b).abs() <= bound.max(1e-12), "{layout:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn prefix_error_within_bound_all_k() {
        let data = wave32(513);
        for layout in [Layout::Natural, Layout::Interleaved32] {
            let c = encode(&data, 32, layout);
            for k in [0usize, 1, 2, 5, 9, 16, 25, 32] {
                let bound = prefix_error_bound(c.exp, k);
                let back: Vec<f32> = decode_prefix(&c, k, Reconstruction::Truncate);
                for (a, b) in data.iter().zip(&back) {
                    assert!(
                        ((a - b).abs() as f64) <= bound,
                        "layout={layout:?} k={k} a={a} b={b} bound={bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn midpoint_never_worse_bound_and_better_mse() {
        let data = wave32(4096);
        let c = encode(&data, 32, Layout::Interleaved32);
        let k = 8;
        let t: Vec<f32> = decode_prefix(&c, k, Reconstruction::Truncate);
        let m: Vec<f32> = decode_prefix(&c, k, Reconstruction::Midpoint);
        let mse = |xs: &[f32]| {
            xs.iter()
                .zip(&data)
                .map(|(x, d)| ((x - d) as f64).powi(2))
                .sum::<f64>()
        };
        assert!(mse(&m) < mse(&t), "midpoint should reduce MSE");
        let bound = prefix_error_bound(c.exp, k);
        for (a, b) in data.iter().zip(&m) {
            assert!(((a - b).abs() as f64) <= bound);
        }
    }

    #[test]
    fn layouts_reconstruct_identically() {
        let data = wave32(2500);
        let a = encode(&data, 32, Layout::Natural);
        let b = encode(&data, 32, Layout::Interleaved32);
        for k in [1usize, 7, 32] {
            let da: Vec<f32> = decode_prefix(&a, k, Reconstruction::Truncate);
            let db: Vec<f32> = decode_prefix(&b, k, Reconstruction::Truncate);
            assert_eq!(da, db, "k={k}");
        }
    }

    #[test]
    fn odd_sizes_roundtrip() {
        for n in [1usize, 31, 32, 33, 1023, 1024, 1025, 2049] {
            let data = wave32(n);
            let c = encode(&data, 32, Layout::Interleaved32);
            c.validate().unwrap();
            let back: Vec<f32> = decode_prefix(&c, 32, Reconstruction::Truncate);
            let bound = prefix_error_bound(c.exp, 32);
            for (a, b) in data.iter().zip(&back) {
                assert!(((a - b).abs() as f64) <= bound, "n={n}");
            }
        }
    }

    #[test]
    fn all_zero_input_reconstructs_exactly() {
        let data = vec![0.0f32; 777];
        let c = encode(&data, 32, Layout::Natural);
        assert_eq!(c.num_planes(), 0);
        let back: Vec<f32> = decode_prefix(&c, 32, Reconstruction::Midpoint);
        assert!(back.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn negative_values_keep_sign_at_any_prefix() {
        let data: Vec<f32> = (0..256)
            .map(|i| if i % 2 == 0 { -1.5 } else { 1.5 })
            .collect();
        let c = encode(&data, 32, Layout::Interleaved32);
        let back: Vec<f32> = decode_prefix(&c, 3, Reconstruction::Truncate);
        for (a, b) in data.iter().zip(&back) {
            assert_eq!(a.signum(), b.signum());
        }
    }

    #[test]
    fn progressive_decoder_matches_direct_decode() {
        let data = wave(3000, 9.0);
        let c = encode(&data, 48, Layout::Interleaved32);
        let mut pd = ProgressiveDecoder::new(&c);
        for k in [4usize, 12, 33, 48] {
            pd.advance(&c, k);
            let inc: Vec<f64> = pd.materialize(&c, Reconstruction::Truncate);
            let direct: Vec<f64> = decode_prefix(&c, k, Reconstruction::Truncate);
            assert_eq!(inc, direct, "k={k}");
        }
    }

    const BOTH: [Reconstruction; 2] = [Reconstruction::Truncate, Reconstruction::Midpoint];

    fn bits<F: BitplaneFloat>(v: &[F]) -> Vec<u64> {
        v.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    /// Values spanning many binades, with exact ±0.0 sprinkled in;
    /// `seed % 7 == 0` is an all-zero group.
    fn noisy(n: usize, seed: u32) -> Vec<f64> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 17;
                s ^= s << 5;
                let sign = if s & 1 == 0 { 1.0 } else { -1.0 };
                if seed.is_multiple_of(7) || s.is_multiple_of(11) {
                    return sign * 0.0;
                }
                sign * f64::from(s >> 8) * crate::fixed::exp2((s >> 4) as i32 % 40 - 30)
            })
            .collect()
    }

    /// A strictly increasing plane schedule ending at `planes`.
    fn schedule(planes: usize, seed: u32) -> Vec<usize> {
        let mut ks = Vec::new();
        let (mut k, mut s) = (0usize, seed | 1);
        while k < planes {
            s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            k = (k + 1 + (s >> 24) as usize % 9).min(planes);
            ks.push(k);
        }
        ks
    }

    /// Step the kernel and the oracle through `ks` over `chunk` (which may
    /// carry fewer planes than the stream's `total`) and compare bit
    /// patterns after every step; `decode_prefix` must agree wherever the
    /// chunk is the whole stream.
    fn assert_matches_oracle<F: BitplaneFloat>(chunk: &BitplaneChunk, total: usize, ks: &[usize]) {
        let mut dec = ProgressiveDecoder::with_total_planes(chunk.n, total);
        let mut want = oracle::Decoder::with_total_planes(chunk.n, total);
        for &k in ks {
            dec.advance(chunk, k);
            want.advance(chunk, k);
            assert_eq!(dec.applied(), k.min(total));
            for recon in BOTH {
                let got = bits(&dec.materialize::<F>(chunk, recon));
                let tag = format!(
                    "{:?} n={} total={total} k={k} {recon:?}",
                    chunk.layout, chunk.n
                );
                assert_eq!(got, bits(&want.materialize::<F>(chunk, recon)), "{tag}");
                if total == chunk.num_planes() {
                    assert_eq!(
                        got,
                        bits(&decode_prefix::<F>(chunk, k, recon)),
                        "prefix {tag}"
                    );
                }
            }
        }
    }

    fn check_group<F: BitplaneFloat>(n: usize, planes: usize, seed: u32) {
        let data: Vec<F> = noisy(n, seed).into_iter().map(F::from_f64).collect();
        for layout in [Layout::Natural, Layout::Interleaved32] {
            let full = encode(&data, planes, layout);
            let ks = schedule(full.num_planes(), seed);
            assert_matches_oracle::<F>(&full, full.num_planes(), &ks);
            // What a session decodes: a chunk holding only a plane prefix
            // of a longer stream.
            if let Some(&k) = ks.first() {
                let partial = BitplaneChunk::from_arena(
                    n,
                    full.exp,
                    layout,
                    full.dtype.clone(),
                    full.signs.clone(),
                    k,
                    full.plane_range(0, k).to_vec(),
                );
                assert_matches_oracle::<F>(&partial, full.num_planes(), &[k]);
            }
        }
    }

    fn group_len() -> impl Strategy<Value = usize> {
        prop_oneof![
            Just(1usize),
            Just(31usize),
            Just(32usize),
            Just(33usize),
            Just(1023usize),
            Just(1024usize),
            Just(1025usize),
            Just(3000usize),
            1usize..2500,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn word_parallel_decoder_is_bit_identical_to_per_set_bit_oracle(
            n in group_len(),
            planes32 in 1usize..=32,
            planes64 in prop_oneof![Just(48usize), Just(64usize), 1usize..=64],
            seed in any::<u32>(),
        ) {
            check_group::<f32>(n, planes32, seed);
            check_group::<f64>(n, planes64, seed);
        }
    }

    #[test]
    fn steps_straddling_plane_32_match_oracle() {
        for n in [1usize, 33, 1025, 3000] {
            let data = wave(n, 9.0);
            for layout in [Layout::Natural, Layout::Interleaved32] {
                let c = encode(&data, 64, layout);
                for ks in [&[31usize, 33, 64][..], &[20, 40], &[32, 33], &[64]] {
                    assert_matches_oracle::<f64>(&c, 64, ks);
                }
            }
        }
    }

    /// Values whose tiles, in `layout`'s word order, cycle through the
    /// three shapes the tile loop of `accumulate` meets: one non-zero word
    /// column (the tile's last, so the short last word of a partial
    /// natural tile too), all zero (skipped), and dense.
    fn tile_edges(n: usize, layout: Layout) -> Vec<f64> {
        let words = layout.words_per_plane(n);
        let dense = noisy(n, 0x5eed);
        (0..n)
            .map(|e| {
                let (word, _) = layout.position(e);
                let tile = word / WORD_BITS;
                let last = ((tile + 1) * WORD_BITS).min(words) - 1;
                let keep = match tile % 3 {
                    0 => word == last,
                    1 => false,
                    _ => true,
                };
                if !keep {
                    0.0
                } else if dense[e] == 0.0 {
                    1.0
                } else {
                    dense[e]
                }
            })
            .collect()
    }

    /// Word columns of each tile that carry a set bit in any plane.
    fn live_columns(c: &BitplaneChunk) -> Vec<usize> {
        let words = c.words_per_plane();
        (0..words.div_ceil(WORD_BITS))
            .map(|tile| {
                let cols = tile * WORD_BITS..((tile + 1) * WORD_BITS).min(words);
                let live = |&u: &usize| (0..c.num_planes()).any(|p| c.plane(p)[u] != 0);
                cols.filter(live).count()
            })
            .collect()
    }

    #[test]
    fn tile_edges_match_oracle() {
        for n in [33usize, 1025, 3000, 5000] {
            for layout in [Layout::Natural, Layout::Interleaved32] {
                let data = tile_edges(n, layout);
                let d32: Vec<f32> = data.iter().map(|&v| v as f32).collect();
                let c32 = encode(&d32, 32, layout);
                let c64 = encode(&data, 64, layout);
                for c in [&c32, &c64] {
                    let live = live_columns(c);
                    for (tile, &cols) in live.iter().enumerate() {
                        let tag = format!("{layout:?} n={n} tile {tile}");
                        match tile % 3 {
                            0 => assert_eq!(cols, 1, "{tag}"),
                            1 => assert_eq!(cols, 0, "{tag}"),
                            _ => assert!(cols > 1, "{tag}"),
                        }
                    }
                }
                for ks in [&[1usize, 9, 32][..], &[32]] {
                    assert_matches_oracle::<f32>(&c32, 32, ks);
                }
                for ks in [&[31usize, 33, 64][..], &[32, 40, 64], &[7, 64]] {
                    assert_matches_oracle::<f64>(&c64, 64, ks);
                }
            }
        }
    }

    #[test]
    fn decode_prefix_of_nothing_is_positive_zero() {
        let data = wave32(100);
        let c = encode(&data, 32, Layout::Interleaved32);
        let back: Vec<f32> = decode_prefix(&c, 0, Reconstruction::Midpoint);
        assert!(bits(&back).iter().all(|&b| b == 0));
    }

    #[test]
    fn advance_never_moves_backwards() {
        let data = wave32(2000);
        let c = encode(&data, 32, Layout::Interleaved32);
        let mut dec = ProgressiveDecoder::new(&c);
        dec.advance(&c, 20);
        let at_20 = bits(&dec.materialize::<f32>(&c, Reconstruction::Midpoint));
        for k in [20usize, 7, 0] {
            dec.advance(&c, k);
            assert_eq!(dec.applied(), 20, "k={k}");
            assert_eq!(
                bits(&dec.materialize::<f32>(&c, Reconstruction::Midpoint)),
                at_20
            );
        }
        assert_eq!(
            at_20,
            bits(&decode_prefix::<f32>(&c, 20, Reconstruction::Midpoint))
        );
    }

    #[test]
    #[should_panic(expected = "element count")]
    fn advance_rejects_a_chunk_of_another_size() {
        let c = encode(&wave32(2000), 32, Layout::Interleaved32);
        ProgressiveDecoder::with_total_planes(1999, 32).advance(&c, 4);
    }

    #[test]
    #[should_panic(expected = "delta is not planes")]
    fn advance_planes_rejects_a_wrong_word_count() {
        let c = encode(&wave32(2000), 32, Layout::Interleaved32);
        // Interleaved planes of 2000 elements are 64 words, natural ones 63.
        ProgressiveDecoder::new(&c).advance_planes(Layout::Natural, c.plane_range(0, 4), 4);
    }

    #[test]
    fn streams_of_at_most_32_planes_keep_one_accumulator_half() {
        let c32 = encode(&wave32(5000), 32, Layout::Interleaved32);
        let mut dec = ProgressiveDecoder::new(&c32);
        dec.advance(&c32, 32);
        assert_eq!((dec.hi.len(), dec.lo.len()), (5 * TILE_ELEMS, 0));
        let c64 = encode(&wave(5000, 3.0), 64, Layout::Natural);
        let mut dec = ProgressiveDecoder::new(&c64);
        dec.advance(&c64, 32);
        assert!(dec.lo.is_empty());
        dec.advance(&c64, 33);
        assert_eq!(dec.lo.len(), dec.hi.len());
    }

    #[test]
    fn materialize_is_identical_on_one_and_four_threads() {
        let data = wave32(70_000);
        let c = encode(&data, 32, Layout::Interleaved32);
        let mut dec = ProgressiveDecoder::new(&c);
        dec.advance(&c, 17);
        let run = |threads: usize| {
            let back = hpmdr_rt::install(threads, || dec.materialize(&c, Reconstruction::Midpoint));
            bits::<f32>(&back)
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn fewer_planes_than_requested_is_clamped() {
        let data = wave32(128);
        let c = encode(&data, 10, Layout::Natural);
        assert_eq!(c.num_planes(), 10);
        let a: Vec<f32> = decode_prefix(&c, 10, Reconstruction::Truncate);
        let b: Vec<f32> = decode_prefix(&c, 99, Reconstruction::Truncate);
        assert_eq!(a, b);
    }

    /// `noisy`, with the corner cases of the fixed-point conversion mixed
    /// in by `seed`: one denormal among ordinary values, nothing but
    /// denormals (for `f64` one factor `2^(planes - exp)` overflows and
    /// the quantum is split), and one value at the top of the type's
    /// exponent range. `tiny` is a denormal of `F` and
    /// `huge` its largest finite value.
    fn corner_cases<F: BitplaneFloat>(n: usize, seed: u32, tiny: f64, huge: f64) -> Vec<F> {
        let mut data = noisy(n, seed);
        let at = (seed >> 3) as usize % n;
        match seed % 4 {
            1 => data[at] = -tiny,
            2 => data.iter_mut().for_each(|v| *v = tiny * (*v % 7.0)),
            3 => data[at] = huge,
            _ => {}
        }
        data.into_iter().map(F::from_f64).collect()
    }

    fn assert_encode_matches_columns<F: BitplaneFloat>(data: &[F], planes: usize, tag: &str) {
        for layout in [Layout::Natural, Layout::Interleaved32] {
            let got = encode(data, planes, layout);
            let want = encode_columns(data, planes, layout);
            got.validate().unwrap();
            let tag = format!("{tag} {layout:?} n={} planes={planes}", data.len());
            assert_eq!(got.signs, want.signs, "signs {tag}");
            assert_eq!(got.arena(), want.arena(), "arena {tag}");
            assert_eq!(got, want, "{tag}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn lockstep_tile_encode_is_bit_identical_to_per_column_oracle(
            n in group_len(),
            planes32 in 1usize..=32,
            planes64 in prop_oneof![Just(33usize), Just(48usize), Just(64usize), 1usize..=64],
            seed in any::<u32>(),
        ) {
            let d32 = corner_cases::<f32>(n, seed, 1e-40, f64::from(f32::MAX));
            assert_encode_matches_columns(&d32, planes32, "f32");
            let d64 = corner_cases::<f64>(n, seed, 1e-310, f64::MAX);
            assert_encode_matches_columns(&d64, planes64, "f64");
        }
    }

    #[test]
    fn encode_is_exact_when_the_quantum_overflows() {
        // Nothing but f64 denormals at 64 planes: one factor `2^(64 - exp)`
        // would be infinite, so the quantum is split in two. A denormal's
        // bits are its integer mantissa `m` (`v = m · 2^-1074`), so its
        // magnitude is `m · 2^(64 - exp - 1074)` exactly: nothing
        // saturates, and the 17 lowest planes stay empty.
        let data: Vec<f64> = (0..100).map(|i| 1e-310 * f64::from(i % 5)).collect();
        let c = encode(&data, 64, Layout::Interleaved32);
        assert_eq!(c.exp, -1027);
        assert!(crate::fixed::exp2(64 - c.exp).is_infinite());
        for &v in &data {
            assert_eq!(v.to_fixed(c.exp, 64), v.to_bits() << 17, "{v:e}");
        }
        assert!((47..64).all(|p| c.plane(p).iter().all(|&w| w == 0)));
        let back: Vec<f64> = decode_prefix(&c, 64, Reconstruction::Truncate);
        assert_eq!(bits(&back), bits(&data));
        assert_encode_matches_columns(&data, 64, "denormals");
    }

    /// Groups so small that one quantum factor leaves f64's range. At 64
    /// planes the encode quantum `2^(64 - exp)` overflows for 1e-290 …
    /// 1e-310; for a deep denormal at 16 planes the decode quantum
    /// `2^(exp - 16)` underflows to zero as well. Every prefix, truncated
    /// or midpoint, stays within the bound it reports.
    #[test]
    fn tiny_groups_meet_the_prefix_bound_at_every_k() {
        let groups = [
            (1e-290, 64),
            (1e-295, 64),
            (1e-300, 64),
            (1e-310, 64),
            (1e-320, 16),
        ];
        for (magnitude, planes) in groups {
            let data: Vec<f64> = wave(1500, 1.0).iter().map(|v| v * magnitude).collect();
            for layout in [Layout::Natural, Layout::Interleaved32] {
                let c = encode(&data, planes, layout);
                for k in 0..=planes {
                    let bound = prefix_error_bound(c.exp, k);
                    for recon in BOTH {
                        let back: Vec<f64> = decode_prefix(&c, k, recon);
                        let err = data.iter().zip(&back).map(|(a, b)| (a - b).abs());
                        let err = err.fold(0.0, f64::max);
                        assert!(
                            err <= bound,
                            "{magnitude:e} {layout:?} k={k}/{planes} {recon:?}: {err:e} > {bound:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn encode_is_identical_on_one_and_four_threads() {
        // 69 tiles: enough for the 32-tile grain to split across workers.
        let d32 = corner_cases::<f32>(70_000, 0xfeed, 1e-40, f64::from(f32::MAX));
        let d64 = corner_cases::<f64>(70_000, 0xbeef, 1e-310, f64::MAX);
        for layout in [Layout::Natural, Layout::Interleaved32] {
            let run = |threads: usize| {
                hpmdr_rt::install(threads, || {
                    (encode(&d32, 27, layout), encode(&d64, 53, layout))
                })
            };
            let (one, four) = (run(1), run(4));
            assert_eq!(one, four, "{layout:?}");
            assert_eq!(one.0, encode_columns(&d32, 27, layout));
            assert_eq!(one.1, encode_columns(&d64, 53, layout));
        }
    }

    #[test]
    #[should_panic]
    fn dtype_mismatch_panics() {
        let data = wave32(64);
        let c = encode(&data, 32, Layout::Natural);
        let _: Vec<f64> = decode_prefix(&c, 32, Reconstruction::Truncate);
    }

    /// Applied plane counts around the native path's seams: nothing, one
    /// plane, the last exactly representable `f32` mantissa width and one
    /// past it, and every plane.
    const NATIVE_KS: [usize; 5] = [0, 1, 24, 25, 32];

    /// [`ProgressiveDecoder::materialize`] and [`Values::fill`] over
    /// ragged ranges (starting and ending anywhere in a row or tile)
    /// against the wide path, bit for bit, at every `k` of [`NATIVE_KS`]
    /// and both reconstructions.
    fn assert_native_matches_wide<F: BitplaneFloat>(chunk: &BitplaneChunk, tag: &str) {
        let mut dec = ProgressiveDecoder::new(chunk);
        for k in NATIVE_KS {
            dec.advance(chunk, k);
            for recon in BOTH {
                let tag = format!("{tag} {:?} n={} k={k} {recon:?}", chunk.layout, chunk.n);
                let want = bits(&oracle::materialize_wide::<F>(&dec, chunk, recon));
                assert_eq!(bits(&dec.materialize::<F>(chunk, recon)), want, "{tag}");
                let values = dec.values::<F>(chunk, recon);
                let mut got = vec![F::from_f64(-1.0); chunk.n];
                let (mut from, mut len) = (0, 1);
                while from < chunk.n {
                    let to = (from + len).min(chunk.n);
                    values.fill(from, &mut got[from..to]);
                    (from, len) = (to, len * 7 % 97 + 1);
                }
                assert_eq!(bits(&got), want, "{tag} ragged");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn native_materialize_is_bit_identical_to_the_wide_path(
            n in group_len(),
            planes64 in prop_oneof![Just(20usize), Just(32usize), Just(64usize)],
            seed in any::<u32>(),
        ) {
            let data = noisy(n, seed);
            let d32: Vec<f32> = data.iter().map(|&v| v as f32).collect();
            for layout in [Layout::Natural, Layout::Interleaved32] {
                assert_native_matches_wide::<f32>(&encode(&d32, 32, layout), "f32");
                assert_native_matches_wide::<f64>(&encode(&data, planes64, layout), "f64");
            }
        }
    }

    #[test]
    fn native_path_guard_edges_match_the_wide_path() {
        // A quantum `2^(exp − b)` at either end of the normal `f32` range
        // takes the native path (−126, 127); one step beyond it, the wide
        // one (−127: subnormal products; 128: infinite ones).
        let data: Vec<f32> = noisy(3000, 0x9e37).iter().map(|&v| v as f32).collect();
        for layout in [Layout::Natural, Layout::Interleaved32] {
            let mut chunk = encode(&data, 32, layout);
            for e in [-126, -127, 127, 128] {
                assert_eq!(f32::pow2_normal(e).is_some(), e == -126 || e == 127);
                chunk.exp = e + 32;
                assert_native_matches_wide::<f32>(&chunk, &format!("exp - b = {e}"));
            }
        }
        for e in [-1022, -1023] {
            assert_eq!(f64::pow2_normal(e).is_some(), e == -1022);
        }
    }
}
