//! The [`Backend`] trait: portable kernels for the pipeline's hot stages.

use crate::ctx::ExecCtx;
use hpmdr_bitplane::native::ProgressiveDecoder;
use hpmdr_bitplane::{BitplaneChunk, BitplaneFloat, Layout, Reconstruction};
use hpmdr_lossless::{CodecError, CompressedGroup, HybridCompressor};
use hpmdr_mgard::{Hierarchy, Real, RecomposeTo};
use hpmdr_rt::prelude::*;

/// Why [`Backend::decode_units`] failed to rebuild a bitplane chunk.
/// Streams are storage input, so every defect is a matchable error, not
/// a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// A merged unit's compressed payload failed entropy decoding.
    Unit {
        /// Index of the failing merged unit within its stream.
        unit: usize,
        /// The underlying codec error.
        source: CodecError,
    },
    /// The stream's declared geometry is inconsistent: its plane byte
    /// size disagrees with the layout, or a unit decompressed to the
    /// wrong length.
    Structure(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Unit { unit, source } => write!(f, "unit {unit}: {source}"),
            DecodeError::Structure(why) => write!(f, "{why}"),
        }
    }
}

impl std::error::Error for DecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecodeError::Unit { source, .. } => Some(source),
            DecodeError::Structure(_) => None,
        }
    }
}

/// One level group encoded to bitplanes and compressed into merged units.
///
/// This is the backend-level product of the encode + lossless stages;
/// `hpmdr-core` wraps it into its serializable `LevelStream`. Unit 0
/// additionally carries the sign plane ahead of its magnitude planes, so
/// unit `u` holds planes `[signs?] u*m .. (u+1)*m`.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedStream {
    /// Element count of the group.
    pub n: usize,
    /// Alignment exponent (`i32::MIN` = all zero).
    pub exp: i32,
    /// Magnitude planes encoded.
    pub num_planes: usize,
    /// Stream layout.
    pub layout: Layout,
    /// Planes per merged unit (`m`).
    pub group_size: usize,
    /// Uncompressed bytes of one plane (layout-padded).
    pub plane_bytes: usize,
    /// Compressed merged units.
    pub units: Vec<CompressedGroup>,
}

/// Borrowed view of an encoded stream, as retrieval sees it (core's
/// `LevelStream` lends its metadata and unit list through this).
#[derive(Debug, Clone, Copy)]
pub struct StreamView<'a> {
    /// Element count of the group.
    pub n: usize,
    /// Alignment exponent.
    pub exp: i32,
    /// Magnitude planes encoded.
    pub num_planes: usize,
    /// Stream layout.
    pub layout: Layout,
    /// Planes per merged unit.
    pub group_size: usize,
    /// Uncompressed bytes of one plane.
    pub plane_bytes: usize,
    /// Compressed merged units.
    pub units: &'a [CompressedGroup],
}

impl<'a> StreamView<'a> {
    /// Magnitude planes contained in the first `u` units.
    pub fn planes_in_units(&self, u: usize) -> usize {
        (u * self.group_size).min(self.num_planes)
    }
}

/// The decompressed planes of a run of merged units (what
/// [`Backend::decode_unit_range`] returns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitPlanes {
    /// The sign plane — present exactly when the run starts at unit 0,
    /// which carries it ahead of its magnitude planes.
    pub signs: Option<Vec<u32>>,
    /// Plane-major words of the run's magnitude planes, stream planes
    /// `planes_in_units(start)..planes_in_units(end)`.
    pub planes: Vec<u32>,
}

/// Portable execution backend: the kernels every pipeline stage routes
/// through. Implementations must be cheap to clone (the overlapped
/// pipeline clones one handle per tile submission) and are expected to
/// produce **bit-identical** outputs for identical inputs — parallelism
/// may split independent work but never reassociate arithmetic.
///
/// The provided method bodies are the portable kernels, fanned out on the
/// process's one worker pool at the width [`Backend::install`] sets — so
/// [`crate::CpuBackend`] overrides nothing else. A backend customizes
/// execution by overriding `install` (its width or device context) and
/// whichever kernels it can run better.
pub trait Backend: Clone + Default + Send + Sync + 'static {
    /// Short human-readable name (`"cpu"`, `"cuda"`, …).
    fn name(&self) -> &'static str;

    /// Worker threads this backend may occupy.
    fn threads(&self) -> usize;

    /// Run `f` under this backend's execution policy (width, device
    /// context, …). Every kernel body runs inside `install`; on the host
    /// backend the outermost `install` of a thread also counts it against
    /// the process's core budget until it returns.
    fn install<R>(&self, f: impl FnOnce() -> R) -> R;

    /// Multilevel decomposition (MGARD forward transform), in place.
    fn decompose<F: Real>(&self, _ctx: &ExecCtx, data: &mut [F], h: &Hierarchy, correction: bool) {
        self.install(|| hpmdr_mgard::decompose(data, h, correction));
    }

    /// Recompose the levels above `to.level`, in place (level 0 is the
    /// full inverse transform), skipping the work `to` says nobody reads:
    /// outside `to.window` the values are unspecified, and a level whose
    /// group `to.details` marks empty runs no projection.
    fn recompose_to_level<F: Real>(
        &self,
        _ctx: &ExecCtx,
        data: &mut [F],
        h: &Hierarchy,
        correction: bool,
        to: RecomposeTo<'_>,
    ) {
        self.install(|| hpmdr_mgard::recompose_to_level(data, h, correction, to));
    }

    /// Encode and compress every level group of a decomposed variable —
    /// the refactoring hot loop. Fans out per level group (groups are
    /// independent streams) and, within a group, per merged unit (units
    /// compress disjoint plane ranges).
    fn encode_and_compress<F: BitplaneFloat>(
        &self,
        ctx: &ExecCtx,
        groups: &[Vec<F>],
        planes: usize,
        layout: Layout,
        group_size: usize,
        compressor: &HybridCompressor,
    ) -> Vec<EncodedStream> {
        let m = group_size.max(1);
        self.install(|| {
            groups
                .par_iter()
                .map(|g| {
                    let chunk = hpmdr_bitplane::encode(g, planes, layout);
                    let num_units = chunk.num_planes().div_ceil(m);
                    let units: Vec<CompressedGroup> = (0..num_units)
                        .into_par_iter()
                        .map(|u| compress_one_unit(ctx, &chunk, u, m, compressor))
                        .collect();
                    stream_from_chunk(&chunk, m, units)
                })
                .collect()
        })
    }

    /// Decompress merged units `units` of a stream into their magnitude
    /// planes — the one unit loop of retrieval, run by
    /// [`Backend::decode_units`] over `0..take_units` and by a session's
    /// refinement over just the units it has not applied yet.
    ///
    /// Unit payloads decode into a scratch buffer leased from `ctx`
    /// (`Direct` units are read in place, zero copy) and land in the
    /// plane-major result as one contiguous word range per unit. The
    /// range is clamped to the stream's units. Streams are storage input,
    /// so every structural defect is a readable error, never a panic.
    fn decode_unit_range(
        &self,
        ctx: &ExecCtx,
        stream: StreamView<'_>,
        units: std::ops::Range<usize>,
        compressor: &HybridCompressor,
    ) -> Result<UnitPlanes, DecodeError> {
        let end = units.end.min(stream.units.len());
        let start = units.start.min(end);
        self.install(|| {
            let words = stream.layout.words_per_plane(stream.n);
            if stream.plane_bytes != words * 4 {
                return Err(DecodeError::Structure(format!(
                    "stream declares {}-byte planes, layout needs {}",
                    stream.plane_bytes,
                    words * 4
                )));
            }
            let first = stream.planes_in_units(start);
            let mut signs = (start == 0 && end > 0).then(|| vec![0u32; words]);
            let mut planes = vec![0u32; (stream.planes_in_units(end) - first) * words];
            ctx.with_buffer(|scratch| -> Result<(), DecodeError> {
                for u in start..end {
                    let raw = compressor
                        .decompress_to(&stream.units[u], scratch)
                        .map_err(|e| DecodeError::Unit { unit: u, source: e })?;
                    let lo = stream.planes_in_units(u) - first;
                    let hi = stream.planes_in_units(u + 1) - first;
                    let expect = (hi - lo + usize::from(u == 0)) * stream.plane_bytes;
                    if raw.len() != expect {
                        return Err(DecodeError::Structure(format!(
                            "unit {u} decompressed to {} bytes, expected {expect}",
                            raw.len()
                        )));
                    }
                    let mut off = 0usize;
                    if let (0, Some(signs)) = (u, signs.as_mut()) {
                        read_words(&raw[..stream.plane_bytes], signs);
                        off = stream.plane_bytes;
                    }
                    read_words(&raw[off..], &mut planes[lo * words..hi * words]);
                }
                Ok(())
            })?;
            Ok(UnitPlanes { signs, planes })
        })
    }

    /// Decompress the first `take_units` merged units of a stream back
    /// into a (possibly partial) [`BitplaneChunk`] — the retrieval-side
    /// inverse of [`Backend::encode_and_compress`]'s unit compression, and
    /// the `0..take_units` case of [`Backend::decode_unit_range`].
    fn decode_units(
        &self,
        ctx: &ExecCtx,
        stream: StreamView<'_>,
        take_units: usize,
        compressor: &HybridCompressor,
        dtype: &str,
    ) -> Result<BitplaneChunk, DecodeError> {
        let take_units = take_units.min(stream.units.len());
        let decoded = self.decode_unit_range(ctx, stream, 0..take_units, compressor)?;
        Ok(BitplaneChunk::from_arena(
            stream.n,
            stream.exp,
            stream.layout,
            dtype.to_string(),
            decoded
                .signs
                .unwrap_or_else(|| vec![0; stream.layout.words_per_plane(stream.n)]),
            stream.planes_in_units(take_units),
            decoded.planes,
        ))
    }

    /// Run `f` over every item of a batch and collect the results in
    /// input order — the chunk-grid fan-out entry point. The items must
    /// be independent: they are evaluated concurrently up to the width
    /// `install` sets (each item typically being a whole per-chunk
    /// refactor or reconstruction), and in order one thread wide.
    /// Because `f` itself routes through backend kernels that never
    /// reassociate arithmetic, batch results are bit-identical at every
    /// width.
    fn map_batch<T, R, F>(&self, _ctx: &ExecCtx, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Send + Sync,
    {
        self.install(|| items.par_iter().map(&f).collect())
    }

    /// Materialize a progressive decoder's current approximation: a
    /// fresh vector, its values written in element order.
    fn materialize<F: BitplaneFloat>(
        &self,
        _ctx: &ExecCtx,
        decoder: &ProgressiveDecoder,
        chunk: &BitplaneChunk,
        recon: Reconstruction,
    ) -> Vec<F> {
        self.install(|| decoder.materialize::<F>(chunk, recon))
    }

    /// Materialize a progressive decoder's current approximation of level
    /// group `k` straight into that group's nodes of the coefficient grid
    /// `grid`, leaving every other node as it is: what
    /// [`Backend::materialize`] and an injection of the result produce,
    /// with nothing group-sized built in between.
    ///
    /// # Panics
    /// Panics if `grid` does not match `h`, or the decoder does not hold
    /// group `k` of it.
    #[allow(clippy::too_many_arguments)]
    fn materialize_group<F: BitplaneFloat + Real>(
        &self,
        _ctx: &ExecCtx,
        decoder: &ProgressiveDecoder,
        chunk: &BitplaneChunk,
        recon: Reconstruction,
        grid: &mut [F],
        h: &Hierarchy,
        k: usize,
    ) {
        assert_eq!(chunk.n, h.group_len(k), "not level group {k}'s decoder");
        self.install(|| {
            let values = decoder.values::<F>(chunk, recon);
            hpmdr_mgard::write_group(grid, h, k, |from, out| values.fill(from, out));
        });
    }
}

/// Assemble the backend-level stream product from an encoded chunk and
/// its compressed units.
fn stream_from_chunk(
    chunk: &BitplaneChunk,
    group_size: usize,
    units: Vec<CompressedGroup>,
) -> EncodedStream {
    EncodedStream {
        n: chunk.n,
        exp: chunk.exp,
        num_planes: chunk.num_planes(),
        layout: chunk.layout,
        group_size,
        plane_bytes: chunk.plane_bytes(),
        units,
    }
}

/// Merge and compress unit `u` of `chunk` (unit 0 carries the signs).
/// The merge buffer is leased from the context pool; the unit's planes
/// are one contiguous arena range, so the merge is a single bulk copy,
/// and a `Direct` selection moves the merged buffer straight into the
/// payload instead of copying it again.
fn compress_one_unit(
    ctx: &ExecCtx,
    chunk: &BitplaneChunk,
    u: usize,
    m: usize,
    compressor: &HybridCompressor,
) -> CompressedGroup {
    let b = chunk.num_planes();
    let plane_bytes = chunk.plane_bytes();
    let lo = (u * m).min(b);
    let hi = ((u + 1) * m).min(b);
    ctx.with_buffer(|merged| {
        merged.reserve((hi - lo + usize::from(u == 0)) * plane_bytes);
        if u == 0 {
            extend_words(merged, &chunk.signs);
        }
        extend_words(merged, chunk.plane_range(lo, hi));
        compressor.compress_owned(merged)
    })
}

/// Append `words` to `out` as little-endian bytes — a bulk resize plus a
/// fixed-stride copy the compiler lowers to a memcpy on LE targets.
fn extend_words(out: &mut Vec<u8>, words: &[u32]) {
    let start = out.len();
    out.resize(start + words.len() * 4, 0);
    for (dst, w) in out[start..].chunks_exact_mut(4).zip(words) {
        dst.copy_from_slice(&w.to_le_bytes());
    }
}

/// Fill `out` from little-endian `bytes` (the inverse bulk copy).
fn read_words(bytes: &[u8], out: &mut [u32]) {
    for (w, src) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        // lint:allow(L3): statically infallible — chunks_exact(4) yields
        // exactly 4 bytes per chunk.
        *w = u32::from_le_bytes(src.try_into().expect("4-byte chunk"));
    }
}
