//! Chunked-domain refactoring: a regular chunk grid over an N-D field.
//!
//! The monolithic [`crate::refactor()`] path decomposes the whole array at
//! once — fine for one variable on one device, but it cannot scale to
//! fields larger than memory, serve concurrent region queries, or shard
//! across devices. Following the multigrid domain-decomposition line
//! (arXiv:2105.12764) and the zarr chunk-grid/shard storage model, this
//! module splits the domain into fixed-extent chunks and refactors each
//! chunk *independently* through the same [`Backend`] kernels:
//!
//! * [`ChunkGrid`] — regular grid geometry: fixed per-dimension chunk
//!   extents, boundary chunks clipped (extents need not divide the
//!   domain), row-major chunk indexing, and hyperslab→chunk intersection.
//! * [`ChunkedRefactored`] — one [`Refactored`] per chunk plus the grid.
//! * [`refactor_chunked`] — chunk extraction and per-chunk refactoring
//!   fanned out through [`Backend::map_batch`], so a multi-threaded
//!   [`CpuBackend`] gets chunk-level parallelism with bit-identical
//!   per-chunk artifacts. On another backend, build the façade with one:
//!   `MdrConfig::new().chunked(..).build_with(backend).refactor(..)`.
//!
//! Retrieval over the grid lives in [`crate::roi`]; the sharded on-disk
//! layout lives in [`crate::storage`].

use crate::refactor::{RefactorConfig, Refactored};
use crate::roi::Region;
use hpmdr_bitplane::BitplaneFloat;
use hpmdr_exec::{Backend, CpuBackend, ExecCtx};
use hpmdr_mgard::Real;
use serde::{Deserialize, Serialize};

/// Regular chunk grid over an N-D domain (1–3 dimensions).
///
/// Chunks have fixed `chunk_extent` per dimension; chunks on the high
/// boundary are clipped to the domain, so extents that do not divide the
/// domain are fully supported. Chunks are indexed row-major, matching the
/// domain's element order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkGrid {
    /// Domain extents.
    pub shape: Vec<usize>,
    /// Chunk extents per dimension (boundary chunks are clipped).
    pub chunk_extent: Vec<usize>,
}

impl ChunkGrid {
    /// Grid of `chunk_extent`-sized chunks over `shape`.
    ///
    /// # Panics
    /// Panics on dimension mismatch, empty shapes, more than 3
    /// dimensions, or any zero extent.
    pub fn new(shape: &[usize], chunk_extent: &[usize]) -> Self {
        assert!(
            !shape.is_empty() && shape.len() <= hpmdr_mgard::grid::MAX_DIMS,
            "1-3 dimensions supported"
        );
        assert_eq!(
            shape.len(),
            chunk_extent.len(),
            "chunk extent dimensionality must match the domain"
        );
        assert!(shape.iter().all(|&n| n >= 1), "zero-sized dimension");
        assert!(
            chunk_extent.iter().all(|&n| n >= 1),
            "zero-sized chunk extent"
        );
        ChunkGrid {
            shape: shape.to_vec(),
            chunk_extent: chunk_extent.to_vec(),
        }
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.shape.len()
    }

    /// Total element count of the domain.
    pub fn domain_len(&self) -> usize {
        self.shape.iter().product()
    }

    /// Chunk count per dimension (`ceil(shape / chunk_extent)`).
    pub fn chunks_per_dim(&self) -> Vec<usize> {
        self.shape
            .iter()
            .zip(&self.chunk_extent)
            .map(|(&n, &e)| n.div_ceil(e))
            .collect()
    }

    /// Total number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.chunks_per_dim().iter().product()
    }

    /// Grid coordinate of chunk `c` (row-major).
    pub fn chunk_coord(&self, c: usize) -> Vec<usize> {
        let per_dim = self.chunks_per_dim();
        assert!(c < per_dim.iter().product(), "chunk index out of range");
        let mut coord = vec![0usize; per_dim.len()];
        let mut rem = c;
        for d in (0..per_dim.len()).rev() {
            coord[d] = rem % per_dim[d];
            rem /= per_dim[d];
        }
        coord
    }

    /// Row-major linear index of a chunk grid coordinate.
    pub fn chunk_index(&self, coord: &[usize]) -> usize {
        let per_dim = self.chunks_per_dim();
        assert_eq!(coord.len(), per_dim.len(), "coordinate dimensionality");
        let mut c = 0usize;
        for d in 0..per_dim.len() {
            assert!(coord[d] < per_dim[d], "chunk coordinate out of range");
            c = c * per_dim[d] + coord[d];
        }
        c
    }

    /// Domain region covered by chunk `c` (clipped at the boundary).
    pub fn chunk_region(&self, c: usize) -> Region {
        let coord = self.chunk_coord(c);
        let start: Vec<usize> = coord
            .iter()
            .zip(&self.chunk_extent)
            .map(|(&i, &e)| i * e)
            .collect();
        let extent: Vec<usize> = start
            .iter()
            .zip(&self.chunk_extent)
            .zip(&self.shape)
            .map(|((&s, &e), &n)| e.min(n - s))
            .collect();
        Region::new(&start, &extent)
    }

    /// Linear indices of every chunk intersecting `region`, in row-major
    /// order. The region must lie within the domain.
    ///
    /// # Panics
    /// Panics if `region` does not fit inside the domain.
    pub fn chunks_intersecting(&self, region: &Region) -> Vec<usize> {
        assert!(
            region.fits_within(&self.shape),
            "region {:?}+{:?} exceeds domain {:?}",
            region.start,
            region.extent,
            self.shape
        );
        let nd = self.ndims();
        // Per-dimension chunk coordinate ranges touched by the region.
        let lo: Vec<usize> = (0..nd)
            .map(|d| region.start[d] / self.chunk_extent[d])
            .collect();
        let hi: Vec<usize> = (0..nd)
            .map(|d| (region.end(d) - 1) / self.chunk_extent[d])
            .collect();
        let mut out = Vec::new();
        let mut coord = lo.clone();
        loop {
            out.push(self.chunk_index(&coord));
            // Row-major odometer over [lo, hi].
            let mut d = nd;
            loop {
                if d == 0 {
                    return out;
                }
                d -= 1;
                if coord[d] < hi[d] {
                    coord[d] += 1;
                    coord[(d + 1)..].copy_from_slice(&lo[(d + 1)..]);
                    break;
                }
            }
        }
    }
}

/// Configuration of the chunked refactoring path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChunkedConfig {
    /// Chunk extents per dimension.
    pub chunk_extent: Vec<usize>,
    /// Per-chunk refactoring configuration.
    pub refactor: RefactorConfig,
}

impl ChunkedConfig {
    /// Default refactoring over `chunk_extent`-sized chunks.
    pub fn with_extent(chunk_extent: &[usize]) -> Self {
        ChunkedConfig {
            chunk_extent: chunk_extent.to_vec(),
            refactor: RefactorConfig::default(),
        }
    }
}

/// A chunk-decomposed refactored variable: the grid plus one independent
/// [`Refactored`] per chunk (row-major chunk order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChunkedRefactored {
    /// Chunk grid geometry.
    pub grid: ChunkGrid,
    /// Element type name (`"f32"` / `"f64"`).
    pub dtype: String,
    /// Per-chunk artifacts, indexed like [`ChunkGrid::chunk_region`].
    pub chunks: Vec<Refactored>,
}

impl ChunkedRefactored {
    /// Wrap one artifact as a single-chunk grid covering its whole
    /// domain — how monolithic archives present themselves to the
    /// [`crate::api::Store`] abstraction.
    pub fn single(chunk: Refactored) -> ChunkedRefactored {
        ChunkedRefactored {
            grid: ChunkGrid::new(&chunk.shape, &chunk.shape),
            dtype: chunk.dtype.clone(),
            chunks: vec![chunk],
        }
    }

    /// Total element count of the domain.
    pub fn num_elements(&self) -> usize {
        self.grid.domain_len()
    }

    /// Total compressed size across all chunks.
    pub fn total_bytes(&self) -> usize {
        self.chunks.iter().map(Refactored::total_bytes).sum()
    }

    /// Largest per-chunk value range — the scale relative error bounds
    /// are set against. Note the *domain-wide* range can exceed it when
    /// chunk value intervals are disjoint (each chunk's bound still
    /// holds; only the interpretation of "relative" shifts).
    pub fn value_range(&self) -> f64 {
        self.chunks
            .iter()
            .map(|c| c.value_range)
            .fold(0.0, f64::max)
    }

    /// Metadata-only copy (every chunk's unit payloads elided).
    pub fn skeleton(&self) -> ChunkedRefactored {
        ChunkedRefactored {
            grid: self.grid.clone(),
            dtype: self.dtype.clone(),
            chunks: self.chunks.iter().map(Refactored::skeleton).collect(),
        }
    }
}

/// Copy the `extent` box at `src_start` of the row-major array
/// `src`/`src_shape` into position `dst_start` of `dst`/`dst_shape`.
///
/// Rows (the last dimension) are contiguous, so the copy is one
/// `copy_from_slice` per row. This is the assembly primitive of both
/// chunk extraction and region reconstruction.
///
/// # Panics
/// Panics if the box exceeds either array.
pub fn copy_hyperslab<T: Copy>(
    src: &[T],
    src_shape: &[usize],
    src_start: &[usize],
    dst: &mut [T],
    dst_shape: &[usize],
    dst_start: &[usize],
    extent: &[usize],
) {
    let nd = extent.len();
    assert!(nd >= 1 && src_shape.len() == nd && dst_shape.len() == nd);
    for d in 0..nd {
        assert!(
            src_start[d] + extent[d] <= src_shape[d],
            "source box exceeds array in dim {d}"
        );
        assert!(
            dst_start[d] + extent[d] <= dst_shape[d],
            "destination box exceeds array in dim {d}"
        );
    }
    let row = extent[nd - 1];
    let src_strides = row_major_strides(src_shape);
    let dst_strides = row_major_strides(dst_shape);
    // Odometer over all dimensions but the last.
    let mut idx = vec![0usize; nd - 1];
    loop {
        let mut so = src_start[nd - 1];
        let mut dof = dst_start[nd - 1];
        for d in 0..nd - 1 {
            so += (src_start[d] + idx[d]) * src_strides[d];
            dof += (dst_start[d] + idx[d]) * dst_strides[d];
        }
        dst[dof..dof + row].copy_from_slice(&src[so..so + row]);
        let mut d = nd - 1;
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < extent[d] {
                break;
            }
            idx[d] = 0;
        }
    }
}

fn row_major_strides(shape: &[usize]) -> Vec<usize> {
    let mut s = vec![1usize; shape.len()];
    for d in (0..shape.len().saturating_sub(1)).rev() {
        s[d] = s[d + 1] * shape[d + 1];
    }
    s
}

/// Extract the dense row-major copy of `region` from `data`/`shape`.
pub fn extract_region<T: Copy + Default>(data: &[T], shape: &[usize], region: &Region) -> Vec<T> {
    let mut out = vec![T::default(); region.len()];
    copy_hyperslab(
        data,
        shape,
        &region.start,
        &mut out,
        &region.extent,
        &vec![0; region.ndims()],
        &region.extent,
    );
    out
}

/// Chunk-refactor one variable on a host-wide [`CpuBackend`].
///
/// # Panics
/// Panics if `data.len()` does not match `shape`, or on non-finite input.
pub fn refactor_chunked<F: BitplaneFloat + Real + Default>(
    data: &[F],
    shape: &[usize],
    config: &ChunkedConfig,
) -> ChunkedRefactored {
    refactor_chunked_with(
        data,
        shape,
        config,
        &CpuBackend::default(),
        &ExecCtx::default(),
    )
}

/// Chunk-refactor one variable on `backend`: every chunk is extracted and
/// refactored independently, fanned out through [`Backend::map_batch`]
/// (so a multi-threaded backend runs whole chunks concurrently).
/// Per-chunk artifacts are bit-identical across backends and widths.
///
/// This is the streaming ingest schedule run over an in-memory source
/// ([`crate::ingest::SliceSource`]) with two slots per worker loop — the
/// same fan that serves [`crate::api::Mdr::ingest`], proven identical by
/// the conformance suite.
///
/// # Panics
/// Panics if `data.len()` does not match `shape`, or on non-finite input.
pub(crate) fn refactor_chunked_with<F: BitplaneFloat + Real + Default, B: Backend>(
    data: &[F],
    shape: &[usize],
    config: &ChunkedConfig,
    backend: &B,
    ctx: &ExecCtx,
) -> ChunkedRefactored {
    let grid = ChunkGrid::new(shape, &config.chunk_extent);
    assert_eq!(
        data.len(),
        grid.domain_len(),
        "data length must match shape"
    );
    // lint:allow(L3): infallible — the assert_eq above checked the length.
    let source = crate::ingest::SliceSource::new(data, shape).expect("length checked above");
    // Two chunks in flight per worker loop: a wide backend keeps every
    // loop busy while extracted copies stay bounded by the slots, not the
    // dataset.
    let slots = backend.threads().max(1).saturating_mul(2);
    let mut chunks: Vec<Refactored> = Vec::with_capacity(grid.num_chunks());
    crate::ingest::run_ingest(
        source,
        &grid,
        &config.refactor,
        backend,
        ctx,
        slots,
        false,
        &mut |c, r| {
            debug_assert_eq!(c, chunks.len(), "chunks arrive in order");
            chunks.push(r);
            Ok(())
        },
    )
    // lint:allow(L3): the sink closure always returns Ok and the source is
    // in-memory, so no ingest stage can fail.
    .expect("in-memory ingest cannot fail");
    ChunkedRefactored {
        grid,
        dtype: F::TYPE_NAME.to_string(),
        chunks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field_3d(nx: usize, ny: usize, nz: usize) -> Vec<f32> {
        let mut v = Vec::with_capacity(nx * ny * nz);
        for x in 0..nx {
            for y in 0..ny {
                for z in 0..nz {
                    v.push(
                        (x as f32 * 0.19).sin() * (y as f32 * 0.23).cos() + (z as f32 * 0.11).sin(),
                    );
                }
            }
        }
        v
    }

    #[test]
    fn grid_counts_and_clipping() {
        let g = ChunkGrid::new(&[10, 7], &[4, 3]);
        assert_eq!(g.chunks_per_dim(), vec![3, 3]);
        assert_eq!(g.num_chunks(), 9);
        // Interior chunk.
        let r = g.chunk_region(g.chunk_index(&[1, 1]));
        assert_eq!(r.start, vec![4, 3]);
        assert_eq!(r.extent, vec![4, 3]);
        // Boundary chunk is clipped: dim0 10-8=2, dim1 7-6=1.
        let r = g.chunk_region(g.chunk_index(&[2, 2]));
        assert_eq!(r.start, vec![8, 6]);
        assert_eq!(r.extent, vec![2, 1]);
    }

    #[test]
    fn chunk_regions_tile_the_domain() {
        let g = ChunkGrid::new(&[9, 5, 7], &[4, 5, 3]);
        let mut covered = vec![0usize; 9 * 5 * 7];
        for c in 0..g.num_chunks() {
            let r = g.chunk_region(c);
            let strides = row_major_strides(&[9, 5, 7]);
            for x in r.start[0]..r.end(0) {
                for y in r.start[1]..r.end(1) {
                    for z in r.start[2]..r.end(2) {
                        covered[x * strides[0] + y * strides[1] + z] += 1;
                    }
                }
            }
        }
        assert!(covered.iter().all(|&c| c == 1), "chunks tile exactly once");
    }

    #[test]
    fn coord_index_roundtrip() {
        let g = ChunkGrid::new(&[20, 12, 9], &[6, 5, 4]);
        for c in 0..g.num_chunks() {
            assert_eq!(g.chunk_index(&g.chunk_coord(c)), c);
        }
    }

    #[test]
    fn intersecting_chunks_are_exactly_the_overlapping_ones() {
        let g = ChunkGrid::new(&[10, 10], &[4, 4]);
        let region = Region::new(&[3, 5], &[2, 4]);
        let hits = g.chunks_intersecting(&region);
        // dim0 rows 3..5 -> chunks 0..=1; dim1 cols 5..9 -> chunks 1..=2.
        let expected: Vec<usize> = vec![
            g.chunk_index(&[0, 1]),
            g.chunk_index(&[0, 2]),
            g.chunk_index(&[1, 1]),
            g.chunk_index(&[1, 2]),
        ];
        assert_eq!(hits, expected);
        // Every listed chunk genuinely overlaps; every other doesn't.
        for c in 0..g.num_chunks() {
            let overlaps = g.chunk_region(c).intersect(&region).is_some();
            assert_eq!(overlaps, hits.contains(&c), "chunk {c}");
        }
    }

    #[test]
    fn single_chunk_grid_when_extent_covers_domain() {
        let g = ChunkGrid::new(&[8, 8], &[16, 16]);
        assert_eq!(g.num_chunks(), 1);
        let r = g.chunk_region(0);
        assert_eq!(r.extent, vec![8, 8]);
    }

    #[test]
    fn copy_hyperslab_roundtrips_subboxes() {
        let shape = [5usize, 6, 7];
        let data: Vec<i32> = (0..5 * 6 * 7).collect();
        let region = Region::new(&[1, 2, 3], &[3, 2, 4]);
        let sub = extract_region(&data, &shape, &region);
        assert_eq!(sub.len(), 3 * 2 * 4);
        // First row of the box: offset (1,2,3) = 1*42 + 2*7 + 3 = 59.
        assert_eq!(&sub[..4], &[59, 60, 61, 62]);
        // Write it back to a zeroed array; the box must match, the rest 0.
        let mut back = vec![0i32; data.len()];
        copy_hyperslab(
            &sub,
            &region.extent,
            &[0, 0, 0],
            &mut back,
            &shape,
            &region.start,
            &region.extent,
        );
        let strides = row_major_strides(&shape);
        for x in 0..5 {
            for y in 0..6 {
                for z in 0..7 {
                    let i = x * strides[0] + y * strides[1] + z;
                    let inside = (1..4).contains(&x) && (2..4).contains(&y) && (3..7).contains(&z);
                    assert_eq!(back[i], if inside { data[i] } else { 0 }, "at {i}");
                }
            }
        }
    }

    #[test]
    fn chunked_refactor_covers_domain_with_independent_chunks() {
        let data = field_3d(17, 12, 9);
        let cfg = ChunkedConfig::with_extent(&[8, 8, 8]);
        let cr = refactor_chunked(&data, &[17, 12, 9], &cfg);
        assert_eq!(cr.grid.num_chunks(), 3 * 2 * 2);
        assert_eq!(cr.chunks.len(), cr.grid.num_chunks());
        assert_eq!(cr.dtype, "f32");
        let total: usize = cr.chunks.iter().map(|c| c.num_elements()).sum();
        assert_eq!(total, 17 * 12 * 9);
        // Each chunk is a self-contained Refactored over its own extent.
        for c in 0..cr.grid.num_chunks() {
            assert_eq!(cr.chunks[c].shape, cr.grid.chunk_region(c).extent);
        }
        assert!(cr.value_range() > 0.0);
    }

    #[test]
    fn chunk_matches_monolithic_refactor_of_same_box() {
        // A chunk's artifact must be exactly what refactoring that box
        // alone produces — independence is what makes chunks shardable.
        let data = field_3d(16, 10, 8);
        let cfg = ChunkedConfig::with_extent(&[8, 5, 8]);
        let cr = refactor_chunked(&data, &[16, 10, 8], &cfg);
        let c = cr.grid.chunk_index(&[1, 0, 0]);
        let region = cr.grid.chunk_region(c);
        let sub = extract_region(&data, &[16, 10, 8], &region);
        let solo = crate::refactor::refactor(&sub, &region.extent, &cfg.refactor);
        assert_eq!(cr.chunks[c], solo);
    }

    #[test]
    #[should_panic]
    fn data_length_mismatch_panics() {
        let data = vec![0.0f32; 10];
        refactor_chunked(&data, &[4, 4], &ChunkedConfig::with_extent(&[2, 2]));
    }

    #[test]
    #[should_panic]
    fn zero_chunk_extent_rejected() {
        ChunkGrid::new(&[8, 8], &[4, 0]);
    }
}
