//! Streaming ingest: chunk-at-a-time refactoring with bounded memory.
//!
//! The whole-input refactor entry points require the entire domain
//! resident in memory. This module is the other regime — checkpoint
//! streams, sensor feeds, datasets larger than RAM — where data arrives
//! (or is generated) one chunk at a time and is refactored and flushed
//! to a sharded store as it goes. The schedule is the paper's pipeline
//! on the *write* side, as one ordered worker fan
//! ([`hpmdr_exec::stages::run_ordered`]): each of the backend's worker
//! loops reads the next chunk from the [`ChunkSource`] (under a lock, in
//! chunk order), runs its whole refactor — [`prepare`], the finite
//! check, [`encode`] — and hands it to an in-order commit, so while one
//! loop refactors chunk k another is reading chunk k+1 and whichever
//! finishes the oldest chunk flushes its shard. A slot gate keeps at
//! most `slots` chunks between their read and their flushed shard; the
//! core budget decides how many loops run at once, and with none free
//! one loop on the caller reads, refactors and flushes each chunk in
//! turn.
//!
//! The memory contract is the point: peak staged payload is bounded by
//! `slots × max-chunk-footprint` (a chunk's footprint is its raw samples
//! plus its compressed artifact), **never** O(dataset).
//! [`IngestReport`] returns the measured peak so callers and benches
//! can assert the bound held.
//!
//! The schedule produces **bit-identical** shards and manifests to the
//! whole-input chunked path — in fact the whole-input path *is* this
//! schedule run over an in-memory [`SliceSource`] (with `threads × 2`
//! slots), so there is exactly one refactor fan in the crate. How many
//! slots a run gets is the caller's, not an option: streaming ingest
//! always runs at [`DEFAULT_LOOKAHEAD`].

use crate::chunked::{extract_region, ChunkGrid};
use crate::error::MdrError;
use crate::refactor::{encode, prepare, RefactorConfig, Refactored};
use crate::roi::Region;
use hpmdr_bitplane::BitplaneFloat;
use hpmdr_exec::{stages, Backend, ExecCtx};
use hpmdr_mgard::Real;
use std::fs::File;
use std::io::{Read as _, Seek as _, SeekFrom};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Chunks streaming ingest may hold in flight — the `lookahead` of
/// its staging bound ([`IngestReport::staging_bound_bytes`]).
pub const DEFAULT_LOOKAHEAD: usize = 4;

/// Most file bytes a [`FileSource`] slab read may fetch per byte it
/// keeps; past this the gaps between rows cost more than the calls saved.
const SLAB_MAX_OVERREAD: usize = 4;

/// Largest [`FileSource`] slab read, in bytes — the read buffer stays
/// small whatever the domain's row length.
const SLAB_MAX_BYTES: usize = 1 << 20;

/// A sequential supplier of chunk data for streaming ingest.
///
/// Ingest calls [`read_chunk`](ChunkSource::read_chunk) exactly once per
/// chunk, in increasing row-major chunk order, so purely sequential
/// sources (a socket, a simulation timestep loop) work without any
/// seeking; random-access sources simply ignore the ordering guarantee.
/// The calls come under a lock, one at a time, from whichever worker
/// loop claims the next chunk — so on more than one thread, which is
/// why a source must be `Send`.
pub trait ChunkSource<F>: Send {
    /// Row-major shape of the domain this source delivers.
    fn shape(&self) -> &[usize];

    /// Produce the dense row-major samples of `region` — chunk `c` of
    /// the ingest grid. Must return exactly `region.len()` values.
    fn read_chunk(&mut self, c: usize, region: &Region) -> Result<Vec<F>, MdrError>;
}

/// Element types a [`FileSource`] can decode from raw little-endian
/// bytes (the plain `.f32`/`.f64` dump convention scientific codes
/// use).
pub trait IngestElem: BitplaneFloat + Real + Default {
    /// Bytes per element on disk.
    const BYTES: usize;
    /// Decode one element from its little-endian bytes.
    fn from_le(bytes: &[u8]) -> Self;
    /// Append this element's little-endian bytes to `out`.
    fn to_le(self, out: &mut Vec<u8>);
}

impl IngestElem for f32 {
    const BYTES: usize = 4;
    fn from_le(bytes: &[u8]) -> Self {
        // lint:allow(L3): `bytes.len() >= Self::BYTES` is the trait
        // contract, upheld by every in-crate caller.
        f32::from_le_bytes(bytes[..4].try_into().expect("4-byte f32"))
    }
    fn to_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl IngestElem for f64 {
    const BYTES: usize = 8;
    fn from_le(bytes: &[u8]) -> Self {
        // lint:allow(L3): as the f32 impl — slice length is the contract.
        f64::from_le_bytes(bytes[..8].try_into().expect("8-byte f64"))
    }
    fn to_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

/// In-memory [`ChunkSource`] over a borrowed row-major slice — the
/// source the whole-input chunked refactor path rides on.
pub struct SliceSource<'a, F> {
    data: &'a [F],
    shape: Vec<usize>,
}

impl<'a, F> SliceSource<'a, F> {
    /// Wrap `data` (row-major, length must match `shape`).
    pub fn new(data: &'a [F], shape: &[usize]) -> Result<Self, MdrError> {
        let want: usize = shape.iter().product();
        if data.len() != want {
            return Err(MdrError::InvalidInput(format!(
                "data length {} does not match shape {:?} ({} elements)",
                data.len(),
                shape,
                want
            )));
        }
        Ok(SliceSource {
            data,
            shape: shape.to_vec(),
        })
    }
}

impl<F: Copy + Default + Sync> ChunkSource<F> for SliceSource<'_, F> {
    fn shape(&self) -> &[usize] {
        &self.shape
    }

    fn read_chunk(&mut self, _c: usize, region: &Region) -> Result<Vec<F>, MdrError> {
        Ok(extract_region(self.data, &self.shape, region))
    }
}

/// [`ChunkSource`] over a raw little-endian row-major binary file.
///
/// Only a chunk — never the whole file — is resident. A chunk is read
/// one *slab* per call: the `rows` rows that one position of the leading
/// dimensions spans along the second-to-last dimension lie `pitch`
/// (the file's row length) apart, so `(rows − 1)·pitch + row` contiguous
/// file elements hold all of them. That span is read at once while it
/// over-reads at most 4× and stays within 1 MiB; a wider domain under a
/// narrow chunk falls back to the same loop with one row per call
/// ([`reads_issued`](Self::reads_issued) counts the calls). The file
/// length is validated against `shape` at open time.
#[derive(Debug)]
pub struct FileSource<F: IngestElem> {
    file: File,
    path: PathBuf,
    shape: Vec<usize>,
    /// Row-major element strides of `shape`.
    strides: Vec<usize>,
    /// `read_exact` calls issued so far.
    reads: usize,
    _elem: PhantomData<fn() -> F>,
}

impl<F: IngestElem> FileSource<F> {
    /// Open `path` as a raw little-endian dump of a `shape`-shaped
    /// row-major array of `F`.
    pub fn open(path: &Path, shape: &[usize]) -> Result<Self, MdrError> {
        if shape.is_empty() || shape.contains(&0) {
            return Err(MdrError::InvalidInput(format!(
                "invalid source shape {shape:?}"
            )));
        }
        let file = File::open(path).map_err(|e| MdrError::io(path, e))?;
        let meta = file.metadata().map_err(|e| MdrError::io(path, e))?;
        let want = shape
            .iter()
            .try_fold(F::BYTES as u64, |n, &d| n.checked_mul(d as u64))
            .ok_or_else(|| {
                MdrError::InvalidInput(format!(
                    "source shape {shape:?} of {} overflows a file length",
                    F::TYPE_NAME
                ))
            })?;
        if meta.len() != want {
            return Err(MdrError::InvalidInput(format!(
                "{} is {} bytes; shape {:?} of {} needs {}",
                path.display(),
                meta.len(),
                shape,
                F::TYPE_NAME,
                want
            )));
        }
        let mut strides = vec![1usize; shape.len()];
        for d in (0..shape.len() - 1).rev() {
            strides[d] = strides[d + 1] * shape[d + 1];
        }
        Ok(FileSource {
            file,
            path: path.to_path_buf(),
            shape: shape.to_vec(),
            strides,
            reads: 0,
            _elem: PhantomData,
        })
    }

    /// Read calls issued against the file so far — the source's I/O-op
    /// count (one per slab, or one per row where the slab rule declines).
    pub fn reads_issued(&self) -> usize {
        self.reads
    }
}

impl<F: IngestElem> ChunkSource<F> for FileSource<F> {
    fn shape(&self) -> &[usize] {
        &self.shape
    }

    fn read_chunk(&mut self, _c: usize, region: &Region) -> Result<Vec<F>, MdrError> {
        let nd = self.shape.len();
        debug_assert_eq!(region.ndims(), nd);
        let row = region.extent[nd - 1];
        let (rows, pitch) = match nd {
            1 => (1, row),
            _ => (region.extent[nd - 2], self.strides[nd - 2]),
        };
        // Rows per read: the whole slab when the rule admits it, else one.
        let slab_span = (rows - 1) * pitch + row;
        let take = if slab_span <= SLAB_MAX_OVERREAD * rows * row
            && slab_span * F::BYTES <= SLAB_MAX_BYTES
        {
            rows
        } else {
            1
        };
        // Dimensions a read does not cover, stepped by the odometer below.
        let outer = if take == rows {
            nd.saturating_sub(2)
        } else {
            nd - 1
        };
        let mut out = vec![F::default(); region.len()];
        let mut buf = vec![0u8; ((take - 1) * pitch + row) * F::BYTES];
        let mut idx = region.start.clone();
        for dst in out.chunks_exact_mut(take * row) {
            let off: usize = idx.iter().zip(&self.strides).map(|(i, s)| i * s).sum();
            self.reads += 1;
            self.file
                .seek(SeekFrom::Start((off * F::BYTES) as u64))
                .and_then(|_| self.file.read_exact(&mut buf))
                .map_err(|e| {
                    if e.kind() == std::io::ErrorKind::UnexpectedEof {
                        MdrError::corrupt(format!(
                            "{} truncated: read at {:?} ends past the file",
                            self.path.display(),
                            idx
                        ))
                    } else {
                        MdrError::io(&self.path, e)
                    }
                })?;
            let src_rows = buf.chunks(pitch * F::BYTES);
            for (dst_row, src) in dst.chunks_exact_mut(row).zip(src_rows) {
                for (v, bytes) in dst_row.iter_mut().zip(src.chunks_exact(F::BYTES)) {
                    *v = F::from_le(bytes);
                }
            }
            for d in (0..outer).rev() {
                idx[d] += 1;
                if idx[d] < region.end(d) {
                    break;
                }
                idx[d] = region.start[d];
            }
        }
        Ok(out)
    }
}

/// Closure-backed [`ChunkSource`] — chunks generated on demand
/// (simulation output, synthetic fields, decoded network frames).
pub struct FnSource<F, G> {
    shape: Vec<usize>,
    gen: G,
    _elem: PhantomData<fn() -> F>,
}

impl<F, G> FnSource<F, G>
where
    G: FnMut(usize, &Region) -> Result<Vec<F>, MdrError> + Send,
{
    /// Source over `shape` whose chunk `c` is produced by `gen(c,
    /// region)`.
    pub fn new(shape: &[usize], gen: G) -> Self {
        FnSource {
            shape: shape.to_vec(),
            gen,
            _elem: PhantomData,
        }
    }
}

impl<F, G> ChunkSource<F> for FnSource<F, G>
where
    F: Send,
    G: FnMut(usize, &Region) -> Result<Vec<F>, MdrError> + Send,
{
    fn shape(&self) -> &[usize] {
        &self.shape
    }

    fn read_chunk(&mut self, c: usize, region: &Region) -> Result<Vec<F>, MdrError> {
        (self.gen)(c, region)
    }
}

/// What an ingest run did, including the measured memory high-water
/// mark so the bounded-memory contract is checkable by the caller.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Full domain shape of the store after this run (for an append,
    /// the grown shape).
    pub shape: Vec<usize>,
    /// Chunks refactored and flushed by this run.
    pub chunks_written: usize,
    /// Compressed shard bytes written by this run.
    pub bytes_written: usize,
    /// High-water mark of staged payload bytes (raw chunk samples plus
    /// not-yet-flushed compressed artifacts) across the run.
    pub peak_staged_bytes: usize,
    /// Largest single-chunk footprint seen: raw samples + compressed
    /// artifact of one chunk.
    pub max_chunk_footprint_bytes: usize,
    /// The staging bound the run held to ([`DEFAULT_LOOKAHEAD`]).
    pub lookahead: usize,
}

impl IngestReport {
    /// The memory bound the pipeline guarantees:
    /// `lookahead × max_chunk_footprint_bytes`. [`peak_staged_bytes`]
    /// never exceeds this.
    ///
    /// [`peak_staged_bytes`]: IngestReport::peak_staged_bytes
    pub fn staging_bound_bytes(&self) -> usize {
        self.lookahead
            .saturating_mul(self.max_chunk_footprint_bytes)
    }
}

/// Staged-byte gauge: tracks the live total and its high-water mark.
#[derive(Default)]
struct StagedGauge {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl StagedGauge {
    fn add(&self, n: usize) {
        let now = self.current.fetch_add(n, Ordering::SeqCst) + n;
        self.peak.fetch_max(now, Ordering::SeqCst);
    }

    fn sub(&self, n: usize) {
        self.current.fetch_sub(n, Ordering::SeqCst);
    }
}

/// Measured side of an ingest run (the caller owns the store-level
/// fields of [`IngestReport`]).
#[derive(Debug)]
pub(crate) struct IngestMetrics {
    pub chunks: usize,
    pub peak_staged_bytes: usize,
    pub max_chunk_footprint_bytes: usize,
}

/// Run the ingest schedule over every chunk of `grid`, delivering
/// refactored chunks to `sink` in chunk order, with at most `slots` (≥ 1)
/// chunks between their read and the end of their `sink` call.
///
/// This is **the** refactor fan: both streaming ingest and the
/// whole-input chunked path funnel through it, which is what makes
/// their artifacts bit-identical by construction. Each chunk's refactor
/// ([`prepare`], the finite check, [`encode`]) runs whole on the worker
/// loop that read it. `validate` turns non-finite samples into
/// [`MdrError::InvalidInput`] (streaming sources are untrusted); with
/// `validate` off [`encode`]'s assertion applies, preserving the
/// historical panic-on-NaN contract of the in-memory path.
// One parameter per pipeline concern; bundling them into a struct would
// just move the same eight names behind a constructor.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_ingest<F, S, B>(
    mut source: S,
    grid: &ChunkGrid,
    cfg: &RefactorConfig,
    backend: &B,
    ctx: &ExecCtx,
    slots: usize,
    validate: bool,
    sink: &mut (dyn FnMut(usize, Refactored) -> Result<(), MdrError> + Send),
) -> Result<IngestMetrics, MdrError>
where
    F: BitplaneFloat + Real + Default,
    S: ChunkSource<F>,
    B: Backend,
{
    let n = grid.num_chunks();
    let gauge = StagedGauge::default();
    let footprint = AtomicUsize::new(0);

    let mut next = 0usize;
    let produce = || -> Option<Result<(usize, Vec<F>), MdrError>> {
        if next == n {
            return None;
        }
        let c = next;
        next += 1;
        let region = grid.chunk_region(c);
        Some(source.read_chunk(c, &region).and_then(|data| {
            if data.len() != region.len() {
                return Err(MdrError::InvalidInput(format!(
                    "source returned {} samples for chunk {c} ({} expected)",
                    data.len(),
                    region.len()
                )));
            }
            gauge.add(std::mem::size_of_val(data.as_slice()));
            Ok((c, data))
        }))
    };

    let work = |(c, data): (usize, Vec<F>)| {
        let raw_bytes = std::mem::size_of_val(data.as_slice());
        let d = prepare(data, &grid.chunk_region(c).extent, cfg, backend, ctx);
        if validate && !d.all_finite() {
            return Err(MdrError::InvalidInput(format!(
                "chunk {c} contains non-finite samples"
            )));
        }
        let r = encode(&d, cfg, backend, ctx);
        let artifact_bytes = r.total_bytes();
        // The artifact is counted before the raw bytes go, so one slot's
        // peak is the chunk's whole footprint.
        gauge.add(artifact_bytes);
        gauge.sub(raw_bytes);
        footprint.fetch_max(raw_bytes + artifact_bytes, Ordering::SeqCst);
        Ok((c, r, artifact_bytes))
    };

    let commit = |(c, r, artifact_bytes): (usize, Refactored, usize)| {
        sink(c, r)?;
        gauge.sub(artifact_bytes);
        Ok(())
    };

    stages::run_ordered(backend, ctx, slots, produce, work, commit)?;
    Ok(IngestMetrics {
        chunks: n,
        peak_staged_bytes: gauge.peak.load(Ordering::SeqCst),
        max_chunk_footprint_bytes: footprint.load(Ordering::SeqCst),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunked::{refactor_chunked, refactor_chunked_with, ChunkedConfig};
    use crate::storage::{write_chunked_store, ChunkedStoreWriter};
    use hpmdr_exec::CpuBackend;

    /// One worker loop on the caller (the serial schedule), and a fan of
    /// four loops (as many run at once as the host has cores free).
    const WIDTHS: [usize; 2] = [1, 4];

    fn field(shape: &[usize]) -> Vec<f32> {
        let n: usize = shape.iter().product();
        (0..n)
            .map(|i| ((i % 97) as f32 * 0.31).sin() * 2.0 + (i as f32 * 0.011).cos())
            .collect()
    }

    fn run_to_vec(
        data: &[f32],
        shape: &[usize],
        extent: &[usize],
        threads: usize,
        slots: usize,
    ) -> (Vec<Refactored>, IngestMetrics) {
        let grid = ChunkGrid::new(shape, extent);
        let source = SliceSource::new(data, shape).unwrap();
        let mut out: Vec<(usize, Refactored)> = Vec::new();
        let metrics = run_ingest(
            source,
            &grid,
            &RefactorConfig::default(),
            &CpuBackend::with_threads(threads),
            &ExecCtx::default(),
            slots,
            true,
            &mut |c, r| {
                out.push((c, r));
                Ok(())
            },
        )
        .unwrap();
        assert!(out.windows(2).all(|w| w[0].0 + 1 == w[1].0), "chunk order");
        (out.into_iter().map(|(_, r)| r).collect(), metrics)
    }

    #[test]
    fn ingest_matches_whole_input_chunked_refactor() {
        let shape = [25, 18];
        let extent = [8, 8];
        let data = field(&shape);
        let cr = refactor_chunked(&data, &shape, &ChunkedConfig::with_extent(&extent));
        for threads in WIDTHS {
            for slots in [1, 2, 3, 5] {
                let (chunks, metrics) = run_to_vec(&data, &shape, &extent, threads, slots);
                assert_eq!(chunks, cr.chunks, "{threads} threads, {slots} slots");
                assert_eq!(metrics.chunks, cr.grid.num_chunks());
                assert!(
                    metrics.peak_staged_bytes <= slots * metrics.max_chunk_footprint_bytes,
                    "staging bound violated: peak {} > {slots} × {}",
                    metrics.peak_staged_bytes,
                    metrics.max_chunk_footprint_bytes
                );
            }
        }
    }

    /// Run the schedule `threads` wide with `slots` over `data`,
    /// discarding the chunks.
    fn metrics_of(
        data: &[f32],
        shape: &[usize],
        extent: &[usize],
        threads: usize,
        slots: usize,
    ) -> IngestMetrics {
        run_ingest(
            SliceSource::new(data, shape).unwrap(),
            &ChunkGrid::new(shape, extent),
            &RefactorConfig::default(),
            &CpuBackend::with_threads(threads),
            &ExecCtx::default(),
            slots,
            true,
            &mut |_, _| Ok(()),
        )
        .unwrap()
    }

    /// The measured high-water mark honours the `slots ×
    /// max-chunk-footprint` bound at every width and slot count — the
    /// bounded-memory contract, asserted on real runs.
    #[test]
    fn staging_peak_is_bounded_under_every_schedule() {
        let (shape, extent) = ([32usize, 16, 16], [8usize, 8, 8]);
        let data = field(&shape);
        for threads in WIDTHS {
            for slots in [1, 2, DEFAULT_LOOKAHEAD, 8] {
                let m = metrics_of(&data, &shape, &extent, threads, slots);
                let case = format!("{threads} threads, {slots} slots");
                assert_eq!(m.chunks, 16);
                assert!(m.max_chunk_footprint_bytes > 0);
                assert!(
                    m.peak_staged_bytes <= slots * m.max_chunk_footprint_bytes,
                    "{case}: peak {} exceeds {slots} × footprint {}",
                    m.peak_staged_bytes,
                    m.max_chunk_footprint_bytes
                );
                // One slot holds one chunk at a time, whichever loop runs it,
                // and its artifact is counted before its samples go: the
                // peak is exactly one chunk's samples plus its own artifact.
                if slots == 1 {
                    assert_eq!(m.peak_staged_bytes, m.max_chunk_footprint_bytes, "{case}");
                }
            }
        }
    }

    /// The schedule streams at every width: at the default slot count it
    /// stages less than the input, where a whole-input refactor holds all
    /// of it. (`Mdr::ingest` is checked through the façade.)
    #[test]
    fn serial_schedule_stages_less_than_the_whole_input() {
        let (shape, extent) = ([64usize, 32, 32], [16usize, 16, 16]);
        let data = field(&shape);
        for threads in WIDTHS {
            let m = metrics_of(&data, &shape, &extent, threads, DEFAULT_LOOKAHEAD);
            assert_eq!(m.chunks, 16);
            let raw_bytes = data.len() * 4;
            assert!(
                m.peak_staged_bytes < raw_bytes,
                "{threads} threads: staged {} bytes of a {raw_bytes}-byte input",
                m.peak_staged_bytes
            );
        }
    }

    /// Every file of the store under `dir`, sorted by name.
    fn store_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                let name = e.file_name().into_string().unwrap();
                (name, std::fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort_by(|a, b| a.0.cmp(&b.0));
        files
    }

    /// Scheduling is never a format change: at either backend width and
    /// any slot count, the schedule writes the store the whole-input
    /// chunked path does, file for file — over a sweep of clipped and
    /// unclipped 2-D grids.
    #[test]
    fn stores_are_byte_identical_across_backends_and_schedules() {
        let base = std::env::temp_dir().join(format!("hpmdr_ingest_sched_{}", std::process::id()));
        let mut seed = 0x9E37_79B9u32;
        let mut next = |below: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 17;
            seed ^= seed << 5;
            seed as usize % below
        };
        for case in 0..4 {
            let shape = [8 + next(12), 8 + next(12)];
            let extent = [3 + next(5), 3 + next(5)];
            let data: Vec<f32> = (0..shape[0] * shape[1])
                .map(|_| (next(1 << 16) as f32 / 65536.0 - 0.5) * 8.0)
                .collect();
            let _ = std::fs::remove_dir_all(&base);
            let reference = refactor_chunked_with(
                &data,
                &shape,
                &ChunkedConfig::with_extent(&extent),
                &CpuBackend::with_threads(1),
                &ExecCtx::default(),
            );
            write_chunked_store(&reference, &base.join("reference")).unwrap();
            let want = store_files(&base.join("reference"));
            for slots in 1..6 {
                for threads in WIDTHS {
                    let dir = base.join(format!("{threads}_{slots}"));
                    let grid = ChunkGrid::new(&shape, &extent);
                    let mut writer = ChunkedStoreWriter::create(&dir, grid.clone(), "f32").unwrap();
                    run_ingest(
                        SliceSource::new(&data, &shape).unwrap(),
                        &grid,
                        &RefactorConfig::default(),
                        &CpuBackend::with_threads(threads),
                        &ExecCtx::default(),
                        slots,
                        true,
                        &mut |_, r| writer.append_chunk(&r).map(drop),
                    )
                    .unwrap();
                    writer.finish().unwrap();
                    assert_eq!(
                        store_files(&dir),
                        want,
                        "case {case} {shape:?} in {extent:?}: {slots} slots on {threads} threads"
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    /// `data` as a raw little-endian dump in a fresh temporary file.
    fn dump<F: IngestElem>(tag: &str, data: &[F]) -> PathBuf {
        let mut bytes = Vec::with_capacity(data.len() * F::BYTES);
        for &v in data {
            v.to_le(&mut bytes);
        }
        let name = format!("hpmdr_ingest_{tag}_{}", std::process::id());
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, &bytes).unwrap();
        path
    }

    /// Every chunk of `shape` in `extent` read back through a
    /// [`FileSource`] equals the in-memory extraction; returns the reads
    /// the source issued.
    fn file_round_trip<F: IngestElem + std::fmt::Debug>(
        tag: &str,
        data: &[F],
        shape: &[usize],
        extent: &[usize],
    ) -> usize {
        let path = dump(tag, data);
        let grid = ChunkGrid::new(shape, extent);
        let mut src = FileSource::<F>::open(&path, shape).unwrap();
        for c in 0..grid.num_chunks() {
            let region = grid.chunk_region(c);
            let got = src.read_chunk(c, &region).unwrap();
            let want = extract_region(data, shape, &region);
            assert_eq!(got, want, "{shape:?} in {extent:?}, chunk {c}");
        }
        std::fs::remove_file(&path).unwrap();
        src.reads_issued()
    }

    #[test]
    fn file_source_round_trips_all_chunks() {
        // (shape, chunk extent, reads expected over the whole grid): a
        // slab read per position of the leading dimensions, or a read per
        // row where the slab would over-read more than 4×. Full-width and
        // clipped rows, clipped slabs, the last slab ending at EOF, 2-D,
        // 1-D, rows of one element, a wide domain under a narrow chunk.
        let cases: [(&[usize], &[usize], usize); 8] = [
            (&[13, 9, 6], &[5, 4, 6], 13 * 3),
            (&[13, 9, 6], &[5, 4, 4], 13 * 3 * 2),
            // Columns 0–13 read as slabs (133 elements for 56, 2.4×); the
            // clipped column 14–17 would over-read 130 / 32 = 4.06×, so
            // its 8-row chunks go row by row and its 1-row chunk is one.
            (&[25, 18], &[8, 7], 4 * 2 + 3 * 8 + 1),
            (&[57], &[10], 6),
            // 4 rows of 1 at pitch 7 are 22 / 4 = 5.5× (rows); the clipped
            // 2 rows are 8 / 2 = 4× (slab).
            (&[6, 7], &[4, 1], 7 * (4 + 1)),
            (&[9, 1], &[4, 1], 3),
            (&[4, 5, 1000], &[2, 2, 10], 4 * 5 * 100),
            (&[4, 5, 40], &[2, 2, 10], 4 * 3 * 4),
        ];
        for (case, (shape, extent, reads)) in cases.into_iter().enumerate() {
            let data = field(shape);
            let tag = format!("fs_{case}");
            assert_eq!(
                file_round_trip(&tag, &data, shape, extent),
                reads,
                "{shape:?} in {extent:?}"
            );
            let wide: Vec<f64> = data.iter().map(|&v| f64::from(v) * 1e40).collect();
            assert_eq!(file_round_trip(&tag, &wide, shape, extent), reads);
        }
        // A slab span over the 1 MiB cap (3 rows at a 512 KiB pitch)
        // falls back to rows whatever its over-read; exactly 1 MiB fits.
        let shape = [3usize, 131_072];
        let data = field(&shape);
        assert_eq!(
            file_round_trip("fs_cap", &data, &shape, &[3, 100_000]),
            3 * 2
        );
        let shape = [2usize, 131_072];
        assert_eq!(
            file_round_trip("fs_fit", &data[..2 * 131_072], &shape, &[2, 131_072]),
            1
        );
    }

    #[test]
    fn file_source_rejects_wrong_length() {
        let path = dump("len", &[0.0f32; 3]);
        let err = FileSource::<f32>::open(&path, &[4, 4]).unwrap_err();
        assert!(matches!(err, MdrError::InvalidInput(_)), "{err}");
        // An f32 dump is half the bytes the same shape of f64 needs.
        let err = FileSource::<f64>::open(&path, &[3]).unwrap_err();
        assert!(matches!(err, MdrError::InvalidInput(_)), "{err}");
        // A shape whose byte length overflows is rejected, not wrapped.
        let err = FileSource::<f64>::open(&path, &[usize::MAX / 4, 3]).unwrap_err();
        assert!(
            matches!(&err, MdrError::InvalidInput(w) if w.contains("overflows")),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_is_corrupt_on_both_read_paths() {
        // Opened at full length, truncated behind the source's back.
        for (shape, extent) in [([6usize, 40], [3usize, 20]), ([6, 1000], [3, 10])] {
            let path = dump("trunc", &field(&shape));
            let mut src = FileSource::<f32>::open(&path, &shape).unwrap();
            let keep = (shape[0] * shape[1] - 5) * 4;
            std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .and_then(|f| f.set_len(keep as u64))
                .unwrap();
            let grid = ChunkGrid::new(&shape, &extent);
            let last = grid.num_chunks() - 1;
            src.read_chunk(0, &grid.chunk_region(0)).unwrap();
            let err = src.read_chunk(last, &grid.chunk_region(last)).unwrap_err();
            assert!(
                matches!(&err, MdrError::Corrupt(w) if w.contains("truncated")),
                "{shape:?}: {err}"
            );
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn source_error_propagates_in_both_modes() {
        let shape = [16, 16];
        for threads in WIDTHS {
            let source = FnSource::new(&shape, |c, region: &Region| {
                if c == 2 {
                    Err(MdrError::corrupt("feed dropped"))
                } else {
                    Ok(vec![0.5f32; region.len()])
                }
            });
            let grid = ChunkGrid::new(&shape, &[8, 8]);
            let err = run_ingest(
                source,
                &grid,
                &RefactorConfig::default(),
                &CpuBackend::with_threads(threads),
                &ExecCtx::default(),
                DEFAULT_LOOKAHEAD,
                true,
                &mut |_, _| Ok(()),
            )
            .unwrap_err();
            assert!(
                matches!(&err, MdrError::Corrupt(w) if w.contains("feed dropped")),
                "{threads} threads: {err}"
            );
        }
    }

    #[test]
    fn non_finite_chunk_is_an_error_not_a_panic() {
        // Whichever loop refactors the chunk: the caller's or a worker's.
        let shape = [12, 12];
        for threads in WIDTHS {
            let source = FnSource::new(&shape, |c, region: &Region| {
                let mut v = vec![1.0f32; region.len()];
                if c == 1 {
                    v[3] = f32::NAN;
                }
                Ok(v)
            });
            let grid = ChunkGrid::new(&shape, &[6, 6]);
            let err = run_ingest(
                source,
                &grid,
                &RefactorConfig::default(),
                &CpuBackend::with_threads(threads),
                &ExecCtx::default(),
                DEFAULT_LOOKAHEAD,
                true,
                &mut |_, _| Ok(()),
            )
            .unwrap_err();
            assert!(
                matches!(&err, MdrError::InvalidInput(w) if w.contains("chunk 1 contains non-finite")),
                "{threads} threads: {err}"
            );
        }
    }

    /// With `validate` off the in-memory contract applies at every width:
    /// `prepare` lets the NaN through, and the encoder's own assertion
    /// fires and comes out of the call with its own message — on the
    /// caller one thread wide (checked first), and from whichever loop
    /// ran the chunk in the four-wide fan.
    #[test]
    #[should_panic(expected = "bitplane encoding requires finite data")]
    fn unvalidated_non_finite_chunk_panics_in_the_encoder() {
        let shape = [12, 12];
        let mut data = field(&shape);
        data[100] = f32::NAN;
        let ingest = |threads: usize| {
            let _ = run_ingest(
                SliceSource::new(&data, &shape).unwrap(),
                &ChunkGrid::new(&shape, &[6, 6]),
                &RefactorConfig::default(),
                &CpuBackend::with_threads(threads),
                &ExecCtx::default(),
                DEFAULT_LOOKAHEAD,
                false,
                &mut |_, _| Ok(()),
            );
        };
        let one = std::panic::catch_unwind(|| ingest(1)).unwrap_err();
        let message = one.downcast_ref::<String>().map_or("", String::as_str);
        assert!(message.contains("bitplane encoding requires finite data"));
        ingest(4);
    }

    #[test]
    fn short_chunk_from_source_is_rejected() {
        let shape = [8, 8];
        for threads in WIDTHS {
            let source = FnSource::new(&shape, |_c, region: &Region| {
                Ok(vec![0.25f32; region.len() - 1])
            });
            let grid = ChunkGrid::new(&shape, &[8, 8]);
            let err = run_ingest(
                source,
                &grid,
                &RefactorConfig::default(),
                &CpuBackend::with_threads(threads),
                &ExecCtx::default(),
                DEFAULT_LOOKAHEAD,
                true,
                &mut |_, _| Ok(()),
            )
            .unwrap_err();
            assert!(matches!(&err, MdrError::InvalidInput(w) if w.contains("expected")));
        }
    }
}
