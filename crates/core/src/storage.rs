//! The sharded on-disk store.
//!
//! HP-MDR's retrieval advantage comes from fetching only a *prefix of
//! merged units per level group*, so on disk every group's units must be
//! separately addressable. This module lays an artifact out in the zarr
//! mold: a versioned manifest plus one shard file per chunk, units
//! concatenated group-major, so a unit-prefix plan reads **one**
//! contiguous byte range per level group:
//! ```text
//! <dir>/manifest.json        # version + grid + per-chunk metadata
//! <dir>/c<C>.shard           # chunk C: g0_u0 g0_u1 … g1_u0 … (raw)
//! ```
//! A monolithic artifact is the single-chunk grid over its own shape,
//! so every store directory has this one layout.
//! [`ChunkedStoreWriter`] writes it (committing the manifest atomically
//! and removing stale shards), and [`ChunkedStoreReader`] backs every
//! query ([`crate::api::Reader`] over [`crate::roi`]'s plans) by fetching
//! exactly the planned ranges.

use crate::chunked::{ChunkGrid, ChunkedRefactored};
use crate::error::MdrError;
use crate::refactor::Refactored;
use crate::serialize::{
    check_manifest_version, check_probed_version, HeaderMeta, MANIFEST_VERSION,
};
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Open shard file handles kept per reader (leased per request, so
/// concurrent loads each get their own seek position).
const MAX_POOLED_HANDLES: usize = 16;

/// File name of chunk `c`'s shard — shared with the network tier, whose
/// range requests target the same objects a local store lays on disk.
pub(crate) fn shard_name(c: usize) -> String {
    format!("c{c}.shard")
}

fn shard_path(dir: &Path, c: usize) -> PathBuf {
    dir.join(shard_name(c))
}

/// The chunked store's versioned manifest: grid geometry plus per-chunk
/// stream metadata (payload lengths kept, bytes elided).
#[derive(Serialize, Deserialize)]
pub(crate) struct ChunkedManifest {
    /// Manifest schema version (`None` only in pre-versioning files).
    version: Option<u32>,
    shape: Vec<usize>,
    chunk_extent: Vec<usize>,
    dtype: String,
    chunks: Vec<HeaderMeta>,
}

/// Read and structurally validate the chunked manifest under `dir`:
/// version gate, geometry sanity, chunk count. Shared by the reader and
/// the append path of [`ChunkedStoreWriter`].
fn read_chunked_manifest(dir: &Path) -> Result<(ChunkedManifest, ChunkGrid), MdrError> {
    let path = dir.join("manifest.json");
    let raw = std::fs::read(&path).map_err(|e| MdrError::io(&path, e))?;
    parse_chunked_manifest(&raw)
}

/// Parse and structurally validate chunked-manifest bytes, wherever
/// they came from (a local `manifest.json` or a remote fetch): version
/// gate, geometry sanity, chunk count.
pub(crate) fn parse_chunked_manifest(raw: &[u8]) -> Result<(ChunkedManifest, ChunkGrid), MdrError> {
    let manifest: ChunkedManifest = match serde_json::from_slice(raw) {
        Ok(m) => m,
        Err(e) => {
            // A newer schema's field changes fail the strict parse;
            // surface the declared version matchably instead.
            check_probed_version(raw, "chunked store manifest")?;
            return Err(MdrError::corrupt(format!(
                "chunked manifest parse error: {e}"
            )));
        }
    };
    check_manifest_version(manifest.version.unwrap_or(1), "chunked store manifest")?;
    // Geometry is untrusted on-disk input: reject it here rather
    // than tripping ChunkGrid::new's asserts.
    let nd = manifest.shape.len();
    if nd == 0
        || nd > hpmdr_mgard::grid::MAX_DIMS
        || manifest.chunk_extent.len() != nd
        || manifest.shape.contains(&0)
        || manifest.chunk_extent.contains(&0)
    {
        return Err(MdrError::corrupt(format!(
            "chunked manifest declares invalid geometry: shape {:?}, chunk extent {:?}",
            manifest.shape, manifest.chunk_extent
        )));
    }
    let grid = ChunkGrid::new(&manifest.shape, &manifest.chunk_extent);
    if manifest.chunks.len() != grid.num_chunks() {
        return Err(MdrError::corrupt(format!(
            "chunked manifest lists {} chunks, grid has {}",
            manifest.chunks.len(),
            grid.num_chunks()
        )));
    }
    Ok((manifest, grid))
}

/// Per-unit payload byte lengths, indexed `[chunk][group][unit]`.
pub(crate) type UnitLens = Vec<Vec<Vec<usize>>>;

/// Build the payload-free skeleton plus per-unit byte lengths
/// (`unit_lens[chunk][group][unit]`) from a validated manifest — the
/// planning state every chunked reader holds, local or remote.
pub(crate) fn manifest_skeleton(
    manifest: ChunkedManifest,
    grid: ChunkGrid,
) -> Result<(ChunkedRefactored, UnitLens), MdrError> {
    let mut unit_lens = Vec::with_capacity(manifest.chunks.len());
    let mut chunks = Vec::with_capacity(manifest.chunks.len());
    for (c, hm) in manifest.chunks.into_iter().enumerate() {
        let lens: Vec<Vec<usize>> = hm
            .streams
            .iter()
            .map(|s| s.units.iter().map(|u| u.payload_len).collect())
            .collect();
        let skeleton = hm.into_refactored(|_, _, _| Ok(Vec::new()))?;
        if skeleton.shape != grid.chunk_region(c).extent {
            return Err(MdrError::corrupt(format!(
                "chunk {c} shape {:?} does not match its grid region {:?}",
                skeleton.shape,
                grid.chunk_region(c).extent
            )));
        }
        unit_lens.push(lens);
        chunks.push(skeleton);
    }
    Ok((
        ChunkedRefactored {
            grid,
            dtype: manifest.dtype,
            chunks,
        },
        unit_lens,
    ))
}

/// The one bounds check behind every [`crate::api::Store::load_units`]:
/// units `skip .. skip + take` of level group `g` of chunk `c` must lie
/// within what `meta` stores. Anything else — an unknown chunk or group,
/// a run past the stored units, a run whose end overflows — is
/// [`MdrError::InvalidQuery`]. Returns the run as a unit range.
pub(crate) fn unit_run(
    meta: &ChunkedRefactored,
    c: usize,
    g: usize,
    skip: usize,
    take: usize,
) -> Result<Range<usize>, MdrError> {
    let chunk = meta
        .chunks
        .get(c)
        .ok_or_else(|| MdrError::InvalidQuery(format!("chunk {c} out of range")))?;
    let stored = chunk
        .streams
        .get(g)
        .ok_or_else(|| {
            MdrError::InvalidQuery(format!("level group {g} out of range in chunk {c}"))
        })?
        .units
        .len();
    match skip.checked_add(take) {
        Some(end) if end <= stored => Ok(skip..end),
        _ => Err(MdrError::InvalidQuery(format!(
            "{take} units from unit {skip} of chunk {c} group {g} out of range ({stored} stored)"
        ))),
    }
}

/// The byte range `(start, nbytes)` of unit `run` of group `g` in the
/// group-major shard whose unit lengths are `chunk_lens` (one chunk's
/// `unit_lens`); `run` has passed [`unit_run`]. Shared by the local shard
/// reader and the network tier, which must agree exactly on shard
/// addressing.
pub(crate) fn unit_run_range(
    chunk_lens: &[Vec<usize>],
    g: usize,
    run: Range<usize>,
) -> (u64, usize) {
    let group_off: u64 = chunk_lens[..g]
        .iter()
        .map(|l| l.iter().sum::<usize>() as u64)
        .sum();
    let lens = &chunk_lens[g];
    let start = group_off + lens[..run.start].iter().sum::<usize>() as u64;
    (start, lens[run].iter().sum())
}

/// Slice a contiguous group-major fetch back into per-unit payloads of
/// lengths `lens`.
pub(crate) fn split_units(buf: &[u8], lens: &[usize]) -> Vec<Vec<u8>> {
    let mut out = Vec::with_capacity(lens.len());
    let mut off = 0usize;
    for &len in lens {
        out.push(buf[off..off + len].to_vec());
        off += len;
    }
    out
}

/// Incremental writer for the sharded chunk store: shards stream out
/// one chunk at a time ([`append_chunk`](Self::append_chunk)) and the
/// versioned manifest is committed **atomically** at
/// [`finish`](Self::finish) — written to `manifest.json.tmp`, then
/// renamed over `manifest.json`. An ingest that dies mid-run therefore
/// leaves either no manifest (fresh store) or the intact prior version
/// (append): stray newer shards are invisible until a manifest names
/// them, so readers never observe a torn store. A fresh ingest into a
/// directory that already holds a store starts by removing that store's
/// manifest — its shards are about to be overwritten — and ends by
/// removing the shards the new grid no longer names.
pub struct ChunkedStoreWriter {
    dir: PathBuf,
    /// Grid of the **final** domain (for an append: the grown shape).
    grid: ChunkGrid,
    dtype: String,
    /// Metadata of every chunk written so far (append: pre-existing
    /// chunks included).
    chunks: Vec<HeaderMeta>,
    /// Shard payload bytes written by *this* writer.
    bytes_written: usize,
}

impl ChunkedStoreWriter {
    /// Start a fresh store for `grid` under `dir` (created if absent).
    /// No manifest exists until [`finish`](Self::finish) commits one: a
    /// manifest already there is removed before the first shard is
    /// written, so `dir` is "no store" for as long as the ingest runs
    /// rather than an old manifest over new shards.
    pub fn create(dir: &Path, grid: ChunkGrid, dtype: &str) -> Result<Self, MdrError> {
        std::fs::create_dir_all(dir).map_err(|e| MdrError::io(dir, e))?;
        for name in ["manifest.json", "manifest.json.tmp"] {
            let path = dir.join(name);
            match std::fs::remove_file(&path) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => {
                    return Err(MdrError::io(&path, e));
                }
                _ => {}
            }
        }
        Ok(ChunkedStoreWriter {
            dir: dir.to_path_buf(),
            grid,
            dtype: dtype.to_string(),
            chunks: Vec::new(),
            bytes_written: 0,
        })
    }

    /// Open the existing store under `dir` to grow it by `slab_shape`
    /// along dimension 0 (the slowest-varying axis — the time-series
    /// direction). Existing shards and their manifest entries are kept
    /// as-is; new chunks continue the shard numbering. The stored
    /// domain keeps serving reads from the prior manifest until
    /// [`finish`](Self::finish) atomically commits the grown one.
    ///
    /// Requirements: the manifest must be current-version (else
    /// [`MdrError::VersionMismatch`]), `dtype` must match (else
    /// [`MdrError::DtypeMismatch`]), `slab_shape` must agree with the
    /// stored shape on every trailing dimension, and the stored leading
    /// dimension must be a multiple of the chunk extent (else
    /// [`MdrError::Unsupported`] — a clipped trailing chunk would have
    /// to be re-refactored, not appended after).
    pub fn append_to(dir: &Path, slab_shape: &[usize], dtype: &str) -> Result<Self, MdrError> {
        let (manifest, grid) = read_chunked_manifest(dir)?;
        if manifest.dtype != dtype {
            return Err(MdrError::DtypeMismatch {
                stored: manifest.dtype,
                requested: dtype.to_string(),
            });
        }
        let nd = grid.shape.len();
        if slab_shape.len() != nd || slab_shape.contains(&0) || slab_shape[1..] != grid.shape[1..] {
            return Err(MdrError::InvalidInput(format!(
                "append slab shape {slab_shape:?} does not extend stored shape {:?} \
                 along dimension 0",
                grid.shape
            )));
        }
        if grid.shape[0] % grid.chunk_extent[0] != 0 {
            return Err(MdrError::Unsupported(format!(
                "cannot append: stored leading dimension {} is not a multiple of the \
                 chunk extent {} (the clipped trailing chunk would need re-refactoring)",
                grid.shape[0], grid.chunk_extent[0]
            )));
        }
        let mut final_shape = grid.shape.clone();
        final_shape[0] += slab_shape[0];
        let final_grid = ChunkGrid::new(&final_shape, &grid.chunk_extent);
        Ok(ChunkedStoreWriter {
            dir: dir.to_path_buf(),
            grid: final_grid,
            dtype: manifest.dtype,
            chunks: manifest.chunks,
            bytes_written: 0,
        })
    }

    /// Grid of the final (post-[`finish`](Self::finish)) domain.
    pub fn grid(&self) -> &ChunkGrid {
        &self.grid
    }

    /// Index of the next chunk this writer expects (equals the number
    /// of chunks already recorded, pre-existing ones included).
    pub fn next_chunk(&self) -> usize {
        self.chunks.len()
    }

    /// Shard payload bytes written by this writer so far.
    pub fn bytes_written(&self) -> usize {
        self.bytes_written
    }

    /// Write chunk `next_chunk()`'s shard and record its metadata.
    /// Returns the payload bytes written. The chunk's shape must match
    /// its grid region, and all of the grid's chunks must eventually be
    /// supplied in index order.
    pub fn append_chunk(&mut self, r: &Refactored) -> Result<usize, MdrError> {
        let c = self.chunks.len();
        if c >= self.grid.num_chunks() {
            return Err(MdrError::InvalidInput(format!(
                "store already holds all {} chunks",
                self.grid.num_chunks()
            )));
        }
        if r.shape != self.grid.chunk_region(c).extent {
            return Err(MdrError::InvalidInput(format!(
                "chunk {c} shape {:?} does not match its grid region {:?}",
                r.shape,
                self.grid.chunk_region(c).extent
            )));
        }
        if r.dtype != self.dtype {
            return Err(MdrError::DtypeMismatch {
                stored: self.dtype.clone(),
                requested: r.dtype.clone(),
            });
        }
        let path = shard_path(&self.dir, c);
        let file = std::fs::File::create(&path).map_err(|e| MdrError::io(&path, e))?;
        let mut w = std::io::BufWriter::new(file);
        let mut nbytes = 0usize;
        for s in &r.streams {
            for u in &s.units {
                w.write_all(&u.payload)
                    .map_err(|e| MdrError::io(&path, e))?;
                nbytes += u.payload.len();
            }
        }
        w.into_inner()
            .map_err(|e| MdrError::io(&path, e.into_error()))?;
        self.chunks.push(HeaderMeta::of(r));
        self.bytes_written += nbytes;
        Ok(nbytes)
    }

    /// Commit the manifest atomically: serialize to `manifest.json.tmp`,
    /// flush, and rename over `manifest.json`. Errors without renaming
    /// if any grid chunk is still missing — an incomplete ingest never
    /// replaces a readable manifest. Shard files numbered past the grid
    /// (a previous, larger store's) are removed before the rename.
    pub fn finish(self) -> Result<(), MdrError> {
        let num_chunks = self.grid.num_chunks();
        if self.chunks.len() != num_chunks {
            return Err(MdrError::InvalidInput(format!(
                "ingest incomplete: {} of {num_chunks} chunks written; manifest not committed",
                self.chunks.len(),
            )));
        }
        let manifest = ChunkedManifest {
            version: Some(MANIFEST_VERSION),
            shape: self.grid.shape.clone(),
            chunk_extent: self.grid.chunk_extent.clone(),
            dtype: self.dtype.clone(),
            chunks: self.chunks,
        };
        let json = serde_json::to_vec(&manifest)
            .map_err(|e| MdrError::corrupt(format!("manifest serialization failed: {e}")))?;
        let tmp = self.dir.join("manifest.json.tmp");
        {
            let mut f = std::fs::File::create(&tmp).map_err(|e| MdrError::io(&tmp, e))?;
            f.write_all(&json).map_err(|e| MdrError::io(&tmp, e))?;
            // Durability is best-effort; atomicity comes from the rename.
            let _ = f.sync_all();
        }
        let entries = std::fs::read_dir(&self.dir).map_err(|e| MdrError::io(&self.dir, e))?;
        for entry in entries {
            let name = entry.map_err(|e| MdrError::io(&self.dir, e))?.file_name();
            let stale = name
                .to_str()
                .and_then(|n| n.strip_prefix('c')?.strip_suffix(".shard")?.parse().ok())
                .is_some_and(|k: usize| k >= num_chunks && *name == *shard_name(k));
            if stale {
                let path = self.dir.join(&name);
                std::fs::remove_file(&path).map_err(|e| MdrError::io(&path, e))?;
            }
        }
        let dst = self.dir.join("manifest.json");
        std::fs::rename(&tmp, &dst).map_err(|e| MdrError::io(&dst, e))?;
        Ok(())
    }
}

/// Write `cr` as a sharded chunk store under `dir` (created if absent):
/// one shard file per chunk with its unit payloads concatenated
/// group-major, plus a versioned `manifest.json` committed atomically
/// via [`ChunkedStoreWriter`]. Returns the number of shard files
/// written. Payloads stream straight from `cr` — nothing is cloned.
///
/// Errors keep their type: a failed shard write is [`MdrError::Io`]
/// naming that shard, not the store directory.
pub fn write_chunked_store(cr: &ChunkedRefactored, dir: &Path) -> Result<usize, MdrError> {
    write_chunks(dir, cr.grid.clone(), &cr.dtype, &cr.chunks)
}

/// Write `chunks` (every chunk of `grid`, in index order) as a store
/// under `dir` — [`write_chunked_store`] without the container, so a
/// monolithic artifact is written as the single-chunk grid over its
/// own shape without being moved or cloned into one.
pub(crate) fn write_chunks(
    dir: &Path,
    grid: ChunkGrid,
    dtype: &str,
    chunks: &[Refactored],
) -> Result<usize, MdrError> {
    let mut w = ChunkedStoreWriter::create(dir, grid, dtype)?;
    for chunk in chunks {
        w.append_chunk(chunk)?;
    }
    w.finish()?;
    Ok(chunks.len())
}

/// Reader over a sharded chunk store: plans against the metadata
/// skeleton and fetches exactly the byte ranges a plan needs (one
/// contiguous range per level group per chunk).
///
/// All methods take `&self`: accounting is atomic and every fetch
/// leases an open shard handle from an internal pool (or opens a fresh
/// one), so a single reader serves concurrent loads without contending
/// on a shared seek position.
#[derive(Debug)]
pub struct ChunkedStoreReader {
    dir: PathBuf,
    skeleton: ChunkedRefactored,
    /// Payload byte length of `unit_lens[chunk][group][unit]`.
    unit_lens: Vec<Vec<Vec<usize>>>,
    /// Payload bytes read so far.
    bytes_read: AtomicUsize,
    /// Byte ranges requested so far (the store's I/O-op count).
    ranges_read: AtomicUsize,
    /// Pool of open shard handles, keyed by chunk index.
    handles: Mutex<Vec<(usize, File)>>,
}

impl ChunkedStoreReader {
    /// Open the store at `dir`, validating the manifest and its version.
    ///
    /// Damage is [`MdrError::Corrupt`]; a manifest from a future writer
    /// is [`MdrError::VersionMismatch`].
    pub fn open(dir: &Path) -> Result<Self, MdrError> {
        let (manifest, grid) = read_chunked_manifest(dir)?;
        let (skeleton, unit_lens) = manifest_skeleton(manifest, grid)?;
        Ok(ChunkedStoreReader {
            dir: dir.to_path_buf(),
            skeleton,
            unit_lens,
            bytes_read: AtomicUsize::new(0),
            ranges_read: AtomicUsize::new(0),
            handles: Mutex::new(Vec::new()),
        })
    }

    /// Lease an open handle for chunk `c` from the pool, or open one.
    fn lease_handle(&self, c: usize) -> Result<File, MdrError> {
        let pooled = {
            let mut pool = self.handles.lock().unwrap_or_else(|p| p.into_inner());
            pool.iter()
                .position(|&(chunk, _)| chunk == c)
                .map(|i| pool.swap_remove(i).1)
        };
        match pooled {
            Some(file) => Ok(file),
            None => {
                let path = shard_path(&self.dir, c);
                File::open(&path).map_err(|e| MdrError::io(&path, e))
            }
        }
    }

    /// Return a leased handle to the pool, evicting the oldest pooled
    /// handle when full — hot chunks keep cycling through the pool
    /// instead of later handles being dropped forever.
    fn return_handle(&self, c: usize, file: File) {
        let mut pool = self.handles.lock().unwrap_or_else(|p| p.into_inner());
        if pool.len() >= MAX_POOLED_HANDLES {
            pool.remove(0);
        }
        pool.push((c, file));
    }

    /// Archive metadata (all unit payloads empty). Planning works
    /// directly on this.
    pub fn skeleton(&self) -> &ChunkedRefactored {
        &self.skeleton
    }

    /// Payload bytes fetched from storage so far.
    pub fn bytes_read(&self) -> usize {
        // ORDERING: monotone statistics read; no ordering with other data.
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Byte ranges requested so far.
    pub fn ranges_read(&self) -> usize {
        // ORDERING: monotone statistics read; no ordering with other data.
        self.ranges_read.load(Ordering::Relaxed)
    }

    /// Fetch the payloads of units `skip .. skip + take` of level group
    /// `g` of chunk `c` — the [`crate::api::Store::load_units`] fetch
    /// primitive. Units are contiguous within their group on disk, so
    /// any unit run is **one** range read, whether it starts the group
    /// or extends an already-fetched prefix (what
    /// [`crate::api::CachedStore`] relies on to never re-fetch a byte).
    ///
    /// A shard shorter than its manifest promises is
    /// [`MdrError::Corrupt`] (the archive is damaged); any other read
    /// failure is [`MdrError::Io`].
    pub fn load_units(
        &self,
        c: usize,
        g: usize,
        skip: usize,
        take: usize,
    ) -> Result<Vec<Vec<u8>>, MdrError> {
        let run = unit_run(&self.skeleton, c, g, skip, take)?;
        let (start, nbytes) = unit_run_range(&self.unit_lens[c], g, run.clone());
        if nbytes == 0 {
            // Nothing on disk for this run (empty payloads): no I/O.
            return Ok(vec![Vec::new(); take]);
        }
        let mut buf = vec![0u8; nbytes];
        let mut file = self.lease_handle(c)?;
        let path = shard_path(&self.dir, c);
        file.seek(SeekFrom::Start(start))
            .and_then(|_| file.read_exact(&mut buf))
            .map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    MdrError::corrupt(format!(
                        "shard c{c} truncated: group {g} range ends past the file"
                    ))
                } else {
                    MdrError::io(&path, e)
                }
            })?;
        self.return_handle(c, file);
        // ORDERING: statistics counter, guards nothing.
        self.bytes_read.fetch_add(nbytes, Ordering::Relaxed);
        // ORDERING: as above.
        self.ranges_read.fetch_add(1, Ordering::Relaxed);
        Ok(split_units(&buf, &self.unit_lens[c][g][run]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{InMemoryStore, Query, Reader, Store, Target};
    use crate::chunked::{extract_region, refactor_chunked, ChunkedConfig};
    use crate::retrieve::RetrievalPlan;
    use crate::roi::{Region, RoiRequest};

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hpmdr_store_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn chunked_sample() -> (Vec<f32>, ChunkedRefactored) {
        let data: Vec<f32> = (0..24 * 18)
            .map(|i| ((i % 24) as f32 * 0.31).sin() * 2.0 + ((i / 24) as f32 * 0.23).cos())
            .collect();
        let cr = refactor_chunked(&data, &[24, 18], &ChunkedConfig::with_extent(&[7, 8]));
        (data, cr)
    }

    #[test]
    fn chunked_write_open_roundtrip_skeleton() {
        let (_, cr) = chunked_sample();
        let dir = scratch("chunked_meta");
        let shards = write_chunked_store(&cr, &dir).unwrap();
        assert_eq!(shards, cr.grid.num_chunks());
        let reader = ChunkedStoreReader::open(&dir).unwrap();
        assert_eq!(reader.skeleton(), &cr.skeleton());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunked_full_chunk_load_matches_original() {
        let (_, cr) = chunked_sample();
        let dir = scratch("chunked_full");
        write_chunked_store(&cr, &dir).unwrap();
        let reader = ChunkedStoreReader::open(&dir).unwrap();
        for c in 0..cr.grid.num_chunks() {
            let loaded = reader
                .load_chunk(c, &RetrievalPlan::full(&cr.chunks[c]))
                .unwrap();
            assert_eq!(loaded, cr.chunks[c], "chunk {c}");
        }
        assert_eq!(reader.bytes_read(), cr.total_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunked_roi_fetches_only_planned_bytes_and_matches_memory() {
        let (data, cr) = chunked_sample();
        let dir = scratch("chunked_roi");
        write_chunked_store(&cr, &dir).unwrap();
        let reader = ChunkedStoreReader::open(&dir).unwrap();

        let eb = 1e-2 * cr.value_range();
        let req = RoiRequest::new(Region::new(&[3, 2], &[10, 9]), eb);
        let q = Query::region(Target::AbsError(eb), req.region.clone());
        let from_store = Reader::new(&reader).retrieve::<f32>(&q).unwrap();
        let in_memory = Reader::new(&InMemoryStore::from(cr.clone()))
            .retrieve::<f32>(&q)
            .unwrap();
        assert_eq!(from_store, in_memory);

        // Exactly the planned bytes were fetched, and strictly fewer
        // than the whole archive.
        let plan = crate::roi::RoiPlan::for_request(reader.skeleton(), &req).unwrap();
        assert_eq!(reader.bytes_read(), plan.fetch_bytes(&cr));
        assert!(reader.bytes_read() < cr.total_bytes());

        // And the reconstruction honors the bound against the original.
        let reference = extract_region(&data, &[24, 18], &req.region);
        let allowed = from_store.achieved.max(eb);
        for (a, b) in reference.iter().zip(&from_store.data) {
            assert!(((a - b).abs() as f64) <= allowed);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunked_dtype_mismatch_rejected_before_any_io() {
        let (_, cr) = chunked_sample();
        let dir = scratch("chunked_dtype");
        write_chunked_store(&cr, &dir).unwrap();
        let reader = ChunkedStoreReader::open(&dir).unwrap();
        let q = Query::region(Target::AbsError(1e-2), Region::new(&[0, 0], &[4, 4]));
        let err = Reader::new(&reader).retrieve::<f64>(&q).unwrap_err();
        assert!(matches!(err, MdrError::DtypeMismatch { .. }), "{err}");
        assert_eq!(reader.bytes_read(), 0, "no shard bytes may be fetched");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunked_missing_shard_is_reported() {
        let (_, cr) = chunked_sample();
        let dir = scratch("chunked_missing");
        write_chunked_store(&cr, &dir).unwrap();
        std::fs::remove_file(dir.join("c0.shard")).unwrap();
        let reader = ChunkedStoreReader::open(&dir).unwrap();
        let err = reader
            .load_chunk(0, &RetrievalPlan::full(&cr.chunks[0]))
            .unwrap_err();
        assert!(
            matches!(&err, MdrError::Io { path, .. } if path.ends_with("c0.shard")),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunked_newer_manifest_version_rejected_readably() {
        let (_, cr) = chunked_sample();
        let dir = scratch("chunked_version");
        write_chunked_store(&cr, &dir).unwrap();
        let raw = std::fs::read(dir.join("manifest.json")).unwrap();
        let mut v: serde_json::Value = serde_json::from_slice(&raw).unwrap();
        let serde_json::Value::Object(pairs) = &mut v else {
            panic!("manifest is an object");
        };
        pairs.retain(|(k, _)| k != "version");
        pairs.insert(
            0,
            (
                "version".to_string(),
                serde_json::Value::UInt(u64::from(crate::serialize::MANIFEST_VERSION) + 1),
            ),
        );
        std::fs::write(dir.join("manifest.json"), serde_json::to_vec(&v).unwrap()).unwrap();
        let err = ChunkedStoreReader::open(&dir).unwrap_err();
        assert!(
            matches!(
                err,
                MdrError::VersionMismatch { found, supported }
                    if found == crate::serialize::MANIFEST_VERSION + 1
                        && supported == crate::serialize::MANIFEST_VERSION
            ),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunked_invalid_geometry_is_rejected_not_panicking() {
        let (_, cr) = chunked_sample();
        let dir = scratch("chunked_geom");
        write_chunked_store(&cr, &dir).unwrap();
        let raw = std::fs::read(dir.join("manifest.json")).unwrap();
        let mut v: serde_json::Value = serde_json::from_slice(&raw).unwrap();
        let serde_json::Value::Object(pairs) = &mut v else {
            panic!("manifest is an object");
        };
        for (k, val) in pairs.iter_mut() {
            if k == "chunk_extent" {
                *val = serde_json::Value::Array(vec![
                    serde_json::Value::UInt(0),
                    serde_json::Value::UInt(8),
                ]);
            }
        }
        std::fs::write(dir.join("manifest.json"), serde_json::to_vec(&v).unwrap()).unwrap();
        let err = ChunkedStoreReader::open(&dir).unwrap_err();
        assert!(
            matches!(&err, MdrError::Corrupt(w) if w.contains("invalid geometry")),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunked_corrupt_manifest_is_reported() {
        let dir = scratch("chunked_corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("manifest.json"), b"not json").unwrap();
        let err = ChunkedStoreReader::open(&dir).unwrap_err();
        assert!(
            matches!(&err, MdrError::Corrupt(w) if w.contains("parse error")),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
