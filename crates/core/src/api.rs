//! The unified façade API — the crate's recommended surface.
//!
//! The lower modules grew one entry point per capability
//! (`refactor`/`refactor_with`, `refactor_chunked`, three reader types,
//! per-mode retrieval functions). This module puts **one** coherent
//! surface in front of them, in the HPDR mold of a single portable API
//! over many execution targets and storage layouts:
//!
//! * [`MdrConfig`] → [`Mdr`] — one builder covering monolithic *and*
//!   chunked refactoring on any [`Backend`], no `_with` duplication, and
//!   the two streaming writes [`Mdr::ingest`] / [`Mdr::append`];
//! * [`Artifact`] — the refactoring product, whichever path produced it;
//!   [`Artifact::write_store`] lays either decomposition out as one
//!   sharded store;
//! * [`Store`] — an object-safe trait over *where artifacts live*:
//!   in memory ([`InMemoryStore`]), a sharded store directory
//!   ([`ChunkedStoreReader`]), behind a cache ([`CachedStore`]), or over
//!   HTTP ([`RemoteStore`](crate::remote::RemoteStore)); [`open_store`]
//!   tells them apart;
//! * [`Query`] = [`Target`] × [`Scope`] — one query model for absolute /
//!   relative / RMSE / QoI / lossless targets over the full domain, a
//!   region, or a coarser resolution;
//! * [`Reader`] — serves any [`Query`] from any [`Store`], returning an
//!   [`Approximation`] with the data, its shape, the **exact** achieved
//!   bound, and byte accounting — or a matchable [`MdrError`].
//!
//! Everything here delegates to the specialized modules; using the
//! façade costs planning and metadata bookkeeping, never an extra pass
//! over payload bytes.

use crate::chunked::{refactor_chunked_with, ChunkGrid, ChunkedConfig, ChunkedRefactored};
use crate::error::MdrError;
use crate::ingest::{run_ingest, ChunkSource, IngestReport, DEFAULT_LOOKAHEAD};
use crate::qoi_retrieval::{multi_qoi_control, EbEstimator};
use crate::refactor::{refactor_with, scan_samples, RefactorConfig, Refactored};
use crate::retrieve::{RetrievalPlan, RetrievalSession};
use crate::roi::{assemble_region, Region, RoiPlan};
use crate::storage::{unit_run, write_chunks, ChunkedStoreReader, ChunkedStoreWriter};
use hpmdr_bitplane::{BitplaneFloat, Layout};
use hpmdr_exec::{Backend, CpuBackend, ExecCtx};
use hpmdr_lossless::HybridConfig;
use hpmdr_mgard::Real;
use hpmdr_qoi::QoiExpr;
use std::collections::HashMap;
use std::ops::Deref;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------
// Configuration and refactoring
// ---------------------------------------------------------------------

/// Builder for an [`Mdr`] handle: one place to configure the refactoring
/// parameters ([`RefactorConfig`]), the domain decomposition (monolithic
/// or chunked), and the execution backend.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MdrConfig {
    refactor: RefactorConfig,
    chunk_extent: Option<Vec<usize>>,
}

impl MdrConfig {
    /// Start from the defaults (monolithic, [`RefactorConfig::default`],
    /// host-wide [`CpuBackend`] on [`Self::build`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Magnitude bitplanes per level group.
    #[must_use]
    pub fn num_planes(mut self, n: usize) -> Self {
        self.refactor.num_planes = n;
        self
    }

    /// Bitplane stream layout.
    #[must_use]
    pub fn layout(mut self, layout: Layout) -> Self {
        self.refactor.layout = layout;
        self
    }

    /// Apply MGARD's L2 correction during decomposition.
    #[must_use]
    pub fn correction(mut self, on: bool) -> Self {
        self.refactor.correction = on;
        self
    }

    /// Cap on decomposition levels.
    #[must_use]
    pub fn max_levels(mut self, levels: usize) -> Self {
        self.refactor.max_levels = Some(levels);
        self
    }

    /// Hybrid lossless configuration (group size `m`, `T_s`, `T_cr`).
    #[must_use]
    pub fn hybrid(mut self, hybrid: HybridConfig) -> Self {
        self.refactor.hybrid = hybrid;
        self
    }

    /// Decompose the domain into `chunk_extent`-sized chunks refactored
    /// independently (region queries then fetch only the chunks they
    /// touch). Boundary chunks are clipped, so the extent need not
    /// divide the domain.
    #[must_use]
    pub fn chunked(mut self, chunk_extent: &[usize]) -> Self {
        self.chunk_extent = Some(chunk_extent.to_vec());
        self
    }

    /// Refactor the whole domain as one artifact (the default).
    #[must_use]
    pub fn monolithic(mut self) -> Self {
        self.chunk_extent = None;
        self
    }

    /// Build an [`Mdr`] on a [`CpuBackend`] as wide as the host: its
    /// fans take the cores the process-wide budget leaves free, so it
    /// uses the machine without oversubscribing it.
    pub fn build(self) -> Mdr<CpuBackend> {
        self.build_with(CpuBackend::new())
    }

    /// Build an [`Mdr`] on any [`Backend`] — for example
    /// `CpuBackend::with_threads(n)` for a fixed width. Artifacts are
    /// bit-identical across backends; only wall-clock differs.
    pub fn build_with<B: Backend>(self, backend: B) -> Mdr<B> {
        Mdr {
            config: self,
            backend,
            ctx: ExecCtx::default(),
        }
    }
}

/// The refactoring façade: holds a configuration, a backend, and an
/// execution context, and turns arrays into [`Artifact`]s.
///
/// ```
/// use hpmdr_core::prelude::*;
///
/// let data: Vec<f32> = (0..32 * 32).map(|i| (i as f32 * 0.01).sin()).collect();
/// let mdr = MdrConfig::new().num_planes(32).build();
/// let artifact = mdr.refactor(&data, &[32, 32]).unwrap();
///
/// let mut store = InMemoryStore::from(artifact);
/// let approx = Reader::new(&mut store)
///     .retrieve::<f32>(&Query::full(Target::AbsError(1e-3)))
///     .unwrap();
/// assert_eq!(approx.shape, vec![32, 32]);
/// assert!(approx.exhausted || approx.achieved <= 1e-3);
/// ```
#[derive(Debug)]
pub struct Mdr<B: Backend = CpuBackend> {
    config: MdrConfig,
    backend: B,
    ctx: ExecCtx,
}

impl Mdr<CpuBackend> {
    /// An [`Mdr`] with every default ([`MdrConfig::new`] on the host-wide
    /// [`CpuBackend`]).
    pub fn with_defaults() -> Self {
        MdrConfig::new().build()
    }
}

/// Ingest sink delivering refactored chunks to `writer` in chunk order.
fn writer_sink(
    writer: &mut ChunkedStoreWriter,
) -> impl FnMut(usize, Refactored) -> Result<(), MdrError> + Send + '_ {
    move |_, r| writer.append_chunk(&r).map(|_| ())
}

/// Fold `writer`'s byte accounting into `report` and commit its
/// manifest atomically.
fn finish_writer(
    writer: ChunkedStoreWriter,
    mut report: IngestReport,
) -> Result<IngestReport, MdrError> {
    report.bytes_written = writer.bytes_written();
    writer.finish()?;
    Ok(report)
}

impl<B: Backend> Mdr<B> {
    /// The configuration this handle was built with.
    pub fn config(&self) -> &MdrConfig {
        &self.config
    }

    /// The backend executing this handle's kernels.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Refactor one variable of `shape`, monolithically or chunked
    /// according to the configuration. Unlike the lower-level entry
    /// points this validates its input and returns
    /// [`MdrError::InvalidInput`] instead of panicking.
    pub fn refactor<F: BitplaneFloat + Real + Default>(
        &self,
        data: &[F],
        shape: &[usize],
    ) -> Result<Artifact, MdrError> {
        let nd = shape.len();
        if nd == 0 || nd > hpmdr_mgard::grid::MAX_DIMS {
            return Err(MdrError::InvalidInput(format!(
                "{nd}-dimensional data unsupported (1-{} dimensions)",
                hpmdr_mgard::grid::MAX_DIMS
            )));
        }
        if shape.contains(&0) {
            return Err(MdrError::InvalidInput(format!(
                "shape {shape:?} has a zero-sized dimension"
            )));
        }
        let n: usize = shape.iter().product();
        if data.len() != n {
            return Err(MdrError::InvalidInput(format!(
                "data length {} does not match shape {shape:?} ({n} elements)",
                data.len()
            )));
        }
        if !scan_samples(data).all_finite {
            // Only a failed fast scan pays for the one that names the index.
            if let Some(i) = data.iter().position(|v| !Real::to_f64(*v).is_finite()) {
                return Err(MdrError::InvalidInput(format!(
                    "non-finite value at index {i}"
                )));
            }
        }
        match &self.config.chunk_extent {
            Some(extent) => {
                if extent.len() != nd || extent.contains(&0) {
                    return Err(MdrError::InvalidInput(format!(
                        "chunk extent {extent:?} incompatible with shape {shape:?}"
                    )));
                }
                let cfg = ChunkedConfig {
                    chunk_extent: extent.clone(),
                    refactor: self.config.refactor.clone(),
                };
                Ok(Artifact::Chunked(refactor_chunked_with(
                    data,
                    shape,
                    &cfg,
                    &self.backend,
                    &self.ctx,
                )))
            }
            None => Ok(Artifact::Monolithic(refactor_with(
                data,
                shape,
                &self.config.refactor,
                &self.backend,
                &self.ctx,
            ))),
        }
    }

    /// Stream `source` chunk-by-chunk into a new sharded store at
    /// `dir`: each of the backend's worker loops reads the next chunk,
    /// refactors it whole, and flushes the shards in chunk order. Peak
    /// staged payload is bounded by [`DEFAULT_LOOKAHEAD`] `×` the largest
    /// chunk footprint — never the dataset — and the measured high-water
    /// mark comes back in the [`IngestReport`].
    ///
    /// The store is **bit-identical** to writing
    /// [`Self::refactor`]'s chunked artifact with
    /// [`Artifact::write_store`]: both paths run the same per-chunk
    /// fan. The manifest is committed atomically at the end; a crashed
    /// ingest leaves no manifest (and [`open_store`] fails cleanly)
    /// rather than a torn store.
    ///
    /// Requires a chunked configuration ([`MdrConfig::chunked`]);
    /// non-finite samples from the source are [`MdrError::InvalidInput`],
    /// not a panic.
    pub fn ingest<F, S>(&self, source: S, dir: &Path) -> Result<IngestReport, MdrError>
    where
        F: BitplaneFloat + Real + Default,
        S: ChunkSource<F>,
    {
        let Some(extent) = &self.config.chunk_extent else {
            return Err(MdrError::InvalidInput(
                "streaming ingest requires a chunked configuration (MdrConfig::chunked)"
                    .to_string(),
            ));
        };
        let shape = source.shape().to_vec();
        let nd = shape.len();
        if nd == 0 || nd > hpmdr_mgard::grid::MAX_DIMS || shape.contains(&0) {
            return Err(MdrError::InvalidInput(format!(
                "source shape {shape:?} unsupported (1-{} non-empty dimensions)",
                hpmdr_mgard::grid::MAX_DIMS
            )));
        }
        if extent.len() != nd || extent.contains(&0) {
            return Err(MdrError::InvalidInput(format!(
                "chunk extent {extent:?} incompatible with source shape {shape:?}"
            )));
        }
        let grid = ChunkGrid::new(&shape, extent);
        let mut writer = ChunkedStoreWriter::create(dir, grid.clone(), F::TYPE_NAME)?;
        let mut report = self.run_pipeline(source, &grid, writer_sink(&mut writer))?;
        report.shape = shape;
        finish_writer(writer, report)
    }

    /// Append `source` to the existing sharded store at `dir`, growing
    /// the domain along dimension 0 (the slowest-varying axis — the
    /// time-series direction). New chunks stream through the same
    /// bounded pipeline as [`Self::ingest`]; existing shards are
    /// untouched, and the grown manifest replaces the old one
    /// atomically only after every new shard is flushed — an
    /// interrupted append leaves the prior store fully readable.
    ///
    /// The source's shape must match the stored shape on every trailing
    /// dimension, the stored leading dimension must be a multiple of
    /// the chunk extent, and this handle must use the same refactoring
    /// configuration the store was written with (so the grown store is
    /// bit-identical to a one-shot refactor of the concatenated
    /// domain). A manifest from a newer writer is
    /// [`MdrError::VersionMismatch`].
    pub fn append<F, S>(&self, dir: &Path, source: S) -> Result<IngestReport, MdrError>
    where
        F: BitplaneFloat + Real + Default,
        S: ChunkSource<F>,
    {
        let slab_shape = source.shape().to_vec();
        let mut writer = ChunkedStoreWriter::append_to(dir, &slab_shape, F::TYPE_NAME)?;
        let extent = writer.grid().chunk_extent.clone();
        if let Some(cfg_extent) = &self.config.chunk_extent {
            if *cfg_extent != extent {
                return Err(MdrError::InvalidInput(format!(
                    "configured chunk extent {cfg_extent:?} differs from the store's {extent:?}"
                )));
            }
        }
        let final_shape = writer.grid().shape.clone();
        let slab_grid = ChunkGrid::new(&slab_shape, &extent);
        let mut report = self.run_pipeline(source, &slab_grid, writer_sink(&mut writer))?;
        report.shape = final_shape;
        finish_writer(writer, report)
    }

    /// Shared tail of [`Self::ingest`] / [`Self::append`]: run the
    /// ingest schedule over `grid` and assemble the metrics side of
    /// the report (`shape` is filled in by the caller).
    fn run_pipeline<F, S>(
        &self,
        source: S,
        grid: &ChunkGrid,
        mut sink: impl FnMut(usize, Refactored) -> Result<(), MdrError> + Send,
    ) -> Result<IngestReport, MdrError>
    where
        F: BitplaneFloat + Real + Default,
        S: ChunkSource<F>,
    {
        let metrics = run_ingest(
            source,
            grid,
            &self.config.refactor,
            &self.backend,
            &self.ctx,
            DEFAULT_LOOKAHEAD,
            true,
            &mut sink,
        )?;
        Ok(IngestReport {
            shape: grid.shape.clone(),
            chunks_written: metrics.chunks,
            bytes_written: 0,
            peak_staged_bytes: metrics.peak_staged_bytes,
            max_chunk_footprint_bytes: metrics.max_chunk_footprint_bytes,
            lookahead: DEFAULT_LOOKAHEAD,
        })
    }

    /// A [`Reader`] over `store` (borrowed or shared — see [`StoreRef`])
    /// sharing this handle's backend, with a fresh execution context.
    pub fn reader<'s>(&self, store: impl Into<StoreRef<'s>>) -> Reader<'s, B> {
        Reader {
            store: store.into(),
            backend: self.backend.clone(),
            ctx: Arc::new(ExecCtx::default()),
        }
    }

    /// Open the store at `path` behind a [`CachedStore`] (at the
    /// [`DEFAULT_CACHE_BUDGET`]) and return a clonable [`SharedReader`]
    /// on this handle's backend — the one-call setup for serving many
    /// concurrent clients from one archive.
    ///
    /// `path` may also carry an `http://` URL (see [`open_store`]):
    /// the result is then the two-tier memory ← network hierarchy,
    /// where a repeated query is a pure cache hit (zero requests) and
    /// a refinement extends each cached prefix with one range request.
    pub fn open_shared(&self, path: &Path) -> Result<SharedReader<B>, MdrError> {
        let store = CachedStore::with_default_budget(open_store(path)?);
        Ok(self.reader(Arc::new(store)))
    }
}

/// A refactored variable, whichever decomposition produced it. The
/// uniform product of [`Mdr::refactor`] and input to [`InMemoryStore`] /
/// [`Artifact::write_store`].
#[derive(Debug, Clone, PartialEq)]
pub enum Artifact {
    /// The whole domain refactored at once.
    Monolithic(Refactored),
    /// A chunk grid of independently refactored boxes.
    Chunked(ChunkedRefactored),
}

impl Artifact {
    /// Grid shape of the variable.
    pub fn shape(&self) -> &[usize] {
        match self {
            Artifact::Monolithic(r) => &r.shape,
            Artifact::Chunked(cr) => &cr.grid.shape,
        }
    }

    /// Element type name (`"f32"` / `"f64"`).
    pub fn dtype(&self) -> &str {
        match self {
            Artifact::Monolithic(r) => &r.dtype,
            Artifact::Chunked(cr) => &cr.dtype,
        }
    }

    /// Total element count.
    pub fn num_elements(&self) -> usize {
        match self {
            Artifact::Monolithic(r) => r.num_elements(),
            Artifact::Chunked(cr) => cr.num_elements(),
        }
    }

    /// Total compressed bytes.
    pub fn total_bytes(&self) -> usize {
        match self {
            Artifact::Monolithic(r) => r.total_bytes(),
            Artifact::Chunked(cr) => cr.total_bytes(),
        }
    }

    /// Value range relative error targets are scaled against
    /// (the largest per-chunk range for chunked artifacts).
    pub fn value_range(&self) -> f64 {
        match self {
            Artifact::Monolithic(r) => r.value_range,
            Artifact::Chunked(cr) => cr.value_range(),
        }
    }

    /// The monolithic artifact, if this is one.
    pub fn as_monolithic(&self) -> Option<&Refactored> {
        match self {
            Artifact::Monolithic(r) => Some(r),
            Artifact::Chunked(_) => None,
        }
    }

    /// The chunked artifact, if this is one.
    pub fn as_chunked(&self) -> Option<&ChunkedRefactored> {
        match self {
            Artifact::Monolithic(_) => None,
            Artifact::Chunked(cr) => Some(cr),
        }
    }

    /// Persist as a sharded store under `dir` (created if absent), which
    /// [`open_store`] reads back. A monolithic artifact is written as the
    /// single-chunk grid over its own shape — byte-identical to
    /// [`crate::storage::write_chunked_store`] of
    /// [`ChunkedRefactored::single`] — so a plan reads one range per
    /// level group either way. Returns the number of shard files written.
    ///
    /// The manifest is committed atomically and shards a previous store
    /// in `dir` left past the new grid are removed. A failed write is
    /// [`MdrError::Io`] naming the file that failed.
    pub fn write_store(&self, dir: &Path) -> Result<usize, MdrError> {
        match self {
            Artifact::Monolithic(r) => write_chunks(
                dir,
                ChunkGrid::new(&r.shape, &r.shape),
                &r.dtype,
                std::slice::from_ref(r),
            ),
            Artifact::Chunked(cr) => crate::storage::write_chunked_store(cr, dir),
        }
    }
}

// ---------------------------------------------------------------------
// The Store abstraction
// ---------------------------------------------------------------------

/// Object-safe abstraction over *where a refactored artifact lives*.
///
/// Every store presents the same face: a metadata skeleton (a chunk grid
/// of payload-free [`Refactored`]s — a monolithic artifact is a
/// single-chunk grid), a unit-run fetch primitive, and byte/request
/// accounting. [`Reader`] is written against `dyn Store`, so the same
/// [`Query`] is served identically from memory, a sharded store
/// directory, a cache, or a remote server — proven by
/// `tests/tests/store_conformance.rs`.
///
/// Stores are **shareable**: every method takes `&self` (accounting is
/// interior-mutable) and implementations are `Send + Sync`, so one store
/// can serve many concurrent queries — from clones of one [`Reader`],
/// and from the chunks of one query fanned out by
/// [`Backend::map_batch`].
pub trait Store: Send + Sync {
    /// Short human-readable flavor: `"memory"`, `"sharded"` (every
    /// store directory), `"cached"` or `"remote"`.
    fn flavor(&self) -> &'static str;

    /// The metadata skeleton: chunk grid plus per-chunk payload-free
    /// artifacts. Planning runs entirely on this — no payload I/O.
    fn meta(&self) -> &ChunkedRefactored;

    /// Fetch the compressed payloads of units `skip .. skip + take` of
    /// level group `group` of chunk `chunk` — the store's one fetch
    /// primitive; [`Store::load_chunk`] is assembled from it. The run
    /// must lie within the stored unit count
    /// ([`MdrError::InvalidQuery`] otherwise).
    ///
    /// Supporting `skip > 0` is what lets [`CachedStore`] *extend* an
    /// already-cached unit prefix instead of re-fetching it; the sharded
    /// store serves any run as one contiguous range read.
    fn load_units(
        &self,
        chunk: usize,
        group: usize,
        skip: usize,
        take: usize,
    ) -> Result<Vec<Vec<u8>>, MdrError>;

    /// Materialize chunk `c` holding exactly the unit prefixes `plan`
    /// needs (other units keep empty payloads): one [`Store::load_units`]
    /// prefix per non-empty level group. Every store fetches through
    /// this provided body; only the `Box<dyn Store>` forwarder overrides
    /// it.
    fn load_chunk(&self, c: usize, plan: &RetrievalPlan) -> Result<Refactored, MdrError> {
        let meta = self.meta();
        let chunk = meta
            .chunks
            .get(c)
            .ok_or_else(|| MdrError::InvalidQuery(format!("chunk {c} out of range")))?;
        if plan.units.len() != chunk.streams.len() {
            return Err(MdrError::InvalidQuery(
                "plan does not match chunk shape".to_string(),
            ));
        }
        let mut out = chunk.clone();
        for (g, (s, &want)) in out.streams.iter_mut().zip(&plan.units).enumerate() {
            let want = want.min(s.units.len());
            if want == 0 {
                // Masked-out group: no fetch, no accounting.
                continue;
            }
            for (u, payload) in self.load_units(c, g, 0, want)?.into_iter().enumerate() {
                s.units[u].payload = payload;
            }
        }
        Ok(out)
    }

    /// Payload bytes fetched from this store so far. Decorators report
    /// the bytes their *backing* store paid ([`CachedStore`] deltas are
    /// therefore zero on full cache hits).
    fn bytes_fetched(&self) -> usize;

    /// I/O requests issued so far: byte ranges read (a sharded store
    /// reads one per non-empty unit run), HTTP requests sent (remote:
    /// one per non-empty unit run, plus the manifest fetch at open and
    /// any retries), or unit runs copied (memory). Decorators report
    /// their backing store's count.
    fn requests(&self) -> usize;

    /// Open a store of this flavor at `path`.
    fn open(path: &Path) -> Result<Self, MdrError>
    where
        Self: Sized;
}

/// Boxed stores forward the whole trait, so [`open_store`]'s product
/// composes with decorators like [`CachedStore`].
impl Store for Box<dyn Store> {
    fn flavor(&self) -> &'static str {
        (**self).flavor()
    }

    fn meta(&self) -> &ChunkedRefactored {
        (**self).meta()
    }

    fn load_units(
        &self,
        chunk: usize,
        group: usize,
        skip: usize,
        take: usize,
    ) -> Result<Vec<Vec<u8>>, MdrError> {
        (**self).load_units(chunk, group, skip, take)
    }

    fn load_chunk(&self, c: usize, plan: &RetrievalPlan) -> Result<Refactored, MdrError> {
        (**self).load_chunk(c, plan)
    }

    fn bytes_fetched(&self) -> usize {
        (**self).bytes_fetched()
    }

    fn requests(&self) -> usize {
        (**self).requests()
    }

    fn open(path: &Path) -> Result<Self, MdrError> {
        open_store(path)
    }
}

/// A fully resident artifact behind the [`Store`] face. "Fetching" is a
/// payload copy, counted exactly like the file-backed stores count their
/// reads — so conformance tests can compare byte accounting across
/// flavors, and callers can develop against memory and deploy against
/// disk without touching retrieval code.
#[derive(Debug)]
pub struct InMemoryStore {
    full: ChunkedRefactored,
    meta: ChunkedRefactored,
    bytes_fetched: AtomicUsize,
    requests: AtomicUsize,
}

impl Clone for InMemoryStore {
    fn clone(&self) -> Self {
        InMemoryStore {
            full: self.full.clone(),
            meta: self.meta.clone(),
            // ORDERING: statistics counter — no data is guarded, a
            // slightly stale clone snapshot is acceptable.
            bytes_fetched: AtomicUsize::new(self.bytes_fetched.load(Ordering::Relaxed)),
            // ORDERING: as above.
            requests: AtomicUsize::new(self.requests.load(Ordering::Relaxed)),
        }
    }
}

impl From<ChunkedRefactored> for InMemoryStore {
    fn from(cr: ChunkedRefactored) -> Self {
        let meta = cr.skeleton();
        InMemoryStore {
            full: cr,
            meta,
            bytes_fetched: AtomicUsize::new(0),
            requests: AtomicUsize::new(0),
        }
    }
}

impl From<Refactored> for InMemoryStore {
    fn from(r: Refactored) -> Self {
        ChunkedRefactored::single(r).into()
    }
}

impl From<Artifact> for InMemoryStore {
    fn from(a: Artifact) -> Self {
        match a {
            Artifact::Monolithic(r) => r.into(),
            Artifact::Chunked(cr) => cr.into(),
        }
    }
}

impl Store for InMemoryStore {
    fn flavor(&self) -> &'static str {
        "memory"
    }

    fn meta(&self) -> &ChunkedRefactored {
        &self.meta
    }

    fn load_units(
        &self,
        chunk: usize,
        group: usize,
        skip: usize,
        take: usize,
    ) -> Result<Vec<Vec<u8>>, MdrError> {
        let run = unit_run(&self.meta, chunk, group, skip, take)?;
        let out: Vec<Vec<u8>> = self.full.chunks[chunk].streams[group].units[run]
            .iter()
            .map(|u| u.payload.clone())
            .collect();
        let copied: usize = out.iter().map(Vec::len).sum();
        if copied > 0 {
            // One contiguous copy per unit run, mirroring the sharded
            // store's one range read per group.
            // ORDERING: statistics counter, guards nothing.
            self.requests.fetch_add(1, Ordering::Relaxed);
        }
        // ORDERING: statistics counter, guards nothing.
        self.bytes_fetched.fetch_add(copied, Ordering::Relaxed);
        Ok(out)
    }

    fn bytes_fetched(&self) -> usize {
        // ORDERING: monotone statistics read; no ordering with other data.
        self.bytes_fetched.load(Ordering::Relaxed)
    }

    fn requests(&self) -> usize {
        // ORDERING: monotone statistics read; no ordering with other data.
        self.requests.load(Ordering::Relaxed)
    }

    /// Read a serialized monolithic artifact (the
    /// [`crate::serialize::to_bytes`] format) fully into memory.
    fn open(path: &Path) -> Result<Self, MdrError> {
        let bytes = std::fs::read(path).map_err(|e| MdrError::io(path, e))?;
        Ok(crate::serialize::from_bytes(&bytes)?.into())
    }
}

impl Store for ChunkedStoreReader {
    fn flavor(&self) -> &'static str {
        "sharded"
    }

    fn meta(&self) -> &ChunkedRefactored {
        self.skeleton()
    }

    fn load_units(
        &self,
        chunk: usize,
        group: usize,
        skip: usize,
        take: usize,
    ) -> Result<Vec<Vec<u8>>, MdrError> {
        ChunkedStoreReader::load_units(self, chunk, group, skip, take)
    }

    fn bytes_fetched(&self) -> usize {
        self.bytes_read()
    }

    fn requests(&self) -> usize {
        self.ranges_read()
    }

    fn open(path: &Path) -> Result<Self, MdrError> {
        ChunkedStoreReader::open(path)
    }
}

// ---------------------------------------------------------------------
// The caching decorator
// ---------------------------------------------------------------------

/// Default [`CachedStore`] budget (64 MiB of cached payload bytes).
pub const DEFAULT_CACHE_BUDGET: usize = 64 << 20;

/// One cached unit-prefix: the payloads of units `0 .. units.len()` of a
/// (chunk, group) pair. Byte totals live in the directory's
/// [`CacheEntry`], the single source of truth for eviction accounting.
#[derive(Debug, Default)]
struct CacheUnits {
    units: Vec<Vec<u8>>,
}

/// Directory record of one cached prefix. The payloads live behind
/// their own lock so a miss on one entry runs its backing I/O without
/// stalling traffic to every other entry; `bytes` mirrors the payload
/// size so eviction never has to take the entry lock.
#[derive(Debug)]
struct CacheEntry {
    units: Arc<Mutex<CacheUnits>>,
    bytes: usize,
    last_used: u64,
}

#[derive(Debug, Default)]
struct CacheState {
    entries: HashMap<(usize, usize), CacheEntry>,
    cached_bytes: usize,
    tick: u64,
    hits: usize,
    misses: usize,
    extensions: usize,
    served_bytes: usize,
}

/// Cache effectiveness counters of a [`CachedStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// `load_units` calls answered entirely from cache.
    pub hits: usize,
    /// `load_units` calls that had to touch the backing store (to fill
    /// or extend a prefix).
    pub misses: usize,
    /// The subset of `misses` that *extended* an already-cached prefix
    /// — only the missing suffix was fetched. Over a progressive
    /// refinement sequence (same region, tightening bounds) virtually
    /// every miss should be an extension; a low ratio means the cache
    /// is evicting prefixes between refinements (budget too small).
    pub extensions: usize,
    /// Payload bytes currently held.
    pub cached_bytes: usize,
    /// Payload bytes handed to callers (from cache or fresh).
    pub served_bytes: usize,
}

impl CacheStats {
    /// Fraction of `load_units` calls served without touching the
    /// backing store (`0.0` when nothing was asked yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A byte-budgeted read-through cache over any [`Store`].
///
/// Keyed per (chunk, level group), each entry holds a *prefix* of that
/// group's merged units — exactly the shape retrieval plans request. A
/// request for a longer prefix **extends** the cached one, fetching only
/// the missing suffix from the backing store (one contiguous range on
/// the sharded layout), so across any query mix a given byte is fetched
/// at most once while its entry stays resident. Entries are evicted
/// least-recently-used when the cached payload bytes exceed the budget.
///
/// `bytes_fetched()` / `requests()` report the **backing store's**
/// counters, so [`Approximation::bytes_fetched`] shows what a query
/// really cost: zero on a full cache hit.
///
/// The cache is internally synchronized — clone a [`SharedReader`] (or
/// wrap the store in an [`Arc`]) to share it across client threads.
/// Backing fetches run under a *per-entry* lock: concurrent requests for
/// the same (chunk, group) prefix trigger exactly one fetch, while
/// misses on different entries do their I/O in parallel.
#[derive(Debug)]
pub struct CachedStore<S: Store = Box<dyn Store>> {
    inner: S,
    budget: usize,
    state: Mutex<CacheState>,
}

impl<S: Store> CachedStore<S> {
    /// Cache `inner` with an LRU budget of `budget` payload bytes.
    pub fn new(inner: S, budget: usize) -> Self {
        CachedStore {
            inner,
            budget,
            state: Mutex::new(CacheState::default()),
        }
    }

    /// Cache `inner` with the [`DEFAULT_CACHE_BUDGET`].
    pub fn with_default_budget(inner: S) -> Self {
        Self::new(inner, DEFAULT_CACHE_BUDGET)
    }

    /// The backing store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Current cache effectiveness counters.
    pub fn cache_stats(&self) -> CacheStats {
        let state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        CacheStats {
            hits: state.hits,
            misses: state.misses,
            extensions: state.extensions,
            cached_bytes: state.cached_bytes,
            served_bytes: state.served_bytes,
        }
    }

    /// Drop every cached entry (counters are kept).
    pub fn clear(&self) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.entries.clear();
        state.cached_bytes = 0;
    }
}

impl<S: Store> Store for CachedStore<S> {
    fn flavor(&self) -> &'static str {
        "cached"
    }

    fn meta(&self) -> &ChunkedRefactored {
        self.inner.meta()
    }

    fn load_units(
        &self,
        chunk: usize,
        group: usize,
        skip: usize,
        take: usize,
    ) -> Result<Vec<Vec<u8>>, MdrError> {
        // A run outside the stored units is rejected before the
        // directory sees it.
        let run = unit_run(self.meta(), chunk, group, skip, take)?;
        let end = run.end;
        let key = (chunk, group);
        // Phase 1 — directory lock, briefly: look up or create the
        // entry's payload handle and mark it used.
        let handle = {
            let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
            state.tick += 1;
            let tick = state.tick;
            let entry = state.entries.entry(key).or_insert_with(|| CacheEntry {
                units: Arc::new(Mutex::new(CacheUnits::default())),
                bytes: 0,
                last_used: tick,
            });
            entry.last_used = tick;
            Arc::clone(&entry.units)
        };
        // Phase 2 — entry lock only: extend the cached prefix by exactly
        // the missing suffix — never re-fetch bytes already resident.
        // The backing I/O runs here, so concurrent requests for the
        // *same* prefix trigger one fetch while misses on other entries
        // proceed in parallel.
        let (out, added, fetched, extended) = {
            let mut cached = handle.lock().unwrap_or_else(|p| p.into_inner());
            let have = cached.units.len();
            let mut added = 0usize;
            let fetched = have < end;
            if fetched {
                let fresh = self.inner.load_units(chunk, group, have, end - have)?;
                added = fresh.iter().map(Vec::len).sum();
                cached.units.extend(fresh);
            }
            (
                cached.units[run].to_vec(),
                added,
                fetched,
                fetched && have > 0,
            )
        };
        // Phase 3 — directory lock: publish accounting and evict
        // least-recently-used entries while over budget (the entry just
        // touched carries the newest tick, so it is evicted only if it
        // alone exceeds the budget — after serving the request).
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let state = &mut *state;
        if fetched {
            state.misses += 1;
            if extended {
                state.extensions += 1;
            }
        } else {
            state.hits += 1;
        }
        state.served_bytes += out.iter().map(Vec::len).sum::<usize>();
        if added > 0 {
            match state.entries.get_mut(&key) {
                // Normal case: the directory still points at our payloads.
                Some(entry) if Arc::ptr_eq(&entry.units, &handle) => {
                    entry.bytes += added;
                    state.cached_bytes += added;
                }
                // The entry was evicted (or replaced) while we fetched:
                // our payloads die with `handle`, so they never enter
                // the directory's byte total.
                _ => {}
            }
        }
        while state.cached_bytes > self.budget {
            let Some((&key, _)) = state.entries.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            if let Some(evicted) = state.entries.remove(&key) {
                state.cached_bytes -= evicted.bytes;
            }
        }
        Ok(out)
    }

    fn bytes_fetched(&self) -> usize {
        self.inner.bytes_fetched()
    }

    fn requests(&self) -> usize {
        self.inner.requests()
    }

    /// Open the backing flavor at `path` and cache it with the
    /// [`DEFAULT_CACHE_BUDGET`].
    fn open(path: &Path) -> Result<Self, MdrError> {
        Ok(Self::with_default_budget(S::open(path)?))
    }
}

/// Open whatever store lives at `path`, sniffing its flavor: an
/// `http://` URL is a [`RemoteStore`](crate::remote::RemoteStore)
/// serving the sharded layout over range requests; a plain file is a
/// serialized artifact loaded into an [`InMemoryStore`]; a directory
/// is a sharded store ([`ChunkedStoreReader`]).
///
/// A `path` that holds no store at all — nothing there, a directory
/// without a `manifest.json`, or a URL whose manifest the server will
/// not serve — is [`MdrError::InvalidInput`] describing what went
/// wrong (for a remote store: the URL and the HTTP status), not a raw
/// I/O error about a file the caller never named. A directory in the
/// retired one-file-per-unit layout (its `manifest.json` is a framed
/// binary skeleton) is [`MdrError::Unsupported`] saying so.
pub fn open_store(path: &Path) -> Result<Box<dyn Store>, MdrError> {
    // URL sniffing first: a URL is never a local path (and `is_file`
    // on one would just stat a nonexistent `./http:/…`).
    let spec = path.to_string_lossy();
    if spec.starts_with("http://") {
        return Ok(Box::new(crate::remote::RemoteStore::open_url(&spec)?));
    }
    if spec.starts_with("https://") {
        return Err(MdrError::Unsupported(
            "https:// stores are unavailable in this pure-std build; serve the \
             store over http:// instead"
                .to_string(),
        ));
    }
    if path.is_file() {
        return Ok(Box::new(<InMemoryStore as Store>::open(path)?));
    }
    let manifest_path = path.join("manifest.json");
    let raw = match std::fs::read(&manifest_path) {
        Ok(raw) => raw,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(MdrError::InvalidInput(format!(
                "no HP-MDR store at {}: expected a serialized artifact file, or a store \
                 directory containing manifest.json alongside its chunk shards (c<C>.shard)",
                path.display()
            )));
        }
        Err(e) => return Err(MdrError::io(&manifest_path, e)),
    };
    if raw.starts_with(crate::serialize::MAGIC) {
        return Err(MdrError::Unsupported(format!(
            "{} holds a store in the retired unit-file layout (one file per unit), \
             which this version no longer reads; write the artifact again with \
             Artifact::write_store",
            path.display()
        )));
    }
    Ok(Box::new(<ChunkedStoreReader as Store>::open(path)?))
}

// ---------------------------------------------------------------------
// The query model
// ---------------------------------------------------------------------

/// What accuracy the caller wants.
#[derive(Debug, Clone)]
pub enum Target {
    /// Guaranteed absolute L∞ error bound.
    AbsError(f64),
    /// Guaranteed L∞ bound relative to the archive's value range.
    Rel(f64),
    /// Root-mean-square error target (an estimator, fetched
    /// rate-distortion-optimally; the L∞ guarantee of the resulting plan
    /// is still reported).
    Rmse(f64),
    /// Error control on a derived Quantity of Interest: retrieve until
    /// the estimated supremum of the QoI error falls below the
    /// tolerance (Algorithm 3 with the paper's recommended MAPE
    /// estimator).
    Qoi(QoiExpr, f64),
    /// Everything stored: the near-lossless floor of the archive.
    Lossless,
}

/// What part of the variable the caller wants.
#[derive(Debug, Clone)]
pub enum Scope {
    /// The whole domain at full resolution.
    Full,
    /// An axis-aligned hyperslab — only the chunks it intersects are
    /// fetched.
    Region(Region),
    /// The dense grid of a coarser decomposition level (`0` = full
    /// resolution, each level halves every dimension). Requires a
    /// monolithic (single-chunk) archive.
    Resolution(usize),
}

/// One retrieval request: a [`Target`] over a [`Scope`].
///
/// Not every combination is servable everywhere — RMSE and QoI targets
/// have no resolution-scoped semantics, and QoI control runs on
/// monolithic archives over the full domain. Unservable combinations
/// return [`MdrError::Unsupported`]; malformed ones (negative bounds,
/// out-of-domain regions, levels beyond the hierarchy)
/// [`MdrError::InvalidQuery`].
///
/// ```
/// use hpmdr_core::prelude::*;
///
/// // The whole field within an absolute bound of 1e-3:
/// let q = Query::full(Target::AbsError(1e-3));
/// // A hyperslab at a relative bound, failing loudly if the archive
/// // cannot honor it:
/// let r = Query::region(Target::Rel(1e-4), Region::new(&[4, 4], &[8, 8])).strict();
/// // A quarter-resolution quick look from everything stored:
/// let s = Query::resolution(Target::Lossless, 2);
/// assert!(matches!(s.scope, Scope::Resolution(2)));
/// # let _ = (q, r);
/// ```
#[derive(Debug, Clone)]
pub struct Query {
    /// The accuracy requested.
    pub target: Target,
    /// The part of the variable requested.
    pub scope: Scope,
    /// When `true`, return [`MdrError::Unsatisfiable`] instead of a
    /// best-effort [`Approximation`] if the archive runs out of stored
    /// planes before meeting the target.
    pub strict: bool,
}

impl Query {
    /// `target` over `scope`, best-effort.
    pub fn new(target: Target, scope: Scope) -> Self {
        Query {
            target,
            scope,
            strict: false,
        }
    }

    /// `target` over the whole domain.
    pub fn full(target: Target) -> Self {
        Query::new(target, Scope::Full)
    }

    /// `target` over a hyperslab.
    pub fn region(target: Target, region: Region) -> Self {
        Query::new(target, Scope::Region(region))
    }

    /// `target` at a coarser resolution level.
    pub fn resolution(target: Target, level: usize) -> Self {
        Query::new(target, Scope::Resolution(level))
    }

    /// Demand the target: unsatisfiable queries become errors instead of
    /// best-effort results.
    #[must_use]
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }
}

/// A served query: the reconstruction, its shape, and exactly what the
/// caller paid and got.
#[derive(Debug, Clone, PartialEq)]
pub struct Approximation<F> {
    /// Dense row-major values of the requested scope.
    pub data: Vec<F>,
    /// Shape of `data` (the domain, the region extent, or the coarse
    /// grid).
    pub shape: Vec<usize>,
    /// The **exact** guarantee achieved: for L∞ targets the maximum of
    /// the per-chunk planner bounds (`achieved <= target` whenever
    /// `exhausted` is false); for RMSE the planner's estimate; for QoI
    /// the final estimated error supremum.
    pub achieved: f64,
    /// Compressed payload bytes this query fetched from the store
    /// (through a [`CachedStore`], only what the *backing* store paid —
    /// zero on a full cache hit).
    ///
    /// Measured as a delta of the store's global counter, so when other
    /// clients fetch from the same store *concurrently* their bytes may
    /// be attributed to this query; per-store totals
    /// ([`Store::bytes_fetched`]) remain exact. Data, shape, `achieved`,
    /// and `exhausted` are unaffected.
    pub bytes_fetched: usize,
    /// True when the archive ran out of stored planes before meeting the
    /// target — `achieved` is then the best the archive can do.
    pub exhausted: bool,
}

/// Resolved numeric form of a [`Target`] (relative bounds scaled by the
/// archive's value range).
pub(crate) enum ResolvedTarget {
    Abs(f64),
    Rmse(f64),
    Lossless,
}

impl ResolvedTarget {
    /// The threshold `achieved` is compared against for exhaustion.
    pub(crate) fn threshold(&self) -> f64 {
        match self {
            ResolvedTarget::Abs(eb) => *eb,
            ResolvedTarget::Rmse(t) => *t,
            ResolvedTarget::Lossless => f64::INFINITY,
        }
    }

    /// Plan every chunk of `meta` that `region` touches for this target
    /// (lossless: every stored unit, at the archive's floor bound). The
    /// one planner behind a one-shot region answer, a stream's final
    /// frame and a lossless stream's floor, so the final frame equals
    /// [`Reader::retrieve`] by construction.
    pub(crate) fn plan_region(
        &self,
        meta: &ChunkedRefactored,
        region: &Region,
    ) -> Result<RoiPlan, MdrError> {
        RoiPlan::plan_with(meta, region, self.threshold(), |r| match self {
            ResolvedTarget::Abs(eb) => RetrievalPlan::for_error(r, *eb),
            ResolvedTarget::Rmse(t) => RetrievalPlan::for_rmse(r, *t),
            ResolvedTarget::Lossless => {
                let plan = RetrievalPlan::full(r);
                let bound = r.error_bound_for_units(&plan.units);
                (plan, bound)
            }
        })
    }
}

fn finite_nonneg(value: f64, what: &str) -> Result<f64, MdrError> {
    if !value.is_finite() || value < 0.0 {
        return Err(MdrError::InvalidQuery(format!("invalid {what} {value}")));
    }
    Ok(value)
}

/// Resolve a non-QoI [`Target`] against `store`'s metadata: validate the
/// figure and scale relative bounds by the archive's value range. Shared
/// by [`serve_query`] and the incremental
/// [`crate::progressive::ApproximationStream`], so the two paths can
/// never diverge on what a target *means*.
pub(crate) fn resolve_target(
    store: &dyn Store,
    target: &Target,
) -> Result<ResolvedTarget, MdrError> {
    match target {
        Target::AbsError(eb) => Ok(ResolvedTarget::Abs(finite_nonneg(*eb, "error bound")?)),
        Target::Rel(rel) => {
            let rel = finite_nonneg(*rel, "relative bound")?;
            let range = store.meta().value_range();
            if range == 0.0 {
                // Zero-range (constant) data: every relative bound
                // scales to an absolute 0.0, which no finite plane count
                // can *prove* — yet the archive floor reconstructs the
                // constant exactly. Serve the floor and report it as
                // trivially satisfied instead of Unsatisfiable.
                Ok(ResolvedTarget::Lossless)
            } else {
                Ok(ResolvedTarget::Abs(rel * range))
            }
        }
        Target::Rmse(t) => Ok(ResolvedTarget::Rmse(finite_nonneg(*t, "rmse target")?)),
        Target::Lossless => Ok(ResolvedTarget::Lossless),
        Target::Qoi(..) => Err(MdrError::Unsupported(
            "QoI targets resolve through their own control loop".to_string(),
        )),
    }
}

// ---------------------------------------------------------------------
// The reader
// ---------------------------------------------------------------------

/// Serve one query from `store`: plan on the metadata, fetch exactly the
/// planned unit prefixes, reconstruct on `backend`, and report the
/// achieved guarantee and bytes fetched. The one retrieval path behind
/// [`Reader::retrieve`] and a stream's single-frame queries.
///
/// The whole query holds one core of the process's budget (one
/// outermost `install`), so its fans take only the cores no other client
/// or pipeline thread holds.
pub(crate) fn serve_query<F: BitplaneFloat + Real + Default, B: Backend>(
    store: &dyn Store,
    backend: &B,
    ctx: &ExecCtx,
    query: &Query,
) -> Result<Approximation<F>, MdrError> {
    backend.install(|| answer::<F, B>(store, backend, ctx, query))
}

fn answer<F: BitplaneFloat + Real + Default, B: Backend>(
    store: &dyn Store,
    backend: &B,
    ctx: &ExecCtx,
    query: &Query,
) -> Result<Approximation<F>, MdrError> {
    {
        let meta = store.meta();
        if F::TYPE_NAME != meta.dtype {
            return Err(MdrError::DtypeMismatch {
                stored: meta.dtype.clone(),
                requested: F::TYPE_NAME.to_string(),
            });
        }
    }
    let bytes_before = store.bytes_fetched();
    let (data, shape, achieved, exhausted, target_value) = match &query.target {
        Target::Qoi(expr, tau) => {
            let (data, shape, achieved, exhausted) =
                serve_qoi::<F, B>(store, backend, expr, *tau, &query.scope)?;
            (data, shape, achieved, exhausted, *tau)
        }
        target => {
            let resolved = resolve_target(store, target)?;
            let t = resolved.threshold();
            let (data, shape, achieved, exhausted) = match &query.scope {
                Scope::Full => {
                    let domain = Region::whole(&store.meta().grid.shape);
                    serve_region::<F, B>(store, backend, ctx, &resolved, domain)?
                }
                Scope::Region(region) => {
                    serve_region::<F, B>(store, backend, ctx, &resolved, region.clone())?
                }
                Scope::Resolution(level) => {
                    serve_resolution::<F, B>(store, backend, &resolved, *level)?
                }
            };
            (data, shape, achieved, exhausted, t)
        }
    };
    if query.strict && exhausted {
        return Err(MdrError::Unsatisfiable {
            target: target_value,
            achieved,
        });
    }
    Ok(Approximation {
        data,
        shape,
        achieved,
        bytes_fetched: store.bytes_fetched() - bytes_before,
        exhausted,
    })
}

/// Full-domain and region scopes: per-chunk plans for the touched chunks
/// ([`ResolvedTarget::plan_region`]), then the region engine
/// ([`assemble_region`]) with a fresh session per chunk — one
/// [`Backend::map_batch`] item per chunk fetches, decodes and places it;
/// one thread wide, chunks run in order. A chunk recomposes only its box
/// of the region (a whole chunk for a full-domain query). Decode never
/// reassociates arithmetic, so the answer is bit-identical at every
/// width.
fn serve_region<F: BitplaneFloat + Real + Default, B: Backend>(
    store: &dyn Store,
    backend: &B,
    ctx: &ExecCtx,
    resolved: &ResolvedTarget,
    region: Region,
) -> Result<(Vec<F>, Vec<usize>, f64, bool), MdrError> {
    let plan = resolved.plan_region(store.meta(), &region)?;
    let data = assemble_region::<F, B>(store, &plan, backend, ctx, None)?;
    Ok((data, region.extent, plan.bound(), plan.exhausted()))
}

/// Resolution scope: plan only the level groups that influence the
/// coarse grid, then recompose down to `level`.
fn serve_resolution<F: BitplaneFloat + Real + Default, B: Backend>(
    store: &dyn Store,
    backend: &B,
    resolved: &ResolvedTarget,
    level: usize,
) -> Result<(Vec<F>, Vec<usize>, f64, bool), MdrError> {
    let (plan, bound, exhausted) = {
        let meta = store.meta();
        if meta.grid.num_chunks() != 1 {
            return Err(MdrError::Unsupported(format!(
                "resolution-scoped queries need a monolithic archive; this store has {} chunks",
                meta.grid.num_chunks()
            )));
        }
        let r = &meta.chunks[0];
        if level > r.hierarchy.levels {
            return Err(MdrError::InvalidQuery(format!(
                "resolution level {level} beyond the hierarchy ({} levels)",
                r.hierarchy.levels
            )));
        }
        match resolved {
            ResolvedTarget::Abs(eb) => {
                let (plan, bound) = RetrievalPlan::for_error_at_resolution(r, *eb, level);
                (plan, bound, bound > *eb)
            }
            ResolvedTarget::Lossless => {
                // A zero target fetches every contributing group fully
                // and reports the archive's floor bound for the level.
                let (plan, bound) = RetrievalPlan::for_error_at_resolution(r, 0.0, level);
                (plan, bound, false)
            }
            ResolvedTarget::Rmse(_) => {
                return Err(MdrError::Unsupported(
                    "RMSE targets have no resolution-scoped semantics".to_string(),
                ))
            }
        }
    };
    let loaded = store.load_chunk(0, &plan)?;
    let mut sess = RetrievalSession::with_backend(&loaded, backend.clone());
    sess.try_refine_to(&plan)?;
    let (data, shape) = sess.reconstruct_at_resolution::<F>(level);
    Ok((data, shape, bound, exhausted))
}

/// QoI targets: Algorithm 3 over a fully staged monolithic archive, on
/// the reader's backend.
fn serve_qoi<F: BitplaneFloat + Real + Default, B: Backend>(
    store: &dyn Store,
    backend: &B,
    expr: &QoiExpr,
    tau: f64,
    scope: &Scope,
) -> Result<(Vec<F>, Vec<usize>, f64, bool), MdrError> {
    if !matches!(scope, Scope::Full) {
        return Err(MdrError::Unsupported(
            "QoI targets are full-domain only; slice the result instead".to_string(),
        ));
    }
    if !tau.is_finite() || tau <= 0.0 {
        return Err(MdrError::InvalidQuery(format!(
            "invalid QoI tolerance {tau}"
        )));
    }
    expr.check_constants().map_err(MdrError::InvalidQuery)?;
    if expr.num_vars() > 1 {
        return Err(MdrError::Unsupported(format!(
            "QoI references {} variables; a reader serves exactly one",
            expr.num_vars()
        )));
    }
    let (full, shape) = {
        let meta = store.meta();
        if meta.grid.num_chunks() != 1 {
            return Err(MdrError::Unsupported(format!(
                "QoI-controlled retrieval needs a monolithic archive; this store has {} chunks",
                meta.grid.num_chunks()
            )));
        }
        (
            RetrievalPlan::full(&meta.chunks[0]),
            meta.grid.shape.clone(),
        )
    };
    // Algorithm 3 refines adaptively, so the chunk is staged in full;
    // bytes_fetched reflects the staging cost, not the loop's
    // internal consumption.
    let loaded = store.load_chunk(0, &full)?;
    let mut outcome = multi_qoi_control::<F, B>(
        &[&loaded],
        &[(expr.clone(), tau)],
        EbEstimator::Mape { c: 10.0 },
        backend,
    );
    let data = outcome.vars.swap_remove(0);
    Ok((data, shape, outcome.final_estimates[0], outcome.exhausted))
}

/// How a [`Reader`] holds its store: borrowed for `'s`, or shared by an
/// [`Arc`] so the reader ([`SharedReader`]) and its streams can be
/// `'static`. [`Reader::new`] and [`Mdr::reader`] convert into it from
/// `&T`, `&mut T`, `&dyn Store`, `&mut dyn Store`, `Arc<T>` and
/// `Arc<dyn Store>`; a clone copies the reference or the [`Arc`].
#[derive(Clone)]
pub enum StoreRef<'s> {
    /// A store borrowed for `'s`.
    Borrowed(&'s dyn Store),
    /// A store shared with other readers, streams and the caller.
    Shared(Arc<dyn Store>),
}

impl<'s> Deref for StoreRef<'s> {
    type Target = dyn Store + 's;

    fn deref(&self) -> &Self::Target {
        match self {
            StoreRef::Borrowed(store) => *store,
            StoreRef::Shared(store) => &**store,
        }
    }
}

impl<'s, T: Store> From<&'s T> for StoreRef<'s> {
    fn from(store: &'s T) -> Self {
        StoreRef::Borrowed(store)
    }
}

impl<'s, T: Store> From<&'s mut T> for StoreRef<'s> {
    fn from(store: &'s mut T) -> Self {
        StoreRef::Borrowed(store)
    }
}

impl<'s, 'o: 's> From<&'s (dyn Store + 'o)> for StoreRef<'s> {
    fn from(store: &'s (dyn Store + 'o)) -> Self {
        StoreRef::Borrowed(store)
    }
}

// `'o` is separate from `'s` because `&mut` is invariant in its
// referent: `Box::as_mut` yields `&'s mut (dyn Store + 'static)`.
impl<'s, 'o: 's> From<&'s mut (dyn Store + 'o)> for StoreRef<'s> {
    fn from(store: &'s mut (dyn Store + 'o)) -> Self {
        StoreRef::Borrowed(store)
    }
}

impl<T: Store + 'static> From<Arc<T>> for StoreRef<'_> {
    fn from(store: Arc<T>) -> Self {
        StoreRef::Shared(store)
    }
}

impl From<Arc<dyn Store>> for StoreRef<'_> {
    fn from(store: Arc<dyn Store>) -> Self {
        StoreRef::Shared(store)
    }
}

/// Serves [`Query`]s from any [`Store`] on any [`Backend`].
///
/// The reader is deliberately written against `dyn Store`: one
/// retrieval path covers the in-memory, sharded, cached and remote
/// stores, and returns identical [`Approximation`]s for identical
/// archives (`tests/tests/store_conformance.rs`). It borrows its store
/// or shares it ([`StoreRef`]); cloning a reader is cheap, and clones
/// serve concurrently from any number of threads through `&self`.
#[derive(Clone)]
pub struct Reader<'s, B: Backend = CpuBackend> {
    store: StoreRef<'s>,
    backend: B,
    ctx: Arc<ExecCtx>,
}

/// A [`Reader`] that shares its store ([`Arc`]'d, typically a
/// [`CachedStore`] — see [`Mdr::open_shared`]): `'static`, so clones
/// move into client threads and [`Reader::stream`] is available.
///
/// ```no_run
/// use hpmdr_core::prelude::*;
/// use std::path::Path;
///
/// let reader = Mdr::with_defaults().open_shared(Path::new("archive.mdr"))?;
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         let client = reader.clone(); // shares the store and its cache
///         s.spawn(move || client.retrieve::<f32>(&Query::full(Target::Rel(1e-3))));
///     }
/// });
/// # Ok::<(), MdrError>(())
/// ```
pub type SharedReader<B = CpuBackend> = Reader<'static, B>;

impl<'s> Reader<'s, CpuBackend> {
    /// A reader over `store` on a host-wide [`CpuBackend`]: a lone
    /// query fans its chunks across the machine; concurrent ones share
    /// it through the process's core budget.
    ///
    /// `store` is anything a [`StoreRef`] converts from:
    ///
    /// ```
    /// use hpmdr_core::prelude::*;
    /// use std::sync::Arc;
    ///
    /// let data: Vec<f32> = (0..16 * 16).map(|i| (i as f32 * 0.1).sin()).collect();
    /// let artifact = Mdr::with_defaults().refactor(&data, &[16, 16])?;
    /// let q = Query::full(Target::Lossless);
    ///
    /// let mut memory = InMemoryStore::from(artifact.clone());
    /// let want = Reader::new(&memory).retrieve::<f32>(&q)?; // &T
    /// assert_eq!(Reader::new(&mut memory).retrieve::<f32>(&q)?.data, want.data); // &mut T
    /// let as_dyn: &dyn Store = &memory;
    /// assert_eq!(Reader::new(as_dyn).retrieve::<f32>(&q)?.data, want.data); // &dyn Store
    ///
    /// let mut boxed: Box<dyn Store> = Box::new(InMemoryStore::from(artifact.clone()));
    /// assert_eq!(Reader::new(boxed.as_mut()).retrieve::<f32>(&q)?.data, want.data);
    ///
    /// let shared: SharedReader = Reader::new(Arc::new(InMemoryStore::from(artifact))); // Arc<T>
    /// assert_eq!(shared.retrieve::<f32>(&q)?.data, want.data);
    /// # Ok::<(), MdrError>(())
    /// ```
    pub fn new(store: impl Into<StoreRef<'s>>) -> Self {
        Reader::with_backend(store, CpuBackend::new())
    }
}

impl<'s, B: Backend> Reader<'s, B> {
    /// A reader over `store` running its kernels on `backend`.
    pub fn with_backend(store: impl Into<StoreRef<'s>>, backend: B) -> Self {
        Reader {
            store: store.into(),
            backend,
            ctx: Arc::new(ExecCtx::default()),
        }
    }

    /// The store this reader serves from.
    pub fn store(&self) -> &dyn Store {
        &*self.store
    }

    /// Serve one query: plan on the store's metadata, fetch exactly the
    /// planned unit prefixes, reconstruct on this reader's backend, and
    /// report the achieved guarantee and bytes fetched.
    ///
    /// Callable from any thread, concurrently with other clones of this
    /// reader: identical queries return identical data, shapes, achieved
    /// bounds and exhaustion flags whether served serially or
    /// concurrently (`tests/tests/concurrent_retrieval.rs`); only
    /// [`Approximation::bytes_fetched`] can interleave with concurrent
    /// clients' fetches (see its docs).
    pub fn retrieve<F: BitplaneFloat + Real + Default>(
        &self,
        query: &Query,
    ) -> Result<Approximation<F>, MdrError> {
        serve_query::<F, B>(&*self.store, &self.backend, &self.ctx, query)
    }
}

impl<B: Backend> Reader<'static, B> {
    /// Open an incremental retrieval for `query`: an
    /// [`ApproximationStream`](crate::progressive::ApproximationStream)
    /// whose [`refine_next`](crate::progressive::ApproximationStream::refine_next)
    /// yields a coarse [`Approximation`] first and then progressively
    /// tighter ones, ending with a frame bit-identical to what
    /// [`Self::retrieve`] returns for the same query. The stream holds a
    /// clone of the store handle, so it outlives this reader and runs
    /// concurrently with other clients.
    pub fn stream<F: BitplaneFloat + Real + Default>(
        &self,
        query: &Query,
    ) -> Result<crate::progressive::ApproximationStream<F, B>, MdrError> {
        crate::progressive::ApproximationStream::open(
            self.store.clone(),
            self.backend.clone(),
            Arc::clone(&self.ctx),
            query.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(nx: usize, ny: usize) -> Vec<f32> {
        let mut v = Vec::with_capacity(nx * ny);
        for x in 0..nx {
            for y in 0..ny {
                v.push((x as f32 * 0.19).sin() * 2.0 + (y as f32 * 0.23).cos());
            }
        }
        v
    }

    #[test]
    fn builder_covers_monolithic_and_chunked_without_with_variants() {
        let data = field(20, 18);
        let mono = Mdr::with_defaults().refactor(&data, &[20, 18]).unwrap();
        assert!(mono.as_monolithic().is_some());
        let chunked = MdrConfig::new()
            .chunked(&[8, 8])
            .build()
            .refactor(&data, &[20, 18])
            .unwrap();
        let cr = chunked.as_chunked().unwrap();
        assert_eq!(cr.grid.num_chunks(), 3 * 3);
        // Any backend width builds through the same call and produces
        // bit-identical artifacts.
        let one = MdrConfig::new()
            .chunked(&[8, 8])
            .build_with(CpuBackend::with_threads(1))
            .refactor(&data, &[20, 18])
            .unwrap();
        assert_eq!(chunked, one);
    }

    #[test]
    fn facade_refactor_validates_instead_of_panicking() {
        let mdr = Mdr::with_defaults();
        let err = mdr.refactor(&[0.0f32; 10], &[3, 4]).unwrap_err();
        assert!(matches!(err, MdrError::InvalidInput(_)), "{err}");
        let err = mdr.refactor(&[0.0f32; 0], &[]).unwrap_err();
        assert!(matches!(err, MdrError::InvalidInput(_)), "{err}");
        let mut bad = field(8, 8);
        bad[17] = f32::NAN;
        bad[40] = f32::INFINITY; // the *first* non-finite value is named
        let err = mdr.refactor(&bad, &[8, 8]).unwrap_err();
        assert!(
            matches!(&err, MdrError::InvalidInput(w) if w.contains("index 17")),
            "{err}"
        );
        let err = MdrConfig::new()
            .chunked(&[4, 4, 4])
            .build()
            .refactor(&field(8, 8), &[8, 8])
            .unwrap_err();
        assert!(matches!(err, MdrError::InvalidInput(_)), "{err}");
    }

    #[test]
    fn reader_serves_all_targets_from_memory() {
        let data = field(33, 33);
        let artifact = Mdr::with_defaults().refactor(&data, &[33, 33]).unwrap();
        let range = artifact.value_range();
        let store = InMemoryStore::from(artifact);

        for (q, check_linf) in [
            (Query::full(Target::AbsError(1e-3)), true),
            (Query::full(Target::Rel(1e-3)), true),
            (Query::full(Target::Rmse(1e-4)), false),
            (Query::full(Target::Lossless), true),
        ] {
            let a = Reader::new(&store).retrieve::<f32>(&q).unwrap();
            assert_eq!(a.shape, vec![33, 33]);
            assert!(a.bytes_fetched > 0);
            assert!(!a.exhausted, "{q:?}");
            if check_linf {
                let err = data
                    .iter()
                    .zip(&a.data)
                    .map(|(x, y)| ((x - y).abs()) as f64)
                    .fold(0.0, f64::max);
                assert!(err <= a.achieved.max(range * 1e-6), "{q:?}: {err}");
            }
        }
    }

    #[test]
    fn region_and_resolution_scopes_match_their_direct_paths() {
        let data = field(33, 33);
        let artifact = Mdr::with_defaults().refactor(&data, &[33, 33]).unwrap();
        let r = artifact.as_monolithic().unwrap().clone();
        let store = InMemoryStore::from(artifact);

        // Region slice == same region of a full-domain answer.
        let region = Region::new(&[4, 7], &[12, 9]);
        let sliced = {
            let full = Reader::new(&store)
                .retrieve::<f32>(&Query::full(Target::AbsError(1e-3)))
                .unwrap();
            crate::chunked::extract_region(&full.data, &[33, 33], &region)
        };
        let roi = Reader::new(&store)
            .retrieve::<f32>(&Query::region(Target::AbsError(1e-3), region.clone()))
            .unwrap();
        assert_eq!(roi.shape, region.extent);
        assert_eq!(roi.data, sliced);

        // Resolution scope == RetrievalSession::reconstruct_at_resolution.
        let level = r.hierarchy.levels.min(2);
        let coarse = Reader::new(&store)
            .retrieve::<f32>(&Query::resolution(Target::Lossless, level))
            .unwrap();
        let mut sess = RetrievalSession::new(&r);
        sess.refine_to(&RetrievalPlan::full(&r));
        let (want, want_shape) = sess.reconstruct_at_resolution::<f32>(level);
        assert_eq!(coarse.shape, want_shape);
        assert_eq!(coarse.data, want);
    }

    #[test]
    fn resolution_scope_fetches_fewer_bytes_than_full() {
        let data = field(65, 65);
        let artifact = Mdr::with_defaults().refactor(&data, &[65, 65]).unwrap();
        let store = InMemoryStore::from(artifact);
        let full = Reader::new(&store)
            .retrieve::<f32>(&Query::full(Target::AbsError(1e-4)))
            .unwrap();
        let coarse = Reader::new(&store)
            .retrieve::<f32>(&Query::resolution(Target::AbsError(1e-4), 2))
            .unwrap();
        assert!(
            coarse.bytes_fetched < full.bytes_fetched,
            "coarse {} vs full {}",
            coarse.bytes_fetched,
            full.bytes_fetched
        );
        assert!(coarse.achieved <= 1e-4 || coarse.exhausted);
    }

    #[test]
    fn qoi_target_controls_derived_error() {
        let data = field(17, 17);
        let artifact = Mdr::with_defaults().refactor(&data, &[17, 17]).unwrap();
        let store = InMemoryStore::from(artifact);
        let q = Query::full(Target::Qoi(
            QoiExpr::Square(Box::new(QoiExpr::Var(0))),
            1e-3,
        ));
        let a = Reader::new(&store).retrieve::<f32>(&q).unwrap();
        assert_eq!(a.shape, vec![17, 17]);
        assert!(a.exhausted || a.achieved <= 1e-3, "{}", a.achieved);
        for (x, r) in data.iter().zip(&a.data) {
            let got = (*r as f64) * (*r as f64);
            let want = (*x as f64) * (*x as f64);
            assert!((got - want).abs() <= 1e-3 + 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn qoi_targets_with_unusable_constants_are_invalid_queries() {
        let data = field(17, 17);
        let artifact = Mdr::with_defaults().refactor(&data, &[17, 17]).unwrap();
        let store = InMemoryStore::from(artifact);
        let var = || Box::new(QoiExpr::Var(0));
        let ln = |floor| QoiExpr::Ln { arg: var(), floor };
        for expr in [
            QoiExpr::Scale(f64::INFINITY, var()),
            QoiExpr::Scale(f64::NAN, var()),
            QoiExpr::Add(var(), Box::new(QoiExpr::Const(f64::NAN))),
            QoiExpr::Const(f64::NEG_INFINITY),
            ln(0.0),
            ln(-1.0),
            ln(f64::NAN),
            ln(f64::INFINITY),
            QoiExpr::Sqrt(Box::new(ln(0.0))),
        ] {
            let err = Reader::new(&store)
                .retrieve::<f32>(&Query::full(Target::Qoi(expr.clone(), 1e-3)))
                .unwrap_err();
            assert!(matches!(err, MdrError::InvalidQuery(_)), "{expr:?}: {err}");
        }
        // A positive floor is served.
        let ok = Query::full(Target::Qoi(ln(1e-6), 1e-3));
        assert!(Reader::new(&store).retrieve::<f32>(&ok).is_ok());
    }

    #[test]
    fn error_cases_are_matchable() {
        let data = field(16, 16);
        let artifact = MdrConfig::new()
            .chunked(&[8, 8])
            .build()
            .refactor(&data, &[16, 16])
            .unwrap();
        let store = InMemoryStore::from(artifact);
        let reader = Reader::new(&store);

        let err = reader
            .retrieve::<f64>(&Query::full(Target::AbsError(1e-3)))
            .unwrap_err();
        assert!(matches!(err, MdrError::DtypeMismatch { .. }), "{err}");

        let err = reader
            .retrieve::<f32>(&Query::full(Target::AbsError(-1.0)))
            .unwrap_err();
        assert!(matches!(err, MdrError::InvalidQuery(_)), "{err}");

        let err = reader
            .retrieve::<f32>(&Query::region(
                Target::AbsError(1e-3),
                Region::new(&[12, 0], &[8, 8]),
            ))
            .unwrap_err();
        assert!(matches!(err, MdrError::InvalidQuery(_)), "{err}");

        let err = reader
            .retrieve::<f32>(&Query::resolution(Target::AbsError(1e-3), 1))
            .unwrap_err();
        assert!(matches!(err, MdrError::Unsupported(_)), "{err}");

        let err = reader
            .retrieve::<f32>(&Query::full(Target::AbsError(1e-300)).strict())
            .unwrap_err();
        assert!(
            matches!(err, MdrError::Unsatisfiable { target, achieved }
                if target == 1e-300 && achieved > target),
            "{err}"
        );
    }

    #[test]
    fn store_roundtrip_through_open_store() {
        let data = field(24, 20);
        for (artifact, flavor) in [
            (
                Mdr::with_defaults().refactor(&data, &[24, 20]).unwrap(),
                "monolithic",
            ),
            (
                MdrConfig::new()
                    .chunked(&[10, 8])
                    .build()
                    .refactor(&data, &[24, 20])
                    .unwrap(),
                "sharded",
            ),
        ] {
            let dir = std::env::temp_dir()
                .join(format!("hpmdr_api_open_{flavor}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            artifact.write_store(&dir).unwrap();
            let mut store = open_store(&dir).unwrap();
            assert_eq!(store.flavor(), "sharded", "{flavor}");
            let a = Reader::new(store.as_mut())
                .retrieve::<f32>(&Query::full(Target::Rel(1e-3)))
                .unwrap();
            let memory = InMemoryStore::from(artifact);
            let b = Reader::new(&memory)
                .retrieve::<f32>(&Query::full(Target::Rel(1e-3)))
                .unwrap();
            assert_eq!(a, b, "{flavor} answer must equal the in-memory answer");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn serialized_file_opens_as_in_memory_store() {
        let data = field(16, 12);
        let artifact = Mdr::with_defaults().refactor(&data, &[16, 12]).unwrap();
        let bytes = crate::serialize::to_bytes(artifact.as_monolithic().unwrap());
        let path = std::env::temp_dir().join(format!("hpmdr_api_file_{}.mdr", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let mut store = open_store(&path).unwrap();
        assert_eq!(store.flavor(), "memory");
        let a = Reader::new(store.as_mut())
            .retrieve::<f32>(&Query::full(Target::Lossless))
            .unwrap();
        assert_eq!(a.shape, vec![16, 12]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_store_on_nothing_names_the_path_and_the_expected_layout() {
        let missing = std::env::temp_dir().join(format!("hpmdr_api_void_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&missing);
        let err = open_store(&missing).err().unwrap();
        assert!(
            matches!(&err, MdrError::InvalidInput(w)
                if w.contains(&missing.display().to_string()) && w.contains("manifest.json")),
            "{err}"
        );
        // An existing-but-empty directory is the same caller mistake.
        std::fs::create_dir_all(&missing).unwrap();
        let err = open_store(&missing).err().unwrap();
        assert!(matches!(err, MdrError::InvalidInput(_)), "{err}");
        let _ = std::fs::remove_dir_all(&missing);
    }

    #[test]
    fn retired_unit_file_layout_is_unsupported_and_named() {
        // What the retired layout wrote: a framed-binary skeleton as the
        // manifest beside one `g<G>_u<U>.bin` file per unit.
        let data = field(16, 12);
        let artifact = Mdr::with_defaults().refactor(&data, &[16, 12]).unwrap();
        let r = artifact.as_monolithic().unwrap();
        let dir = std::env::temp_dir().join(format!("hpmdr_api_retired_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("manifest.json"),
            crate::serialize::to_bytes(&r.skeleton()),
        )
        .unwrap();
        std::fs::write(dir.join("g0_u0.bin"), &r.streams[0].units[0].payload).unwrap();
        let err = open_store(&dir).err().unwrap();
        assert!(
            matches!(&err, MdrError::Unsupported(w) if w.contains("retired unit-file layout")),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_shard_write_names_the_shard_not_the_directory() {
        let data = field(16, 12);
        for config in [MdrConfig::new(), MdrConfig::new().chunked(&[8, 6])] {
            let artifact = config.build().refactor(&data, &[16, 12]).unwrap();
            let dir = std::env::temp_dir().join(format!(
                "hpmdr_api_shard_dir_{}_{}",
                artifact.as_chunked().is_some(),
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(dir.join("c0.shard")).unwrap();
            let err = artifact.write_store(&dir).unwrap_err();
            assert!(
                matches!(&err, MdrError::Io { path, .. } if path.ends_with("c0.shard")),
                "{err}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn zero_range_data_trivially_satisfies_relative_targets() {
        // A constant field has value_range() == 0, so Rel(ε) used to
        // resolve to an absolute bound of 0.0: strict queries returned
        // Unsatisfiable and best-effort ones claimed exhaustion, even
        // though the reconstruction is exact.
        let data = vec![3.25f32; 18 * 14];
        let artifact = Mdr::with_defaults().refactor(&data, &[18, 14]).unwrap();
        assert_eq!(artifact.value_range(), 0.0);
        let store = InMemoryStore::from(artifact);
        let a = Reader::new(&store)
            .retrieve::<f32>(&Query::full(Target::Rel(1e-3)).strict())
            .unwrap();
        assert!(!a.exhausted, "zero-range data must not report exhaustion");
        for v in &a.data {
            assert!((v - 3.25).abs() < 1e-6, "constant must reconstruct: {v}");
        }
        // Region scope takes the same path.
        let r = Reader::new(&store)
            .retrieve::<f32>(
                &Query::region(Target::Rel(1e-6), Region::new(&[2, 3], &[5, 4])).strict(),
            )
            .unwrap();
        assert_eq!(r.shape, vec![5, 4]);
        assert!(!r.exhausted);
    }

    #[test]
    fn cached_store_extends_prefixes_instead_of_refetching() {
        let data = field(24, 20);
        let artifact = MdrConfig::new()
            .chunked(&[8, 8])
            .build()
            .refactor(&data, &[24, 20])
            .unwrap();
        let store = CachedStore::new(InMemoryStore::from(artifact), usize::MAX);
        let reader = Reader::new(&store);

        // Coarse query populates the cache with short unit prefixes.
        let coarse = reader
            .retrieve::<f32>(&Query::full(Target::AbsError(1e-1)))
            .unwrap();
        let after_coarse = store.bytes_fetched();
        assert_eq!(coarse.bytes_fetched, after_coarse);

        // The identical query again: every byte comes from cache.
        let again = reader
            .retrieve::<f32>(&Query::full(Target::AbsError(1e-1)))
            .unwrap();
        assert_eq!(again.bytes_fetched, 0, "repeat query must be free");
        assert_eq!(again.data, coarse.data);
        assert_eq!(store.bytes_fetched(), after_coarse);

        // A tighter query needs longer prefixes: only the *suffix* of
        // each (chunk, group) run is fetched — total backing bytes equal
        // what a cold store would have paid for the tight query alone.
        let cold = InMemoryStore::from(
            MdrConfig::new()
                .chunked(&[8, 8])
                .build()
                .refactor(&data, &[24, 20])
                .unwrap(),
        );
        let want = Reader::new(&cold)
            .retrieve::<f32>(&Query::full(Target::AbsError(1e-4)))
            .unwrap();
        let tight = reader
            .retrieve::<f32>(&Query::full(Target::AbsError(1e-4)))
            .unwrap();
        assert_eq!(tight.data, want.data);
        assert_eq!(
            store.bytes_fetched(),
            cold.bytes_fetched(),
            "extending prefixes must never re-fetch a cached byte"
        );
        assert!(tight.bytes_fetched < want.bytes_fetched);
    }

    #[test]
    fn cached_store_evicts_lru_under_byte_budget() {
        let data = field(24, 20);
        let artifact = MdrConfig::new()
            .chunked(&[8, 8])
            .build()
            .refactor(&data, &[24, 20])
            .unwrap();
        let total = artifact.total_bytes();
        // A budget far below the archive forces eviction; queries must
        // stay correct, just less cache-effective.
        let store = CachedStore::new(InMemoryStore::from(artifact), total / 8);
        let reader = Reader::new(&store);
        let a = reader
            .retrieve::<f32>(&Query::full(Target::AbsError(1e-4)))
            .unwrap();
        let b = reader
            .retrieve::<f32>(&Query::full(Target::AbsError(1e-4)))
            .unwrap();
        assert_eq!(a.data, b.data);
        assert!(
            store.cache_stats().cached_bytes <= total / 8,
            "cache must respect its byte budget"
        );
    }

    #[test]
    fn shared_reader_clones_serve_identical_answers() {
        let data = field(24, 20);
        let artifact = MdrConfig::new()
            .chunked(&[7, 6])
            .build()
            .refactor(&data, &[24, 20])
            .unwrap();
        let reference = {
            let store = InMemoryStore::from(artifact.clone());
            Reader::new(&store)
                .retrieve::<f32>(&Query::full(Target::Rel(1e-4)))
                .unwrap()
        };
        let shared = SharedReader::new(Arc::new(CachedStore::new(
            InMemoryStore::from(artifact),
            usize::MAX,
        )));
        let clone = shared.clone();
        let a = shared
            .retrieve::<f32>(&Query::full(Target::Rel(1e-4)))
            .unwrap();
        assert_eq!(a, reference);
        // The clone shares the cache: its identical query is free.
        let b = clone
            .retrieve::<f32>(&Query::full(Target::Rel(1e-4)))
            .unwrap();
        assert_eq!(b.data, reference.data);
        assert_eq!(b.bytes_fetched, 0);
    }

    #[test]
    fn open_shared_serves_from_disk_through_the_cache() {
        let data = field(24, 20);
        let artifact = MdrConfig::new()
            .chunked(&[8, 8])
            .build()
            .refactor(&data, &[24, 20])
            .unwrap();
        let dir = std::env::temp_dir().join(format!("hpmdr_api_shared_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        artifact.write_store(&dir).unwrap();
        let reader = Mdr::with_defaults().open_shared(&dir).unwrap();
        assert_eq!(reader.store().flavor(), "cached");
        let q = Query::region(Target::AbsError(1e-3), Region::new(&[2, 2], &[10, 9]));
        let first = reader.retrieve::<f32>(&q).unwrap();
        assert!(first.bytes_fetched > 0);
        let second = reader.retrieve::<f32>(&q).unwrap();
        assert_eq!(second.data, first.data);
        assert_eq!(second.bytes_fetched, 0, "repeat ROI must hit the cache");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
