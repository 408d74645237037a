//! # hpmdr-core — HP-MDR data refactoring and progressive retrieval
//!
//! The paper's primary contribution: an end-to-end, portable, GPU-shaped
//! pipeline that *refactors* scientific floating-point fields into
//! multi-precision streams and *progressively retrieves* just enough of
//! them to satisfy a requested error bound — on raw data or on derived
//! Quantities of Interest.
//!
//! Dataflow (Figure 1):
//!
//! ```text
//! refactor:  data ──MGARD decompose──► level coefficients
//!                 ──bitplane encode──► planes (register-block layout)
//!                 ──hybrid lossless──► compressed plane groups + metadata
//!
//! retrieve:  pick plane prefixes per level (error planner / QoI loop)
//!                 ──lossless decode──► planes ──bitplane decode──►
//!            coefficients ──MGARD recompose──► approximation + bound
//! ```
//!
//! ## The recommended surface
//!
//! Start with [`prelude`] and the [`api`] façade: one [`api::MdrConfig`]
//! builder covers monolithic and chunked refactoring on any backend, an
//! object-safe [`api::Store`] abstracts where artifacts live (memory,
//! a sharded store directory, a cache, HTTP), and one reader —
//! [`api::Reader`], borrowing its store or sharing it
//! ([`api::SharedReader`]) — serves every [`api::Query`]
//! ([`api::Target`] × [`api::Scope`]) through [`api::Reader::retrieve`],
//! or frame by frame through [`api::Reader::stream`], with typed
//! [`MdrError`]s end-to-end:
//!
//! ```
//! use hpmdr_core::prelude::*;
//!
//! let data: Vec<f32> = (0..24 * 24).map(|i| (i as f32 * 0.02).cos()).collect();
//! let artifact = Mdr::with_defaults().refactor(&data, &[24, 24])?;
//! let mut store = InMemoryStore::from(artifact);
//! let approx = Reader::new(&mut store)
//!     .retrieve::<f32>(&Query::full(Target::AbsError(1e-3)))?;
//! assert!(approx.exhausted || approx.achieved <= 1e-3);
//! # Ok::<(), MdrError>(())
//! ```
//!
//! The specialized modules below remain available — the façade is a thin
//! delegating layer over them.
//!
//! Modules:
//!
//! * [`api`] — the unified façade: [`api::Mdr`], [`api::Store`],
//!   [`api::Query`], [`api::Reader`] (its streamed frames: [`progressive`]);
//! * [`error`] — the [`MdrError`] hierarchy every fallible entry point
//!   returns;
//! * [`mod@refactor`] — variable refactoring into
//!   [`refactor::Refactored`];
//! * [`retrieve`] — greedy error-driven plane planning and incremental
//!   reconstruction sessions;
//! * [`qoi_retrieval`] — Algorithm 3 with the CP / MA / MAPE error-bound
//!   estimators (§6.2);
//! * [`serialize`] — portable on-disk framing of refactored artifacts
//!   (versioned manifests with readable mismatch errors);
//! * [`storage`] — the one on-disk layout: a versioned manifest plus a
//!   shard per chunk (a monolithic artifact is one chunk), written by
//!   [`storage::ChunkedStoreWriter`] and read one range per level group
//!   by [`storage::ChunkedStoreReader`] (the paper's prefix-of-units I/O
//!   pattern);
//! * [`chunked`] — the chunk grid: fixed-extent domain decomposition
//!   with per-chunk refactoring fanned out through
//!   [`hpmdr_exec::Backend::map_batch`];
//! * [`roi`] — region-of-interest planning and assembly behind
//!   [`api::Scope::Region`]: per-chunk unit prefixes for only the chunks
//!   a hyperslab intersects, assembled with a guaranteed L∞ bound;
//! * [`remote`] — the network storage tier: [`remote::RemoteStore`]
//!   serves the sharded layout over HTTP range requests, one per unit
//!   run, with pooled connections and bounded retry (transport in
//!   [`hpmdr_netstore`]).
//!
//! Every hot stage executes through the portable executor layer of
//! [`hpmdr_exec`]: [`refactor()`], [`RetrievalSession`], the reader and
//! the ingest pipeline are generic over [`hpmdr_exec::Backend`]. Every
//! entry point that does not take a backend — the façade
//! ([`api::MdrConfig::build`], [`api::Reader::new`],
//! [`RetrievalSession::new`]) and the plain functions ([`refactor()`]
//! and friends) alike — runs on a host-wide [`CpuBackend`], whose fans
//! take only the cores the process-wide budget leaves free. Artifacts
//! and answers are bit-identical at every width; pick a backend once in
//! [`api::MdrConfig::build_with`] or [`api::Reader::with_backend`] (for
//! example `CpuBackend::with_threads(1)`), or pass one to the
//! `refactor_with` family.

pub mod api;
pub mod chunked;
pub mod error;
pub mod ingest;
pub mod prelude;
pub mod progressive;
pub mod qoi_retrieval;
pub mod refactor;
pub mod remote;
pub mod retrieve;
pub mod roi;
pub mod serialize;
pub mod storage;

pub use api::{
    open_store, Approximation, Artifact, CacheStats, CachedStore, InMemoryStore, Mdr, MdrConfig,
    Query, Reader, Scope, SharedReader, Store, StoreRef, Target, DEFAULT_CACHE_BUDGET,
};
pub use chunked::{refactor_chunked, ChunkGrid, ChunkedConfig, ChunkedRefactored};
pub use error::MdrError;
pub use hpmdr_exec::{Backend, CpuBackend, ExecCtx, Isa};
pub use ingest::{ChunkSource, FileSource, FnSource, IngestElem, IngestReport, SliceSource};
pub use progressive::{ApproximationStream, RefinementFrame};
pub use qoi_retrieval::{
    retrieve_with_multi_qoi_control, retrieve_with_qoi_control, EbEstimator,
    MultiQoiRetrievalOutcome, QoiRetrievalOutcome,
};
pub use refactor::{
    encode, prepare, refactor, refactor_with, Decomposed, RefactorConfig, Refactored,
};
pub use remote::RemoteStore;
pub use retrieve::{RetrievalPlan, RetrievalSession};
pub use roi::{Region, RoiPlan, RoiRequest};
