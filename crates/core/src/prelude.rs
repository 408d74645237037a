//! The convenient import surface: `use hpmdr_core::prelude::*;`.
//!
//! Exports the façade ([`Mdr`], [`Query`], [`Store`], [`Reader`],
//! [`MdrError`], …) plus the handful of lower-level names walkthroughs
//! and tests still reach for (configs, plans, sessions, regions, the
//! executor backends). Anything not here is deliberately a
//! fully-qualified path — the façade is the recommended surface.

pub use crate::api::{
    open_store, Approximation, Artifact, CacheStats, CachedStore, InMemoryStore, Mdr, MdrConfig,
    Query, Reader, Scope, SharedReader, Store, Target, DEFAULT_CACHE_BUDGET,
};
pub use crate::chunked::{ChunkGrid, ChunkedConfig, ChunkedRefactored};
pub use crate::error::MdrError;
pub use crate::ingest::{
    ChunkSource, FileSource, FnSource, IngestElem, IngestOptions, IngestReport, PipelineMode,
    SliceSource,
};
pub use crate::progressive::{ApproximationStream, RefinementFrame};
pub use crate::qoi_retrieval::EbEstimator;
pub use crate::refactor::{RefactorConfig, Refactored};
pub use crate::remote::{RemoteStore, RemoteStoreConfig};
pub use crate::retrieve::{RetrievalPlan, RetrievalSession};
pub use crate::roi::{FetchPlan, Region, RoiPlan, RoiRequest};
pub use crate::storage::{write_chunked_store, write_store, ChunkedStoreReader, StoreReader};
pub use hpmdr_exec::{Backend, CpuBackend, ExecCtx};
pub use hpmdr_qoi::QoiExpr;
