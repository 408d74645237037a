//! # hpmdr-server — progressive retrieval over the wire
//!
//! HP-MDR's progressive promise, served remotely: a client asks for a
//! named dataset at an error target and receives a *stream* of
//! refinement frames — a coarse reconstruction immediately, then
//! monotonically tighter ones, ending with a frame bit-identical to an
//! in-process [`SharedReader::retrieve`] of the same query. The pieces:
//!
//! * [`protocol`] — frame kinds and JSON headers layered on the shared
//!   [`hpmdr_netstore::wire`] framing (one magic-tagged length-prefixed
//!   frame per message).
//! * [`Registry`] — names → [`CachedStore`]-wrapped stores of any
//!   flavor `open_store` recognizes; per-dataset cache stats surface
//!   through the STATS request.
//! * [`Admission`] — a global in-flight byte budget; requests that
//!   don't fit are *shed* with a typed `OverBudget` reject instead of
//!   queued, so overload degrades into fast retryable errors.
//! * [`ProgressiveServer`] — the connection handler behind netstore's
//!   shared accept loop: thread-per-connection, keep-alive, per-request
//!   deadlines, every failure path a typed reject frame.
//! * [`ProgressiveClient`] — the matching blocking client used by
//!   tests, the load-generating bench harness, and
//!   `examples/progressive_client.rs`.
//!
//! Everything is hand-rolled on `std` TCP — no async runtime, no
//! framework — mirroring the netstore tier's discipline, and built
//! fully offline.
//!
//! [`SharedReader::retrieve`]: hpmdr_core::prelude::SharedReader::retrieve
//! [`CachedStore`]: hpmdr_core::prelude::CachedStore

pub mod admission;
pub mod client;
pub mod protocol;
pub mod registry;
pub mod server;

pub use admission::{Admission, Permit};
pub use client::{ApproxFrame, ClientError, ProgressiveClient, QueryOutcome, ServerEvent};
pub use protocol::{
    ApproxHeader, DatasetStats, QueryRequest, RejectCode, RejectHeader, StatsReply, WireFloat,
    WireScope, WireTarget,
};
pub use registry::Registry;
pub use server::{ProgressiveServer, ServerConfig};

#[cfg(test)]
pub(crate) mod test_util {
    use hpmdr_core::chunked::{refactor_chunked, ChunkedConfig};
    use hpmdr_core::prelude::ChunkedRefactored;

    /// A small chunked archive over `data` for protocol tests.
    pub(crate) fn chunked(data: &[f32], shape: &[usize], extent: &[usize]) -> ChunkedRefactored {
        refactor_chunked(data, shape, &ChunkedConfig::with_extent(extent))
    }
}
