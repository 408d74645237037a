//! The progressive retrieval wire protocol: frame kinds and JSON
//! headers layered on `hpmdr_netstore::wire` frames.
//!
//! Every message is one length-prefixed frame (see
//! [`hpmdr_netstore::wire`]): a `kind` tag, a JSON header, and an
//! optional binary payload. Clients send [`QueryRequest`] /
//! stats-request frames; the server answers a query with a sequence of
//! [`kind::APPROX`] frames (header [`ApproxHeader`], payload the dense
//! values in little-endian order) ending with `is_final = true`, or a
//! single [`kind::REJECT`] frame carrying a typed [`RejectHeader`].
//! Every error path is a *typed* frame — a well-behaved server never
//! answers garbage with silence or a dropped connection mid-frame.
//!
//! ```text
//!   client                                server
//!     | -- QUERY {dataset, dtype, ...} ----> |
//!     | <---- APPROX {step 0, achieved b0}   |  coarse frame
//!     | <---- APPROX {step 1, achieved b1}   |  b1 <= b0, delta-fetched
//!     | <---- APPROX {step n, is_final}      |  == in-process retrieve
//!     | -- STATS --------------------------> |
//!     | <---- STATS_REPLY {datasets, ...}    |
//! ```

use hpmdr_core::prelude::{MdrError, QoiExpr, Query, Region, Scope, Target};
use hpmdr_netstore::FrameLimits;
use serde::{Deserialize, Serialize};

/// Frame kind tags. Kinds 1–2 flow client→server, 3–5 server→client.
pub mod kind {
    /// Client → server: a [`QueryRequest`](super::QueryRequest) header,
    /// no payload.
    pub const QUERY: u8 = 1;
    /// Client → server: request a [`StatsReply`](super::StatsReply);
    /// empty header, no payload.
    pub const STATS: u8 = 2;
    /// Server → client: an [`ApproxHeader`](super::ApproxHeader) plus
    /// the little-endian value payload.
    pub const APPROX: u8 = 3;
    /// Server → client: a typed [`RejectHeader`](super::RejectHeader);
    /// terminates the request it answers.
    pub const REJECT: u8 = 4;
    /// Server → client: a [`StatsReply`](super::StatsReply) header.
    pub const STATS_REPLY: u8 = 5;
}

/// Frame limits for client→server traffic: requests are small JSON
/// headers, so a tiny payload cap rejects junk before allocation.
pub fn request_limits() -> FrameLimits {
    FrameLimits {
        max_header: 64 * 1024,
        max_payload: 4 * 1024,
    }
}

/// Frame limits for server→client traffic: approximation payloads are
/// dense value grids, so the payload cap is the default large one.
pub fn response_limits() -> FrameLimits {
    FrameLimits::default()
}

/// [`Target`] in wire form (the core enum carries no serde impls).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireTarget {
    /// Absolute L∞ bound.
    Abs(f64),
    /// L∞ bound relative to the archive's value range.
    Rel(f64),
    /// RMSE target.
    Rmse(f64),
    /// QoI error control: expression and tolerance.
    Qoi(QoiExpr, f64),
    /// Everything stored.
    Lossless,
}

impl From<&Target> for WireTarget {
    fn from(t: &Target) -> Self {
        match t {
            Target::AbsError(eb) => WireTarget::Abs(*eb),
            Target::Rel(r) => WireTarget::Rel(*r),
            Target::Rmse(t) => WireTarget::Rmse(*t),
            Target::Qoi(expr, tol) => WireTarget::Qoi(expr.clone(), *tol),
            Target::Lossless => WireTarget::Lossless,
        }
    }
}

impl WireTarget {
    /// The core-side target this wire form denotes.
    pub fn to_target(&self) -> Target {
        match self {
            WireTarget::Abs(eb) => Target::AbsError(*eb),
            WireTarget::Rel(r) => Target::Rel(*r),
            WireTarget::Rmse(t) => Target::Rmse(*t),
            WireTarget::Qoi(expr, tol) => Target::Qoi(expr.clone(), *tol),
            WireTarget::Lossless => Target::Lossless,
        }
    }
}

/// [`Scope`] in wire form. `Region` is flattened to its two coordinate
/// vectors so a malformed request (zero extents, mismatched ranks) can
/// be *rejected* instead of panicking in `Region::new`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireScope {
    /// The whole domain.
    Full,
    /// A hyperslab.
    Region {
        /// Inclusive lower corner.
        start: Vec<usize>,
        /// Extent per dimension.
        extent: Vec<usize>,
    },
    /// A coarser decomposition level.
    Resolution(usize),
}

impl From<&Scope> for WireScope {
    fn from(s: &Scope) -> Self {
        match s {
            Scope::Full => WireScope::Full,
            Scope::Region(r) => WireScope::Region {
                start: r.start.clone(),
                extent: r.extent.clone(),
            },
            Scope::Resolution(level) => WireScope::Resolution(*level),
        }
    }
}

impl WireScope {
    /// Validate and convert to the core-side scope.
    pub fn to_scope(&self) -> Result<Scope, MdrError> {
        match self {
            WireScope::Full => Ok(Scope::Full),
            WireScope::Region { start, extent } => {
                if extent.is_empty() || start.len() != extent.len() {
                    return Err(MdrError::InvalidQuery(format!(
                        "region rank mismatch: start has {} dims, extent {}",
                        start.len(),
                        extent.len()
                    )));
                }
                if extent.contains(&0) {
                    return Err(MdrError::InvalidQuery(
                        "region with a zero extent".to_string(),
                    ));
                }
                Ok(Scope::Region(Region::new(start, extent)))
            }
            WireScope::Resolution(level) => Ok(Scope::Resolution(*level)),
        }
    }
}

/// The header of a [`kind::QUERY`] frame: one retrieval request against
/// a named dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryRequest {
    /// Registry name of the dataset to serve from.
    pub dataset: String,
    /// Requested element type: `"f32"` or `"f64"`; must match the
    /// archive's dtype.
    pub dtype: String,
    /// The accuracy requested.
    pub target: WireTarget,
    /// The part of the variable requested.
    pub scope: WireScope,
    /// Strict queries are rejected ([`RejectCode::Unsatisfiable`])
    /// instead of finishing best-effort when the archive runs dry.
    pub strict: bool,
    /// Per-request deadline in milliseconds; `0` asks for the server's
    /// default. The server clamps to its configured maximum.
    pub deadline_ms: u64,
}

impl QueryRequest {
    /// A request for `query` against `dataset`, using the server's
    /// default deadline.
    pub fn new(dataset: impl Into<String>, dtype: impl Into<String>, query: &Query) -> Self {
        QueryRequest {
            dataset: dataset.into(),
            dtype: dtype.into(),
            target: WireTarget::from(&query.target),
            scope: WireScope::from(&query.scope),
            strict: query.strict,
            deadline_ms: 0,
        }
    }

    /// Set the per-request deadline.
    #[must_use]
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = ms;
        self
    }

    /// The core-side query this request denotes (validating the scope).
    pub fn to_query(&self) -> Result<Query, MdrError> {
        let mut q = Query::new(self.target.to_target(), self.scope.to_scope()?);
        if self.strict {
            q = q.strict();
        }
        Ok(q)
    }
}

/// The header of a [`kind::APPROX`] frame; the payload carries
/// `shape.iter().product()` values of `dtype` in little-endian order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApproxHeader {
    /// Zero-based refinement step.
    pub step: usize,
    /// Whether this frame is the exact answer (the stream ends after
    /// it).
    pub is_final: bool,
    /// The guarantee achieved at this step (monotone non-increasing
    /// over a stream).
    pub achieved: f64,
    /// Whether the archive ran out of stored planes before the target.
    pub exhausted: bool,
    /// Row-major shape of the payload.
    pub shape: Vec<usize>,
    /// Element type of the payload: `"f32"` or `"f64"`.
    pub dtype: String,
    /// Compressed bytes fetched from the backing store so far for this
    /// request (cumulative, so the final frame reports the full cost).
    pub bytes_fetched: usize,
}

/// Why the server refused a request — the typed taxonomy every error
/// path maps onto.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectCode {
    /// The frame or its JSON header could not be parsed.
    Malformed,
    /// The requested dataset is not registered.
    UnknownDataset,
    /// A declared frame length exceeded the server's limits.
    Oversized,
    /// Admission control shed the request: the in-flight byte budget is
    /// full. Retry later — nothing about the request itself is wrong.
    OverBudget,
    /// The per-request deadline expired before the stream finished.
    DeadlineExpired,
    /// The query is well-formed but not servable (e.g. a QoI target on
    /// a chunked archive).
    Unsupported,
    /// The query is malformed (negative bound, out-of-domain region,
    /// dtype mismatch, …).
    InvalidQuery,
    /// A strict query ran the archive dry before meeting its target.
    Unsatisfiable,
    /// The server failed internally (I/O or corrupt archive).
    Internal,
}

/// The header of a [`kind::REJECT`] frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RejectHeader {
    /// The typed reason.
    pub code: RejectCode,
    /// Human-readable detail (never needed to interpret `code`).
    pub message: String,
}

/// Map a core error onto the wire taxonomy.
pub fn reject_code_for(err: &MdrError) -> RejectCode {
    match err {
        MdrError::InvalidQuery(_) | MdrError::InvalidInput(_) | MdrError::DtypeMismatch { .. } => {
            RejectCode::InvalidQuery
        }
        MdrError::Unsupported(_) => RejectCode::Unsupported,
        MdrError::Unsatisfiable { .. } => RejectCode::Unsatisfiable,
        _ => RejectCode::Internal,
    }
}

/// Per-dataset counters in a [`StatsReply`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Registry name.
    pub name: String,
    /// Compressed bytes the *backing* store paid so far (cache hits are
    /// free).
    pub bytes_fetched: usize,
    /// Backing-store I/O requests so far.
    pub requests: usize,
    /// Cache: `load_units` calls answered entirely from cache.
    pub hits: usize,
    /// Cache: calls that touched the backing store.
    pub misses: usize,
    /// Cache: the subset of misses that extended a cached prefix.
    pub extensions: usize,
    /// Cache: payload bytes currently held.
    pub cached_bytes: usize,
    /// Cache: payload bytes handed to readers.
    pub served_bytes: usize,
    /// Cache: fraction of calls served without backing I/O.
    pub hit_rate: f64,
}

/// The header of a [`kind::STATS_REPLY`] frame: a point-in-time view of
/// the server's registry, cache effectiveness, and admission counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// One entry per registered dataset, in name order.
    pub datasets: Vec<DatasetStats>,
    /// Estimated response bytes currently admitted.
    pub inflight_bytes: usize,
    /// The admission byte budget.
    pub budget_bytes: usize,
    /// Queries admitted since the server started.
    pub accepted: u64,
    /// Queries shed over budget since the server started.
    pub shed: u64,
    /// Approximation frames written since the server started.
    pub served_frames: u64,
}

/// Element types that travel in [`kind::APPROX`] payloads.
pub trait WireFloat: Copy + Default {
    /// The dtype tag requests and headers carry.
    const DTYPE: &'static str;
    /// Bytes per element on the wire.
    const SIZE: usize;
    /// Append `values` to `out` in little-endian order.
    fn write_le(values: &[Self], out: &mut Vec<u8>);
    /// Decode a little-endian payload; `None` when `bytes` is not a
    /// whole number of elements.
    fn read_le(bytes: &[u8]) -> Option<Vec<Self>>;
}

impl WireFloat for f32 {
    const DTYPE: &'static str = "f32";
    const SIZE: usize = 4;

    fn write_le(values: &[Self], out: &mut Vec<u8>) {
        // Grow once, then fill fixed-size slots: no per-element capacity
        // check, so the loop vectorises.
        let start = out.len();
        out.resize(out.len() + values.len() * Self::SIZE, 0);
        let (_, tail) = out.split_at_mut(start);
        for (slot, v) in tail.chunks_exact_mut(Self::SIZE).zip(values) {
            slot.copy_from_slice(&v.to_le_bytes());
        }
    }

    fn read_le(bytes: &[u8]) -> Option<Vec<Self>> {
        if !bytes.len().is_multiple_of(Self::SIZE) {
            return None;
        }
        Some(
            bytes
                .chunks_exact(Self::SIZE)
                // lint:allow(L3): statically infallible — chunks_exact
                // yields exactly SIZE bytes per chunk.
                .map(|c| f32::from_le_bytes(c.try_into().expect("chunk size")))
                .collect(),
        )
    }
}

impl WireFloat for f64 {
    const DTYPE: &'static str = "f64";
    const SIZE: usize = 8;

    fn write_le(values: &[Self], out: &mut Vec<u8>) {
        // Grow once, then fill fixed-size slots: no per-element capacity
        // check, so the loop vectorises.
        let start = out.len();
        out.resize(out.len() + values.len() * Self::SIZE, 0);
        let (_, tail) = out.split_at_mut(start);
        for (slot, v) in tail.chunks_exact_mut(Self::SIZE).zip(values) {
            slot.copy_from_slice(&v.to_le_bytes());
        }
    }

    fn read_le(bytes: &[u8]) -> Option<Vec<Self>> {
        if !bytes.len().is_multiple_of(Self::SIZE) {
            return None;
        }
        Some(
            bytes
                .chunks_exact(Self::SIZE)
                // lint:allow(L3): statically infallible — chunks_exact
                // yields exactly SIZE bytes per chunk.
                .map(|c| f64::from_le_bytes(c.try_into().expect("chunk size")))
                .collect(),
        )
    }
}

/// Bytes per element of a wire dtype tag, or `None` for an unknown tag.
pub fn dtype_size(dtype: &str) -> Option<usize> {
    match dtype {
        "f32" => Some(4),
        "f64" => Some(8),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_request_round_trips_through_json() {
        let query = Query::region(Target::Rel(1e-4), Region::new(&[2, 3], &[8, 9])).strict();
        let req = QueryRequest::new("temperature", "f32", &query).with_deadline_ms(2500);
        let json = serde_json::to_string(&req).unwrap();
        let back: QueryRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);
        let q = back.to_query().unwrap();
        assert!(matches!(q.target, Target::Rel(r) if r == 1e-4));
        assert!(matches!(&q.scope, Scope::Region(r) if r.start == vec![2, 3]));
        assert!(q.strict);
    }

    #[test]
    fn all_targets_round_trip() {
        for target in [
            Target::AbsError(1e-3),
            Target::Rel(1e-5),
            Target::Rmse(1e-4),
            Target::Lossless,
        ] {
            let wire = WireTarget::from(&target);
            let json = serde_json::to_string(&wire).unwrap();
            let back: WireTarget = serde_json::from_str(&json).unwrap();
            assert_eq!(back, wire);
            // Round-tripping through core and back is the identity.
            assert_eq!(WireTarget::from(&back.to_target()), wire);
        }
    }

    #[test]
    fn malformed_scopes_reject_instead_of_panicking() {
        let zero = WireScope::Region {
            start: vec![0, 0],
            extent: vec![4, 0],
        };
        assert!(matches!(zero.to_scope(), Err(MdrError::InvalidQuery(_))));
        let ranks = WireScope::Region {
            start: vec![0],
            extent: vec![4, 4],
        };
        assert!(matches!(ranks.to_scope(), Err(MdrError::InvalidQuery(_))));
        let empty = WireScope::Region {
            start: vec![],
            extent: vec![],
        };
        assert!(matches!(empty.to_scope(), Err(MdrError::InvalidQuery(_))));
    }

    #[test]
    fn reject_codes_cover_the_core_error_taxonomy() {
        assert_eq!(
            reject_code_for(&MdrError::InvalidQuery("x".into())),
            RejectCode::InvalidQuery
        );
        assert_eq!(
            reject_code_for(&MdrError::Unsupported("x".into())),
            RejectCode::Unsupported
        );
        assert_eq!(
            reject_code_for(&MdrError::Unsatisfiable {
                target: 1e-12,
                achieved: 1e-3
            }),
            RejectCode::Unsatisfiable
        );
        assert_eq!(
            reject_code_for(&MdrError::Corrupt("x".into())),
            RejectCode::Internal
        );
    }

    #[test]
    fn payload_codecs_round_trip_and_reject_ragged_lengths() {
        let values = vec![1.5f32, -2.25, 0.0, f32::MIN_POSITIVE];
        let mut bytes = Vec::new();
        f32::write_le(&values, &mut bytes);
        assert_eq!(bytes.len(), values.len() * 4);
        assert_eq!(f32::read_le(&bytes).unwrap(), values);
        assert!(f32::read_le(&bytes[..7]).is_none());

        let values = vec![1.5f64, -2.25, f64::EPSILON];
        let mut bytes = Vec::new();
        f64::write_le(&values, &mut bytes);
        assert_eq!(f64::read_le(&bytes).unwrap(), values);
        assert!(f64::read_le(&bytes[..9]).is_none());

        // `write_le` appends: what `out` already held stays in front.
        let mut framed = vec![0xAAu8, 0xBB];
        f64::write_le(&values, &mut framed);
        assert_eq!(framed[..2], [0xAA, 0xBB]);
        assert_eq!(framed[2..], bytes[..]);

        assert_eq!(dtype_size("f32"), Some(4));
        assert_eq!(dtype_size("f64"), Some(8));
        assert_eq!(dtype_size("i32"), None);
    }
}
