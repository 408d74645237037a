//! The progressive retrieval server: accept loop, per-connection
//! protocol handling, and the query → refinement-stream pipeline.
//!
//! One thread accepts connections (netstore's [`Acceptor`], shared with
//! the loopback shard server); each connection gets a thread that reads
//! request frames in a loop (keep-alive). A query runs through:
//! parse → registry lookup → admission (byte-weighted, non-blocking)
//! → an [`ApproximationStream`] whose frames are written back as they
//! are produced. Every failure is answered with a typed reject frame;
//! the connection is closed only when the wire itself is desynced
//! (framing violation, mid-frame write failure) or the peer goes away.
//!
//! [`ApproximationStream`]: hpmdr_core::prelude::ApproximationStream

use crate::admission::Admission;
use crate::protocol::{
    self, kind, ApproxHeader, QueryRequest, RejectCode, RejectHeader, StatsReply, WireFloat,
};
use crate::registry::Registry;
use hpmdr_bitplane::BitplaneFloat;
use hpmdr_core::chunked::ChunkedRefactored;
use hpmdr_core::prelude::{
    ApproximationStream, Backend, CpuBackend, Query, Scope, SharedReader, Store,
};
use hpmdr_mgard::Real;
use hpmdr_netstore::wire::{self, WireError};
use hpmdr_netstore::{Acceptor, Frame, ShutdownLatch};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs of a [`ProgressiveServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; port `0` picks a free one.
    pub listen: String,
    /// Admission budget: estimated response bytes allowed in flight at
    /// once. Size it like a cache budget — it bounds peak memory for
    /// reconstruction buffers the same way `CachedStore`'s budget
    /// bounds resident payload bytes.
    pub inflight_budget: usize,
    /// Deadline applied when a request asks for none (`deadline_ms ==
    /// 0`).
    pub default_deadline: Duration,
    /// Upper clamp on requested deadlines.
    pub max_deadline: Duration,
    /// How long an idle keep-alive connection may sit between requests.
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            inflight_budget: 256 << 20,
            default_deadline: Duration::from_secs(30),
            max_deadline: Duration::from_secs(120),
            idle_timeout: Duration::from_secs(30),
        }
    }
}

/// Rejects must get out even when the request's own deadline is the
/// thing being reported.
const REJECT_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

struct ServerState {
    registry: Registry,
    admission: Admission,
    default_deadline: Duration,
    max_deadline: Duration,
    idle_timeout: Duration,
    served_frames: AtomicU64,
}

impl ServerState {
    fn stats_reply(&self) -> StatsReply {
        StatsReply {
            datasets: self.registry.stats(),
            inflight_bytes: self.admission.in_flight(),
            budget_bytes: self.admission.budget(),
            accepted: self.admission.accepted(),
            shed: self.admission.shed(),
            // ORDERING: statistics snapshot; staleness is acceptable.
            served_frames: self.served_frames.load(Ordering::Relaxed),
        }
    }
}

/// A running progressive retrieval server; dropping it (or calling
/// [`shutdown`](Self::shutdown)) stops the accept loop.
pub struct ProgressiveServer {
    state: Arc<ServerState>,
    acceptor: Acceptor,
}

impl ProgressiveServer {
    /// Serve `registry` per `config`.
    pub fn serve(registry: Registry, config: ServerConfig) -> std::io::Result<ProgressiveServer> {
        let listener = TcpListener::bind(config.listen.as_str())?;
        let state = Arc::new(ServerState {
            registry,
            admission: Admission::new(config.inflight_budget),
            default_deadline: config.default_deadline,
            max_deadline: config.max_deadline,
            idle_timeout: config.idle_timeout,
            served_frames: AtomicU64::new(0),
        });
        let conn_state = Arc::clone(&state);
        let acceptor = Acceptor::spawn(listener, move |stream, shutdown| {
            serve_connection(stream, &conn_state, shutdown)
        })?;
        Ok(ProgressiveServer { state, acceptor })
    }

    /// The bound address (with the actual port when `0` was asked).
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// The admission gate (for counters, or for tests that pre-occupy
    /// the budget).
    pub fn admission(&self) -> &Admission {
        &self.state.admission
    }

    /// Approximation frames written since the server started.
    pub fn served_frames(&self) -> u64 {
        // ORDERING: monotone statistics read; no ordering with other data.
        self.state.served_frames.load(Ordering::Relaxed)
    }

    /// The same snapshot a STATS request returns, without a connection.
    pub fn stats(&self) -> StatsReply {
        self.state.stats_reply()
    }

    /// Block until the server is shut down (for the CLI binary).
    pub fn wait(&mut self) {
        self.acceptor.wait();
    }

    /// Stop accepting connections. In-flight streams finish; idle
    /// keep-alive connections close at their next request.
    pub fn shutdown(&mut self) {
        self.acceptor.shutdown();
    }
}

/// Write a typed reject frame; failure to deliver it is the caller's
/// signal to close.
fn send_reject(
    stream: &mut TcpStream,
    code: RejectCode,
    message: impl Into<String>,
) -> Result<(), WireError> {
    let header = RejectHeader {
        code,
        message: message.into(),
    };
    let bytes = serde_json::to_vec(&header)
        .map_err(|e| WireError::Malformed(format!("encode reject: {e}")))?;
    wire::write_frame(
        stream,
        &Frame::new(kind::REJECT, bytes),
        Instant::now() + REJECT_WRITE_TIMEOUT,
    )
}

/// Close a desynced connection without losing the reject just written:
/// closing with unread bytes in the receive buffer turns into a TCP
/// reset that can destroy in-flight data, so signal end-of-stream and
/// drain (briefly) what the peer already sent first.
fn close_gently(stream: &mut TcpStream) {
    use std::io::Read;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut scrap = [0u8; 4096];
    for _ in 0..64 {
        match stream.read(&mut scrap) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Serve keep-alive requests on one connection until it closes, the
/// wire desyncs, or shutdown is flagged.
fn serve_connection(mut stream: TcpStream, state: &ServerState, shutdown: &ShutdownLatch) {
    let _ = stream.set_nodelay(true);
    let limits = protocol::request_limits();
    loop {
        if shutdown.is_set() {
            return;
        }
        let idle_deadline = Instant::now() + state.idle_timeout;
        let frame = match wire::read_frame(&mut stream, &limits, idle_deadline) {
            Ok(None) => return, // clean close
            Ok(Some(f)) => f,
            Err(WireError::Malformed(m)) => {
                // The byte stream is desynced: answer typed, then close.
                let _ = send_reject(&mut stream, RejectCode::Malformed, m);
                close_gently(&mut stream);
                return;
            }
            Err(WireError::Oversized { declared, limit }) => {
                let _ = send_reject(
                    &mut stream,
                    RejectCode::Oversized,
                    format!("declared {declared} B exceeds the {limit} B request limit"),
                );
                close_gently(&mut stream);
                return;
            }
            // Idle too long, or the transport failed.
            Err(_) => return,
        };
        let keep = match frame.kind {
            kind::QUERY => handle_query(&mut stream, state, &frame),
            kind::STATS => handle_stats(&mut stream, state),
            other => send_reject(
                &mut stream,
                RejectCode::Malformed,
                format!("unknown frame kind {other}"),
            )
            .is_ok(),
        };
        if !keep {
            return;
        }
    }
}

fn handle_stats(stream: &mut TcpStream, state: &ServerState) -> bool {
    let reply = state.stats_reply();
    let Ok(bytes) = serde_json::to_vec(&reply) else {
        return false;
    };
    wire::write_frame(
        stream,
        &Frame::new(kind::STATS_REPLY, bytes),
        Instant::now() + REJECT_WRITE_TIMEOUT,
    )
    .is_ok()
}

/// Estimated dense response size of `scope` — the admission weight. A
/// deliberate over-estimate for multi-frame streams (each frame is at
/// most this large), which is the right bias for a load shedder.
fn estimate_response_bytes(meta: &ChunkedRefactored, scope: &Scope, elem_size: usize) -> usize {
    let elems: usize = match scope {
        Scope::Full => meta.grid.shape.iter().product(),
        Scope::Region(r) => r.len(),
        Scope::Resolution(level) => {
            let shift = (*level).min(usize::BITS as usize - 1);
            meta.grid
                .shape
                .iter()
                .map(|&s| (s >> shift).max(1))
                .product()
        }
    };
    elems.saturating_mul(elem_size).max(1)
}

/// Returns whether the connection is still usable for the next request.
fn handle_query(stream: &mut TcpStream, state: &ServerState, frame: &Frame) -> bool {
    let req: QueryRequest = match serde_json::from_slice(&frame.header) {
        Ok(r) => r,
        Err(e) => {
            // Framing was intact — only the header JSON is bad — so the
            // connection can keep serving after the typed answer.
            return send_reject(stream, RejectCode::Malformed, format!("query header: {e}"))
                .is_ok();
        }
    };
    let requested = if req.deadline_ms == 0 {
        state.default_deadline
    } else {
        Duration::from_millis(req.deadline_ms)
    };
    let deadline = Instant::now() + requested.min(state.max_deadline);

    let Some(entry) = state.registry.get(&req.dataset) else {
        return send_reject(
            stream,
            RejectCode::UnknownDataset,
            format!("no dataset `{}`", req.dataset),
        )
        .is_ok();
    };
    let Some(elem_size) = protocol::dtype_size(&req.dtype) else {
        return send_reject(
            stream,
            RejectCode::InvalidQuery,
            format!("unknown dtype `{}`", req.dtype),
        )
        .is_ok();
    };
    let query = match req.to_query() {
        Ok(q) => q,
        Err(e) => return send_reject(stream, protocol::reject_code_for(&e), e.to_string()).is_ok(),
    };

    let estimate = estimate_response_bytes(entry.meta(), &query.scope, elem_size);
    let Some(permit) = state.admission.try_admit(estimate) else {
        return send_reject(
            stream,
            RejectCode::OverBudget,
            format!(
                "estimated {estimate} B response over the in-flight budget ({} of {} B admitted)",
                state.admission.in_flight(),
                state.admission.budget()
            ),
        )
        .is_ok();
    };

    let store: Arc<dyn Store> = entry;
    let keep = match req.dtype.as_str() {
        "f32" => stream_query::<f32>(stream, state, store, &query, deadline),
        "f64" => stream_query::<f64>(stream, state, store, &query, deadline),
        // dtype_size admitted only f32/f64 above; if that ever drifts,
        // reject the query — the server must not panic on request data.
        other => send_reject(
            stream,
            RejectCode::InvalidQuery,
            format!("unsupported dtype {other:?}"),
        )
        .is_ok(),
    };
    drop(permit);
    keep
}

/// Run one admitted query as a refinement stream; returns keep-alive.
fn stream_query<F: BitplaneFloat + Real + Default + WireFloat>(
    stream: &mut TcpStream,
    state: &ServerState,
    store: Arc<dyn Store>,
    query: &Query,
    deadline: Instant,
) -> bool {
    let backend = CpuBackend::new();
    let mut approx = match SharedReader::with_backend(store, backend).stream::<F>(query) {
        Ok(s) => s,
        Err(e) => return send_reject(stream, protocol::reject_code_for(&e), e.to_string()).is_ok(),
    };
    // The stream holds one core of the process's budget from its first
    // frame to its last write, so a frame fans only onto a core that no
    // other stream's frames or wire writes occupy.
    backend.install(|| send_frames(stream, state, &mut approx, deadline))
}

/// Send `approx`'s frames up to the final one; returns keep-alive.
fn send_frames<F: BitplaneFloat + Real + Default + WireFloat>(
    stream: &mut TcpStream,
    state: &ServerState,
    approx: &mut ApproximationStream<F>,
    deadline: Instant,
) -> bool {
    loop {
        // Checked between frames: an expired request gets a typed
        // answer while the wire is still frame-aligned.
        if Instant::now() >= deadline {
            return send_reject(
                stream,
                RejectCode::DeadlineExpired,
                "deadline expired mid-stream",
            )
            .is_ok();
        }
        match approx.refine_next() {
            Ok(Some(frame)) => {
                let header = ApproxHeader {
                    step: frame.step,
                    is_final: frame.is_final,
                    achieved: frame.approximation.achieved,
                    exhausted: frame.approximation.exhausted,
                    shape: frame.approximation.shape.clone(),
                    dtype: F::DTYPE.to_string(),
                    bytes_fetched: frame.approximation.bytes_fetched,
                };
                let Ok(header_bytes) = serde_json::to_vec(&header) else {
                    return false;
                };
                let mut payload = Vec::new();
                F::write_le(&frame.approximation.data, &mut payload);
                // Counted before the write so a client that has drained
                // the stream never observes a lagging counter.
                // ORDERING: statistics counter, guards nothing.
                state.served_frames.fetch_add(1, Ordering::Relaxed);
                // Frames are atomic: once a write starts it gets a
                // bounded grace past the request deadline, so expiry is
                // always reported *between* frames as a typed reject
                // instead of desyncing the wire mid-frame.
                let write_deadline = deadline.max(Instant::now() + REJECT_WRITE_TIMEOUT);
                if wire::write_frame(
                    stream,
                    &Frame::with_payload(kind::APPROX, header_bytes, payload),
                    write_deadline,
                )
                .is_err()
                {
                    // A failed frame write (peer gone, or deadline hit
                    // mid-frame) leaves the wire desynced: close.
                    return false;
                }
                if frame.is_final {
                    return true;
                }
            }
            Ok(None) => return true,
            Err(e) => {
                return send_reject(stream, protocol::reject_code_for(&e), e.to_string()).is_ok()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ProgressiveClient, QueryOutcome};
    use crate::test_util::chunked;
    use hpmdr_core::prelude::{InMemoryStore, Target};

    fn test_server(budget: usize) -> (ProgressiveServer, SharedReader) {
        let data: Vec<f32> = (0..30 * 22)
            .map(|i| ((i / 22) as f32 * 0.21).sin() * 3.0 + ((i % 22) as f32 * 0.17).cos())
            .collect();
        let cr = chunked(&data, &[30, 22], &[8, 8]);
        let reader = SharedReader::new(Arc::new(InMemoryStore::from(cr.clone())));
        let mut registry = Registry::new();
        registry.register("field", Box::new(InMemoryStore::from(cr)), 1 << 20);
        let server = ProgressiveServer::serve(
            registry,
            ServerConfig {
                inflight_budget: budget,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        (server, reader)
    }

    fn deadline() -> Instant {
        Instant::now() + Duration::from_secs(10)
    }

    #[test]
    fn streamed_query_tightens_and_ends_bit_identical_to_in_process_retrieve() {
        let (server, reader) = test_server(256 << 20);
        let query = Query::full(Target::AbsError(1e-4));
        let oneshot = reader.retrieve::<f32>(&query).unwrap();

        let mut client = ProgressiveClient::connect(server.addr()).unwrap();
        let req = QueryRequest::new("field", "f32", &query);
        let QueryOutcome::Frames(frames) = client.query::<f32>(&req, deadline()).unwrap() else {
            panic!("expected frames");
        };
        assert!(frames.len() > 1, "progressive stream has multiple frames");
        for pair in frames.windows(2) {
            assert!(pair[1].header.achieved <= pair[0].header.achieved);
        }
        let last = frames.last().unwrap();
        assert!(last.header.is_final);
        assert_eq!(last.data, oneshot.data, "final frame is bit-identical");
        assert_eq!(last.header.shape, oneshot.shape);
        assert_eq!(last.header.achieved, oneshot.achieved);
        assert_eq!(last.header.exhausted, oneshot.exhausted);
        assert_eq!(server.served_frames(), frames.len() as u64);
    }

    #[test]
    fn unknown_dataset_rejects_and_the_connection_stays_usable() {
        let (server, _reader) = test_server(256 << 20);
        let mut client = ProgressiveClient::connect(server.addr()).unwrap();
        let query = Query::full(Target::Rel(1e-3));
        let bad = QueryRequest::new("nope", "f32", &query);
        let QueryOutcome::Rejected(reject) = client.query::<f32>(&bad, deadline()).unwrap() else {
            panic!("expected reject");
        };
        assert_eq!(reject.code, RejectCode::UnknownDataset);
        // Same connection serves the corrected request.
        let good = QueryRequest::new("field", "f32", &query);
        assert!(matches!(
            client.query::<f32>(&good, deadline()).unwrap(),
            QueryOutcome::Frames(_)
        ));
    }

    #[test]
    fn bad_dtype_and_invalid_query_reject_typed() {
        let (server, _reader) = test_server(256 << 20);
        let mut client = ProgressiveClient::connect(server.addr()).unwrap();
        let query = Query::full(Target::Rel(1e-3));
        let wrong_width = QueryRequest::new("field", "f64", &query);
        let QueryOutcome::Rejected(r) = client.query::<f64>(&wrong_width, deadline()).unwrap()
        else {
            panic!("expected reject");
        };
        assert_eq!(r.code, RejectCode::InvalidQuery);

        let negative = QueryRequest::new("field", "f32", &Query::full(Target::AbsError(-1.0)));
        let QueryOutcome::Rejected(r) = client.query::<f32>(&negative, deadline()).unwrap() else {
            panic!("expected reject");
        };
        assert_eq!(r.code, RejectCode::InvalidQuery);
    }

    #[test]
    fn full_budget_sheds_with_a_typed_overbudget_reject() {
        let (server, _reader) = test_server(64);
        // Pre-occupy the gate so the next estimate cannot fit.
        let hold = server.admission().try_admit(1).unwrap();
        let mut client = ProgressiveClient::connect(server.addr()).unwrap();
        let req = QueryRequest::new("field", "f32", &Query::full(Target::Rel(1e-3)));
        let QueryOutcome::Rejected(r) = client.query::<f32>(&req, deadline()).unwrap() else {
            panic!("expected shed");
        };
        assert_eq!(r.code, RejectCode::OverBudget);
        assert_eq!(server.admission().shed(), 1);
        drop(hold);
        // Budget released: the oversized request now admits (idle gate).
        assert!(matches!(
            client.query::<f32>(&req, deadline()).unwrap(),
            QueryOutcome::Frames(_)
        ));
    }

    #[test]
    fn stats_report_datasets_cache_and_admission_counters() {
        let (server, _reader) = test_server(256 << 20);
        let mut client = ProgressiveClient::connect(server.addr()).unwrap();
        let req = QueryRequest::new("field", "f32", &Query::full(Target::Rel(1e-3)));
        let _ = client.query::<f32>(&req, deadline()).unwrap();
        let stats = client.stats(deadline()).unwrap();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.inflight_bytes, 0, "permit released after stream");
        assert_eq!(stats.datasets.len(), 1);
        let ds = &stats.datasets[0];
        assert_eq!(ds.name, "field");
        assert!(ds.bytes_fetched > 0);
        assert!(ds.misses > 0, "cold cache pays the backing store");
        // A repeat of the same query is served from cache.
        let _ = client.query::<f32>(&req, deadline()).unwrap();
        let again = client.stats(deadline()).unwrap();
        assert_eq!(
            again.datasets[0].bytes_fetched, ds.bytes_fetched,
            "warm repeat fetches nothing new"
        );
        assert!(again.datasets[0].hit_rate > 0.0);
    }
}
