//! Progressive retrieval server conformance.
//!
//! Two batteries:
//!
//! 1. **Bit-identity over the wire** — every servable Target × Scope
//!    combination, against datasets backed by every store flavor
//!    (in-memory, sharded directory, and shards served over loopback
//!    HTTP), streams monotonically tightening frames whose final frame
//!    equals an in-process [`SharedReader::retrieve`] byte for byte.
//! 2. **Abuse** — malformed frames, garbage headers, oversized
//!    declarations, unknown datasets, expired deadlines, and mid-stream
//!    disconnects each produce a *typed* reject frame (or a clean
//!    close), never a panic, hang, or silent wrong answer.

use hpmdr_core::prelude::*;
use hpmdr_netstore::wire;
use hpmdr_netstore::{Frame, FrameLimits, LoopbackShardServer, FRAME_MAGIC};
use hpmdr_server::protocol::kind;
use hpmdr_server::{
    ProgressiveClient, ProgressiveServer, QueryOutcome, QueryRequest, Registry, RejectCode,
    ServerConfig,
};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn field(nx: usize, ny: usize) -> Vec<f32> {
    let mut v = Vec::with_capacity(nx * ny);
    for x in 0..nx {
        for y in 0..ny {
            v.push((x as f32 * 0.17).sin() * 3.0 + (y as f32 * 0.29).cos());
        }
    }
    v
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hpmdr_srv_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn deadline() -> Instant {
    Instant::now() + Duration::from_secs(30)
}

/// Every Target × Scope combination servable on a single-chunk archive
/// (the same battery as `store_conformance.rs`).
fn full_battery(region: Region, level: usize) -> Vec<(&'static str, Query)> {
    let qoi = QoiExpr::Square(Box::new(QoiExpr::Var(0)));
    vec![
        ("abs/full", Query::full(Target::AbsError(1e-3))),
        (
            "abs/region",
            Query::region(Target::AbsError(1e-3), region.clone()),
        ),
        (
            "abs/resolution",
            Query::resolution(Target::AbsError(1e-3), level),
        ),
        ("rel/full", Query::full(Target::Rel(1e-4))),
        (
            "rel/region",
            Query::region(Target::Rel(1e-4), region.clone()),
        ),
        (
            "rel/resolution",
            Query::resolution(Target::Rel(1e-4), level),
        ),
        ("rmse/full", Query::full(Target::Rmse(1e-4))),
        (
            "rmse/region",
            Query::region(Target::Rmse(1e-4), region.clone()),
        ),
        ("lossless/full", Query::full(Target::Lossless)),
        ("lossless/region", Query::region(Target::Lossless, region)),
        (
            "lossless/resolution",
            Query::resolution(Target::Lossless, level),
        ),
        ("qoi/full", Query::full(Target::Qoi(qoi, 1e-3))),
    ]
}

#[test]
fn streamed_answers_are_bit_identical_across_store_flavors_and_the_whole_battery() {
    let shape = [24usize, 20];
    let data = field(shape[0], shape[1]);

    // One archive, three layouts: resident, sharded on disk, and the
    // same shards behind the loopback HTTP tier.
    let mono = Mdr::with_defaults().refactor(&data, &shape).unwrap();
    let chunked = MdrConfig::new()
        .chunked(&shape)
        .build()
        .refactor(&data, &shape)
        .unwrap();
    let shard_dir = scratch("flavors");
    chunked.write_store(&shard_dir).unwrap();
    let http = LoopbackShardServer::serve(&shard_dir).unwrap();

    let reference_reader =
        SharedReader::new(std::sync::Arc::new(InMemoryStore::from(mono.clone())));

    let mut registry = Registry::new();
    registry.register("memory", Box::new(InMemoryStore::from(mono)), 8 << 20);
    registry.register("sharded", open_store(&shard_dir).unwrap(), 8 << 20);
    registry.register(
        "remote",
        open_store(std::path::Path::new(&http.url())).unwrap(),
        8 << 20,
    );
    let server = ProgressiveServer::serve(registry, ServerConfig::default()).unwrap();
    let mut client = ProgressiveClient::connect(server.addr()).unwrap();

    let region = Region::new(&[3, 5], &[14, 9]);
    for (label, query) in full_battery(region, 1) {
        let reference = reference_reader.retrieve::<f32>(&query).unwrap();
        for dataset in ["memory", "sharded", "remote"] {
            let req = QueryRequest::new(dataset, "f32", &query);
            let outcome = client
                .query::<f32>(&req, deadline())
                .unwrap_or_else(|e| panic!("{label} via {dataset}: {e}"));
            let QueryOutcome::Frames(frames) = outcome else {
                panic!("{label} via {dataset}: unexpected reject");
            };
            for pair in frames.windows(2) {
                assert!(
                    pair[1].header.achieved <= pair[0].header.achieved,
                    "{label} via {dataset}: refinement must tighten monotonically \
                     ({} then {})",
                    pair[0].header.achieved,
                    pair[1].header.achieved
                );
            }
            let last = frames.last().unwrap();
            assert!(last.header.is_final, "{label} via {dataset}");
            assert_eq!(
                last.data, reference.data,
                "{label} via {dataset}: final frame must be bit-identical"
            );
            assert_eq!(last.header.shape, reference.shape, "{label} via {dataset}");
            assert_eq!(
                last.header.achieved, reference.achieved,
                "{label} via {dataset}"
            );
            assert_eq!(
                last.header.exhausted, reference.exhausted,
                "{label} via {dataset}"
            );
        }
    }

    // The registry's caches fed every repeat fetch: the remote dataset
    // must show cache traffic rather than re-fetching each query.
    let stats = client.stats(deadline()).unwrap();
    let remote = stats.datasets.iter().find(|d| d.name == "remote").unwrap();
    assert!(remote.hits > 0, "repeat queries must hit the cache");
    assert!(remote.hit_rate > 0.0);

    drop(client);
    drop(server);
    drop(http);
    let _ = std::fs::remove_dir_all(&shard_dir);
}

#[test]
fn f64_archives_stream_bit_identically_too() {
    let shape = [18usize, 14];
    let data: Vec<f64> = (0..shape[0] * shape[1])
        .map(|i| ((i / 14) as f64 * 0.21).sin() * 2.0 + ((i % 14) as f64 * 0.13).cos())
        .collect();
    let cr = hpmdr_core::chunked::refactor_chunked(
        &data,
        &shape,
        &hpmdr_core::chunked::ChunkedConfig::with_extent(&[8, 8]),
    );
    let reference_reader = SharedReader::new(std::sync::Arc::new(InMemoryStore::from(cr.clone())));

    let mut registry = Registry::new();
    registry.register("wide", Box::new(InMemoryStore::from(cr)), 8 << 20);
    let server = ProgressiveServer::serve(registry, ServerConfig::default()).unwrap();
    let mut client = ProgressiveClient::connect(server.addr()).unwrap();

    let query = Query::full(Target::AbsError(1e-6));
    let reference = reference_reader.retrieve::<f64>(&query).unwrap();
    let req = QueryRequest::new("wide", "f64", &query);
    let QueryOutcome::Frames(frames) = client.query::<f64>(&req, deadline()).unwrap() else {
        panic!("expected frames");
    };
    let last = frames.last().unwrap();
    assert!(last.header.is_final);
    assert_eq!(last.data, reference.data);
    assert_eq!(last.header.achieved, reference.achieved);

    // Requesting the wrong width is a typed reject, not a panic.
    let narrow = QueryRequest::new("wide", "f32", &query);
    let QueryOutcome::Rejected(r) = client.query::<f32>(&narrow, deadline()).unwrap() else {
        panic!("expected reject");
    };
    assert_eq!(r.code, RejectCode::InvalidQuery);
}

/// A tiny single-dataset server for the abuse battery.
fn abuse_server(shape: [usize; 2], config: ServerConfig) -> ProgressiveServer {
    let data = field(shape[0], shape[1]);
    let cr = hpmdr_core::chunked::refactor_chunked(
        &data,
        &shape,
        &hpmdr_core::chunked::ChunkedConfig::with_extent(&[8, 8]),
    );
    let mut registry = Registry::new();
    registry.register("field", Box::new(InMemoryStore::from(cr)), 8 << 20);
    ProgressiveServer::serve(registry, config).unwrap()
}

fn read_reject(stream: &mut TcpStream) -> hpmdr_server::RejectHeader {
    let frame = wire::read_frame(stream, &FrameLimits::default(), deadline())
        .unwrap()
        .expect("server must answer before closing");
    assert_eq!(frame.kind, kind::REJECT);
    serde_json::from_slice(&frame.header).unwrap()
}

#[test]
fn garbage_bytes_get_a_typed_malformed_reject_then_a_close() {
    let server = abuse_server([16, 16], ServerConfig::default());
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let reject = read_reject(&mut raw);
    assert_eq!(reject.code, RejectCode::Malformed);
    // The wire is desynced, so the server closes after answering.
    let next = wire::read_frame(&mut raw, &FrameLimits::default(), deadline()).unwrap();
    assert!(
        next.is_none(),
        "connection must close after a framing error"
    );
}

#[test]
fn bad_query_json_rejects_typed_and_keeps_the_connection() {
    let server = abuse_server([16, 16], ServerConfig::default());
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    wire::write_frame(
        &mut raw,
        &Frame::new(kind::QUERY, b"{\"not\": \"a request\"".to_vec()),
        deadline(),
    )
    .unwrap();
    let reject = read_reject(&mut raw);
    assert_eq!(reject.code, RejectCode::Malformed);

    // Framing stayed intact: the same connection serves a real query.
    let mut client = ProgressiveClient::connect(server.addr()).unwrap();
    drop(raw);
    let req = QueryRequest::new("field", "f32", &Query::full(Target::Rel(1e-3)));
    assert!(matches!(
        client.query::<f32>(&req, deadline()).unwrap(),
        QueryOutcome::Frames(_)
    ));
}

#[test]
fn hostile_regions_reject_typed_and_keep_the_connection() {
    let server = abuse_server([16, 16], ServerConfig::default());
    let mut client = ProgressiveClient::connect(server.addr()).unwrap();
    // A corner whose end overflows, one whose extent does, one whose
    // element count does, and one that merely leaves the domain: each is a
    // typed reject, not a panic that closes the connection mid-stream.
    for (start, extent) in [
        ([usize::MAX, 0], [2, 4]),
        ([usize::MAX - 1, 3], [usize::MAX, 1]),
        ([0, 0], [1 << 40, 1 << 40]),
        ([9, 0], [8, 4]),
    ] {
        let region = Region::new(&start, &extent);
        let req = QueryRequest::new("field", "f32", &Query::region(Target::Rel(1e-3), region));
        let QueryOutcome::Rejected(r) = client.query::<f32>(&req, deadline()).unwrap() else {
            panic!("{start:?}+{extent:?}: expected a reject");
        };
        assert_eq!(r.code, RejectCode::InvalidQuery, "{start:?}+{extent:?}");
    }
    // The same connection then serves a valid region.
    let region = Region::new(&[3, 5], &[9, 7]);
    let req = QueryRequest::new("field", "f32", &Query::region(Target::Rel(1e-3), region));
    assert!(matches!(
        client.query::<f32>(&req, deadline()).unwrap(),
        QueryOutcome::Frames(_)
    ));
}

#[test]
fn unusable_qoi_constants_reject_typed_and_keep_the_connection() {
    // A monolithic archive, so a QoI query reaches its control loop.
    let shape = [16usize, 16];
    let artifact = Mdr::with_defaults()
        .refactor(&field(shape[0], shape[1]), &shape)
        .unwrap();
    let mut registry = Registry::new();
    registry.register("mono", Box::new(InMemoryStore::from(artifact)), 8 << 20);
    let server = ProgressiveServer::serve(registry, ServerConfig::default()).unwrap();
    let mut client = ProgressiveClient::connect(server.addr()).unwrap();
    // JSON carries no NaN or infinity, so a hostile floor is the finite
    // one that has no logarithm: zero or negative.
    let ln = |floor| QoiExpr::Ln {
        arg: Box::new(QoiExpr::Var(0)),
        floor,
    };
    for floor in [0.0, -1.0] {
        let query = Query::full(Target::Qoi(ln(floor), 1e-3));
        let req = QueryRequest::new("mono", "f32", &query);
        let QueryOutcome::Rejected(r) = client.query::<f32>(&req, deadline()).unwrap() else {
            panic!("floor {floor}: expected a reject");
        };
        assert_eq!(r.code, RejectCode::InvalidQuery, "floor {floor}");
    }
    // The same connection then serves a positive floor.
    let req = QueryRequest::new("mono", "f32", &Query::full(Target::Qoi(ln(1e-6), 1e-3)));
    assert!(matches!(
        client.query::<f32>(&req, deadline()).unwrap(),
        QueryOutcome::Frames(_)
    ));
}

#[test]
fn oversized_declarations_reject_before_allocation() {
    let server = abuse_server([16, 16], ServerConfig::default());
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    // A hand-built preamble declaring a 1 GiB payload on a request
    // connection whose limit is 4 KiB.
    let mut preamble = Vec::new();
    preamble.push(FRAME_MAGIC);
    preamble.push(kind::QUERY);
    preamble.extend_from_slice(&2u32.to_le_bytes()); // header_len
    preamble.extend_from_slice(&(1u64 << 30).to_le_bytes()); // payload_len
    preamble.extend_from_slice(b"{}");
    raw.write_all(&preamble).unwrap();
    let reject = read_reject(&mut raw);
    assert_eq!(reject.code, RejectCode::Oversized);
}

#[test]
fn unknown_frame_kinds_reject_and_keep_serving() {
    let server = abuse_server([16, 16], ServerConfig::default());
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    wire::write_frame(&mut raw, &Frame::new(99, b"{}".to_vec()), deadline()).unwrap();
    let reject = read_reject(&mut raw);
    assert_eq!(reject.code, RejectCode::Malformed);
    // Keep-alive: a well-formed query still works on this connection.
    let req = QueryRequest::new("field", "f32", &Query::full(Target::Rel(1e-3)));
    let header = serde_json::to_vec(&req).unwrap();
    wire::write_frame(&mut raw, &Frame::new(kind::QUERY, header), deadline()).unwrap();
    let frame = wire::read_frame(&mut raw, &FrameLimits::default(), deadline())
        .unwrap()
        .unwrap();
    assert_eq!(frame.kind, kind::APPROX);
}

#[test]
fn expired_deadlines_produce_a_typed_reject_between_frames() {
    // A large archive at a tight bound: the refinement ladder has many
    // compute-heavy steps, so a 1 ms deadline expires mid-stream and
    // must surface as a typed DeadlineExpired — never a hang or a
    // truncated frame.
    let server = abuse_server([200, 160], ServerConfig::default());
    let mut client = ProgressiveClient::connect(server.addr()).unwrap();
    let req =
        QueryRequest::new("field", "f32", &Query::full(Target::AbsError(1e-7))).with_deadline_ms(1);
    match client.query::<f32>(&req, deadline()).unwrap() {
        QueryOutcome::Rejected(r) => assert_eq!(r.code, RejectCode::DeadlineExpired),
        QueryOutcome::Frames(_) => panic!("a 1 ms deadline cannot finish this stream"),
    }
    // The connection survives: a sane deadline succeeds afterwards.
    let ok = QueryRequest::new("field", "f32", &Query::full(Target::AbsError(1e-2)));
    assert!(matches!(
        client.query::<f32>(&ok, deadline()).unwrap(),
        QueryOutcome::Frames(_)
    ));
}

#[test]
fn mid_stream_disconnects_release_the_budget_and_never_wedge_the_server() {
    let server = abuse_server([64, 64], ServerConfig::default());
    for _ in 0..4 {
        let mut client = ProgressiveClient::connect(server.addr()).unwrap();
        let req = QueryRequest::new("field", "f32", &Query::full(Target::AbsError(1e-6)));
        client.send_query(&req, deadline()).unwrap();
        // Read one frame, then vanish without draining the stream.
        let _ = client
            .next_event::<f32>(deadline())
            .expect("first frame arrives");
        drop(client);
    }
    // The server sheds nothing permanently: once the broken streams
    // die, the budget drains back to zero and fresh queries work.
    let settle = Instant::now() + Duration::from_secs(10);
    while server.admission().in_flight() > 0 {
        assert!(
            Instant::now() < settle,
            "admitted bytes must drain after disconnects, {} still held",
            server.admission().in_flight()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut client = ProgressiveClient::connect(server.addr()).unwrap();
    let req = QueryRequest::new("field", "f32", &Query::full(Target::Rel(1e-3)));
    assert!(matches!(
        client.query::<f32>(&req, deadline()).unwrap(),
        QueryOutcome::Frames(_)
    ));
}

#[test]
fn strict_unsatisfiable_queries_stream_then_reject_typed() {
    let server = abuse_server([30, 22], ServerConfig::default());
    let mut client = ProgressiveClient::connect(server.addr()).unwrap();
    let query = Query::full(Target::AbsError(1e-300)).strict();
    let req = QueryRequest::new("field", "f32", &query);
    client.send_query(&req, deadline()).unwrap();
    let mut saw_frames = 0usize;
    loop {
        match client.next_event::<f32>(deadline()).unwrap() {
            hpmdr_server::ServerEvent::Frame(f) => {
                assert!(!f.header.is_final, "strict+unsatisfiable cannot finalize");
                saw_frames += 1;
            }
            hpmdr_server::ServerEvent::Reject(r) => {
                assert_eq!(r.code, RejectCode::Unsatisfiable);
                break;
            }
        }
    }
    assert!(saw_frames > 0, "best-effort frames precede the reject");
}

#[test]
fn idle_connections_are_closed_after_the_idle_timeout() {
    let server = abuse_server(
        [16, 16],
        ServerConfig {
            idle_timeout: Duration::from_millis(100),
            ..ServerConfig::default()
        },
    );
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    // Say nothing; the server must hang up rather than pin the thread.
    let got = wire::read_frame(&mut raw, &FrameLimits::default(), deadline()).unwrap();
    assert!(got.is_none(), "silent connection must be closed");

    // An overlong read deadline on a half-sent frame also can't wedge
    // the handler: send a preamble, never the body.
    let mut half = TcpStream::connect(server.addr()).unwrap();
    let mut preamble = Vec::new();
    preamble.push(FRAME_MAGIC);
    preamble.push(kind::QUERY);
    preamble.extend_from_slice(&64u32.to_le_bytes());
    preamble.extend_from_slice(&0u64.to_le_bytes());
    half.write_all(&preamble).unwrap();
    if let Ok(Some(frame)) = wire::read_frame(&mut half, &FrameLimits::default(), deadline()) {
        // The read timed out server-side mid-body → Malformed (short
        // body counts as a framing violation) → typed reject. A plain
        // close (Ok(None)/Err) is equally sane.
        assert_eq!(frame.kind, kind::REJECT);
    }
}
