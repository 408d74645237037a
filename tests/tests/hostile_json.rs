//! Hostile JSON, end to end. The one JSON parser reads every QUERY
//! header on the server's connection threads, every chunked
//! `manifest.json` on disk, and the same manifest fetched over HTTP. It
//! must answer deep nesting with a typed error within a fixed recursion
//! depth (never a stack overflow, which aborts the whole process), and
//! parse long strings in time linear in their length.

use hpmdr_core::prelude::*;
use hpmdr_netstore::wire;
use hpmdr_netstore::{Frame, FrameLimits, LoopbackShardServer};
use hpmdr_qoi::QoiExpr;
use hpmdr_server::protocol::kind;
use hpmdr_server::{
    ProgressiveClient, ProgressiveServer, QueryOutcome, QueryRequest, Registry, RejectCode,
    ServerConfig,
};
use serde_json::Value;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The parser's nesting limit (real `serde_json`'s default).
const MAX_DEPTH: usize = 128;

fn field(nx: usize, ny: usize) -> Vec<f32> {
    (0..nx * ny)
        .map(|i| ((i / ny) as f32 * 0.17).sin() * 3.0 + ((i % ny) as f32 * 0.29).cos())
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpmdr_hostile_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn deadline() -> Instant {
    Instant::now() + Duration::from_secs(30)
}

fn nested_arrays(depth: usize) -> String {
    format!("{}{}", "[".repeat(depth), "]".repeat(depth))
}

/// Send `header` as a QUERY frame on `raw` and return the reject code the
/// server answers with.
fn query_reject(raw: &mut TcpStream, header: Vec<u8>) -> RejectCode {
    wire::write_frame(raw, &Frame::new(kind::QUERY, header), deadline()).unwrap();
    let frame = wire::read_frame(raw, &FrameLimits::default(), deadline())
        .unwrap()
        .expect("server must answer before closing");
    assert_eq!(frame.kind, kind::REJECT);
    let reject: hpmdr_server::RejectHeader = serde_json::from_slice(&frame.header).unwrap();
    reject.code
}

#[test]
fn deeply_nested_query_headers_get_a_typed_reject_and_the_server_keeps_serving() {
    let shape = [16usize, 16];
    let cr = hpmdr_core::chunked::refactor_chunked(
        &field(shape[0], shape[1]),
        &shape,
        &hpmdr_core::chunked::ChunkedConfig::with_extent(&[8, 8]),
    );
    let mut registry = Registry::new();
    registry.register("field", Box::new(InMemoryStore::from(cr)), 8 << 20);
    let server = ProgressiveServer::serve(registry, ServerConfig::default()).unwrap();
    let max_header = hpmdr_server::protocol::request_limits().max_header;

    let half = max_header / 2;
    let hostile: [(&str, Vec<u8>); 3] = [
        // 64 KiB of `[`: the whole header is one unterminated nest.
        ("unterminated arrays", vec![b'['; max_header]),
        // Balanced, so well-formed but for its depth.
        ("balanced arrays", nested_arrays(half).into_bytes()),
        // An unterminated chain of objects, the shape a QoI expression
        // nests in.
        (
            "unterminated objects",
            "{\"Square\":".repeat(max_header / 10).into_bytes(),
        ),
    ];
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    for (label, header) in hostile {
        assert!(header.len() <= max_header, "{label}");
        assert_eq!(
            query_reject(&mut raw, header),
            RejectCode::Malformed,
            "{label}"
        );
    }

    // Framing stayed intact: the same connection answers a real query.
    let req = QueryRequest::new("field", "f32", &Query::full(Target::Rel(1e-3)));
    let header = serde_json::to_vec(&req).unwrap();
    wire::write_frame(&mut raw, &Frame::new(kind::QUERY, header), deadline()).unwrap();
    let frame = wire::read_frame(&mut raw, &FrameLimits::default(), deadline())
        .unwrap()
        .unwrap();
    assert_eq!(frame.kind, kind::APPROX);
    drop(raw);

    // And so does a fresh client, end to end.
    let mut client = ProgressiveClient::connect(server.addr()).unwrap();
    assert!(matches!(
        client.query::<f32>(&req, deadline()).unwrap(),
        QueryOutcome::Frames(_)
    ));
}

/// Write a small chunked store, then splice a field nested `depth` levels
/// deep into the front of its manifest.
fn store_with_nested_manifest(tag: &str, depth: usize) -> PathBuf {
    let shape = [24usize, 20];
    let artifact = MdrConfig::new()
        .chunked(&[8, 8])
        .build()
        .refactor(&field(shape[0], shape[1]), &shape)
        .unwrap();
    let dir = scratch(tag);
    artifact.write_store(&dir).unwrap();
    let path = dir.join("manifest.json");
    let manifest = std::fs::read_to_string(&path).unwrap();
    let body = manifest.strip_prefix('{').expect("a manifest is an object");
    std::fs::write(
        &path,
        format!("{{\"padding\":{},{body}", nested_arrays(depth)),
    )
    .unwrap();
    dir
}

#[test]
fn a_manifest_nested_past_the_limit_is_corrupt_locally_and_remotely() {
    // Within the limit the extra field is harmless: the store opens.
    let shallow = store_with_nested_manifest("shallow", 8);
    assert!(open_store(&shallow).is_ok());
    let _ = std::fs::remove_dir_all(&shallow);

    let dir = store_with_nested_manifest("deep", 100_000);
    let err = open_store(&dir).err().unwrap();
    assert!(
        matches!(&err, MdrError::Corrupt(w) if w.contains("recursion limit")),
        "{err}"
    );

    let server = LoopbackShardServer::serve(&dir).unwrap();
    let err = RemoteStore::open_url(&server.url()).err().unwrap();
    assert!(
        matches!(&err, MdrError::Corrupt(w) if w.contains("recursion limit")),
        "{err}"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `depth` nested QoI squares around one variable: `depth + 1` JSON
/// objects.
fn squares(depth: usize) -> QoiExpr {
    (0..depth).fold(QoiExpr::Var(0), |e, _| QoiExpr::Square(Box::new(e)))
}

#[test]
fn the_depth_limit_holds_on_a_small_stack() {
    // 256 KiB, an eighth of a spawned thread's default: the limit, not a
    // generous stack, is what keeps the recursion safe.
    std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(|| {
            let objects =
                |depth: usize| format!("{}0{}", "{\"k\":".repeat(depth), "}".repeat(depth));
            for doc in [nested_arrays(MAX_DEPTH), objects(MAX_DEPTH)] {
                assert!(serde_json::from_str::<Value>(&doc).is_ok());
            }
            for doc in [nested_arrays(MAX_DEPTH + 1), objects(MAX_DEPTH + 1)] {
                let err = serde_json::from_str::<Value>(&doc).unwrap_err();
                assert!(err.to_string().contains("recursion limit"), "{err}");
            }
        })
        .unwrap()
        .join()
        .unwrap();
}

#[test]
fn the_depth_limit_bounds_typed_request_fields() {
    // The derive shim's `Deserialize` recurses once per level as well, in
    // larger frames than the parser's. A QoI expression at the limit
    // decodes on a thread with a connection thread's default stack; one
    // level deeper is refused before any `Box` is built.
    let at_limit = serde_json::to_string(&squares(MAX_DEPTH - 1)).unwrap();
    let past = serde_json::to_string(&squares(MAX_DEPTH)).unwrap();
    std::thread::spawn(move || {
        let back: QoiExpr = serde_json::from_str(&at_limit).unwrap();
        assert_eq!(back, squares(MAX_DEPTH - 1));
        let err = serde_json::from_str::<QoiExpr>(&past).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
    })
    .join()
    .unwrap();
}

/// Parse `json` as a string, returning it and the parse time.
fn timed_string_parse(json: &str) -> (String, Duration) {
    let start = Instant::now();
    let s: String = serde_json::from_str(json).unwrap();
    (s, start.elapsed())
}

#[test]
fn long_strings_parse_in_linear_time() {
    // A quadratic parse takes tens of seconds on a 1 MiB string; a linear
    // one takes milliseconds, even unoptimised.
    let bound = Duration::from_millis(250);

    let ascii = "a".repeat(1 << 20);
    let (s, took) = timed_string_parse(&format!("\"{ascii}\""));
    assert_eq!(s, ascii);
    assert!(took < bound, "1 MiB ASCII string took {took:?}");

    // Two-, three- and four-byte characters, copied byte-exact.
    let multibyte = "é€😀".repeat((1 << 20) / 9);
    let (s, took) = timed_string_parse(&format!("\"{multibyte}\""));
    assert_eq!(s.as_bytes(), multibyte.as_bytes());
    assert!(took < bound, "1 MiB multi-byte string took {took:?}");

    // Every escape form, including a surrogate pair, between plain runs.
    let unit = |hex: &str| format!("\\u{hex}");
    let escaped = format!(
        "x\\\"\\\\\\/\\b\\f\\n\\r\\t{}{}{}{}y",
        unit("0041"),
        unit("00e9"),
        unit("D83D"),
        unit("DE00")
    );
    let expected = "x\"\\/\u{8}\u{c}\n\r\tA\u{e9}\u{1F600}y";
    let reps = (1 << 20) / escaped.len();
    let (s, took) = timed_string_parse(&format!("\"{}\"", escaped.repeat(reps)));
    assert_eq!(s.as_bytes(), expected.repeat(reps).as_bytes());
    assert!(took < bound, "1 MiB escape-heavy string took {took:?}");
}
