//! The progressive retrieval server, end to end: register two archives
//! in a `Registry`, serve them over the length-prefixed TCP protocol,
//! and refine a query **frame by frame** from a `ProgressiveClient` —
//! each frame tightens the achieved bound, the final one is
//! bit-identical to an in-process `Reader::retrieve`. A short
//! burst of concurrent clients then drives the admission gate under
//! smoke load and asserts (via a wire STATS request) that nothing was
//! shed, and a deliberately unknown dataset shows refusals arriving as
//! typed reject frames on a connection that keeps serving.
//!
//! Run with `cargo run -p hpmdr-examples --release --bin progressive_client`.

use hpmdr_core::prelude::*;
use hpmdr_datasets::{Dataset, DatasetKind};
use hpmdr_examples::{human_bytes, linf_f32};
use hpmdr_server::{
    ProgressiveClient, ProgressiveServer, QueryOutcome, QueryRequest, Registry, RejectCode,
    ServerConfig, ServerEvent,
};
use std::time::{Duration, Instant};

fn deadline() -> Instant {
    Instant::now() + Duration::from_secs(30)
}

fn main() {
    // Two fixed-seed volumes, refactored and registered by name — the
    // server multiplexes any number of archives on one port.
    let shape = vec![48usize, 48, 48];
    let mdr = MdrConfig::new().chunked(&[16, 16, 16]).build();
    let mut registry = Registry::new();
    let mut fields = Vec::new();
    for (name, seed) in [("turbulence", 21u64), ("climate", 7)] {
        let ds = Dataset::generate_with_shape(DatasetKind::Jhtdb, &shape, seed);
        let data = ds.variables[0].as_f32();
        let artifact = mdr.refactor(&data, &shape).expect("finite input");
        let Artifact::Chunked(cr) = artifact else {
            panic!("chunked config produces a chunked artifact");
        };
        registry.register(name, Box::new(InMemoryStore::from(cr.clone())), 16 << 20);
        fields.push((name, data, cr));
    }
    let server = ProgressiveServer::serve(registry, ServerConfig::default()).expect("server binds");
    println!("progressive server on {}\n", server.addr());

    // Stream one query frame by frame: the coarse approximation arrives
    // first and every refinement delta tightens the guaranteed bound.
    let (name, data, cr) = &fields[0];
    let query = Query::full(Target::Rel(1e-5));
    let req = QueryRequest::new(*name, "f32", &query);
    let mut client = ProgressiveClient::connect(server.addr()).expect("client connects");
    client.send_query(&req, deadline()).expect("query sends");
    println!(
        "{:>5}  {:>12}  {:>12}  {:>12}",
        "frame", "bound", "max error", "fetched"
    );
    let last = loop {
        match client.next_event::<f32>(deadline()).expect("stream holds") {
            ServerEvent::Reject(r) => panic!("unexpected reject: {:?}: {}", r.code, r.message),
            ServerEvent::Frame(f) => {
                println!(
                    "{:>5}  {:>12.3e}  {:>12.3e}  {:>12}",
                    f.header.step,
                    f.header.achieved,
                    linf_f32(&f.data, data),
                    human_bytes(f.header.bytes_fetched),
                );
                if f.header.is_final {
                    break f;
                }
            }
        }
    };

    // The final frame is bit-identical to serving the same query
    // in-process, straight off the shared reader.
    let local = Reader::new(std::sync::Arc::new(InMemoryStore::from(cr.clone())));
    let want = local.retrieve::<f32>(&query).expect("query serves");
    assert_eq!(last.data, want.data, "final frame is bit-identical");
    assert_eq!(last.header.achieved, want.achieved);

    // Refusals are typed frames, not dropped connections: the same
    // client asks for a dataset that does not exist, reads the reject,
    // and keeps using the connection.
    let bad = QueryRequest::new("no-such-dataset", "f32", &query);
    let QueryOutcome::Rejected(reject) = client.query::<f32>(&bad, deadline()).expect("transport")
    else {
        panic!("expected a typed reject");
    };
    assert_eq!(reject.code, RejectCode::UnknownDataset);
    println!("\nunknown dataset -> typed reject: {}", reject.message);

    // Smoke load: a handful of concurrent clients replaying overlapping
    // ROI streams against both datasets. The in-flight budget dwarfs
    // the estimates, so the admission gate must shed nothing.
    let queries: Vec<QueryRequest> = fields
        .iter()
        .flat_map(|(name, _, _)| {
            (0..4).map(|i| {
                let q = Query::region(Target::Rel(1e-3), Region::new(&[i * 8; 3], &[16; 3]));
                QueryRequest::new(*name, "f32", &q)
            })
        })
        .collect();
    std::thread::scope(|s| {
        for _ in 0..4 {
            let queries = &queries;
            let addr = server.addr();
            s.spawn(move || {
                let mut c = ProgressiveClient::connect(addr).expect("client connects");
                for req in queries {
                    let QueryOutcome::Frames(frames) =
                        c.query::<f32>(req, deadline()).expect("transport")
                    else {
                        panic!("smoke load must be served, not shed");
                    };
                    assert!(frames.last().is_some_and(|f| f.header.is_final));
                }
            });
        }
    });

    // The wire STATS frame reports registry, cache, and admission
    // counters — the smoke run must show zero shed requests. A permit
    // is released a beat after its final frame reaches the client, so
    // poll the in-flight gauge down instead of trusting one snapshot.
    let mut stats = client.stats(deadline()).expect("stats round-trip");
    let settle = Instant::now() + Duration::from_secs(5);
    while stats.inflight_bytes > 0 && Instant::now() < settle {
        std::thread::sleep(Duration::from_millis(10));
        stats = client.stats(deadline()).expect("stats round-trip");
    }
    assert_eq!(stats.shed, 0, "smoke load must not shed");
    assert_eq!(stats.inflight_bytes, 0, "all permits released");
    println!(
        "\nsmoke load: {} accepted, {} shed, {} frames served",
        stats.accepted, stats.shed, stats.served_frames
    );
    for ds in &stats.datasets {
        println!(
            "  {:>12}: {} fetched, cache hit rate {:.0}%",
            ds.name,
            human_bytes(ds.bytes_fetched),
            ds.hit_rate * 100.0
        );
    }
    println!("\nshed-rate 0 under smoke load; final frame bit-identical to in-process retrieve");
}
