//! Progressive retrieval over the network: write a sharded store,
//! serve it over loopback HTTP, and open it **by URL** — `open_store`
//! (and `Mdr::open_shared`) accept `http://…` the same way they accept
//! a directory path. Behind the URL sits `RemoteStore`: the manifest is
//! fetched once at open, every unit run a query misses in the
//! `CachedStore` tier in front becomes one `Range:` request against its
//! shard — exactly the range reads the same reader makes on the
//! directory itself — and a repeated query never reaches the network
//! at all.
//!
//! Run with `cargo run -p hpmdr-examples --release --bin remote_retrieval`.

use hpmdr_core::prelude::*;
use hpmdr_datasets::{Dataset, DatasetKind};
use hpmdr_examples::{human_bytes, linf_f32};
use hpmdr_netstore::LoopbackShardServer;
use std::path::Path;

fn main() {
    // A fixed-seed turbulence volume, refactored into a sharded store.
    let shape = vec![48usize, 48, 48];
    let ds = Dataset::generate_with_shape(DatasetKind::Jhtdb, &shape, 21);
    let data = ds.variables[0].as_f32();
    let mdr = MdrConfig::new().chunked(&[16, 16, 16]).build();
    let artifact = mdr.refactor(&data, &shape).expect("finite input");
    let dir = std::env::temp_dir().join(format!("hpmdr_remote_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    artifact.write_store(&dir).expect("store writes");

    // Put the store behind HTTP. In production this is an object store
    // or a static file server; here it is the in-process loopback
    // server the tests and benches use.
    let server = LoopbackShardServer::serve(&dir).expect("server starts");
    let url = server.url();
    println!(
        "serving {} of shards at {url}\n",
        human_bytes(artifact.total_bytes())
    );

    // Open by URL: two-tier hierarchy, memory cache over the network.
    // Beside it, the same hierarchy over the directory itself.
    let reader = mdr
        .open_shared(Path::new(&url))
        .expect("remote store opens");
    let local = mdr.open_shared(&dir).expect("store opens");

    // Progressive refinement: each tighter tolerance fetches only the
    // *additional* unit suffixes it needs — never re-reads a byte. The
    // network tier changes neither the answer nor the request count.
    println!(
        "{:>10}  {:>12}  {:>10}  {:>10}",
        "tolerance", "max error", "fetched", "requests"
    );
    for rel in [1e-1f64, 1e-3, 1e-5] {
        let q = Query::full(Target::Rel(rel));
        let (before, local_before) = (reader.store().requests(), local.store().requests());
        let approx = reader.retrieve::<f32>(&q).expect("query serves");
        let want = local.retrieve::<f32>(&q).expect("query serves");
        let requests = reader.store().requests() - before;
        assert_eq!(approx, want, "remote answers are bit-identical");
        assert_eq!(
            requests,
            local.store().requests() - local_before,
            "a remote query issues exactly the local reader's range reads"
        );
        println!(
            "{rel:>10.0e}  {:>12.3e}  {:>10}  {:>10}",
            linf_f32(&approx.data, &data),
            human_bytes(approx.bytes_fetched),
            requests,
        );
    }

    // Warm re-query: the tightest answer again, entirely from cache.
    let before = reader.store().requests();
    let warm = reader
        .retrieve::<f32>(&Query::full(Target::Rel(1e-5)))
        .expect("query serves");
    let warm_requests = reader.store().requests() - before;
    assert_eq!(warm_requests, 0, "warm re-query must not reach the network");
    assert_eq!(warm.bytes_fetched, 0);

    // And a plain local reader over the same directory reconstructs
    // identical bytes.
    let want = Reader::new(&ChunkedStoreReader::open(&dir).expect("store opens"))
        .retrieve::<f32>(&Query::full(Target::Rel(1e-5)))
        .expect("query serves");
    assert_eq!(warm.data, want.data, "remote answers are bit-identical");

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "\nevery query: the local reader's requests; warm re-query: 0 requests, 0 bytes — \
         and bit-identical to a local read"
    );
}
