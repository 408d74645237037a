//! Serving many clients from one archive: `Mdr::open_shared` opens a
//! sharded store behind a byte-budgeted `CachedStore` and returns a
//! `Reader` that shares it — clone it into as many client threads as you
//! like. Repeated and overlapping region queries are served from
//! the shared cache (the backing store is read at most once per byte),
//! and answers are byte-identical to a serial reader's.
//!
//! Run with `cargo run -p hpmdr-examples --release --bin concurrent_clients`.

use hpmdr_core::prelude::*;
use hpmdr_datasets::{uniform_queries, Dataset, DatasetKind};
use hpmdr_examples::human_bytes;
use std::time::Instant;

const CLIENTS: usize = 4;
const ROUNDS: usize = 3;

fn main() {
    let shape = vec![48usize, 48, 48];
    let ds = Dataset::generate_with_shape(DatasetKind::Jhtdb, &shape, 13);
    let data = ds.variables[0].as_f32();

    let mdr = MdrConfig::new().chunked(&[16, 16, 16]).build();
    let artifact = mdr.refactor(&data, &shape).expect("finite input");
    let dir = std::env::temp_dir().join(format!("hpmdr_concurrent_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    artifact.write_store(&dir).expect("store writes");
    println!(
        "sharded store: {} chunks, {} compressed",
        artifact.as_chunked().expect("chunked").grid.num_chunks(),
        human_bytes(artifact.total_bytes()),
    );

    // Every client issues the same mix of overlapping hotspot regions —
    // the workload a shared cache exists for.
    let rel = 1e-3;
    let queries: Vec<Query> = uniform_queries(&shape, 0.05, 6, 29)
        .iter()
        .map(|q| Query::region(Target::Rel(rel), Region::new(&q.start, &q.extent)))
        .collect();

    // Serial reference: one uncached reader, one pass.
    let serial_store = ChunkedStoreReader::open(&dir).expect("store opens");
    let serial: Vec<Approximation<f32>> = {
        let reader = Reader::new(&serial_store);
        queries
            .iter()
            .map(|q| reader.retrieve::<f32>(q).expect("query serves"))
            .collect()
    };
    let serial_bytes = serial_store.bytes_read();

    // Shared service: open_shared = open_store + CachedStore + Arc.
    let reader = mdr.open_shared(&dir).expect("store opens");
    let t = Instant::now();
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let client = reader.clone();
            let queries = &queries;
            let serial = &serial;
            s.spawn(move || {
                for round in 0..ROUNDS {
                    for (q, want) in queries.iter().zip(serial) {
                        let got = client.retrieve::<f32>(q).expect("query serves");
                        assert_eq!(
                            got.data, want.data,
                            "client {c} round {round}: answers must be byte-identical"
                        );
                    }
                }
            });
        }
    });
    let wall = t.elapsed().as_secs_f64();

    let total_queries = CLIENTS * ROUNDS * queries.len();
    let backing = reader.store().bytes_fetched();
    println!(
        "{CLIENTS} clients x {ROUNDS} rounds x {} queries = {total_queries} served in {:.1} ms \
         ({:.0} queries/s)",
        queries.len(),
        wall * 1e3,
        total_queries as f64 / wall,
    );
    println!(
        "backing-store reads: {} total (one serial pass costs {}); \
         {}x the traffic, {:.1}% of the bytes",
        human_bytes(backing),
        human_bytes(serial_bytes),
        CLIENTS * ROUNDS,
        100.0 * backing as f64
            / (total_queries as f64 / queries.len() as f64 * serial_bytes as f64),
    );
    assert!(
        backing <= serial_bytes,
        "the cache must not fetch more than one serial pass"
    );

    let _ = std::fs::remove_dir_all(&dir);
    println!("\nevery client saw the serial answers; no byte was fetched twice");
}
