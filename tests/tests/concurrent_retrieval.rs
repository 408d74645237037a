//! Concurrent retrieval: N client threads hammering one [`SharedReader`]
//! with a mixed `Target` × `Scope` battery must get answers, achieved
//! bounds, and byte accounting identical to a serial reader — and a
//! [`CachedStore`] must never re-read a byte it already holds
//! (accounting-based assertions, no timing).

use hpmdr_core::prelude::*;
use std::sync::Arc;

const CLIENTS: usize = 4;

fn field(nx: usize, ny: usize) -> Vec<f32> {
    let mut v = Vec::with_capacity(nx * ny);
    for x in 0..nx {
        for y in 0..ny {
            v.push((x as f32 * 0.23).sin() * 2.5 + (y as f32 * 0.31).cos());
        }
    }
    v
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hpmdr_conc_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The mixed query battery every client issues (chunked-store servable:
/// no resolution/QoI scopes, which need a monolithic archive).
fn battery() -> Vec<Query> {
    let region_a = Region::new(&[3, 2], &[14, 10]);
    let region_b = Region::new(&[10, 8], &[12, 9]); // overlaps region_a
    vec![
        Query::full(Target::AbsError(1e-2)),
        Query::full(Target::Rel(1e-4)),
        Query::region(Target::AbsError(1e-3), region_a.clone()),
        Query::region(Target::Rel(1e-3), region_b.clone()),
        Query::region(Target::Rmse(1e-4), region_a),
        Query::region(Target::Lossless, region_b),
        Query::full(Target::Rmse(1e-3)),
    ]
}

fn write_chunked(dir: &std::path::Path, shape: &[usize], data: &[f32]) {
    let artifact = MdrConfig::new()
        .chunked(&[8, 8])
        .build()
        .refactor(data, shape)
        .unwrap();
    artifact.write_store(dir).unwrap();
}

/// Serve the battery serially from a fresh store; return the
/// approximations plus the store's total byte count.
fn serial_reference(dir: &std::path::Path) -> (Vec<Approximation<f32>>, usize) {
    let store = ChunkedStoreReader::open(dir).unwrap();
    let reader = Reader::new(&store);
    let answers: Vec<Approximation<f32>> = battery()
        .iter()
        .map(|q| reader.retrieve::<f32>(q).unwrap())
        .collect();
    (answers, store.bytes_read())
}

#[test]
fn concurrent_clients_match_the_serial_reader_exactly() {
    let shape = [30usize, 26];
    let data = field(shape[0], shape[1]);
    let dir = scratch("match");
    write_chunked(&dir, &shape, &data);
    let (reference, serial_bytes) = serial_reference(&dir);

    let store: Arc<dyn Store> = Arc::new(ChunkedStoreReader::open(&dir).unwrap());
    let shared = SharedReader::new(Arc::clone(&store));
    let per_client: Vec<Vec<Approximation<f32>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let client = shared.clone();
                s.spawn(move || {
                    battery()
                        .iter()
                        .map(|q| client.retrieve::<f32>(q).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, answers) in per_client.iter().enumerate() {
        for (got, want) in answers.iter().zip(&reference) {
            assert_eq!(got.data, want.data, "client {i}: data must be identical");
            assert_eq!(got.shape, want.shape, "client {i}");
            assert_eq!(got.achieved, want.achieved, "client {i}: achieved bound");
            assert_eq!(got.exhausted, want.exhausted, "client {i}");
        }
    }
    // Per-query byte accounting is racy under concurrency (deltas
    // interleave), but the store's total is exact: every client fetched
    // exactly what the serial reader fetched.
    assert_eq!(
        store.bytes_fetched(),
        CLIENTS * serial_bytes,
        "uncached concurrent clients each pay the serial byte cost"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cached_store_never_rereads_a_cached_byte_across_threads() {
    let shape = [30usize, 26];
    let data = field(shape[0], shape[1]);
    let dir = scratch("cache");
    write_chunked(&dir, &shape, &data);
    let (reference, serial_bytes) = serial_reference(&dir);

    // One cold cached pass fetches some byte total; the concurrent
    // hammering below (every client, the whole battery, twice) must not
    // fetch a single byte beyond that — each (chunk, group) prefix is
    // read once and only extended, never re-fetched.
    let cold_bytes = {
        let cached = CachedStore::new(ChunkedStoreReader::open(&dir).unwrap(), usize::MAX);
        let reader = Reader::new(&cached);
        for q in battery() {
            reader.retrieve::<f32>(&q).unwrap();
        }
        let b = cached.bytes_fetched();
        assert!(b > 0 && b <= serial_bytes);
        b
    };

    let cached = Arc::new(CachedStore::new(
        ChunkedStoreReader::open(&dir).unwrap(),
        usize::MAX,
    ));
    let shared = SharedReader::new(cached.clone() as Arc<dyn Store>);
    let per_client: Vec<Vec<Approximation<f32>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let client = shared.clone();
                s.spawn(move || {
                    let mut out = Vec::new();
                    for _ in 0..2 {
                        out.extend(battery().iter().map(|q| client.retrieve::<f32>(q).unwrap()));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for answers in &per_client {
        for (got, want) in answers.iter().zip(reference.iter().cycle()) {
            assert_eq!(got.data, want.data);
            assert_eq!(got.achieved, want.achieved);
        }
    }
    assert_eq!(
        cached.bytes_fetched(),
        cold_bytes,
        "no byte may be fetched twice while cached"
    );
    let stats = cached.cache_stats();
    assert!(stats.hits > 0, "repeat queries must hit: {stats:?}");
    assert!(
        stats.served_bytes > stats.cached_bytes,
        "cache must serve more than it stores: {stats:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_backend_clients_agree_with_scalar_serial() {
    let shape = [30usize, 26];
    let data = field(shape[0], shape[1]);
    let dir = scratch("parbe");
    write_chunked(&dir, &shape, &data);
    let (reference, _) = serial_reference(&dir);

    let store: Arc<dyn Store> = Arc::new(CachedStore::new(
        ChunkedStoreReader::open(&dir).unwrap(),
        usize::MAX,
    ));
    let shared = SharedReader::with_backend(store, CpuBackend::with_threads(3));
    let per_client: Vec<Vec<Approximation<f32>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let client = shared.clone();
                s.spawn(move || {
                    battery()
                        .iter()
                        .map(|q| client.retrieve::<f32>(q).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for answers in &per_client {
        for (got, want) in answers.iter().zip(&reference) {
            assert_eq!(
                got.data, want.data,
                "parallel-backend decode must be bit-identical"
            );
            assert_eq!(got.achieved, want.achieved);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn monolithic_shared_reader_serves_resolution_and_strict_queries() {
    let shape = [33usize, 33];
    let data = field(shape[0], shape[1]);
    let artifact = Mdr::with_defaults().refactor(&data, &shape).unwrap();
    let dir = scratch("mono");
    artifact.write_store(&dir).unwrap();

    let reader = Mdr::with_defaults().open_shared(&dir).unwrap();
    let serial_store = InMemoryStore::from(artifact);
    let serial = Reader::new(&serial_store);

    let queries = vec![
        Query::full(Target::AbsError(1e-3)),
        Query::resolution(Target::AbsError(1e-3), 1),
        Query::resolution(Target::Lossless, 2),
        Query::full(Target::Rel(1e-4)).strict(),
    ];
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            let client = reader.clone();
            let queries = queries.clone();
            let want: Vec<Approximation<f32>> = queries
                .iter()
                .map(|q| serial.retrieve::<f32>(q).unwrap())
                .collect();
            s.spawn(move || {
                for (q, want) in queries.iter().zip(&want) {
                    let got = client.retrieve::<f32>(q).unwrap();
                    assert_eq!(got.data, want.data, "{q:?}");
                    assert_eq!(got.achieved, want.achieved, "{q:?}");
                }
                // Strict queries past the archive floor fail identically
                // under concurrency.
                let err = client
                    .retrieve::<f32>(&Query::full(Target::AbsError(1e-300)).strict())
                    .err()
                    .unwrap();
                assert!(matches!(err, MdrError::Unsatisfiable { .. }), "{err}");
            });
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}
