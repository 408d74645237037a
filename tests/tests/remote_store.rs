//! The network storage tier, end to end: `RemoteStore` must read the
//! same bytes a local `ChunkedStoreReader` reads (bit-identical
//! answers), survive injected transport faults within its bounded
//! retry budget, and surface typed errors — never panics — when the
//! budget runs out.

use hpmdr_core::prelude::*;
use hpmdr_netstore::{ClientConfig, FaultPlan, LoopbackShardServer, RetryPolicy};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn field(nx: usize, ny: usize) -> Vec<f32> {
    let mut v = Vec::with_capacity(nx * ny);
    for x in 0..nx {
        for y in 0..ny {
            v.push((x as f32 * 0.23).sin() * 2.0 + (y as f32 * 0.31).cos());
        }
    }
    v
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpmdr_remote_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Write a 24×20 field chunked into 7×6 boxes (4×4 = 16 chunks, ragged
/// edges included) and return its store directory.
fn sharded_store(tag: &str) -> PathBuf {
    let shape = [24usize, 20];
    let artifact = MdrConfig::new()
        .chunked(&[7, 6])
        .build()
        .refactor(&field(shape[0], shape[1]), &shape)
        .unwrap();
    let dir = scratch(tag);
    artifact.write_store(&dir).unwrap();
    dir
}

/// A retry schedule tight enough for tests: generous attempts, short
/// sleeps.
fn quick_client(max_attempts: u32) -> ClientConfig {
    ClientConfig {
        deadline: Duration::from_secs(10),
        retry: RetryPolicy {
            max_attempts,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
        },
        ..ClientConfig::default()
    }
}

#[test]
fn remote_unit_runs_are_bit_identical_to_local_reads() {
    let dir = sharded_store("bitident");
    let local = ChunkedStoreReader::open(&dir).unwrap();
    let server = LoopbackShardServer::serve(&dir).unwrap();
    let remote = RemoteStore::open_url(&server.url()).unwrap();

    assert_eq!(remote.meta(), local.skeleton());

    // Every chunk, every group: full runs, prefixes, and mid-group
    // runs with skip > 0 (the CachedStore extension shape).
    for c in 0..remote.meta().grid.num_chunks() {
        for (g, s) in remote.meta().chunks[c].streams.iter().enumerate() {
            let n = s.units.len();
            for (skip, take) in [(0, n), (0, n / 2), (n / 2, n - n / 2), (n / 3, 1.min(n))] {
                if take == 0 || skip + take > n {
                    continue;
                }
                let a = remote.load_units(c, g, skip, take).unwrap();
                let b = local.load_units(c, g, skip, take).unwrap();
                assert_eq!(a, b, "chunk {c} group {g} run {skip}+{take}");
            }
        }
    }
    // Useful-byte accounting matches the local reader's.
    assert!(remote.bytes_fetched() > 0);
}

#[test]
fn transient_faults_are_survived_and_answers_stay_bit_identical() {
    let dir = sharded_store("faults");
    let server = LoopbackShardServer::serve_with_faults(
        &dir,
        FaultPlan {
            // Let the manifest fetch through so every fault lands on
            // a shard read.
            spare_first: 1,
            fail_first: 2,
            drop_first: 2,
            truncate_first: 2,
            ..FaultPlan::default()
        },
    )
    .unwrap();
    // All six faults can gang up on one unlucky request; the budget
    // must cover that worst case plus the success.
    let remote = RemoteStore::open_with(&server.url(), quick_client(8)).unwrap();
    let mut local = open_store(&dir).unwrap();

    let q = Query::region(Target::AbsError(1e-4), Region::new(&[3, 2], &[15, 12]));
    let want = Reader::new(local.as_mut()).retrieve::<f32>(&q).unwrap();
    let got = Reader::new(&remote).retrieve::<f32>(&q).unwrap();
    assert_eq!(got, want, "answers after retried faults must be identical");
    assert!(
        remote.retries() >= 6,
        "all six injected faults should have forced retries, saw {}",
        remote.retries()
    );

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_retries_are_typed_errors_never_panics() {
    let dir = sharded_store("exhaust");

    // Persistent 503: bounded attempts, then a typed I/O error that
    // still names the shard and the status.
    let server = LoopbackShardServer::serve_with_faults(
        &dir,
        FaultPlan {
            spare_first: 1,
            fail_first: u32::MAX,
            ..FaultPlan::default()
        },
    )
    .unwrap();
    let remote = RemoteStore::open_with(&server.url(), quick_client(3)).unwrap();
    let manifest_requests = server.requests();
    let err = remote.load_units(0, 0, 0, 1).unwrap_err();
    assert!(
        matches!(&err, MdrError::Io { path, .. } if path.to_string_lossy().contains("c0.shard")),
        "{err}"
    );
    assert!(err.to_string().contains("503"), "{err}");
    assert_eq!(
        server.requests() - manifest_requests,
        3,
        "retries must stop at the configured attempt budget"
    );
    drop(server);

    // Persistent truncation: the remote object is damaged — Corrupt,
    // the same taxonomy a truncated local shard surfaces as.
    let server = LoopbackShardServer::serve_with_faults(
        &dir,
        FaultPlan {
            spare_first: 1,
            truncate_first: u32::MAX,
            ..FaultPlan::default()
        },
    )
    .unwrap();
    let remote = RemoteStore::open_with(&server.url(), quick_client(3)).unwrap();
    let err = remote.load_units(0, 0, 0, 1).unwrap_err();
    assert!(
        matches!(&err, MdrError::Corrupt(w) if w.contains("truncated")),
        "{err}"
    );
    drop(server);

    // Missing shard: the manifest names data the server cannot serve.
    let server = LoopbackShardServer::serve(&dir).unwrap();
    std::fs::remove_file(dir.join("c0.shard")).unwrap();
    let remote = RemoteStore::open_with(&server.url(), quick_client(2)).unwrap();
    let err = remote.load_units(0, 0, 0, 1).unwrap_err();
    assert!(
        matches!(&err, MdrError::Corrupt(w) if w.contains("404")),
        "{err}"
    );

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cached_remote_repeat_queries_cost_zero_requests_and_refines_extend() {
    let dir = sharded_store("cached");
    let server = LoopbackShardServer::serve(&dir).unwrap();
    let store = CachedStore::with_default_budget(RemoteStore::open_url(&server.url()).unwrap());

    let q = Query::region(Target::AbsError(1e-2), Region::new(&[2, 2], &[14, 11]));
    let cold = Reader::new(&store).retrieve::<f32>(&q).unwrap();
    assert!(cold.bytes_fetched > 0);
    let local = ChunkedStoreReader::open(&dir).unwrap();
    let want = Reader::new(&local).retrieve::<f32>(&q).unwrap();
    assert_eq!(
        cold.data, want.data,
        "cached remote answer must match local"
    );
    let after_cold = store.requests();

    // Warm re-query: answered entirely from cache — zero requests, and
    // the Approximation reports zero backing bytes.
    let warm = Reader::new(&store).retrieve::<f32>(&q).unwrap();
    assert_eq!(
        store.requests(),
        after_cold,
        "warm re-query issued requests"
    );
    assert_eq!(warm.bytes_fetched, 0);
    assert_eq!(warm.data, cold.data);
    let stats = store.cache_stats();
    assert!(stats.hits > 0 && stats.misses > 0);
    assert!(stats.hit_rate() > 0.0 && stats.hit_rate() < 1.0);

    // Tightening the bound extends cached prefixes: every touched
    // group fetches only its missing suffix, visible as extensions.
    let tighter = Query::region(Target::AbsError(1e-5), Region::new(&[2, 2], &[14, 11]));
    let refined = Reader::new(&store).retrieve::<f32>(&tighter).unwrap();
    assert!(refined.achieved <= 1e-5 || refined.exhausted);
    let stats = store.cache_stats();
    assert!(
        stats.extensions > 0,
        "refinement must extend cached prefixes, not refetch: {stats:?}"
    );
    assert!(stats.extensions <= stats.misses);

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn open_shared_composes_the_two_tiers_over_a_url() {
    let dir = sharded_store("shared");
    let server = LoopbackShardServer::serve(&dir).unwrap();
    let mdr = Mdr::with_defaults();
    let reader = mdr.open_shared(Path::new(&server.url())).unwrap();
    let q = Query::full(Target::AbsError(1e-3));
    let a = reader.retrieve::<f32>(&q).unwrap();
    let b = reader.retrieve::<f32>(&q).unwrap();
    assert_eq!(a.data, b.data);
    assert_eq!(b.bytes_fetched, 0, "second query must be a pure cache hit");

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
