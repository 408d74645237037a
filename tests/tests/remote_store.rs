//! The network storage tier, end to end: `RemoteStore` must read the
//! same bytes a local `ChunkedStoreReader` reads (bit-identical
//! answers), survive injected transport faults within its bounded
//! retry budget, surface typed errors — never panics — when the budget
//! runs out, and provably save requests through range coalescing.

use hpmdr_core::prelude::*;
use hpmdr_netstore::{ClientConfig, FaultPlan, LoopbackShardServer, RetryPolicy};
use proptest::prelude::*;
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
    let remote = RemoteStore::open_with(
        &server.url(),
        RemoteStoreConfig {
            // All six faults can gang up on one unlucky request; the
            // budget must cover that worst case plus the success.
            client: quick_client(8),
            ..RemoteStoreConfig::default()
        },
    )
    .unwrap();
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
    let remote = RemoteStore::open_with(
        &server.url(),
        RemoteStoreConfig {
            client: quick_client(3),
            ..RemoteStoreConfig::default()
        },
    )
    .unwrap();
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
    let remote = RemoteStore::open_with(
        &server.url(),
        RemoteStoreConfig {
            client: quick_client(3),
            ..RemoteStoreConfig::default()
        },
    )
    .unwrap();
    let err = remote.load_units(0, 0, 0, 1).unwrap_err();
    assert!(
        matches!(&err, MdrError::Corrupt(w) if w.contains("truncated")),
        "{err}"
    );
    drop(server);

    // Missing shard: the manifest names data the server cannot serve.
    let server = LoopbackShardServer::serve(&dir).unwrap();
    std::fs::remove_file(dir.join("c0.shard")).unwrap();
    let remote = RemoteStore::open_with(
        &server.url(),
        RemoteStoreConfig {
            client: quick_client(2),
            ..RemoteStoreConfig::default()
        },
    )
    .unwrap();
    let err = remote.load_units(0, 0, 0, 1).unwrap_err();
    assert!(
        matches!(&err, MdrError::Corrupt(w) if w.contains("404")),
        "{err}"
    );

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coalescing_issues_fewer_requests_for_identical_chunks() {
    let dir = sharded_store("coalesce");
    let server = LoopbackShardServer::serve(&dir).unwrap();
    let coalesced = RemoteStore::open_with(
        &server.url(),
        RemoteStoreConfig {
            gap_threshold: 1 << 20,
            coalesce: true,
            ..RemoteStoreConfig::default()
        },
    )
    .unwrap();
    let per_group = RemoteStore::open_with(
        &server.url(),
        RemoteStoreConfig {
            coalesce: false,
            ..RemoteStoreConfig::default()
        },
    )
    .unwrap();
    let local = ChunkedStoreReader::open(&dir).unwrap();

    let meta = coalesced.meta().clone();
    let mut saved_any = false;
    for c in 0..meta.grid.num_chunks() {
        // A mid-depth plan: partial prefixes in several groups, the
        // shape that leaves inter-group gaps for coalescing to bridge.
        let (plan, _) = RetrievalPlan::for_error(&meta.chunks[c], 1e-3 * 4.0);
        let before = (coalesced.requests(), per_group.requests());
        let a = coalesced.load_chunk(c, &plan).unwrap();
        let b = per_group.load_chunk(c, &plan).unwrap();
        let reference = local.load_chunk(c, &plan).unwrap();
        assert_eq!(a, reference, "chunk {c}: coalesced fetch changed bytes");
        assert_eq!(b, reference, "chunk {c}: per-group fetch changed bytes");
        let coalesced_reqs = coalesced.requests() - before.0;
        let per_group_reqs = per_group.requests() - before.1;
        assert!(
            coalesced_reqs <= per_group_reqs,
            "chunk {c}: {coalesced_reqs} coalesced vs {per_group_reqs} per-group"
        );
        saved_any |= coalesced_reqs < per_group_reqs;
    }
    assert!(
        saved_any,
        "coalescing never beat per-group fetch on any chunk"
    );
    // Both stores fetched identical useful bytes; only the coalesced
    // one may have paid (bounded) waste on top.
    assert_eq!(coalesced.bytes_fetched(), per_group.bytes_fetched());
    assert_eq!(per_group.wasted_bytes(), 0);
    assert_eq!(
        coalesced.transfer_bytes(),
        coalesced.bytes_fetched() + coalesced.wasted_bytes()
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

// ---- FetchPlan coalescing properties ----------------------------------

/// Reference byte layout: per-group (start, useful_len, group_len).
fn group_runs(unit_lens: &[Vec<usize>], planned: &[usize]) -> Vec<(u64, usize)> {
    let mut runs = Vec::new();
    let mut off = 0u64;
    for (g, lens) in unit_lens.iter().enumerate() {
        let want = planned.get(g).copied().unwrap_or(0).min(lens.len());
        let useful: usize = lens[..want].iter().sum();
        if useful > 0 {
            runs.push((off, useful));
        }
        off += lens.iter().sum::<usize>() as u64;
    }
    runs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fetch_plan_covers_exactly_the_planned_units_within_the_gap_budget(
        lens in prop::collection::vec(
            prop::collection::vec(0usize..200, 0..6),
            1..8,
        ),
        planned in prop::collection::vec(0usize..8, 0..10),
        gap in 0usize..512,
    ) {
        let plan = FetchPlan::for_chunk(&lens, &planned, gap);
        let runs = group_runs(&lens, &planned);

        // Useful bytes are exactly the planned unit bytes.
        let expect_useful: usize = runs.iter().map(|&(_, u)| u).sum();
        prop_assert_eq!(plan.useful_bytes, expect_useful);

        // Ranges are sorted, non-overlapping, and their lengths add up:
        // every fetched byte is either useful or declared waste.
        let mut last_end = 0u64;
        let mut total_len = 0usize;
        for (i, r) in plan.ranges.iter().enumerate() {
            prop_assert!(i == 0 || r.start >= last_end, "overlapping ranges");
            last_end = r.start + r.len as u64;
            total_len += r.len;
            // Segments tile the range in order; gaps between
            // consecutive segments are each within the threshold.
            let mut seg_end = 0usize;
            for (s, seg) in r.segments.iter().enumerate() {
                prop_assert!(seg.offset >= seg_end);
                let seg_gap = seg.offset - seg_end;
                prop_assert!(s != 0 || seg_gap == 0, "range must start useful");
                prop_assert!(seg_gap <= gap, "merged gap {seg_gap} > threshold {gap}");
                seg_end = seg.offset + seg.len;
            }
            prop_assert_eq!(seg_end, r.len, "range must end useful");
        }
        prop_assert_eq!(total_len, plan.useful_bytes + plan.wasted_bytes);

        // The segments are exactly the nonempty per-group runs, at the
        // right absolute shard offsets.
        let got: Vec<(u64, usize)> = plan
            .ranges
            .iter()
            .flat_map(|r| {
                r.segments
                    .iter()
                    .map(move |seg| (r.start + seg.offset as u64, seg.len))
            })
            .collect();
        prop_assert_eq!(got, runs);
    }

    #[test]
    fn fetch_plan_zero_gap_never_wastes_and_huge_gap_is_one_range(
        lens in prop::collection::vec(
            prop::collection::vec(0usize..100, 1..5),
            1..6,
        ),
        planned in prop::collection::vec(1usize..5, 6),
    ) {
        let tight = FetchPlan::for_chunk(&lens, &planned, 0);
        prop_assert_eq!(tight.wasted_bytes, 0);
        let loose = FetchPlan::for_chunk(&lens, &planned, usize::MAX / 2);
        if loose.useful_bytes > 0 {
            prop_assert_eq!(loose.num_ranges(), 1);
        }
        prop_assert_eq!(tight.useful_bytes, loose.useful_bytes);
    }
}
