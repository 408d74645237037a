//! Store conformance: one generic function, written against
//! `dyn Store`, serves the same [`Query`] battery from an in-memory
//! artifact, a monolithic artifact written to disk, a sharded chunk
//! store, and the same shards served over HTTP — and every flavor
//! returns **identical**
//! [`Approximation`]s: same data, same shape, same achieved bound,
//! same byte accounting — and every flavor fetches through the one
//! provided `Store::load_chunk`, so each query costs the same number of
//! requests everywhere. Error cases return the same [`MdrError`]
//! variant everywhere.

use hpmdr_core::prelude::*;
use hpmdr_netstore::LoopbackShardServer;
use hpmdr_tests::store_files;

/// THE generic serving function of the acceptance criterion: it only
/// knows `dyn Store`.
fn serve(store: &mut dyn Store, q: &Query) -> Result<Approximation<f32>, MdrError> {
    Reader::new(store).retrieve::<f32>(q)
}

/// [`serve`], plus the requests the query cost the store.
fn serve_counted(store: &mut dyn Store, q: &Query) -> (Approximation<f32>, usize) {
    let before = store.requests();
    let answer = serve(store, q).unwrap();
    (answer, store.requests() - before)
}

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
    let dir = std::env::temp_dir().join(format!("hpmdr_conf_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A coarse label for cross-store error comparison.
fn variant(e: &MdrError) -> &'static str {
    match e {
        MdrError::Io { .. } => "Io",
        MdrError::Corrupt(_) => "Corrupt",
        MdrError::VersionMismatch { .. } => "VersionMismatch",
        MdrError::DtypeMismatch { .. } => "DtypeMismatch",
        MdrError::InvalidInput(_) => "InvalidInput",
        MdrError::InvalidQuery(_) => "InvalidQuery",
        MdrError::Unsupported(_) => "Unsupported",
        MdrError::Unsatisfiable { .. } => "Unsatisfiable",
        MdrError::Decode { .. } => "Decode",
    }
}

/// Every Target × Scope combination servable on a single-chunk archive.
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
fn all_three_store_flavors_serve_identical_approximations() {
    let shape = [24usize, 20];
    let data = field(shape[0], shape[1]);

    // A monolithic artifact and a single-chunk chunked artifact of the
    // same box are bit-identical, so all four stores below hold the same
    // archive in different layouts.
    let mono = Mdr::with_defaults().refactor(&data, &shape).unwrap();
    let chunked = MdrConfig::new()
        .chunked(&shape)
        .build()
        .refactor(&data, &shape)
        .unwrap();
    assert_eq!(
        mono.as_monolithic().unwrap(),
        &chunked.as_chunked().unwrap().chunks[0],
        "single-chunk artifact must equal the monolithic refactor"
    );

    let mono_dir = scratch("mono");
    let shard_dir = scratch("shard");
    mono.write_store(&mono_dir).unwrap();
    chunked.write_store(&shard_dir).unwrap();
    // A monolithic artifact goes to disk as its single-chunk grid: the
    // two directories hold the same files, byte for byte.
    assert_eq!(store_files(&mono_dir), store_files(&shard_dir));

    let mut memory_mono = InMemoryStore::from(mono);
    let mut memory_chunked = InMemoryStore::from(chunked);
    let mut mono_disk = open_store(&mono_dir).unwrap();
    let mut sharded = open_store(&shard_dir).unwrap();
    let server = LoopbackShardServer::serve(&shard_dir).unwrap();
    let mut remote = open_store(std::path::Path::new(&server.url())).unwrap();
    assert_eq!(mono_disk.flavor(), "sharded");
    assert_eq!(sharded.flavor(), "sharded");
    assert_eq!(remote.flavor(), "remote");

    let region = Region::new(&[3, 5], &[14, 9]);
    for (label, q) in full_battery(region, 1) {
        let (reference, want_requests) = serve_counted(&mut memory_mono, &q);
        assert!(reference.bytes_fetched > 0, "{label}");
        for (name, store) in [
            ("memory/chunked", &mut memory_chunked as &mut dyn Store),
            ("monolithic on disk", mono_disk.as_mut()),
            ("sharded", sharded.as_mut()),
            ("remote", remote.as_mut()),
        ] {
            let (got, requests) = serve_counted(store, &q);
            assert_eq!(
                got, reference,
                "{label} via {name}: answers, bounds, and byte accounting must be identical"
            );
            assert_eq!(
                requests, want_requests,
                "{label} via {name}: one request per non-empty unit run"
            );
        }
    }

    drop(server);
    let _ = std::fs::remove_dir_all(&mono_dir);
    let _ = std::fs::remove_dir_all(&shard_dir);
}

#[test]
fn multi_chunk_memory_and_sharded_stores_agree() {
    let shape = [24usize, 20];
    let data = field(shape[0], shape[1]);
    let artifact = MdrConfig::new()
        .chunked(&[7, 6])
        .build()
        .refactor(&data, &shape)
        .unwrap();
    let total = artifact.total_bytes();

    let dir = scratch("multi");
    artifact.write_store(&dir).unwrap();
    let mut memory = InMemoryStore::from(artifact);
    let mut sharded = open_store(&dir).unwrap();
    let server = LoopbackShardServer::serve(&dir).unwrap();
    let mut remote = open_store(std::path::Path::new(&server.url())).unwrap();

    let region = Region::new(&[2, 3], &[9, 8]);
    let battery = [
        ("abs/full", Query::full(Target::AbsError(1e-3))),
        (
            "abs/region",
            Query::region(Target::AbsError(1e-3), region.clone()),
        ),
        ("rel/full", Query::full(Target::Rel(1e-4))),
        (
            "rmse/region",
            Query::region(Target::Rmse(1e-4), region.clone()),
        ),
        (
            "lossless/region",
            Query::region(Target::Lossless, region.clone()),
        ),
    ];
    for (label, q) in battery {
        let (a, a_requests) = serve_counted(&mut memory, &q);
        let (b, b_requests) = serve_counted(sharded.as_mut(), &q);
        let (c, c_requests) = serve_counted(remote.as_mut(), &q);
        assert_eq!(a, b, "{label}");
        assert_eq!(a, c, "{label} (remote)");
        assert_eq!(a_requests, b_requests, "{label}");
        assert_eq!(c_requests, b_requests, "{label} (remote)");
    }

    // Region queries fetch strictly less than the archive holds.
    let roi = serve(&mut memory, &Query::region(Target::AbsError(1e-3), region)).unwrap();
    assert!(roi.bytes_fetched < total);

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn error_cases_return_the_same_variant_from_every_store() {
    let shape = [16usize, 16];
    let data = field(shape[0], shape[1]);
    let artifact = MdrConfig::new()
        .chunked(&[8, 8])
        .build()
        .refactor(&data, &shape)
        .unwrap();
    let dir = scratch("errors");
    artifact.write_store(&dir).unwrap();
    let mut memory = InMemoryStore::from(artifact);
    let mut sharded = open_store(&dir).unwrap();

    let qoi = QoiExpr::Square(Box::new(QoiExpr::Var(0)));
    let cases: Vec<(&str, Query, &str)> = vec![
        (
            "negative bound",
            Query::full(Target::AbsError(-1.0)),
            "InvalidQuery",
        ),
        (
            "nan relative bound",
            Query::full(Target::Rel(f64::NAN)),
            "InvalidQuery",
        ),
        (
            "region out of domain",
            Query::region(Target::AbsError(1e-3), Region::new(&[12, 0], &[8, 8])),
            "InvalidQuery",
        ),
        (
            "region dimensionality mismatch",
            Query::region(Target::AbsError(1e-3), Region::new(&[0], &[4])),
            "InvalidQuery",
        ),
        (
            "resolution on multi-chunk",
            Query::resolution(Target::AbsError(1e-3), 1),
            "Unsupported",
        ),
        (
            "qoi on multi-chunk",
            Query::full(Target::Qoi(qoi, 1e-3)),
            "Unsupported",
        ),
        (
            "strict unsatisfiable",
            Query::full(Target::AbsError(1e-300)).strict(),
            "Unsatisfiable",
        ),
    ];
    for (label, q, want) in &cases {
        let a = serve(&mut memory, q).err().unwrap();
        let b = serve(sharded.as_mut(), q).err().unwrap();
        assert_eq!(variant(&a), *want, "{label} (memory): {a}");
        assert_eq!(variant(&b), *want, "{label} (sharded): {b}");
    }

    // Dtype mismatch is checked before any I/O, same variant everywhere.
    let q = Query::full(Target::AbsError(1e-3));
    let a = Reader::new(&memory).retrieve::<f64>(&q).err().unwrap();
    let b = Reader::new(sharded.as_mut())
        .retrieve::<f64>(&q)
        .err()
        .unwrap();
    assert_eq!(variant(&a), "DtypeMismatch");
    assert_eq!(variant(&b), "DtypeMismatch");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Both runs end past `usize::MAX`: `load_units` must answer
/// `InvalidQuery` without fetching anything.
fn rejects_overflowing_runs(name: &str, store: &dyn Store) {
    let before = (store.requests(), store.bytes_fetched());
    for (skip, take) in [(1, usize::MAX), (usize::MAX, 1)] {
        match store.load_units(0, 0, skip, take) {
            Err(e) => assert_eq!(variant(&e), "InvalidQuery", "{name} {skip}+{take}: {e}"),
            Ok(units) => panic!("{name} {skip}+{take}: served {} units", units.len()),
        }
    }
    assert_eq!(
        (store.requests(), store.bytes_fetched()),
        before,
        "{name}: a rejected run reached storage"
    );
}

#[test]
fn overflowing_unit_runs_are_invalid_queries_on_every_store() {
    let shape = [16usize, 16];
    let artifact = MdrConfig::new()
        .chunked(&[8, 8])
        .build()
        .refactor(&field(shape[0], shape[1]), &shape)
        .unwrap();
    let dir = scratch("overflow");
    artifact.write_store(&dir).unwrap();
    let server = LoopbackShardServer::serve(&dir).unwrap();
    let url = server.url();
    let open = |flavor: &str| -> Box<dyn Store> {
        match flavor {
            "memory" => Box::new(InMemoryStore::from(artifact.clone())),
            "sharded" => open_store(&dir).unwrap(),
            _ => open_store(std::path::Path::new(&url)).unwrap(),
        }
    };

    for flavor in ["memory", "sharded", "remote"] {
        rejects_overflowing_runs(flavor, open(flavor).as_ref());
        // The cache rejects the run before its directory sees it.
        let cached = CachedStore::with_default_budget(open(flavor));
        rejects_overflowing_runs(&format!("cached {flavor}"), &cached);
        assert_eq!(
            cached.cache_stats(),
            CacheStats::default(),
            "cached {flavor}"
        );
    }

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_range_relative_targets_are_trivially_satisfied_everywhere() {
    // Regression: a constant field has value_range() == 0, so Rel(ε)
    // used to resolve to an absolute bound of 0.0 — strict queries
    // returned Unsatisfiable and best-effort ones claimed exhaustion
    // even though the reconstruction is exact. Zero-range data must be
    // served losslessly and reported as satisfied, from every flavor.
    let shape = [20usize, 16];
    let data = vec![-7.5f32; shape[0] * shape[1]];
    let mono = Mdr::with_defaults().refactor(&data, &shape).unwrap();
    assert_eq!(mono.value_range(), 0.0);
    let chunked = MdrConfig::new()
        .chunked(&[8, 8])
        .build()
        .refactor(&data, &shape)
        .unwrap();

    let mono_dir = scratch("zr_mono");
    let shard_dir = scratch("zr_shard");
    mono.write_store(&mono_dir).unwrap();
    chunked.write_store(&shard_dir).unwrap();
    let mut memory = InMemoryStore::from(mono);
    let mut mono_disk = open_store(&mono_dir).unwrap();
    let mut sharded = open_store(&shard_dir).unwrap();

    for q in [
        Query::full(Target::Rel(1e-3)).strict(),
        Query::region(Target::Rel(1e-6), Region::new(&[2, 3], &[7, 5])).strict(),
        Query::full(Target::Rel(0.5)),
    ] {
        for (name, store) in [
            ("memory", &mut memory as &mut dyn Store),
            ("monolithic on disk", mono_disk.as_mut()),
            ("sharded", sharded.as_mut()),
        ] {
            let a = serve(store, &q).unwrap_or_else(|e| panic!("{name} {q:?}: {e}"));
            assert!(!a.exhausted, "{name} {q:?}: must not claim exhaustion");
            for v in &a.data {
                assert!((v + 7.5).abs() < 1e-5, "{name} {q:?}: {v}");
            }
        }
    }

    let _ = std::fs::remove_dir_all(&mono_dir);
    let _ = std::fs::remove_dir_all(&shard_dir);
}

#[test]
fn achieved_bound_contract_holds_for_real() {
    // The reported bound is exact planner output: at most the request
    // unless `exhausted` says otherwise — no `|| true` escape hatch.
    // The reconstruction honors it up to f32 recompose rounding (a few
    // ulps of the data scale, the same allowance the near-lossless
    // tests use; the bound models bitplane truncation, not float
    // arithmetic).
    let shape = [30usize, 22];
    let data = field(shape[0], shape[1]);
    let artifact = MdrConfig::new()
        .chunked(&[8, 8])
        .build()
        .refactor(&data, &shape)
        .unwrap();
    let scale = data.iter().fold(0.0f32, |m, v| m.max(v.abs())) as f64;
    let mut store = InMemoryStore::from(artifact);

    for eb in [1e-1f64, 1e-3, 1e-5, 1e-300] {
        let a = serve(&mut store, &Query::full(Target::AbsError(eb))).unwrap();
        if !a.exhausted {
            assert!(a.achieved <= eb, "eb={eb}: achieved {}", a.achieved);
        } else {
            assert!(
                a.achieved > eb,
                "exhausted flag must mean the target was missed"
            );
        }
        let err = data
            .iter()
            .zip(&a.data)
            .map(|(x, y)| ((x - y).abs()) as f64)
            .fold(0.0, f64::max);
        assert!(
            err <= a.achieved + scale * 1e-6,
            "eb={eb}: {err} > {}",
            a.achieved
        );
    }
}
