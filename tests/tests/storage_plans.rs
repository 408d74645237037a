//! `core::storage` plan-driven I/O coverage: a monolithic artifact on
//! disk must fetch exactly the ranges and bytes a `RetrievalPlan` asks
//! for — one range per level group with a non-zero unit prefix, the
//! paper's prefix-of-units I/O pattern — under empty, partial, and full
//! plans.

use hpmdr_core::{
    open_store, refactor, Artifact, RefactorConfig, RetrievalPlan, RetrievalSession, Store,
};
use std::path::{Path, PathBuf};

fn sample() -> (Vec<f32>, hpmdr_core::Refactored) {
    let data: Vec<f32> = (0..40 * 28)
        .map(|i| ((i % 40) as f32 * 0.23).sin() * 3.0 + ((i / 40) as f32 * 0.11).cos())
        .collect();
    let r = refactor(&data, &[40, 28], &RefactorConfig::default());
    (data, r)
}

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hpmdr_storage_plans_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Write `r` as a store under `dir` and open it back.
fn store_of(r: &hpmdr_core::Refactored, dir: &Path) -> Box<dyn Store> {
    Artifact::Monolithic(r.clone()).write_store(dir).unwrap();
    let store = open_store(dir).unwrap();
    assert_eq!(store.flavor(), "sharded");
    store
}

/// Range reads a plan costs: one per level group it takes units from.
fn ranges(plan: &RetrievalPlan) -> usize {
    plan.units.iter().filter(|&&u| u > 0).count()
}

#[test]
fn empty_plan_reads_no_files_and_reconstructs_zeros() {
    let (_, r) = sample();
    let dir = scratch("empty");
    let store = store_of(&r, &dir);

    let plan = RetrievalPlan::empty(&r);
    let loaded = store.load_chunk(0, &plan).unwrap();
    assert_eq!(store.requests(), 0, "empty plan must issue no reads");
    assert_eq!(
        store.bytes_fetched(),
        0,
        "empty plan must read no payload bytes"
    );
    assert_eq!(plan.fetch_bytes(&r), 0);

    let mut sess = RetrievalSession::new(&loaded);
    sess.refine_to(&plan);
    let rec: Vec<f32> = sess.reconstruct();
    assert!(rec.iter().all(|&v| v == 0.0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partial_plans_read_exactly_the_plans_units() {
    let (data, r) = sample();
    let dir = scratch("partial");

    // Cumulative store: totals grow by exactly each plan's cost.
    let store = store_of(&r, &dir);
    let mut ranges_so_far = 0usize;
    let mut bytes_so_far = 0usize;
    let mut prev_units = vec![0usize; r.streams.len()];
    for rel in [1e-1f64, 1e-3, 1e-5] {
        let eb = rel * r.value_range;
        let (plan, bound) = RetrievalPlan::for_error(&r, eb);
        // Plans must be monotone so the increments below are well-defined.
        for (p, q) in prev_units.iter().zip(&plan.units) {
            assert!(p <= q, "plan regressed a group");
        }

        let fresh = open_store(&dir).unwrap();
        let loaded = fresh.load_chunk(0, &plan).unwrap();
        assert_eq!(
            fresh.requests(),
            ranges(&plan),
            "one range per group the plan takes units from"
        );
        assert_eq!(
            fresh.bytes_fetched(),
            plan.fetch_bytes(&r),
            "bytes match the plan"
        );

        // Unplanned units must stay empty in the materialized archive.
        for (s, &u) in loaded.streams.iter().zip(&plan.units) {
            for (idx, unit) in s.units.iter().enumerate() {
                assert_eq!(
                    idx < u,
                    !unit.payload.is_empty(),
                    "unit {idx} loaded iff planned (< {u})"
                );
            }
        }

        // The loaded subset reconstructs within the guaranteed bound.
        let mut sess = RetrievalSession::new(&loaded);
        sess.refine_to(&plan);
        let rec: Vec<f32> = sess.reconstruct();
        for (a, b) in data.iter().zip(&rec) {
            assert!(((a - b).abs() as f64) <= bound.max(eb));
        }

        // The cumulative store counts every range exactly once per load.
        store.load_chunk(0, &plan).unwrap();
        ranges_so_far += ranges(&plan);
        bytes_so_far += plan.fetch_bytes(&r);
        assert_eq!(store.requests(), ranges_so_far);
        assert_eq!(store.bytes_fetched(), bytes_so_far);
        prev_units = plan.units;
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_plan_roundtrips_the_archive_exactly() {
    let (data, r) = sample();
    let dir = scratch("full");
    let store = store_of(&r, &dir);

    let plan = RetrievalPlan::full(&r);
    let loaded = store.load_chunk(0, &plan).unwrap();
    assert_eq!(
        store.requests(),
        ranges(&plan),
        "full plan reads one range per non-empty group"
    );
    assert_eq!(
        store.bytes_fetched(),
        r.total_bytes(),
        "full plan reads every byte"
    );
    assert_eq!(loaded, r, "full load reproduces the in-memory archive");

    let mut sess = RetrievalSession::new(&loaded);
    sess.refine_to(&plan);
    let rec: Vec<f32> = sess.reconstruct();
    let scale = data.iter().fold(0.0f32, |m, v| m.max(v.abs())) as f64;
    for (a, b) in data.iter().zip(&rec) {
        assert!(((a - b).abs() as f64) <= scale * 1e-6, "near-lossless");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A monolithic store written over a 4-chunk one replaces it whole: the
/// directory ends with one manifest and one shard, not the old chunks'
/// shards beside the new one.
#[test]
fn monolithic_store_over_a_chunked_one_leaves_no_stale_shards() {
    let (data, r) = sample();
    let dir = scratch("overwrite");
    let chunked = hpmdr_core::MdrConfig::new()
        .chunked(&[20, 14])
        .build()
        .refactor(&data, &[40, 28])
        .unwrap();
    assert_eq!(chunked.write_store(&dir).unwrap(), 4);

    let store = store_of(&r, &dir);
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names, ["c0.shard", "manifest.json"]);
    let loaded = store.load_chunk(0, &RetrievalPlan::full(&r)).unwrap();
    assert_eq!(loaded, r);
    let _ = std::fs::remove_dir_all(&dir);
}
