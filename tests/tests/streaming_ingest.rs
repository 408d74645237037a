//! Streaming ingest and store append: identity, crash consistency,
//! and the bounded-memory contract.
//!
//! The pipeline is a scheduling change, never a format change: an
//! ingested store must be byte-identical to the whole-input chunked
//! path, and a store grown by [`Mdr::append`] must be byte-identical to
//! a one-shot refactor of the concatenated domain — so every Target ×
//! Scope query answers identically on both. Crashes are simulated by
//! dropping the incremental writer before its atomic manifest commit:
//! a fresh ingest leaves no manifest (the store never existed), an
//! interrupted append leaves the *prior* version fully readable with
//! the stray new shards invisible.

use hpmdr_core::chunked::{extract_region, refactor_chunked, ChunkGrid, ChunkedConfig};
use hpmdr_core::prelude::*;
use hpmdr_core::refactor::refactor;
use hpmdr_core::roi::Region;
use hpmdr_core::storage::{write_chunked_store, ChunkedStoreWriter};
use hpmdr_core::RefactorConfig;
use hpmdr_tests::store_files;
use std::path::PathBuf;

fn field(n: usize, seed: u32) -> Vec<f32> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            (s as f32 / u32::MAX as f32 - 0.5) * 8.0
        })
        .collect()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpmdr_sing_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Ingest-then-append must equal a one-shot refactor of the
/// concatenated domain byte-for-byte, and answer the full query matrix
/// identically through the façade.
#[test]
fn append_matches_one_shot_refactor_of_concatenated_domain() {
    let extent = [3usize, 4, 4];
    let full_shape = [15usize, 9, 7];
    let head_rows = 6; // multiple of extent[0] — the append precondition
    let slab = full_shape[1] * full_shape[2];
    let data = field(full_shape.iter().product(), 0xA11CE);
    let (head, tail) = data.split_at(head_rows * slab);

    let mdr = MdrConfig::new().chunked(&extent).build();
    let grown = tmp("append_grown");
    let report = mdr
        .ingest(SliceSource::new(head, &[head_rows, 9, 7]).unwrap(), &grown)
        .unwrap();
    assert_eq!(report.shape, vec![head_rows, 9, 7]);
    let report = mdr
        .append(
            &grown,
            SliceSource::new(tail, &[full_shape[0] - head_rows, 9, 7]).unwrap(),
        )
        .unwrap();
    assert_eq!(report.shape, full_shape.to_vec());

    let oneshot = tmp("append_oneshot");
    let cr = refactor_chunked(&data, &full_shape, &ChunkedConfig::with_extent(&extent));
    write_chunked_store(&cr, &oneshot).unwrap();

    assert_eq!(
        store_files(&grown),
        store_files(&oneshot),
        "grown store must be byte-identical to the one-shot store"
    );

    // Full Target × Scope conformance: both stores answer identically.
    let region = Region::new(&[2, 1, 1], &[9, 6, 4]);
    let queries = [
        Query::full(Target::AbsError(1e-3)),
        Query::region(Target::AbsError(1e-3), region.clone()),
        Query::full(Target::Rel(1e-4)),
        Query::region(Target::Rmse(1e-4), region.clone()),
        Query::full(Target::Lossless),
        Query::region(Target::Lossless, region),
    ];
    let store_g = open_store(&grown).unwrap();
    let store_o = open_store(&oneshot).unwrap();
    for q in &queries {
        let a = Reader::new(store_g.as_ref()).retrieve::<f32>(q).unwrap();
        let b = Reader::new(store_o.as_ref()).retrieve::<f32>(q).unwrap();
        assert_eq!(a.data, b.data, "answers must match for {q:?}");
        assert_eq!(a.achieved, b.achieved, "bounds must match for {q:?}");
    }

    let _ = std::fs::remove_dir_all(&grown);
    let _ = std::fs::remove_dir_all(&oneshot);
}

/// A store whose leading dimension is not chunk-aligned cannot grow —
/// the appended chunks would not coincide with the concatenated-domain
/// grid, silently breaking the bit-identity contract.
#[test]
fn append_rejects_unaligned_leading_dimension() {
    let mdr = MdrConfig::new().chunked(&[4, 4]).build();
    let dir = tmp("append_unaligned");
    let data = field(6 * 8, 7);
    mdr.ingest(SliceSource::new(&data, &[6, 8]).unwrap(), &dir)
        .unwrap();
    let slab = field(4 * 8, 8);
    let err = mdr
        .append(&dir, SliceSource::new(&slab, &[4, 8]).unwrap())
        .unwrap_err();
    assert!(matches!(err, MdrError::Unsupported(_)), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Appending to a store written by a future format version must surface
/// a readable [`MdrError::VersionMismatch`], never a misparse.
#[test]
fn append_rejects_newer_manifest_with_readable_version_mismatch() {
    let mdr = MdrConfig::new().chunked(&[4, 4]).build();
    let dir = tmp("append_version");
    let data = field(8 * 8, 41);
    mdr.ingest(SliceSource::new(&data, &[8, 8]).unwrap(), &dir)
        .unwrap();

    let path = dir.join("manifest.json");
    let text = String::from_utf8(std::fs::read(&path).unwrap()).unwrap();
    let future = hpmdr_core::serialize::MANIFEST_VERSION + 1;
    let bumped = text.replacen(
        &format!("\"version\":{}", hpmdr_core::serialize::MANIFEST_VERSION),
        &format!("\"version\":{future}"),
        1,
    );
    assert_ne!(text, bumped, "manifest must carry a version field");
    std::fs::write(&path, bumped).unwrap();

    let slab = field(4 * 8, 42);
    let err = mdr
        .append(&dir, SliceSource::new(&slab, &[4, 8]).unwrap())
        .unwrap_err();
    assert!(
        matches!(err, MdrError::VersionMismatch { found, .. } if found == future),
        "{err}"
    );
    let msg = err.to_string();
    assert!(
        msg.contains("version"),
        "must read as a version error: {msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// An append that dies before the atomic manifest commit leaves the
/// prior version byte-identical and fully queryable; the partially
/// written new shards are invisible to the reader.
#[test]
fn interrupted_append_leaves_prior_version_readable() {
    let extent = [3usize, 4, 4];
    let mdr = MdrConfig::new().chunked(&extent).build();
    let dir = tmp("append_crash");
    let data = field(6 * 9 * 7, 0xBEEF);
    mdr.ingest(SliceSource::new(&data, &[6, 9, 7]).unwrap(), &dir)
        .unwrap();

    let manifest_before = std::fs::read(dir.join("manifest.json")).unwrap();
    let query = Query::full(Target::AbsError(1e-3));
    let before = Reader::new(open_store(&dir).unwrap().as_ref())
        .retrieve::<f32>(&query)
        .unwrap();

    // Crash mid-append: flush one new shard through the incremental
    // writer, then drop it without `finish` — no rename ever happens.
    let mut writer = ChunkedStoreWriter::append_to(&dir, &[3, 9, 7], "f32").unwrap();
    let first_new = writer.next_chunk();
    let chunk_data = field(3 * 4 * 4, 0xDEAD);
    let r = refactor(&chunk_data, &[3, 4, 4], &RefactorConfig::default());
    writer.append_chunk(&r).unwrap();
    drop(writer);

    assert!(
        dir.join(format!("c{first_new}.shard")).exists(),
        "the crashed append must have left a stray shard behind"
    );
    assert_eq!(
        std::fs::read(dir.join("manifest.json")).unwrap(),
        manifest_before,
        "prior manifest must be untouched"
    );
    let after = Reader::new(open_store(&dir).unwrap().as_ref())
        .retrieve::<f32>(&query)
        .unwrap();
    assert_eq!(before.data, after.data, "prior version must still answer");
    assert_eq!(before.achieved, after.achieved);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh ingest that dies mid-stream commits nothing: no manifest is
/// ever written, and opening the directory fails cleanly — never a
/// panic, never a torn store.
#[test]
fn crashed_fresh_ingest_leaves_no_manifest() {
    let dir = tmp("ingest_crash");
    let grid = ChunkGrid::new(&[8, 8], &[4, 4]);
    let mut writer = ChunkedStoreWriter::create(&dir, grid, "f32").unwrap();
    let chunk = field(16, 3);
    let r = refactor(&chunk, &[4, 4], &RefactorConfig::default());
    writer.append_chunk(&r).unwrap();
    drop(writer); // crash: 1 of 4 chunks flushed, no commit

    assert!(!dir.join("manifest.json").exists(), "nothing was committed");
    let err = open_store(&dir).err().unwrap();
    assert!(matches!(err, MdrError::InvalidInput(_)), "{err}");

    // The pipeline path behaves the same when the *source* fails: the
    // error propagates and no manifest appears.
    let dir2 = tmp("ingest_source_err");
    let mdr = MdrConfig::new().chunked(&[4, 4]).build();
    let source = FnSource::new(&[8, 8], |c: usize, region: &Region| {
        if c >= 2 {
            return Err(MdrError::InvalidInput("device went away".to_string()));
        }
        Ok(vec![0.5f32; region.len()])
    });
    let err = mdr.ingest(source, &dir2).unwrap_err();
    assert!(matches!(err, MdrError::InvalidInput(_)), "{err}");
    assert!(!dir2.join("manifest.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

/// A fresh ingest into a directory that already holds a store either
/// replaces it or leaves no store: the old manifest must never describe
/// shards a newer ingest has started to overwrite, and a completed
/// re-ingest must not keep shards of the older, larger grid.
#[test]
fn reingest_over_an_existing_store_is_never_torn() {
    let shape = [32usize, 32, 32];
    let dir = tmp("reingest");
    let old = field(shape.iter().product(), 0x01D);
    MdrConfig::new()
        .chunked(&[8, 8, 8])
        .build()
        .ingest(SliceSource::new(&old, &shape).unwrap(), &dir)
        .unwrap();
    assert_eq!(store_files(&dir).len(), 64 + 1);

    // Another field, coarser chunks, and a source that dies at chunk 3:
    // c0–c2 are already overwritten when it does.
    let new: Vec<f32> = field(old.len(), 0x2E3).iter().map(|v| v * 3.0).collect();
    let mdr = MdrConfig::new().chunked(&[16, 16, 16]).build();
    let failing = FnSource::new(&shape, |c: usize, region: &Region| {
        if c == 3 {
            return Err(MdrError::corrupt("feed dropped"));
        }
        Ok(extract_region(&new, &shape, region))
    });
    let err = mdr.ingest(failing, &dir).unwrap_err();
    assert!(matches!(&err, MdrError::Corrupt(w) if w.contains("feed dropped")));
    let err = open_store(&dir).err().expect("a half-overwritten store");
    assert!(matches!(err, MdrError::InvalidInput(_)), "{err}");

    let report = mdr
        .ingest(SliceSource::new(&new, &shape).unwrap(), &dir)
        .unwrap();
    let mut names: Vec<String> = store_files(&dir).into_iter().map(|(n, _)| n).collect();
    names.retain(|n| n != "manifest.json");
    names.sort();
    let mut want: Vec<String> = (0..report.chunks_written)
        .map(|c| format!("c{c}.shard"))
        .collect();
    want.sort();
    assert_eq!(names, want, "exactly the new grid's shards remain");

    let store = open_store(&dir).unwrap();
    let answer = Reader::new(store.as_ref())
        .retrieve::<f32>(&Query::full(Target::Rel(1e-4)))
        .unwrap();
    let linf = new.iter().zip(&answer.data).fold(0f64, |m, (a, b)| {
        m.max((f64::from(*a) - f64::from(*b)).abs())
    });
    assert!(
        linf <= answer.achieved && answer.achieved <= 1e-4 * store.meta().value_range(),
        "true error {linf}, achieved {}, range {}",
        answer.achieved,
        store.meta().value_range()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The incremental writer refuses to commit a manifest for an
/// incomplete chunk set — a logic bug can't masquerade as a crash.
#[test]
fn writer_refuses_incomplete_finish() {
    let dir = tmp("incomplete_finish");
    let grid = ChunkGrid::new(&[8, 8], &[4, 4]);
    let mut writer = ChunkedStoreWriter::create(&dir, grid, "f32").unwrap();
    let chunk = field(16, 5);
    let r = refactor(&chunk, &[4, 4], &RefactorConfig::default());
    writer.append_chunk(&r).unwrap();
    let err = writer.finish().unwrap_err();
    assert!(
        matches!(&err, MdrError::InvalidInput(w) if w.contains("incomplete")),
        "{err}"
    );
    assert!(!dir.join("manifest.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A manifest torn mid-write (truncated JSON) is archive damage:
/// [`MdrError::Corrupt`], not a panic. The atomic rename commit makes
/// this state unreachable through the writer, but a reader must still
/// survive meeting one.
#[test]
fn torn_manifest_is_corrupt_not_a_panic() {
    let mdr = MdrConfig::new().chunked(&[4, 4]).build();
    let dir = tmp("torn_manifest");
    let data = field(8 * 8, 71);
    mdr.ingest(SliceSource::new(&data, &[8, 8]).unwrap(), &dir)
        .unwrap();
    let path = dir.join("manifest.json");
    let raw = std::fs::read(&path).unwrap();
    std::fs::write(&path, &raw[..raw.len() / 2]).unwrap();
    let err = open_store(&dir).err().unwrap();
    assert!(matches!(&err, MdrError::Corrupt(_)), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The report's measured high-water mark must honor the advertised
/// `lookahead × max-chunk-footprint` bound — the bounded-memory
/// contract, asserted on a real run. (Slot counts 1 to 8 at widths 1
/// and 4, and the exact peak at one slot, are checked in-crate by
/// `core::ingest`'s `staging_peak_is_bounded_under_every_schedule`.)
#[test]
fn ingest_report_proves_bounded_staging() {
    let data = field(32 * 16 * 16, 0xF00D);
    let dir = tmp("bounded");
    let mdr = MdrConfig::new().chunked(&[8, 8, 8]).build();
    let source = SliceSource::new(&data, &[32, 16, 16]).unwrap();
    let report = mdr.ingest(source, &dir).unwrap();
    assert_eq!(report.chunks_written, 16);
    assert_eq!(report.lookahead, hpmdr_core::ingest::DEFAULT_LOOKAHEAD);
    assert!(report.max_chunk_footprint_bytes > 0);
    assert!(
        report.peak_staged_bytes <= report.staging_bound_bytes(),
        "peak {} must stay within lookahead({}) × footprint({}) = {}",
        report.peak_staged_bytes,
        report.lookahead,
        report.max_chunk_footprint_bytes,
        report.staging_bound_bytes()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Streaming is the point: under the default lookahead, ingest stages
/// less than the input it ingests, where a whole-input refactor holds
/// all of it. (Both widths of the schedule are `core::ingest`'s
/// `serial_schedule_stages_less_than_the_whole_input`.)
#[test]
fn streaming_ingest_stages_less_than_the_whole_input() {
    let shape = [64usize, 32, 32];
    let data = field(shape.iter().product(), 0xBEEF);
    let raw_bytes = data.len() * 4;
    let dir = tmp("less_than_input");
    let mdr = MdrConfig::new().chunked(&[16, 16, 16]).build();
    let source = SliceSource::new(&data, &shape).unwrap();
    let report = mdr.ingest(source, &dir).unwrap();
    assert_eq!(report.chunks_written, 16);
    assert!(
        report.peak_staged_bytes < raw_bytes,
        "staged {} bytes of a {raw_bytes}-byte input",
        report.peak_staged_bytes
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Appended stores serve concurrent clients like any other: the grown
/// store behind a `SharedReader` answers identically to a serial
/// reader over the one-shot store.
#[test]
fn grown_store_serves_shared_readers() {
    let extent = [4usize, 4, 4];
    let data = field(12 * 8 * 8, 0xCAFE);
    let (head, tail) = data.split_at(8 * 8 * 8);

    let mdr = MdrConfig::new().chunked(&extent).build();
    let dir = tmp("shared_grown");
    mdr.ingest(SliceSource::new(head, &[8, 8, 8]).unwrap(), &dir)
        .unwrap();
    mdr.append(&dir, SliceSource::new(tail, &[4, 8, 8]).unwrap())
        .unwrap();

    let oneshot = tmp("shared_oneshot");
    let cr = refactor_chunked(&data, &[12, 8, 8], &ChunkedConfig::with_extent(&extent));
    write_chunked_store(&cr, &oneshot).unwrap();

    let shared = mdr.open_shared(&dir).unwrap();
    let query = Query::region(Target::AbsError(1e-3), Region::new(&[2, 1, 1], &[8, 6, 6]));
    let want = Reader::new(open_store(&oneshot).unwrap().as_ref())
        .retrieve::<f32>(&query)
        .unwrap();
    std::thread::scope(|s| {
        for _ in 0..4 {
            let client = shared.clone();
            let (query, want) = (&query, &want);
            s.spawn(move || {
                let got = client.retrieve::<f32>(query).unwrap();
                assert_eq!(got.data, want.data);
            });
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&oneshot);
}
