//! Golden-bytes pins for serialized artifacts.
//!
//! The encode path is free to change *how* it produces streams (flat
//! plane arenas, word-at-a-time entropy I/O, write-through codec
//! selection), but never *what* bytes it produces: serialized artifacts
//! are a portability contract across devices and store generations.
//! These tests pin an FNV-1a hash of the monolithic format and the
//! sharded chunk-store files for deterministic inputs; if one fails, the
//! stream format changed and every existing archive just became
//! unreadable — either fix the regression or bump the format version and
//! re-pin deliberately.
//!
//! The pinned values were produced by the pre-arena bit-serial
//! implementation, so they also prove the arena/LUT rewrite is a pure
//! speed change.

use hpmdr_core::chunked::{refactor_chunked, ChunkedConfig};
use hpmdr_core::storage::write_chunked_store;
use hpmdr_core::{refactor, RefactorConfig};
use std::path::PathBuf;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn field_f32(nx: usize, ny: usize) -> Vec<f32> {
    let mut v = Vec::with_capacity(nx * ny);
    for x in 0..nx {
        for y in 0..ny {
            v.push((x as f32 * 0.21).sin() * 3.0 + (y as f32 * 0.13).cos());
        }
    }
    v
}

#[test]
fn monolithic_f32_artifact_bytes_are_pinned() {
    let data = field_f32(33, 20);
    let r = refactor(&data, &[33, 20], &RefactorConfig::default());
    let bytes = hpmdr_core::serialize::to_bytes(&r);
    assert_eq!(bytes.len(), 28825, "serialized length drifted");
    assert_eq!(
        fnv1a(&bytes),
        0xe801ed3bdf4feb66,
        "serialized bytes drifted"
    );
}

#[test]
fn monolithic_f64_artifact_bytes_are_pinned() {
    let data: Vec<f64> = field_f32(17, 19).into_iter().map(f64::from).collect();
    let r = refactor(&data, &[17, 19], &RefactorConfig::default());
    let bytes = hpmdr_core::serialize::to_bytes(&r);
    assert_eq!(bytes.len(), 46770, "serialized length drifted");
    assert_eq!(
        fnv1a(&bytes),
        0xf4acf031c521132f,
        "serialized bytes drifted"
    );
}

#[test]
fn chunked_store_files_are_pinned() {
    let data = field_f32(24, 18);
    let cr = refactor_chunked(&data, &[24, 18], &ChunkedConfig::with_extent(&[7, 8]));
    let dir: PathBuf =
        std::env::temp_dir().join(format!("hpmdr_golden_bytes_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_chunked_store(&cr, &dir).unwrap();
    // Manifest then shards in chunk order: one stable byte stream.
    let mut all = std::fs::read(dir.join("manifest.json")).unwrap();
    for c in 0..cr.grid.num_chunks() {
        all.extend_from_slice(&std::fs::read(dir.join(format!("c{c}.shard"))).unwrap());
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(all.len(), 169060, "chunked store byte length drifted");
    assert_eq!(
        fnv1a(&all),
        0xcf5be72c01834c6d,
        "chunked store bytes drifted"
    );
}

/// Streaming ingest must hit the *same* store pins as the whole-input
/// chunked path: the bounded pipeline is a scheduling change, never a
/// format change — an ingested store and a written
/// [`write_chunked_store`] store are interchangeable byte-for-byte.
#[test]
fn streaming_ingest_hits_the_same_chunked_pins() {
    use hpmdr_core::{MdrConfig, SliceSource};

    let data = field_f32(24, 18);
    let dir: PathBuf =
        std::env::temp_dir().join(format!("hpmdr_golden_bytes_ingest_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mdr = MdrConfig::new().chunked(&[7, 8]).build();
    let source = SliceSource::new(&data, &[24, 18]).unwrap();
    let report = mdr.ingest(source, &dir).unwrap();
    let mut all = std::fs::read(dir.join("manifest.json")).unwrap();
    for c in 0..report.chunks_written {
        all.extend_from_slice(&std::fs::read(dir.join(format!("c{c}.shard"))).unwrap());
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(all.len(), 169060, "ingested store length drifted");
    assert_eq!(
        fnv1a(&all),
        0xcf5be72c01834c6d,
        "ingested store bytes drifted"
    );
}
