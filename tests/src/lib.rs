//! Shared fixtures for the cross-crate integration tests.

use hpmdr_datasets::{Dataset, DatasetKind};
use std::path::Path;

/// A small deterministic dataset instance for integration tests.
pub fn small_dataset(kind: DatasetKind) -> Dataset {
    let shape: Vec<usize> = kind
        .default_shape()
        .iter()
        .map(|&n| n.clamp(8, 24))
        .collect();
    Dataset::generate_with_shape(kind, &shape, 0xC0FFEE)
}

/// Every file in `dir` with its bytes, sorted by name — stores compare
/// as maps, so a missing, extra, or differing file all fail loudly.
pub fn store_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().into_string().unwrap(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort_by(|a, b| a.0.cmp(&b.0));
    files
}

/// L∞ between an f32 reconstruction and f64 truth.
pub fn linf_vs_truth(truth: &[f64], rec: &[f32]) -> f64 {
    truth
        .iter()
        .zip(rec)
        .map(|(t, r)| (t - *r as f64).abs())
        .fold(0.0, f64::max)
}
