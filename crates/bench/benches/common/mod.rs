//! Helpers shared by the bench targets that report a stage against a
//! same-run `memcpy` (`bench_transform`, `bench_bitplane`,
//! `bench_lossless`). Every target compiles this module on its own and
//! uses part of it, hence the `dead_code` allowances.

use hpmdr_datasets::fields::{spectral_field, FieldSpec};
use hpmdr_mgard::{decompose, extract_levels, Hierarchy};
use std::time::Instant;

/// The level groups, coarsest first, of a decomposed `e³` chunk of a
/// turbulent field: what one chunk of an ingest hands the bitplane
/// encoder, and — encoded and merged — the lossless stage.
#[allow(dead_code)]
pub fn level_groups(e: usize) -> Vec<Vec<f32>> {
    let shape = [e; 3];
    let mut field: Vec<f32> = spectral_field(&FieldSpec::turbulent(&shape, 3))
        .into_iter()
        .map(|v| v as f32)
        .collect();
    let h = Hierarchy::full(&shape);
    decompose(&mut field, &h, true);
    extract_levels(&field, &h)
}

/// One line of a stage's summary: nanoseconds per item and the share of
/// a same-run `memcpy`'s rate (`memcpy` seconds for the same items).
#[allow(dead_code)]
pub fn report_rate(what: &str, secs: f64, items: usize, unit: &str, memcpy: f64) {
    println!(
        "  {what:<44} {:>7.2} ns/{unit}  {:>5.1} % of memcpy rate",
        secs * 1e9 / items as f64,
        100.0 * memcpy / secs.max(f64::MIN_POSITIVE)
    );
}

/// Run `op` as one criterion benchmark and return its median wall time in
/// seconds (timed inside the closure, so the harness line and the summary
/// the caller prints describe the same iterations).
pub fn bench_median(
    g: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    mut op: impl FnMut(),
) -> f64 {
    let mut times = Vec::new();
    g.bench_function(name, |b| {
        times.clear();
        b.iter(|| {
            let t0 = Instant::now();
            op();
            times.push(t0.elapsed().as_secs_f64());
        })
    });
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}
