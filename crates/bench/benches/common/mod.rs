//! Helpers shared by the bench targets that report a stage against a
//! same-run `memcpy` (`bench_transform`, `bench_bitplane`).

use std::time::Instant;

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
