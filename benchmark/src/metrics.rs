//! The metric tables — names, units, directions and bounds — and the
//! assembly of one run's values from what the families measured.
//!
//! `BENCHMARK.json` at the repository root states the same tables for the
//! driver; a unit test keeps the two in step.

use crate::harness::RecordingGate;
use crate::harness::Series;
use crate::host::Fingerprint;
use crate::ingest::IngestOut;
use crate::retrieve::RetrieveOut;
use crate::roi::RoiOut;
use crate::serve::ServeOut;
use crate::spans::Recorder;
use crate::stats::{median, median_or_zero, quiet_percentile, Better, Bound};
use Better::{Higher, Lower};

/// One end-to-end metric: what a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may get worse before
    /// a change is rejected — across commits, seeds and hosts of one kind
    /// (`BENCHMARK.json` carries the same figure).
    pub bound: f64,
    /// What `--repeat-check` holds two same-seed sets of one build to.
    pub repeat: Bound,
}

const fn measured(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        repeat: Bound::Share(bound),
    }
}

/// A byte ratio (the other metrics are [`measured`]): fixed by the seed,
/// so two sets of one build must agree exactly, while across seeds it
/// moves with the field.
const fn ratio(name: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit: "ratio",
        better: Lower,
        bound,
        repeat: Bound::Exact,
    }
}

// Bounds are sized to what this sandbox can resolve, by two rules of the
// builder contract. A metric's spread over ten seeds stays below a third
// of its bound: in quiet hours the medians spread 1–8 % and the p95s
// 2–10 %, `retrieve_coarse_fetch_ratio` 8–11 %. And a second ten-run median
// of the same build stays within the bound of the first: a noisy hour
// moved the medians by up to 6 %, `serve_qps` by 8 %, the p95s by 10 %, and
// spread the `serve` tail 17 %. No bound may exceed 25 %. `README.md` has
// the measurements.
pub const END_TO_END: [EndToEnd; 15] = [
    measured("setup_s", "s", Lower, 0.25),
    measured("peak_rss_mb", "MB", Lower, 0.15),
    measured("ingest_mbps", "MB/s", Higher, 0.20),
    ratio("ingest_stored_ratio", 0.08),
    measured("retrieve_coarse_p50_ms", "ms", Lower, 0.20),
    measured("retrieve_fine_p50_ms", "ms", Lower, 0.20),
    measured("retrieve_qoi_p50_ms", "ms", Lower, 0.20),
    ratio("retrieve_coarse_fetch_ratio", 0.25),
    ratio("retrieve_fine_fetch_ratio", 0.15),
    measured("roi_p50_ms", "ms", Lower, 0.20),
    measured("roi_p95_ms", "ms", Lower, 0.25),
    measured("serve_qps", "1/s", Higher, 0.25),
    measured("serve_ttff_p50_ms", "ms", Lower, 0.20),
    measured("serve_ttfinal_p50_ms", "ms", Lower, 0.20),
    measured("serve_ttfinal_p95_ms", "ms", Lower, 0.25),
];

/// One per-layer metric (traced run). No bound: these explain a move in
/// an end-to-end metric, they do not gate one.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 52] = [
    layer("host.memcpy_gbps", "GB/s", Higher),
    layer("host.cores", "count", Higher),
    layer("mgard.decompose_ms", "ms", Lower),
    layer("mgard.extract_levels_ms", "ms", Lower),
    layer("mgard.recompose_ms", "ms", Lower),
    layer("mgard.inject_levels_ms", "ms", Lower),
    layer("bitplane.encode_ms", "ms", Lower),
    layer("bitplane.decode_ms", "ms", Lower),
    layer("bitplane.plane_mb", "MB", Lower),
    layer("lossless.compress_ms", "ms", Lower),
    layer("lossless.decompress_ms", "ms", Lower),
    layer("lossless.ratio", "ratio", Higher),
    layer("lossless.huffman_share", "ratio", Higher),
    layer("lossless.rle_share", "ratio", Higher),
    layer("lossless.direct_share", "ratio", Lower),
    layer("exec.encode_and_compress_ms", "ms", Lower),
    layer("exec.decode_units_ms", "ms", Lower),
    layer("exec.materialize_ms", "ms", Lower),
    layer("refactor.chunk_ms", "ms", Lower),
    layer("refactor.unattributed_share", "ratio", Lower),
    layer("storage.write_ms", "ms", Lower),
    layer("storage.open_ms", "ms", Lower),
    layer("storage.load_ms", "ms", Lower),
    layer("storage.load_mb", "MB", Lower),
    layer("storage.ranges_read", "count", Lower),
    layer("ingest.read_ms", "ms", Lower),
    layer("ingest.peak_staged_mb", "MB", Lower),
    layer("ingest.overlap_ratio", "ratio", Higher),
    layer("api.plan_ms", "ms", Lower),
    layer("api.retrieve_unattributed_share", "ratio", Lower),
    layer("api.roi_unattributed_share", "ratio", Lower),
    layer("cache.warm_hit_rate", "ratio", Higher),
    layer("cache.tight_hit_rate", "ratio", Higher),
    layer("cache.cold_p50_ms", "ms", Lower),
    layer("cache.tight_p50_ms", "ms", Lower),
    layer("cache.backing_mb_per_query", "MB", Lower),
    layer("qoi.iterations", "count", Lower),
    layer("qoi.recompose_elements", "count", Lower),
    layer("qoi.fetched_mb", "MB", Lower),
    layer("progressive.frames_per_stream", "count", Lower),
    layer("progressive.frame_p50_ms", "ms", Lower),
    layer("progressive.stream_over_oneshot", "ratio", Lower),
    layer("wire.write_frame_mbps", "MB/s", Higher),
    layer("wire.read_frame_mbps", "MB/s", Higher),
    layer("wire.small_frame_us", "us", Lower),
    layer("server.accepted", "count", Higher),
    layer("server.shed", "count", Lower),
    layer("server.served_frames", "count", Lower),
    layer("server.cache_hit_rate", "ratio", Higher),
    layer("server.request_json_us", "us", Lower),
    layer("server.overhead_ms", "ms", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];

/// Everything one invocation measured.
pub struct Measured {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub input_bytes: usize,
    pub ingest: IngestOut,
    pub retrieve: RetrieveOut,
    pub roi: RoiOut,
    pub serve: ServeOut,
}

/// The end-to-end values of one run, in [`END_TO_END`] order. Every time
/// is read where the host was quiet (see [`quiet_percentile`]).
pub fn end_to_end(m: &Measured) -> Vec<f64> {
    let quiet = |series: &Series, p: f64| quiet_percentile(&series.values, &series.round_ends, p);
    let per_second = |seconds: f64| if seconds > 0.0 { 1.0 / seconds } else { 0.0 };
    let values = vec![
        m.setup_s,
        m.peak_rss_mb,
        m.input_bytes as f64 / 1e6 * per_second(quiet(&m.ingest.op_s, 50.0)),
        m.ingest.stored_ratio,
        quiet(&m.retrieve.coarse_ms, 50.0),
        quiet(&m.retrieve.fine_ms, 50.0),
        quiet(&m.retrieve.qoi_ms, 50.0),
        m.retrieve.coarse_fetch_ratio,
        m.retrieve.fine_fetch_ratio,
        quiet(&m.roi.warm_ms, 50.0),
        quiet(&m.roi.warm_ms, 95.0),
        per_second(quiet(&m.serve.stream_s, 50.0)),
        quiet(&m.serve.ttff_ms, 50.0),
        quiet(&m.serve.ttfinal_ms, 50.0),
        quiet(&m.serve.ttfinal_ms, 95.0),
    ];
    debug_assert_eq!(values.len(), END_TO_END.len());
    values
}

/// How much slower the recorded operations of the watched family ran
/// than its unrecorded ones; the two alternate (see [`RecordingGate`]), so
/// both see the same host.
fn overhead(samples: &[f64]) -> Option<f64> {
    let of = |recorded: bool| -> Vec<f64> {
        let picked = samples.iter().enumerate();
        picked
            .filter(|&(i, _)| RecordingGate::records(i) == recorded)
            .map(|(_, &v)| v)
            .collect()
    };
    let (reference, traced) = (of(false), of(true));
    (!reference.is_empty() && !traced.is_empty())
        .then(|| median(&traced) / median(&reference) - 1.0)
}

/// The per-layer values of one traced run, in [`PER_LAYER`] order.
pub fn per_layer(
    m: &Measured,
    host: &Fingerprint,
    rec: &Recorder,
    focus: crate::Workload,
) -> Vec<f64> {
    let op_ms = |span: &str| median_or_zero(&rec.per_op_ms(span));
    let count = |name: &str| median_or_zero(rec.counted(name));
    let unattributed =
        |parts: &[&str], whole: &str| 1.0 - median_or_zero(&rec.per_op_share(parts, whole));
    let stats = m.serve.stats.as_ref();
    let stream_p50 = count("progressive.stream_p50_ms");
    let oneshot_p50 = count("progressive.oneshot_p50_ms");
    let trace_overhead = match focus {
        crate::Workload::Ingest => overhead(&m.ingest.op_s.values),
        crate::Workload::Retrieve => overhead(&m.retrieve.fine_ms.values),
        crate::Workload::Roi => overhead(&m.roi.warm_ms.values),
        // The serve clients hand their spans over after the timed
        // section, so recording costs their streams nothing.
        crate::Workload::Serve => Some(0.0),
    };

    let values = vec![
        host.memcpy_gbps,
        host.cores as f64,
        op_ms("mgard.decompose"),
        op_ms("mgard.extract_levels"),
        op_ms("mgard.recompose"),
        op_ms("mgard.inject_levels"),
        op_ms("bitplane.encode"),
        op_ms("bitplane.decode"),
        count("bitplane.plane_mb"),
        op_ms("lossless.compress"),
        op_ms("lossless.decompress"),
        count("lossless.ratio"),
        count("lossless.huffman_share"),
        count("lossless.rle_share"),
        count("lossless.direct_share"),
        op_ms("exec.encode_and_compress"),
        op_ms("exec.decode_units"),
        op_ms("exec.materialize"),
        median_or_zero(&rec.each_ms("refactor.chunk")),
        unattributed(
            &[
                "mgard.decompose",
                "mgard.extract_levels",
                "bitplane.encode",
                "lossless.compress",
            ],
            "refactor.chunk",
        ),
        op_ms("storage.write"),
        count("storage.open_ms"),
        op_ms("storage.load"),
        count("storage.load_mb"),
        count("storage.ranges_read"),
        op_ms("ingest.read"),
        count("ingest.peak_staged_mb"),
        median_or_zero(&rec.per_op_share(
            &["ingest.read", "refactor.chunk", "storage.write"],
            "ingest",
        )),
        op_ms("roi.plan"),
        unattributed(
            &[
                "retrieve.plan",
                "storage.load",
                "exec.decode_units",
                "exec.materialize",
                "mgard.inject_levels",
                "mgard.recompose",
            ],
            "retrieve.fine",
        ),
        unattributed(
            &[
                "roi.plan",
                "roi.load",
                "roi.decode_units",
                "roi.materialize",
                "roi.inject_levels",
                "roi.recompose",
            ],
            "roi",
        ),
        count("cache.warm_hit_rate"),
        count("cache.tight_hit_rate"),
        count("cache.cold_p50_ms"),
        count("cache.tight_p50_ms"),
        count("cache.backing_mb_per_query"),
        count("qoi.iterations"),
        count("qoi.recompose_elements"),
        count("qoi.fetched_mb"),
        count("progressive.frames_per_stream"),
        median_or_zero(&rec.each_ms("progressive.frame")),
        if oneshot_p50 > 0.0 {
            stream_p50 / oneshot_p50
        } else {
            0.0
        },
        count("wire.write_frame_mbps"),
        count("wire.read_frame_mbps"),
        count("wire.small_frame_us"),
        stats.map_or(0.0, |s| s.accepted as f64),
        stats.map_or(0.0, |s| s.shed as f64),
        stats.map_or(0.0, |s| s.served_frames as f64),
        stats
            .and_then(|s| s.datasets.first())
            .map_or(0.0, |d| d.hit_rate),
        count("server.request_json_us"),
        median_or_zero(&m.serve.ttfinal_ms.values) - stream_p50,
        trace_overhead.unwrap_or(0.0),
    ];
    debug_assert_eq!(values.len(), PER_LAYER.len());
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the program prints. They must name the same metrics.
    #[test]
    fn benchmark_json_states_the_same_tables() {
        let doc: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let rows = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.field(key)
                .as_array()
                .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
                .iter()
                .map(|row| {
                    let text = |k: &str| row.field(k).as_str().expect("string field").to_string();
                    (
                        text("name"),
                        text("unit"),
                        text("better"),
                        row.field("bound").as_f64(),
                    )
                })
                .collect()
        };
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(rows("end_to_end"), ours);
        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    None,
                )
            })
            .collect();
        assert_eq!(rows("per_layer"), ours);

        let workloads: Vec<&str> = doc
            .field("workloads")
            .as_array()
            .expect("workloads list")
            .iter()
            .map(|w| w.field("name").as_str().expect("workload name"))
            .collect();
        let ours: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn tracing_overhead_compares_recorded_with_unrecorded_operations() {
        // Operations 1 and 3 were recorded, 0, 2 and 4 were not.
        let samples = [10.0, 11.0, 10.0, 11.0, 10.0];
        let share = overhead(&samples).expect("both kinds present");
        assert!((share - 0.1).abs() < 1e-12);
        assert_eq!(overhead(&samples[..1]), None, "nothing was recorded");
        assert_eq!(overhead(&[]), None);
    }
}
