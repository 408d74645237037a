//! Chunked-domain benchmarks: chunked vs monolithic refactoring, and the
//! byte economics of region-of-interest retrieval.
//!
//! The ROI section prints a selectivity report comparing the bytes an
//! ROI query fetches against a full-domain retrieval at the same error
//! bound — the acceptance claim of the chunked layer (an ROI query over
//! a 512³-scale field must fetch strictly fewer bytes). The `stream`
//! group prices a region query streamed frame by frame against the same
//! query answered one-shot. The `ingest` group is the write path's stage
//! table: milliseconds per stage of a streaming ingest, the floor they
//! imply on the host's cores, and how far the ingest sits above it.
//! Set `HPMDR_BENCH_EXTENT=512` for the full-size run; the default keeps
//! CI and laptops in seconds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hpmdr_core::api::{CachedStore, InMemoryStore, MdrConfig, Query, Reader, Target};
use hpmdr_core::chunked::{refactor_chunked, ChunkGrid, ChunkedConfig, ChunkedRefactored};
use hpmdr_core::ingest::{ChunkSource, FileSource};
use hpmdr_core::roi::{Region, RoiPlan, RoiRequest};
use hpmdr_core::storage::{write_chunked_store, ChunkedStoreReader, ChunkedStoreWriter};
use hpmdr_core::{encode, prepare, refactor_with, CpuBackend, ExecCtx, RefactorConfig};
use hpmdr_datasets::{uniform_queries, Dataset, DatasetKind};
use std::sync::Arc;
use std::time::Instant;

mod common;
use common::bench_median;

/// `HPMDR_BENCH_EXTENT`, if set.
fn env_extent() -> Option<usize> {
    std::env::var("HPMDR_BENCH_EXTENT")
        .ok()
        .and_then(|v| v.parse().ok())
}

/// Grid extent per dimension. Defaults to a laptop-friendly 96³; set
/// `HPMDR_BENCH_EXTENT=512` for the full 512³-scale acceptance run.
fn bench_extent() -> usize {
    env_extent().unwrap_or(96).max(8)
}

/// Samples per benchmark (`HPMDR_BENCH_SAMPLES`, default 10). Full-size
/// runs on slow hosts can drop this to keep wall-clock bounded.
fn bench_samples() -> usize {
    std::env::var("HPMDR_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10)
        .max(1)
}

fn chunk_extent_for(e: usize) -> usize {
    // ~4x4x4 chunks per domain at every scale, and deliberately not a
    // divisor of typical extents (exercises clipped boundary chunks).
    (e / 4 + 1).max(8)
}

/// Monolithic vs chunked refactoring one thread wide ("scalar") and
/// host-wide ("parallel"): the chunk grid must not cost throughput, and
/// gives a wide backend chunk-level parallelism on top of its in-chunk
/// fan-out.
fn bench_chunked_refactor(c: &mut Criterion) {
    let e = bench_extent();
    let shape = vec![e, e, e];
    let ds = Dataset::generate_with_shape(DatasetKind::Jhtdb, &shape, 5);
    let data = ds.variables[0].as_f32();
    let ctx = ExecCtx::default();
    let cfg = RefactorConfig::default();
    let chunked = MdrConfig::new().chunked(&[chunk_extent_for(e); 3]);

    let mut g = c.benchmark_group("chunked_refactor");
    g.throughput(Throughput::Bytes((data.len() * 4) as u64));
    g.bench_function(BenchmarkId::new("monolithic_scalar", e), |b| {
        let backend = CpuBackend::with_threads(1);
        b.iter(|| refactor_with(&data, &shape, &cfg, &backend, &ctx))
    });
    g.bench_function(BenchmarkId::new("chunked_scalar", e), |b| {
        let mdr = chunked.clone().build_with(CpuBackend::with_threads(1));
        b.iter(|| mdr.refactor(&data, &shape).expect("field refactors"))
    });
    g.bench_function(BenchmarkId::new("chunked_parallel", e), |b| {
        let mdr = chunked.clone().build_with(CpuBackend::new());
        b.iter(|| mdr.refactor(&data, &shape).expect("field refactors"))
    });
    g.finish();
}

/// The `e`³ field of the retrieval groups, refactored in
/// [`chunk_extent_for`] chunks.
fn chunked_field(e: usize) -> ChunkedRefactored {
    let shape = vec![e, e, e];
    let ds = Dataset::generate_with_shape(DatasetKind::Jhtdb, &shape, 5);
    let ccfg = ChunkedConfig {
        chunk_extent: vec![chunk_extent_for(e); 3],
        refactor: RefactorConfig::default(),
    };
    refactor_chunked(&ds.variables[0].as_f32(), &shape, &ccfg)
}

/// ROI retrieval through the sharded store at several selectivities,
/// reporting fetched bytes vs the full-domain fetch at the same bound.
fn bench_roi_selectivity(c: &mut Criterion) {
    let e = bench_extent();
    let shape = vec![e, e, e];
    let backend = CpuBackend::new();
    let cr = chunked_field(e);

    let dir = std::env::temp_dir().join(format!("hpmdr_bench_roi_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_chunked_store(&cr, &dir).expect("bench store writes");

    let eb = 1e-3 * cr.value_range();
    let full_plan = RoiPlan::for_request(&cr, &RoiRequest::new(Region::whole(&shape), eb))
        .expect("full-domain plan");
    let full_bytes = full_plan.fetch_bytes(&cr);

    let mut g = c.benchmark_group("roi_retrieval");
    for selectivity in [0.001f64, 0.01, 0.1] {
        let query = &uniform_queries(&shape, selectivity, 1, 42)[0];
        let region = Region::new(&query.start, &query.extent);
        let req = RoiRequest::new(region, eb);
        let plan = RoiPlan::for_request(&cr, &req).expect("roi plan");
        let roi_bytes = plan.fetch_bytes(&cr);
        println!(
            "roi_selectivity {selectivity:>6}: {roi_bytes} bytes over {} chunks \
             vs full-domain {full_bytes} bytes over {} chunks ({:.2}%)",
            plan.num_chunks(),
            full_plan.num_chunks(),
            100.0 * roi_bytes as f64 / full_bytes as f64,
        );
        // The acceptance claim: an ROI query fetches strictly fewer
        // bytes than full-domain retrieval at the same error bound.
        assert!(
            roi_bytes < full_bytes,
            "roi fetched {roi_bytes} >= full {full_bytes}"
        );

        // Open once: manifest parsing is a per-archive cost, not a
        // per-query one (a service keeps the reader resident).
        let reader = ChunkedStoreReader::open(&dir).expect("store opens");
        g.throughput(Throughput::Bytes((req.region.len() * 4) as u64));
        let roi_query = Query::region(Target::AbsError(req.error_bound), req.region.clone());
        g.bench_with_input(
            BenchmarkId::new("store_roi", format!("{selectivity}")),
            &roi_query,
            |b, q| {
                b.iter(|| {
                    Reader::with_backend(&reader, backend)
                        .retrieve::<f32>(q)
                        .expect("roi retrieves")
                })
            },
        );
    }
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Region queries of one chunk's extent (they straddle up to eight
/// chunks — the repository benchmark's `serve` queries), each streamed to
/// its final frame and answered one-shot by the same reader behind a warm
/// cache. A refinement frame should cost its own units plus a recompose,
/// so a stream of `k` frames must cost well under `k` one-shot queries.
fn bench_stream(c: &mut Criterion) {
    const QUERIES: usize = 8;
    let e = bench_extent();
    let shape = vec![e, e, e];
    let chunk = chunk_extent_for(e);
    let cr = chunked_field(e);
    let eb = 1e-4 * cr.value_range();
    let reader = Reader::new(Arc::new(CachedStore::new(
        InMemoryStore::from(cr),
        usize::MAX,
    )));
    let selectivity = (chunk as f64 / e as f64).powi(3);
    let queries: Vec<Query> = uniform_queries(&shape, selectivity, QUERIES, 42)
        .iter()
        .map(|q| Query::region(Target::AbsError(eb), Region::new(&q.start, &q.extent)))
        .collect();

    let mut g = c.benchmark_group("stream");
    let mut frames = 0;
    let stream = bench_median(&mut g, "stream_to_final", || {
        frames = 0;
        for q in &queries {
            let mut s = reader.stream::<f32>(q).expect("stream opens");
            while let Some(frame) = s.refine_next().expect("frame refines") {
                frames += 1;
                criterion::black_box(frame);
            }
        }
    });
    let oneshot = bench_median(&mut g, "oneshot_retrieve", || {
        for q in &queries {
            criterion::black_box(reader.retrieve::<f32>(q).expect("query retrieves"));
        }
    });
    g.finish();

    let per_stream = frames as f64 / QUERIES as f64;
    let ratio = stream / oneshot;
    println!(
        "stream {e}^3 in {chunk}^3 chunks: {per_stream:.1} frames per stream, \
         {:.0} us per frame, {:.0} us per one-shot query, \
         stream/one-shot {ratio:.2} = {:.2} x frames",
        stream * 1e6 / frames as f64,
        oneshot * 1e6 / QUERIES as f64,
        ratio / per_stream,
    );
    // Loose on purpose: CI runs a tiny extent, where fixed per-frame
    // costs weigh most.
    assert!(
        ratio < per_stream,
        "a {per_stream:.1}-frame stream cost {ratio:.2} one-shot queries"
    );
}

/// Median over [`bench_samples`] runs (after one warm-up) of each value
/// `run` returns: the seconds of the parts of it that count, so per-run
/// set-up and clean-up stay untimed.
fn median_secs<const N: usize>(mut run: impl FnMut() -> [f64; N]) -> [f64; N] {
    run();
    let runs: Vec<[f64; N]> = (0..bench_samples()).map(|_| run()).collect();
    std::array::from_fn(|i| {
        let mut column: Vec<f64> = runs.iter().map(|r| r[i]).collect();
        column.sort_by(f64::total_cmp);
        column[column.len() / 2]
    })
}

/// The write path as a stage table, on the repository benchmark's
/// geometry: an `e`³ raw file (128³ unless `HPMDR_BENCH_EXTENT` is set)
/// ingested in 2 × 2 × 2 chunks on the default backend. One serial pass
/// through the public leaf calls prices each stage. `Mdr::ingest` runs
/// every stage of a chunk on the worker loop that read it, one loop per
/// core, with the reads one at a time under the source lock — so on
/// `cores` cores its floor is `max(Σ read, (Σ − finish) / cores)` plus the
/// schedule's fill (the first chunk's read, which the other loops queue
/// behind) and drain (the last shard's write and the serial manifest
/// commit).
fn bench_ingest(_c: &mut Criterion) {
    let e = env_extent().unwrap_or(128).max(8);
    let shape = [e; 3];
    let chunk = [e.div_ceil(2); 3];
    let ds = Dataset::generate_with_shape(DatasetKind::Jhtdb, &shape, 5);
    let bytes: Vec<u8> = ds.variables[0]
        .as_f32()
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let tag = format!("hpmdr_bench_ingest_{}", std::process::id());
    let raw = std::env::temp_dir().join(format!("{tag}.f32"));
    let dir = std::env::temp_dir().join(tag);
    std::fs::write(&raw, &bytes).expect("bench field writes");

    let mdr = MdrConfig::new().chunked(&chunk).build();
    let (backend, ctx, cfg) = (mdr.backend(), ExecCtx::default(), RefactorConfig::default());
    let grid = ChunkGrid::new(&shape, &chunk);
    let n = grid.num_chunks();
    let timed = |secs: &mut f64, t0: Instant| *secs += t0.elapsed().as_secs_f64();

    let mut reads = 0;
    let [read, prep, enc, write, finish] = median_secs(|| {
        let _ = std::fs::remove_dir_all(&dir);
        let mut source = FileSource::<f32>::open(&raw, &shape).expect("bench field opens");
        let mut writer =
            ChunkedStoreWriter::create(&dir, grid.clone(), "f32").expect("bench store opens");
        let mut stage = [0f64; 5];
        for c in 0..n {
            let region = grid.chunk_region(c);
            let t0 = Instant::now();
            let data = source.read_chunk(c, &region).expect("chunk reads");
            timed(&mut stage[0], t0);
            let t0 = Instant::now();
            let prepared = prepare(data, &region.extent, &cfg, backend, &ctx);
            timed(&mut stage[1], t0);
            let t0 = Instant::now();
            let artifact = encode(&prepared, &cfg, backend, &ctx);
            timed(&mut stage[2], t0);
            let t0 = Instant::now();
            writer.append_chunk(&artifact).expect("shard writes");
            timed(&mut stage[3], t0);
        }
        let t0 = Instant::now();
        writer.finish().expect("manifest commits");
        timed(&mut stage[4], t0);
        reads = source.reads_issued();
        stage
    });

    let [overlapped] = median_secs(|| {
        let _ = std::fs::remove_dir_all(&dir);
        let source = FileSource::<f32>::open(&raw, &shape).expect("bench field opens");
        let t0 = Instant::now();
        mdr.ingest(source, &dir).expect("ingest runs");
        [t0.elapsed().as_secs_f64()]
    });
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&raw);

    let ms = |s: f64| s * 1e3;
    let mbps = |s: f64| bytes.len() as f64 / s / 1e6;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "ingest {e}^3 in {}^3 chunks, {n} chunks, backend {}, {cores} cores, ms per ingest:",
        chunk[0],
        hpmdr_core::Backend::name(backend)
    );
    println!(
        "  every loop  read {:.2} ({} reads per chunk, under the source lock) + prepare {:.2} \
         + encode {:.2} + write {:.2}",
        ms(read),
        reads / n,
        ms(prep),
        ms(enc),
        ms(write)
    );
    println!("  serial      finish {:.2}", ms(finish));
    let total = read + prep + enc + write + finish;
    let spread = (total - finish) / cores as f64;
    let fill = read / n as f64;
    let drain = write / n as f64 + finish;
    let floor = read.max(spread) + fill + drain;
    println!(
        "  overlapped wall {:.2} ({:.0} MB/s), stage sum {:.2} ({:.0} MB/s)",
        ms(overlapped),
        mbps(overlapped),
        ms(total),
        mbps(total)
    );
    println!(
        "  {cores}-core floor = max(reads {:.2}, (sum - finish) / {cores} {:.2}) + fill {:.2} \
         + drain {:.2} = {:.2}; overlapped wall = {:+.0} % above it",
        ms(read),
        ms(spread),
        ms(fill),
        ms(drain),
        ms(floor),
        100.0 * (overlapped / floor - 1.0)
    );
    // The stage sum is the serial schedule's work. With one core the
    // overlap hides none of it, and under ~10 ms of it (CI's smoke
    // extent) waking the pool's loops outweighs what it hides: noise
    // either way.
    if cores >= 2 && total >= 10e-3 {
        assert!(
            overlapped <= total,
            "overlapped ingest {:.2} ms slower than its stage sum {:.2} ms on {cores} cores",
            ms(overlapped),
            ms(total)
        );
    }
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(bench_samples());
    targets = bench_chunked_refactor, bench_roi_selectivity, bench_stream, bench_ingest
);
criterion_main!(benches);
