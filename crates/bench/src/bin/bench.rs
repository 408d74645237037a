//! Perf-trajectory bench: emits machine-readable `BENCH_pr<N>.json`.
//!
//! Measures the PR-acceptance hot paths — refactor, retrieval (full
//! domain + ROI-over-store), and the Huffman codec — at a fixed extent
//! and dataset seed, then writes one JSON report. CI uploads the file as
//! an artifact so every PR leaves a comparable data point; the committed
//! `BENCH_pr<N>.json` files at the repo root form the trajectory.
//!
//! The `facade_*` measurements repeat the refactor/retrieve/ROI paths
//! through the `core::api` façade (`Mdr` / `Reader` over `dyn Store`),
//! so every report shows the façade's overhead next to the direct
//! calls — the contract is "within noise".
//!
//! The `concurrent` section measures the PR 5 retrieval service: N
//! client threads hammering one shared `Reader` over a sharded store,
//! with and without the `CachedStore` decorator — queries/sec and bytes
//! fetched from the backing store per configuration, asserting the
//! cached run fetches strictly fewer bytes and that concurrent answers
//! are byte-identical to the serial reader's.
//!
//! The `ingest` section (PR 7) compares streaming ingest against the
//! whole-input chunked refactor on a larger volume: wall-clock plus
//! peak staged payload bytes from the pipeline's stage-buffer
//! accounting, asserting in-bench that both streaming legs stay within
//! their `lookahead × max-chunk-footprint` bound and that the
//! overlapped schedule is no slower than the serial compute-then-write
//! baseline.
//!
//! The `remote` section (PR 8) serves the sharded store over a loopback
//! HTTP server with injected per-request latency and replays centered
//! ROI queries at 0.1%/1%/10% selectivity through `RemoteStore` twice —
//! one range request per touched group versus coalesced fetch plans —
//! plus a warm re-query against `CachedStore<RemoteStore>`. Asserts
//! in-bench that coalescing issues strictly fewer requests and that the
//! warm re-query reaches the network exactly zero times.
//!
//! The `server` section (PR 9) is a tail-latency load harness for the
//! progressive retrieval server: an open-loop generator drives fleets
//! of 1→1000 keep-alive protocol clients against a loopback
//! `ProgressiveServer`, with every request's latency measured from its
//! *scheduled* arrival time (not the moment a client thread got around
//! to sending it), so queueing delay on a saturated server counts
//! against the tail instead of being coordinated-omitted away. Steady
//! points replay overlapping ROI streams under a generous in-flight
//! budget and assert the shed count stays zero; the final overload
//! point squeezes the budget below one full-domain response and
//! asserts shedding engages as typed `OverBudget` rejects (never a
//! dropped connection), while the gate's idle-admission rule keeps
//! exactly one oversized stream making progress. Per-point cache and
//! admission counters come over the wire from a STATS request.
//!
//! Knobs (environment):
//! * `HPMDR_BENCH_PR`     — PR number for the file name (default 9).
//! * `HPMDR_BENCH_EXTENT` — cubic grid extent (default 48).
//! * `HPMDR_BENCH_INGEST_EXTENT` — cubic extent for the ingest section
//!   (default `max(HPMDR_BENCH_EXTENT, 128)`; the acceptance run uses
//!   `HPMDR_BENCH_EXTENT=512`).
//! * `HPMDR_BENCH_REPS`   — timed repetitions per measurement (default 5).
//! * `HPMDR_BENCH_SERVER_CLIENTS` — cap on the client-fleet sweep of the
//!   `server` section (default 1000; smoke runs use a small cap).
//! * `HPMDR_BENCH_OUT`    — output directory (default current dir).

use hpmdr_core::chunked::ChunkedRefactored;
use hpmdr_core::chunked::{refactor_chunked, ChunkedConfig};
use hpmdr_core::ingest::{IngestOptions, SliceSource};
use hpmdr_core::prelude::{
    open_store, Approximation, CachedStore, CpuBackend, InMemoryStore, Mdr, MdrConfig, Query,
    Reader, RemoteStore, RemoteStoreConfig, Store, Target,
};
use hpmdr_core::roi::Region;
use hpmdr_core::storage::{write_chunked_store, ChunkedStoreReader};
use hpmdr_core::{refactor, RefactorConfig, RetrievalPlan, RetrievalSession};
use hpmdr_datasets::{Dataset, DatasetKind};
use hpmdr_lossless::huffman;
use hpmdr_netstore::{FaultPlan, LoopbackShardServer};
use hpmdr_server::{
    ProgressiveClient, ProgressiveServer, QueryOutcome, QueryRequest, Registry, RejectCode,
    ServerConfig, StatsReply,
};
use serde::Serialize;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 5;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() * 1e3 / reps as f64
}

#[derive(Serialize)]
struct CodecPoint {
    payload: String,
    bytes: usize,
    compress_ms: f64,
    compress_gbps: f64,
    decompress_ms: f64,
    decompress_gbps: f64,
}

#[derive(Serialize)]
struct RetrievePoint {
    rel_tolerance: f64,
    ms: f64,
    facade_ms: f64,
}

#[derive(Serialize)]
struct ConcurrentPoint {
    clients: usize,
    queries: usize,
    uncached_wall_ms: f64,
    uncached_qps: f64,
    /// Bytes the uncached run fetched from the backing store.
    uncached_bytes: usize,
    cached_wall_ms: f64,
    cached_qps: f64,
    /// Bytes the cached run fetched from the backing store (every other
    /// byte was served from the shared LRU).
    cached_bytes: usize,
    cache_hits: usize,
    cache_misses: usize,
    /// `hits / (hits + misses)` over the cached run.
    cache_hit_rate: f64,
    /// Misses that only extended an already-cached unit prefix (the
    /// progressive-refinement fast path) rather than starting cold.
    cache_extensions: usize,
}

/// One ROI selectivity served over the network tier, per-group vs
/// coalesced vs warm-cache.
#[derive(Serialize)]
struct RemotePoint {
    /// Fraction of the domain the centered ROI covers.
    selectivity: f64,
    region_side: usize,
    /// One `Range:` request per touched (chunk, group) — coalescing off.
    per_group_requests: usize,
    per_group_bytes: usize,
    per_group_wall_ms: f64,
    /// Merged ranges under the default gap threshold.
    coalesced_requests: usize,
    coalesced_bytes: usize,
    /// Gap bytes fetched and discarded to merge ranges.
    coalesced_wasted_bytes: usize,
    coalesced_wall_ms: f64,
    /// Backing requests the warm re-query issued (asserted zero).
    warm_requests: usize,
    warm_wall_ms: f64,
}

/// One leg of the streaming-vs-whole-input ingest comparison.
#[derive(Serialize)]
struct IngestPoint {
    /// `whole_input`, `serial`, or `overlapped`.
    mode: String,
    wall_ms: f64,
    /// High-water mark of staged payload bytes (stage-buffer accounting
    /// for the streaming legs; the materialized input for whole-input).
    peak_staged_bytes: usize,
    /// `lookahead × max-chunk-footprint` memory bound (0 = unbounded:
    /// the whole-input path must materialize the dataset).
    staging_bound_bytes: usize,
    lookahead: usize,
    chunks: usize,
    bytes_written: usize,
}

/// One client-fleet step of the progressive-server load harness.
#[derive(Serialize)]
struct ServerPoint {
    /// `steady` (generous budget, overlapping ROI streams) or
    /// `overload` (budget below one full-domain response).
    mode: String,
    clients: usize,
    /// Requests issued by the open-loop schedule (each is a whole
    /// refinement stream or a typed reject, never a dropped request).
    requests: usize,
    /// The server's in-flight admission budget for this point.
    budget_bytes: usize,
    /// Arrival rate the open-loop schedule offered.
    offered_qps: f64,
    /// Completed responses per second of schedule wall-clock.
    achieved_qps: f64,
    /// Latency percentiles measured from each request's *scheduled*
    /// arrival (coordinated-omission-safe), over all responses —
    /// streams and typed rejects alike.
    p50_ms: f64,
    p99_ms: f64,
    max_ms: f64,
    /// Admission counters from the wire STATS reply.
    accepted: u64,
    shed: u64,
    /// `shed / (accepted + shed)` — zero on every steady point,
    /// non-zero (and typed `OverBudget`) on the overload point.
    shed_rate: f64,
    /// Approximation frames the server wrote during this point.
    served_frames: u64,
    /// Shared-cache counters for the dataset, from the same STATS reply.
    cache_hits: usize,
    cache_misses: usize,
    cache_hit_rate: f64,
}

#[derive(Serialize)]
struct Report {
    pr: usize,
    extent: usize,
    seed: u64,
    reps: usize,
    refactor_ms: f64,
    refactor_gbps: f64,
    facade_refactor_ms: f64,
    retrieve: Vec<RetrievePoint>,
    roi_store_ms: f64,
    facade_roi_store_ms: f64,
    concurrent: Vec<ConcurrentPoint>,
    remote: Vec<RemotePoint>,
    server: Vec<ServerPoint>,
    huffman: Vec<CodecPoint>,
    ingest_extent: usize,
    ingest: Vec<IngestPoint>,
}

/// The concurrent-clients workload: a cycle of overlapping ROI queries
/// plus a periodic full-domain one — the repeated/overlapping access
/// pattern a shared cache exists for.
fn client_queries(extent: usize, value_range: f64) -> Vec<Query> {
    let side = (extent / 3).max(4).min(extent);
    let step = ((extent - side).max(1) / 4).max(1);
    let mut queries: Vec<Query> = (0..4)
        .map(|i| {
            let start = (i * step).min(extent - side);
            Query::region(
                Target::AbsError(1e-3 * value_range),
                Region::new(&[start; 3], &[side; 3]),
            )
        })
        .collect();
    queries.push(Query::full(Target::AbsError(1e-2 * value_range)));
    queries
}

/// Run `clients` threads, each serving every query `reps` times from a
/// clone of `reader`; returns wall ms and one client's answers (for the
/// byte-identity assertion).
fn hammer(
    reader: &Reader<'_>,
    queries: &[Query],
    clients: usize,
    reps: usize,
) -> (f64, Vec<Approximation<f32>>) {
    let t = Instant::now();
    let answers = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let client = reader.clone();
                s.spawn(move || {
                    let mut last = Vec::new();
                    for _ in 0..reps {
                        last = queries
                            .iter()
                            .map(|q| client.retrieve::<f32>(q).expect("query serves"))
                            .collect();
                    }
                    last
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .next_back()
            .expect("at least one client")
    });
    (t.elapsed().as_secs_f64() * 1e3, answers)
}

/// Replay centered ROI queries of rising selectivity against the
/// sharded store served over loopback HTTP: one range request per
/// touched group vs coalesced fetch plans, then a warm re-query
/// through the memory tier. Per-request latency is injected so fewer
/// requests shows up as less wall-clock, not just smaller counters.
fn remote_points(
    dir: &std::path::Path,
    extent: usize,
    value_range: f64,
    reps: usize,
) -> Vec<RemotePoint> {
    let server = LoopbackShardServer::serve_with_faults(
        dir,
        FaultPlan {
            latency: std::time::Duration::from_micros(300),
            ..FaultPlan::default()
        },
    )
    .expect("loopback server starts");
    let url = server.url();
    let local = ChunkedStoreReader::open(dir).expect("store opens");

    [0.001f64, 0.01, 0.1]
        .into_iter()
        .map(|selectivity| {
            let side = ((extent as f64 * selectivity.cbrt()) as usize + 1).min(extent);
            let start = (extent - side) / 2;
            let query = Query::region(
                Target::AbsError(1e-4 * value_range),
                Region::new(&[start; 3], &[side; 3]),
            );
            let want = Reader::new(&local)
                .retrieve::<f32>(&query)
                .expect("query serves");

            // Leg 1: coalescing off — the trait-default schedule, one
            // range request per touched (chunk, group).
            let per_group = RemoteStore::open_with(
                &url,
                RemoteStoreConfig {
                    coalesce: false,
                    ..RemoteStoreConfig::default()
                },
            )
            .expect("remote store opens");
            let (req0, xfer0) = (per_group.requests(), per_group.transfer_bytes());
            let got = Reader::new(&per_group)
                .retrieve::<f32>(&query)
                .expect("query serves");
            assert_eq!(got.data, want.data, "remote answer must match local");
            let per_group_requests = per_group.requests() - req0;
            let per_group_bytes = per_group.transfer_bytes() - xfer0;
            let per_group_wall_ms = time_ms(reps, || {
                let r = Reader::new(&per_group);
                std::hint::black_box(r.retrieve::<f32>(&query).expect("query serves"));
            });

            // Leg 2: coalesced fetch plans under the default gap
            // threshold.
            let coalesced =
                RemoteStore::open_with(&url, RemoteStoreConfig::default()).expect("remote opens");
            let (req0, xfer0, waste0) = (
                coalesced.requests(),
                coalesced.transfer_bytes(),
                coalesced.wasted_bytes(),
            );
            let got = Reader::new(&coalesced)
                .retrieve::<f32>(&query)
                .expect("query serves");
            assert_eq!(got.data, want.data, "coalesced answer must match local");
            let coalesced_requests = coalesced.requests() - req0;
            let coalesced_bytes = coalesced.transfer_bytes() - xfer0;
            let coalesced_wasted_bytes = coalesced.wasted_bytes() - waste0;
            assert!(
                coalesced_requests < per_group_requests,
                "coalescing must issue fewer requests: {coalesced_requests} vs {per_group_requests}"
            );
            let coalesced_wall_ms = time_ms(reps, || {
                let r = Reader::new(&coalesced);
                std::hint::black_box(r.retrieve::<f32>(&query).expect("query serves"));
            });

            // Leg 3: the two-tier hierarchy — after one cold query,
            // repeats must never reach the network.
            let cached = CachedStore::with_default_budget(
                RemoteStore::open_url(&url).expect("remote store opens"),
            );
            let cold = Reader::new(&cached)
                .retrieve::<f32>(&query)
                .expect("query serves");
            assert_eq!(cold.data, want.data, "cached answer must match local");
            let req0 = cached.requests();
            let warm = Reader::new(&cached)
                .retrieve::<f32>(&query)
                .expect("query serves");
            let warm_requests = cached.requests() - req0;
            assert_eq!(warm_requests, 0, "warm re-query must issue zero requests");
            assert_eq!(warm.data, want.data, "warm answer must match local");
            let warm_wall_ms = time_ms(reps, || {
                let r = Reader::new(&cached);
                std::hint::black_box(r.retrieve::<f32>(&query).expect("query serves"));
            });

            RemotePoint {
                selectivity,
                region_side: side,
                per_group_requests,
                per_group_bytes,
                per_group_wall_ms,
                coalesced_requests,
                coalesced_bytes,
                coalesced_wasted_bytes,
                coalesced_wall_ms,
                warm_requests,
                warm_wall_ms,
            }
        })
        .collect()
}

/// What one open-loop run produced: per-request latencies (from
/// scheduled arrival), the schedule's wall-clock, and every typed
/// reject the fleet saw.
struct LoadOutcome {
    latencies_ms: Vec<f64>,
    wall_ms: f64,
    reject_codes: Vec<RejectCode>,
}

fn connect_with_retry(addr: SocketAddr) -> ProgressiveClient {
    for attempt in 1..=50u64 {
        match ProgressiveClient::connect(addr) {
            Ok(c) => return c,
            Err(_) => std::thread::sleep(Duration::from_millis(5 * attempt)),
        }
    }
    panic!("cannot connect to the loopback progressive server at {addr}");
}

/// Drive `total` requests through `clients` keep-alive connections on a
/// global open-loop arrival schedule (one request every `interarrival`,
/// cycling through `requests`). Latency is measured from the request's
/// *scheduled* arrival, so time spent waiting for a free client on a
/// saturated server lands in the tail instead of being coordinated-
/// omitted away.
fn drive_open_loop(
    addr: SocketAddr,
    clients: usize,
    total: usize,
    interarrival: Duration,
    requests: &[QueryRequest],
) -> LoadOutcome {
    let next = AtomicUsize::new(0);
    // The schedule opens after a grace period so the whole fleet is
    // connected before the first arrival is considered late.
    let open = Instant::now() + Duration::from_millis(50 + clients as u64 / 2);
    let per_client = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut client = connect_with_retry(addr);
                    let mut latencies = Vec::new();
                    let mut rejects = Vec::new();
                    loop {
                        // ORDERING: work-stealing cursor; atomicity of
                        // the increment is all the claim needs.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        let scheduled = open + interarrival * i as u32;
                        let now = Instant::now();
                        if scheduled > now {
                            std::thread::sleep(scheduled - now);
                        }
                        let req = &requests[i % requests.len()];
                        let deadline = Instant::now() + Duration::from_secs(60);
                        match client.query::<f32>(req, deadline).expect("transport holds") {
                            QueryOutcome::Frames(frames) => {
                                assert!(
                                    frames.last().is_some_and(|f| f.header.is_final),
                                    "every served stream ends with a final frame"
                                );
                            }
                            QueryOutcome::Rejected(r) => rejects.push(r.code),
                        }
                        latencies.push(scheduled.elapsed().as_secs_f64() * 1e3);
                    }
                    (latencies, rejects)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    let wall_ms = open.elapsed().as_secs_f64() * 1e3;
    let mut latencies_ms = Vec::with_capacity(total);
    let mut reject_codes = Vec::new();
    for (lat, rej) in per_client {
        latencies_ms.extend(lat);
        reject_codes.extend(rej);
    }
    LoadOutcome {
        latencies_ms,
        wall_ms,
        reject_codes,
    }
}

/// Fetch the server's registry/cache/admission counters over the wire —
/// the same STATS frame any remote operator would use.
fn wire_stats(addr: SocketAddr) -> StatsReply {
    let mut client = connect_with_retry(addr);
    client
        .stats(Instant::now() + Duration::from_secs(10))
        .expect("stats round-trip")
}

fn summarize_load(
    mode: &str,
    clients: usize,
    budget_bytes: usize,
    offered_qps: f64,
    out: &LoadOutcome,
    stats: &StatsReply,
) -> ServerPoint {
    let mut lat = out.latencies_ms.clone();
    lat.sort_by(f64::total_cmp);
    let pct = |p: f64| {
        let idx = ((lat.len() as f64 - 1.0) * p).round() as usize;
        lat[idx]
    };
    let ds = &stats.datasets[0];
    let admitted = stats.accepted + stats.shed;
    ServerPoint {
        mode: mode.to_string(),
        clients,
        requests: lat.len(),
        budget_bytes,
        offered_qps,
        achieved_qps: lat.len() as f64 / (out.wall_ms / 1e3),
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
        max_ms: *lat.last().expect("at least one request"),
        accepted: stats.accepted,
        shed: stats.shed,
        shed_rate: stats.shed as f64 / admitted.max(1) as f64,
        served_frames: stats.served_frames,
        cache_hits: ds.hits,
        cache_misses: ds.misses,
        cache_hit_rate: ds.hit_rate,
    }
}

/// The tail-latency load harness: open-loop fleets of 1→`max_clients`
/// protocol clients against a loopback [`ProgressiveServer`], one fresh
/// server (cold cache, zeroed counters) per point, then one overload
/// point whose budget cannot hold even a single full-domain response.
fn server_points(cr: &ChunkedRefactored, extent: usize, max_clients: usize) -> Vec<ServerPoint> {
    let serve = |budget: usize| {
        let mut registry = Registry::new();
        registry.register("bench", Box::new(InMemoryStore::from(cr.clone())), 64 << 20);
        ProgressiveServer::serve(
            registry,
            ServerConfig {
                inflight_budget: budget,
                ..ServerConfig::default()
            },
        )
        .expect("loopback server binds")
    };

    // Steady workload: overlapping ROI refinement streams, the shape the
    // shared cache and the admission estimate are both sized for.
    let value_range = cr.value_range();
    let side = (extent / 4).max(4).min(extent);
    let step = ((extent - side).max(1) / 4).max(1);
    let roi_requests: Vec<QueryRequest> = (0..8)
        .map(|i| {
            let start = (i * step).min(extent - side);
            let query = Query::region(
                Target::AbsError(1e-3 * value_range),
                Region::new(&[start; 3], &[side; 3]),
            );
            QueryRequest::new("bench", "f32", &query)
        })
        .collect();

    let fleet: Vec<usize> = [1usize, 10, 100, 1000]
        .into_iter()
        .filter(|&c| c <= max_clients.max(1))
        .collect();
    let mut points = Vec::new();
    for clients in fleet {
        let server = serve(256 << 20);
        let total = (clients * 4).clamp(64, 1200);
        let offered_qps = ((clients * 100) as f64).min(8000.0);
        let interarrival = Duration::from_secs_f64(1.0 / offered_qps);
        let out = drive_open_loop(server.addr(), clients, total, interarrival, &roi_requests);
        assert!(
            out.reject_codes.is_empty(),
            "steady load must not shed: {:?}",
            out.reject_codes
        );
        let stats = wire_stats(server.addr());
        assert_eq!(stats.shed, 0, "steady load must not shed");
        points.push(summarize_load(
            "steady",
            clients,
            server.admission().budget(),
            offered_qps,
            &out,
            &stats,
        ));
    }

    // Overload: full-domain streams against a budget half their size.
    // The gate's idle-admission rule lets exactly one oversized stream
    // make progress at a time; every concurrent arrival is answered
    // with a typed OverBudget reject, never a dropped connection.
    let full_response_bytes: usize = [extent; 3].iter().product::<usize>() * 4;
    let budget = (full_response_bytes / 2).max(1);
    let server = serve(budget);
    let clients = max_clients.clamp(4, 64);
    let total = (clients * 8).clamp(64, 256);
    let offered_qps = 2000.0;
    let full = QueryRequest::new("bench", "f32", &Query::full(Target::Rel(1e-2)));
    let out = drive_open_loop(
        server.addr(),
        clients,
        total,
        Duration::from_secs_f64(1.0 / offered_qps),
        std::slice::from_ref(&full),
    );
    for code in &out.reject_codes {
        assert_eq!(
            *code,
            RejectCode::OverBudget,
            "overload sheds must be typed OverBudget"
        );
    }
    let stats = wire_stats(server.addr());
    assert!(stats.shed > 0, "over-budget load must engage shedding");
    assert!(stats.accepted > 0, "shedding must not starve the gate");
    points.push(summarize_load(
        "overload",
        clients,
        budget,
        offered_qps,
        &out,
        &stats,
    ));
    points
}

fn huffman_point(name: &str, data: Vec<u8>, reps: usize) -> CodecPoint {
    let compressed = huffman::compress(&data);
    let mut out = Vec::new();
    let compress_ms = time_ms(reps, || {
        std::hint::black_box(huffman::compress(&data));
    });
    let decompress_ms = time_ms(reps, || {
        huffman::decompress_into(&compressed, &mut out).expect("self-produced stream");
        std::hint::black_box(&out);
    });
    assert_eq!(out, data, "huffman roundtrip");
    let gb = data.len() as f64 / 1e9;
    CodecPoint {
        payload: name.to_string(),
        bytes: data.len(),
        compress_ms,
        compress_gbps: gb / (compress_ms / 1e3),
        decompress_ms,
        decompress_gbps: gb / (decompress_ms / 1e3),
    }
}

/// Streaming-vs-whole-input ingest comparison on a `side³` volume.
///
/// Three legs over the same fixed-seed dataset and chunk grid: the
/// whole-input baseline (refactor the materialized dataset, then write
/// every shard — peak staged payload is O(dataset) by construction),
/// then `Mdr::ingest_with` under the `Sequential` and `Overlapped`
/// schedules, whose peak comes from the pipeline's stage-buffer
/// accounting. Asserts in-bench that both streaming legs honor their
/// `lookahead × max-chunk-footprint` bound and that overlap is no
/// slower than the serial compute-then-write baseline.
fn ingest_points(side: usize, reps: usize) -> Vec<IngestPoint> {
    let shape = vec![side, side, side];
    let ds = Dataset::generate_with_shape(DatasetKind::Jhtdb, &shape, SEED);
    let data = ds.variables[0].as_f32();
    let raw_bytes = data.len() * 4;
    let chunk = (side / 4).max(8);
    let chunk_extent = [chunk, chunk, chunk];
    let n_chunks: usize = shape.iter().map(|&s| s.div_ceil(chunk)).product();
    let base = std::env::temp_dir().join(format!("hpmdr_bench_ingest_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut points = Vec::new();

    let dir = base.join("whole");
    let cfg = ChunkedConfig::with_extent(&chunk_extent);
    let wall_ms = time_ms(reps, || {
        let _ = std::fs::remove_dir_all(&dir);
        let cr = refactor_chunked(&data, &shape, &cfg);
        write_chunked_store(&cr, &dir).expect("store writes");
    });
    let shard_bytes: usize = std::fs::read_dir(&dir)
        .expect("store dir lists")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "shard"))
        .map(|e| e.metadata().map(|m| m.len() as usize).unwrap_or(0))
        .sum();
    points.push(IngestPoint {
        mode: "whole_input".to_string(),
        wall_ms,
        peak_staged_bytes: raw_bytes,
        staging_bound_bytes: 0,
        lookahead: 0,
        chunks: n_chunks,
        bytes_written: shard_bytes,
    });

    // Both streaming legs run one thread wide so the serial-vs-
    // overlapped comparison isolates the stage overlap itself.
    let mdr = MdrConfig::new()
        .chunked(&chunk_extent)
        .build_with(CpuBackend::with_threads(1));
    let streaming = |mode: &str, opts: IngestOptions| {
        let dir = base.join(mode);
        let mut last = None;
        let wall_ms = time_ms(reps, || {
            let _ = std::fs::remove_dir_all(&dir);
            let source = SliceSource::new(&data, &shape).expect("length matches shape");
            last = Some(
                mdr.ingest_with(source, &dir, &opts)
                    .expect("ingest succeeds"),
            );
        });
        let r = last.expect("at least one timed run");
        assert!(
            r.peak_staged_bytes <= r.staging_bound_bytes(),
            "{mode} ingest exceeded its staging bound: {} > {}",
            r.peak_staged_bytes,
            r.staging_bound_bytes()
        );
        assert!(
            r.peak_staged_bytes < raw_bytes,
            "streaming ingest must stage less than the whole dataset"
        );
        IngestPoint {
            mode: mode.to_string(),
            wall_ms,
            peak_staged_bytes: r.peak_staged_bytes,
            staging_bound_bytes: r.staging_bound_bytes(),
            lookahead: r.lookahead,
            chunks: r.chunks_written,
            bytes_written: r.bytes_written,
        }
    };
    let serial = streaming("serial", IngestOptions::sequential());
    let overlapped = streaming("overlapped", IngestOptions::overlapped());
    // 10% grace absorbs scheduler noise on small/oversubscribed hosts;
    // the JSON carries the exact wall-clocks.
    assert!(
        overlapped.wall_ms <= serial.wall_ms * 1.10,
        "overlapped ingest must not lose to the serial baseline: {:.2}ms vs {:.2}ms",
        overlapped.wall_ms,
        serial.wall_ms
    );
    points.push(serial);
    points.push(overlapped);

    let _ = std::fs::remove_dir_all(&base);
    points
}

fn main() {
    let pr = env_usize("HPMDR_BENCH_PR", 9);
    let extent = env_usize("HPMDR_BENCH_EXTENT", 48).max(8);
    let reps = env_usize("HPMDR_BENCH_REPS", 5).max(1);

    // Fixed-seed volume, the same generator the criterion benches use.
    let shape = vec![extent, extent, extent];
    let ds = Dataset::generate_with_shape(DatasetKind::Jhtdb, &shape, SEED);
    let data = ds.variables[0].as_f32();
    let gb = (data.len() * 4) as f64 / 1e9;
    let cfg = RefactorConfig::default();

    let refactor_ms = time_ms(reps, || {
        std::hint::black_box(refactor(&data, &shape, &cfg));
    });
    let mdr = Mdr::with_defaults();
    let facade_refactor_ms = time_ms(reps, || {
        std::hint::black_box(mdr.refactor(&data, &shape).expect("finite input"));
    });
    let refactored = refactor(&data, &shape, &cfg);
    let memory = InMemoryStore::from(refactored.clone());

    let retrieve = [1e-2f64, 1e-4, 1e-6]
        .into_iter()
        .map(|rel| {
            let eb = rel * refactored.value_range;
            let ms = time_ms(reps, || {
                let (plan, _) = RetrievalPlan::for_error(&refactored, eb);
                let mut sess = RetrievalSession::new(&refactored);
                sess.refine_to(&plan);
                std::hint::black_box(sess.reconstruct::<f32>());
            });
            let query = Query::full(Target::AbsError(eb));
            let facade_ms = time_ms(reps, || {
                let reader = Reader::new(&memory);
                std::hint::black_box(reader.retrieve::<f32>(&query).expect("query serves"));
            });
            RetrievePoint {
                rel_tolerance: rel,
                ms,
                facade_ms,
            }
        })
        .collect();

    // ROI over a sharded store: a centered hyperslab of ~1% selectivity.
    let chunk = (extent / 4).max(8);
    let cr = refactor_chunked(
        &data,
        &shape,
        &ChunkedConfig::with_extent(&[chunk, chunk, chunk]),
    );
    let dir = std::env::temp_dir().join(format!("hpmdr_bench_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_chunked_store(&cr, &dir).expect("store writes");
    let side = (extent as f64 * 0.01f64.cbrt()) as usize + 1;
    let start = (extent - side) / 2;
    let roi_query = Query::region(
        Target::AbsError(1e-4 * cr.value_range()),
        Region::new(&[start; 3], &[side; 3]),
    );
    let reader = ChunkedStoreReader::open(&dir).expect("store opens");
    let roi_store_ms = time_ms(reps, || {
        let r = Reader::new(&reader);
        std::hint::black_box(r.retrieve::<f32>(&roi_query).expect("roi retrieves"));
    });
    // The same ROI through open_store: a Reader over `dyn Store`.
    let mut store = open_store(&dir).expect("store opens");
    let facade_roi_store_ms = time_ms(reps, || {
        let r = Reader::new(store.as_mut());
        std::hint::black_box(r.retrieve::<f32>(&roi_query).expect("roi query serves"));
    });

    // Concurrent retrieval service: 1→8 clients hammering one shared
    // Reader over the sharded store, uncached vs cached.
    let queries = client_queries(extent, cr.value_range());
    let backend = CpuBackend::new();
    // Serial reference answers for the byte-identity assertion.
    let serial_store = ChunkedStoreReader::open(&dir).expect("store opens");
    let serial: Vec<Approximation<f32>> = {
        let reader = Reader::with_backend(&serial_store, backend);
        queries
            .iter()
            .map(|q| reader.retrieve::<f32>(q).expect("query serves"))
            .collect()
    };
    let concurrent: Vec<ConcurrentPoint> = [1usize, 2, 4, 8]
        .into_iter()
        .map(|clients| {
            let uncached_store: Arc<dyn Store> =
                Arc::new(ChunkedStoreReader::open(&dir).expect("store opens"));
            let uncached = Reader::with_backend(Arc::clone(&uncached_store), backend);
            let (uncached_wall_ms, answers) = hammer(&uncached, &queries, clients, reps);
            for (got, want) in answers.iter().zip(&serial) {
                assert_eq!(
                    got.data, want.data,
                    "concurrent answers must be byte-identical to serial"
                );
            }
            let uncached_bytes = uncached_store.bytes_fetched();

            let cached_store = Arc::new(CachedStore::with_default_budget(
                ChunkedStoreReader::open(&dir).expect("store opens"),
            ));
            let cached = Reader::with_backend(Arc::clone(&cached_store), backend);
            let (cached_wall_ms, answers) = hammer(&cached, &queries, clients, reps);
            for (got, want) in answers.iter().zip(&serial) {
                assert_eq!(got.data, want.data, "cached answers must match serial");
            }
            let cached_bytes = cached_store.bytes_fetched();
            assert!(
                cached_bytes < uncached_bytes,
                "cache must fetch strictly fewer bytes: {cached_bytes} vs {uncached_bytes}"
            );
            let stats = cached_store.cache_stats();
            let n_queries = clients * reps * queries.len();
            ConcurrentPoint {
                clients,
                queries: n_queries,
                uncached_wall_ms,
                uncached_qps: n_queries as f64 / (uncached_wall_ms / 1e3),
                uncached_bytes,
                cached_wall_ms,
                cached_qps: n_queries as f64 / (cached_wall_ms / 1e3),
                cached_bytes,
                cache_hits: stats.hits,
                cache_misses: stats.misses,
                cache_hit_rate: stats.hit_rate(),
                cache_extensions: stats.extensions,
            }
        })
        .collect();

    // Remote object-store tier: the same sharded store over loopback
    // HTTP, per-group vs coalesced vs warm-cache.
    let remote = remote_points(&dir, extent, cr.value_range(), reps);
    let _ = std::fs::remove_dir_all(&dir);

    // Progressive retrieval server: open-loop fleets against a loopback
    // ProgressiveServer, steady then deliberately over budget.
    let server_clients = env_usize("HPMDR_BENCH_SERVER_CLIENTS", 1000);
    let server = server_points(&cr, extent, server_clients);

    let n = 1usize << 20;
    let sparse: Vec<u8> = (0..n)
        .map(|i| if i % 37 == 0 { (i % 7 + 1) as u8 } else { 0 })
        .collect();
    let noisy: Vec<u8> = {
        let mut s = 0x12345u32;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 17;
                s ^= s << 5;
                (s >> 24) as u8
            })
            .collect()
    };
    let huffman = vec![
        huffman_point("sparse", sparse, reps),
        huffman_point("noisy", noisy, reps),
    ];

    let ingest_extent = env_usize("HPMDR_BENCH_INGEST_EXTENT", extent.max(128));
    let ingest = ingest_points(ingest_extent, reps);

    let report = Report {
        pr,
        extent,
        seed: SEED,
        reps,
        refactor_ms,
        refactor_gbps: gb / (refactor_ms / 1e3),
        facade_refactor_ms,
        retrieve,
        roi_store_ms,
        facade_roi_store_ms,
        concurrent,
        remote,
        server,
        huffman,
        ingest_extent,
        ingest,
    };
    let json = serde_json::to_vec(&report).expect("report serializes");
    let out_dir = std::env::var("HPMDR_BENCH_OUT").unwrap_or_else(|_| ".".to_string());
    let path = std::path::Path::new(&out_dir).join(format!("BENCH_pr{pr}.json"));
    std::fs::write(&path, &json).expect("report writes");
    println!("{}", String::from_utf8_lossy(&json));
    eprintln!("wrote {}", path.display());
}
