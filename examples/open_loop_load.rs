//! Tail latency of the progressive retrieval server under open-loop load.
//!
//! An open-loop generator drives fleets of 1 → `max_clients` keep-alive
//! protocol clients against a loopback `ProgressiveServer`, with every
//! request's latency measured from its *scheduled* arrival time (not the
//! moment a client thread got around to sending it), so queueing delay on
//! a saturated server counts against the tail instead of being
//! coordinated-omitted away. Steady points replay overlapping ROI streams
//! under a generous in-flight budget and assert the shed count stays
//! zero; the final overload point squeezes the budget below one
//! full-domain response and asserts shedding engages as typed
//! `OverBudget` rejects (never a dropped connection), while the gate's
//! idle-admission rule keeps exactly one oversized stream making
//! progress. Per-point cache and admission counters come over the wire
//! from a STATS request.
//!
//! Run with `cargo run -p hpmdr-examples --release --bin open_loop_load [max_clients]`
//! (`max_clients` defaults to 100; the sweep is 1, 10, 100, 1000 clients
//! up to that cap).

use hpmdr_core::prelude::*;
use hpmdr_datasets::{Dataset, DatasetKind};
use hpmdr_server::{
    ProgressiveClient, ProgressiveServer, QueryOutcome, QueryRequest, Registry, RejectCode,
    ServerConfig, StatsReply,
};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const SEED: u64 = 5;
const EXTENT: usize = 48;

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

/// Print one client-fleet step: latency percentiles from scheduled
/// arrival (coordinated-omission-safe) over all responses — streams and
/// typed rejects alike — and the admission and cache counters of the
/// wire STATS reply.
fn print_point(
    mode: &str,
    clients: usize,
    budget_bytes: usize,
    offered_qps: f64,
    out: &LoadOutcome,
    stats: &StatsReply,
) {
    let mut lat = out.latencies_ms.clone();
    lat.sort_by(f64::total_cmp);
    let pct = |p: f64| lat[((lat.len() as f64 - 1.0) * p).round() as usize];
    println!(
        "{mode:<9} {clients:>7} {:>8} {budget_bytes:>10} {offered_qps:>9.0} {:>9.1} {:>9.2} {:>9.2} {:>9.2} {:>8} {:>6} {:>7} {:>6.3}",
        lat.len(),
        lat.len() as f64 / (out.wall_ms / 1e3),
        pct(0.50),
        pct(0.99),
        pct(1.0),
        stats.accepted,
        stats.shed,
        stats.served_frames,
        stats.datasets[0].hit_rate
    );
}

/// Open-loop fleets of 1→`max_clients` protocol clients against a
/// loopback [`ProgressiveServer`], one fresh server (cold cache, zeroed
/// counters) per point, then one overload point whose budget cannot hold
/// even a single full-domain response. Returns the overload point's
/// STATS reply.
fn server_points(cr: &ChunkedRefactored, extent: usize, max_clients: usize) -> StatsReply {
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
        print_point(
            "steady",
            clients,
            server.admission().budget(),
            offered_qps,
            &out,
            &stats,
        );
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
    print_point("overload", clients, budget, offered_qps, &out, &stats);
    stats
}

fn main() {
    let max_clients: usize = match std::env::args().nth(1) {
        Some(arg) => arg
            .parse()
            .expect("max_clients must be a non-negative integer"),
        None => 100,
    };

    let shape = vec![EXTENT; 3];
    let ds = Dataset::generate_with_shape(DatasetKind::Jhtdb, &shape, SEED);
    let data = ds.variables[0].as_f32();
    let chunk = EXTENT / 4;
    let artifact = MdrConfig::new()
        .chunked(&[chunk; 3])
        .build()
        .refactor(&data, &shape)
        .expect("finite input");
    let Artifact::Chunked(cr) = artifact else {
        panic!("chunked config produces a chunked artifact");
    };

    println!(
        "{:<9} {:>7} {:>8} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>8} {:>6} {:>7} {:>6}",
        "mode",
        "clients",
        "requests",
        "budget",
        "offer/s",
        "done/s",
        "p50 ms",
        "p99 ms",
        "max ms",
        "accepted",
        "shed",
        "frames",
        "hit"
    );
    let overload = server_points(&cr, EXTENT, max_clients);
    println!(
        "\nsteady load shed nothing; over-budget load shed {} typed OverBudget and admitted {}",
        overload.shed, overload.accepted
    );
}
