//! Workload family `serve`: QUERY frame on the wire → samples in the
//! client's buffer.
//!
//! Two closed-loop clients on keep-alive connections stream the same
//! region queries `roi` serves one-shot and locally, so
//! streamed-over-wire against one-shot-local is a direct ratio. The path
//! under test is admission → refinement frames → wire framing → client
//! parse; an incremental-refinement or frame-serialisation win shows here
//! and must leave `roi` and `retrieve` flat.

use crate::fixture::{region_query, Fixture, DATASET, SERVER_CACHE_BUDGET};
use crate::harness::{ms, peak_rss_mb, Pace, Phase, Series, Tally};
use crate::roi::VERIFY_EVERY;
use crate::spans::Recorder;
use crate::stats::median;
use hpmdr_core::prelude::*;
use hpmdr_server::{ProgressiveClient, QueryRequest, ServerEvent, StatsReply};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Load-generating threads: one per core of the 2-core reference host.
pub const CLIENTS: usize = 2;
const REQUEST_DEADLINE: Duration = Duration::from_secs(30);

#[derive(Default)]
pub struct ServeOut {
    /// Query sent → first APPROX frame fully read, per stream.
    pub ttff_ms: Series,
    /// Query sent → final frame fully read, per stream.
    pub ttfinal_ms: Series,
    /// Seconds per completed stream, one reading per round: the inverse
    /// of the clients' summed rates.
    pub stream_s: Series,
    pub stats: Option<StatsReply>,
}

/// One streamed query as a client saw it.
struct Stream {
    query: usize,
    sent: Instant,
    first: Instant,
    last: Instant,
    frames: usize,
    /// The final frame's samples, kept for one stream in
    /// [`VERIFY_EVERY`].
    final_data: Option<Vec<f32>>,
}

fn connect(addr: SocketAddr) -> Result<ProgressiveClient, String> {
    for attempt in 1..=50u64 {
        match ProgressiveClient::connect(addr) {
            Ok(c) => return Ok(c),
            Err(_) => std::thread::sleep(Duration::from_millis(2 * attempt)),
        }
    }
    Err(format!("cannot connect to the loopback server at {addr}"))
}

fn stream_once(
    client: &mut ProgressiveClient,
    fx: &Fixture,
    query: usize,
    keep_data: bool,
) -> Result<Stream, String> {
    let q = &fx.queries[query];
    let request = QueryRequest::new(DATASET, "f32", &region_query(q, fx.roi_target));
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let sent = Instant::now();
    client
        .send_query(&request, deadline)
        .map_err(|e| format!("serve query {query}: {e}"))?;
    let mut first = None;
    let mut frames = 0usize;
    let mut achieved = f64::INFINITY;
    loop {
        let event = client
            .next_event::<f32>(deadline)
            .map_err(|e| format!("serve query {query}: {e}"))?;
        let now = Instant::now();
        match event {
            ServerEvent::Reject(r) => {
                return Err(format!(
                    "serve query {query} rejected: {:?}: {}",
                    r.code, r.message
                ))
            }
            ServerEvent::Frame(f) => {
                first.get_or_insert(now);
                frames += 1;
                if f.header.achieved > achieved {
                    return Err(format!(
                        "serve query {query}: bound loosened from {achieved:e} to {:e} at frame {frames}",
                        f.header.achieved
                    ));
                }
                achieved = f.header.achieved;
                if f.header.is_final {
                    if f.header.exhausted || achieved > fx.roi_target {
                        return Err(format!(
                            "serve query {query}: final bound {achieved:e} misses {:e}",
                            fx.roi_target
                        ));
                    }
                    return Ok(Stream {
                        query,
                        sent,
                        first: first.unwrap_or(now),
                        last: now,
                        frames,
                        final_data: keep_data.then_some(f.data),
                    });
                }
            }
        }
    }
}

/// The family's state across the rounds of one invocation.
pub struct Run<'a> {
    fx: &'a Fixture,
    phase: Phase,
    /// The clients' keep-alive connections; `None` once a transport or
    /// protocol failure has left one in an unknown state.
    clients: Vec<Option<ProgressiveClient>>,
    /// Streams each client has sent, warm-ups included: with the two
    /// walking the list interleaved (see [`pick`]), this names the next.
    sent: [usize; CLIENTS],
    streams: Vec<Stream>,
    /// How many streams had completed when each round ended.
    round_ends: Vec<usize>,
    stream_s: Series,
}

/// The query client `c` sends as its `i`-th, and whether its final frame
/// is one of those kept for comparison with a local retrieve.
fn pick(fx: &Fixture, c: usize, i: usize) -> (usize, bool) {
    (
        (CLIENTS * i + c) % fx.queries.len(),
        i.is_multiple_of(VERIFY_EVERY),
    )
}

/// What one client did in one round: its completed streams, its share of
/// the tally, the time it was busy, and whether its connection is still
/// usable.
type ClientSlice = (Vec<Stream>, Tally, Duration, bool);

/// Client `c`'s timed streams of round `round`: meet the other client at
/// the barrier, then stream closed-loop; `sent` counts its streams.
fn client_slice(
    c: usize,
    client: &mut ProgressiveClient,
    sent: &mut usize,
    fx: &Fixture,
    phase: &Phase,
    round: usize,
    barrier: &Barrier,
) -> ClientSlice {
    let mut tally = Tally::default();
    let mut streams = Vec::new();
    barrier.wait();
    let start = Instant::now();
    let mut pace = Pace::start(phase, round);
    while pace.more() {
        let (query, keep_data) = pick(fx, c, *sent);
        *sent += 1;
        pace.tick();
        match stream_once(client, fx, query, keep_data) {
            Ok(s) => {
                tally.record(Ok(()));
                streams.push(s);
            }
            Err(why) => {
                tally.record(Err(why));
                return (streams, tally, start.elapsed(), false);
            }
        }
    }
    (streams, tally, start.elapsed(), true)
}

impl<'a> Run<'a> {
    /// Connect the clients and warm each connection up.
    pub fn start(fx: &'a Fixture, phase: Phase, tally: &mut Tally) -> Self {
        let mut run = Run {
            fx,
            phase,
            clients: Vec::new(),
            sent: [0; CLIENTS],
            streams: Vec::new(),
            round_ends: Vec::new(),
            stream_s: Series::default(),
        };
        for c in 0..CLIENTS {
            let mut client = connect(fx.server.addr()).expect("the loopback server accepts");
            let mut usable = true;
            for i in 0..phase.warmup {
                let outcome = stream_once(&mut client, fx, pick(fx, c, i).0, false);
                usable &= outcome.is_ok();
                tally.record(outcome.map(drop));
            }
            run.sent[c] = phase.warmup;
            run.clients.push(usable.then_some(client));
        }
        run
    }

    /// This family's timed streams of round `round`, all clients at once.
    pub fn slice(&mut self, round: usize, tally: &mut Tally) {
        let (fx, phase) = (self.fx, &self.phase);
        let barrier = Barrier::new(self.clients.iter().flatten().count());
        let results: Vec<(usize, ClientSlice)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&mut self.sent)
                .enumerate()
                .filter_map(|(c, (client, sent))| Some((c, client.as_mut()?, sent)))
                .map(|(c, client, sent)| {
                    let barrier = &barrier;
                    let work = move || client_slice(c, client, sent, fx, phase, round, barrier);
                    (c, scope.spawn(work))
                })
                .collect();
            handles
                .into_iter()
                .map(|(c, h)| (c, h.join().expect("client thread does not panic")))
                .collect()
        });
        // Each client's own rate, so that a client waiting at the round's
        // end for the other to finish does not count as capacity unused.
        let mut rate = 0.0;
        for (c, (streams, client_tally, busy, usable)) in results {
            tally.absorb(client_tally);
            if !busy.is_zero() {
                rate += streams.len() as f64 / busy.as_secs_f64();
            }
            self.streams.extend(streams);
            if !usable {
                self.clients[c] = None;
            }
        }
        if rate > 0.0 {
            self.stream_s.push(1.0 / rate);
        }
        self.stream_s.end_round();
        self.round_ends.push(self.streams.len());
    }

    /// Median peak resident set of the process (server threads included)
    /// over one more stream from one client.
    pub fn peak_rss_mb(&mut self, tally: &mut Tally) -> f64 {
        let fx = self.fx;
        let mut client = self.clients.iter_mut().flatten().next();
        peak_rss_mb(tally, |query| {
            let client = client.as_mut().ok_or("no usable connection left")?;
            stream_once(client, fx, query, false).map(drop)
        })
    }

    /// Compare the kept final frames with local retrieves, read the
    /// server's counters, and hand over what was measured.
    pub fn finish(mut self, rec: &mut Recorder, tally: &mut Tally) -> ServeOut {
        let fx = self.fx;
        let mut out = ServeOut {
            stream_s: std::mem::take(&mut self.stream_s),
            ..ServeOut::default()
        };
        for series in [&mut out.ttff_ms, &mut out.ttfinal_ms] {
            series.round_ends = self.round_ends.clone();
        }
        let store = open_store(&fx.store_small).expect("the store set-up wrote opens");
        for s in &self.streams {
            out.ttff_ms.push(ms(s.first - s.sent));
            out.ttfinal_ms.push(ms(s.last - s.sent));
            let op = rec.next_op();
            let root = rec.push("serve.stream", op, None, s.sent, s.last);
            rec.push("serve.first_frame", op, root, s.sent, s.first);
            rec.count("progressive.frames_per_stream", s.frames as f64);
            if let Some(data) = &s.final_data {
                tally.record(matches_local(fx, &*store, s.query, data));
            }
        }
        match self
            .clients
            .iter_mut()
            .flatten()
            .next()
            .ok_or_else(|| "no usable connection left for STATS".to_string())
            .and_then(|c| {
                c.stats(Instant::now() + REQUEST_DEADLINE)
                    .map_err(|e| format!("STATS round trip: {e}"))
            }) {
            Ok(stats) => {
                if stats.shed > 0 {
                    tally.record(Err(format!(
                        "the server shed {} requests under {CLIENTS} closed-loop clients",
                        stats.shed
                    )));
                }
                out.stats = Some(stats);
            }
            Err(why) => tally.record(Err(why)),
        }

        if rec.enabled() {
            tally.record(in_process_streams(fx, self.phase.min_ops, rec));
        }
        out
    }
}

/// A streamed final frame must be bit-identical to what a local one-shot
/// `Reader::retrieve` returns for the same query.
fn matches_local(
    fx: &Fixture,
    store: &dyn Store,
    query: usize,
    streamed: &[f32],
) -> Result<(), String> {
    let local = Reader::new(store)
        .retrieve::<f32>(&region_query(&fx.queries[query], fx.roi_target))
        .map_err(|e| format!("local reference for query {query}: {e}"))?;
    let same = local.data.len() == streamed.len()
        && local
            .data
            .iter()
            .zip(streamed)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if same {
        Ok(())
    } else {
        Err(format!(
            "serve query {query}: streamed final frame differs from the local retrieve"
        ))
    }
}

/// The refinement stream without the wire: the same queries through
/// `SharedReader::stream` in this process, against a warm cache, next to
/// the one-shot `retrieve` of each. The difference to `serve`'s time to
/// final frame is what the server and the wire add.
fn in_process_streams(fx: &Fixture, count: usize, rec: &mut Recorder) -> Result<(), String> {
    let err = |e: MdrError| format!("in-process stream: {e}");
    let store: Arc<dyn Store> = Arc::new(CachedStore::new(
        open_store(&fx.store_small).map_err(err)?,
        SERVER_CACHE_BUDGET,
    ));
    let reader = SharedReader::new(store);
    let queries: Vec<Query> = fx
        .queries
        .iter()
        .take(count)
        .map(|q| region_query(q, fx.roi_target))
        .collect();
    for q in &queries {
        reader.retrieve::<f32>(q).map_err(err)?;
    }
    let mut oneshot_ms = Vec::with_capacity(queries.len());
    let mut stream_ms = Vec::with_capacity(queries.len());
    for q in &queries {
        let op = rec.next_op();
        let sent = Instant::now();
        let mut stream = reader.stream::<f32>(q).map_err(err)?;
        let mut frame_start = sent;
        loop {
            let frame = stream.refine_next().map_err(err)?;
            let now = Instant::now();
            rec.push("progressive.frame", op, None, frame_start, now);
            frame_start = now;
            match frame {
                Some(f) if !f.is_final => continue,
                _ => break,
            }
        }
        stream_ms.push(ms(sent.elapsed()));
        let t = Instant::now();
        reader.retrieve::<f32>(q).map_err(err)?;
        oneshot_ms.push(ms(t.elapsed()));
    }
    rec.count("progressive.stream_p50_ms", median(&stream_ms));
    rec.count("progressive.oneshot_p50_ms", median(&oneshot_ms));
    Ok(())
}
