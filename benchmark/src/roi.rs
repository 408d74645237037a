//! Workload family `roi`: region queries, one-shot and local,
//! against the small-chunk store behind the façade's cache.
//!
//! The same decode layers as `retrieve`, used differently: each region
//! decodes a handful of tiny 32³ hierarchies, so per-chunk fixed costs
//! (plans, Huffman tables, allocations, hyperslab copies) and the
//! plan/fetch/cache path dominate. It catches a large-array optimisation
//! that taxes small chunks, and gives cache changes a case where the
//! working set fits and one where it does not. The second, the *tight*
//! pass, feeds per-layer metrics only, so only the traced run pays for it.

use crate::fixture::{region_query, Fixture};
use crate::harness::{linf, ms, peak_rss_mb, Pace, Phase, RecordingGate, Series, Tally};
use crate::spans::{Recorder, SpanId};
use crate::stats::median;
use hpmdr_bitplane::native::ProgressiveDecoder;
use hpmdr_bitplane::Reconstruction;
use hpmdr_core::chunked::extract_region;
use hpmdr_core::prelude::*;
use hpmdr_datasets::RegionQuery;
use hpmdr_lossless::{HybridCompressor, HybridConfig};
use hpmdr_mgard::{inject_levels, recompose};

/// One answer in this many is compared with the original field.
pub const VERIFY_EVERY: usize = 16;
/// The tight phase's cache budget as a share of the bytes the warm phase
/// left resident: well below the working set, so entries are evicted.
const TIGHT_BUDGET_SHARE: f64 = 1.0 / 13.0;

pub struct RoiOut {
    /// Latency of every timed query against the warm cache.
    pub warm_ms: Series,
}

/// Serve `q` from `store` — the operation this family times.
fn query_once(
    fx: &Fixture,
    store: &dyn Store,
    q: &RegionQuery,
) -> Result<Approximation<f32>, String> {
    Reader::new(store)
        .retrieve::<f32>(&region_query(q, fx.roi_target))
        .map_err(|e| format!("roi {:?}+{:?}: {e}", q.start, q.extent))
}

/// Compare an answer with the original field's samples of its region.
fn verify(fx: &Fixture, q: &RegionQuery, answer: &Approximation<f32>) -> Result<(), String> {
    let want = extract_region(&fx.field, &fx.shape, &Region::new(&q.start, &q.extent));
    let true_err = linf(&want, &answer.data);
    if answer.exhausted || true_err > answer.achieved || answer.achieved > fx.roi_target {
        return Err(format!(
            "roi {:?}+{:?}: true L∞ {true_err:e}, achieved {:e}, requested {:e}, exhausted {}",
            q.start, q.extent, answer.achieved, fx.roi_target, answer.exhausted
        ));
    }
    Ok(())
}

fn open_cached(fx: &Fixture, budget: usize) -> CachedStore {
    let store = open_store(&fx.store_small).expect("the store set-up wrote opens");
    CachedStore::new(store, budget)
}

/// The family's state across the rounds of one invocation.
pub struct Run<'a> {
    fx: &'a Fixture,
    phase: Phase,
    gate: RecordingGate,
    cached: CachedStore,
    /// The queries the timed passes cycle through.
    queries: &'a [RegionQuery],
    /// Timed queries so far.
    done: usize,
    hits: usize,
    misses: usize,
    warm_ms: Series,
}

impl<'a> Run<'a> {
    /// Open the small-chunk store behind a cache of the default budget
    /// and run pass 0, cold: it fills the cache for the timed passes, and
    /// its own latencies say what a miss costs.
    pub fn start(fx: &'a Fixture, phase: Phase, rec: &mut Recorder, tally: &mut Tally) -> Self {
        let gate = RecordingGate::close(rec);
        let cached = open_cached(fx, DEFAULT_CACHE_BUDGET);
        // A traced run walks one short list — cold, twice warm, tight — so
        // that the passes differ in nothing but what they measure.
        let queries = if gate.tracing() {
            &fx.queries[..(phase.min_ops / 2).clamp(1, fx.queries.len())]
        } else {
            &fx.queries[..]
        };

        cached.clear();
        let mut cold_ms = Vec::new();
        for (i, q) in queries.iter().take(phase.warmup).enumerate() {
            let t = std::time::Instant::now();
            let answer = query_once(fx, &cached, q);
            let took = t.elapsed();
            tally.record(answer.and_then(|a| {
                cold_ms.push(ms(took));
                if i.is_multiple_of(VERIFY_EVERY) {
                    verify(fx, q, &a)?;
                }
                Ok(())
            }));
        }
        if !cold_ms.is_empty() {
            rec.count("cache.cold_p50_ms", median(&cold_ms));
        }
        gate.release(rec);
        Run {
            fx,
            phase,
            gate,
            cached,
            queries,
            done: 0,
            hits: 0,
            misses: 0,
            warm_ms: Series::default(),
        }
    }

    /// This family's timed queries of round `round`.
    pub fn slice(&mut self, round: usize, rec: &mut Recorder, tally: &mut Tally) {
        let (fx, cached) = (self.fx, &self.cached);
        let mut pace = Pace::start(&self.phase, round);
        while pace.more() {
            let i = self.done;
            self.gate.before_op(rec, i);
            let q = &self.queries[i % self.queries.len()];
            let before = cached.cache_stats();
            let op = rec.next_op();
            let (answer, took, root) = rec.time("roi", op, None, || query_once(fx, cached, q));
            pace.tick();
            self.done += 1;
            let after = cached.cache_stats();
            self.hits += after.hits - before.hits;
            self.misses += after.misses - before.misses;
            let outcome = answer.and_then(|a| {
                self.warm_ms.push(ms(took));
                if i.is_multiple_of(VERIFY_EVERY) {
                    verify(fx, q, &a)?;
                }
                if rec.enabled() {
                    replay(fx, cached, q, &a, op, root, rec)
                } else {
                    Ok(())
                }
            });
            tally.record(outcome);
        }
        self.warm_ms.end_round();
        self.gate.release(rec);
    }

    /// Median peak resident set of one more query.
    pub fn peak_rss_mb(&mut self, tally: &mut Tally) -> f64 {
        peak_rss_mb(tally, |i| {
            query_once(self.fx, &self.cached, &self.queries[i % self.queries.len()]).map(drop)
        })
    }

    /// Run the tight pass (traced run) and hand over what was measured.
    pub fn finish(self, rec: &mut Recorder, tally: &mut Tally) -> RoiOut {
        if self.gate.tracing() {
            rec.count(
                "cache.warm_hit_rate",
                self.hits as f64 / (self.hits + self.misses).max(1) as f64,
            );
            let resident = self.cached.cache_stats().cached_bytes;
            tally.record(tight_phase(self.fx, self.queries, resident, rec));
        }
        RoiOut {
            warm_ms: self.warm_ms,
        }
    }
}

/// The same queries against a cache too small for their working set: one
/// pass to reach steady state, one measured.
fn tight_phase(
    fx: &Fixture,
    queries: &[RegionQuery],
    working_set: usize,
    rec: &mut Recorder,
) -> Result<(), String> {
    let budget = (working_set as f64 * TIGHT_BUDGET_SHARE) as usize;
    let tight = open_cached(fx, budget);
    for q in queries {
        query_once(fx, &tight, q)?;
    }
    let before = tight.cache_stats();
    let fetched = tight.bytes_fetched();
    let mut tight_ms = Vec::with_capacity(queries.len());
    for q in queries {
        let t = std::time::Instant::now();
        query_once(fx, &tight, q)?;
        tight_ms.push(ms(t.elapsed()));
    }
    let after = tight.cache_stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    rec.count("cache.tight_p50_ms", median(&tight_ms));
    rec.count(
        "cache.tight_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    rec.count(
        "cache.backing_mb_per_query",
        (tight.bytes_fetched() - fetched) as f64 / 1e6 / queries.len() as f64,
    );
    Ok(())
}

/// Replay one region query chunk by chunk through the plan/fetch/decode
/// path the façade takes, and check that every touched chunk
/// reconstructs the samples the façade returned for it.
fn replay(
    fx: &Fixture,
    store: &dyn Store,
    q: &RegionQuery,
    answer: &Approximation<f32>,
    op: usize,
    root: Option<SpanId>,
    rec: &mut Recorder,
) -> Result<(), String> {
    let err = |e: MdrError| format!("roi replay: {e}");
    let meta = store.meta();
    let region = Region::new(&q.start, &q.extent);
    let compressor = HybridCompressor::new(HybridConfig::default());
    let mdr = MdrConfig::new().build();
    let backend = mdr.backend();
    let ctx = ExecCtx::default();
    let plan = rec
        .child("roi.plan", op, root, || {
            RoiPlan::for_request(meta, &RoiRequest::new(region.clone(), fx.roi_target))
        })
        .map_err(err)?;
    for cp in &plan.chunks {
        let r = &meta.chunks[cp.chunk];
        let loaded = rec
            .child("roi.load", op, root, || {
                store.load_chunk(cp.chunk, &cp.plan)
            })
            .map_err(err)?;
        let mut groups: Vec<Vec<f32>> = Vec::with_capacity(loaded.streams.len());
        for (s, &units) in loaded.streams.iter().zip(&cp.plan.units) {
            let chunk = rec
                .child("roi.decode_units", op, root, || {
                    backend.decode_units(&ctx, s.view(), units, &compressor, &loaded.dtype)
                })
                .map_err(|e| format!("roi replay: {e}"))?;
            groups.push(rec.child("roi.materialize", op, root, || {
                let mut decoder = ProgressiveDecoder::with_total_planes(s.n, s.num_planes);
                decoder.advance(&chunk, s.planes_in_units(units));
                backend.materialize::<f32>(&ctx, &decoder, &chunk, Reconstruction::Truncate)
            }));
        }
        let mut data = rec.child("roi.inject_levels", op, root, || {
            backend.install(|| inject_levels(&groups, &r.hierarchy))
        });
        rec.child("roi.recompose", op, root, || {
            backend.install(|| recompose(&mut data, &r.hierarchy, r.correction))
        });
        let chunk_region = meta.grid.chunk_region(cp.chunk);
        let shared = region
            .intersect(&chunk_region)
            .expect("a planned chunk intersects the region");
        let replayed = extract_region(
            &data,
            &chunk_region.extent,
            &shared.relative_to(&chunk_region.start),
        );
        let served = extract_region(
            &answer.data,
            &region.extent,
            &shared.relative_to(&region.start),
        );
        if replayed != served {
            return Err(format!(
                "roi replay: chunk {} reconstructs differently from the façade's answer",
                cp.chunk
            ));
        }
    }
    Ok(())
}
