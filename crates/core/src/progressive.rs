//! Incremental approximation: one query served as a *sequence* of
//! [`Approximation`]s instead of a single answer.
//!
//! This is the paper's progressive promise made explicit in the API: a
//! caller opens an [`ApproximationStream`] for a [`Query`] and pulls
//! refinement frames with [`ApproximationStream::refine_next`] — a
//! coarse reconstruction first, then progressively tighter ones, ending
//! with a frame **bit-identical** to what [`Reader::retrieve`]
//! returns for the same query. The wire server streams these frames to
//! remote clients; an interactive client can stop pulling (or hang up)
//! the moment the current bound is good enough.
//!
//! ## How the ladder refines
//!
//! The greedy planners ([`RetrievalPlan::for_error`] /
//! [`RetrievalPlan::for_rmse`]) are deterministic: the sequence of
//! "refine the worst group next" picks is fixed by the archive metadata,
//! and a tighter target simply runs the same sequence longer. Plans for
//! descending thresholds are therefore nested — each step's unit prefix
//! extends the previous step's — so the stream fetches **only the
//! delta** units per frame (through [`Store::load_units`] with a nonzero
//! `skip`, which a [`crate::api::CachedStore`] turns into a prefix
//! extension) and the achieved bound tightens monotonically.
//!
//! Decode is incremental too. The stream keeps one owning
//! [`RetrievalSession`] per touched chunk for its whole life: a frame
//! hands each session its delta, which the session decompresses, ORs
//! into its plane accumulators and then releases, so a unit is entropy-
//! decoded once however many frames follow its arrival.
//!
//! A frame fans its chunks: it is the one-shot's region engine
//! (`roi::assemble_region`) run over the kept sessions, one
//! [`Backend::map_batch`] item per chunk fetching its delta, decoding,
//! recomposing and placing its box, so a lone stream uses every core its
//! backend may take.
//!
//! So is the rebuild: a frame returns the region, so it rebuilds only
//! what the region shows. Each chunk keeps its coefficient grid and, per
//! group, the units applied when that grid was built. A frame
//! re-materializes into it only the groups that gained units,
//! then recomposes a copy of the grid through the chunk's window — its
//! box of the region, the only values the frame reads. Levels whose group
//! has no units yet skip their projection. Both cuts leave every value
//! read bit-identical to a full recompose (see
//! [`hpmdr_mgard::RecomposeTo`]). Between frames a chunk holds its
//! skeleton, sign planes, accumulators and coefficient grid, not
//! compressed bytes.
//!
//! The final frame plans with the *exact* resolved target through the
//! one planner the one-shot path uses (`ResolvedTarget::plan_region`),
//! and a stepped session equals a fresh one at the same units, so its
//! data, shape, achieved bound, and exhaustion flag cannot diverge from
//! [`Reader::retrieve`] (asserted across the Target×Scope battery in
//! `tests/tests/progressive_stream.rs`, together with the decode-once
//! count). Every intermediate frame equals fresh sessions at its ladder
//! plan, reconstructed in full and assembled, bit for bit (this module's
//! tests).
//!
//! A frame that fails (store or decode error) ends the stream:
//! [`ApproximationStream::refine_next`] returns the typed error once and
//! `Ok(None)` afterwards.
//!
//! QoI targets and resolution-scoped queries have no useful
//! intermediate-frame semantics (QoI runs its own adaptive control
//! loop; a coarse grid is already the "coarse answer"), so their
//! streams degenerate to a single final frame.
//!
//! [`Reader::retrieve`]: crate::api::Reader::retrieve
//! [`Store::load_units`]: crate::api::Store::load_units

use crate::api::{
    resolve_target, serve_query, Approximation, Query, ResolvedTarget, StoreRef, Target,
};
use crate::chunked::ChunkedRefactored;
use crate::error::MdrError;
use crate::retrieve::{CoefficientGrid, RetrievalPlan, RetrievalSession};
use crate::roi::{assemble_region, OwnedChunk, Region, RoiPlan};
use crate::Scope;
use hpmdr_bitplane::BitplaneFloat;
use hpmdr_exec::{Backend, CpuBackend, ExecCtx};
use hpmdr_mgard::Real;
use std::sync::Arc;

/// Geometric spacing of the intermediate refinement ladder: each step
/// targets a bound this many times tighter than the previous one.
const LADDER_RATIO: f64 = 4.0;

/// Cap on intermediate steps (the final exact-target step is extra), so
/// a near-zero target cannot generate an unbounded frame sequence.
const MAX_INTERMEDIATE_STEPS: usize = 16;

/// One refinement step of an [`ApproximationStream`].
#[derive(Debug, Clone, PartialEq)]
pub struct RefinementFrame<F> {
    /// The reconstruction at this step — the same contract as a one-shot
    /// [`Approximation`], except `bytes_fetched` is cumulative since the
    /// stream opened (so the final frame reports what the whole
    /// progressive retrieval cost).
    pub approximation: Approximation<F>,
    /// Zero-based step index within the stream.
    pub step: usize,
    /// Whether this is the last frame: the approximation is now exactly
    /// what [`Reader::retrieve`](crate::api::Reader::retrieve) would
    /// have returned.
    pub is_final: bool,
}

/// How the stream produces its frames.
enum Mode<F, B: Backend> {
    /// Abs / RMSE / Lossless targets over Full or Region scopes: the
    /// descending-threshold ladder with delta fetches.
    Ladder {
        region: Region,
        resolved: ResolvedTarget,
        /// Intermediate thresholds, descending; the exact target comes
        /// after they are spent.
        thresholds: Vec<f64>,
        cursor: usize,
        /// Per planned chunk, the state the stream keeps for it.
        owned: Vec<OwnedChunk<F, B>>,
        /// Unit matrix of the previously emitted frame (dedup: a ladder
        /// step whose plan did not grow is skipped, not re-sent).
        last_units: Option<Vec<Vec<usize>>>,
    },
    /// QoI targets and resolution scopes: one frame via the one-shot
    /// path.
    SingleShot,
}

/// A pull-based incremental retrieval: see the [module docs](self).
///
/// Created by [`Reader::stream`]; holds its own store handle, so it is
/// independent of the reader it came from and of other streams.
///
/// [`Reader::stream`]: crate::api::Reader::stream
pub struct ApproximationStream<F, B: Backend = CpuBackend> {
    store: StoreRef<'static>,
    query: Query,
    /// Runs every frame: each is one `install`, so a frame holds one
    /// core of the process's budget while it computes (or runs on the
    /// core its caller already holds).
    backend: B,
    /// The reader's context, which every frame's fan runs on.
    ctx: Arc<ExecCtx>,
    mode: Mode<F, B>,
    bytes_at_open: usize,
    step: usize,
    done: bool,
    _f: std::marker::PhantomData<F>,
}

impl<F: BitplaneFloat + Real + Default, B: Backend> ApproximationStream<F, B> {
    /// Open a stream for `query` (the engine behind
    /// [`Reader::stream`](crate::api::Reader::stream)). Query validation
    /// happens here — a malformed query fails at open, before any frame
    /// is produced.
    pub(crate) fn open(
        store: StoreRef<'static>,
        backend: B,
        ctx: Arc<ExecCtx>,
        query: Query,
    ) -> Result<Self, MdrError> {
        {
            let meta = store.meta();
            if F::TYPE_NAME != meta.dtype {
                return Err(MdrError::DtypeMismatch {
                    stored: meta.dtype.clone(),
                    requested: F::TYPE_NAME.to_string(),
                });
            }
        }
        let mode = match (&query.target, &query.scope) {
            (Target::Qoi(..), _) | (_, Scope::Resolution(_)) => Mode::SingleShot,
            (target, scope) => {
                let resolved = resolve_target(&*store, target)?;
                let meta = store.meta();
                let region = match scope {
                    Scope::Full => Region::whole(&meta.grid.shape),
                    Scope::Region(region) => region.clone(),
                    // lint:allow(L3): this arm is excluded by the enclosing
                    // match, whose first arm captures every Resolution scope.
                    Scope::Resolution(_) => unreachable!("matched above"),
                };
                // The empty plan both validates the region and yields
                // the zero-fetch bound the ladder descends from.
                let init = ladder_plan(meta, &region, &resolved, f64::INFINITY)?;
                let b0 = init.bound();
                // Where the ladder stops: the resolved target, or for
                // lossless the archive's floor bound over this region.
                let floor = match &resolved {
                    ResolvedTarget::Abs(eb) => *eb,
                    ResolvedTarget::Rmse(t) => *t,
                    ResolvedTarget::Lossless => resolved.plan_region(meta, &region)?.bound(),
                };
                let mut thresholds = Vec::new();
                if b0.is_finite() && b0 > 0.0 {
                    let floor = if floor.is_finite() && floor > 0.0 {
                        floor
                    } else {
                        // Zero / degenerate floor: cap the descent depth
                        // instead of chasing an unreachable threshold.
                        b0 * LADDER_RATIO.powi(-(MAX_INTERMEDIATE_STEPS as i32))
                    };
                    let mut t = b0 / LADDER_RATIO;
                    while t > floor && thresholds.len() < MAX_INTERMEDIATE_STEPS {
                        thresholds.push(t);
                        t /= LADDER_RATIO;
                    }
                }
                let owned = init
                    .chunks
                    .iter()
                    .map(|cp| OwnedChunk {
                        session: RetrievalSession::owning(
                            meta.chunks[cp.chunk].clone(),
                            backend.clone(),
                        ),
                        grid: CoefficientGrid::default(),
                    })
                    .collect();
                Mode::Ladder {
                    region,
                    resolved,
                    thresholds,
                    cursor: 0,
                    owned,
                    last_units: None,
                }
            }
        };
        let bytes_at_open = store.bytes_fetched();
        Ok(ApproximationStream {
            store,
            query,
            backend,
            ctx,
            mode,
            bytes_at_open,
            step: 0,
            done: false,
            _f: std::marker::PhantomData,
        })
    }

    /// Frames produced so far.
    pub fn steps_emitted(&self) -> usize {
        self.step
    }

    /// Whether the stream has ended (final frame produced, or a frame
    /// failed).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Produce the next refinement frame, or `Ok(None)` once the stream
    /// has ended — after the final frame, or after a frame that failed.
    ///
    /// Frames tighten monotonically: each frame's `achieved` is ≤ the
    /// previous frame's, and the last frame (marked
    /// [`RefinementFrame::is_final`]) carries exactly the data, shape,
    /// achieved bound, and exhaustion flag of a one-shot
    /// [`retrieve`](crate::api::Reader::retrieve) of the same
    /// query. A strict query fails (with [`MdrError::Unsatisfiable`]) at
    /// the final step, after the intermediate frames — callers that
    /// stream strict queries get best-effort frames and then the typed
    /// error, mirroring the one-shot contract. Any other error (store,
    /// decode) likewise ends the stream: it is returned once, the
    /// sessions keep the groups they had applied, and later calls yield
    /// `Ok(None)`.
    pub fn refine_next(&mut self) -> Result<Option<RefinementFrame<F>>, MdrError> {
        if self.done {
            return Ok(None);
        }
        // Only a delivered intermediate frame keeps the stream open.
        let backend = self.backend.clone();
        let produced = backend.install(|| self.next_approximation());
        self.done = !matches!(produced, Ok((_, false)));
        let (approximation, is_final) = produced?;
        let step = self.step;
        self.step += 1;
        Ok(Some(RefinementFrame {
            approximation,
            step,
            is_final,
        }))
    }

    /// The next frame's approximation and whether it is the final one.
    fn next_approximation(&mut self) -> Result<(Approximation<F>, bool), MdrError> {
        match &mut self.mode {
            Mode::SingleShot => {
                let approximation =
                    serve_query::<F, B>(&*self.store, &self.backend, &self.ctx, &self.query)?;
                Ok((approximation, true))
            }
            Mode::Ladder {
                region,
                resolved,
                thresholds,
                cursor,
                owned,
                last_units,
            } => {
                let meta = self.store.meta();
                loop {
                    let is_final = *cursor >= thresholds.len();
                    let plan = if is_final {
                        // The one-shot path's planner: same plans, same
                        // bounds, same exhaustion.
                        resolved.plan_region(meta, region)?
                    } else {
                        ladder_plan(meta, region, resolved, thresholds[*cursor])?
                    };
                    if !is_final {
                        *cursor += 1;
                        let units: Vec<Vec<usize>> =
                            plan.chunks.iter().map(|c| c.plan.units.clone()).collect();
                        // A ladder step that fetches nothing new is
                        // skipped — frames always refine.
                        if last_units.as_ref() == Some(&units) {
                            continue;
                        }
                        *last_units = Some(units);
                    }

                    // The region engine over the kept sessions: each
                    // chunk fetches and decodes only its delta.
                    let data = assemble_region(
                        &*self.store,
                        &plan,
                        &self.backend,
                        &self.ctx,
                        Some(owned),
                    )?;
                    let (achieved, exhausted) = (plan.bound(), plan.exhausted());
                    if is_final && self.query.strict && exhausted {
                        return Err(MdrError::Unsatisfiable {
                            target: resolved.threshold(),
                            achieved,
                        });
                    }
                    let approximation = Approximation {
                        data,
                        shape: plan.region.extent.clone(),
                        achieved,
                        bytes_fetched: self.store.bytes_fetched() - self.bytes_at_open,
                        exhausted,
                    };
                    return Ok((approximation, is_final));
                }
            }
        }
    }
}

/// The plan of an intermediate ladder step: `resolved`'s planner at
/// threshold `t` over `region`.
fn ladder_plan(
    meta: &ChunkedRefactored,
    region: &Region,
    resolved: &ResolvedTarget,
    t: f64,
) -> Result<RoiPlan, MdrError> {
    RoiPlan::plan_with(meta, region, t, |r| match resolved {
        ResolvedTarget::Rmse(_) => RetrievalPlan::for_rmse(r, t),
        _ => RetrievalPlan::for_error(r, t),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{InMemoryStore, SharedReader, Store};
    use crate::chunked::{copy_hyperslab, extract_region, refactor_chunked, ChunkedConfig};

    fn field(nx: usize, ny: usize) -> Vec<f32> {
        let mut v = Vec::with_capacity(nx * ny);
        for x in 0..nx {
            for y in 0..ny {
                v.push((x as f32 * 0.21).sin() * 3.0 + (y as f32 * 0.17).cos());
            }
        }
        v
    }

    fn reader() -> SharedReader {
        let data = field(30, 22);
        let cr = refactor_chunked(&data, &[30, 22], &ChunkedConfig::with_extent(&[8, 8]));
        SharedReader::new(Arc::new(InMemoryStore::from(cr)))
    }

    #[test]
    fn stream_tightens_monotonically_and_ends_exact() {
        let reader = reader();
        let query = Query::full(Target::AbsError(1e-4));
        let oneshot = reader.retrieve::<f32>(&query).unwrap();
        let mut stream = reader.stream::<f32>(&query).unwrap();
        let mut frames = Vec::new();
        while let Some(frame) = stream.refine_next().unwrap() {
            frames.push(frame);
        }
        assert!(frames.len() > 1, "expected a multi-frame refinement");
        for pair in frames.windows(2) {
            assert!(
                pair[1].approximation.achieved <= pair[0].approximation.achieved,
                "bound must tighten: {} then {}",
                pair[0].approximation.achieved,
                pair[1].approximation.achieved
            );
        }
        let last = frames.last().unwrap();
        assert!(last.is_final);
        assert!(frames[..frames.len() - 1].iter().all(|f| !f.is_final));
        assert_eq!(last.approximation.data, oneshot.data);
        assert_eq!(last.approximation.shape, oneshot.shape);
        assert_eq!(last.approximation.achieved, oneshot.achieved);
        assert_eq!(last.approximation.exhausted, oneshot.exhausted);
        assert!(stream.refine_next().unwrap().is_none());
    }

    #[test]
    fn loose_target_streams_one_exact_frame() {
        let reader = reader();
        // A bound far above the zero-fetch bound: the ladder is empty
        // and the only frame is the final one.
        let query = Query::full(Target::AbsError(1e9));
        let mut stream = reader.stream::<f32>(&query).unwrap();
        let frame = stream.refine_next().unwrap().unwrap();
        assert!(frame.is_final);
        assert!(stream.refine_next().unwrap().is_none());
        let oneshot = reader.retrieve::<f32>(&query).unwrap();
        assert_eq!(frame.approximation.data, oneshot.data);
    }

    #[test]
    fn strict_unsatisfiable_errors_at_the_final_step() {
        let reader = reader();
        let query = Query::full(Target::AbsError(1e-300)).strict();
        let mut stream = reader.stream::<f32>(&query).unwrap();
        let mut saw_intermediate = false;
        let err = loop {
            match stream.refine_next() {
                Ok(Some(frame)) => {
                    assert!(!frame.is_final, "strict+unsatisfiable must not finalize");
                    saw_intermediate = true;
                }
                Ok(None) => panic!("stream finished without erroring"),
                Err(e) => break e,
            }
        };
        assert!(saw_intermediate, "intermediate frames precede the error");
        assert!(matches!(err, MdrError::Unsatisfiable { .. }), "{err}");
    }

    #[test]
    fn invalid_queries_fail_at_open() {
        let reader = reader();
        let bad_region = Query::region(Target::AbsError(1e-3), Region::new(&[29, 21], &[10, 10]));
        assert!(matches!(
            reader.stream::<f32>(&bad_region),
            Err(MdrError::InvalidQuery(_))
        ));
        assert!(matches!(
            reader.stream::<f64>(&Query::full(Target::AbsError(1e-3))),
            Err(MdrError::DtypeMismatch { .. })
        ));
        assert!(matches!(
            reader.stream::<f32>(&Query::full(Target::AbsError(-1.0))),
            Err(MdrError::InvalidQuery(_))
        ));
    }

    /// Every frame `query` streams, rebuilt the way the stream worked
    /// before it kept state between frames: at each ladder plan a fresh
    /// session per chunk, refined to the chunk's plan and reconstructed
    /// in full — every group materialized, every level and line
    /// recomposed — laid at its place in the domain, and the region cut
    /// out of that. Data, bound and exhaustion per frame.
    fn oracle_frames<F: BitplaneFloat + Real + Default>(
        store: &Arc<dyn Store>,
        query: &Query,
    ) -> Vec<(Vec<F>, f64, bool)> {
        let stream = SharedReader::new(Arc::clone(store))
            .stream::<F>(query)
            .unwrap();
        let Mode::Ladder {
            region,
            resolved,
            thresholds,
            ..
        } = &stream.mode
        else {
            panic!("{query:?} streams one frame");
        };
        let meta = store.meta();
        let mut last_units = None;
        let mut frames = Vec::new();
        for t in thresholds.iter().map(Some).chain([None]) {
            let plan = match t {
                Some(&t) => ladder_plan(meta, region, resolved, t).unwrap(),
                None => resolved.plan_region(meta, region).unwrap(),
            };
            let units: Vec<Vec<usize>> = plan.chunks.iter().map(|c| c.plan.units.clone()).collect();
            if t.is_some() && last_units.replace(units.clone()) == Some(units) {
                continue;
            }
            let shape = &meta.grid.shape;
            let mut domain = vec![F::default(); meta.grid.domain_len()];
            for cp in &plan.chunks {
                let loaded = store.load_chunk(cp.chunk, &cp.plan).unwrap();
                let mut session = RetrievalSession::owning(loaded, CpuBackend::with_threads(1));
                session.try_refine_to(&cp.plan).unwrap();
                let rec = session.reconstruct_in_full::<F>();
                let at = meta.grid.chunk_region(cp.chunk);
                let origin = vec![0; at.ndims()];
                copy_hyperslab(
                    &rec,
                    &at.extent,
                    &origin,
                    &mut domain,
                    shape,
                    &at.start,
                    &at.extent,
                );
            }
            let data = extract_region(&domain, shape, region);
            frames.push((data, plan.bound(), plan.exhausted()));
        }
        frames
    }

    fn bits<F: Real>(v: &[F]) -> Vec<u64> {
        v.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    /// Every frame of every `Target × Scope` query on a chunked archive of
    /// `data` equals its oracle frame bit for bit, at one and four threads.
    fn assert_frames_match_oracle<F: BitplaneFloat + Real + Default + std::fmt::Debug>(
        data: &[F],
        shape: &[usize],
        chunk: &[usize],
        regions: &[Region],
    ) {
        let cr = refactor_chunked(data, shape, &ChunkedConfig::with_extent(chunk));
        let store: Arc<dyn Store> = Arc::new(InMemoryStore::from(cr));
        let targets = [
            Target::AbsError(1e-4),
            Target::Rel(1e-5),
            Target::Rmse(1e-4),
            Target::Lossless,
        ];
        let mut multi_frame = 0;
        for target in targets {
            let queries = std::iter::once(Query::full(target.clone())).chain(
                regions
                    .iter()
                    .map(|r| Query::region(target.clone(), r.clone())),
            );
            for query in queries {
                let want = oracle_frames::<F>(&store, &query);
                multi_frame += usize::from(want.len() > 1);
                for threads in [1, 4] {
                    let reader = SharedReader::with_backend(
                        Arc::clone(&store),
                        CpuBackend::with_threads(threads),
                    );
                    let mut stream = reader.stream::<F>(&query).unwrap();
                    let mut got = Vec::new();
                    while let Some(frame) = stream.refine_next().unwrap() {
                        got.push(frame.approximation);
                    }
                    let what = format!("{} {query:?} threads={threads}", F::TYPE_NAME);
                    assert_eq!(got.len(), want.len(), "{what}: frame count");
                    for (step, (a, (data, bound, exhausted))) in got.iter().zip(&want).enumerate() {
                        assert_eq!(bits(&a.data), bits(data), "{what}: frame {step}");
                        assert_eq!(a.achieved, *bound, "{what}: frame {step}");
                        assert_eq!(a.exhausted, *exhausted, "{what}: frame {step}");
                    }
                }
            }
        }
        assert!(multi_frame >= 8, "the battery must exercise ladders");
    }

    #[test]
    fn every_frame_equals_fresh_sessions_recomposed_in_full() {
        let data = field(30, 22);
        // The whole domain, a region straddling chunk boundaries in both
        // dimensions, one inside the chunk clipped in both, one node.
        let regions = [
            Region::new(&[5, 6], &[14, 11]),
            Region::new(&[25, 17], &[4, 4]),
            Region::new(&[9, 9], &[1, 1]),
        ];
        assert_frames_match_oracle::<f32>(&data, &[30, 22], &[8, 8], &regions);
        let wide: Vec<f64> = data.iter().map(|&v| f64::from(v)).collect();
        assert_frames_match_oracle::<f64>(&wide, &[30, 22], &[8, 8], &regions);
    }

    #[test]
    fn every_3d_frame_equals_fresh_sessions_recomposed_in_full() {
        let shape = [13usize, 11, 10];
        let data: Vec<f32> = (0..shape.iter().product::<usize>())
            .map(|i| {
                let (x, y, z) = (i / 110, i / 10 % 11, i % 10);
                (x as f32 * 0.4).sin() * 2.0 + (y as f32 * 0.3).cos() * (z as f32 * 0.7).sin()
            })
            .collect();
        let regions = [
            Region::new(&[2, 3, 1], &[8, 7, 6]),
            Region::new(&[7, 0, 5], &[6, 5, 5]),
        ];
        assert_frames_match_oracle::<f32>(&data, &shape, &[6, 5, 4], &regions);
    }
}
