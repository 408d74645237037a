//! Region-of-interest progressive retrieval over a chunk grid.
//!
//! The payoff of chunked refactoring: a query for a hyperslab at an
//! error bound touches only the chunks intersecting the region, and for
//! each of those fetches only the unit prefix its planner needs. The
//! flow is
//!
//! ```text
//! Query::region(target, region)            (api::Reader::retrieve)
//!   ── plan ──► RoiPlan: per intersecting chunk, a RetrievalPlan
//!   ── fetch ─► per group, one Store::load_units run of the units the
//!               chunk's session has not applied
//!   ── decode ► per-chunk reconstruction of the chunk's box
//!   ── copy ──► the box placed into the region's slab
//! ```
//!
//! The last three steps are one fanned item per chunk, the crate's one
//! region engine (`assemble_region`): a one-shot query runs it on fresh
//! sessions (so it issues exactly [`Store::load_chunk`]'s runs), a
//! stream's frame on the ones it keeps.
//!
//! The result carries a guaranteed L∞ bound: the maximum of the chunk
//! planners' bounds, each of which is ≤ the request unless that chunk is
//! already fully fetched. This module holds the planning and assembly
//! halves; [`crate::api::Reader`] is the one entry point that runs them.

use crate::api::Store;
use crate::chunked::{copy_hyperslab, ChunkedRefactored};
use crate::error::MdrError;
use crate::retrieve::{CoefficientGrid, RetrievalPlan, RetrievalSession};
use hpmdr_bitplane::BitplaneFloat;
use hpmdr_exec::{Backend, ExecCtx};
use hpmdr_mgard::Real;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

/// An axis-aligned hyperslab: `start[d] .. start[d] + extent[d]` per
/// dimension.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Region {
    /// Inclusive lower corner.
    pub start: Vec<usize>,
    /// Extent per dimension (all ≥ 1).
    pub extent: Vec<usize>,
}

impl Region {
    /// Region at `start` with `extent`.
    ///
    /// # Panics
    /// Panics on dimension mismatch, empty dimensions, or zero extents.
    pub fn new(start: &[usize], extent: &[usize]) -> Self {
        assert!(!extent.is_empty(), "region must have at least 1 dimension");
        assert_eq!(start.len(), extent.len(), "start/extent dimensionality");
        assert!(extent.iter().all(|&e| e >= 1), "zero-extent region");
        Region {
            start: start.to_vec(),
            extent: extent.to_vec(),
        }
    }

    /// The whole domain of `shape`.
    pub fn whole(shape: &[usize]) -> Self {
        Region::new(&vec![0; shape.len()], shape)
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.extent.len()
    }

    /// Element count (saturating: a region too large to count cannot fit
    /// any domain).
    pub fn len(&self) -> usize {
        self.extent.iter().fold(1, |n, &e| n.saturating_mul(e))
    }

    /// Whether the region has no elements (never true for valid regions).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exclusive upper bound along dimension `d` (saturating: a region
    /// whose end overflows `usize` fits no domain, see
    /// [`Self::fits_within`]).
    pub fn end(&self, d: usize) -> usize {
        self.start[d].saturating_add(self.extent[d])
    }

    /// Whether the region is nonempty and lies entirely inside a domain of
    /// `shape` — the check every region passes before it is planned, so a
    /// hostile one (a zero extent, a corner near `usize::MAX`) is rejected
    /// here instead of overflowing later.
    pub fn fits_within(&self, shape: &[usize]) -> bool {
        self.ndims() == shape.len()
            && self.start.len() == shape.len()
            && (0..self.ndims()).all(|d| {
                self.extent[d] >= 1
                    && self.start[d]
                        .checked_add(self.extent[d])
                        .is_some_and(|end| end <= shape[d])
            })
    }

    /// Intersection with `other`, or `None` when disjoint.
    pub fn intersect(&self, other: &Region) -> Option<Region> {
        assert_eq!(self.ndims(), other.ndims(), "dimensionality mismatch");
        let mut start = Vec::with_capacity(self.ndims());
        let mut extent = Vec::with_capacity(self.ndims());
        for d in 0..self.ndims() {
            let lo = self.start[d].max(other.start[d]);
            let hi = self.end(d).min(other.end(d));
            if lo >= hi {
                return None;
            }
            start.push(lo);
            extent.push(hi - lo);
        }
        Some(Region { start, extent })
    }

    /// This region translated into the local coordinates of a box rooted
    /// at `origin` (the region must lie at or after `origin`).
    pub fn relative_to(&self, origin: &[usize]) -> Region {
        Region {
            start: self
                .start
                .iter()
                .zip(origin)
                .map(|(&s, &o)| s - o)
                .collect(),
            extent: self.extent.clone(),
        }
    }
}

/// A region query: reconstruct `region` to within `error_bound` (L∞).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoiRequest {
    /// The hyperslab to reconstruct.
    pub region: Region,
    /// Requested absolute L∞ error bound.
    pub error_bound: f64,
}

impl RoiRequest {
    /// Request `region` at `error_bound`.
    pub fn new(region: Region, error_bound: f64) -> Self {
        RoiRequest {
            region,
            error_bound,
        }
    }
}

/// One chunk's share of an ROI plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChunkRoiPlan {
    /// Linear chunk index in the grid.
    pub chunk: usize,
    /// Unit prefixes to fetch for this chunk.
    pub plan: RetrievalPlan,
    /// Guaranteed L∞ bound of the chunk at this plan.
    pub bound: f64,
}

/// Per-chunk unit-prefix plans for the chunks intersecting a region —
/// the bytes an ROI query actually needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoiPlan {
    /// The planned region.
    pub region: Region,
    /// The requested error bound.
    pub error_bound: f64,
    /// Plans for exactly the intersecting chunks (row-major chunk order).
    pub chunks: Vec<ChunkRoiPlan>,
}

impl RoiPlan {
    /// Plan `req` over `cr` (works on a skeleton: planning needs only
    /// stream metadata, never payload bytes).
    ///
    /// Returns [`MdrError::InvalidQuery`] when the region does not fit
    /// the domain or the bound is invalid.
    pub fn for_request(cr: &ChunkedRefactored, req: &RoiRequest) -> Result<RoiPlan, MdrError> {
        if req.error_bound.is_nan() || req.error_bound < 0.0 {
            return Err(MdrError::InvalidQuery(format!(
                "invalid error bound {}",
                req.error_bound
            )));
        }
        Self::plan_with(cr, &req.region, req.error_bound, |r| {
            RetrievalPlan::for_error(r, req.error_bound)
        })
    }

    /// The shared region planner: validate the region, then plan every
    /// intersecting chunk with `plan_chunk` (returning the unit plan and
    /// its bound/estimate). `threshold` is what [`Self::exhausted`]
    /// compares chunk bounds against. [`Self::for_request`] and the
    /// façade's generic targets both route through here, so the chunk
    /// set, its order, and the validation cannot diverge.
    pub(crate) fn plan_with(
        cr: &ChunkedRefactored,
        region: &Region,
        threshold: f64,
        plan_chunk: impl Fn(&crate::refactor::Refactored) -> (RetrievalPlan, f64),
    ) -> Result<RoiPlan, MdrError> {
        if !region.fits_within(&cr.grid.shape) {
            return Err(MdrError::InvalidQuery(format!(
                "region {:?}+{:?} exceeds domain {:?}",
                region.start, region.extent, cr.grid.shape
            )));
        }
        let chunks = cr
            .grid
            .chunks_intersecting(region)
            .into_iter()
            .map(|c| {
                let (plan, bound) = plan_chunk(&cr.chunks[c]);
                ChunkRoiPlan {
                    chunk: c,
                    plan,
                    bound,
                }
            })
            .collect();
        Ok(RoiPlan {
            region: region.clone(),
            error_bound: threshold,
            chunks,
        })
    }

    /// Guaranteed L∞ bound over the region: the worst chunk bound (may
    /// exceed the request only when a chunk is fully fetched).
    pub fn bound(&self) -> f64 {
        self.chunks.iter().map(|c| c.bound).fold(0.0, f64::max)
    }

    /// Whether any planned chunk ran out of stored planes before meeting
    /// the requested bound. The planner only reports a chunk bound above
    /// the request when that chunk is fully fetched, so this is exactly
    /// `bound() > error_bound` — and when it is `false`, the contract
    /// `bound() <= error_bound` holds unconditionally.
    pub fn exhausted(&self) -> bool {
        self.chunks.iter().any(|c| c.bound > self.error_bound)
    }

    /// Compressed bytes this plan fetches from storage.
    pub fn fetch_bytes(&self, cr: &ChunkedRefactored) -> usize {
        self.chunks
            .iter()
            .map(|c| c.plan.fetch_bytes(&cr.chunks[c.chunk]))
            .sum()
    }

    /// Number of chunks the plan touches.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }
}

/// A chunk's refinement state kept across a stream's frames.
pub(crate) struct OwnedChunk<F, B: Backend> {
    /// The owning session: its applied units are what the stream has
    /// fetched, so each frame hands it only the delta.
    pub(crate) session: RetrievalSession<'static, B>,
    /// The last frame's coefficient grid; the next frame
    /// re-materializes only the groups that gained units.
    pub(crate) grid: CoefficientGrid<F>,
}

/// The region engine: per planned chunk one [`Backend::map_batch`] item
/// fetches, per group, the run of planned units its session has not
/// applied (plans only grow), refines the session, recomposes the chunk's
/// [`chunk_window`] (the only values of it that are read) and copies that
/// box into the region's slab, which is returned — so a multi-threaded
/// backend overlaps one chunk's I/O with other chunks' decode. The plan
/// holds the answer's bound and exhaustion ([`RoiPlan::bound`],
/// [`RoiPlan::exhausted`]).
///
/// A stream's frame passes its `kept` chunks, one per planned chunk. A
/// one-shot query passes none: each item opens an owning session on the
/// chunk's skeleton, drops it once the box is reconstructed and drops
/// the box once placed, so a worker that helps with the fan holds one
/// chunk's buffers at a time, never a backlog of finished chunks waiting
/// for the caller (an allocator arena keeps what its thread once held).
pub(crate) fn assemble_region<F, B>(
    store: &dyn Store,
    plan: &RoiPlan,
    backend: &B,
    ctx: &ExecCtx,
    kept: Option<&mut [OwnedChunk<F, B>]>,
) -> Result<Vec<F>, MdrError>
where
    F: BitplaneFloat + Real + Default,
    B: Backend,
{
    let meta = store.meta();
    // Each kept chunk is refined by one item; its lock only carries the
    // `&mut` across the fan.
    let kept: Vec<_> = kept.into_iter().flatten().map(Mutex::new).collect();
    debug_assert!(kept.is_empty() || kept.len() == plan.chunks.len());
    let positions: Vec<usize> = (0..plan.chunks.len()).collect();
    let out = Mutex::new(vec![F::default(); plan.region.len()]);
    let placed = backend.map_batch(ctx, &positions, |&i| {
        let cp = &plan.chunks[i];
        let window = chunk_window(meta, &plan.region, cp.chunk);
        // The block ends a fresh session (and a kept chunk's lock) before
        // the box is placed.
        let rec = {
            let (mut fresh, mut lock);
            let (session, grid) = match kept.get(i) {
                Some(slot) => {
                    lock = slot.lock().unwrap_or_else(PoisonError::into_inner);
                    let OwnedChunk { session, grid } = &mut **lock;
                    (session, Some(grid))
                }
                None => {
                    let skeleton = meta.chunks[cp.chunk].clone();
                    fresh = RetrievalSession::owning(skeleton, backend.clone());
                    (&mut fresh, None)
                }
            };
            for (g, &want) in cp.plan.units.iter().enumerate() {
                let want = want.min(session.refactored().streams[g].num_units());
                let have = session.units()[g];
                if want > have {
                    let run = store.load_units(cp.chunk, g, have, want - have)?;
                    session.supply_units(g, have, run)?;
                }
            }
            session.refine_chunk(cp.chunk, &cp.plan, &window, grid)?
        };
        // Boxes are disjoint, so the order of placement is immaterial; a
        // box copy is a small share of a chunk's decode.
        let mut out = out.lock().unwrap_or_else(PoisonError::into_inner);
        place_chunk(meta, plan, cp, &rec, &mut out);
        Ok::<(), MdrError>(())
    });
    placed.into_iter().collect::<Result<(), _>>()?;
    Ok(out.into_inner().unwrap_or_else(PoisonError::into_inner))
}

/// Chunk `chunk`'s own region and its box of `region` (their
/// intersection), for a chunk the planner found to intersect it.
fn chunk_box(cr: &ChunkedRefactored, region: &Region, chunk: usize) -> (Region, Region) {
    let chunk_region = cr.grid.chunk_region(chunk);
    let inter = chunk_region
        .intersect(region)
        // lint:allow(L3): planner invariant — `plan.chunks` holds only
        // chunks the planner proved to intersect `plan.region`.
        .expect("planned chunks intersect the region");
    (chunk_region, inter)
}

/// The box of planned chunk `chunk` that `region` reads, per dimension a
/// range of the chunk's local coordinates: the values of its
/// reconstruction [`place_chunk`] copies, and so the only ones the
/// recompose must produce.
fn chunk_window(cr: &ChunkedRefactored, region: &Region, chunk: usize) -> Vec<Range<usize>> {
    let (chunk_region, inter) = chunk_box(cr, region, chunk);
    let local = inter.relative_to(&chunk_region.start);
    (0..local.ndims())
        .map(|d| local.start[d]..local.end(d))
        .collect()
}

/// Copy chunk `cp`'s reconstruction `rec` (its dense box) into its
/// chunk∩region box of `out`, the region's slab.
fn place_chunk<F: Copy>(
    cr: &ChunkedRefactored,
    plan: &RoiPlan,
    cp: &ChunkRoiPlan,
    rec: &[F],
    out: &mut [F],
) {
    let (chunk_region, inter) = chunk_box(cr, &plan.region, cp.chunk);
    let src = inter.relative_to(&chunk_region.start);
    let dst = inter.relative_to(&plan.region.start);
    copy_hyperslab(
        rec,
        &chunk_region.extent,
        &src.start,
        out,
        &plan.region.extent,
        &dst.start,
        &inter.extent,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Approximation, InMemoryStore, Query, Reader, Target};
    use crate::chunked::{extract_region, refactor_chunked, ChunkedConfig};
    use hpmdr_exec::CpuBackend;

    /// `region` of `cr` at absolute bound `eb`, served from memory.
    fn roi<F: BitplaneFloat + Real + Default>(
        cr: &ChunkedRefactored,
        region: Region,
        eb: f64,
    ) -> Result<Approximation<F>, MdrError> {
        Reader::new(&InMemoryStore::from(cr.clone()))
            .retrieve(&Query::region(Target::AbsError(eb), region))
    }

    fn field_2d(nx: usize, ny: usize) -> Vec<f32> {
        let mut v = Vec::with_capacity(nx * ny);
        for x in 0..nx {
            for y in 0..ny {
                v.push((x as f32 * 0.21).sin() * 3.0 + (y as f32 * 0.17).cos());
            }
        }
        v
    }

    #[test]
    fn region_intersection_basics() {
        let a = Region::new(&[2, 3], &[4, 4]);
        let b = Region::new(&[4, 1], &[4, 4]);
        let i = a.intersect(&b).unwrap();
        assert_eq!(i, Region::new(&[4, 3], &[2, 2]));
        assert!(a.intersect(&Region::new(&[6, 3], &[1, 1])).is_none());
        assert!(a.fits_within(&[6, 7]));
        assert!(!a.fits_within(&[6, 6]));
    }

    #[test]
    fn roi_meets_requested_bound() {
        let data = field_2d(30, 22);
        let cr = refactor_chunked(&data, &[30, 22], &ChunkedConfig::with_extent(&[8, 8]));
        let region = Region::new(&[5, 3], &[12, 9]);
        let reference = extract_region(&data, &[30, 22], &region);
        for eb in [1.0f64, 1e-2, 1e-4] {
            let res = roi::<f32>(&cr, region.clone(), eb).unwrap();
            assert_eq!(res.shape, region.extent);
            assert_eq!(res.data.len(), region.len());
            // The achieved-bound contract, for real: unless the archive
            // ran out of planes, the reported bound meets the request —
            // and the reconstruction honors the reported bound up to f32
            // recompose rounding (the bound models bitplane truncation,
            // not float arithmetic).
            if !res.exhausted {
                assert!(
                    res.achieved <= eb,
                    "eb={eb}: reported bound {}",
                    res.achieved
                );
            }
            let allowed = res.achieved + 1e-6 * cr.value_range();
            for (a, b) in reference.iter().zip(&res.data) {
                assert!(
                    ((a - b).abs() as f64) <= allowed,
                    "eb={eb}: |{a}-{b}| > {allowed}"
                );
            }
        }
    }

    #[test]
    fn roi_plan_touches_only_intersecting_chunks_and_fetches_less() {
        let data = field_2d(32, 32);
        let cr = refactor_chunked(&data, &[32, 32], &ChunkedConfig::with_extent(&[8, 8]));
        let req = RoiRequest::new(Region::new(&[0, 0], &[8, 8]), 1e-3);
        let plan = RoiPlan::for_request(&cr, &req).unwrap();
        assert_eq!(plan.num_chunks(), 1);
        let full = RoiPlan::for_request(&cr, &RoiRequest::new(Region::whole(&cr.grid.shape), 1e-3))
            .unwrap();
        assert_eq!(full.num_chunks(), cr.grid.num_chunks());
        assert!(
            plan.fetch_bytes(&cr) < full.fetch_bytes(&cr),
            "roi {} vs full {}",
            plan.fetch_bytes(&cr),
            full.fetch_bytes(&cr)
        );
    }

    #[test]
    fn roi_matches_full_domain_reference_on_same_region() {
        let data = field_2d(26, 19);
        let cr = refactor_chunked(&data, &[26, 19], &ChunkedConfig::with_extent(&[7, 6]));
        let eb = 1e-3;
        let region = Region::new(&[4, 2], &[15, 11]);
        let part = roi::<f32>(&cr, region.clone(), eb).unwrap();
        let full = roi::<f32>(&cr, Region::whole(&cr.grid.shape), eb).unwrap();
        let sliced = extract_region(&full.data, &cr.grid.shape, &region);
        assert_eq!(part.data, sliced);
    }

    #[test]
    fn parallel_backend_reconstructs_identically() {
        let data = field_2d(24, 24);
        let cr = refactor_chunked(&data, &[24, 24], &ChunkedConfig::with_extent(&[9, 9]));
        let store = InMemoryStore::from(cr);
        let q = Query::region(Target::AbsError(1e-4), Region::new(&[3, 3], &[14, 14]));
        let run = |threads: usize| -> Approximation<f32> {
            Reader::with_backend(&store, CpuBackend::with_threads(threads))
                .retrieve(&q)
                .unwrap()
        };
        let one = run(1);
        assert_eq!(one, run(4));
        assert_eq!(one, Reader::new(&store).retrieve(&q).unwrap());
    }

    #[test]
    fn out_of_domain_region_is_a_matchable_error() {
        let data = field_2d(16, 16);
        let cr = refactor_chunked(&data, &[16, 16], &ChunkedConfig::with_extent(&[8, 8]));
        let err = roi::<f32>(&cr, Region::new(&[10, 0], &[8, 8]), 1e-2).unwrap_err();
        assert!(
            matches!(&err, MdrError::InvalidQuery(w) if w.contains("exceeds domain")),
            "{err}"
        );
    }

    #[test]
    fn hostile_regions_are_invalid_queries_not_panics() {
        let data = field_2d(16, 16);
        let cr = refactor_chunked(&data, &[16, 16], &ChunkedConfig::with_extent(&[8, 8]));
        let reader =
            crate::api::SharedReader::new(std::sync::Arc::new(InMemoryStore::from(cr.clone())));
        // Struct literals skip `Region::new`'s checks, as a deserialized
        // region does.
        for region in [
            Region {
                start: vec![usize::MAX, 0],
                extent: vec![2, 4],
            },
            Region {
                start: vec![usize::MAX - 1, 3],
                extent: vec![usize::MAX, 1],
            },
            Region {
                start: vec![0, 0],
                extent: vec![1 << 40, 1 << 40],
            },
            Region {
                start: vec![0, 0],
                extent: vec![0, 4],
            },
            Region {
                start: vec![3],
                extent: vec![4, 4],
            },
        ] {
            let what = format!("{region:?}");
            let err = roi::<f32>(&cr, region.clone(), 1e-2).unwrap_err();
            assert!(matches!(err, MdrError::InvalidQuery(_)), "{what}: {err}");
            let query = Query::region(Target::AbsError(1e-2), region);
            let err = reader
                .stream::<f32>(&query)
                .err()
                .expect("stream must not open");
            assert!(matches!(err, MdrError::InvalidQuery(_)), "{what}: {err}");
        }
    }

    #[test]
    fn dtype_mismatch_is_a_matchable_error() {
        let data = field_2d(12, 12);
        let cr = refactor_chunked(&data, &[12, 12], &ChunkedConfig::with_extent(&[6, 6]));
        let err = roi::<f64>(&cr, Region::new(&[0, 0], &[4, 4]), 1e-2).unwrap_err();
        assert!(
            matches!(&err, MdrError::DtypeMismatch { stored, requested }
                if stored == "f32" && requested == "f64"),
            "{err}"
        );
    }

    #[test]
    fn tiny_bound_reports_exhausted_instead_of_lying() {
        let data = field_2d(12, 12);
        let cr = refactor_chunked(&data, &[12, 12], &ChunkedConfig::with_extent(&[6, 6]));
        // f32 data cannot reach 1e-300: every chunk fetches everything
        // and the result must say so rather than report a met bound.
        let res = roi::<f32>(&cr, Region::whole(&[12, 12]), 1e-300).unwrap();
        assert!(res.exhausted);
        assert!(res.achieved > 1e-300);
    }
}
