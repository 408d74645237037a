//! Progressive retrieval: plane planning and incremental reconstruction.
//!
//! Retrieval fetches a *prefix of merged units* per level group. The
//! planner picks the cheapest prefix whose guaranteed L∞ bound
//! `Σ_g w_g · 2^(exp_g − k_g)` meets the request; the session keeps the
//! decoded plane accumulators across refinements so each Algorithm-3
//! iteration decompresses and applies only the newly fetched units (the
//! paper's recompose step).

use crate::error::MdrError;
use crate::refactor::Refactored;
use hpmdr_bitplane::native::ProgressiveDecoder;
use hpmdr_bitplane::{prefix_error_bound, BitplaneChunk, BitplaneFloat, Reconstruction};
use hpmdr_exec::{Backend, CpuBackend, ExecCtx};
use hpmdr_lossless::{HybridCompressor, HybridConfig};
use hpmdr_mgard::{extract_active_grid, Real, RecomposeTo};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::ops::Range;

/// A retrieval decision: merged units to fetch per level group.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetrievalPlan {
    /// Units per group (same order as [`Refactored::streams`]).
    pub units: Vec<usize>,
}

impl RetrievalPlan {
    /// The empty plan (nothing fetched).
    pub fn empty(r: &Refactored) -> Self {
        RetrievalPlan {
            units: vec![0; r.streams.len()],
        }
    }

    /// Plan fetching everything (near-lossless reconstruction).
    pub fn full(r: &Refactored) -> Self {
        RetrievalPlan {
            units: r.streams.iter().map(|s| s.num_units()).collect(),
        }
    }

    /// Greedy minimal plan meeting the absolute error target `eb`:
    /// repeatedly refine the group with the largest weighted bound term.
    /// Returns the plan and its guaranteed bound (which may exceed `eb`
    /// only when every plane is already fetched).
    pub fn for_error(r: &Refactored, eb: f64) -> (Self, f64) {
        Self::for_error_at_resolution(r, eb, 0)
    }

    /// Greedy minimal plan meeting `eb` for a *level-`level`*
    /// reconstruction: groups finer than the target level cannot
    /// influence the coarse grid, so they are excluded from both the
    /// plan and the bound. `level = 0` is [`Self::for_error`]. The
    /// returned bound covers the coarse grid relative to the exact
    /// level-`level` representation of the data.
    ///
    /// # Panics
    /// Panics on a negative/NaN target or a level beyond the hierarchy.
    pub fn for_error_at_resolution(r: &Refactored, eb: f64, level: usize) -> (Self, f64) {
        assert!(eb >= 0.0, "error target must be non-negative");
        let levels = r.hierarchy.levels;
        assert!(level <= levels, "resolution level beyond hierarchy");
        let g = r.streams.len();
        let contributes = |gi: usize| gi + level <= levels;
        let mut units = vec![0usize; g];
        let term = |gi: usize, u: usize| -> f64 {
            let s = &r.streams[gi];
            let k = s.planes_in_units(u);
            r.weights[gi] * prefix_error_bound(s.exp, k)
        };
        let mut terms: Vec<f64> = (0..g)
            .map(|gi| if contributes(gi) { term(gi, 0) } else { 0.0 })
            .collect();
        loop {
            let total: f64 = terms.iter().sum();
            if total <= eb {
                break;
            }
            // Largest refinable term.
            let mut best: Option<(f64, usize)> = None;
            for gi in 0..g {
                if !contributes(gi) || units[gi] >= r.streams[gi].num_units() {
                    continue;
                }
                let gain = terms[gi] - term(gi, units[gi] + 1);
                if gain <= 0.0 {
                    continue;
                }
                if best.is_none_or(|(t, _)| terms[gi] > t) {
                    best = Some((terms[gi], gi));
                }
            }
            match best {
                Some((_, gi)) => {
                    units[gi] += 1;
                    terms[gi] = term(gi, units[gi]);
                }
                None => break, // everything fetched; bound is the floor
            }
        }
        let bound = terms.iter().sum();
        (RetrievalPlan { units }, bound)
    }

    /// Greedy *rate-distortion* plan meeting a root-mean-square error
    /// target: each step fetches the unit with the best squared-error
    /// reduction per compressed byte. Returns the plan and its RMSE
    /// *estimate* `√(Σ_g (w_g · 2^(e_g−k_g))²)`.
    ///
    /// This is the L2-oriented retrieval mode of MDR. Unlike
    /// [`Self::for_error`] the returned figure is an estimator, not a hard
    /// bound: it relies on the near-orthogonality of the multilevel
    /// decomposition (group error fields are close to uncorrelated, and
    /// each group's mean-square error is below its pointwise-max square).
    /// The guaranteed L∞ bound of the resulting plan is still available
    /// through [`Refactored::error_bound_for_units`], and RMSE ≤ that
    /// bound unconditionally.
    pub fn for_rmse(r: &Refactored, rmse: f64) -> (Self, f64) {
        assert!(rmse >= 0.0, "rmse target must be non-negative");
        let g = r.streams.len();
        let mut units = vec![0usize; g];
        // Squared contribution of group gi at u units: pointwise-max
        // square of the error field the group induces anywhere on the
        // grid (coarse errors spread through prolongation, so no n_g/n
        // discount applies).
        let sq = |gi: usize, u: usize| -> f64 {
            let s = &r.streams[gi];
            let k = s.planes_in_units(u);
            let e = r.weights[gi] * prefix_error_bound(s.exp, k);
            e * e
        };
        let mut terms: Vec<f64> = (0..g).map(|gi| sq(gi, 0)).collect();
        let target_sq = rmse * rmse;
        loop {
            let total: f64 = terms.iter().sum();
            if total <= target_sq {
                break;
            }
            // Best squared-error reduction per compressed byte.
            let mut best: Option<(f64, usize)> = None;
            for gi in 0..g {
                let s = &r.streams[gi];
                if units[gi] >= s.num_units() {
                    continue;
                }
                let gain = terms[gi] - sq(gi, units[gi] + 1);
                let cost = s.units[units[gi]].stored_len().max(1) as f64;
                let density = gain / cost;
                if density <= 0.0 {
                    continue;
                }
                if best.is_none_or(|(d, _)| density > d) {
                    best = Some((density, gi));
                }
            }
            match best {
                Some((_, gi)) => {
                    units[gi] += 1;
                    terms[gi] = sq(gi, units[gi]);
                }
                None => break,
            }
        }
        let estimate = terms.iter().sum::<f64>().sqrt();
        (RetrievalPlan { units }, estimate)
    }

    /// Bytes this plan fetches from storage.
    pub fn fetch_bytes(&self, r: &Refactored) -> usize {
        r.streams
            .iter()
            .zip(&self.units)
            .map(|(s, &u)| s.fetch_bytes(u))
            .sum()
    }
}

/// Incremental reconstruction state for one refactored variable.
///
/// Holds per group the decoded bitplane accumulators, the sign plane and
/// the stream metadata — not the decompressed planes, which are dropped
/// once applied; refining to a larger plan decompresses and applies only
/// the new units. All decode and
/// recompose kernels route through the session's [`Backend`]
/// (a host-wide [`CpuBackend`] unless opened via
/// [`RetrievalSession::with_backend`]).
///
/// A session either *borrows* a variable whose payloads are already
/// resident ([`Self::with_backend`]) or *owns* a payload-free skeleton
/// ([`Self::owning`]) that the caller feeds through
/// [`Self::supply_units`] as payloads arrive. An owning session releases
/// each payload once its unit is applied, so between refinements it
/// holds the skeleton, the sign planes and the accumulators only.
pub struct RetrievalSession<'a, B: Backend = CpuBackend> {
    refactored: Cow<'a, Refactored>,
    backend: B,
    ctx: ExecCtx,
    compressor: HybridCompressor,
    /// Per group, once refined: a plane-less chunk (sign plane, exponent,
    /// layout — what `materialize` reads) and the plane accumulators.
    decoders: Vec<Option<(BitplaneChunk, ProgressiveDecoder)>>,
    units_applied: Vec<usize>,
    fetched_bytes: usize,
}

impl<'a> RetrievalSession<'a, CpuBackend> {
    /// Open a session over `refactored` (no units fetched yet) on a
    /// host-wide [`CpuBackend`].
    pub fn new(refactored: &'a Refactored) -> Self {
        RetrievalSession::with_backend(refactored, CpuBackend::new())
    }
}

impl<B: Backend> RetrievalSession<'static, B> {
    /// Open a session that owns `skeleton` — a variable whose payloads
    /// arrive later through [`Self::supply_units`] and are released as
    /// their units are applied. What a long-lived consumer (an
    /// [`ApproximationStream`](crate::progressive::ApproximationStream))
    /// keeps per chunk.
    pub fn owning(skeleton: Refactored, backend: B) -> Self {
        Self::open(Cow::Owned(skeleton), backend)
    }
}

impl<'a, B: Backend> RetrievalSession<'a, B> {
    /// Open a session over `refactored` running its kernels on `backend`.
    pub fn with_backend(refactored: &'a Refactored, backend: B) -> Self {
        Self::open(Cow::Borrowed(refactored), backend)
    }

    fn open(refactored: Cow<'a, Refactored>, backend: B) -> Self {
        let g = refactored.streams.len();
        RetrievalSession {
            refactored,
            backend,
            ctx: ExecCtx::default(),
            compressor: HybridCompressor::new(HybridConfig::default()),
            decoders: (0..g).map(|_| None).collect(),
            units_applied: vec![0; g],
            fetched_bytes: 0,
        }
    }

    /// The backend executing this session's kernels.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The variable this session reconstructs (on an owning session, the
    /// payloads of applied units are gone).
    pub fn refactored(&self) -> &Refactored {
        &self.refactored
    }

    /// Store `payloads` as units `from ..` of level group `group`, ready
    /// for the next [`Self::try_refine_to`] — how an owning session
    /// receives what [`crate::api::Store::load_units`] returned. (A
    /// borrowing session clones its variable first.)
    /// [`MdrError::InvalidQuery`] when the run exceeds the group.
    pub fn supply_units(
        &mut self,
        group: usize,
        from: usize,
        payloads: Vec<Vec<u8>>,
    ) -> Result<(), MdrError> {
        let take = payloads.len();
        let slots = self
            .refactored
            .to_mut()
            .streams
            .get_mut(group)
            .and_then(|s| s.units.get_mut(from..))
            .and_then(|units| units.get_mut(..take))
            .ok_or_else(|| {
                MdrError::InvalidQuery(format!("units {from}+{take} of group {group} out of range"))
            })?;
        for (slot, payload) in slots.iter_mut().zip(payloads) {
            slot.payload = payload;
        }
        Ok(())
    }

    /// Units currently applied per group.
    pub fn units(&self) -> &[usize] {
        &self.units_applied
    }

    /// Compressed bytes fetched so far.
    pub fn fetched_bytes(&self) -> usize {
        self.fetched_bytes
    }

    /// Guaranteed L∞ bound of the current state.
    pub fn error_bound(&self) -> f64 {
        self.refactored.error_bound_for_units(&self.units_applied)
    }

    /// Advance to `plan` (only fetching units not yet applied; plans never
    /// shrink — smaller entries are ignored).
    ///
    /// # Panics
    /// Panics if a stream is structurally corrupt. Store-backed readers
    /// use [`Self::try_refine_to`], which propagates decode errors
    /// instead — reads of damaged archives must never abort the process.
    pub fn refine_to(&mut self, plan: &RetrievalPlan) {
        self.try_refine_to(plan)
            // lint:allow(L3): documented panic contract of this method; the
            // fallible twin is `try_refine_to` (used by store readers).
            .expect("corrupt stream during refinement");
    }

    /// Fallible [`Self::refine_to`]: returns a matchable
    /// [`MdrError::Decode`] (or [`MdrError::Corrupt`]) when a unit fails
    /// to decode (truncated or corrupt payload). Groups refined before
    /// the failure remain applied; the failing group keeps the state it
    /// had, and [`Self::fetched_bytes`] counts applied units only.
    pub fn try_refine_to(&mut self, plan: &RetrievalPlan) -> Result<(), MdrError> {
        assert_eq!(plan.units.len(), self.decoders.len(), "plan shape mismatch");
        for (gi, &target) in plan.units.iter().enumerate() {
            let stream = &self.refactored.streams[gi];
            let target = target.min(stream.num_units());
            let current = self.units_applied[gi];
            if target <= current {
                continue;
            }
            // Decompress the new units only — entropy decoding is the
            // largest decode stage, and re-reading the applied prefix
            // would make unit-by-unit refinement quadratic in it — and
            // apply their planes in one pass over the accumulators.
            let new = self
                .backend
                .decode_unit_range(&self.ctx, stream.view(), current..target, &self.compressor)
                .map_err(|e| MdrError::from(e).in_context(format!("group {gi}")))?;
            let (_, decoder) = self.decoders[gi].get_or_insert_with(|| {
                // First refinement of the group: the run starts at unit 0,
                // which carries the sign plane.
                let signs = BitplaneChunk::from_arena(
                    stream.n,
                    stream.exp,
                    stream.layout,
                    self.refactored.dtype.clone(),
                    new.signs.unwrap_or_default(),
                    0,
                    Vec::new(),
                );
                let decoder = ProgressiveDecoder::with_total_planes(stream.n, stream.num_planes);
                (signs, decoder)
            });
            decoder.advance_planes(stream.layout, &new.planes, stream.planes_in_units(target));
            self.units_applied[gi] = target;
            self.fetched_bytes += stream.units[current..target]
                .iter()
                .map(|u| u.stored_len())
                .sum::<usize>();
            // Applied units live on in the accumulators; an owning session
            // has no further use for their compressed bytes.
            if let Cow::Owned(r) = &mut self.refactored {
                for unit in &mut r.streams[gi].units[current..target] {
                    unit.payload = Vec::new();
                }
            }
        }
        Ok(())
    }

    /// One chunk's share of a region query: refine to `plan` and
    /// reconstruct the chunk box `window` (see
    /// [`Self::reconstruct_window`]), labelling a decode error with the
    /// chunk's index.
    pub(crate) fn refine_chunk<F: BitplaneFloat + Real>(
        &mut self,
        chunk: usize,
        plan: &RetrievalPlan,
        window: &[Range<usize>],
        grid: Option<&mut CoefficientGrid<F>>,
    ) -> Result<Vec<F>, MdrError> {
        self.try_refine_to(plan)
            .map_err(|e| e.in_context(format!("chunk {chunk}")))?;
        Ok(self.reconstruct_window(window, grid))
    }

    /// Advance every group by `extra` merged units.
    pub fn advance_all(&mut self, extra: usize) {
        let plan = RetrievalPlan {
            units: self
                .units_applied
                .iter()
                .zip(&self.refactored.streams)
                .map(|(&u, s)| (u + extra).min(s.num_units()))
                .collect(),
        };
        self.refine_to(&plan);
    }

    /// Fetch exactly `steps` more merged units, each chosen greedily as the
    /// unit with the largest current contribution to the error bound — the
    /// MA estimator's "one more merged bitplane" refinement.
    pub fn advance_greedy(&mut self, steps: usize) {
        for _ in 0..steps {
            let mut best: Option<(f64, usize)> = None;
            for (gi, s) in self.refactored.streams.iter().enumerate() {
                if self.units_applied[gi] >= s.num_units() {
                    continue;
                }
                let k = s.planes_in_units(self.units_applied[gi]);
                let term = self.refactored.weights[gi] * prefix_error_bound(s.exp, k);
                if best.is_none_or(|(t, _)| term > t) {
                    best = Some((term, gi));
                }
            }
            let Some((_, gi)) = best else { return };
            let mut units = self.units_applied.clone();
            units[gi] += 1;
            self.refine_to(&RetrievalPlan { units });
        }
    }

    /// Whether every unit of every group has been applied.
    pub fn exhausted(&self) -> bool {
        self.units_applied
            .iter()
            .zip(&self.refactored.streams)
            .all(|(&u, s)| u >= s.num_units())
    }

    /// Materialize the current approximation.
    pub fn reconstruct<F: BitplaneFloat + Real>(&self) -> Vec<F> {
        self.reconstruct_at_resolution(0).0
    }

    /// Materialize a *coarser-resolution* approximation: recompose only the
    /// levels above `level` and return the dense level-`level` grid plus
    /// its shape. `level = 0` is the full grid; higher levels halve each
    /// dimension (the resolution-progressive access mode of the MDR line —
    /// a quick-look rendering needs neither the fine coefficients nor the
    /// fine recomposition passes).
    ///
    /// # Panics
    /// Panics on dtype mismatch or a level beyond the hierarchy.
    pub fn reconstruct_at_resolution<F: BitplaneFloat + Real>(
        &self,
        level: usize,
    ) -> (Vec<F>, Vec<usize>) {
        assert_eq!(F::TYPE_NAME, self.refactored.dtype, "dtype mismatch");
        let h = &self.refactored.hierarchy;
        assert!(level <= h.levels, "resolution level beyond hierarchy");
        let mut data = self.coefficient_grid(level);
        self.recompose(&mut data, level, None);
        let shape = h.shape_at_level(level);
        if level == 0 {
            (data, shape)
        } else {
            (extract_active_grid(&data, h, level), shape)
        }
    }

    /// The current approximation as read through `window` (per
    /// dimension, a coordinate range of the full grid): inside the window
    /// bit-identical to [`Self::reconstruct`], outside it unspecified,
    /// since the finest level's passes visit only the lines the window
    /// reads.
    ///
    /// With `grid`, the coefficient grid is kept there between calls and
    /// only the groups that gained units since it was built are
    /// materialized into it again; the recompose then runs on a copy.
    pub(crate) fn reconstruct_window<F: BitplaneFloat + Real>(
        &self,
        window: &[Range<usize>],
        grid: Option<&mut CoefficientGrid<F>>,
    ) -> Vec<F> {
        assert_eq!(F::TYPE_NAME, self.refactored.dtype, "dtype mismatch");
        let mut data = match grid {
            None => self.coefficient_grid(0),
            Some(grid) => {
                if grid.built.is_empty() {
                    grid.data = self.coefficient_grid(0);
                } else {
                    // A group only ever gains units, so one that changed
                    // has a decoder; the others keep what they hold.
                    let changed = grid.built.iter().zip(&self.units_applied);
                    for (g, _) in changed.enumerate().filter(|(_, (then, now))| then != now) {
                        self.place(&mut grid.data, g);
                    }
                }
                grid.built.clone_from(&self.units_applied);
                grid.data.clone()
            }
        };
        self.recompose(&mut data, 0, Some(window));
        data
    }

    /// The reconstruction as it was before recomposition skipped work:
    /// every group materialized into the grid, every level, axis and line
    /// recomposed — the oracle [`Self::reconstruct_window`] and the
    /// level mask are held to.
    #[cfg(test)]
    pub(crate) fn reconstruct_in_full<F: BitplaneFloat + Real>(&self) -> Vec<F> {
        let mut data = self.coefficient_grid(0);
        let r = &self.refactored;
        hpmdr_mgard::recompose(&mut data, &r.hierarchy, r.correction);
        data
    }

    /// The coefficient grid: every refined group's accumulators
    /// materialized into their nodes, `+0.0` everywhere else. Groups finer
    /// than `level` cannot influence the level-`level` grid, so they stay
    /// `+0.0` without being decoded.
    fn coefficient_grid<F: BitplaneFloat + Real>(&self, level: usize) -> Vec<F> {
        let h = &self.refactored.hierarchy;
        let mut grid = vec![F::ZERO; h.len()];
        for g in (0..=h.levels).filter(|g| g + level <= h.levels) {
            self.place(&mut grid, g);
        }
        grid
    }

    /// Materialize group `g`'s accumulators into its nodes of `grid`, if
    /// the group has been refined.
    fn place<F: BitplaneFloat + Real>(&self, grid: &mut [F], g: usize) {
        if let Some((chunk, dec)) = &self.decoders[g] {
            let (h, recon) = (&self.refactored.hierarchy, Reconstruction::Truncate);
            self.backend
                .materialize_group(&self.ctx, dec, chunk, recon, grid, h, g);
        }
    }

    /// Recompose the coefficient grid down to `level`. A group with no
    /// applied units holds `+0.0`, so its level skips the
    /// projection.
    fn recompose<F: BitplaneFloat + Real>(
        &self,
        data: &mut [F],
        level: usize,
        window: Option<&[Range<usize>]>,
    ) {
        let details: Vec<bool> = self.units_applied.iter().map(|&u| u > 0).collect();
        let to = RecomposeTo {
            level,
            window,
            details: Some(&details),
        };
        let (h, correction) = (&self.refactored.hierarchy, self.refactored.correction);
        self.backend
            .recompose_to_level(&self.ctx, data, h, correction, to);
    }
}

/// A chunk's coefficient grid, kept between the frames of a stream so
/// that a frame re-materializes only the groups that gained units (see
/// [`RetrievalSession::reconstruct_window`]).
#[derive(Default)]
pub(crate) struct CoefficientGrid<F> {
    data: Vec<F>,
    /// Units applied per group when its coefficients were materialized
    /// (empty until the grid is first built).
    built: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refactor::{refactor, RefactorConfig};

    fn field(nx: usize, ny: usize) -> Vec<f32> {
        let mut v = Vec::with_capacity(nx * ny);
        for x in 0..nx {
            for y in 0..ny {
                v.push((x as f32 * 0.17).sin() * 3.0 + (y as f32 * 0.23).cos());
            }
        }
        v
    }

    fn max_err(a: &[f32], b: &[f32]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| ((x - y).abs()) as f64)
            .fold(0.0, f64::max)
    }

    #[test]
    fn reconstruction_error_within_requested_bound() {
        let data = field(33, 33);
        let r = refactor(&data, &[33, 33], &RefactorConfig::default());
        for eb in [1.0, 1e-1, 1e-2, 1e-4, 1e-6] {
            let (plan, bound) = RetrievalPlan::for_error(&r, eb);
            let mut sess = RetrievalSession::new(&r);
            sess.refine_to(&plan);
            let rec: Vec<f32> = sess.reconstruct();
            let err = max_err(&data, &rec);
            assert!(err <= bound.max(eb), "eb={eb}: err {err} bound {bound}");
            // Refined to the plan, the session is exhausted exactly when
            // the plan fetches every unit.
            if !sess.exhausted() {
                assert!(bound <= eb, "planner bound {bound} exceeds target {eb}");
            }
        }
    }

    #[test]
    fn tighter_bounds_fetch_more_bytes() {
        let data = field(65, 65);
        let r = refactor(&data, &[65, 65], &RefactorConfig::default());
        let (p1, _) = RetrievalPlan::for_error(&r, 1e-1);
        let (p2, _) = RetrievalPlan::for_error(&r, 1e-3);
        let (p3, _) = RetrievalPlan::for_error(&r, 1e-5);
        let b1 = p1.fetch_bytes(&r);
        let b2 = p2.fetch_bytes(&r);
        let b3 = p3.fetch_bytes(&r);
        assert!(b1 < b2 && b2 < b3, "{b1} {b2} {b3}");
    }

    #[test]
    fn incremental_refinement_matches_fresh_session() {
        let data = field(33, 20);
        let r = refactor(&data, &[33, 20], &RefactorConfig::default());
        let (coarse, _) = RetrievalPlan::for_error(&r, 1e-1);
        let (fine, _) = RetrievalPlan::for_error(&r, 1e-4);

        let mut inc = RetrievalSession::new(&r);
        inc.refine_to(&coarse);
        let _ = inc.reconstruct::<f32>();
        inc.refine_to(&fine);
        let a: Vec<f32> = inc.reconstruct();

        let mut fresh = RetrievalSession::new(&r);
        fresh.refine_to(&fine);
        let b: Vec<f32> = fresh.reconstruct();
        assert_eq!(a, b);
    }

    #[test]
    fn fetched_bytes_counts_each_unit_once() {
        let data = field(33, 33);
        let r = refactor(&data, &[33, 33], &RefactorConfig::default());
        let (fine, _) = RetrievalPlan::for_error(&r, 1e-4);
        let mut inc = RetrievalSession::new(&r);
        inc.refine_to(&fine);
        let direct = fine.fetch_bytes(&r);
        assert_eq!(inc.fetched_bytes(), direct);

        // Refining through an intermediate plan must not double-count.
        let (coarse, _) = RetrievalPlan::for_error(&r, 1e-1);
        let mut two_step = RetrievalSession::new(&r);
        two_step.refine_to(&coarse);
        two_step.refine_to(&fine);
        assert_eq!(two_step.fetched_bytes(), direct);
    }

    #[test]
    fn failed_refinement_counts_only_applied_units() {
        let data = field(33, 33);
        let intact = refactor(&data, &[33, 33], &RefactorConfig::default());
        let plan = RetrievalPlan::full(&intact);
        // Damage the second unit of the last group: every earlier group
        // refines, the last one must stay where it was.
        let last = intact.streams.len() - 1;
        assert!(intact.streams[last].num_units() >= 2);
        let mut damaged = intact.clone();
        let payload = &mut damaged.streams[last].units[1].payload;
        payload.truncate(payload.len() / 2);

        let mut sess = RetrievalSession::new(&damaged);
        let mut first = RetrievalPlan::empty(&damaged);
        first.units[last] = 1;
        sess.refine_to(&first);
        let err = sess.try_refine_to(&plan).unwrap_err();
        assert!(
            matches!(err, MdrError::Decode { .. } | MdrError::Corrupt(_)),
            "{err}"
        );
        let mut applied = plan.units.clone();
        applied[last] = 1;
        assert_eq!(sess.units(), &applied[..]);
        let applied = RetrievalPlan { units: applied };
        assert_eq!(sess.fetched_bytes(), applied.fetch_bytes(&damaged));

        // The applied state is exactly a fresh session's over the intact
        // archive at the same units.
        let mut fresh = RetrievalSession::new(&intact);
        fresh.refine_to(&applied);
        assert_eq!(sess.reconstruct::<f32>(), fresh.reconstruct::<f32>());
    }

    /// Step a session one greedy unit at a time to exhaustion; after every
    /// step it must hold bit for bit what a fresh session refined straight
    /// to the same units holds.
    fn assert_stepwise_matches_fresh<F: BitplaneFloat + Real>(r: &Refactored) {
        let bits = |v: Vec<F>| -> Vec<u64> {
            v.into_iter()
                .map(|x| BitplaneFloat::to_f64(x).to_bits())
                .collect()
        };
        let mut stepped = RetrievalSession::new(r);
        while !stepped.exhausted() {
            stepped.advance_greedy(1);
            let mut fresh = RetrievalSession::new(r);
            fresh.refine_to(&RetrievalPlan {
                units: stepped.units().to_vec(),
            });
            assert_eq!(stepped.fetched_bytes(), fresh.fetched_bytes());
            assert_eq!(
                bits(stepped.reconstruct()),
                bits(fresh.reconstruct()),
                "units {:?}",
                stepped.units()
            );
        }
        assert_eq!(stepped.units(), &RetrievalPlan::full(r).units[..]);
    }

    #[test]
    fn unit_by_unit_refinement_matches_fresh_sessions_f32() {
        let data = field(33, 20);
        assert_stepwise_matches_fresh::<f32>(&refactor(
            &data,
            &[33, 20],
            &RefactorConfig::default(),
        ));
    }

    #[test]
    fn unit_by_unit_refinement_matches_fresh_sessions_f64() {
        // 64 planes: unit steps cross the accumulators' 32-plane halves.
        let data: Vec<f64> = field(17, 17).into_iter().map(f64::from).collect();
        let r = refactor(&data, &[17, 17], &RefactorConfig::default());
        assert!(r.streams.iter().any(|s| s.num_planes > 32));
        assert_stepwise_matches_fresh::<f64>(&r);
    }

    #[test]
    fn owning_session_fed_unit_by_unit_matches_a_borrowing_one_and_keeps_no_payload() {
        let data = field(33, 20);
        let r = refactor(&data, &[33, 20], &RefactorConfig::default());
        let mut borrowing = RetrievalSession::new(&r);
        let mut owning = RetrievalSession::owning(r.skeleton(), CpuBackend::with_threads(1));
        assert_eq!(owning.refactored().total_bytes(), 0);
        while !borrowing.exhausted() {
            borrowing.advance_greedy(1);
            let plan = RetrievalPlan {
                units: borrowing.units().to_vec(),
            };
            for (g, (&want, &have)) in plan.units.iter().zip(owning.units()).enumerate() {
                if want > have {
                    let delta = r.streams[g].units[have..want]
                        .iter()
                        .map(|u| u.payload.clone())
                        .collect();
                    owning.supply_units(g, have, delta).unwrap();
                    break; // one greedy step grows exactly one group
                }
            }
            owning.try_refine_to(&plan).unwrap();
            assert_eq!(owning.units(), borrowing.units());
            assert_eq!(owning.fetched_bytes(), borrowing.fetched_bytes());
            assert_eq!(owning.error_bound(), borrowing.error_bound());
            let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<u32>>();
            assert_eq!(
                bits(owning.reconstruct()),
                bits(borrowing.reconstruct()),
                "units {:?}",
                plan.units
            );
            // Applied payloads are released; the borrowed variable is intact.
            assert_eq!(owning.refactored().total_bytes(), 0);
        }
        assert_eq!(owning.fetched_bytes(), r.total_bytes());
        assert_eq!(borrowing.refactored(), &r);

        // A run outside the group is a typed error, not a panic.
        let units = r.streams[0].num_units();
        for (group, from) in [(r.streams.len(), 0), (0, units), (0, units + 1)] {
            let err = owning.supply_units(group, from, vec![Vec::new()]);
            assert!(matches!(err, Err(MdrError::InvalidQuery(_))), "{err:?}");
        }
    }

    /// A one-thread [`CpuBackend`] that counts the merged units it is
    /// asked to decompress.
    #[derive(Clone)]
    struct CountingBackend {
        inner: CpuBackend,
        units: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Default for CountingBackend {
        fn default() -> Self {
            CountingBackend {
                inner: CpuBackend::with_threads(1),
                units: Default::default(),
            }
        }
    }

    impl Backend for CountingBackend {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn threads(&self) -> usize {
            1
        }
        fn install<R>(&self, f: impl FnOnce() -> R) -> R {
            self.inner.install(f)
        }
        fn decode_unit_range(
            &self,
            ctx: &ExecCtx,
            stream: hpmdr_exec::StreamView<'_>,
            units: std::ops::Range<usize>,
            compressor: &HybridCompressor,
        ) -> Result<hpmdr_exec::UnitPlanes, hpmdr_exec::DecodeError> {
            use std::sync::atomic::Ordering::SeqCst;
            self.units.fetch_add(units.len(), SeqCst);
            self.inner.decode_unit_range(ctx, stream, units, compressor)
        }
    }

    #[test]
    fn refinement_decompresses_each_unit_exactly_once() {
        use std::sync::atomic::Ordering::SeqCst;
        let data = field(33, 33);
        let r = refactor(&data, &[33, 33], &RefactorConfig::default());
        let total: usize = r.streams.iter().map(|s| s.num_units()).sum();

        // Nested plans p1 ⊂ p2 ⊂ p3: every unit of p3 once, none twice.
        let backend = CountingBackend::default();
        let mut sess = RetrievalSession::with_backend(&r, backend.clone());
        let mut seen = 0;
        for eb in [1e-1, 1e-3, 1e-6] {
            let (plan, _) = RetrievalPlan::for_error(&r, eb);
            sess.refine_to(&plan);
            let want: usize = plan.units.iter().sum();
            assert!(want > seen, "plans must grow");
            seen = want;
            assert_eq!(backend.units.load(SeqCst), want, "eb={eb}");
        }

        // One unit per call to exhaustion: Σ units, not Σ u·(u+1)/2.
        let backend = CountingBackend::default();
        let mut sess = RetrievalSession::with_backend(&r, backend.clone());
        while !sess.exhausted() {
            sess.advance_greedy(1);
        }
        assert_eq!(backend.units.load(SeqCst), total);
    }

    #[test]
    fn parallel_backend_thread_count_does_not_change_the_values() {
        // The finest group (≈ 49 k coefficients) is large enough for
        // `materialize` to fan out over tiles on four workers.
        let data = field(257, 257);
        let r = refactor(&data, &[257, 257], &RefactorConfig::default());
        let (plan, _) = RetrievalPlan::for_error(&r, 1e-4);
        let run = |threads: usize| {
            let backend = CpuBackend::with_threads(threads);
            let mut sess = RetrievalSession::with_backend(&r, backend);
            sess.refine_to(&plan);
            let rec: Vec<f32> = sess.reconstruct();
            rec.into_iter().map(f32::to_bits).collect::<Vec<u32>>()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn full_plan_is_near_lossless() {
        let data = field(33, 33);
        let r = refactor(&data, &[33, 33], &RefactorConfig::default());
        let mut sess = RetrievalSession::new(&r);
        sess.refine_to(&RetrievalPlan::full(&r));
        assert!(sess.exhausted());
        let rec: Vec<f32> = sess.reconstruct();
        // 32 planes of f32 data: error at the quantization floor.
        let scale = data.iter().fold(0.0f32, |m, v| m.max(v.abs())) as f64;
        assert!(max_err(&data, &rec) <= scale * 1e-6);
    }

    #[test]
    fn advance_all_progresses_every_group() {
        let data = field(33, 33);
        let r = refactor(&data, &[33, 33], &RefactorConfig::default());
        let mut sess = RetrievalSession::new(&r);
        sess.advance_all(1);
        assert!(sess.units().iter().all(|&u| u == 1));
        let b1 = sess.error_bound();
        sess.advance_all(1);
        assert!(sess.error_bound() < b1);
    }

    #[test]
    fn rmse_plan_meets_target_and_is_byte_frugal() {
        let data = field(65, 65);
        let r = refactor(&data, &[65, 65], &RefactorConfig::default());
        for target in [1e-1f64, 1e-3, 1e-5] {
            let (plan, bound) = RetrievalPlan::for_rmse(&r, target);
            let mut sess = RetrievalSession::new(&r);
            sess.refine_to(&plan);
            let rec: Vec<f32> = sess.reconstruct();
            let mse: f64 = data
                .iter()
                .zip(&rec)
                .map(|(a, b)| ((a - b) as f64).powi(2))
                .sum::<f64>()
                / data.len() as f64;
            let rmse = mse.sqrt();
            assert!(
                rmse <= bound.max(target),
                "target={target} rmse={rmse} bound={bound}"
            );
            // Refined to the plan, the session is exhausted exactly when
            // the plan fetches every unit.
            if !sess.exhausted() {
                assert!(bound <= target, "planner bound {bound} exceeds {target}");
            }
            // The RMSE plan must not fetch more than the L∞ plan needs for
            // the equivalent worst-case guarantee.
            let (linf_plan, _) = RetrievalPlan::for_error(&r, target);
            assert!(
                plan.fetch_bytes(&r) <= linf_plan.fetch_bytes(&r),
                "target={target}: rd {} vs linf {}",
                plan.fetch_bytes(&r),
                linf_plan.fetch_bytes(&r)
            );
        }
    }

    #[test]
    fn rmse_plans_grow_monotonically() {
        let data = field(33, 33);
        let r = refactor(&data, &[33, 33], &RefactorConfig::default());
        let (a, _) = RetrievalPlan::for_rmse(&r, 1e-2);
        let (b, _) = RetrievalPlan::for_rmse(&r, 1e-4);
        assert!(a.fetch_bytes(&r) < b.fetch_bytes(&r));
        for (x, y) in a.units.iter().zip(&b.units) {
            assert!(x <= y, "refinement must be monotone per group");
        }
    }

    #[test]
    fn resolution_progressive_shapes_and_energy() {
        let data = field(33, 33);
        let r = refactor(&data, &[33, 33], &RefactorConfig::default());
        let mut sess = RetrievalSession::new(&r);
        sess.refine_to(&RetrievalPlan::full(&r));
        let h = r.hierarchy.clone();
        // Full resolution equals the plain reconstruct.
        let (full, shape0) = sess.reconstruct_at_resolution::<f32>(0);
        assert_eq!(shape0, vec![33, 33]);
        assert_eq!(full, sess.reconstruct::<f32>());
        // Each coarser level has the hierarchy's shape and stays in the
        // data's value envelope (coarse nodal values are projections).
        let lo = data.iter().cloned().fold(f32::MAX, f32::min) as f64;
        let hi = data.iter().cloned().fold(f32::MIN, f32::max) as f64;
        let margin = (hi - lo) * 0.5 + 1e-6;
        for level in 1..=h.levels {
            let (coarse, shape) = sess.reconstruct_at_resolution::<f32>(level);
            assert_eq!(shape, h.shape_at_level(level));
            assert_eq!(coarse.len(), shape.iter().product::<usize>());
            for v in &coarse {
                let v = *v as f64;
                assert!(v >= lo - margin && v <= hi + margin, "level {level}: {v}");
            }
        }
    }

    #[test]
    fn coarse_resolution_needs_no_fine_groups() {
        // Fetch nothing: coarse reconstructions are still exact zeros; fetch
        // only the coarsest groups and verify finer groups are not required
        // for a level-max reconstruction.
        let data = field(33, 33);
        let r = refactor(&data, &[33, 33], &RefactorConfig::default());
        let levels = r.hierarchy.levels;
        // Plan that fully fetches only groups 0 and 1.
        let mut units = vec![0usize; r.streams.len()];
        units[0] = r.streams[0].num_units();
        units[1] = r.streams[1].num_units();
        let mut sess = RetrievalSession::new(&r);
        sess.refine_to(&RetrievalPlan { units });
        let (coarse, shape) = sess.reconstruct_at_resolution::<f32>(levels - 1);
        assert_eq!(shape, r.hierarchy.shape_at_level(levels - 1));
        assert!(coarse.iter().any(|&v| v != 0.0), "coarse grid carries data");
    }

    #[test]
    fn empty_plan_reconstructs_zeros_with_range_bound() {
        let data = field(17, 17);
        let r = refactor(&data, &[17, 17], &RefactorConfig::default());
        let sess = RetrievalSession::new(&r);
        let rec: Vec<f32> = sess.reconstruct();
        assert!(rec.iter().all(|&v| v == 0.0));
        let bound = sess.error_bound();
        assert!(max_err(&data, &rec) <= bound);
    }
}
