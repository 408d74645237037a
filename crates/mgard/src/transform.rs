//! Tensor-product multilevel (re)decomposition over 1D/2D/3D arrays.
//!
//! Each level applies the 1D transform of `crate::line` along every
//! dimension of the current active grid. Recomposition replays levels and
//! axes in exactly reverse order, making the whole transform exactly
//! invertible up to floating-point roundoff — the property MDR relies on
//! for near-lossless refactoring.
//!
//! # Schedule
//!
//! All lines of one axis pass are independent, so a pass is cut into
//! *panels* of consecutive lines that are transformed in lockstep by the
//! kernels of `crate::line`. Along an axis that is not the last,
//! consecutive lines are the neighbouring nodes of the last dimension: at
//! level 0 they are adjacent in the array, so each node of a panel is `w`
//! consecutive elements, and the panel is transformed in place, its rows
//! the axis's node stride apart (a single line is such a panel too).
//! Everywhere else — along the last axis, whose lines are the contiguous
//! runs, and above level 0, where neighbouring lines are `2^l` apart — a
//! panel is gathered into a dense cache-resident `n × w` buffer
//! (`buf[i·w + lane]`), transformed, and scattered back. Panels, not
//! lines, are what a parallel pool fans out over.
//!
//! Lines never exchange data inside a pass, so how they are grouped into
//! panels, and panels into worker parts, changes only the interleaving of
//! independent computations: the result is bit-identical for every panel
//! width and every thread count.
//!
//! # Reading part of a recomposition
//!
//! A caller that reads only part of the result says so with
//! [`RecomposeTo`], and the passes nobody reads are skipped; every value
//! the caller reads is bit-identical to a full [`recompose`]'s.
//!
//! * **A window of the finest level.** Every coarser level runs in full,
//!   because the finest level's first pass reads all of its output. At
//!   the finest level the passes run from the last axis to the first, and
//!   the pass along axis `a` needs only the lines whose coordinates on
//!   every axis after `a` lie in the window: those are the lines whose
//!   nodes the later passes read. The first pass runs in full; in 3-D
//!   the last one visits only the window's `y × z` lines.
//! * **No projection where there are no details.** A level whose detail
//!   group is `+0.0` everywhere projects a zero load vector, so every
//!   coarse node would only subtract `+0.0` — exact, `−0.0` included. Such
//!   a level runs `predict` alone. (Its odd nodes stay `+0.0` through the
//!   earlier axes' passes, which interpolate between them and add.)

use crate::grid::Hierarchy;
use crate::line::{decompose_panel, recompose_panel, MassFactor, Panel, PanelScratch};
use crate::Real;
use std::ops::Range;

/// Target footprint of one panel buffer: with the correction scratch
/// (half as much again) it stays inside a 32 KiB L1.
const PANEL_BYTES: usize = 16 * 1024;

/// Lanes a panel keeps even when its lines are too long for
/// [`PANEL_BYTES`]: below a few vectors' worth the lane loops stop paying.
const MIN_PANEL_LANES: usize = 16;

/// Least work (elements of the active grid) one worker part of an axis
/// pass must have. Handing a part to another thread costs tens of
/// microseconds; a part this size runs for about a hundred, so a pass over
/// a small chunk stays on the calling thread.
const MIN_PART_ELEMS: usize = 1 << 17;

/// Shared mutable view of the array for the disjoint panel updates of one
/// axis pass.
///
/// Soundness: a panel is a set of whole lines, and two lines of one axis
/// pass differ in a non-axis coordinate, so distinct panels touch disjoint
/// element sets; every panel is processed by exactly one worker. A panel
/// transformed in place borrows its nodes as one slice per node, never a
/// range spanning another panel's elements.
struct SyncPtr<F> {
    ptr: *mut F,
    len: usize,
}
// SAFETY: the pointer targets the caller's exclusively borrowed buffer for
// the duration of one axis pass; each worker touches only the elements of
// its own panels.
unsafe impl<F: Send> Send for SyncPtr<F> {}
// SAFETY: concurrent access is confined to disjoint element sets (panels
// of one axis pass never share an element), so no location races.
unsafe impl<F: Send> Sync for SyncPtr<F> {}

impl<F: Copy> SyncPtr<F> {
    // SAFETY: caller must pass an in-bounds `i` belonging to its own panel.
    #[inline]
    unsafe fn read(&self, i: usize) -> F {
        debug_assert!(i < self.len);
        *self.ptr.add(i)
    }
    // SAFETY: caller must pass an in-bounds `i` belonging to its own panel.
    #[inline]
    unsafe fn write(&self, i: usize, v: F) {
        debug_assert!(i < self.len);
        *self.ptr.add(i) = v;
    }
    // SAFETY: caller must pass an in-bounds range whose elements all belong
    // to its own panel, and must not hold another slice overlapping it.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [F] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }
}

/// What a caller reads of a recomposition (see the [module
/// docs](self#reading-part-of-a-recomposition)). The default reads
/// everything: the full inverse transform.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecomposeTo<'a> {
    /// Finest level to rebuild (0 = the full grid).
    pub level: usize,
    /// Per dimension, the coordinate range of the level-`level` active
    /// grid the caller reads (`None` reads all of it). Values outside the
    /// window are left unspecified.
    pub window: Option<&'a [Range<usize>]>,
    /// Per level group, in [`crate::extract_levels`] order, whether it may
    /// hold a nonzero coefficient (`None`: every group may). A group
    /// marked `false` must be `+0.0` everywhere.
    pub details: Option<&'a [bool]>,
}

/// Geometry of one axis pass over the active grid of a level.
struct AxisPass {
    /// Nodes per line.
    n: usize,
    /// Element stride between consecutive nodes of a line.
    axis_stride: usize,
    /// Flat index of node 0 of the pass's first line.
    origin: usize,
    /// `(lines, element stride)` along the slower of the two other
    /// dimensions (`(1, 0)` when absent).
    outer: (usize, usize),
    /// Same for the faster one: consecutive lines step along it.
    inner: (usize, usize),
}

impl AxisPass {
    /// `dims`: active extent per dimension; `elem_strides`: element stride
    /// between active nodes per dimension (level stride × row-major
    /// stride); `lines`: per dimension, the coordinate range of the lines
    /// the pass visits (the entry of `axis` itself is ignored).
    fn new(dims: &[usize], elem_strides: &[usize], axis: usize, lines: &[Range<usize>]) -> Self {
        let other = || (0..dims.len()).filter(move |&d| d != axis);
        let origin = other().map(|d| lines[d].start * elem_strides[d]).sum();
        let mut spans = other().map(|d| (lines[d].len(), elem_strides[d]));
        let first = spans.next();
        let (outer, inner) = match (first, spans.next()) {
            (Some(a), Some(b)) => (a, b),
            (Some(a), None) => ((1, 0), a),
            _ => ((1, 0), (1, 0)),
        };
        AxisPass {
            n: dims[axis],
            axis_stride: elem_strides[axis],
            origin,
            outer,
            inner,
        }
    }

    fn num_lines(&self) -> usize {
        self.outer.0 * self.inner.0
    }

    /// Lines per panel for element type `F`.
    fn panel_lanes<F>(&self) -> usize {
        let fit = (PANEL_BYTES / (self.n * std::mem::size_of::<F>())).max(MIN_PANEL_LANES);
        // One run of the inner dimension is equally spaced in memory; a
        // panel that straddles runs is not. Stop at the run's end when the
        // run alone fills enough lanes.
        let run = self.inner.0;
        if run >= MIN_PANEL_LANES && fit > run {
            run
        } else {
            fit.min(self.num_lines())
        }
    }

    /// Flat index of node 0 of lines `first..first + out.len()`, in line
    /// order (row-major over the other dimensions, so strictly ascending).
    fn lane_bases(&self, first: usize, out: &mut [usize]) {
        let (extent, stride) = self.inner;
        let (mut o, mut i) = (first / extent, first % extent);
        for b in out {
            *b = self.origin + o * self.outer.1 + i * stride;
            i += 1;
            if i == extent {
                i = 0;
                o += 1;
            }
        }
    }
}

/// The panel kernel an axis pass applies: [`decompose_panel`] or
/// [`recompose_panel`].
type PanelKernel<F> = fn(Panel<'_, '_, F>, &mut PanelScratch<F>, &MassFactor<F>, bool);

/// One axis pass over the lines `lines` of the active grid at a level.
fn axis_pass<F: Real>(
    data: &mut [F],
    dims: &[usize],
    elem_strides: &[usize],
    axis: usize,
    lines: &[Range<usize>],
    kernel: PanelKernel<F>,
    correct: bool,
) {
    let pass = AxisPass::new(dims, elem_strides, axis, lines);
    if pass.n < 3 || pass.num_lines() == 0 {
        return;
    }
    let lanes = pass.panel_lanes::<F>();
    let panels = pass.num_lines().div_ceil(lanes);
    let fac = MassFactor::new(pass.n.div_ceil(2));
    let view = SyncPtr {
        ptr: data.as_mut_ptr(),
        len: data.len(),
    };
    hpmdr_rt::map_blocks(panels, min_part_panels(pass.n, lanes), |range| {
        run_panels(&view, &pass, &fac, lanes, range, kernel, correct);
    });
}

/// Panels of `n`-node lines, `lanes` to a panel, that make up
/// [`MIN_PART_ELEMS`] of work: the least one part of an axis pass takes.
fn min_part_panels(n: usize, lanes: usize) -> usize {
    MIN_PART_ELEMS.div_ceil(n * lanes)
}

/// Transform panels `range` of `pass` (each `lanes` lines wide, the last
/// one of the pass possibly narrower).
fn run_panels<F: Real>(
    view: &SyncPtr<F>,
    pass: &AxisPass,
    fac: &MassFactor<F>,
    lanes: usize,
    range: Range<usize>,
    kernel: PanelKernel<F>,
    correct: bool,
) {
    let (n, axis_stride) = (pass.n, pass.axis_stride);
    let mut scratch = PanelScratch::new(n, lanes);
    let mut buf = vec![F::ZERO; n * lanes];
    let mut bases = vec![0usize; lanes];

    for panel in range {
        let first = panel * lanes;
        let w = lanes.min(pass.num_lines() - first);
        let bases = &mut bases[..w];
        pass.lane_bases(first, bases);
        // Bases ascend, so this bounds every index the panel touches.
        assert!(bases[w - 1] + (n - 1) * axis_stride < view.len);

        if bases[w - 1] - bases[0] == w - 1 {
            // Adjacent lines: node `i` of every lane is the `w`
            // consecutive elements at `bases[0] + i·axis_stride`, and the
            // panel is transformed where it lies. Two nodes of one line
            // are distinct elements, so those rows cannot overlap.
            assert!(w <= axis_stride, "nodes of one line overlap");
            let mut rows: Vec<&mut [F]> = (0..n)
                // SAFETY: in bounds by the assert above; node `i` of this
                // panel's lines, and the rows are disjoint (`w ≤
                // axis_stride`).
                .map(|i| unsafe { view.slice_mut(bases[0] + i * axis_stride, w) })
                .collect();
            kernel(Panel::new(&mut rows), &mut scratch, fac, correct);
            continue;
        }

        let buf = &mut buf[..n * w];
        for (i, row) in buf.chunks_exact_mut(w).enumerate() {
            for (slot, &base) in row.iter_mut().zip(bases.iter()) {
                // SAFETY: in bounds by the assert above; node `i` of one
                // of this panel's lines.
                *slot = unsafe { view.read(base + i * axis_stride) };
            }
        }

        let mut rows: Vec<&mut [F]> = buf.chunks_exact_mut(w).collect();
        kernel(Panel::new(&mut rows), &mut scratch, fac, correct);

        // Scatter to the same indices the gather read.
        for (i, row) in buf.chunks_exact(w).enumerate() {
            for (&v, &base) in row.iter().zip(bases.iter()) {
                // SAFETY: same index as the gather.
                unsafe { view.write(base + i * axis_stride, v) };
            }
        }
    }
}

/// Decompose `data` (row-major, shape `h.shape`) in place through all
/// levels of `h`. Even/odd interleaving keeps every coefficient at its
/// original position; use [`crate::levels::extract_levels`] to pull the
/// per-level groups out.
///
/// `correct` enables the L2 projection correction (MGARD); without it the
/// transform is plain hierarchical interpolation.
///
/// # Panics
/// Panics if `data.len()` does not match the hierarchy.
pub fn decompose<F: Real>(data: &mut [F], h: &Hierarchy, correct: bool) {
    assert_eq!(
        data.len(),
        h.len(),
        "data length must match hierarchy shape"
    );
    for l in 0..h.levels {
        let (dims, elem_strides) = h.level_geometry(l);
        let lines = whole(&dims);
        for axis in 0..h.ndims() {
            axis_pass(
                data,
                &dims,
                &elem_strides,
                axis,
                &lines,
                decompose_panel,
                correct,
            );
        }
    }
}

/// Every line of a grid of extents `dims`.
fn whole(dims: &[usize]) -> Vec<Range<usize>> {
    dims.iter().map(|&n| 0..n).collect()
}

/// Exact inverse of [`decompose`].
pub fn recompose<F: Real>(data: &mut [F], h: &Hierarchy, correct: bool) {
    recompose_to_level(data, h, correct, RecomposeTo::default());
}

/// Partially recompose down to `to.level` (0 = full grid): only the
/// levels coarser than the target are inverted, leaving a valid nodal
/// representation on the level-`to.level` active grid. This is the
/// *resolution-progressive* access mode of the MDR line: a coarse
/// rendering needs neither the finer coefficients nor the finer
/// recomposition passes. `to.window` and `to.details` skip the work
/// nobody reads (see the [module
/// docs](self#reading-part-of-a-recomposition)).
///
/// # Panics
/// Panics if `data` does not match the hierarchy, `to.level` exceeds the
/// hierarchy depth, the window does not lie in the level's grid, or the
/// mask does not have one entry per level group.
pub fn recompose_to_level<F: Real>(
    data: &mut [F],
    h: &Hierarchy,
    correct: bool,
    to: RecomposeTo<'_>,
) {
    assert_eq!(
        data.len(),
        h.len(),
        "data length must match hierarchy shape"
    );
    let target = to.level;
    assert!(target <= h.levels, "level {target} beyond hierarchy");
    if let Some(window) = to.window {
        let dims = h.shape_at_level(target);
        assert!(
            window.len() == dims.len()
                && window
                    .iter()
                    .zip(&dims)
                    .all(|(r, &n)| r.start <= r.end && r.end <= n),
            "window {window:?} outside the level-{target} grid {dims:?}"
        );
    }
    if let Some(details) = to.details {
        assert_eq!(
            details.len(),
            h.levels + 1,
            "one mask entry per level group"
        );
    }
    for l in (target..h.levels).rev() {
        let (dims, elem_strides) = h.level_geometry(l);
        let correct = correct && to.details.is_none_or(|d| d[h.levels - l]);
        let mut lines = whole(&dims);
        for axis in (0..h.ndims()).rev() {
            axis_pass(
                data,
                &dims,
                &elem_strides,
                axis,
                &lines,
                recompose_panel,
                correct,
            );
            // The passes left at the target level read only the lines
            // whose coordinate along this axis the caller reads.
            if let (true, Some(window)) = (l == target, to.window) {
                lines[axis] = window[axis].clone();
            }
        }
    }
}

/// Gather the active grid of `level` into a dense row-major array of
/// shape [`Hierarchy::shape_at_level`].
pub fn extract_active_grid<F: Real>(data: &[F], h: &Hierarchy, level: usize) -> Vec<F> {
    assert_eq!(
        data.len(),
        h.len(),
        "data length must match hierarchy shape"
    );
    assert!(level <= h.levels, "level {level} beyond hierarchy");
    let nd = h.ndims();
    let (dims, strides) = h.level_geometry(level);
    let count: usize = dims.iter().product();
    let mut out = Vec::with_capacity(count);
    let mut coord = vec![0usize; nd];
    for _ in 0..count {
        let flat: usize = coord.iter().zip(&strides).map(|(&c, &s)| c * s).sum();
        out.push(data[flat]);
        for d in (0..nd).rev() {
            coord[d] += 1;
            if coord[d] < dims[d] {
                break;
            }
            coord[d] = 0;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::oracle::{decompose_line, recompose_line, LineScratch};
    use proptest::prelude::*;

    /// One axis pass as it ran before panels: every line gathered into a
    /// scratch vector, through the per-line oracle, scattered back.
    fn oracle_pass<F: Real>(
        data: &mut [F],
        dims: &[usize],
        elem_strides: &[usize],
        axis: usize,
        line_kernel: fn(&mut [F], &mut LineScratch<F>, bool),
        correct: bool,
    ) {
        let pass = AxisPass::new(dims, elem_strides, axis, &whole(dims));
        let mut scratch = LineScratch::with_capacity(pass.n);
        let mut bases = vec![0usize; pass.num_lines()];
        pass.lane_bases(0, &mut bases);
        for base in bases {
            let mut line: Vec<F> = (0..pass.n)
                .map(|i| data[base + i * pass.axis_stride])
                .collect();
            line_kernel(&mut line, &mut scratch, correct);
            for (i, v) in line.into_iter().enumerate() {
                data[base + i * pass.axis_stride] = v;
            }
        }
    }

    fn oracle_decompose<F: Real>(data: &mut [F], h: &Hierarchy, correct: bool) {
        for l in 0..h.levels {
            let (dims, elem_strides) = h.level_geometry(l);
            for axis in 0..h.ndims() {
                oracle_pass(data, &dims, &elem_strides, axis, decompose_line, correct);
            }
        }
    }

    fn oracle_recompose_to_level<F: Real>(
        data: &mut [F],
        h: &Hierarchy,
        correct: bool,
        target_level: usize,
    ) {
        for l in (target_level..h.levels).rev() {
            let (dims, elem_strides) = h.level_geometry(l);
            for axis in (0..h.ndims()).rev() {
                oracle_pass(data, &dims, &elem_strides, axis, recompose_line, correct);
            }
        }
    }

    /// Bit patterns (widening f32 to f64 is exact, signed zeros included).
    fn bits<F: Real>(v: &[F]) -> Vec<u64> {
        v.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    /// Rough field with exact and negative zeros sprinkled in: the `0 +`
    /// of a missing detail neighbour is not a no-op for `−0.0`.
    fn rough_field<F: Real>(n: usize, seed: u32) -> Vec<F> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 17;
                s ^= s << 5;
                match s % 23 {
                    0 => F::ZERO,
                    1 => -F::ZERO,
                    _ => F::from_f64((s as f64 / u32::MAX as f64 - 0.5) * 37.0),
                }
            })
            .collect()
    }

    /// Decompose, and recompose to every target level, on a `threads`-wide
    /// pool: bit-identical to the per-line oracle.
    fn assert_matches_oracle<F: Real>(shape: &[usize], seed: u32, threads: usize) {
        let h = Hierarchy::full(shape);
        let orig: Vec<F> = rough_field(h.len(), seed);
        for correct in [true, false] {
            let mut want = orig.clone();
            oracle_decompose(&mut want, &h, correct);
            let mut got = orig.clone();
            hpmdr_rt::install(threads, || decompose(&mut got, &h, correct));
            assert_eq!(
                bits(&got),
                bits(&want),
                "decompose {shape:?} correct={correct} threads={threads}"
            );
            for target in 0..=h.levels {
                let mut want_back = want.clone();
                oracle_recompose_to_level(&mut want_back, &h, correct, target);
                let mut got_back = want.clone();
                let to = RecomposeTo {
                    level: target,
                    ..RecomposeTo::default()
                };
                hpmdr_rt::install(threads, || {
                    recompose_to_level(&mut got_back, &h, correct, to)
                });
                assert_eq!(
                    bits(&got_back),
                    bits(&want_back),
                    "recompose {shape:?} to {target} correct={correct} threads={threads}"
                );
            }
        }
    }

    fn extent() -> impl Strategy<Value = usize> {
        prop_oneof![
            Just(1usize),
            Just(2usize),
            Just(3usize),
            Just(5usize),
            Just(13usize),
            Just(31usize),
            Just(64usize),
            1usize..40,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn panel_transform_is_bit_identical_to_per_line_oracle(
            shape in prop::collection::vec(extent(), 1..=3),
            seed in any::<u32>(),
        ) {
            for threads in [1, 4] {
                assert_matches_oracle::<f32>(&shape, seed, threads);
                assert_matches_oracle::<f64>(&shape, seed, threads);
            }
        }
    }

    #[test]
    fn thin_and_long_shapes_are_bit_identical_to_oracle() {
        // Thin dimensions make panels straddle slabs; a long line forces
        // the minimum panel width; 1-D runs in place at level 0.
        for shape in [
            vec![7usize, 64, 5],
            vec![64, 3, 64],
            vec![2, 129, 2],
            vec![5000],
            vec![3, 2100],
            vec![2100, 3],
        ] {
            assert_matches_oracle::<f32>(&shape, 0x5eed, 1);
            assert_matches_oracle::<f64>(&shape, 0x5eed, 4);
        }
    }

    /// Recompose `coeffs` to `level` reading only `window`, with the
    /// groups `empty` marks zeroed and masked out, on a `threads`-wide
    /// pool: inside the window, bit-identical to a full recompose of the
    /// same coefficients.
    fn assert_window_matches_full<F: Real>(
        h: &Hierarchy,
        seed: u32,
        level: usize,
        window: &[Range<usize>],
        empty: &[bool],
        threads: usize,
    ) {
        let mut groups = crate::extract_levels(&rough_field::<F>(h.len(), seed), h);
        for (group, _) in groups.iter_mut().zip(empty).filter(|(_, &e)| e) {
            group.fill(F::ZERO);
        }
        let coeffs = crate::inject_levels(&groups, h);
        let details: Vec<bool> = empty.iter().map(|&e| !e).collect();
        let (dims, elem_strides) = h.level_geometry(level);
        for correct in [true, false] {
            let mut want = coeffs.clone();
            let full = RecomposeTo {
                level,
                ..RecomposeTo::default()
            };
            recompose_to_level(&mut want, h, correct, full);
            let mut got = coeffs.clone();
            let to = RecomposeTo {
                level,
                window: Some(window),
                details: Some(&details),
            };
            hpmdr_rt::install(threads, || recompose_to_level(&mut got, h, correct, to));
            // Every node of the window, row-major.
            let mut coord: Vec<usize> = window.iter().map(|r| r.start).collect();
            let count: usize = window.iter().map(|r| r.len()).product();
            for _ in 0..count {
                let i: usize = coord.iter().zip(&elem_strides).map(|(c, s)| c * s).sum();
                assert_eq!(
                    got[i].to_f64().to_bits(),
                    want[i].to_f64().to_bits(),
                    "{:?} levels={} to {level} window={window:?} empty={empty:?} \
                     correct={correct} threads={threads} at {coord:?}",
                    h.shape,
                    h.levels
                );
                for d in (0..coord.len()).rev() {
                    coord[d] += 1;
                    if coord[d] < window[d].end {
                        break;
                    }
                    coord[d] = window[d].start;
                }
            }
            assert!(window.iter().zip(&dims).all(|(r, &n)| r.end <= n));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn window_and_empty_levels_are_bit_identical_inside_the_window(
            shape in prop::collection::vec(1usize..43, 1..=3),
            seed in any::<u32>(),
            picks in any::<u64>(),
        ) {
            // Every level count of the shape, a target level, a window
            // (possibly empty or whole) and a mask all drawn from `picks`.
            let mut bits = picks;
            let mut draw = |n: usize| {
                bits = bits.rotate_left(7) ^ 0x9e37_79b9_7f4a_7c15;
                (bits % n as u64) as usize
            };
            for levels in 0..=Hierarchy::full(&shape).levels {
                let h = Hierarchy::with_levels(&shape, levels);
                let level = if draw(3) == 0 { draw(levels + 1) } else { 0 };
                let window: Vec<Range<usize>> = h
                    .shape_at_level(level)
                    .iter()
                    .map(|&n| {
                        let a = draw(n + 1);
                        let b = draw(n + 1);
                        a.min(b)..a.max(b)
                    })
                    .collect();
                let empty: Vec<bool> = (0..=levels).map(|k| k > 0 && draw(3) == 0).collect();
                for threads in [1, 4] {
                    assert_window_matches_full::<f32>(&h, seed, level, &window, &empty, threads);
                    assert_window_matches_full::<f64>(&h, seed, level, &window, &empty, threads);
                }
            }
        }
    }

    /// Panels of the level-0 passes of `shape` that run in place with
    /// their rows further apart than their width — the strided in-place
    /// panels, as `run_panels` classifies them.
    fn strided_in_place_panels<F>(shape: &[usize]) -> usize {
        let h = Hierarchy::full(shape);
        let (dims, elem_strides) = h.level_geometry(0);
        let mut count = 0;
        for axis in 0..dims.len() {
            let pass = AxisPass::new(&dims, &elem_strides, axis, &whole(&dims));
            let lanes = pass.panel_lanes::<F>();
            for first in (0..pass.num_lines()).step_by(lanes) {
                let mut bases = vec![0; lanes.min(pass.num_lines() - first)];
                pass.lane_bases(first, &mut bases);
                let w = bases.len();
                let adjacent = bases[w - 1] - bases[0] == w - 1;
                count += usize::from(pass.n >= 3 && adjacent && pass.axis_stride > w);
            }
        }
        count
    }

    #[test]
    fn strided_in_place_panels_match_the_per_line_oracle() {
        // Shapes whose outer-axis panels stay in the array with rows
        // further apart than their width: decompose and every target
        // level against the per-line oracle, and a windowed, masked
        // recompose against the oracle's full one inside the window.
        for shape in [
            vec![24usize, 9, 70],
            vec![40, 20, 33],
            vec![300, 40],
            vec![5, 7, 130],
        ] {
            assert!(strided_in_place_panels::<f32>(&shape) > 0, "{shape:?}");
            assert!(strided_in_place_panels::<f64>(&shape) > 0, "{shape:?}");
            for threads in [1, 4] {
                assert_matches_oracle::<f32>(&shape, 0xface, threads);
                assert_matches_oracle::<f64>(&shape, 0xface, threads);
            }
            let h = Hierarchy::full(&shape);
            let window: Vec<Range<usize>> = shape.iter().map(|&n| n / 5..n - n / 3).collect();
            for empty in [
                vec![false; h.levels + 1],
                (0..=h.levels).map(|k| k % 2 == 1).collect(),
            ] {
                let mut groups = crate::extract_levels(&rough_field::<f32>(h.len(), 5), &h);
                for (group, _) in groups.iter_mut().zip(&empty).filter(|(_, &e)| e) {
                    group.fill(0.0);
                }
                let coeffs = crate::inject_levels(&groups, &h);
                let details: Vec<bool> = empty.iter().map(|&e| !e).collect();
                let mut want = coeffs.clone();
                oracle_recompose_to_level(&mut want, &h, true, 0);
                for threads in [1, 4] {
                    let mut got = coeffs.clone();
                    let to = RecomposeTo {
                        level: 0,
                        window: Some(&window),
                        details: Some(&details),
                    };
                    hpmdr_rt::install(threads, || recompose_to_level(&mut got, &h, true, to));
                    let strides = h.strides();
                    let inside = |i: usize| {
                        (0..shape.len()).all(|d| window[d].contains(&(i / strides[d] % shape[d])))
                    };
                    for i in (0..h.len()).filter(|&i| inside(i)) {
                        assert_eq!(
                            got[i].to_bits(),
                            want[i].to_bits(),
                            "{shape:?} empty={empty:?} threads={threads} at {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn whole_window_and_full_mask_are_the_full_recompose() {
        // The bypass a full-domain query takes: the whole grid as the
        // window and every group marked, bit for bit the plain recompose.
        for shape in [vec![33usize, 20], vec![17, 9, 12], vec![100]] {
            let h = Hierarchy::full(&shape);
            let coeffs: Vec<f32> = rough_field(h.len(), 11);
            let window = whole(&shape);
            let details = vec![true; h.levels + 1];
            let mut want = coeffs.clone();
            recompose(&mut want, &h, true);
            let mut got = coeffs;
            let to = RecomposeTo {
                level: 0,
                window: Some(&window),
                details: Some(&details),
            };
            recompose_to_level(&mut got, &h, true, to);
            assert_eq!(bits(&got), bits(&want), "{shape:?}");
        }
    }

    /// The panel ranges an axis pass over `lines` lines of `n` nodes,
    /// `lanes` to a panel, is cut into at a width of `threads`.
    fn pass_parts(n: usize, lines: usize, lanes: usize, threads: usize) -> Vec<Range<usize>> {
        let panels = lines.div_ceil(lanes);
        let min = min_part_panels(n, lanes);
        hpmdr_rt::install(threads, || hpmdr_rt::map_blocks(panels, min, |r| r))
    }

    #[test]
    fn parallel_fan_out_is_bit_identical_to_oracle() {
        // Large enough that a 4-thread pool really splits the level-0
        // passes (see `work_floor_keeps_small_passes_on_one_thread`).
        for shape in [vec![80usize, 72, 96], vec![700, 800]] {
            let strides: Vec<usize> = (0..shape.len())
                .map(|d| shape[d + 1..].iter().product())
                .collect();
            let pass = AxisPass::new(&shape, &strides, 0, &whole(&shape));
            for lanes in [pass.panel_lanes::<f32>(), pass.panel_lanes::<f64>()] {
                assert!(pass_parts(pass.n, pass.num_lines(), lanes, 4).len() > 1);
            }
            assert_matches_oracle::<f32>(&shape, 7, 4);
            assert_matches_oracle::<f64>(&shape, 7, 4);
        }
    }

    #[test]
    fn work_floor_keeps_small_passes_on_one_thread() {
        // A 32^3 chunk (and every coarser level of a 64^3 one) is not
        // worth a hand-off, however wide the pool.
        for threads in [1, 2, 4, 64] {
            assert_eq!(pass_parts(32, 32 * 32, 32, threads).len(), 1);
            assert_eq!(pass_parts(33, 33 * 33, 33, threads).len(), 1);
        }
        // Larger passes use the pool, never beyond it or the panel count,
        // and no part falls below the floor.
        assert_eq!(pass_parts(64, 64 * 64, 64, 1).len(), 1);
        assert_eq!(pass_parts(64, 64 * 64, 64, 2).len(), 2);
        assert_eq!(pass_parts(64, 64 * 64, 64, 64).len(), 2);
        assert_eq!(pass_parts(128, 128 * 128, 64, 4).len(), 4);
        assert_eq!(pass_parts(128, 128 * 128, 5462, 4).len(), 3);
        for (n, lines, lanes, threads) in [
            (64usize, 1usize << 14, 16usize, 3usize),
            (4096, 4096, 586, 16),
        ] {
            let parts = pass_parts(n, lines, lanes, threads);
            assert!(parts.len() <= threads.min(lines.div_ceil(lanes)));
            // The parts tile the panels in order, none below the floor.
            let mut next = 0;
            for r in &parts {
                assert_eq!(r.start, next);
                assert!(r.len() * n * lanes >= MIN_PART_ELEMS);
                next = r.end;
            }
            assert_eq!(next, lines.div_ceil(lanes));
        }
    }

    fn field_3d(nx: usize, ny: usize, nz: usize) -> Vec<f64> {
        let mut v = Vec::with_capacity(nx * ny * nz);
        for x in 0..nx {
            for y in 0..ny {
                for z in 0..nz {
                    let (xf, yf, zf) = (x as f64, y as f64, z as f64);
                    v.push((xf * 0.3).sin() * (yf * 0.17).cos() + 0.05 * (zf * 0.9).sin());
                }
            }
        }
        v
    }

    #[test]
    fn roundtrip_1d() {
        for n in [3usize, 16, 17, 100, 257] {
            let h = Hierarchy::full(&[n]);
            let orig: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin() * 5.0).collect();
            let mut data = orig.clone();
            decompose(&mut data, &h, true);
            recompose(&mut data, &h, true);
            for (a, b) in orig.iter().zip(&data) {
                assert!((a - b).abs() < 1e-10, "n={n}");
            }
        }
    }

    #[test]
    fn roundtrip_2d_non_square() {
        let h = Hierarchy::full(&[33, 20]);
        let orig = field_3d(33, 20, 1);
        let mut data = orig.clone();
        decompose(&mut data, &h, true);
        recompose(&mut data, &h, true);
        for (a, b) in orig.iter().zip(&data) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn roundtrip_3d_odd_even_mix() {
        for shape in [[9usize, 8, 7], [17, 17, 17], [5, 32, 11]] {
            let h = Hierarchy::full(&shape);
            let orig = field_3d(shape[0], shape[1], shape[2]);
            let mut data = orig.clone();
            decompose(&mut data, &h, true);
            recompose(&mut data, &h, true);
            for (a, b) in orig.iter().zip(&data) {
                assert!((a - b).abs() < 1e-10, "shape={shape:?}");
            }
        }
    }

    #[test]
    fn roundtrip_without_correction() {
        let h = Hierarchy::full(&[33, 33]);
        let orig = field_3d(33, 33, 1);
        let mut data = orig.clone();
        decompose(&mut data, &h, false);
        recompose(&mut data, &h, false);
        for (a, b) in orig.iter().zip(&data) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn trilinear_field_decomposes_to_coarse_only() {
        // A multilinear function is reproduced exactly by interpolation, so
        // every detail coefficient must vanish (correction included: the
        // projection of zero detail is zero).
        let (nx, ny) = (17, 9);
        let h = Hierarchy::full(&[nx, ny]);
        let mut data: Vec<f64> = Vec::new();
        for x in 0..nx {
            for y in 0..ny {
                data.push(2.0 * x as f64 - 3.0 * y as f64 + 0.25 * (x * y) as f64 + 1.0);
            }
        }
        decompose(&mut data, &h, true);
        // Positions with any odd level-0 coordinate are level-0 details.
        for x in 0..nx {
            for y in 0..ny {
                if x % 2 == 1 || y % 2 == 1 {
                    let v = data[x * ny + y];
                    assert!(v.abs() < 1e-9, "detail at ({x},{y}) = {v}");
                }
            }
        }
    }

    #[test]
    fn decomposition_concentrates_energy_in_coarse_levels() {
        let h = Hierarchy::full(&[65, 65]);
        let orig = field_3d(65, 65, 1);
        let mut data = orig.clone();
        decompose(&mut data, &h, true);
        // Detail coefficients (any odd coordinate) must be small relative
        // to the smooth field's range.
        let mut max_detail = 0.0f64;
        for x in 0..65 {
            for y in 0..65 {
                if x % 2 == 1 || y % 2 == 1 {
                    max_detail = max_detail.max(data[x * 65 + y].abs());
                }
            }
        }
        let range = orig.iter().cloned().fold(f64::MIN, f64::max)
            - orig.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            max_detail < 0.05 * range,
            "max detail {max_detail} vs range {range}"
        );
    }

    #[test]
    fn degenerate_shapes_pass_through() {
        for shape in [vec![1usize], vec![2, 2], vec![1, 1, 5]] {
            let h = Hierarchy::full(&shape);
            let n: usize = shape.iter().product();
            let orig: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let mut data = orig.clone();
            decompose(&mut data, &h, true);
            recompose(&mut data, &h, true);
            for (a, b) in orig.iter().zip(&data) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic]
    fn wrong_length_panics() {
        let h = Hierarchy::full(&[4, 4]);
        let mut data = vec![0.0f64; 15];
        decompose(&mut data, &h, true);
    }

    #[test]
    fn partial_recompose_reproduces_coarse_grid() {
        // Recomposing to level l and sampling the active grid must equal
        // recomposing fully and subsampling... NOT in general (coarse nodal
        // values are projections, not samples) — but recompose_to_level(0)
        // must equal recompose, and each target level must round-trip
        // against its own decompose prefix.
        let h = Hierarchy::full(&[17, 17]);
        let orig = field_3d(17, 17, 1);
        let mut full = orig.clone();
        decompose(&mut full, &h, true);

        let mut a = full.clone();
        recompose_to_level(&mut a, &h, true, RecomposeTo::default());
        let mut b = full.clone();
        recompose(&mut b, &h, true);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }

        // Level-l grid from partial recompose == decompose run for only
        // the coarser levels (the level-l nodal representation).
        for level in 1..=h.levels {
            let mut partial = full.clone();
            let to = RecomposeTo {
                level,
                ..RecomposeTo::default()
            };
            recompose_to_level(&mut partial, &h, true, to);
            let coarse = extract_active_grid(&partial, &h, level);
            assert_eq!(coarse.len(), h.len_at_level(level));

            // Reference: decompose the original only down to `level`.
            let mut reference = orig.clone();
            for l in 0..level {
                let (dims, elem_strides) = h.level_geometry(l);
                for axis in 0..h.ndims() {
                    axis_pass(
                        &mut reference,
                        &dims,
                        &elem_strides,
                        axis,
                        &whole(&dims),
                        decompose_panel,
                        true,
                    );
                }
            }
            let ref_coarse = extract_active_grid(&reference, &h, level);
            for (x, y) in coarse.iter().zip(&ref_coarse) {
                assert!((x - y).abs() < 1e-10, "level {level}");
            }
        }
    }

    #[test]
    fn extract_active_grid_level_zero_is_identity() {
        let h = Hierarchy::full(&[9, 8]);
        let data: Vec<f64> = (0..72).map(|i| i as f64).collect();
        assert_eq!(extract_active_grid(&data, &h, 0), data);
    }

    #[test]
    fn extract_active_grid_strides_correctly() {
        let h = Hierarchy::full(&[5, 5]);
        let data: Vec<f64> = (0..25).map(|i| i as f64).collect();
        let coarse = extract_active_grid(&data, &h, 1); // 3x3: indices 0,2,4
        assert_eq!(
            coarse,
            vec![0.0, 2.0, 4.0, 10.0, 12.0, 14.0, 20.0, 22.0, 24.0]
        );
    }
}
