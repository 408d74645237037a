//! Per-level coefficient extraction and error propagation.
//!
//! After [`crate::transform::decompose`], coefficients stay interleaved at
//! their original grid positions. MDR encodes each *level group*
//! independently, so this module enumerates the groups:
//!
//! * group 0 — nodal values of the coarsest grid;
//! * group `k` (1..=levels) — the detail coefficients introduced when
//!   refining from level `levels-k+1` to `levels-k`.
//!
//! [`level_error_weights`] provides the conservative L∞ propagation
//! factors the retrieval planner uses to split a target error across
//! groups: the correction solve amplifies detail errors by at most
//! `‖M⁻¹‖∞ ≤ 3`, so a unit detail error grows to at most 4 after one
//! recomposition step and does not grow further on later steps.

use crate::grid::Hierarchy;
use crate::Real;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Least group elements one worker part of [`write_group`] must have:
/// thirty-two 1024-value decoder tiles, a thread hand-off's worth.
const MIN_PART_ELEMS: usize = 1 << 15;

/// Group elements [`write_group`] stages at a time: one 1024-value tile
/// of a bitplane decoder.
const STAGE: usize = 1024;

/// Flat element indices of each level group, in deterministic row-major
/// order (the order `extract`/`inject` use).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelSet {
    /// `indices[k]` holds the flat positions of group `k`.
    pub indices: Vec<Vec<usize>>,
}

impl LevelSet {
    /// Enumerate the level groups of `h`.
    ///
    /// One incremental row-major walk per group: the flat index is
    /// maintained by stride additions and next-level membership by
    /// parity/shift checks, so no element pays a division. The emitted
    /// order is identical to the historical per-element decode.
    pub fn new(h: &Hierarchy) -> Self {
        let nd = h.ndims();
        let row_major = h.strides();
        let mut indices = Vec::with_capacity(h.levels + 1);

        // Group 0: the coarsest active grid.
        indices.push(enumerate_active(h, h.levels, &row_major));

        // Group k: active(l) \ active(l+1) for l = levels-k. A level-l
        // node with level-local coordinate j sits in level l+1 iff its
        // dimension refined (stride doubled) and j is an even coordinate
        // still on the next grid — a parity test, never a division.
        for k in 1..=h.levels {
            let l = h.levels - k;
            let dims = h.shape_at_level(l);
            let dims_next = h.shape_at_level(l + 1);
            let doubled: Vec<bool> = (0..nd)
                .map(|d| h.stride_at_level(d, l + 1) != h.stride_at_level(d, l))
                .collect();
            let elem_stride: Vec<usize> = (0..nd)
                .map(|d| h.stride_at_level(d, l) * row_major[d])
                .collect();
            let count: usize = dims.iter().product();
            let mut kept = Vec::new();
            let mut coord = vec![0usize; nd];
            let mut flat = 0usize;
            for _ in 0..count {
                let in_next = (0..nd).all(|d| {
                    // A frozen dimension (< 3 nodes) keeps all its nodes.
                    !doubled[d] || (coord[d] & 1 == 0 && (coord[d] >> 1) < dims_next[d])
                });
                if !in_next {
                    kept.push(flat);
                }
                for d in (0..nd).rev() {
                    coord[d] += 1;
                    flat += elem_stride[d];
                    if coord[d] < dims[d] {
                        break;
                    }
                    flat -= coord[d] * elem_stride[d];
                    coord[d] = 0;
                }
            }
            indices.push(kept);
        }
        LevelSet { indices }
    }
}

fn enumerate_active(h: &Hierarchy, l: usize, row_major: &[usize]) -> Vec<usize> {
    let nd = h.ndims();
    let dims = h.shape_at_level(l);
    let elem_stride: Vec<usize> = (0..nd)
        .map(|d| h.stride_at_level(d, l) * row_major[d])
        .collect();
    let count: usize = dims.iter().product();
    let mut out = Vec::with_capacity(count);
    let mut coord = vec![0usize; nd];
    let mut flat = 0usize;
    for _ in 0..count {
        out.push(flat);
        // Row-major increment, flat index maintained by stride steps.
        for d in (0..nd).rev() {
            coord[d] += 1;
            flat += elem_stride[d];
            if coord[d] < dims[d] {
                break;
            }
            flat -= coord[d] * elem_stride[d];
            coord[d] = 0;
        }
    }
    out
}

/// Visit the elements of level group `k` as strided runs
/// `f(start, step, count)` (flat indices `start + t·step`, `t < count`),
/// in the group order [`LevelSet`] tabulates, straight from the level
/// geometry: the rows of the level's active grid in row-major order,
/// where a row whose other coordinates all survive to the next level
/// contributes only its odd nodes (none if the last dimension is frozen)
/// and any other row contributes whole.
fn for_each_run(h: &Hierarchy, k: usize, f: impl FnMut(usize, usize, usize)) {
    let slabs = slab_count(h, k);
    runs_in_slabs(h, k, 0..slabs, f);
}

/// Slabs of level group `k`'s grid along the first dimension (a 1-D grid
/// is one slab): the unit [`write_group`] splits the group at.
fn slab_count(h: &Hierarchy, k: usize) -> usize {
    match h.ndims() {
        1 => 1,
        _ => h.dim_at_level(0, h.levels - k),
    }
}

/// [`for_each_run`] over the rows whose first coordinate lies in `slabs`.
fn runs_in_slabs(
    h: &Hierarchy,
    k: usize,
    slabs: Range<usize>,
    mut f: impl FnMut(usize, usize, usize),
) {
    let last = h.ndims() - 1;
    let (dims, elem_stride) = h.level_geometry(h.levels - k);
    // A dimension with < 3 nodes is frozen and keeps all of them; a
    // refined one keeps its even nodes (`j/2 < ceil(n/2)` for every even
    // `j < n`, so parity alone decides).
    let refined: Vec<bool> = dims.iter().map(|&n| n >= 3).collect();
    let survives = |d: usize, j: usize| !refined[d] || j & 1 == 0;
    // Group 0 is the coarsest grid itself: there is no next level to
    // survive to, every row contributes whole.
    let whole = k == 0;

    let n = dims[last];
    let step = elem_stride[last];
    let (rows, mut coord, mut base) = if last == 0 {
        (slabs.len().min(1), Vec::new(), 0)
    } else {
        let per_slab: usize = dims[1..last].iter().product();
        let mut coord = vec![0usize; last];
        coord[0] = slabs.start;
        (slabs.len() * per_slab, coord, slabs.start * elem_stride[0])
    };
    for _ in 0..rows {
        if whole || !(0..last).all(|d| survives(d, coord[d])) {
            f(base, step, n);
        } else if refined[last] {
            f(base + step, 2 * step, n / 2);
        }
        for d in (0..last).rev() {
            coord[d] += 1;
            base += elem_stride[d];
            if coord[d] < dims[d] {
                break;
            }
            base -= coord[d] * elem_stride[d];
            coord[d] = 0;
        }
    }
}

/// Elements of level group `k` in the slabs before slab `slab` (see
/// [`slab_count`]): a slab whose first coordinate does not survive to the
/// next level contributes every node, any other one the nodes whose other
/// coordinates do not all survive.
fn group_offset(h: &Hierarchy, k: usize, slab: usize) -> usize {
    if slab == 0 {
        return 0;
    }
    if h.ndims() == 1 {
        return h.group_len(k);
    }
    let dims = h.shape_at_level(h.levels - k);
    let whole: usize = dims[1..].iter().product();
    if k == 0 {
        return slab * whole;
    }
    let kept: usize = dims[1..]
        .iter()
        .map(|&n| if n >= 3 { n.div_ceil(2) } else { n })
        .product();
    let dropped = if dims[0] >= 3 { slab / 2 } else { 0 };
    dropped * whole + (slab - dropped) * (whole - kept)
}

/// Write level group `k` into its nodes of the full array `grid`,
/// leaving every other node as it is: `values(from, out)` fills `out`
/// with the group's elements `from .. from + out.len()`, in group order
/// ([`extract_levels`]'s), a 1024-element block at a time, which the
/// group's runs then take their values from. Nothing group-sized is ever
/// built: this is how a decoder writes its values into the grid a
/// recompose reads.
///
/// The work is split at slabs of the group's level along the first
/// dimension, one contiguous part of `grid` per worker of the current
/// pool (none smaller than 2¹⁵ group elements).
///
/// # Panics
/// Panics if `grid` does not match the hierarchy or `k` is not one of its
/// groups.
pub fn write_group<F: Real>(
    grid: &mut [F],
    h: &Hierarchy,
    k: usize,
    values: impl Fn(usize, &mut [F]) + Sync,
) {
    assert!(k <= h.levels, "no level group {k}");
    let parts = hpmdr_rt::current_num_threads().min(h.group_len(k) / MIN_PART_ELEMS);
    write_group_in_parts(grid, h, k, parts, &values);
}

/// [`write_group`] cut into (at most) `parts` parts.
fn write_group_in_parts<F: Real>(
    grid: &mut [F],
    h: &Hierarchy,
    k: usize,
    parts: usize,
    values: &(impl Fn(usize, &mut [F]) + Sync),
) {
    assert_eq!(
        grid.len(),
        h.len(),
        "data length must match hierarchy shape"
    );
    let slabs = slab_count(h, k);
    let per = slabs.div_ceil(parts.clamp(1, slabs));
    if per == slabs {
        write_slabs(grid, 0, h, k, 0..slabs, values);
        return;
    }
    // Slab `s` of the level starts at `s · span` and ends before the next
    // one, so `per` slabs are one contiguous part of the grid.
    let span = per * h.strides()[0] * h.stride_at_level(0, h.levels - k);
    hpmdr_rt::map_blocks_mut(grid, span, 1, |p, part| {
        let end = (p + part.len().div_ceil(span)) * per;
        write_slabs(part, p * span, h, k, p * per..end.min(slabs), values);
    });
}

/// Write the group elements of `slabs` into `part`, the grid from flat
/// index `origin` on: [`STAGE`] elements at a time through a stage the
/// runs then take their values from.
fn write_slabs<F: Real>(
    part: &mut [F],
    origin: usize,
    h: &Hierarchy,
    k: usize,
    slabs: Range<usize>,
    values: &impl Fn(usize, &mut [F]),
) {
    let (mut from, end) = (
        group_offset(h, k, slabs.start),
        group_offset(h, k, slabs.end),
    );
    let mut stage = [F::ZERO; STAGE];
    // `stage[next..staged]` holds the values the runs have yet to take.
    let (mut next, mut staged) = (0, 0);
    runs_in_slabs(h, k, slabs, |start, step, count| {
        let mut slot = start - origin;
        let mut left = count;
        while left > 0 {
            if next == staged {
                // Stage boundaries sit at multiples of `STAGE` in the
                // group, where the values' own blocks begin.
                staged = (STAGE - from % STAGE).min(end - from);
                values(from, &mut stage[..staged]);
                (from, next) = (from + staged, 0);
            }
            let take = left.min(staged - next);
            let run = &stage[next..next + take];
            if step == 1 {
                part[slot..slot + take].copy_from_slice(run);
            } else {
                let slots = part[slot..].iter_mut().step_by(step);
                slots.zip(run).for_each(|(s, &v)| *s = v);
            }
            (next, slot, left) = (next + take, slot + take * step, left - take);
        }
    });
}

/// Pull the per-level coefficient groups out of a decomposed array.
///
/// # Panics
/// Panics if `data.len()` does not match the hierarchy.
pub fn extract_levels<F: Real>(data: &[F], h: &Hierarchy) -> Vec<Vec<F>> {
    assert_eq!(
        data.len(),
        h.len(),
        "data length must match hierarchy shape"
    );
    (0..=h.levels)
        .map(|k| {
            let mut group = Vec::with_capacity(h.group_len(k));
            for_each_run(h, k, |start, step, count| {
                if step == 1 {
                    group.extend_from_slice(&data[start..start + count]);
                } else {
                    group.extend(data[start..].iter().step_by(step).take(count));
                }
            });
            group
        })
        .collect()
}

/// Inverse of [`extract_levels`]: scatter groups back into a full array.
///
/// # Panics
/// Panics if group shapes do not match the hierarchy.
pub fn inject_levels<F: Real>(groups: &[Vec<F>], h: &Hierarchy) -> Vec<F> {
    assert_eq!(groups.len(), h.levels + 1, "group count mismatch");
    let mut out = vec![F::ZERO; h.len()];
    for (k, group) in groups.iter().enumerate() {
        assert_eq!(group.len(), h.group_len(k), "group length mismatch");
        let mut rest = &group[..];
        for_each_run(h, k, |start, step, count| {
            let (run, tail) = rest.split_at(count);
            rest = tail;
            if step == 1 {
                out[start..start + count].copy_from_slice(run);
            } else {
                for (slot, &v) in out[start..].iter_mut().step_by(step).zip(run) {
                    *slot = v;
                }
            }
        });
    }
    out
}

/// Conservative L∞ error propagation weight of each level group: a
/// pointwise error `e_k` on group `k`'s coefficients perturbs the final
/// reconstruction by at most `weight[k] · e_k`.
pub fn level_error_weights(h: &Hierarchy, correction: bool) -> Vec<f64> {
    let kappa = if correction { 3.0 } else { 0.0 };
    let mut w = Vec::with_capacity(h.levels + 1);
    w.push(1.0); // nodal values propagate through interpolation unamplified
    for _ in 1..=h.levels {
        w.push(1.0 + kappa);
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{decompose, recompose};

    #[test]
    fn groups_partition_the_grid() {
        for shape in [vec![17usize], vec![9, 12], vec![5, 7, 9]] {
            let h = Hierarchy::full(&shape);
            let ls = LevelSet::new(&h);
            let total: usize = ls.indices.iter().map(Vec::len).sum();
            assert_eq!(total, h.len(), "{shape:?}");
            let mut seen = vec![false; h.len()];
            for idx in &ls.indices {
                for &i in idx {
                    assert!(!seen[i], "duplicate index {i} in {shape:?}");
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&b| b));
        }
    }

    #[test]
    fn group_zero_is_coarsest_grid() {
        let h = Hierarchy::full(&[17, 17]);
        let ls = LevelSet::new(&h);
        assert_eq!(ls.indices[0].len(), h.len_at_level(h.levels));
    }

    #[test]
    fn finest_group_is_largest() {
        let h = Hierarchy::full(&[65, 65]);
        let ls = LevelSet::new(&h);
        let finest = ls.indices.last().expect("non-empty");
        // Refining 33x33 -> 65x65 adds 65*65 - 33*33 coefficients.
        assert_eq!(finest.len(), 65 * 65 - 33 * 33);
    }

    #[test]
    fn table_free_walk_matches_level_set_order() {
        // The geometry walk must reproduce the tabulated group order
        // exactly: extents 1, 2, 3, primes, even/odd mixes, thin dims.
        let extents = [1usize, 2, 3, 4, 5, 7, 8, 13, 16, 17];
        let mut shapes: Vec<Vec<usize>> = vec![
            vec![100],
            vec![7, 64, 5],
            vec![64, 3, 64],
            vec![33, 32, 31],
            vec![2, 129, 2],
        ];
        for &a in &extents {
            shapes.push(vec![a]);
            for &b in &extents {
                shapes.push(vec![a, b]);
                for &c in &[1usize, 2, 3, 5, 8] {
                    shapes.push(vec![a, b, c]);
                }
            }
        }
        for shape in shapes {
            let h = Hierarchy::full(&shape);
            let ls = LevelSet::new(&h);
            let data: Vec<f64> = (0..h.len()).map(|i| i as f64 + 0.5).collect();

            let indexed: Vec<Vec<f64>> = ls
                .indices
                .iter()
                .map(|idx| idx.iter().map(|&i| data[i]).collect())
                .collect();
            let groups = extract_levels(&data, &h);
            assert_eq!(groups, indexed, "extract {shape:?}");

            // Inject distinct values per slot so a misplaced one shows.
            let marked: Vec<Vec<f64>> = indexed
                .iter()
                .enumerate()
                .map(|(k, g)| (0..g.len()).map(|j| (k * 1_000_000 + j) as f64).collect())
                .collect();
            let mut want = vec![0.0f64; h.len()];
            for (g, idx) in marked.iter().zip(&ls.indices) {
                for (&v, &i) in g.iter().zip(idx) {
                    want[i] = v;
                }
            }
            assert_eq!(inject_levels(&marked, &h), want, "inject {shape:?}");
        }
    }

    #[test]
    #[should_panic]
    fn inject_wrong_group_length_panics() {
        let h = Hierarchy::full(&[9]);
        let mut groups = extract_levels(&[0.0f64; 9], &h);
        groups[1].push(0.0);
        inject_levels(&groups, &h);
    }

    #[test]
    fn extract_inject_roundtrip() {
        let h = Hierarchy::full(&[9, 8, 7]);
        let data: Vec<f64> = (0..h.len()).map(|i| i as f64 * 0.31).collect();
        let groups = extract_levels(&data, &h);
        let back = inject_levels(&groups, &h);
        assert_eq!(data, back);
    }

    #[test]
    fn injecting_one_group_replaces_exactly_that_group() {
        for shape in [vec![9usize, 8, 7], vec![17, 5], vec![33]] {
            let h = Hierarchy::full(&shape);
            let groups = extract_levels(&vec![1.0f64; h.len()], &h);
            let mut grid = inject_levels(&groups, &h);
            for k in 0..=h.levels {
                let mut want = groups.clone();
                want[k] = (0..h.group_len(k)).map(|i| -(i as f64)).collect();
                write_group(&mut grid, &h, k, |from, out| {
                    out.copy_from_slice(&want[k][from..from + out.len()]);
                });
                assert_eq!(grid, inject_levels(&want, &h), "{shape:?} group {k}");
                write_group(&mut grid, &h, k, |from, out| {
                    out.copy_from_slice(&groups[k][from..from + out.len()]);
                });
            }
        }
    }

    #[test]
    fn writing_groups_in_parts_is_injecting_them() {
        // Every split of the slabs, on shapes whose first dimension is
        // odd, even, prime or frozen, and whose larger groups' strided
        // runs straddle stage refills: each part must start at its slabs'
        // group offset and write exactly the nodes `inject_levels` does.
        let shapes = [
            vec![1usize],
            vec![2],
            vec![31],
            vec![64],
            vec![7, 13],
            vec![16, 9],
            vec![2, 29],
            vec![1, 12],
            vec![5, 7, 11],
            vec![8, 6, 4],
            vec![13, 2, 17],
            vec![2, 9, 9],
            vec![33, 32, 31],
            vec![40, 41, 43],
        ];
        for shape in shapes {
            let h = Hierarchy::full(&shape);
            let marked: Vec<Vec<f64>> = (0..=h.levels)
                .map(|k| {
                    (0..h.group_len(k))
                        .map(|j| (k * 1_000_000 + j) as f64)
                        .collect()
                })
                .collect();
            let want = inject_levels(&marked, &h);
            for parts in 1..=6 {
                let mut grid = vec![-1.0f64; h.len()];
                for (k, group) in marked.iter().enumerate() {
                    write_group_in_parts(&mut grid, &h, k, parts, &|from, out: &mut [f64]| {
                        out.copy_from_slice(&group[from..from + out.len()]);
                    });
                }
                assert_eq!(grid, want, "{shape:?} in {parts} parts");
            }
        }
    }

    #[test]
    fn group_offsets_count_the_slabs_before() {
        for shape in [
            vec![9usize, 8, 7],
            vec![17, 5],
            vec![2, 5, 6],
            vec![33, 2],
            vec![33],
        ] {
            let h = Hierarchy::full(&shape);
            for k in 0..=h.levels {
                for slab in 0..=slab_count(&h, k) {
                    let mut count = 0;
                    runs_in_slabs(&h, k, 0..slab, |_, _, n| count += n);
                    assert_eq!(group_offset(&h, k, slab), count, "{shape:?} group {k}");
                }
            }
        }
    }

    #[test]
    fn full_pipeline_decompose_extract_inject_recompose() {
        let h = Hierarchy::full(&[33, 21]);
        let orig: Vec<f64> = (0..h.len())
            .map(|i| ((i % 33) as f64 * 0.2).sin() + ((i / 33) as f64 * 0.15).cos())
            .collect();
        let mut data = orig.clone();
        decompose(&mut data, &h, true);
        let groups = extract_levels(&data, &h);
        let mut rebuilt = inject_levels(&groups, &h);
        recompose(&mut rebuilt, &h, true);
        for (a, b) in orig.iter().zip(&rebuilt) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn error_bound_holds_under_coefficient_perturbation() {
        // Perturb every group coefficient by ±e_k; reconstruction error
        // must stay below the advertised bound.
        let h = Hierarchy::full(&[33, 33]);
        let orig: Vec<f64> = (0..h.len())
            .map(|i| ((i % 33) as f64 * 0.7).sin() * 2.0 + ((i / 33) as f64 * 0.9).cos())
            .collect();
        let mut data = orig.clone();
        decompose(&mut data, &h, true);
        let mut groups = extract_levels(&data, &h);
        let errs: Vec<f64> = (0..groups.len()).map(|k| 1e-3 / (k + 1) as f64).collect();
        // Adversarial-ish deterministic perturbation.
        for (k, g) in groups.iter_mut().enumerate() {
            for (j, v) in g.iter_mut().enumerate() {
                let sign = if (j * 2654435761usize) & 1 == 0 {
                    1.0
                } else {
                    -1.0
                };
                *v += sign * errs[k];
            }
        }
        let mut rebuilt = inject_levels(&groups, &h);
        recompose(&mut rebuilt, &h, true);
        let weights = level_error_weights(&h, true);
        let bound: f64 = weights.iter().zip(&errs).map(|(w, e)| w * e).sum();
        let max_err = orig
            .iter()
            .zip(&rebuilt)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err <= bound, "max_err {max_err} vs bound {bound}");
    }

    #[test]
    fn weights_shrink_without_correction() {
        let h = Hierarchy::full(&[17]);
        let with = level_error_weights(&h, true);
        let without = level_error_weights(&h, false);
        assert!(with[1] > without[1]);
        assert_eq!(with[0], 1.0);
        assert_eq!(without[1], 1.0);
    }

    #[test]
    #[should_panic]
    fn inject_wrong_group_count_panics() {
        let h = Hierarchy::full(&[9]);
        inject_levels(&[vec![0.0f64; 3]], &h);
    }
}
