//! Level geometry of the multilevel hierarchy.
//!
//! Each dimension's active index set coarsens independently: level 0 is
//! the full grid `0..n`; level *l+1* keeps every other active index
//! (`n_{l+1} = ceil(n_l / 2)`), so the active indices at level *l* along a
//! dimension are the multiples of `2^l` below `n`. Dimensions shorter than
//! 3 stop coarsening. This handles arbitrary (non-dyadic) extents without
//! padding, matching GPU-MGARD's flexible-size handling.

use serde::{Deserialize, Serialize};

/// Maximum supported dimensionality.
pub const MAX_DIMS: usize = 3;

/// Geometry of one decomposition hierarchy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hierarchy {
    /// Full-grid extents (1–3 entries, all ≥ 1).
    pub shape: Vec<usize>,
    /// Number of decomposition steps (levels of detail).
    pub levels: usize,
}

impl Hierarchy {
    /// Build a hierarchy over `shape` with the maximum number of useful
    /// levels (every dimension coarsened until shorter than 3).
    ///
    /// # Panics
    /// Panics on empty shapes, more than [`MAX_DIMS`] dimensions, or any
    /// zero extent.
    pub fn full(shape: &[usize]) -> Self {
        Self::with_levels(shape, usize::MAX)
    }

    /// Build a hierarchy with at most `max_levels` decomposition steps.
    pub fn with_levels(shape: &[usize], max_levels: usize) -> Self {
        assert!(
            !shape.is_empty() && shape.len() <= MAX_DIMS,
            "1-3 dimensions supported"
        );
        assert!(shape.iter().all(|&n| n >= 1), "zero-sized dimension");
        let mut levels = 0usize;
        let mut dims: Vec<usize> = shape.to_vec();
        while levels < max_levels && dims.iter().any(|&n| n >= 3) {
            for n in dims.iter_mut() {
                if *n >= 3 {
                    *n = n.div_ceil(2);
                }
            }
            levels += 1;
        }
        Hierarchy {
            shape: shape.to_vec(),
            levels,
        }
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.shape.len()
    }

    /// Total element count of the full grid.
    pub fn len(&self) -> usize {
        self.shape.iter().product()
    }

    /// Whether the grid is empty (never true for valid hierarchies).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extent of dimension `d` at level `l` (level 0 = full grid).
    pub fn dim_at_level(&self, d: usize, l: usize) -> usize {
        let mut n = self.shape[d];
        for _ in 0..l {
            if n >= 3 {
                n = n.div_ceil(2);
            }
        }
        n
    }

    /// Shape of the active grid at level `l`.
    pub fn shape_at_level(&self, l: usize) -> Vec<usize> {
        (0..self.ndims()).map(|d| self.dim_at_level(d, l)).collect()
    }

    /// Stride (in original index units) between active nodes of dimension
    /// `d` at level `l`.
    pub fn stride_at_level(&self, d: usize, l: usize) -> usize {
        let mut n = self.shape[d];
        let mut stride = 1usize;
        for _ in 0..l {
            if n >= 3 {
                n = n.div_ceil(2);
                stride *= 2;
            }
        }
        stride
    }

    /// Active extent per dimension at level `l`, and the element stride
    /// between active nodes per dimension (level stride × row-major
    /// stride).
    pub(crate) fn level_geometry(&self, l: usize) -> (Vec<usize>, Vec<usize>) {
        let row_major = self.strides();
        let elem_strides = (0..self.ndims())
            .map(|d| self.stride_at_level(d, l) * row_major[d])
            .collect();
        (self.shape_at_level(l), elem_strides)
    }

    /// Number of active nodes at level `l`.
    pub fn len_at_level(&self, l: usize) -> usize {
        self.shape_at_level(l).iter().product()
    }

    /// Element count of level group `k` (`0..=levels`): the coarsest
    /// grid for `k = 0`, else the nodes level `levels - k` adds to the
    /// one above it.
    pub fn group_len(&self, k: usize) -> usize {
        if k == 0 {
            self.len_at_level(self.levels)
        } else {
            self.len_at_level(self.levels - k) - self.len_at_level(self.levels - k + 1)
        }
    }

    /// Row-major strides of the full grid.
    pub fn strides(&self) -> Vec<usize> {
        let nd = self.ndims();
        let mut s = vec![1usize; nd];
        for d in (0..nd.saturating_sub(1)).rev() {
            s[d] = s[d + 1] * self.shape[d + 1];
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dyadic_plus_one_coarsens_cleanly() {
        let h = Hierarchy::full(&[17]);
        assert_eq!(h.levels, 4); // 17 -> 9 -> 5 -> 3 -> 2
        assert_eq!(h.dim_at_level(0, 1), 9);
        assert_eq!(h.dim_at_level(0, 2), 5);
        assert_eq!(h.dim_at_level(0, 3), 3);
        assert_eq!(h.dim_at_level(0, 4), 2);
    }

    #[test]
    fn non_dyadic_sizes_supported() {
        let h = Hierarchy::full(&[100]);
        // 100 -> 50 -> 25 -> 13 -> 7 -> 4 -> 2
        assert_eq!(h.levels, 6);
        assert_eq!(h.dim_at_level(0, 6), 2);
    }

    #[test]
    fn small_dims_stop_coarsening() {
        let h = Hierarchy::full(&[2, 33]);
        assert_eq!(h.dim_at_level(0, h.levels), 2);
        assert_eq!(h.dim_at_level(1, h.levels), 2); // 33->17->9->5->3->2
        assert_eq!(h.levels, 5);
    }

    #[test]
    fn strides_grow_only_while_coarsening() {
        let h = Hierarchy::full(&[5, 64]);
        // dim 0: 5 -> 3 -> stop; stride caps at 2... 5->3 (stride 2), then 3>=3: ->2 (stride 4).
        assert_eq!(h.stride_at_level(0, 1), 2);
        assert_eq!(h.stride_at_level(0, 2), 4);
        assert_eq!(h.stride_at_level(0, 3), 4); // dim now 2, frozen
        assert_eq!(h.stride_at_level(1, 3), 8);
    }

    #[test]
    fn level_shape_products() {
        let h = Hierarchy::with_levels(&[9, 9, 9], 2);
        assert_eq!(h.levels, 2);
        assert_eq!(h.shape_at_level(0), vec![9, 9, 9]);
        assert_eq!(h.shape_at_level(1), vec![5, 5, 5]);
        assert_eq!(h.shape_at_level(2), vec![3, 3, 3]);
        assert_eq!(h.len_at_level(2), 27);
    }

    #[test]
    fn max_levels_cap_respected() {
        let h = Hierarchy::with_levels(&[1025], 4);
        assert_eq!(h.levels, 4);
        assert_eq!(h.dim_at_level(0, 4), 65);
    }

    #[test]
    fn row_major_strides() {
        let h = Hierarchy::full(&[4, 5, 6]);
        assert_eq!(h.strides(), vec![30, 6, 1]);
    }

    #[test]
    #[should_panic]
    fn four_dims_rejected() {
        Hierarchy::full(&[2, 2, 2, 2]);
    }

    #[test]
    #[should_panic]
    fn zero_extent_rejected() {
        Hierarchy::full(&[4, 0]);
    }

    #[test]
    fn size_one_dimension_is_inert() {
        let h = Hierarchy::full(&[1, 9]);
        assert_eq!(h.dim_at_level(0, h.levels), 1);
        assert!(h.levels > 0);
    }
}
