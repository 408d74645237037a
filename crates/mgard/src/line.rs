//! The 1D multilevel transform: interpolation detail + L2 correction.
//!
//! One decomposition step along a line of `n` active nodes splits it into
//! `ceil(n/2)` coarse nodes (even positions) and `floor(n/2)` detail
//! coefficients (odd positions):
//!
//! 1. **Detail**: `d_i = v_{2i+1} − ½(v_{2i} + v_{2i+2})`, with a one-sided
//!    predictor (`v_{2i}`) when `2i+2` falls off the line (even `n`).
//! 2. **Correction**: the coarse nodes receive the L2 projection of the
//!    detail component, `w = M⁻¹ r`, where `M` is the coarse-grid mass
//!    matrix (tridiagonal, `h`-free after normalization) and
//!    `r_j = ½(d_{j−1} + d_j)` gathers the two adjacent details. This is
//!    what distinguishes MGARD's projection from plain hierarchical
//!    interpolation and gives its L2 stability.
//!
//! Both steps are exactly invertible: the correction depends only on the
//! detail coefficients, so recomposition subtracts the identical `w`.
//!
//! # Panels
//!
//! The lines of one axis pass never exchange data, so the kernels here
//! transform a [`Panel`] of `w` lines in lockstep: row `i` holds node `i`
//! of every line, lane `lane` being line `lane`, and every step above —
//! predict, load vector, forward sweep, back substitution, coarse update
//! — is a loop over the `w` lanes of one row. A row is any `w`-element
//! slice: a row of a dense scratch buffer or, for lines that are adjacent
//! in the array, the `w` elements where the array holds that node. That
//! turns the latency-bound scalar Thomas recurrence into unit-stride lane loops the compiler vectorises, with
//! no change to what any single line computes: each lane sees the same
//! operations on the same operands in the same order as the per-line
//! reference kept in `oracle` for the tests, so the result is
//! bit-identical for every `w`.

use crate::Real;

/// Thomas factorisation of the coarse-grid mass matrix for one coarse
/// length. The matrix is the same for every line of an axis pass, so the
/// pivots are computed once per pass and shared by all panels.
///
/// Normalized by the *fine* spacing `h`: coarse hats have spacing `H = 2h`,
/// so the interior diagonal is `2H/3h = 4/3`, the boundary diagonal
/// `H/3h = 2/3`, and the off-diagonal `H/6h = 1/3` (the load vector
/// `r_j = ½(d_{j−1}+d_j)` carries the matching `h/h` scale).
#[derive(Debug, Clone)]
pub(crate) struct MassFactor<F> {
    /// Forward-sweep pivots `m_j`. Decomposition *divides* by them: the
    /// quotient is what the encoded artifacts were built from.
    m: Vec<F>,
    /// Pivot reciprocals `1/m_j`. Recomposition multiplies by them, which
    /// rounds differently from the division — fine for reconstruction,
    /// but it would perturb the artifacts on the decompose side.
    inv_m: Vec<F>,
    /// Back-substitution multipliers `off/m_j`.
    c: Vec<F>,
}

impl<F: Real> MassFactor<F> {
    const OFF: f64 = 1.0 / 3.0;

    /// Factorise the mass matrix of `nc` coarse nodes.
    pub(crate) fn new(nc: usize) -> Self {
        let one = F::from_f64(1.0);
        let off = F::from_f64(Self::OFF);
        let interior = F::from_f64(4.0 / 3.0);
        let boundary = F::from_f64(2.0 / 3.0);
        let mut fac = MassFactor {
            m: Vec::with_capacity(nc),
            inv_m: Vec::with_capacity(nc),
            c: Vec::with_capacity(nc),
        };
        let mut prev_c = F::ZERO;
        for i in 0..nc {
            let last = i + 1 == nc;
            // The interior recurrence `m_i = 4/3 − off·c_{i−1}` contracts
            // to a fixed point within a few steps; once two consecutive
            // interior multipliers agree bitwise every later interior
            // pivot is that same value, so the dependent division chain —
            // as long as a whole line's solve — stops there.
            if !last && i >= 2 && fac.c[i - 1] == fac.c[i - 2] {
                fac.m.push(fac.m[i - 1]);
                fac.inv_m.push(fac.inv_m[i - 1]);
                fac.c.push(prev_c);
                continue;
            }
            let d = if i == 0 || last { boundary } else { interior };
            let m = if i == 0 { d } else { d - off * prev_c };
            let c = off / m;
            fac.m.push(m);
            fac.inv_m.push(one / m);
            fac.c.push(c);
            prev_c = c;
        }
        fac
    }

    /// Coarse length this factorisation is for.
    pub(crate) fn coarse_len(&self) -> usize {
        self.m.len()
    }
}

/// Per-worker scratch of the correction step for panels of up to `w`
/// lines of `n` nodes.
#[derive(Debug, Clone)]
pub(crate) struct PanelScratch<F> {
    /// One load-vector row per coarse node.
    rhs: Vec<F>,
    /// A row of zeros standing in for the detail neighbours the first and
    /// last coarse node lack. Never written.
    zeros: Vec<F>,
}

impl<F: Real> PanelScratch<F> {
    pub(crate) fn new(n: usize, w: usize) -> Self {
        PanelScratch {
            rhs: vec![F::ZERO; n.div_ceil(2) * w],
            zeros: vec![F::ZERO; w],
        }
    }
}

/// `w` lines of `n` nodes, transformed in lockstep: `n` rows of `w`
/// lanes, lane `lane` of row `i` being node `i` of line `lane`. The rows
/// are separate slices, so they may lie anywhere — consecutive in a
/// scratch buffer or at a node stride in the array — and one can be
/// written while others are read.
pub(crate) struct Panel<'p, 'a, F> {
    rows: &'p mut [&'a mut [F]],
    w: usize,
}

impl<'p, 'a, F> Panel<'p, 'a, F> {
    /// The panel of `rows`.
    ///
    /// # Panics
    /// Panics unless every row has the same length.
    pub(crate) fn new(rows: &'p mut [&'a mut [F]]) -> Self {
        let w = rows.first().map_or(0, |r| r.len());
        assert!(rows.iter().all(|r| r.len() == w), "ragged panel");
        Panel { rows, w }
    }

    /// Nodes per line.
    fn nodes(&self) -> usize {
        self.rows.len()
    }

    /// Row `i`.
    fn row(&self, i: usize) -> &[F] {
        self.rows[i]
    }

    /// Row `i`, writable.
    fn row_mut(&mut self, i: usize) -> &mut [F] {
        self.rows[i]
    }

    /// Row `i ≥ 1` writable between its readable neighbours `i − 1` and
    /// (when there is one) `i + 1`.
    fn around(&mut self, i: usize) -> (&[F], &mut [F], Option<&[F]>) {
        let (head, tail) = self.rows.split_at_mut(i);
        let (row, next) = tail.split_at_mut(1);
        (head[i - 1], row[0], next.first().map(|r| &**r))
    }
}

/// One decomposition step of every line of `panel`, in place: even rows
/// end up holding corrected coarse values, odd rows the detail
/// coefficients.
///
/// `scratch` must be sized for at least this panel and `fac` be for its
/// coarse length. Lines shorter than 3 nodes are left untouched.
pub(crate) fn decompose_panel<F: Real>(
    mut panel: Panel<'_, '_, F>,
    scratch: &mut PanelScratch<F>,
    fac: &MassFactor<F>,
    correct: bool,
) {
    if panel.nodes() < 3 {
        return;
    }
    predict(&mut panel, |odd, pred| odd - pred);
    if correct {
        project(&mut panel, scratch, fac, &fac.m, |r, m| r / m, |v, x| v + x);
    }
}

/// Inverse of [`decompose_panel`].
pub(crate) fn recompose_panel<F: Real>(
    mut panel: Panel<'_, '_, F>,
    scratch: &mut PanelScratch<F>,
    fac: &MassFactor<F>,
    correct: bool,
) {
    if panel.nodes() < 3 {
        return;
    }
    if correct {
        project(
            &mut panel,
            scratch,
            fac,
            &fac.inv_m,
            |r, im| r * im,
            |v, x| v - x,
        );
    }
    predict(&mut panel, |odd, pred| odd + pred);
}

/// `odd = apply(odd, pred)` on every odd row, where `pred` interpolates
/// the two even neighbours (one-sided past the end of an even-length
/// line).
fn predict<F: Real>(panel: &mut Panel<'_, '_, F>, apply: impl Fn(F, F) -> F) {
    for r in (1..panel.nodes()).step_by(2) {
        let (left, odd, right) = panel.around(r);
        predict_row(odd, left, right, &apply);
    }
}

/// One odd row of [`predict`]. The lane loop of every row step takes its
/// rows as arguments: slices a call receives are known not to overlap,
/// so the loops vectorise without run-time overlap checks.
#[inline]
fn predict_row<F: Real>(
    odd: &mut [F],
    left: &[F],
    right: Option<&[F]>,
    apply: &impl Fn(F, F) -> F,
) {
    let half = F::from_f64(0.5);
    match right {
        Some(right) => {
            for ((o, &a), &b) in odd.iter_mut().zip(left).zip(right) {
                *o = apply(*o, (a + b) * half);
            }
        }
        None => {
            for (o, &a) in odd.iter_mut().zip(left) {
                *o = apply(*o, a);
            }
        }
    }
}

/// `even = apply(even, M⁻¹ r)` on every even row, with the load vector
/// `r_j = ½(d_{j−1} + d_j)` read from the odd rows (missing neighbours
/// are an explicit `0 +`, which is not a no-op for `−0.0`).
///
/// `pivots`/`pivot` select the forward-sweep form: divide by `m_j`
/// (decompose) or multiply by `1/m_j` (recompose).
fn project<F: Real>(
    panel: &mut Panel<'_, '_, F>,
    scratch: &mut PanelScratch<F>,
    fac: &MassFactor<F>,
    pivots: &[F],
    pivot: impl Fn(F, F) -> F,
    apply: impl Fn(F, F) -> F,
) {
    let (n, w) = (panel.nodes(), panel.w);
    let nc = n.div_ceil(2);
    let nf = n / 2;
    assert_eq!(fac.coarse_len(), nc, "factorisation is for another length");
    let rhs = &mut scratch.rhs[..nc * w];
    let zeros = &scratch.zeros[..w];

    // Load vector fused with the forward sweep.
    for (j, &p) in pivots.iter().enumerate() {
        let dl = if j >= 1 { panel.row(2 * j - 1) } else { zeros };
        let dr = if j < nf { panel.row(2 * j + 1) } else { zeros };
        let (done, cur) = rhs.split_at_mut(j * w);
        let prev = j.checked_sub(1).map(|i| &done[i * w..]);
        forward_row(&mut cur[..w], dl, dr, prev, p, &pivot);
    }

    // Back substitution fused with the coarse update.
    for j in (0..nc).rev() {
        let (cur, next) = rhs[j * w..].split_at_mut(w);
        let next = (j + 1 < nc).then(|| (fac.c[j], &next[..w]));
        update_row(panel.row_mut(2 * j), cur, next, &apply);
    }
}

/// Row `j` of the load vector and forward sweep of [`project`]:
/// `r = pivot(½(dl + dr) − off·prev, p)` (no `prev` term for row 0).
#[inline]
fn forward_row<F: Real>(
    cur: &mut [F],
    dl: &[F],
    dr: &[F],
    prev: Option<&[F]>,
    p: F,
    pivot: &impl Fn(F, F) -> F,
) {
    let half = F::from_f64(0.5);
    let off = F::from_f64(MassFactor::<F>::OFF);
    match prev {
        None => {
            for ((r, &a), &b) in cur.iter_mut().zip(dl).zip(dr) {
                *r = pivot((a + b) * half, p);
            }
        }
        Some(prev) => {
            for (((r, &a), &b), &q) in cur.iter_mut().zip(dl).zip(dr).zip(prev) {
                *r = pivot((a + b) * half - off * q, p);
            }
        }
    }
}

/// Row `j` of the back substitution of [`project`], fused with the
/// coarse update: `r −= c·x` against the next row `x` (none for the last
/// row), then `coarse = apply(coarse, r)`.
#[inline]
fn update_row<F: Real>(
    coarse: &mut [F],
    cur: &mut [F],
    next: Option<(F, &[F])>,
    apply: &impl Fn(F, F) -> F,
) {
    match next {
        Some((c, next)) => {
            for ((v, r), &x) in coarse.iter_mut().zip(cur).zip(next) {
                *r = *r - c * x;
                *v = apply(*v, *r);
            }
        }
        None => {
            for (v, &r) in coarse.iter_mut().zip(cur.iter()) {
                *v = apply(*v, r);
            }
        }
    }
}

/// The per-line reference the panel kernels are checked against, bit for
/// bit: one line at a time through a scalar Thomas solve, exactly as the
/// transform ran before it was batched.
#[cfg(test)]
pub(crate) mod oracle {
    use crate::Real;

    /// Solve the symmetric tridiagonal system `M x = r` in place, where `M`
    /// has diagonal `diag` and off-diagonal `off` entries (Thomas algorithm).
    ///
    /// `r` is overwritten with the solution. `scratch` must be at least as
    /// long as `r`.
    pub fn thomas_solve<F: Real>(diag: &[F], off: F, r: &mut [F], scratch: &mut [F]) {
        let n = r.len();
        if n == 0 {
            return;
        }
        debug_assert_eq!(diag.len(), n);
        debug_assert!(scratch.len() >= n);
        // Forward sweep.
        scratch[0] = off / diag[0];
        r[0] = r[0] / diag[0];
        for i in 1..n {
            let m = diag[i] - off * scratch[i - 1];
            scratch[i] = off / m;
            r[i] = (r[i] - off * r[i - 1]) / m;
        }
        // Back substitution.
        for i in (0..n - 1).rev() {
            r[i] = r[i] - scratch[i] * r[i + 1];
        }
    }

    /// Reusable buffers for one line transform (avoids per-line allocation in
    /// the hot tensor loops).
    #[derive(Debug, Clone, Default)]
    pub struct LineScratch<F> {
        coarse: Vec<F>,
        detail: Vec<F>,
        rhs: Vec<F>,
        diag: Vec<F>,
        tmp: Vec<F>,
        /// Coarse-node count the cached Thomas factorization below is for
        /// (0 = none). An axis pass solves thousands of same-length lines
        /// against the *same* mass matrix, so the factorization — the part of
        /// the solve that needs divisions — is computed once per length.
        solver_nc: usize,
        /// Cached `1/m_i` (pivot reciprocals) of the forward sweep.
        inv_m: Vec<F>,
        /// Cached `off/m_i` back-substitution multipliers.
        c: Vec<F>,
    }

    impl<F: Real> LineScratch<F> {
        /// Scratch able to process lines up to `n` nodes.
        pub fn with_capacity(n: usize) -> Self {
            let half = n / 2 + 1;
            LineScratch {
                coarse: Vec::with_capacity(half),
                detail: Vec::with_capacity(half),
                rhs: Vec::with_capacity(half),
                diag: Vec::with_capacity(half),
                tmp: Vec::with_capacity(half),
                solver_nc: 0,
                inv_m: Vec::with_capacity(half),
                c: Vec::with_capacity(half),
            }
        }

        /// (Re)build the cached mass-matrix factorization for `nc` coarse
        /// nodes; a hit on the previous length is free.
        fn prepare_solver(&mut self, nc: usize) {
            if self.solver_nc == nc {
                return;
            }
            let one = F::from_f64(1.0);
            let off = F::from_f64(1.0 / 3.0);
            let interior = F::from_f64(4.0 / 3.0);
            let boundary = F::from_f64(2.0 / 3.0);
            self.inv_m.clear();
            self.c.clear();
            let mut prev_c = F::ZERO;
            for i in 0..nc {
                let d = if i == 0 || i + 1 == nc {
                    boundary
                } else {
                    interior
                };
                let m = if i == 0 { d } else { d - off * prev_c };
                let c = off / m;
                self.inv_m.push(one / m);
                self.c.push(c);
                prev_c = c;
            }
            self.solver_nc = nc;
        }

        /// Solve `M x = r` using the cached factorization — division-free per
        /// line. Recompose-only: multiplying by the cached reciprocals rounds
        /// differently from [`thomas_solve`]'s divisions, which is fine for
        /// reconstruction but would perturb the encoded artifacts if used on
        /// the decompose side.
        fn solve_cached(&mut self, nc: usize) {
            self.prepare_solver(nc);
            let off = F::from_f64(1.0 / 3.0);
            let r = &mut self.rhs;
            r[0] = r[0] * self.inv_m[0];
            for i in 1..nc {
                r[i] = (r[i] - off * r[i - 1]) * self.inv_m[i];
            }
            for i in (0..nc - 1).rev() {
                r[i] = r[i] - self.c[i] * r[i + 1];
            }
        }
    }

    /// Coarse-grid mass-matrix diagonal for `nc` nodes, normalized by the
    /// *fine* spacing `h`: coarse hats have spacing `H = 2h`, so after
    /// dividing by `h` the interior diagonal is `2H/3h = 4/3`, the boundary
    /// diagonal `H/3h = 2/3`, and the off-diagonal `H/6h = 1/3` (the load
    /// vector `r_j = ½(d_{j−1}+d_j)` carries the matching `h/ h` scale).
    fn fill_mass_diag<F: Real>(diag: &mut Vec<F>, nc: usize) {
        diag.clear();
        diag.resize(nc, F::from_f64(4.0 / 3.0));
        if nc >= 1 {
            diag[0] = F::from_f64(2.0 / 3.0);
            let last = nc - 1;
            diag[last] = F::from_f64(2.0 / 3.0);
        }
    }

    /// One decomposition step of `line` (in place): even slots end up holding
    /// corrected coarse values, odd slots the detail coefficients.
    ///
    /// Lines shorter than 3 nodes are left untouched (nothing to decompose).
    pub fn decompose_line<F: Real>(line: &mut [F], s: &mut LineScratch<F>, correct: bool) {
        let n = line.len();
        if n < 3 {
            return;
        }
        let nc = n.div_ceil(2);
        let nf = n / 2;
        let half = F::from_f64(0.5);

        s.detail.clear();
        for i in 0..nf {
            let left = line[2 * i];
            let pred = if 2 * i + 2 < n {
                (left + line[2 * i + 2]) * half
            } else {
                left
            };
            s.detail.push(line[2 * i + 1] - pred);
        }

        s.coarse.clear();
        for j in 0..nc {
            s.coarse.push(line[2 * j]);
        }

        if correct {
            // r_j = ½ (d_{j-1} + d_j) with missing neighbors treated as zero.
            s.rhs.clear();
            for j in 0..nc {
                let dl = if j >= 1 { s.detail[j - 1] } else { F::ZERO };
                let dr = if j < nf { s.detail[j] } else { F::ZERO };
                s.rhs.push((dl + dr) * half);
            }
            fill_mass_diag(&mut s.diag, nc);
            s.tmp.clear();
            s.tmp.resize(nc, F::ZERO);
            thomas_solve(&s.diag, F::from_f64(1.0 / 3.0), &mut s.rhs, &mut s.tmp);
            for j in 0..nc {
                s.coarse[j] = s.coarse[j] + s.rhs[j];
            }
        }

        for j in 0..nc {
            line[2 * j] = s.coarse[j];
        }
        for i in 0..nf {
            line[2 * i + 1] = s.detail[i];
        }
    }

    /// Inverse of [`decompose_line`].
    pub fn recompose_line<F: Real>(line: &mut [F], s: &mut LineScratch<F>, correct: bool) {
        let n = line.len();
        if n < 3 {
            return;
        }
        let nc = n.div_ceil(2);
        let nf = n / 2;
        let half = F::from_f64(0.5);

        s.detail.clear();
        for i in 0..nf {
            s.detail.push(line[2 * i + 1]);
        }
        s.coarse.clear();
        for j in 0..nc {
            s.coarse.push(line[2 * j]);
        }

        if correct {
            s.rhs.clear();
            for j in 0..nc {
                let dl = if j >= 1 { s.detail[j - 1] } else { F::ZERO };
                let dr = if j < nf { s.detail[j] } else { F::ZERO };
                s.rhs.push((dl + dr) * half);
            }
            s.solve_cached(nc);
            for j in 0..nc {
                s.coarse[j] = s.coarse[j] - s.rhs[j];
            }
        }

        for j in 0..nc {
            line[2 * j] = s.coarse[j];
        }
        for i in 0..nf {
            let left = line[2 * i];
            let pred = if 2 * i + 2 < n {
                (left + line[2 * i + 2]) * half
            } else {
                left
            };
            line[2 * i + 1] = s.detail[i] + pred;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::*;
    use super::*;

    #[test]
    fn panel_lanes_match_per_line_oracle_bitwise() {
        // Every lane of a panel must see exactly the per-line arithmetic,
        // whatever the panel width and whichever lane it rides in.
        for n in [3usize, 4, 5, 8, 9, 33, 100] {
            for w in [1usize, 2, 7, 16] {
                for correct in [true, false] {
                    let lines: Vec<Vec<f32>> = (0..w)
                        .map(|lane| {
                            (0..n)
                                .map(|i| ((i * 7 + lane * 13) as f32 * 0.37).sin() * 9.0)
                                .collect()
                        })
                        .collect();
                    let mut panel = vec![0.0f32; n * w];
                    for (lane, line) in lines.iter().enumerate() {
                        for (i, &v) in line.iter().enumerate() {
                            panel[i * w + lane] = v;
                        }
                    }
                    let fac = MassFactor::new(n.div_ceil(2));
                    let mut scratch = PanelScratch::new(n, w);
                    let mut s = LineScratch::with_capacity(n);

                    decompose_panel(
                        Panel::new(&mut panel.chunks_exact_mut(w).collect::<Vec<_>>()),
                        &mut scratch,
                        &fac,
                        correct,
                    );
                    let mut want = lines.clone();
                    for line in &mut want {
                        decompose_line(line, &mut s, correct);
                    }
                    for (lane, line) in want.iter().enumerate() {
                        for (i, v) in line.iter().enumerate() {
                            assert_eq!(panel[i * w + lane].to_bits(), v.to_bits());
                        }
                    }

                    recompose_panel(
                        Panel::new(&mut panel.chunks_exact_mut(w).collect::<Vec<_>>()),
                        &mut scratch,
                        &fac,
                        correct,
                    );
                    for line in &mut want {
                        recompose_line(line, &mut s, correct);
                    }
                    for (lane, line) in want.iter().enumerate() {
                        for (i, v) in line.iter().enumerate() {
                            assert_eq!(panel[i * w + lane].to_bits(), v.to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn strided_rows_transform_like_a_dense_panel() {
        // A panel whose rows are the first `w` of every `stride` elements,
        // as a panel transformed in place sees the array: bit-identical to
        // the same lines in a dense buffer, and nothing between the rows
        // touched.
        for (n, w, stride) in [
            (9usize, 5usize, 7usize),
            (33, 16, 40),
            (4, 3, 3),
            (17, 1, 9),
        ] {
            for correct in [true, false] {
                let value = |i: usize| ((i * 31) as f32 * 0.17).sin() * 5.0;
                let mut mem: Vec<f32> = (0..n * stride).map(value).collect();
                let mut dense: Vec<f32> = (0..n)
                    .flat_map(|i| (0..w).map(move |lane| value(i * stride + lane)))
                    .collect();
                let fac = MassFactor::new(n.div_ceil(2));
                let mut scratch = PanelScratch::new(n, w);
                type Kernel =
                    fn(Panel<'_, '_, f32>, &mut PanelScratch<f32>, &MassFactor<f32>, bool);
                for kernel in [decompose_panel as Kernel, recompose_panel] {
                    let mut rows: Vec<&mut [f32]> =
                        mem.chunks_exact_mut(stride).map(|r| &mut r[..w]).collect();
                    kernel(Panel::new(&mut rows), &mut scratch, &fac, correct);
                    let mut rows: Vec<&mut [f32]> = dense.chunks_exact_mut(w).collect();
                    kernel(Panel::new(&mut rows), &mut scratch, &fac, correct);
                    for (i, v) in mem.iter().enumerate() {
                        let (row, lane) = (i / stride, i % stride);
                        let want = if lane < w {
                            dense[row * w + lane]
                        } else {
                            value(i)
                        };
                        assert_eq!(
                            v.to_bits(),
                            want.to_bits(),
                            "n={n} w={w} stride={stride} at {i}"
                        );
                    }
                }
            }
        }
    }

    fn roundtrip_case(vals: &[f64], correct: bool) {
        let mut line = vals.to_vec();
        let mut s = LineScratch::with_capacity(line.len());
        decompose_line(&mut line, &mut s, correct);
        recompose_line(&mut line, &mut s, correct);
        for (a, b) in vals.iter().zip(&line) {
            assert!((a - b).abs() < 1e-12, "{vals:?} -> {line:?}");
        }
    }

    #[test]
    fn thomas_matches_dense_solve() {
        // M = tridiag(1/6, diag, 1/6) with the mass diag for n=4.
        let diag: Vec<f64> = vec![1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0];
        let off = 1.0 / 6.0;
        let mut r: Vec<f64> = vec![1.0, 2.0, -1.0, 0.5];
        let rhs = r.clone();
        let mut tmp = vec![0.0f64; 4];
        thomas_solve(&diag, off, &mut r, &mut tmp);
        // Verify M x == rhs.
        for i in 0..4 {
            let mut acc = diag[i] * r[i];
            if i > 0 {
                acc += off * r[i - 1];
            }
            if i < 3 {
                acc += off * r[i + 1];
            }
            assert!((acc - rhs[i]).abs() < 1e-12, "row {i}");
        }
    }

    #[test]
    fn roundtrip_odd_and_even_lengths() {
        for n in [3usize, 4, 5, 8, 9, 16, 17, 100, 101] {
            let vals: Vec<f64> = (0..n).map(|i| (i as f64 * 0.71).sin() * 3.0).collect();
            roundtrip_case(&vals, true);
            roundtrip_case(&vals, false);
        }
    }

    #[test]
    fn short_lines_untouched() {
        for n in [0usize, 1, 2] {
            let vals: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
            let mut line = vals.clone();
            let mut s = LineScratch::with_capacity(2);
            decompose_line(&mut line, &mut s, true);
            assert_eq!(line, vals);
        }
    }

    #[test]
    fn linear_data_has_zero_detail() {
        // Piecewise-linear interpolation reproduces linear data exactly,
        // so all detail coefficients (odd slots) must vanish.
        let vals: Vec<f64> = (0..9).map(|i| 2.0 * i as f64 + 1.0).collect();
        let mut line = vals.clone();
        let mut s = LineScratch::with_capacity(9);
        decompose_line(&mut line, &mut s, true);
        for i in 0..4 {
            assert!(
                line[2 * i + 1].abs() < 1e-12,
                "detail {i} = {}",
                line[2 * i + 1]
            );
        }
    }

    #[test]
    fn hat_function_projects_to_half() {
        // The worked example from the design: v = [0, 1, 0] must give
        // detail 1 and corrected coarse values [0.5, 0.5].
        let mut line: Vec<f64> = vec![0.0, 1.0, 0.0];
        let mut s = LineScratch::with_capacity(3);
        decompose_line(&mut line, &mut s, true);
        assert!((line[1] - 1.0).abs() < 1e-12);
        assert!((line[0] - 0.5).abs() < 1e-12);
        assert!((line[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn correction_reduces_l2_error_of_coarse_approximation() {
        // The corrected coarse grid is the L2 projection, so its
        // piecewise-linear interpolant must beat plain subsampling in L2.
        let n = 65;
        let vals: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 0.37).sin() + 0.3 * (i as f64 * 1.7).cos())
            .collect();
        let l2_err = |correct: bool| {
            let mut line = vals.clone();
            let mut s = LineScratch::with_capacity(n);
            decompose_line(&mut line, &mut s, correct);
            // Zero the detail, recompose, measure error.
            for i in 0..n / 2 {
                line[2 * i + 1] = 0.0;
            }
            recompose_line(&mut line, &mut s, correct);
            vals.iter()
                .zip(&line)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
        };
        assert!(l2_err(true) < l2_err(false));
    }

    #[test]
    fn f32_roundtrip_within_epsilon() {
        let vals: Vec<f32> = (0..33).map(|i| (i as f32 * 0.9).cos() * 7.0).collect();
        let mut line = vals.clone();
        let mut s = LineScratch::with_capacity(33);
        decompose_line(&mut line, &mut s, true);
        recompose_line(&mut line, &mut s, true);
        for (a, b) in vals.iter().zip(&line) {
            assert!((a - b).abs() < 1e-4);
        }
    }
}
