//! Progressive retrieval with guaranteed QoI error control (Algorithm 3).
//!
//! Variables are retrieved and recomposed iteratively until the estimated
//! supremum of the QoI error falls below the requested tolerance `τ`. The
//! quality/throughput trade-off lives in how the *next* per-variable data
//! error bounds are chosen (§6.2):
//!
//! * **CP (CPU porting)** — decay the bounds at the single worst point
//!   until that point satisfies `τ`; converges in very few iterations but
//!   over-fetches (stale single-point information).
//! * **MA (minimal augmentation)** — fetch exactly one more merged unit
//!   per variable per iteration; near-optimal retrieval size, many
//!   iterations.
//! * **MAPE (MA + proportional estimation)** — scale bounds by `τ′/τ`
//!   while the gap is large (`> c`), then switch to MA for the endgame;
//!   the paper's recommended trade-off (used with `c = 10` for the
//!   multi-GPU evaluation).

use crate::refactor::Refactored;
use crate::retrieve::{RetrievalPlan, RetrievalSession};
use hpmdr_bitplane::BitplaneFloat;
use hpmdr_exec::{Backend, CpuBackend};
use hpmdr_mgard::Real;
use hpmdr_qoi::{max_qoi_error, MaxError, QoiExpr};
use serde::{Deserialize, Serialize};

/// Error-bound estimation strategy for the next Algorithm-3 iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EbEstimator {
    /// CPU-porting: single-point bound decay (fast, over-preserving).
    Cp,
    /// Minimal augmentation: one merged unit per variable per iteration.
    Ma,
    /// MA with proportional estimation; switches to MA when `τ′/τ ≤ c`.
    Mape {
        /// Proportion threshold `c` (the paper evaluates 2 and 10).
        c: f64,
    },
}

impl EbEstimator {
    /// Display label matching the paper's tables.
    pub fn label(&self) -> String {
        match self {
            EbEstimator::Cp => "CP".to_string(),
            EbEstimator::Ma => "MA".to_string(),
            EbEstimator::Mape { c } => format!("MAPE(c={c})"),
        }
    }
}

/// Result of a QoI-controlled retrieval.
#[derive(Debug, Clone)]
pub struct QoiRetrievalOutcome {
    /// Reconstructed variables (f64 for QoI evaluation).
    pub vars: Vec<Vec<f64>>,
    /// Iterations of the outer loop.
    pub iterations: usize,
    /// Total compressed bytes fetched.
    pub fetched_bytes: usize,
    /// Bits per element across all variables.
    pub bitrate: f64,
    /// Final estimated max QoI error (`τ′ ≤ τ` unless `exhausted`).
    pub final_estimate: f64,
    /// Final guaranteed per-variable L∞ bounds.
    pub final_bounds: Vec<f64>,
    /// Elements recomposed across all iterations (kernel-work proxy).
    pub recompose_elements: u64,
    /// True if the streams ran out before meeting `τ` (near-lossless data
    /// still couldn't satisfy the tolerance).
    pub exhausted: bool,
}

/// Run Algorithm 3: retrieve `vars` until the QoI error bound of `qoi`
/// falls below `tau`, on a host-wide [`CpuBackend`].
///
/// # Panics
/// Panics if variables disagree in shape/dtype, `tau` is not positive or
/// `qoi` has a log floor that is not finite and positive.
pub fn retrieve_with_qoi_control<F: BitplaneFloat + Real>(
    vars: &[&Refactored],
    qoi: &QoiExpr,
    tau: f64,
    estimator: EbEstimator,
) -> QoiRetrievalOutcome {
    into_single(retrieve_with_multi_qoi_control::<F>(
        vars,
        &[(qoi.clone(), tau)],
        estimator,
    ))
}

/// Outcome of a retrieval controlled by a *set* of QoIs. The public
/// entry points widen the variables to `f64` once, at the end; the loop
/// itself keeps them in the archive's element type `T`.
#[derive(Debug, Clone)]
pub struct MultiQoiRetrievalOutcome<T = f64> {
    /// Reconstructed variables: `f64` from the public entry points, the
    /// archive's element type inside the loop.
    pub vars: Vec<Vec<T>>,
    /// Iterations of the outer loop.
    pub iterations: usize,
    /// Total compressed bytes fetched.
    pub fetched_bytes: usize,
    /// Bits per element across all variables.
    pub bitrate: f64,
    /// Final estimated max error of each QoI (same order as the request).
    pub final_estimates: Vec<f64>,
    /// Final guaranteed per-variable L∞ bounds.
    pub final_bounds: Vec<f64>,
    /// Elements recomposed across all iterations (kernel-work proxy).
    pub recompose_elements: u64,
    /// True if the streams ran out before meeting every tolerance.
    pub exhausted: bool,
}

impl<T: Into<f64>> MultiQoiRetrievalOutcome<T> {
    /// The same outcome with its variables widened to `f64`.
    fn widen(self) -> MultiQoiRetrievalOutcome {
        MultiQoiRetrievalOutcome {
            vars: self
                .vars
                .into_iter()
                .map(|v| v.into_iter().map(Into::into).collect())
                .collect(),
            iterations: self.iterations,
            fetched_bytes: self.fetched_bytes,
            bitrate: self.bitrate,
            final_estimates: self.final_estimates,
            final_bounds: self.final_bounds,
            recompose_elements: self.recompose_elements,
            exhausted: self.exhausted,
        }
    }
}

fn into_single(out: MultiQoiRetrievalOutcome) -> QoiRetrievalOutcome {
    QoiRetrievalOutcome {
        vars: out.vars,
        iterations: out.iterations,
        fetched_bytes: out.fetched_bytes,
        bitrate: out.bitrate,
        final_estimate: out.final_estimates[0],
        final_bounds: out.final_bounds,
        recompose_elements: out.recompose_elements,
        exhausted: out.exhausted,
    }
}

/// Run Algorithm 3 against a *set* of QoI tolerances simultaneously
/// (\[39\] controls derived quantities in sets): the loop terminates when
/// every QoI's estimated supremum clears its tolerance, and each
/// refinement step is driven by the currently most-violating QoI. Runs
/// on a host-wide [`CpuBackend`].
///
/// # Panics
/// Panics if variables disagree in shape/dtype, the set is empty, any
/// tolerance is not positive, or a QoI has a log floor that is not
/// finite and positive.
pub fn retrieve_with_multi_qoi_control<F: BitplaneFloat + Real>(
    vars: &[&Refactored],
    qois: &[(QoiExpr, f64)],
    estimator: EbEstimator,
) -> MultiQoiRetrievalOutcome {
    let backend = CpuBackend::new();
    backend
        .install(|| multi_qoi_control::<F, _>(vars, qois, estimator, &backend))
        .widen()
}

/// The Algorithm-3 loop on `backend`: its sessions decode and recompose
/// on it. Callers run it under `backend.install` (a façade query already
/// does), so the domain-wide estimator scans split at the backend's
/// width too. The reconstructions stay in `F`; the scans widen them
/// block by block.
pub(crate) fn multi_qoi_control<F: BitplaneFloat + Real, B: Backend>(
    vars: &[&Refactored],
    qois: &[(QoiExpr, f64)],
    estimator: EbEstimator,
    backend: &B,
) -> MultiQoiRetrievalOutcome<F> {
    control_loop(vars, qois, estimator, backend, max_qoi_error::<F>)
}

/// [`multi_qoi_control`] with the domain-wide estimator scan `scan`
/// passed in (the tests hold the loop to a per-point reference scan).
fn control_loop<F: BitplaneFloat + Real, B: Backend>(
    vars: &[&Refactored],
    qois: &[(QoiExpr, f64)],
    estimator: EbEstimator,
    backend: &B,
    scan: impl Fn(&QoiExpr, &[&[F]], &[f64]) -> MaxError,
) -> MultiQoiRetrievalOutcome<F> {
    assert!(!qois.is_empty(), "at least one QoI required");
    for (q, tau) in qois {
        assert!(*tau > 0.0, "tolerance must be positive");
        q.assert_log_floors();
        assert!(
            q.num_vars() <= vars.len(),
            "QoI references {} variables, {} supplied",
            q.num_vars(),
            vars.len()
        );
    }
    assert!(!vars.is_empty(), "at least one variable required");
    let n = vars[0].num_elements();
    for v in vars {
        assert_eq!(v.num_elements(), n, "variables must share the grid");
        assert_eq!(v.dtype, F::TYPE_NAME, "dtype mismatch");
    }
    let nv = vars.len();

    let mut sessions: Vec<RetrievalSession<'_, B>> = vars
        .iter()
        .map(|r| RetrievalSession::with_backend(r, backend.clone()))
        .collect();

    // Initial data error bounds: deliberately loose (a fraction of each
    // variable's value range, per the paper's relative initialization) so
    // the first fetch is coarse and the estimator drives refinement.
    let mut targets: Vec<f64> = vars
        .iter()
        .map(|r| (r.value_range * 0.05).max(f64::MIN_POSITIVE))
        .collect();

    let mut iterations = 0usize;
    let mut recompose_elements = 0u64;
    let mut fields: Vec<Vec<F>>;
    let mut bounds: Vec<f64>;
    let mut estimates: Vec<f64>;
    let mut exhausted = false;
    let mut ma_mode_started = false;

    loop {
        // Fetch each variable toward its current target bound.
        for (s, &t) in sessions.iter_mut().zip(&targets) {
            if ma_mode_started {
                // MA refinement already advanced the sessions directly.
                continue;
            }
            let (plan, _) = RetrievalPlan::for_error(s.refactored(), t);
            s.refine_to(&plan);
        }
        ma_mode_started = false;

        // Recompose all variables (the pipeline-overlapped stage).
        fields = sessions.iter().map(|s| s.reconstruct()).collect();
        recompose_elements += (n * nv) as u64;
        bounds = sessions.iter().map(|s| s.error_bound()).collect();
        iterations += 1;

        // Estimate every QoI's error supremum; the most-violating one
        // (largest τ′/τ) drives the next refinement.
        let refs: Vec<&[F]> = fields.iter().map(|f| f.as_slice()).collect();
        let maxima: Vec<_> = qois
            .iter()
            .map(|(q, _)| {
                scan(
                    q,
                    &refs[..q.num_vars().max(1)],
                    &bounds[..q.num_vars().max(1)],
                )
            })
            .collect();
        estimates = maxima.iter().map(|m| m.value).collect();
        let worst = (0..qois.len())
            .max_by(|&a, &b| (estimates[a] / qois[a].1).total_cmp(&(estimates[b] / qois[b].1)))
            // lint:allow(L3): `qois` non-emptiness is asserted on entry.
            .expect("non-empty QoI set");
        if estimates.iter().zip(qois).all(|(e, (_, tau))| e <= tau) {
            break;
        }
        if sessions.iter().all(|s| s.exhausted()) {
            exhausted = true;
            break;
        }
        let (worst_qoi, worst_tau) = &qois[worst];
        let worst_nv = worst_qoi.num_vars().max(1);
        let m = &maxima[worst];
        let estimate = estimates[worst];

        // Choose the next bounds from the most-violating QoI.
        match estimator {
            EbEstimator::Cp => {
                let point: Vec<f64> = fields
                    .iter()
                    .take(worst_nv)
                    .map(|f| f[m.argmax].into())
                    .collect();
                let mut e = bounds.clone();
                let mut guard = 0;
                while worst_qoi.error_bound(&point, &e[..worst_nv]) > *worst_tau && guard < 200 {
                    for ei in e.iter_mut() {
                        *ei *= 0.5;
                    }
                    guard += 1;
                }
                targets = e;
            }
            EbEstimator::Ma => {
                for s in sessions.iter_mut() {
                    s.advance_greedy(1);
                }
                ma_mode_started = true;
            }
            EbEstimator::Mape { c } => {
                let p = estimate / worst_tau;
                if p > c {
                    targets = bounds.iter().map(|&b| b / p).collect();
                } else {
                    for s in sessions.iter_mut() {
                        s.advance_greedy(1);
                    }
                    ma_mode_started = true;
                }
            }
        }
    }

    let fetched_bytes: usize = sessions.iter().map(|s| s.fetched_bytes()).sum();
    MultiQoiRetrievalOutcome {
        vars: fields,
        iterations,
        fetched_bytes,
        bitrate: fetched_bytes as f64 * 8.0 / (n * nv) as f64,
        final_estimates: estimates,
        final_bounds: bounds,
        recompose_elements,
        exhausted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refactor::{refactor, RefactorConfig};
    use hpmdr_qoi::actual_max_error;

    fn velocity(nx: usize, ny: usize, phase: f32) -> Vec<f32> {
        let mut v = Vec::with_capacity(nx * ny);
        for x in 0..nx {
            for y in 0..ny {
                v.push((x as f32 * 0.11 + phase).sin() * 2.0 + (y as f32 * 0.07 + phase).cos());
            }
        }
        v
    }

    fn setup() -> (Vec<Vec<f32>>, Vec<Refactored>) {
        let shape = [33usize, 33];
        let raw: Vec<Vec<f32>> = (0..3)
            .map(|k| velocity(shape[0], shape[1], k as f32))
            .collect();
        let refs = raw
            .iter()
            .map(|d| refactor(d, &shape, &RefactorConfig::default()))
            .collect();
        (raw, refs)
    }

    fn run(estimator: EbEstimator, tau: f64) -> (QoiRetrievalOutcome, Vec<Vec<f32>>) {
        let (raw, refs) = setup();
        let q = QoiExpr::vector_magnitude(3);
        let rr: Vec<&Refactored> = refs.iter().collect();
        let out = retrieve_with_qoi_control::<f32>(&rr, &q, tau, estimator);
        (out, raw)
    }

    #[test]
    fn all_estimators_enforce_the_tolerance() {
        let q = QoiExpr::vector_magnitude(3);
        for est in [
            EbEstimator::Cp,
            EbEstimator::Ma,
            EbEstimator::Mape { c: 10.0 },
        ] {
            let tau = 1e-2;
            let (out, raw) = run(est, tau);
            assert!(!out.exhausted, "{}", est.label());
            assert!(
                out.final_estimate <= tau,
                "{}: τ' {}",
                est.label(),
                out.final_estimate
            );
            // Guaranteed: actual error ≤ estimated ≤ τ (Figure 13).
            let truth: Vec<Vec<f64>> = raw
                .iter()
                .map(|v| v.iter().map(|&x| x as f64).collect())
                .collect();
            let tr: Vec<&[f64]> = truth.iter().map(|v| v.as_slice()).collect();
            let ap: Vec<&[f64]> = out.vars.iter().map(|v| v.as_slice()).collect();
            let actual = actual_max_error(&q, &tr, &ap);
            assert!(
                actual <= out.final_estimate + 1e-12,
                "{}: actual {} > estimate {}",
                est.label(),
                actual,
                out.final_estimate
            );
        }
    }

    #[test]
    fn ma_is_most_efficient_cp_needs_fewest_iterations() {
        let tau = 1e-3;
        let (cp, _) = run(EbEstimator::Cp, tau);
        let (ma, _) = run(EbEstimator::Ma, tau);
        let (mape, _) = run(EbEstimator::Mape { c: 10.0 }, tau);
        // Retrieval size: MA ≤ MAPE ≤ CP (Table 2/3 ordering).
        assert!(
            ma.fetched_bytes <= mape.fetched_bytes,
            "ma {} mape {}",
            ma.fetched_bytes,
            mape.fetched_bytes
        );
        assert!(
            mape.fetched_bytes <= cp.fetched_bytes,
            "mape {} cp {}",
            mape.fetched_bytes,
            cp.fetched_bytes
        );
        // Iterations: CP ≤ MAPE ≤ MA (Figure 12 throughput ordering).
        assert!(cp.iterations <= mape.iterations);
        assert!(mape.iterations <= ma.iterations);
        assert!(ma.iterations > 1);
    }

    #[test]
    fn bitrate_grows_as_tolerance_tightens() {
        let (a, _) = run(EbEstimator::Mape { c: 10.0 }, 1e-1);
        let (b, _) = run(EbEstimator::Mape { c: 10.0 }, 1e-3);
        let (c, _) = run(EbEstimator::Mape { c: 10.0 }, 1e-5);
        assert!(a.bitrate <= b.bitrate && b.bitrate <= c.bitrate);
        assert!(c.bitrate > 0.0);
    }

    #[test]
    fn outcome_accounting_is_consistent() {
        let (out, _) = run(EbEstimator::Cp, 1e-2);
        assert_eq!(out.vars.len(), 3);
        assert_eq!(out.vars[0].len(), 33 * 33);
        assert_eq!(out.final_bounds.len(), 3);
        assert_eq!(
            out.recompose_elements,
            (out.iterations * 3 * 33 * 33) as u64
        );
        assert!(out.fetched_bytes > 0);
    }

    #[test]
    fn multi_qoi_control_satisfies_every_tolerance() {
        let (raw, refs) = setup();
        let rr: Vec<&Refactored> = refs.iter().collect();
        let qois = vec![
            (QoiExpr::vector_magnitude(3), 5e-3),
            (QoiExpr::kinetic_energy(3), 1e-2),
            (QoiExpr::linear(&[1.0, -1.0, 0.5]), 1e-3),
        ];
        let out = retrieve_with_multi_qoi_control::<f32>(&rr, &qois, EbEstimator::Mape { c: 10.0 });
        assert!(!out.exhausted);
        assert_eq!(out.final_estimates.len(), 3);
        let truth: Vec<Vec<f64>> = raw
            .iter()
            .map(|v| v.iter().map(|&x| x as f64).collect())
            .collect();
        let tr: Vec<&[f64]> = truth.iter().map(|v| v.as_slice()).collect();
        let ap: Vec<&[f64]> = out.vars.iter().map(|v| v.as_slice()).collect();
        for ((q, tau), est) in qois.iter().zip(&out.final_estimates) {
            assert!(est <= tau, "estimate {est} > tau {tau}");
            let actual = actual_max_error(q, &tr[..q.num_vars()], &ap[..q.num_vars()]);
            assert!(actual <= est + 1e-12, "actual {actual} > estimate {est}");
        }
    }

    #[test]
    fn multi_qoi_fetches_at_least_the_strictest_single_qoi() {
        let (_, refs) = setup();
        let rr: Vec<&Refactored> = refs.iter().collect();
        let q = QoiExpr::vector_magnitude(3);
        let single = retrieve_with_qoi_control::<f32>(&rr, &q, 1e-3, EbEstimator::Cp);
        let multi = retrieve_with_multi_qoi_control::<f32>(
            &rr,
            &[(q.clone(), 1e-3), (QoiExpr::kinetic_energy(3), 1e-4)],
            EbEstimator::Cp,
        );
        assert!(multi.fetched_bytes >= single.fetched_bytes);
    }

    /// The per-point reference scan: `error_bound` at every point in
    /// index order, keeping the first strict maximum above 0.
    fn pointwise_scan(q: &QoiExpr, vars: &[&[f32]], errs: &[f64]) -> MaxError {
        let n = vars.first().map_or(0, |v| v.len());
        let mut best = MaxError {
            value: 0.0,
            argmax: 0,
        };
        for i in 0..n {
            let point: Vec<f64> = vars.iter().map(|v| f64::from(v[i])).collect();
            let b = q.error_bound(&point, errs);
            if b > best.value {
                best = MaxError {
                    value: b,
                    argmax: i,
                };
            }
        }
        best
    }

    #[test]
    fn the_block_scan_leaves_every_iteration_unchanged() {
        let (_, refs) = setup();
        let rr: Vec<&Refactored> = refs.iter().collect();
        let backend = CpuBackend::new();
        let sets = [
            vec![(QoiExpr::vector_magnitude(3), 1e-3)],
            vec![(QoiExpr::Square(Box::new(QoiExpr::Var(0))), 1e-3)],
            vec![
                (QoiExpr::kinetic_energy(3), 1e-2),
                (QoiExpr::linear(&[1.0, -1.0, 0.5]), 1e-3),
            ],
        ];
        for qois in &sets {
            for est in [
                EbEstimator::Cp,
                EbEstimator::Ma,
                EbEstimator::Mape { c: 10.0 },
            ] {
                let block =
                    backend.install(|| multi_qoi_control::<f32, _>(&rr, qois, est, &backend));
                let pointwise = backend
                    .install(|| control_loop::<f32, _>(&rr, qois, est, &backend, pointwise_scan));
                let case = format!("{} {qois:?}", est.label());
                assert_eq!(block.iterations, pointwise.iterations, "{case}");
                assert_eq!(block.fetched_bytes, pointwise.fetched_bytes, "{case}");
                assert_eq!(
                    block.recompose_elements, pointwise.recompose_elements,
                    "{case}"
                );
                assert_eq!(block.exhausted, pointwise.exhausted, "{case}");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&block.final_estimates),
                    bits(&pointwise.final_estimates),
                    "{case}"
                );
                assert_eq!(
                    bits(&block.final_bounds),
                    bits(&pointwise.final_bounds),
                    "{case}"
                );
                for (a, b) in block.vars.iter().zip(&pointwise.vars) {
                    let a: Vec<u32> = a.iter().map(|x| x.to_bits()).collect();
                    let b: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(a, b, "{case}");
                }
            }
        }
    }

    #[test]
    fn a_non_finite_qoi_bound_refines_to_exhaustion() {
        // `∞·x` has no finite error bound anywhere: the loop must fetch
        // everything and say it could not meet τ, not report a zero error.
        let (_, refs) = setup();
        let rr: Vec<&Refactored> = refs.iter().collect();
        for factor in [f64::INFINITY, f64::NAN] {
            let q = QoiExpr::Scale(factor, Box::new(QoiExpr::Var(0)));
            for est in [EbEstimator::Cp, EbEstimator::Mape { c: 10.0 }] {
                let out = retrieve_with_qoi_control::<f32>(&rr, &q, 1e-3, est);
                assert!(out.exhausted, "{factor} {}", est.label());
                assert_eq!(
                    out.final_estimate,
                    f64::INFINITY,
                    "{factor} {}",
                    est.label()
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn empty_qoi_set_rejected() {
        let (_, refs) = setup();
        let rr: Vec<&Refactored> = refs.iter().collect();
        retrieve_with_multi_qoi_control::<f32>(&rr, &[], EbEstimator::Ma);
    }

    #[test]
    #[should_panic(expected = "log floor 0 is not a finite positive number")]
    fn a_zero_log_floor_is_rejected() {
        let (_, refs) = setup();
        let rr: Vec<&Refactored> = refs.iter().collect();
        let q = QoiExpr::log_density(0.0);
        retrieve_with_qoi_control::<f32>(&rr, &q, 1e-3, EbEstimator::Ma);
    }

    #[test]
    #[should_panic]
    fn zero_tolerance_rejected() {
        let (_, refs) = setup();
        let q = QoiExpr::vector_magnitude(3);
        let rr: Vec<&Refactored> = refs.iter().collect();
        retrieve_with_qoi_control::<f32>(&rr, &q, 0.0, EbEstimator::Ma);
    }
}
