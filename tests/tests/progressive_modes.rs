//! Integration tests for the progressive access modes that compose over
//! one archive: precision (L∞ and rate-distortion planners), resolution
//! levels, and the on-disk store.

use hpmdr_core::{open_store, refactor, Artifact, RefactorConfig, RetrievalPlan, RetrievalSession};
use hpmdr_datasets::{metrics, DatasetKind};
use hpmdr_tests::small_dataset;

#[test]
fn rd_planner_beats_linf_planner_on_rmse_per_byte() {
    let ds = small_dataset(DatasetKind::Jhtdb);
    let data = ds.variables[0].as_f32();
    let truth = &ds.variables[0].data;
    let r = refactor(&data, &ds.shape, &RefactorConfig::default());

    // For matched byte budgets, the RD plan should achieve an RMSE at
    // least as good as the L∞ plan.
    for rel in [1e-2f64, 1e-3, 1e-4] {
        let eb = rel * r.value_range;
        let (linf, _) = RetrievalPlan::for_error(&r, eb);
        let budget = linf.fetch_bytes(&r);

        // Find the tightest RD plan within the same budget.
        let mut lo = 1e-12f64;
        let mut hi = r.value_range;
        for _ in 0..40 {
            let mid = (lo * hi).sqrt();
            let (p, _) = RetrievalPlan::for_rmse(&r, mid);
            if p.fetch_bytes(&r) <= budget {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let (rd, _) = RetrievalPlan::for_rmse(&r, hi);
        assert!(rd.fetch_bytes(&r) <= budget);

        let rmse_of = |plan: &RetrievalPlan| {
            let mut s = RetrievalSession::new(&r);
            s.refine_to(plan);
            let rec: Vec<f32> = s.reconstruct();
            let rec64: Vec<f64> = rec.iter().map(|&v| v as f64).collect();
            metrics::rmse(truth, &rec64)
        };
        let (rd_rmse, linf_rmse) = (rmse_of(&rd), rmse_of(&linf));
        assert!(
            rd_rmse <= linf_rmse * 1.25,
            "rel={rel}: rd {rd_rmse} vs linf {linf_rmse} at {budget} bytes"
        );
    }
}

#[test]
fn resolution_levels_compose_with_precision_plans() {
    let ds = small_dataset(DatasetKind::Miranda);
    let r = refactor(&ds.variables[0].data, &ds.shape, &RefactorConfig::default());
    let (plan, _) = RetrievalPlan::for_error(&r, 1e-4 * r.value_range);
    let mut sess = RetrievalSession::new(&r);
    sess.refine_to(&plan);
    let levels = r.hierarchy.levels;
    let mut prev_len = usize::MAX;
    for level in 0..=levels {
        let (grid, shape) = sess.reconstruct_at_resolution::<f64>(level);
        assert_eq!(grid.len(), shape.iter().product::<usize>());
        assert!(grid.len() < prev_len || level == 0);
        assert!(grid.iter().all(|v| v.is_finite()));
        prev_len = grid.len();
    }
}

#[test]
fn store_round_trips_through_filesystem_with_partial_io() {
    let ds = small_dataset(DatasetKind::Nyx);
    let data = ds.variables[0].as_f32();
    let r = refactor(&data, &ds.shape, &RefactorConfig::default());
    let dir = std::env::temp_dir().join(format!("hpmdr_it_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Artifact::Monolithic(r.clone())
        .write_store(&dir)
        .expect("write store");

    // Each store fetches exactly its plan: one range per group with a
    // non-zero prefix, and the plan's bytes. A loose request fetches
    // strictly fewer bytes than a tight one.
    let load = |rel: f64| {
        let store = open_store(&dir).expect("open");
        let (plan, bound) = RetrievalPlan::for_error(&store.meta().chunks[0], rel * r.value_range);
        let loaded = store.load_chunk(0, &plan).expect("load");
        let groups = plan.units.iter().filter(|&&u| u > 0).count();
        assert_eq!(store.requests(), groups, "rel {rel}: one range per group");
        assert_eq!(store.bytes_fetched(), plan.fetch_bytes(&r), "rel {rel}");
        (plan, bound, loaded, store.bytes_fetched())
    };
    let (loose_plan, loose_bound, loose, loose_bytes) = load(1e-1);
    let (_, _, _, tight_bytes) = load(1e-5);
    assert!(loose_bytes < tight_bytes);

    // Loose reconstruction still honors its bound.
    let mut sess = RetrievalSession::new(&loose);
    sess.refine_to(&loose_plan);
    let rec: Vec<f32> = sess.reconstruct();
    let err = data
        .iter()
        .zip(&rec)
        .map(|(a, b)| ((a - b).abs()) as f64)
        .fold(0.0, f64::max);
    assert!(err <= loose_bound.max(1e-1 * r.value_range));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn log_density_qoi_control_on_cosmology() {
    use hpmdr_core::{retrieve_with_qoi_control, EbEstimator};
    use hpmdr_qoi::{actual_max_error, QoiExpr};
    let ds = small_dataset(DatasetKind::Nyx);
    // Baryon density is positive and lognormal — the natural log QoI.
    let rho = &ds.variables[0];
    let data = rho.as_f32();
    let r = refactor(&data, &ds.shape, &RefactorConfig::default());
    let q = QoiExpr::log_density(1e-9);
    let tau = 1e-2;
    let out = retrieve_with_qoi_control::<f32>(&[&r], &q, tau, EbEstimator::Mape { c: 10.0 });
    assert!(out.final_estimate <= tau);
    let truth = [rho.data.clone()];
    let tr: Vec<&[f64]> = truth.iter().map(|v| v.as_slice()).collect();
    let ap: Vec<&[f64]> = out.vars.iter().map(|v| v.as_slice()).collect();
    let actual = actual_max_error(&q, &tr, &ap);
    assert!(actual <= out.final_estimate + 1e-12);
}
