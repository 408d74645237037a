//! Figure 13: validation of guaranteed QoI error control — requested
//! tolerance vs. maximum estimated error vs. maximum actual error during
//! progressive retrieval toward `V_total`, on NYX and mini-JHTDB.
//!
//! The invariant to observe: actual ≤ estimated ≤ requested, with the
//! estimate close to (but never above) the request.

use hpmdr_core::{refactor, retrieve_with_qoi_control, EbEstimator, RefactorConfig};
use hpmdr_datasets::{Dataset, DatasetKind};
use hpmdr_qoi::{actual_max_error, eval_field, QoiExpr};
use hpmdr_repro::Table;

const REL_TAUS: [f64; 6] = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6];

fn main() {
    let mut json = Vec::new();
    for kind in [DatasetKind::Nyx, DatasetKind::MiniJhtdb] {
        let ds = Dataset::generate(kind, 77);
        let [vx, vy, vz] = ds.velocity_triplet().expect("velocity triplet");
        let vars = [vx.as_f32(), vy.as_f32(), vz.as_f32()];
        let refs: Vec<_> = vars
            .iter()
            .map(|v| refactor(v, &ds.shape, &RefactorConfig::default()))
            .collect();
        let rr: Vec<&_> = refs.iter().collect();
        let qoi = QoiExpr::vector_magnitude(3);
        let truth = [vx.data.clone(), vy.data.clone(), vz.data.clone()];
        let tr: Vec<&[f64]> = truth.iter().map(|v| v.as_slice()).collect();
        let f = eval_field(&qoi, &tr);
        let q_range =
            f.iter().cloned().fold(f64::MIN, f64::max) - f.iter().cloned().fold(f64::MAX, f64::min);

        let mut t = Table::new(
            &format!("Figure 13: QoI error control validation, {}", kind.name()),
            &["requested tau", "max estimated", "max actual", "holds"],
        );
        for rel in REL_TAUS {
            let tau = rel * q_range;
            let out =
                retrieve_with_qoi_control::<f32>(&rr, &qoi, tau, EbEstimator::Mape { c: 10.0 });
            let ap: Vec<&[f64]> = out.vars.iter().map(|v| v.as_slice()).collect();
            let actual = actual_max_error(&qoi, &tr, &ap);
            let holds = actual <= out.final_estimate && out.final_estimate <= tau;
            t.row(&[
                format!("{tau:.3e}"),
                format!("{:.3e}", out.final_estimate),
                format!("{actual:.3e}"),
                if holds {
                    "yes".into()
                } else {
                    "VIOLATED".into()
                },
            ]);
            assert!(holds, "error-control invariant violated");
            json.push(serde_json::json!({
                "dataset": kind.name(), "tau": tau,
                "estimated": out.final_estimate, "actual": actual,
            }));
        }
        t.print();
    }
    hpmdr_repro::write_json("fig13", &json);
    println!("\nInvariant held at every tolerance: actual <= estimated <= requested.");
}
