//! Tables 2 and 3: bitrate of the error-bound estimation methods (CP, MA,
//! MAPE c=2, MAPE c=10) under QoI error control (`V_total`), on NYX-like
//! and mini-JHTDB velocity fields, across ten tolerances.
//!
//! Paper shape: MA achieves the best (lowest) bitrates, CP the worst; the
//! MAPE variants sit between, with many cells identical across methods
//! (the merged-unit fetch granularity quantizes the choices).

use hpmdr_core::{refactor, retrieve_with_qoi_control, EbEstimator, RefactorConfig};
use hpmdr_datasets::{Dataset, DatasetKind};
use hpmdr_qoi::{eval_field, QoiExpr};
use hpmdr_repro::Table;

/// Relative tolerances in the paper's column order.
pub const REL_TAUS: [f64; 10] = [1e-1, 5e-2, 1e-2, 5e-3, 1e-3, 5e-4, 1e-4, 5e-5, 1e-5, 5e-6];

fn estimators() -> Vec<EbEstimator> {
    vec![
        EbEstimator::Cp,
        EbEstimator::Ma,
        EbEstimator::Mape { c: 2.0 },
        EbEstimator::Mape { c: 10.0 },
    ]
}

fn run_dataset(kind: DatasetKind, title: &str, json: &mut Vec<serde_json::Value>) {
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
    let field = eval_field(&qoi, &tr);
    let q_range = field.iter().cloned().fold(f64::MIN, f64::max)
        - field.iter().cloned().fold(f64::MAX, f64::min);

    let mut t = Table::new(title, &{
        let mut h = vec!["Method"];
        h.extend(REL_TAUS.iter().map(|_| "").collect::<Vec<_>>());
        h
    });
    // Header row of tolerances (Table 2/3 style).
    {
        let mut cells = vec!["rel tau ->".to_string()];
        cells.extend(REL_TAUS.iter().map(|r| format!("{r:.0e}")));
        t.row(&cells);
    }
    for est in estimators() {
        let mut cells = vec![est.label()];
        for rel in REL_TAUS {
            let tau = rel * q_range;
            let out = retrieve_with_qoi_control::<f32>(&rr, &qoi, tau, est);
            cells.push(format!("{:.2}", out.bitrate));
            json.push(serde_json::json!({
                "dataset": kind.name(), "method": est.label(), "rel_tau": rel,
                "bitrate": out.bitrate, "iterations": out.iterations,
                "fetched_bytes": out.fetched_bytes,
                "recompose_elements": out.recompose_elements,
                "estimate": out.final_estimate,
            }));
        }
        t.row(&cells);
    }
    t.print();
}

fn main() {
    let mut json = Vec::new();
    run_dataset(
        DatasetKind::Nyx,
        "Table 2: bitrate of EB estimation methods on NYX (bits/value)",
        &mut json,
    );
    run_dataset(
        DatasetKind::MiniJhtdb,
        "Table 3: bitrate of EB estimation methods on mini-JHTDB (bits/value)",
        &mut json,
    );
    hpmdr_repro::write_json("table2_3", &json);

    // Summaries the paper highlights.
    let avg = |m: &str| {
        let vals: Vec<f64> = json
            .iter()
            .filter(|j| j["method"] == m)
            .map(|j| j["bitrate"].as_f64().expect("bitrate"))
            .collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    };
    let iters = |m: &str| {
        let vals: Vec<f64> = json
            .iter()
            .filter(|j| j["method"] == m)
            .map(|j| j["iterations"].as_f64().expect("iters"))
            .collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    };
    println!(
        "\naverage bitrate:   CP {:.2}  MA {:.2}  MAPE(2) {:.2}  MAPE(10) {:.2}",
        avg("CP"),
        avg("MA"),
        avg("MAPE(c=2)"),
        avg("MAPE(c=10)")
    );
    println!(
        "average iterations: CP {:.1}  MA {:.1}  MAPE(2) {:.1}  MAPE(10) {:.1}",
        iters("CP"),
        iters("MA"),
        iters("MAPE(c=2)"),
        iters("MAPE(c=10)")
    );
    println!("(paper: MA best bitrates / most iterations; CP opposite; MAPE between)");
}
