//! Figure 12: overall kernel throughput of the EB estimation methods on
//! NYX and mini-JHTDB (single simulated MI250X, as in the paper's §7.3.1).
//!
//! Kernel time is modeled per retrieval from the work the loop actually
//! performed (elements recomposed per iteration, compressed bytes
//! decoded), so methods with more iterations pay proportionally. Paper
//! shape: CP highest throughput, MA lowest, MAPE(c=10) a good trade-off.

use hpmdr_core::{refactor, retrieve_with_qoi_control, EbEstimator, RefactorConfig};
use hpmdr_datasets::{Dataset, DatasetKind};
use hpmdr_qoi::{eval_field, QoiExpr};
use hpmdr_repro::{qoi_loop_time, DeviceConfig, Table};

const REL_TAUS: [f64; 5] = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5];

fn main() {
    let cfg = DeviceConfig::mi250x_like();
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
        let native = vars[0].len() * 4 * 3;

        let mut t = Table::new(
            &format!(
                "Figure 12: QoI kernel throughput (GB/s, MI250X model), {}",
                kind.name()
            ),
            &["rel tau", "CP", "MA", "MAPE(c=2)", "MAPE(c=10)"],
        );
        for rel in REL_TAUS {
            let tau = rel * q_range;
            let mut cells = vec![format!("{rel:.0e}")];
            for est in [
                EbEstimator::Cp,
                EbEstimator::Ma,
                EbEstimator::Mape { c: 2.0 },
                EbEstimator::Mape { c: 10.0 },
            ] {
                let out = retrieve_with_qoi_control::<f32>(&rr, &qoi, tau, est);
                let avg_planes = ((out.bitrate / 3.0).ceil() as usize).clamp(4, 32);
                let time = qoi_loop_time(
                    &cfg,
                    out.recompose_elements,
                    out.fetched_bytes,
                    4,
                    avg_planes,
                );
                let gbps = native as f64 / time / 1e9;
                cells.push(format!("{gbps:.1}"));
                json.push(serde_json::json!({
                    "dataset": kind.name(), "method": est.label(), "rel_tau": rel,
                    "gbps": gbps, "iterations": out.iterations,
                }));
            }
            t.row(&cells);
        }
        t.print();
    }
    hpmdr_repro::write_json("fig12", &json);
    println!("\n(paper shape: CP fastest, MA slowest, MAPE in between)");
}
