//! Figure 11: HP-MDR vs. the five baseline progressive frameworks —
//! retrieval throughput and additional-retrieval ratio across error
//! tolerances (1e-1..1e-6, relative to each variable's range) on four
//! datasets.
//!
//! Baselines: MDR on CPU \[24\] (same algorithms, host threads) and the
//! multi-component framework \[31\] with MGARD / SZ3 / ZFP-fixed-accuracy
//! ("CPU") / ZFP-fixed-rate ("GPU") backends. HP-MDR's GPU number is the
//! modeled H100 kernel time; its CPU wall-clock is measured directly.
//!
//! Paper shape: HP-MDR leads throughput everywhere (up to 6.6× over the
//! best baseline, M-MGARD); retrieval sizes competitive with (not always
//! better than) the best baseline.

use hpmdr_core::{refactor, RefactorConfig, RetrievalPlan, RetrievalSession};
use hpmdr_datasets::{metrics, Dataset, DatasetKind};
use hpmdr_repro::multi_component::{
    geometric_schedule, rate_schedule, MgardBackend, MultiComponent, SzBackend, ZfpAccuracyBackend,
    ZfpRateBackend,
};
use hpmdr_repro::{reconstruct_stage_times, DeviceConfig, Table};
use std::time::Instant;

const RELS: [f64; 6] = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6];

struct Row {
    dataset: &'static str,
    system: String,
    rel: f64,
    gbps: f64,
    extra_ratio: f64, // fetched bytes / native bytes
}

fn main() {
    let kinds = [
        DatasetKind::Nyx,
        DatasetKind::Miranda,
        DatasetKind::HurricaneIsabel,
        DatasetKind::Jhtdb,
    ];
    let h100 = DeviceConfig::h100_like();
    let mut rows: Vec<Row> = Vec::new();

    for kind in kinds {
        let ds = Dataset::generate(kind, 21);
        let truth = ds.variables[0].data.clone();
        let shape = ds.shape.clone();
        let native_bytes = truth.len() * if kind.dtype() == "f64" { 8 } else { 4 };
        let range = metrics::value_range(&truth);
        let data32 = ds.variables[0].as_f32();

        // ---------------- HP-MDR ----------------
        let refactored = refactor(&data32, &shape, &RefactorConfig::default());
        for rel in RELS {
            let eb = rel * range;
            let (plan, _) = RetrievalPlan::for_error(&refactored, eb);
            let t0 = Instant::now();
            let mut sess = RetrievalSession::new(&refactored);
            sess.refine_to(&plan);
            let rec: Vec<f32> = sess.reconstruct();
            let wall = t0.elapsed().as_secs_f64();
            std::hint::black_box(&rec);
            let fetched = sess.fetched_bytes();
            // Modeled H100 kernel time for the same reconstruction.
            let k = plan
                .units
                .iter()
                .zip(&refactored.streams)
                .map(|(&u, s)| s.planes_in_units(u))
                .max()
                .unwrap_or(0);
            let st = reconstruct_stage_times(&h100, truth.len(), 4, k.max(1), fetched);
            rows.push(Row {
                dataset: kind.name(),
                system: "HP-MDR (H100 model)".into(),
                rel,
                gbps: native_bytes as f64 / st.compute / 1e9,
                extra_ratio: fetched as f64 / native_bytes as f64,
            });
            rows.push(Row {
                dataset: kind.name(),
                system: "MDR-CPU (measured)".into(),
                rel,
                gbps: native_bytes as f64 / wall / 1e9,
                extra_ratio: fetched as f64 / native_bytes as f64,
            });
        }

        // ---------------- Multi-component baselines ----------------
        let schedule = geometric_schedule(range * 1e-1, 1e-1, 6);
        macro_rules! run_mc {
            ($backend:expr, $label:expr, $sched:expr) => {{
                let mc = MultiComponent::build($backend, &truth, &shape, &$sched);
                for rel in RELS {
                    let tau = rel * range;
                    let t0 = Instant::now();
                    let (rec, bytes, _err) = mc.retrieve(tau);
                    let wall = t0.elapsed().as_secs_f64();
                    std::hint::black_box(&rec);
                    rows.push(Row {
                        dataset: kind.name(),
                        system: $label.into(),
                        rel,
                        gbps: native_bytes as f64 / wall / 1e9,
                        extra_ratio: bytes as f64 / native_bytes as f64,
                    });
                }
            }};
        }
        run_mc!(MgardBackend, "M-MGARD", schedule);
        run_mc!(SzBackend, "M-SZ3", schedule);
        run_mc!(ZfpAccuracyBackend, "M-ZFP-CPU", schedule);
        run_mc!(
            ZfpRateBackend,
            "M-ZFP-GPU",
            rate_schedule(&[6.0, 8.0, 10.0, 12.0, 14.0, 16.0])
        );
    }

    // ---------------- Render ----------------
    for panel in ["throughput", "retrieval"] {
        let mut t = Table::new(
            &format!("Figure 11 ({panel}): HP-MDR vs baselines"),
            &[
                "dataset", "system", "1e-1", "1e-2", "1e-3", "1e-4", "1e-5", "1e-6",
            ],
        );
        let systems: Vec<String> = {
            let mut seen = Vec::new();
            for r in &rows {
                if !seen.contains(&r.system) {
                    seen.push(r.system.clone());
                }
            }
            seen
        };
        for kind in kinds {
            for sys in &systems {
                let mut cells = vec![kind.name().to_string(), sys.clone()];
                for rel in RELS {
                    let r = rows
                        .iter()
                        .find(|r| r.dataset == kind.name() && &r.system == sys && r.rel == rel)
                        .expect("row exists");
                    cells.push(if panel == "throughput" {
                        format!("{:.2}", r.gbps)
                    } else {
                        format!("{:.1}%", r.extra_ratio * 100.0)
                    });
                }
                t.row(&cells);
            }
        }
        t.print();
    }

    // Headline factor: HP-MDR (H100 model) vs best *measured* baseline.
    let mut hp_avg = 0.0;
    let mut best_base_avg = 0.0;
    let mut n = 0.0;
    for kind in kinds {
        for rel in RELS {
            let hp = rows
                .iter()
                .find(|r| {
                    r.dataset == kind.name() && r.system.starts_with("HP-MDR") && r.rel == rel
                })
                .expect("hp row");
            let best = rows
                .iter()
                .filter(|r| {
                    r.dataset == kind.name()
                        && r.rel == rel
                        && (r.system.starts_with("M-") || r.system.starts_with("MDR-CPU"))
                })
                .map(|r| r.gbps)
                .fold(0.0f64, f64::max);
            hp_avg += hp.gbps;
            best_base_avg += best;
            n += 1.0;
        }
    }
    println!(
        "\naverage throughput: HP-MDR(model) {:.1} GB/s vs best baseline {:.1} GB/s -> {:.1}x",
        hp_avg / n,
        best_base_avg / n,
        hp_avg / best_base_avg
    );
    println!("(paper: 11.9 GB/s vs 1.8 GB/s -> 6.6x over M-MGARD)");

    let json: Vec<_> = rows
        .iter()
        .map(|r| {
            serde_json::json!({
                "dataset": r.dataset, "system": r.system, "rel": r.rel,
                "gbps": r.gbps, "extra_ratio": r.extra_ratio,
            })
        })
        .collect();
    hpmdr_repro::write_json("fig11", &json);
}
