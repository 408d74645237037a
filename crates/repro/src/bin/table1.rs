//! Table 1: datasets used for evaluation (paper extents vs. this
//! reproduction's scaled synthetic equivalents).

use hpmdr_datasets::{Dataset, DatasetKind};
use hpmdr_repro::report::fmt;
use hpmdr_repro::Table;

fn main() {
    let mut t = Table::new(
        "Table 1: evaluation datasets (synthetic equivalents)",
        &[
            "Dataset",
            "n_v",
            "Paper dims",
            "Repro dims",
            "Type",
            "Paper size",
            "Repro size",
        ],
    );
    let mut rows = Vec::new();
    for kind in DatasetKind::TABLE1 {
        let ds = Dataset::generate(kind, 2026);
        let paper = kind.paper_shape();
        let elem: usize = if kind.dtype() == "f64" { 8 } else { 4 };
        let paper_bytes: usize = paper.iter().product::<usize>() * elem * kind.num_variables();
        t.row(&[
            kind.name().to_string(),
            kind.num_variables().to_string(),
            format!("{paper:?}"),
            format!("{:?}", ds.shape),
            kind.dtype().to_string(),
            format!("{:.2} GB", paper_bytes as f64 / 1e9),
            format!("{:.2} MB", ds.native_bytes() as f64 / 1e6),
        ]);
        rows.push(serde_json::json!({
            "dataset": kind.name(),
            "nv": kind.num_variables(),
            "paper_shape": paper,
            "repro_shape": ds.shape,
            "dtype": kind.dtype(),
            "paper_bytes": paper_bytes,
            "repro_bytes": ds.native_bytes(),
            "value_range_var0": fmt(
                ds.variables[0].data.iter().cloned().fold(f64::MIN, f64::max)
                    - ds.variables[0].data.iter().cloned().fold(f64::MAX, f64::min)
            ),
        }));
    }
    t.print();
    hpmdr_repro::write_json("table1", &rows);
    println!("\n(Each dataset is a seeded synthetic field matching the structural");
    println!(" properties of the original; see DESIGN.md for the substitutions.)");
}
