//! Figure 8: performance and compressibility of the lossless strategies.
//!
//! (a) wall-clock compression/decompression throughput of all-Huffman,
//! all-RLE, and the hybrid strategy at rc ∈ {1, 2, 4}, over the *actual
//! encoded bitplane units* of the evaluation datasets;
//! (b) incremental data retrieval size when reconstructing to a range of
//! error tolerances under each strategy.
//!
//! Paper shape: Huffman smallest retrievals but slowest; RLE fast
//! compression but ~2.7× more retrieval data; hybrid rc=1 nearly matches
//! Huffman's sizes (~8% overhead) at several× the throughput, and larger
//! rc trades size for more speed (decompression especially).

use hpmdr_core::refactor::{refactor, RefactorConfig};
use hpmdr_core::retrieve::RetrievalPlan;
use hpmdr_datasets::{Dataset, DatasetKind};
use hpmdr_lossless::{Codec, CompressedGroup, HybridCompressor, HybridConfig};
use hpmdr_repro::report::fmt;
use hpmdr_repro::Table;
use std::time::Instant;

/// Collect the raw (uncompressed) merged-unit payloads of one variable.
fn raw_units(kind: DatasetKind) -> (Vec<Vec<u8>>, hpmdr_core::refactor::Refactored, usize) {
    let ds = Dataset::generate(kind, 11);
    let data = ds.variables[0].as_f32();
    // Store-direct configuration exposes the raw merged planes.
    let cfg = RefactorConfig {
        hybrid: HybridConfig {
            group_size: 4,
            size_threshold: usize::MAX,
            cr_threshold: 1.0,
        },
        ..RefactorConfig::default()
    };
    let r = refactor(&data, &ds.shape, &cfg);
    let mut units = Vec::new();
    for s in &r.streams {
        for u in &s.units {
            assert_eq!(u.codec, Codec::Direct);
            units.push(u.payload.clone());
        }
    }
    (units, r, data.len() * 4)
}

struct Strategy {
    name: &'static str,
    compressor: HybridCompressor,
    force: Option<Codec>,
}

fn strategies() -> Vec<Strategy> {
    vec![
        Strategy {
            name: "Huffman",
            compressor: HybridCompressor::new(HybridConfig::with_rc(1.0)),
            force: Some(Codec::Huffman),
        },
        Strategy {
            name: "RLE",
            compressor: HybridCompressor::new(HybridConfig::with_rc(1.0)),
            force: Some(Codec::Rle),
        },
        Strategy {
            name: "Hybrid-rc1",
            compressor: HybridCompressor::new(HybridConfig::with_rc(1.0)),
            force: None,
        },
        Strategy {
            name: "Hybrid-rc2",
            compressor: HybridCompressor::new(HybridConfig::with_rc(2.0)),
            force: None,
        },
        Strategy {
            name: "Hybrid-rc4",
            compressor: HybridCompressor::new(HybridConfig::with_rc(4.0)),
            force: None,
        },
    ]
}

fn main() {
    let kinds = [
        DatasetKind::Nyx,
        DatasetKind::Miranda,
        DatasetKind::HurricaneIsabel,
        DatasetKind::Jhtdb,
    ];
    let mut json = Vec::new();

    // ---------- (a) throughput -----------------------------------------
    let mut t = Table::new(
        "Figure 8a: lossless throughput (GB/s, host CPU wall-clock)",
        &["dataset", "strategy", "comp GB/s", "decomp GB/s", "ratio"],
    );
    let mut per_strategy_units: Vec<(DatasetKind, Vec<Vec<CompressedGroup>>)> = Vec::new();
    for kind in kinds {
        let (units, _r, _native) = raw_units(kind);
        let raw_bytes: usize = units.iter().map(Vec::len).sum();
        let mut dataset_compressed = Vec::new();
        for s in strategies() {
            let t0 = Instant::now();
            let compressed: Vec<CompressedGroup> = units
                .iter()
                .map(|u| match s.force {
                    Some(c) => s.compressor.compress_with(u, c),
                    None => s.compressor.compress(u),
                })
                .collect();
            let comp_dt = t0.elapsed().as_secs_f64();
            let stored: usize = compressed.iter().map(|g| g.stored_len()).sum();

            let t1 = Instant::now();
            for g in &compressed {
                std::hint::black_box(s.compressor.decompress(g).expect("self-produced group"));
            }
            let decomp_dt = t1.elapsed().as_secs_f64();

            let comp_gbps = raw_bytes as f64 / comp_dt / 1e9;
            let decomp_gbps = raw_bytes as f64 / decomp_dt / 1e9;
            t.row(&[
                kind.name().to_string(),
                s.name.to_string(),
                format!("{comp_gbps:.3}"),
                format!("{decomp_gbps:.3}"),
                format!("{:.2}", raw_bytes as f64 / stored as f64),
            ]);
            json.push(serde_json::json!({
                "panel": "a", "dataset": kind.name(), "strategy": s.name,
                "comp_gbps": comp_gbps, "decomp_gbps": decomp_gbps,
                "raw_bytes": raw_bytes, "stored_bytes": stored,
            }));
            dataset_compressed.push(compressed);
        }
        per_strategy_units.push((kind, dataset_compressed));
    }
    t.print();

    // ---------- (b) incremental retrieval size --------------------------
    let mut t = Table::new(
        "Figure 8b: retrieval size vs tolerance (bytes; % over Huffman)",
        &[
            "dataset",
            "rel tol",
            "Huffman",
            "RLE",
            "Hybrid-rc1",
            "Hybrid-rc2",
            "Hybrid-rc4",
        ],
    );
    for (kind, dataset_compressed) in &per_strategy_units {
        let (_, r, _) = raw_units(*kind);
        for rel in [1e-2, 1e-4, 1e-6] {
            let eb = rel * r.value_range;
            let (plan, _) = RetrievalPlan::for_error(&r, eb);
            // Map plan units back to flat unit indices per strategy.
            let mut sizes = Vec::new();
            for strat in dataset_compressed {
                let mut flat = 0usize;
                let mut bytes = 0usize;
                for (s, &u) in r.streams.iter().zip(&plan.units) {
                    for j in 0..s.num_units() {
                        if j < u {
                            bytes += strat[flat + j].stored_len();
                        }
                    }
                    flat += s.num_units();
                }
                sizes.push(bytes);
            }
            let base = sizes[0].max(1);
            let mut cells = vec![kind.name().to_string(), format!("{rel:.0e}")];
            for (i, &b) in sizes.iter().enumerate() {
                let pct = (b as f64 / base as f64 - 1.0) * 100.0;
                cells.push(if i == 0 {
                    format!("{b}")
                } else {
                    format!("{b} ({pct:+.0}%)")
                });
            }
            t.row(&cells);
            json.push(serde_json::json!({
                "panel": "b", "dataset": kind.name(), "rel_tol": rel,
                "sizes": sizes,
            }));
        }
    }
    t.print();
    hpmdr_repro::write_json("fig8", &json);

    // Overall summary like the paper's prose.
    let overhead = |sidx: usize| -> f64 {
        let mut tot = 0.0;
        let mut n = 0.0;
        for row in json.iter().filter(|j| j["panel"] == "b") {
            let sizes = row["sizes"].as_array().expect("sizes");
            let h = sizes[0].as_u64().expect("huffman") as f64;
            let s = sizes[sidx].as_u64().expect("strategy") as f64;
            if h > 0.0 {
                tot += s / h - 1.0;
                n += 1.0;
            }
        }
        100.0 * tot / n
    };
    println!(
        "\naverage extra retrieval vs Huffman: RLE {}%, rc1 {}%, rc2 {}%, rc4 {}%",
        fmt(overhead(1)),
        fmt(overhead(2)),
        fmt(overhead(3)),
        fmt(overhead(4))
    );
    println!("(paper: +270% RLE; +8% rc1; +70% rc2; +93% rc4)");
}
