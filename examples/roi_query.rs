//! Region-of-interest queries over a sharded chunk store, on the façade
//! API: one `MdrConfig` covers chunked refactoring on the host-wide
//! default backend, `Artifact::write_store` persists the sharded layout,
//! `open_store` sniffs it back, and one `Reader` serves region-scoped
//! `Query`s — fetching only the unit prefixes of only the chunks each
//! query touches, with an exact achieved bound on every answer.
//!
//! Run with `cargo run -p hpmdr-examples --release --bin roi_query`.

use hpmdr_core::chunked::extract_region;
use hpmdr_core::prelude::*;
use hpmdr_datasets::{uniform_queries, Dataset, DatasetKind};
use hpmdr_examples::{human_bytes, linf_f32};

fn main() {
    let shape = vec![64usize, 64, 64];
    let ds = Dataset::generate_with_shape(DatasetKind::Jhtdb, &shape, 7);
    let data = ds.variables[0].as_f32();

    // 20³ chunks deliberately do not divide 64: boundary chunks clip.
    let mdr = MdrConfig::new().chunked(&[20, 20, 20]).build();
    let artifact = mdr.refactor(&data, &shape).expect("finite input");
    let cr = artifact.as_chunked().expect("chunked config");
    println!(
        "chunk-refactored {}³ field into {} chunks ({} grid), {} compressed",
        shape[0],
        cr.grid.num_chunks(),
        cr.grid
            .chunks_per_dim()
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join("x"),
        human_bytes(artifact.total_bytes()),
    );

    let dir = std::env::temp_dir().join(format!("hpmdr_roi_query_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let shards = artifact.write_store(&dir).expect("store writes");
    println!("wrote sharded store: {shards} shard files + manifest.json\n");

    let mut store = open_store(&dir).expect("store opens");
    let rel = 1e-3;
    let full = mdr
        .reader(store.as_mut())
        .retrieve::<f32>(&Query::full(Target::Rel(rel)))
        .expect("full-domain query");
    println!(
        "relative bound {rel:.0e} (abs {:.3e}); full-domain retrieval fetched {}",
        full.achieved,
        human_bytes(full.bytes_fetched)
    );

    for selectivity in [0.002f64, 0.02, 0.2] {
        let q = &uniform_queries(&shape, selectivity, 1, 11)[0];
        let region = Region::new(&q.start, &q.extent);

        let roi = mdr
            .reader(store.as_mut())
            .retrieve::<f32>(&Query::region(Target::Rel(rel), region.clone()))
            .expect("region query");

        let reference = extract_region(&data, &shape, &region);
        let err = linf_f32(&reference, &roi.data);
        println!(
            "query {:>5.1}% of domain at {:?}: fetched {:>10} ({:>5.2}% of full), \
             L∞ {err:.3e} ≤ bound {:.3e}",
            100.0 * selectivity,
            region.start,
            human_bytes(roi.bytes_fetched),
            100.0 * roi.bytes_fetched as f64 / full.bytes_fetched as f64,
            roi.achieved,
        );
        assert!(err <= roi.achieved, "bound violated");
        assert!(roi.exhausted || roi.achieved <= full.achieved.max(rel * artifact.value_range()));
        assert!(
            roi.bytes_fetched < full.bytes_fetched,
            "ROI must fetch fewer bytes than full domain"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
    println!("\nevery query honored its bound while fetching a fraction of the archive");
}
