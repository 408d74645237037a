//! Resolution-progressive access over an on-disk store.
//!
//! The MDR line is progressive in *precision* (bitplanes) and in
//! *resolution* (decomposition levels). This example archives a Miranda-
//! like f64 field as a store directory, then serves:
//!
//!  1. a thumbnail-resolution quick look,
//!  2. a mid-resolution preview,
//!  3. the full-resolution field under a tight error bound,
//!
//! reporting how many range reads and bytes each request actually
//! touched, and asserting that each coarser request fetched strictly
//! fewer bytes than the next finer one.
//!
//! ```text
//! cargo run -p hpmdr-examples --release --bin multiresolution_store
//! ```

use hpmdr_core::prelude::*;
use hpmdr_datasets::{Dataset, DatasetKind};
use hpmdr_examples::human_bytes;

fn main() -> Result<(), MdrError> {
    let ds = Dataset::generate(DatasetKind::Miranda, 31);
    let data = &ds.variables[0].data; // f64 hydrodynamics density
    println!("dataset: {} ({:?}, f64)", ds.kind.name(), ds.shape);

    // Archive once. A monolithic artifact is stored as one shard whose
    // level groups are contiguous, so a plan reads one range per group.
    let artifact = Mdr::with_defaults().refactor(data, &ds.shape)?;
    let dir = std::env::temp_dir().join(format!("hpmdr_multires_example_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let shards = artifact.write_store(&dir)?;
    println!(
        "archived {shards} shard, {} total\n",
        human_bytes(artifact.total_bytes())
    );

    let levels = artifact.as_monolithic().map_or(0, |r| r.hierarchy.levels);
    let requests = [
        ("thumbnail quick-look", levels.saturating_sub(1), 1e-2),
        ("mid-resolution preview", levels / 2, 1e-3),
        ("full-resolution analysis", 0usize, 1e-6),
    ];

    let mut fetched = Vec::new();
    for (label, level, rel_tol) in requests {
        // A fresh store per request, so its counters are this request's.
        let store = open_store(&dir)?;
        let approx = Reader::new(&*store)
            .retrieve::<f64>(&Query::resolution(Target::Rel(rel_tol), level))?;
        println!(
            "{label:<26} level {level} -> grid {:?}: {} range reads, {} read",
            approx.shape,
            store.requests(),
            human_bytes(approx.bytes_fetched)
        );
        assert_eq!(approx.data.len(), approx.shape.iter().product::<usize>());
        assert_eq!(approx.bytes_fetched, store.bytes_fetched());
        fetched.push(approx.bytes_fetched);
    }
    assert!(
        fetched.windows(2).all(|w| w[0] < w[1]),
        "each coarser request must fetch strictly fewer bytes: {fetched:?}"
    );

    println!("\nCoarser requests fetched strictly fewer bytes — resolution and");
    println!("precision progressiveness compose over the same archive.");
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
