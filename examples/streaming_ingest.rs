//! Streaming ingest into a sharded store, then growing it by a
//! time-series slab — all under a bounded staging budget.
//!
//! Each of the backend's worker loops pulls the next chunk from the
//! [`ChunkSource`], refactors it whole, and the shards are flushed in
//! chunk order by whichever loop finishes the oldest chunk. A slot gate
//! keeps at most `lookahead` chunks staged, so peak memory is
//! O(lookahead × chunk) no matter how large the source is — the example
//! ingests 48 chunks and prints the measured high-water mark against its
//! bound. The
//! manifest commits atomically at the end; the appended store then
//! serves concurrent clients through one shared [`Reader`], answering
//! exactly like a one-shot refactor of the whole grown domain.
//!
//! ```text
//! cargo run -p hpmdr-examples --release --bin streaming_ingest
//! ```

use hpmdr_core::prelude::*;
use hpmdr_core::roi::Region;
use hpmdr_datasets::{Dataset, DatasetKind};
use hpmdr_examples::human_bytes;

fn main() -> Result<(), MdrError> {
    let shape = vec![24usize, 32, 32];
    let ds = Dataset::generate_with_shape(DatasetKind::Jhtdb, &shape, 5);
    let data = ds.variables[0].as_f32();

    let mdr = MdrConfig::new().chunked(&[8, 8, 8]).build();
    let dir = std::env::temp_dir().join(format!("hpmdr_streaming_ingest_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let report = mdr.ingest(SliceSource::new(&data, &shape)?, &dir)?;
    println!(
        "ingested {:?}: {} chunks, {} written",
        report.shape,
        report.chunks_written,
        human_bytes(report.bytes_written)
    );
    println!(
        "  peak staged {} ≤ bound {} (lookahead {} × max chunk footprint {})",
        human_bytes(report.peak_staged_bytes),
        human_bytes(report.staging_bound_bytes()),
        report.lookahead,
        human_bytes(report.max_chunk_footprint_bytes)
    );
    assert!(report.peak_staged_bytes <= report.staging_bound_bytes());

    // A later timestep arrives: grow the store along dimension 0. The
    // slab streams through the same bounded pipeline, and the grown
    // manifest replaces the old one atomically only at the end.
    let slab_shape = vec![8usize, 32, 32];
    let slab = Dataset::generate_with_shape(DatasetKind::Jhtdb, &slab_shape, 7);
    let slab_data = slab.variables[0].as_f32();
    let report = mdr.append(&dir, SliceSource::new(&slab_data, &slab_shape)?)?;
    println!(
        "appended {:?}: now {} chunks, peak staged {} ≤ bound {}",
        slab_shape,
        report.chunks_written + 48, // 3×4×4 chunks were already stored
        human_bytes(report.peak_staged_bytes),
        human_bytes(report.staging_bound_bytes())
    );
    assert_eq!(report.shape, vec![32, 32, 32]);
    assert!(report.peak_staged_bytes <= report.staging_bound_bytes());

    // Query the grown store concurrently: a region straddling the old
    // and new chunks, and a full-domain pass, from four clients.
    let shared = mdr.open_shared(&dir)?;
    let straddle = Query::region(
        Target::AbsError(1e-3),
        Region::new(&[20, 4, 4], &[10, 20, 20]),
    );
    let full = Query::full(Target::AbsError(1e-2));
    let serial_region = shared.retrieve::<f32>(&straddle)?;
    let serial_full = shared.retrieve::<f32>(&full)?;
    std::thread::scope(|s| {
        for _ in 0..4 {
            let client = shared.clone();
            let (straddle, full) = (&straddle, &full);
            let (want_r, want_f) = (&serial_region, &serial_full);
            s.spawn(move || {
                let r = client.retrieve::<f32>(straddle).expect("region serves");
                let f = client.retrieve::<f32>(full).expect("full serves");
                assert_eq!(r.data, want_r.data, "concurrent answers must agree");
                assert_eq!(f.data, want_f.data);
            });
        }
    });
    println!(
        "4 clients agree: region ⌈ε⌉ = {:.2e}, full ⌈ε⌉ = {:.2e}",
        serial_region.achieved, serial_full.achieved
    );

    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
