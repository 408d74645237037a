//! Property tests of region-of-interest retrieval over chunk grids.
//!
//! The contract under test: for any 1–3D domain, any chunk extent
//! (dividing the domain or not), any in-domain region, and either
//! executor backend, the reconstructed region
//!
//! 1. meets the requested L∞ error bound at every point (against the
//!    original data, up to the planner's reported bound when chunks are
//!    exhausted),
//! 2. equals the same region sliced out of a full-domain reconstruction
//!    at the same bound (per-chunk planning is deterministic, so ROI
//!    answers are consistent with whole-field answers), and
//! 3. is identical between [`CpuBackend`]s one and three threads wide,
//!    in memory and through the sharded store.
//!
//! Every answer is a [`Reader`] serving `Query::region` from an
//! [`InMemoryStore`] or a [`ChunkedStoreReader`].

use hpmdr_core::chunked::{extract_region, ChunkedConfig, ChunkedRefactored};
use hpmdr_core::prelude::{Artifact, InMemoryStore, MdrConfig, Query, Reader, Target};
use hpmdr_core::roi::{Region, RoiRequest};
use hpmdr_core::storage::{write_chunked_store, ChunkedStoreReader};
use hpmdr_core::CpuBackend;
use proptest::prelude::*;

/// Chunk-refactor `data` in `extent` chunks on `backend`.
fn chunked_on(
    data: &[f32],
    shape: &[usize],
    extent: &[usize],
    backend: CpuBackend,
) -> ChunkedRefactored {
    let artifact = MdrConfig::new()
        .chunked(extent)
        .build_with(backend)
        .refactor(data, shape)
        .unwrap();
    let Artifact::Chunked(cr) = artifact else {
        panic!("a chunked configuration refactors to a chunked artifact");
    };
    cr
}

fn random_field(n: usize, seed: u32) -> Vec<f32> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            (s as f32 / u32::MAX as f32 - 0.5) * 8.0
        })
        .collect()
}

/// Derive an in-domain region from raw entropy words.
fn region_from(shape: &[usize], words: u64) -> Region {
    let mut w = words | 1;
    let mut next = || {
        w = w
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (w >> 33) as usize
    };
    let start: Vec<usize> = shape.iter().map(|&n| next() % n).collect();
    let extent: Vec<usize> = shape
        .iter()
        .zip(&start)
        .map(|(&n, &s)| 1 + next() % (n - s))
        .collect();
    Region::new(&start, &extent)
}

fn scratch(tag: &str, case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hpmdr_roi_{tag}_{}_{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn roi_meets_bound_and_matches_full_domain_reference(
        ndims in 1usize..=3,
        dims_raw in prop::collection::vec(5usize..26, 3),
        extents_raw in prop::collection::vec(2usize..12, 3),
        seed in any::<u32>(),
        region_words in any::<u64>(),
        rel in 1e-5f64..1e-1,
        use_parallel in any::<bool>(),
    ) {
        let shape = &dims_raw[..ndims];
        let chunk_extent = &extents_raw[..ndims];
        let n: usize = shape.iter().product();
        let data = random_field(n, seed);

        let scalar = CpuBackend::with_threads(1);
        let cr = chunked_on(&data, shape, chunk_extent, scalar);

        let eb = rel * cr.value_range().max(1e-9);
        let region = region_from(shape, region_words);
        let query = Query::region(Target::AbsError(eb), region.clone());
        let memory = InMemoryStore::from(cr.clone());

        // (1) the achieved-bound contract, for real: unless a chunk ran
        // out of planes the reported bound meets the request, and every
        // point honors the *reported* bound (up to f32 recompose
        // rounding — the bound models bitplane truncation).
        let roi = Reader::with_backend(&memory, scalar).retrieve::<f32>(&query).unwrap();
        prop_assert_eq!(&roi.shape, &region.extent);
        prop_assert_eq!(roi.data.len(), region.len());
        if !roi.exhausted {
            prop_assert!(roi.achieved <= eb, "bound {} exceeds request {}", roi.achieved, eb);
        }
        let reference = extract_region(&data, shape, &region);
        let allowed = roi.achieved + 1e-6 * cr.value_range();
        for (i, (a, b)) in reference.iter().zip(&roi.data).enumerate() {
            prop_assert!(
                ((a - b).abs() as f64) <= allowed,
                "point {}: |{} - {}| > {} (eb {}, bound {})",
                i, a, b, allowed, eb, roi.achieved
            );
        }

        // (2) the ROI answer is the full-domain answer, sliced.
        let full = Reader::new(&memory)
            .retrieve::<f32>(&Query::full(Target::AbsError(eb)))
            .unwrap();
        let sliced = extract_region(&full.data, shape, &region);
        prop_assert_eq!(&roi.data, &sliced);

        // (3) the parallel backend gives the identical region.
        if use_parallel {
            let par = CpuBackend::with_threads(3);
            let cr_par = chunked_on(&data, shape, chunk_extent, par);
            prop_assert_eq!(&cr, &cr_par, "chunked artifacts must be bit-identical");
            let memory_par = InMemoryStore::from(cr_par);
            let roi_par = Reader::with_backend(&memory_par, par).retrieve::<f32>(&query).unwrap();
            prop_assert_eq!(&roi, &roi_par);
        }
    }

    #[test]
    fn store_roi_matches_memory_and_fetches_fewer_bytes(
        ndims in 2usize..=3,
        dims_raw in prop::collection::vec(8usize..22, 3),
        extents_raw in prop::collection::vec(3usize..9, 3),
        seed in any::<u32>(),
        region_words in any::<u64>(),
        case in any::<u64>(),
    ) {
        let shape = &dims_raw[..ndims];
        let chunk_extent = &extents_raw[..ndims];
        let n: usize = shape.iter().product();
        let data = random_field(n, seed);
        let cr = hpmdr_core::refactor_chunked(
            &data,
            shape,
            &ChunkedConfig::with_extent(chunk_extent),
        );

        let eb = 1e-3 * cr.value_range().max(1e-9);
        let region = region_from(shape, region_words);
        let req = RoiRequest::new(region.clone(), eb);
        let query = Query::region(Target::AbsError(eb), region);

        let dir = scratch("prop", case);
        write_chunked_store(&cr, &dir).unwrap();
        let reader = ChunkedStoreReader::open(&dir).unwrap();
        let from_store = Reader::new(&reader).retrieve::<f32>(&query).unwrap();
        let in_memory = Reader::new(&InMemoryStore::from(cr.clone()))
            .retrieve::<f32>(&query)
            .unwrap();
        // Data, shape, achieved bound, exhaustion and bytes fetched.
        prop_assert_eq!(&from_store, &in_memory);

        // The store fetched exactly the planned bytes, never more than
        // the archive holds; a proper sub-region on a multi-chunk grid
        // fetches strictly less than a full-domain retrieval.
        let plan =
            hpmdr_core::RoiPlan::for_request(reader.skeleton(), &req).unwrap();
        prop_assert_eq!(reader.bytes_read(), plan.fetch_bytes(&cr));
        prop_assert!(reader.bytes_read() <= cr.total_bytes());
        let full_plan = hpmdr_core::RoiPlan::for_request(
            reader.skeleton(),
            &RoiRequest::new(Region::whole(shape), eb),
        )
        .unwrap();
        if plan.num_chunks() < full_plan.num_chunks() {
            prop_assert!(plan.fetch_bytes(&cr) < full_plan.fetch_bytes(&cr));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
