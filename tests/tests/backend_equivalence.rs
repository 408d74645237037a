//! Property tests: the executor's widths are interchangeable.
//!
//! HP-MDR's portability guarantee is that refactored data is
//! byte-identical regardless of the producing device; for the executor
//! layer that means [`CpuBackend`] at any thread width must produce
//! bit-identical `Refactored` artifacts and identical retrieval error
//! bounds on arbitrary inputs.

use hpmdr_core::refactor::refactor_with;
use hpmdr_core::{
    CpuBackend, ExecCtx, MdrConfig, RefactorConfig, RetrievalPlan, RetrievalSession, SliceSource,
};
use hpmdr_tests::store_files;
use proptest::prelude::*;

fn random_field(nx: usize, ny: usize, seed: u32) -> Vec<f32> {
    let mut s = seed | 1;
    (0..nx * ny)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            (s as f32 / u32::MAX as f32 - 0.5) * 16.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn backends_produce_bit_identical_artifacts(
        nx in 4usize..28,
        ny in 4usize..28,
        seed in any::<u32>(),
        group_size in 2usize..=8,
        correction in any::<bool>(),
    ) {
        let data = random_field(nx, ny, seed);
        let mut config = RefactorConfig::default();
        config.hybrid.group_size = group_size;
        config.correction = correction;

        let ctx = ExecCtx::default();
        let scalar = refactor_with(&data, &[nx, ny], &config, &CpuBackend::with_threads(1), &ctx);
        let parallel = refactor_with(
            &data,
            &[nx, ny],
            &config,
            &CpuBackend::with_threads(4),
            &ctx,
        );

        // Bit-identical artifacts: same streams, same payload bytes.
        prop_assert_eq!(&scalar, &parallel);
        prop_assert_eq!(
            hpmdr_core::serialize::to_bytes(&scalar),
            hpmdr_core::serialize::to_bytes(&parallel)
        );
    }

    #[test]
    fn backends_agree_on_retrieval_bounds_and_output(
        nx in 4usize..24,
        ny in 4usize..24,
        seed in any::<u32>(),
        rel in 1e-5f64..1e-1,
    ) {
        let data = random_field(nx, ny, seed);
        let config = RefactorConfig::default();
        let ctx = ExecCtx::default();
        let scalar = refactor_with(&data, &[nx, ny], &config, &CpuBackend::with_threads(1), &ctx);
        let parallel = refactor_with(
            &data,
            &[nx, ny],
            &config,
            &CpuBackend::with_threads(3),
            &ctx,
        );

        let eb = rel * scalar.value_range.max(1e-9);
        let (plan_s, bound_s) = RetrievalPlan::for_error(&scalar, eb);
        let (plan_p, bound_p) = RetrievalPlan::for_error(&parallel, eb);
        prop_assert_eq!(&plan_s, &plan_p, "plans must match");
        prop_assert_eq!(bound_s, bound_p, "guaranteed bounds must match");

        // Reconstructing the scalar artifact on the parallel backend (and
        // vice versa) must give identical floats: retrieval kernels are
        // backend-interchangeable too.
        let mut sess_sp = RetrievalSession::with_backend(&scalar, CpuBackend::with_threads(3));
        sess_sp.refine_to(&plan_s);
        let rec_sp: Vec<f32> = sess_sp.reconstruct();

        let mut sess_ss = RetrievalSession::new(&scalar);
        sess_ss.refine_to(&plan_s);
        let rec_ss: Vec<f32> = sess_ss.reconstruct();

        prop_assert_eq!(&rec_sp, &rec_ss);
        prop_assert_eq!(sess_sp.error_bound(), sess_ss.error_bound());
    }

    #[test]
    fn chunked_stores_are_byte_identical_across_backends(
        nx in 8usize..24,
        ny in 8usize..24,
        cx in 3usize..10,
        cy in 3usize..10,
        seed in any::<u32>(),
        case in any::<u64>(),
    ) {
        // The portability guarantee extends to the chunk grid: a sharded
        // store refactored one thread wide and one refactored four wide
        // (chunk-level fan-out included) must be
        // byte-identical on disk, file for file.
        let data = random_field(nx, ny, seed);
        let config = MdrConfig::new().chunked(&[cx, cy]);
        let refactor = |threads| {
            config
                .clone()
                .build_with(CpuBackend::with_threads(threads))
                .refactor(&data, &[nx, ny])
                .unwrap()
        };
        let (scalar, parallel) = (refactor(1), refactor(4));
        prop_assert_eq!(&scalar, &parallel);

        let base = std::env::temp_dir().join(format!(
            "hpmdr_chunk_equiv_{}_{case}",
            std::process::id()
        ));
        let (dir_s, dir_p) = (base.join("scalar"), base.join("parallel"));
        let _ = std::fs::remove_dir_all(&base);
        scalar.write_store(&dir_s).unwrap();
        parallel.write_store(&dir_p).unwrap();

        let mut names: Vec<String> = std::fs::read_dir(&dir_s)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        let mut names_p: Vec<String> = std::fs::read_dir(&dir_p)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names_p.sort();
        prop_assert_eq!(&names, &names_p, "same file set");
        let num_chunks = scalar.as_chunked().unwrap().grid.num_chunks();
        prop_assert!(names.len() == num_chunks + 1, "shards + manifest");
        for name in &names {
            let a = std::fs::read(dir_s.join(name)).unwrap();
            let b = std::fs::read(dir_p.join(name)).unwrap();
            prop_assert_eq!(a, b, "file {} differs across backends", name);
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn ingested_stores_are_byte_identical_across_backends_and_schedules(
        nx in 8usize..20,
        ny in 8usize..20,
        cx in 3usize..8,
        cy in 3usize..8,
        seed in any::<u32>(),
        case in any::<u64>(),
    ) {
        // The portability guarantee extends to streaming ingest:
        // `Mdr::ingest` on any backend must write the same store the
        // one-thread whole-input path does — file for file. (Every slot
        // count at widths 1 and 4 is swept in-crate, in `core::ingest`'s
        // tests.)
        let data = random_field(nx, ny, seed);
        let config = MdrConfig::new().chunked(&[cx, cy]);
        let reference = config
            .clone()
            .build_with(CpuBackend::with_threads(1))
            .refactor(&data, &[nx, ny])
            .unwrap();
        let base = std::env::temp_dir().join(format!(
            "hpmdr_ingest_equiv_{}_{case}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&base);
        let dir_ref = base.join("reference");
        reference.write_store(&dir_ref).unwrap();
        let want = store_files(&dir_ref);

        for backend in ["one_thread", "host_wide"] {
            let dir = base.join(backend);
            let source = SliceSource::new(&data, &[nx, ny]).unwrap();
            let mdr = match backend {
                "one_thread" => config.clone().build_with(CpuBackend::with_threads(1)),
                _ => config.clone().build(),
            };
            mdr.ingest(source, &dir).unwrap();
            prop_assert_eq!(
                &want, &store_files(&dir),
                "{} ingest must match the whole-input store",
                backend
            );
        }
        let _ = std::fs::remove_dir_all(&base);
    }
}

/// Odd and tail-heavy extents stress every kernel's remainder handling:
/// sizes straddling the 32-element word and the 1024-element tile (the
/// tile fan's last tile is short and zero-padded), one thread wide and
/// four wide.
#[test]
fn width_four_matches_width_one_on_odd_and_tail_sizes() {
    let ctx = ExecCtx::default();
    let config = RefactorConfig::default();
    let (one, four) = (CpuBackend::with_threads(1), CpuBackend::with_threads(4));
    for &(nx, ny) in &[
        (1usize, 1usize),
        (1, 5),
        (3, 11),
        (31, 1),
        (32, 1),
        (33, 1),
        (5, 31),
        (8, 33),
        (63, 1),
        (65, 3),
        (7, 146),
        (41, 25),
    ] {
        let data = random_field(nx, ny, (nx * 131 + ny) as u32);
        let want = refactor_with(&data, &[nx, ny], &config, &one, &ctx);
        let got = refactor_with(&data, &[nx, ny], &config, &four, &ctx);
        assert_eq!(want, got, "widths 1 and 4 on {nx}x{ny}");
    }
}
