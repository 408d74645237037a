//! Portability: the property HP-MDR's whole design serves — data
//! refactored by any processor type must be bit-identical, and therefore
//! reconstructable by any other processor type.

use hpmdr_bitplane::{encode, Layout};
use hpmdr_core::serialize::to_bytes;
use hpmdr_core::{refactor, RefactorConfig};
use hpmdr_datasets::DatasetKind;
use hpmdr_repro::mdr_cpu::MdrCpuBaseline;
use hpmdr_repro::{DesignKind, DeviceConfig, ShuffleInstr};
use hpmdr_tests::small_dataset;

#[test]
fn all_supported_designs_agree_on_both_devices() {
    let ds = small_dataset(DatasetKind::Jhtdb);
    let data = ds.variables[0].as_f32();
    let h100 = DeviceConfig::h100_like();
    let mi = DeviceConfig::mi250x_like();

    let designs = [
        DesignKind::locality_default(),
        DesignKind::RegisterShuffle(ShuffleInstr::Ballot),
        DesignKind::RegisterShuffle(ShuffleInstr::Shift),
        DesignKind::RegisterShuffle(ShuffleInstr::MatchAny),
        DesignKind::RegisterBlock,
    ];
    for d in designs {
        let a = d.encode_sim(&h100, &data, 32);
        let b = d.encode_sim(&mi, &data, 32);
        assert_eq!(a.chunk, b.chunk, "{}", d.label());
    }
    // Reduce-add exists only on the CUDA-like device, but where it runs it
    // must still produce the canonical stream.
    let ra = DesignKind::RegisterShuffle(ShuffleInstr::ReduceAdd).encode_sim(&h100, &data, 32);
    let canonical = encode(&data, 32, Layout::Natural);
    assert_eq!(ra.chunk, canonical);
}

#[test]
fn cross_layout_streams_reconstruct_identically() {
    let ds = small_dataset(DatasetKind::Miranda);
    let data = ds.variables[0].as_f32();
    for planes in [8usize, 20, 32] {
        let nat = encode(&data, planes, Layout::Natural);
        let ilv = encode(&data, planes, Layout::Interleaved32);
        for k in [1usize, planes / 2, planes] {
            let a: Vec<f32> =
                hpmdr_bitplane::decode_prefix(&nat, k, hpmdr_bitplane::Reconstruction::Truncate);
            let b: Vec<f32> =
                hpmdr_bitplane::decode_prefix(&ilv, k, hpmdr_bitplane::Reconstruction::Truncate);
            assert_eq!(a, b, "planes={planes} k={k}");
        }
    }
}

#[test]
fn serialized_artifact_is_thread_count_invariant() {
    // A single-core "most compatible processor" run and a parallel run
    // must produce byte-identical archives.
    let ds = small_dataset(DatasetKind::HurricaneIsabel);
    let data = ds.variables[0].as_f32();
    let cfg = RefactorConfig::default();

    let single = MdrCpuBaseline::new(1, cfg.clone()).refactor(&data, &ds.shape);
    let multi = refactor(&data, &ds.shape, &cfg);
    assert_eq!(to_bytes(&single), to_bytes(&multi));
}

#[test]
fn layout_choice_changes_bytes_but_not_semantics() {
    let ds = small_dataset(DatasetKind::Nyx);
    let data = ds.variables[0].as_f32();
    let cfg_nat = RefactorConfig {
        layout: Layout::Natural,
        ..RefactorConfig::default()
    };
    let cfg_ilv = RefactorConfig::default();

    let a = refactor(&data, &ds.shape, &cfg_nat);
    let b = refactor(&data, &ds.shape, &cfg_ilv);
    assert_ne!(
        to_bytes(&a),
        to_bytes(&b),
        "layouts must differ on the wire"
    );

    use hpmdr_core::{RetrievalPlan, RetrievalSession};
    for r in [&a, &b] {
        let mut s = RetrievalSession::new(r);
        s.refine_to(&RetrievalPlan::full(r));
        let rec: Vec<f32> = s.reconstruct();
        let err = data
            .iter()
            .zip(&rec)
            .map(|(x, y)| ((x - y).abs()) as f64)
            .fold(0.0, f64::max);
        assert!(err <= r.value_range * 1e-6);
    }
}
