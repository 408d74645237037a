//! Failure injection: corrupt inputs and damaged streams must fail loudly
//! and precisely, never silently reconstruct wrong data — and every
//! failure surfaces as a *matchable* [`MdrError`] variant, not a message
//! substring.

use hpmdr_core::serialize::{from_bytes, to_bytes};
use hpmdr_core::{refactor, MdrError, RefactorConfig};
use hpmdr_tests::small_dataset;

fn sample_bytes() -> Vec<u8> {
    let ds = small_dataset(hpmdr_datasets::DatasetKind::Jhtdb);
    let data = ds.variables[0].as_f32();
    to_bytes(&refactor(&data, &ds.shape, &RefactorConfig::default()))
}

#[test]
fn nan_input_is_rejected_at_refactor_time() {
    let mut data = vec![1.0f32; 64];
    data[17] = f32::NAN;
    let result = std::panic::catch_unwind(|| refactor(&data, &[8, 8], &RefactorConfig::default()));
    assert!(result.is_err(), "NaN must be rejected, not encoded");
}

#[test]
fn infinity_input_is_rejected() {
    let mut data = vec![1.0f64; 27];
    data[0] = f64::INFINITY;
    let result =
        std::panic::catch_unwind(|| refactor(&data, &[3, 3, 3], &RefactorConfig::default()));
    assert!(result.is_err());
}

#[test]
fn every_truncation_point_is_detected() {
    let bytes = sample_bytes();
    // Cut at a spread of points through header and payload.
    for frac in [0.0, 0.001, 0.01, 0.3, 0.7, 0.999] {
        let cut = (bytes.len() as f64 * frac) as usize;
        assert!(
            from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut}/{} must error",
            bytes.len()
        );
    }
}

#[test]
fn header_bitflips_are_detected_or_harmless() {
    let bytes = sample_bytes();
    let json_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    // Flip bytes inside the JSON header; each flip must either fail to
    // parse or produce a structurally valid header (never panic).
    for pos in (16..16 + json_len).step_by(97) {
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= 0xff;
        let _ = from_bytes(&corrupted); // must not panic
    }
}

#[test]
fn magic_and_version_are_enforced() {
    let bytes = sample_bytes();
    let mut wrong = bytes.clone();
    wrong[5] = 0x7f; // version byte
    assert!(from_bytes(&wrong).is_err());
    assert!(from_bytes(b"not a stream").is_err());
    assert!(from_bytes(&[]).is_err());
}

#[test]
fn oversized_json_length_is_rejected() {
    let bytes = sample_bytes();
    let mut huge = bytes.clone();
    huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(from_bytes(&huge).is_err());
}

#[test]
fn corrupted_payload_fails_on_decode_not_silently() {
    let bytes = sample_bytes();
    let parsed = from_bytes(&bytes).expect("intact parses");
    // Corrupt a compressed Huffman/RLE payload and attempt reconstruction:
    // structural decoders must panic (caught here), not return garbage of
    // the wrong length.
    let mut damaged = parsed.clone();
    let mut corrupted_any = false;
    for s in &mut damaged.streams {
        for u in &mut s.units {
            if u.codec != hpmdr_lossless::Codec::Direct && u.payload.len() > 64 {
                let mid = u.payload.len() / 2;
                u.payload.truncate(mid);
                corrupted_any = true;
                break;
            }
        }
        if corrupted_any {
            break;
        }
    }
    if corrupted_any {
        let outcome = std::panic::catch_unwind(|| {
            use hpmdr_core::{RetrievalPlan, RetrievalSession};
            let mut sess = RetrievalSession::new(&damaged);
            sess.refine_to(&RetrievalPlan::full(&damaged));
            sess.reconstruct::<f32>()
        });
        assert!(outcome.is_err(), "damaged payload must not decode quietly");

        // The fallible path reports the same damage as an error instead
        // of aborting — what store-backed readers rely on. Truncated
        // entropy payloads are decode errors (or length-mismatch
        // corruption), never a panic and never a stringly error.
        use hpmdr_core::{RetrievalPlan, RetrievalSession};
        let mut sess = RetrievalSession::new(&damaged);
        let err = sess
            .try_refine_to(&RetrievalPlan::full(&damaged))
            .expect_err("damage must surface as Err");
        assert!(
            matches!(err, MdrError::Decode { .. } | MdrError::Corrupt(_)),
            "{err}"
        );
    }
}

#[test]
fn facade_reader_reports_shard_damage_with_the_same_variants() {
    use hpmdr_core::prelude::*;

    let ds = small_dataset(hpmdr_datasets::DatasetKind::Jhtdb);
    let data = ds.variables[0].as_f32();
    let artifact = MdrConfig::new()
        .chunked(&[7, 7, 7])
        .build()
        .refactor(&data, &ds.shape)
        .unwrap();
    let dir = std::env::temp_dir().join(format!("hpmdr_fi_facade_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    artifact.write_store(&dir).unwrap();

    // Truncate one shard: any query touching it must fail readably.
    let shard = dir.join("c0.shard");
    let bytes = std::fs::read(&shard).unwrap();
    std::fs::write(&shard, &bytes[..bytes.len() / 3]).unwrap();

    let mut store = open_store(&dir).unwrap();
    let err = Reader::new(store.as_mut())
        .retrieve::<f32>(&Query::full(Target::Rel(1e-6)))
        .err()
        .unwrap();
    // A truncated shard surfaces as archive damage: either the range
    // read runs past the file (Corrupt) or the shortened payload fails
    // entropy decoding (Decode). Never Io-with-a-panic, never a string.
    assert!(
        matches!(err, MdrError::Corrupt(_) | MdrError::Decode { .. }),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn opening_a_missing_or_empty_store_is_a_readable_error() {
    use hpmdr_core::prelude::*;

    // Nothing at the path at all: InvalidInput naming the path and what
    // a valid store looks like — not a raw Io error about manifest.json.
    let missing = std::env::temp_dir().join(format!("hpmdr_fi_missing_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&missing);
    let err = open_store(&missing).err().unwrap();
    assert!(
        matches!(&err, MdrError::InvalidInput(w)
            if w.contains(&missing.display().to_string())
                && w.contains("manifest.json")
                && w.contains("shard")),
        "{err}"
    );

    // A directory that exists but holds no manifest: same class.
    std::fs::create_dir_all(&missing).unwrap();
    let err = open_store(&missing).err().unwrap();
    assert!(matches!(&err, MdrError::InvalidInput(_)), "{err}");

    // A manifest that is present but unreadable garbage stays Corrupt —
    // the not-found mapping must not swallow real damage.
    std::fs::write(missing.join("manifest.json"), b"not a manifest").unwrap();
    let err = open_store(&missing).err().unwrap();
    assert!(matches!(&err, MdrError::Corrupt(_)), "{err}");

    let _ = std::fs::remove_dir_all(&missing);
}

#[test]
fn opening_a_remote_store_without_a_manifest_names_the_url_and_status() {
    use hpmdr_core::prelude::*;
    use hpmdr_netstore::LoopbackShardServer;

    // A reachable server with nothing behind it: the remote mirror of
    // the missing-path case above. InvalidInput naming the URL and the
    // HTTP status the manifest fetch died with — not a bare transport
    // error about a connection the caller never opened.
    let empty = std::env::temp_dir().join(format!("hpmdr_fi_remote_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&empty);
    std::fs::create_dir_all(&empty).unwrap();
    let server = LoopbackShardServer::serve(&empty).unwrap();
    let url = server.url();

    let err = open_store(std::path::Path::new(&url)).err().unwrap();
    assert!(
        matches!(&err, MdrError::InvalidInput(w)
            if w.contains(&url) && w.contains("manifest.json") && w.contains("404")),
        "{err}"
    );

    // https is refused up front with a matchable variant, no sockets.
    let err = open_store(std::path::Path::new("https://example.invalid/store"))
        .err()
        .unwrap();
    assert!(matches!(&err, MdrError::Unsupported(_)), "{err}");

    // Remote garbage stays Corrupt, exactly like the local case.
    std::fs::write(empty.join("manifest.json"), b"not a manifest").unwrap();
    let err = open_store(std::path::Path::new(&url)).err().unwrap();
    assert!(matches!(&err, MdrError::Corrupt(_)), "{err}");

    drop(server);
    let _ = std::fs::remove_dir_all(&empty);
}

#[test]
fn version_mismatch_is_a_matchable_variant_end_to_end() {
    use hpmdr_core::prelude::*;

    let ds = small_dataset(hpmdr_datasets::DatasetKind::Jhtdb);
    let data = ds.variables[0].as_f32();
    let artifact = MdrConfig::new()
        .chunked(&[8, 8, 8])
        .build()
        .refactor(&data, &ds.shape)
        .unwrap();
    let dir = std::env::temp_dir().join(format!("hpmdr_fi_version_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    artifact.write_store(&dir).unwrap();

    // Bump the manifest's declared version past what this build reads.
    let path = dir.join("manifest.json");
    let raw = std::fs::read(&path).unwrap();
    let text = String::from_utf8(raw).unwrap();
    let future = hpmdr_core::serialize::MANIFEST_VERSION + 1;
    let bumped = text.replacen(
        &format!("\"version\":{}", hpmdr_core::serialize::MANIFEST_VERSION),
        &format!("\"version\":{future}"),
        1,
    );
    assert_ne!(text, bumped, "manifest must carry a version field");
    std::fs::write(&path, bumped).unwrap();

    let err = open_store(&dir).err().unwrap();
    assert!(
        matches!(err, MdrError::VersionMismatch { found, .. } if found == future),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
