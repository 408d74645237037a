//! Manifests that lie about their streams' geometry. Every stored
//! artifact — a serialized file or a chunked store's `manifest.json` —
//! passes one structural gate when it is opened, and a field that no
//! writer could have produced must come back as [`MdrError::Corrupt`]
//! there, never as a panic in a decode kernel on the first query. Each
//! test below edits one field of an otherwise valid `f64` archive, the
//! type with the most planes, in both flavors.

use hpmdr_core::prelude::*;
use hpmdr_core::refactor::{refactor, RefactorConfig};
use hpmdr_core::serialize::{from_bytes, to_bytes};
use serde_json::Value;
use std::path::PathBuf;

const SHAPE: [usize; 2] = [40, 36];

fn field() -> Vec<f64> {
    (0..SHAPE[0] * SHAPE[1])
        .map(|i| ((i / SHAPE[1]) as f64 * 0.17).sin() * 3.0 + ((i % SHAPE[1]) as f64 * 0.29).cos())
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hpmdr_corrupt_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `v[name]`, mutably (the JSON shim's `Value` has no `IndexMut`).
fn field_mut<'a>(v: &'a mut Value, name: &str) -> &'a mut Value {
    match v {
        Value::Object(pairs) => pairs
            .iter_mut()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no field {name}")),
        other => panic!("{other:?} is not an object"),
    }
}

fn array_mut(v: &mut Value) -> &mut Vec<Value> {
    match v {
        Value::Array(items) => items,
        other => panic!("{other:?} is not an array"),
    }
}

fn uint(v: &Value) -> u64 {
    v.as_u64().expect("an unsigned field")
}

/// The last (finest, largest) level group's stream of one header.
fn last_stream(header: &mut Value) -> &mut Value {
    let streams = array_mut(field_mut(header, "streams"));
    streams.last_mut().expect("a header lists its streams")
}

/// A serialized `f64` archive whose JSON header went through `edit`.
fn serialized_with(edit: &dyn Fn(&mut Value)) -> Vec<u8> {
    let bytes = to_bytes(&refactor(&field(), &SHAPE, &RefactorConfig::default()));
    let json_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    let mut header: Value = serde_json::from_slice(&bytes[16..16 + json_len]).unwrap();
    edit(&mut header);
    let json = serde_json::to_vec(&header).unwrap();
    let mut out = bytes[..8].to_vec();
    out.extend_from_slice(&(json.len() as u64).to_le_bytes());
    out.extend_from_slice(&json);
    out.extend_from_slice(&bytes[16 + json_len..]);
    out
}

/// A chunked `f64` store whose first chunk's header went through `edit`.
fn chunked_store_with(tag: &str, edit: &dyn Fn(&mut Value)) -> PathBuf {
    let artifact = MdrConfig::new()
        .chunked(&[16, 16])
        .build()
        .refactor(&field(), &SHAPE)
        .unwrap();
    let dir = scratch(tag);
    artifact.write_store(&dir).unwrap();
    let path = dir.join("manifest.json");
    let mut manifest: Value = serde_json::from_slice(&std::fs::read(&path).unwrap()).unwrap();
    edit(&mut array_mut(field_mut(&mut manifest, "chunks"))[0]);
    std::fs::write(&path, serde_json::to_vec(&manifest).unwrap()).unwrap();
    dir
}

/// Opening `edit`'s archive, as a serialized file and as a chunked
/// store, is a `Corrupt` error naming `needle`.
fn assert_corrupt(tag: &str, edit: &dyn Fn(&mut Value), needle: &str) {
    let check = |err: MdrError, flavor: &str| {
        assert!(
            matches!(&err, MdrError::Corrupt(why) if why.contains(needle)),
            "{tag}, {flavor}: expected Corrupt naming {needle:?}, got {err}"
        );
    };
    let bytes = serialized_with(edit);
    check(from_bytes(&bytes).expect_err("from_bytes"), "from_bytes");
    let dir = scratch(&format!("{tag}_file"));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("archive.hpmdr");
    std::fs::write(&file, &bytes).unwrap();
    check(open_store(&file).err().expect("open_store"), "file");
    let _ = std::fs::remove_dir_all(&dir);

    let dir = chunked_store_with(tag, edit);
    check(open_store(&dir).err().expect("open_store"), "chunked");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unedited_archive_opens_and_answers_in_both_flavors() {
    let unchanged = |_: &mut Value| {};
    let bytes = serialized_with(&unchanged);
    let dir = scratch("intact_file");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("archive.hpmdr");
    std::fs::write(&file, &bytes).unwrap();
    let chunked = chunked_store_with("intact", &unchanged);
    for path in [&file, &chunked] {
        let store = open_store(path).unwrap();
        let approx = Reader::new(&*store)
            .retrieve::<f64>(&Query::full(Target::Rel(1e-6)))
            .unwrap();
        assert_eq!(approx.data.len(), SHAPE[0] * SHAPE[1], "{path:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&chunked);
}

#[test]
fn a_group_length_the_hierarchy_does_not_give_is_corrupt() {
    // One more element than the group holds: the plane byte size does not
    // change, so only the hierarchy can tell. This used to panic in
    // `inject_levels` on the first query.
    let edit = |h: &mut Value| {
        let n = field_mut(last_stream(h), "n");
        *n = Value::UInt(uint(n) + 1);
    };
    assert_corrupt("n", &edit, "elements, the hierarchy gives");
}

#[test]
fn a_zero_group_size_is_corrupt() {
    let edit = |h: &mut Value| *field_mut(last_stream(h), "group_size") = Value::UInt(0);
    assert_corrupt("group_size", &edit, "0 planes per unit");
}

#[test]
fn more_planes_than_the_element_type_holds_is_corrupt() {
    // 68 planes in 17 units of 4 — a consistent unit count, so only the
    // dtype's 64-plane limit rejects it (the decoder's plane offset
    // would underflow).
    let edit = |h: &mut Value| {
        let s = last_stream(h);
        *field_mut(s, "num_planes") = Value::UInt(68);
        *field_mut(s, "group_size") = Value::UInt(4);
        let units = array_mut(field_mut(s, "units"));
        let last = units.last().cloned().expect("a stream has units");
        units.resize(17, last);
    };
    assert_corrupt("num_planes", &edit, "f64 holds at most 64");
}

#[test]
fn a_unit_count_that_does_not_cover_the_planes_is_corrupt() {
    let edit = |h: &mut Value| {
        let s = last_stream(h);
        let planes = field_mut(s, "num_planes");
        *planes = Value::UInt(uint(planes) - 8);
    };
    assert_corrupt("units", &edit, "units for");
}

#[test]
fn a_plane_byte_size_the_layout_does_not_give_is_corrupt() {
    let edit = |h: &mut Value| {
        let bytes = field_mut(last_stream(h), "plane_bytes");
        *bytes = Value::UInt(uint(bytes) + 4);
    };
    assert_corrupt("plane_bytes", &edit, "-byte planes");
}

#[test]
fn a_hierarchy_that_does_not_fit_the_shape_is_corrupt() {
    let edit = |h: &mut Value| {
        let hierarchy = field_mut(h, "hierarchy");
        let shape = array_mut(field_mut(hierarchy, "shape"));
        shape.push(Value::UInt(1));
    };
    assert_corrupt("hierarchy", &edit, "does not fit shape");
}

#[test]
fn an_unknown_element_type_is_corrupt() {
    let edit = |h: &mut Value| *field_mut(h, "dtype") = Value::Str("f16".to_string());
    assert_corrupt("dtype", &edit, "unsupported element type");
}
