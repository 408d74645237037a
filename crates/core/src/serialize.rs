//! Portable binary framing of refactored artifacts.
//!
//! Layout: an 8-byte magic, a JSON metadata header (everything except the
//! compressed payload bytes, plus a [`MANIFEST_VERSION`] schema version
//! checked with a readable error on mismatch), then the unit payloads
//! concatenated raw.
//! JSON keeps the header human-inspectable and schema-evolvable; payloads
//! stay binary so serialization is a straight copy. The format is
//! byte-identical regardless of the producing device — the portability
//! guarantee data refactored on one architecture needs to be retrievable
//! on any other.

use crate::error::MdrError;
use crate::refactor::{LevelStream, Refactored};
use hpmdr_bitplane::{BitplaneFloat, Layout};
use hpmdr_lossless::{Codec, CompressedGroup};
use hpmdr_mgard::grid::MAX_DIMS;
use hpmdr_mgard::Hierarchy;
use serde::{Deserialize, Serialize};

/// Stream magic: `HPMDR` + format version 1.
pub const MAGIC: &[u8; 8] = b"HPMDR\x01\0\0";

/// Newest manifest schema this build reads and the one it writes.
///
/// The version travels inside the JSON header (and the chunked-store
/// manifest), so a reader confronted with a future layout fails with a
/// readable "produced by a newer version" error instead of an opaque
/// field-level parse error.
pub const MANIFEST_VERSION: u32 = 1;

/// Typed rejection for manifests from a newer (or nonsensical) schema:
/// [`MdrError::VersionMismatch`] for future versions,
/// [`MdrError::Corrupt`] for the impossible version 0.
pub(crate) fn check_manifest_version(version: u32, what: &str) -> Result<(), MdrError> {
    if version == 0 {
        return Err(MdrError::corrupt(format!(
            "{what} declares invalid manifest version 0"
        )));
    }
    if version > MANIFEST_VERSION {
        return Err(MdrError::VersionMismatch {
            found: version,
            supported: MANIFEST_VERSION,
        });
    }
    Ok(())
}

/// Loosely probe a JSON manifest's declared `version` and reject newer
/// schemas with a matchable [`MdrError::VersionMismatch`] (their field
/// changes fail the strict parse, so the caller invokes this from its
/// parse-error path). Absent or non-numeric versions are treated as the
/// v1 back-compat layout.
pub(crate) fn check_probed_version(json: &[u8], what: &str) -> Result<(), MdrError> {
    if let Ok(probe) = serde_json::from_slice::<serde_json::Value>(json) {
        if let Some(v) = probe["version"].as_u64() {
            check_manifest_version(v.min(u64::from(u32::MAX)) as u32, what)?;
        }
    }
    Ok(())
}

#[derive(Serialize, Deserialize)]
pub(crate) struct UnitMeta {
    codec: Codec,
    original_len: usize,
    pub(crate) payload_len: usize,
}

#[derive(Serialize, Deserialize)]
pub(crate) struct StreamMeta {
    n: usize,
    exp: i32,
    num_planes: usize,
    layout: Layout,
    group_size: usize,
    plane_bytes: usize,
    pub(crate) units: Vec<UnitMeta>,
}

#[derive(Serialize, Deserialize)]
pub(crate) struct HeaderMeta {
    /// Manifest schema version. `None` only when parsing pre-versioning
    /// headers, which are version-1 layouts.
    pub(crate) version: Option<u32>,
    shape: Vec<usize>,
    dtype: String,
    hierarchy: Hierarchy,
    correction: bool,
    weights: Vec<f64>,
    value_range: f64,
    pub(crate) streams: Vec<StreamMeta>,
}

impl HeaderMeta {
    /// Capture `r`'s metadata (payload bytes elided, lengths kept).
    pub(crate) fn of(r: &Refactored) -> Self {
        HeaderMeta {
            version: Some(MANIFEST_VERSION),
            shape: r.shape.clone(),
            dtype: r.dtype.clone(),
            hierarchy: r.hierarchy.clone(),
            correction: r.correction,
            weights: r.weights.clone(),
            value_range: r.value_range,
            streams: r
                .streams
                .iter()
                .map(|s| StreamMeta {
                    n: s.n,
                    exp: s.exp,
                    num_planes: s.num_planes,
                    layout: s.layout,
                    group_size: s.group_size,
                    plane_bytes: s.plane_bytes,
                    units: s
                        .units
                        .iter()
                        .map(|u| UnitMeta {
                            codec: u.codec,
                            original_len: u.original_len,
                            payload_len: u.payload.len(),
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Rebuild a [`Refactored`] whose unit payloads come from
    /// `payload(group, unit, payload_len)` (return an empty vec for a
    /// skeleton). Checks structural consistency (see [`Self::check`]).
    pub(crate) fn into_refactored(
        self,
        mut payload: impl FnMut(usize, usize, usize) -> Result<Vec<u8>, MdrError>,
    ) -> Result<Refactored, MdrError> {
        check_manifest_version(self.version.unwrap_or(1), "manifest")?;
        self.check()?;
        let mut streams = Vec::with_capacity(self.streams.len());
        for (g, sm) in self.streams.into_iter().enumerate() {
            let mut units = Vec::with_capacity(sm.units.len());
            for (u, um) in sm.units.into_iter().enumerate() {
                units.push(CompressedGroup {
                    codec: um.codec,
                    payload: payload(g, u, um.payload_len)?,
                    original_len: um.original_len,
                });
            }
            streams.push(LevelStream {
                n: sm.n,
                exp: sm.exp,
                num_planes: sm.num_planes,
                layout: sm.layout,
                units,
                group_size: sm.group_size,
                plane_bytes: sm.plane_bytes,
            });
        }
        Ok(Refactored {
            shape: self.shape,
            dtype: self.dtype,
            hierarchy: self.hierarchy,
            correction: self.correction,
            weights: self.weights,
            streams,
            value_range: self.value_range,
        })
    }

    /// The one structural gate for stored metadata — serialized files and
    /// chunked-store skeletons alike: a manifest that passes describes
    /// streams every decode kernel can take without a panic. The
    /// hierarchy must be the one the writer derives from `shape`, with
    /// one stream per level group, and each stream must hold exactly its
    /// group's elements in `plane_bytes`-byte planes, at most the element
    /// type's plane count, `group_size ≥ 1` planes to a unit and one unit
    /// per started group of planes.
    fn check(&self) -> Result<(), MdrError> {
        let h = &self.hierarchy;
        let sized = (1..=MAX_DIMS).contains(&h.shape.len())
            && h.shape.iter().all(|&d| d >= 1)
            && h.shape
                .iter()
                .try_fold(1usize, |a, &d| a.checked_mul(d))
                .is_some();
        if h.shape != self.shape || !sized || Hierarchy::with_levels(&h.shape, h.levels) != *h {
            return Err(MdrError::corrupt(format!(
                "hierarchy of {} levels over {:?} does not fit shape {:?}",
                h.levels, h.shape, self.shape
            )));
        }
        if self.streams.len() != h.levels + 1 {
            return Err(MdrError::corrupt("inconsistent stream count"));
        }
        let max_planes = match self.dtype.as_str() {
            "f32" => <f32 as BitplaneFloat>::MAX_PLANES,
            "f64" => <f64 as BitplaneFloat>::MAX_PLANES,
            other => {
                return Err(MdrError::corrupt(format!(
                    "unsupported element type {other:?}"
                )))
            }
        };
        for (g, s) in self.streams.iter().enumerate() {
            let why = if s.n != h.group_len(g) {
                format!("{} elements, the hierarchy gives {}", s.n, h.group_len(g))
            } else if s.group_size == 0 {
                "0 planes per unit".to_string()
            } else if s.num_planes > max_planes {
                format!(
                    "{} planes, {} holds at most {max_planes}",
                    s.num_planes, self.dtype
                )
            } else if s.units.len() != s.num_planes.div_ceil(s.group_size) {
                format!(
                    "{} units for {} planes at {} a unit",
                    s.units.len(),
                    s.num_planes,
                    s.group_size
                )
            } else if s.plane_bytes != s.layout.words_per_plane(s.n) * 4 {
                format!(
                    "{}-byte planes, {} elements need {}",
                    s.plane_bytes,
                    s.n,
                    s.layout.words_per_plane(s.n) * 4
                )
            } else {
                continue;
            };
            return Err(MdrError::corrupt(format!("group {g} declares {why}")));
        }
        Ok(())
    }
}

/// Serialize a refactored variable to the portable byte format.
pub fn to_bytes(r: &Refactored) -> Vec<u8> {
    let header = HeaderMeta::of(r);
    // lint:allow(L3): serializing a plain in-memory struct cannot fail.
    let json = serde_json::to_vec(&header).expect("header serializes");
    let payload_len: usize = r
        .streams
        .iter()
        .flat_map(|s| s.units.iter())
        .map(|u| u.payload.len())
        .sum();
    let mut out = Vec::with_capacity(16 + json.len() + payload_len);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(json.len() as u64).to_le_bytes());
    out.extend_from_slice(&json);
    for s in &r.streams {
        for u in &s.units {
            out.extend_from_slice(&u.payload);
        }
    }
    out
}

/// Parse a refactored variable from the portable byte format.
///
/// Structural damage (bad magic, truncation, unparsable metadata) is
/// [`MdrError::Corrupt`]; a header from a future writer is
/// [`MdrError::VersionMismatch`].
pub fn from_bytes(bytes: &[u8]) -> Result<Refactored, MdrError> {
    if bytes.len() < 16 {
        return Err(MdrError::corrupt("truncated: missing header"));
    }
    if &bytes[..8] != MAGIC {
        return Err(MdrError::corrupt("bad magic (not an HPMDR stream)"));
    }
    // lint:allow(L3): infallible — `bytes.len() >= 16` was checked above.
    let json_len = u64::from_le_bytes(bytes[8..16].try_into().expect("sized")) as usize;
    let header_end = 16usize
        .checked_add(json_len)
        .ok_or_else(|| MdrError::corrupt("metadata length overflows"))?;
    if bytes.len() < header_end {
        return Err(MdrError::corrupt("truncated: incomplete metadata"));
    }
    let json = &bytes[16..16 + json_len];
    let header: HeaderMeta = match serde_json::from_slice(json) {
        Ok(h) => h,
        Err(e) => {
            check_probed_version(json, "manifest")?;
            return Err(MdrError::corrupt(format!("metadata parse error: {e}")));
        }
    };
    let mut off = 16 + json_len;
    header.into_refactored(|_, _, payload_len| {
        let end = off
            .checked_add(payload_len)
            .ok_or_else(|| MdrError::corrupt("unit length overflows"))?;
        if bytes.len() < end {
            return Err(MdrError::corrupt("truncated: incomplete unit payload"));
        }
        let payload = bytes[off..end].to_vec();
        off = end;
        Ok(payload)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refactor::{refactor, RefactorConfig};

    fn sample() -> Refactored {
        let data: Vec<f32> = (0..33 * 20)
            .map(|i| ((i % 33) as f32 * 0.3).sin() * ((i / 33) as f32 * 0.2).cos())
            .collect();
        refactor(&data, &[33, 20], &RefactorConfig::default())
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let r = sample();
        let bytes = to_bytes(&r);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn header_is_json_inspectable() {
        let r = sample();
        let bytes = to_bytes(&r);
        let json_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let v: serde_json::Value = serde_json::from_slice(&bytes[16..16 + json_len]).unwrap();
        assert_eq!(v["dtype"], "f32");
        assert_eq!(v["shape"][0], 33);
    }

    #[test]
    fn bad_magic_rejected() {
        let r = sample();
        let mut bytes = to_bytes(&r);
        bytes[0] = b'X';
        let err = from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(&err, MdrError::Corrupt(w) if w.contains("magic")),
            "{err}"
        );
    }

    #[test]
    fn truncation_detected_not_panicking() {
        let r = sample();
        let bytes = to_bytes(&r);
        for cut in [0usize, 8, 15, 40, bytes.len() - 1] {
            assert!(from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn corrupt_metadata_detected() {
        let r = sample();
        let mut bytes = to_bytes(&r);
        bytes[16] = b'!'; // clobber the JSON header's opening brace
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn header_carries_manifest_version() {
        let bytes = to_bytes(&sample());
        let json_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let v: serde_json::Value = serde_json::from_slice(&bytes[16..16 + json_len]).unwrap();
        assert_eq!(v["version"], u64::from(MANIFEST_VERSION));
    }

    /// Rebuild a serialized artifact with its JSON header's `version`
    /// replaced (`None` removes the field), keeping payload bytes intact.
    fn with_version(r: &Refactored, version: Option<u64>) -> Vec<u8> {
        let bytes = to_bytes(r);
        let json_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let mut v: serde_json::Value = serde_json::from_slice(&bytes[16..16 + json_len]).unwrap();
        let serde_json::Value::Object(pairs) = &mut v else {
            panic!("header is an object");
        };
        pairs.retain(|(k, _)| k != "version");
        if let Some(ver) = version {
            pairs.insert(0, ("version".to_string(), serde_json::Value::UInt(ver)));
        }
        let json = serde_json::to_vec(&v).unwrap();
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(json.len() as u64).to_le_bytes());
        out.extend_from_slice(&json);
        out.extend_from_slice(&bytes[16 + json_len..]);
        out
    }

    #[test]
    fn newer_manifest_version_rejected_as_matchable_variant() {
        let r = sample();
        let err = from_bytes(&with_version(&r, Some(u64::from(MANIFEST_VERSION) + 1))).unwrap_err();
        assert!(
            matches!(
                err,
                MdrError::VersionMismatch {
                    found,
                    supported: MANIFEST_VERSION,
                } if found == MANIFEST_VERSION + 1
            ),
            "{err}"
        );
        assert!(err.to_string().contains("newer than the supported"));
    }

    #[test]
    fn version_zero_rejected() {
        let r = sample();
        let err = from_bytes(&with_version(&r, Some(0))).unwrap_err();
        assert!(
            matches!(&err, MdrError::Corrupt(w) if w.contains("version 0")),
            "{err}"
        );
    }

    #[test]
    fn newer_version_with_changed_schema_still_rejected_readably() {
        // A future layout will rename/retype fields, so the strict parse
        // fails — the reader must still surface the version, not the
        // field error.
        let r = sample();
        let bytes = to_bytes(&r);
        let json_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let mut v: serde_json::Value = serde_json::from_slice(&bytes[16..16 + json_len]).unwrap();
        let serde_json::Value::Object(pairs) = &mut v else {
            panic!("header is an object");
        };
        pairs.retain(|(k, _)| k != "version" && k != "shape"); // "renamed" field
        pairs.insert(
            0,
            (
                "version".to_string(),
                serde_json::Value::UInt(u64::from(MANIFEST_VERSION) + 1),
            ),
        );
        let json = serde_json::to_vec(&v).unwrap();
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(json.len() as u64).to_le_bytes());
        out.extend_from_slice(&json);
        out.extend_from_slice(&bytes[16 + json_len..]);
        let err = from_bytes(&out).unwrap_err();
        assert!(matches!(err, MdrError::VersionMismatch { .. }), "{err}");
    }

    #[test]
    fn missing_version_field_defaults_to_v1() {
        // Pre-versioning manifests parse as version 1 (back-compat).
        let r = sample();
        assert_eq!(from_bytes(&with_version(&r, None)).unwrap(), r);
    }
}
