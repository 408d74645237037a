//! Variable refactoring: decompose → bitplane-encode → hybrid compress.
//!
//! Every hot stage routes through the [`hpmdr_exec::Backend`] trait:
//! [`refactor`] runs on a host-wide [`CpuBackend`], and
//! [`refactor_with`] accepts any backend (e.g.
//! `CpuBackend::with_threads(1)` for the calling thread only), producing
//! bit-identical artifacts either way.

use hpmdr_bitplane::{BitplaneFloat, Layout};
use hpmdr_exec::{Backend, CpuBackend, EncodedStream, ExecCtx, StreamView};
use hpmdr_lossless::{CompressedGroup, HybridCompressor, HybridConfig};
use hpmdr_mgard::{extract_levels, level_error_weights, Hierarchy, Real};
use serde::{Deserialize, Serialize};

/// Refactoring configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RefactorConfig {
    /// Magnitude bitplanes per level group (clamped to the dtype's width).
    pub num_planes: usize,
    /// Stream layout (register-block interleaved by default — the paper's
    /// fastest design; both layouts decode identically).
    pub layout: Layout,
    /// Apply MGARD's L2 correction during decomposition.
    pub correction: bool,
    /// Cap on decomposition levels (`None` = full hierarchy).
    pub max_levels: Option<usize>,
    /// Hybrid lossless configuration (group size `m`, `T_s`, `T_cr`).
    pub hybrid: HybridConfig,
}

impl Default for RefactorConfig {
    fn default() -> Self {
        RefactorConfig {
            num_planes: 64,
            layout: Layout::Interleaved32,
            correction: true,
            max_levels: None,
            hybrid: HybridConfig::default(),
        }
    }
}

/// One level group's encoded-and-compressed bitplane streams.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelStream {
    /// Element count of the group.
    pub n: usize,
    /// Alignment exponent of the group (`i32::MIN` = all zero).
    pub exp: i32,
    /// Magnitude planes encoded.
    pub num_planes: usize,
    /// Stream layout.
    pub layout: Layout,
    /// Compressed merged units; unit 0 additionally carries the sign
    /// plane, so unit `u` holds planes `u*m - (u>0 ? 0 : 0) …` — concretely
    /// unit 0 = [signs, planes 0..m-1], unit u>0 = planes `u*m..(u+1)*m`.
    pub units: Vec<CompressedGroup>,
    /// Planes per merged unit (`m`).
    pub group_size: usize,
    /// Uncompressed bytes of one plane (layout-padded).
    pub plane_bytes: usize,
}

impl LevelStream {
    /// Number of merged units available.
    pub fn num_units(&self) -> usize {
        self.units.len()
    }

    /// Magnitude planes contained in the first `u` units.
    pub fn planes_in_units(&self, u: usize) -> usize {
        (u * self.group_size).min(self.num_planes)
    }

    /// Compressed bytes of the first `u` units (what retrieval fetches).
    pub fn fetch_bytes(&self, u: usize) -> usize {
        self.units.iter().take(u).map(|g| g.stored_len()).sum()
    }

    /// Total compressed bytes of the stream.
    pub fn total_bytes(&self) -> usize {
        self.fetch_bytes(self.units.len())
    }
}

/// A fully refactored variable: metadata plus per-level compressed streams.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Refactored {
    /// Grid shape of the variable.
    pub shape: Vec<usize>,
    /// Element type name (`"f32"` / `"f64"`).
    pub dtype: String,
    /// Decomposition hierarchy.
    pub hierarchy: Hierarchy,
    /// Whether the L2 correction was applied.
    pub correction: bool,
    /// Per-group L∞ propagation weights (group 0 = coarsest nodal).
    pub weights: Vec<f64>,
    /// Per-group encoded streams (group 0 = coarsest nodal).
    pub streams: Vec<LevelStream>,
    /// Value range of the original data (used by QoI initialization).
    pub value_range: f64,
}

impl Refactored {
    /// Total element count.
    pub fn num_elements(&self) -> usize {
        self.shape.iter().product()
    }

    /// Total compressed size in bytes.
    pub fn total_bytes(&self) -> usize {
        self.streams.iter().map(LevelStream::total_bytes).sum()
    }

    /// Metadata-only copy: every unit keeps its codec and lengths but
    /// drops its payload bytes. This is what store manifests persist —
    /// building it never duplicates compressed payloads, so writing an
    /// archive costs metadata, not a second copy of the data.
    pub fn skeleton(&self) -> Refactored {
        crate::serialize::HeaderMeta::of(self)
            .into_refactored(|_, _, _| Ok(Vec::new()))
            // lint:allow(L3): the payload closure always returns Ok and
            // `self` is structurally valid by construction.
            .expect("a valid artifact round-trips as a skeleton")
    }

    /// Error bound when retrieving `units[g]` merged units of each group.
    pub fn error_bound_for_units(&self, units: &[usize]) -> f64 {
        assert_eq!(units.len(), self.streams.len());
        self.streams
            .iter()
            .zip(units)
            .zip(&self.weights)
            .map(|((s, &u), w)| {
                let k = s.planes_in_units(u);
                w * hpmdr_bitplane::prefix_error_bound(s.exp, k)
            })
            .sum()
    }
}

impl LevelStream {
    /// Borrow this stream as the backend-level view retrieval kernels
    /// consume.
    pub fn view(&self) -> StreamView<'_> {
        StreamView {
            n: self.n,
            exp: self.exp,
            num_planes: self.num_planes,
            layout: self.layout,
            group_size: self.group_size,
            plane_bytes: self.plane_bytes,
            units: &self.units,
        }
    }

    fn from_encoded(s: EncodedStream) -> Self {
        LevelStream {
            n: s.n,
            exp: s.exp,
            num_planes: s.num_planes,
            layout: s.layout,
            units: s.units,
            group_size: s.group_size,
            plane_bytes: s.plane_bytes,
        }
    }
}

/// Refactor one variable of shape `shape` on a host-wide [`CpuBackend`].
///
/// Prefer [`crate::api::Mdr::refactor`], which also covers chunked
/// decomposition and backend selection, and validates its input instead
/// of panicking; this function remains as the monolithic kernel the
/// façade delegates to.
///
/// # Panics
/// Panics if `data.len()` does not match `shape`, or on non-finite input.
pub fn refactor<F: BitplaneFloat + Real>(
    data: &[F],
    shape: &[usize],
    config: &RefactorConfig,
) -> Refactored {
    refactor_with(
        data,
        shape,
        config,
        &CpuBackend::default(),
        &ExecCtx::default(),
    )
}

/// What the one pre-transform pass over a variable's samples found.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SampleScan {
    /// No sample is NaN or ±∞.
    pub all_finite: bool,
    /// `max − min` over the samples, NaNs ignored (0 when nothing is
    /// left to compare).
    pub value_range: f64,
}

/// Finite check and value range of `data` in one pass — the only look
/// at the raw samples before the transform, shared by [`prepare`] (and
/// through it the ingest pipeline's validation) and
/// [`crate::api::Mdr::refactor`].
///
/// Eight independent lanes in the element type and no branch on the
/// data, so the loop vectorises, like `hpmdr_bitplane`'s exponent scan:
/// minima and maxima by plain comparison — false for a NaN, which is
/// thereby ignored exactly as `f64::min`/`max` ignore it — and
/// finiteness as `|x| < ∞`, false for NaN and ±∞ alike.
pub(crate) fn scan_samples<F: Real>(data: &[F]) -> SampleScan {
    let inf = F::from_f64(f64::INFINITY);
    let (mut lo, mut hi) = ([inf; 8], [-inf; 8]);
    let mut all_finite = true;
    let mut scan = |block: &[F]| {
        for ((lo, hi), &x) in lo.iter_mut().zip(hi.iter_mut()).zip(block) {
            all_finite &= x.abs_val() < inf;
            if x < *lo {
                *lo = x;
            }
            if x > *hi {
                *hi = x;
            }
        }
    };
    let mut blocks = data.chunks_exact(8);
    blocks.by_ref().for_each(&mut scan);
    scan(blocks.remainder());
    let min = lo.into_iter().fold(f64::INFINITY, |m, x| m.min(x.to_f64()));
    let max = hi
        .into_iter()
        .fold(f64::NEG_INFINITY, |m, x| m.max(x.to_f64()));
    SampleScan {
        all_finite,
        // Not `(max − min).max(0.0)`: this is +0.0, never −0.0 or NaN,
        // for empty, all-NaN, all-equal and lone-infinity data alike.
        value_range: if max > min { max - min } else { 0.0 },
    }
}

/// A variable after the transform half of refactoring: decomposed in
/// place and split into its level groups, ready for [`encode`].
///
/// This is the cut the streaming ingest pipeline schedules around — the
/// transform of chunk k + 1 can run on one thread while another
/// entropy-codes chunk k.
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposed<F> {
    shape: Vec<usize>,
    hierarchy: Hierarchy,
    /// Coefficient groups (group 0 = coarsest nodal); together they hold
    /// exactly the variable's elements.
    groups: Vec<Vec<F>>,
    /// What the pre-transform scan of the samples found.
    scan: SampleScan,
}

impl<F> Decomposed<F> {
    /// Whether every input sample was finite. [`encode`] panics on a
    /// variable for which this is `false`; callers that take untrusted
    /// samples check it first.
    pub fn all_finite(&self) -> bool {
        self.scan.all_finite
    }
}

/// First half of [`refactor_with`]: scan `data` (finite check, value
/// range), decompose it in place on `backend` and split it into level
/// groups. Takes the samples by value — no copy is made.
///
/// # Panics
/// Panics if `data.len()` does not match `shape`.
pub fn prepare<F: BitplaneFloat + Real, B: Backend>(
    mut data: Vec<F>,
    shape: &[usize],
    config: &RefactorConfig,
    backend: &B,
    ctx: &ExecCtx,
) -> Decomposed<F> {
    let hierarchy = match config.max_levels {
        Some(l) => Hierarchy::with_levels(shape, l),
        None => Hierarchy::full(shape),
    };
    assert_eq!(data.len(), hierarchy.len(), "data length must match shape");
    let scan = scan_samples(&data);
    backend.decompose(ctx, &mut data, &hierarchy, config.correction);
    Decomposed {
        shape: shape.to_vec(),
        groups: extract_levels(&data, &hierarchy),
        hierarchy,
        scan,
    }
}

/// Second half of [`refactor_with`]: bitplane-encode and compress every
/// level group of `d` on `backend` and assemble the artifact. `config`
/// must be the one `d` was [`prepare`]d with.
///
/// # Panics
/// Panics on non-finite input (see [`Decomposed::all_finite`]).
pub fn encode<F: BitplaneFloat + Real, B: Backend>(
    d: &Decomposed<F>,
    config: &RefactorConfig,
    backend: &B,
    ctx: &ExecCtx,
) -> Refactored {
    let planes = config.num_planes.min(F::MAX_PLANES).max(1);
    let compressor = HybridCompressor::new(config.hybrid);
    let m = config.hybrid.group_size.max(1);

    let streams: Vec<LevelStream> = backend
        .encode_and_compress(ctx, &d.groups, planes, config.layout, m, &compressor)
        .into_iter()
        .map(LevelStream::from_encoded)
        .collect();

    Refactored {
        shape: d.shape.clone(),
        dtype: F::TYPE_NAME.to_string(),
        correction: config.correction,
        weights: level_error_weights(&d.hierarchy, config.correction),
        hierarchy: d.hierarchy.clone(),
        streams,
        value_range: d.scan.value_range,
    }
}

/// Refactor one variable of shape `shape` on `backend`:
/// [`encode`]`(&`[`prepare`]`(..))` — the one definition of a refactor.
///
/// Artifacts are bit-identical across backends; only wall-clock differs.
///
/// # Panics
/// Panics if `data.len()` does not match `shape`, or on non-finite input.
pub fn refactor_with<F: BitplaneFloat + Real, B: Backend>(
    data: &[F],
    shape: &[usize],
    config: &RefactorConfig,
    backend: &B,
    ctx: &ExecCtx,
) -> Refactored {
    let prepared = prepare(data.to_vec(), shape, config, backend, ctx);
    encode(&prepared, config, backend, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpmdr_bitplane::BitplaneChunk;

    /// Decode the first `units` merged units of `stream` one thread wide
    /// through the supported [`Backend::decode_units`] path.
    fn decode_prefix(stream: &LevelStream, units: usize) -> BitplaneChunk {
        let comp = HybridCompressor::new(HybridConfig::default());
        CpuBackend::with_threads(1)
            .decode_units(&ExecCtx::default(), stream.view(), units, &comp, "f32")
            .expect("self-produced stream decodes")
    }

    fn field_2d(nx: usize, ny: usize) -> Vec<f32> {
        let mut v = Vec::with_capacity(nx * ny);
        for x in 0..nx {
            for y in 0..ny {
                v.push(((x as f32 * 0.21).sin() * (y as f32 * 0.13).cos()) * 4.0);
            }
        }
        v
    }

    #[test]
    fn refactor_produces_one_stream_per_group() {
        let data = field_2d(33, 33);
        let r = refactor(&data, &[33, 33], &RefactorConfig::default());
        assert_eq!(r.streams.len(), r.hierarchy.levels + 1);
        assert_eq!(r.weights.len(), r.streams.len());
        let total_n: usize = r.streams.iter().map(|s| s.n).sum();
        assert_eq!(total_n, 33 * 33);
    }

    #[test]
    fn units_decompress_to_original_planes() {
        let data = field_2d(17, 16);
        let r = refactor(&data, &[17, 16], &RefactorConfig::default());
        for s in &r.streams {
            let full = decode_prefix(s, s.num_units());
            full.validate().unwrap();
            assert_eq!(full.num_planes(), s.num_planes);
        }
    }

    #[test]
    fn partial_units_give_plane_prefix() {
        let data = field_2d(33, 32);
        let r = refactor(&data, &[33, 32], &RefactorConfig::default());
        let s = r.streams.last().expect("streams");
        let partial = decode_prefix(s, 2);
        let full = decode_prefix(s, s.num_units());
        assert_eq!(partial.num_planes(), s.planes_in_units(2));
        for p in 0..partial.num_planes() {
            assert_eq!(partial.plane(p), full.plane(p), "plane {p}");
        }
        assert_eq!(partial.signs, full.signs);
    }

    #[test]
    fn error_bound_decreases_with_units() {
        let data = field_2d(33, 33);
        let r = refactor(&data, &[33, 33], &RefactorConfig::default());
        let g = r.streams.len();
        let b0 = r.error_bound_for_units(&vec![0; g]);
        let b1 = r.error_bound_for_units(&vec![1; g]);
        let b4 = r.error_bound_for_units(&vec![4; g]);
        assert!(b0 > b1 && b1 > b4);
    }

    #[test]
    fn compressed_smaller_than_raw_for_smooth_data() {
        let data = field_2d(65, 65);
        let r = refactor(&data, &[65, 65], &RefactorConfig::default());
        // Smooth data: multilevel coefficients are tiny, so most planes are
        // zero-dominated and the hybrid compressor should beat raw planes.
        let raw: usize = r
            .streams
            .iter()
            .map(|s| (s.num_planes + 1) * s.plane_bytes)
            .sum();
        assert!(r.total_bytes() < raw, "{} vs raw {}", r.total_bytes(), raw);
    }

    #[test]
    fn value_range_recorded() {
        let data = field_2d(16, 16);
        let r = refactor(&data, &[16, 16], &RefactorConfig::default());
        assert!(r.value_range > 0.0 && r.value_range <= 8.0 + 1e-6);
    }

    #[test]
    fn refactor_f64_uses_wide_planes() {
        let data: Vec<f64> = field_2d(17, 17).into_iter().map(|v| v as f64).collect();
        let r = refactor(&data, &[17, 17], &RefactorConfig::default());
        assert_eq!(r.dtype, "f64");
        assert!(r.streams.iter().any(|s| s.num_planes == 64));
    }

    /// The two scalar passes [`scan_samples`] replaced, as they stood in
    /// `run_ingest` (finite check) and `refactor_with` (value range).
    fn scan_reference<F: Real>(data: &[F]) -> SampleScan {
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for v in data {
            min = min.min(v.to_f64());
            max = max.max(v.to_f64());
        }
        SampleScan {
            all_finite: !data.iter().any(|v| !v.to_f64().is_finite()),
            value_range: (max - min).max(0.0),
        }
    }

    fn assert_scans_agree<F: Real + std::fmt::Debug>(data: &[F]) {
        assert_eq!(scan_samples(data), scan_reference(data), "{data:?}");
    }

    #[test]
    fn lane_scan_matches_the_scalar_passes() {
        let mut s = 0x9E37u32;
        let mut noise = move || {
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            (s as f32 / u32::MAX as f32 - 0.5) * 1e3
        };
        // Every length around the lane width, a longer odd one, and a
        // non-finite value at every position (each lane and the tail).
        for n in (0..=17).chain([1000, 4099]) {
            let data: Vec<f32> = (0..n).map(|_| noise()).collect();
            assert_scans_agree(&data);
            let wide: Vec<f64> = data.iter().map(|&v| f64::from(v) * 1e40).collect();
            assert_scans_agree(&wide);
            assert_scans_agree(&vec![-2.5f32; n]);
            let zeros: Vec<f32> = (0..n).map(|i| [0.0, -0.0][(i / 3) % 2]).collect();
            assert_scans_agree(&zeros);
            assert!(scan_samples(&zeros).value_range.is_sign_positive());
            for at in 0..n.min(24) {
                for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                    let mut poisoned = data.clone();
                    poisoned[at] = bad;
                    assert!(!scan_samples(&poisoned).all_finite, "{bad} at {at} of {n}");
                    assert_scans_agree(&poisoned);
                    let wide: Vec<f64> = poisoned.iter().map(|&v| f64::from(v)).collect();
                    assert_scans_agree(&wide);
                }
            }
        }
        // Ranges of 0 that the subtraction alone would get wrong.
        assert_eq!(scan_samples(&[f32::INFINITY]).value_range, 0.0);
        assert_eq!(scan_samples(&[f64::NAN; 9]).value_range, 0.0);
        assert_eq!(scan_samples::<f32>(&[]).value_range, 0.0);
    }

    #[test]
    fn refactor_with_is_encode_of_prepare() {
        fn check<F: BitplaneFloat + Real>(data: Vec<F>, shape: &[usize], cfg: &RefactorConfig) {
            let (backend, ctx) = (CpuBackend::with_threads(1), ExecCtx::default());
            let whole = refactor_with(&data, shape, cfg, &backend, &ctx);
            let prepared = prepare(data, shape, cfg, &backend, &ctx);
            assert!(prepared.all_finite());
            let cut = encode(&prepared, cfg, &backend, &ctx);
            assert_eq!(
                cut,
                whole,
                "{} {shape:?} {:?}",
                F::TYPE_NAME,
                cfg.max_levels
            );
        }
        let capped = RefactorConfig {
            max_levels: Some(1),
            ..RefactorConfig::default()
        };
        let extents = [1usize, 2, 3, 17, 33];
        let mut shapes: Vec<Vec<usize>> = extents.iter().map(|&e| vec![e]).collect();
        for &a in &extents {
            shapes.extend(extents.iter().map(|&b| vec![a, b]));
        }
        shapes.extend([
            vec![1, 1, 1],
            vec![2, 3, 17],
            vec![17, 1, 2],
            vec![3, 33, 3],
            vec![17, 17, 17],
        ]);
        for shape in &shapes {
            let n: usize = shape.iter().product();
            let data: Vec<f32> = (0..n)
                .map(|i| (i as f32 * 0.37).sin() * 3.0 + (i % 7) as f32)
                .collect();
            for cfg in [&RefactorConfig::default(), &capped] {
                check(data.clone(), shape, cfg);
                check(data.iter().map(|&v| f64::from(v)).collect(), shape, cfg);
            }
        }
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_panics() {
        let data = vec![0.0f32; 10];
        refactor(&data, &[3, 4], &RefactorConfig::default());
    }
}
