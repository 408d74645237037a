//! Hybrid lossless compression strategy (Algorithm 2).
//!
//! Every merged group of bitplanes is size-gated and then routed to the
//! encoder whose *estimated* compression ratio clears the configured
//! threshold: Huffman first (best ratios on concentrated distributions),
//! then RLE (cheap, good on structured sparsity), with direct copy as the
//! fallback that keeps incompressible groups at full throughput.

use crate::huffman::{CodeBook, HuffmanError};
use crate::rle::RleError;
use crate::{estimate, huffman, rle};
use serde::{Deserialize, Serialize};

/// Why a compressed group failed to decode: the typed union of the two
/// entropy coders' errors. `Direct` groups cannot fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The group's Huffman stream is truncated or corrupt.
    Huffman(HuffmanError),
    /// The group's RLE stream is truncated or corrupt.
    Rle(RleError),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Huffman(e) => e.fmt(f),
            CodecError::Rle(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Huffman(e) => Some(e),
            CodecError::Rle(e) => Some(e),
        }
    }
}

impl From<HuffmanError> for CodecError {
    fn from(e: HuffmanError) -> Self {
        CodecError::Huffman(e)
    }
}

impl From<RleError> for CodecError {
    fn from(e: RleError) -> Self {
        CodecError::Rle(e)
    }
}

/// Lossless method selected for one group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Codec {
    /// Canonical Huffman ([`crate::huffman`]).
    Huffman,
    /// Run-length encoding ([`crate::rle`]).
    Rle,
    /// Stored as-is.
    Direct,
}

/// Tuning knobs of Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HybridConfig {
    /// Bitplanes merged per group (`m` in the paper; default 4).
    pub group_size: usize,
    /// Minimum group byte size worth compressing (`T_s`).
    pub size_threshold: usize,
    /// Estimated-CR threshold an encoder must clear (`T_cr`, the `rc`
    /// values 1.0 / 2.0 / 4.0 swept in Figure 8).
    pub cr_threshold: f64,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            group_size: 4,
            size_threshold: 1024,
            cr_threshold: 1.0,
        }
    }
}

impl HybridConfig {
    /// Paper configuration with a specific `rc` threshold.
    pub fn with_rc(cr_threshold: f64) -> Self {
        HybridConfig {
            cr_threshold,
            ..Default::default()
        }
    }
}

/// One losslessly compressed bitplane group.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompressedGroup {
    /// Encoder that produced `payload`.
    pub codec: Codec,
    /// Encoded bytes.
    pub payload: Vec<u8>,
    /// Original (uncompressed) byte count.
    pub original_len: usize,
}

impl CompressedGroup {
    /// Stored size in bytes (payload only; the one-byte codec tag and
    /// framing live in the stream metadata).
    pub fn stored_len(&self) -> usize {
        self.payload.len()
    }

    /// Achieved compression ratio.
    pub fn ratio(&self) -> f64 {
        if self.payload.is_empty() {
            return 1.0;
        }
        self.original_len as f64 / self.payload.len() as f64
    }
}

/// Stateless hybrid compressor implementing Algorithm 2.
#[derive(Debug, Clone, Copy, Default)]
pub struct HybridCompressor {
    /// Selection configuration.
    pub config: HybridConfig,
}

/// What Algorithm 2 decided for one group. A Huffman decision keeps the
/// code book that made it — the histogram and tree behind the estimate
/// are the ones the encoder needs. It lives on the stack for the length of
/// one call; boxing the book would cost an allocation per unit.
#[allow(clippy::large_enum_variant)]
enum Selection<'a> {
    Huffman(CodeBook<'a>),
    Rle,
    Direct,
}

impl HybridCompressor {
    /// Compressor with the given configuration.
    pub fn new(config: HybridConfig) -> Self {
        HybridCompressor { config }
    }

    fn decide<'a>(&self, group: &'a [u8]) -> Selection<'a> {
        if group.len() <= self.config.size_threshold {
            return Selection::Direct;
        }
        let book = CodeBook::new(group);
        if book.estimated_ratio() > self.config.cr_threshold {
            Selection::Huffman(book)
        } else if estimate::rle_cr_exceeds(group, self.config.cr_threshold) {
            Selection::Rle
        } else {
            Selection::Direct
        }
    }

    /// Decide which codec Algorithm 2 would pick for `group` without
    /// encoding it.
    pub fn select(&self, group: &[u8]) -> Codec {
        match self.decide(group) {
            Selection::Huffman(_) => Codec::Huffman,
            Selection::Rle => Codec::Rle,
            Selection::Direct => Codec::Direct,
        }
    }

    /// The one body of [`Self::compress`] and [`Self::compress_owned`]:
    /// the selected codec and its encoded bytes — `None` for `Direct`,
    /// whose payload is the group itself, copied or moved by the caller.
    fn encode_selected(&self, group: &[u8]) -> (Codec, Option<Vec<u8>>) {
        match self.decide(group) {
            Selection::Huffman(book) => (Codec::Huffman, Some(book.encode())),
            Selection::Rle => (Codec::Rle, Some(rle::compress(group))),
            Selection::Direct => (Codec::Direct, None),
        }
    }

    /// Compress one merged bitplane group.
    pub fn compress(&self, group: &[u8]) -> CompressedGroup {
        let (codec, encoded) = self.encode_selected(group);
        CompressedGroup {
            codec,
            payload: encoded.unwrap_or_else(|| group.to_vec()),
            original_len: group.len(),
        }
    }

    /// Compress an owned group buffer. Produces the same bytes as
    /// [`Self::compress`], but a `Direct` selection *moves* the buffer
    /// into the payload instead of copying it (the buffer is left empty);
    /// this is the write-through path the encode hot loop uses, where
    /// `group` is a scratch buffer already holding the merged planes.
    /// The moved payload gives back whatever capacity the scratch buffer
    /// had beyond its length.
    pub fn compress_owned(&self, group: &mut Vec<u8>) -> CompressedGroup {
        let (codec, encoded) = self.encode_selected(group);
        let original_len = group.len();
        let payload = encoded.unwrap_or_else(|| {
            let mut moved = std::mem::take(group);
            moved.shrink_to_fit();
            moved
        });
        CompressedGroup {
            codec,
            payload,
            original_len,
        }
    }

    /// Compress with a forced codec (used by the Figure 8 all-Huffman and
    /// all-RLE baselines).
    pub fn compress_with(&self, group: &[u8], codec: Codec) -> CompressedGroup {
        let payload = match codec {
            Codec::Huffman => huffman::compress(group),
            Codec::Rle => rle::compress(group),
            Codec::Direct => group.to_vec(),
        };
        CompressedGroup {
            codec,
            payload,
            original_len: group.len(),
        }
    }

    /// Decompress a group produced by [`Self::compress`]. Returns a
    /// matchable [`CodecError`] on truncated or corrupt payloads —
    /// compressed groups are storage input, so decoding must never abort
    /// the process.
    pub fn decompress(&self, group: &CompressedGroup) -> Result<Vec<u8>, CodecError> {
        match group.codec {
            Codec::Huffman => huffman::decompress(&group.payload).map_err(CodecError::from),
            Codec::Rle => rle::decompress(&group.payload).map_err(CodecError::from),
            Codec::Direct => Ok(group.payload.clone()),
        }
    }

    /// Decompress a group, borrowing instead of allocating: `Direct`
    /// groups return their payload directly (zero copy, `scratch`
    /// untouched), other codecs decode into `scratch` (cleared first) and
    /// return it. This is the retrieval hot path — with `scratch` leased
    /// from a buffer pool, steady-state unit decoding allocates nothing.
    pub fn decompress_to<'a>(
        &self,
        group: &'a CompressedGroup,
        scratch: &'a mut Vec<u8>,
    ) -> Result<&'a [u8], CodecError> {
        match group.codec {
            Codec::Huffman => {
                huffman::decompress_into(&group.payload, scratch)?;
                Ok(scratch.as_slice())
            }
            Codec::Rle => {
                rle::decompress_into(&group.payload, scratch)?;
                Ok(scratch.as_slice())
            }
            Codec::Direct => Ok(&group.payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compressor(rc: f64) -> HybridCompressor {
        HybridCompressor::new(HybridConfig::with_rc(rc))
    }

    fn xorshift_bytes(n: usize, mut s: u32) -> Vec<u8> {
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 17;
                s ^= s << 5;
                (s >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn small_groups_are_direct_copied() {
        let c = compressor(1.0);
        let data = vec![0u8; 512]; // below default size threshold
        assert_eq!(c.select(&data), Codec::Direct);
    }

    #[test]
    fn zero_heavy_groups_pick_huffman() {
        let c = compressor(1.0);
        let data: Vec<u8> = (0..100_000)
            .map(|i| if i % 50 == 0 { 3 } else { 0 })
            .collect();
        assert_eq!(c.select(&data), Codec::Huffman);
    }

    #[test]
    fn random_groups_fall_back_to_direct() {
        let c = compressor(1.0);
        let data = xorshift_bytes(100_000, 5);
        assert_eq!(c.select(&data), Codec::Direct);
    }

    #[test]
    fn high_threshold_routes_runs_to_rle() {
        // Long runs over many symbols: Huffman caps at 8x-ish here (1
        // bit/byte floor), RLE collapses runs entirely.
        let mut data = Vec::new();
        for i in 0..256 {
            data.extend(std::iter::repeat_n(i as u8, 4096));
        }
        let c = compressor(16.0);
        assert_eq!(c.select(&data), Codec::Rle);
    }

    #[test]
    fn all_codecs_roundtrip() {
        let c = compressor(1.0);
        let datasets = [
            vec![0u8; 50_000],
            xorshift_bytes(50_000, 17),
            (0..50_000).map(|i| (i / 300) as u8).collect::<Vec<u8>>(),
            Vec::new(),
        ];
        for data in datasets {
            for codec in [Codec::Huffman, Codec::Rle, Codec::Direct] {
                let g = c.compress_with(&data, codec);
                assert_eq!(c.decompress(&g).unwrap(), data, "{codec:?}");
                let mut scratch = Vec::new();
                assert_eq!(
                    c.decompress_to(&g, &mut scratch).unwrap(),
                    data,
                    "{codec:?}"
                );
            }
            let auto = c.compress(&data);
            assert_eq!(
                c.decompress(&auto).unwrap(),
                data,
                "auto ({:?})",
                auto.codec
            );
        }
    }

    #[test]
    fn compress_owned_matches_compress_and_moves_direct() {
        let c = compressor(1.0);
        for data in [
            vec![0u8; 50_000],
            xorshift_bytes(50_000, 23),
            (0..50_000).map(|i| (i / 300) as u8).collect::<Vec<u8>>(),
            xorshift_bytes(640, 29),
        ] {
            let by_ref = c.compress(&data);
            // A scratch buffer that served a larger group before.
            let mut owned = Vec::with_capacity(3 * data.len());
            owned.extend_from_slice(&data);
            let by_move = c.compress_owned(&mut owned);
            assert_eq!(by_ref, by_move);
            if by_move.codec == Codec::Direct {
                assert!(owned.is_empty(), "Direct must take the buffer");
                assert_eq!(owned.capacity(), 0, "Direct must take the buffer");
                assert_eq!(
                    by_move.payload.capacity(),
                    data.len(),
                    "and only its length"
                );
            }
        }
    }

    /// The selector as it shipped before the code book: two independent
    /// estimates, the Huffman one written out from its parts, the RLE
    /// one always the exact scan.
    fn select_two_pass(c: &HybridCompressor, group: &[u8]) -> Codec {
        if group.len() <= c.config.size_threshold {
            return Codec::Direct;
        }
        let hist = huffman::histogram(group);
        let lens = huffman::code_lengths(&hist);
        let payload_bits: u64 = hist.iter().zip(&lens).map(|(&f, &l)| f * l as u64).sum();
        let n_chunks = group.len().div_ceil(huffman::CHUNK_SIZE).max(1);
        let header_bytes = (16 + 256 + 4 * n_chunks) as u64;
        let r_h = group.len() as f64 / (payload_bits.div_ceil(8) + header_bytes) as f64;
        if r_h > c.config.cr_threshold {
            return Codec::Huffman;
        }
        if estimate::estimate_rle_cr(group) > c.config.cr_threshold {
            return Codec::Rle;
        }
        Codec::Direct
    }

    /// Decisions and bytes on `group` equal the two-pass selector's.
    fn assert_matches_two_pass(c: &HybridCompressor, group: &[u8], tag: &str) -> Codec {
        let want = select_two_pass(c, group);
        assert_eq!(c.select(group), want, "select {tag}");
        let bytes = c.compress_with(group, want);
        assert_eq!(c.compress(group), bytes, "compress {tag}");
        assert_eq!(c.compress_owned(&mut group.to_vec()), bytes, "owned {tag}");
        want
    }

    /// Sweep every prefix length in `lens` of `full`: the decision must be
    /// the two-pass selector's at each, and the bytes too wherever it
    /// flips between two consecutive lengths — payloads one byte apart on
    /// either side of a threshold. Returns the codecs seen.
    fn sweep(rc: f64, full: &[u8], lens: std::ops::Range<usize>, tag: &str) -> Vec<Codec> {
        let c = compressor(rc);
        let mut seen = Vec::new();
        let mut last = None;
        for n in lens {
            let want = select_two_pass(&c, &full[..n]);
            assert_eq!(c.select(&full[..n]), want, "select {tag} rc={rc} n={n}");
            if last.is_some_and(|l| l != want) {
                for m in [n - 1, n] {
                    assert_matches_two_pass(&c, &full[..m], &format!("{tag} rc={rc} n={m}"));
                }
            }
            if !seen.contains(&want) {
                seen.push(want);
            }
            last = Some(want);
        }
        seen
    }

    #[test]
    fn decisions_and_bytes_equal_the_two_pass_selector() {
        let n = 150_000;
        let payloads = [
            ("random", xorshift_bytes(n, 41)),
            ("zeros", vec![0u8; n]),
            (
                "two symbols",
                (0..n).map(|i| u8::from(i % 9 == 0)).collect(),
            ),
            ("runs of 777", (0..n).map(|i| (i / 777) as u8).collect()),
            (
                "256 symbols x 4096",
                (0..n).map(|i| (i / 4096) as u8).collect(),
            ),
            ("sparse", (0..n).map(|i| (i % 50 == 0) as u8 * 3).collect()),
        ];
        for rc in [1.0, 2.0, 4.0, 16.0] {
            let c = compressor(rc);
            for (tag, data) in &payloads {
                // Whole, just past the size gate, and across a chunk edge.
                for len in [n, 1024, 1025, 65_536, 65_537] {
                    assert_matches_two_pass(&c, &data[..len], &format!("{tag} rc={rc} n={len}"));
                }
            }
        }
    }

    #[test]
    fn payloads_one_byte_either_side_of_each_threshold_decide_alike() {
        use Codec::{Direct, Huffman, Rle};
        let n = 12_000;
        let zeros = vec![0u8; n];
        let cycle = |k: usize| (0..n).map(|i| (i % k) as u8).collect::<Vec<u8>>();
        let runs = |l: usize| (0..n).map(|i| (i / l) as u8).collect::<Vec<u8>>();
        // The Huffman threshold, crossed by a growing payload of 128, 8
        // and 1 equiprobable symbols (7, 3 and 1 bits a byte against the
        // fixed header).
        assert_eq!(
            sweep(1.0, &cycle(128), 2000..2500, "128 symbols"),
            [Direct, Huffman]
        );
        assert_eq!(
            sweep(2.0, &cycle(8), 2000..2500, "8 symbols"),
            [Direct, Huffman]
        );
        assert_eq!(sweep(4.0, &zeros, 2000..2500, "zeros"), [Rle, Huffman]);
        // The RLE threshold, where Huffman cannot reach it: runs of 33
        // cost two bytes each, so the ratio climbs towards 16.5.
        assert_eq!(
            sweep(16.0, &runs(33), 10_400..10_700, "runs of 33"),
            [Direct, Rle]
        );
        // Runs long enough for three-byte costs, where the run-count
        // bound is loose: it must not change an answer either.
        for rc in [1.0, 2.0, 4.0, 16.0] {
            sweep(rc, &runs(777), 1025..1600, "runs of 777");
            sweep(rc, &runs(130), 1025..1600, "runs of 130");
        }
        // A threshold between the bound's ratio (130 / 2) and the exact
        // one (130 / 3): the bound says maybe, the exact scan says no.
        assert_eq!(sweep(50.0, &runs(130), 6000..6100, "runs of 130"), [Direct]);
    }

    #[test]
    fn direct_decompress_to_is_zero_copy() {
        let c = compressor(1.0);
        let data = xorshift_bytes(4096, 9);
        let g = c.compress_with(&data, Codec::Direct);
        let mut scratch = Vec::new();
        let out = c.decompress_to(&g, &mut scratch).unwrap();
        assert_eq!(out.as_ptr(), g.payload.as_ptr(), "must borrow the payload");
        assert!(scratch.is_empty(), "scratch must stay untouched");
    }

    #[test]
    fn corrupt_payloads_error_not_panic() {
        let c = compressor(1.0);
        let data: Vec<u8> = (0..60_000).map(|i| (i / 100) as u8).collect();
        for codec in [Codec::Huffman, Codec::Rle] {
            let mut g = c.compress_with(&data, codec);
            g.payload.truncate(g.payload.len() / 2);
            let err = c.decompress(&g).unwrap_err();
            match codec {
                Codec::Huffman => assert!(matches!(err, CodecError::Huffman(_)), "{err:?}"),
                Codec::Rle => assert!(matches!(err, CodecError::Rle(_)), "{err:?}"),
                Codec::Direct => unreachable!(),
            }
        }
    }

    #[test]
    fn selected_codec_never_loses_to_threshold() {
        // Whatever Algorithm 2 selects, a non-Direct choice must actually
        // achieve a ratio near or above the threshold.
        let c = compressor(2.0);
        let data: Vec<u8> = (0..200_000)
            .map(|i| if i % 20 == 0 { 9 } else { 0 })
            .collect();
        let g = c.compress(&data);
        if g.codec != Codec::Direct {
            assert!(g.ratio() > 1.8, "ratio {} for {:?}", g.ratio(), g.codec);
        }
    }

    #[test]
    fn raising_rc_reduces_compression_effort() {
        // With a huge threshold everything becomes direct copy.
        let c = compressor(1e9);
        let data: Vec<u8> = (0..100_000)
            .map(|i| if i % 50 == 0 { 3 } else { 0 })
            .collect();
        assert_eq!(c.select(&data), Codec::Direct);
    }

    #[test]
    fn compressed_group_accounting() {
        let c = compressor(1.0);
        let data = vec![0u8; 100_000];
        let g = c.compress(&data);
        assert_eq!(g.original_len, 100_000);
        // All-zero data under Huffman hits the 1-bit/byte floor (CR ≈ 8).
        assert!(g.stored_len() < 15_000);
        assert!(g.ratio() > 6.0);
    }
}
