//! Cheap compression-ratio estimators (§5.2).
//!
//! The hybrid selector must predict, *before* encoding, how well Huffman
//! and RLE would do on a merged bitplane group. Both estimators are single
//! scans with no allocation beyond a 256-entry histogram:
//!
//! * **Huffman**: build the histogram, derive optimal code lengths, and sum
//!   `freq × len` — the exact payload bit count; the header overhead is
//!   added as a constant. This is [`CodeBook::stream_len`]: the selector
//!   keeps the code book it asked and encodes with it.
//! * **RLE**: scan for run beginnings and accumulate the exact per-run
//!   cost (1 symbol byte + varint run-length bytes). The selector asks
//!   the yes/no question [`rle_cr_exceeds`], which a branch-free count of
//!   run beginnings settles for every group RLE cannot win.
//!
//! Because both estimates are exact up to chunk-boundary effects, the
//! selector's decisions match what actual encoding would have produced.

use crate::huffman::CodeBook;
use crate::rle::{varint_len, CHUNK_SIZE};
use hpmdr_rt::prelude::*;

/// Estimated compression ratio of Huffman coding `data` (original size
/// divided by estimated compressed size, header included). Returns
/// `f64::INFINITY` for empty input.
pub fn estimate_huffman_cr(data: &[u8]) -> f64 {
    if data.is_empty() {
        return f64::INFINITY;
    }
    CodeBook::new(data).estimated_ratio()
}

/// Bytes of an RLE frame ahead of the chunk payloads.
fn rle_header_len(len: usize) -> u64 {
    (16 + 4 * len.div_ceil(CHUNK_SIZE).max(1)) as u64
}

/// Estimated compression ratio of RLE coding `data`. Returns
/// `f64::INFINITY` for empty input.
pub fn estimate_rle_cr(data: &[u8]) -> f64 {
    if data.is_empty() {
        return f64::INFINITY;
    }
    let cost: u64 = data
        .par_chunks(CHUNK_SIZE)
        .map(|chunk| {
            let mut bytes = 0u64;
            let mut i = 0;
            while i < chunk.len() {
                let v = chunk[i];
                let mut j = i + 1;
                while j < chunk.len() && chunk[j] == v {
                    j += 1;
                }
                bytes += 1 + varint_len((j - i) as u64) as u64;
                i = j;
            }
            bytes
        })
        .sum();
    data.len() as f64 / (cost + rle_header_len(data.len())) as f64
}

/// Whether [`estimate_rle_cr`]`(data) > threshold`, at less than the cost
/// of the exact scan wherever RLE cannot win.
///
/// Every run costs at least two bytes (symbol + one varint byte), so
/// `2 · runs + header` is a lower bound on the RLE size, and `runs` is a
/// branch-free count of `c[i] != c[i-1]` per chunk. Correctly rounded
/// division is monotone in the denominator, so the ratio over the bound
/// is never below the exact estimate: when it does not clear the
/// threshold the estimate cannot either, and only the remaining groups
/// pay the exact scan. The answer is the exact comparison's on every
/// input at every threshold.
pub fn rle_cr_exceeds(data: &[u8], threshold: f64) -> bool {
    if data.is_empty() {
        return f64::INFINITY > threshold;
    }
    let runs: usize = data.par_chunks(CHUNK_SIZE).map(count_runs).sum();
    let at_least = 2 * runs as u64 + rle_header_len(data.len());
    data.len() as f64 / at_least as f64 > threshold && estimate_rle_cr(data) > threshold
}

/// Runs of equal bytes in a non-empty `chunk`: one plus the positions
/// that differ from their predecessor, counted 128 at a time in a `u8`
/// so the compare-and-add stays in byte lanes.
fn count_runs(chunk: &[u8]) -> usize {
    let blocks = chunk[1..].chunks(128).zip(chunk.chunks(128));
    let changes = blocks.map(|(next, prev)| {
        let differing = next.iter().zip(prev).map(|(a, b)| u8::from(a != b));
        usize::from(differing.sum::<u8>())
    });
    1 + changes.sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{huffman as hf, rle};

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
    fn huffman_estimate_matches_actual_size() {
        for data in [
            vec![0u8; 200_000],
            xorshift_bytes(200_000, 3),
            (0..200_000)
                .map(|i| if i % 16 == 0 { 255 } else { 0 })
                .collect::<Vec<u8>>(),
        ] {
            let est_cr = estimate_huffman_cr(&data);
            let actual_cr = data.len() as f64 / hf::compress(&data).len() as f64;
            let ratio = est_cr / actual_cr;
            assert!(
                (0.9..=1.1).contains(&ratio),
                "estimate {est_cr} vs actual {actual_cr}"
            );
        }
    }

    #[test]
    fn rle_estimate_matches_actual_size() {
        for data in [
            vec![0u8; 200_000],
            (0..200_000).map(|i| (i / 777) as u8).collect::<Vec<u8>>(),
            xorshift_bytes(50_000, 11),
        ] {
            let est_cr = estimate_rle_cr(&data);
            let actual_cr = data.len() as f64 / rle::compress(&data).len() as f64;
            let ratio = est_cr / actual_cr;
            assert!(
                (0.9..=1.1).contains(&ratio),
                "estimate {est_cr} vs actual {actual_cr}"
            );
        }
    }

    #[test]
    fn random_data_estimates_near_or_below_one() {
        let data = xorshift_bytes(300_000, 99);
        assert!(estimate_huffman_cr(&data) < 1.05);
        assert!(estimate_rle_cr(&data) < 1.0);
    }

    #[test]
    fn zero_data_estimates_are_huge() {
        let data = vec![0u8; 1 << 20];
        // Huffman is floored at 1 bit/symbol (CR ≈ 8); RLE collapses runs.
        assert!(estimate_huffman_cr(&data) > 7.0);
        assert!(estimate_rle_cr(&data) > 1000.0);
    }

    #[test]
    fn empty_input_is_infinitely_compressible() {
        assert_eq!(estimate_huffman_cr(&[]), f64::INFINITY);
        assert_eq!(estimate_rle_cr(&[]), f64::INFINITY);
    }

    #[test]
    fn rle_beats_huffman_on_long_runs_of_many_symbols() {
        // 256 distinct symbols in long runs: Huffman ≥ 1 bit/byte floor,
        // RLE pays ~2 bytes per 4096-byte run.
        let mut data = Vec::new();
        for i in 0..256 {
            data.extend(std::iter::repeat_n(i as u8, 4096));
        }
        assert!(estimate_rle_cr(&data) > estimate_huffman_cr(&data));
    }
}
