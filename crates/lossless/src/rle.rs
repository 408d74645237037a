//! Run-length encoding with varint run lengths.
//!
//! RLE excels on lower-order bitplanes where quantization and truncation
//! leave long zero runs, at a fraction of Huffman's computational cost.
//! Runs are stored as `(value: u8, length: LEB128 varint)` pairs; the input
//! is chunked so compression and decompression parallelize like the
//! Huffman path.
//!
//! Stream format (little-endian):
//! ```text
//! [orig_len u64][chunk_size u32][n_chunks u32]
//! [n_chunks × compressed byte length u32][chunk payloads]
//! ```

use crate::framing::{carve_output, decode_chunks, map_chunks, parse_frames, FramingError};

/// Chunk granularity for parallel encode/decode.
pub const CHUNK_SIZE: usize = 1 << 16;

/// Why an RLE stream failed to decode. Streams are untrusted storage
/// input, so every structural defect maps to a matchable error instead
/// of a panic — the RLE mirror of [`crate::HuffmanError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RleError {
    /// Stream shorter than the fixed header.
    TruncatedHeader,
    /// The chunk table or chunk payloads extend past the stream end.
    TruncatedPayload,
    /// Header fields are mutually inconsistent (chunk geometry vs the
    /// original length).
    CorruptHeader(String),
    /// A chunk's run list is truncated, overshoots, or contains an
    /// impossible run.
    CorruptChunk {
        /// Index of the offending chunk.
        chunk: usize,
        /// What exactly went wrong inside the chunk.
        why: &'static str,
    },
}

impl std::fmt::Display for RleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RleError::TruncatedHeader => write!(f, "truncated RLE header"),
            RleError::TruncatedPayload => write!(f, "truncated RLE payload"),
            RleError::CorruptHeader(why) => write!(f, "corrupt RLE header: {why}"),
            RleError::CorruptChunk { chunk, why } => {
                write!(f, "corrupt RLE chunk {chunk}: {why}")
            }
        }
    }
}

impl std::error::Error for RleError {}

impl From<FramingError> for RleError {
    fn from(e: FramingError) -> Self {
        match e {
            FramingError::TruncatedHeader => RleError::TruncatedHeader,
            FramingError::TruncatedPayload => RleError::TruncatedPayload,
            FramingError::Corrupt(why) => RleError::CorruptHeader(why),
        }
    }
}

/// Append `v` as a LEB128 varint.
#[inline]
pub fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Encoded byte size of `v` as a varint.
#[inline]
pub fn varint_len(v: u64) -> usize {
    if v == 0 {
        return 1;
    }
    (64 - v.leading_zeros() as usize).div_ceil(7)
}

fn compress_chunk(chunk: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(chunk.len() / 4 + 8);
    let mut i = 0;
    while i < chunk.len() {
        let v = chunk[i];
        let mut j = i + 1;
        while j < chunk.len() && chunk[j] == v {
            j += 1;
        }
        out.push(v);
        push_varint(&mut out, (j - i) as u64);
        i = j;
    }
    out
}

/// Compress `data`; the result decompresses with [`decompress`].
pub fn compress(data: &[u8]) -> Vec<u8> {
    let payloads = map_chunks(data, CHUNK_SIZE, compress_chunk);
    let mut out =
        Vec::with_capacity(16 + 4 * payloads.len() + payloads.iter().map(Vec::len).sum::<usize>());
    out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    out.extend_from_slice(&(CHUNK_SIZE as u32).to_le_bytes());
    out.extend_from_slice(&(payloads.len() as u32).to_le_bytes());
    for p in &payloads {
        out.extend_from_slice(&(p.len() as u32).to_le_bytes());
    }
    for p in &payloads {
        out.extend_from_slice(p);
    }
    out
}

/// Read a LEB128 varint, returning `(value, bytes_consumed)`; `None` on
/// truncation or overflow.
#[inline]
pub fn read_varint(data: &[u8]) -> Option<(u64, usize)> {
    let mut v = 0u64;
    let mut shift = 0u32;
    for (i, &b) in data.iter().enumerate() {
        // The tenth byte holds bit 63 alone: anything above 1 overflows.
        if shift >= 64 || (shift == 63 && b > 1) {
            return None;
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Some((v, i + 1));
        }
        shift += 7;
    }
    None
}

/// Decode one chunk payload into exactly `dst`.
fn decode_chunk(payload: &[u8], dst: &mut [u8], chunk: usize) -> Result<(), RleError> {
    let corrupt = |why: &'static str| RleError::CorruptChunk { chunk, why };
    let mut p = 0usize;
    let mut filled = 0usize;
    while filled < dst.len() {
        let v = *payload.get(p).ok_or_else(|| corrupt("truncated run"))?;
        p += 1;
        let (run, used) =
            read_varint(&payload[p..]).ok_or_else(|| corrupt("truncated run length"))?;
        p += used;
        let run = run as usize;
        if run > dst.len() - filled {
            return Err(corrupt("run overshoots the chunk"));
        }
        dst[filled..filled + run].fill(v);
        filled += run;
        if run == 0 {
            return Err(corrupt("zero-length run"));
        }
    }
    Ok(())
}

/// Decompress a stream produced by [`compress`] into `out` (cleared
/// first); the buffer is the caller's, so decode loops can lease it from
/// a pool. Returns a matchable [`RleError`] on truncated or corrupt
/// streams.
pub fn decompress_into(stream: &[u8], out: &mut Vec<u8>) -> Result<(), RleError> {
    let frames = parse_frames(stream, 16).map_err(RleError::from)?;
    let mut work = carve_output(&frames, out).map_err(RleError::from)?;
    decode_chunks(&mut work, decode_chunk)
}

/// Decompress a stream produced by [`compress`].
pub fn decompress(stream: &[u8]) -> Result<Vec<u8>, RleError> {
    let mut out = Vec::new();
    decompress_into(stream, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "len for {v}");
            let (back, used) = read_varint(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn overflowing_varints_are_rejected() {
        let mut max = Vec::new();
        push_varint(&mut max, u64::MAX);
        assert_eq!(max.len(), 10);
        assert_eq!(read_varint(&max), Some((u64::MAX, 10)));
        // A tenth byte carrying bits past 63, or continuing to an eleventh.
        let mut wide = vec![0x81];
        wide.extend([0x80; 8]);
        wide.push(0x02);
        assert_eq!(read_varint(&wide), None);
        *wide.last_mut().unwrap() = 0x81;
        wide.push(0x00);
        assert_eq!(read_varint(&wide), None);
    }

    #[test]
    fn roundtrip_empty() {
        assert_eq!(decompress(&compress(&[])).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn roundtrip_all_zero() {
        let data = vec![0u8; 500_000];
        let c = compress(&data);
        assert!(
            c.len() < 200,
            "all-zero data must collapse: {} bytes",
            c.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn roundtrip_alternating_worst_case() {
        let data: Vec<u8> = (0..100_000).map(|i| (i % 2) as u8).collect();
        let c = compress(&data);
        // Worst case: RLE expands (2 bytes per 1-byte run).
        assert!(c.len() > data.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn roundtrip_structured_runs() {
        let mut data = Vec::new();
        for i in 0..1000u32 {
            data.extend(std::iter::repeat_n((i % 5) as u8, 17 + (i as usize % 300)));
        }
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    }

    #[test]
    fn roundtrip_chunk_boundaries() {
        for n in [CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1] {
            let data: Vec<u8> = (0..n).map(|i| (i / 1000) as u8).collect();
            assert_eq!(decompress(&compress(&data)).unwrap(), data, "n={n}");
        }
    }

    #[test]
    fn runs_do_not_cross_chunks() {
        // A run spanning the chunk boundary must still decode exactly.
        let data = vec![9u8; CHUNK_SIZE + 100];
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    }
}
