//! Shared chunked-stream framing for the parallel codecs.
//!
//! Huffman and RLE streams share the same frame: a little-endian
//! `[orig_len u64][chunk_size u32][n_chunks u32]` prologue, an optional
//! codec-specific table, a `u32` payload-length table, then the chunk
//! payloads. Parsing and geometry validation live here once, so the two
//! codecs cannot drift apart on how they reject corrupt frames (storage
//! input must error readably, never panic).

/// Largest chunk size a reader accepts. Writers chunk at 64 KiB
/// ([`crate::huffman::CHUNK_SIZE`]); the 64× headroom tolerates future
/// tuning while keeping a corrupt header from demanding an output
/// allocation unmoored from the actual stream — decoding must return
/// `Err`, and an OOM abort is not an `Err`.
pub(crate) const MAX_CHUNK_SIZE: usize = 1 << 22;

/// Why a chunk frame failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FramingError {
    /// Stream shorter than the fixed header.
    TruncatedHeader,
    /// Chunk table or payloads extend past the stream end.
    TruncatedPayload,
    /// Header fields are mutually inconsistent.
    Corrupt(String),
}

impl std::fmt::Display for FramingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FramingError::TruncatedHeader => write!(f, "truncated header"),
            FramingError::TruncatedPayload => write!(f, "truncated payload"),
            FramingError::Corrupt(why) => write!(f, "corrupt header: {why}"),
        }
    }
}

/// Parsed frame: per chunk `(payload, decoded_len)`, plus the total
/// decoded length.
#[derive(Debug)]
pub(crate) struct ChunkFrames<'a> {
    pub chunks: Vec<(&'a [u8], usize)>,
    pub orig_len: usize,
}

impl ChunkFrames<'_> {
    /// Total compressed payload bytes across chunks.
    pub fn payload_total(&self) -> usize {
        self.chunks.iter().map(|&(p, _)| p.len()).sum()
    }
}

/// The `N` bytes at `off`; `None` if the stream ends before them.
fn bytes_at<const N: usize>(stream: &[u8], off: usize) -> Option<[u8; N]> {
    stream.get(off..)?.first_chunk::<N>().copied()
}

/// Parse the frame of `stream`, whose chunk-length table starts at
/// `table_off` (16 for RLE, 16 + 256 for Huffman's code-length table).
pub(crate) fn parse_frames(
    stream: &[u8],
    table_off: usize,
) -> Result<ChunkFrames<'_>, FramingError> {
    if stream.len() < table_off {
        return Err(FramingError::TruncatedHeader);
    }
    let short = || FramingError::TruncatedHeader;
    let orig_len = u64::from_le_bytes(bytes_at(stream, 0).ok_or_else(short)?) as usize;
    let chunk_size = u32::from_le_bytes(bytes_at(stream, 8).ok_or_else(short)?) as usize;
    let n_chunks = u32::from_le_bytes(bytes_at(stream, 12).ok_or_else(short)?) as usize;

    if n_chunks == 0 {
        if orig_len != 0 {
            return Err(FramingError::Corrupt(format!(
                "no chunks declared for {orig_len} decoded bytes"
            )));
        }
        return Ok(ChunkFrames {
            chunks: Vec::new(),
            orig_len,
        });
    }
    if chunk_size > MAX_CHUNK_SIZE {
        return Err(FramingError::Corrupt(format!(
            "chunk size {chunk_size} exceeds the supported maximum {MAX_CHUNK_SIZE}"
        )));
    }
    // All chunks but the last decode exactly `chunk_size` bytes; the
    // remainder must be positive and fit one chunk, so the covered
    // prefix must fall short of `orig_len` by at most `chunk_size` (a
    // zero prefix is the trivial single-chunk case). Together with the
    // chunk-size cap this bounds the output a header can demand.
    let geometry_err = || {
        FramingError::Corrupt(format!(
            "chunk geometry {chunk_size}×{n_chunks} inconsistent with length {orig_len}"
        ))
    };
    let covered = chunk_size
        .checked_mul(n_chunks - 1)
        .filter(|&c| c < orig_len || c == 0)
        .ok_or_else(geometry_err)?;
    if orig_len - covered > chunk_size {
        return Err(geometry_err());
    }

    let mut off = table_off;
    let table_end = off
        .checked_add(4 * n_chunks)
        .filter(|&e| e <= stream.len())
        .ok_or(FramingError::TruncatedPayload)?;
    let mut chunks = Vec::with_capacity(n_chunks);
    let mut payload_off = table_end;
    for i in 0..n_chunks {
        let l = bytes_at(stream, off).ok_or(FramingError::TruncatedPayload)?;
        let l = u32::from_le_bytes(l) as usize;
        off += 4;
        let end = payload_off
            .checked_add(l)
            .filter(|&e| e <= stream.len())
            .ok_or(FramingError::TruncatedPayload)?;
        let out_len = if i + 1 == n_chunks {
            orig_len - covered
        } else {
            chunk_size
        };
        chunks.push((&stream[payload_off..end], out_len));
        payload_off = end;
    }
    Ok(ChunkFrames { chunks, orig_len })
}

/// One parallel-decode work item: `(chunk_index, payload, output window)`.
pub(crate) type ChunkJob<'a, 'b> = (usize, &'a [u8], &'b mut [u8]);

/// Size `out` to `frames.orig_len` and carve it into one window per
/// chunk, ready for parallel decode.
pub(crate) fn carve_output<'a, 'b>(
    frames: &ChunkFrames<'a>,
    out: &'b mut Vec<u8>,
) -> Result<Vec<ChunkJob<'a, 'b>>, FramingError> {
    out.clear();
    out.resize(frames.orig_len, 0);
    let mut work = Vec::with_capacity(frames.chunks.len());
    let mut rest = out.as_mut_slice();
    for (i, &(payload, out_len)) in frames.chunks.iter().enumerate() {
        let (dst, tail) = rest.split_at_mut(out_len.min(rest.len()));
        rest = tail;
        if dst.len() != out_len {
            return Err(FramingError::Corrupt(
                "chunk lengths exceed the declared output length".to_string(),
            ));
        }
        work.push((i, payload, dst));
    }
    Ok(work)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(orig_len: u64, chunk_size: u32, lens: &[u32]) -> Vec<u8> {
        let mut s = Vec::new();
        s.extend_from_slice(&orig_len.to_le_bytes());
        s.extend_from_slice(&chunk_size.to_le_bytes());
        s.extend_from_slice(&(lens.len() as u32).to_le_bytes());
        for &l in lens {
            s.extend_from_slice(&l.to_le_bytes());
        }
        for &l in lens {
            s.extend(std::iter::repeat_n(0u8, l as usize));
        }
        s
    }

    #[test]
    fn zeroed_orig_len_with_chunks_is_corrupt_not_underflow() {
        // Regression: orig_len = 0 with n_chunks ≥ 2 must be rejected,
        // not underflow `orig_len - covered` for the last chunk.
        let s = frame(0, 65536, &[10, 10]);
        match parse_frames(&s, 16) {
            Err(FramingError::Corrupt(why)) => assert!(why.contains("inconsistent"), "{why}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn huge_declared_output_is_corrupt_not_alloc_abort() {
        // A bit-flipped orig_len must not reach `out.resize` — an OOM
        // abort is not an Err.
        let s = frame(u64::MAX / 2, 65536, &[10, 10]);
        assert!(matches!(
            parse_frames(&s, 16),
            Err(FramingError::Corrupt(_))
        ));
        // Oversized chunk_size is rejected outright.
        let s = frame(1 << 40, u32::MAX, &[10]);
        assert!(matches!(
            parse_frames(&s, 16),
            Err(FramingError::Corrupt(_))
        ));
    }

    #[test]
    fn consistent_geometry_parses() {
        let s = frame(70000, 65536, &[100, 50]);
        let f = parse_frames(&s, 16).unwrap();
        assert_eq!(f.orig_len, 70000);
        assert_eq!(f.chunks[0].1, 65536);
        assert_eq!(f.chunks[1].1, 70000 - 65536);
        assert_eq!(f.payload_total(), 150);
    }

    #[test]
    fn truncated_tables_are_detected() {
        let s = frame(70000, 65536, &[100, 50]);
        let err = |r: Result<ChunkFrames<'_>, FramingError>| r.expect_err("must fail");
        assert_eq!(
            err(parse_frames(&s[..10], 16)),
            FramingError::TruncatedHeader
        );
        assert_eq!(
            err(parse_frames(&s[..20], 16)),
            FramingError::TruncatedPayload
        );
        assert_eq!(
            err(parse_frames(&s[..s.len() - 1], 16)),
            FramingError::TruncatedPayload
        );
    }
}
