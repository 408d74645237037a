//! Chunked canonical Huffman coding over byte symbols.
//!
//! The format is built for parallel (de)compression, mirroring the
//! GPU-optimized Huffman design HP-MDR adopts: the input is split into
//! fixed-size chunks that are encoded independently against one shared
//! canonical code table, so both directions parallelize over chunks with
//! no cross-chunk bit dependencies.
//!
//! Bit I/O runs word-at-a-time. The encoder merges up to four whole
//! codes into one shift+or and stores its 64-bit accumulator 8 bytes at
//! a time, branch-free (never per bit or per symbol); the decoder keeps
//! a 64-bit look-ahead refilled 8 bytes per load, once per five lookups,
//! and resolves symbols through a flat [`LUT_BITS`]-bit table — the
//! batched variant drains *every* whole code in the peeked window, so
//! skewed streams decode several symbols per lookup, and only codes
//! longer than the table width fall back to the canonical first-code
//! scan. Byte output is identical to the historical bit-serial coder.
//!
//! Stream format (little-endian):
//! ```text
//! [orig_len u64][chunk_size u32][n_chunks u32][256 × code length u8]
//! [n_chunks × compressed byte length u32][chunk payloads, byte aligned]
//! ```

use crate::framing::{
    carve_output, decode_chunks, map_chunks, parse_frames, ChunkFrames, FramingError,
};

/// Chunk granularity for parallel encode/decode.
pub const CHUNK_SIZE: usize = 1 << 16;

/// Maximum admissible code length; histograms are rescaled if the optimal
/// tree exceeds it (only possible for adversarial distributions).
pub const MAX_CODE_LEN: usize = 56;

/// Width of the first-level decode lookup table: one `u16` entry per
/// 11-bit prefix resolves any code of ≤ 11 bits in a single indexed load.
pub const LUT_BITS: usize = 11;

/// Why a Huffman stream failed to decode. Streams are untrusted storage
/// input, so every structural defect maps to a readable error instead of
/// a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HuffmanError {
    /// Stream shorter than the fixed header (lengths table included).
    TruncatedHeader,
    /// The chunk table or chunk payloads extend past the stream end.
    TruncatedPayload,
    /// Header fields are mutually inconsistent (chunk geometry vs the
    /// original length, or an impossible code-length table).
    CorruptHeader(String),
    /// A chunk bitstream hit an invalid code or ran out of bits.
    CorruptChunk {
        /// Index of the offending chunk.
        chunk: usize,
    },
}

impl std::fmt::Display for HuffmanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HuffmanError::TruncatedHeader => write!(f, "truncated Huffman header"),
            HuffmanError::TruncatedPayload => write!(f, "truncated Huffman payload"),
            HuffmanError::CorruptHeader(why) => write!(f, "corrupt Huffman header: {why}"),
            HuffmanError::CorruptChunk { chunk } => {
                write!(f, "corrupt Huffman bitstream in chunk {chunk}")
            }
        }
    }
}

impl std::error::Error for HuffmanError {}

/// Compute the byte histogram of `data` (parallel).
///
/// Counts into four interleaved sub-histograms so consecutive increments
/// never touch the same counter — the serial `h[b] += 1` dependency chain
/// is what bounds a naive histogram, not memory bandwidth.
pub fn histogram(data: &[u8]) -> [u64; 256] {
    map_chunks(data, 1 << 20, |chunk| {
        // u32 lanes cannot overflow: each worker chunk is ≤ 2^20 bytes.
        let mut lanes = [[0u32; 256]; 4];
        let mut quads = chunk.chunks_exact(4);
        for q in &mut quads {
            lanes[0][q[0] as usize] += 1;
            lanes[1][q[1] as usize] += 1;
            lanes[2][q[2] as usize] += 1;
            lanes[3][q[3] as usize] += 1;
        }
        for &b in quads.remainder() {
            lanes[0][b as usize] += 1;
        }
        let mut h = [0u64; 256];
        for lane in &lanes {
            for (x, &y) in h.iter_mut().zip(lane.iter()) {
                *x += y as u64;
            }
        }
        h
    })
    .iter()
    .fold([0u64; 256], |mut a, b| {
        for (x, y) in a.iter_mut().zip(b.iter()) {
            *x += y;
        }
        a
    })
}

/// Optimal prefix-code lengths for `hist` (0 for absent symbols).
///
/// Uses the standard two-queue Huffman construction; rescales the
/// histogram if the depth exceeds [`MAX_CODE_LEN`].
pub fn code_lengths(hist: &[u64; 256]) -> [u8; 256] {
    let mut scaled = *hist;
    loop {
        let lens = try_code_lengths(&scaled);
        if lens.iter().all(|&l| (l as usize) <= MAX_CODE_LEN) {
            return lens;
        }
        for c in scaled.iter_mut() {
            *c = (*c).div_ceil(2);
        }
    }
}

/// One two-queue construction, depth unbounded. Nodes are ordered by
/// `(count, id)` with leaf ids (the symbols) below internal ids (256 up,
/// in creation order): the leaves are sorted once, internal nodes are
/// created with non-decreasing counts and so queue up already sorted, and
/// the smaller of the two queue heads — the leaf on a tie — is the
/// minimum of the whole forest. Everything lives in fixed arrays: the
/// per-unit cost is the sort and two linear passes, no allocation.
fn try_code_lengths(hist: &[u64; 256]) -> [u8; 256] {
    let mut lens = [0u8; 256];
    let mut present = [(0u64, 0usize); 256];
    let mut n = 0;
    for (s, &count) in hist.iter().enumerate() {
        if count > 0 {
            present[n] = (count, s);
            n += 1;
        }
    }
    let leaves = &mut present[..n];
    match leaves {
        [] => return lens,
        [(_, s)] => {
            lens[*s] = 1;
            return lens;
        }
        _ => {}
    }
    leaves.sort_unstable();
    // `internal[i]` is the count of node `256 + i`; `parent[id]` is the
    // internal index of node `id`'s parent.
    let mut internal = [0u64; 255];
    let mut parent = [0u16; 256 + 255];
    let (mut leaf, mut node) = (0usize, 0usize);
    for made in 0..n - 1 {
        let mut count = 0u64;
        for _ in 0..2 {
            let take_leaf = leaf < n && (node == made || leaves[leaf].0 <= internal[node]);
            let (c, id) = if take_leaf {
                leaf += 1;
                leaves[leaf - 1]
            } else {
                node += 1;
                (internal[node - 1], 255 + node)
            };
            parent[id] = made as u16;
            count += c;
        }
        internal[made] = count;
    }
    // Depths top-down: the root is the last node made and every node is
    // made after its children, so walking creation order backwards meets
    // each parent before its children.
    let mut depth = [0u8; 255];
    for i in (0..n - 2).rev() {
        depth[i] = depth[parent[256 + i] as usize] + 1;
    }
    for &(_, s) in leaves.iter() {
        lens[s] = depth[parent[s] as usize] + 1;
    }
    lens
}

/// The binary-heap construction [`try_code_lengths`] replaced, kept as
/// the oracle its lengths are tested against.
#[cfg(test)]
fn try_code_lengths_heap(hist: &[u64; 256]) -> [u8; 256] {
    let mut lens = [0u8; 256];
    let symbols: Vec<usize> = (0..256).filter(|&s| hist[s] > 0).collect();
    match symbols.len() {
        0 => return lens,
        1 => {
            lens[symbols[0]] = 1;
            return lens;
        }
        _ => {}
    }
    // Heap of (count, node id); internal nodes get ids ≥ 256.
    #[derive(PartialEq, Eq)]
    struct Node {
        count: u64,
        id: usize,
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reverse for a min-heap; tie-break on id for determinism.
            other.count.cmp(&self.count).then(other.id.cmp(&self.id))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    let mut heap = std::collections::BinaryHeap::new();
    let mut parents: Vec<usize> = vec![usize::MAX; 256 + symbols.len()];
    for &s in &symbols {
        heap.push(Node {
            count: hist[s],
            id: s,
        });
    }
    let mut next_id = 256;
    while heap.len() > 1 {
        let (Some(a), Some(b)) = (heap.pop(), heap.pop()) else {
            break;
        };
        parents[a.id] = next_id;
        parents[b.id] = next_id;
        heap.push(Node {
            count: a.count + b.count,
            id: next_id,
        });
        next_id += 1;
    }
    for &s in &symbols {
        let mut depth = 0u8;
        let mut node = s;
        while parents[node] != usize::MAX {
            node = parents[node];
            depth += 1;
        }
        lens[s] = depth;
    }
    lens
}

/// Canonical code assignment: codes ascend in (length, value) order.
/// The first code of each length follows from the counts of the shorter
/// ones, so the codes are assigned in one pass in symbol order, no sort.
pub fn canonical_codes(lens: &[u8; 256]) -> [u64; 256] {
    let mut count = [0u64; 256];
    for &l in lens {
        count[l as usize] += 1;
    }
    let max_len = lens.iter().copied().max().unwrap_or(0) as usize;
    // `next[l]`: the code the next symbol of length `l` receives.
    let mut next = [0u64; 256];
    let mut code = 0u64;
    for l in 2..=max_len {
        code = (code + count[l - 1]) << 1;
        next[l] = code;
    }
    let mut codes = [0u64; 256];
    for (c, &l) in codes.iter_mut().zip(lens) {
        if l > 0 {
            *c = next[l as usize];
            next[l as usize] += 1;
        }
    }
    codes
}

/// The sort-based assignment [`canonical_codes`] replaced, kept as the
/// oracle its codes are tested against.
#[cfg(test)]
fn canonical_codes_sorted(lens: &[u8; 256]) -> [u64; 256] {
    let mut codes = [0u64; 256];
    let mut order: Vec<usize> = (0..256).filter(|&s| lens[s] > 0).collect();
    order.sort_by_key(|&s| (lens[s], s));
    let mut code = 0u64;
    let mut prev_len = 0u8;
    for &s in &order {
        code <<= lens[s] - prev_len;
        codes[s] = code;
        code += 1;
        prev_len = lens[s];
    }
    codes
}

/// The canonical code of one input, built once: what the hybrid selector
/// asks about ([`Self::stream_len`]) and what encodes
/// ([`Self::encode`]) share one histogram and one tree. It borrows the
/// input, so the code can only ever encode the bytes it was built from.
#[derive(Debug, Clone)]
pub struct CodeBook<'a> {
    data: &'a [u8],
    lens: [u8; 256],
    /// `Σ count × code length`: the exact payload bit count.
    payload_bits: u64,
}

impl<'a> CodeBook<'a> {
    /// Histogram `data` and derive its optimal code lengths.
    pub fn new(data: &'a [u8]) -> Self {
        let hist = histogram(data);
        let lens = code_lengths(&hist);
        let payload_bits = hist.iter().zip(&lens).map(|(&f, &l)| f * l as u64).sum();
        CodeBook {
            data,
            lens,
            payload_bits,
        }
    }

    /// Bytes of the frame ahead of the chunk payloads: fixed fields,
    /// lengths table, per-chunk sizes.
    fn header_len(&self) -> usize {
        16 + 256 + 4 * self.data.len().div_ceil(CHUNK_SIZE).max(1)
    }

    /// Length in bytes of the stream [`Self::encode`] produces, exact up
    /// to the padding of each chunk's last byte (it counts one padded
    /// tail, a stream of `k` chunks has up to `k`; an empty input is
    /// counted with the size entry of a chunk it does not have).
    pub fn stream_len(&self) -> usize {
        self.payload_bits.div_ceil(8) as usize + self.header_len()
    }

    /// Input length over [`Self::stream_len`]: the compression ratio the
    /// hybrid selector holds against its threshold.
    pub fn estimated_ratio(&self) -> f64 {
        self.data.len() as f64 / self.stream_len() as f64
    }

    /// Encode the input; the result decompresses with [`decompress`].
    pub fn encode(&self) -> Vec<u8> {
        let (data, lens) = (self.data, &self.lens);
        let codes = canonical_codes(lens);
        // Codes merged per step: as many as fit 63 bits beside the < 8
        // carried ones at the book's longest code.
        let write_chunk = match lens.iter().copied().max().unwrap_or(0) {
            0..=14 => encode_chunk_block::<4>,
            15..=28 => encode_chunk_block::<2>,
            _ => encode_chunk_block::<1>,
        };
        // Size each chunk's buffer from the known payload: its exact
        // size for a single-chunk input, the average plus an eighth
        // otherwise (a chunk denser than that regrows).
        let n_chunks = data.len().div_ceil(CHUNK_SIZE).max(1);
        let share = (self.payload_bits.div_ceil(8) as usize).div_ceil(n_chunks);
        let payload_cap = share + usize::from(n_chunks > 1) * share / 8;
        let payloads = map_chunks(data, CHUNK_SIZE, |chunk| {
            let mut out = Vec::with_capacity(payload_cap);
            write_chunk(chunk, lens, &codes, &mut out);
            out
        });
        frame_stream(data.len(), lens, &payloads)
    }
}

/// Assemble the stream of `len` input bytes from its code lengths and
/// encoded chunk payloads (see the module docs for the format).
fn frame_stream(len: usize, lens: &[u8; 256], payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        16 + 256 + 4 * payloads.len() + payloads.iter().map(Vec::len).sum::<usize>(),
    );
    out.extend_from_slice(&(len as u64).to_le_bytes());
    out.extend_from_slice(&(CHUNK_SIZE as u32).to_le_bytes());
    out.extend_from_slice(&(payloads.len() as u32).to_le_bytes());
    out.extend_from_slice(lens);
    for p in payloads {
        out.extend_from_slice(&(p.len() as u32).to_le_bytes());
    }
    for p in payloads {
        out.extend_from_slice(p);
    }
    out
}

/// Compress `data`; the result decompresses with [`decompress`].
pub fn compress(data: &[u8]) -> Vec<u8> {
    CodeBook::new(data).encode()
}

/// Reference chunk encoder: right-aligned 64-bit accumulator, one
/// shift+or per symbol, byte-at-a-time flush. This is the semantics
/// pin [`encode_chunk_block`] must reproduce byte for byte.
#[cfg(test)]
fn encode_chunk_reference(chunk: &[u8], lens: &[u8; 256], codes: &[u64; 256], out: &mut Vec<u8>) {
    // Whole codes land in a 64-bit accumulator. The flush keeps
    // pending < 8, and pending + MAX_CODE_LEN = 7 + 56 ≤ 63, so
    // the shift below can never push live bits off the top.
    let mut acc = 0u64;
    let mut pending = 0u32;
    for &b in chunk {
        let len = lens[b as usize] as u32;
        debug_assert!(pending < 8 && len as usize <= MAX_CODE_LEN);
        acc = (acc << len) | codes[b as usize];
        pending += len;
        while pending >= 8 {
            pending -= 8;
            out.push((acc >> pending) as u8);
        }
    }
    // The per-symbol flush leaves pending < 8: only a padded
    // tail byte can remain.
    if pending > 0 {
        out.push((acc << (8 - pending)) as u8);
    }
}

/// Symbols the block writer encodes between drains of its stack buffer.
const BLOCK: usize = 512;

/// Block chunk encoder: the bitstream of [`encode_chunk_reference`],
/// written without a data-dependent branch. A left-aligned 64-bit
/// accumulator carries fewer than 8 bits between steps; each step merges
/// `PER` codes into one (`PER × longest code + 7 ≤ 63`, so nothing is
/// shifted out), ORs it in below the carried bits, stores all 8
/// accumulator bytes big-endian at the write position and advances by
/// the whole bytes only — the partial byte stays in the accumulator and
/// the next store rewrites it. The stores land in a stack buffer drained
/// once per [`BLOCK`] symbols, whose 8 bytes of slack absorb the last
/// store's overhang.
fn encode_chunk_block<const PER: usize>(
    chunk: &[u8],
    lens: &[u8; 256],
    codes: &[u64; 256],
    out: &mut Vec<u8>,
) {
    /// One step: append `len` bits of `code` below the `bits < 8`
    /// carried ones, store the accumulator at `pos` and advance by the
    /// whole bytes (`bits + len ≤ 63`, so at most 7 of them).
    #[inline(always)]
    fn put(buf: &mut [u8], pos: &mut usize, acc: &mut u64, bits: &mut u32, code: u64, len: u32) {
        debug_assert!(*bits < 8 && *bits + len <= 63);
        *acc |= code << (64 - *bits - len);
        *bits += len;
        buf[*pos..*pos + 8].copy_from_slice(&acc.to_be_bytes());
        let whole = *bits / 8;
        *pos += whole as usize;
        *acc <<= 8 * whole;
        *bits &= 7;
    }

    let mut buf = [0u8; BLOCK * MAX_CODE_LEN / 8 + 8];
    let mut acc = 0u64;
    let mut bits = 0u32;
    for block in chunk.chunks(BLOCK) {
        let mut pos = 0usize;
        let (groups, rest) = block.as_chunks::<PER>();
        for group in groups {
            let (mut code, mut len) = (0u64, 0u32);
            for &b in group {
                let l = lens[b as usize] as u32;
                code = (code << l) | codes[b as usize];
                len += l;
            }
            put(&mut buf, &mut pos, &mut acc, &mut bits, code, len);
        }
        for &b in rest {
            let (code, len) = (codes[b as usize], lens[b as usize] as u32);
            put(&mut buf, &mut pos, &mut acc, &mut bits, code, len);
        }
        out.extend_from_slice(&buf[..pos]);
    }
    // Tail: the zero-padded partial byte.
    if bits > 0 {
        out.push((acc >> 56) as u8);
    }
}

/// Most symbols a single batched-LUT entry resolves (its packed `u64`
/// holds exactly six symbol bytes above the length/count fields).
const MAX_BATCH: usize = 6;

/// Batched lookups per refill in [`decode_chunk`]'s fast loop. A word
/// refill leaves ≥ 56 valid bits and one lookup consumes ≤ [`LUT_BITS`],
/// so the group's takes need no check.
const GROUP: usize = 5;
const _: () = assert!(GROUP * LUT_BITS <= 56);

/// Decoding tables derived from canonical code lengths: a flat first-level
/// LUT for codes of ≤ [`LUT_BITS`] bits plus the canonical first-code
/// scan for the (rare) longer codes.
#[cfg_attr(test, derive(Debug, PartialEq))]
struct DecodeTable {
    /// `(code_len << 8) | symbol` per [`LUT_BITS`]-bit prefix;
    /// 0 marks a long-code escape to the canonical scan.
    lut: Vec<u16>,
    /// Batched variant: every [`LUT_BITS`]-bit prefix maps to *all* the
    /// whole codes it contains (up to [`MAX_BATCH`]), so skewed streams
    /// whose hot symbols have 1–3-bit codes decode several symbols per
    /// lookup. Layout: bits 5..0 total code bits, bits 10..8 symbol
    /// count (0 = escape to the one-symbol path), bits 63..16 up to six
    /// symbol bytes, first symbol lowest.
    batch: Vec<u64>,
    /// For each length 1..=MAX: first canonical code of that length.
    first_code: [u64; MAX_CODE_LEN + 1],
    /// Index into `symbols` of the first code of each length.
    first_index: [usize; MAX_CODE_LEN + 1],
    /// Symbols ordered by (length, value).
    symbols: Vec<u8>,
    /// Per-length symbol counts.
    count: [usize; MAX_CODE_LEN + 1],
    /// Longest assigned code length.
    max_len: usize,
}

impl DecodeTable {
    fn new(lens: &[u8; 256]) -> Result<Self, HuffmanError> {
        if let Some(&l) = lens.iter().find(|&&l| l as usize > MAX_CODE_LEN) {
            return Err(HuffmanError::CorruptHeader(format!(
                "code length {l} exceeds the maximum {MAX_CODE_LEN}"
            )));
        }
        let mut count = [0usize; MAX_CODE_LEN + 1];
        for &l in lens {
            count[l as usize] += 1;
        }
        // Length 0 marks an absent symbol.
        count[0] = 0;
        let max_len = lens.iter().copied().max().unwrap_or(0) as usize;
        let mut first_code = [0u64; MAX_CODE_LEN + 1];
        let mut first_index = [0usize; MAX_CODE_LEN + 1];
        let mut code = 0u64;
        let mut index = 0usize;
        for len in 1..=MAX_CODE_LEN {
            code <<= 1;
            first_code[len] = code;
            first_index[len] = index;
            code += count[len] as u64;
            index += count[len];
            // A length-table whose canonical assignment overflows the code
            // space can never have been produced by a Huffman tree.
            if code > 1u64 << len {
                return Err(HuffmanError::CorruptHeader(format!(
                    "code-length table overfills {len}-bit code space"
                )));
            }
        }
        // Counting sort by (length, value): each length's run starts at
        // its first index, and symbols arrive in value order.
        let mut symbols = vec![0u8; index];
        let mut next = first_index;
        for (s, &l) in lens.iter().enumerate().filter(|&(_, &l)| l > 0) {
            symbols[next[l as usize]] = s as u8;
            next[l as usize] += 1;
        }
        // Canonical codes of ≤ LUT_BITS bits, left-aligned, tile the table
        // from 0 in (length, value) order: each fills the next 2^(11 − len)
        // prefixes, and what the short codes leave is a long-code escape.
        let mut lut = vec![0u16; 1usize << LUT_BITS];
        let mut at = 0usize;
        for &s in &symbols[..first_index[LUT_BITS + 1]] {
            let len = lens[s as usize];
            let span = 1usize << (LUT_BITS - len as usize);
            lut[at..at + span].fill(((len as u16) << 8) | s as u16);
            at += span;
        }
        let mut batch = vec![0u64; 1usize << LUT_BITS];
        fill_batch(&mut batch, &symbols, lens, 0);
        Ok(DecodeTable {
            lut,
            batch,
            first_code,
            first_index,
            symbols,
            count,
            max_len,
        })
    }

    /// The sort-and-greedy builder [`Self::new`] replaced, kept as the
    /// oracle its tables are tested against.
    #[cfg(test)]
    fn new_greedy(lens: &[u8; 256]) -> Result<Self, HuffmanError> {
        if let Some(&l) = lens.iter().find(|&&l| l as usize > MAX_CODE_LEN) {
            return Err(HuffmanError::CorruptHeader(format!(
                "code length {l} exceeds the maximum {MAX_CODE_LEN}"
            )));
        }
        let mut order: Vec<usize> = (0..256).filter(|&s| lens[s] > 0).collect();
        order.sort_by_key(|&s| (lens[s], s));
        let mut count = [0usize; MAX_CODE_LEN + 1];
        let mut max_len = 0usize;
        for &s in &order {
            count[lens[s] as usize] += 1;
            max_len = max_len.max(lens[s] as usize);
        }
        let mut first_code = [0u64; MAX_CODE_LEN + 1];
        let mut first_index = [0usize; MAX_CODE_LEN + 1];
        let mut code = 0u64;
        let mut index = 0usize;
        for len in 1..=MAX_CODE_LEN {
            code <<= 1;
            first_code[len] = code;
            first_index[len] = index;
            code += count[len] as u64;
            index += count[len];
            // A length-table whose canonical assignment overflows the code
            // space can never have been produced by a Huffman tree.
            if code > 1u64 << len {
                return Err(HuffmanError::CorruptHeader(format!(
                    "code-length table overfills {len}-bit code space"
                )));
            }
        }
        let mut lut = vec![0u16; 1usize << LUT_BITS];
        let mut code = 0u64;
        let mut prev_len = 0u8;
        for &s in &order {
            code <<= lens[s] - prev_len;
            let len = lens[s] as u32;
            if len as usize <= LUT_BITS {
                // Every prefix extension of the code resolves to it.
                let shift = LUT_BITS as u32 - len;
                let base = (code << shift) as usize;
                let entry = ((len as u16) << 8) | s as u16;
                lut[base..base + (1 << shift)].fill(entry);
            }
            code += 1;
            prev_len = lens[s];
        }
        // Second level: per prefix, greedily re-decode through the
        // one-symbol LUT to batch every whole code the window holds.
        let mask = (1usize << LUT_BITS) - 1;
        let mut batch = vec![0u64; 1usize << LUT_BITS];
        for (p, slot) in batch.iter_mut().enumerate() {
            let mut syms = 0u64;
            let mut n = 0u64;
            let mut used = 0usize;
            while (n as usize) < MAX_BATCH {
                let e = lut[(p << used) & mask];
                let len = (e >> 8) as usize;
                if e == 0 || used + len > LUT_BITS {
                    break;
                }
                syms |= ((e & 0xff) as u64) << (16 + 8 * n);
                n += 1;
                used += len;
            }
            *slot = used as u64 | (n << 8) | syms;
        }
        Ok(DecodeTable {
            lut,
            batch,
            first_code,
            first_index,
            symbols: order.iter().map(|&s| s as u8).collect(),
            count,
            max_len,
        })
    }
}

/// Fill `batch` — the windows that begin with the whole codes packed in
/// `entry` (a batch entry: total bits, count, symbols) — by walking the
/// code trie. As in the one-symbol LUT, the codes that fit the bits left
/// (a prefix of `symbols`, which is in canonical order) tile the front of
/// the range, one sub-range per code: the windows that also begin with
/// that code, filled one level down. The windows behind them start with a
/// code that does not fit (or no code), so their batch is `entry`, as it
/// is once `entry` holds [`MAX_BATCH`] symbols.
fn fill_batch(batch: &mut [u64], symbols: &[u8], lens: &[u8; 256], entry: u64) {
    let (used, n) = ((entry & 0x3f) as usize, ((entry >> 8) & 0x7) as usize);
    let mut at = 0usize;
    if n < MAX_BATCH {
        for &s in symbols {
            let len = lens[s as usize] as usize;
            if used + len > LUT_BITS {
                break;
            }
            let span = 1usize << (LUT_BITS - used - len);
            let next = (entry + len as u64 + (1 << 8)) | (s as u64) << (16 + 8 * n);
            fill_batch(&mut batch[at..at + span], symbols, lens, next);
            at += span;
        }
    }
    batch[at..].fill(entry);
}

/// Word-refilled MSB-first bit reader: `acc` always holds the next stream
/// bits left-aligned, with at least `have` of them accounted for. Refills
/// splice 8 bytes below the valid region per load; bits past the stream
/// end read as zeros and over-consumption is detected by [`Bits::take`].
struct Bits<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u64,
    have: u32,
}

impl<'a> Bits<'a> {
    fn new(data: &'a [u8]) -> Self {
        Bits {
            data,
            pos: 0,
            acc: 0,
            have: 0,
        }
    }

    /// Whether 8 bytes remain for [`Self::refill_word`].
    #[inline(always)]
    fn word_ready(&self) -> bool {
        self.pos + 8 <= self.data.len()
    }

    /// Top the accumulator up to ≥ 56 valid bits (or until input runs
    /// dry).
    #[inline(always)]
    fn refill(&mut self) {
        if self.word_ready() {
            self.refill_word();
        } else {
            while self.have <= 56 && self.pos < self.data.len() {
                self.acc |= (self.data[self.pos] as u64) << (56 - self.have);
                self.pos += 1;
                self.have += 8;
            }
        }
    }

    /// Top the accumulator up to ≥ 56 valid bits from one 8-byte load
    /// (needs [`Self::word_ready`]). Bits ORed in below the accounted
    /// region are genuine stream bits at their final positions, so
    /// re-splicing them is idempotent: the load runs whatever `have` is,
    /// with no branch on it.
    #[inline(always)]
    fn refill_word(&mut self) {
        let w = u64::from_be_bytes(
            self.data[self.pos..self.pos + 8]
                .try_into()
                // lint:allow(L3): statically infallible — the range
                // above is exactly 8 bytes long (decode hot loop).
                .expect("8-byte slice"),
        );
        self.acc |= w >> self.have;
        self.pos += ((63 - self.have) >> 3) as usize;
        self.have |= 56;
    }

    /// Next `k` bits without consuming (`1 ≤ k ≤ 56`; bits past the
    /// stream end are zero).
    #[inline(always)]
    fn peek(&self, k: u32) -> u64 {
        self.acc >> (64 - k)
    }

    /// Consume `k ≤ have` bits, unchecked.
    #[inline(always)]
    fn consume(&mut self, k: u32) {
        self.acc <<= k;
        self.have -= k;
    }

    /// Consume `k` bits; `false` when the stream does not hold them.
    #[inline(always)]
    fn take(&mut self, k: u32) -> bool {
        if k > self.have {
            return false;
        }
        self.consume(k);
        true
    }
}

/// Decode one symbol: LUT hit or the canonical long-code scan.
#[inline]
fn decode_one(table: &DecodeTable, bits: &mut Bits<'_>) -> Option<u8> {
    let idx_mask = (1usize << LUT_BITS) - 1;
    let entry = table.lut[bits.peek(LUT_BITS as u32) as usize & idx_mask];
    if entry != 0 {
        if !bits.take((entry >> 8) as u32) {
            return None;
        }
        return Some(entry as u8);
    }
    // Long code: canonical scan over the lengths past the LUT width.
    for len in (LUT_BITS + 1)..=table.max_len {
        if table.count[len] == 0 {
            continue;
        }
        let offset = bits.peek(len as u32).wrapping_sub(table.first_code[len]);
        if (offset as usize) < table.count[len] {
            if !bits.take(len as u32) {
                return None;
            }
            return Some(table.symbols[table.first_index[len] + offset as usize]);
        }
    }
    None
}

/// Decode `dst.len()` symbols of one chunk payload.
///
/// The fast loop refills once per [`GROUP`] batched lookups. The refill's
/// load address depends on the bits the previous lookups consumed, so a
/// refill per lookup puts that load on the loop-carried chain of every
/// lookup; here it is on one in five. Each lookup drains every whole code
/// in the 11-bit window (up to [`MAX_BATCH`] symbols on skewed streams)
/// and stores all six symbol slots at once, branch-free: the `n` real
/// symbols come first, and the spare bytes past them are overwritten by
/// the next batch. The loop runs while the payload has 8 bytes left for
/// the word refill and `dst` has room for [`GROUP`] full batches;
/// [`decode_checked`] decodes the rest.
fn decode_chunk(
    table: &DecodeTable,
    payload: &[u8],
    dst: &mut [u8],
    chunk: usize,
) -> Result<(), HuffmanError> {
    let mut bits = Bits::new(payload);
    // The masked index is always in range (the shift leaves LUT_BITS
    // bits), which lets the compiler drop the per-lookup bounds check.
    let batch: &[u64] = &table.batch;
    let idx_mask = (1usize << LUT_BITS) - 1;
    let mut i = 0usize;
    while bits.word_ready() && dst.len() - i >= GROUP * MAX_BATCH {
        bits.refill_word();
        let mut n = 0usize;
        for _ in 0..GROUP {
            let entry = batch[bits.peek(LUT_BITS as u32) as usize & idx_mask];
            bits.consume((entry & 0x3f) as u32);
            dst[i..i + MAX_BATCH].copy_from_slice(&(entry >> 16).to_le_bytes()[..MAX_BATCH]);
            n = ((entry >> 8) & 0x7) as usize;
            i += n;
        }
        if n == 0 {
            // A long-code escape consumes nothing, so it repeats to the
            // group's end: the window starts with a code longer than the
            // LUT width.
            bits.refill();
            dst[i] = decode_one(table, &mut bits).ok_or(HuffmanError::CorruptChunk { chunk })?;
            i += 1;
        }
    }
    decode_checked(table, &mut bits, dst, i, chunk)
}

/// Decode `dst[i..]` with every take checked: one refill and one batched
/// lookup per step while a whole batch fits (so a batch never overruns
/// the symbols the chunk encodes), then one symbol per step. It finishes
/// [`decode_chunk`]'s fast loop, and from `i = 0` it is the oracle that
/// loop is tested against.
fn decode_checked(
    table: &DecodeTable,
    bits: &mut Bits<'_>,
    dst: &mut [u8],
    mut i: usize,
    chunk: usize,
) -> Result<(), HuffmanError> {
    let corrupt = || HuffmanError::CorruptChunk { chunk };
    let batch: &[u64] = &table.batch;
    let idx_mask = (1usize << LUT_BITS) - 1;
    let m = dst.len();
    while m - i >= MAX_BATCH {
        bits.refill();
        let entry = batch[bits.peek(LUT_BITS as u32) as usize & idx_mask];
        let n = ((entry >> 8) & 0x7) as usize;
        if n != 0 {
            if !bits.take((entry & 0x3f) as u32) {
                return Err(corrupt());
            }
            dst[i..i + MAX_BATCH].copy_from_slice(&(entry >> 16).to_le_bytes()[..MAX_BATCH]);
            i += n;
        } else {
            // Window starts with a code longer than the LUT width.
            dst[i] = decode_one(table, bits).ok_or_else(corrupt)?;
            i += 1;
        }
    }
    for slot in &mut dst[i..] {
        bits.refill();
        *slot = decode_one(table, bits).ok_or_else(corrupt)?;
    }
    Ok(())
}

impl From<FramingError> for HuffmanError {
    fn from(e: FramingError) -> Self {
        match e {
            FramingError::TruncatedHeader => HuffmanError::TruncatedHeader,
            FramingError::TruncatedPayload => HuffmanError::TruncatedPayload,
            FramingError::Corrupt(why) => HuffmanError::CorruptHeader(why),
        }
    }
}

fn parse_stream(stream: &[u8]) -> Result<([u8; 256], ChunkFrames<'_>), HuffmanError> {
    if stream.len() < 16 + 256 {
        return Err(HuffmanError::TruncatedHeader);
    }
    let frames = parse_frames(stream, 16 + 256)?;
    let mut lens = [0u8; 256];
    lens.copy_from_slice(&stream[16..16 + 256]);
    // Every symbol costs ≥ 1 bit, so a stream can never decode to more
    // than 8 symbols per payload byte — reject before allocating.
    let payload_total = frames.payload_total();
    if frames.orig_len > payload_total.saturating_mul(8) {
        return Err(HuffmanError::CorruptHeader(format!(
            "{} symbols cannot fit {payload_total} payload bytes",
            frames.orig_len
        )));
    }
    Ok((lens, frames))
}

/// Decompress a stream produced by [`compress`] into `out` (cleared
/// first). The buffer is the caller's, so steady-state decode loops can
/// lease it from a pool instead of allocating per call.
pub fn decompress_into(stream: &[u8], out: &mut Vec<u8>) -> Result<(), HuffmanError> {
    let (lens, frames) = parse_stream(stream)?;
    let table = DecodeTable::new(&lens)?;
    // Carve the output into per-chunk windows so decoding fans out with
    // no post-hoc concatenation.
    let mut work = carve_output(&frames, out)?;
    decode_chunks(&mut work, |payload, dst, i| {
        decode_chunk(&table, payload, dst, i)
    })
}

/// Decompress a stream produced by [`compress`].
pub fn decompress(stream: &[u8]) -> Result<Vec<u8>, HuffmanError> {
    let mut out = Vec::new();
    decompress_into(stream, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Historical bit-serial decoder, kept as the semantics reference the
    /// LUT fast path is property-tested against.
    fn decompress_reference(stream: &[u8]) -> Result<Vec<u8>, HuffmanError> {
        let (lens, frames) = parse_stream(stream)?;
        let table = DecodeTable::new(&lens)?;
        let mut out = Vec::with_capacity(frames.orig_len);
        for (i, &(payload, out_len)) in frames.chunks.iter().enumerate() {
            let mut byte = 0usize;
            let mut bit = 0u32;
            let mut next_bit = || -> Result<u64, HuffmanError> {
                if byte >= payload.len() {
                    return Err(HuffmanError::CorruptChunk { chunk: i });
                }
                let b = (payload[byte] >> (7 - bit)) & 1;
                bit += 1;
                if bit == 8 {
                    bit = 0;
                    byte += 1;
                }
                Ok(b as u64)
            };
            for _ in 0..out_len {
                let mut code = 0u64;
                let mut len = 0usize;
                loop {
                    code = (code << 1) | next_bit()?;
                    len += 1;
                    if table.count[len] > 0 {
                        let offset = code.wrapping_sub(table.first_code[len]);
                        if (offset as usize) < table.count[len] {
                            out.push(table.symbols[table.first_index[len] + offset as usize]);
                            break;
                        }
                    }
                    if len >= MAX_CODE_LEN {
                        return Err(HuffmanError::CorruptChunk { chunk: i });
                    }
                }
            }
        }
        Ok(out)
    }

    #[test]
    fn roundtrip_empty() {
        let c = compress(&[]);
        assert_eq!(decompress(&c).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn roundtrip_single_byte() {
        let c = compress(&[42]);
        assert_eq!(decompress(&c).unwrap(), vec![42]);
    }

    #[test]
    fn roundtrip_single_symbol_run() {
        let data = vec![7u8; 100_000];
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 4,
            "single-symbol data must compress hard"
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn roundtrip_random_bytes() {
        let data = xorshift_bytes(300_000, 0x1234);
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn roundtrip_skewed_distribution() {
        let data: Vec<u8> = (0..200_000u32)
            .map(|i| if i % 10 == 0 { (i % 256) as u8 } else { 0 })
            .collect();
        let c = compress(&data);
        assert!(c.len() < data.len() / 2);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn roundtrip_exact_chunk_boundaries() {
        for n in [CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1, 2 * CHUNK_SIZE] {
            let data = xorshift_bytes(n, 7);
            assert_eq!(decompress(&compress(&data)).unwrap(), data, "n={n}");
        }
    }

    #[test]
    fn decompress_into_reuses_buffer() {
        let data = xorshift_bytes(50_000, 3);
        let c = compress(&data);
        let mut buf = Vec::new();
        decompress_into(&c, &mut buf).unwrap();
        assert_eq!(buf, data);
        // A second decode into the same (now dirty) buffer must replace it.
        let data2 = vec![9u8; 1000];
        decompress_into(&compress(&data2), &mut buf).unwrap();
        assert_eq!(buf, data2);
    }

    #[test]
    fn lut_decoder_matches_reference_on_random_tables() {
        // Random histograms stress mixed short/long code tables; the LUT
        // path and the bit-serial reference must agree symbol for symbol.
        let mut seed = 0xdecafu32;
        for round in 0..40 {
            seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
            // Alphabet size sweeps 1..=256; skew sweeps flat..extreme so
            // some symbols get codes past LUT_BITS.
            let alphabet = 1 + (seed as usize % 256);
            let data: Vec<u8> = xorshift_bytes(4096 + (round * 997) % 20000, seed)
                .into_iter()
                .map(|b| {
                    let b = b as usize % alphabet;
                    // Square the distribution to concentrate mass.
                    ((b * b) / alphabet.max(1)) as u8
                })
                .collect();
            let c = compress(&data);
            let fast = decompress(&c).unwrap();
            let slow = decompress_reference(&c).unwrap();
            assert_eq!(fast, slow, "round {round}");
            assert_eq!(fast, data, "round {round}");
        }
    }

    #[test]
    fn long_codes_exercise_slow_path() {
        // A geometric-ish histogram drives code lengths well past
        // LUT_BITS; decode must still match the reference and the input.
        let mut data = Vec::new();
        for s in 0..40u32 {
            let copies = 1usize << (20u32.saturating_sub(s)).min(16);
            data.extend(std::iter::repeat_n(s as u8, copies));
        }
        // Shuffle deterministically so codes interleave.
        let mut s = 0x9e3779b9u32;
        for i in (1..data.len()).rev() {
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            data.swap(i, s as usize % (i + 1));
        }
        let c = compress(&data);
        let lens = &c[16..16 + 256];
        assert!(
            lens.iter().any(|&l| l as usize > LUT_BITS),
            "distribution must produce codes longer than the LUT width"
        );
        assert_eq!(decompress(&c).unwrap(), data);
        assert_eq!(decompress_reference(&c).unwrap(), data);
    }

    /// Bitplane-like bytes: ≈ 97 % zeros, so zero gets a 1-bit code and
    /// six-symbol batches are the common lookup of the fast loop.
    fn zero_heavy(n: usize, seed: u32) -> Vec<u8> {
        let bytes = xorshift_bytes(n, seed);
        bytes
            .into_iter()
            .map(|b| if b < 8 { b * 31 + 1 } else { 0 })
            .collect()
    }

    /// [`decompress`] with every chunk decoded by [`decode_checked`]
    /// alone — one refill per lookup, every take checked: the oracle of
    /// [`decode_chunk`]'s fast loop.
    fn decompress_checked(stream: &[u8]) -> Result<Vec<u8>, HuffmanError> {
        let (lens, frames) = parse_stream(stream)?;
        let table = DecodeTable::new(&lens)?;
        let mut out = Vec::new();
        for (i, payload, dst) in carve_output(&frames, &mut out)? {
            decode_checked(&table, &mut Bits::new(payload), dst, 0, i)?;
        }
        Ok(out)
    }

    /// A complete chain-shaped book over symbols `0..=depth`: symbol `s`
    /// gets `s + 1` bits, and the last two both get `depth` bits.
    fn chain_lens(depth: usize) -> [u8; 256] {
        let mut lens = [0u8; 256];
        for (s, l) in lens.iter_mut().enumerate().take(depth + 1) {
            *l = (s + 1).min(depth) as u8;
        }
        lens
    }

    /// Symbols of [`chain_lens`]`(14)`: mostly 1–3-bit codes, with the
    /// 12–14-bit ones (past the LUT width) about once in 20.
    fn long_mix(n: usize, seed: u32) -> Vec<u8> {
        xorshift_bytes(n, seed)
            .into_iter()
            .map(|b| match b {
                0..=12 => 11 + b % 4,
                13..=90 => 1 + b % 4,
                _ => 0,
            })
            .collect()
    }

    #[test]
    fn batch_stores_match_the_reference_at_every_tail_length() {
        // Chunk lengths `r` below GROUP × MAX_BATCH never enter the fast
        // loop; longer ones leave it with 0..GROUP × MAX_BATCH symbols
        // for the checked loop, itself batched down to MAX_BATCH. Each
        // book drains six symbols a lookup, one, or escapes to long codes.
        let chain = chain_lens(14);
        for c in 0..3 {
            for r in 0..=GROUP * MAX_BATCH + 1 {
                let n = c * CHUNK_SIZE + r;
                let seed = 0x7a11 + n as u32;
                let random = xorshift_bytes(n, seed);
                let mixed = long_mix(n, seed);
                let streams = [
                    compress(&zero_heavy(n, seed)),
                    compress(&random),
                    compress_reference_with(&chain, &mixed),
                ];
                if n >= CHUNK_SIZE {
                    let table =
                        DecodeTable::new(streams[0][16..16 + 256].try_into().unwrap()).unwrap();
                    assert_eq!((table.batch[0] >> 8) & 0x7, MAX_BATCH as u64, "n={n}");
                }
                for (stream, data) in streams.iter().zip([zero_heavy(n, seed), random, mixed]) {
                    assert_eq!(decompress(stream).unwrap(), data, "n={n}");
                    assert_eq!(decompress_checked(stream).unwrap(), data, "n={n}");
                    assert_eq!(decompress_reference(stream).unwrap(), data, "n={n}");
                }
            }
        }
    }

    #[test]
    fn a_payload_cut_at_every_byte_decodes_as_the_checked_loop_does() {
        // Bits past a cut read as zeros, so a cut payload may still
        // decode; either way the fast loop must agree with the oracle.
        let zeros = zero_heavy(900, 0x5eed);
        let random = xorshift_bytes(300, 0x5eed);
        let mixed = long_mix(600, 0x5eed);
        let books = [
            (code_lengths(&histogram(&zeros)), zeros),
            (code_lengths(&histogram(&random)), random),
            (chain_lens(14), mixed),
        ];
        for (lens, data) in &books {
            let table = DecodeTable::new(lens).unwrap();
            let stream = compress_reference_with(lens, data);
            let payload = &stream[16 + 256 + 4..];
            for cut in 0..=payload.len() {
                let (mut fast, mut checked) = (vec![0u8; data.len()], vec![0u8; data.len()]);
                let got = decode_chunk(&table, &payload[..cut], &mut fast, 3);
                let want =
                    decode_checked(&table, &mut Bits::new(&payload[..cut]), &mut checked, 0, 3);
                assert_eq!(got, want, "n={} cut={cut}", data.len());
                if want.is_ok() {
                    assert_eq!(fast, checked, "n={} cut={cut}", data.len());
                }
            }
            assert_eq!(decompress(&stream).unwrap(), *data);
        }
    }

    #[test]
    fn a_long_code_at_every_lookup_of_a_group_decodes_as_the_checked_loop_does() {
        // Two 13- or 14-bit codes moved through every slot of the first
        // groups, so the escape is met at each of a group's five lookups:
        // among 1–3-bit codes (six-symbol batches), and among 10- and
        // 11-bit ones, where four lookups leave as few bits as a group
        // ever has (the escape must refill before it scans).
        let lens = chain_lens(14);
        for pattern in [&[0u8, 1, 0, 2, 0, 0][..], &[10], &[10, 9, 10, 10]] {
            let base: Vec<u8> = pattern.iter().copied().cycle().take(400).collect();
            for p in 0..3 * GROUP * MAX_BATCH {
                for long in [12u8, 14] {
                    let mut data = base.clone();
                    data[p] = long;
                    data[p + 7] = long;
                    let stream = compress_reference_with(&lens, &data);
                    assert_eq!(decompress(&stream).unwrap(), data, "{pattern:?} p={p}");
                    assert_eq!(
                        decompress_checked(&stream).unwrap(),
                        data,
                        "{pattern:?} p={p}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_truncated_final_chunk_is_corrupt_not_zero_padded() {
        // Bits past a payload read as zeros, and zero's code is all
        // zeros: only `take`'s check stops a short chunk from decoding
        // to a plausible answer.
        for r in [0usize, 1, 5, 6, 7, 4000] {
            let data = zero_heavy(2 * CHUNK_SIZE + r, 0xc0de + r as u32);
            let stream = compress(&data);
            let last = data.len().div_ceil(CHUNK_SIZE) - 1;
            let at = 16 + 256 + 4 * last;
            let len = u32::from_le_bytes(stream[at..at + 4].try_into().unwrap()) as usize;
            for cut in 1..=len.min(3) {
                let mut bad = stream.clone();
                bad[at..at + 4].copy_from_slice(&((len - cut) as u32).to_le_bytes());
                bad.truncate(bad.len() - cut);
                let want = Err(HuffmanError::CorruptChunk { chunk: last });
                assert_eq!(decompress(&bad), want, "r={r} cut={cut}");
                assert_eq!(decompress_reference(&bad), want, "r={r} cut={cut}");
            }
        }
    }

    #[test]
    fn truncated_streams_error_not_panic() {
        let data = xorshift_bytes(100_000, 11);
        let c = compress(&data);
        for cut in [0, 8, 15, 200, 300, c.len() / 2, c.len() - 1] {
            let err = decompress(&c[..cut]);
            assert!(err.is_err(), "cut={cut} must error");
        }
    }

    #[test]
    fn corrupt_payload_bits_error_or_roundtrip_length() {
        // Flipping payload bits may still decode (Huffman is not
        // integrity-checked) but must never panic or change length.
        let data = xorshift_bytes(10_000, 21);
        let c = compress(&data);
        for pos in ((16 + 256 + 4)..c.len()).step_by(131) {
            let mut bad = c.clone();
            bad[pos] ^= 0x41;
            if let Ok(out) = decompress(&bad) {
                assert_eq!(out.len(), data.len());
            }
        }
    }

    #[test]
    fn corrupt_length_table_is_rejected() {
        let data = xorshift_bytes(5_000, 5);
        let mut c = compress(&data);
        // Make every symbol claim a 1-bit code: overfills the code space.
        for l in &mut c[16..16 + 256] {
            *l = 1;
        }
        match decompress(&c) {
            Err(HuffmanError::CorruptHeader(why)) => {
                assert!(why.contains("code"), "{why}")
            }
            other => panic!("expected CorruptHeader, got {other:?}"),
        }
    }

    #[test]
    fn inconsistent_chunk_geometry_is_rejected() {
        let data = xorshift_bytes(5_000, 5);
        let mut c = compress(&data);
        // Claim far more symbols than the payload could hold.
        c[0..8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert!(decompress(&c).is_err());
        // Claim zero chunks while symbols remain.
        let mut c2 = compress(&data);
        c2[12..16].copy_from_slice(&0u32.to_le_bytes());
        assert!(decompress(&c2).is_err());
    }

    #[test]
    fn error_messages_are_readable() {
        assert_eq!(
            HuffmanError::TruncatedHeader.to_string(),
            "truncated Huffman header"
        );
        assert!(HuffmanError::CorruptChunk { chunk: 3 }
            .to_string()
            .contains("chunk 3"));
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let mut hist = [0u64; 256];
        for (i, h) in hist.iter_mut().enumerate() {
            *h = (i as u64 % 7) * 100 + 1;
        }
        let lens = code_lengths(&hist);
        let codes = canonical_codes(&lens);
        for a in 0..256 {
            for b in 0..256 {
                if a == b || lens[a] == 0 || lens[b] == 0 || lens[a] > lens[b] {
                    continue;
                }
                let prefix = codes[b] >> (lens[b] - lens[a]);
                assert!(prefix != codes[a] || a == b, "code {a} is a prefix of {b}");
            }
        }
    }

    /// One histogram of family `kind` over `present` symbols placed by
    /// `raw` — the shapes that stress the construction's tie-breaks
    /// (equal counts), its queue hand-over (one dominant symbol, two
    /// symbols) and its depth (Fibonacci counts exceed [`MAX_CODE_LEN`]
    /// from 58 symbols on, so the rescale loop runs).
    fn family_histogram(kind: usize, present: usize, raw: &[u64]) -> [u64; 256] {
        let mut hist = [0u64; 256];
        let (mut a, mut b) = (1u64, 1u64);
        for (i, &r) in raw.iter().take(present).enumerate() {
            // Distinct slots: an odd multiplier permutes 0..256.
            let slot = (i * 37 + raw[0] as usize) % 256;
            hist[slot] = match kind {
                0 => r % 1000,
                1 if i >= 2 => 0,
                1 => 1 + r % 5,
                2 => 1 + raw[1] % 7,
                3 if i == 0 => 1 << 40,
                3 => 1 + r % 3,
                _ => {
                    (a, b) = (b, a + b);
                    a
                }
            };
        }
        hist
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(200))]
        #[test]
        fn two_queue_lengths_equal_the_heap_oracle(
            kind in 0usize..5,
            present in 0usize..=80,
            raw in proptest::collection::vec(proptest::any::<u64>(), 80),
        ) {
            // Compared on every histogram the depth-limit loop visits.
            let mut hist = family_histogram(kind, present, &raw);
            loop {
                let lens = try_code_lengths(&hist);
                assert_eq!(lens, try_code_lengths_heap(&hist), "kind {kind}, {hist:?}");
                if lens.iter().all(|&l| (l as usize) <= MAX_CODE_LEN) {
                    assert_eq!(lens, code_lengths(&hist));
                    break;
                }
                for c in hist.iter_mut() {
                    *c = (*c).div_ceil(2);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(200))]
        #[test]
        fn canonical_codes_equal_the_sorted_oracle(
            kind in 0usize..5,
            present in 0usize..=80,
            raw in proptest::collection::vec(proptest::any::<u64>(), 80),
        ) {
            let lens = code_lengths(&family_histogram(kind, present, &raw));
            assert_eq!(canonical_codes(&lens), canonical_codes_sorted(&lens), "{lens:?}");
        }
    }

    /// A length table of `leaves` codes drawn by `raw`: split a leaf of a
    /// one-leaf tree until it has `leaves` (the deepest leaf on an even
    /// draw, so chains reach [`MAX_CODE_LEN`]), then by `kind` keep it
    /// complete (0), drop `leaves / 3` codes so it is Kraft-incomplete
    /// (1), or shorten one code so it overfills (2). Codes go to distinct
    /// symbols placed by `raw`.
    fn random_lengths(kind: usize, leaves: usize, raw: &[u64]) -> [u8; 256] {
        let mut depths = vec![1u8];
        if leaves > 1 {
            depths[0] = 0;
        }
        for &r in raw.iter().cycle().take(10 * leaves) {
            if depths.len() == leaves {
                break;
            }
            let i = if r & 1 == 0 {
                depths.len() - 1
            } else {
                (r >> 1) as usize % depths.len()
            };
            if (depths[i] as usize) < MAX_CODE_LEN {
                depths[i] += 1;
                depths.push(depths[i]);
            }
        }
        match kind {
            1 => depths.truncate(depths.len().saturating_sub(leaves / 3).max(1)),
            2 => {
                if let Some(d) = depths.iter_mut().find(|d| **d > 1) {
                    *d -= 1;
                }
            }
            _ => {}
        }
        let mut lens = [0u8; 256];
        for (i, &d) in depths.iter().enumerate() {
            lens[(i * 37 + raw[0] as usize) % 256] = d;
        }
        lens
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(300))]
        #[test]
        fn trie_tables_equal_the_greedy_oracle(
            kind in 0usize..3,
            leaves in 1usize..=256,
            raw in proptest::collection::vec(proptest::any::<u64>(), 64),
        ) {
            let lens = random_lengths(kind, leaves, &raw);
            assert_eq!(DecodeTable::new(&lens), DecodeTable::new_greedy(&lens), "{lens:?}");
        }
    }

    #[test]
    fn trie_tables_equal_the_greedy_oracle_on_edge_books() {
        let mut one = [0u8; 256];
        one[200] = 1;
        let mut deep = [0u8; 256];
        deep[7] = MAX_CODE_LEN as u8;
        let mut too_long = chain_lens(14);
        too_long[3] = MAX_CODE_LEN as u8 + 1;
        let books = [
            ("none", [0u8; 256]),
            ("one", one),
            ("flat", [8u8; 256]),
            ("short", [1u8; 256]),
            (
                "chain",
                code_lengths(&fibonacci_histogram(MAX_CODE_LEN + 1)),
            ),
            ("chain 14", chain_lens(14)),
            ("deep", deep),
            ("too long", too_long),
        ];
        for (name, lens) in books {
            let got = DecodeTable::new(&lens);
            assert_eq!(got, DecodeTable::new_greedy(&lens), "{name}");
            match name {
                "short" | "too long" => assert!(got.is_err(), "{name}"),
                _ => assert!(got.is_ok(), "{name}"),
            }
        }
    }

    /// Fibonacci counts on the first `k` symbols: the histogram of the
    /// deepest tree `k` symbols can have.
    fn fibonacci_histogram(k: usize) -> [u64; 256] {
        let mut hist = [0u64; 256];
        let (mut a, mut b) = (1u64, 1u64);
        for c in hist.iter_mut().take(k) {
            *c = a;
            (a, b) = (b, a + b);
        }
        hist
    }

    /// [`code_lengths`] with the heap oracle inside the same rescale loop.
    fn code_lengths_heap(hist: &[u64; 256]) -> [u8; 256] {
        let mut scaled = *hist;
        loop {
            let lens = try_code_lengths_heap(&scaled);
            if lens.iter().all(|&l| (l as usize) <= MAX_CODE_LEN) {
                return lens;
            }
            for c in scaled.iter_mut() {
                *c = (*c).div_ceil(2);
            }
        }
    }

    #[test]
    fn code_lengths_edge_cases_match_the_heap_oracle() {
        let mut one = [0u64; 256];
        one[200] = 5;
        let mut two = [0u64; 256];
        (two[3], two[250]) = (1, 1_000_000);
        let flat = [7u64; 256];
        // Fibonacci counts give a chain 79 deep: the rescale loop runs.
        let fib = fibonacci_histogram(80);
        assert!(try_code_lengths(&fib)
            .iter()
            .any(|&l| l as usize > MAX_CODE_LEN));
        for (name, hist) in [("one", one), ("two", two), ("flat", flat), ("fib", fib)] {
            let lens = code_lengths(&hist);
            assert_eq!(lens, code_lengths_heap(&hist), "{name}");
            assert_eq!(
                canonical_codes(&lens),
                canonical_codes_sorted(&lens),
                "{name}"
            );
        }
        assert_eq!(code_lengths(&one)[200], 1);
        assert_eq!((code_lengths(&two)[3], code_lengths(&two)[250]), (1, 1));
        assert!(code_lengths(&flat).iter().all(|&l| l == 8));
        assert!(code_lengths(&fib)
            .iter()
            .all(|&l| l as usize <= MAX_CODE_LEN));
    }

    #[test]
    fn kraft_inequality_holds() {
        let hist = {
            let mut h = [0u64; 256];
            for (i, x) in h.iter_mut().enumerate() {
                *x = (i * i + 1) as u64;
            }
            h
        };
        let lens = code_lengths(&hist);
        let kraft: f64 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-9);
    }

    /// Payload shapes that exercise every encoder path: empty input,
    /// one symbol, dense random bytes (long codes),
    /// zero-dominated bitplane-like data, single-symbol runs, and exact
    /// chunk boundaries.
    fn equivalence_payloads() -> Vec<Vec<u8>> {
        vec![
            Vec::new(),
            vec![42],
            xorshift_bytes(300_000, 0x1234),
            (0..200_000u32)
                .map(|i| if i % 10 == 0 { (i % 256) as u8 } else { 0 })
                .collect(),
            vec![7u8; 100_000],
            xorshift_bytes(CHUNK_SIZE - 1, 7),
            xorshift_bytes(CHUNK_SIZE, 8),
            xorshift_bytes(CHUNK_SIZE + 1, 9),
            xorshift_bytes(2 * CHUNK_SIZE + 13, 10),
        ]
    }

    /// [`compress`] as it shipped with the byte-at-a-time chunk encoder:
    /// the byte oracle of [`CodeBook::encode`].
    fn compress_reference(data: &[u8]) -> Vec<u8> {
        compress_reference_with(&code_lengths(&histogram(data)), data)
    }

    #[test]
    fn wide_encoder_is_byte_identical_to_the_reference() {
        for data in equivalence_payloads() {
            let got = compress(&data);
            assert_eq!(got, compress_reference(&data), "n={}", data.len());
            assert_eq!(decompress(&got).unwrap(), data);
        }
    }

    /// [`compress_reference`] against a given code book: the chunks of
    /// `data` encoded byte-at-a-time with the codes of `lens`.
    fn compress_reference_with(lens: &[u8; 256], data: &[u8]) -> Vec<u8> {
        let codes = canonical_codes_sorted(lens);
        let payloads: Vec<Vec<u8>> = data
            .chunks(CHUNK_SIZE)
            .map(|chunk| {
                let mut out = Vec::new();
                encode_chunk_reference(chunk, lens, &codes, &mut out);
                out
            })
            .collect();
        frame_stream(data.len(), lens, &payloads)
    }

    /// Symbols `0..=depth` with Fibonacci counts, the most frequent one
    /// padded by `pad`, shuffled: a chain-shaped tree whose longest code
    /// is exactly `depth` bits (padding the last leaf keeps it the last
    /// one merged).
    fn fibonacci_payload(depth: usize, pad: usize) -> Vec<u8> {
        let mut hist = fibonacci_histogram(depth + 1);
        hist[depth] += pad as u64;
        let mut data = Vec::new();
        for (s, &count) in hist.iter().enumerate() {
            data.extend(std::iter::repeat_n(s as u8, count as usize));
        }
        let mut x = 0x9e3779b9u32 ^ depth as u32;
        for i in (1..data.len()).rev() {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            data.swap(i, x as usize % (i + 1));
        }
        data
    }

    #[test]
    fn block_writer_matches_the_reference_in_every_arm_and_tail() {
        // Longest codes at both sides of each arm's bound (4 codes a step
        // to 14 bits, 2 to 28, then 1), over lengths that end a block
        // with every remainder, straddle a chunk, span several, or hold
        // one symbol or none.
        let mut lengths = vec![0, 1, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1];
        lengths.push(2 * CHUNK_SIZE + 5);
        for k in [0, 1, 3] {
            lengths.extend((0..=7).map(|r| BLOCK * k + r));
        }
        // Each book with the symbols a sample draws from: its input, and
        // its longest codes alone — every step then carries `PER` times
        // the longest code, the most an arm's bound admits.
        let longest_codes = |lens: &[u8; 256]| -> Vec<u8> {
            let longest = lens.iter().max();
            (0..=255u8)
                .filter(|&s| Some(&lens[s as usize]) == longest)
                .collect()
        };
        let mut books = Vec::new();
        for depth in [14, 15, 28, 29, 30] {
            // The real input of a book this deep, padded to end a block
            // on remainder 3, through the product path.
            let base = fibonacci_payload(depth, 0);
            let data = fibonacci_payload(depth, (BLOCK - base.len() % BLOCK + 3) % BLOCK);
            let stream = compress(&data);
            let lens: [u8; 256] = stream[16..16 + 256].try_into().unwrap();
            assert_eq!(lens.iter().max(), Some(&(depth as u8)), "depth {depth}");
            assert_eq!(
                stream,
                compress_reference_with(&lens, &data),
                "depth {depth}"
            );
            assert_eq!(decompress(&stream).unwrap(), data, "depth {depth}");
            books.push((lens, longest_codes(&lens)));
            books.push((lens, base));
        }
        // The deepest book a code can have, a chain MAX_CODE_LEN deep: on
        // its longest codes a block fills the stack buffer to its slack.
        let lens = code_lengths(&fibonacci_histogram(MAX_CODE_LEN + 1));
        assert_eq!(lens.iter().max(), Some(&(MAX_CODE_LEN as u8)));
        books.push((lens, longest_codes(&lens)));
        // Each book over symbols drawn from its input, at every length
        // above: the arm is the book's, the tail the length's.
        for (lens, pool) in &books {
            let depth = lens.iter().max();
            for &n in &lengths {
                let sample: Vec<u8> = pool.iter().copied().cycle().take(n).collect();
                let payload_bits = histogram(&sample)
                    .iter()
                    .zip(lens)
                    .map(|(&f, &l)| f * l as u64)
                    .sum();
                let book = CodeBook {
                    data: &sample,
                    lens: *lens,
                    payload_bits,
                };
                let got = book.encode();
                assert_eq!(got[16..16 + 256], lens[..], "depth {depth:?} n={n}");
                let want = compress_reference_with(lens, &sample);
                assert_eq!(got, want, "depth {depth:?} n={n}");
                assert_eq!(decompress(&got).unwrap(), sample, "depth {depth:?} n={n}");
            }
        }
    }

    #[test]
    fn wide_encoder_handles_long_codes() {
        // A near-degenerate distribution drives code lengths past 16
        // bits, onto the block writer's two- and one-code arms.
        let mut data = Vec::new();
        for sym in 0..=255u8 {
            let reps = 1usize << (sym % 18);
            data.extend(std::iter::repeat_n(sym, reps));
        }
        let got = compress(&data);
        let longest = got[16..16 + 256].iter().max().copied();
        assert!(
            longest > Some(16),
            "a {longest:?}-bit longest code leaves the four-code arm"
        );
        assert_eq!(got, compress_reference(&data));
        assert_eq!(decompress(&got).unwrap(), data);
    }

    #[test]
    fn code_book_sizes_the_stream_it_encodes() {
        for data in equivalence_payloads() {
            let book = CodeBook::new(&data);
            let stream = book.encode();
            // One padded tail byte is counted; every further chunk may
            // add one more.
            let chunks = data.len().div_ceil(CHUNK_SIZE).max(1);
            let slack = stream.len() as i64 - book.stream_len() as i64;
            let empty_table = i64::from(data.is_empty()) * 4;
            assert!(
                (0..chunks as i64).contains(&(slack + empty_table)),
                "n={} estimated {} actual {}",
                data.len(),
                book.stream_len(),
                stream.len()
            );
        }
    }

    #[test]
    fn compressed_size_close_to_entropy() {
        // Two symbols, 90/10 split: entropy ≈ 0.469 bits/byte, Huffman ≥ 1
        // bit/byte (prefix codes can't go below 1 bit per symbol).
        let data: Vec<u8> = (0..400_000)
            .map(|i| if i % 10 == 0 { 1 } else { 0 })
            .collect();
        let c = compress(&data);
        let bits_per_sym = (c.len() * 8) as f64 / data.len() as f64;
        assert!(bits_per_sym < 1.1, "got {bits_per_sym}");
    }
}
