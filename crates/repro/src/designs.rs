//! The paper's three bitplane-encoding parallelization designs (§4).
//!
//! Each design is described by how it maps elements to GPU threads and what
//! that mapping costs architecturally:
//!
//! * [`DesignKind::LocalityBlock`] — one thread encodes a contiguous block
//!   of elements (ZFP-style). No communication, coalesced stores, but the
//!   *loads are strided* across lanes, and parallelism is `n / block`.
//!   Produces the [`Layout::Natural`] stream.
//! * [`DesignKind::RegisterShuffle`] — one thread per element; lanes
//!   exchange bits with one of four warp instructions (Figure 3): `ballot`,
//!   `shift` (tree OR-reduce), `match-any`, or `reduce-add` (native only on
//!   NVIDIA Hopper). Fully coalesced loads, maximal parallelism, but heavy
//!   cross-lane communication. Produces the [`Layout::Natural`] stream.
//! * [`DesignKind::RegisterBlock`] — one thread encodes 32 *interleaved*
//!   elements cached in registers: coalesced loads **and** stores with zero
//!   communication, at the price of tile-transposed bit order. Produces the
//!   [`Layout::Interleaved32`] stream.
//!
//! Functional outputs are produced by the shared native codecs, so streams
//! are bit-exact across devices by construction; the architectural event
//! counts are computed in closed form per warp and validated against a
//! lane-by-lane warp-exact execution in the test suite.

use crate::warp::strided_transactions;
use crate::{DeviceConfig, KernelCounters, Warp};
use hpmdr_bitplane::layout::{Layout, WORD_BITS};
use hpmdr_bitplane::native::{self, Reconstruction};
use hpmdr_bitplane::{align_exponent, BitplaneChunk, BitplaneFloat};
use serde::{Deserialize, Serialize};

/// Register-shuffling instruction variant (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShuffleInstr {
    /// Warp vote; every lane receives the full mask (fewest instructions,
    /// broadcast partly wasted).
    Ballot,
    /// Classic tree OR-reduction over `log2(warp)` shuffle rounds.
    Shift,
    /// `match_any` vote; the storing lane may need one extra bit-flip.
    MatchAny,
    /// Warp sum of one-hot lane contributions; needs hardware `redux`.
    ReduceAdd,
}

impl ShuffleInstr {
    /// All four variants, in the paper's presentation order.
    pub const ALL: [ShuffleInstr; 4] = [
        ShuffleInstr::Ballot,
        ShuffleInstr::Shift,
        ShuffleInstr::MatchAny,
        ShuffleInstr::ReduceAdd,
    ];
}

/// One of the paper's three parallelization designs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DesignKind {
    /// One thread per contiguous `block_elems` elements (multiple of 32).
    LocalityBlock {
        /// Elements per thread; the key tuning knob of this design.
        block_elems: usize,
    },
    /// One thread per element with a cross-lane exchange instruction.
    RegisterShuffle(ShuffleInstr),
    /// One thread per 32 interleaved elements held in registers.
    RegisterBlock,
}

impl DesignKind {
    /// Locality block with the paper's default block of 32 elements.
    pub fn locality_default() -> Self {
        DesignKind::LocalityBlock { block_elems: 32 }
    }

    /// Stream layout this design produces.
    pub fn layout(&self) -> Layout {
        match self {
            DesignKind::RegisterBlock => Layout::Interleaved32,
            _ => Layout::Natural,
        }
    }

    /// Whether the design can run on `cfg` (reduce-add needs hardware
    /// support; the paper evaluates only three variants on MI250X).
    pub fn supported_on(&self, cfg: &DeviceConfig) -> bool {
        match self {
            DesignKind::RegisterShuffle(ShuffleInstr::ReduceAdd) => cfg.has_reduce_add,
            _ => true,
        }
    }

    /// Short display name matching the paper's figure legends.
    pub fn label(&self) -> String {
        match self {
            DesignKind::LocalityBlock { block_elems } => format!("locality-block({block_elems})"),
            DesignKind::RegisterShuffle(i) => format!("register-shuffle({i:?})"),
            DesignKind::RegisterBlock => "register-block".to_string(),
        }
    }
}

/// Result of a simulated encode: the portable stream plus the architectural
/// event counts of the producing kernel.
#[derive(Debug, Clone)]
pub struct EncodeOutcome {
    /// Encoded stream (identical across devices for a given design).
    pub chunk: BitplaneChunk,
    /// Kernel event counts for the cost model.
    pub counters: KernelCounters,
}

/// Result of a simulated decode.
#[derive(Debug, Clone)]
pub struct DecodeOutcome<F> {
    /// Reconstructed values.
    pub values: Vec<F>,
    /// Kernel event counts for the cost model.
    pub counters: KernelCounters,
}

impl DesignKind {
    /// Encode `data` on the simulated device `cfg`.
    ///
    /// # Panics
    /// Panics if the design is unsupported on `cfg` (see
    /// [`Self::supported_on`]) or if a locality block is not a positive
    /// multiple of 32.
    pub fn encode_sim<F: BitplaneFloat>(
        &self,
        cfg: &DeviceConfig,
        data: &[F],
        planes: usize,
    ) -> EncodeOutcome {
        assert!(
            self.supported_on(cfg),
            "{} unsupported on {}",
            self.label(),
            cfg.name
        );
        let planes = planes.min(F::MAX_PLANES).max(1);
        let chunk = native::encode(data, planes, self.layout());
        let b = chunk.num_planes();
        let counters = self.encode_counters(cfg, data.len(), b, std::mem::size_of::<F>().max(4));
        EncodeOutcome { chunk, counters }
    }

    /// Decode the first `k` planes of `chunk` on the simulated device.
    pub fn decode_sim<F: BitplaneFloat>(
        &self,
        cfg: &DeviceConfig,
        chunk: &BitplaneChunk,
        k: usize,
        recon: Reconstruction,
    ) -> DecodeOutcome<F> {
        assert!(
            self.supported_on(cfg),
            "{} unsupported on {}",
            self.label(),
            cfg.name
        );
        assert_eq!(
            chunk.layout,
            self.layout(),
            "{} cannot decode a {:?} stream",
            self.label(),
            chunk.layout
        );
        let values = native::decode_prefix::<F>(chunk, k, recon);
        let k = k.min(chunk.num_planes());
        let counters = self.decode_counters(cfg, chunk.n, k, std::mem::size_of::<F>().max(4));
        DecodeOutcome { values, counters }
    }

    /// Closed-form encode counters for `n` elements, `b` magnitude planes
    /// (plus the sign plane), and `s`-byte elements.
    pub fn encode_counters(
        &self,
        cfg: &DeviceConfig,
        n: usize,
        b: usize,
        s: usize,
    ) -> KernelCounters {
        let w = cfg.warp_size;
        let sector = cfg.sector_bytes;
        let mut c = KernelCounters::new();
        if n == 0 {
            return c;
        }
        let p = (b + 1) as u64; // magnitude planes + sign plane
        match *self {
            DesignKind::LocalityBlock { block_elems: m } => {
                assert!(
                    m >= 32 && m % 32 == 0,
                    "block must be a positive multiple of 32"
                );
                let elems_per_warp = w * m;
                let warps = n.div_ceil(elems_per_warp) as u64;
                c.warps_launched = warps;
                // Loads: m iterations; lanes stride m*s bytes apart.
                let tx_per_iter = strided_transactions(w, 0, m * s, s, sector);
                c.load_transactions = warps * m as u64 * tx_per_iter;
                c.load_bytes = warps * (elems_per_warp * s) as u64;
                // Per-lane work: fixed conversion + bit extract/or per plane.
                c.alu_ops = warps * (3 * m as u64 + p * m as u64 * 2);
                // Stores: per plane each lane writes m/32 consecutive words;
                // lanes together cover w*m/32 consecutive words.
                let words_per_warp_plane = w * m / WORD_BITS;
                let tx_store = strided_transactions(words_per_warp_plane.min(64), 0, 4, 4, sector)
                    .max(1)
                    * (words_per_warp_plane.div_ceil(64)) as u64;
                c.store_transactions = warps * p * tx_store;
                c.store_bytes = warps * p * (words_per_warp_plane * 4) as u64;
            }
            DesignKind::RegisterShuffle(instr) => {
                let warps = n.div_ceil(w) as u64;
                c.warps_launched = warps;
                c.load_transactions = warps * strided_transactions(w, 0, s, s, sector);
                c.load_bytes = warps * (w * s) as u64;
                c.alu_ops = warps * 3; // fixed conversion (per lane): 3
                let log32 = 5u64; // reduction rounds within each 32-lane group
                match instr {
                    ShuffleInstr::Ballot => {
                        c.ballot_ops = warps * p;
                        c.alu_ops += warps * p; // bit extract
                    }
                    ShuffleInstr::Shift => {
                        c.shuffle_ops = warps * p * log32;
                        c.alu_ops += warps * p * (1 + log32); // extract + OR per round
                    }
                    ShuffleInstr::MatchAny => {
                        c.ballot_ops = warps * p;
                        c.alu_ops += warps * p * 2; // extract + conditional flip
                    }
                    ShuffleInstr::ReduceAdd => {
                        c.reduce_ops = warps * p;
                        c.alu_ops += warps * p; // one-hot shift
                    }
                }
                // Per plane, the storing lane(s) write w/32 words.
                let words = (w / WORD_BITS).max(1) as u64;
                c.store_transactions = warps * p;
                c.scalar_stores = warps * p;
                c.store_bytes = warps * p * words * 4;
            }
            DesignKind::RegisterBlock => {
                let elems_per_warp = w * WORD_BITS;
                let warps = n.div_ceil(elems_per_warp) as u64;
                c.warps_launched = warps;
                // 32 coalesced load iterations.
                let tx_per_iter = strided_transactions(w, 0, s, s, sector);
                c.load_transactions = warps * WORD_BITS as u64 * tx_per_iter;
                c.load_bytes = warps * (elems_per_warp * s) as u64;
                // Per-lane: conversion + in-register 32x32 transpose.
                c.alu_ops = warps * (3 * WORD_BITS as u64 + TRANSPOSE_OPS + p);
                // p coalesced store iterations (lanes write adjacent words).
                let tx_store = strided_transactions(w, 0, 4, 4, sector);
                c.store_transactions = warps * p * tx_store;
                c.store_bytes = warps * p * (w * 4) as u64;
            }
        }
        c
    }

    /// Closed-form decode counters for `n` elements and a `k`-plane prefix
    /// (plus sign plane).
    pub fn decode_counters(
        &self,
        cfg: &DeviceConfig,
        n: usize,
        k: usize,
        s: usize,
    ) -> KernelCounters {
        let w = cfg.warp_size;
        let sector = cfg.sector_bytes;
        let mut c = KernelCounters::new();
        if n == 0 || k == 0 {
            return c;
        }
        let p = (k + 1) as u64;
        match *self {
            DesignKind::LocalityBlock { block_elems: m } => {
                assert!(
                    m >= 32 && m % 32 == 0,
                    "block must be a positive multiple of 32"
                );
                let elems_per_warp = w * m;
                let warps = n.div_ceil(elems_per_warp) as u64;
                c.warps_launched = warps;
                // Loads: plane words, coalesced.
                let words_per_warp_plane = w * m / WORD_BITS;
                let tx_load = strided_transactions(words_per_warp_plane.min(64), 0, 4, 4, sector)
                    .max(1)
                    * (words_per_warp_plane.div_ceil(64)) as u64;
                c.load_transactions = warps * p * tx_load;
                c.load_bytes = warps * p * (words_per_warp_plane * 4) as u64;
                c.alu_ops = warps * (3 * m as u64 + p * m as u64 * 2);
                // Stores: reconstructed elements, strided across lanes.
                let tx_per_iter = strided_transactions(w, 0, m * s, s, sector);
                c.store_transactions = warps * m as u64 * tx_per_iter;
                c.store_bytes = warps * (elems_per_warp * s) as u64;
            }
            DesignKind::RegisterShuffle(_) => {
                // Decoding is instruction-variant independent: per plane the
                // storing lane reloads the word (latency exposed), then
                // broadcasts it so each lane extracts its bit.
                let warps = n.div_ceil(w) as u64;
                c.warps_launched = warps;
                c.load_transactions = warps * p;
                c.scalar_loads = warps * p;
                c.load_bytes = warps * p * ((w / WORD_BITS).max(1) * 4) as u64;
                c.shuffle_ops = warps * p; // broadcast
                c.alu_ops = warps * (p * 3 + 3); // extract + accumulate + finalize
                c.store_transactions = warps * strided_transactions(w, 0, s, s, sector);
                c.store_bytes = warps * (w * s) as u64;
            }
            DesignKind::RegisterBlock => {
                let elems_per_warp = w * WORD_BITS;
                let warps = n.div_ceil(elems_per_warp) as u64;
                c.warps_launched = warps;
                let tx_load = strided_transactions(w, 0, 4, 4, sector);
                c.load_transactions = warps * p * tx_load;
                c.load_bytes = warps * p * (w * 4) as u64;
                c.alu_ops = warps * (3 * WORD_BITS as u64 + TRANSPOSE_OPS + p);
                let tx_store = strided_transactions(w, 0, s, s, sector);
                c.store_transactions = warps * WORD_BITS as u64 * tx_store;
                c.store_bytes = warps * (elems_per_warp * s) as u64;
            }
        }
        c
    }
}

/// Word operations of one in-register 32×32 bit transpose (five masked
/// swap stages over 32 words).
const TRANSPOSE_OPS: u64 = 240;

/// Warp-exact register-shuffling encoder used to validate (a) that every
/// instruction variant produces the identical natural-layout stream and
/// (b) that the closed-form counters match a lane-by-lane execution.
///
/// Intended for tests and small inputs; `encode_sim` is the fast path.
pub fn shuffle_encode_warp_exact<F: BitplaneFloat>(
    cfg: &DeviceConfig,
    instr: ShuffleInstr,
    data: &[F],
    planes: usize,
) -> EncodeOutcome {
    let design = DesignKind::RegisterShuffle(instr);
    assert!(
        design.supported_on(cfg),
        "{} unsupported on {}",
        design.label(),
        cfg.name
    );
    let b = planes.min(F::MAX_PLANES).max(1);
    let exp = align_exponent(data);
    if exp == i32::MIN {
        return EncodeOutcome {
            chunk: BitplaneChunk::zero::<F>(data.len(), Layout::Natural),
            counters: KernelCounters::new(),
        };
    }
    let n = data.len();
    let w = cfg.warp_size;
    let s = std::mem::size_of::<F>().max(4);
    let words = Layout::Natural.words_per_plane(n);
    let mut arena = vec![0u32; b * words];
    let mut signs = vec![0u32; words];
    let mut counters = KernelCounters::new();

    let mut aligned = vec![0u64; w];
    let mut negs = vec![false; w];
    for warp_idx in 0..n.div_ceil(w) {
        let base = warp_idx * w;
        let mut warp = Warp::new(w);
        for lane in 0..w {
            let e = base + lane;
            if e < n {
                aligned[lane] = data[e].to_fixed(exp, b) << (64 - b);
                negs[lane] = data[e].is_neg();
            } else {
                aligned[lane] = 0;
                negs[lane] = false;
            }
        }
        warp.load_strided(base * s, s, s, cfg.sector_bytes);
        warp.alu(3);
        // Plane index 0 encodes the sign plane; 1..=b the magnitude planes.
        for p in 0..=b {
            let mut bits = vec![false; w];
            for lane in 0..w {
                bits[lane] = if p == 0 {
                    negs[lane]
                } else {
                    (aligned[lane] >> (64 - p)) & 1 == 1
                };
            }
            let group_words = exchange_bits(&mut warp, instr, &bits);
            for (j, word) in group_words.iter().enumerate() {
                let g = warp_idx * (w / WORD_BITS) + j;
                if g >= words {
                    continue;
                }
                if p == 0 {
                    signs[g] = *word;
                } else {
                    arena[(p - 1) * words + g] = *word;
                }
            }
            warp.store_scalar((w / WORD_BITS) * 4);
        }
        counters += warp.counters;
    }

    // Mask padding bits so streams match the native encoder exactly.
    if !n.is_multiple_of(WORD_BITS) {
        let mask = (1u32 << (n % WORD_BITS)) - 1;
        let last = words - 1;
        signs[last] &= mask;
        for p in 0..b {
            arena[p * words + last] &= mask;
        }
    }

    EncodeOutcome {
        chunk: BitplaneChunk::from_arena(
            n,
            exp,
            Layout::Natural,
            F::TYPE_NAME.to_string(),
            signs,
            b,
            arena,
        ),
        counters,
    }
}

/// Warp-exact register-block encoder: every lane gathers its 32
/// interleaved elements, aligns them in "registers", transposes them
/// lane-locally (no cross-lane communication — the design's defining
/// property), and stores its per-plane words. Validates that the
/// [`Layout::Interleaved32`] stream specification is exactly what the
/// lane-level kernel produces, and that the closed-form counters match a
/// lane-by-lane execution.
pub fn register_block_encode_warp_exact<F: BitplaneFloat>(
    cfg: &DeviceConfig,
    data: &[F],
    planes: usize,
) -> EncodeOutcome {
    let b = planes.min(F::MAX_PLANES).max(1);
    let exp = align_exponent(data);
    if exp == i32::MIN {
        return EncodeOutcome {
            chunk: BitplaneChunk::zero::<F>(data.len(), Layout::Interleaved32),
            counters: KernelCounters::new(),
        };
    }
    let n = data.len();
    let w = cfg.warp_size;
    let s = std::mem::size_of::<F>().max(4);
    let layout = Layout::Interleaved32;
    let words = layout.words_per_plane(n);
    let mut arena = vec![0u32; b * words];
    let mut signs = vec![0u32; words];
    let mut counters = KernelCounters::new();

    let elems_per_warp = w * WORD_BITS;
    for warp_idx in 0..n.div_ceil(elems_per_warp) {
        let mut warp = Warp::new(w);
        // 32 coalesced load iterations (lane l reads element base + j*w + l
        // in flat order, which the tile mapping makes consecutive).
        for _ in 0..WORD_BITS {
            warp.load_strided(0, s, s, cfg.sector_bytes);
        }
        warp.alu(3 * WORD_BITS as u64 + 240 + (b as u64 + 1));
        // Lane-local work: each lane owns word column `t` of its tile.
        for lane in 0..w {
            let tile = warp_idx * (w / WORD_BITS) + lane / WORD_BITS;
            let t = lane % WORD_BITS;
            let word_idx = tile * WORD_BITS + t;
            if word_idx >= words {
                continue;
            }
            // Gather this lane's 32 interleaved elements into "registers".
            let mut regs = [0u64; WORD_BITS];
            let mut sign_word = 0u32;
            for (j, reg) in regs.iter_mut().enumerate() {
                let e = tile * (WORD_BITS * WORD_BITS) + j * WORD_BITS + t;
                if e < n {
                    *reg = data[e].to_fixed(exp, b) << (64 - b);
                    sign_word |= (data[e].is_neg() as u32) << j;
                }
            }
            // Lane-local transpose: plane p's bit j is bit (63-p) of reg j.
            for p in 0..b {
                let mut word = 0u32;
                for (j, reg) in regs.iter().enumerate() {
                    word |= (((reg >> (63 - p)) & 1) as u32) << j;
                }
                arena[p * words + word_idx] = word;
            }
            signs[word_idx] = sign_word;
        }
        // b+1 coalesced store iterations (lanes write adjacent words).
        for _ in 0..=b {
            warp.store_strided(0, 4, 4, cfg.sector_bytes);
        }
        counters += warp.counters;
    }
    // Align byte accounting with the closed form (loads/stores are counted
    // per warp over the full tile regardless of tail masking).
    counters.load_bytes = counters.warps_launched * (elems_per_warp * s) as u64;
    counters.store_bytes = counters.warps_launched * ((b + 1) * w * 4) as u64;

    EncodeOutcome {
        chunk: BitplaneChunk::from_arena(n, exp, layout, F::TYPE_NAME.to_string(), signs, b, arena),
        counters,
    }
}

/// Exchange one bit per lane into per-32-group words using `instr`,
/// booking the exact warp operations performed.
fn exchange_bits(warp: &mut Warp, instr: ShuffleInstr, bits: &[bool]) -> Vec<u32> {
    let w = warp.width();
    let groups = (w / WORD_BITS).max(1);
    match instr {
        ShuffleInstr::Ballot => {
            warp.alu(1);
            let mask = warp.ballot(bits);
            (0..groups).map(|j| (mask >> (32 * j)) as u32).collect()
        }
        ShuffleInstr::Shift => {
            warp.alu(1);
            let mut vals: Vec<u64> = bits
                .iter()
                .enumerate()
                .map(|(lane, &bit)| (bit as u64) << (lane % WORD_BITS))
                .collect();
            let mut delta = WORD_BITS / 2;
            while delta >= 1 {
                let mut shifted = vals.clone();
                warp.shfl_down(&mut shifted, delta);
                warp.alu(1);
                for lane in 0..w {
                    vals[lane] |= shifted[lane];
                }
                delta /= 2;
            }
            (0..groups).map(|j| vals[j * WORD_BITS] as u32).collect()
        }
        ShuffleInstr::MatchAny => {
            warp.alu(2);
            let vals: Vec<u64> = bits.iter().map(|&b| b as u64).collect();
            let mut out = vec![0u64; w];
            warp.match_any(&vals, &mut out);
            (0..groups)
                .map(|j| {
                    // The storing lane for group j is its lane 0; restrict
                    // the match mask to the group's 32 lanes and flip when
                    // the storing lane holds a 0 bit.
                    let lane = j * WORD_BITS;
                    let group_mask = (out[lane] >> (32 * j)) as u32;
                    if bits[lane] {
                        group_mask
                    } else {
                        !group_mask
                    }
                })
                .collect()
        }
        ShuffleInstr::ReduceAdd => {
            warp.alu(1);
            assert_eq!(w, WORD_BITS, "reduce-add exchange defined per 32-lane warp");
            let vals: Vec<u64> = bits
                .iter()
                .enumerate()
                .map(|(lane, &bit)| (bit as u64) << lane)
                .collect();
            vec![warp.reduce_add(&vals) as u32]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostModel;

    fn field(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32) * 0.173).sin() * 5.0 - 1.0)
            .collect()
    }

    fn h100() -> DeviceConfig {
        DeviceConfig::h100_like()
    }
    fn mi250x() -> DeviceConfig {
        DeviceConfig::mi250x_like()
    }

    #[test]
    fn all_designs_produce_decodable_streams() {
        let data = field(5000);
        for design in [
            DesignKind::locality_default(),
            DesignKind::RegisterShuffle(ShuffleInstr::Ballot),
            DesignKind::RegisterBlock,
        ] {
            let out = design.encode_sim(&h100(), &data, 32);
            out.chunk.validate().unwrap();
            let dec = design.decode_sim::<f32>(&h100(), &out.chunk, 32, Reconstruction::Truncate);
            let bound = hpmdr_bitplane::prefix_error_bound(out.chunk.exp, 32);
            for (a, b) in data.iter().zip(&dec.values) {
                assert!(((a - b).abs() as f64) <= bound, "{}", design.label());
            }
        }
    }

    #[test]
    fn natural_designs_produce_identical_streams() {
        let data = field(3000);
        let lb = DesignKind::locality_default().encode_sim(&h100(), &data, 32);
        for instr in ShuffleInstr::ALL {
            let rs = DesignKind::RegisterShuffle(instr).encode_sim(&h100(), &data, 32);
            assert_eq!(lb.chunk, rs.chunk, "{instr:?}");
        }
    }

    #[test]
    fn streams_are_identical_across_devices() {
        // The portability property: H100-like and MI250X-like devices must
        // produce byte-identical streams for every design they support.
        let data = field(4096 + 37);
        for design in [
            DesignKind::locality_default(),
            DesignKind::RegisterShuffle(ShuffleInstr::Ballot),
            DesignKind::RegisterShuffle(ShuffleInstr::Shift),
            DesignKind::RegisterShuffle(ShuffleInstr::MatchAny),
            DesignKind::RegisterBlock,
        ] {
            let a = design.encode_sim(&h100(), &data, 32);
            let b = design.encode_sim(&mi250x(), &data, 32);
            assert_eq!(a.chunk, b.chunk, "{}", design.label());
        }
    }

    #[test]
    fn warp_exact_shuffle_matches_native_stream_h100() {
        let data = field(2048 + 9);
        let native = native::encode(&data, 32, Layout::Natural);
        for instr in ShuffleInstr::ALL {
            let out = shuffle_encode_warp_exact(&h100(), instr, &data, 32);
            assert_eq!(out.chunk, native, "{instr:?}");
        }
    }

    #[test]
    fn warp_exact_shuffle_matches_native_stream_mi250x() {
        let data = field(1024 + 63);
        for instr in [
            ShuffleInstr::Ballot,
            ShuffleInstr::Shift,
            ShuffleInstr::MatchAny,
        ] {
            let out = shuffle_encode_warp_exact(&mi250x(), instr, &data, 32);
            let native = native::encode(&data, 32, Layout::Natural);
            assert_eq!(out.chunk, native, "{instr:?}");
        }
    }

    #[test]
    fn warp_exact_counters_match_closed_form() {
        let data = field(32 * 50);
        for instr in ShuffleInstr::ALL {
            let design = DesignKind::RegisterShuffle(instr);
            let exact = shuffle_encode_warp_exact(&h100(), instr, &data, 32);
            let closed = design.encode_counters(&h100(), data.len(), 32, 4);
            assert_eq!(exact.counters.ballot_ops, closed.ballot_ops, "{instr:?}");
            assert_eq!(exact.counters.shuffle_ops, closed.shuffle_ops, "{instr:?}");
            assert_eq!(exact.counters.reduce_ops, closed.reduce_ops, "{instr:?}");
            assert_eq!(
                exact.counters.warps_launched, closed.warps_launched,
                "{instr:?}"
            );
            assert_eq!(exact.counters.store_bytes, closed.store_bytes, "{instr:?}");
        }
    }

    #[test]
    fn warp_exact_register_block_matches_native_stream() {
        // The lane-level kernel must produce exactly the Interleaved32
        // stream specification, on both lane widths, including tails.
        for n in [1024usize, 2048 + 777, 5000] {
            let data = field(n);
            let native = native::encode(&data, 32, Layout::Interleaved32);
            for cfg in [h100(), mi250x()] {
                let out = register_block_encode_warp_exact(&cfg, &data, 32);
                assert_eq!(out.chunk, native, "{} n={n}", cfg.name);
            }
        }
    }

    #[test]
    fn warp_exact_register_block_counters_match_closed_form() {
        let data = field(32 * 32 * 6); // whole warps on both widths
        for cfg in [h100(), mi250x()] {
            let exact = register_block_encode_warp_exact(&cfg, &data, 32);
            let closed = DesignKind::RegisterBlock.encode_counters(&cfg, data.len(), 32, 4);
            assert_eq!(exact.counters, closed, "{}", cfg.name);
        }
    }

    #[test]
    fn reduce_add_rejected_on_rocm() {
        let design = DesignKind::RegisterShuffle(ShuffleInstr::ReduceAdd);
        assert!(!design.supported_on(&mi250x()));
        assert!(design.supported_on(&h100()));
    }

    #[test]
    fn register_block_fastest_at_large_size() {
        // The headline Figure 7 ordering at large input sizes:
        // register block > locality block > register shuffling.
        let n = 1 << 22;
        for cfg in [h100(), mi250x()] {
            let rb = DesignKind::RegisterBlock.encode_counters(&cfg, n, 32, 4);
            let lb = DesignKind::locality_default().encode_counters(&cfg, n, 32, 4);
            let rs =
                DesignKind::RegisterShuffle(ShuffleInstr::Ballot).encode_counters(&cfg, n, 32, 4);
            let t_rb = CostModel::kernel_time(&cfg, &rb);
            let t_lb = CostModel::kernel_time(&cfg, &lb);
            let t_rs = CostModel::kernel_time(&cfg, &rs);
            assert!(t_rb < t_lb, "{}: rb {t_rb} vs lb {t_lb}", cfg.name);
            assert!(t_lb < t_rs, "{}: lb {t_lb} vs rs {t_rs}", cfg.name);
        }
    }

    #[test]
    fn decode_penalizes_locality_more_than_encode() {
        // Figure 7: the register-block advantage over locality block is
        // larger for decoding than encoding (scattered stores).
        let n = 1 << 22;
        let cfg = h100();
        let rb_e = CostModel::kernel_time(
            &cfg,
            &DesignKind::RegisterBlock.encode_counters(&cfg, n, 32, 4),
        );
        let lb_e = CostModel::kernel_time(
            &cfg,
            &DesignKind::locality_default().encode_counters(&cfg, n, 32, 4),
        );
        let rb_d = CostModel::kernel_time(
            &cfg,
            &DesignKind::RegisterBlock.decode_counters(&cfg, n, 32, 4),
        );
        let lb_d = CostModel::kernel_time(
            &cfg,
            &DesignKind::locality_default().decode_counters(&cfg, n, 32, 4),
        );
        assert!(lb_d / rb_d > lb_e / rb_e);
    }

    #[test]
    fn shuffle_parallelism_advantage_at_small_sizes() {
        // §4.2: for small inputs the one-element-per-thread designs launch
        // far more warps than locality block, hence better occupancy.
        let cfg = h100();
        let n = 1 << 12;
        let rs = DesignKind::RegisterShuffle(ShuffleInstr::Ballot).encode_counters(&cfg, n, 32, 4);
        let lb = DesignKind::locality_default().encode_counters(&cfg, n, 32, 4);
        assert!(rs.warps_launched > 8 * lb.warps_launched);
    }

    #[test]
    fn empty_input_yields_empty_counters() {
        let c = DesignKind::RegisterBlock.encode_counters(&h100(), 0, 32, 4);
        assert_eq!(c, KernelCounters::new());
    }

    #[test]
    #[should_panic]
    fn locality_block_requires_multiple_of_32() {
        DesignKind::LocalityBlock { block_elems: 17 }.encode_counters(&h100(), 1024, 32, 4);
    }

    #[test]
    #[should_panic]
    fn decode_layout_mismatch_panics() {
        let data = field(256);
        let chunk = native::encode(&data, 32, Layout::Interleaved32);
        DesignKind::locality_default().decode_sim::<f32>(
            &h100(),
            &chunk,
            32,
            Reconstruction::Truncate,
        );
    }
}
