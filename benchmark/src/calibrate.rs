//! The host's speed, measured while the benchmark runs.
//!
//! This sandbox is a few cores of a shared host, and several times an hour
//! it runs everything 10–35 % slower for seconds or minutes at a time:
//! often whole invocations, so no statistic over one run's operations
//! passes it by. But it slows all of this repository's scalar,
//! cache-resident code by nearly the same factor — the ratio of two
//! families' latencies taken in the same round spreads 2–8 % over ten
//! seeds in a noisy hour, where the latencies themselves spread 13–22 %
//! (`README.md`, *Host speed*).
//!
//! So the benchmark times a fixed kernel of its own between the families'
//! slices and divides every timed operation by how much slower than
//! [`REFERENCE_MS`] the kernel ran around it: end-to-end times read as on
//! the reference host in a quiet hour. The kernel shares no code with the
//! program under test, so nothing a change does to the program moves the
//! yardstick.

use std::time::Instant;

/// Words per array: 1 MiB of `u32` and 1 MiB of `f32`, the size of one
/// 64³ chunk, inside the reference host's 2 MiB per-core L2.
const WORDS: usize = 1 << 18;
/// Passes over the arrays per reading.
const PASSES: usize = 8;
/// Readings per [`Calibrator::factor`] call; their median counts.
const READINGS: usize = 3;
/// What one reading takes on the reference host (2 cores, AVX2, 2.1 GHz)
/// in a quiet hour: the median over twenty invocations' medians.
pub const REFERENCE_MS: f64 = 8.6;

/// One pass of scalar work shaped like the codecs': a bit-plane gather
/// (shifts and masks over 32-word groups), a table walk whose next index
/// depends on the last lookup (entropy decoding), and a predict/restore
/// pair of lifting steps over interleaved samples.
fn pass(bits: &mut [u32], table: &[u32; 1024], reals: &mut [f32]) -> u32 {
    let mut acc = 0u32;
    for group in bits.chunks_exact_mut(32) {
        let mut plane = 0u32;
        for (j, w) in group.iter_mut().enumerate() {
            *w = w.rotate_left(5) ^ 0x9E37_79B9;
            plane |= ((*w >> 7) & 1) << j;
        }
        acc ^= plane;
    }
    for &w in bits.iter() {
        acc = table[((acc ^ w) & 1023) as usize].wrapping_add(acc >> 3);
    }
    for sign in [-0.5f32, 0.5] {
        for i in (1..reals.len() - 1).step_by(2) {
            reals[i] += sign * (reals[i - 1] + reals[i + 1]);
        }
    }
    acc
}

pub struct Calibrator {
    bits: Vec<u32>,
    table: [u32; 1024],
    reals: Vec<f32>,
    /// Off in a traced run, whose numbers are all wall times.
    enabled: bool,
    /// Every factor handed out, for the report.
    pub factors: Vec<f64>,
}

impl Calibrator {
    pub fn new(enabled: bool) -> Self {
        let mut state = 0x2545_F491u32;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        let bits: Vec<u32> = (0..WORDS).map(|_| next()).collect();
        let mut table = [0u32; 1024];
        table.iter_mut().for_each(|t| *t = next());
        let reals = (0..WORDS).map(|i| (i % 97) as f32 * 0.01).collect();
        let mut calibrator = Calibrator {
            bits,
            table,
            reals,
            enabled,
            factors: Vec::new(),
        };
        if enabled {
            calibrator.reading(); // first touch of the arrays
        }
        calibrator
    }

    /// Wall milliseconds of [`PASSES`] passes.
    fn reading(&mut self) -> f64 {
        let t = Instant::now();
        let mut acc = 0u32;
        for _ in 0..PASSES {
            acc ^= pass(&mut self.bits, &self.table, &mut self.reals);
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64() * 1e3
    }

    /// How many times slower than the reference host the kernel runs right
    /// now; 1 when calibration is off.
    pub fn factor(&mut self) -> f64 {
        if !self.enabled {
            return 1.0;
        }
        let mut readings = [0.0; READINGS];
        readings.iter_mut().for_each(|r| *r = self.reading());
        let factor = crate::stats::median(&readings) / REFERENCE_MS;
        self.factors.push(factor);
        factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_disabled_calibrator_leaves_times_as_measured() {
        let mut c = Calibrator::new(false);
        assert_eq!(c.factor(), 1.0);
        assert!(c.factors.is_empty());
    }

    #[test]
    fn the_kernel_does_the_same_work_every_pass() {
        // The lifting pair restores the samples (to rounding), so the
        // arrays do not drift into denormals or infinities however long
        // the benchmark runs.
        let mut c = Calibrator::new(true);
        for _ in 0..20 {
            c.reading();
        }
        assert!(c.reals.iter().all(|v| v.is_finite() && v.abs() < 10.0));
        let factor = c.factor();
        assert!(factor.is_finite() && factor > 0.0);
        assert_eq!(c.factors, [factor]);
    }
}
