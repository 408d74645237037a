//! What the four workload families share: the operation count that feeds
//! `attempted`/`failed`, and the pacing of a closed loop.

use crate::spans::Recorder;
use std::time::{Duration, Instant};

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Operations attempted and failed (errored, rejected, or answered
/// wrongly), with the reason of each failure for the report.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one operation; `outcome` says why it failed, if it did.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.note(why);
        }
    }

    /// Keep a failure's reason. The counts are exact; the list is for
    /// reading, so it stays short.
    fn note(&mut self, why: String) {
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        other.failures.into_iter().for_each(|why| self.note(why));
    }
}

/// Timed readings of one kind, taken round by round.
#[derive(Default)]
pub struct Series {
    pub values: Vec<f64>,
    /// How many readings there were when each round ended.
    pub round_ends: Vec<usize>,
}

impl Series {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn end_round(&mut self) {
        self.round_ends.push(self.values.len());
    }

    /// Divide each round's readings by that round's host-speed factor
    /// (see `calibrate.rs`): times as the reference host would have taken
    /// them.
    pub fn divide_rounds_by(&mut self, factors: impl Iterator<Item = f64>) {
        let starts = std::iter::once(&0).chain(&self.round_ends);
        for ((&start, &end), factor) in starts.zip(&self.round_ends).zip(factors) {
            self.values[start..end]
                .iter_mut()
                .for_each(|v| *v /= factor);
        }
    }
}

/// How long a family runs in one invocation.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Issue this many timed operations …
    pub min_ops: usize,
    /// … and keep issuing them until this much time has passed: zero,
    /// except `--seconds` for the family the invocation's `--workload`
    /// names.
    pub budget: Duration,
    /// Operations run and verified but not timed, first.
    pub warmup: usize,
}

/// Untimed operations the watched family runs for `peak_rss_mb`.
const RSS_OPS: usize = 5;

/// `peak_rss_mb`: run `op` [`RSS_OPS`] more times (its argument counts
/// them) and return the median of their peak resident sets in 10⁶ bytes.
/// Before each, free heap is handed back and the kernel's high-water mark
/// reset; after it the mark is read. Never done around a timed operation —
/// trimming makes the next allocations fault their pages in again.
pub fn peak_rss_mb(tally: &mut Tally, mut op: impl FnMut(usize) -> Result<(), String>) -> f64 {
    let mut peaks_mb = Vec::new();
    for i in 0..RSS_OPS {
        crate::host::trim_heap();
        crate::host::reset_peak_rss();
        tally.record(op(i));
        peaks_mb.extend(crate::host::peak_rss_mb());
    }
    crate::stats::median_or_zero(&peaks_mb)
}

/// In a traced run, keeps the recorder off for a family's warm-ups and
/// every other timed operation: the unrecorded operations, interleaved
/// with the recorded ones, are what `trace.overhead_share` compares them
/// with. In an untraced run it does nothing.
pub struct RecordingGate {
    tracing: bool,
}

impl RecordingGate {
    /// Turns recording off (for the warm-ups that follow) until
    /// [`Self::release`].
    pub fn close(rec: &mut Recorder) -> Self {
        let tracing = rec.enabled();
        rec.set_enabled(false);
        RecordingGate { tracing }
    }

    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Whether the family's timed operation `i` (counted over the whole
    /// run) is a recorded one.
    pub fn records(i: usize) -> bool {
        i % 2 == 1
    }

    /// Call before the family's timed operation `i`.
    pub fn before_op(&self, rec: &mut Recorder, i: usize) {
        rec.set_enabled(self.tracing && Self::records(i));
    }

    /// Call when the family hands control back: the recorder is again as
    /// the run set it.
    pub fn release(&self, rec: &mut Recorder) {
        rec.set_enabled(self.tracing);
    }
}

/// Rounds one invocation's measurement is cut into. Each round runs a
/// slice of every family, so the families' operations interleave over the
/// whole measurement. This sandbox stalls for 5–10 s at a time, a few
/// times a minute, running 20–30 % slower; family after family, a stall
/// lands on most operations of one family and moves its median by that
/// much, while interleaved it lands on a minority of every family's and
/// their medians hold.
pub const ROUNDS: usize = 8;

/// Loop control for one family's slice of one round.
pub struct Pace {
    deadline: Instant,
    min_ops: usize,
    done: usize,
}

impl Pace {
    /// The slice of `phase` that round `round` of [`ROUNDS`] runs: an even
    /// share of its operations and of its time.
    pub fn start(phase: &Phase, round: usize) -> Self {
        let upto = |r: usize| phase.min_ops * r / ROUNDS;
        Pace {
            deadline: Instant::now() + phase.budget / ROUNDS as u32,
            min_ops: upto(round + 1) - upto(round),
            done: 0,
        }
    }

    /// Whether another timed operation is due.
    pub fn more(&self) -> bool {
        self.done < self.min_ops || Instant::now() < self.deadline
    }

    /// One timed operation completed.
    pub fn tick(&mut self) {
        self.done += 1;
    }
}

/// True L∞ distance between an f32 reconstruction and its f32 original,
/// taken in f64 so the check itself adds no rounding.
pub fn linf(original: &[f32], approx: &[f32]) -> f64 {
    assert_eq!(original.len(), approx.len(), "shape mismatch");
    original
        .iter()
        .zip(approx)
        .map(|(&a, &b)| (f64::from(a) - f64::from(b)).abs())
        .fold(0.0, f64::max)
}

/// The error-bound contract of one answer: the true error stays within
/// the bound the library reports, and that bound within the request.
pub fn check_bound(what: &str, true_err: f64, achieved: f64, requested: f64) -> Result<(), String> {
    if true_err <= achieved && achieved <= requested {
        Ok(())
    } else {
        Err(format!(
            "{what}: true L∞ {true_err:e} ≤ achieved {achieved:e} ≤ requested {requested:e} does not hold"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_series_is_rescaled_round_by_round() {
        let mut series = Series::default();
        [10.0, 20.0].into_iter().for_each(|v| series.push(v));
        series.end_round();
        series.end_round(); // a round without readings
        series.push(30.0);
        series.end_round();
        series.divide_rounds_by([2.0, 7.0, 1.5].into_iter());
        assert_eq!(series.values, [5.0, 10.0, 20.0]);
        assert_eq!(series.round_ends, [2, 2, 3]);
    }

    #[test]
    fn rounds_share_out_every_operation_exactly_once() {
        for min_ops in [0, 3, 5, 8, 100, 203] {
            let phase = Phase {
                min_ops,
                budget: Duration::ZERO,
                warmup: 0,
            };
            let shares: Vec<usize> = (0..ROUNDS)
                .map(|round| Pace::start(&phase, round).min_ops)
                .collect();
            assert_eq!(shares.iter().sum::<usize>(), min_ops, "{shares:?}");
            let (least, most) = (shares.iter().min(), shares.iter().max());
            assert!(most.unwrap() - least.unwrap() <= 1, "uneven: {shares:?}");
        }
    }

    #[test]
    fn a_slice_without_budget_stops_at_its_count() {
        let phase = Phase {
            min_ops: ROUNDS * 2,
            budget: Duration::ZERO,
            warmup: 0,
        };
        let mut pace = Pace::start(&phase, 0);
        let mut ran = 0;
        while pace.more() {
            pace.tick();
            ran += 1;
        }
        assert_eq!(ran, 2);
    }
}
