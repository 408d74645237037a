//! Order statistics and regression bounds — the arithmetic every metric
//! in the benchmark goes through.

/// Sorted copy of `samples` (total order, so a NaN cannot panic the sort).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller times at least one operation.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of `samples`, or 0 when a failed family produced none (the run
/// is reported incorrect in that case; the value only keeps the shape).
pub fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// First, second and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// `--repeat-check` and the builder contract agree on what a spread is.
///
/// # Panics
/// Panics with fewer than two samples.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let v = sorted(samples);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two samples");
    [1usize, 2, 3].map(|i| {
        // Rank i·(n+1)/4, clamped into the sample; a rank outside it
        // extrapolates, exactly as the Python routine does.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Nearest-rank position (1-based) of percentile `p` in a sample of `n`,
/// in integer arithmetic on tenths of a percent so that 99.9 % of 10 000
/// is rank 9 990 and not a rounding artefact above it.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile `p` (0–100, to a tenth) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    assert!(!v.is_empty(), "percentile of no samples");
    v[rank(v.len(), p) - 1]
}

/// Percentile `p` of a sample taken in rounds, read where the host was
/// quiet: each round's own percentile, then the first quartile of those
/// over the rounds (the least of them for fewer than four rounds);
/// `ends[r]` is how many samples there were when round `r` ended. The
/// host's interference only ever adds time: rounds it left alone agree
/// with each other and the disturbed ones scatter upwards, so the low
/// quartile reads the undisturbed level as long as a quarter of the rounds
/// had it, where the pooled percentile — a p95 above all — reads a stall
/// that covers a twentieth of the run as if it were the system's tail. A
/// change that makes the program slower moves every round, and this with
/// them. 0 when there are no samples.
pub fn quiet_percentile(samples: &[f64], ends: &[usize], p: f64) -> f64 {
    let starts = std::iter::once(&0).chain(ends);
    let per_round: Vec<f64> = starts
        .zip(ends)
        .filter(|(start, end)| start < end)
        .map(|(&start, &end)| percentile(&samples[start..end], p))
        .collect();
    match per_round.len() {
        0 => 0.0,
        1..=3 => sorted(&per_round)[0],
        _ => quartiles(&per_round)[0],
    }
}

/// Samples strictly beyond percentile `p` in a sample of `n`.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest reportable tail percentile of a sample of `n`: the largest
/// of 99.9 / 99 / 95 / 90 / 75 that still has at least ten samples beyond
/// it, or `None` when even p75 does not (report the median alone then).
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| beyond(n, p) >= 10)
}

/// Whether a sample of `n` supports reporting percentile `p` at all.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    beyond(n, p) >= 10
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric may move before `--repeat-check` calls it a
/// regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// May get worse by at most this share of the base value;
    /// `Share(0.0)` is "any increase fails".
    Share(f64),
    /// Must repeat exactly (counts fixed by the seed).
    Exact,
}

/// Share of `base` by which `new` is *worse* (negative when it improved).
pub fn worsening(better: Better, base: f64, new: f64) -> f64 {
    let delta = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if delta == 0.0 {
        0.0
    } else if base == 0.0 {
        delta.signum() * f64::INFINITY
    } else {
        delta / base.abs()
    }
}

/// Whether going from `base` to `new` breaks `bound`.
pub fn exceeds(better: Better, bound: Bound, base: f64, new: f64) -> bool {
    match bound {
        Bound::Exact => base != new,
        Bound::Share(share) => worsening(better, base, new) > share,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert!((q[0] - 2.75).abs() < 1e-12, "{q:?}");
        assert!((q[1] - 5.5).abs() < 1e-12, "{q:?}");
        assert!((q[2] - 8.25).abs() < 1e-12, "{q:?}");
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let q = quartiles(&[5.0, 3.0, 1.0, 2.0, 4.0]);
        assert_eq!(q, [1.5, 3.0, 4.5]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]:
        // the exclusive method extrapolates past a two-point sample.
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[4.0], 95.0), 4.0);
    }

    #[test]
    fn quiet_percentile_passes_stalled_rounds_by() {
        // Five rounds of twenty samples 1..=20; three of them stalled.
        let round: Vec<f64> = (1..=20).map(f64::from).collect();
        let stalled: Vec<f64> = round.iter().map(|v| v + 100.0).collect();
        let samples = [&stalled, &round, &stalled, &stalled, &round]
            .map(|r| r.clone())
            .concat();
        let ends = [20, 40, 60, 80, 100];
        assert_eq!(quiet_percentile(&samples, &ends, 95.0), 19.0);
        assert_eq!(quiet_percentile(&samples, &ends, 50.0), 10.0);
        assert_eq!(
            percentile(&samples, 95.0),
            119.0,
            "the pooled p95 reads the stall"
        );
        // Below four rounds the quietest one counts; rounds without
        // samples do not; no samples at all read 0.
        assert_eq!(quiet_percentile(&samples[..40], &[0, 20, 40], 95.0), 19.0);
        assert_eq!(quiet_percentile(&samples[..20], &[20], 95.0), 119.0);
        assert_eq!(quiet_percentile(&[], &[0, 0], 95.0), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(256), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert!(supports_percentile(200, 95.0));
        assert!(!supports_percentile(199, 95.0));
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worsening(Better::Higher, 50.0, 45.0) - 0.10).abs() < 1e-12);
        assert!(worsening(Better::Higher, 50.0, 55.0) < 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn share_bounds_allow_noise_up_to_the_share() {
        let b = Bound::Share(0.10);
        assert!(!exceeds(Better::Lower, b, 100.0, 109.9));
        assert!(exceeds(Better::Lower, b, 100.0, 110.1));
        assert!(
            !exceeds(Better::Lower, b, 100.0, 50.0),
            "improvement passes"
        );
        assert!(exceeds(Better::Higher, b, 100.0, 89.0));
        assert!(!exceeds(Better::Higher, b, 100.0, 91.0));
    }

    #[test]
    fn any_increase_bound_rejects_the_smallest_worsening() {
        let b = Bound::Share(0.0);
        assert!(!exceeds(Better::Lower, b, 0.0, 0.0));
        assert!(exceeds(Better::Lower, b, 0.0, 1.0), "0 → 1 failed op");
        assert!(exceeds(Better::Lower, b, 3.0, 3.000001));
        assert!(!exceeds(Better::Lower, b, 3.0, 2.0));
    }

    #[test]
    fn exact_bound_rejects_a_move_in_either_direction() {
        assert!(!exceeds(Better::Lower, Bound::Exact, 0.81, 0.81));
        assert!(exceeds(Better::Lower, Bound::Exact, 0.81, 0.80));
        assert!(exceeds(Better::Lower, Bound::Exact, 0.81, 0.82));
    }
}
