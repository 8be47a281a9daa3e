//! Order statistics for timing samples.
//!
//! A timing is reported as its median, the highest percentile that still
//! has at least [`MIN_TAIL`] samples beyond it, and the sample count. A
//! percentile with fewer samples beyond it is refused, never
//! extrapolated: a p99 needs at least 1000 samples.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_TAIL: usize = 10;

/// Tail percentiles tried, highest first, in hundredths of a percent
/// (integer ranks, so 99.9 % of 10 000 samples is exactly rank 9 990).
const TAILS: [u32; 5] = [9990, 9900, 9500, 9000, 7500];

/// Median, highest supported tail percentile and sample count of one
/// window of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median (mean of the two middle samples for an even count).
    pub median: f64,
    /// `(percentile, value)` of the highest percentile with at least
    /// [`MIN_TAIL`] samples beyond it, if any.
    pub tail: Option<(f64, f64)>,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median_sorted(v: &[f64]) -> Option<f64> {
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile of sorted samples; `hundredths` in 1/100 %.
fn percentile_sorted(v: &[f64], hundredths: u32) -> Option<f64> {
    let n = v.len();
    // Smallest rank with at least the requested share at or below it.
    let rank = (n * hundredths as usize).div_ceil(10_000);
    if rank == 0 || n - rank < MIN_TAIL {
        return None;
    }
    Some(v[rank - 1])
}

/// Median of `samples`; `None` for an empty window.
pub fn median(samples: &[f64]) -> Option<f64> {
    median_sorted(&sorted(samples))
}

/// The `p`-th percentile (nearest rank) of `samples`, or `None` when fewer
/// than [`MIN_TAIL`] samples lie beyond it, which includes an empty
/// window.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    percentile_sorted(&sorted(samples), (p * 100.0).round() as u32)
}

/// The nearest-rank `q` quantile (`0 < q < 1`) with no tail requirement,
/// for the central and fast-side quantiles the end-to-end metrics use;
/// `None` for an empty window.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let v = sorted(samples);
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len().max(1));
    v.get(rank - 1).copied()
}

/// Median, highest supported tail percentile and count; `None` for an
/// empty window.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let v = sorted(samples);
    let median = median_sorted(&v)?;
    let tail =
        TAILS.iter().find_map(|&q| percentile_sorted(&v, q).map(|x| (f64::from(q) / 100.0, x)));
    Some(Summary { count: v.len(), median, tail })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n, n-1, ..., 1`: reversed so sorting is exercised.
    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_windows() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quantile_needs_no_tail_but_a_sample() {
        assert_eq!(quantile(&ramp(20), 0.10), Some(2.0));
        assert_eq!(quantile(&ramp(20), 0.90), Some(18.0));
        assert_eq!(quantile(&[5.0], 0.90), Some(5.0));
    }

    #[test]
    fn empty_window_is_refused() {
        assert_eq!(median(&[]), None);
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(summarize(&[]), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 999 samples: the p99 rank is 990, so only 9 lie beyond it.
        assert_eq!(percentile(&ramp(999), 99.0), None);
        // 1000 samples: exactly 10 beyond the 990th.
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
    }

    #[test]
    fn summary_picks_the_highest_supported_percentile() {
        let s = summarize(&ramp(1000)).expect("non-empty");
        assert_eq!(s.count, 1000);
        assert_eq!(s.median, 500.5);
        assert_eq!(s.tail, Some((99.0, 990.0)));
        assert_eq!(summarize(&ramp(10_000)).expect("non-empty").tail, Some((99.9, 9990.0)));
        assert_eq!(summarize(&ramp(100)).expect("non-empty").tail, Some((90.0, 90.0)));
        // 15 samples support no tail at all: p75 leaves only 3 beyond.
        assert_eq!(summarize(&ramp(15)).expect("non-empty").tail, None);
    }
}
