//! Summary statistics of timing samples.
//!
//! Timings are reported as a median plus the highest percentile that still
//! has at least [`TAIL_MIN_BEYOND`] samples beyond it, together with the
//! sample count, so a tail figure is never read off a handful of samples.

/// Minimum number of samples that must lie beyond a reported tail
/// percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The percentiles a tail may be reported at, in per-mille, highest first.
const TAIL_CANDIDATES_PER_MILLE: [usize; 4] = [999, 990, 900, 500];

/// Median of `samples` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `pct` (in `(0, 100]`) of `samples`.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let sorted = sorted(samples);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of 99.9, 99, 90 and 50 that has at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it, or `None` when even the
/// median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES_PER_MILLE
        .into_iter()
        .find(|per_mille| n * (1_000 - per_mille) / 1_000 >= TAIL_MIN_BEYOND)
        .map(|per_mille| per_mille as f64 / 10.0)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0, 9.0], 90.0), 9.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }
}
