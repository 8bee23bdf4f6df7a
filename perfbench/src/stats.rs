//! Summary statistics: medians and the percentile rule.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples lie
//! beyond it, so a tail figure always rests on several observations; the
//! tail reported beside the median is the highest percentile that meets
//! that bar.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
pub const TAILS: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// A percentile of a sample set, with the counts that back it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub pct: f64,
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// Nearest-rank percentile of `sorted` (ascending), or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<Pct> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // The epsilon keeps binary rounding of `pct` (99.9 is inexact) from
    // pushing an exact rank up by one.
    let rank = ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| Pct {
        pct,
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// The highest of [`TAILS`] that `sorted` supports.
pub fn tail(sorted: &[f64]) -> Option<Pct> {
    TAILS.iter().find_map(|&p| percentile(sorted, p))
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990 with exactly 10 beyond.
        let p = percentile(&ramp(1000), 99.0).expect("supported");
        assert_eq!((p.value, p.beyond, p.samples), (990.0, 10, 1000));
        // 999 samples: rank 990 leaves only 9 beyond.
        assert_eq!(percentile(&ramp(999), 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_is_the_highest_supported_percentile() {
        assert_eq!(tail(&ramp(100_000)).map(|p| p.pct), Some(99.99));
        assert_eq!(tail(&ramp(10_000)).map(|p| p.pct), Some(99.9));
        assert_eq!(tail(&ramp(5_000)).map(|p| p.pct), Some(99.0));
        assert_eq!(tail(&ramp(200)).map(|p| p.pct), Some(90.0));
        assert_eq!(tail(&ramp(30)).map(|p| p.pct), Some(50.0));
        assert_eq!(tail(&ramp(15)), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
