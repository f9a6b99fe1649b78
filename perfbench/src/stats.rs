//! Order statistics used by every reported number.

/// The median of `values` (the mean of the middle two for even lengths),
/// or 0.0 for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest whole percentile that leaves at least `min_beyond` of `n`
/// samples strictly above its rank, or `None` when even the median does not.
/// With 100 samples and 10 beyond, that is the 90th.
#[must_use]
pub fn highest_supported_percentile(n: usize, min_beyond: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&p| n * (100 - p as usize) >= min_beyond * 100)
}

/// The `p`-th percentile of `values` by the nearest-rank rule (the smallest
/// sample with at least `p` % of the samples at or below it), or 0.0 for an
/// empty slice.
#[must_use]
pub fn percentile(values: &[f64], p: u32) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p as usize * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn the_90th_percentile_needs_100_samples() {
        assert_eq!(highest_supported_percentile(100, 10), Some(90));
        assert_eq!(highest_supported_percentile(1000, 10), Some(99));
        assert_eq!(highest_supported_percentile(99, 10), Some(89));
        assert_eq!(highest_supported_percentile(50, 10), Some(80));
        assert_eq!(highest_supported_percentile(20, 10), Some(50));
        assert_eq!(highest_supported_percentile(19, 10), None);
    }

    #[test]
    fn a_supported_percentile_leaves_ten_samples_beyond_it() {
        for n in 20..400 {
            let p = highest_supported_percentile(n, 10).expect("n >= 20");
            let values: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let at = percentile(&values, p);
            let beyond = values.iter().filter(|&&v| v > at).count();
            assert!(beyond >= 10, "n={n} p={p} leaves {beyond} beyond");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50), 50.0);
        assert_eq!(percentile(&values, 90), 90.0);
        assert_eq!(percentile(&values, 99), 99.0);
        assert_eq!(percentile(&[7.0], 90), 7.0);
        assert_eq!(percentile(&[], 90), 0.0);
    }
}
