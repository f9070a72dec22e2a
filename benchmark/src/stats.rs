//! Order statistics over timing samples.

/// Median; the mean of the two middle values on an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.iter().sum::<f64>() / values.len() as f64
}

/// The `p`-th percentile (0..=100) by linear interpolation between the
/// two nearest ranks.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The highest of p50/p75/p90/p95/p99/p99.9 that still has at least ten
/// samples beyond it; a tail read off fewer samples is one outlier, not
/// a percentile. `None` below twenty samples, where even the median
/// has fewer than ten beyond it.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    // in per mille, so that "ten beyond" is exact integer arithmetic
    [999usize, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|p| samples * (1000 - p) >= 10 * 1000)
        .map(|p| p as f64 / 10.0)
}

/// The first and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (its default,
/// "exclusive" method): what the driver computes over its ten runs.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles of fewer than two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let (len, m) = (v.len(), v.len() + 1);
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// `(Q3 − Q1) / median`: the run-to-run spread the driver accepts or
/// rejects a benchmark on, and `repeat.sh` with it.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    if q3 == q1 {
        0.0
    } else {
        (q3 - q1) / median(values).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_on_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_interpolates_on_odd_and_even_counts() {
        let odd = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&odd, 0.0), 10.0);
        assert_eq!(percentile(&odd, 50.0), 30.0);
        assert_eq!(percentile(&odd, 100.0), 50.0);
        assert_eq!(percentile(&odd, 90.0), 46.0);
        let even = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&even, 50.0), 2.5);
        assert_eq!(percentile(&even, 25.0), 1.75);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_are_pythons_exclusive_ones() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
    }

    #[test]
    fn spread_is_quartile_distance_over_median() {
        assert_eq!(spread(&[5.0, 1.0, 4.0, 2.0, 3.0]), 1.0);
        assert_eq!(spread(&[5.0, 5.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(spread(&[7.0]), 0.0);
        // one slow run in ten leaves the quartiles where they were
        let mut ten = vec![100.0; 10];
        ten[3] = 150.0;
        assert_eq!(spread(&ten), 0.0);
    }
}
