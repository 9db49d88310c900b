//! Order statistics used by every reported number.

/// Median of `values` (mean of the two middle values for even counts);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// How many samples must lie beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The tail percentile `samples` observations support: `wanted`, unless fewer
/// than [`MIN_TAIL_SAMPLES`] samples would lie beyond it, in which case the
/// highest percentile that still leaves that many beyond it (never below the
/// median).
pub fn supported_percentile(samples: usize, wanted: f64) -> f64 {
    if samples == 0 {
        return 0.5;
    }
    let highest = 1.0 - MIN_TAIL_SAMPLES as f64 / samples as f64;
    wanted.min(highest).max(0.5)
}

/// The quartiles `(q1, q2, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, so spreads printed here match the ones the acceptance
/// driver derives. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile distance as a share of the median — the spread the
/// acceptance driver bounds. `0.0` when fewer than two values or a zero
/// median make it undefined.
pub fn iqr_spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, _, q3)) => {
            let mid = median(values);
            if mid == 0.0 {
                0.0
            } else {
                (q3 - q1).abs() / mid.abs()
            }
        }
        None => 0.0,
    }
}

/// `(max - min) / median`; `0.0` for fewer than two values.
pub fn range_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (max - min) / mid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let sorted = [0.0, 10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile_sorted(&sorted, 0.0), 0.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 40.0);
        assert_eq!(quantile_sorted(&sorted, 0.875), 35.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        // 200 samples: exactly 10 beyond p95.
        assert_eq!(supported_percentile(200, 0.95), 0.95);
        // More samples never raise it past the wanted percentile.
        assert_eq!(supported_percentile(100_000, 0.95), 0.95);
        // 100 samples support only p90; 40 only p75.
        assert!((supported_percentile(100, 0.95) - 0.90).abs() < 1e-12);
        assert!((supported_percentile(40, 0.95) - 0.75).abs() < 1e-12);
        // Too few for any tail: fall back to the median.
        assert_eq!(supported_percentile(12, 0.95), 0.5);
        assert_eq!(supported_percentile(0, 0.95), 0.5);
        for n in [20usize, 57, 199, 200, 1000] {
            let p = supported_percentile(n, 0.95);
            let beyond = ((1.0 - p) * n as f64).round() as usize;
            assert!(p == 0.5 || beyond >= MIN_TAIL_SAMPLES, "n={n} p={p}");
        }
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]),
            Some((1.5, 4.0, 12.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_spread(&values) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_spread(&[5.0]), 0.0);
    }

    #[test]
    fn range_spread_is_relative_to_the_median() {
        assert_eq!(range_spread(&[10.0]), 0.0);
        assert!((range_spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }
}
