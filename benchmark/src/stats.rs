//! Order statistics used by the protocol and the comparison tool.

/// Exact nearest-rank percentile of an unsorted sample (`p` in `(0, 1]`).
pub fn percentile(values: &mut [u64], p: f64) -> u64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    values.sort_unstable();
    let rank = (p * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::MIN, f64::max)
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::MAX, f64::min)
}

/// `(max − min) / median`: the spread over a run's rounds.
pub fn range_frac(values: &[f64]) -> f64 {
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (max(values) - min(values)) / mid
    }
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method), so
/// the comparison tool applies the driver's own rule.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median (0 for one value).
pub fn iqr_frac(values: &[f64]) -> f64 {
    let mid = median(values);
    match quartiles(values) {
        Some((q1, q3)) if mid != 0.0 => (q3 - q1) / mid.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 8.25)));
        assert_eq!(median(&values), 5.5);
        assert_eq!(iqr_frac(&values), 1.0);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut values: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut values, 0.5), 50);
        assert_eq!(percentile(&mut values, 0.99), 99);
        assert_eq!(percentile(&mut [7], 0.99), 7);
    }
}
