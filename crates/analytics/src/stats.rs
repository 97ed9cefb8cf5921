//! Descriptive statistics and vector helpers.
//!
//! Small, dependency-free building blocks shared by the clustering code, the
//! threshold derivation and the evaluation harness (which reports means,
//! medians and percentiles of estimation errors, as in §5.3–§5.4).

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Population variance; `0.0` for slices with fewer than two elements.
pub fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64
}

/// Median (average of the two middle values for even-length input).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Linear-interpolation percentile in `[0, 100]`; `0.0` for an empty slice.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let pct = pct.clamp(0.0, 100.0);
    let rank = pct / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Euclidean distance between two equal-length vectors.
///
/// # Panics
/// Panics if the vectors have different lengths.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance requires equal-length vectors");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_of_known_data() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&data) - 5.0).abs() < 1e-12);
        assert!((variance(&data) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_inputs_are_safe() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&data, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&data, 100.0) - 4.0).abs() < 1e-12);
        assert!((median(&data) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn euclidean_distance_matches_pythagoras() {
        assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn euclidean_rejects_mismatched_lengths() {
        euclidean(&[1.0], &[1.0, 2.0]);
    }
}
