//! Descriptive statistics and vector helpers.
//!
//! Small, dependency-free building blocks shared by the clustering code and
//! the arrival-process samplers.

/// Arithmetic mean; `0.0` for an empty slice.
pub(crate) fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Population variance; `0.0` for slices with fewer than two elements.
pub(crate) fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / values.len() as f64
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
