//! Vector helpers for the clustering code.

/// Euclidean distance between two equal-length vectors.
///
/// # Panics
/// Panics if the vectors have different lengths.
pub(crate) fn euclidean(a: &[f64], b: &[f64]) -> f64 {
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
    fn euclidean_distance_matches_pythagoras() {
        assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn euclidean_rejects_mismatched_lengths() {
        euclidean(&[1.0], &[1.0, 2.0]);
    }
}
