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

/// Per-dimension mean of a set of equal-length vectors.
pub fn column_means(rows: &[Vec<f64>]) -> Vec<f64> {
    if rows.is_empty() {
        return Vec::new();
    }
    let dims = rows[0].len();
    let mut sums = vec![0.0; dims];
    for row in rows {
        assert_eq!(row.len(), dims, "ragged input to column_means");
        for (s, v) in sums.iter_mut().zip(row) {
            *s += v;
        }
    }
    sums.iter().map(|s| s / rows.len() as f64).collect()
}

/// Per-dimension population standard deviation of a set of vectors.
pub fn column_std_devs(rows: &[Vec<f64>]) -> Vec<f64> {
    if rows.is_empty() {
        return Vec::new();
    }
    let dims = rows[0].len();
    let means = column_means(rows);
    let mut sums = vec![0.0; dims];
    for row in rows {
        for d in 0..dims {
            let diff = row[d] - means[d];
            sums[d] += diff * diff;
        }
    }
    sums.iter()
        .map(|s| (s / rows.len() as f64).sqrt())
        .collect()
}

/// Z-score normalizer fitted on a training set and applied to new vectors.
///
/// Clustering raw counter values would let high-magnitude metrics (cycles,
/// instructions) drown out low-magnitude ones (stall seconds); all DeepDive
/// components therefore standardize dimensions before computing distances.
#[derive(Debug, Clone, PartialEq)]
pub struct ZScore {
    /// Per-dimension means of the training data.
    pub means: Vec<f64>,
    /// Per-dimension standard deviations (zero-variance dimensions keep 1.0).
    pub stds: Vec<f64>,
}

impl ZScore {
    /// Fits the normalizer on `rows` (each row one observation).
    pub fn fit(rows: &[Vec<f64>]) -> Self {
        let means = column_means(rows);
        let stds = column_std_devs(rows)
            .into_iter()
            .map(|s| if s > 1e-12 { s } else { 1.0 })
            .collect();
        Self { means, stds }
    }

    /// Transforms a single vector into z-scores.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(
            row.len(),
            self.means.len(),
            "dimension mismatch in ZScore::transform"
        );
        row.iter()
            .zip(self.means.iter().zip(&self.stds))
            .map(|(v, (m, s))| (v - m) / s)
            .collect()
    }

    /// Number of dimensions the normalizer was fitted on.
    pub fn dims(&self) -> usize {
        self.means.len()
    }
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

    #[test]
    fn zscore_standardizes_training_data() {
        let rows = vec![vec![10.0, 100.0], vec![20.0, 200.0], vec![30.0, 300.0]];
        let z = ZScore::fit(&rows);
        let col0: Vec<f64> = rows.iter().map(|r| z.transform(r)[0]).collect();
        assert!(mean(&col0).abs() < 1e-12);
        assert!((variance(&col0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zscore_handles_zero_variance_dimensions() {
        let rows = vec![vec![5.0, 1.0], vec![5.0, 2.0], vec![5.0, 3.0]];
        let z = ZScore::fit(&rows);
        let out = z.transform(&[5.0, 2.0]);
        assert_eq!(out[0], 0.0);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn column_stats_shapes_match_dims() {
        let rows = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        assert_eq!(column_means(&rows).len(), 3);
        assert_eq!(column_std_devs(&rows).len(), 3);
    }
}
