//! Test statistics for the generated streams: the arrival-process tests
//! compare streams by the burstiness of their inter-arrival gaps.

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

/// Squared coefficient of variation of the gaps between consecutive arrival
/// times — a standard burstiness measure (1.0 for Poisson, larger for
/// heavier-tailed processes).
pub(crate) fn burstiness(arrivals: &[f64]) -> f64 {
    if arrivals.len() < 3 {
        return 0.0;
    }
    let gaps: Vec<f64> = arrivals.windows(2).map(|w| w[1] - w[0]).collect();
    let mean = mean(&gaps);
    if mean <= 0.0 {
        return 0.0;
    }
    variance(&gaps) / (mean * mean)
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
}
