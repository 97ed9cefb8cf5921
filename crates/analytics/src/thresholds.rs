//! Per-metric classification thresholds — the `MT` vector of §4.1.
//!
//! "The challenge here is to define metric thresholds MT that properly
//! separate representative VM behaviors from background noise, while also
//! properly identifying interference.  [...] In producing the clusters, the
//! algorithm also defines the metric thresholds."
//!
//! We derive the thresholds from the fitted mixture: for every metric the
//! allowed deviation is `k` standard deviations of the widest normal cluster
//! in that dimension (plus a small absolute floor for near-constant metrics).
//! A new observation *matches* the learned normal behaviours when some
//! cluster contains it within the per-metric thresholds; otherwise the
//! warning system escalates.

use crate::gmm::GaussianMixture;

/// Default number of standard deviations allowed before a metric is
/// considered to have deviated from a normal cluster.
pub const DEFAULT_SIGMA_MULTIPLIER: f64 = 3.0;

/// Absolute floor added to every threshold so that near-constant metrics do
/// not fire on measurement noise.
pub const ABSOLUTE_FLOOR: f64 = 1e-3;

/// Relative floor: every threshold is at least this fraction of the cluster
/// mean in that dimension, so that clusters learned from near-identical
/// samples (e.g. a constant-load bootstrap phase) still tolerate ordinary
/// measurement noise instead of firing on every epoch.
pub const RELATIVE_FLOOR: f64 = 0.10;

/// The per-metric threshold vector `MT`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricThresholds {
    /// Allowed absolute deviation per metric dimension.
    pub per_metric: Vec<f64>,
    /// The σ-multiplier used to derive the thresholds.
    pub sigma_multiplier: f64,
}

impl MetricThresholds {
    /// Derives thresholds from a fitted mixture over the normal behaviours.
    ///
    /// For each dimension the threshold is the σ-multiplier times the largest
    /// per-cluster standard deviation, so behaviours anywhere inside (or
    /// near) a normal cluster pass, and points well outside every cluster
    /// fail.
    pub fn from_mixture(mixture: &GaussianMixture, sigma_multiplier: f64) -> Self {
        assert!(sigma_multiplier > 0.0, "sigma multiplier must be positive");
        let dims = mixture
            .components
            .first()
            .map(|c| c.mean.len())
            .unwrap_or(0);
        let mut per_metric = vec![ABSOLUTE_FLOOR; dims];
        for c in &mixture.components {
            for (slot, (&var, &mean)) in per_metric.iter_mut().zip(c.variance.iter().zip(&c.mean)) {
                let sigma = var.sqrt();
                let threshold =
                    (sigma * sigma_multiplier).max(mean.abs() * RELATIVE_FLOOR) + ABSOLUTE_FLOOR;
                *slot = slot.max(threshold);
            }
        }
        Self {
            per_metric,
            sigma_multiplier,
        }
    }

    /// Uniform thresholds (used by the conservative bootstrap mode before any
    /// cluster exists).
    pub fn uniform(dims: usize, value: f64) -> Self {
        assert!(value >= 0.0, "threshold must be non-negative");
        Self {
            per_metric: vec![value; dims],
            sigma_multiplier: 0.0,
        }
    }

    /// True when `point` lies within the thresholds of `center` in *every*
    /// dimension — the "within distance T from previous VM behaviors" test of
    /// Algorithm 1.
    pub fn matches(&self, center: &[f64], point: &[f64]) -> bool {
        assert_eq!(center.len(), point.len(), "dimension mismatch in matches");
        assert_eq!(
            center.len(),
            self.per_metric.len(),
            "threshold dimension mismatch"
        );
        center
            .iter()
            .zip(point)
            .zip(&self.per_metric)
            .all(|((c, p), t)| (c - p).abs() <= *t)
    }

    /// Scales every threshold by `factor` (used by the sensitivity analysis:
    /// stricter thresholds ⇒ more analyzer invocations, looser ⇒ risk of
    /// false negatives).
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        Self {
            per_metric: self.per_metric.iter().map(|t| t * factor).collect(),
            sigma_multiplier: self.sigma_multiplier * factor,
        }
    }

    /// Number of metric dimensions covered.
    pub fn dims(&self) -> usize {
        self.per_metric.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmm::GaussianMixture;

    fn tight_and_wide_clusters() -> GaussianMixture {
        let mut pts = Vec::new();
        for i in 0..40 {
            let j = (i % 5) as f64;
            pts.push(vec![0.0 + j * 0.01, 5.0 + j * 0.01]); // tight blob
            pts.push(vec![10.0 + j * 0.5, -5.0 - j * 0.5]); // wider blob
        }
        GaussianMixture::fit(&pts, 2, 100, 17)
    }

    #[test]
    fn thresholds_cover_every_dimension() {
        let mt = MetricThresholds::from_mixture(&tight_and_wide_clusters(), 3.0);
        assert_eq!(mt.dims(), 2);
        assert!(mt.per_metric.iter().all(|t| *t > 0.0));
    }

    #[test]
    fn wider_clusters_produce_larger_thresholds() {
        let mixture = tight_and_wide_clusters();
        let mt = MetricThresholds::from_mixture(&mixture, 3.0);
        // The wide blob has ~1.0 spread in both dims, so thresholds must be
        // well above the tight blob's 0.02 spread.
        assert!(mt.per_metric[0] > 0.5);
    }

    #[test]
    fn matches_accepts_in_cluster_and_rejects_far_points() {
        let mixture = tight_and_wide_clusters();
        let mt = MetricThresholds::from_mixture(&mixture, 3.0);
        let center = &mixture.components[0].mean;
        assert!(mt.matches(center, center));
        let mut far = center.clone();
        far[0] += 100.0;
        assert!(!mt.matches(center, &far));
    }

    #[test]
    fn sigma_multiplier_scales_tolerance() {
        let mixture = tight_and_wide_clusters();
        let strict = MetricThresholds::from_mixture(&mixture, 1.0);
        let loose = MetricThresholds::from_mixture(&mixture, 5.0);
        for (s, l) in strict.per_metric.iter().zip(&loose.per_metric) {
            assert!(l > s);
        }
    }

    #[test]
    fn uniform_thresholds_have_requested_value() {
        let mt = MetricThresholds::uniform(4, 0.25);
        assert_eq!(mt.dims(), 4);
        assert!(mt.matches(&[0.0; 4], &[0.2, -0.2, 0.1, 0.0]));
        assert!(!mt.matches(&[0.0; 4], &[0.3, 0.0, 0.0, 0.0]));
    }

    #[test]
    fn scaled_multiplies_every_threshold() {
        let mt = MetricThresholds::uniform(3, 1.0).scaled(2.0);
        assert!(mt.per_metric.iter().all(|t| (*t - 2.0).abs() < 1e-12));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dimensions_are_rejected() {
        let mt = MetricThresholds::uniform(2, 1.0);
        mt.matches(&[0.0, 0.0], &[0.0]);
    }
}
