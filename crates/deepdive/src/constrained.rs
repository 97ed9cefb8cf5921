//! Constraint-aware clustering of VM behaviours.
//!
//! Section 4.1: "DeepDive enhances the clustering results by providing a set
//! of constraints along with the collected VM behaviors — when diagnosing a
//! VM's behavior with interference, the analyzer also prevents the algorithm
//! from assigning this behavior to an interference-free cluster."
//!
//! We implement the constraint in the simplest faithful way: points the
//! analyzer labelled as interference are excluded from the data the mixture
//! is fitted on, and after fitting, the per-metric thresholds are shrunk
//! until no labelled-interference point would be accepted by any normal
//! cluster.  The result is the pair (normal clusters, `MT`) the warning
//! system uses at run time.

use crate::gmm::GaussianMixture;
use crate::thresholds::MetricThresholds;

/// Minimum multiplicative step used when shrinking thresholds to honour
/// cannot-link constraints.
const SHRINK_STEP: f64 = 0.9;

/// Maximum shrink iterations before giving up (thresholds then stay at the
/// smallest value reached; remaining violations are reported).
const MAX_SHRINK_ITERS: usize = 60;

/// A behaviour observation together with the analyzer's verdict about it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LabelledBehaviour {
    /// Normalized metric vector.
    pub metrics: Vec<f64>,
    /// True when the interference analyzer confirmed this behaviour was
    /// caused by interference (cannot-link to normal clusters).
    pub interference: bool,
}

#[cfg(test)]
impl LabelledBehaviour {
    /// Convenience constructor for a normal (non-interference) behaviour.
    pub(crate) fn normal(metrics: Vec<f64>) -> Self {
        Self {
            metrics,
            interference: false,
        }
    }

    /// Convenience constructor for a confirmed-interference behaviour.
    pub(crate) fn interference(metrics: Vec<f64>) -> Self {
        Self {
            metrics,
            interference: true,
        }
    }
}

/// Result of the constrained clustering pass.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ConstrainedModel {
    /// Mixture fitted over the normal behaviours only.
    pub mixture: GaussianMixture,
    /// Thresholds shrunk until they exclude the labelled interference points.
    pub thresholds: MetricThresholds,
    /// Number of labelled interference points still (wrongly) accepted after
    /// shrinking; zero in the common case.
    pub residual_violations: usize,
}

/// Fits normal-behaviour clusters under cannot-link constraints.
///
/// * `behaviours` — all observations the analyzer has verified so far.
/// * `k` — number of mixture components to fit over the normal points.
/// * `sigma_multiplier` — starting σ-multiplier for the thresholds.
/// * `seed` — RNG seed for the underlying EM initialization.
///
/// The normal points are borrowed as slices straight out of `behaviours`;
/// nothing is copied before the fit.
pub(crate) fn fit_constrained(
    behaviours: &[LabelledBehaviour],
    k: usize,
    sigma_multiplier: f64,
    seed: u64,
) -> ConstrainedModel {
    let normal: Vec<&[f64]> = behaviours
        .iter()
        .filter(|b| !b.interference)
        .map(|b| b.metrics.as_slice())
        .collect();
    let mixture = GaussianMixture::fit(&normal, k, 100, seed);
    constrain(mixture, behaviours, sigma_multiplier)
}

/// Warm-started variant of [`fit_constrained`]: the mixture is re-fitted by
/// EM seeded from `previous`'s components (`GaussianMixture::fit_warm`)
/// instead of a fresh k-means++ initialization, converging in a handful of
/// iterations when `behaviours` grew incrementally since `previous` was
/// fitted.  Threshold derivation and the cannot-link shrink loop are
/// identical to the cold path.
///
/// Falls back to nothing-learned (an empty mixture that accepts no point)
/// when there are no normal behaviours; callers should use
/// [`fit_constrained`] when no previous mixture exists.
pub(crate) fn fit_constrained_warm(
    behaviours: &[LabelledBehaviour],
    previous: &GaussianMixture,
    sigma_multiplier: f64,
    max_iters: usize,
) -> ConstrainedModel {
    let normal: Vec<&[f64]> = behaviours
        .iter()
        .filter(|b| !b.interference)
        .map(|b| b.metrics.as_slice())
        .collect();
    let mixture = GaussianMixture::fit_warm(&normal, &previous.components, max_iters);
    constrain(mixture, behaviours, sigma_multiplier)
}

/// Shared constraint pass: derives thresholds from the fitted mixture and
/// shrinks them until no labelled-interference behaviour is accepted by any
/// normal cluster (or the iteration cap is reached).
fn constrain(
    mixture: GaussianMixture,
    behaviours: &[LabelledBehaviour],
    sigma_multiplier: f64,
) -> ConstrainedModel {
    let mut thresholds = MetricThresholds::from_mixture(&mixture, sigma_multiplier);

    let accepts = |t: &MetricThresholds| -> usize {
        behaviours
            .iter()
            .filter(|b| b.interference)
            .filter(|b| {
                mixture
                    .components
                    .iter()
                    .any(|c| t.matches(&c.mean, &b.metrics))
            })
            .count()
    };
    let mut violations = accepts(&thresholds);
    let mut iters = 0;
    while violations > 0 && iters < MAX_SHRINK_ITERS {
        thresholds = thresholds.scaled(SHRINK_STEP);
        violations = accepts(&thresholds);
        iters += 1;
    }

    ConstrainedModel {
        mixture,
        thresholds,
        residual_violations: violations,
    }
}

impl ConstrainedModel {
    /// True when `point` is accepted by some normal cluster under the learned
    /// thresholds — i.e. the warning system would classify it as normal.
    pub(crate) fn accepts(&self, point: &[f64]) -> bool {
        self.mixture
            .components
            .iter()
            .any(|c| self.thresholds.matches(&c.mean, point))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Normal behaviours around two operating points; interference far away
    /// in one dimension (the "memory" axis, say).
    fn dataset() -> Vec<LabelledBehaviour> {
        let mut all = Vec::new();
        for i in 0..30 {
            let j = (i % 6) as f64 * 0.02;
            all.push(LabelledBehaviour::normal(vec![1.0 + j, 2.0 - j, 0.2 + j]));
            all.push(LabelledBehaviour::normal(vec![
                3.0 - j,
                1.0 + j,
                0.3 - j * 0.5,
            ]));
        }
        for i in 0..10 {
            let j = (i % 5) as f64 * 0.05;
            all.push(LabelledBehaviour::interference(vec![
                1.0 + j,
                2.0 + j,
                5.0 + j,
            ]));
        }
        all
    }

    #[test]
    fn normal_points_are_accepted_and_interference_rejected() {
        let model = fit_constrained(&dataset(), 2, 3.0, 7);
        assert_eq!(model.residual_violations, 0);
        assert!(model.accepts(&[1.0, 2.0, 0.2]));
        assert!(model.accepts(&[3.0, 1.0, 0.3]));
        assert!(
            !model.accepts(&[1.0, 2.0, 5.0]),
            "interference behaviour must not match"
        );
    }

    #[test]
    fn constraints_shrink_thresholds_when_needed() {
        // Put interference close enough to a normal cluster that the default
        // 3σ thresholds would swallow it; the constraint must tighten them.
        let mut behaviours = dataset();
        // A borderline interference point near cluster 1 but offset in dim 2.
        behaviours.push(LabelledBehaviour::interference(vec![1.0, 2.0, 0.9]));
        let unconstrained = fit_constrained(
            &behaviours
                .iter()
                .filter(|b| !b.interference)
                .cloned()
                .collect::<Vec<_>>(),
            2,
            3.0,
            7,
        );
        let constrained = fit_constrained(&behaviours, 2, 3.0, 7);
        assert!(
            constrained.thresholds.per_metric[2] <= unconstrained.thresholds.per_metric[2],
            "constrained thresholds must be no looser"
        );
        assert!(!constrained.accepts(&[1.0, 2.0, 0.9]));
    }

    #[test]
    fn all_interference_input_still_produces_a_model() {
        let behaviours: Vec<LabelledBehaviour> = (0..5)
            .map(|i| LabelledBehaviour::interference(vec![i as f64, 1.0]))
            .collect();
        let model = fit_constrained(&behaviours, 2, 3.0, 1);
        // No normal data ⇒ empty mixture ⇒ nothing is ever accepted.
        assert_eq!(model.mixture.k(), 0);
        assert!(!model.accepts(&[0.0, 1.0]));
    }

    #[test]
    fn residual_violations_reported_when_unseparable() {
        // Interference points identical to normal points cannot be excluded.
        let mut behaviours: Vec<LabelledBehaviour> = (0..20)
            .map(|i| LabelledBehaviour::normal(vec![1.0 + (i % 3) as f64 * 0.01, 2.0]))
            .collect();
        behaviours.push(LabelledBehaviour::interference(vec![1.0, 2.0]));
        let model = fit_constrained(&behaviours, 1, 3.0, 1);
        assert!(model.residual_violations <= 1);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let m1 = fit_constrained(&dataset(), 2, 3.0, 99);
        let m2 = fit_constrained(&dataset(), 2, 3.0, 99);
        assert_eq!(m1.thresholds, m2.thresholds);
        assert_eq!(m1.mixture.components, m2.mixture.components);
    }

    #[test]
    fn warm_refit_matches_cold_decisions_on_grown_data() {
        let mut behaviours = dataset();
        let cold = fit_constrained(&behaviours, 2, 3.0, 7);
        // Grow the repository slightly, as incremental learning does.
        behaviours.push(LabelledBehaviour::normal(vec![1.01, 1.99, 0.21]));
        behaviours.push(LabelledBehaviour::normal(vec![2.98, 1.02, 0.29]));
        behaviours.push(LabelledBehaviour::interference(vec![1.0, 2.05, 5.1]));
        let warm = fit_constrained_warm(&behaviours, &cold.mixture, 3.0, 10);
        let refit = fit_constrained(&behaviours, 2, 3.0, 7);
        assert_eq!(warm.residual_violations, 0);
        for probe in [
            [1.0, 2.0, 0.2],
            [3.0, 1.0, 0.3],
            [1.0, 2.0, 5.0],
            [40.0, -7.0, 12.0],
        ] {
            assert_eq!(
                warm.accepts(&probe),
                refit.accepts(&probe),
                "warm and cold disagree on {probe:?}"
            );
        }
    }

    #[test]
    fn warm_refit_without_normals_accepts_nothing() {
        let cold = fit_constrained(&dataset(), 2, 3.0, 7);
        let only_interference: Vec<LabelledBehaviour> = (0..4)
            .map(|i| LabelledBehaviour::interference(vec![i as f64, 0.0, 0.0]))
            .collect();
        let warm = fit_constrained_warm(&only_interference, &cold.mixture, 3.0, 10);
        assert_eq!(warm.mixture.k(), 0);
        assert!(!warm.accepts(&[1.0, 2.0, 0.2]));
    }
}
