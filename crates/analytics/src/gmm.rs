//! Diagonal-covariance Gaussian-mixture model fitted by expectation-maximization.
//!
//! Section 4.1 of the paper: "We leverage the expectation-maximization
//! clustering algorithm to produce interference-free clusters in
//! N-dimensional space, where N is the number of low-level metrics that
//! DeepDive uses.  In producing the clusters, the algorithm also defines the
//! metric thresholds."  This module provides that algorithm; the threshold
//! derivation lives in [`crate::thresholds`] and the constraint handling in
//! [`crate::constrained`].

use crate::kmeans::KMeans;

/// Variance floor: keeps degenerate (single-point) clusters from producing
/// infinite densities and NaN responsibilities.
const VARIANCE_FLOOR: f64 = 1e-6;

/// One mixture component: a weight and an axis-aligned Gaussian.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Mixing weight (all weights sum to 1).
    pub weight: f64,
    /// Per-dimension mean.
    pub mean: Vec<f64>,
    /// Per-dimension variance (diagonal covariance).
    pub variance: Vec<f64>,
}

impl Component {
    /// Log probability density of `point` under this component (ignoring the
    /// mixing weight).
    pub fn log_density(&self, point: &[f64]) -> f64 {
        assert_eq!(
            point.len(),
            self.mean.len(),
            "dimension mismatch in log_density"
        );
        let mut acc = 0.0;
        for ((&p, &m), &v) in point.iter().zip(&self.mean).zip(&self.variance) {
            let var = v.max(VARIANCE_FLOOR);
            let diff = p - m;
            acc += -0.5 * ((2.0 * std::f64::consts::PI * var).ln() + diff * diff / var);
        }
        acc
    }
}

/// A fitted Gaussian-mixture model.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianMixture {
    /// The mixture components.
    pub components: Vec<Component>,
    /// Final per-point log-likelihood of the training data.
    pub log_likelihood: f64,
    /// Number of EM iterations actually performed.
    pub iterations: usize,
}

impl GaussianMixture {
    /// Fits `k` components to `points` with at most `max_iters` EM iterations.
    ///
    /// Initialization comes from a seeded k-means++ run, so the fit is
    /// deterministic for a fixed `seed`.  `points` may be any row type that
    /// dereferences to a `[f64]` slice (owned `Vec<f64>` rows or borrowed
    /// `&[f64]` rows), so callers can fit borrowed data without copying it.
    /// `k` is clamped to the number of points; empty input yields a model
    /// with no components.
    pub fn fit<P: AsRef<[f64]>>(points: &[P], k: usize, max_iters: usize, seed: u64) -> Self {
        if points.is_empty() || k == 0 {
            return Self {
                components: Vec::new(),
                log_likelihood: 0.0,
                iterations: 0,
            };
        }
        let dims = points[0].as_ref().len();
        assert!(
            points.iter().all(|p| p.as_ref().len() == dims),
            "ragged input to GaussianMixture::fit"
        );
        let k = k.min(points.len());

        // Initialize means from k-means, variances from within-cluster spread.
        let km = KMeans::fit(points, k, 25, seed);
        let mut components: Vec<Component> = (0..k)
            .map(|c| {
                let members: Vec<&[f64]> = points
                    .iter()
                    .zip(&km.assignments)
                    .filter(|(_, &a)| a == c)
                    .map(|(p, _)| p.as_ref())
                    .collect();
                let weight = members.len().max(1) as f64 / points.len() as f64;
                let mean = km.centroids[c].clone();
                let mut variance = vec![VARIANCE_FLOOR; dims];
                if members.len() > 1 {
                    for d in 0..dims {
                        let var = members
                            .iter()
                            .map(|p| (p[d] - mean[d]) * (p[d] - mean[d]))
                            .sum::<f64>()
                            / members.len() as f64;
                        variance[d] = var.max(VARIANCE_FLOOR);
                    }
                }
                Component {
                    weight,
                    mean,
                    variance,
                }
            })
            .collect();
        normalize_weights(&mut components);

        let (components, log_likelihood, iterations) = run_em(points, components, max_iters);
        Self {
            components,
            log_likelihood,
            iterations,
        }
    }

    /// Re-fits a mixture by EM seeded from a previous fit's components
    /// instead of a fresh k-means++ initialization.
    ///
    /// This is the incremental-refresh entry point: when `points` is the
    /// previous training set plus a few new observations, the previous
    /// components are already close to a local optimum, so EM converges in a
    /// handful of iterations (pass a small `max_iters` such as 10) instead of
    /// the ~100 a cold fit budgets.  The component count is inherited from
    /// `prev_components` (clamped to the number of points).
    ///
    /// Empty `points` or `prev_components` yields a model with no components
    /// — callers fall back to [`Self::fit`] in that case.
    ///
    /// # Panics
    /// Panics if `points` is ragged or its dimensionality differs from the
    /// warm-start components'.
    pub fn fit_warm<P: AsRef<[f64]>>(
        points: &[P],
        prev_components: &[Component],
        max_iters: usize,
    ) -> Self {
        if points.is_empty() || prev_components.is_empty() {
            return Self {
                components: Vec::new(),
                log_likelihood: 0.0,
                iterations: 0,
            };
        }
        let dims = points[0].as_ref().len();
        assert!(
            points.iter().all(|p| p.as_ref().len() == dims),
            "ragged input to GaussianMixture::fit_warm"
        );
        assert!(
            prev_components.iter().all(|c| c.mean.len() == dims),
            "warm-start components do not match the data dimensionality"
        );
        let k = prev_components.len().min(points.len());
        let mut components = prev_components[..k].to_vec();
        normalize_weights(&mut components);

        let (components, log_likelihood, iterations) = run_em(points, components, max_iters);
        Self {
            components,
            log_likelihood,
            iterations,
        }
    }

    /// Index of the most likely component for `point` and its posterior
    /// probability.
    pub fn predict(&self, point: &[f64]) -> (usize, f64) {
        assert!(!self.components.is_empty(), "predict on an empty mixture");
        let logs: Vec<f64> = self
            .components
            .iter()
            .map(|c| c.weight.max(1e-300).ln() + c.log_density(point))
            .collect();
        let max = logs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let sum: f64 = logs.iter().map(|l| (l - max).exp()).sum();
        let (best, best_log) = logs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN log density"))
            .map(|(i, l)| (i, *l))
            .expect("non-empty mixture");
        (best, (best_log - max).exp() / sum)
    }

    /// Number of mixture components.
    pub fn k(&self) -> usize {
        self.components.len()
    }
}

/// The EM loop shared by [`GaussianMixture::fit`] and
/// [`GaussianMixture::fit_warm`]: refines `components` on `points` until the
/// per-point log-likelihood stabilizes or `max_iters` is exhausted.
///
/// The responsibility matrix and per-point log buffers are allocated once
/// per call (not per iteration), so iteration cost is pure arithmetic.
fn run_em<P: AsRef<[f64]>>(
    points: &[P],
    mut components: Vec<Component>,
    max_iters: usize,
) -> (Vec<Component>, f64, usize) {
    let k = components.len();
    let n = points.len();
    let dims = points[0].as_ref().len();
    let mut resp = vec![0.0_f64; n * k];
    let mut logs = vec![0.0_f64; k];

    let mut log_likelihood = f64::NEG_INFINITY;
    let mut iterations = 0;
    for iter in 0..max_iters.max(1) {
        iterations = iter + 1;
        // E-step: responsibilities.
        let mut new_ll = 0.0;
        for (i, p) in points.iter().enumerate() {
            let p = p.as_ref();
            for (l, c) in logs.iter_mut().zip(&components) {
                *l = c.weight.max(1e-300).ln() + c.log_density(p);
            }
            let max = logs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let sum: f64 = logs.iter().map(|l| (l - max).exp()).sum();
            new_ll += max + sum.ln();
            for (r, l) in resp[i * k..(i + 1) * k].iter_mut().zip(&logs) {
                *r = (l - max).exp() / sum;
            }
        }
        new_ll /= n as f64;

        // M-step.
        for c in 0..k {
            let nk: f64 = (0..n).map(|i| resp[i * k + c]).sum();
            if nk < 1e-12 {
                continue;
            }
            components[c].weight = nk / n as f64;
            for d in 0..dims {
                let mean = points
                    .iter()
                    .enumerate()
                    .map(|(i, p)| resp[i * k + c] * p.as_ref()[d])
                    .sum::<f64>()
                    / nk;
                components[c].mean[d] = mean;
            }
            for d in 0..dims {
                let var = points
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        let diff = p.as_ref()[d] - components[c].mean[d];
                        resp[i * k + c] * diff * diff
                    })
                    .sum::<f64>()
                    / nk;
                components[c].variance[d] = var.max(VARIANCE_FLOOR);
            }
        }
        normalize_weights(&mut components);

        if (new_ll - log_likelihood).abs() < 1e-8 {
            log_likelihood = new_ll;
            break;
        }
        log_likelihood = new_ll;
    }
    (components, log_likelihood, iterations)
}

fn normalize_weights(components: &mut [Component]) {
    let total: f64 = components.iter().map(|c| c.weight).sum();
    if total > 0.0 {
        for c in components.iter_mut() {
            c.weight /= total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..30 {
            let j = (i % 7) as f64 * 0.05;
            pts.push(vec![1.0 + j, 2.0 - j, 0.5 + j * 0.5]);
            pts.push(vec![8.0 - j, 9.0 + j, 4.0 - j * 0.5]);
        }
        pts
    }

    #[test]
    fn fits_two_separated_components() {
        let model = GaussianMixture::fit(&blobs(), 2, 100, 3);
        assert_eq!(model.k(), 2);
        let (a, pa) = model.predict(&[1.0, 2.0, 0.5]);
        let (b, pb) = model.predict(&[8.0, 9.0, 4.0]);
        assert_ne!(a, b);
        assert!(pa > 0.99 && pb > 0.99);
        // Weights should be roughly balanced for balanced blobs.
        for c in &model.components {
            assert!((c.weight - 0.5).abs() < 0.1, "weight {}", c.weight);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let m1 = GaussianMixture::fit(&blobs(), 2, 100, 11);
        let m2 = GaussianMixture::fit(&blobs(), 2, 100, 11);
        assert_eq!(m1.components, m2.components);
    }

    #[test]
    fn log_likelihood_improves_with_more_components_on_multimodal_data() {
        let one = GaussianMixture::fit(&blobs(), 1, 100, 5);
        let two = GaussianMixture::fit(&blobs(), 2, 100, 5);
        assert!(two.log_likelihood > one.log_likelihood);
    }

    #[test]
    fn empty_input_yields_empty_model() {
        let model = GaussianMixture::fit::<Vec<f64>>(&[], 3, 10, 1);
        assert_eq!(model.k(), 0);
    }

    #[test]
    fn fit_accepts_borrowed_rows() {
        let owned = blobs();
        let borrowed: Vec<&[f64]> = owned.iter().map(|p| p.as_slice()).collect();
        let from_owned = GaussianMixture::fit(&owned, 2, 100, 11);
        let from_borrowed = GaussianMixture::fit(&borrowed, 2, 100, 11);
        assert_eq!(from_owned.components, from_borrowed.components);
    }

    #[test]
    fn warm_start_converges_in_few_iterations() {
        let mut pts = blobs();
        let cold = GaussianMixture::fit(&pts, 2, 100, 3);
        // Grow the data slightly, as the repository does between refreshes.
        pts.push(vec![1.02, 2.01, 0.52]);
        pts.push(vec![7.99, 9.02, 3.98]);
        let warm = GaussianMixture::fit_warm(&pts, &cold.components, 10);
        assert_eq!(warm.k(), 2);
        assert!(
            warm.iterations <= 10,
            "warm start took {} iterations",
            warm.iterations
        );
        // Same clustering decisions as a cold refit on the grown data.
        let refit = GaussianMixture::fit(&pts, 2, 100, 3);
        let (wa, _) = warm.predict(&[1.0, 2.0, 0.5]);
        let (wb, _) = warm.predict(&[8.0, 9.0, 4.0]);
        let (ca, _) = refit.predict(&[1.0, 2.0, 0.5]);
        let (cb, _) = refit.predict(&[8.0, 9.0, 4.0]);
        assert_ne!(wa, wb);
        assert_ne!(ca, cb);
        for (w, c) in warm.components.iter().zip(&refit.components) {
            for (wm, cm) in w.mean.iter().zip(&c.mean) {
                assert!((wm - cm).abs() < 0.2, "warm mean {wm} vs cold {cm}");
            }
        }
    }

    #[test]
    fn warm_start_with_empty_inputs_degenerates_gracefully() {
        let cold = GaussianMixture::fit(&blobs(), 2, 100, 3);
        assert_eq!(
            GaussianMixture::fit_warm::<Vec<f64>>(&[], &cold.components, 10).k(),
            0
        );
        assert_eq!(GaussianMixture::fit_warm(&blobs(), &[], 10).k(), 0);
    }

    #[test]
    fn warm_start_clamps_components_to_point_count() {
        let cold = GaussianMixture::fit(&blobs(), 3, 100, 3);
        let tiny = [vec![1.0, 2.0, 0.5], vec![1.1, 2.1, 0.6]];
        let warm = GaussianMixture::fit_warm(&tiny, &cold.components, 10);
        assert_eq!(warm.k(), 2);
    }

    #[test]
    fn weights_sum_to_one() {
        let model = GaussianMixture::fit(&blobs(), 3, 50, 9);
        let total: f64 = model.components.iter().map(|c| c.weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn variances_respect_floor() {
        let identical = vec![vec![2.0, 2.0]; 20];
        let model = GaussianMixture::fit(&identical, 2, 50, 1);
        for c in &model.components {
            for v in &c.variance {
                assert!(*v >= VARIANCE_FLOOR);
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty mixture")]
    fn predict_on_empty_model_panics() {
        let model = GaussianMixture::fit::<Vec<f64>>(&[], 2, 10, 1);
        model.predict(&[1.0]);
    }
}
