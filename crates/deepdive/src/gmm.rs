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
pub(crate) struct Component {
    /// Mixing weight (all weights sum to 1).
    pub weight: f64,
    /// Per-dimension mean.
    pub mean: Vec<f64>,
    /// Per-dimension variance (diagonal covariance).
    pub variance: Vec<f64>,
}

/// A fitted Gaussian-mixture model.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GaussianMixture {
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
    pub(crate) fn fit<P: AsRef<[f64]>>(
        points: &[P],
        k: usize,
        max_iters: usize,
        seed: u64,
    ) -> Self {
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
    pub(crate) fn fit_warm<P: AsRef<[f64]>>(
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

    /// Number of mixture components.
    pub(crate) fn k(&self) -> usize {
        self.components.len()
    }
}

/// The EM loop shared by [`GaussianMixture::fit`] and
/// [`GaussianMixture::fit_warm`]: refines `components` on `points` until the
/// per-point log-likelihood stabilizes or `max_iters` is exhausted.
///
/// Each component's log-density of a point is
/// `Σ_d −0.5·(ln(2π·var_d) + (p_d − m_d)²/var_d)`, on variances floored
/// at [`VARIANCE_FLOOR`], plus `ln(max(weight, 1e-300))`.  Only the
/// squared distance depends on the point, so the logarithms are taken once
/// per component and iteration, not once per point.  The points are copied
/// once into a contiguous row-major `n × dims` buffer, and the E-step
/// computes each `exp(l − max)` once.
///
/// The result is a pure function of the inputs' bits: every sum adds its
/// terms in point (or component) order starting from `-0.0`, as
/// `Iterator::sum` does, and no expression is reassociated or fused, so the
/// fitted model is bit-identical to evaluating the density formula afresh
/// for every point (`em_fits_match_bits_recorded_at_the_parent` pins this).
fn run_em<P: AsRef<[f64]>>(
    points: &[P],
    mut components: Vec<Component>,
    max_iters: usize,
) -> (Vec<Component>, f64, usize) {
    let k = components.len();
    let n = points.len();
    let dims = points[0].as_ref().len();
    let data: Vec<f64> = points.iter().flat_map(|p| p.as_ref()).copied().collect();
    let mut resp = vec![0.0_f64; n * k];
    // Per component: ln(max(weight, 1e-300)); per component and dimension:
    // the floored variance and ln(2π·var).
    let mut log_weight = vec![0.0_f64; k];
    let mut var = vec![0.0_f64; k * dims];
    let mut log_norm = vec![0.0_f64; k * dims];
    let mut sums = vec![0.0_f64; dims];

    let mut log_likelihood = f64::NEG_INFINITY;
    let mut iterations = 0;
    for iter in 0..max_iters.max(1) {
        iterations = iter + 1;
        for (c, comp) in components.iter().enumerate() {
            log_weight[c] = comp.weight.max(1e-300).ln();
            let span = c * dims..(c + 1) * dims;
            for ((v, ln), &raw) in var[span.clone()]
                .iter_mut()
                .zip(&mut log_norm[span])
                .zip(&comp.variance)
            {
                *v = raw.max(VARIANCE_FLOOR);
                *ln = (2.0 * std::f64::consts::PI * *v).ln();
            }
        }

        // E-step: responsibilities.
        let mut new_ll = 0.0;
        for (i, row) in resp.chunks_exact_mut(k).enumerate() {
            let p = &data[i * dims..(i + 1) * dims];
            let mut max = f64::NEG_INFINITY;
            for (c, (l, comp)) in row.iter_mut().zip(&components).enumerate() {
                let span = c * dims..(c + 1) * dims;
                let mut acc = 0.0;
                for (((&x, &m), &v), &ln) in p
                    .iter()
                    .zip(&comp.mean)
                    .zip(&var[span.clone()])
                    .zip(&log_norm[span])
                {
                    let diff = x - m;
                    acc += -0.5 * (ln + diff * diff / v);
                }
                *l = log_weight[c] + acc;
                max = f64::max(max, *l);
            }
            let mut sum = -0.0;
            for r in row.iter_mut() {
                *r = (*r - max).exp();
                sum += *r;
            }
            new_ll += max + sum.ln();
            for r in row.iter_mut() {
                *r /= sum;
            }
        }
        new_ll /= n as f64;

        // M-step: per component, one pass for the weight and means, one for
        // the variances.
        for (c, comp) in components.iter_mut().enumerate() {
            let mut nk = -0.0;
            sums.fill(-0.0);
            for (i, row) in resp.chunks_exact(k).enumerate() {
                let p = &data[i * dims..(i + 1) * dims];
                let r = row[c];
                nk += r;
                for (s, &x) in sums.iter_mut().zip(p) {
                    *s += r * x;
                }
            }
            if nk < 1e-12 {
                continue;
            }
            comp.weight = nk / n as f64;
            for (m, &s) in comp.mean.iter_mut().zip(&sums) {
                *m = s / nk;
            }
            sums.fill(-0.0);
            for (i, row) in resp.chunks_exact(k).enumerate() {
                let p = &data[i * dims..(i + 1) * dims];
                let r = row[c];
                for ((s, &x), &m) in sums.iter_mut().zip(p).zip(&comp.mean) {
                    let diff = x - m;
                    *s += r * diff * diff;
                }
            }
            for (v, &s) in comp.variance.iter_mut().zip(&sums) {
                *v = (s / nk).max(VARIANCE_FLOOR);
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

    /// Asserts that `model` puts one component on each of [`blobs`]'s two
    /// clusters, each holding about half the weight.
    fn assert_one_component_per_blob(model: &GaussianMixture) {
        assert_eq!(model.k(), 2);
        let mut components: Vec<&Component> = model.components.iter().collect();
        components.sort_by(|a, b| a.mean[0].total_cmp(&b.mean[0]));
        for (c, centre) in components.iter().zip([[1.0, 2.0, 0.5], [8.0, 9.0, 4.0]]) {
            for (m, x) in c.mean.iter().zip(centre) {
                assert!((m - x).abs() < 0.2, "mean {m} vs blob centre {x}");
            }
            assert!((c.weight - 0.5).abs() < 0.1, "weight {}", c.weight);
        }
    }

    #[test]
    fn fits_two_separated_components() {
        let model = GaussianMixture::fit(&blobs(), 2, 100, 3);
        assert_one_component_per_blob(&model);
        // Each component is as tight as its blob.
        for v in model.components.iter().flat_map(|c| &c.variance) {
            assert!(*v < 0.05, "variance {v}");
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
        // The same clusters as a cold refit on the grown data.
        let refit = GaussianMixture::fit(&pts, 2, 100, 3);
        assert_one_component_per_blob(&warm);
        assert_one_component_per_blob(&refit);
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

    /// A deterministic value in `[0, 1)` for `state` (SplitMix64 finalizer).
    fn unit(state: u64) -> f64 {
        let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as f64 / 2f64.powi(64)
    }

    /// `n` ten-dimensional points around three centres.  Point `i` depends
    /// only on `(salt, i)`, so a longer set extends a shorter one.  The last
    /// dimension is the same for every point: its variance sits on
    /// [`VARIANCE_FLOOR`].
    fn ten_dim(n: usize, salt: u64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let centre = (i % 3) as f64 * 0.25;
                (0..10)
                    .map(|d| match d {
                        9 => 0.25,
                        _ => centre + d as f64 * 0.1 + unit((salt << 32) | (i * 10 + d) as u64),
                    })
                    .collect()
            })
            .collect()
    }

    /// `log_likelihood`, then every component's weight, means and
    /// variances, as IEEE bit patterns.
    fn bits(model: &GaussianMixture) -> Vec<u64> {
        let mut out = vec![model.log_likelihood.to_bits()];
        for c in &model.components {
            out.push(c.weight.to_bits());
            out.extend(c.mean.iter().chain(&c.variance).map(|v| v.to_bits()));
        }
        out
    }

    #[test]
    fn em_fits_match_bits_recorded_at_the_parent() {
        // A cold fit on 8 points, a cold fit on 200, and a warm refit on 512
        // (the repository's capacity) that extends the 200 and adds a
        // far-away component whose responsibilities all underflow to zero.
        let small = GaussianMixture::fit(&ten_dim(8, 1), 2, 100, 3);
        let medium = GaussianMixture::fit(&ten_dim(200, 2), 3, 100, 7);
        let mut warm_start = medium.components.clone();
        warm_start.push(Component {
            weight: 0.1,
            mean: vec![1.0e3; 10],
            variance: vec![1.0; 10],
        });
        let full = GaussianMixture::fit_warm(&ten_dim(512, 2), &warm_start, 10);
        assert_eq!(
            full.components[3].mean, warm_start[3].mean,
            "the far-away component collapses and keeps its mean"
        );
        // Recorded from the kernel that evaluated `ln(2π·var)` and
        // `ln(weight)` afresh for every point; `run_em` must reproduce
        // every bit.
        #[rustfmt::skip]
        const SMALL: [u64; 43] = [
            0x4016c62da0bc0474, 0x3fd7ffb0c733db65, 0x3fe6aa2332cd65b2, 0x3fd259356146133a,
            0x3fe68f8c46b76f6a, 0x3fef22a6fccf663c, 0x3fefc438c0348972, 0x3fee97af89b543b2,
            0x3ff1040f006b772b, 0x3ff5022bb2333597, 0x3ff2f3ea39cd9379, 0x3fd0000000000000,
            0x3f815b5155ac7f49, 0x3f920406345f2e6d, 0x3f93db537e5c26e0, 0x3fa5ac9a34093b31,
            0x3fad04698a2d834b, 0x3fa690c2330983e0, 0x3fbbd2f269e9f286, 0x3fbeb0a316059a09,
            0x3f80df2fb50f4145, 0x3eb0c6f7a0b5ed8d, 0x3fe400279c66124e, 0x3fea2e2b42556a9b,
            0x3fedd60944f88aa5, 0x3ff2f31b7c127351, 0x3ff12a41f17cd636, 0x3ff2eb8dc746a9f9,
            0x3ff2a61e81dfa99d, 0x3ff6fd578a38b8b1, 0x3ff87aaa66464743, 0x3ffb1b63599ca237,
            0x3fd0000000000000, 0x3fc45de444c7ce5f, 0x3fc782dc144e19ca, 0x3fafb872239b2984,
            0x3fad88ba98892bd2, 0x3fba7c3329a8e80e, 0x3fa3c5e051ddda87, 0x3fb3092ca644d466,
            0x3fb2e627adfc42f6, 0x3f9e7d61dbfd2272, 0x3eb0c6f7a0b5ed8d,
        ];
        #[rustfmt::skip]
        const MEDIUM: [u64; 64] = [
            0x400cffca904c1fbc, 0x3fd40264ff93ac81, 0x3ff1460731dd946a, 0x3ff109a8adaeed19,
            0x3ff4e338ee82ffb1, 0x3ff42e624c557022, 0x3ff71019b3738982, 0x3ff851a7b24d8281,
            0x3ff9c136e19b2e44, 0x3ffa7aca00e1ebdb, 0x3ffcfa715fc8d2e9, 0x3fd0000000000000,
            0x3fb4024ed26441a9, 0x3fb87266ebf4d921, 0x3fad2b45ca895bae, 0x3fbc6b578df1d8bd,
            0x3fb3584e7ab6fcf3, 0x3fb694a07ec0bb1e, 0x3fb9e4c25d06131b, 0x3fb9d72bd99dcf0a,
            0x3faefef1fc809bd4, 0x3eb0c6f7a0b5ed8d, 0x3fdec1f9e3957024, 0x3fe257abeb137fd8,
            0x3fe44b2444b6be20, 0x3fe8706e8977114a, 0x3febfce2f614a6b8, 0x3fefd5bd31adb640,
            0x3ff05faab52caf42, 0x3ff2681ae84190e3, 0x3ff35e98bd43c994, 0x3ff57a25bfe5017f,
            0x3fd0000000000000, 0x3fb5d3e58672ff67, 0x3fb6a22b44545ccc, 0x3fb9bfee67d64f42,
            0x3fb8dc0c336ab69d, 0x3fb56e084f3c7636, 0x3fb535a07917b5bc, 0x3fb26195c0d18a68,
            0x3fb8458b5064b964, 0x3fb48f426c51216e, 0x3eb0c6f7a0b5ed8d, 0x3fca774239adc6b6,
            0x3fe6e16c801dbb5f, 0x3fef087ffc7853e6, 0x3fe91e74d7884926, 0x3ff15f6accae5b06,
            0x3ff2b4e7e25cdb25, 0x3ff53c998f346ac8, 0x3ff73d94356e8391, 0x3ff928b467159ed4,
            0x3ffb38d56194b228, 0x3fd0000000000000, 0x3fac3ed6e8c893ab, 0x3fb1037bb3ab386e,
            0x3fa454e3aa560e23, 0x3fb2a50d6261c8a6, 0x3fb09b79526a900c, 0x3fb6853c10126a8b,
            0x3fb59f022479d864, 0x3fb466e92ae09b98, 0x3fb7d0b489f6e882, 0x3eb0c6f7a0b5ed8d,
        ];
        #[rustfmt::skip]
        const FULL: [u64; 85] = [
            0x400cfcf7d5683395, 0x3fd357b45b898420, 0x3ff0f8260049a6ee, 0x3ff15a721c3f3bb3,
            0x3ff3943a46232bed, 0x3ff4e41ea7234a9c, 0x3ff6f9324816db5a, 0x3ff7d89f431ce706,
            0x3ff97934668b5742, 0x3ffb2bdde27bbc89, 0x3ffc866ef52e1ee7, 0x3fd0000000000000,
            0x3fb2fd0d4357923c, 0x3fb4c61dfd425a0e, 0x3fb3cf440d1a4948, 0x3fb6e70adfb3ce6d,
            0x3fb3f67c47eead6d, 0x3fb659c01352e300, 0x3fb782e74ba9e2f4, 0x3fb4b51ac31714ef,
            0x3fb4fc67b32ff52e, 0x3eb0c6f7a0b5ed8d, 0x3fd9bd10b57b735e, 0x3fe2b82c2fc8986a,
            0x3fe40432cbd78f96, 0x3fe8271cc6754723, 0x3feb6ff51cdd31b0, 0x3fef02226418d77b,
            0x3ff04977d33e42f2, 0x3ff2849cbcb4bdfa, 0x3ff3691741e40ed6, 0x3ff57e515970e01d,
            0x3fd0000000000000, 0x3fb487adb4638105, 0x3fb4797e9caff08d, 0x3fb5f15f92099a9a,
            0x3fb64ead4e08e597, 0x3fb741e37a2f7421, 0x3fb6b7d063bc19a1, 0x3fb403bcb44ccced,
            0x3fb9fca8426d6545, 0x3fb6a568d2b49ec1, 0x3eb0c6f7a0b5ed8d, 0x3fcfbe1457ddaf78,
            0x3fe763bb05304b20, 0x3fed4a13b1a86031, 0x3fee7ab0df7980a3, 0x3ff17e24a6229a82,
            0x3ff2735b83fbe078, 0x3ff493a7e347153c, 0x3ff69c49e7b7bad0, 0x3ff7fa4fd854d275,
            0x3ff93c7a80e18707, 0x3fd0000000000000, 0x3fb217c412e2686f, 0x3fb2c46415d5650d,
            0x3fb5c751166424b6, 0x3fb3a34e644e6ab4, 0x3fb3e5e8797bccc2, 0x3fb2990ceed330c4,
            0x3fb3ee5b23d81194, 0x3fb35ae16cb24b4c, 0x3fb741991ffc87a4, 0x3eb0c6f7a0b5ed8d,
            0x3fa8618618618620, 0x408f400000000000, 0x408f400000000000, 0x408f400000000000,
            0x408f400000000000, 0x408f400000000000, 0x408f400000000000, 0x408f400000000000,
            0x408f400000000000, 0x408f400000000000, 0x408f400000000000, 0x3ff0000000000000,
            0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000,
            0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000,
            0x3ff0000000000000,
        ];
        assert_eq!(
            [small.iterations, medium.iterations, full.iterations],
            [9, 61, 10]
        );
        assert_eq!(bits(&small), SMALL);
        assert_eq!(bits(&medium), MEDIUM);
        assert_eq!(bits(&full), FULL);
    }
}
