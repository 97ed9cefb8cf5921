//! Seeded k-means++ clustering.
//!
//! Used to initialize the expectation-maximization Gaussian-mixture fit in
//! [`crate::gmm`] (the standard recipe) and, on its own, as a cheap way of
//! grouping behaviours in tests.  Deterministic for a fixed seed so every
//! experiment in the repository is reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::euclidean;

/// A fitted k-means model.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct KMeans {
    /// Cluster centroids, one row per cluster.
    pub centroids: Vec<Vec<f64>>,
    /// Assignment of each training point to a centroid index.
    pub assignments: Vec<usize>,
    /// Sum of squared distances of points to their assigned centroids.
    pub inertia: f64,
}

impl KMeans {
    /// Fits `k` clusters to `points` with at most `max_iters` Lloyd iterations.
    ///
    /// `points` may be any row type that dereferences to a `[f64]` slice
    /// (`Vec<f64>` rows or borrowed `&[f64]` rows), so callers can cluster
    /// borrowed data without copying it first.  `k` is clamped to the number
    /// of points.  Returns a degenerate model (no centroids) for empty input.
    ///
    /// # Panics
    /// Panics if `points` is ragged (rows of differing dimension).
    pub(crate) fn fit<P: AsRef<[f64]>>(
        points: &[P],
        k: usize,
        max_iters: usize,
        seed: u64,
    ) -> Self {
        if points.is_empty() || k == 0 {
            return Self {
                centroids: Vec::new(),
                assignments: Vec::new(),
                inertia: 0.0,
            };
        }
        let dims = points[0].as_ref().len();
        assert!(
            points.iter().all(|p| p.as_ref().len() == dims),
            "ragged input to KMeans::fit"
        );
        let k = k.min(points.len());
        let mut rng = StdRng::seed_from_u64(seed);

        let mut centroids = plus_plus_init(points, k, &mut rng);
        let mut assignments = vec![0usize; points.len()];

        for _ in 0..max_iters.max(1) {
            // Assignment step.
            let mut changed = false;
            for (i, p) in points.iter().enumerate() {
                let best = nearest(p.as_ref(), &centroids).0;
                if assignments[i] != best {
                    assignments[i] = best;
                    changed = true;
                }
            }
            // Update step.
            let mut sums = vec![vec![0.0; dims]; k];
            let mut counts = vec![0usize; k];
            for (p, &a) in points.iter().zip(&assignments) {
                counts[a] += 1;
                for (s, &v) in sums[a].iter_mut().zip(p.as_ref()) {
                    *s += v;
                }
            }
            for c in 0..k {
                if counts[c] == 0 {
                    // Re-seed an empty cluster at a random point to keep k clusters alive.
                    centroids[c] = points[rng.gen_range(0..points.len())].as_ref().to_vec();
                } else {
                    for d in 0..dims {
                        centroids[c][d] = sums[c][d] / counts[c] as f64;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        let inertia = points
            .iter()
            .zip(&assignments)
            .map(|(p, &a)| {
                let d = euclidean(p.as_ref(), &centroids[a]);
                d * d
            })
            .sum();
        Self {
            centroids,
            assignments,
            inertia,
        }
    }
}

/// k-means++ initialization: the first centroid is uniform, each subsequent
/// centroid is drawn with probability proportional to its squared distance to
/// the nearest existing centroid.
fn plus_plus_init<P: AsRef<[f64]>>(points: &[P], k: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let mut centroids = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())].as_ref().to_vec());
    while centroids.len() < k {
        let d2: Vec<f64> = points
            .iter()
            .map(|p| {
                let d = nearest(p.as_ref(), &centroids).1;
                d * d
            })
            .collect();
        let total: f64 = d2.iter().sum();
        if total <= 0.0 {
            // All points coincide with existing centroids; duplicate one.
            centroids.push(points[rng.gen_range(0..points.len())].as_ref().to_vec());
            continue;
        }
        let mut target = rng.gen_range(0.0..total);
        let mut chosen = points.len() - 1;
        for (i, &w) in d2.iter().enumerate() {
            if target < w {
                chosen = i;
                break;
            }
            target -= w;
        }
        centroids.push(points[chosen].as_ref().to_vec());
    }
    centroids
}

/// Index and distance of the nearest centroid.
fn nearest(point: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (i, c) in centroids.iter().enumerate() {
        let d = euclidean(point, c);
        if d < best.1 {
            best = (i, d);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated blobs in 2-D.
    fn two_blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..20 {
            let jitter = (i % 5) as f64 * 0.01;
            pts.push(vec![0.0 + jitter, 0.0 - jitter]);
            pts.push(vec![10.0 - jitter, 10.0 + jitter]);
        }
        pts
    }

    #[test]
    fn separates_two_blobs() {
        let pts = two_blobs();
        let model = KMeans::fit(&pts, 2, 50, 42);
        assert_eq!(model.centroids.len(), 2);
        // Points near the origin (even indices) and points near (10, 10)
        // (odd indices) must not share a cluster.
        let (a, b) = (model.assignments[0], model.assignments[1]);
        assert_ne!(a, b);
        assert!(model.assignments.chunks(2).all(|pair| pair == [a, b]));
        assert!(
            model.inertia < 1.0,
            "inertia {} too large for tight blobs",
            model.inertia
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let pts = two_blobs();
        let m1 = KMeans::fit(&pts, 2, 50, 7);
        let m2 = KMeans::fit(&pts, 2, 50, 7);
        assert_eq!(m1.centroids, m2.centroids);
        assert_eq!(m1.assignments, m2.assignments);
    }

    #[test]
    fn k_is_clamped_to_point_count() {
        let pts = vec![vec![1.0], vec![2.0]];
        let model = KMeans::fit(&pts, 10, 10, 1);
        assert_eq!(model.centroids.len(), 2);
    }

    #[test]
    fn empty_input_gives_degenerate_model() {
        let model = KMeans::fit::<Vec<f64>>(&[], 3, 10, 1);
        assert!(model.centroids.is_empty());
        assert_eq!(model.inertia, 0.0);
    }

    #[test]
    fn identical_points_collapse_without_panicking() {
        let pts = vec![vec![5.0, 5.0]; 10];
        let model = KMeans::fit(&pts, 3, 10, 1);
        assert!(model.inertia < 1e-12);
        assert_eq!(model.assignments.len(), 10);
    }

    #[test]
    #[should_panic(expected = "ragged input")]
    fn ragged_input_is_rejected() {
        KMeans::fit(&[vec![1.0], vec![1.0, 2.0]], 2, 5, 1);
    }
}
