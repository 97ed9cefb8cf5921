//! Multivariate linear regression and input inversion.
//!
//! Section 4.3: "creating the benchmark involved learning the set of input
//! values that best approximates any set of metric values.  We used a
//! standard regression algorithm for this training task."
//!
//! [`LinearRegression`] fits `y ≈ X·w + b` by solving the normal equations
//! with Gaussian elimination (ridge-regularized for stability).
//! [`invert_inputs`] then answers the placement manager's question: *which
//! benchmark inputs reproduce this target metric vector?* — a bounded
//! least-squares search over the input space done by cyclic coordinate
//! descent, which is plenty for the low-dimensional benchmark knobs.

/// A fitted multi-output linear model `y = W·x + b`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LinearRegression {
    /// One weight row per output dimension; each row has one entry per input.
    pub weights: Vec<Vec<f64>>,
    /// One intercept per output dimension.
    pub intercepts: Vec<f64>,
    /// Number of input dimensions.
    pub input_dims: usize,
    /// Number of output dimensions.
    pub output_dims: usize,
}

impl LinearRegression {
    /// Fits the model on `inputs` (rows of x) and `outputs` (rows of y) with
    /// ridge regularization `lambda` (use a small value like `1e-6`).
    ///
    /// # Panics
    /// Panics on empty or ragged data, or when row counts differ.
    pub(crate) fn fit(inputs: &[Vec<f64>], outputs: &[Vec<f64>], lambda: f64) -> Self {
        assert!(
            !inputs.is_empty(),
            "regression requires at least one sample"
        );
        assert_eq!(
            inputs.len(),
            outputs.len(),
            "inputs/outputs row count mismatch"
        );
        let n = inputs.len();
        let p = inputs[0].len();
        let q = outputs[0].len();
        assert!(inputs.iter().all(|r| r.len() == p), "ragged input matrix");
        assert!(outputs.iter().all(|r| r.len() == q), "ragged output matrix");
        assert!(lambda >= 0.0, "ridge penalty must be non-negative");

        // Augment x with a constant 1 column for the intercept.
        let d = p + 1;
        // Build Xᵀ·X (d×d) and Xᵀ·Y (d×q).
        let mut xtx = vec![vec![0.0_f64; d]; d];
        let mut xty = vec![vec![0.0_f64; q]; d];
        for row in 0..n {
            let x = &inputs[row];
            let y = &outputs[row];
            let aug = |i: usize| if i < p { x[i] } else { 1.0 };
            for i in 0..d {
                let ai = aug(i);
                for (j, cell) in xtx[i].iter_mut().enumerate() {
                    *cell += ai * aug(j);
                }
                for (cell, &yv) in xty[i].iter_mut().zip(y) {
                    *cell += ai * yv;
                }
            }
        }
        for (i, row) in xtx.iter_mut().enumerate() {
            // Do not regularize the intercept term.
            if i < p {
                row[i] += lambda;
            }
        }

        let solution = solve_multi(&mut xtx, &mut xty);
        let mut weights = vec![vec![0.0; p]; q];
        let mut intercepts = vec![0.0; q];
        for k in 0..q {
            for i in 0..p {
                weights[k][i] = solution[i][k];
            }
            intercepts[k] = solution[p][k];
        }
        Self {
            weights,
            intercepts,
            input_dims: p,
            output_dims: q,
        }
    }

    /// Predicts the output vector for one input vector.
    pub(crate) fn predict(&self, input: &[f64]) -> Vec<f64> {
        assert_eq!(
            input.len(),
            self.input_dims,
            "dimension mismatch in predict"
        );
        self.weights
            .iter()
            .zip(&self.intercepts)
            .map(|(w, b)| w.iter().zip(input).map(|(wi, xi)| wi * xi).sum::<f64>() + b)
            .collect()
    }

    /// Mean squared prediction error over a dataset.
    pub(crate) fn mse(&self, inputs: &[Vec<f64>], outputs: &[Vec<f64>]) -> f64 {
        assert_eq!(inputs.len(), outputs.len());
        if inputs.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        let mut count = 0usize;
        for (x, y) in inputs.iter().zip(outputs) {
            let pred = self.predict(x);
            for (p, t) in pred.iter().zip(y) {
                total += (p - t) * (p - t);
                count += 1;
            }
        }
        total / count as f64
    }
}

/// Solves `A·X = B` for X (A is d×d, B is d×q) by Gaussian elimination with
/// partial pivoting.  Consumes its arguments as scratch space.
fn solve_multi(a: &mut [Vec<f64>], b: &mut [Vec<f64>]) -> Vec<Vec<f64>> {
    let d = a.len();
    let q = b[0].len();
    for col in 0..d {
        // Pivot.
        let pivot_row = (col..d)
            .max_by(|&i, &j| {
                a[i][col]
                    .abs()
                    .partial_cmp(&a[j][col].abs())
                    .expect("NaN pivot")
            })
            .expect("non-empty system");
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        let pivot = a[col][col];
        // A singular pivot means a redundant dimension; nudge it to keep the
        // solve well-defined (equivalent to extra ridge on that direction).
        let pivot = if pivot.abs() < 1e-12 { 1e-12 } else { pivot };
        let a_pivot_row = a[col].clone();
        let b_pivot_row = b[col].clone();
        for row in 0..d {
            if row == col {
                continue;
            }
            let factor = a[row][col] / pivot;
            if factor == 0.0 {
                continue;
            }
            for (dst, &v) in a[row][col..].iter_mut().zip(&a_pivot_row[col..]) {
                *dst -= factor * v;
            }
            for (dst, &v) in b[row].iter_mut().zip(&b_pivot_row) {
                *dst -= factor * v;
            }
        }
    }
    (0..d)
        .map(|i| {
            let pivot = if a[i][i].abs() < 1e-12 {
                1e-12
            } else {
                a[i][i]
            };
            (0..q).map(|k| b[i][k] / pivot).collect()
        })
        .collect()
}

/// Finds input values within `bounds` whose predicted outputs best match
/// `target` in the least-squares sense, by cyclic coordinate descent with
/// iteratively refined step sizes.
///
/// Returns the best input vector found and its squared error.
pub(crate) fn invert_inputs(
    model: &LinearRegression,
    target: &[f64],
    bounds: &[(f64, f64)],
    iterations: usize,
) -> (Vec<f64>, f64) {
    assert_eq!(target.len(), model.output_dims, "target dimension mismatch");
    assert_eq!(bounds.len(), model.input_dims, "bounds dimension mismatch");
    for (lo, hi) in bounds {
        assert!(lo <= hi, "invalid bound ({lo}, {hi})");
    }

    // Normalize each output dimension by the target's magnitude (with a
    // floor for near-zero targets) so that dimensions of very different
    // scales — e.g. stall cycles per kilo-instruction (~10³) next to I/O
    // stall seconds (~10⁻²) — contribute comparably to the residual.
    let max_abs = target.iter().fold(0.0_f64, |m, t| m.max(t.abs()));
    let floor = (1e-3 * max_abs).max(1e-9);
    // `predict` without its output vector: each dot product and residual
    // in the same order, so the error keeps its bits.
    let error = |x: &[f64]| -> f64 {
        model
            .weights
            .iter()
            .zip(&model.intercepts)
            .zip(target)
            .map(|((w, b), t)| {
                let p = w.iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>() + b;
                let r = (p - t) / t.abs().max(floor);
                r * r
            })
            .sum()
    };

    // Start from the middle of the box.
    let mut current: Vec<f64> = bounds.iter().map(|(lo, hi)| 0.5 * (lo + hi)).collect();
    let mut best_err = error(&current);

    for iter in 0..iterations.max(1) {
        // Step size shrinks geometrically: coarse sweep first, then refine.
        let scale = 0.5_f64.powi((iter as i32) / 2);
        let mut improved = false;
        for dim in 0..model.input_dims {
            let (lo, hi) = bounds[dim];
            let span = (hi - lo).max(1e-12);
            let step = span * 0.25 * scale;
            for candidate in [
                (current[dim] - step).clamp(lo, hi),
                (current[dim] + step).clamp(lo, hi),
                lo,
                hi,
            ] {
                // A probe that leaves the point where it is (every probe of
                // a pinned knob does) scores `best_err` again and cannot be
                // taken.  Others probe in place; a rejection restores the knob.
                if candidate.to_bits() == current[dim].to_bits() {
                    continue;
                }
                let kept = std::mem::replace(&mut current[dim], candidate);
                let e = error(&current);
                if e + 1e-15 < best_err {
                    best_err = e;
                    improved = true;
                } else {
                    current[dim] = kept;
                }
            }
        }
        if !improved && scale < 1e-4 {
            break;
        }
    }
    (current, best_err)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// y0 = 2a + 3b + 1, y1 = -a + 4b
    fn synthetic_data() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for a in 0..10 {
            for b in 0..10 {
                let (a, b) = (a as f64, b as f64 * 0.5);
                xs.push(vec![a, b]);
                ys.push(vec![2.0 * a + 3.0 * b + 1.0, -a + 4.0 * b]);
            }
        }
        (xs, ys)
    }

    #[test]
    fn recovers_linear_coefficients() {
        let (xs, ys) = synthetic_data();
        let model = LinearRegression::fit(&xs, &ys, 1e-9);
        assert!((model.weights[0][0] - 2.0).abs() < 1e-6);
        assert!((model.weights[0][1] - 3.0).abs() < 1e-6);
        assert!((model.intercepts[0] - 1.0).abs() < 1e-6);
        assert!((model.weights[1][0] + 1.0).abs() < 1e-6);
        assert!((model.weights[1][1] - 4.0).abs() < 1e-6);
        assert!(model.mse(&xs, &ys) < 1e-10);
    }

    #[test]
    fn predict_matches_hand_computation() {
        let (xs, ys) = synthetic_data();
        let model = LinearRegression::fit(&xs, &ys, 1e-9);
        let pred = model.predict(&[2.0, 1.0]);
        assert!((pred[0] - (4.0 + 3.0 + 1.0)).abs() < 1e-6);
        assert!((pred[1] - (-2.0 + 4.0)).abs() < 1e-6);
    }

    #[test]
    fn ridge_handles_degenerate_inputs() {
        // Second input column is a copy of the first (perfectly collinear).
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, i as f64]).collect();
        let ys: Vec<Vec<f64>> = (0..20).map(|i| vec![3.0 * i as f64]).collect();
        let model = LinearRegression::fit(&xs, &ys, 1e-3);
        let pred = model.predict(&[5.0, 5.0]);
        assert!((pred[0] - 15.0).abs() < 0.5, "prediction {}", pred[0]);
    }

    #[test]
    fn inversion_recovers_inputs_for_achievable_target() {
        let (xs, ys) = synthetic_data();
        let model = LinearRegression::fit(&xs, &ys, 1e-9);
        // Target generated by a=4, b=2.
        let target = vec![2.0 * 4.0 + 3.0 * 2.0 + 1.0, -4.0 + 4.0 * 2.0];
        let (inputs, err) = invert_inputs(&model, &target, &[(0.0, 9.0), (0.0, 4.5)], 60);
        assert!(err < 1e-3, "residual error {err}");
        let repro = model.predict(&inputs);
        assert!((repro[0] - target[0]).abs() < 0.1);
        assert!((repro[1] - target[1]).abs() < 0.1);
    }

    #[test]
    fn inversion_respects_bounds() {
        let (xs, ys) = synthetic_data();
        let model = LinearRegression::fit(&xs, &ys, 1e-9);
        // Unreachable target; the best answer must still lie inside the box.
        let target = vec![1_000.0, -1_000.0];
        let bounds = [(0.0, 9.0), (0.0, 4.5)];
        let (inputs, _) = invert_inputs(&model, &target, &bounds, 40);
        for (x, (lo, hi)) in inputs.iter().zip(&bounds) {
            assert!(x >= lo && x <= hi);
        }
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_training_set_is_rejected() {
        LinearRegression::fit(&[], &[], 0.0);
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn mismatched_rows_are_rejected() {
        LinearRegression::fit(&[vec![1.0]], &[], 0.0);
    }
}
