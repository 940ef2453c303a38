//! Layers: linear (fully connected), ReLU, fused softmax + cross-entropy.

use crate::tensor::Matrix;
use trimgrad_hadamard::prng::Xoshiro256StarStar;

/// A fully-connected layer `y = x·Wᵀ + b` with `W: (out × in)`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix, `(out × in)`.
    pub w: Matrix,
    /// Bias, length `out`.
    pub b: Vec<f32>,
}

impl Linear {
    /// He-initialized layer from a seeded generator.
    #[must_use]
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Xoshiro256StarStar) -> Self {
        // He/Kaiming uniform: U(−s, s) with s = sqrt(6 / in).
        let s = (6.0 / in_dim as f32).sqrt();
        let mut w = Matrix::zeros(out_dim, in_dim);
        for v in w.as_mut_slice() {
            *v = rng.next_f32_range(-s, s);
        }
        Self {
            w,
            b: vec![0.0; out_dim],
        }
    }

    /// Forward pass: `(batch × in) → (batch × out)`.
    #[must_use]
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul_t(&self.w);
        y.add_row_vec(&self.b);
        y
    }

    /// Parameter gradients. Given upstream `dy (batch × out)` and the cached
    /// input `x`, returns `(dw, db)`.
    #[must_use]
    pub fn param_grads(&self, x: &Matrix, dy: &Matrix) -> (Matrix, Vec<f32>) {
        let dw = dy.t_matmul(x); // (out × in)
        let db = dy.col_sums();
        (dw, db)
    }

    /// Gradient with respect to the input: `dx = dy·W`, `(batch × in)`.
    #[must_use]
    pub fn input_grad(&self, dy: &Matrix) -> Matrix {
        dy.matmul(&self.w)
    }

    /// Parameter count (weights + bias).
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }
}

/// ReLU forward (in place on a copy): returns activations. A select, not a
/// branch: about half of the inputs are negative, so a branch mispredicts.
#[must_use]
pub fn relu(x: &Matrix) -> Matrix {
    let mut y = x.clone();
    for v in y.as_mut_slice() {
        *v = if *v < 0.0 { 0.0 } else { *v };
    }
    y
}

/// ReLU backward: zeroes `dy` wherever the *pre-activation* input was ≤ 0
/// (branch-free, like [`relu`]).
#[must_use]
pub fn relu_backward(pre: &Matrix, dy: &Matrix) -> Matrix {
    let mut dx = dy.clone();
    for (d, &p) in dx.as_mut_slice().iter_mut().zip(pre.as_slice()) {
        *d = if p <= 0.0 { 0.0 } else { *d };
    }
    dx
}

/// Numerically-stable row-wise softmax.
#[must_use]
pub fn softmax(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

/// Fused softmax + mean cross-entropy. Returns `(loss, dlogits)` where
/// `dlogits = (softmax − onehot) / batch`.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()` or a label is out of range.
#[must_use]
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[usize]) -> (f32, Matrix) {
    assert_eq!(labels.len(), logits.rows(), "one label per row");
    let batch = logits.rows().max(1) as f32;
    let mut probs = softmax(logits);
    let mut loss = 0.0f64;
    for (r, &label) in labels.iter().enumerate() {
        assert!(label < logits.cols(), "label {label} out of range");
        let p = probs.get(r, label).max(1e-12);
        loss -= f64::from(p.ln());
        let v = probs.get(r, label) - 1.0;
        probs.set(r, label, v);
    }
    for v in probs.as_mut_slice() {
        *v /= batch;
    }
    ((loss / f64::from(batch)) as f32, probs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256StarStar {
        Xoshiro256StarStar::new(7)
    }

    #[test]
    fn linear_forward_known_values() {
        let mut l = Linear::new(2, 2, &mut rng());
        l.w = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        l.b = vec![0.5, -0.5];
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let y = l.forward(&x);
        assert_eq!(y.as_slice(), &[3.5, 6.5]); // [1+2+0.5, 3+4−0.5]
    }

    #[test]
    fn linear_param_count() {
        let l = Linear::new(5, 3, &mut rng());
        assert_eq!(l.param_count(), 18);
    }

    #[test]
    fn relu_and_its_gradient() {
        let x = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -0.5]);
        let y = relu(&x);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
        let dy = Matrix::from_vec(1, 4, vec![1.0, 1.0, 1.0, 1.0]);
        let dx = relu_backward(&x, &dy);
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_are_stable() {
        // Include huge logits to exercise the max-subtraction.
        let x = Matrix::from_vec(2, 3, vec![1000.0, 1001.0, 999.0, -5.0, 0.0, 5.0]);
        let p = softmax(&x);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(p.row(r).iter().all(|&v| v.is_finite() && v >= 0.0));
        }
        assert!(p.get(0, 1) > p.get(0, 0));
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let x = Matrix::from_vec(1, 3, vec![20.0, 0.0, 0.0]);
        let (loss, _) = softmax_cross_entropy(&x, &[0]);
        assert!(loss < 1e-3, "loss {loss}");
        let (loss_bad, _) = softmax_cross_entropy(&x, &[2]);
        assert!(loss_bad > 5.0, "loss {loss_bad}");
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let x = Matrix::from_vec(2, 3, vec![0.5, -0.2, 0.1, 1.0, 0.0, -1.0]);
        let labels = [2usize, 0];
        let (_, grad) = softmax_cross_entropy(&x, &labels);
        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..3 {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let (lp, _) = softmax_cross_entropy(&xp, &labels);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let (lm, _) = softmax_cross_entropy(&xm, &labels);
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - grad.get(r, c)).abs() < 1e-2,
                    "({r},{c}): fd {fd} vs analytic {}",
                    grad.get(r, c)
                );
            }
        }
    }

    #[test]
    fn linear_gradient_matches_finite_difference() {
        let mut l = Linear::new(3, 2, &mut rng());
        let x = Matrix::from_vec(2, 3, vec![0.1, -0.4, 0.3, 0.9, 0.2, -0.7]);
        let labels = [0usize, 1];
        let loss_of = |l: &Linear| {
            let y = l.forward(&x);
            softmax_cross_entropy(&y, &labels).0
        };
        let y = l.forward(&x);
        let (_, dy) = softmax_cross_entropy(&y, &labels);
        let (dw, db) = l.param_grads(&x, &dy);
        let eps = 1e-3f32;
        // Check a few weight entries.
        for (r, c) in [(0, 0), (1, 2), (0, 1)] {
            let orig = l.w.get(r, c);
            l.w.set(r, c, orig + eps);
            let lp = loss_of(&l);
            l.w.set(r, c, orig - eps);
            let lm = loss_of(&l);
            l.w.set(r, c, orig);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dw.get(r, c)).abs() < 1e-2,
                "w({r},{c}): fd {fd} vs {}",
                dw.get(r, c)
            );
        }
        // And one bias entry.
        let orig = l.b[1];
        l.b[1] = orig + eps;
        let lp = loss_of(&l);
        l.b[1] = orig - eps;
        let lm = loss_of(&l);
        l.b[1] = orig;
        let fd = (lp - lm) / (2.0 * eps);
        assert!((fd - db[1]).abs() < 1e-2, "b: fd {fd} vs {}", db[1]);
    }

    #[test]
    fn he_init_is_seeded_and_bounded() {
        let a = Linear::new(100, 10, &mut Xoshiro256StarStar::new(5));
        let b = Linear::new(100, 10, &mut Xoshiro256StarStar::new(5));
        assert_eq!(a.w.as_slice(), b.w.as_slice());
        let s = (6.0f32 / 100.0).sqrt();
        assert!(a.w.as_slice().iter().all(|&v| v.abs() <= s));
        assert!(a.b.iter().all(|&v| v == 0.0));
    }
}
