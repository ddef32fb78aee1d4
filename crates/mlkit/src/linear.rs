//! Logistic regression: the simplest learned-policy baseline.
//!
//! Several prior systems regulate overhead by "employing simple models"
//! (§1 of the paper); logistic regression is the representative of that
//! class here, and it doubles as the cheap fallback the `REPLACE` action
//! can install when an MLP misbehaves.

use crate::optim::Optimizer;

/// A binary logistic-regression classifier trained by gradient descent.
///
/// # Examples
///
/// ```
/// use mlkit::{LogisticRegression, Sgd};
///
/// let mut model = LogisticRegression::new(1);
/// let mut opt = Sgd::new(0.5);
/// // Learn "x > 0.5".
/// for _ in 0..500 {
///     for (x, y) in [(0.1, 0.0), (0.3, 0.0), (0.7, 1.0), (0.9, 1.0)] {
///         model.train_one(&[x], y, &mut opt);
///     }
/// }
/// assert!(model.predict_proba(&[0.9]) > 0.7);
/// assert!(model.predict_proba(&[0.1]) < 0.3);
/// ```
#[derive(Clone, Debug)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
}

impl LogisticRegression {
    /// Creates a zero-initialized model over `features` inputs.
    pub fn new(features: usize) -> Self {
        LogisticRegression {
            weights: vec![0.0; features],
            bias: 0.0,
        }
    }

    /// Returns `P(label = 1 | x)`.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong number of features.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.weights.len(), "feature count mismatch");
        let z: f64 = self.bias + self.weights.iter().zip(x).map(|(w, v)| w * v).sum::<f64>();
        1.0 / (1.0 + (-z).exp())
    }

    /// Returns the hard 0/1 prediction at threshold 0.5.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.predict_proba(x) >= 0.5
    }

    /// One SGD step on a single example (`target` in `{0, 1}`); returns the
    /// pre-step log loss.
    pub fn train_one(&mut self, x: &[f64], target: f64, opt: &mut dyn Optimizer) -> f64 {
        let p = self.predict_proba(x);
        let pc = p.clamp(1e-12, 1.0 - 1e-12);
        let loss = -(target * pc.ln() + (1.0 - target) * (1.0 - pc).ln());
        // d loss / d z = p - target; chain through the linear layer.
        let dz = p - target;
        let mut params: Vec<f64> = self.weights.clone();
        params.push(self.bias);
        let mut grads: Vec<f64> = x.iter().map(|v| dz * v).collect();
        grads.push(dz);
        opt.step(&mut params, &grads);
        self.bias = params.pop().expect("bias present");
        self.weights = params;
        loss
    }

    /// Resets all parameters to zero (fresh retrain).
    pub fn reset(&mut self) {
        self.weights.iter_mut().for_each(|w| *w = 0.0);
        self.bias = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Sgd;

    #[test]
    fn learns_a_2d_halfspace() {
        let mut model = LogisticRegression::new(2);
        let mut opt = Sgd::new(0.3);
        // Label is 1 when x0 + x1 > 1.
        let data = [
            ([0.1, 0.2], 0.0),
            ([0.4, 0.3], 0.0),
            ([0.9, 0.8], 1.0),
            ([0.7, 0.9], 1.0),
            ([0.2, 0.1], 0.0),
            ([0.8, 0.7], 1.0),
        ];
        for _ in 0..800 {
            for (x, y) in data {
                model.train_one(&x, y, &mut opt);
            }
        }
        assert!(model.predict(&[0.9, 0.9]));
        assert!(!model.predict(&[0.1, 0.1]));
    }

    #[test]
    fn loss_decreases() {
        let mut model = LogisticRegression::new(1);
        let mut opt = Sgd::new(0.5);
        let first = model.train_one(&[1.0], 1.0, &mut opt);
        let mut last = first;
        for _ in 0..100 {
            last = model.train_one(&[1.0], 1.0, &mut opt);
        }
        assert!(last < first);
    }

    #[test]
    fn reset_returns_to_uninformative_prior() {
        let mut model = LogisticRegression::new(1);
        let mut opt = Sgd::new(0.5);
        for _ in 0..100 {
            model.train_one(&[1.0], 1.0, &mut opt);
        }
        assert!(model.predict_proba(&[1.0]) > 0.6);
        model.reset();
        assert_eq!(model.predict_proba(&[1.0]), 0.5);
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn feature_count_checked() {
        let model = LogisticRegression::new(2);
        let _ = model.predict_proba(&[1.0]);
    }
}
