//! Gradient-descent optimizers over flat parameter buffers.

/// An optimizer that applies gradients to a flat parameter vector.
pub trait Optimizer {
    /// Applies one update step: mutates `params` using `grads`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `params` and `grads` differ in length.
    fn step(&mut self, params: &mut [f64], grads: &[f64]);
}

/// Plain SGD.
#[derive(Clone, Debug)]
pub struct Sgd {
    lr: f64,
}

impl Sgd {
    /// Creates SGD with learning rate `lr`.
    pub fn new(lr: f64) -> Self {
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        for (p, &g) in params.iter_mut().zip(grads) {
            *p -= self.lr * g;
        }
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Clone, Debug)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// Creates Adam with the canonical defaults (`beta1 = 0.9`, `beta2 = 0.999`).
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        if self.m.len() != params.len() {
            self.m = vec![0.0; params.len()];
            self.v = vec![0.0; params.len()];
            self.t = 0;
        }
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = self.m[i] / b1t;
            let v_hat = self.v[i] / b2t;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(x) = (x - 3)^2 and checks convergence.
    fn converges(mut opt: impl Optimizer, iters: usize) -> f64 {
        let mut x = [0.0f64];
        for _ in 0..iters {
            let g = [2.0 * (x[0] - 3.0)];
            opt.step(&mut x, &g);
        }
        x[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let x = converges(Sgd::new(0.1), 200);
        assert!((x - 3.0).abs() < 1e-6, "x = {x}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let x = converges(Adam::new(0.1), 500);
        assert!((x - 3.0).abs() < 1e-3, "x = {x}");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        Sgd::new(0.1).step(&mut [0.0], &[0.0, 1.0]);
    }

    #[test]
    fn state_resizes_when_param_count_changes() {
        let mut opt = Adam::new(0.1);
        opt.step(&mut [0.0, 0.0], &[1.0, 1.0]);
        // Switching to a different parameter count resets state instead of
        // panicking (models may be rebuilt between retraining rounds).
        opt.step(&mut [0.0; 3], &[1.0; 3]);
    }
}
