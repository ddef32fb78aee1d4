//! A multi-layer perceptron with backpropagation.
//!
//! This is the model family used by LinnOS ("a light neural network"): a few
//! small fully-connected layers, trained with minibatch gradient descent.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::loss::Loss;
use crate::optim::Optimizer;
use crate::tensor::{row_times, Matrix};

/// An element-wise activation function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid (outputs in `(0, 1)`).
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// No-op (linear output layer for regression).
    Identity,
}

impl Activation {
    fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Tanh => x.tanh(),
            Activation::Identity => x,
        }
    }

    /// Derivative expressed in terms of the *activated* value `a`.
    fn derivative_from_output(self, a: f64) -> f64 {
        match self {
            Activation::Relu => {
                if a > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => a * (1.0 - a),
            Activation::Tanh => 1.0 - a * a,
            Activation::Identity => 1.0,
        }
    }
}

/// How a fault injector corrupts the network's *inference* output.
///
/// Models a broken inference path (bit flips in deployed weights, a buggy
/// quantized kernel, a stale memory-mapped model file) — the training code
/// path is separate and unaffected, which is exactly why this failure mode
/// is insidious: the model keeps "learning" while serving garbage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputCorruption {
    /// Every output becomes `NaN`.
    Nan,
    /// Every output becomes `+inf`.
    Inf,
    /// Every output becomes a finite value far outside the valid range.
    OutOfRange,
}

impl OutputCorruption {
    /// The corrupted value substituted for an inference output.
    pub fn corrupt(self, _value: f64) -> f64 {
        match self {
            OutputCorruption::Nan => f64::NAN,
            OutputCorruption::Inf => f64::INFINITY,
            OutputCorruption::OutOfRange => 1.0e9,
        }
    }
}

/// Configuration for an [`Mlp`].
#[derive(Clone, Debug)]
pub struct MlpConfig {
    /// Layer widths, input first, output last (at least two entries).
    pub layers: Vec<usize>,
    /// Activation applied to hidden layers.
    pub hidden_activation: Activation,
    /// Activation applied to the output layer.
    pub output_activation: Activation,
    /// Weight-initialization seed (deterministic training).
    pub seed: u64,
}

impl MlpConfig {
    /// A LinnOS-shaped binary classifier: `inputs -> 16 -> 16 -> 1` with a
    /// sigmoid output, matching the paper's "light neural network".
    pub fn linnos(inputs: usize, seed: u64) -> Self {
        MlpConfig {
            layers: vec![inputs, 16, 16, 1],
            hidden_activation: Activation::Relu,
            output_activation: Activation::Sigmoid,
            seed,
        }
    }
}

/// The two activation rows a single-row forward pass ping-pongs between
/// (see [`Mlp::predict_into`]).
///
/// Owned by the caller and reused across calls: once each row has grown to
/// the widest layer, inference allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct InferenceBuffers {
    rows: [Vec<f64>; 2],
}

/// A fully-connected feed-forward network.
///
/// # Examples
///
/// Learn XOR, the classic non-linearly-separable function:
///
/// ```
/// use mlkit::{Activation, Loss, Mlp, MlpConfig, Sgd, Matrix, Optimizer};
///
/// let mut net = Mlp::new(MlpConfig {
///     layers: vec![2, 8, 1],
///     hidden_activation: Activation::Tanh,
///     output_activation: Activation::Sigmoid,
///     seed: 1,
/// });
/// let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
/// let y = Matrix::from_rows(&[&[0.0], &[1.0], &[1.0], &[0.0]]);
/// let mut opt = Sgd::with_momentum(0.5, 0.9);
/// for _ in 0..2000 {
///     net.train_batch(&x, &y, Loss::Bce, &mut opt);
/// }
/// assert!(net.predict_one(&[1.0, 0.0])[0] > 0.8);
/// assert!(net.predict_one(&[1.0, 1.0])[0] < 0.2);
/// ```
#[derive(Clone, Debug)]
pub struct Mlp {
    config: MlpConfig,
    weights: Vec<Matrix>,
    biases: Vec<Vec<f64>>,
    corruption: Option<OutputCorruption>,
}

impl Mlp {
    /// Creates a network with He/Xavier-style initialization.
    ///
    /// # Panics
    ///
    /// Panics if `config.layers` has fewer than two entries or a zero width.
    pub fn new(config: MlpConfig) -> Self {
        assert!(
            config.layers.len() >= 2,
            "need at least input and output layers"
        );
        assert!(
            config.layers.iter().all(|&w| w > 0),
            "layer widths must be positive"
        );
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for w in config.layers.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            // He init for ReLU, Xavier otherwise.
            let scale = match config.hidden_activation {
                Activation::Relu => (2.0 / fan_in as f64).sqrt(),
                _ => (1.0 / fan_in as f64).sqrt(),
            };
            let data: Vec<f64> = (0..fan_in * fan_out)
                .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * scale)
                .collect();
            weights.push(Matrix::from_vec(fan_in, fan_out, data));
            biases.push(vec![0.0; fan_out]);
        }
        Mlp {
            config,
            weights,
            biases,
            corruption: None,
        }
    }

    /// Injects (or with `None` clears) an inference-output corruption.
    ///
    /// While set, [`Mlp::forward`] and [`Mlp::predict_one`] return the
    /// corrupted value in place of every output element. Training via
    /// [`Mlp::train_batch`] is unaffected (it runs the clean forward pass
    /// internally) — see [`OutputCorruption`] for why.
    pub fn set_output_corruption(&mut self, corruption: Option<OutputCorruption>) {
        self.corruption = corruption;
    }

    /// The currently injected output corruption, if any.
    pub fn output_corruption(&self) -> Option<OutputCorruption> {
        self.corruption
    }

    /// Returns the layer widths.
    pub fn layers(&self) -> &[usize] {
        &self.config.layers
    }

    /// Number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.weights
            .iter()
            .map(|w| w.rows() * w.cols())
            .sum::<usize>()
            + self.biases.iter().map(Vec::len).sum::<usize>()
    }

    fn activation_for_layer(&self, layer: usize) -> Activation {
        if layer + 1 == self.weights.len() {
            self.config.output_activation
        } else {
            self.config.hidden_activation
        }
    }

    fn check_input_width(&self, width: usize) {
        assert_eq!(
            width, self.config.layers[0],
            "input width {width} does not match network input {}",
            self.config.layers[0]
        );
    }

    /// Runs a batch forward; `x` is `n x inputs`, the result `n x outputs`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut out = self.forward_cached(x).pop().expect("at least one layer");
        if let Some(corruption) = self.corruption {
            out.map_inplace(|v| corruption.corrupt(v));
        }
        out
    }

    /// Runs a batch forward and returns all layer activations (including the
    /// input as element 0).
    fn forward_cached(&self, x: &Matrix) -> Vec<Matrix> {
        self.check_input_width(x.cols());
        let mut acts = Vec::with_capacity(self.weights.len() + 1);
        acts.push(x.clone());
        for (l, (w, b)) in self.weights.iter().zip(&self.biases).enumerate() {
            let mut z = acts.last().expect("non-empty").matmul(w);
            z.add_row_inplace(b);
            let act = self.activation_for_layer(l);
            z.map_inplace(|v| act.apply(v));
            acts.push(z);
        }
        acts
    }

    /// Predicts for a single input row.
    pub fn predict_one(&self, x: &[f64]) -> Vec<f64> {
        self.predict_into(x, &mut InferenceBuffers::default())
            .to_vec()
    }

    /// Predicts for a single input row into `bufs`, returning the output
    /// row: the same bits as `forward` on a one-row matrix, corruption
    /// included, without allocating once `bufs` is warm.
    ///
    /// # Examples
    ///
    /// ```
    /// use mlkit::{InferenceBuffers, Matrix, Mlp, MlpConfig};
    ///
    /// let net = Mlp::new(MlpConfig::linnos(2, 7));
    /// let mut bufs = InferenceBuffers::default();
    /// let x = [0.5, -1.0];
    /// let batch = net.forward(&Matrix::from_rows(&[&x]));
    /// assert_eq!(net.predict_into(&x, &mut bufs), batch.row(0));
    /// ```
    pub fn predict_into<'b>(&self, x: &[f64], bufs: &'b mut InferenceBuffers) -> &'b [f64] {
        self.check_input_width(x.len());
        let [first, second] = &mut bufs.rows;
        let (mut cur, mut next) = (first, second);
        cur.clear();
        cur.extend_from_slice(x);
        for (l, (w, b)) in self.weights.iter().zip(&self.biases).enumerate() {
            next.resize(w.cols(), 0.0);
            row_times(cur, w, next);
            let act = self.activation_for_layer(l);
            for (v, &bias) in next.iter_mut().zip(b) {
                *v = act.apply(*v + bias);
            }
            std::mem::swap(&mut cur, &mut next);
        }
        if let Some(corruption) = self.corruption {
            for v in cur.iter_mut() {
                *v = corruption.corrupt(*v);
            }
        }
        cur
    }

    /// Performs one minibatch training step; returns the pre-step loss.
    pub fn train_batch(
        &mut self,
        x: &Matrix,
        y: &Matrix,
        loss: Loss,
        opt: &mut dyn Optimizer,
    ) -> f64 {
        assert_eq!(x.rows(), y.rows(), "batch size mismatch");
        let acts = self.forward_cached(x);
        let output = acts.last().expect("non-empty");
        let loss_value = loss.value(output.as_slice(), y.as_slice());

        // dL/d(output activations).
        let mut delta = Matrix::zeros(output.rows(), output.cols());
        loss.gradient(output.as_slice(), y.as_slice(), delta.as_mut_slice());

        let mut w_grads: Vec<Matrix> = Vec::with_capacity(self.weights.len());
        let mut b_grads: Vec<Vec<f64>> = Vec::with_capacity(self.weights.len());
        for l in (0..self.weights.len()).rev() {
            // Fold in the activation derivative: delta ⊙ act'(a_l).
            let a_l = &acts[l + 1];
            let act = self.activation_for_layer(l);
            for (d, &a) in delta.as_mut_slice().iter_mut().zip(a_l.as_slice()) {
                *d *= act.derivative_from_output(a);
            }
            // Gradients for this layer.
            w_grads.push(acts[l].t_matmul(&delta));
            b_grads.push(delta.col_sums());
            // Propagate to the previous layer: delta = delta * W_l^T.
            if l > 0 {
                delta = delta.matmul_t(&self.weights[l]);
            }
        }
        w_grads.reverse();
        b_grads.reverse();

        // Flatten params and grads for the optimizer, then scatter back.
        let mut params = Vec::with_capacity(self.num_params());
        let mut grads = Vec::with_capacity(self.num_params());
        for (w, g) in self.weights.iter().zip(&w_grads) {
            params.extend_from_slice(w.as_slice());
            grads.extend_from_slice(g.as_slice());
        }
        for (b, g) in self.biases.iter().zip(&b_grads) {
            params.extend_from_slice(b);
            grads.extend_from_slice(g);
        }
        opt.step(&mut params, &grads);
        let mut off = 0;
        for w in &mut self.weights {
            let n = w.rows() * w.cols();
            w.as_mut_slice().copy_from_slice(&params[off..off + n]);
            off += n;
        }
        for b in &mut self.biases {
            let n = b.len();
            b.copy_from_slice(&params[off..off + n]);
            off += n;
        }
        loss_value
    }

    /// Re-initializes all weights from a new seed (used by `RETRAIN` flows
    /// that restart training from scratch on fresh data).
    pub fn reinitialize(&mut self, seed: u64) {
        let mut config = self.config.clone();
        config.seed = seed;
        let corruption = self.corruption;
        *self = Mlp::new(config);
        // Corruption models a broken inference *path*, not broken weights —
        // redeploying the model does not fix it.
        self.corruption = corruption;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Sgd};
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn xor_data() -> (Matrix, Matrix) {
        (
            Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]),
            Matrix::from_rows(&[&[0.0], &[1.0], &[1.0], &[0.0]]),
        )
    }

    #[test]
    fn loss_decreases_during_training() {
        let (x, y) = xor_data();
        let mut net = Mlp::new(MlpConfig {
            layers: vec![2, 8, 1],
            hidden_activation: Activation::Tanh,
            output_activation: Activation::Sigmoid,
            seed: 3,
        });
        let mut opt = Sgd::with_momentum(0.5, 0.9);
        let first = net.train_batch(&x, &y, Loss::Bce, &mut opt);
        let mut last = first;
        for _ in 0..1500 {
            last = net.train_batch(&x, &y, Loss::Bce, &mut opt);
        }
        assert!(last < first * 0.2, "first {first} last {last}");
    }

    #[test]
    fn regression_with_identity_output() {
        // Learn f(x) = 2x + 1 on [0, 1].
        let xs: Vec<f64> = (0..50).map(|i| i as f64 / 49.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        let x = Matrix::from_vec(50, 1, xs);
        let y = Matrix::from_vec(50, 1, ys);
        let mut net = Mlp::new(MlpConfig {
            layers: vec![1, 8, 1],
            hidden_activation: Activation::Relu,
            output_activation: Activation::Identity,
            seed: 7,
        });
        let mut opt = Adam::new(0.01);
        for _ in 0..800 {
            net.train_batch(&x, &y, Loss::Mse, &mut opt);
        }
        let p = net.predict_one(&[0.5])[0];
        assert!((p - 2.0).abs() < 0.15, "predicted {p}");
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = MlpConfig::linnos(4, 42);
        let a = Mlp::new(cfg.clone());
        let b = Mlp::new(cfg);
        assert_eq!(
            a.predict_one(&[1.0, 2.0, 3.0, 4.0]),
            b.predict_one(&[1.0, 2.0, 3.0, 4.0])
        );
    }

    #[test]
    fn linnos_shape_matches_paper() {
        let net = Mlp::new(MlpConfig::linnos(5, 0));
        assert_eq!(net.layers(), &[5, 16, 16, 1]);
        let out = net.predict_one(&[0.0; 5]);
        assert_eq!(out.len(), 1);
        assert!(out[0] > 0.0 && out[0] < 1.0, "sigmoid output in (0,1)");
    }

    #[test]
    fn num_params_counts_weights_and_biases() {
        let net = Mlp::new(MlpConfig {
            layers: vec![3, 4, 2],
            hidden_activation: Activation::Relu,
            output_activation: Activation::Identity,
            seed: 0,
        });
        assert_eq!(net.num_params(), 3 * 4 + 4 + 4 * 2 + 2);
    }

    #[test]
    fn reinitialize_changes_outputs() {
        let mut net = Mlp::new(MlpConfig::linnos(4, 1));
        let before = net.predict_one(&[1.0, 0.5, 0.2, 0.9]);
        net.reinitialize(999);
        let after = net.predict_one(&[1.0, 0.5, 0.2, 0.9]);
        assert_ne!(before, after);
    }

    #[test]
    fn output_corruption_poisons_inference_but_not_training() {
        let (x, y) = xor_data();
        let mut net = Mlp::new(MlpConfig::linnos(2, 5));
        assert_eq!(net.output_corruption(), None);

        net.set_output_corruption(Some(OutputCorruption::Nan));
        assert!(net.predict_one(&[0.0, 1.0])[0].is_nan());
        net.set_output_corruption(Some(OutputCorruption::Inf));
        assert!(net.predict_one(&[0.0, 1.0])[0].is_infinite());
        net.set_output_corruption(Some(OutputCorruption::OutOfRange));
        let oor = net.predict_one(&[0.0, 1.0])[0];
        assert!(
            oor.is_finite() && oor > 1.0,
            "out of a sigmoid's range: {oor}"
        );

        // Training runs the clean forward pass: loss stays finite, and the
        // corruption survives a RETRAIN-style reinitialization.
        let mut opt = Adam::new(0.01);
        let loss = net.train_batch(&x, &y, Loss::Bce, &mut opt);
        assert!(loss.is_finite(), "training unaffected, loss {loss}");
        net.reinitialize(123);
        assert_eq!(net.output_corruption(), Some(OutputCorruption::OutOfRange));

        net.set_output_corruption(None);
        let healthy = net.predict_one(&[0.0, 1.0])[0];
        assert!(
            healthy > 0.0 && healthy < 1.0,
            "clean sigmoid output: {healthy}"
        );
    }

    #[test]
    #[should_panic(expected = "input width")]
    fn input_width_checked() {
        let net = Mlp::new(MlpConfig::linnos(4, 1));
        let _ = net.predict_one(&[1.0, 2.0]);
    }

    #[test]
    fn activation_derivatives_match_finite_differences() {
        for act in [Activation::Sigmoid, Activation::Tanh, Activation::Identity] {
            for x in [-1.5, -0.2, 0.4, 2.0] {
                let a = act.apply(x);
                let eps = 1e-6;
                let fd = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                assert!(
                    (act.derivative_from_output(a) - fd).abs() < 1e-5,
                    "{act:?} at {x}"
                );
            }
        }
        // ReLU away from the kink.
        assert_eq!(Activation::Relu.derivative_from_output(2.0), 1.0);
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
    }

    const ACTIVATIONS: [Activation; 4] = [
        Activation::Relu,
        Activation::Sigmoid,
        Activation::Tanh,
        Activation::Identity,
    ];

    const CORRUPTIONS: [Option<OutputCorruption>; 4] = [
        None,
        Some(OutputCorruption::Nan),
        Some(OutputCorruption::Inf),
        Some(OutputCorruption::OutOfRange),
    ];

    /// The first `width` draws as an input row; a draw tagged 0 is an
    /// exact zero, which `row_times` skips.
    fn input_row(draws: &[(u8, f64)], width: usize) -> Vec<f64> {
        draws[..width]
            .iter()
            .map(|&(tag, v)| if tag == 0 { 0.0 } else { v })
            .collect()
    }

    fn bits(row: &[f64]) -> Vec<u64> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Single-row inference ≡ the batch forward pass's first row, bit
        /// for bit, on random nets (after one training step, so biases are
        /// non-zero) and inputs with exact zeros, with and without each
        /// output corruption, through one reused set of buffers.
        #[test]
        fn predict_into_matches_batch_forward(
            layers in vec(1usize..21, 2..5),
            acts in (0usize..4, 0usize..4),
            corruption in 0usize..4,
            seed in 0u64..1_000_000,
            draws in vec((0u8..4, -3.0..3.0f64), 40),
        ) {
            let mut net = Mlp::new(MlpConfig {
                layers: layers.clone(),
                hidden_activation: ACTIVATIONS[acts.0],
                output_activation: ACTIVATIONS[acts.1],
                seed,
            });
            let inputs = layers[0];
            let outputs = layers[layers.len() - 1];
            let x = Matrix::from_vec(1, inputs, input_row(&draws, inputs));
            let y = Matrix::from_vec(1, outputs, vec![0.5; outputs]);
            net.train_batch(&x, &y, Loss::Mse, &mut Adam::new(0.05));
            net.set_output_corruption(CORRUPTIONS[corruption]);

            let mut bufs = InferenceBuffers::default();
            for row in [input_row(&draws, inputs), input_row(&draws[20..], inputs)] {
                let batch = net.forward(&Matrix::from_vec(1, inputs, row.clone()));
                prop_assert_eq!(bits(net.predict_into(&row, &mut bufs)), bits(batch.row(0)));
                prop_assert_eq!(bits(&net.predict_one(&row)), bits(batch.row(0)));
            }
        }
    }
}
