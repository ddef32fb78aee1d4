//! A multi-layer perceptron with backpropagation.
//!
//! This is the model family used by LinnOS ("a light neural network"): a few
//! small fully-connected layers, trained with minibatch gradient descent.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::loss::Loss;
use crate::optim::Optimizer;
use crate::tensor::{all_finite, row_product, Matrix};

/// An element-wise activation function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid (outputs in `(0, 1)`).
    Sigmoid,
}

impl Activation {
    #[inline]
    fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Adds `bias` to every row of `z` and activates it in place: the
    /// activation is chosen once, not per element.
    fn apply_rows(self, z: &mut [f64], bias: &[f64]) {
        fn each(z: &mut [f64], bias: &[f64], f: impl Fn(f64) -> f64) {
            if bias.is_empty() {
                return;
            }
            for row in z.chunks_exact_mut(bias.len()) {
                for (v, &b) in row.iter_mut().zip(bias) {
                    *v = f(*v + b);
                }
            }
        }
        match self {
            Activation::Relu => each(z, bias, |x| Activation::Relu.apply(x)),
            Activation::Sigmoid => each(z, bias, |x| Activation::Sigmoid.apply(x)),
        }
    }

    /// Multiplies each element of `delta` by the derivative at the matching
    /// activated value in `a`, choosing the activation once.
    fn scale_by_derivative(self, delta: &mut [f64], a: &[f64]) {
        fn each(delta: &mut [f64], a: &[f64], f: impl Fn(f64) -> f64) {
            for (d, &a) in delta.iter_mut().zip(a) {
                *d *= f(a);
            }
        }
        match self {
            Activation::Relu => each(delta, a, |a| Activation::Relu.derivative_from_output(a)),
            Activation::Sigmoid => {
                each(delta, a, |a| Activation::Sigmoid.derivative_from_output(a))
            }
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

/// The width of both hidden layers of [`MlpConfig::linnos`] and
/// [`FixedMlp`].
const LINNOS_HIDDEN: usize = 16;

impl MlpConfig {
    /// A LinnOS-shaped binary classifier: `inputs -> 16 -> 16 -> 1` with a
    /// sigmoid output, matching the paper's "light neural network".
    pub fn linnos(inputs: usize, seed: u64) -> Self {
        MlpConfig {
            layers: vec![inputs, LINNOS_HIDDEN, LINNOS_HIDDEN, 1],
            hidden_activation: Activation::Relu,
            output_activation: Activation::Sigmoid,
            seed,
        }
    }
}

/// Everything a training step writes, kept between steps (see
/// [`Mlp::train_step`]): the activations, the delta being propagated and
/// the one it is propagated into, the transposed weights it is propagated
/// through, and the flat parameters and gradients the optimizer steps.
///
/// Owned by the caller and reused across steps: once grown to a batch
/// size, a step allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct TrainBuffers {
    acts: Vec<Matrix>,
    delta: Matrix,
    spare: Matrix,
    weights_t: Vec<Matrix>,
    params: Vec<f64>,
    grads: Vec<f64>,
}

/// A fully-connected feed-forward network.
///
/// # Examples
///
/// Learn XOR, the classic non-linearly-separable function:
///
/// ```
/// use mlkit::{Activation, Adam, Loss, Mlp, MlpConfig, Matrix, Optimizer};
///
/// let mut net = Mlp::new(MlpConfig {
///     layers: vec![2, 8, 1],
///     hidden_activation: Activation::Relu,
///     output_activation: Activation::Sigmoid,
///     seed: 1,
/// });
/// let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
/// let y = Matrix::from_rows(&[&[0.0], &[1.0], &[1.0], &[0.0]]);
/// let mut opt = Adam::new(0.05);
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
    /// Whether every weight is finite, kept by whatever writes the weights
    /// (`new` and `train_step`): single-row inference then needs no masking
    /// of the terms it skips.
    weights_finite: bool,
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
            weights_finite: weights.iter().all(|w| all_finite(w.as_slice())),
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

    /// The parameters in the order the optimizer sees them flattened:
    /// every weight matrix, then every bias vector, in layer order.
    fn params_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        let weights = self.weights.iter_mut().map(Matrix::as_mut_slice);
        weights.chain(self.biases.iter_mut().map(Vec::as_mut_slice))
    }

    fn activation_for_layer(&self, layer: usize) -> Activation {
        if layer + 1 == self.weights.len() {
            self.config.output_activation
        } else {
            self.config.hidden_activation
        }
    }

    /// Runs a batch forward; `x` is `n x inputs`, the result `n x outputs`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut acts = Vec::new();
        self.forward_into(x, &mut acts);
        let mut out = acts.pop().expect("at least one layer");
        if let Some(corruption) = self.corruption {
            out.map_inplace(|v| corruption.corrupt(v));
        }
        out
    }

    /// Runs a clean batch forward into `acts`: `acts[l]` becomes layer
    /// `l`'s activations (the input is not copied).
    fn forward_into(&self, x: &Matrix, acts: &mut Vec<Matrix>) {
        assert_eq!(
            x.cols(),
            self.config.layers[0],
            "input width does not match network input"
        );
        acts.resize_with(self.weights.len(), Matrix::default);
        for (l, (w, b)) in self.weights.iter().zip(&self.biases).enumerate() {
            let (done, rest) = acts.split_at_mut(l);
            let input = done.last().unwrap_or(x);
            let z = &mut rest[0];
            input.matmul_into(w, z);
            self.activation_for_layer(l).apply_rows(z.as_mut_slice(), b);
        }
    }

    /// Predicts for a single input row: [`Mlp::forward`] on a one-row
    /// matrix.
    pub fn predict_one(&self, x: &[f64]) -> Vec<f64> {
        self.forward(&Matrix::from_vec(1, x.len(), x.to_vec()))
            .row(0)
            .to_vec()
    }

    /// Performs one minibatch training step; returns the pre-step loss.
    pub fn train_batch(
        &mut self,
        x: &Matrix,
        y: &Matrix,
        loss: Loss,
        opt: &mut dyn Optimizer,
    ) -> f64 {
        let mut bufs = TrainBuffers::default();
        let output = self.train_step(x, y, loss, opt, &mut bufs);
        loss.value(output, y.as_slice())
    }

    /// Performs one minibatch training step in `bufs` and returns the
    /// pre-step predictions, row-major: [`Mlp::train_batch`] without the
    /// loss value, allocating nothing once `bufs` has grown to the batch.
    ///
    /// The loss value is left to the caller (`loss.value(output, y)`), who
    /// may want it for only some steps.
    ///
    /// # Examples
    ///
    /// ```
    /// use mlkit::{Adam, Loss, Matrix, Mlp, MlpConfig, TrainBuffers};
    ///
    /// let x = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
    /// let y = Matrix::from_rows(&[&[1.0], &[0.0]]);
    /// let (mut a, mut b) = (Mlp::new(MlpConfig::linnos(2, 7)), Mlp::new(MlpConfig::linnos(2, 7)));
    /// let (mut opt_a, mut opt_b) = (Adam::new(0.01), Adam::new(0.01));
    /// let mut bufs = TrainBuffers::default();
    /// for _ in 0..3 {
    ///     let stepped = a.train_step(&x, &y, Loss::Bce, &mut opt_a, &mut bufs);
    ///     let loss = Loss::Bce.value(stepped, y.as_slice());
    ///     assert_eq!(loss, b.train_batch(&x, &y, Loss::Bce, &mut opt_b));
    /// }
    /// ```
    pub fn train_step<'b>(
        &mut self,
        x: &Matrix,
        y: &Matrix,
        loss: Loss,
        opt: &mut dyn Optimizer,
        bufs: &'b mut TrainBuffers,
    ) -> &'b [f64] {
        assert_eq!(x.rows(), y.rows(), "batch size mismatch");
        let TrainBuffers {
            acts,
            delta,
            spare,
            weights_t,
            params,
            grads,
        } = bufs;
        self.forward_into(x, acts);
        let output = acts.last().expect("at least one layer");

        // Gradients go straight into their places in the optimizer's flat
        // layout (`params_mut`), filled from the last layer back.
        let num_params = self.num_params();
        params.resize(num_params, 0.0);
        grads.resize(num_params, 0.0);
        weights_t.resize_with(self.weights.len(), Matrix::default);
        let weight_count = self
            .weights
            .iter()
            .map(|w| w.rows() * w.cols())
            .sum::<usize>();
        let mut w_end = weight_count;
        let mut b_end = num_params;

        // dL/d(output activations).
        delta.reshape(output.rows(), output.cols());
        loss.gradient(output.as_slice(), y.as_slice(), delta.as_mut_slice());
        for l in (0..self.weights.len()).rev() {
            // Fold in the activation derivative: delta ⊙ act'(a_l).
            self.activation_for_layer(l)
                .scale_by_derivative(delta.as_mut_slice(), acts[l].as_slice());
            // Gradients for this layer.
            let input = if l == 0 { x } else { &acts[l - 1] };
            let w = &self.weights[l];
            let (w_start, b_start) = (w_end - w.rows() * w.cols(), b_end - w.cols());
            input.t_matmul_into(delta, &mut grads[w_start..w_end]);
            delta.col_sums_into(&mut grads[b_start..b_end]);
            (w_end, b_end) = (w_start, b_start);
            // Propagate to the previous layer: delta = delta * W_l^T.
            if l > 0 {
                w.transpose_into(&mut weights_t[l]);
                delta.matmul_t_into(&weights_t[l], spare);
                std::mem::swap(delta, spare);
            }
        }

        let mut off = 0;
        for p in self.params_mut() {
            params[off..off + p.len()].copy_from_slice(p);
            off += p.len();
        }
        opt.step(params, grads);
        let mut off = 0;
        for p in self.params_mut() {
            p.copy_from_slice(&params[off..off + p.len()]);
            off += p.len();
        }
        self.weights_finite = all_finite(&params[..weight_count]);
        acts.last().expect("at least one layer").as_slice()
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

/// The `I → 16 → 16 → 1` network [`MlpConfig::linnos`] builds (ReLU
/// hidden layers, a sigmoid output), its input width fixed by the type,
/// with a single-row forward at that shape: the rows are arrays on the
/// stack and each weight row is read as `[f64; 16]`.
///
/// The layer widths are [`Mlp`]'s invariant: [`Mlp::new`] builds every
/// layer from the config, and nothing changes a layer's size afterwards
/// (`train_step` writes in place, `reinitialize` rebuilds from the same
/// config). A decision still checks each layer, in release builds too: its
/// weights are read as rows of the layer's width and must be as many as its
/// inputs, and its bias is read as an array. A layer of another size panics
/// rather than being read short.
///
/// # Examples
///
/// ```
/// use mlkit::{FixedMlp, Matrix};
///
/// let net = FixedMlp::<2>::new(7);
/// let x = [0.5, -1.0];
/// let batch = net.net().forward(&Matrix::from_rows(&[&x]));
/// assert_eq!(net.predict(&x), batch[(0, 0)]);
/// ```
#[derive(Clone, Debug)]
pub struct FixedMlp<const I: usize> {
    net: Mlp,
}

impl<const I: usize> FixedMlp<I> {
    /// An untrained network, `Mlp::new(MlpConfig::linnos(I, seed))`.
    pub fn new(seed: u64) -> Self {
        FixedMlp {
            net: Mlp::new(MlpConfig::linnos(I, seed)),
        }
    }

    /// The wrapped network.
    pub fn net(&self) -> &Mlp {
        &self.net
    }

    /// [`Mlp::train_step`] on the wrapped network.
    pub fn train_step<'b>(
        &mut self,
        x: &Matrix,
        y: &Matrix,
        loss: Loss,
        opt: &mut dyn Optimizer,
        bufs: &'b mut TrainBuffers,
    ) -> &'b [f64] {
        self.net.train_step(x, y, loss, opt, bufs)
    }

    /// [`Mlp::reinitialize`] on the wrapped network.
    pub fn reinitialize(&mut self, seed: u64) {
        self.net.reinitialize(seed);
    }

    /// [`Mlp::set_output_corruption`] on the wrapped network.
    pub fn set_output_corruption(&mut self, corruption: Option<OutputCorruption>) {
        self.net.set_output_corruption(corruption);
    }

    /// Predicts for one input row: the same bits as [`Mlp::forward`] on a
    /// one-row matrix, corruption included, without allocating.
    pub fn predict(&self, x: &[f64; I]) -> f64 {
        let out = if self.net.weights_finite {
            self.forward::<false>(x)
        } else {
            self.forward::<true>(x)
        };
        self.net.corruption.map_or(out, |c| c.corrupt(out))
    }

    /// The clean forward pass, the skipped terms masked (`MASK`) or not.
    #[inline(always)]
    fn forward<const MASK: bool>(&self, x: &[f64; I]) -> f64 {
        let (w, b) = (&self.net.weights, &self.net.biases);
        let h0 = affine::<MASK, I, LINNOS_HIDDEN>(x, w[0].as_slice(), &b[0])
            .map(|v| Activation::Relu.apply(v));
        let h1 = affine::<MASK, LINNOS_HIDDEN, LINNOS_HIDDEN>(&h0, w[1].as_slice(), &b[1])
            .map(|v| Activation::Relu.apply(v));
        let [z] = affine::<MASK, LINNOS_HIDDEN, 1>(&h1, w[2].as_slice(), &b[2]);
        Activation::Sigmoid.apply(z)
    }
}

/// `x` times the row-major `K x M` weights `w`, plus the bias `b`: a layer
/// of [`Mlp::forward`] for one row, before its activation.
///
/// The weights are read as `M`-wide rows and their count is checked after
/// the product: checked before it, the compiler knows the loop's trip count
/// and unrolls it whole, and a decision took about 13 % longer
/// (`linnos.predict`, 4.2 → 4.8 reference steps on a 2-vCPU x86-64 host).
///
/// # Panics
///
/// Panics unless `w` holds exactly `K x M` elements and `b` holds `M`.
#[inline(always)]
fn affine<const MASK: bool, const K: usize, const M: usize>(
    x: &[f64; K],
    w: &[f64],
    b: &[f64],
) -> [f64; M] {
    let b: &[f64; M] = b.try_into().expect("bias width mismatch");
    let (rows, rest) = w.as_chunks::<M>();
    let mut z = row_product::<MASK, M>(x, rows);
    assert!(
        rest.is_empty() && rows.len() == K,
        "layer weight count mismatch"
    );
    for (z, &b) in z.iter_mut().zip(b) {
        *z += b;
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Sgd};
    use crate::tensor::reference;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// A training step in its plainest form, on the reference kernels: an
    /// allocating forward pass that keeps every activation, a loss value
    /// every step, per-element activation dispatch, and gradients
    /// flattened into fresh buffers.
    fn reference_train_batch(
        net: &mut Mlp,
        x: &Matrix,
        y: &Matrix,
        loss: Loss,
        opt: &mut dyn Optimizer,
    ) -> f64 {
        let mut acts = vec![x.clone()];
        for (l, (w, b)) in net.weights.iter().zip(&net.biases).enumerate() {
            let mut z = reference::matmul(acts.last().unwrap(), w);
            z.add_row_inplace(b);
            let act = net.activation_for_layer(l);
            z.map_inplace(|v| act.apply(v));
            acts.push(z);
        }
        let output = acts.last().unwrap();
        let loss_value = loss.value(output.as_slice(), y.as_slice());
        let mut delta = Matrix::zeros(output.rows(), output.cols());
        loss.gradient(output.as_slice(), y.as_slice(), delta.as_mut_slice());
        let mut w_grads = Vec::new();
        let mut b_grads = Vec::new();
        for l in (0..net.weights.len()).rev() {
            let act = net.activation_for_layer(l);
            for (d, &a) in delta.as_mut_slice().iter_mut().zip(acts[l + 1].as_slice()) {
                *d *= act.derivative_from_output(a);
            }
            w_grads.push(reference::t_matmul(&acts[l], &delta));
            b_grads.push(reference::col_sums(&delta));
            if l > 0 {
                delta = reference::matmul_t(&delta, &net.weights[l]);
            }
        }
        w_grads.reverse();
        b_grads.reverse();
        let mut params = Vec::new();
        let mut grads = Vec::new();
        for (w, g) in net.weights.iter().zip(&w_grads) {
            params.extend_from_slice(w.as_slice());
            grads.extend_from_slice(g.as_slice());
        }
        for (b, g) in net.biases.iter().zip(&b_grads) {
            params.extend_from_slice(b);
            grads.extend_from_slice(g);
        }
        opt.step(&mut params, &grads);
        let mut off = 0;
        for w in &mut net.weights {
            let n = w.rows() * w.cols();
            w.as_mut_slice().copy_from_slice(&params[off..off + n]);
            off += n;
        }
        for b in &mut net.biases {
            let n = b.len();
            b.copy_from_slice(&params[off..off + n]);
            off += n;
        }
        net.weights_finite = net.weights.iter().all(|w| all_finite(w.as_slice()));
        loss_value
    }

    /// Every weight and bias of `net`, as bits.
    fn param_bits(net: &Mlp) -> Vec<u64> {
        let weights = net.weights.iter().flat_map(|w| w.as_slice());
        let biases = net.biases.iter().flatten();
        crate::tensor::tests::bits(&weights.chain(biases).copied().collect::<Vec<_>>())
    }

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
            hidden_activation: Activation::Relu,
            output_activation: Activation::Sigmoid,
            seed: 3,
        });
        let mut opt = Adam::new(0.05);
        let first = net.train_batch(&x, &y, Loss::Bce, &mut opt);
        let mut last = first;
        for _ in 0..1500 {
            last = net.train_batch(&x, &y, Loss::Bce, &mut opt);
        }
        assert!(last < first * 0.2, "first {first} last {last}");
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
            output_activation: Activation::Sigmoid,
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

    /// A network whose layers are not the fixed shape's panics on its first
    /// decision, in release builds too, whether a layer is too small or
    /// too large for the inputs it is read with.
    #[test]
    fn a_layer_of_the_wrong_size_panics() {
        for (built_for, x) in [(2, [0.5; 3].as_slice()), (3, [0.5; 2].as_slice())] {
            let net = Mlp::new(MlpConfig::linnos(built_for, 7));
            let decision = std::panic::catch_unwind(|| match *x {
                [a, b, c] => FixedMlp::<3> { net }.predict(&[a, b, c]),
                [a, b] => FixedMlp::<2> { net }.predict(&[a, b]),
                _ => unreachable!(),
            });
            let message = decision.expect_err("a wrong-size layer panics");
            assert_eq!(
                message.downcast_ref::<&str>(),
                Some(&"layer weight count mismatch")
            );
        }
    }

    /// The flag that lets inference skip masking follows the weights: a
    /// step that makes them infinite or NaN clears it, and inference then
    /// still matches the batch forward pass.
    #[test]
    fn diverged_weights_are_tracked_and_still_predict_like_forward() {
        let (x, y) = xor_data();
        let mut net = FixedMlp::<2>::new(5);
        assert!(net.net().weights_finite);
        net.train_step(
            &x,
            &y,
            Loss::Mse,
            &mut Sgd::new(0.1),
            &mut TrainBuffers::default(),
        );
        assert!(net.net().weights_finite);
        net.train_step(
            &x,
            &y,
            Loss::Mse,
            &mut Sgd::new(f64::INFINITY),
            &mut TrainBuffers::default(),
        );
        assert!(
            !net.net().weights_finite,
            "an infinite step leaves no finite net"
        );
        for row in [[0.0, 1.0], [0.0, 0.0], [1.0, 0.5]] {
            let batch = net.net().forward(&Matrix::from_rows(&[&row]));
            assert_eq!(
                crate::tensor::tests::bits(&[net.predict(&row)]),
                crate::tensor::tests::bits(batch.row(0))
            );
        }
    }

    #[test]
    #[should_panic(expected = "input width")]
    fn input_width_checked() {
        let net = Mlp::new(MlpConfig::linnos(4, 1));
        let _ = net.predict_one(&[1.0, 2.0]);
    }

    #[test]
    fn activation_derivatives_match_finite_differences() {
        for act in [Activation::Sigmoid] {
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

    const ACTIVATIONS: [Activation; 2] = [Activation::Relu, Activation::Sigmoid];

    const CORRUPTIONS: [Option<OutputCorruption>; 4] = [
        None,
        Some(OutputCorruption::Nan),
        Some(OutputCorruption::Inf),
        Some(OutputCorruption::OutOfRange),
    ];

    /// The first `width` draws as an input row; a draw tagged 0 is an
    /// exact zero, which the skipping products skip.
    fn input_row(draws: &[(u8, f64)], width: usize) -> Vec<f64> {
        draws[..width]
            .iter()
            .map(|&(tag, v)| if tag == 0 { 0.0 } else { v })
            .collect()
    }

    /// A parameter from a draw: now and then NaN or an infinity (about one
    /// LinnOS-shaped net in seven holds none), often `±0.0` or a subnormal.
    fn param((tag, v): (u32, f64)) -> f64 {
        match tag {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3..=40 => 0.0,
            41..=60 => -0.0,
            61..=80 => v * f64::MIN_POSITIVE / 4.0,
            _ => v,
        }
    }

    /// A `FixedMlp<I>` with its parameters from `params` (made finite
    /// for `mode` 1 and 2; `mode` 2 also clears the finite flag, which is
    /// always correct) predicts each `I`-wide row of `inputs` as its batch
    /// forward pass does.
    fn fixed_matches_forward<const I: usize>(
        seed: u64,
        corruption: Option<OutputCorruption>,
        mode: usize,
        params: &[(u32, f64)],
        inputs: &[(u8, f64)],
    ) {
        let mut fixed = FixedMlp::<I>::new(seed);
        let net = &mut fixed.net;
        let mut draws = params.iter().map(|&d| match param(d) {
            v if mode > 0 && !v.is_finite() => 0.5,
            v => v,
        });
        for p in net.params_mut() {
            p.fill_with(|| draws.next().expect("a draw per parameter"));
        }
        net.weights_finite = mode != 2 && net.weights.iter().all(|w| all_finite(w.as_slice()));
        net.set_output_corruption(corruption);
        let net = fixed;
        for x in inputs.chunks_exact(I) {
            let x: [f64; I] = std::array::from_fn(|i| crate::tensor::tests::element(x[i]));
            let batch = net.net().forward(&Matrix::from_rows(&[&x]));
            assert_eq!(
                crate::tensor::tests::bits(&[net.predict(&x)]),
                crate::tensor::tests::bits(batch.row(0)),
                "input {x:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Five Adam steps of `train_batch`, and of `train_step` through one
        /// reused set of buffers, ≡ five steps of the reference, bit for
        /// bit: every loss and every weight after, for `Bce` and `Mse`, on
        /// random nets, activations and batches with exact zeros.
        #[test]
        fn train_batch_matches_reference(
            layers in vec(1usize..21, 2..5),
            acts in (0usize..2, 0usize..2),
            rows in 1usize..21,
            bce in any::<bool>(),
            seed in 0u64..1_000_000,
            draws in vec((0u8..4, -3.0..3.0f64), 420),
            targets in vec(0.0..1.0f64, 420),
        ) {
            let config = MlpConfig {
                layers: layers.clone(),
                hidden_activation: ACTIVATIONS[acts.0],
                output_activation: ACTIVATIONS[acts.1],
                seed,
            };
            let loss = if bce { Loss::Bce } else { Loss::Mse };
            let (inputs, outputs) = (layers[0], layers[layers.len() - 1]);
            let x = Matrix::from_vec(rows, inputs, input_row(&draws, rows * inputs));
            let y = Matrix::from_vec(rows, outputs, targets[..rows * outputs].to_vec());
            let (mut expected, mut batched, mut stepped) =
                (Mlp::new(config.clone()), Mlp::new(config.clone()), Mlp::new(config));
            let (mut opt_e, mut opt_b, mut opt_s) = (Adam::new(0.05), Adam::new(0.05), Adam::new(0.05));
            let mut bufs = TrainBuffers::default();
            for _ in 0..5 {
                let want = reference_train_batch(&mut expected, &x, &y, loss, &mut opt_e).to_bits();
                prop_assert_eq!(batched.train_batch(&x, &y, loss, &mut opt_b).to_bits(), want);
                let output = stepped.train_step(&x, &y, loss, &mut opt_s, &mut bufs);
                prop_assert_eq!(loss.value(output, y.as_slice()).to_bits(), want);
            }
            prop_assert_eq!(param_bits(&batched), param_bits(&expected));
            prop_assert_eq!(param_bits(&stepped), param_bits(&expected));
        }

        /// The fixed-shape forward ≡ the batch forward pass's first row, bit
        /// for bit (NaN as NaN), at LinnOS's input width and an odd one, with
        /// and without each output corruption: on random weights and biases
        /// that hold signed zeros, subnormals and now and then a NaN or an
        /// infinity (the masked path; ReLU zeros often mask it), or only
        /// finite values with the finite flag set (the unmasked path) or
        /// cleared; on inputs with signed zeros, subnormals, NaN and
        /// infinities.
        #[test]
        fn fixed_forward_matches_batch_forward(
            corruption in 0usize..4,
            mode in 0usize..3,
            seed in 0u64..1_000_000,
            params in vec((0u32..600, -3.0..3.0f64), 5 * 16 + 16 * 16 + 16 + 16 + 16 + 1),
            inputs in vec((0u8..64, -3.0..3.0f64), 4 * 5),
        ) {
            let corruption = CORRUPTIONS[corruption];
            fixed_matches_forward::<5>(seed, corruption, mode, &params, &inputs);
            fixed_matches_forward::<3>(seed, corruption, mode, &params, &inputs);
        }
    }
}
