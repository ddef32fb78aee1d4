//! The LinnOS classifier's network and its backpropagation.
//!
//! LinnOS uses "a light neural network": `I → 16 → 16 → 1`, ReLU hidden
//! layers and a sigmoid output, trained on binary cross-entropy with
//! minibatch gradient descent. [`Mlp`] is that network, its input width
//! fixed by the type.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::loss::bce_gradient;
use crate::optim::Optimizer;
use crate::tensor::{all_finite, row_product, Matrix};

/// The width of both hidden layers.
const HIDDEN: usize = 16;

/// The hidden layers' activation.
#[inline]
fn relu(x: f64) -> f64 {
    x.max(0.0)
}

/// The output layer's activation, a probability in `(0, 1)`.
#[inline]
fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
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

/// The `I → 16 → 16 → 1` network: ReLU hidden layers, a sigmoid output.
///
/// One decision ([`Mlp::predict`]) runs at that shape on the stack: the
/// rows are arrays and each weight row is read as `[f64; 16]`. Training
/// ([`Mlp::train_step`]) and the batch forward pass ([`Mlp::forward`])
/// run on matrices.
///
/// # Examples
///
/// Learn XOR, the classic non-linearly-separable function:
///
/// ```
/// use mlkit::{loss, Adam, Matrix, Mlp, TrainBuffers};
///
/// let mut net = Mlp::<2>::new(1);
/// let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
/// let y = Matrix::from_rows(&[&[0.0], &[1.0], &[1.0], &[0.0]]);
/// let (mut opt, mut bufs) = (Adam::new(0.05), TrainBuffers::default());
/// for _ in 0..500 {
///     net.train_step(&x, &y, &mut opt, &mut bufs);
/// }
/// let output = net.train_step(&x, &y, &mut opt, &mut bufs);
/// assert!(loss::bce(output, y.as_slice()) < 0.05);
/// assert!(net.predict(&[1.0, 0.0]) > 0.8);
/// assert!(net.predict(&[1.0, 1.0]) < 0.2);
/// // One decision is the batch forward pass on one row, bit for bit.
/// assert_eq!(net.predict(&[1.0, 0.0]), net.forward(&Matrix::from_rows(&[&[1.0, 0.0]]))[(0, 0)]);
/// ```
#[derive(Clone, Debug)]
pub struct Mlp<const I: usize> {
    layers: Layers,
    corruption: Option<OutputCorruption>,
}

/// The weights and biases, with nothing that depends on the input width:
/// the training step and the batch forward pass are methods here, so they
/// are compiled once, in this crate, whatever `I` is.
///
/// The widths are set by [`Layers::new`] and nothing changes a layer's size
/// afterwards (`train_step` writes in place, `reinitialize` rebuilds at the
/// same widths).
#[derive(Clone, Debug)]
struct Layers {
    weights: Vec<Matrix>,
    biases: Vec<Vec<f64>>,
    /// Whether every weight is finite, kept by whatever writes the weights
    /// (`new` and `train_step`): single-row inference then needs no masking
    /// of the terms it skips.
    weights_finite: bool,
}

impl<const I: usize> Mlp<I> {
    /// An untrained network, He-initialized from `seed`.
    pub fn new(seed: u64) -> Self {
        Mlp {
            layers: Layers::new(&[I, HIDDEN, HIDDEN, 1], seed),
            corruption: None,
        }
    }

    /// Injects (or with `None` clears) an inference-output corruption.
    ///
    /// While set, [`Mlp::forward`] and [`Mlp::predict`] return the
    /// corrupted value in place of every output element. Training via
    /// [`Mlp::train_step`] is unaffected (it runs the clean forward pass
    /// internally) — see [`OutputCorruption`] for why.
    pub fn set_output_corruption(&mut self, corruption: Option<OutputCorruption>) {
        self.corruption = corruption;
    }

    /// The currently injected output corruption, if any.
    pub fn output_corruption(&self) -> Option<OutputCorruption> {
        self.corruption
    }

    /// Runs a batch forward; `x` is `n x I`, the result `n x 1`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), I, "input width does not match network input");
        let mut acts = Vec::new();
        self.layers.forward_into(x, &mut acts);
        let mut out = acts.pop().expect("at least one layer");
        if let Some(corruption) = self.corruption {
            out.map_inplace(|v| corruption.corrupt(v));
        }
        out
    }

    /// Performs one minibatch training step in `bufs` and returns the
    /// pre-step predictions, row-major, allocating nothing once `bufs` has
    /// grown to the batch.
    ///
    /// The loss value is left to the caller ([`crate::loss::bce`]), who
    /// may want it for only some steps.
    pub fn train_step<'b>(
        &mut self,
        x: &Matrix,
        y: &Matrix,
        opt: &mut dyn Optimizer,
        bufs: &'b mut TrainBuffers,
    ) -> &'b [f64] {
        self.layers.train_step(x, y, opt, bufs)
    }

    /// Re-initializes all weights from a new seed (used by `RETRAIN` flows
    /// that restart training from scratch on fresh data).
    pub fn reinitialize(&mut self, seed: u64) {
        // Corruption models a broken inference *path*, not broken weights —
        // redeploying the model does not fix it.
        *self = Mlp {
            corruption: self.corruption,
            ..Mlp::new(seed)
        };
    }

    /// Predicts for one input row: the same bits as [`Mlp::forward`] on a
    /// one-row matrix, corruption included, without allocating.
    pub fn predict(&self, x: &[f64; I]) -> f64 {
        let out = if self.layers.weights_finite {
            self.forward_one::<false>(x)
        } else {
            self.forward_one::<true>(x)
        };
        self.corruption.map_or(out, |c| c.corrupt(out))
    }

    /// The clean forward pass of one row, the skipped terms masked (`MASK`)
    /// or not.
    #[inline(always)]
    fn forward_one<const MASK: bool>(&self, x: &[f64; I]) -> f64 {
        let (w, b) = (&self.layers.weights, &self.layers.biases);
        let h0 = affine::<MASK, I, HIDDEN>(x, w[0].as_slice(), &b[0]).map(relu);
        let h1 = affine::<MASK, HIDDEN, HIDDEN>(&h0, w[1].as_slice(), &b[1]).map(relu);
        let [z] = affine::<MASK, HIDDEN, 1>(&h1, w[2].as_slice(), &b[2]);
        sigmoid(z)
    }
}

impl Layers {
    /// Layers of the given widths, input first, each weight drawn uniformly
    /// from `±sqrt(2 / fan_in)` (He initialization, for ReLU) and each bias
    /// zero.
    fn new(widths: &[usize], seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for w in widths.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            let scale = (2.0 / fan_in as f64).sqrt();
            let data: Vec<f64> = (0..fan_in * fan_out)
                .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * scale)
                .collect();
            weights.push(Matrix::from_vec(fan_in, fan_out, data));
            biases.push(vec![0.0; fan_out]);
        }
        Layers {
            weights_finite: weights.iter().all(|w| all_finite(w.as_slice())),
            weights,
            biases,
        }
    }

    /// The parameters in the order the optimizer sees them flattened:
    /// every weight matrix, then every bias vector, in layer order.
    fn params_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        let weights = self.weights.iter_mut().map(Matrix::as_mut_slice);
        weights.chain(self.biases.iter_mut().map(Vec::as_mut_slice))
    }

    /// Runs a clean batch forward into `acts`: `acts[l]` becomes layer
    /// `l`'s activations (the input is not copied).
    fn forward_into(&self, x: &Matrix, acts: &mut Vec<Matrix>) {
        acts.resize_with(self.weights.len(), Matrix::default);
        for (l, (w, b)) in self.weights.iter().zip(&self.biases).enumerate() {
            let (done, rest) = acts.split_at_mut(l);
            let input = done.last().unwrap_or(x);
            let z = &mut rest[0];
            input.matmul_into(w, z);
            if l + 1 == self.weights.len() {
                add_and_activate(z.as_mut_slice(), b, sigmoid);
            } else {
                add_and_activate(z.as_mut_slice(), b, relu);
            }
        }
    }

    /// [`Mlp::train_step`].
    fn train_step<'b>(
        &mut self,
        x: &Matrix,
        y: &Matrix,
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
        let weight_count = self
            .weights
            .iter()
            .map(|w| w.rows() * w.cols())
            .sum::<usize>();
        let num_params = weight_count + self.biases.iter().map(Vec::len).sum::<usize>();
        params.resize(num_params, 0.0);
        grads.resize(num_params, 0.0);
        weights_t.resize_with(self.weights.len(), Matrix::default);
        let mut w_end = weight_count;
        let mut b_end = num_params;

        // dL/d(output activations).
        delta.reshape(output.rows(), output.cols());
        bce_gradient(output.as_slice(), y.as_slice(), delta.as_mut_slice());
        for l in (0..self.weights.len()).rev() {
            // Fold in the activation derivative: delta ⊙ act'(a_l), in
            // terms of the activated value.
            let a = acts[l].as_slice();
            if l + 1 == self.weights.len() {
                scale_by(delta.as_mut_slice(), a, |a| a * (1.0 - a));
            } else {
                scale_by(delta.as_mut_slice(), a, |a| if a > 0.0 { 1.0 } else { 0.0 });
            }
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
}

/// Adds `bias` to every row of `z` and applies `f` in place.
fn add_and_activate(z: &mut [f64], bias: &[f64], f: impl Fn(f64) -> f64) {
    if bias.is_empty() {
        return;
    }
    for row in z.chunks_exact_mut(bias.len()) {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v = f(*v + b);
        }
    }
}

/// Multiplies each element of `delta` by `derivative` of the matching
/// activated value in `a`.
fn scale_by(delta: &mut [f64], a: &[f64], derivative: impl Fn(f64) -> f64) {
    for (d, &a) in delta.iter_mut().zip(a) {
        *d *= derivative(a);
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
    use crate::loss::bce;
    use crate::optim::{Adam, Sgd};
    use crate::tensor::reference;
    use crate::tensor::tests::bits;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// A training step in its plainest form, on the reference kernels: an
    /// allocating forward pass that keeps every activation, a loss value
    /// every step, per-element activation, and gradients flattened into
    /// fresh buffers.
    fn reference_train_step<const I: usize>(
        net: &mut Mlp<I>,
        x: &Matrix,
        y: &Matrix,
        opt: &mut dyn Optimizer,
    ) -> f64 {
        let net = &mut net.layers;
        let last = net.weights.len() - 1;
        let mut acts = vec![x.clone()];
        for (l, (w, b)) in net.weights.iter().zip(&net.biases).enumerate() {
            let mut z = reference::matmul(acts.last().unwrap(), w);
            for r in 0..z.rows() {
                for (v, &b) in z.row_mut(r).iter_mut().zip(b) {
                    *v += b;
                }
            }
            z.map_inplace(if l == last { sigmoid } else { relu });
            acts.push(z);
        }
        let output = acts.last().unwrap();
        let loss_value = bce(output.as_slice(), y.as_slice());
        let mut delta = Matrix::zeros(output.rows(), output.cols());
        bce_gradient(output.as_slice(), y.as_slice(), delta.as_mut_slice());
        let mut w_grads = Vec::new();
        let mut b_grads = Vec::new();
        for l in (0..net.weights.len()).rev() {
            for (d, &a) in delta.as_mut_slice().iter_mut().zip(acts[l + 1].as_slice()) {
                *d *= match (l == last, a > 0.0) {
                    (true, _) => a * (1.0 - a),
                    (false, true) => 1.0,
                    (false, false) => 0.0,
                };
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
    fn param_bits<const I: usize>(net: &Mlp<I>) -> Vec<u64> {
        let weights = net.layers.weights.iter().flat_map(|w| w.as_slice());
        let biases = net.layers.biases.iter().flatten();
        bits(&weights.chain(biases).copied().collect::<Vec<_>>())
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
        let mut net = Mlp::<2>::new(3);
        let (mut opt, mut bufs) = (Adam::new(0.05), TrainBuffers::default());
        let first = bce(net.train_step(&x, &y, &mut opt, &mut bufs), y.as_slice());
        for _ in 0..1500 {
            net.train_step(&x, &y, &mut opt, &mut bufs);
        }
        let last = bce(net.train_step(&x, &y, &mut opt, &mut bufs), y.as_slice());
        assert!(last < first * 0.2, "first {first} last {last}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, b) = (Mlp::<4>::new(42), Mlp::<4>::new(42));
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(a.predict(&x).to_bits(), b.predict(&x).to_bits());
    }

    #[test]
    fn linnos_shape_matches_paper() {
        let net = Mlp::<5>::new(0);
        let shapes: Vec<_> = net
            .layers
            .weights
            .iter()
            .map(|w| (w.rows(), w.cols()))
            .collect();
        assert_eq!(shapes, [(5, 16), (16, 16), (16, 1)]);
        let biases: Vec<_> = net.layers.biases.iter().map(Vec::len).collect();
        assert_eq!(biases, [16, 16, 1]);
        let out = net.predict(&[0.0; 5]);
        assert!(out > 0.0 && out < 1.0, "sigmoid output in (0,1)");
    }

    #[test]
    fn reinitialize_changes_outputs() {
        let mut net = Mlp::<4>::new(1);
        let before = net.predict(&[1.0, 0.5, 0.2, 0.9]);
        net.reinitialize(999);
        let after = net.predict(&[1.0, 0.5, 0.2, 0.9]);
        assert_ne!(before, after);
    }

    #[test]
    fn output_corruption_poisons_inference_but_not_training() {
        let (x, y) = xor_data();
        let mut net = Mlp::<2>::new(5);
        assert_eq!(net.output_corruption(), None);

        net.set_output_corruption(Some(OutputCorruption::Nan));
        assert!(net.predict(&[0.0, 1.0]).is_nan());
        net.set_output_corruption(Some(OutputCorruption::Inf));
        assert!(net.predict(&[0.0, 1.0]).is_infinite());
        net.set_output_corruption(Some(OutputCorruption::OutOfRange));
        let oor = net.predict(&[0.0, 1.0]);
        assert!(
            oor.is_finite() && oor > 1.0,
            "out of a sigmoid's range: {oor}"
        );

        // Training runs the clean forward pass: loss stays finite, and the
        // corruption survives a RETRAIN-style reinitialization.
        let mut bufs = TrainBuffers::default();
        let output = net.train_step(&x, &y, &mut Adam::new(0.01), &mut bufs);
        let loss = bce(output, y.as_slice());
        assert!(loss.is_finite(), "training unaffected, loss {loss}");
        net.reinitialize(123);
        assert_eq!(net.output_corruption(), Some(OutputCorruption::OutOfRange));

        net.set_output_corruption(None);
        let healthy = net.predict(&[0.0, 1.0]);
        assert!(
            healthy > 0.0 && healthy < 1.0,
            "clean sigmoid output: {healthy}"
        );
    }

    /// The flag that lets inference skip masking follows the weights: a
    /// step that makes them infinite or NaN clears it, and inference then
    /// still matches the batch forward pass.
    #[test]
    fn diverged_weights_are_tracked_and_still_predict_like_forward() {
        let (x, y) = xor_data();
        let mut net = Mlp::<2>::new(5);
        let mut bufs = TrainBuffers::default();
        assert!(net.layers.weights_finite);
        net.train_step(&x, &y, &mut Sgd::new(0.1), &mut bufs);
        assert!(net.layers.weights_finite);
        net.train_step(&x, &y, &mut Sgd::new(f64::INFINITY), &mut bufs);
        assert!(
            !net.layers.weights_finite,
            "an infinite step leaves no finite net"
        );
        for row in [[0.0, 1.0], [0.0, 0.0], [1.0, 0.5]] {
            let batch = net.forward(&Matrix::from_rows(&[&row]));
            assert_eq!(bits(&[net.predict(&row)]), bits(batch.row(0)));
        }
    }

    #[test]
    #[should_panic(expected = "input width")]
    fn input_width_checked() {
        let net = Mlp::<4>::new(1);
        let _ = net.forward(&Matrix::from_rows(&[&[1.0, 2.0]]));
    }

    #[test]
    fn activation_derivatives_match_finite_differences() {
        for x in [-1.5, -0.2, 0.4, 2.0] {
            let a = sigmoid(x);
            let eps = 1e-6;
            let fd = (sigmoid(x + eps) - sigmoid(x - eps)) / (2.0 * eps);
            assert!((a * (1.0 - a) - fd).abs() < 1e-5, "sigmoid at {x}");
        }
        // ReLU away from the kink, the derivative `train_step` uses.
        let mut delta = [1.0, 1.0];
        scale_by(&mut delta, &[relu(2.0), relu(-2.0)], |a| {
            if a > 0.0 {
                1.0
            } else {
                0.0
            }
        });
        assert_eq!(delta, [1.0, 0.0]);
    }

    /// Five Adam steps of `train_step` through one reused set of buffers ≡
    /// five steps of the reference, bit for bit: every loss and every
    /// weight after, on an `I`-input net from `seed` and a `rows`-row batch
    /// with exact zeros.
    fn train_step_matches_reference<const I: usize>(
        seed: u64,
        rows: usize,
        draws: &[(u8, f64)],
        targets: &[f64],
    ) {
        let x = Matrix::from_vec(rows, I, input_row(draws, rows * I));
        let y = Matrix::from_vec(rows, 1, targets[..rows].to_vec());
        let (mut expected, mut stepped) = (Mlp::<I>::new(seed), Mlp::<I>::new(seed));
        let (mut opt_e, mut opt_s) = (Adam::new(0.05), Adam::new(0.05));
        let mut bufs = TrainBuffers::default();
        for _ in 0..5 {
            let want = reference_train_step(&mut expected, &x, &y, &mut opt_e).to_bits();
            let output = stepped.train_step(&x, &y, &mut opt_s, &mut bufs);
            assert_eq!(bce(output, y.as_slice()).to_bits(), want);
        }
        assert_eq!(param_bits(&stepped), param_bits(&expected));
    }

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

    /// An `Mlp<I>` with its parameters from `params` (made finite for
    /// `mode` 1 and 2; `mode` 2 also clears the finite flag, which is
    /// always correct) predicts each `I`-wide row of `inputs` as its batch
    /// forward pass does.
    fn predict_matches_forward<const I: usize>(
        seed: u64,
        corruption: Option<OutputCorruption>,
        mode: usize,
        params: &[(u32, f64)],
        inputs: &[(u8, f64)],
    ) {
        let mut net = Mlp::<I>::new(seed);
        let mut draws = params.iter().map(|&d| match param(d) {
            v if mode > 0 && !v.is_finite() => 0.5,
            v => v,
        });
        let layers = &mut net.layers;
        for p in layers.params_mut() {
            p.fill_with(|| draws.next().expect("a draw per parameter"));
        }
        layers.weights_finite =
            mode != 2 && layers.weights.iter().all(|w| all_finite(w.as_slice()));
        net.set_output_corruption(corruption);
        for x in inputs.chunks_exact(I) {
            let x: [f64; I] = std::array::from_fn(|i| crate::tensor::tests::element(x[i]));
            let batch = net.forward(&Matrix::from_rows(&[&x]));
            assert_eq!(bits(&[net.predict(&x)]), bits(batch.row(0)), "input {x:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `train_step` ≡ the reference step (see
        /// `train_step_matches_reference`) at LinnOS's input width, one
        /// input and twenty, on random batches of up to twenty rows.
        #[test]
        fn train_step_matches_reference_step(
            rows in 1usize..21,
            seed in 0u64..1_000_000,
            draws in vec((0u8..4, -3.0..3.0f64), 400),
            targets in vec(0.0..1.0f64, 20),
        ) {
            train_step_matches_reference::<5>(seed, rows, &draws, &targets);
            train_step_matches_reference::<1>(seed, rows, &draws, &targets);
            train_step_matches_reference::<20>(seed, rows, &draws, &targets);
        }

        /// One decision ≡ the batch forward pass's first row, bit for bit
        /// (NaN as NaN), at LinnOS's input width and an odd one, with and
        /// without each output corruption: on random weights and biases
        /// that hold signed zeros, subnormals and now and then a NaN or an
        /// infinity (the masked path; ReLU zeros often mask it), or only
        /// finite values with the finite flag set (the unmasked path) or
        /// cleared; on inputs with signed zeros, subnormals, NaN and
        /// infinities.
        #[test]
        fn predict_matches_batch_forward(
            corruption in 0usize..4,
            mode in 0usize..3,
            seed in 0u64..1_000_000,
            params in vec((0u32..600, -3.0..3.0f64), 5 * 16 + 16 * 16 + 16 + 16 + 16 + 1),
            inputs in vec((0u8..64, -3.0..3.0f64), 4 * 5),
        ) {
            let corruption = CORRUPTIONS[corruption];
            predict_matches_forward::<5>(seed, corruption, mode, &params, &inputs);
            predict_matches_forward::<3>(seed, corruption, mode, &params, &inputs);
        }
    }
}
