//! The LinnOS-style learned I/O latency classifier.
//!
//! LinnOS trains "a light neural network" per device over cheap host-visible
//! features — the current queue depth and the latencies of the most recent
//! completed I/Os — to predict whether the *next* I/O will be fast or slow.
//! This module reproduces that model with [`mlkit`]'s MLP (the same
//! `features → 16 → 16 → 1` shape), trained online from completion feedback.

use guardrails::policy::LearnedPolicy;
use mlkit::{
    Adam, InferenceBuffers, Loss, Matrix, Mlp, MlpConfig, OnlineScaler, OutputCorruption,
    ReplayBuffer, TrainBuffers,
};
use simkernel::Nanos;

use crate::array::SubmitOutcome;

/// Number of model features: queue depth + 4-deep latency history.
pub const NUM_FEATURES: usize = 5;

/// Configuration of the classifier.
#[derive(Clone, Copy, Debug)]
pub struct LinnosConfig {
    /// Latency above which an I/O counts as "slow" (ground-truth label and
    /// false-submit threshold).
    pub slow_threshold: Nanos,
    /// Replay buffer capacity.
    pub buffer: usize,
    /// Minibatch size per training round.
    pub batch: usize,
    /// Training rounds per `train_round` call.
    pub epochs: usize,
    /// Decision threshold on the predicted slow-probability.
    pub decision_threshold: f64,
    /// Weight-init / sampling seed.
    pub seed: u64,
}

impl Default for LinnosConfig {
    fn default() -> Self {
        LinnosConfig {
            slow_threshold: Nanos::from_micros(300),
            buffer: 8192,
            batch: 128,
            epochs: 60,
            decision_threshold: 0.3,
            seed: 0x0011_a905,
        }
    }
}

/// What a training round reuses from one minibatch to the next: the
/// sampled replay positions, the standardized batch and its labels, and the
/// network's training buffers.
#[derive(Clone, Debug, Default)]
struct TrainScratch {
    indices: Vec<usize>,
    x: Matrix,
    y: Matrix,
    bufs: TrainBuffers,
}

/// The learned fast/slow classifier.
///
/// One decision ([`LinnosClassifier::predict_slow`]) and one completion
/// ([`LinnosClassifier::observe`]) allocate nothing once the classifier has
/// served its first inference: the z-scores and the network's activation
/// rows live in buffers it owns, and the replay buffer is a flat ring.
///
/// # Examples
///
/// ```
/// use storagesim::{LinnosClassifier, LinnosConfig};
///
/// let mut clf = LinnosClassifier::new(LinnosConfig::default());
/// // Teach it "deep queue means slow".
/// for i in 0..2000 {
///     let deep = i % 2 == 0;
///     let features = if deep { [30.0, 400.0, 380.0, 420.0, 390.0] } else { [0.5, 95.0, 88.0, 92.0, 90.0] };
///     clf.observe(&features, deep);
/// }
/// clf.train_round();
/// assert!(clf.predict_slow(&[30.0, 400.0, 380.0, 420.0, 390.0]));
/// assert!(!clf.predict_slow(&[0.5, 95.0, 88.0, 92.0, 90.0]));
/// ```
#[derive(Clone, Debug)]
pub struct LinnosClassifier {
    config: LinnosConfig,
    net: Mlp,
    scaler: OnlineScaler,
    buffer: ReplayBuffer,
    optimizer: Adam,
    /// Scratch for one inference: the z-scored features, then the
    /// network's activation rows.
    z: [f64; NUM_FEATURES],
    rows: InferenceBuffers,
    /// Scratch for [`LinnosClassifier::train_round`], grown on its first
    /// call (not here, so a classifier that never trains never holds it).
    train: TrainScratch,
    trained: bool,
    inferences: u64,
    dropped_rows: u64,
    retrains: u64,
}

impl LinnosClassifier {
    /// Creates an untrained classifier.
    pub fn new(config: LinnosConfig) -> Self {
        LinnosClassifier {
            net: Mlp::new(MlpConfig::linnos(NUM_FEATURES, config.seed)),
            scaler: OnlineScaler::new(NUM_FEATURES),
            buffer: ReplayBuffer::new(config.buffer),
            optimizer: Adam::new(0.005),
            z: [0.0; NUM_FEATURES],
            rows: InferenceBuffers::default(),
            train: TrainScratch::default(),
            trained: false,
            inferences: 0,
            dropped_rows: 0,
            retrains: 0,
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &LinnosConfig {
        &self.config
    }

    /// Records a completed I/O's features and ground-truth label.
    ///
    /// A row with a non-finite feature is dropped (and counted in
    /// [`LinnosClassifier::dropped_rows`]) before it reaches the scaler or
    /// the replay buffer: one NaN would turn the running mean NaN for good,
    /// and with it every z-score the model is trained on and queried with.
    pub fn observe(&mut self, features: &[f64; NUM_FEATURES], was_slow: bool) {
        if !features.iter().all(|f| f.is_finite()) {
            self.dropped_rows += 1;
            return;
        }
        self.scaler.observe(features);
        self.buffer.push(features, if was_slow { 1.0 } else { 0.0 });
    }

    /// Learns from one completed submission. An I/O its primary served is
    /// labelled by its own latency; a revoked one only by a hedged probe of
    /// the primary, when one ran (otherwise its counterfactual is unseen
    /// and it yields no row).
    pub fn observe_outcome(&mut self, outcome: &SubmitOutcome) {
        let label = if outcome.served_by == outcome.primary {
            Some(outcome.was_slow)
        } else {
            outcome.probe_was_slow
        };
        if let Some(was_slow) = label {
            self.observe(&outcome.features, was_slow);
        }
    }

    /// Runs one training round over replay-buffer minibatches.
    ///
    /// Returns the final minibatch loss, or `None` when the buffer is empty.
    /// Once a first round has grown the classifier's training scratch, a
    /// round allocates nothing, however many epochs it runs.
    pub fn train_round(&mut self) -> Option<f64> {
        if self.buffer.is_empty() {
            return None;
        }
        // The scaler does not change during a round: read its statistics
        // once and standardize each sampled row straight into the batch.
        let mean = self.scaler.mean();
        let std: [f64; NUM_FEATURES] = std::array::from_fn(|i| self.scaler.std_dev(i));
        let TrainScratch {
            indices,
            x,
            y,
            bufs,
        } = &mut self.train;
        if x.rows() != self.config.batch {
            *x = Matrix::zeros(self.config.batch, NUM_FEATURES);
            *y = Matrix::zeros(self.config.batch, 1);
        }
        let mut last = None;
        for epoch in 0..self.config.epochs {
            self.buffer.sample_into(
                self.config.batch,
                self.config.seed ^ (epoch as u64) ^ self.retrains,
                indices,
            );
            for (r, &i) in indices.iter().enumerate() {
                let (features, label) = self.buffer.get(i);
                for (j, (z, &v)) in x.row_mut(r).iter_mut().zip(features).enumerate() {
                    *z = (v - mean[j]) / std[j];
                }
                y[(r, 0)] = label;
            }
            let output = self
                .net
                .train_step(x, y, Loss::Bce, &mut self.optimizer, bufs);
            // Only the last minibatch's loss is returned: the others are
            // never computed (each costs two logarithms per row).
            if epoch + 1 == self.config.epochs {
                last = Some(Loss::Bce.value(output, y.as_slice()));
            }
        }
        self.trained = true;
        last
    }

    /// Predicted probability that the next I/O is slow (0.0 untrained —
    /// an untrained model optimistically predicts fast, like LinnOS before
    /// its first training round).
    pub fn predict_proba(&mut self, features: &[f64; NUM_FEATURES]) -> f64 {
        self.inferences += 1;
        if !self.trained {
            return 0.0;
        }
        self.scaler.transform_into(features, &mut self.z);
        self.net.predict_into(&self.z, &mut self.rows)[0]
    }

    /// Hard fast/slow decision.
    pub fn predict_slow(&mut self, features: &[f64; NUM_FEATURES]) -> bool {
        self.predict_proba(features) >= self.config.decision_threshold
    }

    /// Injects (or clears) an inference-output corruption on the underlying
    /// network — the chaos harness's poisoned-model fault. Only trained
    /// models are affected: the untrained fast-path shortcut in
    /// [`LinnosClassifier::predict_proba`] never touches the network.
    pub fn set_output_corruption(&mut self, corruption: Option<OutputCorruption>) {
        self.net.set_output_corruption(corruption);
    }

    /// The currently injected output corruption, if any.
    pub fn output_corruption(&self) -> Option<OutputCorruption> {
        self.net.output_corruption()
    }

    /// Whether at least one training round has run.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// Total inferences served.
    pub fn inferences(&self) -> u64 {
        self.inferences
    }

    /// Observed rows dropped for a non-finite feature.
    pub fn dropped_rows(&self) -> u64 {
        self.dropped_rows
    }

    /// Total retrains performed.
    pub fn retrains(&self) -> u64 {
        self.retrains
    }

    /// Full retrain: reinitializes the network and retrains on the current
    /// buffer contents (the `RETRAIN` action's implementation).
    pub fn retrain(&mut self) {
        self.retrains += 1;
        self.net
            .reinitialize(self.config.seed ^ (0x5eed << 8) ^ self.retrains);
        self.optimizer = Adam::new(0.005);
        self.train_round();
    }
}

impl LearnedPolicy for LinnosClassifier {
    fn decide(&mut self, features: &[f64]) -> f64 {
        let mut f = [0.0; NUM_FEATURES];
        f.copy_from_slice(&features[..NUM_FEATURES]);
        self.predict_proba(&f)
    }

    fn inference_cost(&self) -> u64 {
        // A 5-16-16-1 MLP in fixed point: ~4µs on the paper's testbed scale.
        4_000
    }

    fn retrain(&mut self) {
        LinnosClassifier::retrain(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_features(i: u64) -> [f64; NUM_FEATURES] {
        let wiggle = (i % 7) as f64;
        [0.2 + wiggle * 0.1, 90.0 + wiggle, 88.0, 92.0, 89.0]
    }

    fn slow_features(i: u64) -> [f64; NUM_FEATURES] {
        let wiggle = (i % 5) as f64;
        [20.0 + wiggle, 900.0 + wiggle * 10.0, 850.0, 1100.0, 950.0]
    }

    fn trained() -> LinnosClassifier {
        let mut clf = LinnosClassifier::new(LinnosConfig::default());
        for i in 0..3000 {
            if i % 2 == 0 {
                clf.observe(&fast_features(i), false);
            } else {
                clf.observe(&slow_features(i), true);
            }
        }
        clf.train_round();
        clf
    }

    #[test]
    fn untrained_model_predicts_fast() {
        let mut clf = LinnosClassifier::new(LinnosConfig::default());
        assert!(!clf.is_trained());
        assert_eq!(clf.predict_proba(&fast_features(0)), 0.0);
        assert!(!clf.predict_slow(&slow_features(0)));
    }

    #[test]
    fn learns_queue_latency_separation() {
        let mut clf = trained();
        let mut correct = 0;
        for i in 0..200 {
            if clf.predict_slow(&slow_features(i)) {
                correct += 1;
            }
            if !clf.predict_slow(&fast_features(i)) {
                correct += 1;
            }
        }
        assert!(correct >= 360, "accuracy {correct}/400");
        assert!(clf.is_trained());
        assert!(clf.inferences() >= 400);
    }

    #[test]
    fn train_round_on_empty_buffer_is_none() {
        let mut clf = LinnosClassifier::new(LinnosConfig::default());
        assert_eq!(clf.train_round(), None);
    }

    #[test]
    fn retrain_recovers_from_label_flip() {
        let mut clf = trained();
        // The world inverts: old "fast" features now mean slow. Refill the
        // buffer with the new truth and retrain.
        for i in 0..6000 {
            if i % 2 == 0 {
                clf.observe(&fast_features(i), true);
            } else {
                clf.observe(&slow_features(i), false);
            }
        }
        clf.retrain();
        assert_eq!(clf.retrains(), 1);
        let mut correct = 0;
        for i in 0..100 {
            if clf.predict_slow(&fast_features(i)) {
                correct += 1;
            }
        }
        assert!(correct > 80, "post-retrain accuracy {correct}/100");
    }

    const DEEP: [f64; NUM_FEATURES] = [30.0, 400.0, 380.0, 420.0, 390.0];
    const SHALLOW: [f64; NUM_FEATURES] = [0.5, 95.0, 88.0, 92.0, 90.0];

    /// The type-level doc example's history: 2000 rows alternating a deep
    /// (slow) and a shallow (fast) queue.
    fn doc_history() -> LinnosClassifier {
        let mut clf = LinnosClassifier::new(LinnosConfig::default());
        for i in 0..2000 {
            let deep = i % 2 == 0;
            clf.observe(if deep { &DEEP } else { &SHALLOW }, deep);
        }
        clf
    }

    /// Bits of `train_round`'s loss and of the two doc-example predictions.
    fn trained_bits(mut clf: LinnosClassifier) -> (u64, u64, u64) {
        let loss = clf.train_round().expect("a non-empty buffer trains");
        (
            loss.to_bits(),
            clf.predict_proba(&DEEP).to_bits(),
            clf.predict_proba(&SHALLOW).to_bits(),
        )
    }

    /// Pins the doc example's training loss and predictions to the bits
    /// the classifier produced before inference and training stopped
    /// allocating: the in-place paths must not move a single bit.
    #[test]
    fn doc_history_trains_to_pinned_bits() {
        assert_eq!(
            trained_bits(doc_history()),
            (
                0x3f95_7109_55a4_2487,
                0x3fee_b9ba_cf98_6d21,
                0x3f65_c361_5a7e_217d
            )
        );
    }

    /// History plus one NaN row ≡ history: the row is dropped before it
    /// can poison the scaler (it used to leave a ln 2 loss and a 0.5014
    /// slow-probability for every input, so every I/O failed over).
    #[test]
    fn a_non_finite_row_does_not_poison_training() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut clf = doc_history();
            clf.observe(&[bad, 95.0, 88.0, 92.0, 90.0], false);
            clf.observe(&[30.0, 400.0, 380.0, bad, 390.0], true);
            assert_eq!(clf.dropped_rows(), 2);
            assert_eq!(trained_bits(clf), trained_bits(doc_history()), "{bad}");
        }
    }

    /// A submission served by its primary is labelled by its own latency,
    /// a revoked one by its hedged probe, and a revoked one without a probe
    /// adds no row.
    #[test]
    fn outcomes_are_labelled_by_the_device_that_saw_them() {
        let outcome = |served_by, was_slow, probe_was_slow| SubmitOutcome {
            latency: Nanos::from_micros(100),
            primary: 0,
            served_by,
            predicted_slow: served_by != 0,
            features: DEEP,
            was_slow,
            false_submit: false,
            probe_was_slow,
        };
        let mut clf = LinnosClassifier::new(LinnosConfig::default());
        clf.observe_outcome(&outcome(0, true, None));
        assert_eq!(clf.buffer.len(), 1);
        assert_eq!(clf.buffer.get(0), (&DEEP[..], 1.0), "served: was_slow");
        clf.observe_outcome(&outcome(1, true, Some(false)));
        assert_eq!(clf.buffer.len(), 2);
        assert_eq!(clf.buffer.get(1), (&DEEP[..], 0.0), "revoked: the probe");
        clf.observe_outcome(&outcome(1, false, None));
        assert_eq!(clf.buffer.len(), 2, "revoked without a probe: no row");
    }

    #[test]
    fn learned_policy_trait_roundtrip() {
        let mut clf = trained();
        let p = LearnedPolicy::decide(&mut clf, &slow_features(0));
        assert!(p > 0.5);
        assert!(clf.inference_cost() > 0);
    }
}
