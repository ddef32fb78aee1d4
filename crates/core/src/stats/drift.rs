//! The P1 drift detector: reference snapshot vs. live window, published to
//! the feature store.

use std::collections::VecDeque;

use simkernel::Nanos;

use crate::stats::ks::{ks_critical, ks_statistic};
use crate::stats::psi::psi;
use crate::stats::reservoir::Reservoir;
use crate::store::FeatureStore;

/// Tracks one feature's training-time distribution and scores live inputs
/// against it.
///
/// Usage pattern (the P1 recipe from §3.1):
///
/// 1. During training, feed every input through [`DriftDetector::observe_reference`].
/// 2. [`DriftDetector::freeze`] the reference when the model ships.
/// 3. On the inference path, feed live inputs through
///    [`DriftDetector::observe_live`].
/// 4. Periodically call [`DriftDetector::publish`]; it computes KS/PSI scores
///    and writes them to the feature store under `<prefix>.ks`, `<prefix>.psi`
///    and `<prefix>.oob_fraction`, where a declarative guardrail rule (e.g.
///    `LOAD(io_model.input.psi) <= 0.25`) can bound them.
///
/// # Examples
///
/// ```
/// use guardrails::stats::DriftDetector;
/// use guardrails::FeatureStore;
///
/// let mut d = DriftDetector::new("io_model.input", 256, 7);
/// for i in 0..1000 {
///     d.observe_reference((i % 50) as f64);
/// }
/// d.freeze();
/// for i in 0..500 {
///     d.observe_live((i % 50) as f64 + 200.0); // Shifted!
/// }
/// let store = FeatureStore::new();
/// d.publish(&store, simkernel::Nanos::ZERO);
/// assert!(store.load("io_model.input.psi").unwrap() > 0.25);
/// assert!(d.is_drifted(0.05));
/// ```
#[derive(Clone, Debug)]
pub struct DriftDetector {
    prefix: String,
    reference: Reservoir,
    frozen: bool,
    live: VecDeque<f64>,
    live_capacity: usize,
    ref_min: f64,
    ref_max: f64,
    live_oob: u64,
    live_total: u64,
}

impl DriftDetector {
    /// Creates a detector publishing under `prefix`, holding `capacity`
    /// reference samples and the same number of live samples.
    pub fn new(prefix: &str, capacity: usize, seed: u64) -> Self {
        DriftDetector {
            prefix: prefix.to_string(),
            reference: Reservoir::new(capacity, seed),
            frozen: false,
            live: VecDeque::new(),
            live_capacity: capacity.max(1),
            ref_min: f64::INFINITY,
            ref_max: f64::NEG_INFINITY,
            live_oob: 0,
            live_total: 0,
        }
    }

    /// Adds a training-time input to the reference snapshot.
    ///
    /// Ignored (with no effect) after [`DriftDetector::freeze`]; the
    /// reference is immutable once the model ships.
    pub fn observe_reference(&mut self, x: f64) {
        if self.frozen || !x.is_finite() {
            return;
        }
        self.reference.push(x);
        self.ref_min = self.ref_min.min(x);
        self.ref_max = self.ref_max.max(x);
    }

    /// Freezes the reference snapshot.
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Returns `true` once the reference is frozen.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Adds a live (inference-time) input to the sliding window.
    pub fn observe_live(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.live.push_back(x);
        if self.live.len() > self.live_capacity {
            self.live.pop_front();
        }
        self.live_total += 1;
        if x < self.ref_min || x > self.ref_max {
            self.live_oob += 1;
        }
    }

    fn live_slice(&self) -> Vec<f64> {
        self.live.iter().copied().collect()
    }

    /// The current KS statistic between reference and live window.
    pub fn ks(&self) -> f64 {
        ks_statistic(self.reference.samples(), &self.live_slice())
    }

    /// The current PSI between reference and live window.
    pub fn psi(&self) -> f64 {
        psi(self.reference.samples(), &self.live_slice(), 10)
    }

    /// Fraction of live inputs outside the reference range (the cheap
    /// range check the paper mentions alongside quartiles).
    pub fn oob_fraction(&self) -> f64 {
        if self.live_total == 0 {
            0.0
        } else {
            self.live_oob as f64 / self.live_total as f64
        }
    }

    /// Statistical drift decision: `true` when the KS statistic exceeds the
    /// critical value at significance `alpha`.
    pub fn is_drifted(&self, alpha: f64) -> bool {
        let d = self.ks();
        d > ks_critical(alpha, self.reference.len(), self.live.len())
    }

    /// Publishes `<prefix>.ks`, `<prefix>.psi`, and `<prefix>.oob_fraction`
    /// to the feature store (and records `<prefix>.psi` as a series so
    /// rules can aggregate it over time).
    pub fn publish(&self, store: &FeatureStore, now: Nanos) {
        store.save(&format!("{}.ks", self.prefix), self.ks());
        let psi_value = self.psi();
        store.save(&format!("{}.psi", self.prefix), psi_value);
        store.record(&format!("{}.psi_series", self.prefix), now, psi_value);
        store.save(
            &format!("{}.oob_fraction", self.prefix),
            self.oob_fraction(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained_detector() -> DriftDetector {
        let mut d = DriftDetector::new("m", 200, 3);
        for i in 0..2000 {
            d.observe_reference((i % 100) as f64);
        }
        d.freeze();
        d
    }

    #[test]
    fn no_drift_on_same_distribution() {
        let mut d = trained_detector();
        for i in 0..500 {
            d.observe_live(((i * 13) % 100) as f64);
        }
        assert!(!d.is_drifted(0.01), "ks = {}", d.ks());
        assert!(d.psi() < 0.1, "psi = {}", d.psi());
        assert_eq!(d.oob_fraction(), 0.0);
    }

    #[test]
    fn detects_mean_shift() {
        let mut d = trained_detector();
        for i in 0..500 {
            d.observe_live((i % 100) as f64 + 300.0);
        }
        assert!(d.is_drifted(0.01));
        assert!(d.psi() > 0.25);
        assert!(d.oob_fraction() > 0.9);
    }

    #[test]
    fn reference_is_immutable_after_freeze() {
        let mut d = trained_detector();
        let before = d.ks();
        d.observe_reference(1e9);
        assert_eq!(d.ks(), before);
        assert!(d.is_frozen());
    }

    #[test]
    fn publish_writes_keys() {
        let mut d = trained_detector();
        for i in 0..100 {
            d.observe_live((i % 100) as f64);
        }
        let store = FeatureStore::new();
        d.publish(&store, Nanos::from_secs(1));
        assert!(store.load("m.ks").is_some());
        assert!(store.load("m.psi").is_some());
        assert!(store.load("m.oob_fraction").is_some());
        assert_eq!(store.load("m.psi_series"), store.load("m.psi"));
    }

    #[test]
    fn empty_live_window_is_not_drifted() {
        let d = trained_detector();
        assert!(!d.is_drifted(0.01));
        assert_eq!(d.psi(), 0.0);
        assert_eq!(d.oob_fraction(), 0.0);
    }
}
