//! The learned admission policy (TinyLFU-flavoured).

use std::collections::HashMap;

use mlkit::{LogisticRegression, Sgd};

/// Learned admission: on a miss, decide whether the key deserves a cache
/// slot, from a logistic model over `[frequency, recency]` features.
///
/// Trained online during a warmup window against observed reuse, then
/// frozen. On the training distribution it filters one-shot scan keys out
/// (beating admit-always LRU); after a key-space shift every key looks like
/// a never-seen scan key, it rejects nearly everything, and the hit rate
/// sinks below even the random baseline — the P4 violation.
#[derive(Debug)]
pub struct LearnedAdmission {
    model: LogisticRegression,
    optimizer: Sgd,
    /// Decayed per-key access counts (a tiny count-min stand-in).
    counts: HashMap<u64, (f64, u64)>,
    tick: u64,
    frozen: bool,
}

impl Default for LearnedAdmission {
    fn default() -> Self {
        Self::new()
    }
}

impl LearnedAdmission {
    /// Creates an untrained policy.
    pub fn new() -> Self {
        LearnedAdmission {
            model: LogisticRegression::new(2),
            optimizer: Sgd::new(0.1),
            counts: HashMap::new(),
            tick: 0,
            frozen: false,
        }
    }

    /// Records an access and returns the key's features
    /// `[log1p(decayed_count), min(gap/1000, 10)]`.
    pub fn observe(&mut self, key: u64) -> [f64; 2] {
        self.tick += 1;
        let entry = self.counts.entry(key).or_insert((0.0, self.tick));
        let gap = self.tick - entry.1;
        entry.0 = entry.0 * 0.5f64.powf(gap as f64 / 8192.0) + 1.0;
        entry.1 = self.tick;
        [entry.0.ln_1p(), (gap as f64 / 1_000.0).min(10.0)]
    }

    /// Trains on one example: did admitting a key with `features` pay off
    /// (was it re-accessed soon)?
    pub fn train(&mut self, features: &[f64; 2], reused: bool) {
        if self.frozen {
            return;
        }
        self.model.train_one(
            features,
            if reused { 1.0 } else { 0.0 },
            &mut self.optimizer,
        );
    }

    /// Freezes training (the model ships).
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Whether the model is frozen.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Should the key with `features` be admitted?
    pub fn admit(&self, features: &[f64; 2]) -> bool {
        self.model.predict(features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_to_reject_one_shot_keys() {
        let mut p = LearnedAdmission::new();
        // Hot keys: frequent, small gaps → reused. Scan keys: fresh → not.
        for _ in 0..3000 {
            p.train(&[2.5, 0.05], true);
            p.train(&[0.69, 10.0], false); // ln1p(1) ≈ 0.69, huge gap.
        }
        p.freeze();
        assert!(p.admit(&[2.5, 0.05]));
        assert!(!p.admit(&[0.69, 10.0]));
    }

    #[test]
    fn observe_builds_frequency_and_recency() {
        let mut p = LearnedAdmission::new();
        let first = p.observe(42);
        assert!(
            (first[0] - 1f64.ln_1p()).abs() < 1e-12,
            "first access count 1"
        );
        for _ in 0..5 {
            p.observe(42);
        }
        let later = p.observe(42);
        assert!(later[0] > first[0], "frequency grows");
        assert!(later[1] < 0.01, "tight gaps");
        // A cold key after a long gap.
        p.observe(7);
        for _ in 0..5000 {
            p.observe(42);
        }
        let cold = p.observe(7);
        assert!(cold[1] > 4.0, "large gap feature: {}", cold[1]);
    }

    #[test]
    fn frozen_model_stops_learning() {
        let mut p = LearnedAdmission::new();
        p.train(&[2.0, 0.1], true);
        p.freeze();
        assert!(p.is_frozen());
        let before = p.model.predict_proba(&[2.0, 0.1]);
        for _ in 0..100 {
            p.train(&[2.0, 0.1], false);
        }
        assert_eq!(p.model.predict_proba(&[2.0, 0.1]), before);
    }
}
