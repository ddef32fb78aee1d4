//! A bounded replay buffer for retraining.
//!
//! The `RETRAIN` action (A3) retrains a model "with new out-of-distribution
//! data" collected online. The buffer keeps the most recent examples up to a
//! capacity bound, so retraining sees the *current* distribution.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A fixed-capacity FIFO of `(features, label)` training examples.
///
/// The examples live in one row-major ring: every row has the width of the
/// first one pushed, and the ring's storage is allocated on that first push
/// (not in [`ReplayBuffer::new`]), after which pushing never allocates.
///
/// # Examples
///
/// ```
/// use mlkit::ReplayBuffer;
///
/// let mut buf = ReplayBuffer::new(2);
/// buf.push(&[1.0], 0.0);
/// buf.push(&[2.0], 1.0);
/// buf.push(&[3.0], 1.0); // Evicts the oldest.
/// assert_eq!(buf.len(), 2);
/// assert_eq!(buf.iter().next().unwrap().0, &[2.0]);
/// ```
#[derive(Clone, Debug)]
pub struct ReplayBuffer {
    capacity: usize,
    /// Features per row, fixed by the first push.
    width: usize,
    /// `labels.len()` rows back to back; appended until the ring is full,
    /// then overwritten in place from the oldest.
    rows: Vec<f64>,
    labels: Vec<f64>,
    /// Slot of the oldest example (0 until the ring is full).
    head: usize,
    pushed: u64,
}

impl ReplayBuffer {
    /// Creates a buffer holding at most `capacity` examples (minimum 1).
    pub fn new(capacity: usize) -> Self {
        ReplayBuffer {
            capacity: capacity.max(1),
            width: 0,
            rows: Vec::new(),
            labels: Vec::new(),
            head: 0,
            pushed: 0,
        }
    }

    /// Appends a copy of an example, evicting the oldest when full.
    ///
    /// # Panics
    ///
    /// Panics if `features` is not as wide as the first row pushed.
    pub fn push(&mut self, features: &[f64], label: f64) {
        if self.labels.capacity() == 0 {
            self.width = features.len();
            self.rows.reserve_exact(self.capacity * self.width);
            self.labels.reserve_exact(self.capacity);
        }
        assert_eq!(features.len(), self.width, "replay row width mismatch");
        if self.labels.len() < self.capacity {
            self.rows.extend_from_slice(features);
            self.labels.push(label);
        } else {
            let start = self.head * self.width;
            self.rows[start..start + self.width].copy_from_slice(features);
            self.labels[self.head] = label;
            self.head = (self.head + 1) % self.capacity;
        }
        self.pushed += 1;
    }

    /// Number of retained examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` when no examples are retained.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Total examples ever pushed.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// The `i`-th retained example, oldest first (`i < len()`).
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    pub fn get(&self, i: usize) -> (&[f64], f64) {
        let slot = (self.head + i) % self.labels.len();
        let start = slot * self.width;
        (&self.rows[start..start + self.width], self.labels[slot])
    }

    /// Iterates over retained examples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], f64)> {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Samples `n` examples uniformly with replacement (deterministic for a
    /// given seed). Returns fewer only when the buffer is empty.
    pub fn sample(&self, n: usize, seed: u64) -> Vec<(&[f64], f64)> {
        let mut indices = Vec::new();
        self.sample_into(n, seed, &mut indices);
        indices.into_iter().map(|i| self.get(i)).collect()
    }

    /// Writes the positions ([`ReplayBuffer::get`]) of the examples
    /// [`ReplayBuffer::sample`] draws into `indices`, replacing its
    /// contents: the same draws, without allocating once `indices` has
    /// grown to `n`.
    pub fn sample_into(&self, n: usize, seed: u64, indices: &mut Vec<usize>) {
        indices.clear();
        if self.is_empty() {
            return;
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        indices.extend((0..n).map(|_| rng.gen_range(0..self.len())));
    }

    /// Drops all examples (keeping the ring's storage).
    pub fn clear(&mut self) {
        self.rows.clear();
        self.labels.clear();
        self.head = 0;
    }

    /// Fraction of retained labels equal to 1 (class balance diagnostics).
    pub fn positive_fraction(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.labels.iter().filter(|&&y| y >= 0.5).count() as f64 / self.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[test]
    fn fifo_eviction_order() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..5 {
            buf.push(&[i as f64], 0.0);
        }
        let firsts: Vec<f64> = buf.iter().map(|(x, _)| x[0]).collect();
        assert_eq!(firsts, vec![2.0, 3.0, 4.0]);
        assert_eq!(buf.pushed(), 5);
    }

    #[test]
    fn sample_is_deterministic_per_seed() {
        let mut buf = ReplayBuffer::new(10);
        for i in 0..10 {
            buf.push(&[i as f64], (i % 2) as f64);
        }
        let a: Vec<f64> = buf.sample(5, 42).iter().map(|(x, _)| x[0]).collect();
        let b: Vec<f64> = buf.sample(5, 42).iter().map(|(x, _)| x[0]).collect();
        assert_eq!(a, b);
        assert_eq!(buf.sample(5, 42).len(), 5);
    }

    #[test]
    fn sample_from_empty_is_empty() {
        let buf = ReplayBuffer::new(4);
        assert!(buf.sample(3, 0).is_empty());
        assert!(buf.is_empty());
    }

    #[test]
    fn positive_fraction_tracks_balance() {
        let mut buf = ReplayBuffer::new(4);
        assert_eq!(buf.positive_fraction(), 0.0);
        buf.push(&[0.0], 1.0);
        buf.push(&[0.0], 0.0);
        assert_eq!(buf.positive_fraction(), 0.5);
        buf.clear();
        assert_eq!(buf.len(), 0);
    }

    /// Draws `n` examples from a deque of owned rows the way the buffer
    /// did before it became a flat ring.
    fn model_sample(
        model: &VecDeque<(Vec<f64>, f64)>,
        n: usize,
        seed: u64,
    ) -> Vec<(Vec<f64>, f64)> {
        if model.is_empty() {
            return Vec::new();
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| model[rng.gen_range(0..model.len())].clone())
            .collect()
    }

    fn owned<'a>(rows: impl IntoIterator<Item = (&'a [f64], f64)>) -> Vec<(Vec<f64>, f64)> {
        rows.into_iter().map(|(x, y)| (x.to_vec(), y)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The ring ≡ a `VecDeque` of owned rows on random histories of
        /// push, sample, clear and balance queries: same rows in the same
        /// order, the same samples from the same seed.
        #[test]
        fn ring_matches_deque_model(
            capacity in 1usize..10,
            width in 0usize..4,
            ops in vec((0u8..5, 0.0..1.0f64, 0u64..1000), 0..40),
        ) {
            let mut buf = ReplayBuffer::new(capacity);
            let mut model: VecDeque<(Vec<f64>, f64)> = VecDeque::new();
            let mut pushed = 0u64;
            for (op, label, seed) in ops {
                match op {
                    0 | 1 => {
                        let row: Vec<f64> = (0..width).map(|j| pushed as f64 + j as f64 / 8.0).collect();
                        buf.push(&row, label);
                        if model.len() == capacity {
                            model.pop_front();
                        }
                        model.push_back((row, label));
                        pushed += 1;
                    }
                    2 => {
                        let n = (seed % 7) as usize;
                        prop_assert_eq!(owned(buf.sample(n, seed)), model_sample(&model, n, seed));
                    }
                    3 => {
                        buf.clear();
                        model.clear();
                    }
                    _ => {
                        let positives = model.iter().filter(|(_, y)| *y >= 0.5).count();
                        let expected = if model.is_empty() { 0.0 } else { positives as f64 / model.len() as f64 };
                        prop_assert_eq!(buf.positive_fraction().to_bits(), expected.to_bits());
                    }
                }
                prop_assert_eq!(buf.len(), model.len());
                prop_assert_eq!(buf.is_empty(), model.is_empty());
                prop_assert_eq!(buf.pushed(), pushed);
                prop_assert_eq!(owned(buf.iter()), owned(model.iter().map(|(x, y)| (x.as_slice(), *y))));
            }
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rows_keep_the_first_width() {
        let mut buf = ReplayBuffer::new(4);
        buf.push(&[1.0, 2.0], 0.0);
        buf.push(&[1.0], 0.0);
    }
}
