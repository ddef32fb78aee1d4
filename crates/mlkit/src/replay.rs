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
/// assert_eq!(buf.get(0), (&[2.0][..], 1.0));
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
    }

    /// Number of retained examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` when no examples are retained.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
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

    /// Samples `n` examples uniformly with replacement, deterministic for a
    /// given seed, and writes their positions ([`ReplayBuffer::get`]) into
    /// `indices`, replacing its contents: no positions when the buffer is
    /// empty, and no allocation once `indices` has grown to `n`.
    pub fn sample_into(&self, n: usize, seed: u64, indices: &mut Vec<usize>) {
        indices.clear();
        if self.is_empty() {
            return;
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        indices.extend((0..n).map(|_| rng.gen_range(0..self.len())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// Every retained example, oldest first, as owned rows.
    fn contents(buf: &ReplayBuffer) -> Vec<(Vec<f64>, f64)> {
        (0..buf.len())
            .map(|i| buf.get(i))
            .map(|(x, y)| (x.to_vec(), y))
            .collect()
    }

    /// The examples `sample_into` draws, as owned rows.
    fn sample(buf: &ReplayBuffer, n: usize, seed: u64) -> Vec<(Vec<f64>, f64)> {
        let mut indices = vec![usize::MAX; 3];
        buf.sample_into(n, seed, &mut indices);
        indices
            .into_iter()
            .map(|i| buf.get(i))
            .map(|(x, y)| (x.to_vec(), y))
            .collect()
    }

    #[test]
    fn fifo_eviction_order() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..5 {
            buf.push(&[i as f64], 0.0);
        }
        let firsts: Vec<f64> = contents(&buf).iter().map(|(x, _)| x[0]).collect();
        assert_eq!(firsts, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn sample_is_deterministic_per_seed() {
        let mut buf = ReplayBuffer::new(10);
        for i in 0..10 {
            buf.push(&[i as f64], (i % 2) as f64);
        }
        assert_eq!(sample(&buf, 5, 42), sample(&buf, 5, 42));
        assert_eq!(sample(&buf, 5, 42).len(), 5);
    }

    #[test]
    fn sample_from_empty_is_empty() {
        let buf = ReplayBuffer::new(4);
        assert!(sample(&buf, 3, 0).is_empty());
        assert!(buf.is_empty());
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The ring ≡ a `VecDeque` of owned rows on random histories of
        /// pushes and samples: `get` reads the same rows in the same order,
        /// and `sample_into` draws the same rows from the same seed.
        #[test]
        fn ring_matches_deque_model(
            capacity in 1usize..10,
            width in 0usize..4,
            ops in vec((0u8..3, 0.0..1.0f64, 0u64..1000), 0..40),
        ) {
            let mut buf = ReplayBuffer::new(capacity);
            let mut model: VecDeque<(Vec<f64>, f64)> = VecDeque::new();
            let mut pushed = 0u64;
            for (op, label, seed) in ops {
                if op < 2 {
                    let row: Vec<f64> = (0..width).map(|j| pushed as f64 + j as f64 / 8.0).collect();
                    buf.push(&row, label);
                    if model.len() == capacity {
                        model.pop_front();
                    }
                    model.push_back((row, label));
                    pushed += 1;
                } else {
                    let n = (seed % 7) as usize;
                    prop_assert_eq!(sample(&buf, n, seed), model_sample(&model, n, seed));
                }
                prop_assert_eq!(buf.len(), model.len());
                prop_assert_eq!(buf.is_empty(), model.is_empty());
                prop_assert_eq!(contents(&buf), Vec::from(model.clone()));
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
