//! Tabular Q-learning.
//!
//! Contextual bandits cannot escape absorbing regions whose one-step
//! rewards are flat (e.g. a congestion window pegged against a full queue:
//! every action looks equally bad for one round). Q-learning's bootstrapped
//! value `r + γ max_a' Q(s', a')` propagates the value of *eventually*
//! reaching a better region back through such plateaus.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A tabular Q-learning agent over discrete states and actions.
///
/// # Examples
///
/// A two-state chain where the only reward requires moving left twice:
///
/// ```
/// use mlkit::QTable;
///
/// let mut q = QTable::new(3, 2, 0.5, 0.9, 0.3, 7);
/// // Actions: 0 = left, 1 = right. Reward 1 at state 0, else 0.
/// for _ in 0..500 {
///     let mut s = 2;
///     for _ in 0..4 {
///         let a = q.select(s);
///         let s2 = if a == 0 { s.saturating_sub(1) } else { (s + 1).min(2) };
///         let r = if s2 == 0 { 1.0 } else { 0.0 };
///         q.update(s, a, r, s2);
///         s = s2;
///     }
/// }
/// assert_eq!(q.best(2), 0, "learned to walk left through the plateau");
/// assert_eq!(q.best(1), 0);
/// ```
#[derive(Clone, Debug)]
pub struct QTable {
    actions: usize,
    q: Vec<f64>,
    visits: Vec<u64>,
    alpha: f64,
    gamma: f64,
    epsilon: f64,
    rng: SmallRng,
}

impl QTable {
    /// Creates a zero-initialized table.
    ///
    /// # Panics
    ///
    /// Panics if `states` or `actions` is zero.
    pub fn new(
        states: usize,
        actions: usize,
        alpha: f64,
        gamma: f64,
        epsilon: f64,
        seed: u64,
    ) -> Self {
        assert!(states > 0 && actions > 0, "need at least one state/action");
        QTable {
            actions,
            q: vec![0.0; states * actions],
            visits: vec![0; states],
            alpha: alpha.clamp(1e-6, 1.0),
            gamma: gamma.clamp(0.0, 0.9999),
            epsilon: epsilon.clamp(0.0, 1.0),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    fn idx(&self, s: usize, a: usize) -> usize {
        debug_assert!(s < self.visits.len() && a < self.actions);
        s * self.actions + a
    }

    /// The greedy action in `s` (first index on ties — unvisited states
    /// therefore fall to action 0, which callers should order consciously).
    pub fn best(&self, s: usize) -> usize {
        let row = &self.q[s * self.actions..(s + 1) * self.actions];
        let mut best = 0;
        for (i, &v) in row.iter().enumerate() {
            // Strict comparison keeps the *first* maximum on ties.
            if v > row[best] {
                best = i;
            }
        }
        best
    }

    /// ε-greedy action selection.
    pub fn select(&mut self, s: usize) -> usize {
        if self.rng.gen::<f64>() < self.epsilon {
            self.rng.gen_range(0..self.actions)
        } else {
            self.best(s)
        }
    }

    /// One Q-learning update for transition `(s, a, r, s_next)`.
    pub fn update(&mut self, s: usize, a: usize, reward: f64, s_next: usize) {
        if !reward.is_finite() {
            return;
        }
        self.visits[s] += 1;
        let best_next = self.q[s_next * self.actions..(s_next + 1) * self.actions]
            .iter()
            .fold(f64::NEG_INFINITY, |m, &v| m.max(v));
        let target = reward + self.gamma * best_next;
        let i = self.idx(s, a);
        self.q[i] += self.alpha * (target - self.q[i]);
    }

    /// The learned value of `(s, a)`.
    pub fn value(&self, s: usize, a: usize) -> f64 {
        self.q[self.idx(s, a)]
    }

    /// How many updates state `s` has received.
    pub fn state_visits(&self, s: usize) -> u64 {
        self.visits.get(s).copied().unwrap_or(0)
    }

    /// Sets the exploration rate (0 = deployed greedy policy).
    pub fn set_epsilon(&mut self, epsilon: f64) {
        self.epsilon = epsilon.clamp(0.0, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_immediate_reward() {
        let mut q = QTable::new(1, 3, 0.5, 0.0, 0.5, 1);
        for _ in 0..200 {
            let a = q.select(0);
            let r = match a {
                1 => 1.0,
                _ => 0.0,
            };
            q.update(0, a, r, 0);
        }
        assert_eq!(q.best(0), 1);
        assert!(q.value(0, 1) > q.value(0, 0));
    }

    #[test]
    fn propagates_through_zero_reward_plateau() {
        // Chain 0..=4; reward only on reaching 0; start at 4.
        let mut q = QTable::new(5, 2, 0.3, 0.95, 0.3, 2);
        for _ in 0..2000 {
            let mut s = 4;
            for _ in 0..8 {
                let a = q.select(s);
                let s2 = if a == 0 {
                    s.saturating_sub(1)
                } else {
                    (s + 1).min(4)
                };
                let r = if s2 == 0 { 1.0 } else { 0.0 };
                q.update(s, a, r, s2);
                s = s2;
            }
        }
        for s in 1..=4 {
            assert_eq!(q.best(s), 0, "state {s} walks toward the reward");
        }
    }

    #[test]
    fn epsilon_zero_is_greedy_and_deterministic() {
        let mut q = QTable::new(2, 2, 0.5, 0.5, 0.0, 3);
        q.update(0, 1, 1.0, 0);
        for _ in 0..50 {
            assert_eq!(q.select(0), 1);
        }
        q.set_epsilon(1.0);
        // Fully exploratory: both actions appear.
        let mut seen = [false; 2];
        for _ in 0..100 {
            seen[q.select(0)] = true;
        }
        assert!(seen[0] && seen[1]);
    }

    #[test]
    fn unvisited_states_default_to_action_zero() {
        let q = QTable::new(4, 3, 0.5, 0.9, 0.0, 4);
        assert_eq!(q.best(3), 0);
        assert_eq!(q.state_visits(3), 0);
    }

    #[test]
    fn non_finite_rewards_ignored() {
        let mut q = QTable::new(1, 1, 0.5, 0.5, 0.0, 5);
        q.update(0, 0, f64::NAN, 0);
        assert_eq!(q.value(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_states_rejected() {
        let _ = QTable::new(0, 1, 0.5, 0.5, 0.0, 6);
    }
}
