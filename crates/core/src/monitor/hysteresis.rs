//! Anti-oscillation machinery: N-of-M debouncing and action cooldowns.
//!
//! §6 of the paper warns that "deploying multiple guardrails in the kernel —
//! each monitoring a different property — can create feedback loops, where
//! preventing one violation triggers another, causing the system to
//! oscillate between violation states". Two standard controls damp this:
//!
//! - **N-of-M debounce**: actions fire only when at least N of the last M
//!   rule evaluations were violations, filtering one-off blips.
//! - **Cooldown**: after actions fire, further firings are suppressed for a
//!   fixed interval, bounding the rate at which antagonistic guardrails can
//!   fight over shared state.
//!
//! Experiment E6 measures the oscillation rate with and without these.
//!
//! Observing an evaluation is O(1) whatever the window: the window is a
//! ring of bits with a running violation count.

use simkernel::Nanos;

/// Hysteresis configuration for one guardrail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hysteresis {
    /// Fire actions only when ≥ `trip_threshold` of the last `window`
    /// evaluations violated.
    pub trip_threshold: u32,
    /// The evaluation window M (≥ `trip_threshold`).
    pub window: u32,
    /// Minimum time between action firings.
    pub cooldown: Nanos,
}

impl Default for Hysteresis {
    /// The paper's base semantics: every violation fires actions immediately.
    fn default() -> Self {
        Hysteresis {
            trip_threshold: 1,
            window: 1,
            cooldown: Nanos::ZERO,
        }
    }
}

impl Hysteresis {
    /// An N-of-M debounce with no cooldown.
    pub fn n_of_m(n: u32, m: u32) -> Self {
        let n = n.max(1);
        Hysteresis {
            trip_threshold: n,
            window: m.max(n),
            cooldown: Nanos::ZERO,
        }
    }

    /// A pure cooldown (every violation trips, but firings are rate-limited).
    pub fn cooldown(period: Nanos) -> Self {
        Hysteresis {
            cooldown: period,
            ..Hysteresis::default()
        }
    }

    /// Sets the cooldown, keeping the debounce.
    pub fn with_cooldown(mut self, period: Nanos) -> Self {
        self.cooldown = period;
        self
    }
}

/// Recent evaluation outcomes, oldest first (`true` = violated), as a ring
/// of bits with a running count of the violations among them.
///
/// The capacity is a power of two, so a mask wraps the position. It grows
/// (doubling, from one 64-bit word) only when the outcomes kept outgrow
/// it: a wide window costs memory once it has filled, not when it is
/// configured. Two rings are equal when they hold the same outcomes.
#[derive(Clone, Debug, Default)]
pub(crate) struct OutcomeRing {
    words: Vec<u64>,
    /// Bit position of the oldest outcome.
    head: usize,
    len: usize,
    violations: usize,
}

impl OutcomeRing {
    /// Appends `violated`, first dropping the oldest outcomes so that at
    /// most `window` remain: the outcomes of the last `window` evaluations,
    /// none for a window of 0. Drops more than one only after the window
    /// shrank.
    #[inline(always)]
    pub(crate) fn push_within(&mut self, violated: bool, window: usize) {
        let same = if violated { self.len } else { 0 };
        if self.len == window && self.violations == same {
            // A full window of this one outcome stays as it is: the steady
            // state of a healthy monitor, and of every window-1 monitor
            // that saw this outcome last time.
            return;
        }
        while self.len >= window.max(1) {
            self.pop_front();
        }
        if window > 0 {
            self.push_back(violated);
        }
    }

    /// Whether no outcome is kept.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How many of the kept outcomes are violations.
    pub(crate) fn violations(&self) -> usize {
        self.violations
    }

    /// The kept outcomes, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        let mask = self.mask();
        (0..self.len).map(move |i| self.bit((self.head + i) & mask))
    }

    #[inline]
    fn mask(&self) -> usize {
        (self.words.len() * 64).wrapping_sub(1)
    }

    #[inline]
    fn bit(&self, pos: usize) -> bool {
        self.words[pos / 64] >> (pos % 64) & 1 == 1
    }

    #[inline]
    fn pop_front(&mut self) {
        self.violations -= usize::from(self.bit(self.head));
        self.head = (self.head + 1) & self.mask();
        self.len -= 1;
    }

    #[inline]
    fn push_back(&mut self, violated: bool) {
        if self.len == self.words.len() * 64 {
            self.grow();
        }
        let pos = (self.head + self.len) & self.mask();
        let word = &mut self.words[pos / 64];
        *word = *word & !(1 << (pos % 64)) | u64::from(violated) << (pos % 64);
        self.violations += usize::from(violated);
        self.len += 1;
    }

    /// Doubles the capacity (to one word from none), oldest outcome first.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        let mut grown = OutcomeRing {
            words: vec![0; (self.words.len() * 2).max(1)],
            ..OutcomeRing::default()
        };
        for violated in self.iter() {
            grown.push_back(violated);
        }
        *self = grown;
    }
}

impl PartialEq for OutcomeRing {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl FromIterator<bool> for OutcomeRing {
    fn from_iter<I: IntoIterator<Item = bool>>(outcomes: I) -> Self {
        let mut ring = OutcomeRing::default();
        for violated in outcomes {
            ring.push_back(violated);
        }
        ring
    }
}

/// The runtime state tracking recent evaluations for one guardrail. All of
/// it is checkpointed: a restarted monitor neither re-fires inside a
/// cooldown nor forgets a partially accumulated N-of-M streak.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HysteresisState {
    pub(crate) config: Hysteresis,
    /// The recent-evaluation window, oldest first. It can hold more than
    /// `config.window` outcomes between a `set_config` that shrank the
    /// window and the next `observe`, which trims it (and a checkpoint
    /// taken in between keeps them).
    pub(crate) recent: OutcomeRing,
    pub(crate) last_fire: Option<Nanos>,
    pub(crate) suppressed: u64,
}

impl HysteresisState {
    /// Creates state for the given configuration.
    pub fn new(config: Hysteresis) -> Self {
        HysteresisState {
            config,
            recent: OutcomeRing::default(),
            last_fire: None,
            suppressed: 0,
        }
    }

    /// Replaces the configuration (state is kept; the window re-trims lazily).
    pub fn set_config(&mut self, config: Hysteresis) {
        self.config = config;
    }

    /// Returns the configuration.
    pub fn config(&self) -> Hysteresis {
        self.config
    }

    /// Records one evaluation outcome and decides whether actions may fire.
    ///
    /// Call with `violated = true/false` for every evaluation; returns
    /// `true` exactly when the debounce trips *and* the cooldown has passed.
    #[inline(always)]
    pub fn observe(&mut self, violated: bool, now: Nanos) -> bool {
        self.recent
            .push_within(violated, self.config.window as usize);
        if !violated {
            return false;
        }
        if self.recent.violations() < self.config.trip_threshold as usize {
            self.suppressed += 1;
            return false;
        }
        if let Some(last) = self.last_fire {
            if now.saturating_sub(last) < self.config.cooldown {
                self.suppressed += 1;
                return false;
            }
        }
        self.last_fire = Some(now);
        true
    }

    /// How many violations were suppressed (debounce or cooldown).
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// When actions last fired, if ever.
    pub fn last_fire(&self) -> Option<Nanos> {
        self.last_fire
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use proptest::prelude::*;

    use super::*;

    /// The window as a deque rescanned on every violation: the reference
    /// `observe` is checked against.
    #[derive(Default)]
    struct Model {
        config: Hysteresis,
        recent: VecDeque<bool>,
        last_fire: Option<Nanos>,
        suppressed: u64,
    }

    impl Model {
        fn observe(&mut self, violated: bool, now: Nanos) -> bool {
            self.recent.push_back(violated);
            while self.recent.len() > self.config.window as usize {
                self.recent.pop_front();
            }
            if !violated {
                return false;
            }
            let hits = self.recent.iter().filter(|&&v| v).count() as u32;
            if hits < self.config.trip_threshold
                || self
                    .last_fire
                    .is_some_and(|last| now.saturating_sub(last) < self.config.cooldown)
            {
                self.suppressed += 1;
                return false;
            }
            self.last_fire = Some(now);
            true
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The bit ring decides, counts and keeps exactly what the deque
        /// model does, through window changes in both directions (a shrink
        /// keeps the old outcomes until the next `observe`), windows of 0
        /// and thresholds of 0, across the ring's growth past 64 and 128
        /// outcomes, and after a round trip through its outcomes.
        #[test]
        fn bit_ring_matches_the_deque_model(
            steps in proptest::collection::vec((0u8..16, any::<bool>()), 1..600),
            windows in proptest::collection::vec((0u32..4, 0u32..200), 1..6),
        ) {
            let mut ring = HysteresisState::default();
            let mut model = Model::default();
            for (t, &(op, violated)) in steps.iter().enumerate() {
                let now = Nanos::from_secs(t as u64);
                if op == 0 {
                    let (threshold, window) = windows[t % windows.len()];
                    let config = Hysteresis {
                        trip_threshold: threshold,
                        window,
                        cooldown: Nanos::from_secs(u64::from(threshold % 3)),
                    };
                    ring.set_config(config);
                    model.config = config;
                } else {
                    prop_assert_eq!(ring.observe(violated, now), model.observe(violated, now));
                }
                prop_assert!(ring.recent.iter().eq(model.recent.iter().copied()));
                let violations = model.recent.iter().filter(|&&v| v).count();
                prop_assert_eq!(ring.recent.violations(), violations);
                prop_assert_eq!(ring.suppressed(), model.suppressed);
                prop_assert_eq!(ring.last_fire(), model.last_fire);
                let copy: OutcomeRing = ring.recent.iter().collect();
                prop_assert!(copy == ring.recent);
            }
        }
    }

    #[test]
    fn default_fires_on_every_violation() {
        let mut s = HysteresisState::new(Hysteresis::default());
        assert!(s.observe(true, Nanos::from_secs(1)));
        assert!(s.observe(true, Nanos::from_secs(1)));
        assert!(!s.observe(false, Nanos::from_secs(2)));
        assert_eq!(s.suppressed(), 0);
    }

    #[test]
    fn n_of_m_requires_persistence() {
        let mut s = HysteresisState::new(Hysteresis::n_of_m(3, 5));
        assert!(!s.observe(true, Nanos::from_secs(1)));
        assert!(!s.observe(true, Nanos::from_secs(2)));
        assert!(s.observe(true, Nanos::from_secs(3)), "third of five trips");
        assert_eq!(s.suppressed(), 2);
        // A run of OKs flushes the window.
        for t in 4..9 {
            assert!(!s.observe(false, Nanos::from_secs(t)));
        }
        assert!(
            !s.observe(true, Nanos::from_secs(9)),
            "needs to re-accumulate"
        );
    }

    #[test]
    fn cooldown_rate_limits_firings() {
        let mut s = HysteresisState::new(Hysteresis::cooldown(Nanos::from_secs(10)));
        assert!(s.observe(true, Nanos::from_secs(0)));
        assert!(!s.observe(true, Nanos::from_secs(5)), "inside cooldown");
        assert!(s.observe(true, Nanos::from_secs(10)), "cooldown elapsed");
        assert_eq!(s.last_fire(), Some(Nanos::from_secs(10)));
        assert_eq!(s.suppressed(), 1);
    }

    #[test]
    fn n_of_m_clamps_degenerate_configs() {
        let h = Hysteresis::n_of_m(0, 0);
        assert_eq!(h.trip_threshold, 1);
        assert_eq!(h.window, 1);
        let h = Hysteresis::n_of_m(5, 2);
        assert_eq!(h.window, 5, "window grows to cover the threshold");
    }

    #[test]
    fn combined_debounce_and_cooldown() {
        let mut s =
            HysteresisState::new(Hysteresis::n_of_m(2, 2).with_cooldown(Nanos::from_secs(100)));
        assert!(!s.observe(true, Nanos::from_secs(1)));
        assert!(s.observe(true, Nanos::from_secs(2)));
        assert!(!s.observe(true, Nanos::from_secs(3)), "cooldown suppresses");
        assert_eq!(s.config().cooldown, Nanos::from_secs(100));
    }
}
