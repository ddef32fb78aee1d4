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

use std::collections::VecDeque;

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

/// The runtime state tracking recent evaluations for one guardrail. All of
/// it is checkpointed: a restarted monitor neither re-fires inside a
/// cooldown nor forgets a partially accumulated N-of-M streak.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HysteresisState {
    pub(crate) config: Hysteresis,
    /// The recent-evaluation window, oldest first.
    pub(crate) recent: VecDeque<bool>,
    pub(crate) last_fire: Option<Nanos>,
    pub(crate) suppressed: u64,
}

impl HysteresisState {
    /// Creates state for the given configuration.
    pub fn new(config: Hysteresis) -> Self {
        HysteresisState {
            config,
            recent: VecDeque::new(),
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
    pub fn observe(&mut self, violated: bool, now: Nanos) -> bool {
        self.recent.push_back(violated);
        while self.recent.len() > self.config.window as usize {
            self.recent.pop_front();
        }
        if !violated {
            return false;
        }
        let hits = self.recent.iter().filter(|&&v| v).count() as u32;
        if hits < self.config.trip_threshold {
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
    use super::*;

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
