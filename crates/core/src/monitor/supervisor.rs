//! The engine supervisor: a restart loop with backoff and escalation.
//!
//! A crash-consistent store and checkpoint (see [`crate::store::durable`]
//! and [`super::checkpoint`]) make a *single* restart safe; the supervisor
//! governs what happens when restarts keep happening. It implements the
//! classic init-style ladder:
//!
//! 1. **Restart with exponential backoff** — an isolated crash restarts
//!    after 100 ms, and each crash that lands within 5 s of the previous
//!    one doubles the restart delay. A crash after a quiet period resets
//!    the ladder.
//! 2. **Fail closed** — at the third consecutive rapid crash (a crash and
//!    two rapid ones after it) the supervisor stops restarting and pins
//!    every policy slot to its safe fallback variant
//!    ([`fail_closed`]): if the guardrail runtime cannot stay up, the
//!    learned policies it was guarding must not keep making decisions
//!    unguarded.
//!
//! The supervisor is deliberately a pure state machine over simulated time:
//! the host (a storage simulation, a kernel module loader, a test) owns the
//! actual rebuild of engine and store, calls [`Supervisor::on_crash`] at
//! each crash and acts on the [`RestartDecision`] it returns.

use simkernel::Nanos;

use crate::policy::PolicyRegistry;
use crate::store::FeatureStore;

/// Backoff before the first restart of a rapid-crash streak.
const INITIAL_BACKOFF: Nanos = Nanos::from_millis(100);
/// A crash within this interval of the previous crash counts as "rapid"
/// (part of a crash loop rather than an isolated incident).
const RAPID_WINDOW: Nanos = Nanos::from_secs(5);
/// Consecutive rapid crashes that escalate to fail-closed. The streak's
/// longest backoff is therefore `INITIAL_BACKOFF` doubled once.
const MAX_RAPID_CRASHES: u32 = 3;

/// What the host should do about a crash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestartDecision {
    /// Rebuild and restart the engine at `at` (after `backoff`).
    Restart {
        /// Simulated time at which to restart.
        at: Nanos,
        /// The backoff that was applied.
        backoff: Nanos,
    },
    /// Stop restarting; apply [`fail_closed`] and leave the system on its
    /// safe fallbacks.
    FailClosed,
}

/// The restart-loop state machine.
#[derive(Clone, Debug)]
pub struct Supervisor {
    last_crash: Option<Nanos>,
    /// Length of the current rapid-crash streak (1 = isolated crash).
    consecutive_rapid: u32,
    failed_closed: bool,
}

impl Supervisor {
    /// Creates a supervisor that has seen no crash.
    pub fn new() -> Self {
        Supervisor {
            last_crash: None,
            consecutive_rapid: 0,
            failed_closed: false,
        }
    }

    /// Records a crash at `now` and decides whether to restart or escalate.
    /// Once escalated, every later crash gets [`RestartDecision::FailClosed`].
    pub fn on_crash(&mut self, now: Nanos) -> RestartDecision {
        if self.failed_closed {
            return RestartDecision::FailClosed;
        }
        let rapid = self
            .last_crash
            .is_some_and(|prev| now.saturating_sub(prev) <= RAPID_WINDOW);
        self.consecutive_rapid = if rapid { self.consecutive_rapid + 1 } else { 1 };
        self.last_crash = Some(now);
        if self.consecutive_rapid >= MAX_RAPID_CRASHES {
            self.failed_closed = true;
            return RestartDecision::FailClosed;
        }
        // Doubling backoff: the streak's first crash waits the initial
        // backoff, each rapid one after it twice the one before.
        let backoff = INITIAL_BACKOFF * (1 << (self.consecutive_rapid - 1));
        RestartDecision::Restart {
            at: now + backoff,
            backoff,
        }
    }

    /// `true` once the supervisor has escalated to fail-closed.
    pub fn failed_closed(&self) -> bool {
        self.failed_closed
    }
}

impl Default for Supervisor {
    fn default() -> Self {
        Self::new()
    }
}

/// The fail-closed escalation: pins every policy slot to its safe fallback
/// variant and zeroes the given enable flags in the feature store (e.g.
/// `ml_enabled`), so learned policies stop making decisions even though no
/// guardrail monitor is left running to disable them. Returns the
/// `(slot, variant)` pins applied.
pub fn fail_closed(
    registry: &PolicyRegistry,
    store: &FeatureStore,
    disable_flags: &[&str],
) -> Vec<(String, String)> {
    let pinned = registry.pin_all_fallbacks();
    for flag in disable_flags {
        store.save(flag, 0.0);
    }
    pinned
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> Nanos {
        Nanos::from_secs(s)
    }

    fn restart_after(backoff_ms: u64, now: Nanos) -> RestartDecision {
        let backoff = Nanos::from_millis(backoff_ms);
        RestartDecision::Restart {
            at: now + backoff,
            backoff,
        }
    }

    #[test]
    fn isolated_crashes_restart_with_initial_backoff() {
        let mut sup = Supervisor::new();
        // Crashes 100s apart never build a streak.
        for i in 0..10u64 {
            let now = secs(100 * (i + 1));
            assert_eq!(sup.on_crash(now), restart_after(100, now));
        }
        assert!(!sup.failed_closed());
    }

    #[test]
    fn rapid_crashes_double_the_backoff_then_escalate() {
        let mut sup = Supervisor::new();
        assert_eq!(sup.on_crash(secs(10)), restart_after(100, secs(10)));
        // 5 s after the last crash is still rapid.
        assert_eq!(sup.on_crash(secs(15)), restart_after(200, secs(15)));
        assert!(!sup.failed_closed());
        // Third rapid crash: escalate.
        assert_eq!(sup.on_crash(secs(16)), RestartDecision::FailClosed);
        assert!(sup.failed_closed());
        // Further crashes stay escalated, even after a quiet period.
        assert_eq!(sup.on_crash(secs(14)), RestartDecision::FailClosed);
        assert_eq!(sup.on_crash(secs(1_000)), RestartDecision::FailClosed);
    }

    #[test]
    fn a_quiet_period_resets_the_streak() {
        let mut sup = Supervisor::new();
        assert_eq!(sup.on_crash(secs(10)), restart_after(100, secs(10)));
        assert_eq!(sup.on_crash(secs(11)), restart_after(200, secs(11)));
        // 100s of stability: the next crash is isolated again.
        assert_eq!(sup.on_crash(secs(111)), restart_after(100, secs(111)));
        assert!(!sup.failed_closed());
    }

    #[test]
    fn fail_closed_pins_fallbacks_and_clears_flags() {
        let registry = PolicyRegistry::new();
        registry
            .register("io_latency", &["learned", "fallback"])
            .unwrap();
        registry.register("sched", &["a", "b"]).unwrap();
        registry.set_default_variant("sched", "b").unwrap();
        let store = FeatureStore::new();
        store.save("ml_enabled", 1.0);
        let pinned = fail_closed(&registry, &store, &["ml_enabled"]);
        assert_eq!(
            pinned,
            vec![
                ("io_latency".to_string(), "fallback".to_string()),
                ("sched".to_string(), "b".to_string()),
            ]
        );
        assert!(registry.is_active("io_latency", "fallback"));
        assert!(registry.is_active("sched", "b"));
        assert_eq!(store.load("ml_enabled"), Some(0.0));
    }
}
