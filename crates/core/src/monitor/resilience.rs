//! Fail-safe runtime configuration: retry, fallback, and watchdog switches.
//!
//! The monitor engine is the component that must *not* fail when everything
//! around it does. [`ResilienceConfig`] holds the three switches that harden
//! it, each at fixed values:
//!
//! - `replace_fallback` — `REPLACE` with a missing variant degrades to the
//!   slot's registered default variant.
//! - `retrain_retry` — a `RETRAIN` request rejected by the rate limiter is
//!   retried with exponential backoff instead of dropped: up to 4 retries,
//!   the first 500 ms after the rejection, each later one twice as long
//!   after the one before.
//! - `watchdog` — a monitor whose rule evaluation faults (fuel exhaustion)
//!   3 times in a row is disabled with a report instead of silently
//!   wedging the property it guards, and it fails closed: its actions fire
//!   once on the way down. If we can no longer *check* the property, assume
//!   it is violated and correct. It stays disabled until an operator
//!   re-enables it.
//!
//! [`ResilienceConfig::hardened`] turns everything on, [`Default`] leaves
//! everything off so the seed semantics are unchanged. [`RuntimeConfig`] is
//! the one composable builder over *all* runtime hardening axes: the store's
//! non-finite quarantine, the in-flight fault resilience above, and the
//! crash-recovery layer ([`RecoveryConfig`]: durable store + supervisor).
//! Hosts apply one value instead of toggling each subsystem ad hoc.

use simkernel::Nanos;

use crate::store::durable::DurabilityConfig;

/// Retries of a rejected `RETRAIN` before it is given up.
pub(crate) const RETRY_ATTEMPTS: u32 = 4;

/// The delay before retry number `attempt` (0-based, below
/// [`RETRY_ATTEMPTS`]): 500 ms, doubling. The longest is 4 s.
pub(crate) fn retry_backoff(attempt: u32) -> Nanos {
    Nanos::from_millis(500) * (1 << attempt)
}

/// Consecutive rule faults that trip the watchdog.
pub(crate) const WATCHDOG_FAULTS: u32 = 3;

/// The engine's fail-safe switches.
///
/// The default is everything off: the engine behaves exactly like the seed
/// runtime, which existing guardrail deployments (and tests) rely on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// `REPLACE` with a missing variant degrades to the slot's registered
    /// default variant instead of failing with only a log line.
    pub replace_fallback: bool,
    /// Retry rejected `RETRAIN` requests with backoff.
    pub retrain_retry: bool,
    /// Disable, fail-closed, monitors that fault repeatedly.
    pub watchdog: bool,
}

impl ResilienceConfig {
    /// Everything on: fallback `REPLACE`, doubling `RETRAIN` retry,
    /// fail-closed watchdog.
    pub fn hardened() -> Self {
        ResilienceConfig {
            replace_fallback: true,
            retrain_retry: true,
            watchdog: true,
        }
    }
}

/// Crash-recovery configuration: the durable feature store. The supervised
/// restart loop ([`crate::monitor::Supervisor`]) has fixed constants.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// WAL/snapshot knobs for the durable store.
    pub durability: DurabilityConfig,
}

/// The single composable runtime-hardening configuration.
///
/// One builder covers the three orthogonal axes a host previously toggled
/// separately: the store quarantine (`store.set_quarantine`), the engine's
/// in-flight fault resilience (`engine.set_resilience`), and — new in the
/// crash-recovery layer — durable-store/supervisor recovery. The
/// engine-scoped axes are applied with
/// [`MonitorEngine::apply_runtime`](crate::monitor::MonitorEngine::apply_runtime);
/// `recovery` is consumed by whoever owns the engine's lifecycle (it wraps
/// construction, not a running engine).
///
/// # Examples
///
/// ```
/// use guardrails::monitor::resilience::{RecoveryConfig, RuntimeConfig};
///
/// // The paper's unhardened baseline.
/// let seed = RuntimeConfig::seed();
/// assert!(!seed.quarantine);
///
/// // Everything on: quarantine + resilience + crash recovery.
/// let full = RuntimeConfig::hardened().with_recovery(RecoveryConfig::default());
/// assert!(full.quarantine && full.recovery.is_some());
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RuntimeConfig {
    /// Quarantine non-finite `SAVE`s in the feature store.
    pub quarantine: bool,
    /// In-flight fault hardening (retry/fallback/watchdog).
    pub resilience: ResilienceConfig,
    /// Crash-recovery layer; `None` = process-lifetime state (seed
    /// semantics).
    pub recovery: Option<RecoveryConfig>,
}

impl Default for RuntimeConfig {
    /// Same as [`RuntimeConfig::seed`].
    fn default() -> Self {
        Self::seed()
    }
}

impl RuntimeConfig {
    /// The seed runtime: no quarantine, no resilience, no recovery — the
    /// paper's baseline semantics, and the contrast arm in the fault and
    /// recovery experiments.
    pub fn seed() -> Self {
        RuntimeConfig {
            quarantine: false,
            resilience: ResilienceConfig::default(),
            recovery: None,
        }
    }

    /// Quarantine and in-flight resilience on, recovery off (the PR-1
    /// hardened runtime).
    pub fn hardened() -> Self {
        RuntimeConfig {
            quarantine: true,
            resilience: ResilienceConfig::hardened(),
            recovery: None,
        }
    }

    /// Returns this config with crash recovery enabled.
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = Some(recovery);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_from_500ms() {
        let backoffs: Vec<u64> = (0..RETRY_ATTEMPTS)
            .map(|attempt| retry_backoff(attempt).as_nanos() / 1_000_000)
            .collect();
        assert_eq!(backoffs, [500, 1_000, 2_000, 4_000]);
    }

    #[test]
    fn config_presets() {
        let off = ResilienceConfig::default();
        assert!(!(off.replace_fallback || off.retrain_retry || off.watchdog));
        let on = ResilienceConfig::hardened();
        assert!(on.replace_fallback && on.retrain_retry && on.watchdog);
    }
}
