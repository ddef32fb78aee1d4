//! Fail-safe runtime configuration: retry, fallback, and watchdog policy.
//!
//! The monitor engine is the component that must *not* fail when everything
//! around it does. This module holds the knobs that harden it:
//!
//! - [`RetryPolicy`] — `RETRAIN` requests rejected by the rate limiter are
//!   retried with exponential backoff instead of dropped.
//! - [`WatchdogConfig`] — a monitor whose rule evaluation faults (fuel
//!   exhaustion, panic) repeatedly is auto-disabled with a report, instead
//!   of silently wedging the property it guards. [`FailMode::FailClosed`]
//!   additionally fires the monitor's actions once on the way down: if we
//!   can no longer *check* the property, assume it is violated and correct.
//! - [`ResilienceConfig`] — the bundle the engine consumes; [`hardened`]
//!   turns everything on, [`Default`] leaves everything off so the seed
//!   semantics are unchanged.
//! - [`RuntimeConfig`] — the one composable builder over *all* runtime
//!   hardening axes: the store's non-finite quarantine, the in-flight fault
//!   resilience above, and the crash-recovery layer
//!   ([`RecoveryConfig`]: durable store + supervisor). Hosts apply one
//!   value instead of toggling each subsystem ad hoc.
//!
//! [`hardened`]: ResilienceConfig::hardened

use simkernel::Nanos;

use crate::store::durable::DurabilityConfig;

/// Exponential-backoff retry for rejected or failed `RETRAIN` requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts after the initial rejection before giving up.
    pub max_attempts: u32,
    /// Delay before the first retry; each later retry waits twice as long
    /// as the one before.
    pub initial_backoff: Nanos,
}

impl RetryPolicy {
    /// A doubling backoff: `initial`, `2·initial`, `4·initial`, ...
    pub fn exponential(max_attempts: u32, initial_backoff: Nanos) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            initial_backoff,
        }
    }

    /// The delay before retry number `attempt` (0-based), saturating; the
    /// doubling stops after 20 attempts.
    pub fn backoff(&self, attempt: u32) -> Nanos {
        let factor = 1u64 << attempt.min(20);
        Nanos::from_nanos(self.initial_backoff.as_nanos().saturating_mul(factor))
    }
}

impl Default for RetryPolicy {
    /// Four attempts, doubling from 500ms.
    fn default() -> Self {
        Self::exponential(4, Nanos::from_millis(500))
    }
}

/// What a tripped watchdog does with the faulting monitor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailMode {
    /// Disable the monitor and report; the guarded property goes unchecked
    /// until probation (or an operator) re-enables it.
    FailOpen,
    /// Dispatch the monitor's corrective actions once, then disable it:
    /// when the check itself is broken, presume the property violated and
    /// leave the system in its safe configuration.
    FailClosed,
}

/// Auto-disable policy for monitors whose rule evaluation keeps faulting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Consecutive rule faults before the monitor is disabled.
    pub max_consecutive_faults: u32,
    /// What to do on trip.
    pub fail_mode: FailMode,
    /// If set, the monitor is re-enabled (counters reset) this long after
    /// tripping — a transient fault self-heals, a persistent one re-trips.
    pub probation: Option<Nanos>,
}

impl Default for WatchdogConfig {
    /// Trip after 8 consecutive faults, fail open, no probation.
    fn default() -> Self {
        WatchdogConfig {
            max_consecutive_faults: 8,
            fail_mode: FailMode::FailOpen,
            probation: None,
        }
    }
}

impl WatchdogConfig {
    /// A fail-closed watchdog with the default trip threshold.
    pub fn fail_closed() -> Self {
        WatchdogConfig {
            fail_mode: FailMode::FailClosed,
            ..Self::default()
        }
    }

    /// Returns this config with a probation period.
    pub fn with_probation(mut self, probation: Nanos) -> Self {
        self.probation = Some(probation);
        self
    }

    /// Returns this config with a trip threshold.
    pub fn with_max_faults(mut self, max: u32) -> Self {
        self.max_consecutive_faults = max.max(1);
        self
    }
}

/// The engine's fail-safe configuration bundle.
///
/// The default is everything off: the engine behaves exactly like the seed
/// runtime, which existing guardrail deployments (and tests) rely on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// `REPLACE` with a missing variant degrades to the slot's registered
    /// default variant instead of failing with only a log line.
    pub replace_fallback: bool,
    /// Retry rejected `RETRAIN` requests with backoff.
    pub retrain_retry: Option<RetryPolicy>,
    /// Auto-disable monitors that fault repeatedly.
    pub watchdog: Option<WatchdogConfig>,
}

impl ResilienceConfig {
    /// Everything on with default sub-policies: fallback `REPLACE`,
    /// doubling `RETRAIN` retry, fail-closed watchdog.
    pub fn hardened() -> Self {
        ResilienceConfig {
            replace_fallback: true,
            retrain_retry: Some(RetryPolicy::default()),
            watchdog: Some(WatchdogConfig::fail_closed()),
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

    /// Returns this config with a different resilience bundle.
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = resilience;
        self
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
    fn backoff_doubles_and_saturates() {
        let r = RetryPolicy::exponential(5, Nanos::from_secs(1));
        assert_eq!(r.backoff(0), Nanos::from_secs(1));
        assert_eq!(r.backoff(1), Nanos::from_secs(2));
        assert_eq!(r.backoff(3), Nanos::from_secs(8));
        // Huge attempt counts clamp (exponent capped) rather than overflow.
        assert_eq!(r.backoff(u32::MAX), r.backoff(20));
    }

    #[test]
    fn config_presets() {
        let off = ResilienceConfig::default();
        assert!(!off.replace_fallback);
        assert!(off.retrain_retry.is_none());
        assert!(off.watchdog.is_none());

        let on = ResilienceConfig::hardened();
        assert!(on.replace_fallback);
        assert_eq!(on.watchdog.unwrap().fail_mode, FailMode::FailClosed);
        assert_eq!(
            on.watchdog
                .unwrap()
                .with_probation(Nanos::from_secs(9))
                .probation,
            Some(Nanos::from_secs(9))
        );
        assert_eq!(
            WatchdogConfig::default()
                .with_max_faults(0)
                .max_consecutive_faults,
            1
        );
    }
}
