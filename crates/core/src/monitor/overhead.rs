//! Per-monitor overhead accounting (property P5).
//!
//! One of the paper's motivating complaints about prior work is that it
//! provides "no way for practitioners to assess if inference overhead is
//! justified and to bound performance impact" (§1). The engine therefore
//! charges every rule evaluation and action dispatch to an account, in
//! *modelled* nanoseconds: fuel × a per-unit cost, deterministic and usable
//! inside the simulation. An account only counts, so it is a function of
//! the engine's inputs; measured wall time is
//! [`crate::telemetry::Telemetry`]'s, engine-wide and never checkpointed.

use simkernel::Nanos;

/// Modelled cost of one fuel unit, in simulated nanoseconds.
///
/// Calibrated to a few nanoseconds per simple interpreted instruction, the
/// right order of magnitude for an eBPF-style monitor on modern hardware.
pub const NS_PER_FUEL: u64 = 2;

/// The overhead account of one monitor: the engine's only counters.
///
/// Every evaluation, violation, trip, fault, fuel unit and action is counted
/// once, here, on the monitor it belongs to. The engine-wide figures
/// ([`crate::monitor::EngineStats`], the telemetry snapshot and the
/// published `__telemetry/engine/*` keys) are sums of these accounts, read
/// on demand.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverheadAccount {
    /// Rule-set evaluations performed.
    pub evaluations: u64,
    /// Violations detected (rule false).
    pub violations: u64,
    /// Violations whose actions fired (post-hysteresis).
    pub trips: u64,
    /// Deferred commands emitted to the outbox.
    pub commands_emitted: u64,
    /// Rule evaluations aborted by a fault (fuel exhaustion).
    pub rule_faults: u64,
    /// Times the watchdog disabled this monitor.
    pub watchdog_trips: u64,
    /// `RETRAIN` retry attempts serviced (successful or not).
    pub retrain_retries: u64,
    /// Total fuel consumed by rule evaluations.
    pub rule_fuel: u64,
    /// Total fuel consumed by action operand programs.
    pub action_fuel: u64,
    /// Actions dispatched, by kind, indexed by
    /// [`crate::telemetry::ActionKind`].
    pub actions: [u64; 6],
}

impl OverheadAccount {
    /// Actions dispatched, all kinds.
    pub fn actions_dispatched(&self) -> u64 {
        self.actions.iter().sum()
    }

    /// Modelled monitoring time in simulated nanoseconds: all fuel, rules
    /// and actions, at [`NS_PER_FUEL`], saturating.
    pub fn modeled(&self) -> Nanos {
        Nanos::from_nanos(
            self.rule_fuel
                .saturating_add(self.action_fuel)
                .saturating_mul(NS_PER_FUEL),
        )
    }

    /// Modelled cost per evaluation.
    pub fn modeled_per_evaluation(&self) -> Nanos {
        if self.evaluations == 0 {
            Nanos::ZERO
        } else {
            self.modeled() / self.evaluations
        }
    }

    /// Merges another account into this one, field by field.
    pub fn merge(&mut self, other: &OverheadAccount) {
        self.evaluations += other.evaluations;
        self.violations += other.violations;
        self.trips += other.trips;
        self.commands_emitted += other.commands_emitted;
        self.rule_faults += other.rule_faults;
        self.watchdog_trips += other.watchdog_trips;
        self.retrain_retries += other.retrain_retries;
        self.rule_fuel += other.rule_fuel;
        self.action_fuel += other.action_fuel;
        for (mine, theirs) in self.actions.iter_mut().zip(other.actions) {
            *mine += theirs;
        }
    }
}

/// A named overhead summary row, as returned by the engine.
#[derive(Clone, Debug)]
pub struct OverheadReport {
    /// The guardrail name.
    pub guardrail: String,
    /// The account totals.
    pub account: OverheadAccount,
}

impl OverheadReport {
    /// Fraction of a given busy interval consumed by modelled monitoring
    /// time. This is the number a P5 guardrail compares against its bound.
    pub fn fraction_of(&self, interval: Nanos) -> f64 {
        if interval == Nanos::ZERO {
            return 0.0;
        }
        self.account.modeled().as_nanos() as f64 / interval.as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_figures_follow_the_counters() {
        let a = OverheadAccount {
            evaluations: 2,
            rule_fuel: 16,
            action_fuel: 4,
            actions: [1, 0, 0, 0, 2, 0],
            ..OverheadAccount::default()
        };
        assert_eq!(a.actions_dispatched(), 3);
        assert_eq!(a.modeled(), Nanos::from_nanos(20 * NS_PER_FUEL));
        assert_eq!(a.modeled_per_evaluation(), Nanos::from_nanos(20));
    }

    #[test]
    fn empty_account_is_zero() {
        let a = OverheadAccount::default();
        assert_eq!(a.modeled(), Nanos::ZERO);
        assert_eq!(a.modeled_per_evaluation(), Nanos::ZERO);
        assert_eq!(a.actions_dispatched(), 0);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = OverheadAccount {
            evaluations: 1,
            rule_fuel: 10,
            actions: [0, 0, 0, 0, 1, 0],
            ..OverheadAccount::default()
        };
        let b = OverheadAccount {
            evaluations: 1,
            violations: 1,
            trips: 1,
            commands_emitted: 1,
            rule_faults: 1,
            watchdog_trips: 1,
            retrain_retries: 1,
            rule_fuel: 20,
            action_fuel: 3,
            actions: [0, 0, 0, 0, 1, 1],
        };
        a.merge(&b);
        assert_eq!(
            a,
            OverheadAccount {
                evaluations: 2,
                rule_fuel: 30,
                actions: [0, 0, 0, 0, 2, 1],
                ..b
            }
        );
        assert_eq!(a.modeled(), Nanos::from_nanos(33 * NS_PER_FUEL));
    }

    #[test]
    fn fraction_of_interval() {
        let report = OverheadReport {
            guardrail: "g".into(),
            // Modelled 1000ns.
            account: OverheadAccount {
                evaluations: 1,
                rule_fuel: 500,
                ..OverheadAccount::default()
            },
        };
        assert!((report.fraction_of(Nanos::from_micros(100)) - 0.01).abs() < 1e-12);
        assert_eq!(report.fraction_of(Nanos::ZERO), 0.0);
    }
}
