//! The congestion-control scenario: collapse under noisy measurements, and
//! the P2 guardrail that falls back to CUBIC.

use std::collections::VecDeque;
use std::sync::Arc;

use guardrails::monitor::{MonitorEngine, OverheadAccount};
use guardrails::policy::{PolicyRegistry, VARIANT_FALLBACK, VARIANT_LEARNED};

use crate::classic::Cubic;
use crate::learned::LearnedCc;
use crate::link::{Link, LinkConfig, RoundOutcome};
use crate::CongestionControl;

/// The P2 guardrail: decisions must be stable within a time window.
///
/// `cc.flip_rate` is the fraction of adjacent decision pairs in the recent
/// window that flipped between grow and shrink — the operational form of
/// "similar inputs yield similar outputs and behavior within a time window"
/// (Figure 1, P2). A backup utilization floor catches a collapse that the
/// flip detector somehow misses (defense in depth; also a P4-style check).
pub const P2_GUARDRAIL: &str = r#"
guardrail cc-robustness {
    trigger: { TIMER(0, 200ms) },
    rule: {
        LOAD(cc.flip_rate) <= 0.3
        AVG(net.utilization, 1s) >= 0.4
    },
    action: {
        REPORT("learned CC unstable", cc.flip_rate, net.utilization_now)
        REPLACE(cc_policy, fallback)
    }
}
"#;

/// Which controller starts active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CcPolicyKind {
    /// CUBIC only.
    Cubic,
    /// The learned controller (CUBIC registered as fallback).
    Learned,
}

/// Configuration of the scenario.
#[derive(Clone, Debug)]
pub struct CcSimConfig {
    /// RNG seed.
    pub seed: u64,
    /// Link parameters.
    pub link: LinkConfig,
    /// Training rounds (clean measurements, exploration on).
    pub train_rounds: u32,
    /// Clean evaluation rounds after training.
    pub clean_rounds: u32,
    /// Noisy-measurement rounds after the shift.
    pub noisy_rounds: u32,
    /// RTT measurement noise applied at the shift.
    pub noise: f64,
    /// The starting policy.
    pub policy: CcPolicyKind,
    /// Install the P2 guardrail?
    pub with_guardrail: bool,
}

impl Default for CcSimConfig {
    fn default() -> Self {
        CcSimConfig {
            seed: 0xCC_11,
            link: LinkConfig::default(),
            train_rounds: 6_000,
            clean_rounds: 500,
            noisy_rounds: 1_500,
            noise: 0.35,
            policy: CcPolicyKind::Learned,
            with_guardrail: false,
        }
    }
}

/// The output of one run.
#[derive(Clone, Debug)]
pub struct CcReport {
    /// Mean utilization over the clean evaluation phase.
    pub clean_utilization: f64,
    /// Mean utilization over the noisy phase.
    pub noisy_utilization: f64,
    /// Mean utilization over the last quarter of the noisy phase.
    pub noisy_tail_utilization: f64,
    /// Violations recorded.
    pub violations: usize,
    /// Whether the learned controller was still active at the end.
    pub learned_active_at_end: bool,
    /// `(seconds, utilization)` series for plotting.
    pub series: Vec<(f64, f64)>,
    /// The engine's summed overhead accounts for the run: deterministic
    /// counters, no wall time.
    pub telemetry: OverheadAccount,
}

/// Runs the scenario.
///
/// # Panics
///
/// Panics if the built-in guardrail spec fails to compile (a crate bug).
pub fn run_cc_sim(config: CcSimConfig) -> CcReport {
    let registry = Arc::new(PolicyRegistry::new());
    registry
        .register("cc_policy", &[VARIANT_LEARNED, VARIANT_FALLBACK])
        .expect("fresh registry");
    let learned_active = registry.handle("cc_policy", VARIANT_LEARNED);
    if config.policy == CcPolicyKind::Cubic {
        registry
            .replace("cc_policy", VARIANT_FALLBACK)
            .expect("variant exists");
    }
    let mut engine = MonitorEngine::with_parts(
        Arc::new(guardrails::FeatureStore::new()),
        Arc::clone(&registry),
    );
    let store = engine.store();

    let mut link = Link::new(config.link, config.seed);
    let mut learned = LearnedCc::new(0.2, config.seed ^ 0xBEEF);
    let mut cubic = Cubic::new();
    let mut outcome = RoundOutcome::initial(&config.link);
    let rtt = config.link.base_rtt;
    let total = config.train_rounds + config.clean_rounds + config.noisy_rounds;
    let shift_at = config.train_rounds + config.clean_rounds;

    let mut recent_mults: VecDeque<f64> = VecDeque::new();
    let mut clean_util = 0.0;
    let mut noisy_util = 0.0;
    let mut tail_util = 0.0;
    let mut tail_rounds = 0u32;
    let mut series = Vec::new();
    let mut util_window = 0.0;
    let mut util_rounds = 0u32;

    for round in 0..total {
        let now = rtt * u64::from(round + 1);
        if round < config.train_rounds && round % 200 == 0 {
            // Episodic training resets (exploration over the whole range).
            learned.reset_window();
        }
        if round == config.train_rounds {
            learned.freeze();
            learned.reset_window();
            // The guardrail deploys alongside the trained model — it
            // monitors the deployed policy, not the offline trainer.
            if config.with_guardrail {
                engine.install_str(P2_GUARDRAIL).expect("P2 spec compiles");
            }
        }
        if round == shift_at {
            link.set_rtt_noise(config.noise);
        }

        let use_learned = learned_active.is_active();
        let window = if use_learned {
            let w = learned.next_window(&outcome);
            recent_mults.push_back(learned.last_multiplier());
            if recent_mults.len() > 32 {
                recent_mults.pop_front();
            }
            w
        } else {
            cubic.next_window(&outcome)
        };
        outcome = link.round(window);

        // Publish P2 features: the grow/shrink flip rate of the learned
        // policy's recent decisions, plus the utilization series.
        let flips = recent_mults
            .iter()
            .zip(recent_mults.iter().skip(1))
            .filter(|(a, b)| (**a > 1.0) != (**b > 1.0) && (**a - 1.0) * (**b - 1.0) != 0.0)
            .count();
        let flip_rate = if recent_mults.len() > 1 && use_learned {
            flips as f64 / (recent_mults.len() - 1) as f64
        } else {
            0.0
        };
        store.save("cc.flip_rate", flip_rate);
        store.record("net.utilization", now, outcome.utilization);
        store.save("net.utilization_now", outcome.utilization);
        engine.advance_to(now);

        // Phase accounting.
        if round >= config.train_rounds && round < shift_at {
            clean_util += outcome.utilization;
        } else if round >= shift_at {
            noisy_util += outcome.utilization;
            if round >= total - config.noisy_rounds / 4 {
                tail_util += outcome.utilization;
                tail_rounds += 1;
            }
        }
        util_window += outcome.utilization;
        util_rounds += 1;
        if util_rounds == 25 {
            series.push((now.as_secs_f64(), util_window / util_rounds as f64));
            util_window = 0.0;
            util_rounds = 0;
        }
    }

    CcReport {
        clean_utilization: clean_util / config.clean_rounds.max(1) as f64,
        noisy_utilization: noisy_util / config.noisy_rounds.max(1) as f64,
        noisy_tail_utilization: tail_util / tail_rounds.max(1) as f64,
        violations: engine.stats().violations as usize,
        learned_active_at_end: learned_active.is_active(),
        series,
        telemetry: engine.telemetry_snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(policy: CcPolicyKind, with_guardrail: bool) -> CcReport {
        run_cc_sim(CcSimConfig {
            policy,
            with_guardrail,
            ..CcSimConfig::default()
        })
    }

    #[test]
    fn learned_cc_performs_when_clean() {
        let report = run(CcPolicyKind::Learned, false);
        assert!(
            report.clean_utilization > 0.7,
            "clean utilization {}",
            report.clean_utilization
        );
    }

    #[test]
    fn learned_cc_collapses_under_measurement_noise() {
        let report = run(CcPolicyKind::Learned, false);
        assert!(
            report.noisy_tail_utilization < 0.4,
            "expected collapse, got {}",
            report.noisy_tail_utilization
        );
        assert!(report.learned_active_at_end);
        assert_eq!(report.violations, 0);
    }

    #[test]
    fn cubic_is_robust_to_measurement_noise() {
        let report = run(CcPolicyKind::Cubic, false);
        assert!(
            report.noisy_utilization > 0.8,
            "cubic noisy utilization {}",
            report.noisy_utilization
        );
    }

    #[test]
    fn p2_guardrail_restores_utilization() {
        let guarded = run(CcPolicyKind::Learned, true);
        let unguarded = run(CcPolicyKind::Learned, false);
        assert!(guarded.violations > 0, "guardrail must fire");
        assert!(!guarded.learned_active_at_end, "fallback installed");
        assert!(
            guarded.noisy_tail_utilization > unguarded.noisy_tail_utilization + 0.3,
            "guarded tail {} vs unguarded tail {}",
            guarded.noisy_tail_utilization,
            unguarded.noisy_tail_utilization
        );
        // Identical before the shift.
        assert!((guarded.clean_utilization - unguarded.clean_utilization).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(CcPolicyKind::Learned, true);
        let b = run(CcPolicyKind::Learned, true);
        assert_eq!(a.noisy_tail_utilization, b.noisy_tail_utilization);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.telemetry, b.telemetry, "telemetry counters determinize");
    }
}
