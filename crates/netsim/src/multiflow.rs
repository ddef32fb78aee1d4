//! Multi-flow sharing and the fairness guardrail.
//!
//! The paper's §1 cites "starvation in end-to-end congestion control"
//! (Arun et al., SIGCOMM '22) among the heuristic failures motivating
//! guardrails, and P6 covers fairness as a first-class property. This
//! module puts a (solo-trained) learned controller on a link *shared* with
//! an AIMD flow. Competition is out of distribution for it: solo training
//! only ever saw losses at a full-capacity window, so the loss states at
//! the mid-size windows competition forces it into were never visited — and
//! an unvisited state's action is arbitrary (here: the strongest back-off).
//! Every synchronized loss knocks the learned flow down harder than the
//! AIMD competitor, and it converges to a starved sliver of the link —
//! organically reproducing the end-to-end starvation result the paper cites
//! (Arun et al., SIGCOMM '22). A Jain-index guardrail detects the unfair
//! split and replaces the learned controller with AIMD, whose
//! multiplicative-decrease symmetry against the competing AIMD flow is the
//! textbook fairness-convergence result.

use std::sync::Arc;

use guardrails::monitor::MonitorEngine;
use guardrails::policy::{PolicyRegistry, VARIANT_FALLBACK, VARIANT_LEARNED};
use simkernel::{JainIndex, Nanos};

use crate::classic::Aimd;
use crate::learned::LearnedCc;
use crate::link::{Link, LinkConfig, RoundOutcome};
use crate::CongestionControl;

/// The P6 fairness guardrail for the shared link: the windowed Jain index
/// of the two flows' throughput shares must stay above 0.8.
pub const FAIRNESS_GUARDRAIL: &str = r#"
guardrail flow-fairness {
    trigger: { TIMER(2s, 500ms) },
    rule: { AVG(net.jain, 2s) >= 0.8 },
    action: {
        REPORT("unfair bandwidth split", net.jain_now)
        REPLACE(cc_policy, fallback)
    }
}
"#;

/// A bottleneck link shared by two flows (FIFO, proportional sharing).
pub struct SharedLink {
    config: LinkConfig,
    last_rtt_ratio: [f64; 2],
}

impl SharedLink {
    /// Creates the link.
    pub fn new(config: LinkConfig) -> Self {
        SharedLink {
            config,
            last_rtt_ratio: [1.0, 1.0],
        }
    }

    /// Advances one RTT round with both flows' windows in flight; returns
    /// each flow's outcome. Utilization here is the flow's share of link
    /// capacity; loss is synchronized on overflow (drop-tail FIFO).
    pub fn round(&mut self, windows: [f64; 2]) -> [RoundOutcome; 2] {
        let capacity = self.config.bdp_packets;
        let queue_limit = capacity + self.config.queue_packets;
        let total: f64 = windows.iter().map(|w| w.max(1.0)).sum();
        let lost = total > queue_limit;
        let queue = (total - capacity).clamp(0.0, self.config.queue_packets);
        let rtt_ratio = 1.0 + queue / capacity;
        let rtt = Nanos::from_secs_f64(self.config.base_rtt.as_secs_f64() * rtt_ratio);
        let mut out = [
            RoundOutcome::initial(&self.config),
            RoundOutcome::initial(&self.config),
        ];
        for (i, o) in out.iter_mut().enumerate() {
            let w = windows[i].max(1.0);
            let acked = if total <= capacity {
                w
            } else {
                capacity * w / total
            };
            let gradient = (rtt_ratio - self.last_rtt_ratio[i])
                * self.config.base_rtt.as_secs_f64()
                / self.config.base_rtt.as_secs_f64();
            self.last_rtt_ratio[i] = rtt_ratio;
            *o = RoundOutcome {
                acked,
                lost,
                rtt,
                rtt_gradient: gradient,
                rtt_ratio,
                utilization: (acked / capacity).min(1.0),
                window: w,
            };
        }
        out
    }
}

/// Configuration of the fairness scenario.
#[derive(Clone, Debug)]
pub struct FairnessSimConfig {
    /// RNG/model seed.
    pub seed: u64,
    /// Solo training rounds for the learned controller.
    pub train_rounds: u32,
    /// Shared-link competition rounds.
    pub compete_rounds: u32,
    /// Install the fairness guardrail?
    pub with_guardrail: bool,
    /// Use the AIMD fallback for flow 0 from the start (fairness baseline).
    pub fallback_vs_aimd: bool,
}

impl Default for FairnessSimConfig {
    fn default() -> Self {
        FairnessSimConfig {
            seed: 0xFA1E,
            train_rounds: 6_000,
            compete_rounds: 2_000,
            with_guardrail: false,
            fallback_vs_aimd: false,
        }
    }
}

/// The output of one fairness run.
#[derive(Clone, Debug)]
pub struct FairnessReport {
    /// Mean Jain index over the last half of the competition.
    pub tail_jain: f64,
    /// Flow throughput shares over the last half (learned/fallback, aimd).
    pub tail_shares: [f64; 2],
    /// Violations recorded.
    pub violations: usize,
    /// Whether the learned controller was still active at the end.
    pub learned_active_at_end: bool,
}

/// Runs the fairness scenario.
///
/// # Panics
///
/// Panics if the built-in guardrail spec fails to compile (a crate bug).
pub fn run_fairness_sim(config: FairnessSimConfig) -> FairnessReport {
    let link_config = LinkConfig::default();

    // Train the learned controller alone on a private link — it has never
    // seen a competitor.
    let mut learned = LearnedCc::new(0.2, config.seed);
    {
        let mut solo = Link::new(link_config, config.seed);
        let mut outcome = RoundOutcome::initial(&link_config);
        for round in 0..config.train_rounds {
            if round % 200 == 0 {
                learned.reset_window();
            }
            let w = learned.next_window(&outcome);
            outcome = solo.round(w);
        }
        learned.freeze();
        learned.reset_window();
    }

    let registry = Arc::new(PolicyRegistry::new());
    registry
        .register("cc_policy", &[VARIANT_LEARNED, VARIANT_FALLBACK])
        .expect("fresh registry");
    if config.fallback_vs_aimd {
        registry
            .replace("cc_policy", VARIANT_FALLBACK)
            .expect("variant exists");
    }
    let mut engine = MonitorEngine::with_parts(
        Arc::new(guardrails::FeatureStore::new()),
        Arc::clone(&registry),
    );
    if config.with_guardrail {
        engine
            .install_str(FAIRNESS_GUARDRAIL)
            .expect("guardrail compiles");
    }
    let store = engine.store();

    let mut shared = SharedLink::new(link_config);
    let mut fallback = Aimd::new();
    let mut aimd = Aimd::new();
    let mut outcomes = [
        RoundOutcome::initial(&link_config),
        RoundOutcome::initial(&link_config),
    ];
    let mut tail_jain = 0.0;
    let mut tail_acked = [0.0f64; 2];
    let mut tail_rounds = 0u32;

    for round in 0..config.compete_rounds {
        let now = link_config.base_rtt * u64::from(round + 1);
        let w0 = if registry.is_active("cc_policy", VARIANT_LEARNED) {
            learned.next_window(&outcomes[0])
        } else {
            fallback.next_window(&outcomes[0])
        };
        let w1 = aimd.next_window(&outcomes[1]);
        outcomes = shared.round([w0, w1]);

        let jain = JainIndex::of(&[outcomes[0].acked, outcomes[1].acked]);
        store.record("net.jain", now, jain);
        store.save("net.jain_now", jain);
        engine.advance_to(now);

        if round >= config.compete_rounds / 2 {
            tail_jain += jain;
            tail_acked[0] += outcomes[0].acked;
            tail_acked[1] += outcomes[1].acked;
            tail_rounds += 1;
        }
    }

    let total_acked: f64 = tail_acked.iter().sum();
    FairnessReport {
        tail_jain: tail_jain / f64::from(tail_rounds.max(1)),
        tail_shares: [
            tail_acked[0] / total_acked.max(1e-9),
            tail_acked[1] / total_acked.max(1e-9),
        ],
        violations: engine.stats().violations as usize,
        learned_active_at_end: registry.is_active("cc_policy", VARIANT_LEARNED),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_link_splits_proportionally() {
        let mut link = SharedLink::new(LinkConfig::default());
        let out = link.round([90.0, 30.0]);
        assert!(!out[0].lost, "within queue limit");
        // 100 capacity split 3:1.
        assert!((out[0].acked - 75.0).abs() < 1e-9);
        assert!((out[1].acked - 25.0).abs() < 1e-9);
        assert!(out[0].rtt_ratio > 1.0, "queue inflates RTT");
        // Overflow loses for both (drop-tail).
        let out = link.round([300.0, 50.0]);
        assert!(out[0].lost && out[1].lost);
    }

    #[test]
    fn aimd_vs_aimd_converges_to_fair() {
        let report = run_fairness_sim(FairnessSimConfig {
            fallback_vs_aimd: true,
            ..FairnessSimConfig::default()
        });
        assert!(report.tail_jain > 0.9, "jain {}", report.tail_jain);
    }

    #[test]
    fn solo_trained_learned_cc_starves_under_competition() {
        let report = run_fairness_sim(FairnessSimConfig::default());
        assert!(
            report.tail_jain < 0.8,
            "expected unfairness, jain {}",
            report.tail_jain
        );
        // The learned flow starves *itself*: competition-induced loss states
        // are out of its training distribution (the Arun et al. failure).
        assert!(
            report.tail_shares[0] < 0.3,
            "learned flow starved: {:?}",
            report.tail_shares
        );
        assert_eq!(report.violations, 0);
    }

    #[test]
    fn fairness_guardrail_restores_the_split() {
        let guarded = run_fairness_sim(FairnessSimConfig {
            with_guardrail: true,
            ..FairnessSimConfig::default()
        });
        let unguarded = run_fairness_sim(FairnessSimConfig::default());
        assert!(guarded.violations > 0, "guardrail fires");
        assert!(!guarded.learned_active_at_end);
        assert!(
            guarded.tail_jain > unguarded.tail_jain + 0.1,
            "guarded {} vs unguarded {}",
            guarded.tail_jain,
            unguarded.tail_jain
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_fairness_sim(FairnessSimConfig::default());
        let b = run_fairness_sim(FairnessSimConfig::default());
        assert_eq!(a.tail_jain, b.tail_jain);
    }
}
