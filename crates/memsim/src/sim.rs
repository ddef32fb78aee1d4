//! The tiered-memory scenarios: P3 bounds enforcement and P4 quality
//! fallback, with `RETRAIN` recovery.

use std::collections::HashMap;
use std::sync::Arc;

use guardrails::action::Command;
use guardrails::monitor::MonitorEngine;
use guardrails::policy::{PolicyRegistry, VARIANT_FALLBACK, VARIANT_LEARNED};
use guardrails::{Telemetry, TelemetrySnapshot};
use simkernel::Nanos;

use crate::policy::{HeuristicPlacement, LearnedPlacement, PageStats, Placement};
use crate::tiers::{PageId, TieredMemory};
use crate::workload::{AccessKind, MemWorkload, MemWorkloadConfig};

/// The P3 guardrail: every placement decision is bounds-checked at the
/// `mem_place` tracepoint; a violation swaps in the fallback policy.
pub const P3_GUARDRAIL: &str = r#"
guardrail mem-bounds {
    trigger: { FUNCTION(mem_place) },
    rule: { ARG(0) >= 0 && ARG(0) < LOAD(mem.fast_capacity) },
    action: {
        REPORT("out-of-bounds placement", mem.fast_capacity)
        REPLACE(mem_policy, fallback)
        RETRAIN(mem_policy)
    }
}
"#;

/// The P4 guardrail: the windowed fast-tier hit rate must stay above 25%;
/// otherwise fall back and request a retrain.
pub const P4_GUARDRAIL: &str = r#"
guardrail mem-quality {
    trigger: { TIMER(10ms, 2ms) },
    rule: { AVG(mem.hit_rate, 4ms) >= 0.25 },
    action: {
        REPORT("placement quality collapsed", mem.hit_rate)
        REPLACE(mem_policy, fallback)
        RETRAIN(mem_policy)
    }
}
"#;

/// Which placement policy starts active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemPolicyKind {
    /// LRU promotion only.
    Heuristic,
    /// The learned placer (with heuristic registered as fallback).
    Learned,
}

/// Configuration of the tiering scenario.
#[derive(Clone, Debug)]
pub struct TieringSimConfig {
    /// RNG seed.
    pub seed: u64,
    /// Fast-tier frames.
    pub fast_frames: usize,
    /// Accesses in the training warmup (phase 1 pattern, heuristic serving).
    pub warmup_accesses: u64,
    /// Accesses in the healthy phase-1 window.
    pub phase1_accesses: u64,
    /// Accesses in the shifted phase-2 window (random writes, new range).
    pub phase2_accesses: u64,
    /// The starting policy.
    pub policy: MemPolicyKind,
    /// Install the P3 + P4 guardrails?
    pub with_guardrails: bool,
    /// Accesses a `RETRAIN` command spends retraining before re-freezing.
    pub retrain_accesses: u64,
    /// Switch back to the learned policy after a retrain completes.
    pub reenable_after_retrain: bool,
}

impl Default for TieringSimConfig {
    fn default() -> Self {
        TieringSimConfig {
            seed: 0x7EE7,
            fast_frames: 128,
            warmup_accesses: 40_000,
            phase1_accesses: 40_000,
            phase2_accesses: 60_000,
            policy: MemPolicyKind::Learned,
            with_guardrails: false,
            retrain_accesses: 15_000,
            reenable_after_retrain: true,
        }
    }
}

/// The output of one tiering run.
#[derive(Clone, Debug)]
pub struct TieringReport {
    /// Fast-tier hit rate during phase 1 (post-warmup, pre-shift).
    pub phase1_hit_rate: f64,
    /// Fast-tier hit rate during phase 2.
    pub phase2_hit_rate: f64,
    /// Hit rate over the last quarter of phase 2 (post-correction view).
    pub phase2_tail_hit_rate: f64,
    /// Out-of-bounds placements rejected by the memory.
    pub invalid_allocs: u64,
    /// Violations recorded by the engine.
    pub violations: usize,
    /// Policy swaps performed by `REPLACE`.
    pub swaps: u64,
    /// Whether the learned variant was active at the end.
    pub learned_active_at_end: bool,
    /// Whether a retrain completed.
    pub retrained: bool,
    /// Deterministic engine telemetry counters for the run.
    pub telemetry: TelemetrySnapshot,
}

/// Nanoseconds of simulated time per access (drives the TIMER triggers).
const ACCESS_PERIOD: Nanos = Nanos::from_nanos(250);

/// Runs the tiering scenario.
///
/// # Panics
///
/// Panics if the built-in guardrail specs fail to compile (a crate bug).
pub fn run_tiering_sim(config: TieringSimConfig) -> TieringReport {
    let registry = Arc::new(PolicyRegistry::new());
    registry
        .register("mem_policy", &[VARIANT_LEARNED, VARIANT_FALLBACK])
        .expect("fresh registry");
    if config.policy == MemPolicyKind::Heuristic {
        registry
            .replace("mem_policy", VARIANT_FALLBACK)
            .expect("variant exists");
    }
    let mut engine = MonitorEngine::with_parts(
        Arc::new(guardrails::FeatureStore::new()),
        Arc::clone(&registry),
    );
    engine.set_telemetry(Telemetry::new());
    if config.with_guardrails {
        engine.install_str(P3_GUARDRAIL).expect("P3 spec compiles");
        engine.install_str(P4_GUARDRAIL).expect("P4 spec compiles");
    }
    let store = engine.store();
    store.save("mem.fast_capacity", config.fast_frames as f64);

    let mut mem = TieredMemory::new(config.fast_frames);
    let mut learned = LearnedPlacement::new();
    let mut heuristic = HeuristicPlacement::new();
    let mut workload = MemWorkload::new(
        MemWorkloadConfig::hot_plus_scan(config.fast_frames as u64),
        config.seed,
    );

    let mut stats: HashMap<PageId, (PageStats, u64, f64)> = HashMap::new(); // (stats, last_tick, writes)
    let mut tick: u64 = 0;
    let mut now = Nanos::ZERO;
    let total = config.warmup_accesses + config.phase1_accesses + config.phase2_accesses;
    let shift_at = config.warmup_accesses + config.phase1_accesses;
    let mut phase1_hits = 0u64;
    let mut phase2_hits = 0u64;
    let mut tail_hits = 0u64;
    let mut tail_total = 0u64;
    let mut window_hits = 0u64;
    let mut window_total = 0u64;
    let mut retrain_left = 0u64;
    let mut retrained = false;
    // Reused command buffer: the periodic drain is almost always empty and
    // must not allocate per poll.
    let mut cmd_buf = Vec::new();

    while tick < total {
        tick += 1;
        now += ACCESS_PERIOD;
        let access = workload.next_access();
        // Maintain per-page statistics (decayed count, recency, writes).
        let entry = stats
            .entry(access.page)
            .or_insert((PageStats::default(), tick, 0.0));
        let age = tick - entry.1;
        entry.0.recent_count = entry.0.recent_count * 0.5f64.powf(age as f64 / 4096.0) + 1.0;
        entry.0.recency = age as f64;
        if access.kind == AccessKind::Write {
            entry.2 += 1.0;
        }
        entry.0.write_fraction = entry.2 / (entry.2 + 1.0).max(entry.0.recent_count.max(1.0));
        entry.1 = tick;
        let page_stats = entry.0;

        // Phase transitions.
        if tick == config.warmup_accesses {
            learned.freeze();
        }
        if tick == shift_at {
            workload.set_config(MemWorkloadConfig::random_write(config.fast_frames as u64));
        }

        // Training (warmup or an in-flight retrain): the label is the
        // re-access interval — pages coming back within ~512 accesses are
        // hot, one-shot/new pages are cold (scan resistance).
        if !learned.is_frozen() {
            let hot = page_stats.recency >= 1.0 && page_stats.recency <= 512.0;
            learned.train_example(access.page, &page_stats, hot);
            if retrain_left > 0 {
                retrain_left -= 1;
                if retrain_left == 0 {
                    learned.freeze();
                    retrained = true;
                    if config.reenable_after_retrain {
                        registry
                            .replace("mem_policy", VARIANT_LEARNED)
                            .expect("variant exists");
                    }
                }
            }
        }

        let result = mem.access(access.page);
        if result.fast_hit {
            window_hits += 1;
            if tick > config.warmup_accesses && tick <= shift_at {
                phase1_hits += 1;
            } else if tick > shift_at {
                phase2_hits += 1;
            }
        }
        if tick > total - config.phase2_accesses / 4 {
            tail_total += 1;
            if result.fast_hit {
                tail_hits += 1;
            }
        }
        window_total += 1;

        // On a miss, consult the active policy (warmup runs the heuristic
        // so the fast tier is realistic while the model trains offline).
        if !result.fast_hit {
            let use_learned = tick > config.warmup_accesses
                && registry.is_active("mem_policy", VARIANT_LEARNED)
                && learned.is_frozen();
            let (admit, frame) = if use_learned {
                let admit = learned.admit(access.page, &page_stats);
                let frame = learned.choose_frame(&mem, access.page, &page_stats);
                (admit, frame)
            } else {
                let admit = heuristic.admit(access.page, &page_stats);
                let frame = heuristic.choose_frame(&mem, access.page, &page_stats);
                (admit, frame)
            };
            if admit {
                // The placement tracepoint: the P3 guardrail checks ARG(0).
                engine.on_function("mem_place", now, &[frame as f64]);
                // The memory rejects out-of-bounds placements regardless.
                let _ = mem.place(access.page, frame);
            }
        }

        // Periodic publication + engine servicing.
        if tick.is_multiple_of(1024) {
            let rate = window_hits as f64 / window_total.max(1) as f64;
            store.record("mem.hit_rate", now, rate);
            store.save("mem.hit_rate_now", rate);
            window_hits = 0;
            window_total = 0;
            engine.advance_to(now);
            engine.drain_commands_into(&mut cmd_buf);
            for (_, command) in cmd_buf.drain(..) {
                if let Command::Retrain { model, .. } = command {
                    if model == "mem_policy" && learned.is_frozen() {
                        learned.begin_retrain();
                        retrain_left = config.retrain_accesses;
                    }
                }
            }
        }
    }
    engine.advance_to(now);

    TieringReport {
        phase1_hit_rate: phase1_hits as f64 / config.phase1_accesses.max(1) as f64,
        phase2_hit_rate: phase2_hits as f64 / config.phase2_accesses.max(1) as f64,
        phase2_tail_hit_rate: tail_hits as f64 / tail_total.max(1) as f64,
        invalid_allocs: mem.rejected(),
        violations: engine.stats().violations as usize,
        swaps: registry.swap_count("mem_policy"),
        learned_active_at_end: registry.is_active("mem_policy", VARIANT_LEARNED),
        retrained,
        telemetry: engine.telemetry_snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(policy: MemPolicyKind, with_guardrails: bool) -> TieringReport {
        run_tiering_sim(TieringSimConfig {
            policy,
            with_guardrails,
            ..TieringSimConfig::default()
        })
    }

    #[test]
    fn learned_beats_lru_on_hot_plus_scan() {
        let learned = run(MemPolicyKind::Learned, false);
        let heuristic = run(MemPolicyKind::Heuristic, false);
        assert!(
            learned.phase1_hit_rate > heuristic.phase1_hit_rate + 0.05,
            "learned {} vs lru {}",
            learned.phase1_hit_rate,
            heuristic.phase1_hit_rate
        );
    }

    #[test]
    fn unguarded_learned_collapses_after_shift() {
        let learned = run(MemPolicyKind::Learned, false);
        let heuristic = run(MemPolicyKind::Heuristic, false);
        assert!(
            learned.phase2_hit_rate < 0.1,
            "stale learned hit rate {}",
            learned.phase2_hit_rate
        );
        assert!(
            heuristic.phase2_hit_rate > 0.3,
            "lru phase2 {}",
            heuristic.phase2_hit_rate
        );
        // And the unguarded learned policy sprays out-of-bounds placements.
        assert!(
            learned.invalid_allocs > 100,
            "{} invalid",
            learned.invalid_allocs
        );
        assert_eq!(learned.violations, 0);
    }

    #[test]
    fn guardrails_stop_oob_and_recover_quality() {
        let guarded = run(MemPolicyKind::Learned, true);
        let unguarded = run(MemPolicyKind::Learned, false);
        assert!(guarded.violations > 0);
        assert!(guarded.swaps >= 1, "fallback installed");
        // P3: the very first out-of-bounds placement swaps the policy, so
        // almost none reach the memory (vs hundreds unguarded).
        assert!(
            guarded.invalid_allocs * 20 < unguarded.invalid_allocs.max(1),
            "guarded {} vs unguarded {}",
            guarded.invalid_allocs,
            unguarded.invalid_allocs
        );
        // P4: quality recovers after correction.
        assert!(
            guarded.phase2_tail_hit_rate > unguarded.phase2_tail_hit_rate + 0.15,
            "guarded tail {} vs unguarded tail {}",
            guarded.phase2_tail_hit_rate,
            unguarded.phase2_tail_hit_rate
        );
    }

    #[test]
    fn retrain_completes_and_reenables_learned() {
        let guarded = run(MemPolicyKind::Learned, true);
        assert!(guarded.retrained, "retrain must complete");
        assert!(guarded.learned_active_at_end, "re-enabled after retrain");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(MemPolicyKind::Learned, true);
        let b = run(MemPolicyKind::Learned, true);
        assert_eq!(a.phase2_hit_rate, b.phase2_hit_rate);
        assert_eq!(a.invalid_allocs, b.invalid_allocs);
        assert_eq!(a.telemetry, b.telemetry, "telemetry counters determinize");
    }
}
