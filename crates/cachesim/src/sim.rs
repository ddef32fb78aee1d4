//! The cache scenario: learned admission vs. the paper's P4 comparator
//! ("better hit rates than randomly selecting elements"), with shadow
//! caches feeding the guardrail.

use std::sync::Arc;

use guardrails::monitor::{Hysteresis, MonitorEngine, OverheadAccount};
use guardrails::policy::{PolicyRegistry, VARIANT_FALLBACK, VARIANT_LEARNED};
use simkernel::Nanos;

use crate::cache::{Cache, EvictionPolicy};
use crate::policy::LearnedAdmission;
use crate::trace::{CacheTrace, CacheTraceConfig};

/// The P4 guardrail, directly from Figure 1's cache-replacement row: the
/// learned cache must beat the random-policy shadow cache (with a small
/// noise margin, debounced 3-of-3 by the engine's hysteresis).
pub const P4_CACHE_GUARDRAIL: &str = r#"
guardrail cache-beats-random {
    trigger: { TIMER(5ms, 2ms) },
    rule: { LOAD(cache.learned_hit_rate) + 0.02 >= LOAD(cache.random_hit_rate) },
    action: {
        REPORT("learned cache lost to random", cache.learned_hit_rate, cache.random_hit_rate)
        REPLACE(cache_policy, fallback)
    }
}
"#;

/// Configuration of the cache scenario.
#[derive(Clone, Debug)]
pub struct CacheSimConfig {
    /// RNG seed.
    pub seed: u64,
    /// Cache capacity in keys.
    pub capacity: usize,
    /// Warmup accesses (training; heuristic admit-always serving).
    pub warmup: u64,
    /// Phase-1 accesses (zipf + scans).
    pub phase1: u64,
    /// Phase-2 accesses (a cyclic loop 1.5x the cache — LRU's pathology).
    pub phase2: u64,
    /// Install the P4 guardrail?
    pub with_guardrail: bool,
}

impl Default for CacheSimConfig {
    fn default() -> Self {
        CacheSimConfig {
            seed: 0xCAC4E,
            capacity: 512,
            warmup: 30_000,
            phase1: 30_000,
            phase2: 60_000,
            with_guardrail: false,
        }
    }
}

/// The output of one cache run.
#[derive(Clone, Debug)]
pub struct CacheReport {
    /// Main-cache hit rate in phase 1.
    pub phase1_hit_rate: f64,
    /// Main-cache hit rate in phase 2.
    pub phase2_hit_rate: f64,
    /// Main-cache hit rate in the last quarter of phase 2.
    pub phase2_tail_hit_rate: f64,
    /// LRU shadow hit rate in phase 2.
    pub shadow_lru_phase2: f64,
    /// Random shadow hit rate in phase 2.
    pub shadow_random_phase2: f64,
    /// Violations recorded.
    pub violations: usize,
    /// Whether the learned variant was active at the end.
    pub learned_active_at_end: bool,
    /// The engine's summed overhead accounts for the run: deterministic
    /// counters, no wall time.
    pub telemetry: OverheadAccount,
}

/// Nanoseconds per access (drives the TIMER trigger).
const ACCESS_PERIOD: Nanos = Nanos::from_nanos(500);

/// Runs the cache scenario.
///
/// # Panics
///
/// Panics if the built-in guardrail spec fails to compile (a crate bug).
pub fn run_cache_sim(config: CacheSimConfig) -> CacheReport {
    let registry = Arc::new(PolicyRegistry::new());
    registry
        .register("cache_policy", &[VARIANT_LEARNED, VARIANT_FALLBACK])
        .expect("fresh registry");
    let learned = registry.handle("cache_policy", VARIANT_LEARNED);
    let mut engine = MonitorEngine::with_parts(
        Arc::new(guardrails::FeatureStore::new()),
        Arc::clone(&registry),
    );
    if config.with_guardrail {
        engine
            .install_str(P4_CACHE_GUARDRAIL)
            .expect("P4 spec compiles");
        engine
            .set_hysteresis("cache-beats-random", Hysteresis::n_of_m(3, 3))
            .expect("guardrail installed");
    }
    let store = engine.store();

    let mut main = Cache::new(config.capacity, EvictionPolicy::Lru, config.seed);
    let mut shadow_lru = Cache::new(config.capacity, EvictionPolicy::Lru, config.seed ^ 1);
    let mut shadow_random = Cache::new(config.capacity, EvictionPolicy::Random, config.seed ^ 2);
    let mut admission = LearnedAdmission::new();
    let mut trace = CacheTrace::new(
        CacheTraceConfig::zipf_with_scans(config.capacity as u64 * 2),
        config.seed ^ 0xF00D,
    );

    let total = config.warmup + config.phase1 + config.phase2;
    let shift_at = config.warmup + config.phase1;
    let mut now = Nanos::ZERO;
    let mut phase_hits = [0u64; 3];
    let mut phase_totals = [0u64; 3];
    let mut tail_hits = 0u64;
    let mut tail_total = 0u64;
    let mut window = [0u64; 6]; // (hits, totals) x (main, lru, random)

    for tick in 1..=total {
        now += ACCESS_PERIOD;
        if tick == config.warmup {
            admission.freeze();
        }
        if tick == shift_at {
            trace.set_config(CacheTraceConfig::cyclic_loop(
                (config.capacity as u64 * 3) / 2,
            ));
        }
        let key = trace.next_key();
        let features = admission.observe(key);

        // Shadow caches replay the same trace under the baselines.
        let lru_hit = shadow_lru.access(key);
        if !lru_hit {
            shadow_lru.insert(key);
        }
        let random_hit = shadow_random.access(key);
        if !random_hit {
            shadow_random.insert(key);
        }

        // The main cache runs the active policy.
        let learned_active = learned.is_active();
        let hit = main.access(key);
        if !hit {
            let admit = if learned_active && admission.is_frozen() {
                admission.admit(&features)
            } else {
                true
            };
            if admit {
                main.insert(key);
            }
        }

        // Training label: the key has demonstrated reuse (decayed frequency
        // of at least two) — the doorkeeper rule TinyLFU-style admission
        // distils.
        if !admission.is_frozen() {
            let reused = features[0] >= 2f64.ln_1p() - 1e-9;
            admission.train(&features, reused);
        }

        // Per-phase accounting.
        let phase = if tick <= config.warmup {
            0
        } else if tick <= shift_at {
            1
        } else {
            2
        };
        phase_totals[phase] += 1;
        if hit {
            phase_hits[phase] += 1;
        }
        if tick > total - config.phase2 / 4 {
            tail_total += 1;
            if hit {
                tail_hits += 1;
            }
        }

        // Windowed rates for the guardrail.
        window[0] += hit as u64;
        window[1] += 1;
        window[2] += lru_hit as u64;
        window[3] += 1;
        window[4] += random_hit as u64;
        window[5] += 1;
        if tick % 1024 == 0 {
            store.save(
                "cache.learned_hit_rate",
                window[0] as f64 / window[1] as f64,
            );
            store.save("cache.lru_hit_rate", window[2] as f64 / window[3] as f64);
            store.save("cache.random_hit_rate", window[4] as f64 / window[5] as f64);
            window = [0; 6];
            engine.advance_to(now);
        }

        // A REPLACE swap also flips the main cache's eviction policy: the
        // fallback is the paper's comparator, random replacement.
        if !learned.is_active() {
            main.set_policy(EvictionPolicy::Random);
        }
    }
    engine.advance_to(now);

    CacheReport {
        phase1_hit_rate: phase_hits[1] as f64 / phase_totals[1].max(1) as f64,
        phase2_hit_rate: phase_hits[2] as f64 / phase_totals[2].max(1) as f64,
        phase2_tail_hit_rate: tail_hits as f64 / tail_total.max(1) as f64,
        shadow_lru_phase2: 0.0_f64.max(shadow_lru.hit_rate()),
        shadow_random_phase2: 0.0_f64.max(shadow_random.hit_rate()),
        violations: engine.stats().violations as usize,
        learned_active_at_end: learned.is_active(),
        telemetry: engine.telemetry_snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(with_guardrail: bool) -> CacheReport {
        run_cache_sim(CacheSimConfig {
            with_guardrail,
            ..CacheSimConfig::default()
        })
    }

    #[test]
    fn learned_admission_wins_phase1() {
        let report = run(false);
        assert!(
            report.phase1_hit_rate > 0.4,
            "phase1 {}",
            report.phase1_hit_rate
        );
    }

    #[test]
    fn loop_pattern_defeats_learned_lru_but_not_random() {
        let report = run(false);
        assert!(
            report.phase2_hit_rate < 0.1,
            "LRU loop pathology: {}",
            report.phase2_hit_rate
        );
        assert!(
            report.shadow_random_phase2 > report.phase2_hit_rate,
            "random {} vs learned {}",
            report.shadow_random_phase2,
            report.phase2_hit_rate
        );
        assert!(report.learned_active_at_end);
    }

    #[test]
    fn p4_guardrail_swaps_to_random_and_recovers() {
        let guarded = run(true);
        let unguarded = run(false);
        assert!(
            guarded.violations >= 3,
            "3-of-3 debounce then fire: {}",
            guarded.violations
        );
        assert!(!guarded.learned_active_at_end);
        assert!(
            guarded.phase2_tail_hit_rate > unguarded.phase2_tail_hit_rate + 0.1,
            "guarded tail {} vs unguarded {}",
            guarded.phase2_tail_hit_rate,
            unguarded.phase2_tail_hit_rate
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(true);
        let b = run(true);
        assert_eq!(a.phase2_tail_hit_rate, b.phase2_tail_hit_rate);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.telemetry, b.telemetry, "telemetry counters determinize");
    }
}
