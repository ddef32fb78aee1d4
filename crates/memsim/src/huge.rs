//! Huge-page promotion: the paper's motivating example.
//!
//! §1 of the paper opens with the observation that today's kernels "may
//! spend up to 500 ms allocating a huge page" (CBMM, ATC '22), and §2 uses
//! "page fault latencies must not exceed 50ms" as the canonical performance
//! property. This module reproduces that setting:
//!
//! - a physical-memory model where huge-page allocation is cheap while
//!   memory is unfragmented and requires compaction stalls (up to 500 ms)
//!   once it fragments;
//! - a THP-style *always* policy (the Linux default the paper's citation
//!   criticizes) and a base-pages-only fallback;
//! - a CBMM-flavoured *learned cost estimator* that decides huge vs base by
//!   comparing predicted allocation cost against the TLB benefit. Its
//!   hazard: it estimates cost from the **free-memory counter**, a proxy
//!   that tracks fragmentation during training but decouples from it when
//!   external churn fragments memory *without consuming it* — the estimator
//!   keeps predicting "cheap" and the fault path eats 100 ms+ stalls;
//! - the fault-latency guardrail (`QUANTILE(mem.fault_lat_ns, 0.99, …) <=
//!   50ms`) that falls back to base pages when the paper's property breaks.

use std::sync::Arc;

use guardrails::monitor::MonitorEngine;
use guardrails::policy::{PolicyRegistry, VARIANT_FALLBACK, VARIANT_LEARNED};
use simkernel::{DetRng, Nanos};

/// The §2 property, as a guardrail: 99th-percentile page-fault latency over
/// a rolling window must stay under 50 ms.
pub const FAULT_LATENCY_GUARDRAIL: &str = r#"
guardrail fault-latency-bound {
    trigger: { TIMER(500ms, 100ms) },
    rule: { QUANTILE(mem.fault_lat_ns, 0.99, 500ms) <= 50ms },
    action: {
        REPORT("page-fault latency bound violated", mem.free_fraction)
        REPLACE(thp_policy, fallback)
    }
}
"#;

/// Which promotion policy drives fault handling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThpPolicy {
    /// Always try a huge page (Linux `transparent_hugepage=always`).
    Always,
    /// Base pages only (the safe fallback).
    Never,
    /// The learned cost/benefit estimator.
    Learned,
}

/// Configuration of the huge-page scenario.
#[derive(Clone, Debug)]
pub struct HugeSimConfig {
    /// RNG seed.
    pub seed: u64,
    /// Page faults before memory fragments.
    pub faults_before_shift: u32,
    /// Page faults after memory fragments.
    pub faults_after_shift: u32,
    /// The policy under test.
    pub policy: ThpPolicy,
    /// Install the fault-latency guardrail?
    pub with_guardrail: bool,
}

impl Default for HugeSimConfig {
    fn default() -> Self {
        HugeSimConfig {
            seed: 0x4A6E,
            faults_before_shift: 4_000,
            faults_after_shift: 4_000,
            policy: ThpPolicy::Learned,
            with_guardrail: false,
        }
    }
}

/// The output of one run.
#[derive(Clone, Debug)]
pub struct HugeReport {
    /// Mean fault latency before the fragmentation shift.
    pub pre_mean: Nanos,
    /// Mean fault latency after the shift.
    pub post_mean: Nanos,
    /// 99th-percentile fault latency after the shift (the §2 property).
    pub post_p99: Nanos,
    /// Worst single fault (the paper's "up to 500 ms" anecdote).
    pub worst_fault: Nanos,
    /// Compaction stalls suffered.
    pub stalls: u32,
    /// Huge pages allocated.
    pub huge_allocated: u32,
    /// Violations recorded by the engine.
    pub violations: usize,
    /// Whether the learned policy was still active at the end.
    pub learned_active_at_end: bool,
}

/// Physical-memory state: fragmentation and the (decoupled) free counter.
struct PhysicalMemory {
    /// Fraction of free memory that is contiguous enough for huge pages.
    contiguity: f64,
    /// The free-memory fraction — the learned policy's (flawed) cost proxy.
    free_fraction: f64,
    rng: DetRng,
}

impl PhysicalMemory {
    fn new(seed: u64) -> Self {
        PhysicalMemory {
            contiguity: 0.995,
            free_fraction: 0.6,
            rng: DetRng::seed(seed),
        }
    }

    /// External churn fragments memory *without* consuming it: plenty free,
    /// none of it contiguous (the proxy/reality split CBMM documents).
    fn fragment(&mut self) {
        self.contiguity = 0.05;
        self.free_fraction = 0.55;
    }

    /// Cost of allocating one huge page right now.
    fn huge_alloc_cost(&mut self) -> (Nanos, bool) {
        if self.rng.chance(self.contiguity) {
            // A contiguous block is available.
            (Nanos::from_micros(80 + self.rng.u64(40)), false)
        } else {
            // Compaction: scan, migrate, retry — hundreds of milliseconds.
            let ms = 100 + self.rng.u64(400);
            (Nanos::from_millis(ms), true)
        }
    }
}

/// The CBMM-flavoured learned estimator: cost ≈ w / free_fraction, with `w`
/// fitted during training (when free memory and contiguity moved together).
struct LearnedEstimator {
    w: f64,
    trained: bool,
}

impl LearnedEstimator {
    fn new() -> Self {
        LearnedEstimator {
            w: 0.0,
            trained: false,
        }
    }

    /// One least-mean-squares step toward observed costs. Samples are
    /// winsorized at 1 ms: the estimator is fit to the common case, so the
    /// rare training-time compaction stall does not blow up the weight —
    /// which is precisely why it cannot anticipate a regime where stalls
    /// *are* the common case.
    fn train(&mut self, free_fraction: f64, observed: Nanos) {
        let x = 1.0 / free_fraction.max(0.05);
        let predicted = self.w * x;
        let capped = observed.as_micros_f64().min(1_000.0);
        let err = capped - predicted;
        self.w += 0.05 * err * x / (x * x).max(1.0);
        self.trained = true;
    }

    fn predict_cost(&self, free_fraction: f64) -> Nanos {
        Nanos::from_micros((self.w / free_fraction.max(0.05)).max(0.0) as u64)
    }
}

/// Cost of serving one 2 MiB region with base pages: 512 base faults of
/// ~6 µs, amortized into the region-fault event. Also the break-even point
/// the learned estimator compares predicted huge-allocation cost against.
const BASE_REGION_COST: Nanos = Nanos::from_millis(3);
/// Simulated gap between region faults.
const FAULT_GAP: Nanos = Nanos::from_micros(500);

/// Runs the huge-page scenario.
///
/// # Panics
///
/// Panics if the built-in guardrail spec fails to compile (a crate bug).
pub fn run_huge_sim(config: HugeSimConfig) -> HugeReport {
    let registry = Arc::new(PolicyRegistry::new());
    registry
        .register("thp_policy", &[VARIANT_LEARNED, VARIANT_FALLBACK])
        .expect("fresh registry");
    let mut engine = MonitorEngine::with_parts(
        Arc::new(guardrails::FeatureStore::new()),
        Arc::clone(&registry),
    );
    if config.with_guardrail {
        engine
            .install_str(FAULT_LATENCY_GUARDRAIL)
            .expect("guardrail compiles");
    }
    let store = engine.store();

    let mut memory = PhysicalMemory::new(config.seed);
    let mut estimator = LearnedEstimator::new();
    let mut now = Nanos::ZERO;
    let total = config.faults_before_shift + config.faults_after_shift;

    let mut pre = simkernel::RunningStats::new();
    let mut post = simkernel::RunningStats::new();
    let mut post_latencies: Vec<Nanos> = Vec::new();
    let mut worst = Nanos::ZERO;
    let mut stalls = 0u32;
    let mut huge_allocated = 0u32;

    for fault in 0..total {
        if fault == config.faults_before_shift {
            memory.fragment();
        }
        now += FAULT_GAP;
        store.save("mem.free_fraction", memory.free_fraction);

        let use_learned = registry.is_active("thp_policy", VARIANT_LEARNED);
        let want_huge = match config.policy {
            ThpPolicy::Always => use_learned, // Fallback still means base-only.
            ThpPolicy::Never => false,
            ThpPolicy::Learned => {
                use_learned
                    && estimator.trained
                    && estimator.predict_cost(memory.free_fraction) < BASE_REGION_COST
            }
        };
        // Untrained learned policy behaves like Always while it gathers
        // observations (optimistic bootstrap, like THP's default).
        let want_huge =
            want_huge || (config.policy == ThpPolicy::Learned && use_learned && !estimator.trained);

        let latency = if want_huge {
            let (cost, stalled) = memory.huge_alloc_cost();
            if stalled {
                stalls += 1;
            }
            huge_allocated += 1;
            if config.policy == ThpPolicy::Learned && fault < config.faults_before_shift {
                // Offline-ish training happens in the healthy regime only.
                estimator.train(memory.free_fraction, cost);
            }
            cost
        } else {
            // The region is served by 512 base-page faults (amortized).
            BASE_REGION_COST
        };

        store.record("mem.fault_lat_ns", now, latency.as_nanos() as f64);
        engine.advance_to(now);

        worst = worst.max(latency);
        if fault < config.faults_before_shift {
            pre.push(latency.as_nanos() as f64);
        } else {
            post.push(latency.as_nanos() as f64);
            post_latencies.push(latency);
        }
    }

    post_latencies.sort();
    let post_p99 = post_latencies
        .get(
            post_latencies
                .len()
                .saturating_sub(1)
                .min(post_latencies.len() * 99 / 100),
        )
        .copied()
        .unwrap_or(Nanos::ZERO);
    HugeReport {
        pre_mean: Nanos::from_nanos(pre.mean() as u64),
        post_mean: Nanos::from_nanos(post.mean() as u64),
        post_p99,
        worst_fault: worst,
        stalls,
        huge_allocated,
        violations: engine.stats().violations as usize,
        learned_active_at_end: registry.is_active("thp_policy", VARIANT_LEARNED),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(policy: ThpPolicy, with_guardrail: bool) -> HugeReport {
        run_huge_sim(HugeSimConfig {
            policy,
            with_guardrail,
            ..HugeSimConfig::default()
        })
    }

    #[test]
    fn huge_pages_win_while_memory_is_unfragmented() {
        let always = run(ThpPolicy::Always, false);
        let never = run(ThpPolicy::Never, false);
        // Mean wins despite the occasional (0.5%) training-regime stall.
        assert!(
            always.pre_mean < never.pre_mean,
            "huge faults amortize: {} vs {}",
            always.pre_mean,
            never.pre_mean
        );
        assert!(always.huge_allocated > 0);
        assert_eq!(never.huge_allocated, 0);
    }

    #[test]
    fn fragmentation_produces_the_papers_500ms_stalls() {
        let always = run(ThpPolicy::Always, false);
        assert!(
            always.worst_fault > Nanos::from_millis(300),
            "worst fault {}",
            always.worst_fault
        );
        assert!(always.stalls > 100);
    }

    #[test]
    fn learned_estimator_is_fooled_by_the_free_memory_proxy() {
        let learned = run(ThpPolicy::Learned, false);
        // Pre-shift the estimator behaves (cheap huge pages chosen).
        assert!(
            learned.pre_mean < Nanos::from_millis(2),
            "pre {}",
            learned.pre_mean
        );
        // Post-shift it keeps allocating huge pages into compaction stalls:
        // the §2 property (p99 <= 50ms) is violated.
        assert!(
            learned.post_p99 > Nanos::from_millis(50),
            "post p99 {}",
            learned.post_p99
        );
        assert!(learned.stalls > 50, "stalls {}", learned.stalls);
    }

    #[test]
    fn guardrail_bounds_fault_latency() {
        let guarded = run(ThpPolicy::Learned, true);
        let unguarded = run(ThpPolicy::Learned, false);
        assert!(guarded.violations > 0, "guardrail fires");
        assert!(!guarded.learned_active_at_end, "fallback installed");
        assert!(
            guarded.post_mean * 5 < unguarded.post_mean,
            "guarded {} vs unguarded {}",
            guarded.post_mean,
            unguarded.post_mean
        );
        // Identical before the shift.
        assert_eq!(guarded.pre_mean, unguarded.pre_mean);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(ThpPolicy::Learned, true);
        let b = run(ThpPolicy::Learned, true);
        assert_eq!(a.post_mean, b.post_mean);
        assert_eq!(a.violations, b.violations);
    }
}
