//! Property test: batched ingestion of cache-access events is
//! *observationally identical* to sequential ingestion — the same property
//! `crates/core/tests/batch_equivalence.rs` pins for the engine in the
//! abstract, instantiated here with cachesim's domain vocabulary (admission
//! sizes, shadow hit rates, the P4 comparator) and extended to the
//! telemetry layer: the deterministic [`TelemetrySnapshot`] counters must
//! also match bit-for-bit, for any event history and any chunking.
//!
//! The only permitted divergence is measured wall time, which the snapshot
//! excludes by design.

use std::sync::Arc;

use guardrails::monitor::engine::{EngineStats, FnEvent, MonitorEngine};
use guardrails::{PolicyRegistry, Telemetry, TelemetrySnapshot};
use proptest::collection::vec;
use proptest::prelude::*;
use simkernel::Nanos;

/// Two monitors on the hot hook — one driven by the admission-size
/// argument, one by the shadow-cache hit rates the simulator publishes —
/// plus a bystander on the eviction hook so dispatch misses are exercised.
const SPECS: &str = r#"
guardrail admission-sane {
    trigger: { FUNCTION(cache_access) },
    rule: { ARG(0) < 2048 },
    action: { SAVE(cache.last_oversized, ARG(0)) RECORD(cache.oversized_admits, 1) }
}
guardrail cache-beats-random {
    trigger: { FUNCTION(cache_access) },
    rule: { LOAD(cache.learned_hit_rate) + 0.02 >= LOAD(cache.random_hit_rate) },
    action: { RECORD(cache.p4_violations, 1) }
}
guardrail bystander {
    trigger: { FUNCTION(cache_evict) },
    rule: { ARG(0) < 1 },
    action: { RECORD(cache.evict_hits, 1) }
}
"#;

fn fresh_engine() -> MonitorEngine {
    let registry = Arc::new(PolicyRegistry::new());
    let mut engine = MonitorEngine::with_parts(Arc::new(guardrails::FeatureStore::new()), registry);
    engine.set_telemetry(Telemetry::new());
    engine.install_str(SPECS).unwrap();
    engine
}

/// One generated access: a time step, the object size offered to the
/// admission rule, and the two shadow hit rates written to the store just
/// before ingestion (so the P4 rule sees evolving state).
#[derive(Clone, Debug)]
struct Access {
    dt_us: u64,
    size: f64,
    learned_rate: f64,
    random_rate: f64,
}

fn accesses() -> impl Strategy<Value = Vec<Access>> {
    vec(
        (1u64..500, 0.0f64..4096.0, 0.0f64..1.0, 0.0f64..1.0).prop_map(
            |(dt_us, size, learned_rate, random_rate)| Access {
                dt_us,
                size,
                learned_rate,
                random_rate,
            },
        ),
        0..60,
    )
}

/// Everything observable about a run except wall-clock noise, now including
/// the telemetry counters.
#[derive(Debug, PartialEq)]
struct Observable {
    violations: Vec<guardrails::monitor::Violation>,
    scalars: Vec<(String, f64)>,
    stats: EngineStats,
    telemetry: TelemetrySnapshot,
}

fn observe(engine: &MonitorEngine) -> Observable {
    let mut scalars = engine.store().scalars();
    scalars.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut stats = engine.stats();
    stats.eval_wall_ns = 0; // machine noise, excluded by design
    Observable {
        violations: engine.violations(),
        scalars,
        stats,
        telemetry: engine.telemetry_snapshot(),
    }
}

/// Drives `engine` through `accesses` in batches split at `cuts`, store
/// writes applied chunk-first (the ring-buffer-drain convention from the
/// core test).
fn run_batched(engine: &mut MonitorEngine, accesses: &[Access], cuts: &[usize]) {
    let store = engine.store();
    let mut now = Nanos::ZERO;
    let mut begin = 0usize;
    let mut boundaries: Vec<usize> = cuts.iter().map(|&c| c % (accesses.len() + 1)).collect();
    boundaries.push(accesses.len());
    boundaries.sort_unstable();
    for &end in &boundaries {
        if end <= begin {
            continue;
        }
        let chunk = &accesses[begin..end];
        let mut times = Vec::with_capacity(chunk.len());
        for access in chunk {
            now += Nanos::from_micros(access.dt_us);
            store.save("cache.learned_hit_rate", access.learned_rate);
            store.save("cache.random_hit_rate", access.random_rate);
            times.push(now);
        }
        let args: Vec<[f64; 1]> = chunk.iter().map(|a| [a.size]).collect();
        let events: Vec<FnEvent<'_>> = times
            .iter()
            .zip(&args)
            .map(|(&t, a)| FnEvent { now: t, args: a })
            .collect();
        engine.on_function_batch("cache_access", &events);
        begin = end;
    }
}

/// Sequential run with the same chunk-first store-write convention, so both
/// runs observe identical inputs.
fn run_sequential_chunked(engine: &mut MonitorEngine, accesses: &[Access], cuts: &[usize]) {
    let store = engine.store();
    let mut now = Nanos::ZERO;
    let mut begin = 0usize;
    let mut boundaries: Vec<usize> = cuts.iter().map(|&c| c % (accesses.len() + 1)).collect();
    boundaries.push(accesses.len());
    boundaries.sort_unstable();
    for &end in &boundaries {
        if end <= begin {
            continue;
        }
        let chunk = &accesses[begin..end];
        let mut times = Vec::with_capacity(chunk.len());
        for access in chunk {
            now += Nanos::from_micros(access.dt_us);
            store.save("cache.learned_hit_rate", access.learned_rate);
            store.save("cache.random_hit_rate", access.random_rate);
            times.push(now);
        }
        for (access, &t) in chunk.iter().zip(&times) {
            engine.on_function("cache_access", t, &[access.size]);
        }
        begin = end;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batch_ingestion_is_observationally_identical_to_sequential(
        accesses in accesses(),
        cuts in vec(0usize..61, 0..6),
    ) {
        let mut sequential = fresh_engine();
        let mut batched = fresh_engine();
        run_sequential_chunked(&mut sequential, &accesses, &cuts);
        run_batched(&mut batched, &accesses, &cuts);
        prop_assert_eq!(observe(&sequential), observe(&batched));
        prop_assert_eq!(
            sequential.drain_commands(),
            batched.drain_commands(),
            "deferred commands must match"
        );
    }

    #[test]
    fn single_event_batches_match_plain_on_function(accesses in accesses()) {
        // Degenerate chunking: every batch holds exactly one event — the
        // contract `on_function` itself relies on.
        let mut sequential = fresh_engine();
        let mut batched = fresh_engine();
        let cuts: Vec<usize> = (0..=accesses.len()).collect();
        run_sequential_chunked(&mut sequential, &accesses, &cuts);
        run_batched(&mut batched, &accesses, &cuts);
        prop_assert_eq!(observe(&sequential), observe(&batched));
    }
}
