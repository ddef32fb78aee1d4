//! Fault tolerance: the guardrail runtime surviving its own bad day.
//!
//! The guardrail is the safety net, so the net itself must not tear. This
//! example walks the hardened runtime's counter-mechanisms one at a time —
//! value quarantine, `REPLACE` fallback, the monitor watchdog — and then
//! runs one full chaos scenario (NaN-poisoned model outputs against the
//! LinnOS setting) contrasting the seed runtime with the hardened one.
//!
//! Run with: `cargo run --release --example fault_tolerance`

use guardrails_repro::guardrails::prelude::*;
use guardrails_repro::storagesim::{run_fault_pair, FaultRunReport};

const FAILOVER_SPEC: &str = r#"
guardrail failover {
    trigger: { TIMER(start_time, 1s) },
    rule: { LOAD(err_rate) <= 0.05 },
    action: { REPLACE(io_submit, safe) }
}
"#;

const LISTING_2: &str = r#"
guardrail low-false-submit {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(false_submit_rate) <= 0.05 },
    action: { SAVE(ml_enabled, false) }
}
"#;

fn main() {
    // 1. Value quarantine: one NaN from a broken inference path would trip
    //    every comparison and latch any derived EWMA forever. The hardened
    //    store drops non-finite SAVEs at the boundary and counts them.
    let store = FeatureStore::new();
    store.save("prediction_health", 0.42);
    store.save("prediction_health", f64::NAN);
    store.save("prediction_health", f64::INFINITY);
    println!(
        "quarantine: value still {:?}, {} poisoned save(s) rejected",
        store.load("prediction_health"),
        store.poison_count("prediction_health"),
    );

    // 2. Fail-safe REPLACE: the named target variant is gone (a deploy
    //    removed it, say). The seed runtime errors into a log line forever;
    //    the hardened runtime degrades to the slot's registered default.
    let mut engine = MonitorEngine::new();
    engine.set_resilience(ResilienceConfig::hardened());
    let registry = engine.registry();
    registry
        .register("io_submit", &[VARIANT_LEARNED, "safe", "default"])
        .unwrap();
    registry
        .set_default_variant("io_submit", "default")
        .unwrap();
    registry.unregister_variant("io_submit", "safe").unwrap();
    engine.install_str(FAILOVER_SPEC).unwrap();
    engine.store().save("err_rate", 0.20);
    engine.advance_to(Nanos::from_secs(2));
    println!(
        "replace fallback: target 'safe' missing, active variant now 'default' = {}",
        registry.is_active("io_submit", "default"),
    );

    // 3. The watchdog: a rule that faults every evaluation (here: fuel
    //    exhaustion mid-expression) must not wedge silently. The watchdog
    //    disables the monitor after 3 faults in a row and, failing closed,
    //    fires its actions once on the way down — wrong is allowed, silent
    //    is not.
    let mut engine = MonitorEngine::new();
    engine.set_resilience(ResilienceConfig::hardened());
    engine.install_str(LISTING_2).unwrap();
    let store = engine.store();
    store.save("ml_enabled", 1.0);
    store.save("false_submit_rate", 0.0);
    engine.set_rule_fuel_limit(Some(1));
    engine.advance_to(Nanos::from_secs(5));
    let stats = engine.stats();
    println!(
        "watchdog: {} rule faults -> {} trip(s), ml_enabled now {} (fail-closed)",
        stats.rule_faults,
        stats.watchdog_trips,
        store.flag("ml_enabled"),
    );

    // 4. A full chaos scenario: NaN-poisoned model outputs in the LinnOS
    //    setting (experiment E9, one row). Identical seeds; only the
    //    runtime differs.
    println!("\nchaos scenario: poison_nan on the LinnOS setting (takes a few seconds)");
    let (seed_run, hardened) = run_fault_pair(
        FaultKind::PoisonModelOutput {
            mode: PoisonMode::Nan,
        },
        0xF162,
    );
    let describe = |r: &FaultRunReport| {
        format!(
            "recovery {:>5} | {} poisoned saves quarantined | ml at end: {} | wedged: {}",
            r.recovery
                .map_or("never".to_string(), |n| format!("{:.1}s", n.as_secs_f64())),
            r.poisoned_saves,
            r.ml_enabled_at_end,
            r.wedged,
        )
    };
    println!("  seed runtime:     {}", describe(&seed_run));
    println!("  hardened runtime: {}", describe(&hardened));
}
