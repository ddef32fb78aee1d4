//! Cross-crate integration: the chaos harness (`guardrails::fault`) driving
//! the LinnOS setting (`storagesim::faultsim`) through the public APIs, and
//! the hardened runtime's counter-mechanisms composing end to end.

use guardrails::prelude::*;
use storagesim::{fault_label, fault_matrix, run_fault_pair};

#[test]
fn fault_matrix_covers_the_taxonomy_with_stable_labels() {
    let labels: Vec<String> = fault_matrix().iter().map(fault_label).collect();
    // Every FaultKind variant appears, poison in all three modes.
    for expected in [
        "device_brownout",
        "gc_storm",
        "poison_nan",
        "poison_inf",
        "poison_out_of_range",
        "dropped_saves",
        "fuel_exhaustion",
        "replace_target_missing",
        "retrain_panic",
    ] {
        assert!(labels.contains(&expected.to_string()), "missing {expected}");
    }
    assert_eq!(labels.len(), 9);
}

#[test]
fn hardened_runtime_beats_seed_runtime_under_injected_faults() {
    // One contrast scenario end to end through the umbrella-level public
    // APIs (the full sweep lives in storagesim's unit tests and E9).
    let (seed_run, hardened) = run_fault_pair(FaultKind::FuelExhaustion { limit: 2 }, 0xF162);
    assert!(seed_run.wedged && !hardened.wedged);
    assert!(hardened.watchdog_trips > 0);
    assert_eq!(seed_run.watchdog_trips, 0);
}

#[test]
fn resilience_mechanisms_compose_on_one_engine() {
    // Quarantine + fallback REPLACE + fail-closed watchdog, all active on a
    // single engine at once, none interfering with the others.
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
    engine
        .install_str(
            r#"
            guardrail failover {
                trigger: { TIMER(start_time, 1s) },
                rule: { LOAD(err_rate) <= 0.05 },
                action: { REPLACE(io_submit, safe) }
            }
            "#,
        )
        .unwrap();
    let store = engine.store();
    store.save("err_rate", f64::NAN); // quarantined, not stored
    assert_eq!(store.load("err_rate"), None);
    assert_eq!(store.poison_count("err_rate"), 1);

    store.save("err_rate", 0.2);
    engine.advance_to(Nanos::from_secs(2));
    assert!(
        registry.is_active("io_submit", "default"),
        "REPLACE fell back to the registered default"
    );

    // Now break the rule itself: fuel exhaustion trips the watchdog.
    engine.set_rule_fuel_limit(Some(1));
    engine.advance_to(Nanos::from_secs(6));
    let stats = engine.stats();
    assert_eq!(stats.watchdog_trips, 1);
    assert_eq!(stats.rule_faults, 3);
}
