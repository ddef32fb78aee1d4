//! Cross-crate integration: the paper's Listing 2 spec and the Figure 2
//! storage scenario, exercised through the public APIs end to end.

use guardrails::compile::compile_str;
use guardrails::prelude::*;
use simkernel::Nanos;
use storagesim::{run_fig2, LinnosSimConfig};

/// The exact spec text printed in the paper.
const LISTING_2: &str = r#"
guardrail low-false-submit {
    trigger: {
        TIMER(start_time, 1e9) // Periodically check every 1s.
    },
    rule: {
        LOAD(false_submit_rate) <= 0.05
    },
    action: {
        SAVE(ml_enabled, false)
    }
}
"#;

#[test]
fn listing2_compiles_to_a_tiny_verified_monitor() {
    let compiled = compile_str(LISTING_2).unwrap();
    assert_eq!(compiled.len(), 1);
    let g = &compiled[0];
    assert_eq!(&*g.name, "low-false-submit");
    assert_eq!(g.timers.len(), 1);
    assert_eq!(g.timers[0].interval, Nanos::from_secs(1));
    // The whole rule is one load-compare superinstruction; the verifier
    // bounded it.
    assert_eq!(g.rules[0].program.len(), 1);
    assert!(g.rules[0].report.worst_case_fuel < 10);
    assert_eq!(g.rules[0].report.max_stack_depth, 1);
}

#[test]
fn listing2_round_trips_through_the_pretty_printer() {
    let spec = parse(LISTING_2).unwrap();
    let printed = guardrails::spec::pretty::print_spec(&spec);
    assert_eq!(parse(&printed).unwrap(), spec);
    assert!(printed.contains("LOAD(false_submit_rate) <= 0.05"));
}

#[test]
fn engine_applies_listing2_semantics() {
    let mut engine = MonitorEngine::new();
    engine.install_str(LISTING_2).unwrap();
    let store = engine.store();
    store.save("ml_enabled", 1.0);
    store.save("false_submit_rate", 0.04);
    engine.advance_to(Nanos::from_secs(10));
    assert!(store.flag("ml_enabled"), "4% is within bounds");
    store.save("false_submit_rate", 0.051);
    engine.advance_to(Nanos::from_secs(11));
    assert!(!store.flag("ml_enabled"), "5.1% trips the 5% bound");
}

/// The Figure 2 claim, quickly: the guardrail triggers after the shift and
/// the guarded run's post-shift latency beats the unguarded run's.
#[test]
fn figure2_shape_cross_crate() {
    let config = LinnosSimConfig {
        warmup: Nanos::from_secs(2),
        healthy: Nanos::from_secs(2),
        shifted: Nanos::from_secs(4),
        ..LinnosSimConfig::default()
    };
    let shift_at = config.shift_at();
    let (guarded, unguarded) = run_fig2(config);
    let trigger = guarded.guardrail_triggered_at.expect("triggers");
    assert!(trigger >= shift_at);
    assert!(!guarded.ml_enabled_at_end);
    assert!(unguarded.ml_enabled_at_end);
    assert!(guarded.shifted.mean_latency_us < unguarded.shifted.mean_latency_us);
    assert!(unguarded.shifted.false_submit_rate > 0.05);
}
