//! Quickstart: the paper's Listing 2 guardrail, end to end.
//!
//! Compiles the exact spec text from the paper, installs it into a monitor
//! engine, feeds the feature store a degrading false-submit rate, and shows
//! the guardrail detecting the violation and disabling the learned policy.
//!
//! Run with: `cargo run --example quickstart`

use guardrails_repro::guardrails::prelude::*;

/// The spec text from the paper's Listing 2, verbatim.
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

fn main() {
    // 1. Parse → check → compile → verify → install.
    let mut engine = MonitorEngine::new();
    engine.install_str(LISTING_2).expect("Listing 2 compiles");
    println!("installed guardrails: {:?}", engine.monitor_names());

    // 2. The kernel side: the learned policy consults `ml_enabled`, and
    //    instrumentation maintains `false_submit_rate` in the feature store.
    let store = engine.store();
    store.save("ml_enabled", 1.0);

    // Healthy operation: 1% false submits.
    store.save("false_submit_rate", 0.01);
    engine.advance_to(Nanos::from_secs(5));
    println!(
        "t=5s   rate=1%   ml_enabled={}  violations={}",
        store.flag("ml_enabled"),
        engine.violations().len()
    );

    // Distribution shift: the model degrades, false submits hit 20%.
    store.save("false_submit_rate", 0.20);
    engine.advance_to(Nanos::from_secs(8));
    println!(
        "t=8s   rate=20%  ml_enabled={}  violations={}",
        store.flag("ml_enabled"),
        engine.violations().len()
    );

    for violation in engine.violations() {
        println!("  {violation}");
    }

    // 3. Every monitor's overhead is accounted (property P5).
    for report in engine.overhead_reports() {
        println!(
            "overhead of '{}': {} evaluations, {} modeled total ({} per check)",
            report.guardrail,
            report.account.evaluations,
            report.account.modeled(),
            report.account.modeled_per_evaluation(),
        );
    }
}
