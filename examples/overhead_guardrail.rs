//! The overhead guardrail: a monitor that polices the monitors.
//!
//! The paper's property taxonomy includes P5 — *decision overhead*, the
//! cost of the policing itself — and argues a deployed guardrail system
//! must bound it. This example closes that loop with nothing but the
//! spec language: the engine publishes its own telemetry into the
//! feature store under the reserved `__telemetry/` namespace, so an
//! ordinary guardrail can `LOAD` the runtime's self-measurements and
//! fire `REPORT` (A1) and `DEPRIORITIZE` (A4) when a monitor's modelled
//! overhead exceeds budget.
//!
//! Walkthrough:
//!
//! 1. Install a deliberately hot "hog" monitor (a microsecond timer
//!    burning rule fuel — the stand-in for an over-instrumented probe).
//! 2. Attach a [`Telemetry`] bundle and turn on periodic
//!    self-publication, so `__telemetry/guardrail/hog/overhead_fraction`
//!    (fuel-modelled, deterministic) refreshes every simulated
//!    millisecond.
//! 3. Install the budget guardrail, whose rule is simply
//!    `LOAD("__telemetry/guardrail/hog/overhead_fraction") <= 0.01`.
//! 4. Drive the clock. When the hog's overhead crosses 1%, the budget
//!    guardrail REPORTs (with the offending fraction snapshotted into
//!    the log line) and emits a `Deprioritize` command; the host drains
//!    it and demotes the hog, exactly as a scheduler demotes a runaway
//!    task.
//!
//! Run with: `cargo run --release --example overhead_guardrail`

use guardrails_repro::guardrails::action::Command;
use guardrails_repro::guardrails::prelude::*;

/// The runaway monitor: ticks every microsecond, burns fuel on a
/// tautological rule, never fires its action. Its only observable
/// behavior *is* its overhead.
const HOG: &str = r#"
guardrail hog {
    trigger: { TIMER(0, 1us) },
    rule: { LOAD(qdepth) + LOAD(qdepth) * 2 + LOAD(qdepth) / 2 - LOAD(qdepth) + LOAD(qdepth) >= 0 - 1e18 },
    action: { RECORD(hog_fired, 1) }
}
"#;

/// The budget guardrail. The quoted key is an ordinary feature-store
/// key — the runtime publishes its self-measurements there, so P5
/// enforcement needs no new machinery at all.
const BUDGET: &str = r#"
guardrail overhead-budget {
    trigger: { TIMER(0, 1ms) },
    rule: { LOAD("__telemetry/guardrail/hog/overhead_fraction") <= 0.01 },
    action: {
        REPORT("hog monitor over P5 budget", "__telemetry/guardrail/hog/overhead_fraction"),
        DEPRIORITIZE(hog, 2)
    }
}
"#;

fn main() {
    let mut engine = MonitorEngine::new();
    engine.set_telemetry(Telemetry::new());
    engine.set_telemetry_publish_interval(Some(Nanos::from_millis(1)));
    engine.install_str(HOG).expect("hog installs");
    engine.install_str(BUDGET).expect("budget installs");
    engine.store().save("qdepth", 5.0);

    println!("== driving the clock, 1ms steps ==");
    let mut demoted = false;
    let mut commands = Vec::new();
    for ms in 1..=10u64 {
        engine.advance_to(Nanos::from_millis(ms));
        commands.clear();
        engine.drain_commands_into(&mut commands);
        for (at, command) in &commands {
            if let Command::Deprioritize {
                guardrail,
                target,
                steps,
            } = command
            {
                println!(
                    "t={:>8}ns  {guardrail} -> DEPRIORITIZE({target}, {steps})",
                    at.as_nanos()
                );
                if !demoted {
                    // The host's side of the loop: demote the hog.
                    engine.set_enabled(target, false).expect("hog exists");
                    demoted = true;
                    println!("             host disabled '{target}'");
                }
            }
        }
    }
    assert!(demoted, "the budget guardrail must catch the hog");

    let fraction = engine
        .store()
        .load("__telemetry/guardrail/hog/overhead_fraction")
        .unwrap_or(0.0);
    println!("\n== REPORT log (A1) ==");
    for record in engine.reports() {
        println!(
            "  [{}] {}: {}",
            record.at.as_nanos(),
            record.guardrail.as_deref().unwrap_or("-"),
            record.text().unwrap_or_default()
        );
    }

    println!("\n== published self-measurements ==");
    let mut published: Vec<(String, f64)> = engine
        .store()
        .scalars()
        .into_iter()
        .filter(|(key, _)| key.starts_with(&format!("{RESERVED_PREFIX}guardrail/hog/")))
        .collect();
    published.sort_by(|a, b| a.0.cmp(&b.0));
    for (key, value) in &published {
        println!("  {key} = {value}");
    }
    println!("\nhog overhead fraction at the end: {fraction:.4} (budget 0.01)");

    println!("\n== decision stream (last 8 events, JSON lines) ==");
    let stream = engine.events().export_json_lines();
    for line in stream
        .lines()
        .rev()
        .take(8)
        .collect::<Vec<_>>()
        .iter()
        .rev()
    {
        println!("  {line}");
    }
}
