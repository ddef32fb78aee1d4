//! Executable coverage of the paper's Figure 1 taxonomy: every property
//! P1–P6 detectable, every action A1–A4 applicable, across crates.

use guardrails::action::retrain::RetrainLimiter;
use guardrails::action::Command;
use guardrails::monitor::{Hysteresis, MonitorEngine};
use guardrails::props;
use guardrails::stats::{DriftDetector, SensitivityProbe};
use simkernel::{Nanos, Priority, TaskTable};

/// P1: a drift detector feeds the in-distribution guardrail, which reports
/// and requests a retrain (A1 + A3).
#[test]
fn p1_in_distribution_detects_drift_and_requests_retrain() {
    let mut engine = MonitorEngine::new();
    engine
        .install_str(&props::p1_in_distribution(
            "p1",
            "io_model",
            0.25,
            Nanos::from_secs(1),
        ))
        .unwrap();
    let store = engine.store();

    let mut drift = DriftDetector::new("io_model.input", 256, 7);
    for i in 0..2000 {
        drift.observe_reference((i % 50) as f64);
    }
    drift.freeze();

    // In-distribution traffic: no violation.
    for i in 0..500 {
        drift.observe_live(((i * 7) % 50) as f64);
    }
    drift.publish(&store, Nanos::from_secs(1));
    engine.advance_to(Nanos::from_secs(2));
    assert!(engine.violations().is_empty());

    // Shifted traffic: violation, report, retrain command.
    for i in 0..500 {
        drift.observe_live((i % 50) as f64 + 500.0);
    }
    drift.publish(&store, Nanos::from_secs(3));
    engine.advance_to(Nanos::from_secs(4));
    assert!(!engine.violations().is_empty(), "P1 fires on drift");
    assert!(engine.reports().next().is_some(), "A1 report written");
    let commands = engine.drain_commands();
    assert!(
        commands
            .iter()
            .any(|(_, c)| matches!(c, Command::Retrain { model, .. } if model == "io_model")),
        "A3 retrain requested"
    );
}

/// P2: a sensitivity probe feeds the robustness guardrail.
#[test]
fn p2_robustness_detects_discontinuous_model() {
    let mut engine = MonitorEngine::new();
    engine
        .install_str(&props::p2_robustness(
            "p2",
            "cc_model",
            50.0,
            Nanos::from_secs(1),
        ))
        .unwrap();
    let store = engine.store();

    let mut probe = SensitivityProbe::new("cc_model", 0.05, 16, 3);
    // A smooth model: no violation.
    probe.probe_and_publish(&[1.0, 2.0], |x| x[0] + x[1], &store, Nanos::from_secs(1));
    engine.advance_to(Nanos::from_secs(2));
    assert!(engine.violations().is_empty());

    // A cliff at the operating point: gain explodes, guardrail fires.
    probe.probe_and_publish(
        &[1.0, 2.0],
        |x| if x[0] >= 1.0 { 1000.0 } else { 0.0 },
        &store,
        Nanos::from_secs(3),
    );
    engine.advance_to(Nanos::from_secs(4));
    assert!(!engine.violations().is_empty(), "P2 fires on sensitivity");
}

/// P3 + A2: out-of-bounds outputs swap in the fallback via the registry.
#[test]
fn p3_bounds_replace_fallback() {
    let mut engine = MonitorEngine::new();
    let registry = engine.registry();
    registry
        .register("alloc_policy", &["learned", "fallback"])
        .unwrap();
    engine
        .install_str(&props::p3_output_bounds(
            "p3",
            "alloc_decide",
            "alloc_policy",
            0.0,
            4096.0,
        ))
        .unwrap();

    engine.on_function("alloc_decide", Nanos::from_micros(1), &[1024.0]);
    assert!(registry.is_active("alloc_policy", "learned"));
    engine.on_function("alloc_decide", Nanos::from_micros(2), &[9999.0]);
    assert!(registry.is_active("alloc_policy", "fallback"), "A2 swapped");
    assert_eq!(engine.stats().trips, 1);
}

/// P4: windowed decision quality (the paper's "accuracy > 90% over a
/// window" example).
#[test]
fn p4_quality_fires_on_windowed_accuracy() {
    let mut engine = MonitorEngine::new();
    let registry = engine.registry();
    registry
        .register("io_policy", &["learned", "fallback"])
        .unwrap();
    engine
        .install_str(&props::p4_decision_quality(
            "p4",
            "io_model",
            "io_policy",
            0.9,
            Nanos::from_secs(2),
            Nanos::from_secs(1),
        ))
        .unwrap();
    let store = engine.store();

    // Healthy accuracy samples.
    for t in 0..4 {
        store.record("io_model.accuracy", Nanos::from_millis(500 * t), 0.95);
    }
    engine.advance_to(Nanos::from_secs(2));
    assert!(engine.violations().is_empty());

    // Accuracy collapses.
    for t in 4..10 {
        store.record("io_model.accuracy", Nanos::from_millis(500 * t), 0.5);
    }
    engine.advance_to(Nanos::from_secs(5));
    assert!(!engine.violations().is_empty());
    assert!(registry.is_active("io_policy", "fallback"));
}

/// P5: inference overhead must be covered by policy gains.
#[test]
fn p5_overhead_fires_when_gains_evaporate() {
    let mut engine = MonitorEngine::new();
    let registry = engine.registry();
    registry
        .register("io_policy", &["learned", "fallback"])
        .unwrap();
    engine
        .install_str(&props::p5_decision_overhead(
            "p5",
            "io_model",
            "io_policy",
            Nanos::from_secs(2),
            Nanos::from_secs(1),
        ))
        .unwrap();
    let store = engine.store();

    // Gains comfortably exceed inference cost.
    for t in 0..20 {
        let at = Nanos::from_millis(100 * t);
        store.record("io_model.inference_ns", at, 4_000.0);
        store.record("io_model.gain_ns", at, 50_000.0);
    }
    engine.advance_to(Nanos::from_secs(2));
    assert!(engine.violations().is_empty());

    // The workload stops benefiting; inference cost is now pure overhead.
    for t in 20..50 {
        let at = Nanos::from_millis(100 * t);
        store.record("io_model.inference_ns", at, 4_000.0);
        store.record("io_model.gain_ns", at, 100.0);
    }
    engine.advance_to(Nanos::from_secs(5));
    assert!(!engine.violations().is_empty());
    assert!(registry.is_active("io_policy", "fallback"));
}

/// P6 + A4: starvation triggers deprioritization applied through the
/// simkernel task table (the OOM-killer analogue with steps >= 40 kills).
#[test]
fn p6_starvation_deprioritizes_and_kills_via_task_table() {
    let mut engine = MonitorEngine::new();
    engine
        .install_str(
            r#"guardrail p6 {
                trigger: { TIMER(0, 1s) },
                rule: { LOAD(sched.max_wait_ns) <= 100ms },
                action: {
                    DEPRIORITIZE(victim, 10)
                    DEPRIORITIZE(hog, 40)
                }
            }"#,
        )
        .unwrap();
    let store = engine.store();

    let mut table = TaskTable::new();
    let victim = table.spawn("victim", Priority::DEFAULT);
    let hog = table.spawn("hog", Priority::DEFAULT);
    table.get_mut(hog).unwrap().resident_bytes = 1 << 30;

    store.save("sched.max_wait_ns", 2e8); // 200ms > 100ms bound.
    engine.advance_to(Nanos::ZERO);
    for (_, command) in engine.drain_commands() {
        if let Command::Deprioritize { target, steps, .. } = command {
            let id = if target == "victim" { victim } else { hog };
            if steps >= 40 {
                assert!(table.kill(id));
            } else {
                assert!(table.set_priority(id, table.get(id).unwrap().priority.demoted(steps)));
            }
        }
    }
    assert_eq!(table.get(victim).unwrap().priority, Priority::new(10));
    assert_eq!(table.alive_tasks(), vec![victim], "hog killed (A4)");
    assert_eq!(table.get(hog).unwrap().resident_bytes, 0, "memory released");
}

/// §3.2's abuse protection: a malicious tight loop of violations cannot
/// flood the retrain queue.
#[test]
fn retrain_abuse_is_rate_limited() {
    let mut engine = MonitorEngine::new();
    engine.set_retrain_limiter(RetrainLimiter::new(
        Nanos::from_secs(60),
        2,
        Nanos::from_secs(600),
    ));
    engine
        .install_str(
            "guardrail abuse { trigger: { TIMER(0, 10ms) }, rule: { LOAD(x) > 0 }, action: { RETRAIN(model) } }",
        )
        .unwrap();
    // 10k violation ticks in 100 seconds.
    engine.advance_to(Nanos::from_secs(100));
    let retrains = engine
        .drain_commands()
        .iter()
        .filter(|(_, c)| matches!(c, Command::Retrain { .. }))
        .count();
    assert!(retrains <= 2, "budget bound holds: {retrains}");
    assert!(engine.stats().violations > 9_000);
}

/// §6's feedback-loop concern: two antagonistic guardrails oscillate a
/// shared knob; hysteresis cooldowns damp the oscillation.
#[test]
fn hysteresis_damps_antagonistic_guardrails() {
    let spec = r#"
        guardrail push-up {
            trigger: { TIMER(0, 10ms) },
            rule: { LOAD(knob) >= 12 },
            action: { SAVE(knob, LOAD(knob) + 10) }
        }
        guardrail push-down {
            trigger: { TIMER(5ms, 10ms) },
            rule: { LOAD(knob) <= 8 },
            action: { SAVE(knob, LOAD(knob) - 10) }
        }
    "#;
    let oscillations = |hysteresis: Option<Hysteresis>| -> u64 {
        let mut engine = MonitorEngine::new();
        engine.install_str(spec).unwrap();
        if let Some(h) = hysteresis {
            engine.set_hysteresis("push-up", h).unwrap();
            engine.set_hysteresis("push-down", h).unwrap();
        }
        engine.store().save("knob", 0.0);
        engine.advance_to(Nanos::from_secs(2));
        engine.stats().trips
    };
    let raw = oscillations(None);
    let damped = oscillations(Some(Hysteresis::cooldown(Nanos::from_millis(200))));
    assert!(raw > 50, "undamped system oscillates: {raw} trips");
    assert!(
        damped * 5 < raw,
        "cooldown damps the loop: {damped} vs {raw}"
    );
}

/// §3.3 incremental deployment: guardrails can be added and toggled one at
/// a time on a live engine.
#[test]
fn incremental_deployment_on_live_engine() {
    let mut engine = MonitorEngine::new();
    let store = engine.store();
    store.save("a", 10.0);
    store.save("b", 10.0);

    engine
        .install_str("guardrail first { trigger: { TIMER(0, 1s) }, rule: { LOAD(a) < 5 }, action: { RECORD(viol_a, 1) } }")
        .unwrap();
    engine.advance_to(Nanos::from_secs(3));
    let after_first = engine.stats().violations;
    assert!(after_first > 0);

    // Add a second guardrail mid-flight; it starts from "now".
    engine
        .install_str("guardrail second { trigger: { TIMER(0, 1s) }, rule: { LOAD(b) < 5 }, action: { RECORD(viol_b, 1) } }")
        .unwrap();
    engine.advance_to(Nanos::from_secs(6));
    assert!(engine.stats().violations > after_first * 2 - 2);

    // Disable the first: only the second keeps evaluating.
    engine.set_enabled("first", false).unwrap();
    let before = engine.stats().evaluations;
    engine.advance_to(Nanos::from_secs(9));
    let delta = engine.stats().evaluations - before;
    assert!(
        (3..=4).contains(&delta),
        "only one monitor evaluating: {delta}"
    );
}

/// §3.3 auto-tightening: deploy a guardrail with a relaxed threshold that
/// lives in the feature store, then let a calibrator walk it toward the
/// observed steady state until the guardrail starts catching regressions it
/// would originally have missed.
#[test]
fn calibrator_tightens_a_relaxed_guardrail() {
    use guardrails::props::Calibrator;

    let mut engine = MonitorEngine::new();
    engine
        .install_str(
            r#"guardrail adaptive-latency {
                trigger: { TIMER(0, 100ms) },
                rule: { LOAD(io.latency_us) <= LOAD(io.latency_bound) },
                action: { REPORT("latency regression", io.latency_us, io.latency_bound) }
            }"#,
        )
        .unwrap();
    let store = engine.store();
    let mut calibrator = Calibrator::new("io.latency_bound", 10_000.0, 1.5, 0.3, 50.0);
    calibrator.install(&store);

    // Steady state: ~100µs latencies. A relaxed 10_000µs bound misses a 3x
    // regression; the calibrator walks the bound toward 150µs.
    let mut now = Nanos::ZERO;
    for _ in 0..50 {
        now += Nanos::from_millis(100);
        store.save("io.latency_us", 100.0);
        calibrator.step(&store, 100.0);
        engine.advance_to(now);
    }
    assert!(engine.violations().is_empty(), "steady state stays clean");
    let bound = store.load("io.latency_bound").unwrap();
    assert!(bound < 200.0, "bound tightened to {bound}");

    // The same 300µs regression the relaxed bound would have ignored:
    store.save("io.latency_us", 300.0);
    now += Nanos::from_millis(100);
    engine.advance_to(now);
    assert!(
        !engine.violations().is_empty(),
        "tightened guardrail catches it"
    );
}

/// End-to-end system properties spanning multiple learned agents (the
/// richer-than-SOL scope §2 argues for): one guardrail over metrics
/// published by two different subsystems.
#[test]
fn cross_subsystem_end_to_end_property() {
    let mut engine = MonitorEngine::new();
    engine
        .install_str(
            r#"guardrail end-to-end-latency {
                trigger: { TIMER(0, 1s) },
                rule: {
                    AVG(io.latency_us, 5s) + AVG(mem.latency_us, 5s) <= 1500
                },
                action: { REPORT("end-to-end budget exceeded", io.latency_us, mem.latency_us) }
            }"#,
        )
        .unwrap();
    let store = engine.store();
    // Both subsystems healthy: each well under budget.
    for t in 0..10 {
        let at = Nanos::from_millis(200 * t);
        store.record("io.latency_us", at, 400.0);
        store.record("mem.latency_us", at, 300.0);
    }
    engine.advance_to(Nanos::from_secs(2));
    assert!(engine.violations().is_empty());
    // Each subsystem individually "fine-ish", but the sum blows the budget —
    // a property no per-agent callback can express.
    for t in 10..30 {
        let at = Nanos::from_millis(200 * t);
        store.record("io.latency_us", at, 900.0);
        store.record("mem.latency_us", at, 800.0);
    }
    engine.advance_to(Nanos::from_secs(6));
    assert!(!engine.violations().is_empty());
}
