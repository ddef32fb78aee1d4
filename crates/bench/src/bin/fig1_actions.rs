//! F1-A: regenerates the right table of the paper's Figure 1 as an
//! executable matrix — each corrective action A1–A4 applied to the
//! violation class Figure 1 pairs it with, with its effect verified.

use gr_bench::write_results;
use guardrails::action::Command;
use guardrails::monitor::MonitorEngine;
use simkernel::{Nanos, Priority, TaskControl, TaskTable};
use storagesim::{LinnosClassifier, LinnosConfig};

struct Row {
    id: &'static str,
    action: &'static str,
    paired_with: &'static str,
    applied: bool,
    effect: String,
}

/// A1 REPORT: log system context when a property is violated.
fn a1_report() -> Row {
    let mut engine = MonitorEngine::new();
    engine
        .install_str(
            r#"guardrail a1 {
                trigger: { TIMER(0, 1s) },
                rule: { LOAD(io_model.input.psi) <= 0.25 },
                action: { REPORT("input drift", io_model.input.psi, io_model.input.oob_fraction) }
            }"#,
        )
        .unwrap();
    let store = engine.store();
    store.save("io_model.input.psi", 0.8);
    store.save("io_model.input.oob_fraction", 0.4);
    engine.advance_to(Nanos::from_secs(1));
    let records: Vec<&str> = engine.reports().filter_map(|r| r.text()).collect();
    let logged = records
        .iter()
        .any(|text| text.contains("psi=0.8") && text.contains("oob_fraction=0.4"));
    Row {
        id: "A1",
        action: "REPORT",
        paired_with: "P1 drift / P4 poor decisions",
        applied: logged,
        effect: format!("{} bounded log records with key snapshots", records.len()),
    }
}

/// A2 REPLACE: swap a misbehaving policy for the known-safe fallback.
fn a2_replace() -> Row {
    let mut engine = MonitorEngine::new();
    let registry = engine.registry();
    registry
        .register("alloc_policy", &["learned", "fallback"])
        .unwrap();
    engine
        .install_str(
            r#"guardrail a2 {
                trigger: { FUNCTION(alloc_decide) },
                rule: { ARG(0) < 4096 },
                action: { REPLACE(alloc_policy, fallback) }
            }"#,
        )
        .unwrap();
    engine.on_function("alloc_decide", Nanos::from_micros(1), &[128.0]);
    let before = registry.active("alloc_policy").unwrap();
    engine.on_function("alloc_decide", Nanos::from_micros(2), &[70_000.0]);
    let after = registry.active("alloc_policy").unwrap();
    Row {
        id: "A2",
        action: "REPLACE",
        paired_with: "P3 out-of-bounds / P4 quality",
        applied: before == "learned" && after == "fallback",
        effect: format!("active variant {before} -> {after} on first OOB decision"),
    }
}

/// A3 RETRAIN: retrain on fresh data actually repairs the model.
fn a3_retrain() -> Row {
    // Train a LinnOS classifier, invert the world, retrain through the
    // command path, and measure accuracy before/after.
    let mut clf = LinnosClassifier::new(LinnosConfig::default());
    let fast = [0.3, 90.0, 92.0, 88.0, 91.0];
    let slow = [25.0, 900.0, 950.0, 870.0, 910.0];
    for _ in 0..1500 {
        clf.observe(&fast, false);
        clf.observe(&slow, true);
    }
    clf.train_round();
    // The world inverts (an extreme drift): old-fast features now mean slow.
    for _ in 0..4000 {
        clf.observe(&fast, true);
        clf.observe(&slow, false);
    }
    let stale_correct = u32::from(clf.predict_slow(&fast)); // Should be slow now.

    let mut engine = MonitorEngine::new();
    engine
        .install_str(
            "guardrail a3 { trigger: { TIMER(0, 1s) }, rule: { LOAD(accuracy) >= 0.9 }, action: { RETRAIN(io_model) } }",
        )
        .unwrap();
    engine.store().save("accuracy", 0.3);
    engine.advance_to(Nanos::ZERO);
    let mut retrained = false;
    let mut commands = Vec::new();
    engine.drain_commands_into(&mut commands);
    for (_, command) in commands {
        if let Command::Retrain { model, .. } = command {
            assert_eq!(model, "io_model");
            clf.retrain();
            retrained = true;
        }
    }
    let fresh_correct = u32::from(clf.predict_slow(&fast));
    Row {
        id: "A3",
        action: "RETRAIN",
        paired_with: "P2 sensitivity / P3 invalid outputs",
        applied: retrained && fresh_correct == 1,
        effect: format!(
            "stale model correct: {stale_correct}/1; after commanded retrain: {fresh_correct}/1"
        ),
    }
}

/// A4 DEPRIORITIZE: demote and (OOM-killer analogue) kill tasks.
fn a4_deprioritize() -> Row {
    let mut engine = MonitorEngine::new();
    engine
        .install_str(
            r#"guardrail a4 {
                trigger: { TIMER(0, 1s) },
                rule: { LOAD(free_bytes) >= 1000000 },
                action: { DEPRIORITIZE(batch, 10) DEPRIORITIZE(hog, 40) }
            }"#,
        )
        .unwrap();
    let mut table = TaskTable::new();
    let batch = table.spawn("batch", Priority::DEFAULT);
    let hog = table.spawn("hog", Priority::DEFAULT);
    table.get_mut(hog).unwrap().resident_bytes = 1 << 30;
    engine.store().save("free_bytes", 1000.0); // OOM pressure.
    engine.advance_to(Nanos::ZERO);
    let mut commands = Vec::new();
    engine.drain_commands_into(&mut commands);
    for (_, command) in commands {
        if let Command::Deprioritize { target, steps, .. } = command {
            let id = if target == "batch" { batch } else { hog };
            if steps >= 40 {
                table.kill(id);
            } else {
                let p = table.get(id).unwrap().priority.demoted(steps);
                table.set_priority(id, p);
            }
        }
    }
    let demoted = table.get(batch).unwrap().priority == Priority::new(10);
    let killed = table.alive_tasks() == vec![batch];
    Row {
        id: "A4",
        action: "DEPRIORITIZE",
        paired_with: "P6 liveness (OOM-killer analogue)",
        applied: demoted && killed,
        effect: "batch demoted to nice 10; memory hog killed, 1 GiB released".to_string(),
    }
}

fn main() {
    println!("=== Figure 1 (right): corrective actions, executed ===\n");
    let rows = [a1_report(), a2_replace(), a3_retrain(), a4_deprioritize()];
    let mut csv = String::from("action,paired_with,applied,effect\n");
    for r in &rows {
        println!(
            "{}  {:<13} {:<34} applied={}  {}",
            r.id, r.action, r.paired_with, r.applied, r.effect
        );
        csv.push_str(&format!(
            "{},{},{},\"{}\"\n",
            r.id, r.paired_with, r.applied, r.effect
        ));
    }
    let path = write_results("fig1_actions.csv", &csv);
    println!("\nwritten to {}", path.display());
    let all = rows.iter().all(|r| r.applied);
    println!("all four actions applied with verified effect: {all}");
    assert!(all, "every Figure 1 action row must apply");
}
