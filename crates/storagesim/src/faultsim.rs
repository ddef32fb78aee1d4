//! Chaos-harness scenarios: the LinnOS setting under injected faults.
//!
//! Each scenario runs the Figure 2 datapath (flash array + learned
//! classifier + guardrail monitor, a [`Datapath`]) while one fault window
//! breaks one thing, twice: once with the **seed** runtime (all
//! resilience off, feature-store quarantine disabled — the engine exactly as
//! it shipped) and once with the **hardened** runtime
//! ([`RuntimeConfig::hardened`]: [`ResilienceConfig::hardened`] plus the
//! store's non-finite quarantine, applied in one
//! [`MonitorEngine::apply_runtime`] call).
//! The paired [`FaultRunReport`]s are what the `exp_faults` experiment (E9)
//! sweeps into a CSV.
//!
//! The fault → guardrail pairings, and why each unhardened run degrades:
//!
//! | fault | guardrail installed | seed runtime | hardened runtime |
//! |---|---|---|---|
//! | `device_brownout` | latency-SLO | detects, device heals at window end | same (hardening neutral) |
//! | `gc_storm` | latency-SLO | detects, device heals at window end | same (hardening neutral) |
//! | `poison_nan`/`poison_inf` | model-health | non-finite EWMA latches in the store; the rule can never read truth again → spurious permanent kill | quarantine drops the poisoned `SAVE`s; last-good value survives; model resumes after the window |
//! | `poison_out_of_range` | model-health | finite garbage passes any non-finite filter: both variants fail safe by disabling the model | same — an honest limit of quarantine |
//! | `dropped_saves` | Listing 2 (+ stale-telemetry watchdog when hardened) | Listing 2 reads a frozen healthy value forever → wedged | `DELTA` watchdog notices the feed stopped moving and fails safe |
//! | `fuel_exhaustion` | Listing 2 | every evaluation aborts mid-rule; no violation is ever recorded → wedged | fail-closed watchdog trips after 3 consecutive faults and fires the actions on the way down |
//! | `replace_target_missing` | failover-quality (`REPLACE`) | the action errors into a log line forever; the stale model stays active → wedged | `REPLACE` degrades to the slot's registered default variant |
//! | `retrain_panic` | stale-model (`RETRAIN`) | the first panicking job kills the unprotected executor; every later retrain is silently lost → wedged | the protected executor counts the panic and keeps running jobs; the post-window retrain lands |

use std::panic;

use guardrails::action::retrain::RetrainExecutor;
use guardrails::action::Command;
use guardrails::fault::{FaultKind, PoisonMode};
use guardrails::monitor::{
    Hysteresis, MonitorEngine, ResilienceConfig, RuntimeConfig, WatchdogConfig,
};
use guardrails::policy::VARIANT_LEARNED;
use mlkit::OutputCorruption;
use simkernel::{MovingAverage, Nanos};

use crate::datapath::Datapath;
use crate::device::FlashDeviceConfig;
use crate::sim::{LinnosSimConfig, PhaseStats, LISTING_2_SPEC};

/// Latency-SLO guardrail for the transient device faults. A brownout slows
/// *every* replica, so the learned policy correctly predicts "slow"
/// everywhere and Listing 2's false-submit rate never rises — the guardrail
/// that can see an environment-wide fault is an SLO on the served latency
/// itself. Detection-only (`REPORT`): the repair is the device healing.
/// The timer starts after warmup (the untrained no-ML period genuinely
/// breaches any reasonable SLO) and the threshold sits well above the
/// healthy mean (~560µs) so only real faults trip it.
pub const LATENCY_SLO_SPEC: &str = r#"
guardrail latency-slo {
    trigger: { TIMER(3s, 1s) },
    rule: { LOAD(mean_io_latency_us) <= 800.0 },
    action: { REPORT("mean I/O latency SLO violated", mean_io_latency_us) }
}
"#;

/// `REPLACE`-based variant of Listing 2: instead of flipping a flag, swap
/// the submission policy slot to the known-safe variant.
pub const FAILOVER_QUALITY_SPEC: &str = r#"
guardrail failover-quality {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(false_submit_rate) <= 0.05 },
    action: { REPLACE(io_submit, safe) }
}
"#;

/// `RETRAIN`-based variant of Listing 2: a high false-submit rate means the
/// model is stale, so retrain it on fresh data instead of disabling it.
pub const STALE_MODEL_SPEC: &str = r#"
guardrail stale-model {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(false_submit_rate) <= 0.05 },
    action: { RETRAIN(linnos) }
}
"#;

/// The hardened runtime's stale-telemetry watchdog: if the feature feeding
/// Listing 2 stops changing between checks, the monitor is blind — presume
/// the guarded property violated and fail safe. Paired with 3-of-3
/// hysteresis so a single quiet period does not kill the model.
pub const STALE_TELEMETRY_SPEC: &str = r#"
guardrail stale-telemetry {
    trigger: { TIMER(3500ms, 1s) },
    rule: { DELTA(false_submit_rate) != 0.0 },
    action: {
        REPORT("false_submit_rate feed is stale", false_submit_rate)
        SAVE(ml_enabled, false)
    }
}
"#;

/// Model-health guardrail for the poison scenarios: the EWMA of the model's
/// predicted slow-probability must stay in the sane range. A sigmoid output
/// can never exceed 1, so a reading above 0.95 (or one that fails every
/// comparison, like `NaN`) means the inference path itself is broken.
pub const MODEL_HEALTH_SPEC: &str = r#"
guardrail model-health {
    trigger: { TIMER(3s, 1s) },
    rule: { LOAD(prediction_health) <= 0.95 },
    action: {
        REPORT("model prediction health out of range", prediction_health)
        SAVE(ml_enabled, false)
    }
}
"#;

/// The outcome of one fault-scenario run.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultRunReport {
    /// Stable scenario label (fault kind, with the poison mode spelled out).
    pub label: String,
    /// Whether the hardened runtime was active.
    pub hardened: bool,
    /// Fault window start.
    pub fault_start: Nanos,
    /// Fault window end (`Nanos::MAX` = permanent).
    pub fault_end: Nanos,
    /// First monitor reaction (violation, watchdog trip, or quarantined
    /// save) at or after the fault started, relative to the fault start.
    pub detection_delay: Option<Nanos>,
    /// When the scenario's safe/recovered state was reached, relative to
    /// the fault start. `None` = never.
    pub recovery: Option<Nanos>,
    /// Rule violations recorded by the engine over the whole run.
    pub violations: u64,
    /// Log records emitted (reports, fault notices, watchdog messages).
    pub reports: usize,
    /// Rule evaluations aborted by fuel exhaustion or panic.
    pub rule_faults: u64,
    /// Monitors auto-disabled by the watchdog.
    pub watchdog_trips: u64,
    /// `RETRAIN` retry attempts serviced by the engine.
    pub retrain_retries: u64,
    /// Non-finite `SAVE`s quarantined by the feature store.
    pub poisoned_saves: u64,
    /// Retrains successfully applied to the classifier.
    pub retrains_applied: u64,
    /// Mean I/O latency from the fault start to the end of the run.
    pub post_fault_latency_us: f64,
    /// Mean I/O latency from the end of warmup to the fault start.
    pub healthy_latency_us: f64,
    /// `ml_enabled` flag at the end of the run.
    pub ml_enabled_at_end: bool,
    /// Degradation persisted to the end with no effective corrective state
    /// ever reached.
    pub wedged: bool,
}

/// Human/CSV label for a fault kind (poison modes get their own rows).
pub fn fault_label(kind: &FaultKind) -> String {
    match kind {
        FaultKind::PoisonModelOutput { mode } => match mode {
            PoisonMode::Nan => "poison_nan".to_string(),
            PoisonMode::Inf => "poison_inf".to_string(),
            PoisonMode::OutOfRange => "poison_out_of_range".to_string(),
        },
        other => other.name().to_string(),
    }
}

/// The canonical E9 sweep: every fault kind, with all three poison modes.
pub fn fault_matrix() -> Vec<FaultKind> {
    vec![
        FaultKind::DeviceBrownout { slowdown: 8.0 },
        FaultKind::GcStorm,
        FaultKind::PoisonModelOutput {
            mode: PoisonMode::Nan,
        },
        FaultKind::PoisonModelOutput {
            mode: PoisonMode::Inf,
        },
        FaultKind::PoisonModelOutput {
            mode: PoisonMode::OutOfRange,
        },
        FaultKind::DroppedSaves {
            key: "false_submit_rate".to_string(),
        },
        FaultKind::FuelExhaustion { limit: 2 },
        FaultKind::ReplaceTargetMissing,
        FaultKind::RetrainPanic,
    ]
}

/// Installs a process-wide panic hook that suppresses the chaos harness's
/// own injected retrain panics but forwards everything else. Call once from
/// binaries/tests that run the `retrain_panic` scenario, purely to keep
/// stderr readable — the scenario works identically without it.
pub fn quiet_injected_panics() {
    let prev = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("injected retrain fault"));
        if !injected {
            prev(info);
        }
    }));
}

/// Per-kind schedule: the run's [`LinnosSimConfig`] (training ends at
/// 2 s; a run without the Figure 2 distribution shift has
/// `shift_at() == total()`) and the fault window `[start, end)`.
fn schedule_for(kind: &FaultKind, seed: u64) -> (LinnosSimConfig, Nanos, Nanos) {
    let secs = Nanos::from_secs;
    // (shift instant, end of run, window start, window end)
    let (shift_at, total, start, end) = match kind {
        // Transient environment faults on a healthy (never-shifted) system.
        FaultKind::DeviceBrownout { .. } => (secs(10), secs(10), secs(4), secs(6)),
        FaultKind::GcStorm => (secs(10), secs(10), secs(4), secs(7)),
        FaultKind::PoisonModelOutput { .. } => (secs(10), secs(10), secs(4), secs(6)),
        // Guardrail-machinery faults paired with the Figure 2 shift, so the
        // guardrail has real work to do exactly while it is broken.
        FaultKind::DroppedSaves { .. } => (secs(5), secs(12), secs(4), Nanos::MAX),
        FaultKind::FuelExhaustion { .. } => (secs(5), secs(12), secs(5), Nanos::MAX),
        FaultKind::ReplaceTargetMissing => (secs(5), secs(12), secs(3), Nanos::MAX),
        FaultKind::RetrainPanic => (secs(5), secs(14), Nanos::from_millis(5_500), secs(8)),
        // Crash-family faults are whole-node events, not in-flight ones:
        // they are exercised by the `recovery` module's crash-restart
        // scenarios (E10), which own their own timeline. Their window here
        // is empty and never opens.
        FaultKind::Crash
        | FaultKind::TornWrite { .. }
        | FaultKind::SnapshotCorrupt
        | FaultKind::CheckpointCorrupt => (secs(5), secs(14), secs(8), secs(8)),
    };
    let warmup = secs(2);
    let config = LinnosSimConfig {
        seed,
        warmup,
        healthy: shift_at - warmup,
        shifted: total - shift_at,
        ..LinnosSimConfig::default()
    };
    (config, start, end)
}

/// Runs one fault scenario to completion.
///
/// `hardened` selects the runtime under test: `false` is the seed runtime
/// (resilience disabled, store quarantine off), `true` enables
/// [`ResilienceConfig::hardened`] (with a 3-fault fail-closed watchdog for
/// the fuel scenario), the store quarantine, the protected retrain executor,
/// and — for `dropped_saves` — the stale-telemetry watchdog guardrail.
///
/// # Panics
///
/// Panics if one of the scenario guardrail specs fails to compile; they are
/// constants, so that would be a bug in this crate.
pub fn run_fault_scenario(kind: FaultKind, hardened: bool, seed: u64) -> FaultRunReport {
    let (config, fault_start, fault_end) = schedule_for(&kind, seed);
    let total = config.total();

    let mut engine = MonitorEngine::new();
    let runtime = if hardened {
        let resilience = match kind {
            FaultKind::FuelExhaustion { .. } => ResilienceConfig {
                watchdog: Some(WatchdogConfig::fail_closed().with_max_faults(3)),
                ..ResilienceConfig::hardened()
            },
            _ => ResilienceConfig::hardened(),
        };
        RuntimeConfig::hardened().with_resilience(resilience)
    } else {
        RuntimeConfig::seed()
    };
    engine.apply_runtime(&runtime);
    let store = engine.store();
    let ml_enabled = store.slot("ml_enabled");
    let false_submit_rate = store.slot("false_submit_rate");
    let mean_io_latency_us = store.slot("mean_io_latency_us");
    let prediction_health = store.slot("prediction_health");
    store.save_slot(&ml_enabled, 1.0);
    store.save_slot(&false_submit_rate, 0.0);

    // Install the guardrail(s) the scenario exercises.
    let registry = engine.registry();
    let slot_learned = registry.handle("io_submit", VARIANT_LEARNED);
    let mut trainer = None;
    match &kind {
        FaultKind::DeviceBrownout { .. } | FaultKind::GcStorm => {
            store.save_slot(&mean_io_latency_us, 0.0);
            engine
                .install_str(LATENCY_SLO_SPEC)
                .expect("latency-slo compiles");
        }
        FaultKind::PoisonModelOutput { .. } => {
            store.save_slot(&prediction_health, 0.0);
            engine
                .install_str(MODEL_HEALTH_SPEC)
                .expect("model-health compiles");
        }
        FaultKind::ReplaceTargetMissing => {
            registry
                .register("io_submit", &[VARIANT_LEARNED, "safe", "default"])
                .expect("fresh registry");
            registry
                .set_default_variant("io_submit", "default")
                .expect("default variant exists");
            engine
                .install_str(FAILOVER_QUALITY_SPEC)
                .expect("failover-quality compiles");
        }
        FaultKind::RetrainPanic => {
            trainer = Some(RetrainExecutor::new(hardened));
            engine
                .install_str(STALE_MODEL_SPEC)
                .expect("stale-model compiles");
        }
        _ => {
            engine
                .install_str(LISTING_2_SPEC)
                .expect("Listing 2 compiles");
        }
    }
    if hardened && matches!(kind, FaultKind::DroppedSaves { .. }) {
        engine
            .install_str(STALE_TELEMETRY_SPEC)
            .expect("stale-telemetry compiles");
        engine
            .set_hysteresis("stale-telemetry", Hysteresis::n_of_m(3, 3))
            .expect("just installed");
    }

    let mut datapath = Datapath::new(config);

    let uses_registry_gate = matches!(kind, FaultKind::ReplaceTargetMissing);
    let drops_rate_saves =
        matches!(&kind, FaultKind::DroppedSaves { key } if key == "false_submit_rate");
    let tracks_health = matches!(kind, FaultKind::PoisonModelOutput { .. });
    let tracks_latency = matches!(kind, FaultKind::DeviceBrownout { .. } | FaultKind::GcStorm);
    // The window's edges: it opens at the first arrival at `fault_start`
    // and closes at the first at `fault_end`; an empty window never opens.
    let mut fault_started = false;
    let mut fault_ended = false;
    let mut moving = MovingAverage::new(datapath.config().moving_avg_window);
    let mut health_ewma = 0.0f64;
    let mut baseline = None;
    let mut detection_at = None;
    let mut ml_off_at = None;
    let mut replaced_at = None;
    let mut retrain_applied_at = None;
    let mut retrains_applied = 0u64;
    // Reused command buffer: drained every I/O, almost always empty.
    let mut cmd_buf = Vec::new();

    while let Some(now) = datapath.next_arrival() {
        // Apply the fault window's edges crossed since the last arrival.
        if !fault_started && now >= fault_start && fault_start < fault_end {
            fault_started = true;
            apply_fault(&kind, true, &mut datapath, &mut engine);
        }
        if fault_started && !fault_ended && now >= fault_end {
            fault_ended = true;
            apply_fault(&kind, false, &mut datapath, &mut engine);
        }
        let in_window = fault_start <= now && now < fault_end;

        if baseline.is_none() && now >= fault_start {
            baseline = Some((engine.stats(), store.poisoned_total(), datapath.stats()));
        }

        engine.advance_to(now);

        // Drain deferred commands; the only one these scenarios emit is
        // RETRAIN, run at `now` on the (possibly unprotected) executor.
        engine.drain_commands_into(&mut cmd_buf);
        for (_, command) in cmd_buf.drain(..) {
            if let (Command::Retrain { .. }, Some(trainer)) = (command, &mut trainer) {
                // Only `retrain_panic` makes a trainer, so its window poisons.
                let applied = trainer.run(|| {
                    if in_window {
                        panic!("injected retrain fault");
                    }
                    datapath.classifier_mut().retrain();
                });
                if applied {
                    retrains_applied += 1;
                    if retrain_applied_at.is_none() && now >= fault_start {
                        retrain_applied_at = Some(now);
                    }
                }
            }
        }

        // Post-advance state tracking.
        if ml_off_at.is_none() && !ml_enabled.flag() {
            ml_off_at = Some(now);
        }
        if uses_registry_gate && replaced_at.is_none() && !slot_learned.is_active() {
            replaced_at = Some(now);
        }
        if detection_at.is_none() {
            if let Some((stats_then, poisoned_then, _)) = baseline {
                let stats = engine.stats();
                if stats.violations > stats_then.violations
                    || stats.watchdog_trips > stats_then.watchdog_trips
                    || store.poisoned_total() > poisoned_then
                {
                    detection_at = Some(now);
                }
            }
        }

        // The datapath decision.
        let gate_open = ml_enabled.flag() && (!uses_registry_gate || slot_learned.is_active());
        let (outcome, proba) = datapath.submit(now, gate_open);

        // Telemetry the guardrails read. The EWMA pipeline is deliberately
        // naive: one non-finite model output latches it forever, which is
        // exactly the poison pathway the store quarantine exists to contain.
        if let Some(proba) = proba.filter(|_| tracks_health) {
            health_ewma = 0.98 * health_ewma + 0.02 * proba;
            store.save_slot(&prediction_health, health_ewma);
        }
        let saves_dropped = in_window && drops_rate_saves;
        if let Some(rate) = datapath.false_submit_rate().filter(|_| !saves_dropped) {
            store.save_slot(&false_submit_rate, rate);
        }

        if tracks_latency {
            let avg = moving.push(outcome.latency.as_micros_f64());
            store.save_slot(&mean_io_latency_us, avg);
        }
    }
    engine.advance_to(total);
    if ml_off_at.is_none() && !ml_enabled.flag() {
        ml_off_at = Some(total);
    }

    // Scenario-specific safe/recovered state.
    let recovered_at = match &kind {
        // Transient environment faults: the device heals at the window end;
        // the guardrail's job is detection, not repair.
        FaultKind::DeviceBrownout { .. } | FaultKind::GcStorm => Some(fault_end),
        // The monitoring loop survived the poison iff its health feature is
        // still finite: then either the model is back (window end) or a
        // functioning monitor disabled it deliberately.
        FaultKind::PoisonModelOutput { .. } => {
            let store_finite = prediction_health.load().is_some_and(f64::is_finite);
            if !store_finite {
                None
            } else if ml_enabled.flag() {
                Some(fault_end)
            } else {
                ml_off_at
            }
        }
        FaultKind::DroppedSaves { .. } | FaultKind::FuelExhaustion { .. } => ml_off_at,
        FaultKind::ReplaceTargetMissing => replaced_at,
        FaultKind::RetrainPanic => retrain_applied_at,
        // Crash-family faults run in the `recovery` scenarios; under this
        // in-process harness they are no-ops, so nothing needs recovering.
        FaultKind::Crash
        | FaultKind::TornWrite { .. }
        | FaultKind::SnapshotCorrupt
        | FaultKind::CheckpointCorrupt => Some(fault_end),
    };
    let recovery = recovered_at.map(|t| t.saturating_sub(fault_start));
    let stats = engine.stats();
    let end = datapath.stats();
    let at_fault = baseline.map_or(end, |(_, _, at_fault)| at_fault);
    FaultRunReport {
        label: fault_label(&kind),
        hardened,
        fault_start,
        fault_end,
        detection_delay: detection_at.map(|t| t.saturating_sub(fault_start)),
        recovery,
        violations: stats.violations,
        reports: engine.reports().count(),
        rule_faults: stats.rule_faults,
        watchdog_trips: stats.watchdog_trips,
        retrain_retries: stats.retrain_retries,
        poisoned_saves: store.poisoned_total(),
        retrains_applied,
        post_fault_latency_us: PhaseStats::from_delta(at_fault, end).mean_latency_us,
        healthy_latency_us: PhaseStats::from_delta(datapath.stats_at_training(), at_fault)
            .mean_latency_us,
        ml_enabled_at_end: ml_enabled.flag(),
        wedged: recovery.is_none(),
    }
}

/// Starts (`starting`) or ends `kind` on the datapath and engine. Dropped
/// saves and retrain panics act at their use sites while the window is
/// open; the crash family is driven by the `recovery` scenarios.
fn apply_fault(
    kind: &FaultKind,
    starting: bool,
    datapath: &mut Datapath,
    engine: &mut MonitorEngine,
) {
    let healthy_device = datapath.config().device;
    match kind {
        FaultKind::DeviceBrownout { slowdown } => {
            let config = if starting {
                FlashDeviceConfig {
                    base_latency: Nanos::from_nanos(
                        (healthy_device.base_latency.as_nanos() as f64 * slowdown) as u64,
                    ),
                    ..healthy_device
                }
            } else {
                healthy_device
            };
            datapath.array_mut().set_device_config(config);
        }
        FaultKind::GcStorm => {
            let config = if starting {
                FlashDeviceConfig {
                    gc_interval: Nanos::from_millis(3),
                    gc_pause_min: Nanos::from_millis(2),
                    gc_pause_max: Nanos::from_millis(8),
                    ..healthy_device
                }
            } else {
                healthy_device
            };
            datapath.array_mut().set_device_config(config);
        }
        FaultKind::PoisonModelOutput { mode } => {
            let corruption = starting.then_some(match mode {
                PoisonMode::Nan => OutputCorruption::Nan,
                PoisonMode::Inf => OutputCorruption::Inf,
                PoisonMode::OutOfRange => OutputCorruption::OutOfRange,
            });
            datapath.classifier_mut().set_output_corruption(corruption);
        }
        FaultKind::FuelExhaustion { limit } => {
            engine.set_rule_fuel_limit(starting.then_some(*limit));
        }
        FaultKind::ReplaceTargetMissing => {
            if starting {
                engine
                    .registry()
                    .unregister_variant("io_submit", "safe")
                    .expect("safe is registered and inactive");
            }
        }
        FaultKind::DroppedSaves { .. }
        | FaultKind::RetrainPanic
        | FaultKind::Crash
        | FaultKind::TornWrite { .. }
        | FaultKind::SnapshotCorrupt
        | FaultKind::CheckpointCorrupt => {}
    }
}

/// Runs `kind` under both runtimes with the same seed: `(seed, hardened)`.
pub fn run_fault_pair(kind: FaultKind, seed: u64) -> (FaultRunReport, FaultRunReport) {
    (
        run_fault_scenario(kind.clone(), false, seed),
        run_fault_scenario(kind, true, seed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0xF162;

    #[test]
    fn fuel_exhaustion_wedges_seed_runtime_but_not_hardened() {
        let (seed_run, hardened) = run_fault_pair(FaultKind::FuelExhaustion { limit: 2 }, SEED);
        // Seed runtime: every post-fault evaluation aborts, nothing fires.
        assert!(seed_run.wedged, "seed runtime must wedge");
        assert!(seed_run.rule_faults > 0);
        assert_eq!(seed_run.watchdog_trips, 0);
        assert!(seed_run.ml_enabled_at_end, "stale model left enabled");
        // Hardened: the fail-closed watchdog fires the actions on the way
        // down, so the model is disabled even though the rule never ran.
        assert!(!hardened.wedged);
        assert_eq!(hardened.watchdog_trips, 1);
        assert!(!hardened.ml_enabled_at_end);
        let recovery = hardened.recovery.expect("hardened recovers");
        assert!(
            recovery <= Nanos::from_secs(4),
            "watchdog trips within a few checks: {recovery}"
        );
        assert!(
            hardened.post_fault_latency_us < seed_run.post_fault_latency_us,
            "hardened {} vs seed {}",
            hardened.post_fault_latency_us,
            seed_run.post_fault_latency_us
        );
    }

    #[test]
    fn missing_replace_target_falls_back_only_when_hardened() {
        let (seed_run, hardened) = run_fault_pair(FaultKind::ReplaceTargetMissing, SEED);
        assert!(seed_run.wedged, "REPLACE fails into a log line forever");
        assert!(seed_run.violations > 0, "the rule itself still detects");
        assert!(!hardened.wedged);
        assert!(hardened.recovery.is_some());
        assert!(
            hardened.post_fault_latency_us < seed_run.post_fault_latency_us,
            "hardened {} vs seed {}",
            hardened.post_fault_latency_us,
            seed_run.post_fault_latency_us
        );
    }

    #[test]
    fn dropped_saves_blind_the_seed_runtime() {
        let kind = FaultKind::DroppedSaves {
            key: "false_submit_rate".to_string(),
        };
        let (seed_run, hardened) = run_fault_pair(kind, SEED);
        assert!(seed_run.wedged, "Listing 2 reads a frozen healthy value");
        assert_eq!(seed_run.violations, 0);
        assert!(seed_run.ml_enabled_at_end);
        // Hardened: the DELTA watchdog notices the feed froze and fails safe.
        assert!(!hardened.wedged);
        assert!(!hardened.ml_enabled_at_end);
        assert!(hardened.detection_delay.is_some());
    }

    #[test]
    fn nan_poison_is_contained_by_the_quarantine() {
        quiet_injected_panics();
        let kind = FaultKind::PoisonModelOutput {
            mode: PoisonMode::Nan,
        };
        let (seed_run, hardened) = run_fault_pair(kind, SEED);
        // Seed runtime: NaN latches in the store; the spurious kill is
        // permanent and the health feature is unreadable forever.
        assert!(seed_run.wedged);
        assert!(!seed_run.ml_enabled_at_end, "spurious permanent kill");
        assert_eq!(seed_run.poisoned_saves, 0, "quarantine was off");
        // Hardened: poisoned saves are dropped, the last good value
        // survives, and the model resumes after the window.
        assert!(!hardened.wedged);
        assert!(hardened.ml_enabled_at_end, "no spurious kill");
        assert!(hardened.poisoned_saves > 0, "quarantine counted the poison");
        assert!(
            hardened.post_fault_latency_us < seed_run.post_fault_latency_us,
            "hardened {} vs seed {}",
            hardened.post_fault_latency_us,
            seed_run.post_fault_latency_us
        );
    }

    #[test]
    fn out_of_range_poison_fails_safe_in_both_runtimes() {
        // Finite garbage passes a non-finite quarantine — both runtimes fall
        // back to the model-health guardrail, which disables the model.
        let kind = FaultKind::PoisonModelOutput {
            mode: PoisonMode::OutOfRange,
        };
        let (seed_run, hardened) = run_fault_pair(kind, SEED);
        for report in [&seed_run, &hardened] {
            assert!(!report.wedged, "the guardrail still fires");
            assert!(!report.ml_enabled_at_end, "failed safe");
            assert!(report.detection_delay.is_some());
        }
    }

    #[test]
    fn retrain_panic_kills_the_seed_trainer_for_good() {
        quiet_injected_panics();
        let (seed_run, hardened) = run_fault_pair(FaultKind::RetrainPanic, SEED);
        assert!(seed_run.wedged, "dead trainer loses every later retrain");
        assert_eq!(seed_run.retrains_applied, 0);
        assert!(!hardened.wedged, "protected trainer survives the panic");
        assert!(hardened.retrains_applied >= 1);
        assert!(hardened.recovery.is_some());
    }

    #[test]
    fn transient_device_faults_recover_in_both_runtimes() {
        for kind in [
            FaultKind::DeviceBrownout { slowdown: 8.0 },
            FaultKind::GcStorm,
        ] {
            let (seed_run, hardened) = run_fault_pair(kind.clone(), SEED);
            for report in [&seed_run, &hardened] {
                assert!(
                    !report.wedged,
                    "{}: device heals at window end",
                    report.label
                );
                assert!(
                    report.detection_delay.is_some(),
                    "{}: the latency SLO sees the spike",
                    report.label
                );
                assert!(
                    report.post_fault_latency_us > report.healthy_latency_us,
                    "{}: the fault really degraded latency",
                    report.label
                );
            }
        }
    }

    #[test]
    fn scenario_runs_are_deterministic() {
        quiet_injected_panics();
        for (kind, hardened) in [
            (FaultKind::FuelExhaustion { limit: 2 }, true),
            (FaultKind::RetrainPanic, false),
            (FaultKind::RetrainPanic, true),
        ] {
            let a = run_fault_scenario(kind.clone(), hardened, SEED);
            let b = run_fault_scenario(kind, hardened, SEED);
            assert_eq!(a, b);
        }
    }
}
