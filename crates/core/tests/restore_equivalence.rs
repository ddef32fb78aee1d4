//! Property test: an engine restarted from a checkpoint behaves exactly
//! like one that never stopped. Both engines see the same store writes,
//! tracepoint firings and clock; one of them is checkpointed at a random
//! step, its checkpoint encoded and decoded, and a fresh engine with the
//! same specs restores it and carries on. From then on the two must agree
//! on every violation, every store value and every counter.
//!
//! The specs cover what a restart could lose: `DELTA` state in a rule and
//! in an action operand, a windowed aggregate, N-of-M hysteresis, and a
//! timer installed mid-period (its phase must survive the restart).
//!
//! A second property checks the checkpoint's two encoders against each
//! other: over the same histories, with pending retrains, watchdog trips
//! and re-enables, and `REPLACE`-pinned slots added, the bytes
//! `MonitorEngine::checkpoint_into` writes are `checkpoint().encode()`'s.
//!
//! A third checks that observing an engine changes none of its state: one
//! history of store writes, hook firings and timer advances, delivered in
//! batches or one firing at a time and with or without telemetry attached,
//! checkpoints to the same bytes every time.

use std::sync::Arc;

use guardrails::action::retrain::RetrainLimiter;
use guardrails::monitor::engine::FnEvent;
use guardrails::monitor::{
    EngineCheckpoint, Hysteresis, MonitorEngine, OverheadAccount, ResilienceConfig,
};
use guardrails::{FeatureStore, PolicyRegistry, Telemetry};
use proptest::collection::vec;
use proptest::prelude::*;
use simkernel::Nanos;

/// Installed at t = 0.
const SPECS: &str = r#"
guardrail heartbeat {
    trigger: { TIMER(0, 100ms) },
    rule: { DELTA(beats) != 0 },
    action: { RECORD(stale, 1) }
}
guardrail queue-jump {
    trigger: { FUNCTION(io) },
    rule: { DELTA(qdepth) < 8 },
    action: { SAVE(last_jump, DELTA(qdepth)) }
}
"#;

/// Installed at a generated offset, so its ticks sit mid-period.
const LATE_SPEC: &str = r#"
guardrail latency-slo {
    trigger: { TIMER(0, 250ms) },
    rule: { AVG(lat, 1s) < 60 },
    action: { SAVE(slo_breaches, LOAD(slo_breaches) + 1) }
}
"#;

/// One generated step: a time advance, whether the heartbeat moves, a
/// latency sample and a queue depth, then one `io` firing.
#[derive(Clone, Debug)]
struct Step {
    dt_ms: u64,
    beat: bool,
    lat: f64,
    qdepth: f64,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    vec(
        (1u64..120, any::<bool>(), 0.0f64..100.0, 0.0f64..32.0).prop_map(
            |(dt_ms, beat, lat, qdepth)| Step {
                dt_ms,
                beat,
                lat,
                qdepth,
            },
        ),
        1..80,
    )
}

fn install_specs(engine: &mut MonitorEngine) {
    engine.install_str(SPECS).unwrap();
}

fn install_late_spec(engine: &mut MonitorEngine) {
    engine.install_str(LATE_SPEC).unwrap();
    engine
        .set_hysteresis("latency-slo", Hysteresis::n_of_m(2, 3))
        .unwrap();
}

/// Drives `engine` through one step at `now`.
fn step(engine: &mut MonitorEngine, step: &Step, now: Nanos, beats: &mut f64) {
    let store = engine.store();
    if step.beat {
        *beats += 1.0;
        store.save("beats", *beats);
    }
    store.record("lat", now, step.lat);
    store.save("qdepth", step.qdepth);
    engine.on_function("io", now, &[]);
    engine.advance_to(now);
}

/// Runs `steps`, installing the late spec once the clock passes
/// `install_at`. With `restart_after = Some(k)`, the engine is replaced
/// after step `k` by a fresh one that restores its decoded checkpoint.
/// Returns the engine and the checkpoint instant (`None` without restart).
fn run(
    steps: &[Step],
    install_at: Nanos,
    restart_after: Option<usize>,
) -> (MonitorEngine, Option<Nanos>) {
    let store = Arc::new(FeatureStore::new());
    let registry = Arc::new(PolicyRegistry::new());
    let mut engine = MonitorEngine::with_parts(Arc::clone(&store), Arc::clone(&registry));
    install_specs(&mut engine);
    let mut now = Nanos::ZERO;
    let mut beats = 0.0;
    let mut late_installed = false;
    let mut restarted_at = None;
    for (i, s) in steps.iter().enumerate() {
        now += Nanos::from_millis(s.dt_ms);
        if !late_installed && now >= install_at {
            engine.advance_to(install_at);
            install_late_spec(&mut engine);
            late_installed = true;
        }
        step(&mut engine, s, now, &mut beats);
        if restart_after == Some(i) {
            let checkpoint = EngineCheckpoint::decode(&engine.checkpoint().encode()).unwrap();
            engine = MonitorEngine::with_parts(Arc::clone(&store), Arc::clone(&registry));
            install_specs(&mut engine);
            if late_installed {
                install_late_spec(&mut engine);
            }
            engine.restore(&checkpoint).unwrap();
            restarted_at = Some(checkpoint.now);
        }
    }
    (engine, restarted_at)
}

/// Everything observable except the violations logged before the restart.
#[derive(Debug, PartialEq)]
struct Observed {
    violations: Vec<(Nanos, String, bool)>,
    scalars: Vec<(String, f64)>,
    /// The summed overhead accounts.
    account: OverheadAccount,
}

fn observe(engine: &MonitorEngine, since: Nanos) -> Observed {
    let violations = engine
        .violations()
        .into_iter()
        .filter(|v| v.at > since)
        .map(|v| (v.at, v.guardrail, v.actions_fired))
        .collect();
    let mut scalars = engine.store().scalars();
    scalars.sort_by(|a, b| a.0.cmp(&b.0));
    Observed {
        violations,
        scalars,
        account: engine.telemetry_snapshot(),
    }
}

/// Guardrails whose state a checkpoint carries beyond `SPECS`'s: a
/// `RETRAIN` the limiter rejects (a pending retry), and `REPLACE`s that pin
/// the `io_submit` slot one way or the other.
const HISTORY_SPECS: &str = r#"
guardrail retrain-on-depth {
    trigger: { FUNCTION(io) },
    rule: { LOAD(qdepth) < 24 },
    action: { RETRAIN(io_model) }
}
guardrail failover {
    trigger: { TIMER(0, 50ms) },
    rule: { LOAD(qdepth) < 20 },
    action: { REPLACE(io_submit, safe) }
}
guardrail failback {
    trigger: { TIMER(0, 50ms) },
    rule: { LOAD(qdepth) >= 10 },
    action: { REPLACE(io_submit, learned) }
}
"#;

/// An engine whose history can reach every part of a checkpoint: `SPECS`
/// and `HISTORY_SPECS`, retrain retries, the watchdog, and a registry with
/// the slot the `REPLACE`s pin.
fn history_engine() -> MonitorEngine {
    let registry = Arc::new(PolicyRegistry::new());
    registry
        .register("io_submit", &["learned", "safe"])
        .unwrap();
    registry.register("cache", &["learned", "lru"]).unwrap();
    let mut engine = MonitorEngine::with_parts(Arc::new(FeatureStore::new()), registry);
    engine.set_retrain_limiter(RetrainLimiter::new(
        Nanos::from_secs(1),
        100,
        Nanos::from_secs(1_000),
    ));
    engine.set_resilience(ResilienceConfig {
        retrain_retry: true,
        watchdog: true,
        ..ResilienceConfig::default()
    });
    install_specs(&mut engine);
    engine.install_str(HISTORY_SPECS).unwrap();
    engine
}

/// Sets the rule fuel limit for what comes next: starved when `fault`,
/// which faults every rule, else lifted, and then every monitor the
/// watchdog tripped is re-enabled, as an operator would once the fault is
/// gone.
fn set_fault(engine: &mut MonitorEngine, fault: bool) {
    engine.set_rule_fuel_limit(fault.then_some(1));
    if fault {
        return;
    }
    for name in engine.monitor_names() {
        if engine.watchdog_tripped(&name).unwrap() {
            engine.set_enabled(&name, true).unwrap();
        }
    }
}

/// Drives a [`history_engine`], with `telemetry` attached or not, through
/// `steps` in chunks split at `cuts`, and returns its `checkpoint_into`
/// bytes after every chunk, as text so that a failure shows the lines that
/// differ. A chunk's store writes land first; then the late spec is
/// installed once the clock passes `install_at`, [`set_fault`] applies the
/// chunk's `faults` entry, the chunk's `io`
/// firings are delivered (in one batch when `batched`, else one
/// `on_function` each), and the timers advance to its last instant.
fn checkpoints(
    steps: &[Step],
    cuts: &[usize],
    faults: &[bool],
    install_at: Nanos,
    telemetry: bool,
    batched: bool,
) -> Vec<String> {
    let mut engine = history_engine();
    if telemetry {
        engine.set_telemetry(Telemetry::new());
    }
    let store = engine.store();
    let mut boundaries: Vec<usize> = cuts.iter().map(|&c| c % (steps.len() + 1)).collect();
    boundaries.push(steps.len());
    boundaries.sort_unstable();
    boundaries.dedup();
    let (mut begin, mut now, mut beats) = (0, Nanos::ZERO, 0.0);
    let mut late_installed = false;
    let mut out = Vec::new();
    for (&end, &fault) in boundaries.iter().zip(faults.iter().cycle()) {
        let mut times = Vec::new();
        for s in &steps[begin..end] {
            now += Nanos::from_millis(s.dt_ms);
            if s.beat {
                beats += 1.0;
                store.save("beats", beats);
            }
            store.record("lat", now, s.lat);
            store.save("qdepth", s.qdepth);
            times.push(now);
        }
        begin = end;
        if !late_installed && now >= install_at {
            engine.advance_to(install_at);
            install_late_spec(&mut engine);
            late_installed = true;
        }
        set_fault(&mut engine, fault);
        let events: Vec<FnEvent<'_>> = times
            .iter()
            .map(|&now| FnEvent { now, args: &[] })
            .collect();
        if batched {
            engine.on_function_batch("io", &events);
        } else {
            for event in &events {
                engine.on_function("io", event.now, event.args);
            }
        }
        engine.advance_to(now);
        let mut buf = Vec::new();
        engine.checkpoint_into(&mut buf);
        out.push(String::from_utf8(buf).expect("a checkpoint is text"));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn observation_and_delivery_change_no_checkpoint_byte(
        steps in steps(),
        cuts in vec(0usize..81, 0..8),
        faults in vec(any::<bool>(), 1..9),
        install_ms in 1u64..250,
    ) {
        let install_at = Nanos::from_millis(install_ms);
        let run = |telemetry, batched| {
            checkpoints(&steps, &cuts, &faults, install_at, telemetry, batched)
        };
        let reference = run(false, true);
        prop_assert_eq!(&run(false, true), &reference, "a repeat of one setting");
        prop_assert_eq!(&run(true, true), &reference, "telemetry attached");
        prop_assert_eq!(&run(false, false), &reference, "sequential delivery");
        prop_assert_eq!(&run(true, false), &reference, "both");
    }

    #[test]
    fn checkpoint_into_writes_the_encoded_checkpoint(
        steps in steps(),
        faults in vec(any::<bool>(), 80),
        install_ms in 1u64..250,
    ) {
        let mut engine = history_engine();
        let install_at = Nanos::from_millis(install_ms);
        let mut now = Nanos::ZERO;
        let mut beats = 0.0;
        let mut late_installed = false;
        // One buffer for the whole run, as a checkpointing host keeps it.
        let mut buf = Vec::new();
        for (s, &fault) in steps.iter().zip(&faults) {
            now += Nanos::from_millis(s.dt_ms);
            if !late_installed && now >= install_at {
                engine.advance_to(install_at);
                install_late_spec(&mut engine);
                late_installed = true;
            }
            // A starved fuel budget faults every rule: the watchdog trips
            // monitors, and lifting it re-enables them.
            set_fault(&mut engine, fault);
            step(&mut engine, s, now, &mut beats);
            engine.checkpoint_into(&mut buf);
            let expected = engine.checkpoint().encode();
            prop_assert_eq!(&buf, &expected);
        }
        prop_assert!(EngineCheckpoint::decode(&buf).is_ok());
    }

    #[test]
    fn a_restored_engine_matches_an_uninterrupted_one(
        steps in steps(),
        install_ms in 1u64..250,
        restart in 0usize..80,
    ) {
        let install_at = Nanos::from_millis(install_ms);
        let restart_after = restart % steps.len();
        let (uninterrupted, _) = run(&steps, install_at, None);
        let (restored, restarted_at) = run(&steps, install_at, Some(restart_after));
        let since = restarted_at.expect("the run restarted");
        prop_assert_eq!(observe(&restored, since), observe(&uninterrupted, since));
        let stale = |e: &MonitorEngine| e.store().aggregate(
            guardrails::spec::ast::AggKind::Count,
            "stale",
            Nanos::from_secs(1_000),
            e.now(),
        );
        prop_assert_eq!(stale(&restored), stale(&uninterrupted));
    }
}
