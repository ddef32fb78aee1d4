//! Property test: the engine's batched ingestion path is *observationally
//! identical* to the sequential path. `on_function_batch(hook, events)`
//! must produce the same decision stream, the same store state, the same
//! deferred commands, and the same overhead accounts as N sequential
//! `on_function` calls — for any event history and any chunking of it into
//! batches, including a checkpoint/restore in the middle.
//!
//! Measured wall time lives only in the attached telemetry, never in an
//! account, so everything a decision, a report, or a replay can observe is
//! bit-identical.
//!
//! Each property also checks that the engine-wide figures are sums of the
//! per-monitor accounts: on an engine that was never restored,
//! `telemetry_snapshot()` and `stats()` equal the accounts' sum.
//!
//! The engine handles a violation and a rule fault out of line from its
//! per-evaluation path, so one property also generates N-of-M hysteresis
//! with a cooldown and a rule fuel limit that some evaluations exceed,
//! under the fail-closed watchdog.

use std::sync::Arc;

use guardrails::monitor::engine::{FnEvent, MonitorEngine};
use guardrails::monitor::{EngineCheckpoint, Hysteresis, OverheadAccount, ResilienceConfig};
use guardrails::{PolicyRegistry, Telemetry};
use proptest::collection::vec;
use proptest::prelude::*;
use simkernel::Nanos;

/// Three monitors on the hot hook (one argument-driven, one store-driven,
/// with actions that feed back into the store, and one whose `DELTA` state
/// must carry across a restore) plus a bystander on another hook, so
/// dispatch-index lookups are exercised with misses.
const SPECS: &str = r#"
guardrail io-bound {
    trigger: { FUNCTION(io_submit) },
    rule: { ARG(0) <= 4096 },
    action: { SAVE(io_size, ARG(0)) RECORD(oversized, 1) }
}
guardrail queue-sane {
    trigger: { FUNCTION(io_submit) },
    rule: { LOAD(qdepth) < 32 },
    action: { RECORD(qdepth_violations, 1) }
}
guardrail qdepth-jump {
    trigger: { FUNCTION(io_submit) },
    rule: { DELTA(qdepth) < 16 },
    action: { RECORD(qdepth_jumps, 1) }
}
guardrail bystander {
    trigger: { FUNCTION(other_hook) },
    rule: { ARG(0) < 1 },
    action: { RECORD(bystander_hits, 1) }
}
"#;

fn fresh_engine() -> MonitorEngine {
    let registry = Arc::new(PolicyRegistry::new());
    let mut engine = MonitorEngine::with_parts(Arc::new(guardrails::FeatureStore::new()), registry);
    engine.set_telemetry(Telemetry::new());
    engine.install_str(SPECS).unwrap();
    engine
}

/// A monitor whose rule is several instructions and short-circuits: an
/// evaluation with a small argument stops after the first comparison,
/// others also read the store, so a rule fuel limit between the two costs
/// faults only some evaluations.
const FUEL_HUNGRY: &str = r#"
guardrail fuel-hungry {
    trigger: { FUNCTION(io_submit) },
    rule: { ARG(0) < 2000 || LOAD(qdepth) < 16 && ARG(0) < 8000 },
    action: { RECORD(hungry_args, ARG(0)) }
}
"#;

/// The engine configuration the violation and fault paths run under.
#[derive(Clone, Debug)]
struct Resilient {
    /// Set on `io-bound` and `fuel-hungry`.
    hysteresis: Hysteresis,
    rule_fuel_limit: u64,
}

fn resilient() -> impl Strategy<Value = Resilient> {
    ((1u32..4, 0u32..4, 0u64..3_000), 3u64..20).prop_map(
        |((threshold, extra, cooldown_us), rule_fuel_limit)| Resilient {
            hysteresis: Hysteresis {
                trip_threshold: threshold,
                window: threshold + extra,
                cooldown: Nanos::from_micros(cooldown_us),
            },
            rule_fuel_limit,
        },
    )
}

/// [`fresh_engine`] plus [`FUEL_HUNGRY`], configured by `config`, with the
/// watchdog on.
fn resilient_engine(config: &Resilient) -> MonitorEngine {
    let mut engine = fresh_engine();
    engine.install_str(FUEL_HUNGRY).unwrap();
    for name in ["io-bound", "fuel-hungry"] {
        engine.set_hysteresis(name, config.hysteresis).unwrap();
    }
    engine.set_rule_fuel_limit(Some(config.rule_fuel_limit));
    engine.set_resilience(ResilienceConfig {
        watchdog: true,
        ..ResilienceConfig::default()
    });
    engine
}

/// One generated event: a time step, the hook argument, and a store write
/// performed just before ingestion (so the store-driven rule sees evolving
/// state).
#[derive(Clone, Debug)]
struct Step {
    dt_us: u64,
    arg: f64,
    qdepth: f64,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    vec(
        (1u64..500, 0.0f64..10_000.0, 0.0f64..64.0).prop_map(|(dt_us, arg, qdepth)| Step {
            dt_us,
            arg,
            qdepth,
        }),
        0..60,
    )
}

/// Everything observable about an engine run.
#[derive(Debug, PartialEq)]
struct Observable {
    violations: Vec<guardrails::monitor::Violation>,
    /// The decision stream's JSON-lines export.
    stream: String,
    scalars: Vec<(String, f64)>,
    /// The summed overhead accounts.
    account: OverheadAccount,
}

fn observe(engine: &MonitorEngine) -> Observable {
    let mut scalars = engine.store().scalars();
    scalars.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    Observable {
        violations: engine.violations(),
        stream: engine.events().export_json_lines(),
        scalars,
        account: engine.telemetry_snapshot(),
    }
}

/// Checks that `engine` (never restored) reports the sum of its monitors'
/// accounts as its telemetry snapshot and its stats.
fn check_counts_are_account_sums(engine: &MonitorEngine) {
    let mut sum = OverheadAccount::default();
    for report in engine.overhead_reports() {
        sum.merge(&report.account);
    }
    prop_assert_eq!(engine.telemetry_snapshot(), sum);
    let stats = engine.stats();
    prop_assert_eq!(
        [
            stats.evaluations,
            stats.violations,
            stats.trips,
            stats.commands_emitted,
            stats.rule_faults,
            stats.watchdog_trips,
            stats.retrain_retries,
        ],
        [
            sum.evaluations,
            sum.violations,
            sum.trips,
            sum.commands_emitted,
            sum.rule_faults,
            sum.watchdog_trips,
            sum.retrain_retries,
        ]
    );
}

/// Drives `engine` through `steps` sequentially: one `on_function` per event.
fn run_sequential(engine: &mut MonitorEngine, steps: &[Step], start: Nanos) -> Nanos {
    let store = engine.store();
    let mut now = start;
    for step in steps {
        now += Nanos::from_micros(step.dt_us);
        store.save("qdepth", step.qdepth);
        engine.on_function("io_submit", now, &[step.arg]);
    }
    now
}

/// Drives `engine` through `steps` in batches split at `cuts`. Store writes
/// still happen per event *before* the batch containing it is ingested —
/// batching only makes sense for events whose inputs are already in place,
/// so each batch's store writes are applied first, exactly as a subsystem
/// draining a ring buffer would.
fn run_batched(engine: &mut MonitorEngine, steps: &[Step], cuts: &[usize], start: Nanos) -> Nanos {
    let store = engine.store();
    let mut now = start;
    let mut begin = 0usize;
    let mut boundaries: Vec<usize> = cuts.iter().map(|&c| c % (steps.len() + 1)).collect();
    boundaries.push(steps.len());
    boundaries.sort_unstable();
    for &end in &boundaries {
        if end <= begin {
            continue;
        }
        let chunk = &steps[begin..end];
        // Store writes for the chunk land first; within a chunk the
        // store-driven rule therefore sees the *last* write, which is why
        // the sequential run below applies the same convention.
        let mut times = Vec::with_capacity(chunk.len());
        for step in chunk {
            now += Nanos::from_micros(step.dt_us);
            store.save("qdepth", step.qdepth);
            times.push(now);
        }
        let args: Vec<[f64; 1]> = chunk.iter().map(|s| [s.arg]).collect();
        let events: Vec<FnEvent<'_>> = times
            .iter()
            .zip(&args)
            .map(|(&t, a)| FnEvent { now: t, args: a })
            .collect();
        engine.on_function_batch("io_submit", &events);
        begin = end;
    }
    now
}

/// Sequential run, but with store writes applied chunk-first so it observes
/// the same store states as the batched run (the equivalence contract is
/// "same inputs, same outputs", not "batching reorders your writes").
fn run_sequential_chunked(
    engine: &mut MonitorEngine,
    steps: &[Step],
    cuts: &[usize],
    start: Nanos,
) -> Nanos {
    let store = engine.store();
    let mut now = start;
    let mut begin = 0usize;
    let mut boundaries: Vec<usize> = cuts.iter().map(|&c| c % (steps.len() + 1)).collect();
    boundaries.push(steps.len());
    boundaries.sort_unstable();
    for &end in &boundaries {
        if end <= begin {
            continue;
        }
        let chunk = &steps[begin..end];
        let mut times = Vec::with_capacity(chunk.len());
        for step in chunk {
            now += Nanos::from_micros(step.dt_us);
            store.save("qdepth", step.qdepth);
            times.push(now);
        }
        for (step, &t) in chunk.iter().zip(&times) {
            engine.on_function("io_submit", t, &[step.arg]);
        }
        begin = end;
    }
    now
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batch_ingestion_is_observationally_identical_to_sequential(
        steps in steps(),
        cuts in vec(0usize..61, 0..6),
    ) {
        let mut sequential = fresh_engine();
        let mut batched = fresh_engine();
        run_sequential_chunked(&mut sequential, &steps, &cuts, Nanos::ZERO);
        run_batched(&mut batched, &steps, &cuts, Nanos::ZERO);
        prop_assert_eq!(observe(&sequential), observe(&batched));
        prop_assert_eq!(
            sequential.drain_commands(),
            batched.drain_commands(),
            "deferred commands must match"
        );
        check_counts_are_account_sums(&sequential);
        check_counts_are_account_sums(&batched);
    }

    #[test]
    fn batch_equivalence_holds_through_hysteresis_and_faults(
        config in resilient(),
        steps in steps(),
        cuts in vec(0usize..61, 0..6),
    ) {
        let mut sequential = resilient_engine(&config);
        let mut batched = resilient_engine(&config);
        run_sequential_chunked(&mut sequential, &steps, &cuts, Nanos::ZERO);
        run_batched(&mut batched, &steps, &cuts, Nanos::ZERO);
        prop_assert_eq!(observe(&sequential), observe(&batched));
        prop_assert_eq!(
            sequential.drain_commands(),
            batched.drain_commands(),
            "deferred commands must match"
        );
        for name in ["io-bound", "fuel-hungry"] {
            prop_assert_eq!(sequential.suppressed(name), batched.suppressed(name));
            prop_assert_eq!(sequential.watchdog_tripped(name), batched.watchdog_tripped(name));
        }
        check_counts_are_account_sums(&sequential);
        check_counts_are_account_sums(&batched);
    }

    #[test]
    fn single_event_batches_match_plain_on_function(steps in steps()) {
        // Degenerate chunking: every batch holds exactly one event. This is
        // the contract `on_function` itself relies on (it delegates to the
        // batch path).
        let mut sequential = fresh_engine();
        let mut batched = fresh_engine();
        let cuts: Vec<usize> = (0..=steps.len()).collect();
        run_sequential(&mut sequential, &steps, Nanos::ZERO);
        run_batched(&mut batched, &steps, &cuts, Nanos::ZERO);
        prop_assert_eq!(observe(&sequential), observe(&batched));
        check_counts_are_account_sums(&sequential);
        check_counts_are_account_sums(&batched);
    }

    #[test]
    fn batch_equivalence_survives_checkpoint_restore(
        first in steps(),
        second in steps(),
        cuts in vec(0usize..61, 0..4),
    ) {
        // Run the first half, checkpoint the batched engine, restore the
        // decoded checkpoint into a fresh engine sharing the same store,
        // then run the second half. The restored engine must still match a
        // sequential run that never restarted.
        let mut sequential = fresh_engine();
        let mut batched = fresh_engine();
        let mid_seq = run_sequential_chunked(&mut sequential, &first, &cuts, Nanos::ZERO);
        let mid_bat = run_batched(&mut batched, &first, &cuts, Nanos::ZERO);
        prop_assert_eq!(mid_seq, mid_bat);

        let checkpoint = EngineCheckpoint::decode(&batched.checkpoint().encode()).unwrap();
        prop_assert_eq!(&checkpoint, &batched.checkpoint());
        let mut restored =
            MonitorEngine::with_parts(batched.store(), batched.registry());
        restored.install_str(SPECS).unwrap();
        restored.advance_to(checkpoint.now);
        restored.restore(&checkpoint).unwrap();

        run_sequential_chunked(&mut sequential, &second, &cuts, mid_seq);
        run_batched(&mut restored, &second, &cuts, mid_bat);

        // The decision stream does not cross a restart (it is in-memory;
        // decisions persist via the store and checkpoint), so compare store
        // state, accounts, and post-restore behaviour instead.
        let mut seq_obs = observe(&sequential);
        let mut res_obs = observe(&restored);
        // Restored log holds only post-restore violations; trim the
        // sequential log to the same window for comparison.
        let post = res_obs.violations.len();
        seq_obs.violations = seq_obs.violations.split_off(seq_obs.violations.len() - post);
        prop_assert_eq!(&seq_obs.violations, &res_obs.violations);
        seq_obs.violations.clear();
        res_obs.violations.clear();
        seq_obs.stream.clear();
        res_obs.stream.clear();
        prop_assert_eq!(seq_obs, res_obs);
        check_counts_are_account_sums(&sequential);
    }
}

/// One monitor whose every evaluation violates and `SAVE`s.
const ALWAYS_VIOLATES: &str = r#"
guardrail oversized {
    trigger: { FUNCTION(io_submit) },
    rule: { ARG(0) <= 4096 },
    action: { SAVE(io_size, ARG(0)) }
}
"#;

#[test]
fn a_history_that_overflows_the_stream_is_delivery_independent() {
    // 70 000 violations and their 70 000 SAVEs overflow the stream's ring
    // more than twice over; what it retains, and every counter, must not
    // depend on whether the events came one by one or in batches of 256.
    const EVENTS: u64 = 70_000;
    let engine = || {
        let mut engine = MonitorEngine::new();
        engine.set_telemetry(Telemetry::new());
        engine.install_str(ALWAYS_VIOLATES).unwrap();
        engine
    };
    let args: Vec<[f64; 1]> = (0..EVENTS).map(|i| [5000.0 + (i % 97) as f64]).collect();
    let events: Vec<FnEvent<'_>> = args
        .iter()
        .enumerate()
        .map(|(i, a)| FnEvent {
            now: Nanos::from_micros(i as u64 + 1),
            args: a,
        })
        .collect();
    let mut sequential = engine();
    for event in &events {
        sequential.on_function("io_submit", event.now, event.args);
    }
    let mut batched = engine();
    for batch in events.chunks(256) {
        batched.on_function_batch("io_submit", batch);
    }
    let stream = sequential.events();
    assert_eq!(stream.recorded(), 2 * EVENTS);
    assert!(stream.overwritten() > 0, "the history overflows the ring");
    assert_eq!(sequential.telemetry_snapshot().violations, EVENTS);
    let (seq, bat) = (observe(&sequential), observe(&batched));
    assert_eq!(seq.stream.lines().count(), stream.len());
    assert!(seq.stream == bat.stream, "the exported streams differ");
    assert_eq!(seq.account, bat.account);
    assert_eq!(seq, bat);
}
