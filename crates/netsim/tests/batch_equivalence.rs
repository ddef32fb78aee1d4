//! Property test: batched ingestion of ACK events is *observationally
//! identical* to sequential ingestion — the engine-level property from
//! `crates/core/tests/batch_equivalence.rs`, instantiated with netsim's
//! domain vocabulary (RTT samples, the P2 flip-rate stability signal) and
//! extended to the overhead accounts: the engine's summed
//! [`OverheadAccount`] must also match bit-for-bit, for any event history
//! and any chunking of it into batches, with telemetry attached.

use std::sync::Arc;

use guardrails::monitor::engine::{FnEvent, MonitorEngine};
use guardrails::monitor::OverheadAccount;
use guardrails::{PolicyRegistry, Telemetry};
use proptest::collection::vec;
use proptest::prelude::*;
use simkernel::Nanos;

/// Two monitors on the hot hook — one driven by the RTT argument, one by
/// the flip-rate signal the simulator publishes — plus a bystander on the
/// drop hook so dispatch misses are exercised.
const SPECS: &str = r#"
guardrail rtt-ceiling {
    trigger: { FUNCTION(ack_received) },
    rule: { ARG(0) <= 50000 },
    action: { SAVE(net.last_slow_rtt, ARG(0)) RECORD(net.rtt_spikes, 1) }
}
guardrail cc-stability {
    trigger: { FUNCTION(ack_received) },
    rule: { LOAD(cc.flip_rate) <= 0.3 },
    action: { RECORD(cc.flip_violations, 1) }
}
guardrail bystander {
    trigger: { FUNCTION(pkt_dropped) },
    rule: { ARG(0) < 1 },
    action: { RECORD(net.drop_hits, 1) }
}
"#;

fn fresh_engine() -> MonitorEngine {
    let registry = Arc::new(PolicyRegistry::new());
    let mut engine = MonitorEngine::with_parts(Arc::new(guardrails::FeatureStore::new()), registry);
    engine.set_telemetry(Telemetry::new());
    engine.install_str(SPECS).unwrap();
    engine
}

/// One generated ACK: a time step, the measured RTT in microseconds, and
/// the flip rate written to the store just before ingestion (so the P2
/// rule sees evolving state).
#[derive(Clone, Debug)]
struct Ack {
    dt_us: u64,
    rtt_us: f64,
    flip_rate: f64,
}

fn acks() -> impl Strategy<Value = Vec<Ack>> {
    vec(
        (1u64..500, 0.0f64..100_000.0, 0.0f64..1.0).prop_map(|(dt_us, rtt_us, flip_rate)| Ack {
            dt_us,
            rtt_us,
            flip_rate,
        }),
        0..60,
    )
}

/// Everything observable about a run, the summed accounts included.
#[derive(Debug, PartialEq)]
struct Observable {
    violations: Vec<guardrails::monitor::Violation>,
    scalars: Vec<(String, f64)>,
    account: OverheadAccount,
}

fn observe(engine: &MonitorEngine) -> Observable {
    let mut scalars = engine.store().scalars();
    scalars.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    Observable {
        violations: engine.violations(),
        scalars,
        account: engine.telemetry_snapshot(),
    }
}

/// Drives `engine` through `acks` in batches split at `cuts`, store writes
/// applied chunk-first (the ring-buffer-drain convention from the core
/// test).
fn run_batched(engine: &mut MonitorEngine, acks: &[Ack], cuts: &[usize]) {
    let store = engine.store();
    let mut now = Nanos::ZERO;
    let mut begin = 0usize;
    let mut boundaries: Vec<usize> = cuts.iter().map(|&c| c % (acks.len() + 1)).collect();
    boundaries.push(acks.len());
    boundaries.sort_unstable();
    for &end in &boundaries {
        if end <= begin {
            continue;
        }
        let chunk = &acks[begin..end];
        let mut times = Vec::with_capacity(chunk.len());
        for ack in chunk {
            now += Nanos::from_micros(ack.dt_us);
            store.save("cc.flip_rate", ack.flip_rate);
            times.push(now);
        }
        let args: Vec<[f64; 1]> = chunk.iter().map(|a| [a.rtt_us]).collect();
        let events: Vec<FnEvent<'_>> = times
            .iter()
            .zip(&args)
            .map(|(&t, a)| FnEvent { now: t, args: a })
            .collect();
        engine.on_function_batch("ack_received", &events);
        begin = end;
    }
}

/// Sequential run with the same chunk-first store-write convention, so both
/// runs observe identical inputs.
fn run_sequential_chunked(engine: &mut MonitorEngine, acks: &[Ack], cuts: &[usize]) {
    let store = engine.store();
    let mut now = Nanos::ZERO;
    let mut begin = 0usize;
    let mut boundaries: Vec<usize> = cuts.iter().map(|&c| c % (acks.len() + 1)).collect();
    boundaries.push(acks.len());
    boundaries.sort_unstable();
    for &end in &boundaries {
        if end <= begin {
            continue;
        }
        let chunk = &acks[begin..end];
        let mut times = Vec::with_capacity(chunk.len());
        for ack in chunk {
            now += Nanos::from_micros(ack.dt_us);
            store.save("cc.flip_rate", ack.flip_rate);
            times.push(now);
        }
        for (ack, &t) in chunk.iter().zip(&times) {
            engine.on_function("ack_received", t, &[ack.rtt_us]);
        }
        begin = end;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batch_ingestion_is_observationally_identical_to_sequential(
        acks in acks(),
        cuts in vec(0usize..61, 0..6),
    ) {
        let mut sequential = fresh_engine();
        let mut batched = fresh_engine();
        run_sequential_chunked(&mut sequential, &acks, &cuts);
        run_batched(&mut batched, &acks, &cuts);
        prop_assert_eq!(observe(&sequential), observe(&batched));
        prop_assert_eq!(
            sequential.drain_commands(),
            batched.drain_commands(),
            "deferred commands must match"
        );
    }

    #[test]
    fn single_event_batches_match_plain_on_function(acks in acks()) {
        // Degenerate chunking: every batch holds exactly one event — the
        // contract `on_function` itself relies on.
        let mut sequential = fresh_engine();
        let mut batched = fresh_engine();
        let cuts: Vec<usize> = (0..=acks.len()).collect();
        run_sequential_chunked(&mut sequential, &acks, &cuts);
        run_batched(&mut batched, &acks, &cuts);
        prop_assert_eq!(observe(&sequential), observe(&batched));
    }
}
