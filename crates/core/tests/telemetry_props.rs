//! Tests for the telemetry layer: the wall-time histogram takes one sample
//! per timed section in which a monitor evaluated, and the reserved `__telemetry/` namespace's
//! durability contract holds — observations are process-lifetime state and
//! must never be journaled, snapshotted, or replayed back into user state.

use std::sync::Arc;

use guardrails::monitor::engine::FnEvent;
use guardrails::store::durable::{
    DurabilityConfig, DurableStore, MemBackend, PersistBackend, Region,
};
use guardrails::store::snapshot::Snapshot;
use guardrails::store::wal::{encode_frame, WalRecord};
use guardrails::telemetry::{is_reserved, Telemetry};
use guardrails::{MonitorEngine, PolicyRegistry};
use simkernel::Nanos;

// ---------------------------------------------------------------------------
// Wall time: one histogram sample per timed section in which a monitor
// evaluated; `stats()` and the published `eval_wall_ns` read its sum.
// ---------------------------------------------------------------------------

/// Publishes `engine`'s telemetry and returns the published
/// `(eval_wall_ns_hist/count, eval_wall_ns_hist/sum)`, after checking that
/// the published `eval_wall_ns` and `stats().eval_wall_ns` are that sum.
fn published_wall(engine: &MonitorEngine) -> (f64, f64) {
    engine.publish_telemetry();
    let load = |key: &str| {
        engine
            .store()
            .load(&format!("__telemetry/engine/{key}"))
            .unwrap_or_else(|| panic!("{key} was published"))
    };
    let sum = load("eval_wall_ns_hist/sum");
    assert_eq!(load("eval_wall_ns"), sum);
    assert_eq!(engine.stats().eval_wall_ns as f64, sum);
    (load("eval_wall_ns_hist/count"), sum)
}

/// Events delivered only to a disabled monitor evaluate nothing, so they
/// add no histogram sample.
#[test]
fn batches_to_disabled_monitors_add_no_wall_sample() {
    let mut engine = MonitorEngine::new();
    engine.set_telemetry(Telemetry::new());
    engine
        .install_str(
            "guardrail g { trigger: { FUNCTION(io_submit) }, rule: { ARG(0) < 4096 }, action: { RECORD(big, 1) } }",
        )
        .expect("spec installs");
    engine.on_function("io_submit", Nanos::from_micros(1), &[512.0]);
    engine.set_enabled("g", false).unwrap();
    for i in 2..1_002 {
        engine.on_function("io_submit", Nanos::from_micros(i), &[512.0]);
    }
    assert_eq!(engine.stats().evaluations, 1);
    let (count, _) = published_wall(&engine);
    assert_eq!(count, 1.0, "only the batch that evaluated is a sample");
}

/// One `advance_to` that runs several ticks of two timer monitors is one
/// timed section: one histogram sample.
#[test]
fn one_advance_over_many_ticks_is_one_wall_sample() {
    let mut engine = MonitorEngine::new();
    engine.set_telemetry(Telemetry::new());
    engine
        .install_str(
            "guardrail fast { trigger: { TIMER(0, 100ms) }, rule: { LOAD(x) < 1 }, action: { SAVE(y, 1) } }
             guardrail slow { trigger: { TIMER(50ms, 300ms) }, rule: { LOAD(x) > 1 }, action: { RECORD(z, 1) } }",
        )
        .expect("specs install");
    engine.advance_to(Nanos::from_secs(1));
    let reports = engine.overhead_reports();
    assert_eq!(reports[0].account.evaluations, 11, "0, 100, ..., 1000 ms");
    assert_eq!(reports[1].account.evaluations, 4, "50, 350, 650, 950 ms");
    let (count, sum) = published_wall(&engine);
    assert_eq!(count, 1.0, "one sample for the call's fifteen ticks");
    // A call in which no tick is due adds nothing.
    engine.advance_to(Nanos::from_millis(1_050));
    assert_eq!(published_wall(&engine), (count, sum));
}

/// Publishing writes the batch counts under their fixed names, and
/// publishing again overwrites them in place.
#[test]
fn publish_writes_reserved_keys() {
    let mut engine = MonitorEngine::new();
    engine.set_telemetry(Telemetry::new());
    engine
        .install_str(
            "guardrail g { trigger: { FUNCTION(io_submit) }, rule: { ARG(0) < 4096 }, action: { RECORD(big, 1) } }",
        )
        .expect("spec installs");
    let deliver = |engine: &mut MonitorEngine, first: u64, len: u64| {
        let events: Vec<FnEvent<'_>> = (first..first + len)
            .map(|i| FnEvent {
                now: Nanos::from_micros(i),
                args: &[512.0],
            })
            .collect();
        engine.on_function_batch("io_submit", &events);
    };
    // Seven batches of 1..=7 events: 28 in all. A hook nothing subscribes
    // to counts neither.
    for len in 1..=7 {
        deliver(&mut engine, len * 10, len);
    }
    engine.on_function("unsubscribed", Nanos::from_micros(100), &[512.0]);
    let load = |engine: &MonitorEngine, key: &str| {
        engine.store().load(&format!("__telemetry/engine/{key}"))
    };
    engine.publish_telemetry();
    assert_eq!(load(&engine, "batches"), Some(7.0));
    assert_eq!(load(&engine, "batch_events"), Some(28.0));
    assert_eq!(load(&engine, "eval_wall_ns_hist/count"), Some(7.0));
    assert_eq!(load(&engine, "evaluations"), Some(28.0));

    deliver(&mut engine, 200, 3);
    engine.publish_telemetry();
    assert_eq!(load(&engine, "batches"), Some(8.0));
    assert_eq!(load(&engine, "batch_events"), Some(31.0));
    assert_eq!(load(&engine, "eval_wall_ns_hist/count"), Some(8.0));
}

// ---------------------------------------------------------------------------
// Reserved-namespace durability contract.
// ---------------------------------------------------------------------------

fn open_mem(backend: &Arc<MemBackend>) -> DurableStore {
    let (durable, report) = DurableStore::open(
        Arc::clone(backend) as Arc<dyn PersistBackend>,
        DurabilityConfig::default(),
    )
    .expect("open mem backend");
    assert!(!report.tainted());
    durable
}

/// Reserved saves are accepted into the store but never reach the
/// write-ahead journal: the WAL stays byte-identical and the sequence
/// number does not advance.
#[test]
fn reserved_saves_never_grow_the_wal() {
    let backend = Arc::new(MemBackend::new());
    let durable = open_mem(&backend);
    let store = durable.store();

    store.save("user_key", 1.0);
    let wal_after_user = backend.wal_len();
    let seq_after_user = durable.seq();
    assert!(wal_after_user > 0, "user writes are journaled");

    for i in 0..100 {
        store.save("__telemetry/engine/evaluations", i as f64);
    }
    assert_eq!(
        backend.wal_len(),
        wal_after_user,
        "reserved writes skip the WAL"
    );
    assert_eq!(durable.seq(), seq_after_user, "no WAL sequence consumed");
    assert_eq!(
        store.load("__telemetry/engine/evaluations"),
        Some(99.0),
        "the store itself still serves the observation"
    );
}

/// A full `publish_telemetry` burst — every key the engine publishes: the
/// telemetry's own figures, the accounts' sums, the store's write count and the
/// per-guardrail accounts — journals nothing, and compaction plus reopen
/// leaves no telemetry residue in durable state.
#[test]
fn published_telemetry_does_not_survive_compact_and_reopen() {
    let backend = Arc::new(MemBackend::new());
    {
        let durable = open_mem(&backend);
        let store = durable.store();
        store.save("user_key", 7.0);
        let mut engine =
            MonitorEngine::with_parts(Arc::clone(&store), Arc::new(PolicyRegistry::new()));
        engine.set_telemetry(Telemetry::new());
        engine
            .install_str(
                "guardrail g { trigger: { TIMER(0, 1s) }, rule: { LOAD(user_key) < 5 }, action: { SAVE(fired, 1) } }",
            )
            .expect("spec installs");
        engine.advance_to(Nanos::from_secs(3));
        assert_eq!(engine.stats().evaluations, 4);
        let wal_before = backend.wal_len();

        engine.publish_telemetry();
        assert_eq!(backend.wal_len(), wal_before, "publishing journals nothing");
        for key in [
            "__telemetry/engine/evaluations",
            "__telemetry/engine/batches",
            "__telemetry/actions/save",
            "__telemetry/store/saves",
            "__telemetry/guardrail/g/overhead_fraction",
        ] {
            assert!(store.load(key).is_some(), "{key} was published");
        }
        assert_eq!(store.load("__telemetry/engine/evaluations"), Some(4.0));

        durable.compact().expect("compact");
    }
    let reopened = open_mem(&backend);
    let scalars = reopened.store().scalars();
    assert!(
        scalars.iter().all(|(k, _)| !is_reserved(k)),
        "telemetry resurrected through the snapshot: {scalars:?}"
    );
    assert_eq!(reopened.store().load("user_key"), Some(7.0));
    assert_eq!(reopened.store().load("fired"), Some(1.0));
}

/// A legacy WAL carrying a reserved-key record (written before the
/// namespace was reserved) replays the user records but refuses to
/// resurrect the observation, and says so in the recovery report.
#[test]
fn legacy_wal_records_with_reserved_keys_are_not_replayed() {
    let backend = Arc::new(MemBackend::new());
    let mut wal = Vec::new();
    wal.extend_from_slice(&encode_frame(&WalRecord {
        seq: 1,
        key: "user_key".to_string(),
        value: 3.0,
    }));
    wal.extend_from_slice(&encode_frame(&WalRecord {
        seq: 2,
        key: "__telemetry/engine/evaluations".to_string(),
        value: 1e6,
    }));
    wal.extend_from_slice(&encode_frame(&WalRecord {
        seq: 3,
        key: "other_key".to_string(),
        value: 4.0,
    }));
    (Arc::clone(&backend) as Arc<dyn PersistBackend>)
        .append(Region::Wal, &wal)
        .expect("seed legacy wal");

    let (durable, report) = DurableStore::open(
        Arc::clone(&backend) as Arc<dyn PersistBackend>,
        DurabilityConfig::default(),
    )
    .expect("open over legacy wal");
    assert_eq!(report.wal_records_applied, 2);
    assert_eq!(report.wal_records_reserved, 1);
    assert!(!report.tainted());
    let store = durable.store();
    assert_eq!(store.load("user_key"), Some(3.0));
    assert_eq!(store.load("other_key"), Some(4.0));
    assert_eq!(
        store.load("__telemetry/engine/evaluations"),
        None,
        "observations must not resurrect as user state"
    );
    // The skipped record still advances the sequence floor: new writes must
    // not reuse seq 2.
    assert_eq!(durable.seq(), 3);
}

/// A legacy snapshot carrying reserved entries likewise drops them on
/// replay while applying the user entries around them.
#[test]
fn legacy_snapshots_with_reserved_entries_are_filtered() {
    let backend = Arc::new(MemBackend::new());
    let snapshot = Snapshot {
        seq: 5,
        entries: vec![
            ("user_key".to_string(), 1.5),
            ("__telemetry/trace/recorded".to_string(), 512.0),
            ("other_key".to_string(), 2.5),
        ],
    };
    (Arc::clone(&backend) as Arc<dyn PersistBackend>)
        .replace(Region::Snapshot, &snapshot.encode())
        .expect("seed legacy snapshot");

    let (durable, report) = DurableStore::open(
        Arc::clone(&backend) as Arc<dyn PersistBackend>,
        DurabilityConfig::default(),
    )
    .expect("open over legacy snapshot");
    assert_eq!(report.snapshot_seq, 5);
    assert_eq!(report.snapshot_entries, 3, "raw entry count is reported");
    assert!(!report.tainted());
    let store = durable.store();
    assert_eq!(store.load("user_key"), Some(1.5));
    assert_eq!(store.load("other_key"), Some(2.5));
    assert_eq!(store.load("__telemetry/trace/recorded"), None);
}

/// `is_reserved` matches exactly the strings under the prefix — the cheap
/// first-byte guard must not reject real reserved keys or admit impostors.
#[test]
fn is_reserved_matches_exactly_the_prefix() {
    assert!(is_reserved("__telemetry/engine/evaluations"));
    assert!(is_reserved("__telemetry/"));
    assert!(!is_reserved("__telemetry")); // no trailing slash: a user key
    assert!(!is_reserved("telemetry/engine"));
    assert!(!is_reserved("_telemetry/engine"));
    assert!(!is_reserved(""));
    assert!(!is_reserved("user__telemetry/"));
}
