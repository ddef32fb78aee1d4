//! Property and invariant tests for the telemetry layer: log-histogram
//! bucket monotonicity and the reserved `__telemetry/` namespace's
//! durability contract — observations are process-lifetime state and must
//! never be journaled, snapshotted, or replayed back into user state.

use std::sync::Arc;

use guardrails::store::durable::{
    DurabilityConfig, DurableStore, MemBackend, PersistBackend, Region,
};
use guardrails::store::snapshot::Snapshot;
use guardrails::store::wal::{encode_frame, WalRecord};
use guardrails::telemetry::{is_reserved, LogHistogram, Telemetry};
use guardrails::{MonitorEngine, PolicyRegistry};
use proptest::collection::vec;
use proptest::prelude::*;
use simkernel::Nanos;

// ---------------------------------------------------------------------------
// Log-scale histogram.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The bucket index is monotone in the sample value — the property the
    /// quantile estimator relies on to binary-search-by-scan. (Shifting by
    /// a generated amount spreads samples across all 64 magnitudes.)
    #[test]
    fn histogram_bucket_index_is_monotone(
        a in 0u64..1 << 16,
        b in 0u64..1 << 16,
        shift in 0u32..48,
    ) {
        let (a, b) = (a << shift, b << shift);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(LogHistogram::bucket_index(lo) <= LogHistogram::bucket_index(hi));
    }

    /// Every sample is bounded above by its bucket's upper bound and lies
    /// strictly above the previous bucket's upper bound: buckets partition
    /// the `u64` line with no gaps and no overlaps.
    #[test]
    fn histogram_buckets_partition_the_value_line(
        raw in 0u64..1 << 16,
        shift in 0u32..48,
    ) {
        let value = raw << shift;
        let index = LogHistogram::bucket_index(value);
        prop_assert!(value <= LogHistogram::bucket_upper_bound(index));
        if index > 0 {
            prop_assert!(value > LogHistogram::bucket_upper_bound(index - 1));
        }
    }

    /// Quantiles are monotone in `q`, bound the extremes, and never lose a
    /// sample: count and sum reproduce the inputs exactly.
    #[test]
    fn histogram_quantiles_are_monotone_and_bounding(
        samples in vec(0u64..1 << 40, 1..64),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let hist = LogHistogram::new();
        for &s in &samples {
            hist.observe(s);
        }
        prop_assert_eq!(hist.count(), samples.len() as u64);
        prop_assert_eq!(hist.sum(), samples.iter().sum::<u64>());
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(hist.quantile(lo) <= hist.quantile(hi));
        let max = *samples.iter().max().unwrap();
        let min = *samples.iter().min().unwrap();
        // The top quantile's bucket bound dominates every sample; the
        // bottom quantile cannot exceed the smallest sample's bucket bound.
        prop_assert!(hist.quantile(1.0) >= max);
        prop_assert!(
            hist.quantile(0.0) <= LogHistogram::bucket_upper_bound(
                LogHistogram::bucket_index(min)
            )
        );
    }
}

/// The extreme magnitudes the range strategies above cannot reach.
#[test]
fn histogram_bucket_edges_at_u64_extremes() {
    assert_eq!(LogHistogram::bucket_index(0), 0);
    assert_eq!(LogHistogram::bucket_index(u64::MAX), 64);
    assert_eq!(LogHistogram::bucket_index(1u64 << 63), 64);
    assert_eq!(LogHistogram::bucket_index((1u64 << 63) - 1), 63);
    assert_eq!(LogHistogram::bucket_upper_bound(64), u64::MAX);
    assert!(u64::MAX > LogHistogram::bucket_upper_bound(63));
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

/// A full `publish_telemetry` burst — every key the engine publishes:
/// registry metrics, the accounts' sums, the store's write count and the
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
