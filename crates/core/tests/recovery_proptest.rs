//! Property tests for the crash-consistent store: WAL replay is idempotent
//! and matches the write history, compaction at any point recovers the same
//! state (snapshot + WAL-suffix equivalence), and a torn WAL tail recovers
//! exactly a prefix of the history. The same recovered ≡ uninterrupted
//! equivalence holds when writers go through slot handles bound before the
//! first write.

use std::collections::BTreeMap;
use std::sync::Arc;

use guardrails::store::durable::{
    DurabilityConfig, DurableStore, MemBackend, PersistBackend, RecoveryReport,
};
use guardrails::telemetry::is_reserved;
use guardrails::{FeatureStore, Slot};
use proptest::collection::vec;
use proptest::prelude::*;

const KEYS: [&str; 4] = ["false_submit_rate", "ml_enabled", "violations", "qdepth"];

fn open(backend: &Arc<MemBackend>) -> (DurableStore, RecoveryReport) {
    let b: Arc<dyn PersistBackend> = backend.clone();
    DurableStore::open(b, DurabilityConfig::default()).unwrap()
}

fn open_grouped(backend: &Arc<MemBackend>, group: usize) -> (DurableStore, RecoveryReport) {
    let b: Arc<dyn PersistBackend> = backend.clone();
    DurableStore::open(
        b,
        DurabilityConfig {
            group_commit: group,
            ..DurabilityConfig::default()
        },
    )
    .unwrap()
}

fn sorted_scalars(store: &FeatureStore) -> Vec<(String, f64)> {
    let mut scalars = store.scalars();
    scalars.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    scalars
}

/// Folds a write history into the expected final scalar state. Non-finite
/// writes are dropped (the quarantine rejects them at replay).
fn model(writes: &[(usize, f64)]) -> Vec<(String, f64)> {
    let mut state = BTreeMap::new();
    for &(k, v) in writes {
        if v.is_finite() {
            state.insert(KEYS[k].to_string(), v);
        }
    }
    state.into_iter().collect()
}

fn apply(store: &FeatureStore, writes: &[(usize, f64)]) {
    for &(k, v) in writes {
        store.save(KEYS[k], v);
    }
}

/// Keys for slot-store histories: the plain keys plus one reserved
/// telemetry key, which must never reach the journal.
const SLOT_KEYS: [&str; 5] = [
    "false_submit_rate",
    "ml_enabled",
    "violations",
    "qdepth",
    "__telemetry/engine/evaluations",
];

/// One slot-store write: `(key, value, via_slot, incr)`.
type SlotWrite = (usize, f64, bool, bool);

/// Applies a history, each write through the slot handle or by name, as
/// `SAVE` or `incr` as the write says.
fn apply_mixed(store: &FeatureStore, slots: &[Slot], writes: &[SlotWrite]) {
    for &(k, v, via_slot, incr) in writes {
        match (via_slot, incr) {
            (true, false) => store.save_slot(&slots[k], v),
            (true, true) => {
                store.incr_slot(&slots[k], v);
            }
            (false, false) => store.save(SLOT_KEYS[k], v),
            (false, true) => {
                store.incr(SLOT_KEYS[k], v);
            }
        }
    }
}

/// The durable part of an uninterrupted run of `writes`: a journal-free
/// store's scalars minus the reserved namespace.
fn uninterrupted(writes: &[SlotWrite]) -> Vec<(String, f64)> {
    let store = FeatureStore::new();
    let slots: Vec<Slot> = SLOT_KEYS.iter().map(|k| store.slot(k)).collect();
    apply_mixed(&store, &slots, writes);
    let mut scalars = sorted_scalars(&store);
    scalars.retain(|(key, _)| !is_reserved(key));
    scalars
}

fn journaled_writes(writes: &[SlotWrite]) -> u64 {
    writes
        .iter()
        .filter(|&&(k, ..)| !is_reserved(SLOT_KEYS[k]))
        .count() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn replay_matches_the_history_and_reopen_is_idempotent(
        writes in vec((0usize..KEYS.len(), -1e6f64..1e6), 0..40),
    ) {
        let backend = Arc::new(MemBackend::new());
        {
            let (durable, _) = open(&backend);
            apply(&durable.store(), &writes);
        }
        let first = {
            let (durable, report) = open(&backend);
            prop_assert!(!report.tainted());
            prop_assert_eq!(report.wal_records_applied, writes.len() as u64);
            sorted_scalars(&durable.store())
        };
        prop_assert_eq!(&first, &model(&writes));
        // A second replay of the same log reaches the same state: replay
        // mutates nothing it then depends on.
        let second = {
            let (durable, _) = open(&backend);
            sorted_scalars(&durable.store())
        };
        prop_assert_eq!(second, first);
    }

    #[test]
    fn compaction_at_any_point_recovers_the_same_state(
        writes in vec((0usize..KEYS.len(), -1e6f64..1e6), 1..40),
        cut in 0usize..40,
    ) {
        let cut = cut % (writes.len() + 1);
        // Run A: the whole history lives in the WAL.
        let plain = Arc::new(MemBackend::new());
        {
            let (durable, _) = open(&plain);
            apply(&durable.store(), &writes);
        }
        // Run B: same history, but compacted after `cut` writes — the state
        // is split between the snapshot and the WAL suffix.
        let compacted = Arc::new(MemBackend::new());
        {
            let (durable, _) = open(&compacted);
            let store = durable.store();
            apply(&store, &writes[..cut]);
            durable.compact().unwrap();
            apply(&store, &writes[cut..]);
        }
        let (a, _) = open(&plain);
        let (b, report) = open(&compacted);
        prop_assert!(!report.tainted());
        prop_assert_eq!(report.wal_records_applied, (writes.len() - cut) as u64);
        prop_assert_eq!(sorted_scalars(&a.store()), sorted_scalars(&b.store()));
    }

    #[test]
    fn a_torn_tail_recovers_exactly_a_prefix(
        writes in vec((0usize..KEYS.len(), -1e6f64..1e6), 1..30),
        tear in 1usize..400,
    ) {
        let backend = Arc::new(MemBackend::new());
        {
            let (durable, _) = open(&backend);
            apply(&durable.store(), &writes);
        }
        let torn = backend.tear_wal_tail(tear);
        let (durable, report) = open(&backend);
        // Torn tails are expected crash damage, never taint.
        prop_assert!(!report.tainted());
        if torn > 0 && backend.wal_len() > 0 {
            prop_assert!(report.torn_tail_bytes > 0 || report.wal_records_applied < writes.len() as u64);
        }
        let recovered = sorted_scalars(&durable.store());
        let is_prefix = (0..=writes.len()).any(|k| recovered == model(&writes[..k]));
        prop_assert!(
            is_prefix,
            "recovered state {recovered:?} is not a prefix of the history"
        );
    }

    #[test]
    fn group_commit_replay_matches_the_history_for_any_group_size(
        writes in vec((0usize..KEYS.len(), -1e6f64..1e6), 0..40),
        group in 1usize..9,
    ) {
        let backend = Arc::new(MemBackend::new());
        {
            let (durable, _) = open_grouped(&backend, group);
            apply(&durable.store(), &writes);
            // Drop flushes the in-flight group: an orderly shutdown loses
            // nothing regardless of where the group boundary fell.
        }
        let first = {
            let (durable, report) = open_grouped(&backend, group);
            prop_assert!(!report.tainted());
            prop_assert_eq!(report.wal_records_applied, writes.len() as u64);
            sorted_scalars(&durable.store())
        };
        prop_assert_eq!(&first, &model(&writes));
        // Replaying a grouped log is as idempotent as a plain one.
        let second = {
            let (durable, _) = open_grouped(&backend, group);
            sorted_scalars(&durable.store())
        };
        prop_assert_eq!(second, first);
    }

    #[test]
    fn a_torn_tail_under_group_commit_loses_whole_groups_only(
        writes in vec((0usize..KEYS.len(), -1e6f64..1e6), 1..30),
        group in 2usize..6,
        tear in 1usize..600,
    ) {
        let backend = Arc::new(MemBackend::new());
        {
            let (durable, _) = open_grouped(&backend, group);
            apply(&durable.store(), &writes);
        }
        backend.tear_wal_tail(tear);
        let (durable, report) = open_grouped(&backend, group);
        prop_assert!(!report.tainted());
        let recovered = sorted_scalars(&durable.store());
        // The recovered state must sit on a *group* boundary of the history
        // (or be the complete history): a tear never splits a group.
        let boundaries = (0..=writes.len())
            .filter(|k| k % group == 0 || *k == writes.len());
        let mut on_boundary = false;
        for k in boundaries {
            if recovered == model(&writes[..k]) {
                on_boundary = true;
                break;
            }
        }
        prop_assert!(
            on_boundary,
            "recovered state {recovered:?} does not sit on a group boundary"
        );
    }

    #[test]
    fn compaction_under_group_commit_recovers_the_same_state(
        writes in vec((0usize..KEYS.len(), -1e6f64..1e6), 1..40),
        group in 1usize..6,
        cut in 0usize..40,
    ) {
        let cut = cut % (writes.len() + 1);
        let plain = Arc::new(MemBackend::new());
        {
            let (durable, _) = open(&plain);
            apply(&durable.store(), &writes);
        }
        let grouped = Arc::new(MemBackend::new());
        {
            let (durable, _) = open_grouped(&grouped, group);
            let store = durable.store();
            apply(&store, &writes[..cut]);
            durable.compact().unwrap();
            apply(&store, &writes[cut..]);
        }
        let (a, _) = open(&plain);
        let (b, report) = open_grouped(&grouped, group);
        prop_assert!(!report.tainted());
        prop_assert_eq!(sorted_scalars(&a.store()), sorted_scalars(&b.store()));
    }

    #[test]
    fn replay_quarantines_non_finite_values(
        writes in vec((0usize..KEYS.len(), -1e6f64..1e6, any::<bool>()), 1..30),
    ) {
        // `true` in the third slot poisons the write with NaN; the live
        // store has its quarantine off (seed semantics), so poison reaches
        // the WAL — but replay must drop it.
        let history: Vec<(usize, f64)> = writes
            .iter()
            .map(|&(k, v, poison)| (k, if poison { f64::NAN } else { v }))
            .collect();
        let backend = Arc::new(MemBackend::new());
        {
            let (durable, _) = open(&backend);
            let store = durable.store();
            store.set_quarantine(false);
            apply(&store, &history);
        }
        let poisoned = history.iter().filter(|(_, v)| !v.is_finite()).count();
        let (durable, report) = open(&backend);
        prop_assert!(!report.tainted());
        prop_assert_eq!(report.wal_records_quarantined, poisoned as u64);
        prop_assert_eq!(sorted_scalars(&durable.store()), model(&history));
    }

    #[test]
    fn journaled_slot_writes_recover_like_an_uninterrupted_run(
        writes in vec((0usize..SLOT_KEYS.len(), -1e6f64..1e6, any::<bool>(), any::<bool>()), 0..40),
        group in 1usize..6,
    ) {
        let backend = Arc::new(MemBackend::new());
        {
            let (durable, _) = open_grouped(&backend, group);
            let store = durable.store();
            let slots: Vec<Slot> = SLOT_KEYS.iter().map(|k| store.slot(k)).collect();
            prop_assert_eq!(durable.seq(), 0, "binding slots journals nothing");
            apply_mixed(&store, &slots, &writes);
            prop_assert_eq!(durable.seq(), journaled_writes(&writes));
        }
        let (durable, report) = open_grouped(&backend, group);
        prop_assert!(!report.tainted());
        prop_assert_eq!(report.wal_records_applied, journaled_writes(&writes));
        prop_assert_eq!(sorted_scalars(&durable.store()), uninterrupted(&writes));
    }

    #[test]
    fn compaction_keeps_bound_slots_journaled(
        writes in vec((0usize..SLOT_KEYS.len(), -1e6f64..1e6, any::<bool>(), any::<bool>()), 1..40),
        group in 1usize..6,
        cut in 0usize..40,
    ) {
        let cut = cut % (writes.len() + 1);
        let backend = Arc::new(MemBackend::new());
        {
            let (durable, _) = open_grouped(&backend, group);
            let store = durable.store();
            let slots: Vec<Slot> = SLOT_KEYS.iter().map(|k| store.slot(k)).collect();
            apply_mixed(&store, &slots, &writes[..cut]);
            durable.compact().unwrap();
            // The handles bound before the compaction keep journaling.
            apply_mixed(&store, &slots, &writes[cut..]);
        }
        let (durable, report) = open_grouped(&backend, group);
        prop_assert!(!report.tainted());
        prop_assert_eq!(report.wal_records_applied, journaled_writes(&writes[cut..]));
        prop_assert_eq!(sorted_scalars(&durable.store()), uninterrupted(&writes));
    }
}
