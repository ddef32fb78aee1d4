//! Property tests for the crash-consistent store: WAL replay is idempotent
//! and matches the write history, compaction at any point recovers the same
//! state (snapshot + WAL-suffix equivalence), and a torn WAL tail recovers
//! exactly a prefix of the history. The same recovered ≡ uninterrupted
//! equivalence holds when writers go through slot handles bound before the
//! first write. The appender's bytes are pinned to literal frames and to a
//! frame encoder spelled out here from the documented layout, and a
//! compaction leaves exactly the records its snapshot does not cover.
//!
//! The decoders cannot be broken: the WAL decoder, the snapshot decoder,
//! `DurableStore::open` and GRCP4 checkpoint `decode` + `restore`,
//! fed arbitrary bytes, truncations, bit flips (with checksums re-fixed,
//! so the damage reaches the parsers behind them) and splices of two valid
//! blobs, each return an error or a valid state, and none panics; a failed
//! `restore` leaves the engine as it was.

use std::collections::BTreeMap;
use std::sync::Arc;

use guardrails::monitor::{EngineCheckpoint, Hysteresis, MonitorEngine};
use guardrails::store::durable::{
    DurabilityConfig, DurableStore, MemBackend, PersistBackend, RecoveryReport, Region,
};
use guardrails::store::snapshot::Snapshot;
use guardrails::store::wal::{
    crc32, decode_stream, decode_strict, encode_frame, encode_group_frame, WalRecord, WalStop,
};
use guardrails::telemetry::is_reserved;
use guardrails::PolicyRegistry;
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

/// The WAL records `writes` journal when the first of them takes sequence
/// number `first_seq`.
fn records(writes: &[(usize, f64)], first_seq: u64) -> Vec<WalRecord> {
    writes
        .iter()
        .zip(first_seq..)
        .map(|(&(k, value), seq)| WalRecord {
            seq,
            key: KEYS[k].to_string(),
            value,
        })
        .collect()
}

/// One plain WAL frame, written out by hand from the layout in the `wal`
/// module docs rather than through the crate's frame writer:
/// `[0x57A1][payload_len][seq][value bits][key_len][key][crc32(payload)]`.
fn reference_frame(record: &WalRecord) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&record.seq.to_le_bytes());
    payload.extend_from_slice(&record.value.to_bits().to_le_bytes());
    payload.extend_from_slice(&(record.key.len() as u32).to_le_bytes());
    payload.extend_from_slice(record.key.as_bytes());
    let mut frame = vec![0xA1, 0x57];
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame
}

/// `{seq 1, "k" = 1.0}` as a plain frame.
const PLAIN_FRAME: [u8; 31] = [
    0xa1, 0x57, // magic
    0x15, 0x00, 0x00, 0x00, // payload length 21
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // seq 1
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f, // 1.0
    0x01, 0x00, 0x00, 0x00, 0x6b, // "k"
    0xd4, 0x58, 0x8c, 0xa8, // crc32
];

/// `{seq 2, "k" = 2.0}` and `{seq 3, "ab" = -0.5}` as one group frame.
const GROUP_FRAME: [u8; 57] = [
    0xa2, 0x57, // magic
    0x2f, 0x00, 0x00, 0x00, // payload length 47
    0x02, 0x00, 0x00, 0x00, // two records
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // seq 2
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, // 2.0
    0x01, 0x00, 0x00, 0x00, 0x6b, // "k"
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // seq 3
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0xbf, // -0.5
    0x02, 0x00, 0x00, 0x00, 0x61, 0x62, // "ab"
    0x0a, 0x2f, 0x8b, 0x35, // crc32
];

fn record(seq: u64, key: &str, value: f64) -> WalRecord {
    WalRecord {
        seq,
        key: key.to_string(),
        value,
    }
}

#[test]
fn wal_frames_match_literal_bytes() {
    let plain = record(1, "k", 1.0);
    let group = [record(2, "k", 2.0), record(3, "ab", -0.5)];
    assert_eq!(reference_frame(&plain), PLAIN_FRAME);
    assert_eq!(encode_frame(&plain), PLAIN_FRAME);
    assert_eq!(encode_group_frame(&group), GROUP_FRAME);
    // The appender: a flushed lone record goes out as a plain frame, a
    // full group as a group frame.
    let backend = Arc::new(MemBackend::new());
    {
        let (durable, _) = open_grouped(&backend, 2);
        let store = durable.store();
        store.save("k", 1.0);
        durable.flush();
        store.save("k", 2.0);
        store.save("ab", -0.5);
    }
    assert_eq!(
        backend.load(Region::Wal).unwrap(),
        [&PLAIN_FRAME[..], &GROUP_FRAME[..]].concat()
    );
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
    fn the_appender_writes_the_reference_frames(
        writes in vec((0usize..KEYS.len(), -1e6f64..1e6), 0..40),
    ) {
        let backend = Arc::new(MemBackend::new());
        {
            let (durable, _) = open_grouped(&backend, 1);
            apply(&durable.store(), &writes);
        }
        let wal = backend.load(Region::Wal).unwrap();
        let history = records(&writes, 1);
        let expected: Vec<u8> = history.iter().flat_map(reference_frame).collect();
        prop_assert_eq!(&wal, &expected);
        let decoded = decode_stream(&wal);
        prop_assert_eq!(decoded.stop, WalStop::Clean);
        prop_assert_eq!(decoded.records, history);
    }

    #[test]
    fn compaction_leaves_exactly_the_records_after_the_snapshot(
        writes in vec((0usize..KEYS.len(), -1e6f64..1e6), 0..40),
        group in 1usize..6,
        cut in 0usize..40,
    ) {
        let cut = cut % (writes.len() + 1);
        let backend = Arc::new(MemBackend::new());
        {
            let (durable, _) = open_grouped(&backend, group);
            let store = durable.store();
            apply(&store, &writes[..cut]);
            durable.compact().unwrap();
            apply(&store, &writes[cut..]);
        }
        let decoded = decode_stream(&backend.load(Region::Wal).unwrap());
        prop_assert_eq!(decoded.stop, WalStop::Clean);
        prop_assert_eq!(decoded.records, records(&writes[cut..], cut as u64 + 1));
        let (_, report) = open_grouped(&backend, group);
        prop_assert_eq!(report.snapshot_seq, cut as u64);
        prop_assert_eq!(report.wal_records_skipped, 0);
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

// ---------------------------------------------------------------------------
// Decoder robustness
// ---------------------------------------------------------------------------

/// One kind of damage to a blob; positions wrap to its length.
#[derive(Clone, Copy, Debug)]
enum Damage {
    /// Flip one bit.
    Flip(usize, u8),
    /// Keep only a prefix.
    Truncate(usize),
    /// A prefix of this blob, then a suffix of another valid one.
    Splice(usize, usize),
    /// Flip one bit, then make the blob's checksum match again, so the
    /// structure behind the checksum is what gets parsed.
    FlipAndReseal(usize, u8),
    /// Overwrite one whitespace-separated field with another field of the
    /// blob, then re-seal it: well-formed text that says something else.
    SwapFieldAndReseal(usize, usize),
    /// Replace the blob with arbitrary bytes.
    Arbitrary,
}

fn arb_damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (0usize..1 << 16, 0u8..8).prop_map(|(at, bit)| Damage::Flip(at, bit)),
        (0usize..1 << 16).prop_map(Damage::Truncate),
        (0usize..1 << 16, 0usize..1 << 16).prop_map(|(a, b)| Damage::Splice(a, b)),
        (0usize..1 << 16, 0u8..8).prop_map(|(at, bit)| Damage::FlipAndReseal(at, bit)),
        (0usize..1 << 16, 0usize..1 << 16).prop_map(|(a, b)| Damage::SwapFieldAndReseal(a, b)),
        Just(Damage::Arbitrary),
    ]
}

/// Applies `damage` to `valid`: `other` is the second blob of a splice,
/// `garbage` the arbitrary bytes, and `reseal` recomputes the checksum of
/// a blob of this kind after its bit flip.
fn damaged(
    valid: &[u8],
    other: &[u8],
    garbage: &[u8],
    damage: Damage,
    reseal: impl Fn(&mut [u8]),
) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    let flip = |bytes: &mut Vec<u8>, at: usize, bit: u8| {
        if !bytes.is_empty() {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        }
    };
    match damage {
        Damage::Flip(at, bit) => flip(&mut bytes, at, bit),
        Damage::Truncate(at) => bytes.truncate(at % (valid.len() + 1)),
        Damage::Splice(a, b) => {
            bytes.truncate(a % (valid.len() + 1));
            bytes.extend_from_slice(&other[b % (other.len() + 1)..]);
        }
        Damage::FlipAndReseal(at, bit) => {
            flip(&mut bytes, at, bit);
            reseal(&mut bytes);
        }
        Damage::SwapFieldAndReseal(a, b) => {
            let fields: Vec<(usize, usize)> = field_spans(&bytes);
            if !fields.is_empty() {
                let (to, from) = (fields[a % fields.len()], fields[b % fields.len()]);
                let with = bytes[from.0..from.1].to_vec();
                bytes.splice(to.0..to.1, with);
                reseal(&mut bytes);
            }
        }
        Damage::Arbitrary => bytes = garbage.to_vec(),
    }
    bytes
}

/// The `(start, end)` of every run of non-whitespace bytes.
fn field_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = None;
    for (i, b) in bytes.iter().chain([&b' ']).enumerate() {
        match (b.is_ascii_whitespace(), start) {
            (false, None) => start = Some(i),
            (true, Some(s)) => {
                spans.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    spans
}

/// A WAL log of `writes` from sequence number `first_seq`, in plain and
/// group frames of up to `group` records.
fn wal_log(writes: &[(usize, f64)], first_seq: u64, group: usize) -> Vec<u8> {
    let history = records(writes, first_seq);
    history
        .chunks(group.max(1))
        .flat_map(|chunk| match chunk {
            [one] => encode_frame(one),
            many => encode_group_frame(many),
        })
        .collect()
}

/// Re-seals every complete WAL frame's CRC, walking frames by their
/// length fields as far as they stay in bounds.
fn reseal_wal(bytes: &mut [u8]) {
    let mut at = 0;
    while at + 6 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at + 2..at + 6].try_into().unwrap()) as usize;
        let end = at + 6 + len;
        if end + 4 > bytes.len() {
            return;
        }
        let crc = crc32(&bytes[at + 6..end]);
        bytes[end..end + 4].copy_from_slice(&crc.to_le_bytes());
        at = end + 4;
    }
}

/// Re-seals a snapshot blob: `[magic u32][body][crc32(body)]`.
fn reseal_snapshot(bytes: &mut [u8]) {
    if bytes.len() >= 8 {
        let end = bytes.len() - 4;
        let crc = crc32(&bytes[4..end]);
        bytes[end..].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Re-seals a checkpoint blob: `<magic> <crc32(body) as 8 hex digits>\n<body>`.
fn reseal_checkpoint(bytes: &mut [u8]) {
    let Some(newline) = bytes.iter().position(|&b| b == b'\n') else {
        return;
    };
    if newline >= 9 && bytes[newline - 9] == b' ' {
        let crc = format!("{:08x}", crc32(&bytes[newline + 1..]));
        bytes[newline - 8..newline].copy_from_slice(crc.as_bytes());
    }
}

/// Listing 2, a `DELTA` guardrail with an operand and a two-timer
/// guardrail: the checkpoints below carry every kind of line.
const CHECKPOINT_SPECS: &str = r#"
guardrail low-false-submit {
    trigger: { TIMER(0, 1s) },
    rule: { LOAD(false_submit_rate) <= 0.05 },
    action: { SAVE(ml_enabled, false) REPLACE(io_latency, fallback) RETRAIN(linnos) }
}
guardrail queue-jump {
    trigger: { FUNCTION(io) },
    rule: { DELTA(qdepth) < 8 },
    action: { SAVE(last_jump, DELTA(qdepth)) }
}
guardrail two-timers {
    trigger: { TIMER(0, 300ms) TIMER(100ms, 700ms, 5s) },
    rule: { LOAD(qdepth) < 12 },
    action: { RECORD(deep, LOAD(qdepth)) }
}
"#;

/// An engine with the specs above installed and a policy slot registered.
fn checkpoint_engine() -> MonitorEngine {
    let registry = Arc::new(PolicyRegistry::new());
    registry
        .register("io_latency", &["learned", "fallback"])
        .unwrap();
    let mut engine = MonitorEngine::with_parts(Arc::new(FeatureStore::new()), registry);
    engine.install_str(CHECKPOINT_SPECS).unwrap();
    engine
        .set_hysteresis("queue-jump", Hysteresis::n_of_m(2, 5))
        .unwrap();
    engine
}

/// The GRCP4 checkpoints of an engine driven for `steps` 100 ms steps
/// with the values of `values`: at the end, and halfway.
fn valid_checkpoints(values: &[f64], steps: usize) -> (Vec<u8>, Vec<u8>) {
    let mut engine = checkpoint_engine();
    let store = engine.store();
    let mut halfway = Vec::new();
    for i in 0..steps {
        if i == steps / 2 {
            engine.checkpoint_into(&mut halfway);
        }
        let v = values[i % values.len()];
        let now = simkernel::Nanos::from_millis(100 * i as u64 + 50);
        store.save("false_submit_rate", v / 100.0);
        store.save("qdepth", v);
        engine.on_function("io", now, &[]);
        engine.advance_to(now);
    }
    (engine.checkpoint().encode(), halfway)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The WAL decoder keeps a prefix it vouches for: decoding just that
    /// prefix gives the same records cleanly, `decode_strict` accepts
    /// exactly the clean logs, and a store opened on the damaged log
    /// replays its records, keeps working and reopens to the same state.
    #[test]
    fn a_damaged_wal_decodes_to_a_valid_prefix(
        writes in vec((0usize..KEYS.len(), -1e6f64..1e6), 1..30),
        others in vec((0usize..KEYS.len(), -1e6f64..1e6), 1..30),
        group in 1usize..5,
        damage in arb_damage(),
        garbage in vec(0u8..=255, 0..200),
    ) {
        let valid = wal_log(&writes, 1, group);
        let other = wal_log(&others, 1_000, group + 1);
        let bytes = damaged(&valid, &other, &garbage, damage, reseal_wal);
        let decoded = decode_stream(&bytes);
        prop_assert!(decoded.valid_len <= bytes.len());
        let prefix = decode_stream(&bytes[..decoded.valid_len]);
        prop_assert_eq!(prefix.stop, WalStop::Clean);
        prop_assert_eq!(&prefix.records, &decoded.records);
        match decode_strict(&bytes) {
            Ok(records) => {
                prop_assert_eq!(decoded.stop, WalStop::Clean);
                prop_assert_eq!(records, decoded.records.clone());
            }
            Err(_) => prop_assert!(decoded.stop != WalStop::Clean),
        }

        let backend = Arc::new(MemBackend::new());
        backend.replace(Region::Wal, &bytes).unwrap();
        let (durable, report) = open(&backend);
        prop_assert_eq!(
            report.wal_records_applied
                + report.wal_records_skipped
                + report.wal_records_reserved,
            decoded.records.len() as u64
        );
        durable.store().save(KEYS[0], 0.5);
        durable.compact().unwrap();
        let state = sorted_scalars(&durable.store());
        drop(durable);
        let (reopened, _) = open(&backend);
        prop_assert_eq!(sorted_scalars(&reopened.store()), state);
    }

    /// The snapshot decoder accepts only blobs it would write itself (or
    /// nothing at all), and a store opened on a damaged snapshot discards
    /// it whole or applies it whole.
    #[test]
    fn a_damaged_snapshot_is_rejected_whole(
        entries in vec((0usize..KEYS.len(), -1e6f64..1e6), 0..10),
        seq in 0u64..1_000,
        damage in arb_damage(),
        garbage in vec(0u8..=255, 0..200),
    ) {
        let snapshot = |entries: &[(usize, f64)], seq| {
            let mut map = BTreeMap::new();
            for &(k, v) in entries {
                map.insert(KEYS[k].to_string(), v);
            }
            Snapshot { seq, entries: map.into_iter().collect() }.encode()
        };
        let valid = snapshot(&entries, seq);
        let other = snapshot(&entries[entries.len() / 2..], seq + 7);
        let bytes = damaged(&valid, &other, &garbage, damage, reseal_snapshot);
        if let Ok(decoded) = Snapshot::decode(&bytes) {
            prop_assert!(bytes.is_empty() || decoded.encode() == bytes);
        }
        let backend = Arc::new(MemBackend::new());
        backend.replace(Region::Snapshot, &bytes).unwrap();
        let (durable, report) = open(&backend);
        match Snapshot::decode(&bytes) {
            Ok(decoded) => {
                prop_assert!(!report.snapshot_corrupt);
                prop_assert_eq!(report.snapshot_entries, decoded.entries.len());
            }
            Err(_) => {
                prop_assert!(report.snapshot_corrupt);
                prop_assert!(durable.store().scalars().is_empty());
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// A damaged checkpoint decodes to a checkpoint that round-trips, or
    /// fails; restoring one either succeeds, leaving an engine that runs
    /// and checkpoints, or fails and changes nothing.
    #[test]
    fn a_damaged_checkpoint_fails_or_restores_whole(
        values in vec(0.0f64..20.0, 1..8),
        steps in 1usize..60,
        damage in arb_damage(),
        garbage in vec(0u8..=255, 0..200),
    ) {
        let (valid, other) = valid_checkpoints(&values, steps);
        let bytes = damaged(&valid, &other, &garbage, damage, reseal_checkpoint);
        if let Ok(checkpoint) = EngineCheckpoint::decode(&bytes) {
            prop_assert_eq!(&EngineCheckpoint::decode(&checkpoint.encode()).unwrap(), &checkpoint);

            let mut engine = checkpoint_engine();
            engine.store().save("qdepth", 3.0);
            engine.advance_to(simkernel::Nanos::from_millis(1_250));
            let mut before = Vec::new();
            engine.checkpoint_into(&mut before);
            match engine.restore(&checkpoint) {
                Err(_) => {
                    let mut after = Vec::new();
                    engine.checkpoint_into(&mut after);
                    prop_assert_eq!(after, before, "a failed restore changed the engine");
                }
                Ok(()) => {
                    let start = engine.now();
                    for i in 1..20u64 {
                        let now = start + simkernel::Nanos::from_millis(150 * i);
                        engine.on_function("io", now, &[]);
                        engine.advance_to(now);
                    }
                    let blob = engine.checkpoint().encode();
                    prop_assert!(EngineCheckpoint::decode(&blob).is_ok());
                }
            }
        }
    }
}
