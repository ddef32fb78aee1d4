//! The durable store over backends that misbehave on purpose: one runs a
//! second thread at a chosen point inside a compaction (a save racing the
//! WAL rewrite, a second compaction racing the first), one fails a single
//! WAL append, writing nothing or part of the frame. None may cost a value
//! the store accepted, and neither compaction nor the failed append reads
//! the log back. A log that has run out of sequence numbers fails the next
//! append the same visible way.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use guardrails::error::Result;
use guardrails::store::durable::{
    DurabilityConfig, DurableStore, MemBackend, PersistBackend, RecoveryReport, Region,
};
use guardrails::store::wal::{encode_frame, WalRecord};
use guardrails::GuardrailError;

/// Where [`Interleave`] runs its action.
#[derive(Clone, Copy, Debug, PartialEq)]
enum At {
    /// Inside the WAL's length check, after the length was read.
    WalLen,
    /// Inside a snapshot replace, before the bytes are written.
    SnapshotReplace,
}

type Action = Box<dyn FnOnce() + Send>;

/// A backend that, once armed, runs an action on a second thread the next
/// time it reaches a given point, waits for the action for a bounded time,
/// and then goes on as if nothing happened.
#[derive(Default)]
struct Interleave {
    inner: MemBackend,
    armed: Mutex<Option<(At, Action)>>,
    action: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Interleave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interleave").finish_non_exhaustive()
    }
}

impl Interleave {
    fn arm(&self, at: At, action: impl FnOnce() + Send + 'static) {
        *self.armed.lock().unwrap() = Some((at, Box::new(action)));
    }

    fn interleave(&self, here: At) {
        let mut armed = self.armed.lock().unwrap();
        if !matches!(*armed, Some((at, _)) if at == here) {
            return;
        }
        let (_, action) = armed.take().expect("checked above");
        drop(armed);
        let (done, finished) = mpsc::channel();
        *self.action.lock().unwrap() = Some(thread::spawn(move || {
            action();
            let _ = done.send(());
        }));
        // The action runs on its own thread because a store that holds a
        // lock across this point blocks it until the compaction is done:
        // waiting here without a bound would deadlock.
        let _ = finished.recv_timeout(Duration::from_millis(200));
    }

    /// Joins the action's thread, which must have been started.
    fn join(&self) {
        let action = self.action.lock().unwrap().take();
        action
            .expect("the compaction reached the armed point")
            .join()
            .unwrap();
    }
}

impl PersistBackend for Interleave {
    fn load(&self, region: Region) -> Result<Vec<u8>> {
        self.inner.load(region)
    }

    fn append(&self, region: Region, bytes: &[u8]) -> Result<()> {
        self.inner.append(region, bytes)
    }

    fn replace(&self, region: Region, bytes: &[u8]) -> Result<()> {
        if region == Region::Snapshot {
            self.interleave(At::SnapshotReplace);
        }
        self.inner.replace(region, bytes)
    }

    fn len(&self, region: Region) -> Result<usize> {
        let len = self.inner.len(region)?;
        if region == Region::Wal {
            self.interleave(At::WalLen);
        }
        Ok(len)
    }

    fn cut_front(&self, region: Region, n: usize) -> Result<()> {
        self.inner.cut_front(region, n)
    }

    fn truncate(&self, region: Region, len: usize) -> Result<()> {
        self.inner.truncate(region, len)
    }
}

fn open(backend: &Arc<Interleave>) -> DurableStore {
    let b: Arc<dyn PersistBackend> = backend.clone();
    let (durable, report) = DurableStore::open(b, DurabilityConfig::default()).unwrap();
    assert!(!report.tainted());
    durable
}

#[test]
fn a_save_during_the_wal_rewrite_survives_compaction() {
    let backend = Arc::new(Interleave::default());
    {
        let durable = open(&backend);
        let store = durable.store();
        store.save("early", 1.0);
        let late = Arc::clone(&store);
        // The length check sees the log as it was before the save.
        backend.arm(At::WalLen, move || late.save("late", 7.0));
        durable.compact().unwrap();
        backend.join();
        assert_eq!(store.load("late"), Some(7.0), "the store applied it");
    }
    let durable = open(&backend);
    assert_eq!(durable.store().load("early"), Some(1.0));
    assert_eq!(
        durable.store().load("late"),
        Some(7.0),
        "the rewrite must not overwrite an append that landed during it"
    );
}

#[test]
fn concurrent_compactions_lose_nothing() {
    let backend = Arc::new(Interleave::default());
    {
        let durable = Arc::new(open(&backend));
        let store = durable.store();
        store.save("a", 1.0);
        let second = Arc::clone(&durable);
        // While the first compaction writes its snapshot, saves land on
        // both sides of a second compaction.
        backend.arm(At::SnapshotReplace, move || {
            let store = second.store();
            store.save("b", 2.0);
            second.compact().unwrap();
            store.save("c", 3.0);
        });
        durable.compact().unwrap();
        backend.join();
    }
    let durable = open(&backend);
    let store = durable.store();
    for (key, value) in [("a", 1.0), ("b", 2.0), ("c", 3.0)] {
        assert_eq!(store.load(key), Some(value), "{key}");
    }
}

/// A backend whose WAL append fails once, when told to: writing nothing,
/// or, when `torn`, the first half of the bytes (a disk that fills up
/// mid-write). It counts the WAL loads.
#[derive(Debug, Default)]
struct FailOnce {
    inner: MemBackend,
    fail_next_append: AtomicBool,
    torn: bool,
    wal_loads: AtomicUsize,
}

impl PersistBackend for FailOnce {
    fn load(&self, region: Region) -> Result<Vec<u8>> {
        if region == Region::Wal {
            self.wal_loads.fetch_add(1, Ordering::SeqCst);
        }
        self.inner.load(region)
    }

    fn append(&self, region: Region, bytes: &[u8]) -> Result<()> {
        if region == Region::Wal && self.fail_next_append.swap(false, Ordering::SeqCst) {
            if self.torn {
                self.inner.append(region, &bytes[..bytes.len() / 2])?;
            }
            return Err(GuardrailError::Persist("injected append failure".into()));
        }
        self.inner.append(region, bytes)
    }

    fn replace(&self, region: Region, bytes: &[u8]) -> Result<()> {
        self.inner.replace(region, bytes)
    }

    fn len(&self, region: Region) -> Result<usize> {
        self.inner.len(region)
    }

    fn cut_front(&self, region: Region, n: usize) -> Result<()> {
        self.inner.cut_front(region, n)
    }

    fn truncate(&self, region: Region, len: usize) -> Result<()> {
        self.inner.truncate(region, len)
    }
}

#[test]
fn a_failed_append_is_reported_and_compaction_recovers_the_value() {
    for (group_commit, torn) in [(1, false), (4, false), (1, true), (4, true)] {
        let config = DurabilityConfig {
            group_commit,
            ..DurabilityConfig::default()
        };
        let case = format!("group {group_commit}, torn {torn}");
        let backend = Arc::new(FailOnce {
            torn,
            ..FailOnce::default()
        });
        {
            let (durable, _) = DurableStore::open(backend.clone(), config).unwrap();
            let loads_at_open = backend.wal_loads.load(Ordering::SeqCst);
            let store = durable.store();
            store.save("a", 1.0);
            durable.flush();
            backend.fail_next_append.store(true, Ordering::SeqCst);
            store.save("b", 2.0);
            durable.flush();
            assert!(durable.append_failed(), "{case}");
            assert_eq!(store.load("b"), Some(2.0), "the store keeps serving");
            store.save("c", 3.0);
            durable.flush();
            // The appender cut back the half frame, so the log is exactly
            // what the successful appends wrote and the cut takes all of
            // it; had the failed frame counted, or its stray bytes stayed,
            // the lengths would disagree and the compaction would fail.
            durable.compact().unwrap();
            assert_eq!(backend.inner.wal_len(), 0, "{case}");
            assert_eq!(
                backend.wal_loads.load(Ordering::SeqCst),
                loads_at_open,
                "{case}: the cut-back and the compaction read the log"
            );
            store.save("d", 4.0);
        }
        let (durable, report) = DurableStore::open(backend, config).unwrap();
        // No torn tail, no corrupt frame: nothing of the failed append is
        // left for the open to find.
        let clean = RecoveryReport {
            snapshot_seq: 3,
            snapshot_entries: 3,
            wal_records_applied: 1,
            ..RecoveryReport::default()
        };
        assert_eq!(report, clean, "{case}");
        let store = durable.store();
        for (key, value) in [("a", 1.0), ("b", 2.0), ("c", 3.0), ("d", 4.0)] {
            assert_eq!(store.load(key), Some(value), "{case}: {key}");
        }
    }
}

/// A log whose last frame is numbered `u64::MAX` leaves no number for the
/// next save. The append fails the way a backend error does: no panic, no
/// frame, `append_failed`, and the save stands in memory. A reopen finds
/// the log as it was, so no accepted write is dropped unreported (it used
/// to wrap to sequence 0, which the next open skipped).
#[test]
fn a_save_past_the_last_sequence_number_fails_visibly() {
    let backend = Arc::new(MemBackend::new());
    let frame = encode_frame(&WalRecord {
        seq: u64::MAX,
        key: "a".to_string(),
        value: 1.0,
    });
    backend.append(Region::Wal, &frame).unwrap();
    let reopen = || {
        let b: Arc<dyn PersistBackend> = backend.clone();
        DurableStore::open(b, DurabilityConfig::default()).unwrap()
    };
    let replayed = RecoveryReport {
        wal_records_applied: 1,
        ..RecoveryReport::default()
    };
    {
        let (durable, report) = reopen();
        assert_eq!(report, replayed);
        assert_eq!(durable.seq(), u64::MAX);
        let store = durable.store();
        store.save("a", 2.0);
        durable.flush();
        assert!(durable.append_failed(), "the unlogged save is reported");
        assert_eq!(store.load("a"), Some(2.0), "the store keeps serving");
        assert_eq!(durable.seq(), u64::MAX);
    }
    assert_eq!(
        backend.load(Region::Wal).unwrap(),
        frame,
        "no frame written"
    );
    let (durable, report) = reopen();
    assert_eq!(report, replayed, "nothing skipped");
    assert_eq!(durable.store().load("a"), Some(1.0));
    assert!(!durable.append_failed());
}
