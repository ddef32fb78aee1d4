//! Crash-consistent persistence for the feature store.
//!
//! [`DurableStore`] wraps a [`FeatureStore`] with a write-ahead log and
//! periodic snapshot compaction over a pluggable [`PersistBackend`]:
//!
//! - every accepted scalar write appends one checksummed WAL frame *before*
//!   it is applied (write-ahead ordering), via the store's journal hook;
//!   with [`DurabilityConfig::group_commit`] > 1 the appender instead
//!   buffers records and commits them as one checksummed *group frame*
//!   (one append, one CRC per group; a crash loses the in-flight group
//!   atomically — the whole group or none of it);
//! - [`DurableStore::compact`] folds the scalar state into a snapshot and
//!   truncates the WAL; a crash between the two steps is harmless because
//!   frames carry sequence numbers and replay skips those the snapshot
//!   already covers;
//! - [`DurableStore::open`] replays snapshot + WAL suffix idempotently and
//!   **quarantine-aware**: non-finite replayed values go through the same
//!   quarantine as live writes, so a poisoned log cannot re-poison a
//!   restarted store.
//!
//! Backends: [`MemBackend`] is the deterministic in-memory medium the crash
//! experiments mutate directly (torn tails, snapshot bit flips);
//! [`FileBackend`] persists to three files in a directory for real
//! deployments.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{GuardrailError, Result};
use crate::telemetry::{is_reserved, LogHistogram};

use super::snapshot::Snapshot;
use super::wal::{decode_stream, encode_frame, encode_group_frame, WalRecord, WalStop};
use super::{FeatureStore, SaveJournal};

/// The logical storage regions a backend provides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Region {
    /// The compacted snapshot blob.
    Snapshot,
    /// The append-only write-ahead log.
    Wal,
    /// The monitor-engine checkpoint blob.
    Checkpoint,
}

/// A persistence medium with three byte regions.
///
/// `append` must be atomic with respect to other appends (the journal hook
/// runs under the store's per-key slot locks, from multiple writer threads).
pub trait PersistBackend: Send + Sync + std::fmt::Debug {
    /// Reads the full contents of `region` (empty if never written).
    fn load(&self, region: Region) -> Result<Vec<u8>>;
    /// Appends `bytes` to `region`.
    fn append(&self, region: Region, bytes: &[u8]) -> Result<()>;
    /// Atomically replaces the contents of `region` with `bytes`.
    fn replace(&self, region: Region, bytes: &[u8]) -> Result<()>;
}

/// Deterministic in-memory backend.
///
/// This is the medium for crash *simulation*: tests and the `exp_recovery`
/// experiment drop the runtime, optionally mutate the byte regions the way
/// a real crash would (torn WAL tail, snapshot bit rot), and reopen.
#[derive(Debug, Default)]
pub struct MemBackend {
    snapshot: Mutex<Vec<u8>>,
    wal: Mutex<Vec<u8>>,
    checkpoint: Mutex<Vec<u8>>,
}

impl MemBackend {
    /// Creates an empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }

    fn region(&self, region: Region) -> &Mutex<Vec<u8>> {
        match region {
            Region::Snapshot => &self.snapshot,
            Region::Wal => &self.wal,
            Region::Checkpoint => &self.checkpoint,
        }
    }

    /// Crash simulation: discards the last `bytes` of the WAL, modelling an
    /// append torn mid-write. Returns how many bytes were actually dropped.
    pub fn tear_wal_tail(&self, bytes: usize) -> usize {
        let mut wal = self.wal.lock();
        let drop = bytes.min(wal.len());
        let keep = wal.len() - drop;
        wal.truncate(keep);
        drop
    }

    /// Crash simulation: flips one bit in the snapshot blob (no-op when no
    /// snapshot exists). Returns `true` if a bit was flipped.
    pub fn corrupt_snapshot(&self) -> bool {
        let mut snapshot = self.snapshot.lock();
        match snapshot.len() {
            0 => false,
            n => {
                snapshot[n / 2] ^= 0x20;
                true
            }
        }
    }

    /// Current WAL size in bytes.
    pub fn wal_len(&self) -> usize {
        self.wal.lock().len()
    }

    /// Current snapshot size in bytes.
    pub fn snapshot_len(&self) -> usize {
        self.snapshot.lock().len()
    }
}

impl PersistBackend for MemBackend {
    fn load(&self, region: Region) -> Result<Vec<u8>> {
        Ok(self.region(region).lock().clone())
    }

    fn append(&self, region: Region, bytes: &[u8]) -> Result<()> {
        self.region(region).lock().extend_from_slice(bytes);
        Ok(())
    }

    fn replace(&self, region: Region, bytes: &[u8]) -> Result<()> {
        let mut guard = self.region(region).lock();
        guard.clear();
        guard.extend_from_slice(bytes);
        Ok(())
    }
}

/// File-backed persistence: `snapshot.bin`, `wal.bin`, and `checkpoint.bin`
/// in one directory. `replace` writes a temporary file and renames it over
/// the target so a crash mid-replace leaves either the old or the new blob,
/// never a mix.
#[derive(Debug)]
pub struct FileBackend {
    dir: PathBuf,
    /// Serializes appends; the OS guarantees little about concurrent
    /// appends from one process without it.
    append_lock: Mutex<()>,
}

impl FileBackend {
    /// Opens (creating if needed) a backend rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| GuardrailError::Persist(format!("create {}: {e}", dir.display())))?;
        Ok(FileBackend {
            dir,
            append_lock: Mutex::new(()),
        })
    }

    fn path(&self, region: Region) -> PathBuf {
        self.dir.join(match region {
            Region::Snapshot => "snapshot.bin",
            Region::Wal => "wal.bin",
            Region::Checkpoint => "checkpoint.bin",
        })
    }
}

impl PersistBackend for FileBackend {
    fn load(&self, region: Region) -> Result<Vec<u8>> {
        let path = self.path(region);
        match std::fs::read(&path) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(GuardrailError::Persist(format!(
                "read {}: {e}",
                path.display()
            ))),
        }
    }

    fn append(&self, region: Region, bytes: &[u8]) -> Result<()> {
        use std::io::Write;
        let _guard = self.append_lock.lock();
        let path = self.path(region);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| GuardrailError::Persist(format!("open {}: {e}", path.display())))?;
        file.write_all(bytes)
            .map_err(|e| GuardrailError::Persist(format!("append {}: {e}", path.display())))
    }

    fn replace(&self, region: Region, bytes: &[u8]) -> Result<()> {
        let _guard = self.append_lock.lock();
        let path = self.path(region);
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, bytes)
            .map_err(|e| GuardrailError::Persist(format!("write {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| GuardrailError::Persist(format!("rename {}: {e}", path.display())))
    }
}

/// Durability knobs for a [`DurableStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Compact (snapshot + WAL truncate) after this many WAL records. The
    /// check is performed by [`DurableStore::maybe_compact`], which hosts
    /// call from their main loop (compaction cannot run inside the journal
    /// hook — it reads the whole store).
    pub snapshot_every: u64,
    /// Group-commit size: buffer this many journaled records and append
    /// them as **one** checksummed group frame. `1` (the default) appends
    /// each record immediately — the pre-group-commit behaviour, byte for
    /// byte. Larger groups amortize the backend append (one syscall and one
    /// CRC per group on a file backend) at the cost of a bounded durability
    /// window: a crash loses at most the current unflushed group, and loses
    /// it atomically — the whole group or none of it, never a prefix.
    pub group_commit: usize,
}

impl Default for DurabilityConfig {
    /// Compact every 4096 records; group commit off (group size 1).
    fn default() -> Self {
        DurabilityConfig {
            snapshot_every: 4096,
            group_commit: 1,
        }
    }
}

/// What [`DurableStore::open`] found and did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// WAL sequence number the snapshot covered (0 = no snapshot).
    pub snapshot_seq: u64,
    /// Scalar entries applied from the snapshot.
    pub snapshot_entries: usize,
    /// The snapshot blob existed but failed validation and was discarded.
    pub snapshot_corrupt: bool,
    /// WAL records applied on top of the snapshot.
    pub wal_records_applied: u64,
    /// WAL records skipped because the snapshot already covered them.
    pub wal_records_skipped: u64,
    /// WAL records skipped because they named a reserved `__telemetry/`
    /// key (possible only in logs written before the namespace was
    /// reserved; such observations must not resurrect as user state).
    pub wal_records_reserved: u64,
    /// Replayed values quarantined for being non-finite.
    pub wal_records_quarantined: u64,
    /// Bytes of torn WAL tail discarded (crash mid-append).
    pub torn_tail_bytes: usize,
    /// A corrupt (checksum-failed) WAL frame truncated the replay.
    pub wal_corrupt_frame: bool,
}

impl RecoveryReport {
    /// `true` when recovery lost state it cannot vouch for: a corrupt
    /// snapshot, or a corrupt WAL frame that truncated replay. (A torn
    /// *tail* is expected crash damage — the lost record never reported
    /// success to anyone.) Supervisors treat a tainted recovery as a reason
    /// to boot fail-closed.
    pub fn tainted(&self) -> bool {
        self.snapshot_corrupt || self.wal_corrupt_frame
    }
}

/// The journal half of a durable store: assigns sequence numbers and
/// appends write-ahead frames. Shared between the [`FeatureStore`] (as its
/// [`SaveJournal`] hook) and the [`DurableStore`] that owns compaction.
#[derive(Debug)]
struct WalAppender {
    backend: Arc<dyn PersistBackend>,
    /// Last sequence number assigned (frames are 1-based).
    seq: AtomicU64,
    /// Records appended since the last compaction.
    since_compact: AtomicU64,
    /// Set when an append fails; the store keeps serving (availability over
    /// durability for a *monitoring* substrate) but the failure is visible.
    append_failed: AtomicBool,
    /// Group-commit size (1 = append every record immediately).
    group_commit: usize,
    /// Records buffered for the next group frame (empty when
    /// `group_commit == 1`).
    pending: Mutex<Vec<WalRecord>>,
    /// Frame bytes appended to the backend since open (always counted; one
    /// relaxed add per append, which is already a backend call).
    bytes_appended: AtomicU64,
    /// Backend append calls (frames) since open.
    frames_appended: AtomicU64,
    /// Distribution of records per appended frame (single-record frames
    /// observe 1; group frames observe the group size).
    group_hist: LogHistogram,
}

impl WalAppender {
    /// Appends one encoded frame carrying `records` WAL records, updating
    /// the always-on WAL metrics.
    fn append_frame(&self, frame: &[u8], records: u64) {
        self.bytes_appended
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.frames_appended.fetch_add(1, Ordering::Relaxed);
        self.group_hist.observe(records);
        if self.backend.append(Region::Wal, frame).is_err() {
            self.append_failed.store(true, Ordering::Relaxed);
        }
    }

    /// Appends all buffered records as one group frame. No-op when the
    /// buffer is empty.
    fn flush(&self) {
        let mut pending = self.pending.lock();
        if pending.is_empty() {
            return;
        }
        let frame = encode_group_frame(&pending);
        let records = pending.len() as u64;
        pending.clear();
        self.append_frame(&frame, records);
    }
}

impl std::fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableStore")
            .field("seq", &self.appender.seq.load(Ordering::Relaxed))
            .finish()
    }
}

impl SaveJournal for WalAppender {
    fn record_save(&self, key: &str, value: f64) {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst) + 1;
        let record = WalRecord {
            seq,
            key: key.to_string(),
            value,
        };
        if self.group_commit <= 1 {
            self.append_frame(&encode_frame(&record), 1);
        } else {
            // Same-key writes are serialized by the store's slot lock, so
            // records for one key always land in the buffer in seq order;
            // cross-key interleaving is harmless (post-state replay).
            // The append happens under the buffer lock so group frames land
            // in the log in the order their groups filled.
            let mut pending = self.pending.lock();
            pending.push(record);
            if pending.len() >= self.group_commit {
                let frame = encode_group_frame(&pending);
                let records = pending.len() as u64;
                pending.clear();
                self.append_frame(&frame, records);
            }
        }
        self.since_compact.fetch_add(1, Ordering::Relaxed);
    }
}

/// A [`FeatureStore`] whose scalar state survives crashes.
pub struct DurableStore {
    store: Arc<FeatureStore>,
    backend: Arc<dyn PersistBackend>,
    appender: Arc<WalAppender>,
    config: DurabilityConfig,
}

impl DurableStore {
    /// Opens (or creates) a durable store over `backend`, replaying any
    /// persisted state into a fresh [`FeatureStore`].
    ///
    /// Replay order: snapshot first, then WAL frames with
    /// `seq > snapshot.seq`. Replay goes through [`FeatureStore::save`], so
    /// the quarantine drops non-finite values exactly as it would have at
    /// write time. A corrupt snapshot is *discarded* (reported, not
    /// half-applied); the WAL suffix still replays.
    pub fn open(
        backend: Arc<dyn PersistBackend>,
        config: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport)> {
        let store = Arc::new(FeatureStore::new());
        let mut report = RecoveryReport::default();

        let snapshot_bytes = backend.load(Region::Snapshot)?;
        let snapshot = match Snapshot::decode(&snapshot_bytes) {
            Ok(s) => s,
            Err(_) => {
                report.snapshot_corrupt = true;
                Snapshot::empty()
            }
        };
        report.snapshot_seq = snapshot.seq;
        report.snapshot_entries = snapshot.entries.len();
        let poisoned_before = store.poisoned_total();
        for (key, value) in &snapshot.entries {
            if is_reserved(key) {
                continue; // Legacy snapshot carrying telemetry observations.
            }
            store.save(key, *value);
        }

        let wal_bytes = backend.load(Region::Wal)?;
        let decoded = decode_stream(&wal_bytes);
        match decoded.stop {
            WalStop::Clean => {}
            WalStop::TornTail { bytes } => report.torn_tail_bytes = bytes,
            WalStop::CorruptFrame { .. } => report.wal_corrupt_frame = true,
        }
        let mut max_seq = snapshot.seq;
        for record in &decoded.records {
            if record.seq <= snapshot.seq {
                report.wal_records_skipped += 1;
            } else if is_reserved(&record.key) {
                // Logs predating the reserved namespace may carry telemetry
                // keys; observations never replay into user state.
                report.wal_records_reserved += 1;
            } else {
                store.save(&record.key, record.value);
                report.wal_records_applied += 1;
            }
            max_seq = max_seq.max(record.seq);
        }
        report.wal_records_quarantined = store.poisoned_total() - poisoned_before;
        // Repair: drop the unparseable tail so the next append starts at a
        // clean frame boundary.
        if decoded.valid_len < wal_bytes.len() {
            backend.replace(Region::Wal, &wal_bytes[..decoded.valid_len])?;
        }

        let appender = Arc::new(WalAppender {
            backend: Arc::clone(&backend),
            seq: AtomicU64::new(max_seq),
            since_compact: AtomicU64::new(0),
            append_failed: AtomicBool::new(false),
            group_commit: config.group_commit.max(1),
            pending: Mutex::new(Vec::new()),
            bytes_appended: AtomicU64::new(0),
            frames_appended: AtomicU64::new(0),
            group_hist: LogHistogram::new(),
        });
        store.set_journal(Some(appender.clone()));
        Ok((
            DurableStore {
                store,
                backend,
                appender,
                config,
            },
            report,
        ))
    }

    /// The underlying shared store (give this to the engine and subsystems;
    /// every scalar write through it is journaled).
    pub fn store(&self) -> Arc<FeatureStore> {
        Arc::clone(&self.store)
    }

    /// The backing medium.
    pub fn backend(&self) -> Arc<dyn PersistBackend> {
        Arc::clone(&self.backend)
    }

    /// The last WAL sequence number assigned.
    pub fn seq(&self) -> u64 {
        self.appender.seq.load(Ordering::SeqCst)
    }

    /// `true` once any WAL append has failed (the store kept serving).
    pub fn append_failed(&self) -> bool {
        self.appender.append_failed.load(Ordering::Relaxed)
    }

    /// WAL frame bytes appended to the backend since open.
    pub fn wal_bytes_appended(&self) -> u64 {
        self.appender.bytes_appended.load(Ordering::Relaxed)
    }

    /// WAL frames (backend append calls) since open.
    pub fn wal_frames_appended(&self) -> u64 {
        self.appender.frames_appended.load(Ordering::Relaxed)
    }

    /// Distribution of records per appended frame (group-commit sizes).
    pub fn wal_group_hist(&self) -> &LogHistogram {
        &self.appender.group_hist
    }

    /// Records buffered for the next group frame but not yet durable.
    /// Always 0 when `group_commit <= 1`.
    pub fn pending_records(&self) -> usize {
        self.appender.pending.lock().len()
    }

    /// Forces the group-commit buffer out as one group frame. Hosts call
    /// this at natural durability points (end of a batch, before replying
    /// to a client). No-op when nothing is buffered.
    pub fn flush(&self) {
        self.appender.flush();
    }

    /// Folds the current scalar state into a snapshot and truncates the
    /// WAL. Crash-ordered: the snapshot lands before the truncate, and
    /// frames the snapshot already covers are skipped by seq on replay.
    pub fn compact(&self) -> Result<()> {
        // Flush the group buffer first so compaction maintains a single
        // invariant: every assigned sequence number is in the snapshot or
        // in the on-medium log, never parked in memory across a compact.
        self.appender.flush();
        let seq = self.seq();
        // Reserved telemetry keys are process-lifetime observations; they
        // never enter the WAL and must not enter snapshots either.
        let mut entries = self.store.scalars();
        entries.retain(|(key, _)| !is_reserved(key));
        let snapshot = Snapshot { seq, entries };
        self.backend.replace(Region::Snapshot, &snapshot.encode())?;
        // Records appended after `seq` was read must survive the truncate:
        // rewrite the WAL keeping only frames with seq > snapshot seq.
        let wal_bytes = self.backend.load(Region::Wal)?;
        let decoded = decode_stream(&wal_bytes);
        let mut keep = Vec::new();
        for record in &decoded.records {
            if record.seq > seq {
                keep.extend_from_slice(&encode_frame(record));
            }
        }
        self.backend.replace(Region::Wal, &keep)?;
        self.appender.since_compact.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// Compacts when the configured record budget has been reached. Call
    /// from the host's main loop. Returns `true` when a compaction ran.
    pub fn maybe_compact(&self) -> Result<bool> {
        if self.appender.since_compact.load(Ordering::Relaxed) < self.config.snapshot_every {
            return Ok(false);
        }
        self.compact()?;
        Ok(true)
    }

    /// Persists an encoded monitor-engine checkpoint blob.
    pub fn save_checkpoint(&self, bytes: &[u8]) -> Result<()> {
        self.backend.replace(Region::Checkpoint, bytes)
    }

    /// Loads the persisted engine checkpoint blob (empty = none saved).
    pub fn load_checkpoint(&self) -> Result<Vec<u8>> {
        self.backend.load(Region::Checkpoint)
    }
}

impl Drop for DurableStore {
    fn drop(&mut self) {
        // An orderly shutdown flushes the group buffer — only a real crash
        // (or `mem::forget`) loses the in-flight group.
        self.appender.flush();
        // Detach the journal so a store Arc that outlives this DurableStore
        // does not keep appending to a log nobody will compact.
        self.store.set_journal(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_mem(backend: &Arc<MemBackend>) -> (DurableStore, RecoveryReport) {
        let b: Arc<dyn PersistBackend> = backend.clone();
        DurableStore::open(b, DurabilityConfig::default()).unwrap()
    }

    #[test]
    fn state_survives_reopen() {
        let backend = Arc::new(MemBackend::new());
        {
            let (durable, report) = open_mem(&backend);
            assert_eq!(report, RecoveryReport::default());
            let store = durable.store();
            store.save("ml_enabled", 0.0);
            store.save("false_submit_rate", 0.07);
            store.incr("violations", 3.0);
        }
        let (durable, report) = open_mem(&backend);
        assert_eq!(report.wal_records_applied, 3);
        assert!(!report.tainted());
        let store = durable.store();
        assert_eq!(store.load("ml_enabled"), Some(0.0));
        assert_eq!(store.load("false_submit_rate"), Some(0.07));
        assert_eq!(
            store.load("violations"),
            Some(3.0),
            "incr journals post-state"
        );
    }

    #[test]
    fn compaction_preserves_state_and_shrinks_the_wal() {
        let backend = Arc::new(MemBackend::new());
        {
            let (durable, _) = open_mem(&backend);
            let store = durable.store();
            for i in 0..100 {
                store.save("x", f64::from(i));
            }
            let wal_before = backend.wal_len();
            durable.compact().unwrap();
            assert!(backend.wal_len() < wal_before);
            assert!(backend.snapshot_len() > 0);
            // Writes after compaction land in the (fresh) WAL.
            store.save("y", 5.0);
        }
        let (durable, report) = open_mem(&backend);
        assert_eq!(report.snapshot_entries, 1);
        assert_eq!(report.snapshot_seq, 100);
        assert_eq!(report.wal_records_applied, 1, "only the post-compact write");
        assert_eq!(durable.store().load("x"), Some(99.0));
        assert_eq!(durable.store().load("y"), Some(5.0));
        assert_eq!(durable.seq(), 101, "sequence continues across reopen");
    }

    #[test]
    fn torn_tail_loses_only_the_torn_record() {
        let backend = Arc::new(MemBackend::new());
        {
            let (durable, _) = open_mem(&backend);
            let store = durable.store();
            store.save("a", 1.0);
            store.save("b", 2.0);
        }
        backend.tear_wal_tail(5); // tear into the last frame
        {
            let (durable, report) = open_mem(&backend);
            assert!(report.torn_tail_bytes > 0, "this open finds the tear");
            assert!(!report.tainted(), "a torn tail is expected crash damage");
            let store = durable.store();
            assert_eq!(store.load("a"), Some(1.0));
            assert_eq!(store.load("b"), None, "torn record is dropped");
            // The open repaired the log back to the last clean frame
            // boundary; new appends resume from there.
            store.save("c", 3.0);
        }
        let (durable, report) = open_mem(&backend);
        assert_eq!(report.torn_tail_bytes, 0, "repaired by the previous open");
        assert_eq!(report.wal_records_applied, 2);
        assert_eq!(durable.store().load("c"), Some(3.0));
    }

    #[test]
    fn corrupt_snapshot_is_discarded_and_reported() {
        let backend = Arc::new(MemBackend::new());
        {
            let (durable, _) = open_mem(&backend);
            durable.store().save("a", 1.0);
            durable.compact().unwrap();
            durable.store().save("b", 2.0);
        }
        assert!(backend.corrupt_snapshot());
        let (durable, report) = open_mem(&backend);
        assert!(report.snapshot_corrupt);
        assert!(report.tainted());
        let store = durable.store();
        assert_eq!(store.load("a"), None, "snapshot state is lost, not garbled");
        assert_eq!(store.load("b"), Some(2.0), "WAL suffix still replays");
    }

    #[test]
    fn replay_is_quarantine_aware() {
        let backend = Arc::new(MemBackend::new());
        {
            let (durable, _) = open_mem(&backend);
            let store = durable.store();
            // The live quarantine is off (seed semantics): poison reaches
            // the WAL.
            store.set_quarantine(false);
            store.save("rate", 0.4);
            store.save("rate", f64::NAN);
        }
        let (durable, report) = open_mem(&backend);
        assert_eq!(report.wal_records_quarantined, 1);
        let store = durable.store();
        assert_eq!(store.load("rate"), Some(0.4), "replay drops the poison");
        assert_eq!(store.poison_count("rate"), 1);
    }

    #[test]
    fn crash_between_snapshot_and_truncate_is_idempotent() {
        let backend = Arc::new(MemBackend::new());
        {
            let (durable, _) = open_mem(&backend);
            let store = durable.store();
            store.save("k", 1.0);
            store.save("k", 2.0);
            // Simulate the torn compaction: snapshot written, WAL not yet
            // truncated.
            let snapshot = Snapshot {
                seq: durable.seq(),
                entries: store.scalars(),
            };
            backend
                .replace(Region::Snapshot, &snapshot.encode())
                .unwrap();
        }
        let (durable, report) = open_mem(&backend);
        assert_eq!(report.snapshot_seq, 2);
        assert_eq!(report.wal_records_skipped, 2, "overlap skipped by seq");
        assert_eq!(report.wal_records_applied, 0);
        assert_eq!(durable.store().load("k"), Some(2.0));
    }

    #[test]
    fn maybe_compact_honours_the_record_budget() {
        let backend = Arc::new(MemBackend::new());
        let b: Arc<dyn PersistBackend> = backend.clone();
        let (durable, _) = DurableStore::open(
            b,
            DurabilityConfig {
                snapshot_every: 10,
                ..DurabilityConfig::default()
            },
        )
        .unwrap();
        let store = durable.store();
        for i in 0..9 {
            store.save("x", f64::from(i));
        }
        assert!(!durable.maybe_compact().unwrap());
        store.save("x", 9.0);
        assert!(durable.maybe_compact().unwrap());
        assert!(!durable.maybe_compact().unwrap(), "budget reset");
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

    #[test]
    fn group_commit_coalesces_records_into_one_frame() {
        let backend = Arc::new(MemBackend::new());
        {
            let (durable, _) = open_grouped(&backend, 4);
            let store = durable.store();
            for (i, key) in ["a", "b", "c"].iter().enumerate() {
                store.save(key, i as f64);
            }
            assert_eq!(backend.wal_len(), 0, "below the group size: buffered");
            assert_eq!(durable.pending_records(), 3);
            store.save("d", 3.0);
            assert_eq!(durable.pending_records(), 0, "group size reached: flushed");
        }
        // One group frame is smaller than four single frames (one header and
        // one checksum instead of four).
        let singles: usize = (0..4)
            .map(|i| {
                encode_frame(&WalRecord {
                    seq: i + 1,
                    key: "a".to_string(),
                    value: 0.0,
                })
                .len()
            })
            .sum();
        assert!(backend.wal_len() < singles);
        let (durable, report) = open_grouped(&backend, 4);
        assert_eq!(report.wal_records_applied, 4);
        assert_eq!(durable.store().load("d"), Some(3.0));
    }

    #[test]
    fn orderly_shutdown_and_explicit_flush_drain_the_group_buffer() {
        let backend = Arc::new(MemBackend::new());
        {
            let (durable, _) = open_grouped(&backend, 8);
            let store = durable.store();
            store.save("a", 1.0);
            durable.flush();
            assert_eq!(durable.pending_records(), 0);
            let after_flush = backend.wal_len();
            store.save("b", 2.0);
            assert_eq!(backend.wal_len(), after_flush, "buffered again");
            // Drop without an explicit flush: the partial group still lands.
        }
        let (durable, report) = open_grouped(&backend, 8);
        assert_eq!(report.wal_records_applied, 2);
        assert_eq!(durable.store().load("b"), Some(2.0));
    }

    #[test]
    fn crash_mid_group_loses_the_whole_group_or_none() {
        let backend = Arc::new(MemBackend::new());
        {
            let (durable, _) = open_grouped(&backend, 3);
            let store = durable.store();
            store.save("a", 1.0);
            store.save("b", 2.0);
            store.save("c", 3.0); // first group flushes
            let boundary = backend.wal_len();
            store.save("d", 4.0);
            store.save("e", 5.0);
            store.save("f", 6.0); // second group flushes
                                  // Crash tears the append of the second group mid-frame.
            backend.tear_wal_tail(backend.wal_len() - boundary - 5);
        }
        let (durable, report) = open_grouped(&backend, 3);
        assert!(report.torn_tail_bytes > 0);
        assert!(!report.tainted(), "a torn group is expected crash damage");
        let store = durable.store();
        for (key, expect) in [("a", Some(1.0)), ("b", Some(2.0)), ("c", Some(3.0))] {
            assert_eq!(store.load(key), expect, "first group survives whole");
        }
        for key in ["d", "e", "f"] {
            assert_eq!(store.load(key), None, "second group lost whole");
        }
    }

    #[test]
    fn crash_before_flush_loses_the_buffered_group_atomically() {
        let backend = Arc::new(MemBackend::new());
        {
            let (durable, _) = open_grouped(&backend, 4);
            let store = durable.store();
            store.save("a", 1.0);
            store.save("b", 2.0);
            assert_eq!(durable.pending_records(), 2);
            // A real crash never runs Drop; model it by leaking the handle.
            std::mem::forget((durable, store));
        }
        assert_eq!(backend.wal_len(), 0, "nothing reached the medium");
        let (durable, report) = open_grouped(&backend, 4);
        assert_eq!(report.wal_records_applied, 0);
        assert_eq!(durable.store().load("a"), None);
        assert_eq!(durable.store().load("b"), None);
    }

    #[test]
    fn compaction_flushes_the_group_buffer_first() {
        let backend = Arc::new(MemBackend::new());
        {
            let (durable, _) = open_grouped(&backend, 8);
            durable.store().save("a", 1.0);
            assert_eq!(durable.pending_records(), 1);
            durable.compact().unwrap();
            assert_eq!(durable.pending_records(), 0);
        }
        let (durable, report) = open_grouped(&backend, 8);
        assert_eq!(report.snapshot_entries, 1);
        assert_eq!(durable.store().load("a"), Some(1.0));
    }

    #[test]
    fn group_size_one_is_byte_identical_to_the_ungrouped_appender() {
        let grouped = Arc::new(MemBackend::new());
        let plain = Arc::new(MemBackend::new());
        {
            let (g, _) = open_grouped(&grouped, 1);
            let (p, _) = open_mem(&plain);
            for (i, key) in ["x", "y", "z"].iter().enumerate() {
                g.store().save(key, i as f64);
                p.store().save(key, i as f64);
            }
        }
        assert_eq!(
            grouped.load(Region::Wal).unwrap(),
            plain.load(Region::Wal).unwrap()
        );
    }

    #[test]
    fn checkpoint_blob_round_trips() {
        let backend = Arc::new(MemBackend::new());
        let (durable, _) = open_mem(&backend);
        assert!(durable.load_checkpoint().unwrap().is_empty());
        durable.save_checkpoint(b"blob").unwrap();
        assert_eq!(durable.load_checkpoint().unwrap(), b"blob");
    }

    #[test]
    fn file_backend_round_trips() {
        let dir =
            std::env::temp_dir().join(format!("guardrails-durable-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let backend: Arc<dyn PersistBackend> = Arc::new(FileBackend::open(&dir).unwrap());
        {
            let (durable, _) =
                DurableStore::open(Arc::clone(&backend), DurabilityConfig::default()).unwrap();
            durable.store().save("k", 7.0);
            durable.compact().unwrap();
            durable.store().save("k", 8.0);
            durable.save_checkpoint(b"cp").unwrap();
        }
        let (durable, report) =
            DurableStore::open(Arc::clone(&backend), DurabilityConfig::default()).unwrap();
        assert_eq!(report.snapshot_entries, 1);
        assert_eq!(durable.store().load("k"), Some(8.0));
        assert_eq!(durable.load_checkpoint().unwrap(), b"cp");
        drop(durable);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropping_the_durable_store_detaches_the_journal() {
        let backend = Arc::new(MemBackend::new());
        let store = {
            let (durable, _) = open_mem(&backend);
            durable.store()
        };
        let wal_after_drop = backend.wal_len();
        store.save("orphan", 1.0);
        assert_eq!(backend.wal_len(), wal_after_drop, "no journal, no append");
    }
}
