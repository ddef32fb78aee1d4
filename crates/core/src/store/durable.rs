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
//!   atomically — the whole group or none of it). The appender assigns the
//!   sequence number and appends under one lock, writing the frame in
//!   place into a reused buffer, so **log order is sequence order** and it
//!   always knows the byte length of the log on the medium;
//! - [`DurableStore::compact`] folds the scalar state into a snapshot and
//!   cuts the WAL at the byte offset the snapshot covers, keeping the bytes
//!   after it verbatim; a crash between the two steps is harmless because
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
//!
//! Lock order: the compaction lock, then a key's slot lock, then the
//! appender's tail lock, then the backend's region lock.
//! [`DurableStore::compact`] never calls into the store while it holds the
//! tail lock. A journaled write takes only its slot lock, the tail lock and
//! (when a frame goes out) the backend's: the store finds the journal with
//! an atomic load, and [`DurableStore::maybe_compact`] reads the record
//! budget from an atomic, locking only when it compacts.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{GuardrailError, Result};
use crate::telemetry::is_reserved;

use super::snapshot::Snapshot;
use super::wal::{decode_stream, put_frame, put_record, WalStop};
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
/// An `append` that fails should leave the region as it was: the durable
/// store counts the WAL's length from the appends that succeeded. (It cuts
/// back what a failed WAL append left behind, and refuses to compact a log
/// whose length differs from that count, but a backend that restores the
/// region itself needs neither.)
pub trait PersistBackend: Send + Sync + std::fmt::Debug {
    /// Reads the full contents of `region` (empty if never written).
    fn load(&self, region: Region) -> Result<Vec<u8>>;
    /// Appends `bytes` to `region`.
    fn append(&self, region: Region, bytes: &[u8]) -> Result<()>;
    /// Atomically replaces the contents of `region` with `bytes`.
    fn replace(&self, region: Region, bytes: &[u8]) -> Result<()>;
    /// The length of `region` in bytes (0 if never written), without
    /// reading it.
    fn len(&self, region: Region) -> Result<usize>;
    /// Atomically drops the first `n` bytes of `region`, keeping the rest
    /// verbatim; fails, changing nothing, when the region is shorter. It
    /// costs what the kept bytes cost, not what the dropped ones do:
    /// compaction cuts the log with it.
    fn cut_front(&self, region: Region, n: usize) -> Result<()>;
    /// Drops every byte of `region` past its first `len`; a region no
    /// longer than that is left as it is. The durable store cuts back what
    /// a failed append left with it.
    fn truncate(&self, region: Region, len: usize) -> Result<()>;
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

    fn len(&self, region: Region) -> Result<usize> {
        Ok(self.region(region).lock().len())
    }

    fn cut_front(&self, region: Region, n: usize) -> Result<()> {
        let mut guard = self.region(region).lock();
        if n > guard.len() {
            return Err(cut_past_end(region, n, guard.len()));
        }
        guard.drain(..n);
        Ok(())
    }

    fn truncate(&self, region: Region, len: usize) -> Result<()> {
        self.region(region).lock().truncate(len);
        Ok(())
    }
}

/// The error for cutting `n` bytes from a region of `len`.
fn cut_past_end(region: Region, n: usize, len: usize) -> GuardrailError {
    GuardrailError::Persist(format!(
        "cannot cut {n} bytes from the {len}-byte {region:?} region"
    ))
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
        let before = file
            .metadata()
            .map_err(|e| GuardrailError::Persist(format!("stat {}: {e}", path.display())))?
            .len();
        file.write_all(bytes).map_err(|e| {
            // `write_all` may have written part of `bytes` (a full disk):
            // drop that part so the region is as it was.
            let _ = file.set_len(before);
            GuardrailError::Persist(format!("append {}: {e}", path.display()))
        })
    }

    fn replace(&self, region: Region, bytes: &[u8]) -> Result<()> {
        let _guard = self.append_lock.lock();
        self.write_renamed(region, bytes)
    }

    fn len(&self, region: Region) -> Result<usize> {
        let path = self.path(region);
        match std::fs::metadata(&path) {
            Ok(meta) => Ok(meta.len() as usize),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(GuardrailError::Persist(format!(
                "stat {}: {e}",
                path.display()
            ))),
        }
    }

    /// Reads only the bytes it keeps, and writes them to a temporary file
    /// renamed over the region, like `replace`.
    fn cut_front(&self, region: Region, n: usize) -> Result<()> {
        use std::io::{Read, Seek, SeekFrom};
        let _guard = self.append_lock.lock();
        let len = self.len(region)?;
        if n > len {
            return Err(cut_past_end(region, n, len));
        }
        let path = self.path(region);
        let io =
            |e: std::io::Error| GuardrailError::Persist(format!("cut {}: {e}", path.display()));
        let mut kept = Vec::with_capacity(len - n);
        if len > 0 {
            let mut file = std::fs::File::open(&path).map_err(io)?;
            file.seek(SeekFrom::Start(n as u64)).map_err(io)?;
            file.read_to_end(&mut kept).map_err(io)?;
        }
        self.write_renamed(region, &kept)
    }

    fn truncate(&self, region: Region, len: usize) -> Result<()> {
        let _guard = self.append_lock.lock();
        if self.len(region)? <= len {
            return Ok(());
        }
        let path = self.path(region);
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .and_then(|file| file.set_len(len as u64))
            .map_err(|e| GuardrailError::Persist(format!("truncate {}: {e}", path.display())))
    }
}

impl FileBackend {
    /// Writes `bytes` to a temporary file and renames it over `region`.
    fn write_renamed(&self, region: Region, bytes: &[u8]) -> Result<()> {
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
    /// Sequence assignment, buffering and appending, under one lock.
    tail: Mutex<Tail>,
    /// Records numbered since the last compaction's snapshot (or since
    /// open): [`DurableStore::maybe_compact`] compares it with its budget
    /// without taking the tail lock. Written only under the tail lock,
    /// wherever `Tail::seq` moves or a compaction lands; it publishes
    /// nothing else, so `Relaxed`.
    since_compaction: AtomicU64,
    /// Set when the owning [`DurableStore`] drops: later saves through a
    /// store handle that outlives it record nothing. Set under the tail
    /// lock and checked under it, so once the drop has set it no record
    /// reaches the backend; a save also checks it before locking, so an
    /// orphaned store does not take the tail lock.
    detached: AtomicBool,
    /// Set when an append fails; the store keeps serving (availability over
    /// durability for a *monitoring* substrate) but the failure is visible.
    append_failed: AtomicBool,
    /// Group-commit size (1 = append every record immediately).
    group_commit: usize,
}

/// The appender's mutable end of the log.
#[derive(Debug, Default)]
struct Tail {
    /// Last sequence number assigned (frames are 1-based).
    seq: u64,
    /// Reused buffer each frame is written into before its append.
    frame: Vec<u8>,
    /// Record payloads buffered for the next frame, back to back.
    group: Vec<u8>,
    /// How many records `group` holds.
    grouped: usize,
    /// Bytes of WAL on the medium: always a frame boundary, advanced only
    /// by an append that succeeded.
    logged: usize,
}

impl WalAppender {
    /// Appends the buffered records as one frame (a plain frame for one
    /// record, a group frame for more). No-op when nothing is buffered.
    fn flush(&self, tail: &mut Tail) {
        if tail.grouped == 0 {
            return;
        }
        tail.frame.clear();
        put_frame(&mut tail.frame, tail.grouped, &tail.group);
        tail.group.clear();
        tail.grouped = 0;
        match self.backend.append(Region::Wal, &tail.frame) {
            Ok(()) => tail.logged += tail.frame.len(),
            Err(_) => {
                self.append_failed.store(true, Ordering::Relaxed);
                // The failed append may have written part of the frame: cut
                // the log back to its last whole frame, or later frames would
                // land behind the stray bytes and be lost at the next open.
                // If this fails too, `compact` sees the length mismatch and
                // refuses to cut.
                let _ = self.backend.truncate(Region::Wal, tail.logged);
            }
        }
    }
}

impl std::fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableStore")
            .field("seq", &self.seq())
            .finish()
    }
}

impl SaveJournal for WalAppender {
    fn record_save(&self, key: &str, value: f64) {
        if self.detached.load(Ordering::Relaxed) {
            return;
        }
        // Numbering and appending under one lock puts frames in the log in
        // sequence order, whichever thread writes.
        let mut guard = self.tail.lock();
        let tail = &mut *guard;
        if self.detached.load(Ordering::Relaxed) {
            return;
        }
        // A log whose last frame is numbered `u64::MAX` has no number left:
        // fail this append as a backend error would, rather than wrap to a
        // number the next open skips as covered by the snapshot.
        let Some(seq) = tail.seq.checked_add(1) else {
            self.append_failed.store(true, Ordering::Relaxed);
            return;
        };
        tail.seq = seq;
        let since = self.since_compaction.load(Ordering::Relaxed);
        self.since_compaction.store(since + 1, Ordering::Relaxed);
        put_record(&mut tail.group, tail.seq, key, value);
        tail.grouped += 1;
        if tail.grouped >= self.group_commit {
            self.flush(tail);
        }
    }
}

/// A [`FeatureStore`] whose scalar state survives crashes.
pub struct DurableStore {
    store: Arc<FeatureStore>,
    backend: Arc<dyn PersistBackend>,
    appender: Arc<WalAppender>,
    config: DurabilityConfig,
    /// Held for a whole compaction: two at once could land their snapshots
    /// in the other order, or cut the log at an offset the other already
    /// moved.
    compacting: Mutex<()>,
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
            tail: Mutex::new(Tail {
                seq: max_seq,
                logged: decoded.valid_len,
                ..Tail::default()
            }),
            since_compaction: AtomicU64::new(0),
            detached: AtomicBool::new(false),
            append_failed: AtomicBool::new(false),
            group_commit: config.group_commit.max(1),
        });
        store.attach_journal(appender.clone())?;
        Ok((
            DurableStore {
                store,
                backend,
                appender,
                config,
                compacting: Mutex::new(()),
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
        self.appender.tail.lock().seq
    }

    /// `true` once any WAL append has failed (the store kept serving).
    pub fn append_failed(&self) -> bool {
        self.appender.append_failed.load(Ordering::Relaxed)
    }

    /// Records buffered for the next group frame but not yet durable.
    /// Always 0 when `group_commit <= 1`.
    pub fn pending_records(&self) -> usize {
        self.appender.tail.lock().grouped
    }

    /// Forces the group-commit buffer out as one group frame. Hosts call
    /// this at natural durability points (end of a batch, before replying
    /// to a client). No-op when nothing is buffered.
    pub fn flush(&self) {
        self.appender.flush(&mut self.appender.tail.lock());
    }

    /// Folds the current scalar state into a snapshot and cuts the WAL at
    /// the byte offset the snapshot covers.
    ///
    /// 1. Under the tail lock: flush the group buffer, so every assigned
    ///    sequence number has been appended, and read the last sequence
    ///    number and the log's length — the *cut*. Log order is sequence
    ///    order, so every frame before the cut holds a record the snapshot
    ///    covers and every frame after it one it does not.
    /// 2. Without it: read the scalars and write the snapshot. Writes that
    ///    land meanwhile are applied to the store and appended after the
    ///    cut; replaying them over the snapshot is idempotent.
    /// 3. Under the tail lock again: check that the WAL is as long as the
    ///    appends wrote it, then drop its bytes up to the cut
    ///    ([`PersistBackend::cut_front`]), which copies only the bytes after
    ///    it and reads none before it. Holding the lock from the length
    ///    check to the cut means no append can land in between and be
    ///    overwritten.
    ///
    /// Crash-ordered: the snapshot lands before the cut, and frames the
    /// snapshot already covers are skipped by seq on replay. Nothing is
    /// decoded or re-checksummed, so the bytes after the cut are kept
    /// verbatim: damage there (say, bytes a failed append left behind) is
    /// still found and reported by the next [`DurableStore::open`] rather
    /// than dropped here without a word.
    ///
    /// Fails without cutting when the WAL's length is not the one the
    /// successful appends add up to (bytes some failed append left and the
    /// appender could not cut back, or a writer other than this store): a
    /// cut at the counted offset would no longer fall on a frame boundary.
    pub fn compact(&self) -> Result<()> {
        let _compacting = self.compacting.lock();
        let (seq, cut) = {
            let mut tail = self.appender.tail.lock();
            self.appender.flush(&mut tail);
            (tail.seq, tail.logged)
        };
        // Reserved telemetry keys are process-lifetime observations; they
        // never enter the WAL and must not enter snapshots either.
        let mut entries = self.store.scalars();
        entries.retain(|(key, _)| !is_reserved(key));
        let snapshot = Snapshot { seq, entries };
        self.backend.replace(Region::Snapshot, &snapshot.encode())?;
        let mut tail = self.appender.tail.lock();
        let len = self.backend.len(Region::Wal)?;
        if len != tail.logged {
            return Err(GuardrailError::Persist(format!(
                "WAL holds {len} bytes, not the {} appended to it; not cutting",
                tail.logged
            )));
        }
        self.backend.cut_front(Region::Wal, cut)?;
        tail.logged -= cut;
        self.appender
            .since_compaction
            .store(tail.seq - seq, Ordering::Relaxed);
        Ok(())
    }

    /// Compacts when the configured record budget has been reached. Call
    /// from the host's main loop. Returns `true` when a compaction ran.
    /// Below the budget it takes no lock.
    pub fn maybe_compact(&self) -> Result<bool> {
        let since = self.appender.since_compaction.load(Ordering::Relaxed);
        if since < self.config.snapshot_every {
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
        // (or `mem::forget`) loses the in-flight group. Detaching under the
        // same lock means a store Arc that outlives this DurableStore
        // appends nothing more to a log nobody will compact. Such a store
        // still holds the appender (its journal is set once), so its saves
        // keep the journaled path and return at the `detached` check.
        let mut tail = self.appender.tail.lock();
        self.appender.flush(&mut tail);
        self.appender.detached.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::wal::{encode_frame, WalRecord};
    use proptest::collection::vec;
    use proptest::prelude::*;

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
    fn compaction_refuses_a_log_it_did_not_write() {
        let backend = Arc::new(MemBackend::new());
        let (durable, _) = open_mem(&backend);
        let store = durable.store();
        store.save("a", 1.0);
        // Bytes this store never appended (say, what a failed append left
        // and could not cut back), then one more frame: the counted length
        // now ends inside that frame.
        backend.append(Region::Wal, b"junk").unwrap();
        store.save("b", 2.0);
        let wal = backend.load(Region::Wal).unwrap();
        assert!(durable.compact().is_err());
        assert_eq!(backend.load(Region::Wal).unwrap(), wal, "nothing cut");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `maybe_compact` compacts at exactly the records where a model
        /// counting journaled writes since the last compaction says it is
        /// due, with and without group commit.
        #[test]
        fn maybe_compact_triggers_where_a_model_says(
            grouped in any::<bool>(),
            budget in 1u64..24,
            ops in vec(0u8..12, 1..400),
        ) {
            let backend = Arc::new(MemBackend::new());
            let b: Arc<dyn PersistBackend> = backend.clone();
            let config = DurabilityConfig {
                snapshot_every: budget,
                group_commit: if grouped { 8 } else { 1 },
            };
            let (durable, _) = DurableStore::open(b, config).unwrap();
            let store = durable.store();
            // The model: journaled writes so far, and how many of them the
            // last compaction covered.
            let mut journaled = 0u64;
            let mut compacted = 0u64;
            for (i, op) in ops.into_iter().enumerate() {
                match op {
                    0..=3 => {
                        store.save("k", i as f64);
                        journaled += 1;
                    }
                    4 => {
                        store.incr("n", 1.0);
                        journaled += 1;
                    }
                    // Neither a quarantined value nor a reserved key is
                    // journaled, so neither counts.
                    5 => store.save("k", f64::NAN),
                    6 => store.save("__telemetry/x", 1.0),
                    7 => durable.flush(),
                    8 => {
                        durable.compact().unwrap();
                        compacted = journaled;
                    }
                    _ => {
                        let due = journaled - compacted >= budget;
                        prop_assert_eq!(durable.maybe_compact().unwrap(), due);
                        if due {
                            compacted = journaled;
                            let snapshot = backend.load(Region::Snapshot).unwrap();
                            prop_assert_eq!(Snapshot::decode(&snapshot).unwrap().seq, journaled);
                        }
                    }
                }
                prop_assert_eq!(durable.seq(), journaled);
            }
        }
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

    /// `len`, `cut_front` and `truncate` on both backends: what they keep
    /// is what slicing the loaded region keeps.
    #[test]
    fn backends_measure_cut_and_truncate_regions() {
        let dir = std::env::temp_dir().join(format!(
            "guardrails-durable-cut-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let backends: [Arc<dyn PersistBackend>; 2] = [
            Arc::new(MemBackend::new()),
            Arc::new(FileBackend::open(&dir).unwrap()),
        ];
        for backend in backends {
            let case = format!("{backend:?}");
            assert_eq!(backend.len(Region::Wal).unwrap(), 0, "{case}");
            backend.cut_front(Region::Wal, 0).unwrap();
            backend.truncate(Region::Wal, 5).unwrap();
            backend.append(Region::Wal, b"0123456789").unwrap();
            assert_eq!(backend.len(Region::Wal).unwrap(), 10, "{case}");
            assert!(backend.cut_front(Region::Wal, 11).is_err(), "{case}");
            assert_eq!(backend.load(Region::Wal).unwrap(), b"0123456789");
            backend.cut_front(Region::Wal, 3).unwrap();
            assert_eq!(backend.load(Region::Wal).unwrap(), b"3456789", "{case}");
            backend.truncate(Region::Wal, 9).unwrap();
            backend.truncate(Region::Wal, 4).unwrap();
            assert_eq!(backend.load(Region::Wal).unwrap(), b"3456", "{case}");
            backend.append(Region::Wal, b"ab").unwrap();
            backend.cut_front(Region::Wal, 6).unwrap();
            assert_eq!(backend.len(Region::Wal).unwrap(), 0, "{case}");
            assert_eq!(backend.len(Region::Snapshot).unwrap(), 0, "{case}");
        }
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
