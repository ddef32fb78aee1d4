//! The global feature store (§4.3 of the paper).
//!
//! Guardrails need system-wide metrics aggregated "over time or across many
//! function invocations"; relying on local variables would force logic to be
//! replicated across guardrail instances. The feature store is the shared,
//! lightweight alternative: a flat key space accessed via `SAVE(key, value)`
//! and `LOAD(key)` from specs, plus `record`/`incr`/EWMA/histogram entry
//! points for instrumented kernel code.
//!
//! Every key is interned once into a [`Slot`], a stable handle to that key's
//! cell. Monitors bind their programs' keys to slots when they are
//! installed, the way an eBPF program's map references are resolved at load
//! time, so a `LOAD` on the hot path is one atomic read and never hashes a
//! string. The string API interns (or looks up) the key and then performs
//! the same slot operation. The store is internally locked, per slot, so
//! subsystem simulations (writers) and monitors (readers) can share one
//! `Arc<FeatureStore>`.

pub mod durable;
pub mod ewma;
pub mod fxhash;
pub mod histogram;
pub mod snapshot;
pub mod wal;
pub mod window;

use std::borrow::Borrow;
use std::collections::HashSet;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};
use simkernel::Nanos;

use crate::error::{GuardrailError, Result};
use crate::spec::ast::AggKind;
use ewma::Ewma;
use fxhash::FxBuildHasher;
use histogram::Histogram;
use window::WindowSeries;

/// Write-ahead journal hook: invoked for every *accepted* scalar write,
/// under the key's slot lock and before the write is applied, so the
/// journal order matches the apply order and a crash after the journal
/// append but before the apply loses nothing (replay re-applies it).
///
/// Frames record post-state (`key = value`), never deltas, so replay is
/// idempotent. The default store has no journal; the durable store
/// ([`durable::DurableStore`]) attaches its WAL appender here, once.
pub trait SaveJournal: Send + Sync + std::fmt::Debug {
    /// Records that `key` is about to hold `value`.
    fn record_save(&self, key: &str, value: f64);
}

/// The bit pattern a slot's `LOAD` cell holds while the key reads as
/// absent: a signalling NaN, which no arithmetic produces. A value that
/// carries exactly this payload is stored as the quiet NaN instead.
const ABSENT: u64 = 0x7FF0_0000_0000_0001;

#[derive(Debug)]
enum Entry {
    /// Interned but never written (or removed).
    Absent,
    Scalar(f64),
    Series(WindowSeries),
    Ewma(Ewma),
    Histogram(Histogram),
}

impl Entry {
    /// What `LOAD` reads: a scalar's value, a series' most recent sample,
    /// an EWMA's current value, a histogram's count.
    fn load(&self) -> Option<f64> {
        match self {
            Entry::Absent => None,
            Entry::Scalar(v) => Some(*v),
            Entry::Series(s) => s.last(),
            Entry::Ewma(e) => Some(e.value()),
            Entry::Histogram(h) => Some(h.count() as f64),
        }
    }
}

#[derive(Debug)]
struct SlotCell {
    key: Box<str>,
    /// Whether accepted writes reach the journal: reserved `__telemetry/`
    /// keys are process-lifetime observations and never do. Fixed when the
    /// key is interned.
    journaled: bool,
    /// The entry's [`Entry::load`] as f64 bits ([`ABSENT`] for `None`).
    /// Stored (Release) only while `entry` is locked and read (Acquire)
    /// without it, so `LOAD` takes no lock; the pairing makes a reader that
    /// sees a write also see every store write its writer made before it.
    loaded: AtomicU64,
    /// Non-finite `SAVE`s to this key that quarantine dropped.
    poisoned: AtomicU64,
    /// Accepted scalar writes (`save`/`incr`) to this key. Counted per key
    /// so writers to different keys share no counter; only written while
    /// `entry` is locked.
    saves: AtomicU64,
    /// The entry itself; this lock serialises every write to the key.
    entry: Mutex<Entry>,
}

impl SlotCell {
    /// Counts an accepted scalar write. The caller holds `entry`'s lock,
    /// which serialises every writer of `saves`, so a plain load and store
    /// cannot lose a count and needs no locked read-modify-write.
    #[inline]
    fn count_save(&self) {
        let saves = self.saves.load(Ordering::Relaxed);
        self.saves.store(saves + 1, Ordering::Relaxed);
    }

    /// Refreshes the lock-free `LOAD` cell from the (locked) entry.
    #[inline]
    fn publish(&self, entry: &Entry) {
        let bits = match entry.load() {
            None => ABSENT,
            Some(v) if v.to_bits() == ABSENT => f64::NAN.to_bits(),
            Some(v) => v.to_bits(),
        };
        self.loaded.store(bits, Ordering::Release);
    }
}

/// A key interned in a [`FeatureStore`]: a cheap, cloneable handle to the
/// key's cell, valid for the store's lifetime.
///
/// Reads go through the handle directly; writes go through the store that
/// interned it ([`FeatureStore::save_slot`] and friends), which owns the
/// quarantine, journal and series-bound settings. Interning creates no
/// entry: an unwritten slot reads as absent and is not listed by
/// [`FeatureStore::keys`].
///
/// # Examples
///
/// ```
/// use guardrails::FeatureStore;
///
/// let store = FeatureStore::new();
/// let rate = store.slot("false_submit_rate");
/// assert_eq!(rate.load(), None);
/// assert!(store.is_empty(), "interning is not a write");
/// store.save_slot(&rate, 0.02);
/// assert_eq!(rate.load(), Some(0.02));
/// assert_eq!(store.load("false_submit_rate"), Some(0.02));
/// ```
#[derive(Clone, Debug)]
pub struct Slot(Arc<SlotCell>);

impl Slot {
    fn new(key: &str) -> Self {
        Slot(Arc::new(SlotCell {
            key: key.into(),
            journaled: !crate::telemetry::is_reserved(key),
            loaded: AtomicU64::new(ABSENT),
            poisoned: AtomicU64::new(0),
            saves: AtomicU64::new(0),
            entry: Mutex::new(Entry::Absent),
        }))
    }

    /// The interned key.
    pub fn key(&self) -> &str {
        &self.0.key
    }

    /// `LOAD`: one atomic read. Scalars read their value, series their most
    /// recent sample, EWMAs their current value, histograms their count;
    /// absent keys read `None` (the VM treats that as 0, keeping rules
    /// total).
    #[inline]
    pub fn load(&self) -> Option<f64> {
        let bits = self.0.loaded.load(Ordering::Acquire);
        (bits != ABSENT).then(|| f64::from_bits(bits))
    }

    /// Reads the slot as a boolean flag: absent or zero is `false`.
    #[inline]
    pub fn flag(&self) -> bool {
        self.load().is_some_and(|v| v != 0.0)
    }

    /// A windowed aggregate over the series; 0 for absent or non-series
    /// entries.
    pub fn aggregate(&self, kind: AggKind, window: Nanos, now: Nanos) -> f64 {
        match &*self.0.entry.lock() {
            Entry::Series(s) => s.aggregate(kind, window, now),
            _ => 0.0,
        }
    }

    /// A windowed quantile over the series; 0 for absent or non-series
    /// entries.
    pub fn quantile(&self, q: f64, window: Nanos, now: Nanos) -> f64 {
        match &*self.0.entry.lock() {
            Entry::Series(s) => s.quantile(q, window, now),
            _ => 0.0,
        }
    }

    /// The EWMA's value; 0 for absent or non-EWMA entries.
    pub fn ewma(&self) -> f64 {
        match &*self.0.entry.lock() {
            Entry::Ewma(e) => e.value(),
            _ => 0.0,
        }
    }

    /// The histogram's `q`-quantile; 0 for absent or non-histogram entries.
    pub fn hist_quantile(&self, q: f64) -> f64 {
        match &*self.0.entry.lock() {
            Entry::Histogram(h) => h.quantile(q),
            _ => 0.0,
        }
    }

    /// How many non-finite writes to this key have been quarantined.
    pub fn poison_count(&self) -> u64 {
        self.0.poisoned.load(Ordering::Relaxed)
    }

    /// Whether the key currently holds an entry (of any kind).
    fn present(&self) -> bool {
        !matches!(*self.0.entry.lock(), Entry::Absent)
    }
}

/// Intern-index stripes. The string API looks every key up in the index,
/// so keys on different stripes take different locks and disjoint-key
/// callers on different cores do not share one lock's cache line.
const INDEX_STRIPES: usize = 16;

type Index = HashSet<Interned, FxBuildHasher>;

/// An intern-index member: a slot hashed and compared by its key, so the
/// index looks slots up by `&str` without storing the key twice.
#[derive(Debug)]
struct Interned(Slot);

impl Borrow<str> for Interned {
    fn borrow(&self) -> &str {
        self.0.key()
    }
}

impl Hash for Interned {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.key().hash(state);
    }
}

impl PartialEq for Interned {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}

impl Eq for Interned {}

/// The global feature store.
///
/// Keys are flat strings (`false_submit_rate`, `sched.wait_p99`, ...). Each
/// key holds one entry kind — scalar, windowed series, EWMA, or histogram —
/// determined by the first operation that touches it. `SAVE` always coerces
/// the key to a scalar (last-writer-wins, like the paper's Listing 2 flag
/// `ml_enabled`); structured entries are never silently coerced by reads.
///
/// # Examples
///
/// ```
/// use guardrails::FeatureStore;
/// use guardrails::spec::ast::AggKind;
/// use simkernel::Nanos;
///
/// let store = FeatureStore::new();
/// store.save("ml_enabled", 1.0);
/// assert_eq!(store.load("ml_enabled"), Some(1.0));
/// store.record("lat", Nanos::from_secs(1), 100.0);
/// store.record("lat", Nanos::from_secs(2), 300.0);
/// let avg = store.aggregate(AggKind::Avg, "lat", Nanos::from_secs(10), Nanos::from_secs(2));
/// assert_eq!(avg, 200.0);
/// ```
#[derive(Debug)]
pub struct FeatureStore {
    /// Every interned key, striped by [`FeatureStore::stripe`]. Slots are
    /// never dropped from the index, so a handle stays bound to the key's
    /// one cell for the store's lifetime.
    index: [RwLock<Index>; INDEX_STRIPES],
    series_retention: Nanos,
    series_max_samples: usize,
    /// When set (the default), non-finite `SAVE`s are quarantined instead
    /// of written: a poisoned model output must not propagate into every
    /// rule that `LOAD`s the key (NaN comparisons are all-false, which
    /// would silently disarm the guardrails reading it).
    quarantine: AtomicBool,
    poisoned_total: AtomicU64,
    /// Optional write-ahead journal, called for accepted scalar writes.
    /// Set at most once, so a write finds it with one atomic load and no
    /// lock; a journal that must stop recording (the durable store's, on
    /// drop) turns itself off.
    journal: OnceLock<Arc<dyn SaveJournal>>,
}

impl Default for FeatureStore {
    fn default() -> Self {
        Self::new()
    }
}

impl FeatureStore {
    /// Creates a store with default series bounds.
    pub fn new() -> Self {
        Self::with_series_bounds(
            WindowSeries::DEFAULT_RETENTION,
            WindowSeries::DEFAULT_MAX_SAMPLES,
        )
    }

    /// Creates a store whose auto-created series use the given bounds.
    pub fn with_series_bounds(retention: Nanos, max_samples: usize) -> Self {
        FeatureStore {
            index: std::array::from_fn(|_| RwLock::default()),
            series_retention: retention,
            series_max_samples: max_samples,
            quarantine: AtomicBool::new(true),
            poisoned_total: AtomicU64::new(0),
            journal: OnceLock::new(),
        }
    }

    /// Attaches the write-ahead journal hook; a store takes one journal for
    /// its lifetime, so a second attach fails, and it is never released: a
    /// store that outlives a [`durable::DurableStore`]
    /// keeps its detached appender and the journaled write path. See
    /// [`SaveJournal`] for the ordering contract.
    pub fn attach_journal(&self, journal: Arc<dyn SaveJournal>) -> Result<()> {
        self.journal
            .set(journal)
            .map_err(|_| GuardrailError::Config("the store already has a journal".into()))
    }

    /// The index stripe holding `key`: bits 52–55 of its Fx hash, which
    /// the stripe's own table uses neither for bucket selection (low bits)
    /// nor for its control tags (top 7 bits).
    fn stripe(&self, key: &str) -> &RwLock<Index> {
        let hash = FxBuildHasher::default().hash_one(key);
        &self.index[(hash >> 52) as usize % INDEX_STRIPES]
    }

    /// Returns `key`'s slot if the key was ever interned.
    fn lookup(&self, key: &str) -> Option<Slot> {
        self.stripe(key)
            .read()
            .get(key)
            .map(|interned| interned.0.clone())
    }

    /// Interns `key`, returning its slot. Interning never creates an entry:
    /// the slot reads as absent until something writes it.
    pub fn slot(&self, key: &str) -> Slot {
        self.lookup(key).unwrap_or_else(|| self.intern(key))
    }

    /// Interns each of `keys` (a compiled program's key table), in order.
    pub fn bind(&self, keys: &[String]) -> Box<[Slot]> {
        keys.iter().map(|key| self.intern(key)).collect()
    }

    /// Returns `key`'s slot under its stripe's write lock, adding it if
    /// absent.
    fn intern(&self, key: &str) -> Slot {
        let mut stripe = self.stripe(key).write();
        if let Some(interned) = stripe.get(key) {
            return interned.0.clone();
        }
        let slot = Slot::new(key);
        stripe.insert(Interned(slot.clone()));
        slot
    }

    /// Whether the string API may run a slot operation under the stripe's
    /// read lock. Only with no journal attached: then a slot lock is held
    /// just for an in-memory update. A journaled writer holds its slot lock
    /// across an append, and an interner waiting for the stripe's write
    /// lock holds back new readers, so waiting for that slot lock under the
    /// stripe lock would queue every caller of the stripe behind the
    /// append; with a journal the operation clones the handle out first.
    #[inline]
    fn under_stripe(&self) -> bool {
        self.journal.get().is_none()
    }

    /// Runs `f` on `key`'s slot if the key was ever interned (the string
    /// API's read path: reading never interns).
    fn read_slot<R>(&self, key: &str, f: impl FnOnce(&Slot) -> R) -> Option<R> {
        if self.under_stripe() {
            self.stripe(key)
                .read()
                .get(key)
                .map(|interned| f(&interned.0))
        } else {
            self.lookup(key).map(|slot| f(&slot))
        }
    }

    /// Runs `f` on `key`'s slot, interning it first if needed (the string
    /// API's write path).
    fn write_slot<R>(&self, key: &str, f: impl FnOnce(&Slot) -> R) -> R {
        if self.under_stripe() {
            if let Some(interned) = self.stripe(key).read().get(key) {
                return f(&interned.0);
            }
        }
        f(&self.slot(key))
    }

    /// Every interned slot, in no particular order.
    fn interned(&self) -> Vec<Slot> {
        self.index
            .iter()
            .flat_map(|stripe| {
                stripe
                    .read()
                    .iter()
                    .map(|interned| interned.0.clone())
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Journals an accepted scalar write; the caller holds the slot lock.
    #[inline]
    fn journal(&self, cell: &SlotCell, value: f64) {
        if cell.journaled {
            if let Some(journal) = self.journal.get() {
                journal.record_save(&cell.key, value);
            }
        }
    }

    /// Accepted scalar writes (`save`/`incr`) so far, summed over the keys
    /// (the telemetry publisher reads it once per publish).
    pub fn saves_total(&self) -> u64 {
        self.interned()
            .iter()
            .map(|slot| slot.0.saves.load(Ordering::Relaxed))
            .sum()
    }

    /// `SAVE` through a slot: writes a scalar, replacing any existing entry.
    ///
    /// Non-finite values (`NaN`, `±inf`) are quarantined while quarantine is
    /// enabled (the default): the write is dropped, the previous value — if
    /// any — survives, and the key's poison counter is incremented so
    /// monitors can watch `poison_count` for a misbehaving producer.
    pub fn save_slot(&self, slot: &Slot, value: f64) {
        let cell = &*slot.0;
        if !value.is_finite() && self.quarantine.load(Ordering::Relaxed) {
            cell.poisoned.fetch_add(1, Ordering::Relaxed);
            self.poisoned_total.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut entry = cell.entry.lock();
        self.journal(cell, value);
        cell.count_save();
        *entry = Entry::Scalar(value);
        cell.publish(&entry);
    }

    /// `SAVE(key, value)`: [`FeatureStore::save_slot`] by name.
    pub fn save(&self, key: &str, value: f64) {
        self.write_slot(key, |slot| self.save_slot(slot, value));
    }

    /// Enables or disables the non-finite `SAVE` quarantine (on by default;
    /// disabling it models the unhardened runtime in fault experiments).
    pub fn set_quarantine(&self, enabled: bool) {
        self.quarantine.store(enabled, Ordering::Relaxed);
    }

    /// Whether non-finite `SAVE`s are currently quarantined.
    pub fn quarantine_enabled(&self) -> bool {
        self.quarantine.load(Ordering::Relaxed)
    }

    /// How many non-finite writes to `key` have been quarantined.
    pub fn poison_count(&self, key: &str) -> u64 {
        self.read_slot(key, Slot::poison_count).unwrap_or(0)
    }

    /// Total quarantined writes across all keys.
    pub fn poisoned_total(&self) -> u64 {
        self.poisoned_total.load(Ordering::Relaxed)
    }

    /// `LOAD(key)`: [`Slot::load`] by name.
    pub fn load(&self, key: &str) -> Option<f64> {
        self.read_slot(key, Slot::load).flatten()
    }

    /// Reads `key` as a boolean flag: absent or zero is `false`.
    pub fn flag(&self, key: &str) -> bool {
        self.load(key).is_some_and(|v| v != 0.0)
    }

    /// Atomically increments the slot's scalar by `by` (creating it at 0),
    /// returning the new value. Counting into a structured entry replaces
    /// it; mixed usage of one key is a spec bug, and scalar-wins keeps it
    /// visible. The journal sees the post-state before it is applied
    /// (write-ahead ordering); post-state frames keep replay idempotent
    /// even for counters.
    pub fn incr_slot(&self, slot: &Slot, by: f64) -> f64 {
        let cell = &*slot.0;
        let mut entry = cell.entry.lock();
        cell.count_save();
        let new = match *entry {
            Entry::Scalar(v) => v + by,
            _ => by,
        };
        self.journal(cell, new);
        *entry = Entry::Scalar(new);
        cell.publish(&entry);
        new
    }

    /// [`FeatureStore::incr_slot`] by name.
    pub fn incr(&self, key: &str, by: f64) -> f64 {
        self.write_slot(key, |slot| self.incr_slot(slot, by))
    }

    /// `RECORD` through a slot: appends a timestamped sample to a windowed
    /// series (creating it with the store's default bounds).
    pub fn record_slot(&self, slot: &Slot, now: Nanos, value: f64) {
        let cell = &*slot.0;
        let mut entry = cell.entry.lock();
        match &mut *entry {
            Entry::Series(s) => s.push(now, value),
            other => {
                let mut s = WindowSeries::new(self.series_retention, self.series_max_samples);
                s.push(now, value);
                *other = Entry::Series(s);
            }
        }
        cell.publish(&entry);
    }

    /// `RECORD(key, value)`: [`FeatureStore::record_slot`] by name.
    pub fn record(&self, key: &str, now: Nanos, value: f64) {
        self.write_slot(key, |slot| self.record_slot(slot, now, value));
    }

    /// [`Slot::aggregate`] by name; 0 for keys never interned.
    pub fn aggregate(&self, kind: AggKind, key: &str, window: Nanos, now: Nanos) -> f64 {
        self.read_slot(key, |slot| slot.aggregate(kind, window, now))
            .unwrap_or(0.0)
    }

    /// [`Slot::quantile`] by name; 0 for keys never interned.
    pub fn quantile(&self, key: &str, q: f64, window: Nanos, now: Nanos) -> f64 {
        self.read_slot(key, |slot| slot.quantile(q, window, now))
            .unwrap_or(0.0)
    }

    /// Updates the slot's EWMA with smoothing `alpha` (creating it).
    pub fn ewma_update_slot(&self, slot: &Slot, value: f64, alpha: f64) {
        let cell = &*slot.0;
        let mut entry = cell.entry.lock();
        match &mut *entry {
            Entry::Ewma(e) => e.update(value),
            other => {
                let mut e = Ewma::new(alpha);
                e.update(value);
                *other = Entry::Ewma(e);
            }
        }
        cell.publish(&entry);
    }

    /// [`FeatureStore::ewma_update_slot`] by name.
    pub fn ewma_update(&self, key: &str, value: f64, alpha: f64) {
        self.write_slot(key, |slot| self.ewma_update_slot(slot, value, alpha));
    }

    /// [`Slot::ewma`] by name; 0 for keys never interned.
    pub fn ewma(&self, key: &str) -> f64 {
        self.read_slot(key, Slot::ewma).unwrap_or(0.0)
    }

    /// Records a value into the slot's histogram (creating it).
    pub fn hist_observe_slot(&self, slot: &Slot, value: f64) {
        let cell = &*slot.0;
        let mut entry = cell.entry.lock();
        match &mut *entry {
            Entry::Histogram(h) => h.observe(value),
            other => {
                let mut h = Histogram::new();
                h.observe(value);
                *other = Entry::Histogram(h);
            }
        }
        cell.publish(&entry);
    }

    /// [`FeatureStore::hist_observe_slot`] by name.
    pub fn hist_observe(&self, key: &str, value: f64) {
        self.write_slot(key, |slot| self.hist_observe_slot(slot, value));
    }

    /// [`Slot::hist_quantile`] by name; 0 for keys never interned.
    pub fn hist_quantile(&self, key: &str, q: f64) -> f64 {
        self.read_slot(key, |slot| slot.hist_quantile(q))
            .unwrap_or(0.0)
    }

    /// Removes the slot's entry, returning `true` if it existed. The slot
    /// stays interned (and bound handles stay valid); it reads as absent.
    pub fn remove_slot(&self, slot: &Slot) -> bool {
        let cell = &*slot.0;
        let mut entry = cell.entry.lock();
        let existed = !matches!(*entry, Entry::Absent);
        *entry = Entry::Absent;
        cell.publish(&entry);
        existed
    }

    /// [`FeatureStore::remove_slot`] by name.
    pub fn remove(&self, key: &str) -> bool {
        self.read_slot(key, |slot| self.remove_slot(slot))
            .unwrap_or(false)
    }

    /// Number of keys currently holding an entry.
    pub fn len(&self) -> usize {
        self.interned().iter().filter(|slot| slot.present()).count()
    }

    /// Returns `true` when no key holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the scalar entries, sorted by key: the durable state a
    /// snapshot folds in (series/EWMA/histogram entries are derived,
    /// process-lifetime telemetry and are not persisted).
    pub fn scalars(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = self
            .interned()
            .iter()
            .filter_map(|slot| match *slot.0.entry.lock() {
                Entry::Scalar(v) => Some((slot.key().to_string(), v)),
                _ => None,
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Returns a sorted snapshot of the keys holding an entry (diagnostics
    /// / REPORT dumps). Interned-but-unwritten keys are not listed.
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .interned()
            .iter()
            .filter(|slot| slot.present())
            .map(|slot| slot.key().to_string())
            .collect();
        keys.sort();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn save_load_round_trip() {
        let store = FeatureStore::new();
        assert_eq!(store.load("missing"), None);
        store.save("x", 1.5);
        assert_eq!(store.load("x"), Some(1.5));
        store.save("x", 2.5);
        assert_eq!(store.load("x"), Some(2.5));
    }

    #[test]
    fn flags() {
        let store = FeatureStore::new();
        assert!(!store.flag("ml_enabled"));
        store.save("ml_enabled", 1.0);
        assert!(store.flag("ml_enabled"));
        store.save("ml_enabled", 0.0);
        assert!(!store.flag("ml_enabled"));
    }

    #[test]
    fn incr_accumulates() {
        let store = FeatureStore::new();
        assert_eq!(store.incr("c", 1.0), 1.0);
        assert_eq!(store.incr("c", 2.0), 3.0);
        assert_eq!(store.load("c"), Some(3.0));
    }

    #[test]
    fn series_aggregate_and_load() {
        let store = FeatureStore::new();
        store.record("lat", Nanos::from_secs(1), 10.0);
        store.record("lat", Nanos::from_secs(2), 30.0);
        assert_eq!(store.load("lat"), Some(30.0), "LOAD reads the last sample");
        assert_eq!(
            store.aggregate(
                AggKind::Sum,
                "lat",
                Nanos::from_secs(10),
                Nanos::from_secs(2)
            ),
            40.0
        );
        assert_eq!(
            store.quantile("lat", 0.5, Nanos::from_secs(10), Nanos::from_secs(2)),
            20.0
        );
        // Aggregates over scalars or missing keys are 0.
        store.save("s", 5.0);
        assert_eq!(
            store.aggregate(AggKind::Avg, "s", Nanos::from_secs(1), Nanos::from_secs(1)),
            0.0
        );
        assert_eq!(
            store.aggregate(
                AggKind::Avg,
                "nope",
                Nanos::from_secs(1),
                Nanos::from_secs(1)
            ),
            0.0
        );
    }

    #[test]
    fn save_overwrites_series() {
        let store = FeatureStore::new();
        store.record("k", Nanos::ZERO, 1.0);
        store.save("k", 9.0);
        assert_eq!(store.load("k"), Some(9.0));
        assert_eq!(
            store.aggregate(AggKind::Count, "k", Nanos::from_secs(1), Nanos::ZERO),
            0.0
        );
    }

    #[test]
    fn ewma_and_histogram_paths() {
        let store = FeatureStore::new();
        store.ewma_update("e", 10.0, 0.5);
        store.ewma_update("e", 20.0, 0.5);
        assert_eq!(store.ewma("e"), 15.0);
        assert_eq!(store.ewma("missing"), 0.0);

        for v in [100.0, 200.0, 300.0] {
            store.hist_observe("h", v);
        }
        assert!(store.hist_quantile("h", 0.5) > 100.0);
        assert_eq!(store.hist_quantile("missing", 0.5), 0.0);
    }

    #[test]
    fn keys_and_remove() {
        let store = FeatureStore::new();
        store.save("b", 1.0);
        store.save("a", 1.0);
        assert_eq!(store.keys(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(store.len(), 2);
        assert!(store.remove("a"));
        assert!(!store.remove("a"));
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
    }

    #[test]
    fn quarantine_rejects_non_finite_saves() {
        let store = FeatureStore::new();
        assert!(store.quarantine_enabled(), "quarantine is on by default");
        store.save("rate", 0.4);
        store.save("rate", f64::NAN);
        store.save("rate", f64::INFINITY);
        store.save("rate", f64::NEG_INFINITY);
        // The last good value survives; the poison is counted, not stored.
        assert_eq!(store.load("rate"), Some(0.4));
        assert_eq!(store.poison_count("rate"), 3);
        assert_eq!(store.poison_count("other"), 0);
        assert_eq!(store.poisoned_total(), 3);
        // A key never written finitely stays absent under poisoning.
        store.save("fresh", f64::NAN);
        assert_eq!(store.load("fresh"), None);
        assert_eq!(store.poisoned_total(), 4);
    }

    #[test]
    fn quarantine_can_be_disabled() {
        let store = FeatureStore::new();
        store.set_quarantine(false);
        assert!(!store.quarantine_enabled());
        store.save("rate", f64::NAN);
        assert!(
            store.load("rate").unwrap().is_nan(),
            "unhardened: NaN lands"
        );
        assert_eq!(store.poisoned_total(), 0);
        store.set_quarantine(true);
        store.save("rate", f64::NAN);
        assert_eq!(store.poison_count("rate"), 1);
    }

    #[test]
    fn index_stripes_spread_keys() {
        let store = FeatureStore::new();
        let mut hit = [false; INDEX_STRIPES];
        for i in 0..256 {
            let stripe = store.stripe(&format!("k{i}"));
            let at = store.index.iter().position(|s| std::ptr::eq(s, stripe));
            hit[at.unwrap()] = true;
        }
        assert!(hit.iter().all(|&h| h), "short keys leave stripes unused");
    }

    /// A journal whose append for one key blocks until released.
    #[derive(Debug)]
    struct GatedJournal {
        key: &'static str,
        entered: Mutex<std::sync::mpsc::Sender<()>>,
        release: Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl SaveJournal for GatedJournal {
        fn record_save(&self, key: &str, _value: f64) {
            if key == self.key {
                let _ = self.entered.lock().send(());
                let _ = self.release.lock().recv();
            }
        }
    }

    #[test]
    fn slow_journal_append_does_not_hold_up_its_stripe() {
        use std::sync::mpsc::channel;
        use std::time::Duration;

        let store = Arc::new(FeatureStore::new());
        let blocked = "blocked";
        let mut same_stripe = (0..)
            .map(|i| format!("n{i}"))
            .filter(|k| std::ptr::eq(store.stripe(k), store.stripe(blocked)));
        let neighbour = same_stripe.next().unwrap();
        let fresh = same_stripe.next().unwrap();
        store.save(blocked, 0.0);
        store.save(&neighbour, 1.0);
        let (entered_tx, entered_rx) = channel();
        let (release_tx, release_rx) = channel();
        store
            .attach_journal(Arc::new(GatedJournal {
                key: blocked,
                entered: Mutex::new(entered_tx),
                release: Mutex::new(release_rx),
            }))
            .unwrap();

        // One writer is stuck in its append, holding `blocked`'s slot lock.
        let writer = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || store.save(blocked, 2.0))
        };
        entered_rx.recv().unwrap();
        // Interning a new key on the same stripe, then reading a neighbour,
        // must not wait for that append.
        let (done_tx, done_rx) = channel();
        let reader = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                store.slot(&fresh);
                done_tx.send(store.load(&neighbour)).unwrap();
            })
        };
        let outcome = done_rx.recv_timeout(Duration::from_secs(10));
        release_tx.send(()).unwrap();
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(
            outcome,
            Ok(Some(1.0)),
            "stripe held across a journal append"
        );
        assert_eq!(store.load(blocked), Some(2.0));
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let store = Arc::new(FeatureStore::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    s.incr("shared", 1.0);
                    s.save(&format!("t{t}"), i as f64);
                    let _ = s.load("shared");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.load("shared"), Some(4000.0));
    }
}
