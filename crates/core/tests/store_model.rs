//! Model-based property tests for the slot-addressed feature store.
//!
//! Random operation histories run against a [`FeatureStore`], each
//! operation going through either the string API or a slot handle, and
//! against a `BTreeMap` reference model built from the same leaf types
//! (window series, EWMA, histogram). After every step the store's reads,
//! `keys()`, `len()`, `scalars()` and poison counters must match the model,
//! and so must every slot handle taken so far.

use std::collections::BTreeMap;

use guardrails::spec::ast::AggKind;
use guardrails::store::ewma::Ewma;
use guardrails::store::histogram::Histogram;
use guardrails::store::window::WindowSeries;
use guardrails::{FeatureStore, Slot};
use proptest::collection::vec;
use proptest::prelude::*;
use simkernel::Nanos;

/// A small key pool so histories revisit keys and change their kinds; one
/// reserved telemetry key rides along.
const KEYS: [&str; 5] = [
    "ml_enabled",
    "false_submit_rate",
    "lat",
    "qdepth",
    "__telemetry/store/x",
];
/// Tight series bounds so eviction happens inside short histories.
const RETENTION: Nanos = Nanos::from_millis(50);
const MAX_SAMPLES: usize = 6;
const AGGS: [AggKind; 7] = [
    AggKind::Avg,
    AggKind::Sum,
    AggKind::Count,
    AggKind::Min,
    AggKind::Max,
    AggKind::StdDev,
    AggKind::Rate,
];

#[derive(Clone, Debug)]
enum Op {
    Save(f64),
    Incr(f64),
    Record(f64),
    EwmaUpdate(f64, f64),
    HistObserve(f64),
    Remove,
    Load,
    Aggregate(AggKind, Nanos),
    Quarantine(bool),
    /// Interns the key and writes nothing.
    Intern,
}

#[derive(Clone, Debug)]
struct Step {
    key: usize,
    op: Op,
    via_slot: bool,
    /// Event time advanced before the step.
    dt: Nanos,
}

/// Mostly finite values, with NaN and both infinities mixed in.
fn value(pick: usize, finite: f64) -> f64 {
    match pick {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => finite,
    }
}

fn arb_step() -> impl Strategy<Value = Step> {
    (
        (0usize..KEYS.len(), 0usize..10, any::<bool>(), 0u64..20),
        (0usize..12, -1e3..1e3f64, 0.05..1.0f64, 0usize..AGGS.len()),
    )
        .prop_map(|((key, op, via_slot, dt_ms), (pick, x, alpha, agg))| {
            let op = match op {
                0 => Op::Save(value(pick, x)),
                1 => Op::Incr(x),
                2 => Op::Record(value(pick, x)),
                3 => Op::EwmaUpdate(value(pick, x), alpha),
                4 => Op::HistObserve(x.abs()),
                5 => Op::Remove,
                6 => Op::Load,
                7 => Op::Aggregate(AGGS[agg], Nanos::from_millis(10 * (pick as u64 + 1))),
                8 => Op::Quarantine(pick % 2 == 0),
                _ => Op::Intern,
            };
            Step {
                key,
                op,
                via_slot,
                dt: Nanos::from_millis(dt_ms),
            }
        })
}

enum Entry {
    Scalar(f64),
    Series(WindowSeries),
    Ewma(Ewma),
    Histogram(Histogram),
}

/// The reference store: a key-ordered map plus the quarantine state.
struct Model {
    entries: BTreeMap<&'static str, Entry>,
    poisoned: BTreeMap<&'static str, u64>,
    quarantine: bool,
    /// Accepted scalar writes (`save`/`incr`).
    saves: u64,
}

/// What a step observed: reads return a value, `remove` whether it hit.
#[derive(Debug)]
enum Seen {
    Nothing,
    Value(Option<f64>),
    Removed(bool),
}

impl Model {
    fn new() -> Self {
        Model {
            entries: BTreeMap::new(),
            poisoned: BTreeMap::new(),
            quarantine: true,
            saves: 0,
        }
    }

    fn load(&self, key: &str) -> Option<f64> {
        match self.entries.get(key)? {
            Entry::Scalar(v) => Some(*v),
            Entry::Series(s) => s.last(),
            Entry::Ewma(e) => Some(e.value()),
            Entry::Histogram(h) => Some(h.count() as f64),
        }
    }

    fn apply(&mut self, key: &'static str, op: &Op, now: Nanos) -> Seen {
        match *op {
            Op::Save(v) => {
                if !v.is_finite() && self.quarantine {
                    *self.poisoned.entry(key).or_insert(0) += 1;
                } else {
                    self.entries.insert(key, Entry::Scalar(v));
                    self.saves += 1;
                }
            }
            Op::Incr(by) => {
                let new = match self.entries.get(key) {
                    Some(Entry::Scalar(v)) => v + by,
                    _ => by,
                };
                self.entries.insert(key, Entry::Scalar(new));
                self.saves += 1;
                return Seen::Value(Some(new));
            }
            Op::Record(v) => match self.entries.get_mut(key) {
                Some(Entry::Series(s)) => s.push(now, v),
                _ => {
                    let mut s = WindowSeries::new(RETENTION, MAX_SAMPLES);
                    s.push(now, v);
                    self.entries.insert(key, Entry::Series(s));
                }
            },
            Op::EwmaUpdate(v, alpha) => match self.entries.get_mut(key) {
                Some(Entry::Ewma(e)) => e.update(v),
                _ => {
                    let mut e = Ewma::new(alpha);
                    e.update(v);
                    self.entries.insert(key, Entry::Ewma(e));
                }
            },
            Op::HistObserve(v) => match self.entries.get_mut(key) {
                Some(Entry::Histogram(h)) => h.observe(v),
                _ => {
                    let mut h = Histogram::new();
                    h.observe(v);
                    self.entries.insert(key, Entry::Histogram(h));
                }
            },
            Op::Remove => return Seen::Removed(self.entries.remove(key).is_some()),
            Op::Load => return Seen::Value(self.load(key)),
            Op::Aggregate(kind, window) => {
                let agg = match self.entries.get(key) {
                    Some(Entry::Series(s)) => s.aggregate(kind, window, now),
                    _ => 0.0,
                };
                return Seen::Value(Some(agg));
            }
            Op::Quarantine(on) => self.quarantine = on,
            Op::Intern => {}
        }
        Seen::Nothing
    }

    fn scalars(&self) -> Vec<(String, u64)> {
        self.entries
            .iter()
            .filter_map(|(k, e)| match e {
                Entry::Scalar(v) => Some((k.to_string(), v.to_bits())),
                _ => None,
            })
            .collect()
    }
}

/// Runs one step against the store, through the slot handle when the step
/// asks for it (interning the key on first use).
fn run(store: &FeatureStore, slots: &mut [Option<Slot>], step: &Step, now: Nanos) -> Seen {
    let key = KEYS[step.key];
    if matches!(step.op, Op::Intern) || step.via_slot {
        let slot = slots[step.key]
            .get_or_insert_with(|| store.slot(key))
            .clone();
        return match step.op {
            Op::Save(v) => {
                store.save_slot(&slot, v);
                Seen::Nothing
            }
            Op::Incr(by) => Seen::Value(Some(store.incr_slot(&slot, by))),
            Op::Record(v) => {
                store.record_slot(&slot, now, v);
                Seen::Nothing
            }
            Op::EwmaUpdate(v, alpha) => {
                store.ewma_update_slot(&slot, v, alpha);
                Seen::Nothing
            }
            Op::HistObserve(v) => {
                store.hist_observe_slot(&slot, v);
                Seen::Nothing
            }
            Op::Remove => Seen::Removed(store.remove_slot(&slot)),
            Op::Load => Seen::Value(slot.load()),
            Op::Aggregate(kind, window) => Seen::Value(Some(slot.aggregate(kind, window, now))),
            Op::Quarantine(on) => {
                store.set_quarantine(on);
                Seen::Nothing
            }
            Op::Intern => Seen::Nothing,
        };
    }
    match step.op {
        Op::Save(v) => store.save(key, v),
        Op::Incr(by) => return Seen::Value(Some(store.incr(key, by))),
        Op::Record(v) => store.record(key, now, v),
        Op::EwmaUpdate(v, alpha) => store.ewma_update(key, v, alpha),
        Op::HistObserve(v) => store.hist_observe(key, v),
        Op::Remove => return Seen::Removed(store.remove(key)),
        Op::Load => return Seen::Value(store.load(key)),
        Op::Aggregate(kind, window) => {
            return Seen::Value(Some(store.aggregate(kind, key, window, now)))
        }
        Op::Quarantine(on) => store.set_quarantine(on),
        Op::Intern => unreachable!("interning always takes the slot path"),
    }
    Seen::Nothing
}

fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

fn same(a: &Seen, b: &Seen) -> bool {
    match (a, b) {
        (Seen::Nothing, Seen::Nothing) => true,
        (Seen::Value(x), Seen::Value(y)) => bits(*x) == bits(*y),
        (Seen::Removed(x), Seen::Removed(y)) => x == y,
        _ => false,
    }
}

/// Checks every observable the store exposes against the model.
fn check(store: &FeatureStore, slots: &[Option<Slot>], model: &Model, at: usize) {
    let keys: Vec<String> = model.entries.keys().map(|k| k.to_string()).collect();
    assert_eq!(store.keys(), keys, "keys() after step {at}");
    assert_eq!(store.len(), keys.len(), "len() after step {at}");
    assert_eq!(
        store.is_empty(),
        keys.is_empty(),
        "is_empty() after step {at}"
    );
    let scalars: Vec<(String, u64)> = store
        .scalars()
        .into_iter()
        .map(|(k, v)| (k, v.to_bits()))
        .collect();
    assert_eq!(scalars, model.scalars(), "scalars() after step {at}");
    assert_eq!(
        store.poisoned_total(),
        model.poisoned.values().sum::<u64>(),
        "poisoned_total() after step {at}"
    );
    assert_eq!(
        store.saves_total(),
        model.saves,
        "saves_total() after step {at}"
    );
    for (i, key) in KEYS.iter().enumerate() {
        let expected = bits(model.load(key));
        assert_eq!(
            bits(store.load(key)),
            expected,
            "load({key}) after step {at}"
        );
        let poison = model.poisoned.get(key).copied().unwrap_or(0);
        assert_eq!(
            store.poison_count(key),
            poison,
            "poison_count({key}) after step {at}"
        );
        if let Some(slot) = &slots[i] {
            assert_eq!(slot.key(), *key);
            assert_eq!(
                bits(slot.load()),
                expected,
                "slot {key} load after step {at}"
            );
            assert_eq!(
                slot.poison_count(),
                poison,
                "slot {key} poison after step {at}"
            );
        }
    }
}

/// A window value from a small pool, so that windows hold duplicates,
/// both signed zeros and a subnormal; now and then a non-finite value the
/// series drops, or a fresh finite one.
fn window_value(pick: usize, fresh: f64) -> f64 {
    match pick {
        0 => 0.0,
        1 => -0.0,
        2 | 3 => 1.5,
        4 => -2.0,
        5 => 5e-324,
        6 => f64::NAN,
        7 => f64::INFINITY,
        _ => fresh,
    }
}

/// The quantile as `WindowSeries` computed it before selection: every
/// retained sample at or after `now - window`, sorted by `total_cmp`, the
/// two order statistics around `q` interpolated.
fn sorted_quantile(samples: &[(Nanos, f64)], q: f64, window: Nanos, now: Nanos) -> f64 {
    let horizon = now.saturating_sub(window);
    let mut vals: Vec<f64> = samples
        .iter()
        .filter(|&&(t, _)| t >= horizon)
        .map(|&(_, v)| v)
        .collect();
    if vals.is_empty() {
        return 0.0;
    }
    vals.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (vals.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi {
        vals[lo]
    } else {
        let frac = pos - lo as f64;
        vals[lo] * (1.0 - frac) + vals[hi] * frac
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// String API and slot handles, freely mixed, behave exactly like the
    /// reference model after every operation.
    #[test]
    fn store_matches_the_reference_model(steps in vec(arb_step(), 0..60)) {
        let store = FeatureStore::with_series_bounds(RETENTION, MAX_SAMPLES);
        let mut slots: Vec<Option<Slot>> = vec![None; KEYS.len()];
        let mut model = Model::new();
        let mut now = Nanos::ZERO;
        for (at, step) in steps.iter().enumerate() {
            now += step.dt;
            let seen = run(&store, &mut slots, step, now);
            let expected = model.apply(KEYS[step.key], &step.op, now);
            prop_assert!(
                same(&seen, &expected),
                "step {at} {step:?}: store saw {seen:?}, model {expected:?}"
            );
            check(&store, &slots, &model, at);
        }
    }

    /// Interning any set of keys, in any order and any number of times,
    /// creates no entry and leaves every read at its absent value.
    #[test]
    fn interning_is_not_a_write(picks in vec(0usize..KEYS.len(), 0..20)) {
        let store = FeatureStore::new();
        let slots: Vec<Slot> = picks.iter().map(|&k| store.slot(KEYS[k])).collect();
        prop_assert!(store.is_empty());
        prop_assert!(store.keys().is_empty());
        prop_assert!(store.scalars().is_empty());
        for slot in &slots {
            prop_assert_eq!(slot.load(), None);
            prop_assert!(!slot.flag());
            prop_assert_eq!(slot.aggregate(AggKind::Count, Nanos::from_secs(1), Nanos::ZERO), 0.0);
            prop_assert_eq!(store.load(slot.key()), None);
        }
        prop_assert_eq!(store.saves_total(), 0);
    }

    /// `WindowSeries::quantile` (by selection) ≡ the sort-based quantile
    /// over a model of the series, bit for bit, after every push: windows
    /// with duplicates and signed zeros, evicted by the sample cap and by
    /// age, with out-of-order pushes clamped to the latest timestamp, at
    /// clamped, extreme and interior `q`.
    #[test]
    fn window_quantile_matches_the_sorted_reference(
        cap in 1usize..24,
        pushes in vec((0u64..8, any::<bool>(), 0usize..12, -1e3..1e3f64), 0..60),
        queries in vec((0usize..7, 0.0..1.0f64, 0u64..70), 3),
    ) {
        let mut series = WindowSeries::new(RETENTION, cap);
        let mut model: Vec<(Nanos, f64)> = Vec::new();
        let mut clock = Nanos::ZERO;
        for &(dt_ms, backwards, pick, fresh) in &pushes {
            clock += Nanos::from_millis(dt_ms);
            // An out-of-order push names a time before the latest sample.
            let at = if backwards { clock.saturating_sub(Nanos::from_millis(5)) } else { clock };
            let value = window_value(pick, fresh);
            series.push(at, value);
            if value.is_finite() {
                let at = model.last().map_or(at, |&(last, _)| at.max(last));
                model.push((at, value));
                let horizon = at.saturating_sub(RETENTION);
                let keep = model.iter().position(|&(t, _)| t >= horizon).unwrap_or(model.len());
                let keep = keep.max(model.len().saturating_sub(cap));
                model.drain(..keep);
            }
            prop_assert_eq!(series.len(), model.len());
            for &(which, interior, window_ms) in &queries {
                let q = [0.0, 1.0, 0.5, 0.99, -0.5, 1.5, interior][which];
                let window = Nanos::from_millis(window_ms);
                prop_assert_eq!(
                    series.quantile(q, window, clock).to_bits(),
                    sorted_quantile(&model, q, window, clock).to_bits(),
                    "q {} over {:?} of {:?}", q, window, model
                );
            }
        }
    }
}
