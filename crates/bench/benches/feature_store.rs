//! E3: feature-store operation costs (§4.3's SAVE/LOAD plus the windowed
//! and sketched aggregations), including cross-thread contention.

use criterion::{criterion_group, criterion_main, Criterion};
use guardrails::spec::ast::AggKind;
use guardrails::FeatureStore;
use simkernel::Nanos;
use std::hint::black_box;
use std::sync::Arc;

fn scalar_ops(c: &mut Criterion) {
    let store = FeatureStore::new();
    store.save("key", 1.0);
    c.bench_function("store_save", |b| {
        b.iter(|| store.save(black_box("key"), black_box(2.5)))
    });
    c.bench_function("store_load", |b| b.iter(|| black_box(store.load("key"))));
    c.bench_function("store_incr", |b| b.iter(|| store.incr("counter", 1.0)));
    // The bound-slot path monitors and hot writers use: no key hashing.
    let slot = store.slot("key");
    c.bench_function("store_slot_save", |b| {
        b.iter(|| store.save_slot(&slot, black_box(2.5)))
    });
    c.bench_function("store_slot_load", |b| b.iter(|| black_box(slot.load())));
}

fn series_ops(c: &mut Criterion) {
    let store = FeatureStore::new();
    let mut now = Nanos::ZERO;
    c.bench_function("store_record", |b| {
        b.iter(|| {
            now += Nanos::from_micros(10);
            store.record("series", now, 42.0);
        })
    });
    // Aggregates over a realistic window population.
    let store2 = FeatureStore::new();
    for i in 0..10_000u64 {
        store2.record("lat", Nanos::from_micros(i * 100), (i % 777) as f64);
    }
    let at = Nanos::from_secs(1);
    c.bench_function("store_aggregate_avg_10ms_window", |b| {
        b.iter(|| black_box(store2.aggregate(AggKind::Avg, "lat", Nanos::from_millis(10), at)))
    });
    c.bench_function("store_aggregate_avg_1s_window", |b| {
        b.iter(|| black_box(store2.aggregate(AggKind::Avg, "lat", Nanos::from_secs(1), at)))
    });
    c.bench_function("store_quantile_p99_1s_window", |b| {
        b.iter(|| black_box(store2.quantile("lat", 0.99, Nanos::from_secs(1), at)))
    });
}

fn sketch_ops(c: &mut Criterion) {
    let store = FeatureStore::new();
    c.bench_function("store_ewma_update", |b| {
        b.iter(|| store.ewma_update("e", black_box(3.0), 0.1))
    });
    c.bench_function("store_hist_observe", |b| {
        b.iter(|| store.hist_observe("h", black_box(250.0)))
    });
    for i in 0..100_000 {
        store.hist_observe("h2", (i % 1000) as f64);
    }
    c.bench_function("store_hist_quantile", |b| {
        b.iter(|| black_box(store.hist_quantile("h2", 0.99)))
    });
}

fn contention(c: &mut Criterion) {
    // Two writer threads hammer disjoint keys while the benched thread
    // reads: writers lock only their own slots, and a bound-slot read takes
    // no lock at all.
    let store = Arc::new(FeatureStore::new());
    store.save("read_key", 1.0);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut writers = Vec::new();
    for t in 0..2 {
        let s = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        writers.push(std::thread::spawn(move || {
            let key = format!("writer{t}");
            let mut i = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                s.save(&key, i as f64);
                i += 1;
            }
        }));
    }
    c.bench_function("store_load_under_write_contention", |b| {
        b.iter(|| black_box(store.load("read_key")))
    });
    let slot = store.slot("read_key");
    c.bench_function("store_slot_load_under_write_contention", |b| {
        b.iter(|| black_box(slot.load()))
    });
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for w in writers {
        let _ = w.join();
    }
}

criterion_group!(benches, scalar_ops, series_ops, sketch_ops, contention);
criterion_main!(benches);
