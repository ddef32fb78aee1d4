//! The per-layer timing ledger: what each layer of a monitored event costs,
//! in nanoseconds per operation, checked against the committed
//! `BENCH_layers.json`. Rows are named by experiment: `e1.*` dispatch and
//! evaluation, `e2.*` compiler and VM, `e3.*` feature store, `wal.*` and
//! `ckpt.*` persistence, `e11.*` the shared ingestion workload
//! (EXPERIMENTS.md describes each row).
//!
//! Each row is the fastest of [`SAMPLES`] timed loops, taken round-robin
//! with the other rows so that its samples spread over the whole run. Next
//! to every loop a fixed reference pass runs, and the row keeps that pass's
//! fastest step time too: a row's `ns / reference_ns` is its cost in
//! reference steps, which holds still when the whole host runs faster or
//! slower. The run prints every row's ratio to the committed ledger in
//! those units, then writes its own measurements to `BENCH_layers.json`,
//! and exits non-zero when a row is [`ledger::SLOWDOWN_LIMIT`] times
//! slower, is not in the committed ledger, or when the committed ledger is
//! missing, malformed or holds a row this run did not measure. Run it from
//! the repository root; it takes no arguments.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fs;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gr_bench::ingest::{self, EVENTS};
use gr_bench::ledger::{self, Change, Row};
use guardrails::compile::verify::{verify, ExpectedType, VerifyLimits};
use guardrails::compile::{compile, compile_str, CompileOptions};
use guardrails::monitor::engine::FnEvent;
use guardrails::monitor::{EngineCheckpoint, MonitorEngine};
use guardrails::spec::ast::AggKind;
use guardrails::spec::parse_and_check;
use guardrails::store::durable::{DurabilityConfig, DurableStore, MemBackend};
use guardrails::vm::{DeltaState, EvalCtx, Vm};
use guardrails::FeatureStore;
use simkernel::Nanos;

const LEDGER: &str = "BENCH_layers.json";
/// Timed loops per row; the fastest counts.
const SAMPLES: usize = 100;
/// A row's loop makes as many calls as take at least this long.
const LOOP: Duration = Duration::from_micros(500);

const LISTING_2: &str = r#"
guardrail low-false-submit {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(false_submit_rate) <= 0.05 },
    action: { SAVE(ml_enabled, false) }
}
"#;

/// The upper end of what a practitioner would write: windowed aggregates,
/// logic, arithmetic and every action kind.
const LARGE: &str = r#"
guardrail complex {
    trigger: { TIMER(0, 100ms, 100s) FUNCTION(io_submit) FUNCTION(io_complete) },
    rule: {
        AVG(lat, 10s) < 2000 && QUANTILE(lat, 0.99, 10s) < 50ms;
        (RATE(errs, 1s) < 10 || LOAD(err_budget) > 0) && !(LOAD(panic_mode) == 1);
        CLAMP(ABS(DELTA(queue_depth)), 0, 100) * 2 + EWMA(svc_time) / 1000 <= 500;
        ARG(0) >= 0 && ARG(0) < 1e9 && (ARG(1) + ARG(2)) % 4096 == 0 || LOAD(x) < 1
    },
    action: {
        REPORT("complex violated", lat, errs, queue_depth)
        REPLACE(io_policy, fallback)
        RETRAIN(io_model)
        DEPRIORITIZE(heaviest, 5 + 5)
        SAVE(alarm, LOAD(alarm) + 1)
        RECORD(violations, 1)
    }
}
"#;

/// Fixed host-speed work that calls no code from this repository, so no
/// change to the runtime changes its cost: string-keyed hash lookups and a
/// float branch. The hasher has fixed keys, so every run probes the same
/// table layout, and the pass allocates nothing, so the heap a row leaves
/// behind does not change its cost.
struct Reference {
    table: HashMap<String, f64, BuildHasherDefault<DefaultHasher>>,
    keys: Vec<String>,
}

impl Reference {
    const STEPS: usize = 5_000;

    fn new() -> Self {
        let keys: Vec<String> = (0..64).map(|i| format!("feature.{i:02}")).collect();
        let table = keys.iter().cloned().zip((0..).map(f64::from)).collect();
        Reference { table, keys }
    }

    /// Nanoseconds per step of one pass.
    fn pass_ns(&self) -> f64 {
        let started = Instant::now();
        let mut acc = 0.0;
        for i in 0..Self::STEPS {
            let key = &self.keys[i * 7 % self.keys.len()];
            let value = self.table.get(black_box(key)).copied().unwrap_or(0.0);
            if value < 32.0 {
                acc += value;
            } else {
                acc -= value * 0.5;
            }
        }
        black_box(acc);
        started.elapsed().as_nanos() as f64 / Self::STEPS as f64
    }
}

/// One ledger row: a closure whose every call does `ops_per_call`
/// operations.
struct Timed<'a> {
    row: String,
    ops_per_call: f64,
    /// Runs a loop of the given number of calls. The calls are inlined into
    /// it, so a row pays no dynamic call per operation.
    run: Box<dyn FnMut(u32) + 'a>,
}

fn timed<'a>(row: impl Into<String>, ops_per_call: usize, mut op: impl FnMut() + 'a) -> Timed<'a> {
    Timed {
        row: row.into(),
        ops_per_call: ops_per_call as f64,
        run: Box::new(move |calls| {
            for _ in 0..calls {
                op();
            }
        }),
    }
}

/// Sizes every row's loop to last at least [`LOOP`] (the untimed warm-up),
/// then runs [`SAMPLES`] rounds that time a reference pass and one loop of
/// each row in turn, so every row's samples spread over the whole run.
/// Keeps each row's fastest loop, per operation, and the fastest reference
/// pass timed next to it.
fn measure(mut rows: Vec<Timed<'_>>) -> Vec<Row> {
    let reference = Reference::new();
    let calls: Vec<u32> = rows
        .iter_mut()
        .map(|t| {
            let mut calls = 1;
            loop {
                let started = Instant::now();
                (t.run)(calls);
                if started.elapsed() >= LOOP {
                    return calls;
                }
                calls *= 2;
            }
        })
        .collect();
    let mut best = vec![(f64::INFINITY, f64::INFINITY); rows.len()];
    for _ in 0..SAMPLES {
        for ((t, &calls), (ns, reference_ns)) in rows.iter_mut().zip(&calls).zip(&mut best) {
            *reference_ns = reference_ns.min(reference.pass_ns());
            let started = Instant::now();
            (t.run)(calls);
            let per_op = started.elapsed().as_nanos() as f64 / (f64::from(calls) * t.ops_per_call);
            *ns = ns.min(per_op);
        }
    }
    rows.into_iter()
        .zip(best)
        .map(|(t, (ns, reference_ns))| Row {
            row: t.row,
            ns,
            reference_ns,
        })
        .collect()
}

fn listing2_engine(false_submit_rate: f64) -> MonitorEngine {
    let mut engine = MonitorEngine::new();
    engine.install_str(LISTING_2).expect("Listing 2 installs");
    engine.store().save("false_submit_rate", false_submit_rate);
    engine
}

fn bounds_engine() -> MonitorEngine {
    let mut engine = MonitorEngine::new();
    engine
        .install_str(
            "guardrail bounds { trigger: { FUNCTION(decide) }, rule: { ARG(0) >= 0 && ARG(0) < 4096 }, action: { REPORT(m) } }",
        )
        .expect("bounds installs");
    engine
}

fn e1_dispatch() -> Vec<Timed<'static>> {
    let mut rows = Vec::new();
    for (row, hook) in [
        ("e1.unsubscribed_hook", "unrelated"),
        ("e1.function_eval", "decide"),
    ] {
        let mut engine = bounds_engine();
        let mut now = Nanos::ZERO;
        rows.push(timed(row, 1, move || {
            now += Nanos::from_micros(1);
            engine.on_function(black_box(hook), now, black_box(&[512.0]));
        }));
    }
    let mut engine = bounds_engine();
    let mut now = Nanos::ZERO;
    let mut batch: Vec<FnEvent<'static>> = Vec::with_capacity(64);
    rows.push(timed("e1.batch64_per_event", 64, move || {
        batch.clear();
        batch.extend((1..=64).map(|i| FnEvent {
            now: now + Nanos::from_micros(i),
            args: &[512.0],
        }));
        now += Nanos::from_micros(64);
        engine.on_function_batch(black_box("decide"), black_box(&batch));
    }));

    for (row, rate) in [("e1.timer_healthy", 0.01), ("e1.timer_violation_save", 0.5)] {
        let mut engine = listing2_engine(rate);
        let mut now = Nanos::ZERO;
        rows.push(timed(row, 1, move || {
            now += Nanos::from_secs(1);
            engine.advance_to(black_box(now));
        }));
    }

    for count in [1, 4, 16] {
        let mut engine = MonitorEngine::new();
        for i in 0..count {
            engine
                .install_str(&format!(
                    "guardrail g{i} {{ trigger: {{ FUNCTION(hook) }}, rule: {{ ARG(0) < {} }}, action: {{ REPORT(m) }} }}",
                    1e9 + f64::from(i)
                ))
                .expect("monitor installs");
        }
        let mut now = Nanos::ZERO;
        rows.push(timed(format!("e1.monitors_{count}"), 1, move || {
            now += Nanos::from_micros(1);
            engine.on_function(black_box("hook"), now, black_box(&[1.0]));
        }));
    }
    rows
}

fn e2_compiler_and_vm() -> Vec<Timed<'static>> {
    let checked = parse_and_check(LARGE).expect("large spec checks");
    let large = compile(&checked, &CompileOptions::default()).expect("large spec lowers");
    let mut rows = vec![
        timed("e2.compile_listing2", 1, || {
            black_box(compile_str(black_box(LISTING_2)).expect("Listing 2 compiles"));
        }),
        timed("e2.compile_large", 1, || {
            black_box(compile_str(black_box(LARGE)).expect("large spec compiles"));
        }),
        timed("e2.parse_check_large", 1, || {
            black_box(parse_and_check(black_box(LARGE)).expect("large spec checks"));
        }),
        timed("e2.lower_verify_large", 1, move || {
            black_box(compile(black_box(&checked), &CompileOptions::default()).expect("lowers"));
        }),
    ];
    let programs: Vec<_> = large[0]
        .rules
        .iter()
        .map(|r| r.program.program().clone())
        .collect();
    rows.push(timed("e2.verify_large_rules", 1, move || {
        for program in &programs {
            let program = black_box(program.clone());
            black_box(
                verify(program, ExpectedType::Bool, &VerifyLimits::default()).expect("verifies"),
            );
        }
    }));

    let store = FeatureStore::new();
    for i in 0..5_000u64 {
        store.record("lat", Nanos::from_millis(i * 2), (i % 900) as f64);
    }
    store.save("err_budget", 100.0);
    store.save("x", 0.5);
    store.save("false_submit_rate", 0.01);
    let listing2 = compile_str(LISTING_2).expect("Listing 2 compiles");
    let small_slots = store.bind(&listing2[0].rules[0].program.keys);
    let mut small_delta = DeltaState::for_program(&listing2[0].rules[0].program);
    let mut vm = Vm::new();
    rows.push(timed("e2.vm_listing2_rule", 1, move || {
        let program = &listing2[0].rules[0].program;
        let ctx = &mut EvalCtx {
            slots: &small_slots,
            now: Nanos::from_secs(10),
            args: &[],
            deltas: &mut small_delta,
        };
        black_box(vm.run(black_box(program), ctx).value);
    }));
    let slots: Vec<_> = large[0]
        .rules
        .iter()
        .map(|r| store.bind(&r.program.keys))
        .collect();
    let mut deltas: Vec<_> = large[0]
        .rules
        .iter()
        .map(|r| DeltaState::for_program(&r.program))
        .collect();
    let mut vm = Vm::new();
    rows.push(timed("e2.vm_large_rules", 1, move || {
        for ((rule, slots), deltas) in large[0].rules.iter().zip(&slots).zip(&mut deltas) {
            let ctx = &mut EvalCtx {
                slots,
                now: Nanos::from_secs(10),
                args: &[512.0, 2048.0, 2048.0],
                deltas,
            };
            black_box(vm.run(black_box(&rule.program), ctx).as_bool());
        }
    }));
    rows
}

fn e3_store(store: &FeatureStore) -> Vec<Timed<'_>> {
    store.save("key", 1.0);
    let slot = store.slot("key");
    for i in 0..100_000 {
        store.hist_observe("h2", f64::from(i % 1000));
    }
    // One series of 65 536 samples a microsecond apart (the default cap);
    // windows include both ends, so one of n - 1 microseconds ending at the
    // last sample holds n of them.
    for i in 0..65_536u64 {
        store.record("lat", Nanos::from_micros(i + 1), (i % 777) as f64);
    }
    let mut now = Nanos::ZERO;
    let mut rows = vec![
        timed("e3.save", 1, || {
            store.save(black_box("key"), black_box(2.5))
        }),
        timed("e3.load", 1, || {
            black_box(store.load(black_box("key")));
        }),
        timed("e3.incr", 1, || {
            black_box(store.incr(black_box("counter"), 1.0));
        }),
        timed("e3.record", 1, move || {
            now += Nanos::from_micros(10);
            store.record(black_box("series"), now, 42.0);
        }),
        timed("e3.save_slot", 1, {
            let slot = slot.clone();
            move || store.save_slot(&slot, black_box(2.5))
        }),
        timed("e3.slot_load", 1, move || {
            black_box(black_box(&slot).load());
        }),
        timed("e3.ewma_update", 1, || {
            store.ewma_update(black_box("e"), black_box(3.0), 0.1);
        }),
        timed("e3.hist_observe", 1, || {
            store.hist_observe(black_box("h"), black_box(250.0));
        }),
        timed("e3.hist_p99", 1, || {
            black_box(store.hist_quantile(black_box("h2"), 0.99));
        }),
    ];
    let at = Nanos::from_micros(65_536);
    for samples in [100u32, 10_000, 65_536] {
        let window = Nanos::from_micros(u64::from(samples) - 1);
        let held = store.aggregate(AggKind::Count, "lat", window, at);
        assert_eq!(held, f64::from(samples), "window holds {held} samples");
        rows.push(timed(format!("e3.avg_{samples}"), 1, move || {
            black_box(store.aggregate(AggKind::Avg, black_box("lat"), window, at));
        }));
        rows.push(timed(format!("e3.p99_{samples}"), 1, move || {
            black_box(store.quantile(black_box("lat"), 0.99, window, at));
        }));
    }
    rows
}

/// A durable store over memory whose log holds one save of each of 256
/// keys.
fn durable_with_256_keys() -> DurableStore {
    let (durable, _) = DurableStore::open(Arc::new(MemBackend::new()), DurabilityConfig::default())
        .expect("open durable store");
    let store = durable.store();
    for i in 0..256 {
        store.save(&format!("metric.{i:03}"), f64::from(i));
    }
    durable
}

fn persistence() -> Vec<Timed<'static>> {
    let mut rows = Vec::new();
    for group in [1, 8, 64] {
        let config = DurabilityConfig {
            group_commit: group,
            ..DurabilityConfig::default()
        };
        let (durable, _) =
            DurableStore::open(Arc::new(MemBackend::new()), config).expect("open durable store");
        let store = durable.store();
        let slot = store.slot("metric");
        let mut value = 0.0;
        rows.push(timed(format!("wal.append_group{group}"), 1, move || {
            // Owning `durable` keeps the journal attached: dropping it
            // detaches the appender.
            let _journaled = &durable;
            value += 1.0;
            store.save_slot(&slot, black_box(value));
        }));
    }
    let durable = durable_with_256_keys();
    rows.push(timed("wal.maybe_compact_idle", 1, move || {
        black_box(
            durable
                .maybe_compact()
                .expect("below budget: nothing to do"),
        );
    }));
    let durable = durable_with_256_keys();
    rows.push(timed("wal.compact_256_keys", 1, move || {
        durable.compact().expect("memory backend compacts");
    }));

    let mut engine = ingest::build_engine(true);
    ingest::run_ingest(&mut engine, &ingest::workload(0xE11));
    let mut bytes = Vec::new();
    engine.checkpoint_into(&mut bytes);
    let checkpoint = EngineCheckpoint::decode(&bytes).expect("checkpoint decodes");
    rows.push(timed("ckpt.checkpoint_into", 1, move || {
        engine.checkpoint_into(black_box(&mut bytes));
    }));
    let mut restored = ingest::build_engine(true);
    rows.push(timed("ckpt.restore", 1, move || {
        restored
            .restore(black_box(&checkpoint))
            .expect("checkpoint restores");
    }));
    rows
}

fn e11_ingest() -> Timed<'static> {
    let events = ingest::workload(0xE11);
    timed("e11.ingest_per_event", EVENTS, move || {
        let mut engine = ingest::build_engine(true);
        ingest::run_ingest(&mut engine, black_box(&events));
    })
}

fn main() -> ExitCode {
    let store = FeatureStore::new();
    let mut timed_rows = e1_dispatch();
    timed_rows.extend(e2_compiler_and_vm());
    timed_rows.extend(e3_store(&store));
    timed_rows.extend(persistence());
    timed_rows.push(e11_ingest());
    let rows = measure(timed_rows);

    let changes = fs::read_to_string(LEDGER)
        .map_err(|e| format!("cannot read {LEDGER}: {e}"))
        .and_then(|committed| ledger::compare(&committed, &rows));
    println!(
        "{:<26} {:>12} {:>12} {:>10}",
        "row", "ns", "reference_ns", "vs ledger"
    );
    for (i, row) in rows.iter().enumerate() {
        let change = match changes.as_ref().map(|c| c[i]) {
            Ok(Change::Ratio(ratio)) => format!("{ratio:.2}x"),
            Ok(Change::New) => "new".to_string(),
            Err(_) => "-".to_string(),
        };
        println!(
            "{:<26} {:>12.3} {:>12.3} {:>10}",
            row.row, row.ns, row.reference_ns, change
        );
    }
    fs::write(LEDGER, ledger::render(&rows)).expect("write the ledger");
    println!("wrote {LEDGER}");

    match changes {
        Err(e) => {
            eprintln!("[exp_layers] {e}");
            ExitCode::FAILURE
        }
        Ok(changes) => {
            let failed: Vec<&str> = changes
                .iter()
                .zip(&rows)
                .filter(|(change, _)| !change.passes())
                .map(|(_, row)| row.row.as_str())
                .collect();
            if failed.is_empty() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "[exp_layers] new, or at least {}x slower than the committed ledger \
                     in reference steps: {}",
                    ledger::SLOWDOWN_LIMIT,
                    failed.join(", ")
                );
                ExitCode::FAILURE
            }
        }
    }
}
