//! E11: hot-path overhaul — batched indexed dispatch + optimized monitors vs the
//! pre-overhaul ingestion path, feature-store scaling, and WAL group-commit
//! coalescing.
//!
//! Three sections:
//!
//! 1. **Event ingestion** (single thread): the same deterministic event
//!    stream is ingested twice. The *legacy* run reproduces the
//!    pre-overhaul engine's per-event costs: monitors compiled without
//!    the optimizer, one `on_function` call per event, a fresh drain per event,
//!    plus the two per-evaluation wall-clock reads and the SipHash
//!    hook-table lookup the old engine performed (both were removed by the
//!    overhaul, so they are re-enacted explicitly here — see
//!    `legacy_overhead`). The *overhauled* run uses `on_function_batch`
//!    over 256-event batches, optimized monitors, and a reused drain
//!    buffer. Both runs must be observationally identical — same
//!    violations, same store state, same deterministic stats; only wall
//!    time may differ.
//! 2. **Store scaling**: the store's string API is hammered with the same
//!    per-thread op mix on 1 thread and on 4 threads; scaling is the
//!    aggregate-throughput ratio.
//! 3. **Group commit**: one write history journaled at group sizes 1, 8,
//!    and 64; coalescing shrinks the log while replay recovers identical
//!    state.
//!
//! The CSV (`results/exp_hotpath.csv`) contains only deterministic columns
//! — counts, byte sizes, identity flags — so it is byte-for-byte
//! reproducible and diffed by CI. Measured nanoseconds and speedups go to
//! stdout only (they are machine-dependent by definition).

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use gr_bench::{row, write_results};
use guardrails::compile::{compile, CompileOptions};
use guardrails::monitor::engine::{FnEvent, MonitorEngine};
use guardrails::spec::parse_and_check;
use guardrails::store::durable::{DurabilityConfig, DurableStore, MemBackend, PersistBackend};
use guardrails::{FeatureStore, PolicyRegistry, Telemetry};
use simkernel::Nanos;

const SEED: u64 = 0xE11;
const EVENTS: usize = 100_000;
const BATCH: usize = 256;
const HOT_HOOK: &str = "io_submit";

/// Four monitors on the hot hook (argument rules lower to single
/// superinstructions; the store rule to a load-compare) plus bystanders
/// on other hooks so dispatch exercises index misses too.
const SPECS: &str = r#"
guardrail io-size { trigger: { FUNCTION(io_submit) }, rule: { ARG(0) <= 4096 }, action: { RECORD(oversized, 1) } }
guardrail io-latency { trigger: { FUNCTION(io_submit) }, rule: { ARG(1) < 900 }, action: { RECORD(slow_ios, 1) } }
guardrail queue-depth { trigger: { FUNCTION(io_submit) }, rule: { LOAD(qdepth) < 64 }, action: { RECORD(deep_queue, 1) } }
guardrail sane-size { trigger: { FUNCTION(io_submit) }, rule: { ARG(0) >= 0 }, action: { RECORD(negative_size, 1) } }
guardrail bystander-a { trigger: { FUNCTION(mem_place) }, rule: { ARG(0) < 1e9 }, action: { RECORD(a_hits, 1) } }
guardrail bystander-b { trigger: { FUNCTION(net_poll) }, rule: { ARG(0) < 1e9 }, action: { RECORD(b_hits, 1) } }
"#;

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// One synthetic I/O submission: (size, latency) arguments.
fn workload() -> Vec<[f64; 2]> {
    let mut state = SEED;
    (0..EVENTS)
        .map(|_| {
            let size = (xorshift(&mut state) % 4200) as f64;
            let lat = (xorshift(&mut state) % 1000) as f64;
            [size, lat]
        })
        .collect()
}

fn build_engine(optimize: bool) -> MonitorEngine {
    let mut engine = MonitorEngine::with_parts(
        Arc::new(FeatureStore::new()),
        Arc::new(PolicyRegistry::new()),
    );
    let opts = CompileOptions {
        optimize,
        ..CompileOptions::default()
    };
    let checked = parse_and_check(SPECS).expect("specs parse");
    for guardrail in compile(&checked, &opts).expect("specs compile") {
        engine.install(guardrail).expect("specs install");
    }
    engine.store().save("qdepth", 5.0);
    engine
}

/// Everything observable about a run except wall-clock noise.
fn fingerprint(engine: &MonitorEngine) -> (u64, u64, String, Vec<(String, f64)>) {
    let stats = engine.stats();
    let mut scalars = engine.store().scalars();
    scalars.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    (
        stats.evaluations,
        stats.violations,
        engine.events().export_json_lines(),
        scalars,
    )
}

/// Re-enacts the per-event costs the overhaul deleted from the engine, so
/// the legacy run pays what the pre-overhaul engine actually paid:
/// two wall-clock reads around every monitor evaluation (the old
/// per-evaluation overhead accounting) and one SipHash hook-table lookup
/// per delivery (the old `std::collections::HashMap` dispatch).
fn legacy_overhead(hook_table: &HashMap<String, Vec<usize>>) {
    let subscribers = black_box(hook_table.get(HOT_HOOK)).map_or(0, Vec::len);
    for _ in 0..subscribers {
        black_box(Instant::now());
        black_box(Instant::now());
    }
}

/// Legacy ingestion: per-event delivery, unoptimized monitors, fresh drain
/// per event.
fn run_legacy(events: &[[f64; 2]]) -> (MonitorEngine, u64) {
    let mut engine = build_engine(false);
    let hook_table: HashMap<String, Vec<usize>> = [
        (HOT_HOOK.to_string(), vec![0, 1, 2, 3]),
        ("mem_place".to_string(), vec![4]),
        ("net_poll".to_string(), vec![5]),
    ]
    .into();
    let started = Instant::now();
    let mut now = Nanos::ZERO;
    for args in events {
        now += Nanos::from_micros(1);
        legacy_overhead(&hook_table);
        engine.on_function(HOT_HOOK, now, args);
        for command in engine.drain_commands() {
            black_box(command);
        }
    }
    let wall = started.elapsed().as_nanos() as u64;
    (engine, wall)
}

/// Overhauled ingestion: optimized monitors, 256-event batches, reused
/// buffers. Telemetry rides along (E12 shows it costs < 3%); its counters
/// never enter the CSV.
fn run_hot(events: &[[f64; 2]]) -> (MonitorEngine, u64) {
    let mut engine = build_engine(true);
    engine.set_telemetry(Telemetry::new());
    let mut cmd_buf = Vec::new();
    let mut batch: Vec<FnEvent<'_>> = Vec::with_capacity(BATCH);
    let started = Instant::now();
    let mut now = Nanos::ZERO;
    for chunk in events.chunks(BATCH) {
        batch.clear();
        let base = now;
        batch.extend(chunk.iter().enumerate().map(|(i, args)| FnEvent {
            now: base + Nanos::from_micros(i as u64 + 1),
            args: &args[..],
        }));
        now = base + Nanos::from_micros(chunk.len() as u64);
        engine.on_function_batch(HOT_HOOK, &batch);
        cmd_buf.clear();
        engine.drain_commands_into(&mut cmd_buf);
        for command in &cmd_buf {
            black_box(command);
        }
    }
    let wall = started.elapsed().as_nanos() as u64;
    (engine, wall)
}

/// Store scaling: every thread runs the same op mix over its own key slice
/// (plus shared reads); returns wall nanoseconds for the whole run.
fn run_store_threads(store: &Arc<FeatureStore>, threads: usize, ops_per_thread: usize) -> u64 {
    let keys: Vec<Vec<String>> = (0..threads)
        .map(|t| (0..16).map(|k| format!("k{:02}", t * 16 + k)).collect())
        .collect();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let store = Arc::clone(store);
            let keys = &keys[t];
            scope.spawn(move || {
                for i in 0..ops_per_thread {
                    let key = &keys[i % keys.len()];
                    store.save(key, i as f64);
                    black_box(store.load(key));
                    if i % 8 == 0 {
                        store.incr(key, 1.0);
                    }
                }
            });
        }
    });
    started.elapsed().as_nanos() as u64
}

/// Journals `writes` at the given group size; returns (wal bytes, wall ns,
/// recovered state).
fn run_wal(writes: &[(String, f64)], group: usize) -> (usize, u64, Vec<(String, f64)>) {
    let backend = Arc::new(MemBackend::new());
    let wall = {
        let b: Arc<dyn PersistBackend> = backend.clone();
        let (durable, _) = DurableStore::open(
            b,
            DurabilityConfig {
                group_commit: group,
                ..DurabilityConfig::default()
            },
        )
        .expect("open durable store");
        let store = durable.store();
        let started = Instant::now();
        for (key, value) in writes {
            store.save(key, *value);
        }
        durable.flush();
        started.elapsed().as_nanos() as u64
    };
    let bytes = backend.wal_len();
    let b: Arc<dyn PersistBackend> = backend.clone();
    let (durable, report) = DurableStore::open(b, DurabilityConfig::default()).expect("reopen");
    assert_eq!(
        report.wal_records_applied,
        writes.len() as u64,
        "group-commit replay must recover every record"
    );
    let mut scalars = durable.store().scalars();
    scalars.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    (bytes, wall, scalars)
}

fn main() {
    let mut csv = String::from("section,metric,value\n");

    // ---- Section 1: event ingestion ------------------------------------
    let events = workload();
    // Interleave repetitions and keep the best of each, so one scheduling
    // hiccup cannot decide the comparison.
    let mut legacy_wall = u64::MAX;
    let mut hot_wall = u64::MAX;
    let mut legacy_engine = None;
    let mut hot_engine = None;
    for _ in 0..3 {
        let (engine, wall) = run_legacy(&events);
        legacy_wall = legacy_wall.min(wall);
        legacy_engine = Some(engine);
        let (engine, wall) = run_hot(&events);
        hot_wall = hot_wall.min(wall);
        hot_engine = Some(engine);
    }
    let legacy_engine = legacy_engine.expect("legacy run");
    let hot_engine = hot_engine.expect("hot run");

    let legacy_print = fingerprint(&legacy_engine);
    let hot_print = fingerprint(&hot_engine);
    let identical = legacy_print == hot_print;
    let speedup = legacy_wall as f64 / hot_wall.max(1) as f64;

    csv.push_str(&format!("ingest,events,{EVENTS}\n"));
    csv.push_str(&format!("ingest,batch_size,{BATCH}\n"));
    csv.push_str("ingest,monitors_on_hot_hook,4\n");
    csv.push_str(&format!("ingest,evaluations,{}\n", hot_print.0));
    csv.push_str(&format!("ingest,violations,{}\n", hot_print.1));
    csv.push_str(&format!(
        "ingest,outputs_identical,{}\n",
        u8::from(identical)
    ));

    eprintln!("[exp_hotpath] ingestion: legacy {legacy_wall} ns, overhauled {hot_wall} ns");

    // ---- Section 2: store scaling --------------------------------------
    const STORE_OPS: usize = 400_000;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let store = Arc::new(FeatureStore::new());
    // Warm the maps so neither run pays first-touch growth.
    run_store_threads(&store, 4, 1_000);
    let mut wall_1 = u64::MAX;
    let mut wall_4 = u64::MAX;
    for _ in 0..3 {
        wall_1 = wall_1.min(run_store_threads(&store, 1, STORE_OPS));
        wall_4 = wall_4.min(run_store_threads(&store, 4, STORE_OPS));
    }
    // Aggregate throughput ratio: 4 threads do 4x the ops.
    let scaling = (4.0 * STORE_OPS as f64 / wall_4 as f64) / (STORE_OPS as f64 / wall_1 as f64);
    csv.push_str(&format!("store,ops_per_thread,{STORE_OPS}\n"));
    csv.push_str("store,threads_max,4\n");
    csv.push_str("store,keys,64\n");
    eprintln!("[exp_hotpath] store: 1-thread {wall_1} ns, 4-thread {wall_4} ns ({cores} cores)");

    // ---- Section 3: WAL group commit -----------------------------------
    let mut state = SEED ^ 0x9E37_79B9;
    let writes: Vec<(String, f64)> = (0..10_000)
        .map(|_| {
            let k = xorshift(&mut state) % 32;
            let v = (xorshift(&mut state) % 1_000_000) as f64 / 1000.0;
            (format!("metric.{k:02}"), v)
        })
        .collect();
    let (bytes_1, wall_g1, state_1) = run_wal(&writes, 1);
    let (bytes_8, wall_g8, state_8) = run_wal(&writes, 8);
    let (bytes_64, wall_g64, state_64) = run_wal(&writes, 64);
    let wal_identical = state_1 == state_8 && state_8 == state_64;
    csv.push_str(&format!("wal,records,{}\n", writes.len()));
    csv.push_str(&format!("wal,bytes_group1,{bytes_1}\n"));
    csv.push_str(&format!("wal,bytes_group8,{bytes_8}\n"));
    csv.push_str(&format!("wal,bytes_group64,{bytes_64}\n"));
    csv.push_str(&format!(
        "wal,replay_identical,{}\n",
        u8::from(wal_identical)
    ));
    eprintln!("[exp_hotpath] wal: group1 {wall_g1} ns, group8 {wall_g8} ns, group64 {wall_g64} ns");

    let path = write_results("exp_hotpath.csv", &csv);

    // ---- stdout table ---------------------------------------------------
    let widths = [26usize, 14, 14, 10];
    println!(
        "{}",
        row(
            &[
                "metric".into(),
                "legacy".into(),
                "overhauled".into(),
                "ratio".into()
            ],
            &widths
        )
    );
    println!(
        "{}",
        row(
            &[
                "ingest ns/event".into(),
                format!("{:.1}", legacy_wall as f64 / EVENTS as f64),
                format!("{:.1}", hot_wall as f64 / EVENTS as f64),
                format!("{speedup:.2}x"),
            ],
            &widths
        )
    );
    println!(
        "{}",
        row(
            &[
                "store ns/op (1t vs 4t agg)".into(),
                format!("{:.1}", wall_1 as f64 / STORE_OPS as f64),
                format!("{:.1}", wall_4 as f64 / (4 * STORE_OPS) as f64),
                format!("{scaling:.2}x"),
            ],
            &widths
        )
    );
    println!(
        "{}",
        row(
            &[
                "wal bytes (g1 vs g64)".into(),
                format!("{bytes_1}"),
                format!("{bytes_64}"),
                format!("{:.2}x", bytes_1 as f64 / bytes_64 as f64),
            ],
            &widths
        )
    );
    println!("wrote {}", path.display());

    // ---- shape checks ----------------------------------------------------
    assert!(
        identical,
        "ingestion paths diverged: legacy {legacy_print:?} vs overhauled {hot_print:?}"
    );
    assert!(
        hot_print.1 > 0,
        "the workload must produce violations or the comparison is vacuous"
    );
    assert!(
        speedup >= 3.0,
        "overhauled ingestion must be >= 3x the pre-overhaul path, got {speedup:.2}x"
    );
    assert!(wal_identical, "group-commit replay diverged");
    assert!(
        bytes_64 < bytes_8 && bytes_8 < bytes_1,
        "group commit must shrink the WAL: {bytes_1} / {bytes_8} / {bytes_64}"
    );
    if cores >= 4 {
        assert!(
            scaling >= 2.5,
            "store ops must scale >= 2.5x from 1 to 4 threads, got {scaling:.2}x"
        );
    } else {
        eprintln!(
            "[exp_hotpath] WARNING: only {cores} cores; skipping the 2.5x scaling assertion \
             (measured {scaling:.2}x)"
        );
    }
}
