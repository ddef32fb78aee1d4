//! E11: the hot path's two entry points agree, and WAL group commit
//! coalesces.
//!
//! Two sections:
//!
//! 1. **Event ingestion**: the shared ingestion workload ([`gr_bench::ingest`],
//!    seed `0xE11`) is ingested twice. The *per-event* run compiles the
//!    monitors without the AST optimizer, delivers one `on_function` call
//!    per event and drains the commands after each; the *batched* run uses
//!    optimized monitors, `on_function_batch` over 256-event batches and a
//!    reused drain buffer. Both runs must be observationally identical:
//!    same evaluations and violations, same exported decision stream, same
//!    store state.
//! 2. **Group commit**: one write history journaled at group sizes 1, 8,
//!    and 64; coalescing shrinks the log while replay recovers identical
//!    state.
//!
//! Nothing here is timed: the cost of ingestion and of a WAL append is a
//! row of the per-layer ledger (`exp_layers`). The CSV
//! (`results/exp_hotpath.csv`) holds counts, byte sizes and identity flags,
//! so it is byte-for-byte reproducible and diffed by CI.

use std::hint::black_box;
use std::sync::Arc;

use gr_bench::ingest::{
    build_engine, fingerprint, run_ingest, workload, xorshift, BATCH, EVENTS, HOOK,
    MONITORS_ON_HOOK,
};
use gr_bench::write_results;
use guardrails::monitor::engine::MonitorEngine;
use guardrails::store::durable::{DurabilityConfig, DurableStore, MemBackend, PersistBackend};
use simkernel::Nanos;

const SEED: u64 = 0xE11;

/// Per-event ingestion: unoptimized monitors, one delivery and one fresh
/// drain per event.
fn run_per_event(events: &[[f64; 2]]) -> MonitorEngine {
    let mut engine = build_engine(false);
    let mut now = Nanos::ZERO;
    for args in events {
        now += Nanos::from_micros(1);
        engine.on_function(HOOK, now, args);
        for command in engine.drain_commands() {
            black_box(command);
        }
    }
    engine
}

/// Journals `writes` at the given group size; returns the WAL's bytes and
/// the state a reopen recovers.
fn run_wal(writes: &[(String, f64)], group: usize) -> (usize, Vec<(String, f64)>) {
    let backend = Arc::new(MemBackend::new());
    {
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
        for (key, value) in writes {
            store.save(key, *value);
        }
        durable.flush();
    }
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
    (bytes, scalars)
}

fn main() {
    let mut csv = String::from("section,metric,value\n");

    // ---- Section 1: event ingestion ------------------------------------
    let events = workload(SEED);
    let per_event_print = fingerprint(&run_per_event(&events));
    let mut batched = build_engine(true);
    run_ingest(&mut batched, &events);
    let batched_print = fingerprint(&batched);
    let identical = per_event_print == batched_print;

    csv.push_str(&format!("ingest,events,{EVENTS}\n"));
    csv.push_str(&format!("ingest,batch_size,{BATCH}\n"));
    csv.push_str(&format!("ingest,monitors_on_hot_hook,{MONITORS_ON_HOOK}\n"));
    csv.push_str(&format!("ingest,evaluations,{}\n", batched_print.0));
    csv.push_str(&format!("ingest,violations,{}\n", batched_print.1));
    csv.push_str(&format!(
        "ingest,outputs_identical,{}\n",
        u8::from(identical)
    ));

    // ---- Section 2: WAL group commit -----------------------------------
    let mut state = SEED ^ 0x9E37_79B9;
    let writes: Vec<(String, f64)> = (0..10_000)
        .map(|_| {
            let k = xorshift(&mut state) % 32;
            let v = (xorshift(&mut state) % 1_000_000) as f64 / 1000.0;
            (format!("metric.{k:02}"), v)
        })
        .collect();
    let (bytes_1, state_1) = run_wal(&writes, 1);
    let (bytes_8, state_8) = run_wal(&writes, 8);
    let (bytes_64, state_64) = run_wal(&writes, 64);
    let wal_identical = state_1 == state_8 && state_8 == state_64;
    csv.push_str(&format!("wal,records,{}\n", writes.len()));
    csv.push_str(&format!("wal,bytes_group1,{bytes_1}\n"));
    csv.push_str(&format!("wal,bytes_group8,{bytes_8}\n"));
    csv.push_str(&format!("wal,bytes_group64,{bytes_64}\n"));
    csv.push_str(&format!(
        "wal,replay_identical,{}\n",
        u8::from(wal_identical)
    ));

    let path = write_results("exp_hotpath.csv", &csv);

    // ---- stdout summary -------------------------------------------------
    println!(
        "ingest: {} evaluations, {} violations; per-event and batched identical: {identical}",
        batched_print.0, batched_print.1
    );
    println!("wal bytes at group 1 / 8 / 64: {bytes_1} / {bytes_8} / {bytes_64}");
    println!("wrote {}", path.display());

    // ---- shape checks ----------------------------------------------------
    assert!(
        identical,
        "ingestion paths diverged: per-event {per_event_print:?} vs batched {batched_print:?}"
    );
    assert!(
        batched_print.1 > 0,
        "the workload must produce violations or the comparison is vacuous"
    );
    assert!(wal_identical, "group-commit replay diverged");
    assert!(
        bytes_64 < bytes_8 && bytes_8 < bytes_1,
        "group commit must shrink the WAL: {bytes_1} / {bytes_8} / {bytes_64}"
    );
}
