//! The durable node's per-I/O bookkeeping stays off the allocator once
//! warm: a journaled save, a `maybe_compact` below its budget, and an
//! engine checkpoint encoded into a reused buffer and persisted. So does
//! the monitors' hot path: a batch of healthy tracepoint events. And a
//! snapshot decoder reserves no more than its input can hold.
//!
//! A counting global allocator counts the allocations made on each thread
//! and keeps the largest request; a test reads its own thread's figures
//! around the measured code.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use guardrails::monitor::engine::FnEvent;
use guardrails::monitor::{Hysteresis, MonitorEngine, EVENT_CAPACITY};
use guardrails::store::snapshot::{Snapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use guardrails::store::wal::crc32;
use guardrails::{
    DurabilityConfig, DurableStore, MemBackend, PersistBackend, PolicyRegistry, Telemetry,
};
use simkernel::Nanos;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count_one(size: usize) {
    // `try_with`: the allocator may run while a thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|n| n.set(n.get().max(size)));
}

/// Forwards every call to [`System`], counting allocations and reallocations
/// and keeping the largest size asked for.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the figures are
// thread-local `Cell`s with const initialization, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Listing 2 and a `DELTA` guardrail, so a checkpoint carries hysteresis,
/// timers, an account and `DELTA` values.
const SPECS: &str = r#"
guardrail low-false-submit {
    trigger: { TIMER(0, 1s) },
    rule: { LOAD(false_submit_rate) <= 0.05 },
    action: { SAVE(ml_enabled, false) }
}
guardrail queue-jump {
    trigger: { FUNCTION(io) },
    rule: { DELTA(qdepth) < 8 },
    action: { SAVE(last_jump, DELTA(qdepth)) }
}
"#;

/// Records per compaction, as the recovery runtime's default.
const BUDGET: u64 = 512;

#[test]
fn warm_checkpoints_and_journaled_saves_do_not_allocate() {
    let backend: Arc<dyn PersistBackend> = Arc::new(MemBackend::new());
    let config = DurabilityConfig {
        snapshot_every: BUDGET,
        group_commit: 8,
    };
    let (durable, _) = DurableStore::open(backend, config).unwrap();
    let store = durable.store();
    let registry = Arc::new(PolicyRegistry::new());
    registry
        .register("io_submit", &["learned", "safe"])
        .unwrap();
    registry.replace("io_submit", "safe").unwrap();
    let mut engine = MonitorEngine::with_parts(Arc::clone(&store), registry);
    engine.install_str(SPECS).unwrap();
    engine
        .set_hysteresis("queue-jump", Hysteresis::n_of_m(2, 4))
        .unwrap();
    let rate = store.slot("false_submit_rate");
    let qdepth = store.slot("qdepth");

    // Some history, so the checkpoint has state to write.
    for i in 0..40u32 {
        let now = Nanos::from_millis(u64::from(i) * 100);
        store.save_slot(&qdepth, f64::from(i % 5) * 4.0);
        engine.on_function("io", now, &[]);
        engine.advance_to(now);
    }
    // One compaction cycle sizes the log's buffers and region, and leaves
    // the budget's count at zero.
    let mut saves = 0;
    while !durable.maybe_compact().unwrap() {
        store.save_slot(&rate, f64::from(saves) / 10_000.0);
        saves += 1;
    }
    assert!(
        saves <= BUDGET as u32,
        "the history counts toward the budget"
    );
    // Fill the decision stream's ring, after which recording a checkpoint
    // evicts an event instead of growing the ring.
    let mut buf = Vec::new();
    for _ in 0..EVENT_CAPACITY {
        engine.checkpoint_into(&mut buf);
    }
    durable.save_checkpoint(&buf).unwrap();

    let before = allocations();
    for i in 0..BUDGET - 8 {
        store.save_slot(&rate, i as f64 / 10_000.0);
        assert!(!durable.maybe_compact().unwrap(), "below the budget");
        if i % 50 == 0 {
            engine.checkpoint_into(&mut buf);
            durable.save_checkpoint(&buf).unwrap();
        }
    }
    let allocated = allocations() - before;

    assert_eq!(
        allocated,
        0,
        "{} journaled saves and their checkpoints allocated {allocated} times",
        BUDGET - 8
    );
    assert_eq!(
        buf,
        engine.checkpoint().encode(),
        "the buffer is a checkpoint"
    );
    assert!(buf.windows(6).any(|w| w == b"delta "), "with DELTA state");
}

/// Monitors on one hook that every event below satisfies: argument rules,
/// a store read and a short-circuit rule, with actions that never run.
const HOT_SPECS: &str = r#"
guardrail io-size { trigger: { FUNCTION(io_submit) }, rule: { ARG(0) <= 4096 }, action: { RECORD(oversized, 1) } }
guardrail io-latency { trigger: { FUNCTION(io_submit) }, rule: { ARG(1) < 900 }, action: { RECORD(slow_ios, ARG(1)) } }
guardrail queue-depth { trigger: { FUNCTION(io_submit) }, rule: { LOAD(qdepth) < 64 }, action: { SAVE(deep_queue, LOAD(qdepth)) } }
guardrail either { trigger: { FUNCTION(io_submit) }, rule: { ARG(0) >= 0 || LOAD(qdepth) > 1 }, action: { REPORT("negative") } }
"#;

/// Delivers one event per `args` entry, 1 µs apart, as one batch.
fn healthy_batch<'a>(
    engine: &mut MonitorEngine,
    batch: &mut Vec<FnEvent<'a>>,
    args: &'a [[f64; 2]],
    now: &mut Nanos,
) {
    batch.clear();
    for event in args {
        *now += Nanos::from_micros(1);
        batch.push(FnEvent {
            now: *now,
            args: event,
        });
    }
    engine.on_function_batch("io_submit", batch);
}

#[test]
fn a_warm_healthy_function_batch_allocates_nothing() {
    let mut engine = MonitorEngine::new();
    engine.set_telemetry(Telemetry::new());
    engine.install_str(HOT_SPECS).unwrap();
    // A window wider than one ring word, so warming grows it.
    engine
        .set_hysteresis("io-latency", Hysteresis::n_of_m(3, 200))
        .unwrap();
    let store = engine.store();
    let qdepth = store.slot("qdepth");
    let args: Vec<[f64; 2]> = (0..256u32)
        .map(|i| [f64::from(i * 16), f64::from(i * 3)])
        .collect();
    let mut batch = Vec::with_capacity(args.len());
    let mut now = Nanos::ZERO;
    for _ in 0..4 {
        healthy_batch(&mut engine, &mut batch, &args, &mut now);
    }

    let before = allocations();
    for i in 0..64u32 {
        store.save_slot(&qdepth, f64::from(i % 64));
        healthy_batch(&mut engine, &mut batch, &args, &mut now);
    }
    let allocated = allocations() - before;

    assert_eq!(
        allocated, 0,
        "64 healthy batches allocated {allocated} times"
    );
    let stats = engine.stats();
    assert_eq!(stats.evaluations, 68 * 256 * 4);
    assert_eq!(stats.violations, 0, "every event is healthy");
}

#[test]
fn a_tiny_snapshot_claiming_many_entries_reserves_little() {
    // A checksummed 22-byte blob whose header claims the largest count the
    // decoder accepts, over a body with no entries. The decoder must report
    // the truncation without first reserving room for that many entries.
    let mut body = Vec::new();
    body.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    body.extend_from_slice(&7u64.to_le_bytes());
    body.extend_from_slice(&(1u32 << 24).to_le_bytes());
    let mut blob = SNAPSHOT_MAGIC.to_le_bytes().to_vec();
    blob.extend_from_slice(&body);
    blob.extend_from_slice(&crc32(&body).to_le_bytes());
    assert_eq!(blob.len(), 22);

    LARGEST.with(|n| n.set(0));
    let err = Snapshot::decode(&blob).unwrap_err().to_string();
    let largest = LARGEST.with(Cell::get);
    assert!(err.contains("truncated entry"), "{err}");
    assert!(
        largest <= 4096,
        "decoding 22 bytes asked for {largest} bytes at once"
    );
}
