//! The ingestion workload shared by E11 (`exp_hotpath`), E12
//! (`exp_telemetry`) and the ledger's ingest row (`exp_layers`): a seeded
//! stream of I/O submissions through four monitors on one hook, with two
//! bystanders on other hooks so dispatch exercises index misses too.

use std::hint::black_box;
use std::sync::Arc;

use guardrails::compile::{compile, CompileOptions};
use guardrails::monitor::engine::{FnEvent, MonitorEngine};
use guardrails::spec::parse_and_check;
use guardrails::telemetry::is_reserved;
use guardrails::{FeatureStore, PolicyRegistry};
use simkernel::Nanos;

/// Events in one stream.
pub const EVENTS: usize = 100_000;
/// Events per `on_function_batch` call.
pub const BATCH: usize = 256;
/// The hook every event of the stream fires.
pub const HOOK: &str = "io_submit";
/// Monitors subscribed to [`HOOK`].
pub const MONITORS_ON_HOOK: usize = 4;

/// Four monitors on the hot hook (argument rules lower to single
/// superinstructions; the store rule to a load-compare) and two bystanders.
const SPECS: &str = r#"
guardrail io-size { trigger: { FUNCTION(io_submit) }, rule: { ARG(0) <= 4096 }, action: { RECORD(oversized, 1) } }
guardrail io-latency { trigger: { FUNCTION(io_submit) }, rule: { ARG(1) < 900 }, action: { RECORD(slow_ios, 1) } }
guardrail queue-depth { trigger: { FUNCTION(io_submit) }, rule: { LOAD(qdepth) < 64 }, action: { RECORD(deep_queue, 1) } }
guardrail sane-size { trigger: { FUNCTION(io_submit) }, rule: { ARG(0) >= 0 }, action: { RECORD(negative_size, 1) } }
guardrail bystander-a { trigger: { FUNCTION(mem_place) }, rule: { ARG(0) < 1e9 }, action: { RECORD(a_hits, 1) } }
guardrail bystander-b { trigger: { FUNCTION(net_poll) }, rule: { ARG(0) < 1e9 }, action: { RECORD(b_hits, 1) } }
"#;

/// One xorshift64 step: the workloads' deterministic generator.
pub fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// [`EVENTS`] synthetic I/O submissions, each a (size, latency) argument
/// pair drawn from `seed`.
pub fn workload(seed: u64) -> Vec<[f64; 2]> {
    let mut state = seed;
    (0..EVENTS)
        .map(|_| {
            let size = (xorshift(&mut state) % 4200) as f64;
            let lat = (xorshift(&mut state) % 1000) as f64;
            [size, lat]
        })
        .collect()
}

/// An engine with the workload's six monitors installed, compiled with or
/// without the AST optimizer, over a fresh store whose `qdepth` is 5.
pub fn build_engine(optimize: bool) -> MonitorEngine {
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

/// Everything user-visible about a run: evaluations, violations, the
/// exported decision stream and the store's scalars. `__telemetry/` keys
/// are left out: the reserved namespace is observability, not behaviour.
pub fn fingerprint(engine: &MonitorEngine) -> (u64, u64, String, Vec<(String, f64)>) {
    let stats = engine.stats();
    let mut scalars = engine.store().scalars();
    scalars.retain(|(key, _)| !is_reserved(key));
    scalars.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    (
        stats.evaluations,
        stats.violations,
        engine.events().export_json_lines(),
        scalars,
    )
}

/// Batched ingestion: `events` one simulated microsecond apart, in
/// [`BATCH`]-event `on_function_batch` calls, draining the commands into
/// one reused buffer after each.
pub fn run_ingest(engine: &mut MonitorEngine, events: &[[f64; 2]]) {
    let mut cmd_buf = Vec::new();
    let mut batch: Vec<FnEvent<'_>> = Vec::with_capacity(BATCH);
    let mut now = Nanos::ZERO;
    for chunk in events.chunks(BATCH) {
        batch.clear();
        let base = now;
        batch.extend(chunk.iter().enumerate().map(|(i, args)| FnEvent {
            now: base + Nanos::from_micros(i as u64 + 1),
            args: &args[..],
        }));
        now = base + Nanos::from_micros(chunk.len() as u64);
        engine.on_function_batch(HOOK, &batch);
        cmd_buf.clear();
        engine.drain_commands_into(&mut cmd_buf);
        for command in &cmd_buf {
            black_box(command);
        }
    }
}
