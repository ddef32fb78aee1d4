//! Crash recovery: guardrail decisions that survive reboots.
//!
//! A restart that wipes the feature store silently re-arms the very model a
//! guardrail had disabled. This example walks the recovery layer one piece
//! at a time — the WAL + snapshot durable store, the engine checkpoint, the
//! supervisor's escalation ladder — and then runs the E10 crash scenario
//! contrasting the seed runtime with the recovery runtime.
//!
//! Run with: `cargo run --release --example crash_recovery`

use std::sync::Arc;

use guardrails_repro::guardrails::monitor::supervisor::{fail_closed, RestartDecision, Supervisor};
use guardrails_repro::guardrails::monitor::EngineCheckpoint;
use guardrails_repro::guardrails::prelude::*;
use guardrails_repro::guardrails::store::durable::{
    DurabilityConfig, DurableStore, MemBackend, PersistBackend,
};
use guardrails_repro::storagesim::{run_crash_pair, run_no_crash_reference};

const LISTING_2: &str = r#"
guardrail low-false-submit {
    trigger: { TIMER(start_time, 1e9) },
    rule: { LOAD(false_submit_rate) <= 0.05 },
    action: {
        SAVE(ml_enabled, false)
        REPLACE(io_submit, safe)
    }
}
"#;

fn open(backend: &Arc<MemBackend>) -> DurableStore {
    let b: Arc<dyn PersistBackend> = backend.clone();
    DurableStore::open(b, DurabilityConfig::default())
        .unwrap()
        .0
}

fn main() {
    // 1. The durable store: every SAVE is write-ahead-logged, so state
    //    survives a process death — including a crash that tears the final
    //    append mid-write.
    let backend = Arc::new(MemBackend::new());
    {
        let durable = open(&backend);
        let store = durable.store();
        store.save("ml_enabled", 0.0); // the guardrail's kill switch
        store.save("false_submit_rate", 0.12);
    }
    backend.tear_wal_tail(5); // crash mid-append of the last frame
    {
        let b: Arc<dyn PersistBackend> = backend.clone();
        let (durable, report) = DurableStore::open(b, DurabilityConfig::default()).unwrap();
        println!(
            "durable store: ml_enabled={:?} after reboot ({} byte torn tail repaired, tainted={})",
            durable.store().load("ml_enabled"),
            report.torn_tail_bytes,
            report.tainted(),
        );
    }

    // 2. The engine checkpoint: hysteresis, enabled/disabled state, and the
    //    REPLACE-chosen policy variant all resume. Here the guardrail fires,
    //    the process dies, and the next incarnation comes up with the model
    //    still off and the safe variant still pinned.
    let backend = Arc::new(MemBackend::new());
    {
        let durable = open(&backend);
        let registry = Arc::new(PolicyRegistry::new());
        registry
            .register("io_submit", &[VARIANT_LEARNED, "safe"])
            .unwrap();
        registry.set_default_variant("io_submit", "safe").unwrap();
        let mut engine = MonitorEngine::with_parts(durable.store(), Arc::clone(&registry));
        engine.install_str(LISTING_2).unwrap();
        let store = engine.store();
        store.save("ml_enabled", 1.0);
        store.save("false_submit_rate", 0.2);
        engine.advance_to(Nanos::from_secs(3)); // the guardrail trips here
        durable
            .save_checkpoint(&engine.checkpoint().encode())
            .unwrap();
        // ...crash: engine, store, and registry all die with the process.
    }
    {
        let durable = open(&backend);
        let registry = Arc::new(PolicyRegistry::new());
        registry
            .register("io_submit", &[VARIANT_LEARNED, "safe"])
            .unwrap();
        registry.set_default_variant("io_submit", "safe").unwrap();
        let mut engine = MonitorEngine::with_parts(durable.store(), Arc::clone(&registry));
        engine.install_str(LISTING_2).unwrap();
        let cp = EngineCheckpoint::decode(&durable.load_checkpoint().unwrap()).unwrap();
        engine.advance_to(cp.now);
        engine.restore(&cp).unwrap();
        println!(
            "checkpoint: after restart ml_enabled={} and active variant='{}'",
            engine.store().flag("ml_enabled"),
            registry.active("io_submit").unwrap(),
        );
    }

    // 3. The supervisor: isolated crashes restart with doubling backoff; a
    //    rapid crash loop escalates to fail-closed — fallbacks pinned, the
    //    enable flag zeroed, with no monitor left running at all.
    let mut supervisor = Supervisor::new();
    let registry = Arc::new(PolicyRegistry::new());
    registry
        .register("io_submit", &[VARIANT_LEARNED, "safe"])
        .unwrap();
    registry.set_default_variant("io_submit", "safe").unwrap();
    registry.replace("io_submit", VARIANT_LEARNED).unwrap();
    let store = FeatureStore::new();
    store.save("ml_enabled", 1.0);
    let mut now = Nanos::from_secs(1);
    loop {
        match supervisor.on_crash(now) {
            RestartDecision::Restart { at, backoff } => {
                println!(
                    "supervisor: crash at {:.1}s -> restart after {}ms",
                    now.as_secs_f64(),
                    backoff.as_nanos() / 1_000_000,
                );
                now = at + Nanos::from_millis(50); // ...and it crashes again
            }
            RestartDecision::FailClosed => {
                let pins = fail_closed(&registry, &store, &["ml_enabled"]);
                println!(
                    "supervisor: crash loop -> fail closed, pinned {:?}, ml_enabled={}",
                    pins,
                    store.flag("ml_enabled"),
                );
                break;
            }
        }
    }

    // 4. The full E10 scenario: the LinnOS run crashed at t=8s, 1s after the
    //    guardrail disabled the model. The seed runtime re-runs init on boot
    //    and re-arms the dead model; the recovery runtime resumes.
    println!("\nE10 (crash at the Listing-2 violation point):");
    let reference = run_no_crash_reference(0xF162);
    let (seed_run, recovered) = run_crash_pair(FaultKind::Crash, 0xF162);
    for r in [&reference, &seed_run, &recovered] {
        println!(
            "  {:<10} {:<9} re-armed I/Os: {:>5}  post-crash latency: {:.0}us",
            r.label,
            if r.durable { "recovery" } else { "seed" },
            r.rearmed_ios,
            r.post_crash_latency_us,
        );
    }
    println!(
        "  the recovery runtime lost no decisions and lands within {:.1}% of the no-crash run",
        100.0 * (recovered.post_crash_latency_us - reference.post_crash_latency_us).abs()
            / reference.post_crash_latency_us,
    );
}
