//! Integration test: the guardrail runtime is killed and restarted in the
//! middle of the Listing-2 scenario, and its decisions — the `SAVE`d
//! kill-switch *and* the `REPLACE`d policy slot — survive the restart via
//! the durable store + engine checkpoint. A crash loop escalates to
//! fail-closed through the supervisor.

use std::sync::Arc;

use guardrails::monitor::supervisor::{fail_closed, RestartDecision, Supervisor};
use guardrails::monitor::EngineCheckpoint;
use guardrails::store::durable::{DurabilityConfig, DurableStore, MemBackend, PersistBackend};
use guardrails::{MonitorEngine, PolicyRegistry};
use simkernel::Nanos;

const LISTING_2: &str = r#"
guardrail low-false-submit {
    trigger: { TIMER(0, 1s) },
    rule: { LOAD(false_submit_rate) <= 0.05 },
    action: {
        SAVE(ml_enabled, false)
        REPLACE(io_submit, safe)
    }
}
"#;

fn fresh_registry() -> Arc<PolicyRegistry> {
    let registry = Arc::new(PolicyRegistry::new());
    registry
        .register("io_submit", &["learned", "safe"])
        .unwrap();
    registry.set_default_variant("io_submit", "safe").unwrap();
    registry.replace("io_submit", "learned").unwrap();
    registry
}

fn boot(backend: &Arc<MemBackend>) -> (MonitorEngine, DurableStore, Arc<PolicyRegistry>) {
    let b: Arc<dyn PersistBackend> = backend.clone();
    let (durable, report) = DurableStore::open(b, DurabilityConfig::default()).unwrap();
    assert!(!report.tainted());
    let registry = fresh_registry();
    let mut engine = MonitorEngine::with_parts(durable.store(), Arc::clone(&registry));
    engine.install_str(LISTING_2).unwrap();
    (engine, durable, registry)
}

#[test]
fn decisions_survive_a_mid_scenario_crash() {
    let backend = Arc::new(MemBackend::new());

    // First incarnation: healthy start, then the false-submit rate spikes
    // and the guardrail fires — disabling the model and swapping the slot.
    {
        let (mut engine, durable, registry) = boot(&backend);
        let store = engine.store();
        store.save("ml_enabled", 1.0);
        store.save("false_submit_rate", 0.01);
        engine.advance_to(Nanos::from_secs(2));
        assert!(
            store.flag("ml_enabled"),
            "healthy phase leaves the model on"
        );

        store.save("false_submit_rate", 0.2);
        engine.advance_to(Nanos::from_secs(3));
        assert!(!store.flag("ml_enabled"));
        assert!(registry.is_active("io_submit", "safe"));
        durable
            .save_checkpoint(&engine.checkpoint().encode())
            .unwrap();
        // Crash: the engine, store, and registry all die here.
    }

    // Second incarnation: a fresh process reopens the durable store (which
    // replays the WAL) and restores the checkpoint (which re-pins the slot).
    {
        let (mut engine, durable, registry) = boot(&backend);
        let checkpoint = EngineCheckpoint::decode(&durable.load_checkpoint().unwrap()).unwrap();
        engine.advance_to(checkpoint.now);
        engine.restore(&checkpoint).unwrap();
        let store = engine.store();

        assert!(!store.flag("ml_enabled"), "SAVE survived the crash");
        assert!(
            registry.is_active("io_submit", "safe"),
            "REPLACE survived the crash"
        );
        assert_eq!(store.load("false_submit_rate"), Some(0.2));

        // The scenario continues: the model stays disabled, and the restored
        // stats carry the first incarnation's violations forward.
        engine.advance_to(Nanos::from_secs(6));
        assert!(!store.flag("ml_enabled"));
        assert!(registry.is_active("io_submit", "safe"));
        assert!(engine.stats().violations > 0);
    }
}

#[test]
fn a_crash_loop_escalates_to_fail_closed() {
    let backend = Arc::new(MemBackend::new());
    let mut supervisor = Supervisor::new();

    let mut now = Nanos::from_secs(1);
    let mut restarts = 0u32;
    loop {
        let (mut engine, durable, registry) = boot(&backend);
        let store = engine.store();
        store.save("ml_enabled", 1.0);
        engine.advance_to(now);
        drop(engine); // The runtime crashes immediately after boot.

        match supervisor.on_crash(now) {
            RestartDecision::Restart { at, backoff } => {
                assert!(backoff > Nanos::ZERO);
                restarts += 1;
                supervisor.on_restarted();
                now = at;
            }
            RestartDecision::FailClosed => {
                // No more restarts: pin fallbacks and kill the enable flag
                // with no engine running at all.
                let pins = fail_closed(&registry, &store, &["ml_enabled"]);
                assert_eq!(pins, vec![("io_submit".to_string(), "safe".to_string())]);
                assert!(!store.flag("ml_enabled"));
                assert!(registry.is_active("io_submit", "safe"));
                drop(durable);
                break;
            }
        }
        drop(durable);
    }

    assert_eq!(
        restarts, 2,
        "third rapid crash escalates instead of restarting"
    );
    assert!(supervisor.failed_closed());
    assert_eq!(supervisor.crashes(), 3);

    // The fail-closed decision is itself durable: the zeroed flag was
    // journaled, so even a later reboot comes up with the model off.
    let b: Arc<dyn PersistBackend> = backend.clone();
    let (durable, _) = DurableStore::open(b, DurabilityConfig::default()).unwrap();
    assert!(!durable.store().flag("ml_enabled"));
}
