//! OS Guardrails: declarative properties and corrective actions for learned
//! OS policies.
//!
//! This crate is the reproduction of the framework proposed in *"How I
//! learned to stop worrying and love learned OS policies"* (HotOS '25). A
//! **guardrail** couples a *property* — triggers (`TIMER`/`FUNCTION`) plus
//! declarative rules over a global feature store — with one or more
//! corrective *actions* (`REPORT`, `REPLACE`, `RETRAIN`, `DEPRIORITIZE`,
//! plus `SAVE`/`RECORD` state updates). Guardrail specifications are written
//! in a small language (Listing 1 of the paper), compiled to a verified
//! bytecode, and executed by a monitor engine attached to the kernel's
//! tracepoints and timers.
//!
//! The pipeline:
//!
//! 1. [`spec`] — lex, parse, and type-check guardrail source text.
//! 2. [`compile`] — lower rules and action operands to a stack bytecode,
//!    fold constants, and run an eBPF-style verifier (instruction budget,
//!    bounded stack, forward-only jumps, operand typing).
//! 3. [`monitor`] — the in-kernel engine: trigger scheduling, rule
//!    evaluation on the [`vm`], one bounded stream of its decisions
//!    (violations, actions, notices), per-monitor overhead accounting
//!    (property P5), and anti-oscillation hysteresis (§6).
//! 4. [`action`] — the A1–A4 action semantics and the command outbox that
//!    subsystems drain to apply `DEPRIORITIZE`/`RETRAIN`.
//! 5. [`store`] — the `SAVE`/`LOAD` feature store with windowed series,
//!    counters, EWMA, and histograms (§4.3).
//! 6. [`props`] — synthesized guardrail templates for the paper's property
//!    taxonomy P1–P6 (Figure 1).
//! 7. [`telemetry`] — the runtime's own observability: a metrics registry
//!    and self-monitoring via the reserved `__telemetry/` feature-store
//!    namespace (property P5 over the monitor collection itself).
//!
//! # Examples
//!
//! The paper's Listing 2 guardrail, end to end:
//!
//! ```
//! use guardrails::prelude::*;
//!
//! let src = r#"
//! guardrail low-false-submit {
//!     trigger: {
//!         TIMER(start_time, 1e9) // Periodically check every 1s.
//!     },
//!     rule: {
//!         LOAD(false_submit_rate) <= 0.05
//!     },
//!     action: {
//!         SAVE(ml_enabled, false)
//!     }
//! }
//! "#;
//! let mut engine = MonitorEngine::new();
//! engine.install_str(src).unwrap();
//! let store = engine.store();
//! store.save("ml_enabled", 1.0);
//! store.save("false_submit_rate", 0.2); // 20% false submits: violation.
//! engine.advance_to(Nanos::from_millis(500)); // First tick fires at t = 0.
//! assert_eq!(store.load("ml_enabled"), Some(0.0)); // Model disabled.
//! assert_eq!(engine.violations().len(), 1);
//! ```

#![warn(missing_docs)]

pub mod action;
pub mod compile;
pub mod error;
pub mod fault;
pub mod monitor;
pub mod policy;
pub mod prelude;
pub mod props;
pub mod spec;
pub mod stats;
pub mod store;
pub mod telemetry;
pub mod vm;

pub use error::GuardrailError;
pub use monitor::engine::MonitorEngine;
pub use monitor::resilience::{RecoveryConfig, RuntimeConfig};
pub use monitor::supervisor::{Supervisor, SupervisorConfig};
pub use policy::{FallbackPolicy, GuardedPolicy, LearnedPolicy, PolicyRegistry};
pub use store::durable::{DurabilityConfig, DurableStore, MemBackend, PersistBackend};
pub use store::{FeatureStore, Slot};
pub use telemetry::{Telemetry, TelemetrySnapshot};
