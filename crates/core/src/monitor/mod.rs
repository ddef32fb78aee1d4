//! The in-kernel monitor runtime.
//!
//! Compiled guardrails are installed into a [`engine::MonitorEngine`], which
//! schedules `TIMER` triggers, receives `FUNCTION` tracepoint firings,
//! evaluates rules on the VM, applies hysteresis, dispatches actions, accounts
//! per-monitor overhead, and records each decision once in its
//! [`events::EventLog`].

pub mod checkpoint;
pub mod engine;
pub mod events;
pub mod hysteresis;
pub mod overhead;
pub mod resilience;
pub mod state;
pub mod supervisor;

pub use checkpoint::EngineCheckpoint;
pub use engine::{EngineStats, MonitorEngine};
pub use events::{Event, EventKind, EventLog, TriggerKind, Violation, EVENT_CAPACITY};
pub use hysteresis::{Hysteresis, HysteresisState};
pub use overhead::{OverheadAccount, OverheadReport, NS_PER_FUEL};
pub use resilience::{
    FailMode, RecoveryConfig, ResilienceConfig, RetryPolicy, RuntimeConfig, WatchdogConfig,
};
pub use state::{MonitorState, PendingRetrain};
pub use supervisor::{fail_closed, RestartDecision, Supervisor, SupervisorState};
