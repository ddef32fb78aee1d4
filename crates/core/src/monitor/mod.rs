//! The in-kernel monitor runtime.
//!
//! Compiled guardrails are installed into a [`engine::MonitorEngine`], which
//! schedules `TIMER` triggers, receives `FUNCTION` tracepoint firings,
//! evaluates rules on the VM, records [`violation::Violation`]s, applies
//! hysteresis, dispatches actions, and accounts per-monitor overhead.

pub mod checkpoint;
pub mod engine;
pub mod hysteresis;
pub mod overhead;
pub mod resilience;
pub mod state;
pub mod supervisor;
pub mod violation;

pub use checkpoint::EngineCheckpoint;
pub use engine::{EngineStats, MonitorEngine};
pub use hysteresis::{Hysteresis, HysteresisState};
pub use overhead::{OverheadAccount, OverheadReport, NS_PER_FUEL};
pub use resilience::{
    FailMode, RecoveryConfig, ResilienceConfig, RetryPolicy, RuntimeConfig, WatchdogConfig,
};
pub use state::{MonitorState, PendingRetrain};
pub use supervisor::{fail_closed, RestartDecision, Supervisor, SupervisorConfig, SupervisorState};
pub use violation::{TriggerKind, Violation, ViolationLog};
