//! Runtime observability for the guardrail runtime itself.
//!
//! The paper's property taxonomy includes P5 (decision overhead), and its
//! action set is anchored by A1 (`REPORT`) — yet a monitor collection that
//! cannot observe *itself* leaves the operator guessing about where monitor
//! time goes. This module closes that gap with two pieces:
//!
//! 1. **Accounts count, telemetry measures.** The engine counts every
//!    evaluation, violation, trip, fuel unit and action firing once, on the
//!    monitor's own [`crate::monitor::OverheadAccount`]. Engine-wide
//!    counters — [`crate::monitor::MonitorEngine::telemetry_snapshot`],
//!    [`crate::monitor::MonitorEngine::stats`] and the published
//!    `__telemetry/engine/*` and `actions/*` keys — are sums of those
//!    accounts, read on demand, and as deterministic as they are.
//!    [`Telemetry`] is the one place that measures: how many batches and
//!    batch events arrived, and the wall-time distribution of the engine's
//!    timed sections. Nothing it records is checkpointed.
//! 2. **Self-monitoring**: [`crate::monitor::MonitorEngine::publish_telemetry`]
//!    writes these figures into the feature store under the reserved
//!    `__telemetry/` namespace, so a guardrail spec can `LOAD` them — the
//!    worked "overhead guardrail" (`examples/overhead_guardrail.rs`)
//!    `REPORT`s and `DEPRIORITIZE`s a monitor whose own P5 overhead exceeds
//!    budget, closing the paper's loop.
//!
//! What the engine *decided* — violations, actions, notices, checkpoints,
//! restarts — is not here: the engine records each decision once in its
//! own stream ([`crate::monitor::EventLog`]).
//!
//! Reserved keys are process-lifetime observations, not durable state: the
//! store's write-ahead journal skips them, snapshots exclude them, and WAL
//! replay refuses to resurrect them into user state (see
//! [`crate::store::durable`]).
//!
//! Counting is a plain `+=` on the monitor's account, the same with
//! telemetry attached or not. [`Telemetry`] is a plain value the engine
//! owns, written once per timed section (a batch, or the timer ticks one
//! `advance_to` runs), never per evaluation; without it the engine reads
//! no clock.

use crate::store::histogram::Histogram;

/// Prefix of the reserved self-monitoring namespace in the feature store.
pub const RESERVED_PREFIX: &str = "__telemetry/";

/// Whether `key` lives in the reserved telemetry namespace (and is
/// therefore never journaled, snapshotted, or replayed into user state).
#[inline]
pub fn is_reserved(key: &str) -> bool {
    key.as_bytes().first() == Some(&b'_') && key.starts_with(RESERVED_PREFIX)
}

/// The action kinds counted by [`crate::monitor::OverheadAccount::actions`],
/// in index order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum ActionKind {
    /// `REPORT` (A1).
    Report = 0,
    /// `REPLACE` (A2).
    Replace = 1,
    /// `RETRAIN` (A3).
    Retrain = 2,
    /// `DEPRIORITIZE` (A4).
    Deprioritize = 3,
    /// `SAVE` (A5).
    Save = 4,
    /// `RECORD` (A6).
    Record = 5,
}

impl ActionKind {
    /// All kinds, in counter-index order.
    pub const ALL: [ActionKind; 6] = [
        ActionKind::Report,
        ActionKind::Replace,
        ActionKind::Retrain,
        ActionKind::Deprioritize,
        ActionKind::Save,
        ActionKind::Record,
    ];

    /// Short lowercase name (used in metric names and exports).
    pub fn name(self) -> &'static str {
        match self {
            ActionKind::Report => "report",
            ActionKind::Replace => "replace",
            ActionKind::Retrain => "retrain",
            ActionKind::Deprioritize => "deprioritize",
            ActionKind::Save => "save",
            ActionKind::Record => "record",
        }
    }
}

/// What telemetry measures beside the monitors' accounts, owned by the
/// engine it is attached to ([`crate::monitor::MonitorEngine::set_telemetry`])
/// and read through [`crate::monitor::MonitorEngine::publish_telemetry`].
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Batches ingested via `on_function_batch` by a hook with subscribers.
    pub(crate) batches: u64,
    /// Events ingested across those batches.
    pub(crate) batch_events: u64,
    /// Wall time of the engine's timed sections, in nanoseconds: one sample
    /// per batch or per `advance_to` call in which some monitor evaluated.
    pub(crate) eval_wall_ns: Histogram,
}

impl Telemetry {
    /// Creates empty telemetry.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_prefix_detection() {
        assert!(is_reserved("__telemetry/engine/evaluations"));
        assert!(is_reserved("__telemetry/"));
        assert!(!is_reserved("__telemetry")); // No trailing slash: user key.
        assert!(!is_reserved("false_submit_rate"));
        assert!(!is_reserved(""));
    }

    #[test]
    fn action_kind_names_cover_all() {
        for (i, kind) in ActionKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i);
            assert!(!kind.name().is_empty());
        }
    }
}
