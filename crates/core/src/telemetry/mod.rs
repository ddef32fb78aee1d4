//! Runtime observability for the guardrail runtime itself.
//!
//! The paper's property taxonomy includes P5 (decision overhead), and its
//! action set is anchored by A1 (`REPORT`) — yet a monitor collection that
//! cannot observe *itself* leaves the operator guessing about where monitor
//! time goes. This module closes that gap with two pieces:
//!
//! 1. **One counter source.** The engine counts every evaluation,
//!    violation, trip, fuel unit, action firing and measured nanosecond
//!    once, on the monitor's own [`crate::monitor::OverheadAccount`].
//!    Engine-wide figures — [`crate::monitor::MonitorEngine::stats`],
//!    [`crate::monitor::MonitorEngine::telemetry_snapshot`] and the
//!    published `__telemetry/engine/*` and `actions/*` keys — are sums of
//!    those accounts, read on demand. A metrics registry
//!    ([`MetricsRegistry`]) of counters and fixed log-scale-bucket
//!    histograms holds only what telemetry itself measures
//!    ([`EngineMetrics`]): batches, batch events, the eval-wall-time
//!    histogram, checkpoints and restores.
//! 2. **Self-monitoring**: [`crate::monitor::MonitorEngine::publish_telemetry`]
//!    writes the metrics into the feature store under the reserved
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
//! Everything on the hot path is allocation-free and the per-evaluation
//! path is atomic-free: counting is a plain `+=` on the monitor's account,
//! the same with telemetry attached or not. Registry updates happen once per
//! entry point (once per batch, not once per event), and histogram observes
//! are a shift plus two adds.

pub mod metrics;

use std::sync::Arc;

pub use metrics::{Counter, LogHistogram, MetricValue, MetricsRegistry, HIST_BUCKETS};

use crate::store::FeatureStore;

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

/// Pre-registered metric handles for what telemetry itself measures.
///
/// Handles are `Arc`s shared with the owning [`MetricsRegistry`], so the
/// engine records with one relaxed atomic op per entry point and the
/// registry still sees every metric at export time. Evaluation, fuel and
/// action counts are not here: they live on the monitors' accounts.
#[derive(Debug)]
pub struct EngineMetrics {
    /// Batches ingested via `on_function_batch`.
    pub batches: Arc<Counter>,
    /// Events ingested across all batches.
    pub batch_events: Arc<Counter>,
    /// Wall-time distribution, one sample per timer evaluation or batch.
    pub eval_wall_hist: Arc<LogHistogram>,
    /// Engine checkpoints captured.
    pub checkpoints: Arc<Counter>,
    /// Engine restores (supervised restarts).
    pub restores: Arc<Counter>,
}

impl EngineMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        EngineMetrics {
            batches: registry.counter("engine/batches"),
            batch_events: registry.counter("engine/batch_events"),
            eval_wall_hist: registry.histogram("engine/eval_wall_ns_hist"),
            checkpoints: registry.counter("engine/checkpoints"),
            restores: registry.counter("engine/restores"),
        }
    }
}

/// A deterministic summary of the engine's counters, read with
/// [`crate::monitor::MonitorEngine::telemetry_snapshot`].
///
/// Wall-clock fields are deliberately absent: two observationally identical
/// runs (for example the batched and sequential ingestion paths) must
/// produce *equal* snapshots, which is exactly what the sim equivalence
/// proptests assert.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Rule-set evaluations performed.
    pub evaluations: u64,
    /// Violations detected.
    pub violations: u64,
    /// Post-hysteresis trips.
    pub trips: u64,
    /// Fuel burned by rules.
    pub rule_fuel: u64,
    /// Fuel burned by action operands.
    pub action_fuel: u64,
    /// Action firings by kind, indexed by [`ActionKind`].
    pub actions: [u64; 6],
}

/// The telemetry bundle a host attaches to an engine: one registry and the
/// pre-registered engine handles.
#[derive(Debug)]
pub struct Telemetry {
    registry: MetricsRegistry,
    /// Recording handles (hot-path side).
    pub m: EngineMetrics,
}

impl Telemetry {
    /// Creates a telemetry bundle.
    pub fn new() -> Arc<Self> {
        let registry = MetricsRegistry::new();
        let m = EngineMetrics::register(&registry);
        Arc::new(Telemetry { registry, m })
    }

    /// Publishes every registered metric into `store` under the reserved
    /// `__telemetry/` namespace (`__telemetry/<metric-name>` for scalars,
    /// `.../{count,sum,p50,p95,p99}` for histograms). Reserved keys skip the
    /// write-ahead journal, so publishing is cheap and never pollutes durable
    /// state.
    pub fn publish_registry(&self, store: &FeatureStore) {
        let mut key = String::with_capacity(64);
        for (name, value) in self.registry.snapshot() {
            key.clear();
            key.push_str(RESERVED_PREFIX);
            key.push_str(name);
            match value {
                MetricValue::Counter(v) => store.save(&key, v as f64),
                MetricValue::Histogram {
                    count,
                    sum,
                    p50,
                    p95,
                    p99,
                } => {
                    let base = key.len();
                    for (suffix, v) in [
                        ("/count", count),
                        ("/sum", sum),
                        ("/p50", p50),
                        ("/p95", p95),
                        ("/p99", p99),
                    ] {
                        key.truncate(base);
                        key.push_str(suffix);
                        store.save(&key, v as f64);
                    }
                }
            }
        }
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
    fn publish_writes_reserved_keys() {
        let t = Telemetry::new();
        t.m.batches.add(7);
        t.m.eval_wall_hist.observe(100);
        let store = FeatureStore::new();
        t.publish_registry(&store);
        assert_eq!(store.load("__telemetry/engine/batches"), Some(7.0));
        assert_eq!(
            store.load("__telemetry/engine/eval_wall_ns_hist/count"),
            Some(1.0)
        );
        // Publishing is repeatable (overwrite-in-place).
        t.m.batches.inc();
        t.publish_registry(&store);
        assert_eq!(store.load("__telemetry/engine/batches"), Some(8.0));
    }

    #[test]
    fn action_kind_names_cover_all() {
        for (i, kind) in ActionKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i);
            assert!(!kind.name().is_empty());
        }
    }
}
