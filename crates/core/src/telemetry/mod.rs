//! Runtime observability for the guardrail runtime itself.
//!
//! The paper's property taxonomy includes P5 (decision overhead), and its
//! action set is anchored by A1 (`REPORT`) — yet a monitor collection that
//! cannot observe *itself* leaves the operator guessing about where monitor
//! time goes. This module closes that gap with three pieces:
//!
//! 1. **A metrics registry** ([`MetricsRegistry`]) of counters, gauges, and
//!    fixed log-scale-bucket histograms. The engine, feature store, and
//!    WAL all record into pre-registered handles
//!    ([`EngineMetrics`]): per-guardrail eval wall time, fuel burned,
//!    store saves, WAL bytes/flushes/group sizes, and action firings by
//!    kind.
//! 2. **A trace ring** ([`TraceRing`]): a lock-free, bounded,
//!    overwrite-oldest ring of spans and events (eval start/end, violation,
//!    action, checkpoint, restart) with text and JSON exporters.
//! 3. **Self-monitoring**: [`crate::monitor::MonitorEngine::publish_telemetry`]
//!    writes the metrics into the feature store under the reserved
//!    `__telemetry/` namespace, so a guardrail spec can `LOAD` them — the
//!    worked "overhead guardrail" (`examples/overhead_guardrail.rs`)
//!    `REPORT`s and `DEPRIORITIZE`s a monitor whose own P5 overhead exceeds
//!    budget, closing the paper's loop.
//!
//! Reserved keys are process-lifetime observations, not durable state: the
//! store's write-ahead journal skips them, snapshots exclude them, and WAL
//! replay refuses to resurrect them into user state (see
//! [`crate::store::durable`]).
//!
//! Everything on the hot path is allocation-free — and the per-evaluation
//! path is *atomic-free*: the engine accumulates evaluation counts, fuel,
//! and action firings in a plain-integer [`TelemetryDelta`] and flushes it
//! to the shared atomic counters once per entry point (once per batch, not
//! once per event), so attaching telemetry costs a few register adds per
//! evaluation. Histogram observes are a shift plus two adds, and trace
//! records (rare events only: violations, actions, checkpoints) are five
//! atomic stores into a pre-sized ring.

pub mod metrics;
pub mod trace;

use std::sync::Arc;

use simkernel::Nanos;

pub use metrics::{Counter, Gauge, LogHistogram, MetricValue, MetricsRegistry, HIST_BUCKETS};
pub use trace::{TraceEvent, TraceKind, TraceRing, NO_MONITOR};

use crate::store::FeatureStore;

/// Prefix of the reserved self-monitoring namespace in the feature store.
pub const RESERVED_PREFIX: &str = "__telemetry/";

/// Whether `key` lives in the reserved telemetry namespace (and is
/// therefore never journaled, snapshotted, or replayed into user state).
#[inline]
pub fn is_reserved(key: &str) -> bool {
    key.as_bytes().first() == Some(&b'_') && key.starts_with(RESERVED_PREFIX)
}

/// The action kinds counted by [`EngineMetrics::actions`], in index order.
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

/// Pre-registered metric handles for the engine and its collaborators.
///
/// Handles are `Arc`s shared with the owning [`MetricsRegistry`], so the
/// hot path records with one relaxed atomic op and the registry still sees
/// every metric at export time.
#[derive(Debug)]
pub struct EngineMetrics {
    /// Rule-set evaluations performed.
    pub evaluations: Arc<Counter>,
    /// Violations detected (rule false).
    pub violations: Arc<Counter>,
    /// Violations whose actions fired (post-hysteresis).
    pub trips: Arc<Counter>,
    /// Fuel burned by rule programs.
    pub rule_fuel: Arc<Counter>,
    /// Fuel burned by action operand programs.
    pub action_fuel: Arc<Counter>,
    /// Batches ingested via `on_function_batch`.
    pub batches: Arc<Counter>,
    /// Events ingested across all batches.
    pub batch_events: Arc<Counter>,
    /// Measured wall nanoseconds spent evaluating.
    pub eval_wall_ns: Arc<Counter>,
    /// Wall-time distribution, one sample per timer evaluation or batch.
    pub eval_wall_hist: Arc<LogHistogram>,
    /// Engine checkpoints captured.
    pub checkpoints: Arc<Counter>,
    /// Engine restores (supervised restarts).
    pub restores: Arc<Counter>,
    /// Action firings by kind, indexed by [`ActionKind`].
    pub actions: [Arc<Counter>; 6],
    /// Feature-store scalar writes (copied from the store at publish).
    pub store_saves: Arc<Gauge>,
    /// WAL bytes appended (copied from the durable store at publish).
    pub wal_bytes: Arc<Gauge>,
    /// WAL frame flushes (copied at publish).
    pub wal_flushes: Arc<Gauge>,
    /// Distribution of records per group-commit frame.
    pub wal_group_hist: Arc<LogHistogram>,
}

impl EngineMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        EngineMetrics {
            evaluations: registry.counter("engine/evaluations"),
            violations: registry.counter("engine/violations"),
            trips: registry.counter("engine/trips"),
            rule_fuel: registry.counter("engine/rule_fuel"),
            action_fuel: registry.counter("engine/action_fuel"),
            batches: registry.counter("engine/batches"),
            batch_events: registry.counter("engine/batch_events"),
            eval_wall_ns: registry.counter("engine/eval_wall_ns"),
            eval_wall_hist: registry.histogram("engine/eval_wall_ns_hist"),
            checkpoints: registry.counter("engine/checkpoints"),
            restores: registry.counter("engine/restores"),
            actions: [
                registry.counter("actions/report"),
                registry.counter("actions/replace"),
                registry.counter("actions/retrain"),
                registry.counter("actions/deprioritize"),
                registry.counter("actions/save"),
                registry.counter("actions/record"),
            ],
            store_saves: registry.gauge("store/saves"),
            wal_bytes: registry.gauge("wal/bytes"),
            wal_flushes: registry.gauge("wal/flushes"),
            wal_group_hist: registry.histogram("wal/group_records_hist"),
        }
    }
}

/// Plain-integer accumulator for the per-evaluation hot path.
///
/// Shared atomic counters cost a lock-prefixed RMW per update — measurably
/// slow when charged per evaluation (hundreds of thousands per second).
/// The engine instead bumps these plain fields during an ingestion batch
/// (or a single timer evaluation) and flushes the whole delta with
/// [`TelemetryDelta::apply`] at the end of the entry point, which keeps
/// counter totals exact at every API boundary while making the per-event
/// cost a handful of register adds.
#[derive(Clone, Copy, Debug, Default)]
pub struct TelemetryDelta {
    /// Rule-set evaluations performed.
    pub evaluations: u64,
    /// Fuel burned by rule programs.
    pub rule_fuel: u64,
    /// Violations detected.
    pub violations: u64,
    /// Post-hysteresis trips.
    pub trips: u64,
    /// Fuel burned by action operand programs.
    pub action_fuel: u64,
    /// Action firings by kind, indexed by [`ActionKind`].
    pub actions: [u64; 6],
}

impl TelemetryDelta {
    /// Adds the accumulated counts to the shared counters. Zero fields are
    /// skipped so a quiet flush (the common timer-path case) costs a few
    /// compare-and-branches, not a cache-line bounce per metric.
    pub fn apply(&self, m: &EngineMetrics) {
        for (count, counter) in [
            (self.evaluations, &m.evaluations),
            (self.rule_fuel, &m.rule_fuel),
            (self.violations, &m.violations),
            (self.trips, &m.trips),
            (self.action_fuel, &m.action_fuel),
        ] {
            if count != 0 {
                counter.add(count);
            }
        }
        for (count, counter) in self.actions.iter().zip(&m.actions) {
            if *count != 0 {
                counter.add(*count);
            }
        }
    }
}

/// A deterministic summary of the telemetry counters.
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
    /// Trace events recorded that are not wall-time spans (violations,
    /// actions, checkpoints, restarts).
    pub trace_marks: u64,
}

/// The telemetry bundle a host attaches to an engine (and optionally the
/// durable store): one registry, the pre-registered engine handles, and
/// the trace ring.
#[derive(Debug)]
pub struct Telemetry {
    registry: MetricsRegistry,
    /// Recording handles (hot-path side).
    pub m: EngineMetrics,
    /// The span/event trace.
    pub trace: TraceRing,
}

/// Default trace-ring capacity (events).
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

impl Telemetry {
    /// Creates a telemetry bundle with the default trace capacity.
    pub fn new() -> Arc<Self> {
        Self::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// Creates a telemetry bundle whose trace ring holds `capacity` events.
    pub fn with_trace_capacity(capacity: usize) -> Arc<Self> {
        let registry = MetricsRegistry::new();
        let m = EngineMetrics::register(&registry);
        Arc::new(Telemetry {
            registry,
            m,
            trace: TraceRing::new(capacity),
        })
    }

    /// The metrics registry (export side).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Reads the deterministic counter summary (see [`TelemetrySnapshot`]).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            evaluations: self.m.evaluations.get(),
            violations: self.m.violations.get(),
            trips: self.m.trips.get(),
            rule_fuel: self.m.rule_fuel.get(),
            action_fuel: self.m.action_fuel.get(),
            actions: [
                self.m.actions[0].get(),
                self.m.actions[1].get(),
                self.m.actions[2].get(),
                self.m.actions[3].get(),
                self.m.actions[4].get(),
                self.m.actions[5].get(),
            ],
            trace_marks: self
                .trace
                .snapshot()
                .iter()
                .filter(|e| !matches!(e.kind, TraceKind::EvalStart | TraceKind::EvalEnd))
                .count() as u64,
        }
    }

    /// Publishes every registered metric into `store` under the reserved
    /// `__telemetry/` namespace (`__telemetry/<metric-name>` for scalars,
    /// `.../{count,sum,p50,p95,p99}` for histograms), plus the trace ring's
    /// own occupancy. Reserved keys skip the write-ahead journal, so
    /// publishing is cheap and never pollutes durable state.
    pub fn publish_registry(&self, store: &FeatureStore) {
        let mut key = String::with_capacity(64);
        for (name, value) in self.registry.snapshot() {
            key.clear();
            key.push_str(RESERVED_PREFIX);
            key.push_str(name);
            match value {
                MetricValue::Counter(v) => store.save(&key, v as f64),
                MetricValue::Gauge(v) => store.save(&key, v),
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
        store.save(
            &format!("{RESERVED_PREFIX}trace/recorded"),
            self.trace.recorded() as f64,
        );
        store.save(
            &format!("{RESERVED_PREFIX}trace/overwritten"),
            self.trace.overwritten() as f64,
        );
    }

    /// Copies the feature store's always-on write counters into the
    /// registered gauges. Called by the engine's publisher; standalone
    /// hosts can call it directly.
    pub fn observe_store(&self, store: &FeatureStore) {
        self.m.store_saves.set(store.saves_total() as f64);
    }

    /// Copies a durable store's always-on WAL counters into the registered
    /// gauges and mirrors its group-size histogram.
    pub fn observe_wal(&self, durable: &crate::store::durable::DurableStore) {
        self.m.wal_bytes.set(durable.wal_bytes_appended() as f64);
        self.m.wal_flushes.set(durable.wal_frames_appended() as f64);
        self.m.wal_group_hist.copy_from(durable.wal_group_hist());
    }

    /// Convenience wrapper: records a trace event only when tracing has
    /// capacity (it always does; this is the single record entry point the
    /// engine uses so future sampling policies have one seam).
    #[inline]
    pub fn mark(&self, at: Nanos, kind: TraceKind, monitor: u32, value: f64) {
        self.trace.record(at, kind, monitor, value);
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
        t.m.evaluations.add(7);
        t.m.eval_wall_hist.observe(100);
        let store = FeatureStore::new();
        t.publish_registry(&store);
        assert_eq!(store.load("__telemetry/engine/evaluations"), Some(7.0));
        assert_eq!(
            store.load("__telemetry/engine/eval_wall_ns_hist/count"),
            Some(1.0)
        );
        assert_eq!(store.load("__telemetry/trace/recorded"), Some(0.0));
        // Publishing is repeatable (overwrite-in-place).
        t.m.evaluations.inc();
        t.publish_registry(&store);
        assert_eq!(store.load("__telemetry/engine/evaluations"), Some(8.0));
    }

    #[test]
    fn snapshot_is_deterministic_and_wall_free() {
        let t = Telemetry::new();
        t.m.evaluations.add(3);
        t.m.eval_wall_ns.add(12345); // Wall noise: not in the snapshot.
        t.m.actions[ActionKind::Report as usize].inc();
        t.mark(Nanos::ZERO, TraceKind::EvalStart, 0, 0.0);
        t.mark(Nanos::ZERO, TraceKind::Violation, 0, 0.0);
        let snap = t.snapshot();
        assert_eq!(snap.evaluations, 3);
        assert_eq!(snap.actions[0], 1);
        assert_eq!(snap.trace_marks, 1, "eval spans excluded");
        let t2 = Telemetry::new();
        t2.m.evaluations.add(3);
        t2.m.eval_wall_ns.add(99999);
        t2.m.actions[ActionKind::Report as usize].inc();
        t2.mark(Nanos::ZERO, TraceKind::EvalStart, 0, 0.0);
        t2.mark(Nanos::ZERO, TraceKind::Violation, 0, 0.0);
        assert_eq!(snap, t2.snapshot(), "wall time never enters the snapshot");
    }

    #[test]
    fn action_kind_names_cover_all() {
        for (i, kind) in ActionKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i);
            assert!(!kind.name().is_empty());
        }
    }
}
