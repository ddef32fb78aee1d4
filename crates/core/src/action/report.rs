//! The `REPORT` action sink (A1).

use std::sync::Arc;

use parking_lot::Mutex;
use simkernel::{KernelLog, LogLevel, Nanos};

use crate::store::Slot;

/// A shared, thread-safe wrapper around the kernel log for violation reports.
///
/// `REPORT(message, key...)` logs the message plus a snapshot of the listed
/// feature-store keys — "logging information about the violated property ...
/// or recording model inputs and outputs" (§3.2). The underlying
/// [`KernelLog`] is bounded, so reporting can never exhaust memory.
///
/// # Examples
///
/// ```
/// use guardrails::action::report::ReportSink;
/// use guardrails::FeatureStore;
/// use simkernel::Nanos;
///
/// let sink = ReportSink::new();
/// let store = FeatureStore::new();
/// store.save("rate", 0.2);
/// let slots = store.bind(&["rate".into()]);
/// sink.report(Nanos::from_secs(1), "gr", "rate too high", &slots);
/// assert_eq!(sink.records().len(), 1);
/// assert!(sink.records()[0].message.contains("rate=0.2"));
/// ```
#[derive(Clone, Default)]
pub struct ReportSink {
    log: Arc<Mutex<KernelLog>>,
}

impl ReportSink {
    /// Creates a sink over a fresh bounded kernel log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a sink with an explicit log capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        ReportSink {
            log: Arc::new(Mutex::new(KernelLog::with_capacity(capacity))),
        }
    }

    /// Logs a violation report from guardrail `source`, appending the
    /// current values of the keys bound to `slots` (absent keys read 0).
    pub fn report(&self, at: Nanos, source: &str, message: &str, slots: &[Slot]) {
        let mut text = String::from(message);
        for slot in slots {
            let value = slot.load().unwrap_or(0.0);
            text.push_str(&format!(" {}={value}", slot.key()));
        }
        self.log.lock().log(at, LogLevel::Warn, source, text);
    }

    /// Logs an informational (non-violation) message.
    pub fn info(&self, at: Nanos, source: &str, message: impl Into<String>) {
        self.log.lock().log(at, LogLevel::Info, source, message);
    }

    /// Raises the minimum retained level ("increasing logging levels
    /// generally", §3.2).
    pub fn set_min_level(&self, level: LogLevel) {
        self.log.lock().set_min_level(level);
    }

    /// Snapshots all retained records.
    pub fn records(&self) -> Vec<simkernel::LogRecord> {
        self.log.lock().records().cloned().collect()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.log.lock().len()
    }

    /// Returns `true` when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.log.lock().is_empty()
    }

    /// Records dropped by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.log.lock().dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::FeatureStore;

    #[test]
    fn report_snapshots_keys() {
        let sink = ReportSink::new();
        let store = FeatureStore::new();
        store.save("a", 1.0);
        store.save("b", 2.5);
        let slots = store.bind(&["a".into(), "b".into(), "missing".into()]);
        sink.report(Nanos::ZERO, "g", "violation", &slots);
        let recs = sink.records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].message, "violation a=1 b=2.5 missing=0");
        assert_eq!(recs[0].level, LogLevel::Warn);
        assert_eq!(recs[0].source, "g");
    }

    #[test]
    fn clones_share_the_log() {
        let sink = ReportSink::new();
        let other = sink.clone();
        other.info(Nanos::ZERO, "x", "hello");
        assert_eq!(sink.len(), 1);
        assert!(!sink.is_empty());
    }

    #[test]
    fn bounded_capacity_drops() {
        let sink = ReportSink::with_capacity(1);
        sink.report(Nanos::ZERO, "g", "one", &[]);
        sink.report(Nanos::ZERO, "g", "two", &[]);
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.dropped(), 1);
        assert_eq!(sink.records()[0].message, "two");
    }

    #[test]
    fn min_level_filters_info() {
        let sink = ReportSink::new();
        sink.set_min_level(LogLevel::Warn);
        sink.info(Nanos::ZERO, "g", "chatty");
        assert!(sink.is_empty());
    }
}
