//! The decision stream: every decision the engine makes, recorded once.
//!
//! A violation, an action that fired, a notice (a rule or operand fault, a
//! `REPLACE` fallback or failure, a watchdog disable, a `RETRAIN` that gave
//! up), a checkpoint and a restart are each one [`Event`] in the engine's
//! [`EventLog`]. The log is a bounded ring of
//! [`EVENT_CAPACITY`] events that evicts the oldest, and everything else is
//! a view of it: [`crate::monitor::MonitorEngine::violations`] materializes
//! [`Violation`]s, [`crate::monitor::MonitorEngine::reports`] yields the
//! `REPORT` text and notices, and [`EventLog::export_json_lines`] renders
//! the retained events.
//!
//! The stream carries simulated time only, so two observationally identical
//! runs (batched and sequential delivery, say) record identical streams.
//! Guardrail names and rule texts are the compiled guardrail's own
//! `Arc<str>`s and hook names the dispatch index's, so recording a violation
//! or an action other than `REPORT` bumps reference counts and allocates
//! nothing once the ring has grown.

use std::collections::VecDeque;
use std::fmt::{self, Write as _};
use std::sync::Arc;

use simkernel::Nanos;

use crate::telemetry::ActionKind;

/// The number of events the log retains; older events are evicted.
pub const EVENT_CAPACITY: usize = 65_536;

/// What triggered a rule evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TriggerKind {
    /// A periodic `TIMER` trigger.
    Timer,
    /// A `FUNCTION` trigger on the named tracepoint.
    Function(Arc<str>),
}

impl fmt::Display for TriggerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TriggerKind::Timer => write!(f, "TIMER"),
            TriggerKind::Function(hook) => write!(f, "FUNCTION({hook})"),
        }
    }
}

/// One recorded decision.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Position in the stream (0-based, counting evicted events).
    pub seq: u64,
    /// Simulated time of the decision.
    pub at: Nanos,
    /// The guardrail that decided; `None` for engine events.
    pub guardrail: Option<Arc<str>>,
    /// What was decided.
    pub kind: EventKind,
}

/// The kinds of decision.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A rule evaluated false.
    Violation {
        /// Index of the failed rule within the guardrail.
        rule_index: usize,
        /// Canonical source text of the failed rule.
        rule: Arc<str>,
        /// What triggered the evaluation.
        trigger: TriggerKind,
        /// Whether the corrective actions fired (hysteresis and cooldown
        /// may suppress them while the violation is still recorded).
        actions_fired: bool,
    },
    /// An action fired.
    Action {
        /// Which action.
        kind: ActionKind,
        /// `REPORT`'s rendered message with its `key=value` dump; `None`
        /// for every other action.
        text: Option<String>,
    },
    /// Something an operator should read that is not a violation or an
    /// action: a fault, a fallback, a watchdog transition.
    Notice(String),
    /// An engine checkpoint was captured.
    Checkpoint,
    /// Engine state was restored from a checkpoint.
    Restart,
}

impl Event {
    /// The event's text: `REPORT`'s message or a notice.
    pub fn text(&self) -> Option<&str> {
        match &self.kind {
            EventKind::Action { text, .. } => text.as_deref(),
            EventKind::Notice(text) => Some(text),
            _ => None,
        }
    }

    /// The [`Violation`] view of a violation event.
    pub fn violation(&self) -> Option<Violation> {
        let EventKind::Violation {
            rule_index,
            rule,
            trigger,
            actions_fired,
        } = &self.kind
        else {
            return None;
        };
        Some(Violation {
            at: self.at,
            guardrail: self.guardrail.as_deref().unwrap_or_default().to_string(),
            rule_index: *rule_index,
            rule_source: rule.to_string(),
            trigger: trigger.clone(),
            actions_fired: *actions_fired,
        })
    }

    /// Appends the event as one JSON object followed by a newline.
    fn write_json_line(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"seq\":{},\"at_ns\":{},\"guardrail\":",
            self.seq,
            self.at.as_nanos()
        );
        match &self.guardrail {
            Some(name) => push_json_str(out, name),
            None => out.push_str("null"),
        }
        match &self.kind {
            EventKind::Violation {
                rule_index,
                rule,
                trigger,
                actions_fired,
            } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"violation\",\"rule_index\":{rule_index},\"rule\":"
                );
                push_json_str(out, rule);
                out.push_str(",\"trigger\":");
                push_json_str(out, &trigger.to_string());
                let _ = write!(out, ",\"actions_fired\":{actions_fired}");
            }
            EventKind::Action { kind, text } => {
                let _ = write!(out, ",\"kind\":\"action\",\"action\":\"{}\"", kind.name());
                if let Some(text) = text {
                    out.push_str(",\"text\":");
                    push_json_str(out, text);
                }
            }
            EventKind::Notice(text) => {
                out.push_str(",\"kind\":\"notice\",\"text\":");
                push_json_str(out, text);
            }
            EventKind::Checkpoint => out.push_str(",\"kind\":\"checkpoint\""),
            EventKind::Restart => out.push_str(",\"kind\":\"restart\""),
        }
        out.push_str("}\n");
    }
}

/// Appends `s` as a JSON string literal.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The bounded ring of decisions the engine owns.
#[derive(Debug, Default)]
pub struct EventLog {
    events: VecDeque<Event>,
    recorded: u64,
}

impl EventLog {
    /// Appends an event, evicting the oldest once [`EVENT_CAPACITY`] are
    /// retained. The ring grows on demand, so an engine that never decides
    /// holds no buffer.
    pub(crate) fn record(&mut self, at: Nanos, guardrail: Option<&Arc<str>>, kind: EventKind) {
        if self.events.len() == EVENT_CAPACITY {
            self.events.pop_front();
        }
        self.events.push_back(Event {
            seq: self.recorded,
            at,
            guardrail: guardrail.cloned(),
            kind,
        });
        self.recorded += 1;
    }

    /// Records a notice from `guardrail`.
    pub(crate) fn notice(&mut self, at: Nanos, guardrail: &Arc<str>, text: String) {
        self.record(at, Some(guardrail), EventKind::Notice(text));
    }

    /// The retained events, oldest first.
    pub fn iter(&self) -> std::collections::vec_deque::Iter<'_, Event> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events ever recorded, evicted ones included.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted by the capacity bound.
    pub fn overwritten(&self) -> u64 {
        self.recorded - self.events.len() as u64
    }

    /// Renders the retained events as JSON lines, one object per event,
    /// oldest first.
    pub fn export_json_lines(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            event.write_json_line(&mut out);
        }
        out
    }
}

/// A recorded property violation: the owned view of a violation event.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// When the violation was detected.
    pub at: Nanos,
    /// The guardrail whose rule failed.
    pub guardrail: String,
    /// Index of the failed rule within the guardrail.
    pub rule_index: usize,
    /// Canonical source text of the failed rule.
    pub rule_source: String,
    /// What triggered the evaluation.
    pub trigger: TriggerKind,
    /// Whether corrective actions actually fired (hysteresis/cooldown may
    /// suppress them while still recording the violation).
    pub actions_fired: bool,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] guardrail '{}' rule #{} violated via {}: {} ({})",
            self.at,
            self.guardrail,
            self.rule_index,
            self.trigger,
            self.rule_source,
            if self.actions_fired {
                "actions fired"
            } else {
                "actions suppressed"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violation(log: &mut EventLog, name: &Arc<str>, t: u64) {
        log.record(
            Nanos::from_secs(t),
            Some(name),
            EventKind::Violation {
                rule_index: 0,
                rule: "LOAD(x) < 1".into(),
                trigger: TriggerKind::Timer,
                actions_fired: true,
            },
        );
    }

    #[test]
    fn ring_evicts_oldest_and_counts_everything() {
        let mut log = EventLog::default();
        let name: Arc<str> = "g".into();
        for t in 0..EVENT_CAPACITY as u64 + 3 {
            violation(&mut log, &name, t);
        }
        assert_eq!(log.len(), EVENT_CAPACITY);
        assert_eq!(log.recorded(), EVENT_CAPACITY as u64 + 3);
        assert_eq!(log.overwritten(), 3);
        let first = log.iter().next().unwrap();
        assert_eq!((first.seq, first.at), (3, Nanos::from_secs(3)));
        assert_eq!(log.iter().last().unwrap().seq, EVENT_CAPACITY as u64 + 2);
    }

    #[test]
    fn views_read_the_event() {
        let mut log = EventLog::default();
        let name: Arc<str> = "g".into();
        violation(&mut log, &name, 7);
        log.record(Nanos::ZERO, None, EventKind::Notice("hello".into()));
        let events: Vec<&Event> = log.iter().collect();
        assert_eq!(events[0].text(), None);
        assert_eq!(events[1].text(), Some("hello"));
        assert!(events[1].violation().is_none());
        let v = events[0].violation().unwrap();
        let text = v.to_string();
        assert!(text.contains("guardrail 'g'"), "{text}");
        assert!(text.contains("TIMER"), "{text}");
        assert!(text.contains("actions fired"), "{text}");
        let f = Violation {
            trigger: TriggerKind::Function("io_submit".into()),
            actions_fired: false,
            ..v
        };
        let text = f.to_string();
        assert!(text.contains("FUNCTION(io_submit)"), "{text}");
        assert!(text.contains("suppressed"), "{text}");
    }

    #[test]
    fn json_strings_escape_quotes_backslashes_and_controls() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, r#""a\"b\\c\nd\te\u0001""#);
    }
}
