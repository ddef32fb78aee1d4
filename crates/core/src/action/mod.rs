//! Corrective-action machinery (§3.2, Figure 1 right table).
//!
//! Actions split into two delivery classes:
//!
//! - **Immediate**: `REPORT` (recorded in the engine's decision stream,
//!   [`crate::monitor::EventLog`]), `REPLACE` (applied to the shared
//!   [`crate::policy::PolicyRegistry`]), and `SAVE`/`RECORD` (applied to the
//!   feature store). These touch state the engine shares with subsystems, so
//!   they take effect atomically at the violation.
//! - **Deferred**: `DEPRIORITIZE` and `RETRAIN` are emitted as [`Command`]s
//!   into a bounded outbox that the embedding system drains — demoting tasks
//!   needs the scheduler's task table, and retraining is explicitly an
//!   asynchronous offline process in the paper. This mirrors how an OOM
//!   killer runs as deferred work rather than in the detecting context.

pub mod retrain;

use std::collections::VecDeque;

use simkernel::Nanos;

/// A deferred corrective command for the embedding system to apply.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Demote (or kill) the task(s) selected by `target`.
    Deprioritize {
        /// The guardrail that fired.
        guardrail: String,
        /// Task-selection key (interpreted by the subsystem, e.g.
        /// `heaviest_memory` or a concrete task name).
        target: String,
        /// Nice-level demotion; by convention `steps >= 40` (more than the
        /// whole nice range) means kill, the OOM-killer analogue.
        steps: i32,
    },
    /// Retrain the named model on fresh data.
    Retrain {
        /// The guardrail that fired.
        guardrail: String,
        /// The model to retrain.
        model: String,
    },
}

/// A bounded FIFO of deferred commands.
///
/// Bounded so a misbehaving guardrail cannot queue unbounded kernel work;
/// overflow drops the *newest* command (the violation will re-fire if the
/// condition persists), and [`CommandOutbox::push`] says so: the engine
/// records each drop as a notice in its decision stream.
#[derive(Debug)]
pub struct CommandOutbox {
    queue: VecDeque<(Nanos, Command)>,
    capacity: usize,
}

impl Default for CommandOutbox {
    fn default() -> Self {
        Self::with_capacity(1024)
    }
}

impl CommandOutbox {
    /// Creates an outbox holding at most `capacity` commands (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        CommandOutbox {
            queue: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues a command stamped at `now` and returns `true`, or drops it
    /// and returns `false` when the outbox is full.
    #[must_use = "a full outbox drops the command"]
    pub fn push(&mut self, now: Nanos, command: Command) -> bool {
        if self.queue.len() >= self.capacity {
            return false;
        }
        self.queue.push_back((now, command));
        true
    }

    /// Drains all pending commands, oldest first.
    ///
    /// Allocates a fresh `Vec` per call; hot loops that poll every tick
    /// should prefer [`CommandOutbox::drain_into`] with a reused buffer.
    pub fn drain(&mut self) -> Vec<(Nanos, Command)> {
        self.queue.drain(..).collect()
    }

    /// Appends all pending commands (oldest first) to `buf` without
    /// allocating a fresh vector. The usual empty-outbox poll is a single
    /// length check; a reused buffer keeps the non-empty case allocation-free
    /// once it has grown to the high-water mark.
    pub fn drain_into(&mut self, buf: &mut Vec<(Nanos, Command)>) {
        buf.extend(self.queue.drain(..));
    }

    /// Number of pending commands.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` when no commands are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(n: u64) -> Command {
        Command::Retrain {
            guardrail: "g".into(),
            model: format!("m{n}"),
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let mut outbox = CommandOutbox::default();
        assert!(outbox.push(Nanos::from_secs(1), cmd(1)));
        assert!(outbox.push(Nanos::from_secs(2), cmd(2)));
        let drained = outbox.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].0, Nanos::from_secs(1));
        assert_eq!(drained[0].1, cmd(1));
        assert!(outbox.is_empty());
    }

    #[test]
    fn drain_into_reuses_the_buffer() {
        let mut outbox = CommandOutbox::default();
        assert!(outbox.push(Nanos::from_secs(1), cmd(1)));
        assert!(outbox.push(Nanos::from_secs(2), cmd(2)));
        let mut buf = Vec::new();
        outbox.drain_into(&mut buf);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf[0].1, cmd(1));
        assert!(outbox.is_empty());
        let cap = buf.capacity();
        // An empty drain leaves the buffer (and its capacity) untouched.
        buf.clear();
        outbox.drain_into(&mut buf);
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), cap);
        // A non-empty drain appends rather than replacing.
        buf.push((Nanos::ZERO, cmd(0)));
        assert!(outbox.push(Nanos::from_secs(3), cmd(3)));
        outbox.drain_into(&mut buf);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf[1].1, cmd(3));
    }

    #[test]
    fn overflow_drops_newest_and_says_so() {
        let mut outbox = CommandOutbox::with_capacity(2);
        let accepted: Vec<bool> = (0..5).map(|i| outbox.push(Nanos::ZERO, cmd(i))).collect();
        assert_eq!(accepted, [true, true, false, false, false]);
        assert_eq!(outbox.len(), 2);
        let drained = outbox.drain();
        assert_eq!(drained[0].1, cmd(0), "oldest survives");
        assert_eq!(drained[1].1, cmd(1));
    }

    #[test]
    fn deprioritize_kill_convention() {
        let c = Command::Deprioritize {
            guardrail: "g".into(),
            target: "t".into(),
            steps: 40,
        };
        match c {
            Command::Deprioritize { steps, .. } => assert!(steps >= 40),
            _ => unreachable!(),
        }
    }
}
