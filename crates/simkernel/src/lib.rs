//! A deterministic discrete-event simulated kernel substrate.
//!
//! The OS Guardrails paper compiles guardrail specifications into monitors that
//! run *inside* the kernel, attached to tracepoints and timers. This crate
//! provides the kernel-shaped substrate those monitors attach to in this
//! reproduction: a nanosecond-resolution simulated clock, task control blocks
//! with priorities (the surface the `DEPRIORITIZE` action manipulates), a
//! deterministic RNG for workload generation, and lightweight metric helpers.
//!
//! Everything is deterministic given a seed: simulations in the evaluation can
//! be replayed exactly, which addresses one of the debuggability concerns (§1
//! of the paper) that motivates guardrails in the first place.

#![warn(missing_docs)]

pub mod metrics;
pub mod rng;
pub mod task;
pub mod time;

pub use metrics::{JainIndex, MovingAverage, RunningStats};
pub use rng::DetRng;
pub use task::{Priority, TaskControl, TaskId, TaskState, TaskTable, Tcb};
pub use time::Nanos;
