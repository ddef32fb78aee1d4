//! Deterministic fault injection for chaos-testing guardrail runtimes.
//!
//! Learned-policy guardrails are supposed to be the *safety net* — which
//! means the net itself must keep working when the system around it
//! misbehaves. This module provides the harness for testing exactly that: a
//! [`FaultPlan`] schedules [`FaultEvent`]s on the simulated clock, and a
//! [`FaultInjector`] turns the plan into start/end transitions that
//! subsystem simulations poll and apply (swap device configs, corrupt model
//! outputs, drop `SAVE`s, shrink rule fuel, unregister `REPLACE` targets,
//! panic retrain jobs).
//!
//! Everything here is deterministic: a plan is an explicit list of windows,
//! and the only randomness is the optional seeded start-time jitter in
//! [`FaultPlan::jittered`]. The same plan polled at the same timestamps
//! always yields the same transitions and the same injection log, which is
//! what makes the `exp_faults` experiment reproducible.
//!
//! # Examples
//!
//! ```
//! use guardrails::fault::{FaultInjector, FaultKind, FaultPhase, FaultPlan};
//! use simkernel::Nanos;
//!
//! let plan = FaultPlan::new().inject(
//!     Nanos::from_secs(2),
//!     Nanos::from_secs(4),
//!     FaultKind::GcStorm,
//! );
//! let mut injector = FaultInjector::new(plan);
//! assert!(injector.poll(Nanos::from_secs(1)).is_empty());
//! let started = injector.poll(Nanos::from_secs(2));
//! assert_eq!(started[0].phase, FaultPhase::Started);
//! let ended = injector.poll(Nanos::from_secs(5));
//! assert_eq!(ended[0].phase, FaultPhase::Ended);
//! assert!(injector.all_ended());
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simkernel::Nanos;

/// How a poisoned model output is corrupted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoisonMode {
    /// The model emits `NaN`.
    Nan,
    /// The model emits `+inf`.
    Inf,
    /// The model emits a finite value far outside its valid range.
    OutOfRange,
}

/// The fault taxonomy the chaos harness can inject.
///
/// Each variant corresponds to one way a real deployment of learned OS
/// policies degrades: the device under the policy misbehaves, the model
/// itself emits garbage, the telemetry feeding the guardrails goes stale,
/// or the corrective machinery (rules, `REPLACE` targets, retrain workers)
/// breaks.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// The flash device browns out: every I/O is slowed by this factor.
    DeviceBrownout {
        /// Multiplier applied to device latencies (e.g. `8.0`).
        slowdown: f64,
    },
    /// A garbage-collection storm: GC pauses become long and frequent.
    GcStorm,
    /// The learned policy's output is corrupted.
    PoisonModelOutput {
        /// The corruption applied to each inference result.
        mode: PoisonMode,
    },
    /// Telemetry `SAVE`s to this feature-store key are silently dropped,
    /// so monitors read stale data.
    DroppedSaves {
        /// The key whose writes are lost.
        key: String,
    },
    /// Rule evaluation is capped at this fuel budget, exhausting mid-rule.
    FuelExhaustion {
        /// The injected per-evaluation fuel limit.
        limit: u64,
    },
    /// The variant a `REPLACE` action targets is unregistered.
    ReplaceTargetMissing,
    /// Submitted retrain jobs panic instead of completing.
    RetrainPanic,
    /// The guardrail runtime (engine + store process) crashes at the window
    /// start and is rebooted by its host/supervisor. The window end is
    /// unused: a crash is instantaneous, not a condition that persists.
    Crash,
    /// A crash tears the final write-ahead-log append mid-write: this many
    /// bytes of the last frame reach stable storage.
    TornWrite {
        /// Bytes of the torn frame that survive.
        bytes: usize,
    },
    /// The persisted snapshot blob is bit-rotted and must be detected and
    /// discarded on recovery.
    SnapshotCorrupt,
    /// The persisted engine checkpoint is bit-rotted: the monitors boot
    /// without it, and the loss must be recorded and taint the recovery.
    CheckpointCorrupt,
}

impl FaultKind {
    /// A short stable name for logs and CSV rows.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::DeviceBrownout { .. } => "device_brownout",
            FaultKind::GcStorm => "gc_storm",
            FaultKind::PoisonModelOutput { .. } => "poison_model_output",
            FaultKind::DroppedSaves { .. } => "dropped_saves",
            FaultKind::FuelExhaustion { .. } => "fuel_exhaustion",
            FaultKind::ReplaceTargetMissing => "replace_target_missing",
            FaultKind::RetrainPanic => "retrain_panic",
            FaultKind::Crash => "crash",
            FaultKind::TornWrite { .. } => "torn_write",
            FaultKind::SnapshotCorrupt => "snapshot_corrupt",
            FaultKind::CheckpointCorrupt => "checkpoint_corrupt",
        }
    }
}

/// One scheduled fault window: `kind` is active for `at <= now < until`.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultEvent {
    /// When the fault begins.
    pub at: Nanos,
    /// When the fault ends (exclusive; `Nanos::MAX` for a permanent fault).
    pub until: Nanos,
    /// What breaks.
    pub kind: FaultKind,
}

/// A deterministic schedule of fault windows.
///
/// Build with the [`FaultPlan::inject`] builder; feed to a
/// [`FaultInjector`]. Events may overlap and are kept in insertion order
/// (the injector sorts by start time, stably).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a fault window `[at, until)`. Windows where `until <= at` are
    /// kept but never activate (useful for parameter sweeps that zero out a
    /// fault).
    pub fn inject(mut self, at: Nanos, until: Nanos, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, until, kind });
        self
    }

    /// Returns a copy of this plan with every start time shifted forward by
    /// a deterministic, seeded jitter in `[0, max_jitter)`. End times shift
    /// by the same amount, preserving each window's duration.
    ///
    /// This is how sweeps decorrelate fault onset from timer cadence without
    /// losing reproducibility: the same seed always yields the same plan.
    pub fn jittered(&self, seed: u64, max_jitter: Nanos) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let events = self
            .events
            .iter()
            .map(|e| {
                let shift = if max_jitter > Nanos::ZERO {
                    Nanos::from_nanos(rng.gen_range(0..max_jitter.as_nanos()))
                } else {
                    Nanos::ZERO
                };
                FaultEvent {
                    at: e.at + shift,
                    until: if e.until == Nanos::MAX {
                        e.until
                    } else {
                        e.until + shift
                    },
                    kind: e.kind.clone(),
                }
            })
            .collect();
        FaultPlan { events }
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Whether a transition reports a fault starting or ending.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPhase {
    /// The fault window has been entered.
    Started,
    /// The fault window has been left.
    Ended,
}

/// One observed fault transition, as returned by [`FaultInjector::poll`]
/// and accumulated in the injection log.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultTransition {
    /// Start or end.
    pub phase: FaultPhase,
    /// The scheduled time of the transition (the window edge, not the poll
    /// time — late polls still report the edge they crossed).
    pub at: Nanos,
    /// Index of the event in the (sorted) plan.
    pub event_index: usize,
    /// The fault that started or ended.
    pub kind: FaultKind,
}

/// Drives a [`FaultPlan`] against the simulated clock.
///
/// Call [`FaultInjector::poll`] with a monotonically non-decreasing `now`;
/// each call returns the transitions crossed since the previous poll, in
/// chronological order. A window fully contained between two polls still
/// reports both its `Started` and `Ended` transitions (in that order) on
/// the later poll, so no fault is silently skipped by coarse polling.
#[derive(Debug)]
pub struct FaultInjector {
    events: Vec<FaultEvent>,
    started: Vec<bool>,
    ended: Vec<bool>,
    log: Vec<FaultTransition>,
}

impl FaultInjector {
    /// Creates an injector over `plan`, sorted stably by start time.
    pub fn new(plan: FaultPlan) -> Self {
        let mut events = plan.events;
        events.sort_by_key(|e| e.at);
        let n = events.len();
        FaultInjector {
            events,
            started: vec![false; n],
            ended: vec![false; n],
            log: Vec::new(),
        }
    }

    /// Advances to `now` and returns the transitions crossed.
    pub fn poll(&mut self, now: Nanos) -> Vec<FaultTransition> {
        let mut out: Vec<FaultTransition> = Vec::new();
        for (i, event) in self.events.iter().enumerate() {
            if self.ended[i] {
                continue;
            }
            // Degenerate windows (`until <= at`) never activate.
            if event.until <= event.at {
                self.ended[i] = true;
                continue;
            }
            if !self.started[i] && now >= event.at {
                self.started[i] = true;
                out.push(FaultTransition {
                    phase: FaultPhase::Started,
                    at: event.at,
                    event_index: i,
                    kind: event.kind.clone(),
                });
            }
            if self.started[i] && now >= event.until {
                self.ended[i] = true;
                out.push(FaultTransition {
                    phase: FaultPhase::Ended,
                    at: event.until,
                    event_index: i,
                    kind: event.kind.clone(),
                });
            }
        }
        out.sort_by_key(|t| (t.at, t.event_index, t.phase == FaultPhase::Ended));
        self.log.extend(out.iter().cloned());
        out
    }

    /// The events whose windows contain `now` (`at <= now < until`),
    /// regardless of polling history. A pure read.
    pub fn active_at(&self, now: Nanos) -> Vec<&FaultEvent> {
        self.events
            .iter()
            .filter(|e| e.at <= now && now < e.until)
            .collect()
    }

    /// Returns `true` when any active window at `now` matches `pred`.
    pub fn is_active(&self, now: Nanos, pred: impl Fn(&FaultKind) -> bool) -> bool {
        self.active_at(now).iter().any(|e| pred(&e.kind))
    }

    /// The full injection log: every transition ever returned by `poll`,
    /// in the order it was reported.
    pub fn log(&self) -> &[FaultTransition] {
        &self.log
    }

    /// Returns `true` once every scheduled window has ended.
    pub fn all_ended(&self) -> bool {
        self.ended.iter().all(|&e| e)
    }

    /// The (sorted) events this injector drives.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> Nanos {
        Nanos::from_secs(s)
    }

    #[test]
    fn transitions_fire_once_in_order() {
        let plan = FaultPlan::new()
            .inject(secs(5), secs(7), FaultKind::GcStorm)
            .inject(secs(1), secs(3), FaultKind::RetrainPanic);
        let mut inj = FaultInjector::new(plan);
        // Sorted by start: retrain_panic first.
        assert_eq!(inj.events()[0].kind, FaultKind::RetrainPanic);

        assert!(inj.poll(Nanos::ZERO).is_empty());
        let t = inj.poll(secs(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].phase, FaultPhase::Started);
        assert_eq!(t[0].kind, FaultKind::RetrainPanic);
        // Repolling the same instant reports nothing new.
        assert!(inj.poll(secs(1)).is_empty());

        let t = inj.poll(secs(6));
        assert_eq!(t.len(), 2, "retrain ends, storm starts");
        assert_eq!(t[0].phase, FaultPhase::Ended);
        assert_eq!(t[0].at, secs(3));
        assert_eq!(t[1].phase, FaultPhase::Started);
        assert_eq!(t[1].at, secs(5));
        assert!(!inj.all_ended());

        let t = inj.poll(secs(100));
        assert_eq!(t.len(), 1);
        assert!(inj.all_ended());
        assert_eq!(inj.log().len(), 4);
    }

    #[test]
    fn window_skipped_by_coarse_poll_still_reports_both_edges() {
        let plan = FaultPlan::new().inject(
            secs(2),
            secs(3),
            FaultKind::PoisonModelOutput {
                mode: PoisonMode::Nan,
            },
        );
        let mut inj = FaultInjector::new(plan);
        let t = inj.poll(secs(10));
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].phase, FaultPhase::Started);
        assert_eq!(t[1].phase, FaultPhase::Ended);
    }

    #[test]
    fn active_at_is_a_pure_read() {
        let plan = FaultPlan::new().inject(
            secs(1),
            secs(4),
            FaultKind::DeviceBrownout { slowdown: 8.0 },
        );
        let inj = FaultInjector::new(plan);
        assert!(inj.active_at(Nanos::ZERO).is_empty());
        assert_eq!(inj.active_at(secs(1)).len(), 1);
        assert_eq!(inj.active_at(secs(3)).len(), 1);
        assert!(inj.active_at(secs(4)).is_empty(), "until is exclusive");
        assert!(inj.is_active(secs(2), |k| matches!(k, FaultKind::DeviceBrownout { .. })));
        assert!(!inj.is_active(secs(2), |k| matches!(k, FaultKind::GcStorm)));
    }

    #[test]
    fn degenerate_windows_never_activate() {
        let plan = FaultPlan::new().inject(secs(5), secs(5), FaultKind::GcStorm);
        let mut inj = FaultInjector::new(plan);
        assert!(inj.poll(secs(100)).is_empty());
        assert!(inj.all_ended());
        assert!(inj.log().is_empty());
    }

    #[test]
    fn jitter_is_deterministic_and_preserves_duration() {
        let plan = FaultPlan::new()
            .inject(secs(1), secs(3), FaultKind::GcStorm)
            .inject(secs(10), Nanos::MAX, FaultKind::RetrainPanic);
        let a = plan.jittered(42, Nanos::from_millis(500));
        let b = plan.jittered(42, Nanos::from_millis(500));
        assert_eq!(a, b, "same seed, same plan");
        let c = plan.jittered(43, Nanos::from_millis(500));
        assert_ne!(a, c, "different seed shifts differently");
        let e = &a.events()[0];
        assert_eq!(e.until - e.at, secs(2), "duration preserved");
        assert!(e.at >= secs(1) && e.at < secs(1) + Nanos::from_millis(500));
        assert_eq!(
            a.events()[1].until,
            Nanos::MAX,
            "permanent faults stay permanent"
        );
        // Zero jitter is the identity.
        assert_eq!(plan.jittered(7, Nanos::ZERO), plan);
    }

    #[test]
    fn fault_names_are_stable() {
        assert_eq!(FaultKind::GcStorm.name(), "gc_storm");
        assert_eq!(
            FaultKind::DroppedSaves { key: "x".into() }.name(),
            "dropped_saves"
        );
        assert_eq!(
            FaultKind::FuelExhaustion { limit: 4 }.name(),
            "fuel_exhaustion"
        );
        assert_eq!(
            FaultKind::ReplaceTargetMissing.name(),
            "replace_target_missing"
        );
        assert_eq!(FaultKind::Crash.name(), "crash");
        assert_eq!(FaultKind::TornWrite { bytes: 7 }.name(), "torn_write");
        assert_eq!(FaultKind::SnapshotCorrupt.name(), "snapshot_corrupt");
        assert_eq!(FaultKind::CheckpointCorrupt.name(), "checkpoint_corrupt");
    }
}
