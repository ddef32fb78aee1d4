//! The fault taxonomy for chaos-testing guardrail runtimes.
//!
//! Learned-policy guardrails are supposed to be the *safety net* — which
//! means the net itself must keep working when the system around it
//! misbehaves. [`FaultKind`] names the ways a deployment breaks (swap
//! device configs, corrupt model outputs, drop `SAVE`s, shrink rule fuel,
//! unregister `REPLACE` targets, panic retrain jobs, crash the runtime);
//! the subsystem simulations open a fault window on the simulated clock
//! and apply the fault at its edges, deterministically, which is what
//! makes the `exp_faults` and `exp_recovery` experiments reproducible.

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

#[cfg(test)]
mod tests {
    use super::*;

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
