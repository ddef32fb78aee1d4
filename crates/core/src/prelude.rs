//! Commonly used re-exports.

pub use crate::compile::{compile_str, CompileOptions};
pub use crate::fault::{FaultKind, PoisonMode};
pub use crate::monitor::{Hysteresis, MonitorEngine, ResilienceConfig, TriggerKind, Violation};
pub use crate::policy::{PolicyRegistry, VARIANT_FALLBACK, VARIANT_LEARNED};
pub use crate::spec::{parse, parse_and_check};
pub use crate::store::FeatureStore;
pub use crate::telemetry::{Telemetry, RESERVED_PREFIX};
pub use simkernel::Nanos;
