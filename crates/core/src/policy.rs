//! The registry of policy variants the `REPLACE` action drives.
//!
//! "Most systems deploying learned policies supplement but do not replace
//! existing ones" (§3.2): a subsystem keeps both its learned policy and its
//! heuristic fallback, and consults the shared [`PolicyRegistry`] on every
//! decision to know which is active, often together with conditions of its
//! own. The `REPLACE(slot, variant)` action swaps the active variant in the
//! registry; the policy objects themselves never move, so swaps are cheap
//! and atomic.
//!
//! Decision paths ask through a [`VariantHandle`], resolved once like a
//! store [`Slot`](crate::store::Slot): every registry mutation bumps a
//! registry-wide generation, and a handle re-reads the slot under the lock
//! only when the generation has moved since its last read. A decision whose
//! registry has not changed costs two atomic loads and a compare: no string
//! hash and no lock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{RwLock, RwLockWriteGuard};

use crate::error::{GuardrailError, Result};

/// The canonical variant name for the learned policy in a slot.
pub const VARIANT_LEARNED: &str = "learned";
/// The canonical variant name for the fallback policy in a slot.
pub const VARIANT_FALLBACK: &str = "fallback";

#[derive(Debug, Clone)]
struct Slot {
    active: String,
    variants: Vec<String>,
    swaps: u64,
    /// The known-safe variant `replace_with_fallback` degrades to.
    default: Option<String>,
}

impl Slot {
    /// The variant to fall back to: the explicit default, else the
    /// conventional `"fallback"` variant, else the first registered one.
    fn fallback_variant(&self) -> &str {
        if let Some(d) = &self.default {
            return d;
        }
        self.variants
            .iter()
            .find(|v| v.as_str() == VARIANT_FALLBACK)
            .unwrap_or(&self.variants[0])
    }
}

/// A shared registry of policy slots and their active variants.
///
/// # Examples
///
/// ```
/// use guardrails::policy::{PolicyRegistry, VARIANT_FALLBACK, VARIANT_LEARNED};
///
/// let reg = PolicyRegistry::new();
/// reg.register("io_latency", &[VARIANT_LEARNED, VARIANT_FALLBACK]).unwrap();
/// assert_eq!(reg.active("io_latency").as_deref(), Some(VARIANT_LEARNED));
/// reg.replace("io_latency", VARIANT_FALLBACK).unwrap();
/// assert_eq!(reg.active("io_latency").as_deref(), Some(VARIANT_FALLBACK));
/// ```
#[derive(Debug, Default)]
pub struct PolicyRegistry {
    /// Sorted by name, so checkpoints list slots without sorting.
    slots: RwLock<BTreeMap<String, Slot>>,
    /// Bumped under the write lock by every mutation (see
    /// [`PolicyRegistry::slots_mut`]); a [`VariantHandle`] whose last read
    /// saw this generation needs no lock.
    generation: AtomicU64,
}

/// Whether `name` can be a slot or variant name: an engine checkpoint
/// stores `slot <name> <variant>` lines split on whitespace, so a name
/// that is empty or holds whitespace would make every checkpoint
/// undecodable.
fn valid_name(name: &str) -> bool {
    !name.is_empty() && !name.chars().any(char::is_whitespace)
}

impl PolicyRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slots under the write lock, with the generation bumped: every
    /// mutation goes through here, so no [`VariantHandle`] can miss one. A
    /// handle that loads the new generation re-reads under the read lock,
    /// which waits for this guard to drop. The generation publishes no
    /// data (the slots are only ever read under the lock), so it is
    /// `Relaxed` throughout.
    fn slots_mut(&self) -> RwLockWriteGuard<'_, BTreeMap<String, Slot>> {
        let slots = self.slots.write();
        self.generation.fetch_add(1, Ordering::Relaxed);
        slots
    }

    /// A handle answering "is `variant` active in `slot`?" without hashing
    /// `slot` or locking while the registry is unchanged. The slot need not
    /// be registered yet: the handle reads `false` until it is.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use guardrails::policy::{PolicyRegistry, VARIANT_FALLBACK, VARIANT_LEARNED};
    ///
    /// let reg = Arc::new(PolicyRegistry::new());
    /// reg.register("io_latency", &[VARIANT_LEARNED, VARIANT_FALLBACK]).unwrap();
    /// let learned = reg.handle("io_latency", VARIANT_LEARNED);
    /// assert!(learned.is_active());
    /// reg.replace("io_latency", VARIANT_FALLBACK).unwrap();
    /// assert!(!learned.is_active());
    /// ```
    pub fn handle(self: &Arc<Self>, slot: &str, variant: &str) -> VariantHandle {
        let handle = VariantHandle {
            registry: Arc::clone(self),
            slot: slot.into(),
            variant: variant.into(),
            cached: AtomicU64::new(0),
        };
        handle.resolve();
        handle
    }

    /// Registers a slot with its allowed variants; the first is active.
    ///
    /// Returns an error on empty variants, a duplicate slot name, or a slot
    /// or variant name that is empty or holds whitespace (an engine
    /// checkpoint could not carry it).
    pub fn register(&self, slot: &str, variants: &[&str]) -> Result<()> {
        if variants.is_empty() {
            return Err(GuardrailError::Config(format!(
                "slot '{slot}' needs at least one variant"
            )));
        }
        if let Some(bad) = std::iter::once(&slot)
            .chain(variants)
            .find(|name| !valid_name(name))
        {
            return Err(GuardrailError::Config(format!(
                "policy name {bad:?} is empty or holds whitespace"
            )));
        }
        let mut slots = self.slots_mut();
        if slots.contains_key(slot) {
            return Err(GuardrailError::Config(format!(
                "slot '{slot}' already registered"
            )));
        }
        slots.insert(
            slot.to_string(),
            Slot {
                active: variants[0].to_string(),
                variants: variants.iter().map(|v| v.to_string()).collect(),
                swaps: 0,
                default: None,
            },
        );
        Ok(())
    }

    /// Marks `variant` as the known-safe default `replace_with_fallback`
    /// degrades to when a requested variant is missing.
    pub fn set_default_variant(&self, slot: &str, variant: &str) -> Result<()> {
        let mut slots = self.slots_mut();
        let s = slots
            .get_mut(slot)
            .ok_or_else(|| GuardrailError::Config(format!("no policy slot '{slot}'")))?;
        if !s.variants.iter().any(|v| v == variant) {
            return Err(GuardrailError::Config(format!(
                "slot '{slot}' has no variant '{variant}' (variants: {:?})",
                s.variants
            )));
        }
        s.default = Some(variant.to_string());
        Ok(())
    }

    /// Removes `variant` from `slot`'s registered set (fault injection:
    /// a `REPLACE` target going missing at runtime).
    ///
    /// The active variant and the last remaining variant cannot be removed.
    pub fn unregister_variant(&self, slot: &str, variant: &str) -> Result<()> {
        let mut slots = self.slots_mut();
        let s = slots
            .get_mut(slot)
            .ok_or_else(|| GuardrailError::Config(format!("no policy slot '{slot}'")))?;
        if s.active == variant {
            return Err(GuardrailError::Config(format!(
                "cannot unregister active variant '{variant}' of slot '{slot}'"
            )));
        }
        let before = s.variants.len();
        s.variants.retain(|v| v != variant);
        if s.variants.len() == before {
            return Err(GuardrailError::Config(format!(
                "slot '{slot}' has no variant '{variant}'"
            )));
        }
        if s.default.as_deref() == Some(variant) {
            s.default = None;
        }
        Ok(())
    }

    /// Activates `variant` in `slot`, degrading to the slot's fallback
    /// variant when `variant` is not registered (the fail-safe `REPLACE`
    /// chain: a corrective action must correct *something* even when its
    /// named target has gone missing). Returns the variant actually
    /// activated. Unknown *slots* still error — there is nothing safe to
    /// activate in a slot that does not exist.
    pub fn replace_with_fallback(&self, slot: &str, variant: &str) -> Result<String> {
        let mut slots = self.slots_mut();
        let s = slots.get_mut(slot).ok_or_else(|| {
            GuardrailError::Config(format!("REPLACE on unknown policy slot '{slot}'"))
        })?;
        let chosen = if s.variants.iter().any(|v| v == variant) {
            variant.to_string()
        } else {
            s.fallback_variant().to_string()
        };
        if s.active != chosen {
            s.active = chosen.clone();
            s.swaps += 1;
        }
        Ok(chosen)
    }

    /// Returns the active variant of `slot`, if the slot exists.
    pub fn active(&self, slot: &str) -> Option<String> {
        self.slots.read().get(slot).map(|s| s.active.clone())
    }

    /// Returns `true` when `slot`'s active variant is `variant`.
    pub fn is_active(&self, slot: &str, variant: &str) -> bool {
        self.slots
            .read()
            .get(slot)
            .is_some_and(|s| s.active == variant)
    }

    /// Activates `variant` in `slot` (the `REPLACE` action).
    ///
    /// Replacing with the already-active variant is a counted no-op, so
    /// repeated violations do not thrash.
    pub fn replace(&self, slot: &str, variant: &str) -> Result<()> {
        let mut slots = self.slots_mut();
        let s = slots.get_mut(slot).ok_or_else(|| {
            GuardrailError::Config(format!("REPLACE on unknown policy slot '{slot}'"))
        })?;
        if !s.variants.iter().any(|v| v == variant) {
            return Err(GuardrailError::Config(format!(
                "slot '{slot}' has no variant '{variant}' (variants: {:?})",
                s.variants
            )));
        }
        if s.active != variant {
            s.active = variant.to_string();
            s.swaps += 1;
        }
        Ok(())
    }

    /// Re-pins every slot in `active` that this registry has to its listed
    /// variant, all or nothing: if a known slot lacks its variant, nothing
    /// changes and the call fails. Slots this registry lacks are skipped.
    /// Restoring an engine checkpoint uses this to re-apply `REPLACE`
    /// decisions (see [`PolicyRegistry::active_variants`]).
    pub fn pin_variants(&self, active: &[(String, String)]) -> Result<()> {
        let mut slots = self.slots_mut();
        for (slot, variant) in active {
            if let Some(s) = slots.get(slot) {
                if !s.variants.contains(variant) {
                    return Err(GuardrailError::Config(format!(
                        "slot '{slot}' has no variant '{variant}' (variants: {:?})",
                        s.variants
                    )));
                }
            }
        }
        for (slot, variant) in active {
            if let Some(s) = slots.get_mut(slot) {
                if s.active != *variant {
                    s.active.clone_from(variant);
                    s.swaps += 1;
                }
            }
        }
        Ok(())
    }

    /// Returns every slot's active variant, sorted by slot name — the
    /// registry state an engine checkpoint persists so a `REPLACE` decision
    /// survives a crash.
    pub fn active_variants(&self) -> Vec<(String, String)> {
        self.with_active_variants(|slots| {
            slots
                .map(|(name, active)| (name.to_string(), active.to_string()))
                .collect()
        })
    }

    /// Runs `f` over every slot's `(name, active variant)`, sorted by
    /// name, under the read lock: [`PolicyRegistry::active_variants`]
    /// without copying a string.
    pub(crate) fn with_active_variants<R>(
        &self,
        f: impl for<'a> FnOnce(&mut dyn Iterator<Item = (&'a str, &'a str)>) -> R,
    ) -> R {
        let slots = self.slots.read();
        f(&mut slots
            .iter()
            .map(|(name, s)| (name.as_str(), s.active.as_str())))
    }

    /// Pins every registered slot to its known-safe fallback variant
    /// (explicit default, else the conventional `"fallback"`, else the
    /// first registered); returns `(slot, variant)` pairs, sorted by slot.
    /// This is the supervisor's fail-closed escalation: after repeated
    /// crash loops, every learned policy is forced onto its safe variant
    /// regardless of what the (possibly lost) monitor state said.
    pub fn pin_all_fallbacks(&self) -> Vec<(String, String)> {
        self.slots_mut()
            .iter_mut()
            .map(|(name, s)| {
                let chosen = s.fallback_variant().to_string();
                if s.active != chosen {
                    s.active = chosen.clone();
                    s.swaps += 1;
                }
                (name.clone(), chosen)
            })
            .collect()
    }

    /// How many effective swaps `slot` has seen.
    pub fn swap_count(&self, slot: &str) -> u64 {
        self.slots.read().get(slot).map_or(0, |s| s.swaps)
    }

    /// Lists registered slot names, sorted.
    pub fn slots(&self) -> Vec<String> {
        self.slots.read().keys().cloned().collect()
    }
}

/// Whether one variant is active in one slot, resolved once (see
/// [`PolicyRegistry::handle`]).
///
/// The handle caches its last answer with the registry generation it read
/// it at. [`VariantHandle::is_active`] loads the generation and, while it
/// is unchanged, returns the cached answer; after any mutation it re-reads
/// the slot under the read lock.
#[derive(Debug)]
pub struct VariantHandle {
    registry: Arc<PolicyRegistry>,
    slot: Box<str>,
    variant: Box<str>,
    /// `generation << 1 | active` of the last read. Only this handle
    /// writes it, and it publishes nothing else, so `Relaxed` suffices.
    cached: AtomicU64,
}

impl VariantHandle {
    /// Whether the variant is active: [`PolicyRegistry::is_active`] without
    /// a lock or a hash while the registry is unchanged.
    #[inline]
    pub fn is_active(&self) -> bool {
        let cached = self.cached.load(Ordering::Relaxed);
        if cached >> 1 == self.registry.generation.load(Ordering::Relaxed) {
            cached & 1 == 1
        } else {
            self.resolve()
        }
    }

    /// Re-reads the slot under the read lock. The generation read under
    /// it cannot move until the lock drops, so the cached pair is one
    /// consistent observation.
    #[cold]
    fn resolve(&self) -> bool {
        let slots = self.registry.slots.read();
        let generation = self.registry.generation.load(Ordering::Relaxed);
        let active = slots
            .get(&*self.slot)
            .is_some_and(|s| *s.active == *self.variant);
        self.cached
            .store(generation << 1 | u64::from(active), Ordering::Relaxed);
        active
    }

    /// The slot this handle watches.
    pub fn slot(&self) -> &str {
        &self.slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_register_and_replace() {
        let reg = PolicyRegistry::new();
        reg.register("s", &["a", "b"]).unwrap();
        assert_eq!(reg.active("s").as_deref(), Some("a"));
        assert!(reg.register("s", &["a"]).is_err(), "duplicate slot");
        assert!(reg.register("empty", &[]).is_err());
        reg.replace("s", "b").unwrap();
        assert!(reg.is_active("s", "b"));
        assert_eq!(reg.swap_count("s"), 1);
        // Idempotent replace does not count.
        reg.replace("s", "b").unwrap();
        assert_eq!(reg.swap_count("s"), 1);
        assert!(reg.replace("s", "zzz").is_err());
        assert!(reg.replace("nope", "a").is_err());
        assert_eq!(reg.slots(), vec!["s".to_string()]);
        assert_eq!(reg.active("nope"), None);
    }

    #[test]
    fn replace_with_fallback_degrades_to_the_safe_variant() {
        let reg = PolicyRegistry::new();
        reg.register("io", &[VARIANT_LEARNED, VARIANT_FALLBACK])
            .unwrap();
        // The requested variant exists: behaves like `replace`.
        assert_eq!(
            reg.replace_with_fallback("io", VARIANT_FALLBACK).unwrap(),
            VARIANT_FALLBACK
        );
        reg.replace("io", VARIANT_LEARNED).unwrap();
        // The requested variant is gone: degrade to "fallback".
        assert_eq!(
            reg.replace_with_fallback("io", "heuristic_v2").unwrap(),
            VARIANT_FALLBACK
        );
        assert!(reg.is_active("io", VARIANT_FALLBACK));
        // Unknown slots still error; there is nothing safe to activate.
        assert!(reg.replace_with_fallback("ghost", "x").is_err());

        // An explicit default wins over the "fallback" convention.
        reg.register("net", &["a", "b", "c"]).unwrap();
        assert_eq!(reg.replace_with_fallback("net", "zzz").unwrap(), "a");
        reg.set_default_variant("net", "c").unwrap();
        assert_eq!(reg.replace_with_fallback("net", "zzz").unwrap(), "c");
        assert!(reg.set_default_variant("net", "zzz").is_err());
        assert!(reg.set_default_variant("ghost", "a").is_err());
    }

    #[test]
    fn unregister_variant_models_a_missing_target() {
        let reg = PolicyRegistry::new();
        reg.register("io", &[VARIANT_LEARNED, VARIANT_FALLBACK, "v2"])
            .unwrap();
        reg.set_default_variant("io", "v2").unwrap();
        reg.unregister_variant("io", "v2").unwrap();
        assert!(reg.replace("io", "v2").is_err(), "target is gone");
        // Removing the default clears it; the convention takes over again.
        assert_eq!(
            reg.replace_with_fallback("io", "v2").unwrap(),
            VARIANT_FALLBACK
        );
        // Guards: active and unknown variants, unknown slots.
        assert!(
            reg.unregister_variant("io", VARIANT_FALLBACK).is_err(),
            "active"
        );
        assert!(reg.unregister_variant("io", "nope").is_err());
        assert!(reg.unregister_variant("ghost", "x").is_err());
    }

    #[test]
    fn names_a_checkpoint_cannot_carry_are_rejected() {
        let reg = PolicyRegistry::new();
        for bad in ["io submit", "io\nsubmit", "", "io\tsubmit", "io\r"] {
            assert!(reg.register(bad, &["a", "b"]).is_err(), "slot {bad:?}");
            assert!(reg.register("s", &["a", bad]).is_err(), "variant {bad:?}");
        }
        assert!(reg.slots().is_empty(), "nothing half-registered");
        reg.register("io_submit", &["learned", "safe-mode"])
            .unwrap();
    }

    #[test]
    fn a_handle_sees_every_registry_mutation() {
        let reg = Arc::new(PolicyRegistry::new());
        // Created before its slot exists: false until it is registered.
        let learned = reg.handle("io", VARIANT_LEARNED);
        let fallback = reg.handle("io", VARIANT_FALLBACK);
        let v2 = reg.handle("io", "v2");
        assert!(!learned.is_active());
        reg.register("io", &[VARIANT_LEARNED, VARIANT_FALLBACK, "v2"])
            .unwrap();
        reg.register("net", &["a", "b"]).unwrap();
        let active = || (learned.is_active(), fallback.is_active(), v2.is_active());
        assert_eq!(active(), (true, false, false), "register");
        reg.replace("io", "v2").unwrap();
        assert_eq!(active(), (false, false, true), "replace");
        reg.replace_with_fallback("io", "gone").unwrap();
        assert_eq!(active(), (false, true, false), "replace_with_fallback");
        reg.pin_variants(&[("io".to_string(), VARIANT_LEARNED.to_string())])
            .unwrap();
        assert_eq!(active(), (true, false, false), "pin_variants");
        reg.set_default_variant("io", "v2").unwrap();
        assert_eq!(active(), (true, false, false), "set_default_variant");
        reg.pin_all_fallbacks();
        assert_eq!(
            active(),
            (false, false, true),
            "pin_all_fallbacks to the default"
        );
        reg.replace("io", VARIANT_LEARNED).unwrap();
        reg.unregister_variant("io", "v2").unwrap();
        assert_eq!(active(), (true, false, false), "unregister_variant");
        reg.pin_all_fallbacks();
        assert_eq!(active(), (false, true, false), "pin_all_fallbacks");
        // Failed mutations change nothing a handle reports.
        assert!(reg.replace("io", "v2").is_err());
        assert!(reg
            .pin_variants(&[("io".to_string(), "v2".to_string())])
            .is_err());
        assert_eq!(active(), (false, true, false));
        // Each answer is the string API's.
        for (handle, variant) in [(&learned, VARIANT_LEARNED), (&fallback, VARIANT_FALLBACK)] {
            assert_eq!(handle.is_active(), reg.is_active("io", variant));
        }
    }
}
