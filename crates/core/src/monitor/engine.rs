//! The monitor engine: trigger scheduling, evaluation, and action dispatch.

use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

use simkernel::Nanos;

use crate::action::retrain::RetrainLimiter;
use crate::action::{Command, CommandOutbox};
use crate::compile::verify::Verified;
use crate::compile::{compile_str, CompiledAction, CompiledGuardrail};
use crate::error::{GuardrailError, Result};
use crate::monitor::checkpoint::{self, EngineCheckpoint};
use crate::monitor::events::{Event, EventKind, EventLog, TriggerKind, Violation};
use crate::monitor::hysteresis::Hysteresis;
use crate::monitor::overhead::{OverheadAccount, OverheadReport};
use crate::monitor::resilience::{
    retry_backoff, ResilienceConfig, RuntimeConfig, RETRY_ATTEMPTS, WATCHDOG_FAULTS,
};
use crate::monitor::state::{self, MonitorState, PendingRetrain};
use crate::policy::PolicyRegistry;
use crate::store::fxhash::FxHashMap;
use crate::store::{FeatureStore, Slot};
use crate::telemetry::{ActionKind, Telemetry, RESERVED_PREFIX};
use crate::vm::{EvalCtx, Vm, VmFault};

/// Aggregate engine statistics: a view over the accounts and the attached
/// telemetry, read with [`MonitorEngine::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Rule-set evaluations performed.
    pub evaluations: u64,
    /// Violations detected (rule false).
    pub violations: u64,
    /// Violations whose actions actually fired (post-hysteresis).
    pub trips: u64,
    /// Deferred commands emitted to the outbox.
    pub commands_emitted: u64,
    /// Rule evaluations aborted by a fault (fuel exhaustion).
    pub rule_faults: u64,
    /// Monitors auto-disabled by the watchdog.
    pub watchdog_trips: u64,
    /// `RETRAIN` retry attempts serviced (successful or not).
    pub retrain_retries: u64,
    /// Measured wall time of the timed sections in which a monitor
    /// evaluated, in nanoseconds: the sum of the telemetry histogram, so 0
    /// without telemetry attached. It is process-lifetime, not
    /// checkpointed.
    pub eval_wall_ns: u64,
}

/// One tracepoint firing, as consumed by [`MonitorEngine::on_function_batch`].
#[derive(Clone, Copy, Debug)]
pub struct FnEvent<'a> {
    /// The event timestamp.
    pub now: Nanos,
    /// The trigger arguments (`ARG(i)` operands).
    pub args: &'a [f64],
}

/// A borrowed trigger descriptor used on the hot path, turned into a
/// [`TriggerKind`] only when a violation is recorded: the hook name is the
/// dispatch index's own `Arc`, so that costs a reference count, and the
/// overwhelmingly common healthy evaluation touches nothing.
#[derive(Clone, Copy, Debug)]
enum TriggerRef<'a> {
    Timer,
    Function(&'a Arc<str>),
}

impl TriggerRef<'_> {
    fn to_kind(self) -> TriggerKind {
        match self {
            TriggerRef::Timer => TriggerKind::Timer,
            TriggerRef::Function(hook) => TriggerKind::Function(Arc::clone(hook)),
        }
    }
}

/// One action's store slots, bound when its monitor is installed.
struct ActionSlots {
    /// The operand program's key table (`DEPRIORITIZE` steps, `SAVE` and
    /// `RECORD` value); empty for actions without an operand.
    operand: Box<[Slot]>,
    /// The keys the action names: the `REPORT` dump list, or the one
    /// `SAVE`/`RECORD` destination.
    keys: Box<[Slot]>,
}

impl ActionSlots {
    fn bind(store: &FeatureStore, action: &CompiledAction) -> Self {
        let keys: &[String] = match action {
            CompiledAction::Report { keys, .. } => keys,
            CompiledAction::Save { key, .. } | CompiledAction::Record { key, .. } => {
                std::slice::from_ref(key)
            }
            CompiledAction::Deprioritize { .. }
            | CompiledAction::Replace { .. }
            | CompiledAction::Retrain { .. } => &[],
        };
        ActionSlots {
            operand: action
                .operand()
                .map(|p| store.bind(&p.keys))
                .unwrap_or_default(),
            keys: store.bind(keys),
        }
    }
}

/// An installed monitor: what was fixed at install, and its state.
struct Monitor {
    compiled: CompiledGuardrail,
    /// Each rule program's key table, bound to store slots at install.
    rule_slots: Vec<Box<[Slot]>>,
    /// Each action's slots, bound at install.
    action_slots: Vec<ActionSlots>,
    /// The CRC-32 of the spec's timers and programs (see
    /// [`crate::monitor::checkpoint`]), computed on first use: only
    /// checkpoint and restore read it, so install does not pay for it.
    fingerprint: OnceLock<u32>,
    /// Everything that evolves.
    state: MonitorState,
}

impl Monitor {
    fn fingerprint(&self) -> u32 {
        *self
            .fingerprint
            .get_or_init(|| state::fingerprint(&self.compiled))
    }
}

/// The guardrail monitor engine.
///
/// The engine plays the role of the in-kernel monitor collection: subsystem
/// simulations drive it with [`MonitorEngine::advance_to`] (timer ticks) and
/// [`MonitorEngine::on_function`] (tracepoint firings), and drain deferred
/// corrective commands with [`MonitorEngine::drain_commands`].
///
/// See the crate-level documentation for an end-to-end example.
pub struct MonitorEngine {
    store: Arc<FeatureStore>,
    registry: Arc<PolicyRegistry>,
    outbox: CommandOutbox,
    limiter: RetrainLimiter,
    /// The installed monitors, in installation order.
    monitors: Vec<Monitor>,
    /// The hook→subscribers dispatch index: one fast-hash lookup per event
    /// (or per batch) resolves every monitor attached to a tracepoint.
    /// Maintained incrementally by `install`/`uninstall`. The key is the
    /// hook name function-triggered violation events share.
    hooks: FxHashMap<Arc<str>, Vec<usize>>,
    /// Every decision, recorded once.
    events: EventLog,
    vm: Vm,
    now: Nanos,
    /// The summed accounts of uninstalled monitors.
    retired: OverheadAccount,
    resilience: ResilienceConfig,
    /// Dynamic per-evaluation rule fuel budget (fault-injection knob; the
    /// verifier's static bound still applies regardless).
    rule_fuel_limit: Option<u64>,
    /// Optional telemetry: batch counts and the timed sections' wall-time
    /// histogram. `None` (the default) costs one is-none check per timed
    /// section and reads no clock; counting, the decision stream and the
    /// checkpoint do not depend on it.
    telemetry: Option<Telemetry>,
    /// When set, `advance_to` republishes telemetry into the store's
    /// reserved namespace at this cadence (default off: published values
    /// include wall time, which deterministic hosts must opt into).
    publish_interval: Option<Nanos>,
    next_publish: Nanos,
}

impl Default for MonitorEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl MonitorEngine {
    /// Creates an engine with a fresh feature store and policy registry.
    pub fn new() -> Self {
        Self::with_parts(
            Arc::new(FeatureStore::new()),
            Arc::new(PolicyRegistry::new()),
        )
    }

    /// Creates an engine over shared store/registry (the usual setup: the
    /// subsystem simulations hold the same `Arc`s).
    pub fn with_parts(store: Arc<FeatureStore>, registry: Arc<PolicyRegistry>) -> Self {
        MonitorEngine {
            store,
            registry,
            outbox: CommandOutbox::default(),
            limiter: RetrainLimiter::default_policy(),
            monitors: Vec::new(),
            hooks: FxHashMap::default(),
            events: EventLog::default(),
            vm: Vm::new(),
            now: Nanos::ZERO,
            retired: OverheadAccount::default(),
            resilience: ResilienceConfig::default(),
            rule_fuel_limit: None,
            telemetry: None,
            publish_interval: None,
            next_publish: Nanos::ZERO,
        }
    }

    /// Attaches telemetry, which the engine records into from this point
    /// on.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Enables (or, with `None`, disables) periodic self-publication: every
    /// `interval` of simulated time, `advance_to` calls
    /// [`MonitorEngine::publish_telemetry`]. Off by default — published
    /// values include measured wall time, so hosts that gate on
    /// byte-identical store contents must leave this off and publish at
    /// explicit points instead.
    pub fn set_telemetry_publish_interval(&mut self, interval: Option<Nanos>) {
        self.publish_interval = interval;
        self.next_publish = self.now;
    }

    /// Replaces the retrain rate-limiting policy.
    pub fn set_retrain_limiter(&mut self, limiter: RetrainLimiter) {
        self.limiter = limiter;
    }

    /// Sets the fail-safe configuration (default: everything off).
    pub fn set_resilience(&mut self, resilience: ResilienceConfig) {
        self.resilience = resilience;
    }

    /// Applies the engine-scoped axes of a [`RuntimeConfig`] in one call:
    /// the resilience bundle and the store quarantine. The `recovery` axis
    /// wraps engine *construction* (durable store, supervisor) and is
    /// consumed by the host that owns the engine's lifecycle.
    pub fn apply_runtime(&mut self, config: &RuntimeConfig) {
        self.resilience = config.resilience;
        self.store.set_quarantine(config.quarantine);
    }

    /// The current fail-safe configuration.
    pub fn resilience(&self) -> ResilienceConfig {
        self.resilience
    }

    /// Caps rule evaluation at `limit` fuel per program (`None` = only the
    /// verifier's static bound). Fault experiments shrink this to model a
    /// starved monitoring budget.
    pub fn set_rule_fuel_limit(&mut self, limit: Option<u64>) {
        self.rule_fuel_limit = limit;
    }

    /// Whether the watchdog has disabled guardrail `name`.
    pub fn watchdog_tripped(&self, name: &str) -> Result<bool> {
        let idx = self.lookup(name)?;
        Ok(self.monitors[idx].state.watchdog_tripped)
    }

    /// `RETRAIN` retries currently waiting on backoff.
    pub fn pending_retrains(&self) -> usize {
        self.monitors.iter().map(|m| m.state.retrains.len()).sum()
    }

    /// The shared feature store.
    pub fn store(&self) -> Arc<FeatureStore> {
        Arc::clone(&self.store)
    }

    /// The shared policy registry.
    pub fn registry(&self) -> Arc<PolicyRegistry> {
        Arc::clone(&self.registry)
    }

    /// Installs a compiled guardrail; names must be unique per engine.
    pub fn install(&mut self, compiled: CompiledGuardrail) -> Result<()> {
        if self.lookup(&compiled.name).is_ok() {
            return Err(already_installed(&compiled.name));
        }
        let idx = self.monitors.len();
        for hook in &compiled.hooks {
            self.hooks
                .entry(hook.as_str().into())
                .or_default()
                .push(idx);
        }
        let rule_slots = compiled
            .rules
            .iter()
            .map(|r| self.store.bind(&r.program.keys))
            .collect();
        let action_slots = compiled
            .actions
            .iter()
            .map(|a| ActionSlots::bind(&self.store, a))
            .collect();
        self.monitors.push(Monitor {
            fingerprint: OnceLock::new(),
            state: MonitorState::new(&compiled, self.now),
            compiled,
            rule_slots,
            action_slots,
        });
        Ok(())
    }

    /// Parses, checks, compiles, verifies, and installs guardrail source,
    /// all or nothing: if any name is already installed, none is.
    pub fn install_str(&mut self, source: &str) -> Result<()> {
        let compiled = compile_str(source)?;
        if let Some(taken) = compiled.iter().find(|g| self.lookup(&g.name).is_ok()) {
            return Err(already_installed(&taken.name));
        }
        compiled.into_iter().try_for_each(|g| self.install(g))
    }

    /// Uninstalls a guardrail at runtime (§6: "update guardrails at runtime
    /// without requiring a kernel reboot"). The monitor and its pending
    /// retries are removed, its name becomes reusable immediately, and its
    /// account is folded into the engine-wide counters ([`Self::stats`]):
    /// it no longer appears in [`Self::overhead_reports`].
    pub fn uninstall(&mut self, name: &str) -> Result<()> {
        let idx = self.lookup(name)?;
        let removed = self.monitors.remove(idx);
        self.retired.merge(&removed.state.account);
        for subscribers in self.hooks.values_mut() {
            subscribers.retain(|&m| m != idx);
            for m in subscribers.iter_mut().filter(|m| **m > idx) {
                *m -= 1;
            }
        }
        Ok(())
    }

    /// Atomically updates guardrails at runtime: compiles `source` first
    /// (nothing changes on a compile error), then replaces any installed
    /// guardrail with a matching name and installs the rest fresh.
    pub fn update_str(&mut self, source: &str) -> Result<()> {
        for g in compile_str(source)? {
            if self.lookup(&g.name).is_ok() {
                self.uninstall(&g.name)?;
            }
            self.install(g)?;
        }
        Ok(())
    }

    /// Sets the hysteresis configuration of an installed guardrail.
    pub fn set_hysteresis(&mut self, name: &str, config: Hysteresis) -> Result<()> {
        let idx = self.lookup(name)?;
        self.monitors[idx].state.hysteresis.set_config(config);
        Ok(())
    }

    /// Enables or disables a guardrail (incremental deployment, §3.3).
    /// Disabled monitors skip evaluation entirely but keep their timers.
    /// Manually enabling a monitor also clears any watchdog trip state.
    pub fn set_enabled(&mut self, name: &str, enabled: bool) -> Result<()> {
        let idx = self.lookup(name)?;
        let m = &mut self.monitors[idx].state;
        m.enabled = enabled;
        if enabled {
            m.consecutive_faults = 0;
            m.watchdog_tripped = false;
        }
        Ok(())
    }

    fn lookup(&self, name: &str) -> Result<usize> {
        self.monitors
            .iter()
            .position(|m| &*m.compiled.name == name)
            .ok_or_else(|| GuardrailError::Config(format!("no installed guardrail '{name}'")))
    }

    /// Installed guardrail names, in installation order.
    pub fn monitor_names(&self) -> Vec<String> {
        self.monitors
            .iter()
            .map(|m| m.compiled.name.to_string())
            .collect()
    }

    /// The engine's current simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Advances simulated time to `now`, evaluating every timer that comes
    /// due on the way (in timestamp order) and servicing any backoff-scheduled
    /// `RETRAIN` retries that come due alongside them.
    ///
    /// The ticks of one call are timed as one section, like a batch: the
    /// clock is read only when some tick is due.
    pub fn advance_to(&mut self, now: Nanos) {
        let due_by = |tick: &(Nanos, usize, usize)| tick.0 <= now;
        if let Some(first) = self.next_tick().filter(due_by) {
            self.timed(|engine| {
                let mut tick = Some(first);
                while let Some((due, midx, tidx)) = tick {
                    engine.now = due;
                    engine.service_retrain_retries(due);
                    engine.evaluate_inner(midx, due, &[], TriggerRef::Timer);
                    let m = &mut engine.monitors[midx];
                    let timer = m.compiled.timers[tidx];
                    m.state.next_due[tidx] =
                        Some(due + timer.interval).filter(|&next| next <= timer.stop);
                    tick = engine.next_tick().filter(due_by);
                }
            });
        }
        self.now = self.now.max(now);
        self.service_retrain_retries(self.now);
        if let Some(interval) = self.publish_interval {
            if self.now >= self.next_publish {
                self.publish_telemetry();
                self.next_publish = self.now + interval;
            }
        }
    }

    /// The earliest pending timer tick as `(due, monitor, timer)`. Ties go
    /// to the earlier-installed monitor, then to its earlier timer.
    fn next_tick(&self) -> Option<(Nanos, usize, usize)> {
        let mut next: Option<(Nanos, usize, usize)> = None;
        for (midx, m) in self.monitors.iter().enumerate() {
            for (tidx, &due) in m.state.next_due.iter().enumerate() {
                match (due, next) {
                    (Some(due), Some((earliest, ..))) if due >= earliest => {}
                    (Some(due), _) => next = Some((due, midx, tidx)),
                    (None, _) => {}
                }
            }
        }
        next
    }

    /// Re-requests pending `RETRAIN`s whose backoff has elapsed; emits the
    /// command on acceptance, reschedules with doubled backoff on another
    /// rejection, and gives up (with a log line) past the attempt budget.
    fn service_retrain_retries(&mut self, now: Nanos) {
        if self.monitors.iter().all(|m| m.state.retrains.is_empty()) {
            return;
        }
        if !self.resilience.retrain_retry {
            for m in &mut self.monitors {
                m.state.retrains.clear();
            }
            return;
        }
        for m in &mut self.monitors {
            let name = &m.compiled.name;
            let state = &mut m.state;
            let account = &mut state.account;
            state.retrains.retain_mut(|p| {
                if p.next_attempt > now {
                    return true;
                }
                account.retrain_retries += 1;
                if self.limiter.request(&p.model, now).is_ok() {
                    emit(
                        &mut self.outbox,
                        &mut self.events,
                        account,
                        now,
                        name,
                        Command::Retrain {
                            guardrail: name.to_string(),
                            model: p.model.clone(),
                        },
                    );
                    return false;
                }
                p.attempt += 1;
                if p.attempt >= RETRY_ATTEMPTS {
                    self.events.notice(
                        now,
                        name,
                        format!(
                            "RETRAIN {} gave up after {RETRY_ATTEMPTS} attempts",
                            p.model
                        ),
                    );
                    return false;
                }
                p.next_attempt = now + retry_backoff(p.attempt);
                true
            });
        }
    }

    /// Delivers a tracepoint firing to every guardrail attached to `hook`.
    pub fn on_function(&mut self, hook: &str, now: Nanos, args: &[f64]) {
        self.on_function_batch(hook, &[FnEvent { now, args }]);
    }

    /// Delivers a batch of tracepoint firings for one hook.
    ///
    /// Semantically identical to calling [`MonitorEngine::on_function`] once
    /// per event in order — the decision stream, the accounts and store
    /// effects are bit-identical — but the hook is resolved through the
    /// dispatch index once, the batch is timed as one section instead of
    /// one per event, and no per-event allocations occur.
    pub fn on_function_batch(&mut self, hook: &str, events: &[FnEvent<'_>]) {
        if events.is_empty() {
            return;
        }
        // Detach the hook's entry for the duration of the batch so
        // `evaluate_inner` can borrow the engine mutably. Installs and
        // uninstalls only happen between engine entry points, never inside
        // an evaluation, so the list cannot change underneath us.
        let Some((hook, subscribers)) = self.hooks.remove_entry(hook) else {
            // No subscribers: the clock still advances, as it would have
            // under sequential delivery.
            let last = events.iter().map(|e| e.now).max().unwrap_or(self.now);
            self.now = self.now.max(last);
            return;
        };
        if let Some(t) = &mut self.telemetry {
            t.batches += 1;
            t.batch_events += events.len() as u64;
        }
        self.timed(|engine| {
            for event in events {
                engine.now = engine.now.max(event.now);
                for &midx in &subscribers {
                    engine.evaluate_inner(midx, event.now, event.args, TriggerRef::Function(&hook));
                }
            }
        });
        self.hooks.insert(hook, subscribers);
    }

    /// The engine's one timing site. With telemetry attached it reads the
    /// wall clock around `section` and adds one sample to the histogram if
    /// a monitor evaluated in it; without, it reads no clock.
    fn timed(&mut self, section: impl FnOnce(&mut Self)) {
        let start = self
            .telemetry
            .is_some()
            .then(|| (self.evaluations(), std::time::Instant::now()));
        section(self);
        if let Some((before, started)) = start {
            let wall_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            if self.evaluations() != before {
                if let Some(t) = &mut self.telemetry {
                    t.eval_wall_ns.observe(wall_ns as f64);
                }
            }
        }
    }

    /// Every installed monitor's evaluations, summed: whether this moved
    /// across a timed section tells whether a monitor evaluated in it. Out
    /// of line, so the summing loop stays out of the batch and timer loops
    /// `timed` is inlined into; the benchmark's `healthy` workload measured
    /// slower with it inlined.
    #[inline(never)]
    fn evaluations(&self) -> u64 {
        self.monitors
            .iter()
            .map(|m| m.state.account.evaluations)
            .sum()
    }

    /// One evaluation's hot path, inlined into the batch loop and the timer
    /// loop: the enable check, each rule through the VM, the counts, and a
    /// healthy outcome into the hysteresis window. A fault and a violation
    /// are handled out of line.
    #[inline(always)]
    fn evaluate_inner(&mut self, midx: usize, now: Nanos, args: &[f64], trigger: TriggerRef<'_>) {
        if !self.monitors[midx].state.enabled {
            // Rare, and marked so: without the hint LLVM lays the rule-fault
            // call out inside the batch loop, which measured slower on the
            // benchmark's `healthy` and `ingest` workloads.
            std::hint::cold_path();
            return;
        }
        let Monitor {
            compiled,
            rule_slots,
            state,
            ..
        } = &mut self.monitors[midx];
        let mut fuel = 0u64;
        let mut failed: Option<usize> = None;
        let mut fault: Option<(usize, VmFault)> = None;
        let (vm, limit) = (&mut self.vm, self.rule_fuel_limit);
        for (i, rule) in compiled.rules.iter().enumerate() {
            // No unwind guard: the program is verified, so the only way it
            // can fail is a fuel limit, which faults this monitor.
            let mut ctx = EvalCtx {
                slots: &rule_slots[i],
                now,
                args,
                deltas: &mut state.deltas[i],
            };
            match vm.try_run(&rule.program, &mut ctx, limit) {
                Ok(result) => {
                    fuel += result.fuel;
                    if !result.as_bool() {
                        failed = Some(i);
                        break;
                    }
                }
                Err(vm_fault) => {
                    fault = Some((i, vm_fault));
                    break;
                }
            }
        }
        // Wall time is charged per timed section (`timed`); fuel is
        // charged here.
        state.account.evaluations += 1;
        state.account.rule_fuel += fuel;

        if let Some((rule_index, vm_fault)) = fault {
            self.on_rule_fault(midx, now, args, rule_index, vm_fault);
            return;
        }
        state.consecutive_faults = 0;
        match failed {
            // Healthy evaluation still feeds the hysteresis window.
            None => {
                state.hysteresis.observe(false, now);
            }
            Some(rule_index) => self.on_violation(midx, now, args, trigger, rule_index),
        }
    }

    /// Rule `rule_index` did not hold: counts the violation, feeds the
    /// hysteresis window, records it and, when hysteresis lets it trip,
    /// dispatches the monitor's actions.
    #[cold]
    #[inline(never)]
    fn on_violation(
        &mut self,
        midx: usize,
        now: Nanos,
        args: &[f64],
        trigger: TriggerRef<'_>,
        rule_index: usize,
    ) {
        let Monitor {
            compiled, state, ..
        } = &mut self.monitors[midx];
        state.account.violations += 1;
        let fire = state.hysteresis.observe(true, now);
        if fire {
            state.account.trips += 1;
        }
        self.events.record(
            now,
            Some(&compiled.name),
            EventKind::Violation {
                rule_index,
                rule: Arc::clone(&compiled.rules[rule_index].source),
                trigger: trigger.to_kind(),
                actions_fired: fire,
            },
        );
        if fire {
            self.dispatch_actions(midx, now, args);
        }
    }

    /// Handles a rule evaluation that aborted (fuel exhaustion):
    /// counts it, and — when the watchdog is on — disables a monitor that
    /// keeps faulting instead of leaving it silently wedged, dispatching its
    /// actions once on the way down (fail closed). It stays disabled until
    /// [`MonitorEngine::set_enabled`] re-enables it.
    #[cold]
    #[inline(never)]
    fn on_rule_fault(
        &mut self,
        midx: usize,
        now: Nanos,
        args: &[f64],
        rule_index: usize,
        vm_fault: VmFault,
    ) {
        let Monitor {
            compiled, state, ..
        } = &mut self.monitors[midx];
        let name = &compiled.name;
        let reason = format!("rule {rule_index}: {vm_fault}");
        state.account.rule_faults += 1;
        // Saturating: without the watchdog, a monitor that faults on every
        // evaluation keeps counting.
        state.consecutive_faults = state.consecutive_faults.saturating_add(1);
        self.events
            .notice(now, name, format!("rule fault: {reason}"));
        if !self.resilience.watchdog || state.consecutive_faults < WATCHDOG_FAULTS {
            return;
        }
        state.enabled = false;
        state.watchdog_tripped = true;
        state.account.watchdog_trips += 1;
        self.events.notice(
            now,
            name,
            format!(
                "watchdog disabled monitor after {WATCHDOG_FAULTS} consecutive rule faults \
                 ({reason})"
            ),
        );
        // The property can no longer be checked: presume it violated and
        // leave the system in its corrected configuration.
        self.dispatch_actions(midx, now, args);
    }

    fn dispatch_actions(&mut self, midx: usize, now: Nanos, args: &[f64]) {
        // Borrow the engine field by field so the monitor's actions are
        // walked in place while the outbox, the stream and counters are
        // written.
        let MonitorEngine {
            store,
            registry,
            outbox,
            limiter,
            monitors,
            events,
            vm,
            resilience,
            rule_fuel_limit,
            ..
        } = self;
        let Monitor {
            compiled,
            action_slots,
            state,
            ..
        } = &mut monitors[midx];
        let name = &compiled.name;
        let MonitorState {
            deltas,
            account,
            retrains,
            ..
        } = state;
        // Action programs follow the rules' in the monitor's DELTA state.
        let action_deltas = &mut deltas[compiled.rules.len()..];
        for (aidx, (action, slots)) in compiled.actions.iter().zip(action_slots.iter()).enumerate()
        {
            let mut fuel = 0u64;
            let mut text = None;
            let kind = match action {
                CompiledAction::Report { .. } => ActionKind::Report,
                CompiledAction::Replace { .. } => ActionKind::Replace,
                CompiledAction::Retrain { .. } => ActionKind::Retrain,
                CompiledAction::Deprioritize { .. } => ActionKind::Deprioritize,
                CompiledAction::Save { .. } => ActionKind::Save,
                CompiledAction::Record { .. } => ActionKind::Record,
            };
            // Verified like the rules, so only the fuel limit can fault an
            // operand; the action is then reported and skipped.
            let mut operand = |program: &Verified| {
                vm.try_run(
                    program,
                    &mut EvalCtx {
                        slots: &slots.operand,
                        now,
                        args,
                        deltas: &mut action_deltas[aidx],
                    },
                    *rule_fuel_limit,
                )
            };
            match action {
                CompiledAction::Report { message, .. } => {
                    // The message plus a snapshot of the listed keys (absent
                    // keys read 0): "logging information about the violated
                    // property" (§3.2).
                    let mut report = message.clone();
                    for slot in slots.keys.iter() {
                        let value = slot.load().unwrap_or(0.0);
                        let _ = write!(report, " {}={value}", slot.key());
                    }
                    text = Some(report);
                }
                CompiledAction::Replace { slot, variant } => {
                    let outcome = if resilience.replace_fallback {
                        // Fail-safe chain: a missing variant degrades to the
                        // slot's registered default instead of doing nothing.
                        registry.replace_with_fallback(slot, variant).map(|chosen| {
                            if &chosen != variant {
                                events.notice(
                                    now,
                                    name,
                                    format!(
                                        "REPLACE '{slot}': variant '{variant}' missing, \
                                         fell back to '{chosen}'"
                                    ),
                                );
                            }
                        })
                    } else {
                        registry.replace(slot, variant)
                    };
                    if let Err(e) = outcome {
                        // A REPLACE against an unknown slot is a deployment
                        // bug; surface it in the stream rather than crashing
                        // the monitor (crash-free semantics, §4.2).
                        events.notice(now, name, format!("REPLACE failed: {e}"));
                    }
                }
                CompiledAction::Retrain { model } => {
                    if limiter.request(model, now).is_ok() {
                        emit(
                            outbox,
                            events,
                            account,
                            now,
                            name,
                            Command::Retrain {
                                guardrail: name.to_string(),
                                model: model.clone(),
                            },
                        );
                    } else if resilience.retrain_retry {
                        // Rejected: schedule a backoff retry instead of
                        // dropping the request, unless one is already queued
                        // for this model (no point stacking duplicates).
                        if !retrains.iter().any(|p| p.model == *model) {
                            retrains.push(PendingRetrain {
                                model: model.clone(),
                                attempt: 0,
                                next_attempt: now + retry_backoff(0),
                            });
                        }
                    }
                }
                CompiledAction::Deprioritize { target, steps } => {
                    let steps_value = match steps {
                        Some(program) => match operand(program) {
                            Ok(r) => {
                                fuel += r.fuel;
                                r.value.round().clamp(i32::MIN as f64, i32::MAX as f64) as i32
                            }
                            Err(reason) => {
                                events.notice(
                                    now,
                                    name,
                                    format!("DEPRIORITIZE operand fault: {reason}; action skipped"),
                                );
                                continue;
                            }
                        },
                        None => 5,
                    };
                    emit(
                        outbox,
                        events,
                        account,
                        now,
                        name,
                        Command::Deprioritize {
                            guardrail: name.to_string(),
                            target: target.clone(),
                            steps: steps_value,
                        },
                    );
                }
                CompiledAction::Save { value, .. } => match operand(value) {
                    Ok(r) => {
                        fuel += r.fuel;
                        store.save_slot(&slots.keys[0], r.value);
                    }
                    Err(reason) => {
                        events.notice(
                            now,
                            name,
                            format!("SAVE operand fault: {reason}; action skipped"),
                        );
                        continue;
                    }
                },
                CompiledAction::Record { value, .. } => match operand(value) {
                    Ok(r) => {
                        fuel += r.fuel;
                        store.record_slot(&slots.keys[0], now, r.value);
                    }
                    Err(reason) => {
                        events.notice(
                            now,
                            name,
                            format!("RECORD operand fault: {reason}; action skipped"),
                        );
                        continue;
                    }
                },
            }
            account.actions[kind as usize] += 1;
            account.action_fuel += fuel;
            events.record(now, Some(name), EventKind::Action { kind, text });
        }
    }

    /// Drains the deferred-command outbox (apply these with your subsystem's
    /// [`simkernel::TaskTable`] / model owner).
    ///
    /// Allocates a fresh `Vec` per call; event loops that poll every tick
    /// should prefer [`MonitorEngine::drain_commands_into`].
    pub fn drain_commands(&mut self) -> Vec<(Nanos, Command)> {
        self.outbox.drain()
    }

    /// Drains the deferred-command outbox into a caller-owned buffer,
    /// avoiding the per-poll allocation of [`MonitorEngine::drain_commands`].
    /// Commands are appended oldest first; the buffer is not cleared.
    pub fn drain_commands_into(&mut self, buf: &mut Vec<(Nanos, Command)>) {
        self.outbox.drain_into(buf);
    }

    /// The decision stream: every violation, action, notice, checkpoint and
    /// restart, oldest first, bounded at
    /// [`crate::monitor::EVENT_CAPACITY`] retained events.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// The retained violations, oldest first: a view of the stream. The
    /// count of every violation ever detected is [`Self::stats`]'s.
    pub fn violations(&self) -> Vec<Violation> {
        self.events.iter().filter_map(Event::violation).collect()
    }

    /// The retained events that carry text, oldest first: `REPORT`
    /// messages with their key snapshots, and notices.
    pub fn reports(&self) -> impl Iterator<Item = &Event> + '_ {
        self.events.iter().filter(|e| e.text().is_some())
    }

    /// The engine-wide counters: the field-wise sum of the retired total
    /// and every installed monitor's account. The accounts are
    /// checkpointed, so after a [`MonitorEngine::restore`] the sum
    /// continues from the checkpoint.
    pub fn telemetry_snapshot(&self) -> OverheadAccount {
        let mut sum = self.retired;
        for m in &self.monitors {
            sum.merge(&m.state.account);
        }
        sum
    }

    /// Aggregate engine statistics: the counters of
    /// [`MonitorEngine::telemetry_snapshot`], and the measured wall time of
    /// the attached telemetry.
    pub fn stats(&self) -> EngineStats {
        let a = self.telemetry_snapshot();
        EngineStats {
            evaluations: a.evaluations,
            violations: a.violations,
            trips: a.trips,
            commands_emitted: a.commands_emitted,
            rule_faults: a.rule_faults,
            watchdog_trips: a.watchdog_trips,
            retrain_retries: a.retrain_retries,
            eval_wall_ns: self
                .telemetry
                .as_ref()
                .map_or(0, |t| t.eval_wall_ns.sum() as u64),
        }
    }

    /// Publishes the attached telemetry into the feature store's reserved
    /// `__telemetry/` namespace:
    /// - the [`Telemetry`] fields under `__telemetry/engine/{batches,
    ///   batch_events}` and `__telemetry/engine/eval_wall_ns_hist/{count,
    ///   sum,p50,p95,p99}`;
    /// - the sum of the monitors' accounts under
    ///   `__telemetry/engine/{evaluations,violations,trips,rule_fuel,
    ///   action_fuel}` and `__telemetry/actions/<kind>`;
    /// - the store's write count under `__telemetry/store/saves`;
    /// - the decision stream's recorded and evicted counts under
    ///   `__telemetry/events/{recorded,overwritten}`;
    /// - per-guardrail P5 accounts under
    ///   `__telemetry/guardrail/<name>/{evaluations,rule_fuel,action_fuel,
    ///   modeled_ns,overhead_fraction}`. The fraction is `modeled_ns / now`
    ///   — fuel-modeled, so it is deterministic and safe for guardrail
    ///   rules to `LOAD`.
    ///
    /// No-op without telemetry attached.
    pub fn publish_telemetry(&self) {
        let Some(t) = &self.telemetry else {
            return;
        };
        // Read before this publish adds its own writes.
        let saves = self.store.saves_total();
        let save = |name: &str, value: f64| {
            self.store.save(&format!("{RESERVED_PREFIX}{name}"), value);
        };
        let hist = &t.eval_wall_ns;
        for (name, value) in [
            ("engine/batches", t.batches as f64),
            ("engine/batch_events", t.batch_events as f64),
            ("engine/eval_wall_ns_hist/count", hist.count() as f64),
            ("engine/eval_wall_ns_hist/sum", hist.sum()),
            ("engine/eval_wall_ns_hist/p50", hist.quantile(0.50)),
            ("engine/eval_wall_ns_hist/p95", hist.quantile(0.95)),
            ("engine/eval_wall_ns_hist/p99", hist.quantile(0.99)),
        ] {
            save(name, value);
        }
        let sum = self.telemetry_snapshot();
        for (name, value) in [
            ("engine/evaluations", sum.evaluations),
            ("engine/violations", sum.violations),
            ("engine/trips", sum.trips),
            ("engine/rule_fuel", sum.rule_fuel),
            ("engine/action_fuel", sum.action_fuel),
            ("store/saves", saves),
            ("events/recorded", self.events.recorded()),
            ("events/overwritten", self.events.overwritten()),
        ] {
            save(name, value as f64);
        }
        for kind in ActionKind::ALL {
            save(
                &format!("actions/{}", kind.name()),
                sum.actions[kind as usize] as f64,
            );
        }
        for report in self.overhead_reports() {
            let o = &report.account;
            for (suffix, value) in [
                ("evaluations", o.evaluations as f64),
                ("rule_fuel", o.rule_fuel as f64),
                ("action_fuel", o.action_fuel as f64),
                ("modeled_ns", o.modeled().as_nanos() as f64),
                ("overhead_fraction", report.fraction_of(self.now)),
            ] {
                save(&format!("guardrail/{}/{suffix}", report.guardrail), value);
            }
        }
    }

    /// The installed monitors' overhead accounts (P5), in installation
    /// order.
    pub fn overhead_reports(&self) -> Vec<OverheadReport> {
        self.monitors
            .iter()
            .map(|m| OverheadReport {
                guardrail: m.compiled.name.to_string(),
                account: m.state.account,
            })
            .collect()
    }

    /// Total modelled monitoring time, uninstalled monitors included.
    pub fn total_modeled_overhead(&self) -> Nanos {
        self.telemetry_snapshot().modeled()
    }

    /// Violations suppressed by hysteresis for `name`.
    pub fn suppressed(&self, name: &str) -> Result<u64> {
        let idx = self.lookup(name)?;
        Ok(self.monitors[idx].state.hysteresis.suppressed())
    }

    /// Captures the engine state that must survive a crash: the clock,
    /// every installed monitor's [`MonitorState`] with its name and
    /// fingerprint, the retired total, and the active variant of every
    /// policy slot. Take a checkpoint after `advance_to`/`on_function`
    /// returns — never mid-dispatch. The capture is recorded in the
    /// decision stream.
    pub fn checkpoint(&mut self) -> EngineCheckpoint {
        self.events.record(self.now, None, EventKind::Checkpoint);
        EngineCheckpoint {
            now: self.now,
            slots: self.registry.active_variants(),
            retired: self.retired,
            monitors: self
                .monitors
                .iter()
                .map(|m| {
                    (
                        m.compiled.name.to_string(),
                        m.fingerprint(),
                        m.state.clone(),
                    )
                })
                .collect(),
        }
    }

    /// Writes the GRCP4 encoding of [`MonitorEngine::checkpoint`] into
    /// `out`, replacing its contents: the bytes `checkpoint().encode()`
    /// returns, recorded in the decision stream the same way,
    /// but without copying any monitor's state or any name. A host that
    /// checkpoints periodically keeps one buffer and allocates only while
    /// it grows.
    pub fn checkpoint_into(&mut self, out: &mut Vec<u8>) {
        self.events.record(self.now, None, EventKind::Checkpoint);
        let monitors = self
            .monitors
            .iter()
            .map(|m| (&*m.compiled.name, m.fingerprint(), &m.state));
        self.registry.with_active_variants(|slots| {
            checkpoint::encode_into(out, self.now, &self.retired, slots, monitors);
        });
    }

    /// Restores a checkpoint into this engine, all or nothing: on `Err`
    /// the engine and its policy registry are unchanged.
    ///
    /// Call after reinstalling the same guardrail specs into a freshly
    /// built engine. A checkpointed state is assigned to the installed
    /// monitor with the same name and fingerprint; one without such a
    /// monitor (uninstalled, or its spec changed — the deployment wins over
    /// history) has its account folded into the retired total, which the
    /// checkpoint's replaces. Installed monitors the checkpoint does not
    /// cover keep their state. Policy slots are re-pinned to their
    /// checkpointed active variants, so a `REPLACE` decision made before
    /// the crash holds after it; slots this registry lacks are skipped.
    ///
    /// Every timer then moves to the first tick of its own phase strictly
    /// after the checkpoint instant — missed ticks are *not* replayed (their
    /// inputs are gone; re-running them against current state would
    /// double-fire actions).
    ///
    /// Fails when a known slot lacks its checkpointed variant, or when a
    /// state does not fit its monitor's timers and programs.
    pub fn restore(&mut self, checkpoint: &EngineCheckpoint) -> Result<()> {
        let mut retired = checkpoint.retired;
        let mut restored = Vec::new();
        for (name, fingerprint, state) in &checkpoint.monitors {
            match self.lookup(name) {
                Ok(idx) if *fingerprint == self.monitors[idx].fingerprint() => {
                    restored.push((idx, state.fitted_to(&self.monitors[idx].compiled)?));
                }
                _ => retired.merge(&state.account),
            }
        }
        self.registry.pin_variants(&checkpoint.slots)?;
        for (idx, state) in restored {
            self.monitors[idx].state = state;
        }
        self.retired = retired;
        self.now = self.now.max(checkpoint.now);
        let now = self.now;
        for m in &mut self.monitors {
            for (due, timer) in m.state.next_due.iter_mut().zip(&m.compiled.timers) {
                *due = due.and_then(|anchor| state::first_tick_after(anchor, timer, now));
            }
        }
        self.events.record(self.now, None, EventKind::Restart);
        Ok(())
    }
}

/// Queues `command` for `guardrail` and counts it in `account`, or, when
/// the outbox is full and drops it, records a notice naming the action and
/// the capacity: a command is counted emitted only if it can be drained.
fn emit(
    outbox: &mut CommandOutbox,
    events: &mut EventLog,
    account: &mut OverheadAccount,
    now: Nanos,
    guardrail: &Arc<str>,
    command: Command,
) {
    let action = match command {
        Command::Deprioritize { .. } => "DEPRIORITIZE",
        Command::Retrain { .. } => "RETRAIN",
    };
    if outbox.push(now, command) {
        account.commands_emitted += 1;
    } else {
        let text = format!(
            "{action} command dropped: the outbox is full ({} commands)",
            outbox.len()
        );
        events.notice(now, guardrail, text);
    }
}

/// The error for installing a name that is already installed.
fn already_installed(name: &str) -> GuardrailError {
    GuardrailError::Config(format!("guardrail '{name}' is already installed"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether a retained `REPORT` message or notice contains `needle`.
    fn reported(engine: &MonitorEngine, needle: &str) -> bool {
        engine
            .reports()
            .any(|r| r.text().is_some_and(|t| t.contains(needle)))
    }

    const LISTING_2: &str = r#"
guardrail low-false-submit {
    trigger: {
        TIMER(start_time, 1e9) // Periodically check every 1s.
    },
    rule: {
        LOAD(false_submit_rate) <= 0.05
    },
    action: {
        SAVE(ml_enabled, false)
    }
}
"#;

    #[test]
    fn listing2_end_to_end() {
        let mut engine = MonitorEngine::new();
        engine.install_str(LISTING_2).unwrap();
        let store = engine.store();
        store.save("ml_enabled", 1.0);
        store.save("false_submit_rate", 0.01);
        // Healthy: the rule holds, nothing happens.
        engine.advance_to(Nanos::from_secs(3));
        assert!(store.flag("ml_enabled"));
        assert!(engine.violations().is_empty());
        // Degrade: the next tick disables the model.
        store.save("false_submit_rate", 0.20);
        engine.advance_to(Nanos::from_secs(4));
        assert!(!store.flag("ml_enabled"));
        let violations = engine.violations();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].guardrail, "low-false-submit");
        assert_eq!(violations[0].rule_source, "LOAD(false_submit_rate) <= 0.05");
        assert!(violations[0].actions_fired);
        assert_eq!(violations[0].trigger, TriggerKind::Timer);
    }

    #[test]
    fn timer_cadence_is_exact() {
        let mut engine = MonitorEngine::new();
        engine
            .install_str(
                "guardrail g { trigger: { TIMER(500ms, 1s, 3500ms) }, rule: { LOAD(x) < 0 }, action: { RECORD(ticks, 1) } }",
            )
            .unwrap();
        // The rule is always violated (x missing reads 0), so every tick
        // records one sample: at 0.5, 1.5, 2.5, 3.5 seconds and never after.
        engine.advance_to(Nanos::from_secs(10));
        let store = engine.store();
        let count = store.aggregate(
            crate::spec::ast::AggKind::Count,
            "ticks",
            Nanos::from_secs(100),
            engine.now(),
        );
        assert_eq!(count, 4.0);
        assert_eq!(engine.stats().evaluations, 4);
        assert_eq!(engine.stats().violations, 4);
    }

    #[test]
    fn function_trigger_sees_args() {
        let mut engine = MonitorEngine::new();
        engine
            .install_str(
                r#"guardrail io-bound {
                    trigger: { FUNCTION(io_submit) },
                    rule: { ARG(0) <= 4096 },
                    action: { REPORT("oversized io", io_size) SAVE(io_size, ARG(0)) }
                }"#,
            )
            .unwrap();
        engine.on_function("io_submit", Nanos::from_micros(1), &[1024.0]);
        assert!(engine.violations().is_empty());
        engine.on_function("io_submit", Nanos::from_micros(2), &[8192.0]);
        let v = engine.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].trigger, TriggerKind::Function("io_submit".into()));
        assert_eq!(engine.store().load("io_size"), Some(8192.0));
        assert_eq!(engine.reports().count(), 1);
        // Unrelated hooks are ignored.
        engine.on_function("other", Nanos::from_micros(3), &[1.0]);
        assert_eq!(engine.violations().len(), 1);
    }

    #[test]
    fn duplicate_install_rejected() {
        let mut engine = MonitorEngine::new();
        engine.install_str(LISTING_2).unwrap();
        assert!(engine.install_str(LISTING_2).is_err());
    }

    #[test]
    fn hysteresis_suppresses_and_cooldown_limits() {
        let mut engine = MonitorEngine::new();
        engine
            .install_str(
                "guardrail g { trigger: { TIMER(0, 1s) }, rule: { LOAD(x) > 0 }, action: { SAVE(fired, LOAD(fired) + 1) } }",
            )
            .unwrap();
        engine
            .set_hysteresis("g", Hysteresis::n_of_m(3, 3))
            .unwrap();
        // Rule violated on every tick (x reads 0). Firing needs 3 in a row.
        engine.advance_to(Nanos::from_secs(1));
        assert_eq!(engine.store().load("fired"), None);
        engine.advance_to(Nanos::from_secs(2));
        assert_eq!(engine.store().load("fired"), Some(1.0));
        assert_eq!(engine.suppressed("g").unwrap(), 2);
        assert!(engine.stats().violations > engine.stats().trips);
    }

    #[test]
    fn disabled_monitor_does_not_evaluate() {
        let mut engine = MonitorEngine::new();
        engine
            .install_str(
                "guardrail g { trigger: { TIMER(0, 1s) }, rule: { LOAD(x) > 0 }, action: { REPORT(m) } }",
            )
            .unwrap();
        engine.set_enabled("g", false).unwrap();
        engine.advance_to(Nanos::from_secs(5));
        assert_eq!(engine.stats().evaluations, 0);
        engine.set_enabled("g", true).unwrap();
        engine.advance_to(Nanos::from_secs(6));
        assert!(engine.stats().evaluations > 0);
        assert!(engine.set_enabled("nope", true).is_err());
    }

    #[test]
    fn retrain_commands_are_rate_limited() {
        let mut engine = MonitorEngine::new();
        engine.set_retrain_limiter(RetrainLimiter::new(
            Nanos::from_secs(10),
            100,
            Nanos::from_secs(1000),
        ));
        engine
            .install_str(
                "guardrail g { trigger: { TIMER(0, 1s) }, rule: { LOAD(x) > 0 }, action: { RETRAIN(io_model) } }",
            )
            .unwrap();
        engine.advance_to(Nanos::from_secs(25));
        let commands = engine.drain_commands();
        // Fires at 0, 10, 20 (10s min interval), not at all 26 ticks.
        assert_eq!(commands.len(), 3);
        assert!(matches!(
            &commands[0].1,
            Command::Retrain { model, .. } if model == "io_model"
        ));
        assert!(
            engine.drain_commands().is_empty(),
            "drain empties the outbox"
        );
    }

    #[test]
    fn deprioritize_emits_commands_with_steps() {
        let mut engine = MonitorEngine::new();
        engine
            .install_str(
                "guardrail g { trigger: { TIMER(0, 10s) }, rule: { LOAD(x) > 0 }, action: { DEPRIORITIZE(heaviest) DEPRIORITIZE(victim, 7) } }",
            )
            .unwrap();
        engine.advance_to(Nanos::ZERO);
        let commands = engine.drain_commands();
        assert_eq!(commands.len(), 2);
        assert_eq!(
            commands[0].1,
            Command::Deprioritize {
                guardrail: "g".into(),
                target: "heaviest".into(),
                steps: 5
            }
        );
        assert_eq!(
            commands[1].1,
            Command::Deprioritize {
                guardrail: "g".into(),
                target: "victim".into(),
                steps: 7
            }
        );
    }

    #[test]
    fn replace_action_swaps_registry() {
        let mut engine = MonitorEngine::new();
        let registry = engine.registry();
        registry
            .register("io_policy", &["learned", "fallback"])
            .unwrap();
        engine
            .install_str(
                "guardrail g { trigger: { TIMER(0, 1s) }, rule: { LOAD(x) > 0 }, action: { REPLACE(io_policy, fallback) } }",
            )
            .unwrap();
        engine.advance_to(Nanos::ZERO);
        assert!(registry.is_active("io_policy", "fallback"));
        assert_eq!(registry.swap_count("io_policy"), 1);
    }

    #[test]
    fn replace_unknown_slot_reports_not_crashes() {
        let mut engine = MonitorEngine::new();
        engine
            .install_str(
                "guardrail g { trigger: { TIMER(0, 1s) }, rule: { LOAD(x) > 0 }, action: { REPLACE(ghost, fallback) } }",
            )
            .unwrap();
        engine.advance_to(Nanos::ZERO);
        assert!(reported(&engine, "REPLACE failed"));
    }

    #[test]
    fn overhead_accounts_accumulate() {
        let mut engine = MonitorEngine::new();
        engine.install_str(LISTING_2).unwrap();
        engine.store().save("false_submit_rate", 0.2);
        engine.advance_to(Nanos::from_secs(10));
        let reports = engine.overhead_reports();
        assert_eq!(reports.len(), 1);
        let account = reports[0].account;
        assert_eq!(account.evaluations, 11, "ticks at 0..=10s");
        assert!(account.rule_fuel > 0);
        assert!(account.action_fuel > 0, "SAVE operand charged");
        assert!(engine.total_modeled_overhead() > Nanos::ZERO);
    }

    #[test]
    fn uninstall_stops_evaluation_and_frees_the_name() {
        let mut engine = MonitorEngine::new();
        engine.install_str(LISTING_2).unwrap();
        engine.store().save("false_submit_rate", 0.5);
        engine.advance_to(Nanos::from_secs(2));
        let evaluations = engine.stats().evaluations;
        assert!(evaluations > 0);
        engine.uninstall("low-false-submit").unwrap();
        assert!(engine.monitor_names().is_empty());
        engine.advance_to(Nanos::from_secs(10));
        assert_eq!(engine.stats().evaluations, evaluations, "no further evals");
        // The name is reusable.
        engine.install_str(LISTING_2).unwrap();
        assert_eq!(engine.monitor_names(), vec!["low-false-submit".to_string()]);
        assert!(engine.uninstall("never-installed").is_err());
    }

    #[test]
    fn update_str_replaces_in_place_without_reboot() {
        let mut engine = MonitorEngine::new();
        engine.install_str(LISTING_2).unwrap();
        let store = engine.store();
        store.save("ml_enabled", 1.0);
        store.save("false_submit_rate", 0.08);
        engine.advance_to(Nanos::from_secs(1));
        assert!(!store.flag("ml_enabled"), "8% violates the 5% bound");

        // Relax the threshold to 10% at runtime.
        store.save("ml_enabled", 1.0);
        engine
            .update_str(
                "guardrail low-false-submit { trigger: { TIMER(0, 1s) }, rule: { LOAD(false_submit_rate) <= 0.10 }, action: { SAVE(ml_enabled, false) } }",
            )
            .unwrap();
        engine.advance_to(Nanos::from_secs(5));
        assert!(
            store.flag("ml_enabled"),
            "8% is fine under the relaxed bound"
        );
        assert_eq!(engine.monitor_names(), vec!["low-false-submit".to_string()]);

        // A compile error leaves the installed set untouched.
        assert!(engine.update_str("guardrail broken {").is_err());
        assert_eq!(engine.monitor_names(), vec!["low-false-submit".to_string()]);
    }

    #[test]
    fn watchdog_disables_wedged_monitor_and_reports() {
        let mut engine = MonitorEngine::new();
        engine.set_resilience(ResilienceConfig {
            watchdog: true,
            ..ResilienceConfig::default()
        });
        engine
            .install_str(
                "guardrail g { trigger: { TIMER(0, 1s) }, rule: { LOAD(x) < 0 }, action: { REPORT(wedged) } }",
            )
            .unwrap();
        // Starve the rule: every evaluation faults instead of completing.
        engine.set_rule_fuel_limit(Some(1));
        engine.advance_to(Nanos::from_secs(10));
        // Three faults trip the watchdog; the monitor then stops evaluating
        // instead of wedging forever.
        assert_eq!(engine.stats().rule_faults, 3);
        assert_eq!(engine.stats().watchdog_trips, 1);
        assert_eq!(engine.stats().evaluations, 3);
        assert!(engine.watchdog_tripped("g").unwrap());
        assert!(
            engine.violations().is_empty(),
            "faulted rules record no violations"
        );
        assert!(reported(&engine, "rule fault"));
        assert!(reported(&engine, "watchdog disabled monitor after 3"));
        // Manual re-enable clears the trip state.
        engine.set_rule_fuel_limit(None);
        engine.set_enabled("g", true).unwrap();
        assert!(!engine.watchdog_tripped("g").unwrap());
        engine.advance_to(Nanos::from_secs(12));
        assert!(engine.stats().evaluations > 3, "evaluations resumed");
    }

    #[test]
    fn starved_action_operand_is_skipped_not_fatal() {
        let mut engine = MonitorEngine::new();
        engine
            .install_str(
                "guardrail g { trigger: { TIMER(0, 1s) }, rule: { LOAD(x) <= 0.05 }, \
                 action: { SAVE(y, QUANTILE(lat, 0.99, 10s)) } }",
            )
            .unwrap();
        let store = engine.store();
        store.save("x", 1.0); // Rule violated: the action will fire.
        store.save("y", 7.0);
        // Rule (LOAD + PUSH + LE = 6 fuel) fits the budget; the SAVE operand
        // (QUANTILE = 16 fuel) does not, so the action must be skipped — not
        // write a bogus value, and not panic the engine.
        engine.set_rule_fuel_limit(Some(10));
        engine.advance_to(Nanos::from_secs(2));
        assert!(engine.stats().trips > 0, "the violation still trips");
        assert_eq!(store.load("y"), Some(7.0), "starved SAVE left y untouched");
        assert!(reported(&engine, "SAVE operand fault"));
        // With the budget lifted the action completes again.
        engine.set_rule_fuel_limit(None);
        engine.advance_to(Nanos::from_secs(4));
        assert_eq!(store.load("y"), Some(0.0), "empty quantile writes 0");
    }

    #[test]
    fn fail_closed_watchdog_fires_actions_on_the_way_down() {
        let mut engine = MonitorEngine::new();
        engine.set_resilience(ResilienceConfig {
            watchdog: true,
            ..ResilienceConfig::default()
        });
        engine.install_str(LISTING_2).unwrap();
        let store = engine.store();
        store.save("ml_enabled", 1.0);
        store.save("false_submit_rate", 0.01); // The rule itself would hold.
        engine.set_rule_fuel_limit(Some(1));
        engine.advance_to(Nanos::from_secs(5));
        // The check is broken, so fail-closed presumes violation: the model
        // is disabled once, then the monitor goes quiet, and stays quiet.
        assert_eq!(engine.stats().watchdog_trips, 1);
        assert!(!store.flag("ml_enabled"), "corrective action fired on trip");
        engine.set_rule_fuel_limit(None);
        engine.advance_to(Nanos::from_secs(60));
        assert_eq!(
            engine.stats().evaluations,
            3,
            "a trip lasts until set_enabled"
        );
        assert!(engine.watchdog_tripped("low-false-submit").unwrap());
    }

    #[test]
    fn clean_evaluation_resets_the_fault_streak() {
        let mut engine = MonitorEngine::new();
        engine.set_resilience(ResilienceConfig {
            watchdog: true,
            ..ResilienceConfig::default()
        });
        engine
            .install_str(
                "guardrail g { trigger: { TIMER(0, 1s) }, rule: { LOAD(x) >= 0 }, action: { REPORT(m) } }",
            )
            .unwrap();
        engine.set_rule_fuel_limit(Some(1));
        engine.advance_to(Nanos::from_secs(1)); // Two faults...
        engine.set_rule_fuel_limit(None);
        engine.advance_to(Nanos::from_secs(2)); // ...one clean evaluation...
        engine.set_rule_fuel_limit(Some(1));
        engine.advance_to(Nanos::from_secs(4)); // ...two more faults.
        assert_eq!(engine.stats().rule_faults, 4);
        assert_eq!(engine.stats().watchdog_trips, 0, "streak never reached 3");
        assert!(!engine.watchdog_tripped("g").unwrap());
    }

    #[test]
    fn nan_clamp_bound_is_a_false_rule_not_a_fault() {
        let mut engine = MonitorEngine::new();
        engine
            .install_str(
                "guardrail g { trigger: { TIMER(0, 1s) }, rule: { CLAMP(LOAD(x), LOAD(a) * 10 - LOAD(a) * 10, 5) < 1 }, action: { REPORT(m) } }",
            )
            .unwrap();
        engine.store().save("a", 1e308);
        engine.advance_to(Nanos::from_secs(3));
        let stats = engine.stats();
        assert_eq!(stats.evaluations, 4);
        assert_eq!(
            stats.rule_faults, 0,
            "the VM evaluated CLAMP without panicking"
        );
        assert_eq!(stats.violations, 4, "CLAMP(.., NaN, ..) < 1 is false");
    }

    #[test]
    fn rejected_retrains_retry_with_backoff() {
        let mut engine = MonitorEngine::new();
        engine.set_retrain_limiter(RetrainLimiter::new(
            Nanos::from_secs(10),
            100,
            Nanos::from_secs(1000),
        ));
        engine.set_resilience(ResilienceConfig {
            retrain_retry: true,
            ..ResilienceConfig::default()
        });
        engine
            .install_str(
                "guardrail g { trigger: { TIMER(0, 1s, 1s) }, rule: { LOAD(x) > 0 }, action: { RETRAIN(io_model) } }",
            )
            .unwrap();
        // t=0 accepted; t=1 rejected (too soon) and queued for retry.
        engine.advance_to(Nanos::from_secs(2));
        assert_eq!(engine.drain_commands().len(), 1);
        assert_eq!(engine.pending_retrains(), 1);
        // The retry keeps backing off until the limiter accepts at t=12.
        engine.advance_to(Nanos::from_secs(12));
        let commands = engine.drain_commands();
        assert_eq!(commands.len(), 1, "the retry eventually lands");
        assert!(matches!(
            &commands[0].1,
            Command::Retrain { model, .. } if model == "io_model"
        ));
        assert_eq!(engine.pending_retrains(), 0);
        assert!(engine.stats().retrain_retries >= 1);
    }

    #[test]
    fn retrain_retries_give_up_past_the_attempt_budget() {
        let mut engine = MonitorEngine::new();
        // Budget of 1 in a huge window: the second request can never land.
        engine.set_retrain_limiter(RetrainLimiter::new(
            Nanos::from_secs(1),
            1,
            Nanos::from_secs(100_000),
        ));
        engine.set_resilience(ResilienceConfig {
            retrain_retry: true,
            ..ResilienceConfig::default()
        });
        engine
            .install_str(
                "guardrail g { trigger: { TIMER(0, 1s, 1s) }, rule: { LOAD(x) > 0 }, action: { RETRAIN(m) } }",
            )
            .unwrap();
        // Retries are serviced as time advances; each step rejects again.
        for t in [10, 20, 30, 40, 50] {
            engine.advance_to(Nanos::from_secs(t));
        }
        assert_eq!(engine.drain_commands().len(), 1, "only the first lands");
        assert_eq!(engine.pending_retrains(), 0, "gave up, not queued forever");
        assert_eq!(engine.stats().retrain_retries, 4);
        assert!(reported(&engine, "gave up after 4 attempts"));
    }

    #[test]
    fn replace_falls_back_to_default_variant_when_hardened() {
        let spec = "guardrail g { trigger: { TIMER(0, 1s) }, rule: { LOAD(x) > 0 }, action: { REPLACE(io_policy, experimental) } }";
        // Unhardened: the missing variant is only a log line.
        let mut engine = MonitorEngine::new();
        engine
            .registry()
            .register("io_policy", &["learned", "fallback"])
            .unwrap();
        engine.install_str(spec).unwrap();
        engine.advance_to(Nanos::ZERO);
        assert!(engine.registry().is_active("io_policy", "learned"));
        assert!(reported(&engine, "REPLACE failed"));
        // Hardened: it degrades to the slot's safe default.
        let mut engine = MonitorEngine::new();
        engine.set_resilience(ResilienceConfig {
            replace_fallback: true,
            ..ResilienceConfig::default()
        });
        engine
            .registry()
            .register("io_policy", &["learned", "fallback"])
            .unwrap();
        engine.install_str(spec).unwrap();
        engine.advance_to(Nanos::ZERO);
        assert!(engine.registry().is_active("io_policy", "fallback"));
        assert!(reported(&engine, "fell back to 'fallback'"));
    }

    #[test]
    fn uninstall_with_violations_pending_preserves_history() {
        let mut engine = MonitorEngine::new();
        engine.install_str(LISTING_2).unwrap();
        engine
            .install_str(
                "guardrail dep { trigger: { TIMER(0, 1s) }, rule: { LOAD(x) > 0 }, action: { DEPRIORITIZE(t, 3) } }",
            )
            .unwrap();
        engine.store().save("false_submit_rate", 0.5);
        engine.advance_to(Nanos::from_secs(2));
        let violations_before = engine.violations().len();
        assert!(violations_before >= 4, "both monitors violated repeatedly");
        // Uninstall with violations recorded and commands still undrained.
        engine.uninstall("dep").unwrap();
        assert_eq!(
            engine.violations().len(),
            violations_before,
            "recorded violations survive uninstall"
        );
        let commands = engine.drain_commands();
        assert!(
            commands.iter().any(
                |(_, c)| matches!(c, Command::Deprioritize { guardrail, .. } if guardrail == "dep")
            ),
            "pending commands from the uninstalled monitor still drain"
        );
        // Its account leaves the per-monitor reports but stays counted in
        // the engine-wide figures.
        assert!(engine
            .overhead_reports()
            .iter()
            .all(|r| r.guardrail != "dep"));
        let live: u64 = engine
            .overhead_reports()
            .iter()
            .map(|r| r.account.evaluations)
            .sum();
        assert_eq!(
            engine.stats().evaluations,
            live + 3,
            "dep ticked at 0, 1, 2"
        );
    }

    #[test]
    fn update_str_mid_cooldown_rearms_hysteresis() {
        let spec = "guardrail g { trigger: { TIMER(0, 1s) }, rule: { LOAD(x) > 0 }, action: { SAVE(fired, LOAD(fired) + 1) } }";
        let mut engine = MonitorEngine::new();
        engine.install_str(spec).unwrap();
        engine
            .set_hysteresis("g", Hysteresis::cooldown(Nanos::from_secs(100)))
            .unwrap();
        engine.advance_to(Nanos::from_secs(2));
        // First trip fires; the cooldown then suppresses ticks 1 and 2.
        assert_eq!(engine.store().load("fired"), Some(1.0));
        assert_eq!(engine.suppressed("g").unwrap(), 2);
        // Updating mid-cooldown installs a fresh monitor: default hysteresis,
        // cleared cooldown state — the replacement starts ticking at `now`
        // (t=2) and fires on both of its ticks where the old one was muted.
        engine.update_str(spec).unwrap();
        engine.advance_to(Nanos::from_secs(3));
        assert_eq!(engine.store().load("fired"), Some(3.0), "cooldown re-armed");
        assert_eq!(
            engine.suppressed("g").unwrap(),
            0,
            "suppression counter belongs to the new instance"
        );
        assert_eq!(engine.monitor_names(), vec!["g".to_string()]);
    }

    #[test]
    fn checkpoint_restore_round_trips_decisions_and_hysteresis() {
        let spec = "guardrail g { trigger: { TIMER(0, 1s) }, rule: { LOAD(x) > 0 }, action: { REPLACE(io_policy, fallback) SAVE(fired, LOAD(fired) + 1) } }";
        let mut engine = MonitorEngine::new();
        engine
            .registry()
            .register("io_policy", &["learned", "fallback"])
            .unwrap();
        engine.install_str(spec).unwrap();
        engine
            .set_hysteresis("g", Hysteresis::cooldown(Nanos::from_secs(100)))
            .unwrap();
        engine.advance_to(Nanos::from_secs(3));
        // Fired once at t=0 (REPLACE), then suppressed by the cooldown.
        assert!(engine.registry().is_active("io_policy", "fallback"));
        assert_eq!(engine.store().load("fired"), Some(1.0));
        assert_eq!(engine.suppressed("g").unwrap(), 3);
        let checkpoint = engine.checkpoint();
        let stats_before = engine.stats();

        // "Restart": fresh engine over fresh parts, same specs, then restore.
        let mut restarted = MonitorEngine::new();
        restarted
            .registry()
            .register("io_policy", &["learned", "fallback"])
            .unwrap();
        restarted.install_str(spec).unwrap();
        restarted
            .set_hysteresis("g", Hysteresis::cooldown(Nanos::from_secs(100)))
            .unwrap();
        restarted.restore(&checkpoint).unwrap();
        // The REPLACE decision survived even though the fresh registry
        // booted with "learned" active.
        assert!(restarted.registry().is_active("io_policy", "fallback"));
        assert_eq!(restarted.now(), Nanos::from_secs(3));
        assert_eq!(restarted.stats(), stats_before);
        assert_eq!(restarted.suppressed("g").unwrap(), 3);
        // The cooldown phase survived too: ticks keep being suppressed, and
        // no tick is replayed (the t=3 tick ran pre-crash).
        restarted.store().save("fired", 0.0);
        restarted.advance_to(Nanos::from_secs(5));
        assert_eq!(
            restarted.store().load("fired"),
            Some(0.0),
            "still cooling down"
        );
        assert_eq!(restarted.suppressed("g").unwrap(), 5);
        assert_eq!(
            restarted.stats().evaluations,
            stats_before.evaluations + 2,
            "exactly the t=4 and t=5 ticks ran after restore"
        );
    }

    #[test]
    fn restore_preserves_disabled_and_watchdog_state() {
        let spec = "guardrail g { trigger: { TIMER(0, 1s) }, rule: { LOAD(x) < 0 }, action: { REPORT(m) } }";
        let mut engine = MonitorEngine::new();
        engine.set_resilience(ResilienceConfig {
            watchdog: true,
            ..ResilienceConfig::default()
        });
        engine.install_str(spec).unwrap();
        engine.set_rule_fuel_limit(Some(1));
        engine.advance_to(Nanos::from_secs(2)); // Three faults: watchdog trips.
        assert!(engine.watchdog_tripped("g").unwrap());
        let evaluations = engine.stats().evaluations;
        let checkpoint = engine.checkpoint();

        let mut restarted = MonitorEngine::new();
        restarted.install_str(spec).unwrap();
        restarted.restore(&checkpoint).unwrap();
        assert!(
            restarted.watchdog_tripped("g").unwrap(),
            "a watchdog-disabled monitor stays disabled across the restart"
        );
        restarted.advance_to(Nanos::from_secs(5));
        assert_eq!(
            restarted.stats().evaluations,
            evaluations,
            "disabled monitor does not evaluate after restore"
        );
    }

    #[test]
    fn restore_skips_unknown_monitors_and_slots() {
        let mut engine = MonitorEngine::new();
        engine.registry().register("s", &["a", "b"]).unwrap();
        engine.install_str(LISTING_2).unwrap();
        engine.advance_to(Nanos::from_secs(2));
        let evaluations = engine.stats().evaluations;
        let checkpoint = engine.checkpoint();
        // The restarted deployment has neither the slot nor the guardrail:
        // restore is a clean no-op for both.
        let mut restarted = MonitorEngine::new();
        restarted
            .install_str("guardrail other { trigger: { TIMER(0, 1s) }, rule: { LOAD(x) >= 0 }, action: { REPORT(m) } }")
            .unwrap();
        restarted.restore(&checkpoint).unwrap();
        assert_eq!(restarted.now(), Nanos::from_secs(2));
        // The surviving monitor's timers fast-forwarded past the checkpoint.
        restarted.advance_to(Nanos::from_secs(3));
        assert_eq!(restarted.stats().evaluations, evaluations + 1);
    }

    #[test]
    fn apply_runtime_sets_resilience_and_quarantine() {
        let mut engine = MonitorEngine::new();
        assert!(engine.store().quarantine_enabled(), "store default");
        engine.apply_runtime(&RuntimeConfig::seed());
        assert!(!engine.store().quarantine_enabled());
        assert_eq!(engine.resilience(), ResilienceConfig::default());
        engine.apply_runtime(&RuntimeConfig::hardened());
        assert!(engine.store().quarantine_enabled());
        assert_eq!(engine.resilience(), ResilienceConfig::hardened());
    }

    #[test]
    fn telemetry_counters_and_the_stream_follow_the_engine() {
        let mut engine = MonitorEngine::new();
        engine.set_telemetry(Telemetry::new());
        engine.install_str(LISTING_2).unwrap();
        let store = engine.store();
        store.save("false_submit_rate", 0.2); // Always violating.
        engine.advance_to(Nanos::from_secs(2));
        let snap = engine.telemetry_snapshot();
        assert_eq!(snap.evaluations, 3, "ticks at 0, 1, 2");
        assert_eq!(snap.violations, 3);
        assert_eq!(snap.trips, 3);
        assert!(snap.rule_fuel > 0);
        assert!(snap.action_fuel > 0, "SAVE operand fuel counted");
        assert_eq!(
            snap.actions[ActionKind::Save as usize],
            3,
            "SAVE fired each tick"
        );
        // Each violation and each SAVE is one event; evaluations are none.
        let kinds: Vec<&EventKind> = engine.events().iter().map(|e| &e.kind).collect();
        assert_eq!(kinds.len(), 6, "violations and actions; no eval spans");
        for pair in kinds.chunks(2) {
            assert!(matches!(pair[0], EventKind::Violation { .. }));
            let save = EventKind::Action {
                kind: ActionKind::Save,
                text: None,
            };
            assert_eq!(pair[1], &save);
        }
        // An engine without telemetry counts and records the same, and the
        // two engines' different wall times enter neither.
        let mut plain = MonitorEngine::new();
        plain.install_str(LISTING_2).unwrap();
        plain.store().save("false_submit_rate", 0.2);
        plain.advance_to(Nanos::from_secs(2));
        assert_eq!(plain.telemetry_snapshot(), snap);
        assert_eq!(
            plain.events().export_json_lines(),
            engine.events().export_json_lines()
        );
        // Checkpoint and restore record their own engine events.
        let checkpoint = engine.checkpoint();
        engine.restore(&checkpoint).unwrap();
        let tail: Vec<(Option<&str>, &EventKind)> = engine
            .events()
            .iter()
            .skip(6)
            .map(|e| (e.guardrail.as_deref(), &e.kind))
            .collect();
        assert_eq!(
            tail,
            [(None, &EventKind::Checkpoint), (None, &EventKind::Restart)]
        );
    }

    #[test]
    fn attribution_survives_update_str() {
        let mut engine = MonitorEngine::new();
        engine
            .install_str(
                "guardrail a { trigger: { FUNCTION(io_submit) }, rule: { ARG(0) < 1 }, action: { RECORD(a_hits, 1) } }
                 guardrail b { trigger: { FUNCTION(io_submit) }, rule: { ARG(0) >= 0 }, action: { RECORD(b_hits, 1) } }",
            )
            .unwrap();
        engine.on_function("io_submit", Nanos::from_micros(1), &[5.0]);
        // Updating `a` reinstalls it behind the bystander: the monitors
        // are renumbered, the decision already recorded is not.
        engine
            .update_str(
                "guardrail a { trigger: { FUNCTION(io_submit) }, rule: { ARG(0) < 10 }, action: { RECORD(a_hits, 1) } }",
            )
            .unwrap();
        assert_eq!(engine.monitor_names(), ["b", "a"]);
        let decision: Vec<&Event> = engine.events().iter().collect();
        assert_eq!(decision.len(), 2, "a's violation and its RECORD");
        assert!(matches!(decision[0].kind, EventKind::Violation { .. }));
        for event in decision {
            assert_eq!(event.guardrail.as_deref(), Some("a"), "{event:?}");
        }
        let violations = engine.violations();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].guardrail, "a");
        assert_eq!(violations[0].rule_source, "ARG(0) < 1");
    }

    #[test]
    fn stats_are_the_sum_of_the_accounts_and_survive_restore() {
        let mut engine = MonitorEngine::new();
        engine.install_str(LISTING_2).unwrap();
        engine
            .install_str(
                "guardrail dep { trigger: { TIMER(0, 1s) }, rule: { LOAD(x) > 0 }, action: { DEPRIORITIZE(t, 3) } }",
            )
            .unwrap();
        engine.store().save("false_submit_rate", 0.5);
        engine.advance_to(Nanos::from_secs(2));
        engine.uninstall("dep").unwrap();
        engine.advance_to(Nanos::from_secs(3));
        let mut sum = engine.retired;
        for report in engine.overhead_reports() {
            sum.merge(&report.account);
        }
        assert_eq!(engine.telemetry_snapshot(), sum, "retired included");
        let stats = engine.stats();
        assert_eq!(
            stats,
            EngineStats {
                evaluations: sum.evaluations,
                violations: sum.violations,
                trips: sum.trips,
                commands_emitted: sum.commands_emitted,
                rule_faults: sum.rule_faults,
                watchdog_trips: sum.watchdog_trips,
                retrain_retries: sum.retrain_retries,
                eval_wall_ns: 0,
            },
            "no telemetry, no wall time"
        );
        assert_eq!((stats.evaluations, stats.commands_emitted), (7, 3));
        // A restore into an engine that already counted continues from the
        // checkpoint, not from the sum of both histories.
        let checkpoint = engine.checkpoint();
        let mut used = MonitorEngine::new();
        used.install_str(LISTING_2).unwrap();
        used.advance_to(Nanos::from_secs(1));
        used.restore(&checkpoint).unwrap();
        assert_eq!(used.telemetry_snapshot(), sum);
        assert_eq!(used.stats(), stats);
        used.advance_to(Nanos::from_secs(4));
        assert_eq!(used.stats().evaluations, sum.evaluations + 1);
    }

    /// A command the full outbox drops is not counted as emitted: it is a
    /// notice naming the action and the capacity instead, so
    /// `commands_emitted` is what the embedder can drain.
    #[test]
    fn a_full_outbox_drops_commands_with_a_notice_and_does_not_count_them() {
        let mut engine = MonitorEngine::new();
        engine
            .install_str(
                "guardrail hog { trigger: { FUNCTION(tick) }, rule: { ARG(0) < 1 }, action: { DEPRIORITIZE(t, 3) } }",
            )
            .unwrap();
        for i in 0..1030 {
            engine.on_function("tick", Nanos::from_micros(i), &[5.0]);
        }
        assert_eq!(engine.stats().commands_emitted, 1024);
        let notices: Vec<&str> = engine
            .events()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Notice(text) => Some(text.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(
            notices,
            ["DEPRIORITIZE command dropped: the outbox is full (1024 commands)"; 6]
        );
        assert_eq!(engine.drain_commands().len(), 1024);
    }

    #[test]
    fn publish_telemetry_exposes_loadable_reserved_keys() {
        let mut engine = MonitorEngine::new();
        engine.set_telemetry(Telemetry::new());
        engine.install_str(LISTING_2).unwrap();
        let store = engine.store();
        store.save("false_submit_rate", 0.2);
        engine.advance_to(Nanos::from_secs(2));
        engine.publish_telemetry();
        let mut published: Vec<String> = store
            .keys()
            .into_iter()
            .filter(|k| k.starts_with(RESERVED_PREFIX))
            .collect();
        published.sort();
        let mut expected: Vec<String> = "actions/deprioritize actions/record actions/replace \
             actions/report actions/retrain actions/save engine/action_fuel engine/batch_events \
             engine/batches events/overwritten events/recorded engine/eval_wall_ns_hist/count \
             engine/eval_wall_ns_hist/p50 engine/eval_wall_ns_hist/p95 \
             engine/eval_wall_ns_hist/p99 engine/eval_wall_ns_hist/sum engine/evaluations \
             engine/rule_fuel engine/trips engine/violations \
             guardrail/low-false-submit/action_fuel guardrail/low-false-submit/evaluations \
             guardrail/low-false-submit/modeled_ns guardrail/low-false-submit/overhead_fraction \
             guardrail/low-false-submit/rule_fuel store/saves"
            .split_whitespace()
            .map(|k| format!("{RESERVED_PREFIX}{k}"))
            .collect();
        expected.sort();
        assert_eq!(published, expected);
        assert!(
            published.iter().all(|k| !k.contains("/wal/")),
            "no WAL keys"
        );
        assert_eq!(store.load("__telemetry/engine/evaluations"), Some(3.0));
        assert_eq!(store.load("__telemetry/actions/save"), Some(3.0));
        assert_eq!(store.load("__telemetry/events/recorded"), Some(6.0));
        assert_eq!(store.load("__telemetry/events/overwritten"), Some(0.0));
        assert_eq!(
            store.load("__telemetry/store/saves"),
            Some(4.0),
            "one host write and three SAVE actions"
        );
        assert_eq!(
            store.load("__telemetry/guardrail/low-false-submit/evaluations"),
            Some(3.0)
        );
        let fraction = store
            .load("__telemetry/guardrail/low-false-submit/overhead_fraction")
            .unwrap();
        assert!(fraction > 0.0 && fraction < 1.0, "fraction = {fraction}");
        // A guardrail can LOAD the published metric (string key syntax).
        engine
            .install_str(
                r#"guardrail meta {
                    trigger: { TIMER(2s, 1s) },
                    rule: { LOAD("__telemetry/engine/evaluations") < 3 },
                    action: { SAVE(meta_fired, 1) }
                }"#,
            )
            .unwrap();
        engine.advance_to(Nanos::from_secs(2));
        assert_eq!(store.load("meta_fired"), Some(1.0), "meta-rule saw 3 >= 3");
    }

    #[test]
    fn monitor_installed_late_starts_at_now() {
        let mut engine = MonitorEngine::new();
        engine.advance_to(Nanos::from_secs(100));
        engine
            .install_str(
                "guardrail g { trigger: { TIMER(0, 1s) }, rule: { LOAD(x) > 0 }, action: { RECORD(t, 1) } }",
            )
            .unwrap();
        engine.advance_to(Nanos::from_secs(102));
        // Fires at 100, 101, 102 — not 103 times from t=0.
        assert_eq!(engine.stats().evaluations, 3);
        assert_eq!(engine.monitor_names(), vec!["g".to_string()]);
    }

    #[test]
    fn delta_state_survives_restore() {
        const SPEC: &str = "guardrail hb { trigger: { TIMER(0, 1s) }, rule: { DELTA(heartbeat) != 0 }, action: { REPORT(stale) } }";
        // Ten ticks with the heartbeat bumped before each. With a restart,
        // the engine is checkpointed after that tick and replaced by a
        // fresh one over the same store.
        let violations = |restart_after: Option<u64>| {
            let mut engine = MonitorEngine::new();
            engine.install_str(SPEC).unwrap();
            for tick in 0..10 {
                engine.store().save("heartbeat", tick as f64 + 1.0);
                engine.advance_to(Nanos::from_secs(tick));
                if restart_after == Some(tick) {
                    let checkpoint = engine.checkpoint();
                    let decoded = EngineCheckpoint::decode(&checkpoint.encode()).unwrap();
                    assert_eq!(decoded, checkpoint, "the encoding is lossless");
                    let mut restarted =
                        MonitorEngine::with_parts(engine.store(), engine.registry());
                    restarted.install_str(SPEC).unwrap();
                    restarted.restore(&decoded).unwrap();
                    engine = restarted;
                }
            }
            engine.stats().violations
        };
        assert_eq!(
            violations(None),
            1,
            "only the first read has no previous value"
        );
        assert_eq!(
            violations(Some(4)),
            1,
            "no false stale alarm after the restore"
        );
    }

    #[test]
    fn late_installed_timer_keeps_its_phase_across_restore() {
        const SPEC: &str =
            "guardrail g { trigger: { TIMER(0, 1s) }, rule: { LOAD(x) > 0 }, action: { REPORT(m) } }";
        // Installed at 0.5 s, the monitor ticks on the half second; the rule
        // always fails, so every tick records a violation.
        let ticks_after_3s = |restart: bool| -> Vec<Nanos> {
            let mut engine = MonitorEngine::new();
            engine.advance_to(Nanos::from_millis(500));
            engine.install_str(SPEC).unwrap();
            engine.advance_to(Nanos::from_secs(3));
            if restart {
                let checkpoint = engine.checkpoint();
                engine = MonitorEngine::new();
                engine.install_str(SPEC).unwrap();
                engine.restore(&checkpoint).unwrap();
            }
            let seen = engine.violations().len();
            engine.advance_to(Nanos::from_secs(6));
            engine.violations()[seen..].iter().map(|v| v.at).collect()
        };
        let expected = [3_500, 4_500, 5_500].map(Nanos::from_millis).to_vec();
        assert_eq!(ticks_after_3s(false), expected);
        assert_eq!(ticks_after_3s(true), expected);
    }

    #[test]
    fn repeated_updates_keep_one_monitor() {
        let function_spec =
            "guardrail f { trigger: { FUNCTION(h) }, rule: { ARG(0) < 1 }, action: { REPORT(m) } }";
        let mut engine = MonitorEngine::new();
        for _ in 0..100 {
            engine.update_str(LISTING_2).unwrap();
            engine.update_str(function_spec).unwrap();
        }
        assert_eq!(engine.monitors.len(), 2);
        assert_eq!(engine.hooks["h"], [1]);
        engine.on_function("h", Nanos::ZERO, &[5.0]);
        assert_eq!(engine.stats().violations, 1);
    }

    #[test]
    fn uninstall_reindexes_the_dispatch_index() {
        let mut engine = MonitorEngine::new();
        for name in ["a", "b", "c"] {
            engine
                .install_str(&format!(
                    "guardrail {name} {{ trigger: {{ FUNCTION(h) }}, rule: {{ ARG(0) < 1 }}, action: {{ RECORD({name}_hits, 1) }} }}"
                ))
                .unwrap();
        }
        engine.on_function("h", Nanos::ZERO, &[5.0]);
        engine.uninstall("a").unwrap();
        engine.on_function("h", Nanos::from_secs(1), &[5.0]);
        let evaluations: Vec<(String, u64)> = engine
            .overhead_reports()
            .into_iter()
            .map(|r| (r.guardrail, r.account.evaluations))
            .collect();
        assert_eq!(evaluations, [("b".to_string(), 2), ("c".to_string(), 2)]);
        assert_eq!(
            engine.stats().evaluations,
            5,
            "a's one evaluation is retired"
        );
        assert!(engine.watchdog_tripped("a").is_err());
    }

    #[test]
    fn changed_spec_restores_with_fresh_delta_state() {
        let spec = |bound: u32| {
            format!("guardrail g {{ trigger: {{ TIMER(0, 1s) }}, rule: {{ DELTA(x) < {bound} }}, action: {{ REPORT(jump) }} }}")
        };
        let mut engine = MonitorEngine::new();
        engine.install_str(&spec(3)).unwrap();
        engine.store().save("x", 1.0);
        engine.advance_to(Nanos::from_secs(2));
        let stats = engine.stats();
        let checkpoint = engine.checkpoint();
        engine.store().save("x", 6.0);
        // The same spec restores its DELTA state and sees the jump from 1
        // to 6 on its next tick.
        let restarted = |source: &str| {
            let mut restarted = MonitorEngine::with_parts(engine.store(), engine.registry());
            restarted.install_str(source).unwrap();
            restarted.restore(&checkpoint).unwrap();
            assert_eq!(restarted.stats(), stats);
            restarted.advance_to(Nanos::from_secs(3));
            restarted
        };
        let same = restarted(&spec(3));
        assert_eq!(same.stats().violations, 1);
        // A changed spec is a different monitor: its predecessor's account
        // is retired, and its DELTA state starts fresh (reads 0).
        let changed = restarted(&spec(4));
        assert_eq!(changed.overhead_reports()[0].account.evaluations, 1);
        assert_eq!(changed.stats().evaluations, stats.evaluations + 1);
        assert_eq!(changed.stats().violations, 0);
    }

    #[test]
    fn install_str_is_all_or_nothing() {
        let guardrail = |name: &str| {
            format!("guardrail {name} {{ trigger: {{ TIMER(0, 1s) }}, rule: {{ LOAD(x) >= 0 }}, action: {{ REPORT(m) }} }}")
        };
        let mut engine = MonitorEngine::new();
        engine.install_str(&guardrail("b")).unwrap();
        let both = format!("{} {}", guardrail("a"), guardrail("b"));
        assert!(engine.install_str(&both).is_err());
        assert_eq!(engine.monitor_names(), ["b"]);
    }

    #[test]
    fn failed_restore_leaves_the_engine_unchanged() {
        let spec = "guardrail g { trigger: { TIMER(0, 1s) }, rule: { LOAD(x) > 0 }, action: { REPLACE(a, safe) REPLACE(b, extra) } }";
        let boot = |b_variants: &[&str]| {
            let mut engine = MonitorEngine::new();
            let registry = engine.registry();
            registry.register("a", &["learned", "safe"]).unwrap();
            registry.register("b", b_variants).unwrap();
            engine.install_str(spec).unwrap();
            engine
                .set_hysteresis("g", Hysteresis::cooldown(Nanos::from_secs(100)))
                .unwrap();
            engine
        };
        let mut engine = boot(&["learned", "extra"]);
        engine.advance_to(Nanos::from_secs(3));
        assert_eq!(engine.suppressed("g").unwrap(), 3);
        let checkpoint = engine.checkpoint();
        // The restarted registry lacks slot b's checkpointed variant.
        let mut restarted = boot(&["learned"]);
        let before = restarted.checkpoint();
        assert!(restarted.restore(&checkpoint).is_err());
        assert_eq!(restarted.checkpoint(), before);
        assert!(restarted.registry().is_active("a", "learned"));
        assert_eq!(restarted.now(), Nanos::ZERO);
        assert_eq!(restarted.suppressed("g").unwrap(), 0);
    }

    /// Checkpoints whose checksums hold but whose counts no run reaches:
    /// an account's evaluations at `u64::MAX`, a pending retry's attempt at
    /// `u32::MAX`, a fault streak at `u32::MAX`, and rule and action fuel at
    /// the largest count a checkpoint may hold. Each is rejected whole, or
    /// restores into the seed and the hardened runtime, which then run 20 s
    /// of ticks, retrains and rule faults without a count overflowing.
    #[test]
    fn a_checkpoint_at_the_counts_limits_is_rejected_or_runs_without_overflow() {
        const SPECS: &str = r#"
            guardrail stale-model {
                trigger: { TIMER(0, 100ms) },
                rule: { LOAD(healthy) > 0 },
                action: { RETRAIN(io_model) }
            }
            guardrail slow-rule {
                trigger: { TIMER(0, 100ms) },
                rule: { AVG(lat, 1s) < 60 },
                action: { REPORT(slow) }
            }
        "#;
        let boot = |resilience: ResilienceConfig| {
            let mut engine = MonitorEngine::new();
            engine.set_resilience(resilience);
            engine.install_str(SPECS).unwrap();
            // Fuel for `stale-model`'s rule, which violates and retrains,
            // but not for `slow-rule`'s windowed aggregate, which faults.
            engine.set_rule_fuel_limit(Some(10));
            engine
        };
        let mut engine = boot(ResilienceConfig::default());
        engine.advance_to(Nanos::from_secs(1));
        let base = engine.checkpoint();
        let now = base.now;
        type Edit = fn(&mut EngineCheckpoint);
        let edits: [Edit; 4] = [
            |cp| cp.monitors[0].2.account.evaluations = u64::MAX,
            // Due after the first post-restore tick's RETRAIN, so the
            // limiter rejects it.
            |cp| {
                cp.monitors[0].2.retrains.push(PendingRetrain {
                    model: "io_model".to_string(),
                    attempt: u32::MAX,
                    next_attempt: cp.now + Nanos::from_millis(150),
                })
            },
            |cp| cp.monitors[1].2.consecutive_faults = u32::MAX,
            |cp| {
                let account = &mut cp.monitors[0].2.account;
                account.rule_fuel = u64::MAX >> 1;
                account.action_fuel = u64::MAX >> 1;
            },
        ];
        for edit in edits {
            let mut cp = base.clone();
            edit(&mut cp);
            let Ok(decoded) = EngineCheckpoint::decode(&cp.encode()) else {
                continue;
            };
            for resilience in [ResilienceConfig::default(), ResilienceConfig::hardened()] {
                let mut restarted = boot(resilience);
                restarted.restore(&decoded).unwrap();
                restarted.advance_to(now + Nanos::from_secs(20));
                let after = restarted.checkpoint();
                assert!(
                    after.monitors[0].2.account.evaluations > cp.monitors[0].2.account.evaluations
                );
                assert!(
                    after.monitors[1].2.account.rule_faults > cp.monitors[1].2.account.rule_faults
                );
                assert!(
                    after.monitors[1].2.consecutive_faults >= cp.monitors[1].2.consecutive_faults
                );
                assert!(restarted.total_modeled_overhead() >= cp.monitors[0].2.account.modeled());
            }
        }
    }

    #[test]
    fn installing_binds_slots_without_creating_entries() {
        use crate::store::durable::{MemBackend, PersistBackend, Region};
        use crate::store::snapshot::Snapshot;
        let backend = Arc::new(MemBackend::new());
        let medium: Arc<dyn PersistBackend> = backend.clone();
        let (durable, _) =
            crate::DurableStore::open(medium, crate::DurabilityConfig::default()).unwrap();
        let store = durable.store();
        let mut engine =
            MonitorEngine::with_parts(Arc::clone(&store), Arc::new(PolicyRegistry::new()));
        engine
            .install_str(
                r#"guardrail g {
                    trigger: { TIMER(0, 1s) },
                    rule: {
                        LOAD(rate) <= 0.05
                        AVG(lat, 10s) < 100
                        DELTA(errs) == 0
                    },
                    action: {
                        REPORT("rate high", rate, seen)
                        SAVE(ml_enabled, LOAD(fallback))
                        RECORD(trips, EWMA(smoothed))
                    }
                }"#,
            )
            .unwrap();
        // Every key above is now bound to a slot, yet nothing was written.
        assert!(store.keys().is_empty(), "keys: {:?}", store.keys());
        assert_eq!(store.len(), 0);
        assert!(store.scalars().is_empty());
        assert_eq!(durable.seq(), 0, "interning journals nothing");
        durable.compact().unwrap();
        let snapshot = Snapshot::decode(&backend.load(Region::Snapshot).unwrap()).unwrap();
        assert!(snapshot.entries.is_empty());
        // The bound slots are the store's: a string-API write is what the
        // monitor reads, and its actions write where the string API looks.
        store.save("rate", 0.5);
        engine.advance_to(Nanos::ZERO);
        assert_eq!(engine.stats().violations, 1);
        assert_eq!(store.load("ml_enabled"), Some(0.0));
        assert_eq!(store.keys(), ["ml_enabled", "rate", "trips"]);
        let report = engine.reports().next().unwrap();
        assert_eq!(report.text(), Some("rate high rate=0.5 seen=0"));
    }
}
