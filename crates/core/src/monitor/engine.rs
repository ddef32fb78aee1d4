//! The monitor engine: trigger scheduling, evaluation, and action dispatch.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use simkernel::Nanos;

use crate::action::report::ReportSink;
use crate::action::retrain::RetrainLimiter;
use crate::action::{Command, CommandOutbox};
use crate::compile::ir::Program;
use crate::compile::{compile_str, CompiledAction, CompiledGuardrail};
use crate::error::{GuardrailError, Result};
use crate::monitor::checkpoint::{EngineCheckpoint, MonitorCheckpoint};
use crate::monitor::hysteresis::{Hysteresis, HysteresisState};
use crate::monitor::overhead::{OverheadAccount, OverheadReport};
use crate::monitor::resilience::{FailMode, ResilienceConfig, RuntimeConfig};
use crate::monitor::violation::{TriggerKind, Violation, ViolationLog};
use crate::policy::PolicyRegistry;
use crate::store::fxhash::FxHashMap;
use crate::store::{FeatureStore, Slot};
use crate::telemetry::{
    ActionKind, Telemetry, TelemetryDelta, TraceKind, NO_MONITOR, RESERVED_PREFIX,
};
use crate::vm::{DeltaState, EvalCtx, Vm};

/// An opaque handle to an installed monitor.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MonitorId(usize);

/// Aggregate engine statistics.
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
    /// Rule evaluations aborted by a fault (fuel exhaustion or panic).
    pub rule_faults: u64,
    /// Monitors auto-disabled by the watchdog.
    pub watchdog_trips: u64,
    /// `RETRAIN` retry attempts serviced (successful or not).
    pub retrain_retries: u64,
    /// Cumulative measured wall time spent in rule evaluation, in
    /// nanoseconds (the engine-wide P5 figure; per-monitor splits live in
    /// [`OverheadAccount`] via [`MonitorEngine::overhead_reports`]).
    pub eval_wall_ns: u64,
}

impl EngineStats {
    /// Mean measured wall time per rule-set evaluation, in nanoseconds.
    pub fn mean_eval_ns(&self) -> f64 {
        if self.evaluations == 0 {
            0.0
        } else {
            self.eval_wall_ns as f64 / self.evaluations as f64
        }
    }
}

/// One tracepoint firing, as consumed by [`MonitorEngine::on_function_batch`].
#[derive(Clone, Copy, Debug)]
pub struct FnEvent<'a> {
    /// The event timestamp.
    pub now: Nanos,
    /// The trigger arguments (`ARG(i)` operands).
    pub args: &'a [f64],
}

/// A borrowed trigger descriptor used on the hot path, materialized into an
/// owning [`TriggerKind`] only when a violation is actually recorded — the
/// overwhelmingly common healthy evaluation allocates nothing.
#[derive(Clone, Copy, Debug)]
enum TriggerRef<'a> {
    Timer,
    Function(&'a str),
}

impl TriggerRef<'_> {
    fn to_kind(self) -> TriggerKind {
        match self {
            TriggerRef::Timer => TriggerKind::Timer,
            TriggerRef::Function(hook) => TriggerKind::Function(hook.to_string()),
        }
    }
}

/// A `RETRAIN` awaiting its backoff-scheduled retry.
#[derive(Clone, Debug)]
struct PendingRetrain {
    guardrail: String,
    model: String,
    /// Retries already spent (0 = first retry pending).
    attempt: u32,
    next_attempt: Nanos,
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
        let (operand, keys): (Option<&Program>, &[String]) = match action {
            CompiledAction::Report { keys, .. } => (None, keys),
            CompiledAction::Deprioritize { steps, .. } => (steps.as_ref(), &[]),
            CompiledAction::Save { key, value } | CompiledAction::Record { key, value } => {
                (Some(value), std::slice::from_ref(key))
            }
            CompiledAction::Replace { .. } | CompiledAction::Retrain { .. } => (None, &[]),
        };
        ActionSlots {
            operand: operand.map(|p| store.bind(&p.keys)).unwrap_or_default(),
            keys: store.bind(keys),
        }
    }
}

struct Monitor {
    compiled: CompiledGuardrail,
    /// Each rule program's key table, bound to store slots at install.
    rule_slots: Vec<Box<[Slot]>>,
    /// Each action's slots, bound at install.
    action_slots: Vec<ActionSlots>,
    rule_deltas: Vec<DeltaState>,
    action_deltas: Vec<DeltaState>,
    hysteresis: HysteresisState,
    overhead: OverheadAccount,
    enabled: bool,
    /// Uninstalled monitors are tombstoned (their heap entries drain lazily).
    retired: bool,
    /// Rule faults since the last clean evaluation (watchdog input).
    consecutive_faults: u32,
    /// Set once the watchdog disables this monitor.
    watchdog_tripped: bool,
    /// When set, a tripped monitor is re-enabled at this time.
    probation_until: Option<Nanos>,
    /// Whether every rule program has a fused fast stream (cached at
    /// install so the telemetry fused-vs-fallback split costs nothing on
    /// the hot path).
    all_fused: bool,
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
    reports: ReportSink,
    outbox: CommandOutbox,
    limiter: RetrainLimiter,
    monitors: Vec<Monitor>,
    names: HashMap<String, usize>,
    /// Min-heap of (due, monitor, timer-index).
    timers: BinaryHeap<Reverse<(Nanos, usize, usize)>>,
    /// The hook→subscribers dispatch index: one fast-hash lookup per event
    /// (or per batch) resolves every monitor attached to a tracepoint.
    /// Maintained incrementally by `install`/`uninstall`.
    hooks: FxHashMap<String, Vec<usize>>,
    violations: ViolationLog,
    vm: Vm,
    now: Nanos,
    stats: EngineStats,
    resilience: ResilienceConfig,
    /// Dynamic per-evaluation rule fuel budget (fault-injection knob; the
    /// verifier's static bound still applies regardless).
    rule_fuel_limit: Option<u64>,
    pending_retrains: Vec<PendingRetrain>,
    /// Optional observability bundle. `None` (the default) keeps the hot
    /// path exactly as before: one pointer-is-none check per site.
    telemetry: Option<Arc<Telemetry>>,
    /// Plain-integer counter accumulator, flushed to the attached
    /// telemetry's atomics at the end of every engine entry point. Bumped
    /// unconditionally (register adds), so the telemetry-off hot path pays
    /// nothing measurable and the telemetry-on path avoids per-evaluation
    /// atomic RMWs.
    tdelta: TelemetryDelta,
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
            reports: ReportSink::new(),
            outbox: CommandOutbox::default(),
            limiter: RetrainLimiter::default_policy(),
            monitors: Vec::new(),
            names: HashMap::new(),
            timers: BinaryHeap::new(),
            hooks: FxHashMap::default(),
            violations: ViolationLog::default(),
            vm: Vm::new(),
            now: Nanos::ZERO,
            stats: EngineStats::default(),
            resilience: ResilienceConfig::default(),
            rule_fuel_limit: None,
            pending_retrains: Vec::new(),
            telemetry: None,
            tdelta: TelemetryDelta::default(),
            publish_interval: None,
            next_publish: Nanos::ZERO,
        }
    }

    /// Attaches an observability bundle. Counters and trace events are
    /// recorded from this point on; pass a bundle shared with the durable
    /// store's host to get WAL metrics in the same registry.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.telemetry = Some(telemetry);
    }

    /// The attached observability bundle, if any.
    pub fn telemetry(&self) -> Option<Arc<Telemetry>> {
        self.telemetry.clone()
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
        Ok(self.monitors[idx].watchdog_tripped)
    }

    /// `RETRAIN` retries currently waiting on backoff.
    pub fn pending_retrains(&self) -> usize {
        self.pending_retrains.len()
    }

    /// The shared feature store.
    pub fn store(&self) -> Arc<FeatureStore> {
        Arc::clone(&self.store)
    }

    /// The shared policy registry.
    pub fn registry(&self) -> Arc<PolicyRegistry> {
        Arc::clone(&self.registry)
    }

    /// The report sink (cloneable; shares the underlying log).
    pub fn reports(&self) -> ReportSink {
        self.reports.clone()
    }

    /// Installs a compiled guardrail; names must be unique per engine.
    pub fn install(&mut self, compiled: CompiledGuardrail) -> Result<MonitorId> {
        if self.names.contains_key(&compiled.name) {
            return Err(GuardrailError::Config(format!(
                "guardrail '{}' is already installed",
                compiled.name
            )));
        }
        let idx = self.monitors.len();
        self.names.insert(compiled.name.clone(), idx);
        for (t, timer) in compiled.timers.iter().enumerate() {
            // A monitor installed after its start time begins at "now".
            let first = timer.start.max(self.now);
            if first <= timer.stop {
                self.timers.push(Reverse((first, idx, t)));
            }
        }
        for hook in &compiled.hooks {
            self.hooks.entry(hook.clone()).or_default().push(idx);
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
        let rule_deltas = vec![DeltaState::default(); compiled.rules.len()];
        let action_deltas = vec![DeltaState::default(); compiled.actions.len()];
        let all_fused = compiled.rules.iter().all(|r| !r.program.fused.is_empty());
        self.monitors.push(Monitor {
            compiled,
            rule_slots,
            action_slots,
            rule_deltas,
            action_deltas,
            hysteresis: HysteresisState::new(Hysteresis::default()),
            overhead: OverheadAccount::new(),
            enabled: true,
            retired: false,
            consecutive_faults: 0,
            watchdog_tripped: false,
            probation_until: None,
            all_fused,
        });
        Ok(MonitorId(idx))
    }

    /// Parses, checks, compiles, verifies, and installs guardrail source.
    pub fn install_str(&mut self, source: &str) -> Result<Vec<MonitorId>> {
        compile_str(source)?
            .into_iter()
            .map(|g| self.install(g))
            .collect()
    }

    /// Uninstalls a guardrail at runtime (§6: "update guardrails at runtime
    /// without requiring a kernel reboot"). Its overhead account remains
    /// available post-mortem; its name becomes reusable immediately.
    pub fn uninstall(&mut self, name: &str) -> Result<()> {
        let idx = self.lookup(name)?;
        self.names.remove(name);
        self.monitors[idx].retired = true;
        for subscribers in self.hooks.values_mut() {
            subscribers.retain(|&m| m != idx);
        }
        Ok(())
    }

    /// Atomically updates guardrails at runtime: compiles `source` first
    /// (nothing changes on a compile error), then replaces any installed
    /// guardrail with a matching name and installs the rest fresh.
    pub fn update_str(&mut self, source: &str) -> Result<Vec<MonitorId>> {
        let compiled = compile_str(source)?;
        compiled
            .into_iter()
            .map(|g| {
                if self.names.contains_key(&g.name) {
                    self.uninstall(&g.name)?;
                }
                self.install(g)
            })
            .collect()
    }

    /// Sets the hysteresis configuration of an installed guardrail.
    pub fn set_hysteresis(&mut self, name: &str, config: Hysteresis) -> Result<()> {
        let idx = self.lookup(name)?;
        self.monitors[idx].hysteresis.set_config(config);
        Ok(())
    }

    /// Enables or disables a guardrail (incremental deployment, §3.3).
    /// Disabled monitors skip evaluation entirely but keep their timers.
    /// Manually enabling a monitor also clears any watchdog trip state.
    pub fn set_enabled(&mut self, name: &str, enabled: bool) -> Result<()> {
        let idx = self.lookup(name)?;
        let m = &mut self.monitors[idx];
        m.enabled = enabled;
        if enabled {
            m.consecutive_faults = 0;
            m.watchdog_tripped = false;
            m.probation_until = None;
        }
        Ok(())
    }

    fn lookup(&self, name: &str) -> Result<usize> {
        self.names
            .get(name)
            .copied()
            .ok_or_else(|| GuardrailError::Config(format!("no installed guardrail '{name}'")))
    }

    /// Installed (non-retired) guardrail names, in installation order.
    pub fn monitor_names(&self) -> Vec<String> {
        self.monitors
            .iter()
            .filter(|m| !m.retired)
            .map(|m| m.compiled.name.clone())
            .collect()
    }

    /// The engine's current simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Advances simulated time to `now`, evaluating every timer that comes
    /// due on the way (in timestamp order) and servicing any backoff-scheduled
    /// `RETRAIN` retries that come due alongside them.
    pub fn advance_to(&mut self, now: Nanos) {
        while let Some(&Reverse((due, midx, tidx))) = self.timers.peek() {
            if due > now {
                break;
            }
            self.timers.pop();
            if self.monitors[midx].retired {
                // Tombstoned by `uninstall`: drop the timer chain.
                continue;
            }
            self.now = due;
            self.service_retrain_retries(due);
            self.evaluate(midx, due, &[], TriggerRef::Timer);
            let timer = self.monitors[midx].compiled.timers[tidx];
            let next = due + timer.interval;
            if next <= timer.stop {
                self.timers.push(Reverse((next, midx, tidx)));
            }
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

    /// Re-requests pending `RETRAIN`s whose backoff has elapsed; emits the
    /// command on acceptance, reschedules with doubled backoff on another
    /// rejection, and gives up (with a log line) past the attempt budget.
    fn service_retrain_retries(&mut self, now: Nanos) {
        if self.pending_retrains.is_empty() {
            return;
        }
        let Some(retry) = self.resilience.retrain_retry else {
            self.pending_retrains.clear();
            return;
        };
        let mut pending = std::mem::take(&mut self.pending_retrains);
        pending.retain_mut(|p| {
            if p.next_attempt > now {
                return true;
            }
            self.stats.retrain_retries += 1;
            if self.limiter.request(&p.model, now).is_ok() {
                self.outbox.push(
                    now,
                    Command::Retrain {
                        guardrail: p.guardrail.clone(),
                        model: p.model.clone(),
                    },
                );
                self.stats.commands_emitted += 1;
                return false;
            }
            p.attempt += 1;
            if p.attempt >= retry.max_attempts {
                self.reports.info(
                    now,
                    &p.guardrail,
                    format!(
                        "RETRAIN {} gave up after {} attempts",
                        p.model, retry.max_attempts
                    ),
                );
                return false;
            }
            p.next_attempt = now + retry.backoff(p.attempt);
            true
        });
        self.pending_retrains = pending;
    }

    /// Delivers a tracepoint firing to every guardrail attached to `hook`.
    pub fn on_function(&mut self, hook: &str, now: Nanos, args: &[f64]) {
        self.on_function_batch(hook, &[FnEvent { now, args }]);
    }

    /// Delivers a batch of tracepoint firings for one hook.
    ///
    /// Semantically identical to calling [`MonitorEngine::on_function`] once
    /// per event in order — violation logs and store effects are
    /// bit-identical — but the hook is resolved through the dispatch index
    /// once, the wall clock is read twice per *batch* instead of twice per
    /// evaluation, and no per-event allocations occur. The measured batch
    /// wall time is apportioned across the evaluating monitors by their
    /// evaluation counts (modelled fuel accounting is exact either way).
    pub fn on_function_batch(&mut self, hook: &str, events: &[FnEvent<'_>]) {
        if events.is_empty() {
            return;
        }
        if !self.hooks.contains_key(hook) {
            // No subscribers: the clock still advances, as it would have
            // under sequential delivery.
            let last = events.iter().map(|e| e.now).max().unwrap_or(self.now);
            self.now = self.now.max(last);
            return;
        }
        // Detach the subscriber list for the duration of the batch so
        // `evaluate_inner` can borrow the engine mutably. Installs and
        // uninstalls only happen between engine entry points, never inside
        // an evaluation, so the list cannot change underneath us.
        let subscribers = std::mem::take(self.hooks.get_mut(hook).expect("checked above"));
        let evals_before: Vec<u64> = subscribers
            .iter()
            .map(|&m| self.monitors[m].overhead.evaluations)
            .collect();
        if let Some(t) = &self.telemetry {
            t.m.batches.inc();
            t.m.batch_events.add(events.len() as u64);
            t.mark(
                self.now,
                TraceKind::EvalStart,
                NO_MONITOR,
                events.len() as f64,
            );
        }
        let started = std::time::Instant::now();
        for event in events {
            self.now = self.now.max(event.now);
            for &midx in &subscribers {
                self.evaluate_inner(midx, event.now, event.args, TriggerRef::Function(hook));
            }
        }
        let wall_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.stats.eval_wall_ns += wall_ns;
        if let Some(t) = &self.telemetry {
            t.m.eval_wall_ns.add(wall_ns);
            t.m.eval_wall_hist.observe(wall_ns);
            t.mark(self.now, TraceKind::EvalEnd, NO_MONITOR, wall_ns as f64);
        }
        let evaluated: u64 = subscribers
            .iter()
            .zip(&evals_before)
            .map(|(&m, &before)| self.monitors[m].overhead.evaluations - before)
            .sum();
        for (&midx, &before) in subscribers.iter().zip(&evals_before) {
            let share = self.monitors[midx].overhead.evaluations - before;
            if let Some(charge) = (wall_ns * share).checked_div(evaluated) {
                self.monitors[midx].overhead.charge_wall(charge);
            }
        }
        if let Some(list) = self.hooks.get_mut(hook) {
            *list = subscribers;
        }
        self.flush_telemetry_delta();
    }

    /// Flushes the accumulated counter delta into the attached telemetry
    /// (discarding it when none is attached). Runs at the end of every
    /// evaluating entry point, so totals are exact at every API boundary.
    #[inline]
    fn flush_telemetry_delta(&mut self) {
        let delta = std::mem::take(&mut self.tdelta);
        if let Some(t) = &self.telemetry {
            delta.apply(&t.m);
        }
    }

    /// Timer-path evaluation wrapper: measures wall time around one
    /// evaluation (the batch path measures once per batch instead).
    fn evaluate(&mut self, midx: usize, now: Nanos, args: &[f64], trigger: TriggerRef<'_>) {
        let evals_before = self.monitors[midx].overhead.evaluations;
        if let Some(t) = &self.telemetry {
            t.mark(now, TraceKind::EvalStart, midx as u32, 1.0);
        }
        let started = std::time::Instant::now();
        self.evaluate_inner(midx, now, args, trigger);
        let wall_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        if self.monitors[midx].overhead.evaluations > evals_before {
            self.stats.eval_wall_ns += wall_ns;
            self.monitors[midx].overhead.charge_wall(wall_ns);
            if let Some(t) = &self.telemetry {
                t.m.eval_wall_ns.add(wall_ns);
                t.m.eval_wall_hist.observe(wall_ns);
            }
        }
        if let Some(t) = &self.telemetry {
            t.mark(now, TraceKind::EvalEnd, midx as u32, wall_ns as f64);
        }
        self.flush_telemetry_delta();
    }

    fn evaluate_inner(&mut self, midx: usize, now: Nanos, args: &[f64], trigger: TriggerRef<'_>) {
        if self.monitors[midx].retired {
            return;
        }
        if !self.monitors[midx].enabled {
            // A watchdog-tripped monitor on probation self-heals: re-enable
            // and let this evaluation proceed. A persistent fault re-trips.
            let due = self.monitors[midx]
                .probation_until
                .is_some_and(|p| now >= p);
            if !(self.monitors[midx].watchdog_tripped && due) {
                return;
            }
            let m = &mut self.monitors[midx];
            m.enabled = true;
            m.watchdog_tripped = false;
            m.consecutive_faults = 0;
            m.probation_until = None;
            let name = m.compiled.name.clone();
            self.reports
                .info(now, &name, "watchdog probation over, monitor re-enabled");
        }
        self.stats.evaluations += 1;
        self.tdelta.evaluations += 1;
        if self.monitors[midx].all_fused {
            self.tdelta.fused_evals += 1;
        } else {
            self.tdelta.fallback_evals += 1;
        }
        let mut fuel = 0u64;
        let mut failed: Option<usize> = None;
        let mut fault: Option<String> = None;
        {
            let monitor = &mut self.monitors[midx];
            let vm = &mut self.vm;
            let limit = self.rule_fuel_limit;
            for (i, rule) in monitor.compiled.rules.iter().enumerate() {
                let slots = &monitor.rule_slots[i];
                let deltas = &mut monitor.rule_deltas[i];
                // Isolate the evaluation: a fuel-starved or panicking rule
                // must fault *this monitor*, never take down the engine.
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    vm.try_run(
                        &rule.program,
                        &mut EvalCtx {
                            slots,
                            now,
                            args,
                            deltas,
                        },
                        limit,
                    )
                }));
                match run {
                    Ok(Ok(result)) => {
                        fuel += result.fuel;
                        if !result.as_bool() {
                            failed = Some(i);
                            break;
                        }
                    }
                    Ok(Err(vm_fault)) => {
                        fault = Some(format!("rule {i}: {vm_fault}"));
                        break;
                    }
                    Err(_) => {
                        fault = Some(format!("rule {i}: evaluation panicked"));
                        break;
                    }
                }
            }
        }
        // Wall time is charged by the caller (per evaluation on the timer
        // path, per batch on the function path); fuel is charged here.
        self.monitors[midx].overhead.charge_rules(fuel, 0);
        self.tdelta.rule_fuel += fuel;

        if let Some(reason) = fault {
            self.on_rule_fault(midx, now, args, &reason);
            return;
        }
        self.monitors[midx].consecutive_faults = 0;

        let Some(rule_index) = failed else {
            // Healthy evaluation still feeds the hysteresis window.
            self.monitors[midx].hysteresis.observe(false, now);
            return;
        };
        self.stats.violations += 1;
        self.tdelta.violations += 1;
        if let Some(t) = &self.telemetry {
            t.mark(now, TraceKind::Violation, midx as u32, rule_index as f64);
        }
        let fire = self.monitors[midx].hysteresis.observe(true, now);
        let (name, rule_source) = {
            let m = &self.monitors[midx].compiled;
            (m.name.clone(), m.rules[rule_index].source.clone())
        };
        self.violations.push(Violation {
            at: now,
            guardrail: name,
            rule_index,
            rule_source,
            trigger: trigger.to_kind(),
            actions_fired: fire,
        });
        if fire {
            self.stats.trips += 1;
            self.tdelta.trips += 1;
            self.dispatch_actions(midx, now, args);
        }
    }

    /// Handles a rule evaluation that aborted (fuel exhaustion or panic):
    /// counts it, and — when a watchdog is configured — disables a monitor
    /// that keeps faulting instead of leaving it silently wedged. Fail-closed
    /// watchdogs dispatch the monitor's actions once on the way down.
    fn on_rule_fault(&mut self, midx: usize, now: Nanos, args: &[f64], reason: &str) {
        self.stats.rule_faults += 1;
        self.monitors[midx].consecutive_faults += 1;
        let name = self.monitors[midx].compiled.name.clone();
        self.reports
            .info(now, &name, format!("rule fault: {reason}"));
        let Some(watchdog) = self.resilience.watchdog else {
            return;
        };
        if self.monitors[midx].consecutive_faults < watchdog.max_consecutive_faults {
            return;
        }
        let m = &mut self.monitors[midx];
        m.enabled = false;
        m.watchdog_tripped = true;
        m.probation_until = watchdog.probation.map(|p| now + p);
        self.stats.watchdog_trips += 1;
        self.reports.report(
            now,
            &name,
            &format!(
                "watchdog disabled monitor after {} consecutive rule faults ({reason})",
                watchdog.max_consecutive_faults
            ),
            &[],
        );
        if watchdog.fail_mode == FailMode::FailClosed {
            // The property can no longer be checked: presume it violated
            // and leave the system in its corrected configuration.
            self.dispatch_actions(midx, now, args);
        }
    }

    /// Evaluates an action operand with the same containment as rule
    /// evaluation: a fuel-starved or panicking operand yields an error the
    /// caller reports and skips, instead of taking down the engine.
    fn eval_operand(
        vm: &mut Vm,
        slots: &[Slot],
        program: &Program,
        now: Nanos,
        args: &[f64],
        deltas: &mut DeltaState,
        limit: Option<u64>,
    ) -> std::result::Result<crate::vm::EvalResult, String> {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            vm.try_run(
                program,
                &mut EvalCtx {
                    slots,
                    now,
                    args,
                    deltas,
                },
                limit,
            )
        }));
        match run {
            Ok(Ok(result)) => Ok(result),
            Ok(Err(vm_fault)) => Err(vm_fault.to_string()),
            Err(_) => Err("evaluation panicked".to_string()),
        }
    }

    fn dispatch_actions(&mut self, midx: usize, now: Nanos, args: &[f64]) {
        // Borrow the engine field by field so the monitor's actions are
        // walked in place while the outbox, reports and counters are
        // written.
        let MonitorEngine {
            store,
            registry,
            reports,
            outbox,
            limiter,
            monitors,
            vm,
            stats,
            resilience,
            rule_fuel_limit,
            pending_retrains,
            telemetry,
            tdelta,
            ..
        } = self;
        let Monitor {
            compiled,
            action_slots,
            action_deltas,
            overhead,
            ..
        } = &mut monitors[midx];
        let name = &compiled.name;
        for (aidx, (action, slots)) in compiled.actions.iter().zip(action_slots.iter()).enumerate()
        {
            let mut fuel = 0u64;
            let kind = match action {
                CompiledAction::Report { .. } => ActionKind::Report,
                CompiledAction::Replace { .. } => ActionKind::Replace,
                CompiledAction::Retrain { .. } => ActionKind::Retrain,
                CompiledAction::Deprioritize { .. } => ActionKind::Deprioritize,
                CompiledAction::Save { .. } => ActionKind::Save,
                CompiledAction::Record { .. } => ActionKind::Record,
            };
            let mut operand = |program: &Program| {
                Self::eval_operand(
                    vm,
                    &slots.operand,
                    program,
                    now,
                    args,
                    &mut action_deltas[aidx],
                    *rule_fuel_limit,
                )
            };
            match action {
                CompiledAction::Report { message, .. } => {
                    reports.report(now, name, message, &slots.keys);
                }
                CompiledAction::Replace { slot, variant } => {
                    let outcome = if resilience.replace_fallback {
                        // Fail-safe chain: a missing variant degrades to the
                        // slot's registered default instead of doing nothing.
                        registry.replace_with_fallback(slot, variant).map(|chosen| {
                            if &chosen != variant {
                                reports.info(
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
                        // bug; surface it in the report log rather than
                        // crashing the monitor (crash-free semantics, §4.2).
                        reports.info(now, name, format!("REPLACE failed: {e}"));
                    }
                }
                CompiledAction::Retrain { model } => {
                    if limiter.request(model, now).is_ok() {
                        outbox.push(
                            now,
                            Command::Retrain {
                                guardrail: name.clone(),
                                model: model.clone(),
                            },
                        );
                        stats.commands_emitted += 1;
                    } else if let Some(retry) = resilience.retrain_retry {
                        // Rejected: schedule a backoff retry instead of
                        // dropping the request, unless one is already queued
                        // for this model (no point stacking duplicates).
                        let queued = pending_retrains
                            .iter()
                            .any(|p| p.model == *model && p.guardrail == *name);
                        if !queued {
                            pending_retrains.push(PendingRetrain {
                                guardrail: name.clone(),
                                model: model.clone(),
                                attempt: 0,
                                next_attempt: now + retry.backoff(0),
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
                                reports.info(
                                    now,
                                    name,
                                    format!(
                                        "DEPRIORITIZE operand fault: {reason}; \
                                         action skipped"
                                    ),
                                );
                                continue;
                            }
                        },
                        None => 5,
                    };
                    outbox.push(
                        now,
                        Command::Deprioritize {
                            guardrail: name.clone(),
                            target: target.clone(),
                            steps: steps_value,
                        },
                    );
                    stats.commands_emitted += 1;
                }
                CompiledAction::Save { value, .. } => match operand(value) {
                    Ok(r) => {
                        fuel += r.fuel;
                        store.save_slot(&slots.keys[0], r.value);
                    }
                    Err(reason) => {
                        reports.info(
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
                        reports.info(
                            now,
                            name,
                            format!("RECORD operand fault: {reason}; action skipped"),
                        );
                        continue;
                    }
                },
            }
            overhead.charge_action(fuel);
            tdelta.actions[kind as usize] += 1;
            tdelta.action_fuel += fuel;
            if let Some(t) = telemetry {
                t.mark(now, TraceKind::Action, midx as u32, kind as usize as f64);
            }
        }
    }

    /// Drains the deferred-command outbox (apply these with your subsystem's
    /// [`simkernel::TaskControl`] / model owner).
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

    /// Snapshot of recorded violations, oldest first.
    pub fn violations(&self) -> Vec<Violation> {
        self.violations.iter().cloned().collect()
    }

    /// The violation log (bounded ring).
    pub fn violation_log(&self) -> &ViolationLog {
        &self.violations
    }

    /// Aggregate engine statistics.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Publishes the attached telemetry into the feature store's reserved
    /// `__telemetry/` namespace: every registry metric (see
    /// [`Telemetry::publish_registry`]), the store's own write counters,
    /// and per-guardrail P5 accounts under
    /// `__telemetry/guardrail/<name>/{evaluations,rule_fuel,action_fuel,
    /// wall_ns,modeled_ns,overhead_fraction}`. The fraction is
    /// `modeled_ns / now` — fuel-modeled, so it is deterministic and safe
    /// for guardrail rules to `LOAD` (the measured `wall_ns` key is the
    /// nondeterministic companion). No-op without telemetry attached.
    pub fn publish_telemetry(&self) {
        let Some(t) = &self.telemetry else {
            return;
        };
        t.observe_store(&self.store);
        t.publish_registry(&self.store);
        let now_ns = self.now.as_nanos();
        for m in &self.monitors {
            if m.retired {
                continue;
            }
            let base = format!("{RESERVED_PREFIX}guardrail/{}", m.compiled.name);
            let o = &m.overhead;
            let modeled_ns = o.modeled().as_nanos();
            let fraction = if now_ns == 0 {
                0.0
            } else {
                modeled_ns as f64 / now_ns as f64
            };
            for (suffix, value) in [
                ("evaluations", o.evaluations as f64),
                ("rule_fuel", o.rule_fuel as f64),
                ("action_fuel", o.action_fuel as f64),
                ("wall_ns", o.wall_ns as f64),
                ("modeled_ns", modeled_ns as f64),
                ("overhead_fraction", fraction),
            ] {
                self.store.save(&format!("{base}/{suffix}"), value);
            }
        }
    }

    /// Per-monitor overhead accounts (P5).
    pub fn overhead_reports(&self) -> Vec<OverheadReport> {
        self.monitors
            .iter()
            .map(|m| OverheadReport {
                guardrail: m.compiled.name.clone(),
                account: m.overhead,
            })
            .collect()
    }

    /// Total modelled monitoring time across all monitors.
    pub fn total_modeled_overhead(&self) -> Nanos {
        self.monitors.iter().map(|m| m.overhead.modeled()).sum()
    }

    /// Violations suppressed by hysteresis for `name`.
    pub fn suppressed(&self, name: &str) -> Result<u64> {
        let idx = self.lookup(name)?;
        Ok(self.monitors[idx].hysteresis.suppressed())
    }

    /// Captures the engine state that must survive a crash: the clock,
    /// aggregate stats, every live monitor's hysteresis/watchdog/enabled
    /// state, and the active variant of every policy slot. Take a
    /// checkpoint after `advance_to`/`on_function` returns — never
    /// mid-dispatch.
    pub fn checkpoint(&self) -> EngineCheckpoint {
        if let Some(t) = &self.telemetry {
            t.m.checkpoints.inc();
            t.mark(self.now, TraceKind::Checkpoint, NO_MONITOR, 0.0);
        }
        EngineCheckpoint {
            now: self.now,
            stats: self.stats,
            slots: self.registry.active_variants(),
            monitors: self
                .monitors
                .iter()
                .filter(|m| !m.retired)
                .map(|m| MonitorCheckpoint {
                    name: m.compiled.name.clone(),
                    enabled: m.enabled,
                    watchdog_tripped: m.watchdog_tripped,
                    consecutive_faults: m.consecutive_faults,
                    probation_until: m.probation_until,
                    hysteresis: m.hysteresis.snapshot(),
                })
                .collect(),
        }
    }

    /// Restores a checkpoint into this engine.
    ///
    /// Call after reinstalling the same guardrail specs into a freshly
    /// built engine: monitors are matched by name (a checkpointed monitor
    /// whose spec is no longer installed is skipped — the operator changed
    /// the deployment, which wins over history). Policy slots are re-pinned
    /// to their checkpointed active variants, so a `REPLACE` decision made
    /// before the crash holds after it. Timers fast-forward to the first
    /// tick strictly after the checkpoint instant — missed ticks are *not*
    /// replayed (their inputs are gone; re-running them against current
    /// state would double-fire actions).
    pub fn restore(&mut self, checkpoint: &EngineCheckpoint) -> Result<()> {
        for (slot, variant) in &checkpoint.slots {
            if self.registry.active(slot).is_some() {
                self.registry.replace(slot, variant)?;
            }
        }
        for mc in &checkpoint.monitors {
            let Some(&idx) = self.names.get(&mc.name) else {
                continue;
            };
            let m = &mut self.monitors[idx];
            m.enabled = mc.enabled;
            m.watchdog_tripped = mc.watchdog_tripped;
            m.consecutive_faults = mc.consecutive_faults;
            m.probation_until = mc.probation_until;
            m.hysteresis = HysteresisState::from_snapshot(&mc.hysteresis);
        }
        self.now = self.now.max(checkpoint.now);
        self.stats = checkpoint.stats;
        self.fast_forward_timers();
        if let Some(t) = &self.telemetry {
            t.m.restores.inc();
            t.mark(self.now, TraceKind::Restart, NO_MONITOR, 0.0);
        }
        Ok(())
    }

    /// Rebuilds the timer heap so every chain resumes at its first tick
    /// strictly after `self.now`, preserving each timer's original phase
    /// (`start + k·interval`).
    fn fast_forward_timers(&mut self) {
        let now = self.now;
        let mut timers = BinaryHeap::new();
        for (midx, m) in self.monitors.iter().enumerate() {
            if m.retired {
                continue;
            }
            for (tidx, timer) in m.compiled.timers.iter().enumerate() {
                let first = if timer.start > now {
                    timer.start
                } else {
                    let interval = timer.interval.as_nanos().max(1);
                    let elapsed = now.as_nanos() - timer.start.as_nanos();
                    let k = elapsed / interval + 1;
                    Nanos::from_nanos(
                        timer
                            .start
                            .as_nanos()
                            .saturating_add(interval.saturating_mul(k)),
                    )
                };
                if first <= timer.stop {
                    timers.push(Reverse((first, midx, tidx)));
                }
            }
        }
        self.timers = timers;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(engine.reports().len(), 1);
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
        let reports = engine.reports().records();
        assert!(reports.iter().any(|r| r.message.contains("REPLACE failed")));
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
        let evals_before = engine.stats().evaluations;
        assert!(evals_before > 0);
        engine.uninstall("low-false-submit").unwrap();
        assert!(engine.monitor_names().is_empty());
        engine.advance_to(Nanos::from_secs(10));
        assert_eq!(engine.stats().evaluations, evals_before, "no further evals");
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
        use crate::monitor::resilience::{ResilienceConfig, WatchdogConfig};
        let mut engine = MonitorEngine::new();
        engine.set_resilience(ResilienceConfig {
            watchdog: Some(WatchdogConfig::default().with_max_faults(3)),
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
        let reports = engine.reports().records();
        assert!(reports.iter().any(|r| r.message.contains("rule fault")));
        assert!(reports
            .iter()
            .any(|r| r.message.contains("watchdog disabled monitor after 3")));
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
        assert!(engine
            .reports()
            .records()
            .iter()
            .any(|r| r.message.contains("SAVE operand fault")));
        // With the budget lifted the action completes again.
        engine.set_rule_fuel_limit(None);
        engine.advance_to(Nanos::from_secs(4));
        assert_eq!(store.load("y"), Some(0.0), "empty quantile writes 0");
    }

    #[test]
    fn fail_closed_watchdog_fires_actions_on_the_way_down() {
        use crate::monitor::resilience::{ResilienceConfig, WatchdogConfig};
        let mut engine = MonitorEngine::new();
        engine.set_resilience(ResilienceConfig {
            watchdog: Some(WatchdogConfig::fail_closed().with_max_faults(2)),
            ..ResilienceConfig::default()
        });
        engine.install_str(LISTING_2).unwrap();
        let store = engine.store();
        store.save("ml_enabled", 1.0);
        store.save("false_submit_rate", 0.01); // The rule itself would hold.
        engine.set_rule_fuel_limit(Some(1));
        engine.advance_to(Nanos::from_secs(5));
        // The check is broken, so fail-closed presumes violation: the model
        // is disabled once, then the monitor goes quiet.
        assert_eq!(engine.stats().watchdog_trips, 1);
        assert!(!store.flag("ml_enabled"), "corrective action fired on trip");
    }

    #[test]
    fn watchdog_probation_self_heals_transient_faults() {
        use crate::monitor::resilience::{ResilienceConfig, WatchdogConfig};
        let mut engine = MonitorEngine::new();
        engine.set_resilience(ResilienceConfig {
            watchdog: Some(
                WatchdogConfig::default()
                    .with_max_faults(2)
                    .with_probation(Nanos::from_secs(3)),
            ),
            ..ResilienceConfig::default()
        });
        engine
            .install_str(
                "guardrail g { trigger: { TIMER(0, 1s) }, rule: { LOAD(x) < 0 }, action: { REPORT(m) } }",
            )
            .unwrap();
        engine.set_rule_fuel_limit(Some(1));
        engine.advance_to(Nanos::from_secs(1)); // Faults at 0 and 1: trip.
        assert!(engine.watchdog_tripped("g").unwrap());
        // The fault clears while the monitor sits out its probation.
        engine.set_rule_fuel_limit(None);
        engine.advance_to(Nanos::from_secs(6));
        assert!(
            !engine.watchdog_tripped("g").unwrap(),
            "probation re-enabled it"
        );
        assert!(
            !engine.violations().is_empty(),
            "rule evaluates (and violates) again after re-enable"
        );
        assert!(engine
            .reports()
            .records()
            .iter()
            .any(|r| r.message.contains("probation over")));
    }

    #[test]
    fn clean_evaluation_resets_the_fault_streak() {
        use crate::monitor::resilience::{ResilienceConfig, WatchdogConfig};
        let mut engine = MonitorEngine::new();
        engine.set_resilience(ResilienceConfig {
            watchdog: Some(WatchdogConfig::default().with_max_faults(3)),
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
    fn rejected_retrains_retry_with_backoff() {
        use crate::monitor::resilience::{ResilienceConfig, RetryPolicy};
        let mut engine = MonitorEngine::new();
        engine.set_retrain_limiter(RetrainLimiter::new(
            Nanos::from_secs(10),
            100,
            Nanos::from_secs(1000),
        ));
        engine.set_resilience(ResilienceConfig {
            retrain_retry: Some(RetryPolicy::exponential(4, Nanos::from_millis(500))),
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
        use crate::monitor::resilience::{ResilienceConfig, RetryPolicy};
        let mut engine = MonitorEngine::new();
        // Budget of 1 in a huge window: the second request can never land.
        engine.set_retrain_limiter(RetrainLimiter::new(
            Nanos::from_secs(1),
            1,
            Nanos::from_secs(100_000),
        ));
        engine.set_resilience(ResilienceConfig {
            retrain_retry: Some(RetryPolicy::exponential(2, Nanos::from_secs(1))),
            ..ResilienceConfig::default()
        });
        engine
            .install_str(
                "guardrail g { trigger: { TIMER(0, 1s, 1s) }, rule: { LOAD(x) > 0 }, action: { RETRAIN(m) } }",
            )
            .unwrap();
        // Retries are serviced as time advances; each step rejects again.
        engine.advance_to(Nanos::from_secs(10));
        engine.advance_to(Nanos::from_secs(20));
        engine.advance_to(Nanos::from_secs(30));
        assert_eq!(engine.drain_commands().len(), 1, "only the first lands");
        assert_eq!(engine.pending_retrains(), 0, "gave up, not queued forever");
        assert!(engine
            .reports()
            .records()
            .iter()
            .any(|r| r.message.contains("gave up after 2 attempts")));
    }

    #[test]
    fn replace_falls_back_to_default_variant_when_hardened() {
        use crate::monitor::resilience::ResilienceConfig;
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
        assert!(engine
            .reports()
            .records()
            .iter()
            .any(|r| r.message.contains("REPLACE failed")));
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
        assert!(engine
            .reports()
            .records()
            .iter()
            .any(|r| r.message.contains("fell back to 'fallback'")));
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
            "the violation log survives uninstall"
        );
        let commands = engine.drain_commands();
        assert!(
            commands.iter().any(
                |(_, c)| matches!(c, Command::Deprioritize { guardrail, .. } if guardrail == "dep")
            ),
            "pending commands from the uninstalled monitor still drain"
        );
        // And its overhead account remains readable post-mortem.
        assert!(engine
            .overhead_reports()
            .iter()
            .any(|r| r.guardrail == "dep" && r.account.evaluations > 0));
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
        use crate::monitor::resilience::{ResilienceConfig, WatchdogConfig};
        let spec = "guardrail g { trigger: { TIMER(0, 1s) }, rule: { LOAD(x) < 0 }, action: { REPORT(m) } }";
        let mut engine = MonitorEngine::new();
        engine.set_resilience(ResilienceConfig {
            watchdog: Some(WatchdogConfig::default().with_max_faults(2)),
            ..ResilienceConfig::default()
        });
        engine.install_str(spec).unwrap();
        engine.set_rule_fuel_limit(Some(1));
        engine.advance_to(Nanos::from_secs(1)); // Two faults: watchdog trips.
        assert!(engine.watchdog_tripped("g").unwrap());
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
            checkpoint.stats.evaluations,
            "disabled monitor does not evaluate after restore"
        );
    }

    #[test]
    fn restore_skips_unknown_monitors_and_slots() {
        let mut engine = MonitorEngine::new();
        engine.registry().register("s", &["a", "b"]).unwrap();
        engine.install_str(LISTING_2).unwrap();
        engine.advance_to(Nanos::from_secs(2));
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
        assert_eq!(
            restarted.stats().evaluations,
            checkpoint.stats.evaluations + 1
        );
    }

    #[test]
    fn apply_runtime_sets_resilience_and_quarantine() {
        let mut engine = MonitorEngine::new();
        assert!(engine.store().quarantine_enabled(), "store default");
        engine.apply_runtime(&RuntimeConfig::seed());
        assert!(!engine.store().quarantine_enabled());
        assert_eq!(engine.resilience(), ResilienceConfig::disabled());
        engine.apply_runtime(&RuntimeConfig::hardened());
        assert!(engine.store().quarantine_enabled());
        assert_eq!(engine.resilience(), ResilienceConfig::hardened());
    }

    #[test]
    fn telemetry_counters_and_trace_follow_the_engine() {
        let t = Telemetry::new();
        let mut engine = MonitorEngine::new();
        engine.set_telemetry(Arc::clone(&t));
        engine.install_str(LISTING_2).unwrap();
        let store = engine.store();
        store.save("false_submit_rate", 0.2); // Always violating.
        engine.advance_to(Nanos::from_secs(2));
        let snap = t.snapshot();
        assert_eq!(snap.evaluations, 3, "ticks at 0, 1, 2");
        assert_eq!(snap.violations, 3);
        assert_eq!(snap.trips, 3);
        assert!(snap.rule_fuel > 0);
        assert!(snap.action_fuel > 0, "SAVE operand fuel counted");
        assert_eq!(
            snap.fused_evals + snap.fallback_evals,
            snap.evaluations,
            "every evaluation is classified"
        );
        assert_eq!(
            snap.actions[ActionKind::Save as usize],
            3,
            "SAVE fired each tick"
        );
        let events = t.trace.snapshot();
        assert!(events.iter().any(|e| e.kind == TraceKind::Violation));
        assert!(events.iter().any(|e| e.kind == TraceKind::EvalEnd));
        // Checkpoint/restore leave their own marks and counters.
        let checkpoint = engine.checkpoint();
        engine.restore(&checkpoint).unwrap();
        assert_eq!(t.m.checkpoints.get(), 1);
        assert_eq!(t.m.restores.get(), 1);
        assert!(t
            .trace
            .snapshot()
            .iter()
            .any(|e| e.kind == TraceKind::Restart));
    }

    #[test]
    fn publish_telemetry_exposes_loadable_reserved_keys() {
        let t = Telemetry::new();
        let mut engine = MonitorEngine::new();
        engine.set_telemetry(Arc::clone(&t));
        engine.install_str(LISTING_2).unwrap();
        let store = engine.store();
        store.save("false_submit_rate", 0.2);
        engine.advance_to(Nanos::from_secs(2));
        engine.publish_telemetry();
        assert_eq!(store.load("__telemetry/engine/evaluations"), Some(3.0));
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
        let reports = engine.reports().records();
        assert_eq!(reports[0].message, "rate high rate=0.5 seen=0");
    }
}
