//! Crash-restart scenarios: the LinnOS setting with a crashing guardrail
//! runtime (experiment E10).
//!
//! The fault experiments ([`crate::faultsim`], E9) break things *around* a
//! running monitor engine. These scenarios kill the guardrail runtime
//! itself — engine, feature store, and policy registry all die, as in a
//! whole-node reboot — while the physical substrate (flash array, trained
//! classifier weights, workload) persists. Each scenario runs twice:
//!
//! - **seed** runtime: no persistence. Every reboot re-runs init, which
//!   restores the boot defaults (`ml_enabled = 1`, learned variant active).
//!   A guardrail decision made before the crash — the Listing 2 kill
//!   switch, a `REPLACE` to the safe submission policy — is silently
//!   undone, and the stale model re-arms until the freshly booted monitor
//!   re-detects the violation from scratch.
//! - **recovery** runtime: the feature store is a
//!   [`DurableStore`] (WAL + snapshot) and the host checkpoints the engine
//!   ([`MonitorEngine::checkpoint_into`]) into it. On reboot the store replays,
//!   the checkpoint restores, and the engine *resumes*: the model stays
//!   disabled, the `REPLACE` stays pinned, and the latency trajectory
//!   converges to the no-crash Figure 2 run.
//!
//! Three storage-damage variants of the crash are modelled with the
//! crash-family [`FaultKind`]s:
//!
//! - [`FaultKind::Crash`] — clean crash; all persisted bytes intact.
//! - [`FaultKind::TornWrite`] — the final WAL append is torn mid-write.
//!   Recovery loses exactly that record, detects the tear, repairs the log,
//!   and is *not* tainted (a torn tail is expected crash damage).
//! - [`FaultKind::SnapshotCorrupt`] — the snapshot blob bit-rots. Recovery
//!   detects the bad checksum, discards the snapshot whole, and — because
//!   the state can no longer be vouched for — boots fail-closed:
//!   fallbacks pinned, model disabled.
//! - [`FaultKind::CheckpointCorrupt`] — the engine checkpoint bit-rots. It
//!   no longer decodes, so the monitors boot without it; the loss is
//!   recorded ([`RecoveryRunReport::checkpoint_discarded`]) and taints the
//!   recovery, which boots fail-closed the same way.
//!
//! [`run_crash_loop`] adds the supervisor ladder: repeated rapid crashes
//! escalate through doubled restart backoffs to a fail-closed stop
//! ([`Supervisor`]), after which the system keeps serving I/O on the safe
//! fallback policy with no learned path and no monitors.

use std::sync::Arc;

use guardrails::fault::FaultKind;
use guardrails::monitor::{
    fail_closed, EngineCheckpoint, MonitorEngine, RecoveryConfig, RestartDecision, RuntimeConfig,
    Supervisor,
};
use guardrails::policy::{PolicyRegistry, VariantHandle, VARIANT_LEARNED};
use guardrails::store::durable::{DurableStore, MemBackend, PersistBackend, Region};
use guardrails::store::Slot;
use simkernel::Nanos;

use crate::datapath::Datapath;
use crate::faultsim::{fault_label, FAILOVER_QUALITY_SPEC};
use crate::sim::{LinnosSimConfig, PhaseStats, LISTING_2_SPEC};

/// The run: training ends at 2 s, the Figure 2 distribution shift comes
/// at 5 s, and the run ends at 14 s.
fn scenario_config(seed: u64) -> LinnosSimConfig {
    LinnosSimConfig {
        seed,
        warmup: Nanos::from_secs(2),
        healthy: Nanos::from_secs(3),
        shifted: Nanos::from_secs(9),
        ..LinnosSimConfig::default()
    }
}

/// First (or only) crash instant; also the start of the post-crash
/// measurement window, applied uniformly so the no-crash reference is
/// comparable.
const CRASH_AT: Nanos = Nanos::from_secs(8);
/// The seed runtime's dumb restart loop: reboot after a fixed delay (the
/// same as the supervisor's initial backoff, so downtime is not the
/// discriminator between the arms).
const SEED_RESTART_DELAY: Nanos = Nanos::from_millis(100);
/// Engine checkpoint cadence, in served I/Os.
const CHECKPOINT_EVERY: u64 = 200;
/// The policy slot the failover-quality guardrail `REPLACE`s.
const SLOT: &str = "io_submit";

/// The outcome of one crash-restart scenario run.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryRunReport {
    /// Stable scenario label (`crash`, `torn_write`, `snapshot_corrupt`,
    /// `checkpoint_corrupt`, `crash_loop`, or `no_crash` for the
    /// reference).
    pub label: String,
    /// Whether the recovery runtime (durable store + checkpoint +
    /// supervisor) was active; `false` is the seed runtime.
    pub durable: bool,
    /// Crashes injected.
    pub crashes: u64,
    /// Reboots completed.
    pub restarts: u64,
    /// Whether the supervisor escalated to fail-closed.
    pub failed_closed: bool,
    /// Total time the guardrail node was down (arrivals skipped).
    pub downtime: Nanos,
    /// Arrivals dropped while the node was down.
    pub skipped_ios: u64,
    /// I/Os decided by the learned policy *after* the guardrail had
    /// disabled it — decisions lost to a restart. Zero means every
    /// pre-crash corrective decision survived.
    pub rearmed_ios: u64,
    /// When the guardrail first disabled the model.
    pub disabled_at: Option<Nanos>,
    /// Rule violations recorded, summed across engine incarnations.
    pub violations: u64,
    /// `ml_enabled` at the end of the run.
    pub ml_enabled_at_end: bool,
    /// Whether the learned variant was active in the `io_submit` slot at
    /// the end (the `REPLACE` persistence check: must be `false`).
    pub slot_learned_at_end: bool,
    /// Mean I/O latency (µs) over the healthy window (training end to
    /// shift).
    pub healthy_latency_us: f64,
    /// Mean I/O latency (µs) from the crash instant to the end of the run
    /// (measured over the same window in the no-crash reference).
    pub post_crash_latency_us: f64,
    /// WAL records replayed, summed across reopens.
    pub wal_records_applied: u64,
    /// Largest torn-tail residue a reopen found (bytes of a partial frame).
    pub torn_tail_bytes: usize,
    /// Whether any reopen discarded a corrupt snapshot.
    pub snapshot_discarded: bool,
    /// Whether any reboot found an engine checkpoint it could not decode
    /// and booted without it (every `REPLACE` pin and monitor state lost).
    pub checkpoint_discarded: bool,
    /// Whether any reopen was tainted (corrupt snapshot, WAL frame or
    /// engine checkpoint).
    pub tainted: bool,
}

/// The E10 sweep: the four crash-damage variants.
pub fn recovery_matrix() -> Vec<FaultKind> {
    vec![
        FaultKind::Crash,
        FaultKind::TornWrite { bytes: 9 },
        FaultKind::SnapshotCorrupt,
        FaultKind::CheckpointCorrupt,
    ]
}

/// One guardrail-node incarnation: what dies in a crash.
struct Node {
    /// `None` after a fail-closed escalation (safe mode: no monitors).
    engine: Option<MonitorEngine>,
    durable: Option<DurableStore>,
    store: Arc<guardrails::store::FeatureStore>,
    /// The per-I/O keys, interned in `store`.
    ml_enabled: Slot,
    false_submit_rate: Slot,
    /// Whether the learned variant is active in [`SLOT`], asked per I/O.
    slot_learned: VariantHandle,
    /// The engine checkpoint is encoded into this buffer, reused.
    checkpoint: Vec<u8>,
    /// `stats().violations` right after boot/restore, to delta against.
    violations_at_boot: u64,
}

enum NodeState {
    /// Boxed: a `Node` embeds the whole engine, dwarfing the `Down` variant.
    Up(Box<Node>),
    Down {
        until: Nanos,
        since: Nanos,
    },
}

struct Driver {
    durable: bool,
    backend: Arc<MemBackend>,
    recovery_cfg: RecoveryConfig,
    runtime: RuntimeConfig,
    report: RecoveryRunReport,
}

impl Driver {
    /// A driver for one run of the seed (`durable = false`) or the
    /// recovery runtime, with an empty medium and an empty report.
    fn new(label: String, durable: bool) -> Self {
        let recovery_cfg = RecoveryConfig::default();
        let runtime = if durable {
            RuntimeConfig::seed().with_recovery(recovery_cfg)
        } else {
            RuntimeConfig::seed()
        };
        Driver {
            durable,
            backend: Arc::new(MemBackend::new()),
            recovery_cfg,
            runtime,
            report: RecoveryRunReport {
                label,
                durable,
                crashes: 0,
                restarts: 0,
                failed_closed: false,
                downtime: Nanos::ZERO,
                skipped_ios: 0,
                rearmed_ios: 0,
                disabled_at: None,
                violations: 0,
                ml_enabled_at_end: false,
                slot_learned_at_end: false,
                healthy_latency_us: 0.0,
                post_crash_latency_us: 0.0,
                wal_records_applied: 0,
                torn_tail_bytes: 0,
                snapshot_discarded: false,
                checkpoint_discarded: false,
                tainted: false,
            },
        }
    }

    fn fresh_registry(&self) -> Arc<PolicyRegistry> {
        let registry = Arc::new(PolicyRegistry::new());
        registry
            .register(SLOT, &[VARIANT_LEARNED, "safe"])
            .expect("fresh registry");
        registry
            .set_default_variant(SLOT, "safe")
            .expect("just registered");
        registry
    }

    /// Boots a guardrail node at `at`. `first` runs init (boot defaults);
    /// reboots recover persisted state instead (recovery arm) or re-run
    /// init (seed arm — which is exactly how decisions get lost).
    fn boot(&mut self, at: Nanos, first: bool) -> Node {
        let registry = self.fresh_registry();
        let (store, durable) = if self.durable {
            let (durable, rec) =
                DurableStore::open(self.backend.clone(), self.recovery_cfg.durability)
                    .expect("in-memory backend cannot fail");
            self.report.wal_records_applied += rec.wal_records_applied;
            self.report.torn_tail_bytes = self.report.torn_tail_bytes.max(rec.torn_tail_bytes);
            self.report.snapshot_discarded |= rec.snapshot_corrupt;
            self.report.tainted |= rec.tainted();
            (durable.store(), Some(durable))
        } else {
            (Arc::new(guardrails::store::FeatureStore::new()), None)
        };
        let mut engine = MonitorEngine::with_parts(store.clone(), registry.clone());
        engine.apply_runtime(&self.runtime);
        engine.advance_to(at);
        engine
            .install_str(LISTING_2_SPEC)
            .expect("Listing 2 compiles");
        engine
            .install_str(FAILOVER_QUALITY_SPEC)
            .expect("failover-quality compiles");
        if self.durable && !first {
            if let Some(d) = &durable {
                let blob = d.load_checkpoint().expect("in-memory backend cannot fail");
                if !blob.is_empty() {
                    match EngineCheckpoint::decode(&blob) {
                        Ok(cp) => engine.restore(&cp).expect("same specs installed"),
                        // The monitors boot fresh: state that cannot be
                        // vouched for, so the recovery is tainted.
                        Err(_) => {
                            self.report.checkpoint_discarded = true;
                            self.report.tainted = true;
                        }
                    }
                }
            }
        }
        if !self.durable || first {
            // Init: enable the learned policy. On the seed runtime this
            // runs on *every* boot, silently re-arming a disabled model.
            store.save("ml_enabled", 1.0);
            store.save("false_submit_rate", 0.0);
        }
        if self.durable && !first && self.report.tainted {
            // Recovery found damage it cannot vouch for: boot in the
            // fail-closed posture rather than trusting partial state.
            fail_closed(&registry, &store, &["ml_enabled"]);
        }
        let violations_at_boot = engine.stats().violations;
        Node {
            engine: Some(engine),
            durable,
            ml_enabled: store.slot("ml_enabled"),
            false_submit_rate: store.slot("false_submit_rate"),
            store,
            slot_learned: registry.handle(SLOT, VARIANT_LEARNED),
            checkpoint: Vec::new(),
            violations_at_boot,
        }
    }

    /// Kills a node, applying the scenario's storage damage.
    fn crash(&mut self, node: Node, kind: &FaultKind) {
        self.report.crashes += 1;
        if let Some(engine) = &node.engine {
            self.report.violations += engine.stats().violations - node.violations_at_boot;
        }
        match kind {
            FaultKind::SnapshotCorrupt => {
                // Compact so the pre-crash state lives in the snapshot,
                // then rot it: the WAL suffix alone cannot reconstruct.
                if let Some(d) = &node.durable {
                    d.compact().expect("in-memory backend cannot fail");
                }
                drop(node);
                self.backend.corrupt_snapshot();
            }
            FaultKind::TornWrite { bytes } => {
                drop(node);
                if self.durable {
                    self.backend.tear_wal_tail(*bytes);
                }
            }
            FaultKind::CheckpointCorrupt => {
                drop(node);
                self.corrupt_checkpoint();
            }
            _ => drop(node),
        }
    }

    /// Crash damage: flips one bit in the middle of the persisted engine
    /// checkpoint (no-op when none was persisted).
    fn corrupt_checkpoint(&self) {
        let mut blob = self
            .backend
            .load(Region::Checkpoint)
            .expect("in-memory backend cannot fail");
        if !blob.is_empty() {
            let middle = blob.len() / 2;
            blob[middle] ^= 0x20;
            self.backend
                .replace(Region::Checkpoint, &blob)
                .expect("in-memory backend cannot fail");
        }
    }

    /// Enters safe mode after a fail-closed escalation: the persisted store
    /// is reopened (recovery arm) so telemetry survives, fallbacks are
    /// pinned, and no engine runs.
    fn safe_mode(&mut self) -> Node {
        let registry = self.fresh_registry();
        let (store, durable) = if self.durable {
            let (durable, rec) =
                DurableStore::open(self.backend.clone(), self.recovery_cfg.durability)
                    .expect("in-memory backend cannot fail");
            self.report.wal_records_applied += rec.wal_records_applied;
            self.report.tainted |= rec.tainted();
            (durable.store(), Some(durable))
        } else {
            (Arc::new(guardrails::store::FeatureStore::new()), None)
        };
        fail_closed(&registry, &store, &["ml_enabled"]);
        Node {
            engine: None,
            durable,
            ml_enabled: store.slot("ml_enabled"),
            false_submit_rate: store.slot("false_submit_rate"),
            store,
            slot_learned: registry.handle(SLOT, VARIANT_LEARNED),
            checkpoint: Vec::new(),
            violations_at_boot: 0,
        }
    }
}

/// Runs one crash-restart scenario to completion.
///
/// `kind` selects the storage damage ([`recovery_matrix`]); `durable`
/// selects the runtime under test (`false` = seed: no persistence, init on
/// every boot; `true` = recovery: [`DurableStore`] + engine checkpoint +
/// [`Supervisor`]). The same `seed` drives both arms, so every difference
/// is the runtime's.
///
/// # Panics
///
/// Panics if the guardrail specs fail to compile; they are constants, so
/// that would be a bug in this crate.
pub fn run_crash_scenario(kind: FaultKind, durable: bool, seed: u64) -> RecoveryRunReport {
    run_plan(fault_label(&kind), kind, &[CRASH_AT], durable, seed)
}

/// Runs `kind` under both runtimes with the same seed: `(seed, recovery)`.
pub fn run_crash_pair(kind: FaultKind, seed: u64) -> (RecoveryRunReport, RecoveryRunReport) {
    (
        run_crash_scenario(kind.clone(), false, seed),
        run_crash_scenario(kind, true, seed),
    )
}

/// The crash-loop scenario: three rapid crashes inside the supervisor's
/// rapid window. The recovery runtime escalates to fail-closed on the
/// third; the seed runtime just keeps rebooting (and re-arming the model).
pub fn run_crash_loop(durable: bool, seed: u64) -> RecoveryRunReport {
    let crashes = [
        CRASH_AT,
        CRASH_AT + Nanos::from_millis(300),
        CRASH_AT + Nanos::from_millis(600),
    ];
    run_plan(
        "crash_loop".to_string(),
        FaultKind::Crash,
        &crashes,
        durable,
        seed,
    )
}

/// The no-crash reference run (seed runtime, nothing injected): the
/// Figure 2 trajectory the recovery runtime should converge to.
pub fn run_no_crash_reference(seed: u64) -> RecoveryRunReport {
    run_plan("no_crash".to_string(), FaultKind::Crash, &[], false, seed)
}

fn run_plan(
    label: String,
    kind: FaultKind,
    crash_times: &[Nanos],
    durable: bool,
    seed: u64,
) -> RecoveryRunReport {
    let mut driver = Driver::new(label, durable);
    let mut supervisor = Supervisor::new();
    let mut datapath = Datapath::new(scenario_config(seed));
    let total = datapath.config().total();

    let mut state = NodeState::Up(Box::new(driver.boot(Nanos::ZERO, true)));
    let mut crash_idx = 0usize;
    let mut disabled_once = false;
    let mut ios = 0u64;
    // The array's counters at the first arrival at `CRASH_AT`, crashed or
    // not, so the no-crash reference measures the same window.
    let mut at_crash = None;

    while let Some(now) = datapath.next_arrival() {
        if at_crash.is_none() && now >= CRASH_AT {
            at_crash = Some(datapath.stats());
        }

        // Reboot if the backoff has elapsed.
        if let NodeState::Down { until, since } = state {
            if now >= until {
                driver.report.downtime += until.saturating_sub(since);
                driver.report.restarts += 1;
                supervisor.on_restarted();
                state = NodeState::Up(Box::new(driver.boot(until, false)));
            }
        }

        // Crash if one is due (the node is always up at the scheduled
        // instants; a crash while down would be absorbed by the outage).
        if let Some(&at) = crash_times.get(crash_idx) {
            if now >= at {
                if let NodeState::Up(node) = state {
                    driver.crash(*node, &kind);
                    crash_idx += 1;
                    // Monitor-side telemetry dies with the node.
                    datapath.forget_false_submits();
                    state = if durable {
                        match supervisor.on_crash(now) {
                            RestartDecision::Restart { at: t, .. } => NodeState::Down {
                                until: t,
                                since: now,
                            },
                            RestartDecision::FailClosed => {
                                driver.report.failed_closed = true;
                                NodeState::Up(Box::new(driver.safe_mode()))
                            }
                        }
                    } else {
                        NodeState::Down {
                            until: now + SEED_RESTART_DELAY,
                            since: now,
                        }
                    };
                } else {
                    crash_idx += 1;
                }
            }
        }

        let NodeState::Up(node) = &mut state else {
            // The node is down: the whole machine is out, arrivals drop.
            driver.report.skipped_ios += 1;
            continue;
        };

        if let Some(engine) = &mut node.engine {
            engine.advance_to(now);
        }

        // The datapath decision, gated by the (possibly restored) state.
        let gate_open = node.ml_enabled.flag() && node.slot_learned.is_active();
        let trained = datapath.is_trained();
        if !disabled_once && trained && !node.ml_enabled.flag() {
            disabled_once = true;
            driver.report.disabled_at = Some(now);
        }
        if disabled_once && trained && gate_open {
            driver.report.rearmed_ios += 1;
        }
        datapath.submit(now, gate_open);

        // Telemetry for Listing 2.
        if let Some(rate) = datapath.false_submit_rate() {
            node.store.save_slot(&node.false_submit_rate, rate);
        }

        ios += 1;
        if let (Some(durable_store), Some(engine)) = (&node.durable, &mut node.engine) {
            durable_store
                .maybe_compact()
                .expect("in-memory backend cannot fail");
            if ios.is_multiple_of(CHECKPOINT_EVERY) {
                engine.checkpoint_into(&mut node.checkpoint);
                durable_store
                    .save_checkpoint(&node.checkpoint)
                    .expect("in-memory backend cannot fail");
            }
        }
    }

    if let NodeState::Up(node) = &mut state {
        if let Some(engine) = &mut node.engine {
            engine.advance_to(total);
            driver.report.violations += engine.stats().violations - node.violations_at_boot;
        }
        driver.report.ml_enabled_at_end = node.ml_enabled.flag();
        driver.report.slot_learned_at_end = node.slot_learned.is_active();
    }
    let end = datapath.stats();
    driver.report.healthy_latency_us =
        PhaseStats::from_delta(datapath.stats_at_training(), datapath.stats_at_shift())
            .mean_latency_us;
    driver.report.post_crash_latency_us =
        PhaseStats::from_delta(at_crash.unwrap_or(end), end).mean_latency_us;
    driver.report
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0xF162;

    #[test]
    fn a_crash_loses_decisions_only_on_the_seed_runtime() {
        let reference = run_no_crash_reference(SEED);
        let (seed_run, recovered) = run_crash_pair(FaultKind::Crash, SEED);
        // Both arms had disabled the model before the crash.
        assert!(seed_run.disabled_at.expect("guardrail fired") < CRASH_AT);
        assert!(recovered.disabled_at.expect("guardrail fired") < CRASH_AT);
        // Seed: the reboot re-armed the model until re-detection.
        assert!(seed_run.rearmed_ios > 0, "seed runtime re-armed the model");
        assert!(!seed_run.ml_enabled_at_end, "but eventually re-disabled it");
        // Recovery: the decision survived; the model never came back.
        assert_eq!(recovered.rearmed_ios, 0, "no decision lost");
        assert!(!recovered.ml_enabled_at_end);
        assert!(!recovered.slot_learned_at_end, "REPLACE persisted");
        assert!(recovered.wal_records_applied > 0, "state came from the WAL");
        // Trajectory: the recovery run converges to the no-crash reference;
        // the seed run pays for the re-armed window.
        let ref_lat = reference.post_crash_latency_us;
        let recovered_gap = (recovered.post_crash_latency_us - ref_lat).abs() / ref_lat;
        let seed_gap = (seed_run.post_crash_latency_us - ref_lat).abs() / ref_lat;
        assert!(
            recovered_gap < 0.10,
            "recovery within 10% of no-crash: gap {recovered_gap:.3}"
        );
        assert!(
            seed_run.post_crash_latency_us > recovered.post_crash_latency_us,
            "seed {} vs recovered {}",
            seed_run.post_crash_latency_us,
            recovered.post_crash_latency_us
        );
        assert!(seed_gap > recovered_gap, "seed diverges more than recovery");
    }

    #[test]
    fn a_torn_wal_tail_is_repaired_without_taint() {
        let (_, recovered) = run_crash_pair(FaultKind::TornWrite { bytes: 9 }, SEED);
        assert!(recovered.torn_tail_bytes > 0, "the tear was detected");
        assert!(!recovered.tainted, "a torn tail is expected crash damage");
        assert_eq!(
            recovered.rearmed_ios, 0,
            "losing the torn record is harmless"
        );
        assert!(!recovered.ml_enabled_at_end);
        assert!(!recovered.slot_learned_at_end);
    }

    #[test]
    fn a_corrupt_snapshot_fails_closed() {
        let (_, recovered) = run_crash_pair(FaultKind::SnapshotCorrupt, SEED);
        assert!(recovered.snapshot_discarded, "bad checksum detected");
        assert!(recovered.tainted);
        // Fail-closed-on-taint: the model must not re-arm on unvouched
        // state, whatever the WAL suffix still holds.
        assert_eq!(recovered.rearmed_ios, 0);
        assert!(!recovered.ml_enabled_at_end);
        assert!(!recovered.slot_learned_at_end, "fallback pinned");
    }

    /// A checkpoint region that no longer decodes is recorded and taints
    /// the recovery, so the node reboots fail-closed (model off, fallback
    /// pinned) rather than with the learned policy armed, every monitor's
    /// state gone and a clean report.
    #[test]
    fn an_undecodable_checkpoint_taints_recovery_and_fails_closed() {
        let mut driver = Driver::new("checkpoint_corrupt".to_string(), true);
        let mut node = driver.boot(Nanos::ZERO, true);
        let engine = node.engine.as_mut().expect("booted with monitors");
        engine.checkpoint_into(&mut node.checkpoint);
        let durable = node.durable.as_ref().expect("the recovery runtime");
        durable.save_checkpoint(&node.checkpoint).unwrap();
        driver.crash(node, &FaultKind::CheckpointCorrupt);
        let blob = driver.backend.load(Region::Checkpoint).unwrap();
        assert!(!blob.is_empty(), "a checkpoint was persisted");
        assert!(EngineCheckpoint::decode(&blob).is_err(), "and rotted");

        let node = driver.boot(CRASH_AT, false);
        assert!(driver.report.checkpoint_discarded, "the loss is recorded");
        assert!(driver.report.tainted, "and taints the recovery");
        assert!(
            !driver.report.snapshot_discarded,
            "nothing else was damaged"
        );
        assert!(!node.ml_enabled.flag(), "fail-closed: the model is off");
        assert!(
            !node.slot_learned.is_active(),
            "fail-closed: fallback pinned"
        );
    }

    /// The E10 scenario: the crash rots the checkpoint the recovery runtime
    /// persisted; it reboots fail-closed, so no I/O re-arms the model.
    #[test]
    fn a_corrupt_checkpoint_scenario_fails_closed() {
        let (seed_run, recovered) = run_crash_pair(FaultKind::CheckpointCorrupt, SEED);
        assert!(
            !seed_run.checkpoint_discarded,
            "the seed runtime persists none"
        );
        assert!(recovered.checkpoint_discarded);
        assert!(recovered.tainted);
        assert!(!recovered.snapshot_discarded);
        assert_eq!(recovered.rearmed_ios, 0);
        assert!(!recovered.ml_enabled_at_end);
        assert!(!recovered.slot_learned_at_end, "fallback pinned");
    }

    #[test]
    fn a_crash_loop_escalates_to_fail_closed_only_under_the_supervisor() {
        let seed_run = run_crash_loop(false, SEED);
        let recovered = run_crash_loop(true, SEED);
        // Seed: blind restart loop; the model re-arms after every reboot.
        assert_eq!(seed_run.crashes, 3);
        assert_eq!(seed_run.restarts, 3);
        assert!(!seed_run.failed_closed);
        assert!(seed_run.rearmed_ios > 0);
        // Recovery: two backed-off restarts, then the third rapid crash
        // escalates; the system keeps serving on the pinned fallback.
        assert_eq!(recovered.crashes, 3);
        assert_eq!(recovered.restarts, 2);
        assert!(recovered.failed_closed);
        assert_eq!(recovered.rearmed_ios, 0);
        assert!(!recovered.ml_enabled_at_end);
        assert!(!recovered.slot_learned_at_end);
        assert!(
            recovered.post_crash_latency_us < seed_run.post_crash_latency_us,
            "recovered {} vs seed {}",
            recovered.post_crash_latency_us,
            seed_run.post_crash_latency_us
        );
    }

    #[test]
    fn scenario_runs_are_deterministic() {
        for durable in [false, true] {
            let a = run_crash_scenario(FaultKind::Crash, durable, SEED);
            let b = run_crash_scenario(FaultKind::Crash, durable, SEED);
            assert_eq!(a, b);
        }
        assert_eq!(run_crash_loop(true, SEED), run_crash_loop(true, SEED));
    }
}
