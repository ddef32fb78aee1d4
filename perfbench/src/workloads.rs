//! The four workloads. Each builds its inputs from the run's seed once and
//! checks every round's outputs: `ingest` and `healthy` against counts
//! computed from the inputs without the runtime, `linnos` and `durable`
//! against the claims of the experiments whose library calls they time.

use std::sync::Arc;

use guardrails::fault::FaultKind;
use guardrails::monitor::engine::{FnEvent, MonitorEngine};
use guardrails::policy::VARIANT_LEARNED;
use guardrails::spec::ast::AggKind;
use guardrails::{FeatureStore, PolicyRegistry, RecoveryConfig, RuntimeConfig, Telemetry};
use simkernel::Nanos;
use storagesim::faultsim::FAILOVER_QUALITY_SPEC;
use storagesim::recovery::{run_crash_scenario, run_no_crash_reference, RecoveryRunReport};
use storagesim::sim::{SimReport, LISTING_2_SPEC};
use storagesim::{LinnosSim, LinnosSimConfig, Workload as Arrivals, WorkloadConfig};

use crate::{timed, Counts, Recorder, SetupPhases, Workload, BATCH};

/// The tracepoint every synthetic event fires.
const HOOK: &str = "io_submit";

/// SplitMix64: the only source of randomness in the inputs.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> f64 {
        (self.next() % n) as f64
    }
}

fn check(what: &str, got: f64, want: f64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, want {want}"))
    }
}

fn claim(what: &str, holds: bool) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(format!("claim failed: {what}"))
    }
}

/// Arrivals a LinnOS run submits: the arrival process alone fixes them.
/// `seed` is the run's seed; the simulators derive the arrival stream from
/// it the same way.
fn arrivals(
    before: WorkloadConfig,
    after: WorkloadConfig,
    seed: u64,
    shift_at: Nanos,
    total: Nanos,
) -> u64 {
    let mut arrivals = Arrivals::new(before, seed ^ 0xAB);
    let mut count = 0;
    loop {
        let now = arrivals.next_arrival();
        if now >= total {
            return count;
        }
        if now >= shift_at {
            arrivals.set_config(after);
        }
        count += 1;
    }
}

// ---------------------------------------------------------------------------
// ingest / healthy
// ---------------------------------------------------------------------------

/// The hot-path ingestion experiment's monitors: four on the hot hook (two
/// argument rules, a store-read rule, and a rule that always holds) plus
/// two bystanders on hooks that never fire.
const INGEST_SPECS: &str = r#"
guardrail io-size { trigger: { FUNCTION(io_submit) }, rule: { ARG(0) <= 4096 }, action: { RECORD(oversized, 1) } }
guardrail io-latency { trigger: { FUNCTION(io_submit) }, rule: { ARG(1) < 900 }, action: { RECORD(slow_ios, 1) } }
guardrail queue-depth { trigger: { FUNCTION(io_submit) }, rule: { LOAD(qdepth) < 64 }, action: { RECORD(deep_queue, 1) } }
guardrail sane-size { trigger: { FUNCTION(io_submit) }, rule: { ARG(0) >= 0 }, action: { RECORD(negative_size, 1) } }
guardrail bystander-a { trigger: { FUNCTION(mem_place) }, rule: { ARG(0) < 1e9 }, action: { RECORD(a_hits, 1) } }
guardrail bystander-b { trigger: { FUNCTION(net_poll) }, rule: { ARG(0) < 1e9 }, action: { RECORD(b_hits, 1) } }
"#;

const INGEST_EVENTS: usize = 100_000;
const INGEST_HOT_MONITORS: u64 = 4;
/// The stream spans 0.1 s of event time, well inside the store's default
/// series retention (120 s, 65 536 samples), so every `RECORD` stays
/// countable.
const SERIES_WINDOW: Nanos = Nanos::from_secs(120);

/// Batched ingestion of I/O submissions, `(size, latency)` per event, with
/// the host sampling the queue depth once per batch.
pub struct Ingest {
    events: Vec<[f64; 2]>,
    /// Queue depth the host saves before each batch (always below the
    /// `queue-depth` limit, so only the argument rules can fail).
    qdepth: Vec<f64>,
    oversized: u64,
    slow_ios: u64,
}

/// The runtime of one ingestion round.
pub struct IngestRig {
    engine: MonitorEngine,
    store: Arc<FeatureStore>,
}

impl Ingest {
    /// About 12% of events break a rule: 2.3% are oversized, 10% slow.
    pub fn violating(seed: u64) -> Self {
        Self::generate(seed, 4200, 1000)
    }

    /// No event breaks a rule, so violation records and actions never run.
    pub fn healthy(seed: u64) -> Self {
        Self::generate(seed, 4097, 900)
    }

    fn generate(seed: u64, sizes: u64, latencies: u64) -> Self {
        let mut rng = Rng::new(seed, 0xE11);
        let events: Vec<[f64; 2]> = (0..INGEST_EVENTS)
            .map(|_| [rng.below(sizes), rng.below(latencies)])
            .collect();
        let qdepth = (0..INGEST_EVENTS.div_ceil(BATCH))
            .map(|_| rng.below(64))
            .collect();
        let oversized = events.iter().filter(|[size, _]| *size > 4096.0).count() as u64;
        let slow_ios = events.iter().filter(|[_, lat]| *lat >= 900.0).count() as u64;
        Ingest {
            events,
            qdepth,
            oversized,
            slow_ios,
        }
    }

    /// Event time of the stream's last event.
    fn end(&self) -> Nanos {
        Nanos::from_micros(self.events.len() as u64)
    }
}

impl Workload for Ingest {
    type Rig = IngestRig;

    fn events(&self) -> u64 {
        self.events.len() as u64
    }

    fn setup(&self) -> (IngestRig, SetupPhases) {
        let mut phases = SetupPhases::default();
        let store = timed(&mut phases.store, || Arc::new(FeatureStore::new()));
        let mut engine = timed(&mut phases.other, || {
            let mut engine =
                MonitorEngine::with_parts(Arc::clone(&store), Arc::new(PolicyRegistry::new()));
            engine.set_telemetry(Telemetry::new());
            engine
        });
        timed(&mut phases.install, || {
            engine
                .install_str(INGEST_SPECS)
                .expect("benchmark specs compile and install")
        });
        (IngestRig { engine, store }, phases)
    }

    fn run(&self, rig: &mut IngestRig, rec: &mut Recorder) {
        let IngestRig { engine, store } = rig;
        let mut commands = Vec::new();
        let mut batch: Vec<FnEvent<'_>> = Vec::with_capacity(BATCH);
        let mut now = Nanos::ZERO;
        for (chunk, &qdepth) in self.events.chunks(BATCH).zip(&self.qdepth) {
            rec.store(|| store.save("qdepth", qdepth));
            batch.clear();
            let base = now;
            batch.extend(chunk.iter().enumerate().map(|(i, args)| FnEvent {
                now: base + Nanos::from_micros(i as u64 + 1),
                args: &args[..],
            }));
            now = base + Nanos::from_micros(chunk.len() as u64);
            rec.engine(|| engine.on_function_batch(HOOK, &batch));
            rec.outbox(|| {
                commands.clear();
                engine.drain_commands_into(&mut commands);
            });
        }
    }

    fn verify(&self, rig: IngestRig) -> Result<Counts, String> {
        let stats = rig.engine.stats();
        let evaluations = INGEST_HOT_MONITORS * self.events.len() as u64;
        let violations = self.oversized + self.slow_ios;
        check("evaluations", stats.evaluations as f64, evaluations as f64)?;
        check("violations", stats.violations as f64, violations as f64)?;
        check("trips", stats.trips as f64, violations as f64)?;
        check("commands", stats.commands_emitted as f64, 0.0)?;
        // The RECORD actions' own output: one sample per broken rule, in the
        // series that rule names, and no series for rules that always hold.
        let end = self.end();
        let count = |key| rig.store.aggregate(AggKind::Count, key, SERIES_WINDOW, end);
        check(
            "oversized samples",
            count("oversized"),
            self.oversized as f64,
        )?;
        check("slow_ios samples", count("slow_ios"), self.slow_ios as f64)?;
        let keys = rig.store.keys();
        for (key, expected) in [
            ("oversized", self.oversized > 0),
            ("slow_ios", self.slow_ios > 0),
            ("deep_queue", false),
            ("negative_size", false),
            ("a_hits", false),
            ("b_hits", false),
        ] {
            let present = keys.iter().any(|k| k == key);
            claim(
                &format!("series {key} exists iff its rule broke"),
                present == expected,
            )?;
        }
        Ok(Counts {
            evaluations: stats.evaluations,
            eval_wall_ns: stats.eval_wall_ns,
            ..Counts::default()
        })
    }
}

// ---------------------------------------------------------------------------
// linnos
// ---------------------------------------------------------------------------

/// The paper's Figure-2 run: `storagesim::LinnosSim` (LinnOS on a
/// two-replica flash array with the Listing 2 guardrail), built and run
/// whole by the library. Set-up is `LinnosSim::new`, the timed stream is
/// `LinnosSim::run`.
pub struct Linnos {
    config: LinnosSimConfig,
    /// I/Os one run submits.
    ios: u64,
    /// The first run's report; every later run must reproduce it.
    expected: SimReport,
}

/// One Figure-2 simulator, and its report once it has run.
pub struct LinnosRig {
    sim: Option<LinnosSim>,
    report: Option<SimReport>,
}

/// The Figure-2 claims a guarded run must show: the guardrail fires after
/// the distribution shift and turns the model off for good.
fn figure_2_claims(config: &LinnosSimConfig, report: &SimReport) -> Result<(), String> {
    let fired = report.guardrail_triggered_at;
    claim(
        "the guardrail fires after the shift",
        fired.is_some_and(|at| at >= config.shift_at()),
    )?;
    claim("the model is off at the end", !report.ml_enabled_at_end)?;
    claim(
        "telemetry saw every violation",
        report.telemetry.violations as usize >= report.violations && report.violations > 0,
    )
}

/// Report fields that must repeat exactly between runs on one seed.
fn same_run(a: &SimReport, b: &SimReport) -> bool {
    a.series == b.series
        && a.guardrail_triggered_at == b.guardrail_triggered_at
        && a.violations == b.violations
        && a.ml_enabled_at_end == b.ml_enabled_at_end
        && a.telemetry == b.telemetry
        && [a.healthy, a.shifted]
            .iter()
            .zip([b.healthy, b.shifted].iter())
            .all(|(x, y)| x.ios == y.ios && x.mean_latency_us == y.mean_latency_us)
}

impl Linnos {
    /// The default Figure-2 scenario with devices and arrivals seeded from
    /// `seed`. Runs it once guarded and once unguarded and checks the
    /// figure's claims: the guarded run behaves as above and beats the
    /// unguarded one after the shift.
    pub fn new(seed: u64) -> Result<Self, String> {
        let config = LinnosSimConfig {
            seed: Rng::new(seed, 0xF162).next(),
            with_guardrail: true,
            ..LinnosSimConfig::default()
        };
        let expected = LinnosSim::new(config.clone()).run();
        figure_2_claims(&config, &expected)?;
        let unguarded = LinnosSim::new(LinnosSimConfig {
            with_guardrail: false,
            ..config.clone()
        })
        .run();
        claim(
            "the guarded run beats the unguarded one after the shift",
            expected.shifted.mean_latency_us < unguarded.shifted.mean_latency_us,
        )?;
        let ios = arrivals(
            config.workload,
            config.shifted_workload,
            config.seed,
            config.shift_at(),
            config.total(),
        );
        Ok(Linnos {
            config,
            ios,
            expected,
        })
    }
}

impl Workload for Linnos {
    type Rig = LinnosRig;

    fn events(&self) -> u64 {
        self.ios
    }

    fn setup(&self) -> (LinnosRig, SetupPhases) {
        let mut phases = SetupPhases::default();
        let sim = timed(&mut phases.other, || LinnosSim::new(self.config.clone()));
        let rig = LinnosRig {
            sim: Some(sim),
            report: None,
        };
        (rig, phases)
    }

    fn run(&self, rig: &mut LinnosRig, _rec: &mut Recorder) {
        let sim = rig.sim.take().expect("a round runs its simulator once");
        rig.report = Some(sim.run());
    }

    fn verify(&self, rig: LinnosRig) -> Result<Counts, String> {
        let report = rig.report.ok_or("the simulator did not run")?;
        figure_2_claims(&self.config, &report)?;
        claim(
            "the run reproduces the first run on this seed",
            same_run(&report, &self.expected),
        )?;
        claim(
            "the phases served no more I/Os than arrived",
            report.healthy.ios + report.shifted.ios <= self.ios,
        )?;
        Ok(Counts {
            evaluations: report.telemetry.evaluations,
            ..Counts::default()
        })
    }
}

// ---------------------------------------------------------------------------
// durable
// ---------------------------------------------------------------------------

/// `storagesim::recovery`'s distribution shift and run length (E10).
const E10_SHIFT_AT: Nanos = Nanos::from_secs(5);
const E10_TOTAL: Nanos = Nanos::from_secs(14);
/// The policy slot E10's failover-quality guardrail `REPLACE`s.
const E10_SLOT: &str = "io_submit";

/// Experiment E10's clean-crash scenario on the recovery runtime: LinnOS on
/// a `DurableStore` (WAL + snapshot), an engine checkpoint every 200 I/Os,
/// a crash at 8 s, and a reboot that replays the log and restores the
/// checkpoint. The timed stream is one `run_crash_scenario(Crash, durable)`.
pub struct Durable {
    seed: u64,
    ios: u64,
    /// The first run's report; every later run must reproduce it.
    expected: RecoveryRunReport,
}

/// A booted recovery-runtime node (the set-up), and the scenario's report
/// once it has run.
pub struct DurableRig {
    _node: (guardrails::DurableStore, MonitorEngine),
    report: Option<RecoveryRunReport>,
    /// Wall time of the same crash on the seed runtime (tracing only).
    seed_runtime_ns: u64,
}

/// E10's claims for the recovery runtime, given the no-crash reference.
fn recovery_claims(run: &RecoveryRunReport, reference: &RecoveryRunReport) -> Result<(), String> {
    claim(
        "one crash and one restart",
        run.crashes == 1 && run.restarts == 1,
    )?;
    claim(
        "no fail-closed escalation",
        !run.failed_closed && !run.tainted,
    )?;
    claim("state came back from the WAL", run.wal_records_applied > 0)?;
    claim("no guardrail decision was lost", run.rearmed_ios == 0)?;
    claim(
        "the model stays off and the REPLACE stays pinned",
        !run.ml_enabled_at_end && !run.slot_learned_at_end,
    )?;
    claim(
        "the model was turned off when the reference run turned it off",
        run.disabled_at == reference.disabled_at,
    )?;
    let gap = (run.post_crash_latency_us - reference.post_crash_latency_us).abs()
        / reference.post_crash_latency_us;
    claim(
        "post-crash latency within 10% of the no-crash run",
        gap < 0.10,
    )
}

impl Durable {
    /// The E10 crash on a scenario seed drawn from `seed`. Runs the
    /// no-crash reference, both runtimes through the crash, and checks
    /// E10's claims: the recovery runtime loses no decision and tracks the
    /// reference, the seed runtime loses some.
    pub fn new(seed: u64) -> Result<Self, String> {
        let seed = Rng::new(seed, 0xE10).next();
        let reference = run_no_crash_reference(seed);
        let expected = run_crash_scenario(FaultKind::Crash, true, seed);
        recovery_claims(&expected, &reference)?;
        let seed_runtime = run_crash_scenario(FaultKind::Crash, false, seed);
        claim(
            "the seed runtime re-arms the model after the crash",
            seed_runtime.rearmed_ios > 0,
        )?;
        let base = LinnosSimConfig::default();
        let ios = arrivals(
            base.workload,
            base.shifted_workload,
            seed,
            E10_SHIFT_AT,
            E10_TOTAL,
        );
        Ok(Durable {
            seed,
            ios,
            expected,
        })
    }
}

impl Workload for Durable {
    type Rig = DurableRig;

    fn events(&self) -> u64 {
        self.ios
    }

    /// One first boot of the recovery runtime's node, as E10 boots it:
    /// open the durable store, build the engine with the recovery runtime
    /// configuration, install both guardrails. The scenario boots its own
    /// nodes inside the timed stream; this times that step on its own.
    fn setup(&self) -> (DurableRig, SetupPhases) {
        let recovery = RecoveryConfig::default();
        let mut phases = SetupPhases::default();
        let durable = timed(&mut phases.store, || {
            let backend = Arc::new(guardrails::MemBackend::new());
            guardrails::DurableStore::open(backend, recovery.durability)
                .expect("an empty in-memory store opens")
                .0
        });
        let mut engine = timed(&mut phases.other, || {
            let registry = Arc::new(PolicyRegistry::new());
            registry
                .register(E10_SLOT, &[VARIANT_LEARNED, "safe"])
                .expect("a fresh registry takes the slot");
            registry
                .set_default_variant(E10_SLOT, "safe")
                .expect("the slot was just registered");
            let mut engine = MonitorEngine::with_parts(durable.store(), registry);
            engine.apply_runtime(&RuntimeConfig::seed().with_recovery(recovery));
            engine
        });
        timed(&mut phases.install, || {
            for spec in [LISTING_2_SPEC, FAILOVER_QUALITY_SPEC] {
                engine.install_str(spec).expect("E10 specs compile");
            }
        });
        let rig = DurableRig {
            _node: (durable, engine),
            report: None,
            seed_runtime_ns: 0,
        };
        (rig, phases)
    }

    fn run(&self, rig: &mut DurableRig, rec: &mut Recorder) {
        rig.report = Some(run_crash_scenario(FaultKind::Crash, true, self.seed));
        if rec.tracing() {
            // The same crash without persistence, off the clock: the
            // difference is what the WAL, checkpoints and recovery cost.
            rig.seed_runtime_ns = rec.exclude(|| {
                let started = std::time::Instant::now();
                std::hint::black_box(run_crash_scenario(FaultKind::Crash, false, self.seed));
                started.elapsed().as_nanos() as u64
            });
        }
    }

    fn verify(&self, rig: DurableRig) -> Result<Counts, String> {
        let report = rig.report.ok_or("the scenario did not run")?;
        claim(
            "the run reproduces the first run on this seed",
            report == self.expected,
        )?;
        Ok(Counts {
            seed_runtime_ns: rig.seed_runtime_ns,
            ..Counts::default()
        })
    }
}
