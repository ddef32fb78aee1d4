//! Benchmark of the guardrail runtime.
//!
//! ```text
//! perfbench --workload <ingest|healthy|durable|linnos> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run builds its inputs from the seed, then repeats short *rounds* until
//! `--seconds` have passed. Each round sets the runtime up from scratch
//! (several times in a row, timed as set-up), feeds it the whole input
//! stream (timed), and checks its outputs. One warm-up round, checked like
//! the others, runs first and is not timed.
//!
//! Timings are taken from the least-disturbed round and scaled to a fixed
//! host speed. The host this was written on shares its cores with other
//! tenants whose load slows the process by up to 1.9x for stretches of
//! seconds to minutes. A run therefore reports the fastest round's cost per
//! event and the fastest round's median set-up (min-of-N, as the
//! repository's performance notes do), each scaled by how much slower than on the reference host a
//! fixed reference loop ran during the run (see [`Reference`]).
//!
//! With `--trace 0` the run reports the end-to-end metrics. With
//! `--trace 1` the run reports the per-layer metrics instead: `ingest` and
//! `healthy` time every call they make into a layer of the runtime (a span
//! per call, recorded by the caller, so the runtime itself is unchanged),
//! and `durable` also times the same crash on the runtime without
//! persistence. `linnos` and `durable` run the library's own simulation
//! loops, so their rounds carry no spans.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; a human summary goes to
//! standard error.

mod workloads;

use std::collections::HashMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::RwLock;
use std::time::{Duration, Instant};

/// Events the workloads deliver (and drain commands for) at a time.
pub const BATCH: usize = 256;

const USAGE: &str =
    "usage: perfbench --workload <ingest|healthy|durable|linnos> --seed <n> --seconds <s> --trace <0|1>";

/// Wall time of the three set-up phases of one round.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupPhases {
    /// Creating the feature store (on `durable`: recovering it from its WAL).
    pub store: Duration,
    /// Parsing, checking, compiling, verifying and installing the specs.
    pub install: Duration,
    /// Everything else the host builds (engine, simulator).
    pub other: Duration,
}

impl SetupPhases {
    fn total(&self) -> Duration {
        self.store + self.install + self.other
    }
}

/// Runs `f`, adding its wall time to `acc`.
pub fn timed<R>(acc: &mut Duration, f: impl FnOnce() -> R) -> R {
    let started = Instant::now();
    let out = f();
    *acc += started.elapsed();
    out
}

/// What a checked round did, for the per-layer counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Rule-set evaluations the engine performed.
    pub evaluations: u64,
    /// Wall time the engine itself measured while evaluating.
    pub eval_wall_ns: u64,
    /// Wall time of the `durable` scenario on the seed runtime (no
    /// persistence), measured off the clock when tracing.
    pub seed_runtime_ns: u64,
}

/// One benchmark workload: an input stream and the runtime it drives.
pub trait Workload {
    /// The runtime built for one round.
    type Rig;
    /// Events in one round's input stream.
    fn events(&self) -> u64;
    /// Builds the runtime for a round, timing its phases.
    fn setup(&self) -> (Self::Rig, SetupPhases);
    /// Feeds the round's whole input stream.
    fn run(&self, rig: &mut Self::Rig, rec: &mut Recorder);
    /// Checks the round's outputs; says what differs when they are wrong.
    fn verify(&self, rig: Self::Rig) -> Result<Counts, String>;
}

/// Span totals per layer, in nanoseconds (recorded only when tracing).
#[derive(Clone, Copy, Debug, Default)]
struct Spans {
    engine: u64,
    store: u64,
    outbox: u64,
}

/// Records the spans of one round, and the time to leave off its clock.
pub struct Recorder {
    trace: bool,
    spans: Spans,
    excluded: Duration,
}

#[inline(always)]
fn span<R>(trace: bool, acc: &mut u64, f: impl FnOnce() -> R) -> R {
    if !trace {
        return f();
    }
    let started = Instant::now();
    let out = f();
    *acc += started.elapsed().as_nanos() as u64;
    out
}

impl Recorder {
    fn new(trace: bool) -> Self {
        Recorder {
            trace,
            spans: Spans::default(),
            excluded: Duration::ZERO,
        }
    }

    /// A call into the monitor engine: hook dispatch, timer scheduling,
    /// the VM, the rules' store reads, violation records and actions.
    #[inline(always)]
    pub fn engine<R>(&mut self, f: impl FnOnce() -> R) -> R {
        span(self.trace, &mut self.spans.engine, f)
    }

    /// A call from the host into the feature store (and, on a durable
    /// store, its write-ahead log).
    #[inline(always)]
    pub fn store<R>(&mut self, f: impl FnOnce() -> R) -> R {
        span(self.trace, &mut self.spans.store, f)
    }

    /// Draining the engine's command outbox.
    #[inline(always)]
    pub fn outbox<R>(&mut self, f: impl FnOnce() -> R) -> R {
        span(self.trace, &mut self.spans.outbox, f)
    }

    /// Whether this round records spans and other per-layer figures.
    pub fn tracing(&self) -> bool {
        self.trace
    }

    /// Work that belongs to no event: off the clock.
    pub fn exclude<R>(&mut self, f: impl FnOnce() -> R) -> R {
        timed(&mut self.excluded, f)
    }
}

/// Fixed reference work, timed before every round.
///
/// It has the runtime's mix of work (string-keyed hash lookups under a
/// reader lock, float compares, a small allocation every few steps) and no
/// code from this repository, so no change to the runtime changes its cost.
/// Other tenants of the host slow it as they slow the runtime, so its
/// fastest pass measures how fast the host ran during the run.
struct Reference {
    table: RwLock<HashMap<String, f64>>,
    keys: Vec<String>,
}

impl Reference {
    const STEPS: usize = 20_000;

    fn new() -> Self {
        let keys: Vec<String> = (0..64).map(|i| format!("feature.{i:02}")).collect();
        let table = keys
            .iter()
            .zip(0..)
            .map(|(k, i)| (k.clone(), f64::from(i)))
            .collect();
        Reference {
            table: RwLock::new(table),
            keys,
        }
    }

    /// Nanoseconds per step of one pass.
    fn pass_ns(&self) -> f64 {
        let started = Instant::now();
        let mut acc = 0.0;
        let mut spilled = Vec::new();
        for i in 0..Self::STEPS {
            let key = &self.keys[i * 7 % self.keys.len()];
            let table = self.table.read().expect("nothing panics holding the lock");
            let value = table.get(key).copied().unwrap_or(0.0);
            drop(table);
            if value < 32.0 {
                acc += value;
            } else {
                acc -= value * 0.5;
            }
            if i % 16 == 0 {
                spilled.push(key.clone());
            }
        }
        black_box((acc, spilled));
        started.elapsed().as_nanos() as f64 / Self::STEPS as f64
    }
}

/// One checked round.
struct Round {
    /// The reference pass run just before this round.
    reference_ns: f64,
    run_ns: u64,
    events: u64,
    spans: Spans,
    setup: SetupPhases,
    counts: Counts,
}

impl Round {
    fn event_ns(&self) -> f64 {
        self.run_ns as f64 / self.events as f64
    }
}

/// Everything one run measured.
struct Outcome {
    rounds: Vec<Round>,
    failure: Option<String>,
    /// Events of the round that failed its check, if one did.
    failed: u64,
}

impl Outcome {
    /// A run whose inputs failed their check before any round ran.
    fn failed_inputs(failure: String) -> Self {
        Outcome {
            rounds: Vec::new(),
            failure: Some(failure),
            failed: 1,
        }
    }

    /// The round with the lowest cost per event.
    fn best(&self) -> Option<&Round> {
        self.rounds
            .iter()
            .min_by(|a, b| a.event_ns().total_cmp(&b.event_ns()))
    }

    /// The fastest value of a set-up phase across rounds.
    fn fastest_setup(&self, phase: impl Fn(&SetupPhases) -> Duration) -> f64 {
        self.rounds
            .iter()
            .map(|r| phase(&r.setup).as_secs_f64())
            .fold(f64::INFINITY, f64::min)
    }

    /// The run's fastest reference pass.
    fn fastest_reference(&self) -> f64 {
        self.rounds
            .iter()
            .map(|r| r.reference_ns)
            .fold(f64::INFINITY, f64::min)
    }

    fn attempted(&self) -> u64 {
        self.rounds.iter().map(|r| r.events).sum::<u64>() + self.failed
    }
}

/// Set-ups timed per round. One set-up takes tens of microseconds, where a
/// single cache miss storm or preemption shows; the median of a few in a
/// row does not.
const SETUPS_PER_ROUND: usize = 8;

/// Sets the runtime up [`SETUPS_PER_ROUND`] times, keeping the last rig and
/// the median set-up's phases.
fn setup_repeatedly<W: Workload>(workload: &W) -> (W::Rig, SetupPhases) {
    let mut phases = Vec::with_capacity(SETUPS_PER_ROUND);
    let (mut rig, first) = workload.setup();
    phases.push(first);
    while phases.len() < SETUPS_PER_ROUND {
        let (next, timed) = workload.setup();
        rig = next;
        phases.push(timed);
    }
    phases.sort_by_key(SetupPhases::total);
    (rig, phases[SETUPS_PER_ROUND / 2])
}

/// Runs the warm-up round, then timed rounds until `seconds` have passed
/// or a round fails its check.
fn measure<W: Workload>(workload: &W, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome {
        rounds: Vec::new(),
        failure: None,
        failed: 0,
    };
    let (mut rig, _) = workload.setup();
    workload.run(&mut rig, &mut Recorder::new(trace));
    if let Err(e) = workload.verify(rig) {
        out.failure = Some(format!("warm-up round: {e}"));
        out.failed = workload.events();
        return out;
    }
    let reference = Reference::new();
    reference.pass_ns();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while out.rounds.is_empty() || Instant::now() < deadline {
        let reference_ns = reference.pass_ns();
        let (mut rig, setup) = setup_repeatedly(workload);
        let mut rec = Recorder::new(trace);
        let started = Instant::now();
        workload.run(&mut rig, &mut rec);
        let run_ns = started.elapsed().saturating_sub(rec.excluded).as_nanos() as u64;
        match workload.verify(rig) {
            Ok(counts) => out.rounds.push(Round {
                reference_ns,
                run_ns,
                events: workload.events(),
                spans: rec.spans,
                setup,
                counts,
            }),
            Err(e) => {
                out.failure = Some(e);
                out.failed = workload.events();
                break;
            }
        }
    }
    out
}

/// Mean cost of one span's pair of clock reads, which every span includes.
fn clock_pair_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let mut total = Duration::ZERO;
    for _ in 0..PAIRS {
        let started = Instant::now();
        black_box(());
        total += started.elapsed();
    }
    total.as_nanos() as f64 / f64::from(PAIRS)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The reference's fastest pass, in ns per step, on the host the benchmark
/// was written on (a 2-vCPU Intel Xeon VM at 2.1 GHz, where quiet runs
/// measured 31–33). End-to-end timings are scaled to that host's speed; they
/// are only ever compared between commits, so the constant sets their
/// scale, not their ratios.
const REFERENCE_STEP_NS: f64 = 32.0;

/// Factor that takes a timing of this run to the reference host's speed.
fn host_scale(out: &Outcome) -> f64 {
    REFERENCE_STEP_NS / out.fastest_reference()
}

fn end_to_end(out: &Outcome, best: &Round) -> Vec<Metric> {
    let scale = host_scale(out);
    vec![
        metric("event_ns", best.event_ns() * scale, "ns"),
        metric(
            "setup_s",
            out.fastest_setup(SetupPhases::total) * scale,
            "s",
        ),
    ]
}

fn per_layer(out: &Outcome, best: &Round) -> Vec<Metric> {
    let c = best.counts;
    let events = best.events as f64;
    let spans = best.spans;
    let host = best
        .run_ns
        .saturating_sub(spans.engine + spans.store + spans.outbox);
    // Only `durable` times its scenario without persistence as well.
    let persistence = if c.seed_runtime_ns == 0 {
        0.0
    } else {
        best.run_ns.saturating_sub(c.seed_runtime_ns) as f64
    };
    vec![
        metric("engine_ns_per_event", spans.engine as f64 / events, "ns"),
        metric("store_ns_per_event", spans.store as f64 / events, "ns"),
        metric("outbox_ns_per_event", spans.outbox as f64 / events, "ns"),
        metric("host_ns_per_event", host as f64 / events, "ns"),
        metric("traced_event_ns", best.event_ns(), "ns"),
        metric("reference_step_ns", out.fastest_reference(), "ns"),
        metric(
            "eval_ns",
            c.eval_wall_ns as f64 / c.evaluations.max(1) as f64,
            "ns",
        ),
        metric("setup_store_s", out.fastest_setup(|s| s.store), "s"),
        metric("setup_install_s", out.fastest_setup(|s| s.install), "s"),
        metric(
            "evaluations_per_event",
            c.evaluations as f64 / events,
            "count",
        ),
        metric("persistence_ns_per_event", persistence / events, "ns"),
    ]
}

/// A JSON number with every digit of Rust's shortest round-trip form.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

fn report(out: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failure.is_none(),
        out.attempted(),
        out.failed,
        body.join(", ")
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn run_named(args: &Args) -> Result<Outcome, String> {
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let checked = |made: Result<Outcome, String>| made.unwrap_or_else(Outcome::failed_inputs);
    Ok(match args.workload.as_str() {
        "ingest" => measure(&workloads::Ingest::violating(seed), seconds, trace),
        "healthy" => measure(&workloads::Ingest::healthy(seed), seconds, trace),
        "durable" => checked(workloads::Durable::new(seed).map(|w| measure(&w, seconds, trace))),
        "linnos" => checked(workloads::Linnos::new(seed).map(|w| measure(&w, seconds, trace))),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

fn main() -> ExitCode {
    let (args, out) = match parse_args().and_then(|a| run_named(&a).map(|out| (a, out))) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(failure) = &out.failure {
        // Outputs were wrong: report it, but print no timings.
        eprintln!("perfbench: OUTPUT CHECK FAILED: {failure}");
        println!("{}", report(&out, &[]));
        return ExitCode::FAILURE;
    }
    let best = out.best().expect("a run without failures has a round");
    let metrics = if args.trace {
        per_layer(&out, best)
    } else {
        end_to_end(&out, best)
    };
    eprintln!(
        "perfbench: workload {} seed {}: {} rounds, {} events",
        args.workload,
        args.seed,
        out.rounds.len(),
        out.attempted()
    );
    for m in &metrics {
        eprintln!("  {:<24} {:>18.9} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  (fastest reference pass {:.3} ns/step; end-to-end timings scaled by {:.4}; raw event_ns {:.3})",
        out.fastest_reference(),
        host_scale(&out),
        best.event_ns()
    );
    if args.trace {
        let clock = clock_pair_ns();
        eprintln!("  (every span includes one pair of clock reads: {clock:.1} ns here)");
    }
    println!("{}", report(&out, &metrics));
    ExitCode::SUCCESS
}
