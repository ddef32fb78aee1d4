//! The scheduling simulation: starvation under a learned scheduler, and the
//! P6 guardrail that bounds it with `DEPRIORITIZE`.

use guardrails::action::Command;
use guardrails::monitor::MonitorEngine;
use guardrails::{Telemetry, TelemetrySnapshot};
use simkernel::{JainIndex, Nanos, Priority, TaskId};

use crate::cfs::CfsScheduler;
use crate::learned::LearnedScheduler;
use crate::task::{SchedTask, TaskSpec};
use crate::Scheduler;

/// Which policy drives the CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulerKind {
    /// The CFS-like weighted-fair baseline.
    Cfs,
    /// The learned shortest-predicted-burst scheduler.
    Learned,
}

/// The paper-style P6 guardrail used by [`run_sched_sim`] when enabled:
/// "No ready task should be starved for more than 100ms" (§2), checked
/// every 10ms, correcting by demoting the dominant task.
pub const P6_GUARDRAIL: &str = r#"
guardrail no-starvation {
    trigger: { TIMER(0, 10ms) },
    rule: { LOAD(sched.max_wait_ns) <= 100ms },
    action: {
        REPORT("task starved beyond bound", sched.max_wait_ns, sched.dominant)
        DEPRIORITIZE(sched.dominant, 10)
    }
}
"#;

/// Configuration of the scheduling simulation.
#[derive(Clone, Debug)]
pub struct SchedSimConfig {
    /// RNG seed.
    pub seed: u64,
    /// Simulated duration.
    pub duration: Nanos,
    /// Scheduling quantum.
    pub quantum: Nanos,
    /// Number of interactive (short-burst) tasks.
    pub interactive_tasks: usize,
    /// Number of batch (long-burst) tasks.
    pub batch_tasks: usize,
    /// The policy under test.
    pub scheduler: SchedulerKind,
    /// Install the P6 starvation guardrail?
    pub with_guardrail: bool,
    /// Metric publication period.
    pub publish_every: Nanos,
    /// Interval at which applied demotions decay one nice step back toward
    /// the task's base priority. `DEPRIORITIZE` is a temporary penalty: if
    /// demotions were permanent, every task would eventually saturate at the
    /// lowest priority and the guardrail's only lever would stop working.
    /// `Nanos::ZERO` disables decay.
    pub decay_every: Nanos,
}

impl Default for SchedSimConfig {
    fn default() -> Self {
        SchedSimConfig {
            seed: 0x5C_4ED,
            duration: Nanos::from_secs(2),
            quantum: Nanos::from_millis(1),
            interactive_tasks: 6,
            batch_tasks: 2,
            scheduler: SchedulerKind::Learned,
            with_guardrail: false,
            publish_every: Nanos::from_millis(5),
            decay_every: Nanos::from_millis(25),
        }
    }
}

/// Per-task summary in the report.
#[derive(Clone, Debug)]
pub struct TaskSummary {
    /// The task id.
    pub id: TaskId,
    /// `true` for batch tasks.
    pub batch: bool,
    /// Total CPU received.
    pub cpu_time: Nanos,
    /// Longest ready-to-run wait observed.
    pub max_wait: Nanos,
    /// Final priority.
    pub final_priority: Priority,
    /// Whether the task was killed by a command.
    pub killed: bool,
}

/// The output of one scheduling run.
#[derive(Clone, Debug)]
pub struct SchedReport {
    /// The policy that ran.
    pub scheduler: &'static str,
    /// Per-task summaries.
    pub tasks: Vec<TaskSummary>,
    /// The longest wait suffered by any batch task.
    pub batch_max_wait: Nanos,
    /// The longest wait suffered by any task.
    pub max_wait: Nanos,
    /// Jain fairness index over per-task CPU time.
    pub jain: f64,
    /// Violations recorded by the engine.
    pub violations: usize,
    /// `DEPRIORITIZE` commands applied.
    pub commands_applied: usize,
    /// Deterministic engine telemetry counters for the run.
    pub telemetry: TelemetrySnapshot,
}

/// Runs the scheduling scenario and reports.
///
/// # Panics
///
/// Panics if the built-in guardrail spec fails to compile (a crate bug).
pub fn run_sched_sim(config: SchedSimConfig) -> SchedReport {
    let mut engine = MonitorEngine::new();
    engine.set_telemetry(Telemetry::new());
    if config.with_guardrail {
        engine.install_str(P6_GUARDRAIL).expect("P6 spec compiles");
    }
    let store = engine.store();

    let mut tasks: Vec<SchedTask> = Vec::new();
    for i in 0..config.interactive_tasks {
        tasks.push(SchedTask::new(
            TaskId(i as u64),
            TaskSpec::interactive(),
            config.seed ^ (i as u64),
        ));
    }
    for i in 0..config.batch_tasks {
        let id = (config.interactive_tasks + i) as u64;
        tasks.push(SchedTask::new(
            TaskId(id),
            TaskSpec::batch(),
            config.seed ^ id,
        ));
    }
    let is_batch = |id: TaskId| id.0 >= config.interactive_tasks as u64;

    let mut cfs = CfsScheduler::new();
    let mut learned = LearnedScheduler::new();
    let mut now = Nanos::ZERO;
    let mut next_publish = Nanos::ZERO;
    let mut window_cpu: std::collections::HashMap<TaskId, u64> = Default::default();
    let mut commands_applied = 0usize;
    let mut observed_max_wait: std::collections::HashMap<TaskId, Nanos> = Default::default();

    let mut next_decay = config.decay_every;
    // Reused command buffer: the engine is polled every publish tick and is
    // almost always empty, so draining must not allocate per poll.
    let mut cmd_buf = Vec::new();

    while now < config.duration {
        // Decay applied demotions back toward each task's base priority, so
        // corrective pressure is proportional to *ongoing* misbehaviour.
        if config.decay_every > Nanos::ZERO && now >= next_decay {
            for t in tasks.iter_mut() {
                if t.priority.nice() > t.spec.priority.nice() {
                    t.priority = Priority::new(t.priority.nice() - 1);
                }
            }
            next_decay = now + config.decay_every;
        }
        // Publish metrics and service the monitor engine.
        if now >= next_publish {
            // Live starvation: the longest wait currently being suffered by a
            // ready task. (Publishing the all-time max would latch the rule
            // violated forever after one bad episode.)
            let max_wait = tasks
                .iter()
                .map(|t| t.current_wait(now))
                .max()
                .unwrap_or(Nanos::ZERO);
            for t in &tasks {
                let e = observed_max_wait.entry(t.id).or_insert(Nanos::ZERO);
                *e = (*e).max(t.current_wait(now)).max(t.max_wait);
            }
            let dominant = window_cpu
                .iter()
                .max_by_key(|(_, &cpu)| cpu)
                .map(|(&id, _)| id);
            store.save("sched.max_wait_ns", max_wait.as_nanos() as f64);
            if let Some(d) = dominant {
                store.save("sched.dominant", d.0 as f64);
            }
            let shares: Vec<f64> = tasks.iter().map(|t| t.cpu_time.as_nanos() as f64).collect();
            store.save("sched.jain", JainIndex::of(&shares));
            window_cpu.clear();
            engine.advance_to(now);
            engine.drain_commands_into(&mut cmd_buf);
            for (_, command) in cmd_buf.drain(..) {
                if let Command::Deprioritize { target, steps, .. } = command {
                    let victim = if target == "sched.dominant" {
                        store.load("sched.dominant").map(|v| TaskId(v as u64))
                    } else {
                        target
                            .strip_prefix("task-")
                            .and_then(|s| s.parse().ok())
                            .map(TaskId)
                    };
                    if let Some(id) = victim {
                        if let Some(task) = tasks.iter_mut().find(|t| t.id == id && !t.dead) {
                            if steps >= 40 {
                                task.dead = true;
                            } else {
                                task.priority = task.priority.demoted(steps);
                            }
                            commands_applied += 1;
                        }
                    }
                }
            }
            next_publish = now + config.publish_every;
        }

        let ready: Vec<&SchedTask> = tasks.iter().filter(|t| t.is_ready(now)).collect();
        if ready.is_empty() {
            let next = tasks
                .iter()
                .filter(|t| !t.dead)
                .map(|t| t.ready_at)
                .min()
                .unwrap_or(config.duration);
            now = next.max(now + Nanos::from_micros(10)).min(config.duration);
            continue;
        }
        let idx = match config.scheduler {
            SchedulerKind::Cfs => cfs.pick(&ready, now),
            SchedulerKind::Learned => learned.pick(&ready, now),
        };
        let picked = ready[idx].id;
        let task = tasks
            .iter_mut()
            .find(|t| t.id == picked)
            .expect("picked task exists");
        task.account_wait(now);
        let run = config.quantum.min(task.remaining);
        now += run;
        let done = task.account_run(run, now);
        *window_cpu.entry(picked).or_insert(0) += run.as_nanos();
        match config.scheduler {
            SchedulerKind::Cfs => cfs.observe(picked, run, done),
            SchedulerKind::Learned => learned.observe(picked, run, done),
        }
    }
    engine.advance_to(config.duration);

    let summaries: Vec<TaskSummary> = tasks
        .iter()
        .map(|t| TaskSummary {
            id: t.id,
            batch: is_batch(t.id),
            cpu_time: t.cpu_time,
            max_wait: observed_max_wait
                .get(&t.id)
                .copied()
                .unwrap_or(Nanos::ZERO)
                .max(t.max_wait)
                .max(t.current_wait(config.duration)),
            final_priority: t.priority,
            killed: t.dead,
        })
        .collect();
    let batch_max_wait = summaries
        .iter()
        .filter(|s| s.batch)
        .map(|s| s.max_wait)
        .max()
        .unwrap_or(Nanos::ZERO);
    let max_wait = summaries
        .iter()
        .map(|s| s.max_wait)
        .max()
        .unwrap_or(Nanos::ZERO);
    let shares: Vec<f64> = summaries
        .iter()
        .map(|s| s.cpu_time.as_nanos() as f64)
        .collect();
    SchedReport {
        scheduler: match config.scheduler {
            SchedulerKind::Cfs => "cfs",
            SchedulerKind::Learned => "learned-sjf",
        },
        tasks: summaries,
        batch_max_wait,
        max_wait,
        jain: JainIndex::of(&shares),
        violations: engine.stats().violations as usize,
        commands_applied,
        telemetry: engine.telemetry_snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfs_does_not_starve_batch_tasks() {
        let report = run_sched_sim(SchedSimConfig {
            scheduler: SchedulerKind::Cfs,
            ..SchedSimConfig::default()
        });
        assert!(
            report.batch_max_wait < Nanos::from_millis(100),
            "cfs batch wait {}",
            report.batch_max_wait
        );
        assert_eq!(report.violations, 0);
        assert_eq!(report.scheduler, "cfs");
    }

    #[test]
    fn learned_sjf_starves_batch_tasks() {
        let report = run_sched_sim(SchedSimConfig::default());
        assert!(
            report.batch_max_wait > Nanos::from_millis(200),
            "expected starvation, got {}",
            report.batch_max_wait
        );
        // And the batch tasks are squeezed: they only run in the gaps when
        // every interactive task is thinking, well under their fair share
        // (2 of 8 equal-priority tasks with by far the most demand).
        let batch_cpu: Nanos = report
            .tasks
            .iter()
            .filter(|t| t.batch)
            .map(|t| t.cpu_time)
            .sum();
        let total_cpu: Nanos = report.tasks.iter().map(|t| t.cpu_time).sum();
        assert!(
            batch_cpu.as_nanos() * 3 < total_cpu.as_nanos(),
            "batch got {batch_cpu} of {total_cpu}"
        );
    }

    #[test]
    fn p6_guardrail_bounds_starvation() {
        let unguarded = run_sched_sim(SchedSimConfig::default());
        let guarded = run_sched_sim(SchedSimConfig {
            with_guardrail: true,
            ..SchedSimConfig::default()
        });
        assert!(guarded.violations > 0, "guardrail must fire");
        assert!(guarded.commands_applied > 0, "deprioritize must apply");
        assert!(
            guarded.batch_max_wait < unguarded.batch_max_wait / 2,
            "guarded {} vs unguarded {}",
            guarded.batch_max_wait,
            unguarded.batch_max_wait
        );
        // Fairness improves too.
        assert!(
            guarded.jain > unguarded.jain,
            "{} vs {}",
            guarded.jain,
            unguarded.jain
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_sched_sim(SchedSimConfig::default());
        let b = run_sched_sim(SchedSimConfig::default());
        assert_eq!(a.batch_max_wait, b.batch_max_wait);
        assert_eq!(a.jain, b.jain);
        assert_eq!(a.telemetry, b.telemetry, "telemetry counters determinize");
    }
}
