//! The learned shortest-predicted-burst scheduler.
//!
//! Predicting CPU burst lengths and running the shortest first minimizes
//! mean response time — a classic learned-scheduling win. It is also a
//! textbook liveness hazard: under a steady stream of short interactive
//! bursts, a long batch burst is *never* the shortest and starves. That is
//! exactly the P6 misbehaviour Figure 1 assigns to CPU scheduling, and the
//! scenario [`crate::sim`] reproduces.

use std::collections::HashMap;

use simkernel::{Nanos, TaskId};

use crate::task::SchedTask;
use crate::Scheduler;

/// Per-task burst-length predictor state.
#[derive(Clone, Copy, Debug)]
struct Predictor {
    /// EWMA of observed burst lengths, in nanoseconds.
    predicted: f64,
}

/// A scheduler that runs the task with the shortest predicted burst,
/// scaled by priority weight (so `DEPRIORITIZE` has a lever to pull).
#[derive(Debug)]
pub struct LearnedScheduler {
    predictors: HashMap<TaskId, Predictor>,
    /// Partial-burst accumulation (preempted bursts still teach us).
    running_burst: HashMap<TaskId, f64>,
    alpha: f64,
}

impl Default for LearnedScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl LearnedScheduler {
    /// Creates the scheduler with EWMA smoothing 0.3.
    pub fn new() -> Self {
        LearnedScheduler {
            predictors: HashMap::new(),
            running_burst: HashMap::new(),
            alpha: 0.3,
        }
    }

    /// The current burst prediction for `task` (optimistic default for
    /// unseen tasks, which is how SJF schedulers bootstrap).
    pub fn prediction(&self, task: TaskId) -> Nanos {
        Nanos::from_nanos(
            self.predictors
                .get(&task)
                .map_or(100_000.0, |p| p.predicted) as u64,
        )
    }
}

impl Scheduler for LearnedScheduler {
    fn pick(&mut self, ready: &[&SchedTask], _now: Nanos) -> usize {
        let mut best = 0;
        let mut best_score = f64::INFINITY;
        for (i, t) in ready.iter().enumerate() {
            let predicted = self
                .predictors
                .get(&t.id)
                .map_or(100_000.0, |p| p.predicted);
            // Priority-weighted SJF: a demoted task's bursts look longer,
            // a boosted task's shorter. Weight 1024 is nice 0.
            let score = predicted * 1024.0 / t.priority.weight().max(1.0);
            if score < best_score {
                best_score = score;
                best = i;
            }
        }
        best
    }

    fn observe(&mut self, task: TaskId, ran: Nanos, burst_done: bool) {
        let acc = self.running_burst.entry(task).or_insert(0.0);
        *acc += ran.as_nanos() as f64;
        if burst_done {
            let total = *acc;
            self.running_burst.insert(task, 0.0);
            let p = self
                .predictors
                .entry(task)
                .or_insert(Predictor { predicted: total });
            p.predicted = self.alpha * total + (1.0 - self.alpha) * p.predicted;
        }
    }

    fn name(&self) -> &'static str {
        "learned-sjf"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{SchedTask, TaskSpec};
    use simkernel::Priority;

    fn mk(id: u64, spec: TaskSpec) -> SchedTask {
        SchedTask::new(TaskId(id), spec, id)
    }

    #[test]
    fn prefers_task_with_shorter_learned_bursts() {
        let mut s = LearnedScheduler::new();
        let short = mk(1, TaskSpec::interactive());
        let long = mk(2, TaskSpec::batch());
        // Teach the predictor.
        for _ in 0..10 {
            s.observe(short.id, Nanos::from_micros(500), true);
            s.observe(long.id, Nanos::from_millis(20), true);
        }
        let ready = vec![&long, &short];
        assert_eq!(s.pick(&ready, Nanos::ZERO), 1, "short task wins");
        assert!(s.prediction(short.id) < s.prediction(long.id));
        assert_eq!(s.name(), "learned-sjf");
    }

    #[test]
    fn preempted_bursts_accumulate_until_done() {
        let mut s = LearnedScheduler::new();
        let id = TaskId(7);
        s.observe(id, Nanos::from_millis(5), false);
        s.observe(id, Nanos::from_millis(5), true);
        // First full burst seeds the EWMA at 10ms.
        assert_eq!(s.prediction(id), Nanos::from_millis(10));
    }

    #[test]
    fn deprioritization_changes_the_pick() {
        let mut s = LearnedScheduler::new();
        let mut short = mk(1, TaskSpec::interactive());
        let long = mk(2, TaskSpec::batch());
        for _ in 0..10 {
            s.observe(short.id, Nanos::from_micros(500), true);
            s.observe(long.id, Nanos::from_millis(4), true);
        }
        assert_eq!(s.pick(&[&long, &short], Nanos::ZERO), 1);
        // Demote the short task hard: its effective burst inflates ~57x
        // (weight ratio 1024/18), overtaking the 8x burst difference.
        short.priority = Priority::new(19);
        assert_eq!(
            s.pick(&[&long, &short], Nanos::ZERO),
            0,
            "demotion flips order"
        );
    }

    #[test]
    fn unknown_tasks_get_optimistic_default() {
        let s = LearnedScheduler::new();
        assert_eq!(s.prediction(TaskId(99)), Nanos::from_micros(100));
    }
}
