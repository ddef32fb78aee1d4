//! Task control blocks and the priority-manipulation surface used by the
//! `DEPRIORITIZE` guardrail action (A4).

use std::collections::BTreeMap;
use std::fmt;

use crate::time::Nanos;

/// An opaque task identifier, unique within a [`TaskTable`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(pub u64);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task-{}", self.0)
    }
}

/// A nice-style priority: lower values are more favoured, like Linux nice.
///
/// The range is clamped to `[-20, 19]` on construction so corrective actions
/// cannot push a task outside the legal priority space (this is itself an
/// instance of the paper's P3 "out-of-bounds outputs" concern, enforced here
/// at the type level).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Priority(i8);

impl Priority {
    /// The most favoured priority (`-20`).
    pub const HIGHEST: Priority = Priority(-20);
    /// The default priority (`0`).
    pub const DEFAULT: Priority = Priority(0);
    /// The least favoured priority (`19`).
    pub const LOWEST: Priority = Priority(19);

    /// Creates a priority, clamping into the legal `[-20, 19]` range.
    pub fn new(nice: i32) -> Self {
        Priority(nice.clamp(-20, 19) as i8)
    }

    /// Returns the nice value.
    pub fn nice(self) -> i32 {
        self.0 as i32
    }

    /// Returns a priority demoted by `steps` nice levels (saturating).
    pub fn demoted(self, steps: i32) -> Priority {
        Priority::new(self.nice() + steps)
    }

    /// Returns the CFS-style weight for this nice level.
    ///
    /// Uses the canonical `1024 / 1.25^nice` curve, so each nice step changes
    /// the share of CPU by ~10% like the Linux scheduler.
    pub fn weight(self) -> f64 {
        1024.0 / 1.25f64.powi(self.nice())
    }
}

impl Default for Priority {
    fn default() -> Self {
        Priority::DEFAULT
    }
}

/// The lifecycle state of a simulated task.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskState {
    /// Runnable and waiting in a runqueue.
    Ready,
    /// Currently executing.
    Running,
    /// Blocked on I/O or a timer.
    Blocked,
    /// Terminated (possibly by the `DEPRIORITIZE`/kill action).
    Dead,
}

/// A task control block.
#[derive(Clone, Debug)]
pub struct Tcb {
    /// The task's identifier.
    pub id: TaskId,
    /// A human-readable name for logs and reports.
    pub name: String,
    /// Current scheduling priority.
    pub priority: Priority,
    /// Current lifecycle state.
    pub state: TaskState,
    /// Total CPU time consumed.
    pub cpu_time: Nanos,
    /// Total time spent ready-but-not-running (starvation indicator, P6).
    pub wait_time: Nanos,
    /// Timestamp the task last became ready (for wait accounting).
    pub ready_since: Nanos,
    /// Resident memory charged to this task, in bytes (for the OOM analogue).
    pub resident_bytes: u64,
}

/// An in-memory table of task control blocks.
///
/// # Examples
///
/// ```
/// use simkernel::{Priority, TaskTable};
///
/// let mut table = TaskTable::new();
/// let id = table.spawn("batch-job", Priority::DEFAULT);
/// table.set_priority(id, Priority::LOWEST);
/// assert_eq!(table.get(id).unwrap().priority, Priority::LOWEST);
/// assert!(table.kill(id));
/// assert!(table.alive_tasks().is_empty());
/// ```
#[derive(Default, Debug)]
pub struct TaskTable {
    tasks: BTreeMap<TaskId, Tcb>,
    next_id: u64,
    killed: Vec<TaskId>,
}

impl TaskTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Spawns a new task in the [`TaskState::Ready`] state.
    pub fn spawn(&mut self, name: &str, priority: Priority) -> TaskId {
        let id = TaskId(self.next_id);
        self.next_id += 1;
        self.tasks.insert(
            id,
            Tcb {
                id,
                name: name.to_string(),
                priority,
                state: TaskState::Ready,
                cpu_time: Nanos::ZERO,
                wait_time: Nanos::ZERO,
                ready_since: Nanos::ZERO,
                resident_bytes: 0,
            },
        );
        id
    }

    /// Returns the TCB for `id`, if present.
    pub fn get(&self, id: TaskId) -> Option<&Tcb> {
        self.tasks.get(&id)
    }

    /// Returns a mutable TCB for `id`, if present.
    pub fn get_mut(&mut self, id: TaskId) -> Option<&mut Tcb> {
        self.tasks.get_mut(&id)
    }

    /// Iterates over all TCBs (including dead ones, for post-mortem metrics).
    pub fn iter(&self) -> impl Iterator<Item = &Tcb> {
        self.tasks.values()
    }

    /// Returns the number of tasks ever spawned.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Returns `true` if no tasks were ever spawned.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Sets the priority of `task`; returns `false` if the task is unknown or
    /// dead (the `DEPRIORITIZE` action's demotion).
    pub fn set_priority(&mut self, task: TaskId, priority: Priority) -> bool {
        match self.tasks.get_mut(&task) {
            Some(tcb) if tcb.state != TaskState::Dead => {
                tcb.priority = priority;
                true
            }
            _ => false,
        }
    }

    /// Kills `task`, releasing its memory; returns `false` if it is unknown
    /// or already dead (`DEPRIORITIZE` past the nice range).
    pub fn kill(&mut self, task: TaskId) -> bool {
        match self.tasks.get_mut(&task) {
            Some(tcb) if tcb.state != TaskState::Dead => {
                tcb.state = TaskState::Dead;
                tcb.resident_bytes = 0;
                self.killed.push(task);
                true
            }
            _ => false,
        }
    }

    /// Lists the ids of the tasks that are not dead.
    pub fn alive_tasks(&self) -> Vec<TaskId> {
        self.tasks
            .values()
            .filter(|t| t.state != TaskState::Dead)
            .map(|t| t.id)
            .collect()
    }

    /// Returns the ids of tasks killed via [`TaskTable::kill`], in order.
    pub fn killed(&self) -> &[TaskId] {
        &self.killed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_clamps_to_legal_range() {
        assert_eq!(Priority::new(-100), Priority::HIGHEST);
        assert_eq!(Priority::new(100), Priority::LOWEST);
        assert_eq!(Priority::new(5).nice(), 5);
        assert_eq!(Priority::LOWEST.demoted(3), Priority::LOWEST);
    }

    #[test]
    fn weight_follows_cfs_curve() {
        assert!((Priority::DEFAULT.weight() - 1024.0).abs() < 1e-9);
        // Each nice step scales by 1.25.
        let w0 = Priority::new(0).weight();
        let w1 = Priority::new(1).weight();
        assert!((w0 / w1 - 1.25).abs() < 1e-9);
        assert!(Priority::HIGHEST.weight() > Priority::LOWEST.weight());
    }

    #[test]
    fn spawn_assigns_unique_ids() {
        let mut t = TaskTable::new();
        let a = t.spawn("a", Priority::DEFAULT);
        let b = t.spawn("b", Priority::DEFAULT);
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a).unwrap().name, "a");
    }

    #[test]
    fn kill_is_terminal_and_releases_memory() {
        let mut t = TaskTable::new();
        let a = t.spawn("a", Priority::DEFAULT);
        t.get_mut(a).unwrap().resident_bytes = 4096;
        assert!(t.kill(a));
        assert!(!t.kill(a), "double kill must fail");
        assert!(
            !t.set_priority(a, Priority::LOWEST),
            "dead task not adjustable"
        );
        assert_eq!(t.get(a).unwrap().resident_bytes, 0);
        assert_eq!(t.killed(), &[a]);
    }

    #[test]
    fn alive_tasks_excludes_dead() {
        let mut t = TaskTable::new();
        let a = t.spawn("a", Priority::DEFAULT);
        let b = t.spawn("b", Priority::DEFAULT);
        t.kill(a);
        assert_eq!(t.alive_tasks(), vec![b]);
    }
}
