//! The `RETRAIN` action (A3): rate limiting and asynchronous execution.
//!
//! "We envision offline training, so this is an asynchronous process that
//! must be protected to prevent abuse from malicious processes by
//! intentionally triggering frequent retraining" (§3.2). The protection is
//! the [`RetrainLimiter`]: a per-model minimum interval plus a budget over a
//! rolling window. The [`RetrainExecutor`] runs accepted jobs at the host's
//! simulated instant, modelling the offline trainer.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use simkernel::Nanos;

/// Why a retrain request was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetrainRejection {
    /// The per-model minimum interval has not elapsed.
    TooSoon,
    /// The rolling-window budget is exhausted.
    BudgetExhausted,
}

/// A per-model retraining rate limiter.
///
/// # Examples
///
/// ```
/// use guardrails::action::retrain::RetrainLimiter;
/// use simkernel::Nanos;
///
/// let mut lim = RetrainLimiter::new(Nanos::from_secs(10), 2, Nanos::from_secs(60));
/// assert!(lim.request("m", Nanos::from_secs(0)).is_ok());
/// assert!(lim.request("m", Nanos::from_secs(1)).is_err()); // Too soon.
/// assert!(lim.request("m", Nanos::from_secs(15)).is_ok());
/// assert!(lim.request("m", Nanos::from_secs(30)).is_err()); // Budget of 2/60s spent.
/// ```
#[derive(Debug)]
pub struct RetrainLimiter {
    min_interval: Nanos,
    budget: usize,
    budget_window: Nanos,
    history: HashMap<String, Vec<Nanos>>,
}

impl RetrainLimiter {
    /// Creates a limiter: at most one retrain per `min_interval`, and at most
    /// `budget` retrains per `budget_window`, per model.
    pub fn new(min_interval: Nanos, budget: usize, budget_window: Nanos) -> Self {
        RetrainLimiter {
            min_interval,
            budget: budget.max(1),
            budget_window,
            history: HashMap::new(),
        }
    }

    /// A permissive default: once per 5 seconds, 10 per 5 minutes.
    pub fn default_policy() -> Self {
        Self::new(Nanos::from_secs(5), 10, Nanos::from_secs(300))
    }

    /// Requests a retrain of `model` at time `now`. Only a model's first
    /// request allocates (its name and history); it is always accepted.
    pub fn request(&mut self, model: &str, now: Nanos) -> Result<(), RetrainRejection> {
        let Some(history) = self.history.get_mut(model) else {
            self.history.insert(model.to_string(), vec![now]);
            return Ok(());
        };
        let horizon = now.saturating_sub(self.budget_window);
        history.retain(|&t| t >= horizon);
        if let Some(&last) = history.last() {
            if now.saturating_sub(last) < self.min_interval {
                return Err(RetrainRejection::TooSoon);
            }
        }
        if history.len() >= self.budget {
            return Err(RetrainRejection::BudgetExhausted);
        }
        history.push(now);
        Ok(())
    }
}

/// Runs accepted retraining jobs at the host's current simulated instant.
///
/// The paper's trainer is asynchronous and offline; here the host's
/// simulated clock models that, so a job submitted at `now` runs inline and
/// its outcome is known at `now`, whatever the OS scheduler does.
///
/// A *protected* executor isolates each job under `catch_unwind`: a job that
/// panics is counted in [`RetrainExecutor::panicked`] and later jobs still
/// run. An unprotected one models a trainer with no isolation: the first
/// panic kills it, and that job and every later one are silently lost —
/// the unhardened behaviour the fault experiments contrast against.
///
/// # Examples
///
/// ```
/// use guardrails::action::retrain::RetrainExecutor;
///
/// let mut trainer = RetrainExecutor::new(true);
/// let mut retrained = 0;
/// assert!(trainer.run(|| retrained += 1));
/// assert_eq!(retrained, 1);
/// ```
#[derive(Debug)]
pub struct RetrainExecutor {
    protected: bool,
    dead: bool,
    panicked: u64,
}

impl RetrainExecutor {
    /// Creates an executor, isolating job panics iff `protected`.
    pub fn new(protected: bool) -> Self {
        RetrainExecutor {
            protected,
            dead: false,
            panicked: 0,
        }
    }

    /// Runs `job` now; returns whether it completed.
    pub fn run(&mut self, job: impl FnOnce()) -> bool {
        if self.dead {
            return false;
        }
        // Unprotected, the unwind is caught only to model the trainer's
        // death: nothing counts the job, and nothing after it runs.
        match catch_unwind(AssertUnwindSafe(job)) {
            Ok(()) => true,
            Err(_) if self.protected => {
                self.panicked += 1;
                false
            }
            Err(_) => {
                self.dead = true;
                false
            }
        }
    }

    /// How many jobs have panicked (always 0 without protection: the first
    /// panic kills the trainer before it can be counted).
    pub fn panicked(&self) -> u64 {
        self.panicked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limiter_enforces_min_interval_per_model() {
        let mut lim = RetrainLimiter::new(Nanos::from_secs(10), 100, Nanos::from_secs(1000));
        assert!(lim.request("a", Nanos::from_secs(0)).is_ok());
        assert_eq!(
            lim.request("a", Nanos::from_secs(5)),
            Err(RetrainRejection::TooSoon)
        );
        // A different model has its own clock.
        assert!(lim.request("b", Nanos::from_secs(5)).is_ok());
        assert!(lim.request("a", Nanos::from_secs(10)).is_ok());
    }

    #[test]
    fn limiter_budget_recovers_after_window() {
        let mut lim = RetrainLimiter::new(Nanos::from_secs(1), 2, Nanos::from_secs(100));
        assert!(lim.request("m", Nanos::from_secs(0)).is_ok());
        assert!(lim.request("m", Nanos::from_secs(10)).is_ok());
        assert_eq!(
            lim.request("m", Nanos::from_secs(20)),
            Err(RetrainRejection::BudgetExhausted)
        );
        // After the window slides past the first request, budget frees up.
        assert!(lim.request("m", Nanos::from_secs(101)).is_ok());
    }

    /// Silences the default panic hook for the duration of a test that
    /// provokes intentional job panics (keeps `cargo test` output clean;
    /// `catch_unwind` still calls the hook).
    fn with_quiet_panics(f: impl FnOnce()) {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        f();
        std::panic::set_hook(prev);
    }

    #[test]
    fn protected_executor_counts_a_panic_and_runs_later_jobs_in_order() {
        with_quiet_panics(|| {
            let mut trainer = RetrainExecutor::new(true);
            let mut ran = Vec::new();
            assert!(trainer.run(|| ran.push("good1")));
            assert!(!trainer.run(|| panic!("boom")));
            assert!(trainer.run(|| ran.push("good2")));
            assert_eq!(ran, ["good1", "good2"]);
            assert_eq!(trainer.panicked(), 1);
        });
    }

    #[test]
    fn unprotected_executor_dies_on_its_first_panic() {
        with_quiet_panics(|| {
            let mut trainer = RetrainExecutor::new(false);
            let mut ran = Vec::new();
            assert!(trainer.run(|| ran.push("before")));
            assert!(!trainer.run(|| panic!("boom")));
            assert!(!trainer.run(|| ran.push("after")), "later jobs are lost");
            assert_eq!(ran, ["before"]);
            assert_eq!(trainer.panicked(), 0, "nobody left to count it");
        });
    }
}
