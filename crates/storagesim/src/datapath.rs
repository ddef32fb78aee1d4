//! The Figure-2 datapath: one definition of the per-I/O loop that the
//! Figure 2 run ([`crate::sim`]), the fault scenarios ([`crate::faultsim`],
//! E9) and the crash-restart scenarios ([`crate::recovery`], E10) drive.
//!
//! A [`Datapath`] owns what a LinnOS host runs below its guardrails: the
//! two-replica flash array, the learned classifier, the arrival process,
//! the false-submit window Listing 2 reads, and the phase schedule of a
//! [`LinnosSimConfig`]. The host loop is
//!
//! ```text
//! while let Some(now) = datapath.next_arrival() {   // trains, shifts
//!     ... host steps: faults, crashes, engine.advance_to(now), commands ...
//!     let (outcome, proba) = datapath.submit(now, gate_open);
//!     ... feature saves from the outcome and datapath.false_submit_rate() ...
//! }
//! ```
//!
//! and a phase mean is a [`PhaseStats`](crate::sim::PhaseStats) over two [`Datapath::stats`]
//! snapshots taken before the submit at each phase's first arrival.
//!
//! # Examples
//!
//! ```
//! use simkernel::Nanos;
//! use storagesim::{Datapath, LinnosSimConfig};
//!
//! let config = LinnosSimConfig {
//!     warmup: Nanos::from_millis(200),
//!     healthy: Nanos::from_millis(100),
//!     shifted: Nanos::ZERO,
//!     ..LinnosSimConfig::default()
//! };
//! let mut datapath = Datapath::new(config);
//! let mut served = 0;
//! while let Some(now) = datapath.next_arrival() {
//!     let (_, proba) = datapath.submit(now, true);
//!     // The learned path decides only once the model has trained.
//!     assert_eq!(proba.is_some(), datapath.is_trained());
//!     served += 1;
//! }
//! assert_eq!(datapath.stats().ios, served);
//! assert!(datapath.is_trained());
//! ```

use std::collections::VecDeque;

use simkernel::Nanos;

use crate::array::{ArrayStats, FlashArray, SubmitOutcome};
use crate::linnos::LinnosClassifier;
use crate::sim::LinnosSimConfig;
use crate::workload::Workload;

/// The flash array, classifier and arrival process of one LinnOS run,
/// with its training and shift schedule.
#[derive(Clone, Debug)]
pub struct Datapath {
    config: LinnosSimConfig,
    array: FlashArray,
    classifier: LinnosClassifier,
    workload: Workload,
    false_submits: FalseSubmitWindow,
    /// The array's counters at the first arrival at `warmup` (where the
    /// classifier trained) and at `shift_at()`; `None` until then.
    at_training: Option<ArrayStats>,
    at_shift: Option<ArrayStats>,
}

impl Datapath {
    /// The datapath of `config`: the array seeded with `seed`, the
    /// arrivals with `seed ^ 0xAB`, the array's slow threshold matched to
    /// the classifier's label.
    pub fn new(config: LinnosSimConfig) -> Self {
        let classifier = LinnosClassifier::new(config.linnos);
        let mut array = FlashArray::new(config.device, 2, config.revoke_overhead, config.seed);
        array.set_slow_threshold(classifier.config().slow_threshold);
        Datapath {
            array,
            workload: Workload::new(config.workload, config.seed ^ 0xAB),
            classifier,
            false_submits: FalseSubmitWindow::new(config.rate_window),
            at_training: None,
            at_shift: None,
            config,
        }
    }

    /// The configuration.
    pub(crate) fn config(&self) -> &LinnosSimConfig {
        &self.config
    }

    /// The next arrival, or `None` once it falls at or past `total()`. The
    /// first arrival at `warmup` trains the classifier; the first at
    /// `shift_at()` ages the devices and intensifies the arrivals, so a
    /// run whose `shift_at()` equals its `total()` never shifts.
    pub fn next_arrival(&mut self) -> Option<Nanos> {
        let now = self.workload.next_arrival();
        if now >= self.config.total() {
            return None;
        }
        if self.at_training.is_none() && now >= self.config.warmup {
            self.classifier.train_round();
            self.at_training = Some(self.array.stats());
        }
        if self.at_shift.is_none() && now >= self.config.shift_at() {
            self.array.set_device_config(self.config.shifted_device);
            self.workload.set_config(self.config.shifted_workload);
            self.at_shift = Some(self.array.stats());
        }
        Some(now)
    }

    /// Submits the I/O arriving at `now`. The learned path decides when
    /// the host's gate is open and the model has trained; the array
    /// serves the I/O on its primary otherwise. The classifier learns from
    /// the outcome ([`LinnosClassifier::observe_outcome`]), and a learned
    /// decision enters the false-submit window. Returns the outcome and,
    /// for a learned decision, the predicted slow-probability.
    pub fn submit(&mut self, now: Nanos, gate_open: bool) -> (SubmitOutcome, Option<f64>) {
        let learned = gate_open && self.at_training.is_some();
        let mut proba = None;
        let classifier = &mut self.classifier;
        let outcome = self.array.submit(now, |features| {
            if !learned {
                return false;
            }
            let p = classifier.predict_proba(features);
            proba = Some(p);
            p >= classifier.config().decision_threshold
        });
        self.classifier.observe_outcome(&outcome);
        if learned {
            self.false_submits.push(outcome.false_submit);
        }
        (outcome, proba)
    }

    /// Whether the classifier has trained (the first arrival at `warmup`
    /// has been yielded).
    pub fn is_trained(&self) -> bool {
        self.at_training.is_some()
    }

    /// The false-submit rate over the last `rate_window` learned decisions;
    /// `None` while there are none.
    pub fn false_submit_rate(&self) -> Option<f64> {
        self.false_submits.rate()
    }

    /// Forgets the false-submit window (the monitor-side state of a node
    /// that crashed); the array, model and arrivals carry on.
    pub(crate) fn forget_false_submits(&mut self) {
        self.false_submits.clear();
    }

    /// The array's running counters.
    pub fn stats(&self) -> ArrayStats {
        self.array.stats()
    }

    /// The array's counters where the classifier trained (zero before).
    pub(crate) fn stats_at_training(&self) -> ArrayStats {
        self.at_training.unwrap_or_default()
    }

    /// The array's counters where the shift happened (zero before).
    pub(crate) fn stats_at_shift(&self) -> ArrayStats {
        self.at_shift.unwrap_or_default()
    }

    /// The flash array, for a host that injects device faults.
    pub(crate) fn array_mut(&mut self) -> &mut FlashArray {
        &mut self.array
    }

    /// The classifier, for a host that corrupts or retrains it.
    pub(crate) fn classifier_mut(&mut self) -> &mut LinnosClassifier {
        &mut self.classifier
    }
}

/// The false-submit rate over the last `capacity` learned-path I/Os — the
/// observable feature Listing 2's rule reads (§5). Keeps a running count of
/// the false submits in the window, so each I/O costs O(1).
#[derive(Clone, Debug)]
struct FalseSubmitWindow {
    recent: VecDeque<bool>,
    capacity: usize,
    false_submits: usize,
}

impl FalseSubmitWindow {
    /// An empty window over the last `capacity` outcomes.
    fn new(capacity: usize) -> Self {
        FalseSubmitWindow {
            recent: VecDeque::with_capacity(capacity + 1),
            capacity,
            false_submits: 0,
        }
    }

    /// Records one learned-path I/O, evicting the oldest beyond capacity.
    fn push(&mut self, false_submit: bool) {
        self.recent.push_back(false_submit);
        self.false_submits += usize::from(false_submit);
        if self.recent.len() > self.capacity && self.recent.pop_front() == Some(true) {
            self.false_submits -= 1;
        }
    }

    /// Forgets every outcome (the monitor-side state of a crashed node).
    fn clear(&mut self) {
        self.recent.clear();
        self.false_submits = 0;
    }

    /// False submits over window length; `None` while the window is empty.
    fn rate(&self) -> Option<f64> {
        (!self.recent.is_empty()).then(|| self.false_submits as f64 / self.recent.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn false_submit_window_matches_a_recount() {
        // The running count must give exactly the rate a full recount of
        // the last `capacity` outcomes gives, bit for bit.
        for capacity in [0, 1, 3, 16] {
            let mut window = FalseSubmitWindow::new(capacity);
            let mut naive: VecDeque<bool> = VecDeque::new();
            let mut x = 0x9E37_79B9u32;
            for i in 0..200 {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                let outcome = x.is_multiple_of(3);
                window.push(outcome);
                naive.push_back(outcome);
                if naive.len() > capacity {
                    naive.pop_front();
                }
                let expected = (!naive.is_empty())
                    .then(|| naive.iter().filter(|&&b| b).count() as f64 / naive.len() as f64);
                assert_eq!(
                    window.rate().map(f64::to_bits),
                    expected.map(f64::to_bits),
                    "capacity {capacity}, step {i}"
                );
            }
            window.clear();
            assert_eq!(window.rate(), None);
        }
    }

    /// A run whose shift instant is its end never shifts: the devices keep
    /// their configuration and no shift snapshot is taken, while training
    /// still happens at `warmup`.
    #[test]
    fn a_config_shifting_at_its_end_never_shifts() {
        let config = LinnosSimConfig {
            warmup: Nanos::from_millis(300),
            healthy: Nanos::from_millis(700),
            shifted: Nanos::ZERO,
            ..LinnosSimConfig::default()
        };
        assert_eq!(config.shift_at(), config.total());
        let run = |config: LinnosSimConfig| {
            let mut datapath = Datapath::new(config);
            let mut last = Nanos::ZERO;
            while let Some(now) = datapath.next_arrival() {
                datapath.submit(now, true);
                last = now;
            }
            let stats = datapath.stats();
            let counters = (
                stats.ios,
                stats.latency_sum_ns,
                stats.false_submits,
                stats.failovers,
            );
            (datapath, last, counters)
        };
        let (datapath, last, counters) = run(config.clone());
        assert!(last >= config.warmup, "the run reached its healthy phase");
        assert!(datapath.is_trained());
        assert!(datapath.at_shift.is_none(), "no shift snapshot");
        assert_eq!(datapath.stats_at_shift().ios, 0);
        // Had the devices aged or the arrivals changed, the run would
        // differ from one whose "shifted" phase is the healthy one.
        let (_, _, unshiftable) = run(LinnosSimConfig {
            shifted_device: config.device,
            shifted_workload: config.workload,
            ..config
        });
        assert_eq!(counters, unshiftable);
    }
}
