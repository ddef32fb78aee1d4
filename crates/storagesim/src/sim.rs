//! The end-to-end LinnOS + guardrail simulation (Figure 2).
//!
//! Timeline (all knobs in [`LinnosSimConfig`]):
//!
//! 1. **Warmup**: the model is untrained, every I/O goes to its primary, and
//!    completions feed the training buffer. At the end of warmup the
//!    classifier trains offline — from here on it drives failover.
//! 2. **Healthy phase**: the trained model revokes I/Os headed into GC; the
//!    moving average of I/O latency sits well below the no-ML default.
//! 3. **Shift**: the devices age (GC becomes frequent and differently
//!    shaped) and the workload intensifies. The stale model now mispredicts
//!    in both directions: missed GC hits become *false submits*, and
//!    spurious revokes pay the failover cost for nothing.
//! 4. With the paper's Listing 2 guardrail installed, the monitor notices
//!    `false_submit_rate > 5%` within one check period and flips
//!    `ml_enabled` off; the policy falls back to default submission and the
//!    moving average recovers. Without the guardrail it stays degraded.

use std::collections::VecDeque;

use guardrails::monitor::MonitorEngine;
use guardrails::{Telemetry, TelemetrySnapshot};
use simkernel::{MovingAverage, Nanos};

use crate::array::{ArrayStats, FlashArray};
use crate::device::FlashDeviceConfig;
use crate::linnos::{LinnosClassifier, LinnosConfig};
use crate::workload::{Workload, WorkloadConfig};

/// The guardrail from the paper's Listing 2, verbatim.
pub const LISTING_2_SPEC: &str = r#"
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

/// Configuration of the Figure 2 simulation.
#[derive(Clone, Debug)]
pub struct LinnosSimConfig {
    /// Base RNG seed (devices and workload fork from it).
    pub seed: u64,
    /// Training phase length.
    pub warmup: Nanos,
    /// Healthy (pre-shift) phase length.
    pub healthy: Nanos,
    /// Post-shift phase length.
    pub shifted: Nanos,
    /// Arrival process for warmup + healthy phases.
    pub workload: WorkloadConfig,
    /// Arrival process after the shift.
    pub shifted_workload: WorkloadConfig,
    /// Device behaviour before the shift.
    pub device: FlashDeviceConfig,
    /// Device behaviour after the shift.
    pub shifted_device: FlashDeviceConfig,
    /// Classifier configuration.
    pub linnos: LinnosConfig,
    /// Cost of revoking and re-issuing an I/O.
    pub revoke_overhead: Nanos,
    /// Install the Listing 2 guardrail?
    pub with_guardrail: bool,
    /// Moving-average window (I/Os), as plotted in Figure 2.
    pub moving_avg_window: usize,
    /// Sliding window (I/Os) for the false-submit-rate feature.
    pub rate_window: usize,
    /// Emit one series point every this many I/Os.
    pub sample_every: usize,
}

impl Default for LinnosSimConfig {
    fn default() -> Self {
        let device = FlashDeviceConfig::default();
        LinnosSimConfig {
            seed: 0xF162,
            warmup: Nanos::from_secs(2),
            healthy: Nanos::from_secs(4),
            shifted: Nanos::from_secs(8),
            workload: WorkloadConfig::default(),
            shifted_workload: WorkloadConfig {
                iops: 2_000.0,
                ..WorkloadConfig::default()
            },
            device,
            shifted_device: device.aged(),
            linnos: LinnosConfig::default(),
            revoke_overhead: Nanos::from_micros(150),
            with_guardrail: true,
            moving_avg_window: 2_000,
            rate_window: 2_000,
            sample_every: 500,
        }
    }
}

impl LinnosSimConfig {
    /// Total simulated duration.
    pub fn total(&self) -> Nanos {
        self.warmup + self.healthy + self.shifted
    }

    /// The shift instant.
    pub fn shift_at(&self) -> Nanos {
        self.warmup + self.healthy
    }
}

/// Aggregates for one phase of the run.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseStats {
    /// I/Os served in the phase.
    pub ios: u64,
    /// Mean latency in microseconds.
    pub mean_latency_us: f64,
    /// False submits / I/Os in the phase.
    pub false_submit_rate: f64,
    /// Failovers / I/Os in the phase.
    pub failover_rate: f64,
}

impl PhaseStats {
    fn from_delta(before: ArrayStats, after: ArrayStats) -> PhaseStats {
        let ios = after.ios - before.ios;
        if ios == 0 {
            return PhaseStats::default();
        }
        PhaseStats {
            ios,
            mean_latency_us: (after.latency_sum_ns - before.latency_sum_ns) as f64
                / ios as f64
                / 1_000.0,
            false_submit_rate: (after.false_submits - before.false_submits) as f64 / ios as f64,
            failover_rate: (after.failovers - before.failovers) as f64 / ios as f64,
        }
    }
}

/// The output of one simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// `(seconds, moving-average latency in µs)` — the Figure 2 series.
    pub series: Vec<(f64, f64)>,
    /// When the guardrail first fired, if it did.
    pub guardrail_triggered_at: Option<Nanos>,
    /// Stats for the healthy (post-training, pre-shift) phase.
    pub healthy: PhaseStats,
    /// Stats for the post-shift phase.
    pub shifted: PhaseStats,
    /// Total violations recorded by the engine.
    pub violations: usize,
    /// Whether the learned policy was still enabled at the end.
    pub ml_enabled_at_end: bool,
    /// Deterministic engine telemetry counters for the run.
    pub telemetry: TelemetrySnapshot,
}

/// The Figure 2 simulator.
pub struct LinnosSim {
    config: LinnosSimConfig,
    engine: MonitorEngine,
    array: FlashArray,
    workload: Workload,
    classifier: LinnosClassifier,
}

impl LinnosSim {
    /// Builds the simulator (and installs the guardrail when configured).
    ///
    /// # Panics
    ///
    /// Panics if the Listing 2 spec fails to compile — it is a constant, so
    /// that would be a bug in this crate.
    pub fn new(config: LinnosSimConfig) -> Self {
        let mut engine = MonitorEngine::new();
        engine.set_telemetry(Telemetry::new());
        if config.with_guardrail {
            engine
                .install_str(LISTING_2_SPEC)
                .expect("Listing 2 compiles");
        }
        let array = FlashArray::new(config.device, 2, config.revoke_overhead, config.seed);
        let workload = Workload::new(config.workload, config.seed ^ 0xAB);
        let mut classifier = LinnosClassifier::new(config.linnos);
        // Match the array's slow threshold to the classifier's label.
        let mut array = array;
        array.set_slow_threshold(classifier.config().slow_threshold);
        let _ = &mut classifier;
        LinnosSim {
            config,
            engine,
            array,
            workload,
            classifier,
        }
    }

    /// Runs to completion and reports.
    pub fn run(mut self) -> SimReport {
        let store = self.engine.store();
        let ml_enabled = store.slot("ml_enabled");
        let false_submit_rate = store.slot("false_submit_rate");
        store.save_slot(&ml_enabled, 1.0);
        store.save_slot(&false_submit_rate, 0.0);

        let total = self.config.total();
        let shift_at = self.config.shift_at();
        let warmup_end = self.config.warmup;

        let mut moving = MovingAverage::new(self.config.moving_avg_window);
        let mut recent_false = FalseSubmitWindow::new(self.config.rate_window);
        let mut series = Vec::new();
        let mut ios: u64 = 0;
        let mut trained = false;
        let mut shifted = false;
        let mut stats_at_train = ArrayStats::default();
        let mut stats_at_shift = ArrayStats::default();

        loop {
            let now = self.workload.next_arrival();
            if now >= total {
                break;
            }
            // Phase transitions.
            if !trained && now >= warmup_end {
                self.classifier.train_round();
                trained = true;
                stats_at_train = self.array.stats();
            }
            if !shifted && now >= shift_at {
                self.array.set_device_config(self.config.shifted_device);
                self.workload.set_config(self.config.shifted_workload);
                stats_at_shift = self.array.stats();
                shifted = true;
            }
            // Fire due TIMER checks before the decision — the monitor runs
            // concurrently with the datapath.
            self.engine.advance_to(now);

            let ml_on = trained && ml_enabled.flag();
            let classifier = &mut self.classifier;
            let outcome = self
                .array
                .submit(now, |features| ml_on && classifier.predict_slow(features));

            // Completion feedback: only unrevoked I/Os yield a label for
            // their primary (the counterfactual for revoked ones is unseen).
            if outcome.served_by == outcome.primary {
                self.classifier.observe(&outcome.features, outcome.was_slow);
            } else if let Some(probe_slow) = outcome.probe_was_slow {
                // Hedged probes label revoked decisions too.
                self.classifier.observe(&outcome.features, probe_slow);
            }

            // Maintain the observable false-submit-rate feature (§5). The
            // rate describes the *model's* false submits, so it only
            // accumulates while the learned path is making decisions.
            if ml_on {
                recent_false.push(outcome.false_submit);
            }
            if let Some(rate) = recent_false.rate() {
                store.save_slot(&false_submit_rate, rate);
            }

            let avg = moving.push(outcome.latency.as_micros_f64());
            ios += 1;
            if ios.is_multiple_of(self.config.sample_every as u64) {
                series.push((now.as_secs_f64(), avg));
            }
        }
        self.engine.advance_to(total);

        let end_stats = self.array.stats();
        let healthy = PhaseStats::from_delta(stats_at_train, stats_at_shift);
        let shifted_stats = PhaseStats::from_delta(stats_at_shift, end_stats);
        let violations = self.engine.violations();
        SimReport {
            series,
            guardrail_triggered_at: violations.first().map(|v| v.at),
            healthy,
            shifted: shifted_stats,
            violations: violations.len(),
            ml_enabled_at_end: ml_enabled.flag(),
            telemetry: self.engine.telemetry_snapshot(),
        }
    }
}

/// Runs the guarded and unguarded variants of the same scenario (identical
/// seeds) — the two curves of Figure 2.
pub fn run_fig2(config: LinnosSimConfig) -> (SimReport, SimReport) {
    let guarded = LinnosSim::new(LinnosSimConfig {
        with_guardrail: true,
        ..config.clone()
    })
    .run();
    let unguarded = LinnosSim::new(LinnosSimConfig {
        with_guardrail: false,
        ..config
    })
    .run();
    (guarded, unguarded)
}

/// The false-submit rate over the last `capacity` learned-path I/Os — the
/// observable feature Listing 2's rule reads (§5). Keeps a running count of
/// the false submits in the window, so each I/O costs O(1).
#[derive(Clone, Debug)]
pub struct FalseSubmitWindow {
    recent: VecDeque<bool>,
    capacity: usize,
    false_submits: usize,
}

impl FalseSubmitWindow {
    /// An empty window over the last `capacity` outcomes.
    pub fn new(capacity: usize) -> Self {
        FalseSubmitWindow {
            recent: VecDeque::with_capacity(capacity + 1),
            capacity,
            false_submits: 0,
        }
    }

    /// Records one learned-path I/O, evicting the oldest beyond capacity.
    pub fn push(&mut self, false_submit: bool) {
        self.recent.push_back(false_submit);
        self.false_submits += usize::from(false_submit);
        if self.recent.len() > self.capacity && self.recent.pop_front() == Some(true) {
            self.false_submits -= 1;
        }
    }

    /// Forgets every outcome (the monitor-side state of a crashed node).
    pub fn clear(&mut self) {
        self.recent.clear();
        self.false_submits = 0;
    }

    /// False submits over window length; `None` while the window is empty.
    pub fn rate(&self) -> Option<f64> {
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

    fn quick_config() -> LinnosSimConfig {
        LinnosSimConfig {
            warmup: Nanos::from_secs(2),
            healthy: Nanos::from_secs(3),
            shifted: Nanos::from_secs(5),
            ..LinnosSimConfig::default()
        }
    }

    #[test]
    fn healthy_phase_is_healthy() {
        let report = LinnosSim::new(quick_config()).run();
        assert!(
            report.healthy.false_submit_rate < 0.05,
            "healthy false-submit rate {}",
            report.healthy.false_submit_rate
        );
        assert!(report.healthy.ios > 1_000);
        assert!(
            report.healthy.failover_rate > 0.01,
            "the model does fail over"
        );
    }

    #[test]
    fn figure2_shape_holds() {
        let (guarded, unguarded) = run_fig2(quick_config());
        // The guardrail fires after the shift, within a couple of periods.
        let trigger = guarded
            .guardrail_triggered_at
            .expect("guardrail must trigger");
        let shift = quick_config().shift_at();
        assert!(trigger >= shift, "trigger {trigger} before shift {shift}");
        assert!(
            trigger <= shift + Nanos::from_secs(3),
            "trigger {trigger} too late"
        );
        assert!(
            !guarded.ml_enabled_at_end,
            "model disabled by the guardrail"
        );
        assert!(
            guarded.telemetry.evaluations > 0,
            "telemetry follows the run"
        );
        assert!(guarded.telemetry.violations as usize >= guarded.violations);
        assert!(unguarded.ml_enabled_at_end);
        assert_eq!(unguarded.violations, 0);
        // The unguarded run's post-shift false submits stay high.
        assert!(
            unguarded.shifted.false_submit_rate > 0.05,
            "unguarded shifted rate {}",
            unguarded.shifted.false_submit_rate
        );
        // Shape: post-shift, the guarded run's latency beats unguarded.
        assert!(
            guarded.shifted.mean_latency_us < unguarded.shifted.mean_latency_us,
            "guarded {} vs unguarded {}",
            guarded.shifted.mean_latency_us,
            unguarded.shifted.mean_latency_us
        );
        // And both runs were identical before the shift (same seeds).
        assert!((guarded.healthy.mean_latency_us - unguarded.healthy.mean_latency_us).abs() < 1e-9);
    }

    #[test]
    fn series_is_time_ordered_and_covers_run() {
        let report = LinnosSim::new(quick_config()).run();
        assert!(report.series.len() > 20);
        for pair in report.series.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
        let last_t = report.series.last().unwrap().0;
        assert!(last_t > 8.0, "series reaches the end: {last_t}");
    }
}
