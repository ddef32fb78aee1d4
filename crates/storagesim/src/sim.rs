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

use guardrails::monitor::{MonitorEngine, OverheadAccount};
use simkernel::{MovingAverage, Nanos};

use crate::array::ArrayStats;
use crate::datapath::Datapath;
use crate::device::FlashDeviceConfig;
use crate::linnos::LinnosConfig;
use crate::workload::WorkloadConfig;

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
    /// The phase between two snapshots of an array's counters.
    pub(crate) fn from_delta(before: ArrayStats, after: ArrayStats) -> PhaseStats {
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
    /// The engine's summed overhead accounts for the run: deterministic
    /// counters, no wall time.
    pub telemetry: OverheadAccount,
}

/// The Figure 2 simulator.
pub struct LinnosSim {
    engine: MonitorEngine,
    datapath: Datapath,
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
        if config.with_guardrail {
            engine
                .install_str(LISTING_2_SPEC)
                .expect("Listing 2 compiles");
        }
        LinnosSim {
            engine,
            datapath: Datapath::new(config),
        }
    }

    /// Runs to completion and reports.
    pub fn run(mut self) -> SimReport {
        let store = self.engine.store();
        let ml_enabled = store.slot("ml_enabled");
        let false_submit_rate = store.slot("false_submit_rate");
        store.save_slot(&ml_enabled, 1.0);
        store.save_slot(&false_submit_rate, 0.0);

        let config = self.datapath.config();
        let total = config.total();
        let sample_every = config.sample_every as u64;
        let mut moving = MovingAverage::new(config.moving_avg_window);
        let mut series = Vec::new();
        let mut ios: u64 = 0;

        while let Some(now) = self.datapath.next_arrival() {
            // Fire due TIMER checks before the decision — the monitor runs
            // concurrently with the datapath.
            self.engine.advance_to(now);

            let (outcome, _) = self.datapath.submit(now, ml_enabled.flag());

            // Maintain the observable false-submit-rate feature (§5): the
            // *model's* false submits, over its learned decisions only.
            if let Some(rate) = self.datapath.false_submit_rate() {
                store.save_slot(&false_submit_rate, rate);
            }

            let avg = moving.push(outcome.latency.as_micros_f64());
            ios += 1;
            if ios.is_multiple_of(sample_every) {
                series.push((now.as_secs_f64(), avg));
            }
        }
        self.engine.advance_to(total);

        let at_shift = self.datapath.stats_at_shift();
        SimReport {
            series,
            guardrail_triggered_at: self.engine.violations().first().map(|v| v.at),
            healthy: PhaseStats::from_delta(self.datapath.stats_at_training(), at_shift),
            shifted: PhaseStats::from_delta(at_shift, self.datapath.stats()),
            violations: self.engine.stats().violations as usize,
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

#[cfg(test)]
mod tests {
    use super::*;

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
