//! A flash device model with queueing and garbage-collection pauses.
//!
//! Flash latency is bimodal: most reads complete in ~100µs, but reads that
//! land behind internal garbage collection stall for milliseconds. LinnOS's
//! entire value proposition rests on this bimodality, so the device model
//! reproduces it: a base service time, an analytic FIFO queue, and GC
//! windows scheduled by a configurable stochastic process.

use simkernel::{DetRng, Nanos};

/// Configuration of one flash device.
#[derive(Clone, Copy, Debug)]
pub struct FlashDeviceConfig {
    /// Mean service time of an unqueued, non-GC read.
    pub base_latency: Nanos,
    /// Relative jitter on the base service time (0.1 = ±10%).
    pub jitter: f64,
    /// Mean interval between GC windows.
    pub gc_interval: Nanos,
    /// Minimum GC pause duration (Pareto scale).
    pub gc_pause_min: Nanos,
    /// Pareto shape of GC pause durations (smaller = heavier tail).
    pub gc_pause_shape: f64,
    /// Cap on a single GC pause.
    pub gc_pause_max: Nanos,
    /// Per-I/O probability of an internal read-retry stall (aged flash:
    /// read disturb and ECC retries). Invisible to host-side features.
    pub retry_probability: f64,
    /// Minimum retry stall.
    pub retry_min: Nanos,
    /// Maximum retry stall.
    pub retry_max: Nanos,
}

impl Default for FlashDeviceConfig {
    fn default() -> Self {
        FlashDeviceConfig {
            base_latency: Nanos::from_micros(90),
            jitter: 0.1,
            gc_interval: Nanos::from_millis(40),
            gc_pause_min: Nanos::from_millis(4),
            gc_pause_shape: 1.5,
            gc_pause_max: Nanos::from_millis(16),
            retry_probability: 0.0,
            retry_min: Nanos::from_millis(1),
            retry_max: Nanos::from_millis(4),
        }
    }
}

impl FlashDeviceConfig {
    /// An "aged" device: GC fires far more often and pauses are longer.
    ///
    /// Used as the mid-run distribution shift in the Figure 2 scenario —
    /// the paper attributes unsafe ML behaviour to exactly this kind of
    /// environment change ("updates in the kernel ... rendering the
    /// training data behind the policy stale", §1).
    pub fn aged(self) -> Self {
        FlashDeviceConfig {
            // Two changes, both real phenomena of worn flash. First, the
            // long predictable GC pauses become short frequent ones: by the
            // time the latency history shows a slow completion the pause is
            // over, so history-trained predictions stop tracking GC.
            // Second, reads start hitting internal retry stalls (read
            // disturb + ECC retries) with no host-visible precursor at all:
            // the model confidently predicts fast and the I/O stalls — a
            // false submit by construction. Retry-polluted history then
            // causes useless revokes of perfectly fast I/Os.
            gc_interval: Nanos::from_millis(6),
            gc_pause_min: Nanos::from_micros(500),
            gc_pause_max: Nanos::from_micros(1000),
            retry_probability: 0.15,
            retry_min: Nanos::from_micros(800),
            retry_max: Nanos::from_micros(2500),
            ..self
        }
    }
}

/// The completion record of one I/O.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IoCompletion {
    /// Total request latency (queueing + GC + service).
    pub latency: Nanos,
    /// Whether the request hit a GC window.
    pub hit_gc: bool,
}

/// A single simulated flash device.
///
/// # Examples
///
/// ```
/// use simkernel::Nanos;
/// use storagesim::{FlashDevice, FlashDeviceConfig};
///
/// let mut dev = FlashDevice::new(FlashDeviceConfig::default(), 42);
/// let io = dev.submit(Nanos::from_micros(10));
/// assert!(io.latency >= Nanos::from_micros(50));
/// ```
#[derive(Clone, Debug)]
pub struct FlashDevice {
    config: FlashDeviceConfig,
    rng: DetRng,
    /// The device is serving requests until this time.
    busy_until: Nanos,
    /// Start of the next scheduled GC window.
    next_gc: Nanos,
    /// End of the current/last GC window.
    gc_until: Nanos,
    /// Latencies of the most recent completions, newest last (LinnOS's
    /// history feature).
    history: [f64; 4],
}

impl FlashDevice {
    /// Creates a device with its own RNG stream.
    pub fn new(config: FlashDeviceConfig, seed: u64) -> Self {
        let mut rng = DetRng::seed(seed);
        let first_gc = Nanos::from_secs_f64(rng.exp(1.0 / config.gc_interval.as_secs_f64()));
        FlashDevice {
            config,
            rng,
            busy_until: Nanos::ZERO,
            next_gc: first_gc,
            gc_until: Nanos::ZERO,
            history: [config.base_latency.as_micros_f64(); 4],
        }
    }

    /// Swaps in a new configuration (e.g. [`FlashDeviceConfig::aged`]) at
    /// runtime — the distribution-shift knob.
    pub fn set_config(&mut self, config: FlashDeviceConfig) {
        self.config = config;
    }

    /// Advances the GC schedule to cover time `now`.
    fn advance_gc(&mut self, now: Nanos) {
        while self.next_gc <= now {
            let pause_us = self.rng.pareto(
                self.config.gc_pause_min.as_micros_f64(),
                self.config.gc_pause_shape,
            );
            let pause = Nanos::from_micros(pause_us as u64).min(self.config.gc_pause_max);
            self.gc_until = self.next_gc + pause;
            let gap =
                Nanos::from_secs_f64(self.rng.exp(1.0 / self.config.gc_interval.as_secs_f64()))
                    .max(Nanos::from_micros(1));
            self.next_gc = self.gc_until + gap;
        }
    }

    /// The (approximate) number of requests queued ahead of a new arrival.
    pub fn queue_depth(&self, now: Nanos) -> f64 {
        let backlog = self.busy_until.saturating_sub(now);
        backlog.as_nanos() as f64 / self.config.base_latency.as_nanos().max(1) as f64
    }

    /// Returns `true` if a request arriving now would stall behind GC.
    ///
    /// This is ground truth the simulator knows but a real host cannot see —
    /// the reason LinnOS *predicts* instead of reading device state.
    pub fn would_hit_gc(&mut self, now: Nanos) -> bool {
        let start = now.max(self.busy_until);
        self.advance_gc(start);
        start < self.gc_until
    }

    /// Submits a request at `now`, returning its completion.
    pub fn submit(&mut self, now: Nanos) -> IoCompletion {
        self.advance_gc(now);
        let mut start = now.max(self.busy_until);
        let mut hit_gc = false;
        // If service would begin inside a GC window, it stalls to its end.
        self.advance_gc(start);
        if start < self.gc_until {
            start = self.gc_until;
            hit_gc = true;
        }
        let jitter = 1.0 + self.rng.normal(0.0, self.config.jitter).clamp(-0.5, 0.5);
        let mut service =
            Nanos::from_nanos((self.config.base_latency.as_nanos() as f64 * jitter) as u64);
        if self.rng.chance(self.config.retry_probability) {
            // The retry occupies the die, so it serializes behind-queue work.
            let span = self
                .config
                .retry_max
                .saturating_sub(self.config.retry_min)
                .as_nanos();
            service += self.config.retry_min + Nanos::from_nanos(self.rng.u64(span.max(1)));
        }
        let completion_time = start + service;
        self.busy_until = completion_time;
        let latency = completion_time - now;
        self.history.rotate_left(1);
        self.history[3] = latency.as_micros_f64();
        IoCompletion { latency, hit_gc }
    }

    /// The latencies (µs) of the four most recent completions, oldest first.
    pub fn history(&self) -> [f64; 4] {
        self.history
    }

    /// The device's base (fast-path) latency.
    pub fn base_latency(&self) -> Nanos {
        self.config.base_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_for(dev: &mut FlashDevice, seconds: u64, gap_us: u64) -> Vec<IoCompletion> {
        let mut out = Vec::new();
        let mut t = Nanos::ZERO;
        let end = Nanos::from_secs(seconds);
        while t < end {
            out.push(dev.submit(t));
            t += Nanos::from_micros(gap_us);
        }
        out
    }

    #[test]
    fn latency_is_bimodal() {
        let mut dev = FlashDevice::new(FlashDeviceConfig::default(), 1);
        let ios = run_for(&mut dev, 2, 400); // 2.5k IOPS, moderate load.
        let fast = ios
            .iter()
            .filter(|io| io.latency < Nanos::from_micros(200))
            .count();
        let slow = ios
            .iter()
            .filter(|io| io.latency > Nanos::from_micros(500))
            .count();
        assert!(
            fast > ios.len() * 65 / 100,
            "most I/Os fast: {fast}/{}",
            ios.len()
        );
        assert!(
            slow > ios.len() * 5 / 100,
            "a real slow tail exists: {slow}/{}",
            ios.len()
        );
    }

    #[test]
    fn gc_hits_are_flagged_and_slow() {
        let mut dev = FlashDevice::new(FlashDeviceConfig::default(), 2);
        let ios = run_for(&mut dev, 1, 100);
        assert!(ios.iter().any(|io| io.hit_gc), "a second of I/O meets GC");
        // GC-hit I/Os are slower than the fast path.
        for io in ios.iter().filter(|io| io.hit_gc) {
            assert!(io.latency >= Nanos::from_micros(100));
        }
    }

    #[test]
    fn aged_config_has_more_gc() {
        let mut young = FlashDevice::new(FlashDeviceConfig::default(), 3);
        let mut old = FlashDevice::new(FlashDeviceConfig::default().aged(), 3);
        let gc_hits = |ios: Vec<IoCompletion>| ios.iter().filter(|io| io.hit_gc).count();
        // Same arrivals, so the counts compare like the fractions.
        let young_hits = gc_hits(run_for(&mut young, 2, 200));
        let old_hits = gc_hits(run_for(&mut old, 2, 200));
        assert!(
            old_hits > 2 * young_hits,
            "aged {old_hits} vs young {young_hits}"
        );
    }

    #[test]
    fn queue_builds_under_overload() {
        let mut dev = FlashDevice::new(FlashDeviceConfig::default(), 4);
        // Submit 50 requests at the same instant: queue must be deep.
        for _ in 0..50 {
            dev.submit(Nanos::from_micros(1));
        }
        assert!(dev.queue_depth(Nanos::from_micros(1)) > 30.0);
        // Once drained, the depth returns to ~0.
        assert_eq!(dev.queue_depth(Nanos::from_secs(10)), 0.0);
    }

    #[test]
    fn history_tracks_recent_latencies() {
        let mut dev = FlashDevice::new(FlashDeviceConfig::default(), 5);
        let io = dev.submit(Nanos::from_millis(1));
        assert_eq!(dev.history()[3], io.latency.as_micros_f64());
        let base = FlashDeviceConfig::default().base_latency.as_micros_f64();
        assert_eq!(dev.history()[..3], [base; 3]);
    }

    #[test]
    fn determinism_per_seed() {
        let mut a = FlashDevice::new(FlashDeviceConfig::default(), 7);
        let mut b = FlashDevice::new(FlashDeviceConfig::default(), 7);
        for i in 0..100 {
            let t = Nanos::from_micros(i * 137);
            assert_eq!(a.submit(t), b.submit(t));
        }
    }
}
