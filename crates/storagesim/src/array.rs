//! A replicated flash array with predictive revoke/failover.
//!
//! "LinnOS helps storage clusters with built-in failover logic such as flash
//! RAID by revoking slow I/O and re-issuing to a replica" (§5). The array
//! holds N replicas; each incoming I/O is assigned a primary, the policy
//! predicts whether the primary will be slow, and a slow prediction fails
//! the I/O over to the least-loaded replica at a fixed revoke cost.
//!
//! A **false submit** is an I/O that was submitted (not failed over) and
//! turned out slow — the observable misprediction the paper's Listing 2
//! guardrail bounds.

use simkernel::{DetRng, Nanos};

use crate::device::{FlashDevice, FlashDeviceConfig};
use crate::linnos::NUM_FEATURES;

/// The outcome of one array submission.
#[derive(Clone, Copy, Debug)]
pub struct SubmitOutcome {
    /// End-to-end latency, including any revoke overhead.
    pub latency: Nanos,
    /// The device that was the designated primary.
    pub primary: usize,
    /// The device that actually served the I/O.
    pub served_by: usize,
    /// The policy's prediction for the primary.
    pub predicted_slow: bool,
    /// The primary's feature vector at submission time.
    pub features: [f64; NUM_FEATURES],
    /// Whether the served latency exceeded the slow threshold.
    pub was_slow: bool,
    /// Whether this was a false submit (submitted to the primary and slow).
    pub false_submit: bool,
    /// Ground-truth label from a hedged probe of the primary, when one was
    /// issued alongside a failover (`None` otherwise).
    pub probe_was_slow: Option<bool>,
}

/// Running counters for the array.
#[derive(Clone, Copy, Debug, Default)]
pub struct ArrayStats {
    /// Total I/Os served.
    pub ios: u64,
    /// I/Os failed over to a replica.
    pub failovers: u64,
    /// False submits (submitted to primary, turned out slow).
    pub false_submits: u64,
    /// Sum of latencies in nanoseconds (for means).
    pub latency_sum_ns: u64,
}

impl ArrayStats {
    /// Mean latency over all served I/Os.
    pub fn mean_latency(&self) -> Nanos {
        self.latency_sum_ns
            .checked_div(self.ios)
            .map_or(Nanos::ZERO, Nanos::from_nanos)
    }

    /// False submits as a fraction of all I/Os.
    pub fn false_submit_rate(&self) -> f64 {
        if self.ios == 0 {
            0.0
        } else {
            self.false_submits as f64 / self.ios as f64
        }
    }
}

/// The replicated array.
///
/// # Examples
///
/// ```
/// use simkernel::{DetRng, Nanos};
/// use storagesim::{FlashArray, FlashDeviceConfig};
///
/// let mut array = FlashArray::new(FlashDeviceConfig::default(), 2, Nanos::from_micros(20), 9);
/// // An always-fast prediction behaves like the no-ML default.
/// let outcome = array.submit(Nanos::from_micros(5), |_| false);
/// assert_eq!(outcome.served_by, outcome.primary);
/// assert!(!outcome.predicted_slow);
/// ```
#[derive(Clone, Debug)]
pub struct FlashArray {
    devices: Vec<FlashDevice>,
    revoke_overhead: Nanos,
    slow_threshold: Nanos,
    /// The latency above which an unrevoked I/O counts as a *false submit*.
    /// Deliberately higher than the training-label threshold: the model
    /// trains on a tight fast/slow boundary, but the guardrail metric counts
    /// only the genuinely harmful stalls (GC-scale waits), matching how an
    /// operator would define "submitted to a slow disk".
    false_submit_threshold: Nanos,
    next_primary: usize,
    stats: ArrayStats,
    rng: DetRng,
    probe_probability: f64,
}

impl FlashArray {
    /// Creates an array of `replicas` identical devices with independent
    /// RNG streams derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `replicas < 2` (failover needs somewhere to go).
    pub fn new(
        config: FlashDeviceConfig,
        replicas: usize,
        revoke_overhead: Nanos,
        seed: u64,
    ) -> Self {
        assert!(replicas >= 2, "failover requires at least two replicas");
        FlashArray {
            devices: (0..replicas)
                .map(|i| FlashDevice::new(config, seed.wrapping_add(i as u64 * 7919)))
                .collect(),
            revoke_overhead,
            slow_threshold: Nanos::from_micros(300),
            false_submit_threshold: Nanos::from_micros(600),
            next_primary: 0,
            stats: ArrayStats::default(),
            rng: DetRng::seed(seed ^ 0x9e37_79b9),
            probe_probability: 0.15,
        }
    }

    /// Sets the hedged-probe probability (0 disables probing).
    ///
    /// When the policy revokes an I/O, the primary's latency history goes
    /// stale — nothing is submitted to refresh it, so a "slow" history can
    /// latch and starve the device of traffic forever. Real failover stacks
    /// break this with occasional hedged duplicates; with probability `p` a
    /// revoked I/O is also mirrored to the primary purely to refresh its
    /// history and produce a ground-truth label.
    pub fn set_probe_probability(&mut self, p: f64) {
        self.probe_probability = p.clamp(0.0, 1.0);
    }

    /// Sets the slow threshold used for labelling (matches the classifier's).
    pub fn set_slow_threshold(&mut self, threshold: Nanos) {
        self.slow_threshold = threshold;
    }

    /// Applies a new device configuration to every replica (the mid-run
    /// distribution-shift knob for the Figure 2 scenario).
    pub fn set_device_config(&mut self, config: FlashDeviceConfig) {
        for device in &mut self.devices {
            device.set_config(config);
        }
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.devices.len()
    }

    /// The feature vector the policy sees for device `idx` at `now`.
    fn features_of(&self, idx: usize, now: Nanos) -> [f64; NUM_FEATURES] {
        let device = &self.devices[idx];
        let history = device.history();
        [
            device.queue_depth(now),
            history[0],
            history[1],
            history[2],
            history[3],
        ]
    }

    /// Submits one I/O at `now`; `predict_slow` is the policy's decision
    /// over the primary's features.
    pub fn submit(
        &mut self,
        now: Nanos,
        predict_slow: impl FnOnce(&[f64; NUM_FEATURES]) -> bool,
    ) -> SubmitOutcome {
        let primary = self.next_primary;
        self.next_primary = (self.next_primary + 1) % self.devices.len();
        let features = self.features_of(primary, now);
        let predicted_slow = predict_slow(&features);

        let mut probe_was_slow = None;
        let (served_by, latency) = if predicted_slow {
            // Revoke and re-issue to the least-loaded replica.
            let replica = self.least_loaded_replica(primary, now);
            let io = self.devices[replica].submit(now + self.revoke_overhead);
            if self.rng.chance(self.probe_probability) {
                let probe = self.devices[primary].submit(now);
                probe_was_slow = Some(probe.latency > self.slow_threshold);
            }
            (replica, io.latency + self.revoke_overhead)
        } else {
            let io = self.devices[primary].submit(now);
            (primary, io.latency)
        };

        let was_slow = latency > self.slow_threshold;
        let false_submit = !predicted_slow && latency > self.false_submit_threshold;
        self.stats.ios += 1;
        self.stats.latency_sum_ns += latency.as_nanos();
        if predicted_slow {
            self.stats.failovers += 1;
        }
        if false_submit {
            self.stats.false_submits += 1;
        }
        SubmitOutcome {
            latency,
            primary,
            served_by,
            predicted_slow,
            features,
            was_slow,
            false_submit,
            probe_was_slow,
        }
    }

    fn least_loaded_replica(&self, primary: usize, now: Nanos) -> usize {
        (0..self.devices.len())
            .filter(|&i| i != primary)
            .min_by(|&a, &b| {
                self.devices[a]
                    .queue_depth(now)
                    .partial_cmp(&self.devices[b].queue_depth(now))
                    .expect("queue depths are finite")
            })
            .expect("at least one replica")
    }

    /// Running counters.
    pub fn stats(&self) -> ArrayStats {
        self.stats
    }

    /// Resets the running counters (e.g. at a phase boundary).
    pub fn reset_stats(&mut self) {
        self.stats = ArrayStats::default();
    }

    /// Immutable access to a device (tests/metrics).
    pub fn device(&self, idx: usize) -> &FlashDevice {
        &self.devices[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array(seed: u64) -> FlashArray {
        FlashArray::new(
            FlashDeviceConfig::default(),
            2,
            Nanos::from_micros(20),
            seed,
        )
    }

    #[test]
    fn round_robin_primary_assignment() {
        let mut a = array(1);
        let o1 = a.submit(Nanos::from_micros(1), |_| false);
        let o2 = a.submit(Nanos::from_micros(2), |_| false);
        let o3 = a.submit(Nanos::from_micros(3), |_| false);
        assert_eq!(o1.primary, 0);
        assert_eq!(o2.primary, 1);
        assert_eq!(o3.primary, 0);
    }

    #[test]
    fn failover_pays_revoke_overhead() {
        let mut a = array(2);
        let o = a.submit(Nanos::from_micros(1), |_| true);
        assert!(o.predicted_slow);
        assert_ne!(o.served_by, o.primary);
        assert!(o.latency >= Nanos::from_micros(20));
        assert_eq!(a.stats().failovers, 1);
    }

    #[test]
    fn false_submit_only_on_unrevoked_slow_io() {
        let mut a = array(3);
        a.set_slow_threshold(Nanos::ZERO); // Everything counts as slow.
        a.false_submit_threshold = Nanos::ZERO;
        let submitted = a.submit(Nanos::from_micros(1), |_| false);
        assert!(submitted.false_submit, "submitted and slow");
        let revoked = a.submit(Nanos::from_micros(2), |_| true);
        assert!(!revoked.false_submit, "failovers are never false submits");
        assert_eq!(a.stats().false_submits, 1);
        assert_eq!(a.stats().false_submit_rate(), 0.5);
    }

    #[test]
    fn oracle_beats_default_under_gc() {
        // Run both policies over the same arrival pattern: a GC-oracle
        // should deliver a lower mean latency than always-primary. This is
        // the basic LinnOS value proposition the simulator must reproduce.
        let mut default_array = array(42);
        let mut oracle_array = array(42);
        let mut t = Nanos::ZERO;
        for _ in 0..20_000 {
            t += Nanos::from_micros(400);
            default_array.submit(t, |_| false);
            // The oracle peeks at ground truth: a GC stall ahead, or a deep
            // post-GC drain queue.
            let primary = oracle_array.next_primary;
            let slow = oracle_array.devices[primary].clone().would_hit_gc(t)
                || oracle_array.devices[primary].queue_depth(t) > 3.0;
            oracle_array.submit(t, |_| slow);
        }
        let default_mean = default_array.stats().mean_latency();
        let oracle_mean = oracle_array.stats().mean_latency();
        assert!(
            oracle_mean < default_mean,
            "oracle {oracle_mean} vs default {default_mean}"
        );
    }

    #[test]
    fn stats_reset() {
        let mut a = array(5);
        a.submit(Nanos::from_micros(1), |_| false);
        assert_eq!(a.stats().ios, 1);
        a.reset_stats();
        assert_eq!(a.stats().ios, 0);
        assert_eq!(a.stats().mean_latency(), Nanos::ZERO);
        assert_eq!(a.stats().false_submit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least two replicas")]
    fn single_replica_rejected() {
        let _ = FlashArray::new(FlashDeviceConfig::default(), 1, Nanos::ZERO, 0);
    }
}
