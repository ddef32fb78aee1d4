//! Time-windowed sample series with bounded memory.

use std::collections::VecDeque;

use simkernel::Nanos;

use crate::spec::ast::AggKind;

/// A bounded, time-ordered series of `(timestamp, value)` samples.
///
/// Memory is bounded two ways, because an in-kernel monitor must never grow
/// without limit: samples older than the retention horizon are evicted on
/// every push, and the total sample count is capped (oldest evicted first).
///
/// # Examples
///
/// ```
/// use guardrails::store::window::WindowSeries;
/// use guardrails::spec::ast::AggKind;
/// use simkernel::Nanos;
///
/// let mut s = WindowSeries::default_bounds();
/// s.push(Nanos::from_secs(1), 10.0);
/// s.push(Nanos::from_secs(2), 20.0);
/// let avg = s.aggregate(AggKind::Avg, Nanos::from_secs(5), Nanos::from_secs(2));
/// assert_eq!(avg, 15.0);
/// ```
#[derive(Clone, Debug)]
pub struct WindowSeries {
    samples: VecDeque<(Nanos, f64)>,
    retention: Nanos,
    max_samples: usize,
    evicted: u64,
}

impl WindowSeries {
    /// Default retention horizon (2 minutes of samples).
    pub const DEFAULT_RETENTION: Nanos = Nanos::from_secs(120);
    /// Default maximum number of retained samples.
    pub const DEFAULT_MAX_SAMPLES: usize = 65_536;

    /// Creates a series with explicit bounds.
    pub fn new(retention: Nanos, max_samples: usize) -> Self {
        WindowSeries {
            samples: VecDeque::new(),
            retention: retention.max(Nanos::from_nanos(1)),
            max_samples: max_samples.max(1),
            evicted: 0,
        }
    }

    /// Creates a series with the default bounds.
    pub fn default_bounds() -> Self {
        Self::new(Self::DEFAULT_RETENTION, Self::DEFAULT_MAX_SAMPLES)
    }

    /// Appends a sample at `now`, evicting anything outside the bounds.
    ///
    /// Timestamps must be non-decreasing; an out-of-order sample is clamped
    /// to the latest timestamp (monitors observe a monotonic clock, so this
    /// only triggers on substrate bugs and keeps the series consistent).
    pub fn push(&mut self, now: Nanos, value: f64) {
        if !value.is_finite() {
            return;
        }
        let now = match self.samples.back() {
            Some(&(last, _)) if now < last => last,
            _ => now,
        };
        self.samples.push_back((now, value));
        self.evict(now);
    }

    fn evict(&mut self, now: Nanos) {
        let horizon = now.saturating_sub(self.retention);
        while let Some(&(t, _)) = self.samples.front() {
            if t < horizon || self.samples.len() > self.max_samples {
                self.samples.pop_front();
                self.evicted += 1;
            } else {
                break;
            }
        }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` when no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total samples evicted by the bounds so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The most recent sample value, if any.
    pub fn last(&self) -> Option<f64> {
        self.samples.back().map(|&(_, v)| v)
    }

    /// Iterates samples with timestamps `>= now - window`.
    fn in_window(&self, window: Nanos, now: Nanos) -> impl Iterator<Item = f64> + '_ {
        let horizon = now.saturating_sub(window);
        // Samples are time-ordered; find the first in-window index by
        // partition point so wide windows over long series stay cheap.
        let start = self.samples.partition_point(|&(t, _)| t < horizon);
        self.samples.iter().skip(start).map(|&(_, v)| v)
    }

    /// Computes a windowed aggregate at time `now`.
    ///
    /// Empty windows yield the aggregate's identity-ish value: 0 for
    /// SUM/COUNT/RATE/AVG/STDDEV, 0 for MIN/MAX (so rules stay total).
    pub fn aggregate(&self, kind: AggKind, window: Nanos, now: Nanos) -> f64 {
        let mut count = 0u64;
        let mut sum = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut mean = 0.0;
        let mut m2 = 0.0;
        for v in self.in_window(window, now) {
            count += 1;
            sum += v;
            min = min.min(v);
            max = max.max(v);
            let delta = v - mean;
            mean += delta / count as f64;
            m2 += delta * (v - mean);
        }
        if count == 0 {
            return 0.0;
        }
        match kind {
            AggKind::Avg => mean,
            AggKind::Sum => sum,
            AggKind::Count => count as f64,
            AggKind::Min => min,
            AggKind::Max => max,
            AggKind::StdDev => {
                if count < 2 {
                    0.0
                } else {
                    (m2 / (count - 1) as f64).sqrt()
                }
            }
            AggKind::Rate => count as f64 / window.as_secs_f64().max(1e-12),
        }
    }

    /// Computes the `q`-quantile (linear interpolation) over the window;
    /// 0 when the window is empty. Its two order statistics are selected
    /// in linear time under `f64::total_cmp`, a total order on the bits, so
    /// they are the values a sort by it would leave there, bit for bit.
    pub fn quantile(&self, q: f64, window: Nanos, now: Nanos) -> f64 {
        let mut vals: Vec<f64> = self.in_window(window, now).collect();
        if vals.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let pos = q * (vals.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let (_, &mut at_lo, above) = vals.select_nth_unstable_by(lo, f64::total_cmp);
        if lo == hi {
            return at_lo;
        }
        // `hi == lo + 1`: the least of the values above `lo`.
        let (_, &mut at_hi, _) = above.select_nth_unstable_by(0, f64::total_cmp);
        let frac = pos - lo as f64;
        at_lo * (1.0 - frac) + at_hi * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_with(values: &[(u64, f64)]) -> WindowSeries {
        let mut s = WindowSeries::default_bounds();
        for &(t, v) in values {
            s.push(Nanos::from_secs(t), v);
        }
        s
    }

    #[test]
    fn aggregates_over_window_only() {
        let s = series_with(&[(1, 100.0), (5, 10.0), (6, 20.0), (7, 30.0)]);
        let now = Nanos::from_secs(7);
        let w = Nanos::from_secs(2);
        // Window [5s, 7s] inclusive of 5? horizon = 5s, t >= 5s: 10, 20, 30.
        assert_eq!(s.aggregate(AggKind::Avg, w, now), 20.0);
        assert_eq!(s.aggregate(AggKind::Sum, w, now), 60.0);
        assert_eq!(s.aggregate(AggKind::Count, w, now), 3.0);
        assert_eq!(s.aggregate(AggKind::Min, w, now), 10.0);
        assert_eq!(s.aggregate(AggKind::Max, w, now), 30.0);
        assert_eq!(s.aggregate(AggKind::Rate, w, now), 1.5);
        assert!((s.aggregate(AggKind::StdDev, w, now) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_window_yields_zero() {
        let s = series_with(&[(1, 5.0)]);
        let now = Nanos::from_secs(100);
        for kind in [
            AggKind::Avg,
            AggKind::Sum,
            AggKind::Count,
            AggKind::Min,
            AggKind::Max,
            AggKind::StdDev,
            AggKind::Rate,
        ] {
            assert_eq!(s.aggregate(kind, Nanos::from_secs(1), now), 0.0, "{kind:?}");
        }
        assert_eq!(s.quantile(0.5, Nanos::from_secs(1), now), 0.0);
    }

    #[test]
    fn retention_evicts_old_samples() {
        let mut s = WindowSeries::new(Nanos::from_secs(10), 1000);
        s.push(Nanos::from_secs(0), 1.0);
        s.push(Nanos::from_secs(5), 2.0);
        s.push(Nanos::from_secs(20), 3.0);
        assert_eq!(s.len(), 1, "only the 20s sample survives a 10s horizon");
        assert_eq!(s.evicted(), 2);
        assert_eq!(s.last(), Some(3.0));
    }

    #[test]
    fn max_samples_bounds_memory() {
        let mut s = WindowSeries::new(Nanos::from_secs(1000), 4);
        for i in 0..10 {
            s.push(Nanos::from_secs(i), i as f64);
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.last(), Some(9.0));
        // The oldest retained is 6.
        assert_eq!(
            s.aggregate(AggKind::Min, Nanos::from_secs(1000), Nanos::from_secs(9)),
            6.0
        );
    }

    #[test]
    fn out_of_order_pushes_are_clamped() {
        let mut s = WindowSeries::default_bounds();
        s.push(Nanos::from_secs(5), 1.0);
        s.push(Nanos::from_secs(3), 2.0); // Out of order.
        assert_eq!(s.len(), 2);
        // Both samples visible in a window anchored at 5s.
        assert_eq!(
            s.aggregate(AggKind::Count, Nanos::from_secs(1), Nanos::from_secs(5)),
            2.0
        );
    }

    #[test]
    fn quantiles_interpolate() {
        let s = series_with(&[(1, 10.0), (2, 20.0), (3, 30.0), (4, 40.0)]);
        let now = Nanos::from_secs(4);
        let w = Nanos::from_secs(100);
        assert_eq!(s.quantile(0.0, w, now), 10.0);
        assert_eq!(s.quantile(1.0, w, now), 40.0);
        assert_eq!(s.quantile(0.5, w, now), 25.0);
        assert!((s.quantile(0.99, w, now) - 39.7).abs() < 1e-9);
        // Out-of-range q clamps.
        assert_eq!(s.quantile(7.0, w, now), 40.0);
    }

    #[test]
    fn non_finite_samples_ignored() {
        let mut s = WindowSeries::default_bounds();
        s.push(Nanos::ZERO, f64::NAN);
        s.push(Nanos::ZERO, f64::INFINITY);
        assert!(s.is_empty());
    }
}
