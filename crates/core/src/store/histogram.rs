//! A log-bucketed histogram for latency-style distributions.

/// A fixed-size histogram with logarithmically spaced buckets.
///
/// Values are non-negative (latencies, sizes, counts). Buckets grow
/// geometrically so that the histogram spans twelve decades with bounded
/// relative error and fixed memory — the standard in-kernel design (cf.
/// eBPF `hist` maps).
///
/// # Examples
///
/// ```
/// use guardrails::store::histogram::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [100.0, 200.0, 300.0, 400.0] {
///     h.observe(v);
/// }
/// assert_eq!(h.count(), 4);
/// let p50 = h.quantile(0.5);
/// assert!(p50 >= 150.0 && p50 <= 350.0, "p50 = {p50}");
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// Buckets per decade; 16 gives ~15% relative error per bucket.
const BUCKETS_PER_DECADE: f64 = 16.0;
/// Total buckets: 12 decades (1ns..~1000s in nanoseconds) plus an underflow
/// bucket for values below 1.0.
const NUM_BUCKETS: usize = 1 + (12.0 * BUCKETS_PER_DECADE) as usize;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_index(value: f64) -> usize {
        if value < 1.0 {
            return 0;
        }
        let idx = 1 + (value.log10() * BUCKETS_PER_DECADE) as usize;
        idx.min(NUM_BUCKETS - 1)
    }

    /// The representative (geometric-midpoint) value of bucket `i`.
    fn bucket_value(i: usize) -> f64 {
        if i == 0 {
            return 0.5;
        }
        10f64.powf((i as f64 - 0.5) / BUCKETS_PER_DECADE)
    }

    /// Records a value; negative or non-finite values are ignored.
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() || value < 0.0 {
            return;
        }
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Estimates the `q`-quantile from bucket midpoints (0 when empty).
    ///
    /// The estimate is exact to within one bucket's relative width (~15%);
    /// the min/max are tracked exactly and clamp the tails.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return Self::bucket_value(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Resets all state.
    pub fn reset(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0.0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_bucket_accurate() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.observe(i as f64);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 500.0).abs() / 500.0 < 0.2, "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 990.0).abs() / 990.0 < 0.2, "p99 = {p99}");
        let p0 = h.quantile(0.0);
        assert!((1.0..=1.2).contains(&p0), "p0 = {p0}");
        assert_eq!(h.quantile(1.0), 1000.0);
    }

    #[test]
    fn sum_and_count_are_exact() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0] {
            h.observe(v);
        }
        assert_eq!(h.sum(), 6.0);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn rejects_bad_values() {
        let mut h = Histogram::new();
        h.observe(-5.0);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.sum(), 0.0);
    }

    #[test]
    fn tiny_values_hit_underflow_bucket() {
        let mut h = Histogram::new();
        h.observe(0.001);
        h.observe(0.5);
        assert_eq!(h.count(), 2);
        assert!(h.quantile(0.5) <= 0.5);
    }

    #[test]
    fn huge_values_clamp_to_top_bucket() {
        let mut h = Histogram::new();
        h.observe(1e30);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), 1e30, "exact max clamps the estimate");
    }

    #[test]
    fn reset_clears() {
        let mut h = Histogram::new();
        h.observe(10.0);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
    }
}
