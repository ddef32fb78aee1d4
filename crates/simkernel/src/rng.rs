//! Deterministic random number generation for workload synthesis.
//!
//! All stochastic behaviour in the simulations (arrival processes, garbage
//! collection pauses, access patterns) flows through [`DetRng`], a seeded
//! wrapper over a small fast PRNG plus the distribution samplers the
//! workload generators need. Seeding makes every experiment replayable,
//! which matters for debugging learned-policy misbehaviour (§1).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic RNG with workload-oriented samplers.
///
/// # Examples
///
/// ```
/// use simkernel::DetRng;
///
/// let mut a = DetRng::seed(42);
/// let mut b = DetRng::seed(42);
/// assert_eq!(a.u64(100), b.u64(100));
/// let gap = a.exp(1e-3); // Mean 1000.
/// assert!(gap >= 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: SmallRng,
    /// Cached second sample from the Box-Muller transform.
    gauss_spare: Option<f64>,
}

impl DetRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        DetRng {
            inner: SmallRng::seed_from_u64(seed),
            gauss_spare: None,
        }
    }

    /// Splits off an independent RNG stream (for per-device randomness).
    pub fn fork(&mut self) -> DetRng {
        DetRng::seed(self.inner.gen())
    }

    /// Returns a uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Returns a uniform integer in `[0, bound)`. `bound == 0` yields 0.
    pub fn u64(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.inner.gen_range(0..bound)
        }
    }

    /// Returns a uniform usize in `[0, bound)`. `bound == 0` yields 0.
    pub fn index(&mut self, bound: usize) -> usize {
        self.u64(bound as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Samples an exponential with rate `lambda` (mean `1/lambda`).
    ///
    /// Used for Poisson arrival processes. A non-positive or non-finite rate
    /// yields 0.
    pub fn exp(&mut self, lambda: f64) -> f64 {
        if !lambda.is_finite() || lambda <= 0.0 {
            return 0.0;
        }
        let u = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        -u.ln() / lambda
    }

    /// Samples a standard normal via Box-Muller.
    pub fn gauss(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        let u1 = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let (s, c) = (2.0 * std::f64::consts::PI * u2).sin_cos();
        self.gauss_spare = Some(r * s);
        r * c
    }

    /// Samples a normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev.max(0.0) * self.gauss()
    }

    /// Samples a (type-I) Pareto with scale `xm > 0` and shape `alpha > 0`.
    ///
    /// Heavy-tailed: used to model garbage-collection pause durations.
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        let u = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        xm.max(f64::MIN_POSITIVE) * u.powf(-1.0 / alpha.max(1e-9))
    }

    /// Samples an index in `[0, n)` from a Zipf distribution with exponent
    /// `theta` (0 = uniform; ~0.99 is the classic skewed-workload setting).
    ///
    /// Uses rejection-free inverse-CDF over the harmonic partial sums,
    /// approximated with the standard Zipf rejection sampler to stay O(1).
    pub fn zipf(&mut self, n: usize, theta: f64) -> usize {
        if n <= 1 {
            return 0;
        }
        let n_f = n as f64;
        let theta = theta.clamp(0.0, 0.9999999);
        if theta == 0.0 {
            return self.index(n);
        }
        // Standard analytic approximation of the Zipf inverse CDF
        // (Gray et al., "Quickly generating billion-record synthetic
        // databases"): constant-time, deterministic quality is sufficient
        // for workload skew.
        let zetan = zeta_approx(n_f, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n_f).powf(1.0 - theta)) / (1.0 - zeta_approx(2.0, theta) / zetan);
        let u = self.f64();
        let uz = u * zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(theta) {
            return 1;
        }
        let idx = (n_f * (eta * u - eta + 1.0).powf(alpha)) as usize;
        idx.min(n - 1)
    }
}

/// Approximates the generalized harmonic number H_{n,theta} by integral
/// approximation; exact enough for workload skew and O(1).
fn zeta_approx(n: f64, theta: f64) -> f64 {
    if (theta - 1.0).abs() < 1e-9 {
        n.ln() + 0.577
    } else {
        (n.powf(1.0 - theta) - 1.0) / (1.0 - theta) + 0.5 + 0.5 * n.powf(-theta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed(7);
        let mut b = DetRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.f64().to_bits(), b.f64().to_bits());
        }
    }

    #[test]
    fn fork_diverges_from_parent() {
        let mut a = DetRng::seed(7);
        let mut child = a.fork();
        let xs: Vec<u64> = (0..10).map(|_| a.u64(1_000_000)).collect();
        let ys: Vec<u64> = (0..10).map(|_| child.u64(1_000_000)).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn exp_has_approximately_right_mean() {
        let mut r = DetRng::seed(1);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exp(0.001)).sum::<f64>() / n as f64;
        assert!((mean - 1000.0).abs() < 50.0, "mean {mean}");
        assert_eq!(r.exp(0.0), 0.0);
        assert_eq!(r.exp(f64::NAN), 0.0);
    }

    #[test]
    fn gauss_has_zero_mean_unit_var() {
        let mut r = DetRng::seed(2);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.gauss()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn zipf_is_skewed_toward_low_indices() {
        let mut r = DetRng::seed(3);
        let n = 1000;
        let mut counts = vec![0u32; n];
        for _ in 0..50_000 {
            counts[r.zipf(n, 0.99)] += 1;
        }
        let head: u32 = counts[..10].iter().sum();
        let tail: u32 = counts[n - 10..].iter().sum();
        assert!(head > 20 * tail.max(1), "head {head} tail {tail}");
        // Bounds are respected.
        assert_eq!(r.zipf(1, 0.99), 0);
        assert_eq!(r.zipf(0, 0.99), 0);
    }

    #[test]
    fn zipf_theta_zero_is_uniformish() {
        let mut r = DetRng::seed(4);
        let n = 10;
        let mut counts = vec![0u32; n];
        for _ in 0..10_000 {
            counts[r.zipf(n, 0.0)] += 1;
        }
        for &c in &counts {
            assert!(c > 700, "uniform bucket {c}");
        }
    }

    #[test]
    fn pareto_exceeds_scale() {
        let mut r = DetRng::seed(5);
        for _ in 0..1000 {
            assert!(r.pareto(10.0, 1.5) >= 10.0);
        }
    }

    #[test]
    fn chance_handles_degenerate_probabilities() {
        let mut r = DetRng::seed(6);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-5.0));
        assert!(r.chance(7.0));
    }
}
