//! Simulated time as a nanosecond-resolution monotonic clock value.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, in nanoseconds.
///
/// `Nanos` is used both as an absolute timestamp (nanoseconds since the start
/// of the simulation) and as a duration; the arithmetic is identical and the
/// simulations never need dates. Arithmetic saturates rather than wrapping so
/// that a buggy workload generator cannot silently warp the clock backwards.
///
/// # Examples
///
/// ```
/// use simkernel::Nanos;
///
/// let deadline = Nanos::from_millis(5) + Nanos::from_micros(250);
/// assert_eq!(deadline.as_nanos(), 5_250_000);
/// assert_eq!(deadline.as_micros_f64(), 5250.0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(u64);

impl Nanos {
    /// The zero timestamp (simulation start).
    pub const ZERO: Nanos = Nanos(0);
    /// The maximum representable timestamp, used as "never" for absent deadlines.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a timestamp from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a timestamp from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a timestamp from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a timestamp from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Creates a timestamp from fractional seconds, rounding to the nearest
    /// nanosecond and clamping negatives to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return Nanos::ZERO;
        }
        Nanos((s * 1e9).round().min(u64::MAX as f64) as u64)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the value in microseconds as a float (for metrics and plots).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the value in milliseconds as a float.
    fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the value in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction; returns [`Nanos::ZERO`] on underflow.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition; returns [`Nanos::MAX`] on overflow.
    pub fn saturating_add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(rhs.0))
    }

    /// Returns the larger of the two timestamps.
    pub fn max(self, rhs: Nanos) -> Nanos {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }

    /// Returns the smaller of the two timestamps.
    pub fn min(self, rhs: Nanos) -> Nanos {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        self.saturating_add(rhs)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        *self = *self + rhs;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs.max(1))
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_round_trip() {
        assert_eq!(Nanos::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(Nanos::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(Nanos::from_micros(7).as_nanos(), 7_000);
        assert_eq!(Nanos::from_secs(1).as_secs_f64(), 1.0);
        assert_eq!(Nanos::from_millis(1).as_micros_f64(), 1000.0);
    }

    #[test]
    fn from_secs_f64_handles_edge_inputs() {
        assert_eq!(Nanos::from_secs_f64(-1.0), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(f64::NAN), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert_eq!(Nanos::from_secs_f64(f64::INFINITY), Nanos::ZERO);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(Nanos::ZERO - Nanos::from_secs(1), Nanos::ZERO);
        assert_eq!(Nanos::MAX + Nanos::from_secs(1), Nanos::MAX);
    }

    #[test]
    fn display_picks_readable_units() {
        assert_eq!(format!("{}", Nanos::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", Nanos::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", Nanos::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", Nanos::from_secs(12)), "12.000s");
    }

    #[test]
    fn div_by_zero_is_clamped() {
        assert_eq!(Nanos::from_secs(1) / 0, Nanos::from_secs(1));
    }

    #[test]
    fn sum_and_ordering() {
        let total: Nanos = [Nanos::from_secs(1), Nanos::from_millis(500)]
            .into_iter()
            .sum();
        assert_eq!(total, Nanos::from_millis(1500));
        assert_eq!(
            Nanos::from_secs(1).max(Nanos::from_secs(2)),
            Nanos::from_secs(2)
        );
        assert_eq!(
            Nanos::from_secs(1).min(Nanos::from_secs(2)),
            Nanos::from_secs(1)
        );
    }
}
