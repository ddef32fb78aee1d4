//! Online per-feature standardization.
//!
//! Models are trained on standardized features; the scaler's running
//! statistics are also the reference distribution that the P1
//! (in-distribution inputs) guardrail compares live inputs against.

/// Per-feature running mean/variance (Welford) with transform support.
///
/// # Examples
///
/// ```
/// use mlkit::OnlineScaler;
///
/// let mut s = OnlineScaler::new(2);
/// s.observe(&[1.0, 10.0]);
/// s.observe(&[3.0, 30.0]);
/// let mut z = [f64::NAN; 2];
/// s.transform_into(&[2.0, 20.0], &mut z);
/// assert!(z[0].abs() < 1e-9); // At the mean.
/// assert!(z[1].abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct OnlineScaler {
    count: u64,
    mean: Vec<f64>,
    m2: Vec<f64>,
}

impl OnlineScaler {
    /// Creates a scaler over `features` dimensions.
    pub fn new(features: usize) -> Self {
        OnlineScaler {
            count: 0,
            mean: vec![0.0; features],
            m2: vec![0.0; features],
        }
    }

    /// Folds one observation into the running statistics.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong number of features.
    pub fn observe(&mut self, x: &[f64]) {
        assert_eq!(x.len(), self.mean.len(), "feature count mismatch");
        self.count += 1;
        let n = self.count as f64;
        for ((&xi, mean), m2) in x.iter().zip(&mut self.mean).zip(&mut self.m2) {
            let delta = xi - *mean;
            *mean += delta / n;
            *m2 += delta * (xi - *mean);
        }
    }

    /// Returns the running mean per feature.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Returns the running standard deviation per feature (1.0 before two
    /// observations, so early transforms are identity-shifted).
    pub fn std_dev(&self, feature: usize) -> f64 {
        self.spread(self.m2[feature])
    }

    /// The standard deviation of a feature whose sum of squared deviations
    /// is `m2`, as [`OnlineScaler::std_dev`] returns it.
    #[inline]
    fn spread(&self, m2: f64) -> f64 {
        if self.count < 2 {
            return 1.0;
        }
        (m2 / (self.count - 1) as f64).sqrt().max(1e-9)
    }

    /// Standardizes `x` to z-scores against the running statistics, into
    /// `out`: the whole row of standard deviations first, then
    /// `(v - mean) / std` over it, so that each pass is one operation down
    /// the row and vectorises.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong number of features or `out` another
    /// length than `x`.
    #[inline]
    pub fn transform_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.mean.len(), "feature count mismatch");
        assert_eq!(out.len(), x.len(), "output length mismatch");
        // The same length as `out`, which lets the loop vectorise.
        let m2 = &self.m2[..out.len()];
        for (std, &m2) in out.iter_mut().zip(m2) {
            *std = self.spread(m2);
        }
        for ((z, &v), &mean) in out.iter_mut().zip(x).zip(&self.mean) {
            *z = (v - mean) / *z;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// `x` standardized by `s`, through [`OnlineScaler::transform_into`].
    fn z<const N: usize>(s: &OnlineScaler, x: [f64; N]) -> [f64; N] {
        let mut out = [f64::NAN; N];
        s.transform_into(&x, &mut out);
        out
    }

    #[test]
    fn transform_standardizes() {
        let mut s = OnlineScaler::new(1);
        for x in [2.0, 4.0, 6.0, 8.0] {
            s.observe(&[x]);
        }
        assert_eq!(s.mean()[0], 5.0);
        assert!(z(&s, [5.0])[0].abs() < 1e-12);
        // One std above the mean maps to z close to 1.
        let sd = s.std_dev(0);
        assert!((z(&s, [5.0 + sd])[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn early_transform_does_not_divide_by_zero() {
        let mut s = OnlineScaler::new(1);
        s.observe(&[3.0]);
        assert_eq!(z(&s, [4.0])[0], 1.0);
    }

    #[test]
    fn constant_feature_has_clamped_std() {
        let mut s = OnlineScaler::new(1);
        for _ in 0..10 {
            s.observe(&[7.0]);
        }
        // Std clamps at a tiny positive value; z-scores stay finite.
        assert!(z(&s, [8.0])[0].is_finite());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `transform_into` ≡ the per-feature z-score
        /// `(v - mean[i]) / std_i`, with `std_i` 1.0 below two observations
        /// and otherwise `sqrt(m2[i] / (count - 1))` clamped to at least
        /// `1e-9`, bit for bit, from 0, 1 or many observations (so both
        /// branches and constant features).
        #[test]
        fn transform_into_matches_the_z_score_formula(
            history in vec(vec(-50.0..50.0f64, 3), 0..12),
            constant in any::<bool>(),
            x in vec(-100.0..100.0f64, 3),
        ) {
            let mut s = OnlineScaler::new(3);
            for row in &history {
                s.observe(&[row[0], if constant { 7.0 } else { row[1] }, row[2]]);
            }
            let mut out = [f64::NAN; 3];
            s.transform_into(&x, &mut out);
            for i in 0..3 {
                let std = if s.count < 2 {
                    1.0
                } else {
                    (s.m2[i] / (s.count - 1) as f64).sqrt().max(1e-9)
                };
                prop_assert_eq!(s.std_dev(i).to_bits(), std.to_bits());
            }
            let reference: Vec<u64> = (0..3)
                .map(|i| ((x[i] - s.mean()[i]) / s.std_dev(i)).to_bits())
                .collect();
            prop_assert_eq!(out.map(f64::to_bits).to_vec(), reference);
        }
    }
}
