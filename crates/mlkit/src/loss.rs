//! Binary cross-entropy, the loss the LinnOS classifier trains on.
//!
//! Each probability is clamped to `[1e-12, 1 - 1e-12]` first, so a
//! confident 0 or 1 costs a large finite loss rather than an infinite one.

/// Clamps a predicted probability away from 0 and 1.
fn clamped(p: f64) -> f64 {
    p.clamp(1e-12, 1.0 - 1e-12)
}

/// The mean binary cross-entropy of probabilities `pred` against labels
/// `target`.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn bce(pred: &[f64], target: &[f64]) -> f64 {
    assert_eq!(pred.len(), target.len(), "loss length mismatch");
    assert!(!pred.is_empty(), "loss over empty slice");
    let n = pred.len() as f64;
    pred.iter()
        .zip(target)
        .map(|(&p, &t)| {
            let p = clamped(p);
            -(t * p.ln() + (1.0 - t) * (1.0 - p).ln())
        })
        .sum::<f64>()
        / n
}

/// Writes [`bce`]'s `dL/dpred` into `grad` for each element.
pub(crate) fn bce_gradient(pred: &[f64], target: &[f64], grad: &mut [f64]) {
    assert_eq!(pred.len(), target.len(), "loss length mismatch");
    assert_eq!(pred.len(), grad.len(), "gradient length mismatch");
    let n = pred.len() as f64;
    for ((g, &p), &t) in grad.iter_mut().zip(pred).zip(target) {
        let p = clamped(p);
        *g = (p - t) / (p * (1.0 - p)) / n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bce_penalizes_confident_mistakes() {
        let good = bce(&[0.9], &[1.0]);
        let bad = bce(&[0.1], &[1.0]);
        assert!(bad > good);
        // Extreme probabilities are clamped rather than producing inf.
        assert!(bce(&[0.0], &[1.0]).is_finite());
        assert!(bce(&[1.0], &[0.0]).is_finite());
    }

    #[test]
    fn gradients_match_finite_differences() {
        let pred = [0.3, 0.7, 0.5];
        let target = [0.0, 1.0, 1.0];
        let mut grad = [0.0; 3];
        bce_gradient(&pred, &target, &mut grad);
        for i in 0..3 {
            let eps = 1e-6;
            let mut plus = pred;
            plus[i] += eps;
            let mut minus = pred;
            minus[i] -= eps;
            let fd = (bce(&plus, &target) - bce(&minus, &target)) / (2.0 * eps);
            assert!(
                (grad[i] - fd).abs() < 1e-5,
                "grad[{i}] {} vs fd {fd}",
                grad[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = bce(&[1.0], &[1.0, 2.0]);
    }
}
