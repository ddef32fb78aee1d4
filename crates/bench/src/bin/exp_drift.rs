//! E4: drift-detection quality (property P1) — detection delay and
//! false-positive rate of the KS and PSI detectors as a function of shift
//! magnitude, plus the windowed-vs-EWMA aggregation ablation.

use gr_bench::write_results;
use guardrails::stats::DriftDetector;
use simkernel::DetRng;

/// The seed of the detector's reference reservoir, derived from the data
/// seed. Seeding both with the same value made the reservoir's replacement
/// draws replay the very u64 stream that generated the samples, which
/// biased the reference sample and raised the KS false-alarm rate far above
/// alpha.
fn detector_seed(seed: u64) -> u64 {
    seed ^ 0x5eed_0000_1234
}

/// Feeds `detector` a live stream shifted by `shift` (in units of the
/// reference standard deviation) and returns the number of samples until
/// `is_drifted` first reports true (None = never within budget).
fn detection_delay(shift: f64, seed: u64) -> (Option<usize>, f64, f64) {
    let mut rng = DetRng::seed(seed);
    let mut detector = DriftDetector::new("m", 512, detector_seed(seed));
    // Reference: N(0, 1).
    for _ in 0..8_000 {
        detector.observe_reference(rng.gauss());
    }
    detector.freeze();
    // Live stream: N(shift, 1).
    let mut delay = None;
    for i in 0..4_000 {
        detector.observe_live(rng.gauss() + shift);
        if delay.is_none() && i >= 32 && detector.is_drifted(0.01) {
            delay = Some(i + 1);
        }
    }
    (delay, detector.ks(), detector.psi())
}

/// False-positive probe: unshifted live data, how often does the detector
/// cry wolf across periodic checks?
fn false_positive_rate(seed: u64) -> f64 {
    let mut rng = DetRng::seed(seed);
    let mut detector = DriftDetector::new("m", 512, detector_seed(seed));
    for _ in 0..8_000 {
        detector.observe_reference(rng.gauss());
    }
    detector.freeze();
    let mut checks = 0u32;
    let mut alarms = 0u32;
    for i in 0..20_000 {
        detector.observe_live(rng.gauss());
        if i % 100 == 99 && i >= 512 {
            checks += 1;
            if detector.is_drifted(0.01) {
                alarms += 1;
            }
        }
    }
    f64::from(alarms) / f64::from(checks.max(1))
}

fn main() {
    println!("=== E4: drift-detection quality (P1) ===\n");
    println!("shift (σ)   detection delay (samples)   final KS   final PSI");
    let mut csv = String::from("shift_sigma,delay_samples,ks,psi\n");
    for &shift in &[0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0] {
        // Median over three seeds.
        let mut delays = Vec::new();
        let mut ks_last = 0.0;
        let mut psi_last = 0.0;
        for seed in 1..=3 {
            let (delay, ks, psi) = detection_delay(shift, seed);
            delays.push(delay);
            ks_last = ks;
            psi_last = psi;
        }
        delays.sort_by_key(|d| d.unwrap_or(usize::MAX));
        let median = delays[1];
        let delay_text = median.map_or("never".to_string(), |d| d.to_string());
        println!("{shift:>8.2}   {delay_text:>25}   {ks_last:>8.3}   {psi_last:>8.3}");
        csv.push_str(&format!(
            "{shift},{},{ks_last:.4},{psi_last:.4}\n",
            median.map_or(-1i64, |d| d as i64)
        ));
    }
    let fpr = false_positive_rate(42);
    println!(
        "\nfalse-positive rate at alpha=0.01, unshifted stream: {:.1}%",
        fpr * 100.0
    );
    csv.push_str(&format!("fpr,{fpr:.4},,\n"));

    // Ablation: windowed mean vs EWMA as the detector's summary statistic —
    // how quickly does each reflect a 1σ mean shift?
    println!("\nablation: windowed mean vs EWMA response to a 1σ shift");
    let mut rng = DetRng::seed(9);
    let mut window = std::collections::VecDeque::new();
    let mut ewma = 0.0f64;
    let alpha = 0.02;
    let mut window_cross = None;
    let mut ewma_cross = None;
    for i in 0..4_000 {
        let x = if i < 2_000 {
            rng.gauss()
        } else {
            rng.gauss() + 1.0
        };
        window.push_back(x);
        if window.len() > 512 {
            window.pop_front();
        }
        ewma = alpha * x + (1.0 - alpha) * ewma;
        if i >= 2_000 {
            let mean: f64 = window.iter().sum::<f64>() / window.len() as f64;
            if window_cross.is_none() && mean > 0.5 {
                window_cross = Some(i - 2_000);
            }
            if ewma_cross.is_none() && ewma > 0.5 {
                ewma_cross = Some(i - 2_000);
            }
        }
    }
    println!(
        "  512-sample window mean crosses 0.5σ after {:?} samples; EWMA(0.02) after {:?}",
        window_cross, ewma_cross
    );
    csv.push_str(&format!(
        "ablation_window_cross,{},,\nablation_ewma_cross,{},,\n",
        window_cross.map_or(-1i64, |d| d as i64),
        ewma_cross.map_or(-1i64, |d| d as i64)
    ));
    let path = write_results("exp_drift.csv", &csv);
    println!("\nwritten to {}", path.display());
}
