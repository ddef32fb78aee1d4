//! E9: fault injection vs the guardrail runtime (the chaos sweep).
//!
//! For every fault in the chaos-harness taxonomy, runs the LinnOS setting
//! twice with identical seeds — once on the **seed** runtime (resilience
//! off, store quarantine off) and once on the **hardened** runtime
//! (non-finite quarantine, `REPLACE` fallback, retrain retry/backoff,
//! protected retrain executor, fail-closed watchdog) — and reports detection
//! delay, recovery time, and post-fault latency for each.
//!
//! Emits `results/exp_faults.csv` (one row per fault × runtime; a fixed
//! seed makes the file byte-for-byte reproducible) and prints the contrast
//! table plus the headline count: on how many fault kinds the hardened
//! runtime reaches a safe state while the seed runtime stays wedged.

use gr_bench::{row, write_results};
use storagesim::{fault_matrix, quiet_injected_panics, run_fault_pair, FaultRunReport};

const SEED: u64 = 0xF162;

fn opt_secs(v: Option<simkernel::Nanos>) -> String {
    match v {
        Some(n) => format!("{:.2}", n.as_secs_f64()),
        None => "never".to_string(),
    }
}

fn csv_row(r: &FaultRunReport) -> String {
    format!(
        "{},{},{},{},{},{},{},{},{},{:.1},{:.1},{},{}\n",
        r.label,
        if r.hardened { "hardened" } else { "seed" },
        opt_secs(r.detection_delay),
        opt_secs(r.recovery),
        r.violations,
        r.rule_faults,
        r.watchdog_trips,
        r.retrain_retries,
        r.poisoned_saves,
        r.healthy_latency_us,
        r.post_fault_latency_us,
        r.ml_enabled_at_end,
        r.wedged,
    )
}

fn main() {
    quiet_injected_panics();

    let mut csv = String::from(
        "fault,runtime,detection_delay_s,recovery_s,violations,rule_faults,\
         watchdog_trips,retrain_retries,poisoned_saves,healthy_latency_us,\
         post_fault_latency_us,ml_enabled_at_end,wedged\n",
    );
    let mut pairs = Vec::new();
    for kind in fault_matrix() {
        eprintln!("running fault scenario: {}", storagesim::fault_label(&kind));
        let (seed_run, hardened) = run_fault_pair(kind, SEED);
        csv.push_str(&csv_row(&seed_run));
        csv.push_str(&csv_row(&hardened));
        pairs.push((seed_run, hardened));
    }
    let path = write_results("exp_faults.csv", &csv);

    println!("=== E9: fault injection vs the guardrail runtime ===");
    println!("results written to {}", path.display());
    println!();
    let widths = [22usize, 9, 11, 11, 16, 8, 8];
    println!(
        "{}",
        row(
            &[
                "fault".into(),
                "runtime".into(),
                "detect(s)".into(),
                "recover(s)".into(),
                "post-fault(µs)".into(),
                "ml@end".into(),
                "wedged".into(),
            ],
            &widths
        )
    );
    for (seed_run, hardened) in &pairs {
        for r in [seed_run, hardened] {
            println!(
                "{}",
                row(
                    &[
                        r.label.clone(),
                        if r.hardened { "hardened" } else { "seed" }.into(),
                        opt_secs(r.detection_delay),
                        opt_secs(r.recovery),
                        format!("{:.0}", r.post_fault_latency_us),
                        r.ml_enabled_at_end.to_string(),
                        r.wedged.to_string(),
                    ],
                    &widths
                )
            );
        }
    }
    println!();

    let contrasts: Vec<&str> = pairs
        .iter()
        .filter(|(s, h)| s.wedged && !h.wedged)
        .map(|(s, _)| s.label.as_str())
        .collect();
    let both_recover = pairs.iter().filter(|(s, h)| !s.wedged && !h.wedged).count();
    println!(
        "shape check: the hardened runtime reaches a safe state on {} fault kinds \
         where the seed runtime stays wedged ({}); {} further kinds recover under \
         both runtimes.",
        contrasts.len(),
        contrasts.join(", "),
        both_recover,
    );
    assert!(
        contrasts.len() >= 4,
        "expected >=4 hardened-recovers/seed-wedges contrasts, got {}",
        contrasts.len()
    );
}
