//! E10: crash-restart vs the guardrail runtime (crash consistency).
//!
//! For every crash-damage variant (clean crash, torn WAL tail, corrupt
//! snapshot, corrupt engine checkpoint) plus a rapid crash loop, runs the LinnOS setting twice with
//! identical seeds — once on the **seed** runtime (no persistence: every
//! reboot re-runs init and re-arms the learned policy) and once on the
//! **recovery** runtime (WAL + snapshot durable store, engine checkpoint,
//! supervised restarts with fail-closed escalation) — alongside a no-crash
//! reference run.
//!
//! The headline contrast: the seed runtime loses guardrail decisions across
//! restarts (the disabled model comes back, the `REPLACE`d policy slot
//! reverts), while the recovery runtime resumes where it crashed and its
//! latency trajectory converges to the no-crash Figure 2 run.
//!
//! Emits `results/exp_recovery.csv` (one row per scenario × runtime; a
//! fixed seed makes the file byte-for-byte reproducible) and prints the
//! contrast table.

use gr_bench::{row, write_results};
use storagesim::{
    recovery_matrix, run_crash_loop, run_crash_pair, run_no_crash_reference, RecoveryRunReport,
};

const SEED: u64 = 0xF162;

fn opt_secs(v: Option<simkernel::Nanos>) -> String {
    match v {
        Some(n) => format!("{:.2}", n.as_secs_f64()),
        None => "never".to_string(),
    }
}

fn csv_row(r: &RecoveryRunReport) -> String {
    format!(
        "{},{},{},{},{},{:.2},{},{},{},{},{:.1},{:.1},{},{},{},{},{},{},{}\n",
        r.label,
        if r.durable { "recovery" } else { "seed" },
        r.crashes,
        r.restarts,
        r.failed_closed,
        r.downtime.as_secs_f64(),
        r.skipped_ios,
        r.rearmed_ios,
        opt_secs(r.disabled_at),
        r.violations,
        r.healthy_latency_us,
        r.post_crash_latency_us,
        r.ml_enabled_at_end,
        r.slot_learned_at_end,
        r.wal_records_applied,
        r.torn_tail_bytes,
        r.snapshot_discarded,
        r.checkpoint_discarded,
        r.tainted,
    )
}

fn main() {
    let mut csv = String::from(
        "scenario,runtime,crashes,restarts,failed_closed,downtime_s,skipped_ios,\
         rearmed_ios,disabled_at_s,violations,healthy_latency_us,post_crash_latency_us,\
         ml_enabled_at_end,slot_learned_at_end,wal_records_applied,torn_tail_bytes,\
         snapshot_discarded,checkpoint_discarded,tainted\n",
    );

    eprintln!("running no-crash reference");
    let reference = run_no_crash_reference(SEED);
    csv.push_str(&csv_row(&reference));

    let mut pairs = Vec::new();
    for kind in recovery_matrix() {
        eprintln!("running crash scenario: {}", storagesim::fault_label(&kind));
        let (seed_run, recovered) = run_crash_pair(kind, SEED);
        csv.push_str(&csv_row(&seed_run));
        csv.push_str(&csv_row(&recovered));
        pairs.push((seed_run, recovered));
    }
    eprintln!("running crash scenario: crash_loop");
    let loop_pair = (run_crash_loop(false, SEED), run_crash_loop(true, SEED));
    csv.push_str(&csv_row(&loop_pair.0));
    csv.push_str(&csv_row(&loop_pair.1));
    pairs.push(loop_pair);

    let path = write_results("exp_recovery.csv", &csv);

    println!("=== E10: crash-restart vs the guardrail runtime ===");
    println!("results written to {}", path.display());
    println!();
    let widths = [16usize, 9, 8, 9, 11, 8, 8, 15, 7];
    println!(
        "{}",
        row(
            &[
                "scenario".into(),
                "runtime".into(),
                "crashes".into(),
                "restarts".into(),
                "failclosed".into(),
                "rearmed".into(),
                "tainted".into(),
                "post-crash(µs)".into(),
                "ml@end".into(),
            ],
            &widths
        )
    );
    for r in std::iter::once(&reference).chain(pairs.iter().flat_map(|(s, d)| [s, d])) {
        println!(
            "{}",
            row(
                &[
                    r.label.clone(),
                    if r.durable { "recovery" } else { "seed" }.into(),
                    r.crashes.to_string(),
                    r.restarts.to_string(),
                    r.failed_closed.to_string(),
                    r.rearmed_ios.to_string(),
                    r.tainted.to_string(),
                    format!("{:.0}", r.post_crash_latency_us),
                    r.ml_enabled_at_end.to_string(),
                ],
                &widths
            )
        );
    }
    println!();

    // Shape checks — the claims the experiment exists to demonstrate.
    let (crash_seed, crash_rec) = &pairs[0];
    let ref_lat = reference.post_crash_latency_us;
    let rec_gap = (crash_rec.post_crash_latency_us - ref_lat).abs() / ref_lat;
    assert!(
        crash_seed.rearmed_ios > 0 && crash_rec.rearmed_ios == 0,
        "seed loses the kill-switch decision; recovery must not"
    );
    assert!(
        !crash_rec.slot_learned_at_end,
        "the REPLACE decision survives the restart"
    );
    assert!(
        rec_gap < 0.10,
        "recovery trajectory within 10% of the no-crash reference (gap {rec_gap:.3})"
    );
    assert!(
        crash_seed.post_crash_latency_us > crash_rec.post_crash_latency_us,
        "the re-armed window costs the seed runtime latency"
    );
    let (_, torn) = &pairs[1];
    assert!(
        torn.torn_tail_bytes > 0 && !torn.tainted && torn.rearmed_ios == 0,
        "a torn tail is detected, repaired, and not treated as taint"
    );
    let (_, rot) = &pairs[2];
    assert!(
        rot.snapshot_discarded && rot.tainted && !rot.ml_enabled_at_end,
        "a corrupt snapshot is discarded and the boot fails closed"
    );
    let (_, rot) = &pairs[3];
    assert!(
        rot.checkpoint_discarded && rot.tainted && !rot.ml_enabled_at_end && rot.rearmed_ios == 0,
        "an undecodable checkpoint is recorded and the boot fails closed"
    );
    let (loop_seed, loop_rec) = &pairs[4];
    assert!(
        loop_rec.failed_closed && loop_rec.restarts == 2 && loop_rec.rearmed_ios == 0,
        "the supervisor escalates the crash loop to fail-closed"
    );
    assert!(
        !loop_seed.failed_closed && loop_seed.rearmed_ios > crash_seed.rearmed_ios,
        "the seed runtime keeps rebooting and re-arming"
    );
    println!(
        "shape check: recovery runtime kept every guardrail decision across \
         restarts (0 re-armed I/Os vs {} on the seed runtime); post-crash latency \
         within {:.1}% of the no-crash reference; crash loop escalated to \
         fail-closed after {} restarts.",
        crash_seed.rearmed_ios,
        rec_gap * 100.0,
        loop_rec.restarts,
    );
}
