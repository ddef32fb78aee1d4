//! Engine checkpoint/restore: the monitor state that must survive a crash.
//!
//! An [`EngineCheckpoint`] is what a restarted
//! [`MonitorEngine`](super::MonitorEngine) needs to *resume* rather than
//! *reset*:
//!
//! - every installed monitor's [`MonitorState`], whole: hysteresis,
//!   enablement, watchdog and probation state, `DELTA` state, its overhead
//!   account, its timers' next ticks and its pending `RETRAIN` retries;
//! - the summed accounts of monitors that are gone, so engine-wide
//!   counters (P5's overhead fraction included) continue across a restart;
//! - the active variant of every policy slot — the `REPLACE` decision that
//!   disabled a misbehaving model is re-applied before the first
//!   post-restart decision;
//! - the engine clock.
//!
//! Each monitor's state is stored with its name and *fingerprint*: the
//! CRC-32 of its timers and program listings. State restores only into an
//! installed monitor with the same name and fingerprint; a monitor whose
//! spec changed is treated like an uninstalled one, its account folded
//! into the retired total. The deployment wins over history, and a `DELTA`
//! value is never attributed to a different key.
//!
//! Restore moves every timer to the first tick of its own phase strictly
//! after the checkpoint instant: missed ticks are not replayed, and a
//! monitor installed mid-period keeps its offset.
//!
//! The encoding (format GRCP2) is a line-oriented text format wrapped in a
//! CRC-32 header: human-inspectable in a post-mortem, and any torn or
//! bit-rotted blob is detected and rejected whole. GRCP1 blobs, written
//! before monitor state was checkpointed whole, still decode: their
//! `stats` line becomes the retired total, and their monitors carry no
//! fingerprint and restore by name with empty `DELTA` state, zero
//! accounts, no pending retries and timers anchored at their start times.

use simkernel::Nanos;

use crate::error::Result;
use crate::monitor::engine::EngineStats;
use crate::monitor::overhead::OverheadAccount;
use crate::monitor::state::{
    corrupt, parse, parse_account, write_account, MonitorState, PutText, HEX_DIGITS,
};
use crate::store::wal::crc32;

/// First token of an encoded checkpoint (magic + format version).
pub const CHECKPOINT_MAGIC: &str = "GRCP2";

/// The magic of the previous format, which still decodes.
const CHECKPOINT_MAGIC_V1: &str = "GRCP1";

/// A complete engine checkpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineCheckpoint {
    /// The engine clock at checkpoint time; restore moves timers to their
    /// first tick strictly after this instant.
    pub now: Nanos,
    /// `(slot, active_variant)` for every registered policy slot, sorted.
    pub slots: Vec<(String, String)>,
    /// The summed accounts of monitors no longer installed.
    pub retired: OverheadAccount,
    /// `(name, fingerprint, state)` per installed monitor, in installation
    /// order. The fingerprint is `None` for a monitor from a GRCP1 blob,
    /// which predates fingerprints and restores by name alone.
    pub monitors: Vec<(String, Option<u32>, MonitorState)>,
}

impl EngineCheckpoint {
    /// The engine-wide counters at checkpoint time: the retired total plus
    /// every monitor's account.
    pub fn stats(&self) -> EngineStats {
        let mut sum = self.retired;
        for (_, _, state) in &self.monitors {
            sum.merge(&state.account);
        }
        sum.into()
    }

    /// Encodes the checkpoint as a checksummed, line-oriented GRCP2 blob.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        encode_into(
            &mut out,
            self.now,
            &self.retired,
            self.slots.iter().map(|(s, v)| (s.as_str(), v.as_str())),
            self.monitors
                .iter()
                .map(|(name, fingerprint, state)| (name.as_str(), *fingerprint, state)),
        );
        out
    }

    /// Decodes and validates a GRCP2 or GRCP1 checkpoint blob.
    ///
    /// Any structural damage — bad magic, checksum mismatch, malformed line
    /// — rejects the whole blob: restore is all-or-nothing.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let text = std::str::from_utf8(bytes).map_err(|_| corrupt("not utf-8"))?;
        let (header, body) = text
            .split_once('\n')
            .ok_or_else(|| corrupt("missing header"))?;
        let mut header_parts = header.split_ascii_whitespace();
        let legacy = match header_parts.next() {
            Some(CHECKPOINT_MAGIC) => false,
            Some(CHECKPOINT_MAGIC_V1) => true,
            _ => return Err(corrupt("bad magic")),
        };
        let stored_crc = header_parts
            .next()
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| corrupt("bad checksum field"))?;
        if stored_crc != crc32(body.as_bytes()) {
            return Err(corrupt("checksum mismatch"));
        }

        let mut now = None;
        let mut retired = None;
        let mut slots = Vec::new();
        let mut monitors: Vec<(String, Option<u32>, MonitorState)> = Vec::new();
        for line in body.lines() {
            let fields: Vec<&str> = line.split_ascii_whitespace().collect();
            match fields.as_slice() {
                ["now", n] => now = Some(Nanos::from_nanos(parse(n)?)),
                ["retired", counters @ ..] if !legacy => {
                    retired = Some(parse_account(counters)?);
                }
                ["stats", ev, vi, tr, cm, rf, wt, rr, wall] if legacy => {
                    retired = Some(OverheadAccount {
                        evaluations: parse(ev)?,
                        violations: parse(vi)?,
                        trips: parse(tr)?,
                        commands_emitted: parse(cm)?,
                        rule_faults: parse(rf)?,
                        watchdog_trips: parse(wt)?,
                        retrain_retries: parse(rr)?,
                        wall_ns: parse(wall)?,
                        ..OverheadAccount::default()
                    });
                }
                ["slot", name, variant] => {
                    slots.push((name.to_string(), variant.to_string()));
                }
                ["monitor", name, e, t, f, p] if legacy => {
                    let state = MonitorState::decode([e, t, f, p], "-")?;
                    monitors.push((name.to_string(), None, state));
                }
                ["monitor", name, fingerprint, e, t, f, p, key_tables] if !legacy => {
                    let fingerprint = match *fingerprint {
                        "-" => None,
                        hex => Some(
                            u32::from_str_radix(hex, 16).map_err(|_| corrupt("bad fingerprint"))?,
                        ),
                    };
                    let state = MonitorState::decode([e, t, f, p], key_tables)?;
                    monitors.push((name.to_string(), fingerprint, state));
                }
                [] => {}
                state_line => monitors
                    .last_mut()
                    .ok_or_else(|| corrupt("unrecognized line"))?
                    .2
                    .decode_line(state_line)?,
            }
        }
        Ok(EngineCheckpoint {
            now: now.ok_or_else(|| corrupt("missing now line"))?,
            slots,
            retired: retired.ok_or_else(|| corrupt("missing retired line"))?,
            monitors,
        })
    }
}

/// Writes a GRCP2 blob into `out`, replacing its contents: the one
/// encoder behind [`EngineCheckpoint::encode`] and
/// [`MonitorEngine::checkpoint_into`](super::MonitorEngine::checkpoint_into).
/// It allocates only to grow `out`.
pub(crate) fn encode_into<'s, 'm>(
    out: &mut Vec<u8>,
    now: Nanos,
    retired: &OverheadAccount,
    slots: impl Iterator<Item = (&'s str, &'s str)>,
    monitors: impl Iterator<Item = (&'m str, Option<u32>, &'m MonitorState)>,
) {
    out.clear();
    // The header's checksum field is filled in once the body is written.
    out.put(CHECKPOINT_MAGIC).put(" 00000000\n");
    let header = out.len();
    out.put("now ").put_u64(now.as_nanos()).put("\n");
    write_account(out, "retired", retired);
    for (slot, variant) in slots {
        out.put("slot ").put(slot).put(" ").put(variant).put("\n");
    }
    for (name, fingerprint, state) in monitors {
        state.encode(name, fingerprint, out);
    }
    let crc = crc32(&out[header..]);
    for (i, digit) in out[header - 9..header - 1].iter_mut().enumerate() {
        *digit = HEX_DIGITS[(crc >> (28 - 4 * i)) as usize & 0xf];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::engine::MonitorEngine;
    use crate::monitor::hysteresis::{Hysteresis, HysteresisState};
    use crate::monitor::state::PendingRetrain;
    use crate::vm::DeltaState;

    /// The GRCP1 encoding of the checkpoint below, as the previous format
    /// wrote it.
    const GRCP1_SAMPLE: &str = "GRCP1 6236b80e\n\
        now 9000000000\n\
        stats 12 3 2 1 0 0 4 52000\n\
        slot io_latency fallback\n\
        monitor low-false-submit 1 0 0 11000000000\n\
        hyst 2 3 5000000000 8000000000 7 011\n";

    fn hysteresis() -> HysteresisState {
        HysteresisState {
            config: Hysteresis {
                trip_threshold: 2,
                window: 3,
                cooldown: Nanos::from_secs(5),
            },
            recent: [false, true, true].into_iter().collect(),
            last_fire: Some(Nanos::from_secs(8)),
            suppressed: 7,
        }
    }

    /// A checkpoint with every line kind: a retired total, a slot, and a
    /// monitor with hysteresis, an account, a live and an ended timer,
    /// `DELTA` values (a NaN among them) and a pending retry.
    fn sample() -> EngineCheckpoint {
        let mut deltas = vec![DeltaState::with_len(2), DeltaState::with_len(0)];
        deltas[0].set(1, 41.5);
        deltas[0].set(0, f64::NAN);
        EngineCheckpoint {
            now: Nanos::from_secs(9),
            slots: vec![("io_latency".to_string(), "fallback".to_string())],
            retired: OverheadAccount {
                evaluations: 5,
                violations: 1,
                retrain_retries: 4,
                actions: [0, 0, 0, 0, 1, 0],
                wall_ns: 2_000,
                ..OverheadAccount::default()
            },
            monitors: vec![(
                "low-false-submit".to_string(),
                Some(0x1a2b_3c4d),
                MonitorState {
                    enabled: true,
                    watchdog_tripped: false,
                    consecutive_faults: 0,
                    probation_until: Some(Nanos::from_secs(11)),
                    hysteresis: hysteresis(),
                    deltas,
                    account: OverheadAccount {
                        evaluations: 7,
                        violations: 2,
                        trips: 2,
                        commands_emitted: 1,
                        rule_fuel: 42,
                        action_fuel: 6,
                        actions: [0, 0, 1, 0, 1, 0],
                        wall_ns: 50_000,
                        ..OverheadAccount::default()
                    },
                    next_due: vec![Some(Nanos::from_millis(9_500)), None],
                    retrains: vec![PendingRetrain {
                        model: "io_model".to_string(),
                        attempt: 1,
                        next_attempt: Nanos::from_secs(10),
                    }],
                },
            )],
        }
    }

    #[test]
    fn round_trip() {
        let cp = sample();
        assert_eq!(EngineCheckpoint::decode(&cp.encode()).unwrap(), cp);
    }

    #[test]
    fn round_trip_with_empty_collections() {
        let cp = EngineCheckpoint {
            now: Nanos::ZERO,
            slots: Vec::new(),
            retired: OverheadAccount::default(),
            monitors: Vec::new(),
        };
        assert_eq!(EngineCheckpoint::decode(&cp.encode()).unwrap(), cp);
    }

    #[test]
    fn empty_state_round_trips() {
        let mut cp = sample();
        let state = &mut cp.monitors[0].2;
        state.hysteresis = HysteresisState::default();
        state.probation_until = None;
        state.deltas.clear();
        state.next_due.clear();
        state.retrains.clear();
        cp.monitors[0].1 = None;
        assert_eq!(EngineCheckpoint::decode(&cp.encode()).unwrap(), cp);
    }

    #[test]
    fn stats_sum_the_retired_total_and_the_monitors() {
        let stats = sample().stats();
        assert_eq!(stats.evaluations, 12);
        assert_eq!(stats.violations, 3);
        assert_eq!(stats.retrain_retries, 4);
        assert_eq!(stats.eval_wall_ns, 52_000);
    }

    #[test]
    fn grcp1_blobs_still_decode_and_restore() {
        let cp = EngineCheckpoint::decode(GRCP1_SAMPLE.as_bytes()).unwrap();
        assert_eq!(cp.now, Nanos::from_secs(9));
        assert_eq!(cp.slots, sample().slots);
        assert_eq!(
            cp.stats(),
            EngineStats {
                evaluations: 12,
                violations: 3,
                trips: 2,
                commands_emitted: 1,
                rule_faults: 0,
                watchdog_trips: 0,
                retrain_retries: 4,
                eval_wall_ns: 52_000,
            },
            "the stats line becomes the retired total"
        );
        let (name, fingerprint, state) = &cp.monitors[0];
        assert_eq!((name.as_str(), *fingerprint), ("low-false-submit", None));
        assert_eq!(state.probation_until, Some(Nanos::from_secs(11)));
        assert_eq!(state.hysteresis, hysteresis());
        assert_eq!(state.account, OverheadAccount::default());
        assert!(state.deltas.is_empty() && state.next_due.is_empty() && state.retrains.is_empty());
        // Re-encoded as GRCP2, the entry stays fingerprint-less.
        assert_eq!(EngineCheckpoint::decode(&cp.encode()).unwrap(), cp);

        // It restores by name into a monitor installed at 0.5 s: hysteresis
        // and watchdog state come back, the counters continue from the
        // stats line, and the timer is anchored at its start time.
        let mut engine = MonitorEngine::new();
        engine
            .registry()
            .register("io_latency", &["learned", "fallback"])
            .unwrap();
        engine.advance_to(Nanos::from_millis(500));
        engine
            .install_str(
                "guardrail low-false-submit { trigger: { TIMER(0, 1s) }, \
                 rule: { LOAD(false_submit_rate) <= 0.05 }, action: { SAVE(ml_enabled, false) } }",
            )
            .unwrap();
        engine.restore(&cp).unwrap();
        assert!(engine.registry().is_active("io_latency", "fallback"));
        assert_eq!(engine.suppressed("low-false-submit").unwrap(), 7);
        assert_eq!(engine.stats(), cp.stats());
        assert_eq!(
            engine.checkpoint().monitors[0].2.probation_until,
            state.probation_until
        );
        engine.advance_to(Nanos::from_millis(10_900));
        assert_eq!(
            engine.stats().evaluations,
            cp.stats().evaluations + 1,
            "one tick, at 10 s"
        );
    }

    #[test]
    fn out_of_range_delta_lines_are_rejected() {
        let text = String::from_utf8(sample().encode()).unwrap();
        let body = text.split_once('\n').unwrap().1;
        for bad in [
            "delta 2 0 0000000000000000\n",
            "delta 0 2 0000000000000000\n",
        ] {
            let body = format!("{body}{bad}");
            let blob = format!("{CHECKPOINT_MAGIC} {:08x}\n{body}", crc32(body.as_bytes()));
            assert!(EngineCheckpoint::decode(blob.as_bytes()).is_err(), "{bad}");
        }
    }

    #[test]
    fn every_bit_flip_is_rejected() {
        let encoded = sample().encode();
        for i in 0..encoded.len() {
            let mut bad = encoded.clone();
            bad[i] ^= 0x04;
            assert!(
                EngineCheckpoint::decode(&bad).is_err(),
                "bit flip at byte {i} must not decode"
            );
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let encoded = sample().encode();
        for cut in 0..encoded.len() {
            assert!(EngineCheckpoint::decode(&encoded[..cut]).is_err());
        }
    }

    #[test]
    fn encoding_is_deterministic_and_inspectable() {
        let cp = sample();
        assert_eq!(cp.encode(), cp.encode());
        let text = String::from_utf8(cp.encode()).unwrap();
        for line in [
            "retired 5 1 0 0 0 0 4 0 0 0 0 0 0 1 0 2000",
            "slot io_latency fallback",
            "monitor low-false-submit 1a2b3c4d 1 0 0 11000000000 2,0",
            "hyst 2 3 5000000000 8000000000 7 011",
            "account 7 2 2 1 0 0 0 42 6 0 0 1 0 1 0 50000",
            "timer 9500000000",
            "timer -",
            "delta 0 1 4044c00000000000",
            "retrain io_model 1 10000000000",
        ] {
            assert!(
                text.lines().any(|l| l == line),
                "missing {line:?} in\n{text}"
            );
        }
    }
}
