//! Engine checkpoint/restore: the monitor state that must survive a crash.
//!
//! An [`EngineCheckpoint`] is what a restarted
//! [`MonitorEngine`](super::MonitorEngine) needs to *resume* rather than
//! *reset*:
//!
//! - every installed monitor's [`MonitorState`], whole: hysteresis,
//!   enablement and watchdog state, `DELTA` state, its overhead account,
//!   its timers' next ticks and its pending `RETRAIN` retries;
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
//! The encoding (format GRCP4) is a line-oriented text format wrapped in a
//! CRC-32 header: human-inspectable in a post-mortem, and any torn or
//! bit-rotted blob is detected and rejected whole, as is a blob of any
//! other format. So is a blob whose checksum holds but whose counts no run
//! can reach: a count past `u64::MAX >> 1`, alone or summed over the
//! accounts, or a pending `RETRAIN` retry past its attempt budget. No field
//! is a wall-clock reading, so the bytes are a function of the engine's
//! inputs: two identical runs checkpoint identically.

use simkernel::Nanos;

use crate::error::Result;
use crate::monitor::overhead::OverheadAccount;
use crate::monitor::state::{
    account_counters, corrupt, parse, parse_account, write_account, MonitorState, PutText,
    HEX_DIGITS,
};
use crate::store::wal::crc32;

/// First token of an encoded checkpoint (magic + format version).
pub const CHECKPOINT_MAGIC: &str = "GRCP4";

/// The largest count a checkpoint may hold in any counter of the retired
/// total or of a monitor's account, in their field-wise sum, or in a
/// monitor's suppression count: half the counters' range, so a restored
/// engine counts on without overflow. No run counts that far.
const MAX_COUNT: u64 = u64::MAX >> 1;

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
    /// order.
    pub monitors: Vec<(String, u32, MonitorState)>,
}

impl EngineCheckpoint {
    /// Encodes the checkpoint as a checksummed, line-oriented GRCP4 blob.
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

    /// Decodes and validates a GRCP4 checkpoint blob.
    ///
    /// Any structural damage — bad magic, checksum mismatch, malformed line
    /// — rejects the whole blob, and so does a count past `u64::MAX >> 1` or
    /// a pending retry past its budget: restore is all-or-nothing.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let text = std::str::from_utf8(bytes).map_err(|_| corrupt("not utf-8"))?;
        let (header, body) = text
            .split_once('\n')
            .ok_or_else(|| corrupt("missing header"))?;
        let mut header_parts = header.split_ascii_whitespace();
        if header_parts.next() != Some(CHECKPOINT_MAGIC) {
            return Err(corrupt("bad magic"));
        }
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
        let mut monitors: Vec<(String, u32, MonitorState)> = Vec::new();
        for line in body.lines() {
            let fields: Vec<&str> = line.split_ascii_whitespace().collect();
            match fields.as_slice() {
                ["now", n] => now = Some(Nanos::from_nanos(parse(n)?)),
                ["retired", counters @ ..] => retired = Some(parse_account(counters)?),
                ["slot", name, variant] => {
                    slots.push((name.to_string(), variant.to_string()));
                }
                ["monitor", name, fingerprint, e, t, f, key_tables] => {
                    let fingerprint = u32::from_str_radix(fingerprint, 16)
                        .map_err(|_| corrupt("bad fingerprint"))?;
                    let state = MonitorState::decode([e, t, f], key_tables)?;
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
        let retired = retired.ok_or_else(|| corrupt("missing retired line"))?;
        let mut sum = account_counters(&retired);
        for (_, _, state) in &monitors {
            for (total, n) in sum.iter_mut().zip(account_counters(&state.account)) {
                *total = total.saturating_add(n);
            }
        }
        let suppressed = monitors.iter().map(|m| m.2.hysteresis.suppressed);
        if sum.into_iter().chain(suppressed).any(|n| n > MAX_COUNT) {
            return Err(corrupt("count out of range"));
        }
        Ok(EngineCheckpoint {
            now: now.ok_or_else(|| corrupt("missing now line"))?,
            slots,
            retired,
            monitors,
        })
    }
}

/// Writes a GRCP4 blob into `out`, replacing its contents: the one
/// encoder behind [`EngineCheckpoint::encode`] and
/// [`MonitorEngine::checkpoint_into`](super::MonitorEngine::checkpoint_into).
/// It allocates only to grow `out`.
pub(crate) fn encode_into<'s, 'm>(
    out: &mut Vec<u8>,
    now: Nanos,
    retired: &OverheadAccount,
    slots: impl Iterator<Item = (&'s str, &'s str)>,
    monitors: impl Iterator<Item = (&'m str, u32, &'m MonitorState)>,
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
    use crate::monitor::hysteresis::{Hysteresis, HysteresisState};
    use crate::monitor::state::PendingRetrain;
    use crate::vm::DeltaState;

    /// Blobs in the formats before GRCP4, checksums intact: GRCP1 kept
    /// engine-wide stats, GRCP2 a measured wall time at the end of every
    /// account line, GRCP3 a watchdog probation deadline in every `monitor`
    /// line.
    const OLD_SAMPLES: [&str; 3] = [
        "GRCP1 6236b80e\n\
        now 9000000000\n\
        stats 12 3 2 1 0 0 4 52000\n\
        slot io_latency fallback\n\
        monitor low-false-submit 1 0 0 11000000000\n\
        hyst 2 3 5000000000 8000000000 7 011\n",
        "GRCP2 7468c045\n\
        now 9000000000\n\
        retired 5 1 0 0 0 0 4 0 0 0 0 0 0 1 0 2000\n\
        slot io_latency fallback\n\
        monitor low-false-submit 1a2b3c4d 1 0 0 11000000000 2,0\n\
        hyst 2 3 5000000000 8000000000 7 011\n\
        account 7 2 2 1 0 0 0 42 6 0 0 1 0 1 0 50000\n\
        timer 9500000000\n\
        timer -\n\
        delta 0 1 4044c00000000000\n\
        retrain io_model 1 10000000000\n",
        "GRCP3 de330571\n\
        now 9000000000\n\
        retired 5 1 0 0 0 0 4 0 0 0 0 0 0 1 0\n\
        slot io_latency fallback\n\
        monitor low-false-submit 1a2b3c4d 1 0 0 11000000000 2,0\n\
        hyst 2 3 5000000000 8000000000 7 011\n\
        account 7 2 2 1 0 0 0 42 6 0 0 1 0 1 0\n\
        timer 9500000000\n\
        timer -\n\
        delta 0 1 4044c00000000000\n\
        retrain io_model 1 10000000000\n",
    ];

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
                ..OverheadAccount::default()
            },
            monitors: vec![(
                "low-false-submit".to_string(),
                0x1a2b_3c4d,
                MonitorState {
                    enabled: true,
                    watchdog_tripped: false,
                    consecutive_faults: 0,
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
        state.deltas.clear();
        state.next_due.clear();
        state.retrains.clear();
        assert_eq!(EngineCheckpoint::decode(&cp.encode()).unwrap(), cp);
    }

    /// GRCP1, GRCP2 and GRCP3 are not read: their blobs are rejected whole,
    /// so no restore can start from them.
    #[test]
    fn older_format_blobs_are_rejected_whole() {
        for blob in OLD_SAMPLES {
            let body = blob.split_once('\n').unwrap().1;
            assert_eq!(
                blob[6..14],
                format!("{:08x}", crc32(body.as_bytes())),
                "the checksum is not what rejects it"
            );
            assert!(EngineCheckpoint::decode(blob.as_bytes()).is_err());
        }
    }

    /// A count past `MAX_COUNT`, alone or summed over the accounts, and a
    /// pending retry past its attempt budget are rejected; the largest
    /// values a run could leave still decode.
    #[test]
    fn counts_no_run_reaches_are_rejected() {
        use crate::monitor::resilience::RETRY_ATTEMPTS;
        let decodes = |edit: &dyn Fn(&mut EngineCheckpoint)| {
            let mut cp = sample();
            edit(&mut cp);
            EngineCheckpoint::decode(&cp.encode()).is_ok()
        };
        fn state(cp: &mut EngineCheckpoint) -> &mut MonitorState {
            &mut cp.monitors[0].2
        }
        assert!(decodes(&|cp| state(cp).account.rule_fuel = MAX_COUNT));
        // The retired total holds 5 evaluations.
        assert!(decodes(&|cp| state(cp).account.evaluations = MAX_COUNT - 5));
        assert!(!decodes(&|cp| state(cp).account.evaluations = MAX_COUNT - 4));
        assert!(!decodes(&|cp| cp.retired.actions[5] = MAX_COUNT + 1));
        assert!(decodes(&|cp| state(cp).hysteresis.suppressed = MAX_COUNT));
        assert!(!decodes(
            &|cp| state(cp).hysteresis.suppressed = MAX_COUNT + 1
        ));
        assert!(decodes(
            &|cp| state(cp).retrains[0].attempt = RETRY_ATTEMPTS - 1
        ));
        assert!(!decodes(
            &|cp| state(cp).retrains[0].attempt = RETRY_ATTEMPTS
        ));
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
            "retired 5 1 0 0 0 0 4 0 0 0 0 0 0 1 0",
            "slot io_latency fallback",
            "monitor low-false-submit 1a2b3c4d 1 0 0 2,0",
            "hyst 2 3 5000000000 8000000000 7 011",
            "account 7 2 2 1 0 0 0 42 6 0 0 1 0 1 0",
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
