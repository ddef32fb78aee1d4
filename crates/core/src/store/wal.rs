//! Write-ahead log frames for the durable feature store.
//!
//! Every accepted `SAVE` (and counter update) appends one checksummed frame
//! to an append-only byte log. On open, [`decode_stream`] replays the log:
//! frames are validated with a CRC-32 and a length prefix, so a crash that
//! tears the final frame mid-write is detected and the torn tail is
//! discarded rather than misparsed. Replay is idempotent because frames
//! record *post-state* (`key = value`, never `key += delta`) and carry
//! monotonic sequence numbers that let a snapshot-aware reader skip frames
//! already folded into a snapshot.
//!
//! Frame layouts (little-endian):
//!
//! ```text
//! single record:  [0x57A1 u16][payload_len u32][payload][crc32(payload) u32]
//!                 payload = [seq u64][value f64 bits][key_len u32][key bytes]
//!
//! group commit:   [0x57A2 u16][payload_len u32][payload][crc32(payload) u32]
//!                 payload = [count u32] then `count` × the single-record
//!                           payload layout, back to back
//! ```
//!
//! A group frame is the WAL half of *group commit*: every record a batch
//! produced lands under **one** checksum, so a crash mid-append loses the
//! whole group or none of it — never a prefix that would expose a torn
//! multi-key update. Torn-tail and corrupt-frame handling is identical for
//! both frame kinds (the damage unit is the frame, whatever it holds).
//!
//! One crate-private writer owns each layout: `put_record` the record
//! payload, `put_frame` the frame (plain for one record, group for more).
//! The durable store's appender calls them on reused buffers, so a
//! journaled write builds its frame in place; [`encode_frame`] and
//! [`encode_group_frame`] are thin wrappers over the same writers for
//! callers holding [`WalRecord`]s. The checksum is a slicing-by-8 table
//! CRC-32 (8 KiB of tables built at compile time).

use crate::error::{GuardrailError, Result};

/// Frame magic: distinguishes a frame boundary from arbitrary garbage.
pub const FRAME_MAGIC: u16 = 0x57A1;

/// Group-commit frame magic: one checksummed frame holding many records.
pub const GROUP_MAGIC: u16 = 0x57A2;

/// Hard cap on a frame payload, so a corrupt length prefix cannot make the
/// reader attempt a multi-gigabyte allocation.
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// One logical WAL record: the post-state of a scalar write.
#[derive(Clone, Debug, PartialEq)]
pub struct WalRecord {
    /// Monotonic sequence number (1-based; 0 is reserved for "no records").
    pub seq: u64,
    /// The feature-store key written.
    pub key: String,
    /// The value the key held *after* the write (post-state, so replaying
    /// a record twice is a no-op).
    pub value: f64,
}

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables, built at compile time. `CRC_TABLES[0][b]` is
/// the CRC of byte `b` (eight shift steps folded into one lookup);
/// `CRC_TABLES[k][b]` is `CRC_TABLES[k - 1][b]` run through one more zero
/// byte, so eight lookups advance the CRC over eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & 0u32.wrapping_sub(crc & 1));
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3 polynomial, bit-reflected), eight bytes per step.
///
/// A local implementation because the offline build has no `crc` crate; the
/// polynomial matches the ubiquitous zlib/ethernet CRC so external tools can
/// verify frames.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Appends one record payload, `[seq][value bits][key_len][key]`: the only
/// writer of the record layout.
pub(crate) fn put_record(out: &mut Vec<u8>, seq: u64, key: &str, value: f64) {
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&value.to_bits().to_le_bytes());
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key.as_bytes());
}

/// Appends the frame for `count` record payloads laid back to back in
/// `records`, `[magic][payload_len][payload][crc32(payload)]`: a plain frame
/// (the payload is the one record) for one record, a group frame (the
/// payload is `[count]` then the records) for more, and nothing for none.
/// The only writer of the frame layouts.
pub(crate) fn put_frame(out: &mut Vec<u8>, count: usize, records: &[u8]) {
    if count == 0 {
        return;
    }
    let start = out.len();
    let magic = if count == 1 { FRAME_MAGIC } else { GROUP_MAGIC };
    out.extend_from_slice(&magic.to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    if count > 1 {
        out.extend_from_slice(&(count as u32).to_le_bytes());
    }
    out.extend_from_slice(records);
    let payload_len = (out.len() - start - 6) as u32;
    out[start + 2..start + 6].copy_from_slice(&payload_len.to_le_bytes());
    let crc = crc32(&out[start + 6..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Encodes one record as a framed, checksummed byte string.
pub fn encode_frame(record: &WalRecord) -> Vec<u8> {
    encode_group_frame(std::slice::from_ref(record))
}

/// Encodes a batch of records as one checksummed group-commit frame.
///
/// A single-record batch falls back to the plain frame encoding (a group
/// wrapper would buy nothing), so a group-commit appender configured with
/// group size 1 produces byte-identical logs to the ungrouped appender.
/// Empty batches encode to nothing.
pub fn encode_group_frame(records: &[WalRecord]) -> Vec<u8> {
    let mut payloads = Vec::new();
    for record in records {
        put_record(&mut payloads, record.seq, &record.key, record.value);
    }
    let mut frame = Vec::with_capacity(14 + payloads.len());
    put_frame(&mut frame, records.len(), &payloads);
    frame
}

/// Why [`decode_stream`] stopped reading.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalStop {
    /// The whole log decoded cleanly.
    Clean,
    /// The log ends mid-frame: the classic torn write from a crash during
    /// an append. The valid prefix is kept; the tail is discarded.
    TornTail {
        /// Bytes of partial frame discarded.
        bytes: usize,
    },
    /// A complete frame failed its checksum or structural validation:
    /// bit rot or an overwrite, not a torn append. Nothing after it is
    /// trusted.
    CorruptFrame {
        /// Byte offset of the bad frame.
        offset: usize,
    },
}

/// The result of decoding a WAL byte log.
#[derive(Clone, Debug, PartialEq)]
pub struct WalDecode {
    /// The valid records, in append order.
    pub records: Vec<WalRecord>,
    /// Why decoding stopped.
    pub stop: WalStop,
    /// Bytes of valid log consumed (the safe truncation point for repair).
    pub valid_len: usize,
}

fn read_u16(bytes: &[u8], at: usize) -> Option<u16> {
    Some(u16::from_le_bytes(bytes.get(at..at + 2)?.try_into().ok()?))
}

fn read_u32(bytes: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?))
}

fn read_u64(bytes: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?))
}

/// Decodes one record starting at `at`, returning it and the next offset.
fn decode_record_at(payload: &[u8], at: usize) -> Option<(WalRecord, usize)> {
    let seq = read_u64(payload, at)?;
    let value = f64::from_bits(read_u64(payload, at + 8)?);
    let key_len = read_u32(payload, at + 16)? as usize;
    let key_bytes = payload.get(at + 20..at + 20 + key_len)?;
    let key = std::str::from_utf8(key_bytes).ok()?.to_string();
    Some((WalRecord { seq, key, value }, at + 20 + key_len))
}

fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let (record, end) = decode_record_at(payload, 0)?;
    if end != payload.len() {
        return None;
    }
    Some(record)
}

/// Decodes a group-commit payload: `[count u32]` then `count` records,
/// consuming the payload exactly. A zero count never appears in a written
/// log (empty batches encode to nothing), so it is structural damage.
fn decode_group_payload(payload: &[u8]) -> Option<Vec<WalRecord>> {
    let count = read_u32(payload, 0)? as usize;
    if count == 0 {
        return None;
    }
    let mut records = Vec::with_capacity(count.min(1024));
    let mut at = 4usize;
    for _ in 0..count {
        let (record, next) = decode_record_at(payload, at)?;
        records.push(record);
        at = next;
    }
    if at != payload.len() {
        return None;
    }
    Some(records)
}

/// Decodes a WAL byte log, stopping at the first torn or corrupt frame.
///
/// Never fails: a damaged log yields its valid prefix plus a [`WalStop`]
/// describing the damage, which is exactly what crash recovery wants (the
/// tail of a torn append is unrecoverable by construction).
pub fn decode_stream(bytes: &[u8]) -> WalDecode {
    let mut records = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        let header_ok = (|| {
            let magic = read_u16(bytes, at)?;
            if magic != FRAME_MAGIC && magic != GROUP_MAGIC {
                return None;
            }
            let len = read_u32(bytes, at + 2)?;
            if len > MAX_PAYLOAD {
                return None;
            }
            Some((magic, len as usize))
        })();
        // A bad magic or absurd length in a *complete* header region is
        // corruption; a header that runs off the end of the log is a torn
        // append.
        let (magic, payload_len) = match header_ok {
            Some(header) => header,
            None => {
                if at + 6 > bytes.len() {
                    return WalDecode {
                        records,
                        stop: WalStop::TornTail {
                            bytes: bytes.len() - at,
                        },
                        valid_len: at,
                    };
                }
                return WalDecode {
                    records,
                    stop: WalStop::CorruptFrame { offset: at },
                    valid_len: at,
                };
            }
        };
        let frame_end = at + 6 + payload_len + 4;
        if frame_end > bytes.len() {
            return WalDecode {
                records,
                stop: WalStop::TornTail {
                    bytes: bytes.len() - at,
                },
                valid_len: at,
            };
        }
        let payload = &bytes[at + 6..at + 6 + payload_len];
        let stored_crc = read_u32(bytes, at + 6 + payload_len).unwrap_or(0);
        if stored_crc != crc32(payload) {
            return WalDecode {
                records,
                stop: WalStop::CorruptFrame { offset: at },
                valid_len: at,
            };
        }
        let decoded = if magic == FRAME_MAGIC {
            decode_payload(payload).map(|record| vec![record])
        } else {
            decode_group_payload(payload)
        };
        match decoded {
            Some(mut group) => records.append(&mut group),
            None => {
                return WalDecode {
                    records,
                    stop: WalStop::CorruptFrame { offset: at },
                    valid_len: at,
                }
            }
        }
        at = frame_end;
    }
    WalDecode {
        records,
        stop: WalStop::Clean,
        valid_len: at,
    }
}

/// Decodes a WAL log, returning an error on any damage (for callers that
/// want strict validation rather than best-effort recovery).
pub fn decode_strict(bytes: &[u8]) -> Result<Vec<WalRecord>> {
    let decoded = decode_stream(bytes);
    match decoded.stop {
        WalStop::Clean => Ok(decoded.records),
        WalStop::TornTail { bytes } => Err(GuardrailError::Persist(format!(
            "WAL ends in a torn frame ({bytes} trailing bytes)"
        ))),
        WalStop::CorruptFrame { offset } => Err(GuardrailError::Persist(format!(
            "WAL frame at byte {offset} failed validation"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn rec(seq: u64, key: &str, value: f64) -> WalRecord {
        WalRecord {
            seq,
            key: key.to_string(),
            value,
        }
    }

    /// The bitwise CRC-32 the tables are derived from: eight shift steps
    /// per byte. Reference model for [`crc32`].
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = 0u32.wrapping_sub(crc & 1);
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // Lengths 0–300 cover every `len % 8` remainder many times over.
        #[test]
        fn table_crc32_matches_the_bitwise_loop(bytes in vec(any::<u8>(), 0..301)) {
            prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }
    }

    #[test]
    fn round_trip_preserves_records() {
        let records = vec![
            rec(1, "ml_enabled", 1.0),
            rec(2, "false_submit_rate", 0.073),
            rec(3, "", -0.0),
            rec(4, "a_long.key.with/separators", f64::MAX),
        ];
        let mut log = Vec::new();
        for r in &records {
            log.extend_from_slice(&encode_frame(r));
        }
        let decoded = decode_stream(&log);
        assert_eq!(decoded.stop, WalStop::Clean);
        assert_eq!(decoded.records, records);
        assert_eq!(decoded.valid_len, log.len());
        assert_eq!(decode_strict(&log).unwrap(), records);
    }

    #[test]
    fn torn_tail_is_detected_and_prefix_survives() {
        let mut log = encode_frame(&rec(1, "a", 1.0));
        let full = encode_frame(&rec(2, "b", 2.0));
        let keep = log.len();
        log.extend_from_slice(&full[..full.len() - 3]); // torn mid-append
        let decoded = decode_stream(&log);
        assert_eq!(decoded.records, vec![rec(1, "a", 1.0)]);
        assert_eq!(
            decoded.stop,
            WalStop::TornTail {
                bytes: full.len() - 3
            }
        );
        assert_eq!(decoded.valid_len, keep, "safe truncation point");
        assert!(decode_strict(&log).is_err());
    }

    #[test]
    fn every_truncation_point_yields_a_clean_prefix() {
        let records = vec![rec(1, "x", 1.0), rec(2, "y", 2.0), rec(3, "z", 3.0)];
        let mut log = Vec::new();
        let mut boundaries = vec![0usize];
        for r in &records {
            log.extend_from_slice(&encode_frame(r));
            boundaries.push(log.len());
        }
        for cut in 0..=log.len() {
            let decoded = decode_stream(&log[..cut]);
            // The record count equals the number of whole frames below the cut.
            let whole = boundaries.iter().filter(|&&b| b <= cut && b > 0).count();
            assert_eq!(decoded.records.len(), whole, "cut at {cut}");
            assert_eq!(decoded.records[..], records[..whole]);
            if boundaries.contains(&cut) {
                assert_eq!(decoded.stop, WalStop::Clean);
            } else {
                assert!(matches!(decoded.stop, WalStop::TornTail { .. }));
            }
        }
    }

    #[test]
    fn bit_flip_is_a_corrupt_frame_not_a_torn_tail() {
        let mut log = encode_frame(&rec(1, "a", 1.0));
        log.extend_from_slice(&encode_frame(&rec(2, "b", 2.0)));
        let first_len = encode_frame(&rec(1, "a", 1.0)).len();
        log[first_len + 8] ^= 0x40; // flip a payload bit in frame 2
        let decoded = decode_stream(&log);
        assert_eq!(decoded.records.len(), 1);
        assert_eq!(decoded.stop, WalStop::CorruptFrame { offset: first_len });
    }

    #[test]
    fn absurd_length_prefix_does_not_allocate() {
        let mut log = FRAME_MAGIC.to_le_bytes().to_vec();
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&[0u8; 64]);
        let decoded = decode_stream(&log);
        assert!(decoded.records.is_empty());
        assert_eq!(decoded.stop, WalStop::CorruptFrame { offset: 0 });
    }

    #[test]
    fn group_frames_round_trip_mixed_with_single_frames() {
        let group = vec![rec(2, "b", 2.0), rec(3, "c", 3.0), rec(4, "", -0.0)];
        let mut log = encode_frame(&rec(1, "a", 1.0));
        log.extend_from_slice(&encode_group_frame(&group));
        log.extend_from_slice(&encode_frame(&rec(5, "e", 5.0)));
        let decoded = decode_stream(&log);
        assert_eq!(decoded.stop, WalStop::Clean);
        assert_eq!(decoded.records.len(), 5);
        assert_eq!(decoded.records[1..4], group[..]);
        assert_eq!(decoded.valid_len, log.len());
    }

    #[test]
    fn single_record_group_encodes_as_a_plain_frame() {
        let r = rec(7, "k", 1.5);
        assert_eq!(
            encode_group_frame(std::slice::from_ref(&r)),
            encode_frame(&r)
        );
        assert!(encode_group_frame(&[]).is_empty());
    }

    #[test]
    fn torn_group_frame_loses_the_whole_group_or_none() {
        let prefix = encode_frame(&rec(1, "a", 1.0));
        let group = encode_group_frame(&[rec(2, "b", 2.0), rec(3, "c", 3.0), rec(4, "d", 4.0)]);
        let mut log = prefix.clone();
        log.extend_from_slice(&group);
        // Every cut inside the group frame drops ALL of its records; only a
        // cut at the frame boundary keeps them — all-or-nothing durability.
        for cut in prefix.len() + 1..log.len() {
            let decoded = decode_stream(&log[..cut]);
            assert_eq!(decoded.records, vec![rec(1, "a", 1.0)], "cut at {cut}");
            assert!(matches!(decoded.stop, WalStop::TornTail { .. }));
            assert_eq!(
                decoded.valid_len,
                prefix.len(),
                "repair point is the boundary"
            );
        }
        let decoded = decode_stream(&log);
        assert_eq!(decoded.records.len(), 4);
        assert_eq!(decoded.stop, WalStop::Clean);
    }

    #[test]
    fn bit_flip_in_a_group_frame_rejects_the_whole_group() {
        let prefix = encode_frame(&rec(1, "a", 1.0));
        let mut log = prefix.clone();
        log.extend_from_slice(&encode_group_frame(&[rec(2, "b", 2.0), rec(3, "c", 3.0)]));
        log[prefix.len() + 12] ^= 0x01; // flip a bit inside the first grouped record
        let decoded = decode_stream(&log);
        assert_eq!(decoded.records, vec![rec(1, "a", 1.0)]);
        assert_eq!(
            decoded.stop,
            WalStop::CorruptFrame {
                offset: prefix.len()
            }
        );
    }

    #[test]
    fn group_count_must_match_the_payload_exactly() {
        // Hand-build a group frame whose count claims one more record than
        // the payload holds; the CRC is valid, so this exercises the
        // structural check.
        let mut payload = 3u32.to_le_bytes().to_vec();
        for r in [rec(1, "a", 1.0), rec(2, "b", 2.0)] {
            let frame = encode_frame(&r);
            payload.extend_from_slice(&frame[6..frame.len() - 4]);
        }
        let mut log = GROUP_MAGIC.to_le_bytes().to_vec();
        log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        log.extend_from_slice(&payload);
        log.extend_from_slice(&crc32(&payload).to_le_bytes());
        let decoded = decode_stream(&log);
        assert!(decoded.records.is_empty());
        assert_eq!(decoded.stop, WalStop::CorruptFrame { offset: 0 });
    }

    #[test]
    fn non_finite_values_round_trip_bit_exact() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let log = encode_frame(&rec(9, "poison", v));
            let decoded = decode_stream(&log);
            assert_eq!(decoded.records.len(), 1);
            let got = decoded.records[0].value;
            assert_eq!(got.to_bits(), v.to_bits(), "replay must see the poison");
        }
    }
}
