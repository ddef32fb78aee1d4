//! Snapshot codec for the durable feature store.
//!
//! A snapshot is the compaction target for the write-ahead log: the full
//! scalar state of the [`FeatureStore`](super::FeatureStore) at a known WAL
//! sequence number, encoded as one checksummed blob. On recovery the
//! snapshot is applied first, then WAL frames with `seq > snapshot.seq` are
//! replayed on top — so a crash *between* writing the snapshot and
//! truncating the WAL is harmless (the overlapping frames replay to the
//! values the snapshot already holds).
//!
//! Layout (little-endian):
//!
//! ```text
//! [magic u32 "GRSN"][version u16][seq u64][count u32]
//! count * ([key_len u32][key bytes][value f64 bits])
//! [crc32(everything after magic) u32]
//! ```

use crate::error::{GuardrailError, Result};

use super::wal::crc32;

/// Snapshot magic bytes.
pub const SNAPSHOT_MAGIC: u32 = 0x4753_4E31; // "GSN1"
/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u16 = 1;
/// Cap on the entry count a header may claim (corruption guard).
const MAX_ENTRIES: u32 = 1 << 24;

/// A decoded snapshot: scalar state as of WAL sequence `seq`.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// The WAL sequence number the snapshot folds in (frames with
    /// `seq <= self.seq` are already reflected here).
    pub seq: u64,
    /// Scalar entries, sorted by key for deterministic encoding.
    pub entries: Vec<(String, f64)>,
}

impl Snapshot {
    /// An empty snapshot at sequence 0 (the state of a fresh store).
    pub fn empty() -> Self {
        Snapshot {
            seq: 0,
            entries: Vec::new(),
        }
    }

    /// Encodes the snapshot as a checksummed blob.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        body.extend_from_slice(&self.seq.to_le_bytes());
        body.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for (key, value) in &self.entries {
            body.extend_from_slice(&(key.len() as u32).to_le_bytes());
            body.extend_from_slice(key.as_bytes());
            body.extend_from_slice(&value.to_bits().to_le_bytes());
        }
        let mut out = Vec::with_capacity(8 + body.len());
        out.extend_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out
    }

    /// Decodes a snapshot blob, validating magic, version, structure, and
    /// checksum. An empty input decodes to [`Snapshot::empty`] (no snapshot
    /// has been taken yet); anything else that fails validation is an error
    /// — a half-written or bit-rotted snapshot must be *detected*, never
    /// silently half-applied.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        if bytes.is_empty() {
            return Ok(Snapshot::empty());
        }
        let corrupt = |why: &str| GuardrailError::Persist(format!("snapshot corrupt: {why}"));
        let (magic, rest) = bytes
            .split_first_chunk::<4>()
            .ok_or_else(|| corrupt("truncated header"))?;
        let (body, stored_crc) = rest
            .split_last_chunk::<4>()
            .filter(|(body, _)| body.len() >= 2 + 8 + 4)
            .ok_or_else(|| corrupt("truncated header"))?;
        if u32::from_le_bytes(*magic) != SNAPSHOT_MAGIC {
            return Err(corrupt("bad magic"));
        }
        if u32::from_le_bytes(*stored_crc) != crc32(body) {
            return Err(corrupt("checksum mismatch"));
        }
        let (version, rest) = body
            .split_first_chunk::<2>()
            .ok_or_else(|| corrupt("truncated header"))?;
        if u16::from_le_bytes(*version) != SNAPSHOT_VERSION {
            return Err(corrupt("unsupported version"));
        }
        let (seq, rest) = rest
            .split_first_chunk::<8>()
            .ok_or_else(|| corrupt("truncated header"))?;
        let (count, mut rest) = rest
            .split_first_chunk::<4>()
            .ok_or_else(|| corrupt("truncated header"))?;
        let count = u32::from_le_bytes(*count);
        if count > MAX_ENTRIES {
            return Err(corrupt("entry count out of range"));
        }
        // Every entry takes at least 12 bytes (key length and value), so the
        // body bounds how much a claimed count may reserve up front.
        let mut entries = Vec::with_capacity((count as usize).min(rest.len() / 12));
        for _ in 0..count {
            let (key_len, after_len) = rest
                .split_first_chunk::<4>()
                .ok_or_else(|| corrupt("truncated entry"))?;
            let (key_bytes, after_key) = after_len
                .split_at_checked(u32::from_le_bytes(*key_len) as usize)
                .ok_or_else(|| corrupt("truncated key"))?;
            let key = std::str::from_utf8(key_bytes)
                .map_err(|_| corrupt("non-utf8 key"))?
                .to_string();
            let (value, after_value) = after_key
                .split_first_chunk::<8>()
                .ok_or_else(|| corrupt("truncated value"))?;
            entries.push((key, f64::from_bits(u64::from_le_bytes(*value))));
            rest = after_value;
        }
        if !rest.is_empty() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(Snapshot {
            seq: u64::from_le_bytes(*seq),
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            seq: 42,
            entries: vec![
                ("false_submit_rate".to_string(), 0.07),
                ("ml_enabled".to_string(), 0.0),
            ],
        }
    }

    #[test]
    fn round_trip() {
        let snap = sample();
        assert_eq!(Snapshot::decode(&snap.encode()).unwrap(), snap);
        let empty = Snapshot::empty();
        assert_eq!(Snapshot::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn empty_input_is_a_fresh_store() {
        assert_eq!(Snapshot::decode(&[]).unwrap(), Snapshot::empty());
    }

    #[test]
    fn any_bit_flip_is_detected() {
        let encoded = sample().encode();
        for i in 0..encoded.len() {
            let mut bad = encoded.clone();
            bad[i] ^= 0x10;
            assert!(
                Snapshot::decode(&bad).is_err(),
                "bit flip at byte {i} must not decode"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let encoded = sample().encode();
        for cut in 1..encoded.len() {
            assert!(
                Snapshot::decode(&encoded[..cut]).is_err(),
                "truncation to {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(sample().encode(), sample().encode());
    }
}
