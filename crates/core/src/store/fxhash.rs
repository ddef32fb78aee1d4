//! Fast, non-cryptographic string hashing for key lookups.
//!
//! `std`'s default `HashMap` hasher (SipHash-1-3) is DoS-resistant but costs
//! tens of nanoseconds per short key. Feature-store keys and hook names come
//! from compiled guardrail specs and instrumented kernel code, not from
//! untrusted input, so a multiply-xor hash in the Firefox/rustc "Fx" style
//! is safe here and several times faster. It backs the store's intern index
//! (string-keyed calls hash the key to pick a stripe and again inside the
//! stripe's table; bound slots never hash) and the engine's hook dispatch
//! index.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the FxHash family (Firefox / rustc): a 64-bit constant
/// derived from the golden ratio, chosen to diffuse bits under wrapping
/// multiplication.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast multiply-xor hasher for trusted (non-adversarial) keys.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let (chunks, rest) = bytes.as_chunks::<8>();
        for &chunk in chunks {
            self.add(u64::from_le_bytes(chunk));
        }
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" and "ab\0" (as raw byte writes)
            // cannot collide trivially.
            self.add(u64::from_le_bytes(tail) ^ (rest.len() as u64));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` plugging [`FxHasher`] into `HashMap`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by the fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_key(key: &str) -> u64 {
        FxBuildHasher::default().hash_one(key)
    }

    #[test]
    fn deterministic_and_distinct() {
        assert_eq!(hash_key("ml_enabled"), hash_key("ml_enabled"));
        assert_ne!(hash_key("ml_enabled"), hash_key("ml_disabled"));
        assert_ne!(hash_key(""), hash_key("a"));
        assert_ne!(hash_key("a"), hash_key("a\0"));
    }

    #[test]
    fn long_keys_use_all_bytes() {
        let a = "x".repeat(64);
        let mut b = a.clone();
        b.replace_range(63..64, "y");
        assert_ne!(hash_key(&a), hash_key(&b));
    }

    #[test]
    fn map_round_trip() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        for i in 0..100u32 {
            m.insert(format!("key{i}"), i);
        }
        for i in 0..100u32 {
            assert_eq!(m.get(&format!("key{i}")), Some(&i));
        }
    }
}
