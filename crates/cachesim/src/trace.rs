//! Cache access trace generators.

use simkernel::DetRng;

/// Trace parameters.
#[derive(Clone, Copy, Debug)]
pub struct CacheTraceConfig {
    /// Number of distinct keys.
    pub keys: u64,
    /// Zipf skew (0 = uniform).
    pub skew: f64,
    /// Fraction of accesses that are one-shot scans over fresh keys.
    pub scan_fraction: f64,
    /// Key-space offset (phase shifts move to fresh keys).
    pub base_key: u64,
    /// When non-zero, ignore the zipf parameters and emit a strict cyclic
    /// loop over this many keys (LRU's classic pathology).
    pub loop_keys: u64,
}

impl CacheTraceConfig {
    /// Phase 1: skewed reuse-heavy traffic where learned admission shines.
    pub fn zipf_with_scans(keys: u64) -> Self {
        CacheTraceConfig {
            keys,
            skew: 0.9,
            scan_fraction: 0.3,
            base_key: 0,
            loop_keys: 0,
        }
    }

    /// Phase 2 (alternative): a strict cyclic loop over `keys` fresh keys.
    /// If the loop is wider than the cache, LRU evicts every key just
    /// before its next use — hit rate collapses to zero — while random
    /// replacement retains a stable fraction.
    pub fn cyclic_loop(keys: u64) -> Self {
        CacheTraceConfig {
            keys,
            skew: 0.0,
            scan_fraction: 0.0,
            base_key: 1 << 40,
            loop_keys: keys,
        }
    }
}

/// The trace generator.
#[derive(Clone, Debug)]
pub struct CacheTrace {
    config: CacheTraceConfig,
    rng: DetRng,
    scan_next: u64,
}

impl CacheTrace {
    /// Creates a generator.
    pub fn new(config: CacheTraceConfig, seed: u64) -> Self {
        CacheTrace {
            config,
            rng: DetRng::seed(seed),
            scan_next: 0,
        }
    }

    /// Switches the pattern mid-run.
    pub fn set_config(&mut self, config: CacheTraceConfig) {
        self.config = config;
    }

    /// The next key to access.
    pub fn next_key(&mut self) -> u64 {
        if self.config.loop_keys > 0 {
            self.scan_next = (self.scan_next + 1) % self.config.loop_keys;
            return self.config.base_key + self.scan_next;
        }
        if self.rng.chance(self.config.scan_fraction) {
            // One-shot keys from a disjoint range, never repeated.
            self.scan_next += 1;
            return self.config.base_key + (1 << 20) + self.scan_next;
        }
        self.config.base_key + self.rng.zipf(self.config.keys as usize, self.config.skew) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_trace_reuses_head_keys() {
        let mut t = CacheTrace::new(CacheTraceConfig::zipf_with_scans(1000), 1);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..10_000 {
            *counts.entry(t.next_key()).or_insert(0u32) += 1;
        }
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(max > 200, "head key repeats: {max}");
    }

    #[test]
    fn scan_keys_never_repeat() {
        let mut config = CacheTraceConfig::zipf_with_scans(100);
        config.scan_fraction = 1.0;
        let mut t = CacheTrace::new(config, 2);
        let keys: Vec<u64> = (0..1000).map(|_| t.next_key()).collect();
        let unique: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(unique.len(), keys.len());
    }

    #[test]
    fn cyclic_loop_repeats_exactly() {
        let mut t = CacheTrace::new(CacheTraceConfig::cyclic_loop(5), 9);
        let a: Vec<u64> = (0..5).map(|_| t.next_key()).collect();
        let b: Vec<u64> = (0..5).map(|_| t.next_key()).collect();
        assert_eq!(a, b);
        assert_eq!(a.iter().collect::<std::collections::HashSet<_>>().len(), 5);
    }

    #[test]
    fn shift_moves_key_space() {
        let mut t = CacheTrace::new(CacheTraceConfig::zipf_with_scans(100), 3);
        let before = t.next_key();
        t.set_config(CacheTraceConfig::cyclic_loop(100));
        let after = t.next_key();
        assert!(after > before);
        assert!(after >= 1 << 40);
    }
}
