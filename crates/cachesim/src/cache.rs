//! A fixed-capacity cache with pluggable eviction.

use std::collections::{BTreeSet, HashMap};

use simkernel::DetRng;

/// How victims are chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Evict the least recently used entry.
    Lru,
    /// Evict a uniformly random entry (the paper's P4 comparator:
    /// "better hit rates than randomly selecting elements").
    Random,
}

/// A fixed-capacity key cache.
///
/// # Examples
///
/// ```
/// use cachesim::{Cache, EvictionPolicy};
///
/// let mut c = Cache::new(2, EvictionPolicy::Lru, 1);
/// assert!(!c.access(1));
/// c.insert(1);
/// assert!(c.access(1));
/// assert_eq!(c.hit_rate(), 0.5);
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    capacity: usize,
    policy: EvictionPolicy,
    /// Key -> (last-use tick, index into `order`).
    entries: HashMap<u64, (u64, usize)>,
    /// Resident `(last-use tick, key)` pairs; the first is the LRU victim.
    recency: BTreeSet<(u64, u64)>,
    /// Dense key list for deterministic random victim selection.
    order: Vec<u64>,
    tick: u64,
    hits: u64,
    lookups: u64,
    rng: DetRng,
}

impl Cache {
    /// Creates a cache holding at most `capacity` keys (minimum 1).
    pub fn new(capacity: usize, policy: EvictionPolicy, seed: u64) -> Self {
        Cache {
            capacity: capacity.max(1),
            policy,
            entries: HashMap::new(),
            recency: BTreeSet::new(),
            order: Vec::new(),
            tick: 0,
            hits: 0,
            lookups: 0,
            rng: DetRng::seed(seed),
        }
    }

    /// Looks up `key`, returning whether it hit (and refreshing recency).
    pub fn access(&mut self, key: u64) -> bool {
        self.tick += 1;
        self.lookups += 1;
        if let Some((stamp, _)) = self.entries.get_mut(&key) {
            self.recency.remove(&(*stamp, key));
            self.recency.insert((self.tick, key));
            *stamp = self.tick;
            self.hits += 1;
            true
        } else {
            false
        }
    }

    /// Inserts `key`, evicting a victim if full.
    pub fn insert(&mut self, key: u64) {
        if self.entries.contains_key(&key) {
            return;
        }
        if self.entries.len() >= self.capacity {
            let victim = match self.policy {
                EvictionPolicy::Lru => self.recency.first().map(|&(_, k)| k),
                EvictionPolicy::Random => {
                    let idx = self.rng.index(self.order.len());
                    self.order.get(idx).copied()
                }
            };
            if let Some(v) = victim {
                self.remove(v);
            }
        }
        let pos = self.order.len();
        self.order.push(key);
        self.entries.insert(key, (self.tick, pos));
        self.recency.insert((self.tick, key));
    }

    fn remove(&mut self, key: u64) {
        if let Some((stamp, pos)) = self.entries.remove(&key) {
            self.recency.remove(&(stamp, key));
            self.order.swap_remove(pos);
            if let Some(&moved) = self.order.get(pos) {
                if let Some(entry) = self.entries.get_mut(&moved) {
                    entry.1 = pos;
                }
            }
        }
    }

    /// Whether `key` is resident.
    pub fn contains(&self, key: u64) -> bool {
        self.entries.contains_key(&key)
    }

    /// Lifetime hit rate.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Switches the eviction policy at runtime (used when a `REPLACE`
    /// action installs the fallback cache behaviour).
    pub fn set_policy(&mut self, policy: EvictionPolicy) {
        self.policy = policy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = Cache::new(2, EvictionPolicy::Lru, 1);
        c.access(1);
        c.insert(1);
        c.access(2);
        c.insert(2);
        c.access(1); // 1 is now most recent.
        c.access(3);
        c.insert(3); // Evicts 2.
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_victim_is_the_least_stamp_key_pair_of_a_full_scan() {
        let mut rng = DetRng::seed(7);
        for capacity in [1, 2, 5, 16] {
            let mut c = Cache::new(capacity, EvictionPolicy::Lru, 5);
            for _ in 0..2_000 {
                let key = rng.index(3 * capacity) as u64;
                if rng.index(50) == 0 {
                    // Random evictions must keep the LRU index current too.
                    c.set_policy(match c.policy {
                        EvictionPolicy::Lru => EvictionPolicy::Random,
                        EvictionPolicy::Random => EvictionPolicy::Lru,
                    });
                } else if rng.index(2) == 0 {
                    c.access(key);
                } else {
                    // The reference: scan every resident key.
                    let scanned = c
                        .order
                        .iter()
                        .min_by_key(|k| (c.entries[k].0, **k))
                        .copied();
                    assert_eq!(c.recency.first().map(|&(_, k)| k), scanned);
                    assert_eq!(c.recency.len(), c.len());
                    c.insert(key);
                }
            }
        }
    }

    #[test]
    fn random_eviction_keeps_capacity() {
        let mut c = Cache::new(8, EvictionPolicy::Random, 2);
        for k in 0..100 {
            c.access(k);
            c.insert(k);
        }
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let mut c = Cache::new(2, EvictionPolicy::Lru, 3);
        c.insert(5);
        c.insert(5);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn hit_rate_counts() {
        let mut c = Cache::new(4, EvictionPolicy::Lru, 4);
        assert_eq!(c.hit_rate(), 0.0);
        c.access(1);
        c.insert(1);
        c.access(1);
        c.access(1);
        assert!((c.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.lookups(), 3);
    }
}
