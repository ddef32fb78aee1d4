//! Placement policies: the LRU-promotion baseline and the learned placer.

use mlkit::{LogisticRegression, Sgd};

use crate::tiers::{PageId, TieredMemory};

/// Per-page statistics the policies decide over.
#[derive(Clone, Copy, Debug, Default)]
pub struct PageStats {
    /// Decayed access count (halved each epoch).
    pub recent_count: f64,
    /// Accesses since this page was last touched.
    pub recency: f64,
    /// Fraction of this page's accesses that were writes.
    pub write_fraction: f64,
}

impl PageStats {
    /// The feature vector fed to learned policies.
    pub fn features(&self) -> [f64; 3] {
        [
            self.recent_count.ln_1p(),
            (self.recency / 1_000.0).min(10.0),
            self.write_fraction,
        ]
    }
}

/// A placement policy: admission plus frame choice.
pub trait Placement {
    /// Should `page` be promoted into the fast tier on this miss?
    fn admit(&mut self, page: PageId, stats: &PageStats) -> bool;
    /// Which frame should hold it? (May be out of bounds for a
    /// misbehaving learned policy — the P3 hazard.)
    fn choose_frame(&mut self, mem: &TieredMemory, page: PageId, stats: &PageStats) -> usize;
    /// The policy name for reports.
    fn name(&self) -> &'static str;
}

/// The baseline: promote every missed page into the LRU frame.
///
/// This is the Linux-style default for tiered memory (promote on access).
/// It is scan-hostile — a cyclic scan wider than the fast tier evicts the
/// hot set over and over — but it is safe and adapts instantly.
#[derive(Debug, Default)]
pub struct HeuristicPlacement;

impl HeuristicPlacement {
    /// Creates the policy.
    pub fn new() -> Self {
        HeuristicPlacement
    }
}

impl Placement for HeuristicPlacement {
    fn admit(&mut self, _page: PageId, _stats: &PageStats) -> bool {
        true
    }

    fn choose_frame(&mut self, mem: &TieredMemory, _page: PageId, _stats: &PageStats) -> usize {
        mem.lru_frame()
    }

    fn name(&self) -> &'static str {
        "lru-promote"
    }
}

/// The learned placer (Kleio/Sibyl-style, simplified).
///
/// Two learned components, both trained during a warmup window and then
/// frozen (mirroring offline training):
///
/// - an **admission model**: logistic regression over
///   `[recent_count, recency, write_fraction]` predicting whether the page
///   is hot enough to deserve a fast frame (distilled from observed reuse);
/// - a **placement function**: a linear map from page number to frame index
///   fitted on the training-time address range — a learned-hash/index that
///   spreads the hot set with fewer conflict evictions than LRU, but
///   *extrapolates out of bounds* when the address space shifts (P3).
#[derive(Debug)]
pub struct LearnedPlacement {
    admit_model: LogisticRegression,
    optimizer: Sgd,
    /// Training-time address range for the placement function.
    min_page: f64,
    max_page: f64,
    frozen: bool,
}

impl Default for LearnedPlacement {
    fn default() -> Self {
        Self::new()
    }
}

impl LearnedPlacement {
    /// Creates an untrained policy.
    pub fn new() -> Self {
        LearnedPlacement {
            admit_model: LogisticRegression::new(3),
            optimizer: Sgd::new(0.1),
            min_page: f64::INFINITY,
            max_page: f64::NEG_INFINITY,
            frozen: false,
        }
    }

    /// Observes a page during training: trains the admission model with
    /// `hot` as the label, and extends the placement function's address
    /// range over the *hot* pages (the ones it will be asked to place).
    pub fn train_example(&mut self, page: PageId, stats: &PageStats, hot: bool) {
        if self.frozen {
            return;
        }
        if hot {
            self.min_page = self.min_page.min(page.0 as f64);
            self.max_page = self.max_page.max(page.0 as f64);
        }
        self.admit_model.train_one(
            &stats.features(),
            if hot { 1.0 } else { 0.0 },
            &mut self.optimizer,
        );
    }

    /// Freezes training (the model ships).
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Whether the model has been frozen.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Unfreezes and clears the address range (the `RETRAIN` entry point).
    pub fn begin_retrain(&mut self) {
        self.frozen = false;
        self.min_page = f64::INFINITY;
        self.max_page = f64::NEG_INFINITY;
        self.admit_model.reset();
    }

    /// The learned placement function: maps a page into a frame index by
    /// linear interpolation over the *training-time* address range.
    pub fn placement_frame(&self, page: PageId, capacity: usize) -> usize {
        if !self.min_page.is_finite() || self.max_page <= self.min_page {
            return 0;
        }
        let norm = (page.0 as f64 - self.min_page) / (self.max_page - self.min_page);
        // No clamp: extrapolation on out-of-range pages is exactly the
        // out-of-bounds failure the P3 guardrail exists to catch.
        (norm * (capacity as f64 - 1.0)).round() as usize
    }
}

impl Placement for LearnedPlacement {
    fn admit(&mut self, _page: PageId, stats: &PageStats) -> bool {
        self.admit_model.predict(&stats.features())
    }

    fn choose_frame(&mut self, mem: &TieredMemory, page: PageId, _stats: &PageStats) -> usize {
        self.placement_frame(page, mem.capacity())
    }

    fn name(&self) -> &'static str {
        "learned-placement"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot_stats() -> PageStats {
        PageStats {
            recent_count: 6.0,
            recency: 10.0,
            write_fraction: 0.1,
        }
    }

    fn cold_stats() -> PageStats {
        PageStats {
            recent_count: 0.5,
            recency: 5_000.0,
            write_fraction: 0.1,
        }
    }

    fn trained() -> LearnedPlacement {
        let mut p = LearnedPlacement::new();
        for i in 0..2000 {
            p.train_example(PageId(i % 640), &hot_stats(), true);
            p.train_example(PageId(i % 640), &cold_stats(), false);
        }
        p.freeze();
        p
    }

    #[test]
    fn heuristic_admits_everything_into_lru_frame() {
        let mut h = HeuristicPlacement::new();
        let mem = TieredMemory::new(4);
        assert!(h.admit(PageId(1), &cold_stats()));
        assert_eq!(h.choose_frame(&mem, PageId(1), &cold_stats()), 0);
        assert_eq!(h.name(), "lru-promote");
    }

    #[test]
    fn learned_admission_separates_hot_from_cold() {
        let mut p = trained();
        assert!(p.admit(PageId(3), &hot_stats()));
        assert!(!p.admit(PageId(3), &cold_stats()));
    }

    #[test]
    fn placement_function_is_in_bounds_on_training_range() {
        let p = trained();
        for page in [0u64, 100, 320, 639] {
            let frame = p.placement_frame(PageId(page), 128);
            assert!(frame < 128, "page {page} -> frame {frame}");
        }
    }

    #[test]
    fn placement_function_extrapolates_out_of_bounds_on_drift() {
        let p = trained();
        // A page from a shifted address space (P3 hazard).
        let frame = p.placement_frame(PageId(1 << 32), 128);
        assert!(frame >= 128, "expected out-of-bounds, got {frame}");
    }

    #[test]
    fn retrain_resets_range_and_model() {
        let mut p = trained();
        assert!(p.is_frozen());
        p.begin_retrain();
        assert!(!p.is_frozen());
        for i in 0..2000 {
            p.train_example(PageId((1 << 32) + i % 256), &hot_stats(), true);
            p.train_example(PageId((1 << 32) + i % 256), &cold_stats(), false);
        }
        p.freeze();
        let frame = p.placement_frame(PageId((1 << 32) + 100), 128);
        assert!(frame < 128, "retrained range covers new pages: {frame}");
    }

    #[test]
    fn untrained_placement_defaults_to_frame_zero() {
        let p = LearnedPlacement::new();
        assert_eq!(p.placement_frame(PageId(42), 128), 0);
    }
}
