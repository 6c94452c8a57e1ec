//! A bimodal (2-bit saturating counter) branch direction predictor.
//!
//! Direct targets are available from the decoded instruction in this model,
//! so no BTB is needed; the predictor only supplies taken/not-taken for
//! conditional branches. Lookups and updates are counted against the
//! `Bpred` resource by the pipeline.

/// Bimodal predictor: a table of 2-bit saturating counters indexed by the
/// low bits of the branch's instruction address.
///
/// Counters start weakly taken (2), matching SimpleScalar's bimodal table.
#[derive(Debug, Clone)]
pub(crate) struct BranchPredictor {
    counters: Vec<u8>,
    mask: u64,
}

impl BranchPredictor {
    /// Creates a predictor with `entries` counters.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a nonzero power of two.
    #[must_use]
    pub(crate) fn new(entries: u32) -> Self {
        assert!(
            entries > 0 && entries.is_power_of_two(),
            "predictor entries must be a nonzero power of two"
        );
        BranchPredictor {
            counters: vec![2; entries as usize],
            mask: u64::from(entries - 1),
        }
    }

    fn slot(&self, addr: u64) -> usize {
        ((addr >> 2) & self.mask) as usize
    }

    /// Predicts the direction of the conditional branch at `addr`.
    #[must_use]
    pub(crate) fn predict(&self, addr: u64) -> bool {
        self.counters[self.slot(addr)] >= 2
    }

    /// Updates the counter with the actual outcome.
    pub(crate) fn update(&mut self, addr: u64, taken: bool) {
        let slot = self.slot(addr);
        let c = &mut self.counters[slot];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weakly_taken_counter_flips_after_two_not_taken() {
        let mut p = BranchPredictor::new(16);
        assert!(p.predict(0x40));
        p.update(0x40, false);
        assert!(!p.predict(0x40));
        p.update(0x40, false);
        assert!(!p.predict(0x40));
    }

    #[test]
    fn always_taken_loop_saturates() {
        let mut p = BranchPredictor::new(64);
        for _ in 0..10 {
            p.update(0x100, true);
        }
        assert!(p.predict(0x100));
    }

    #[test]
    fn retrains_after_direction_flip() {
        let mut p = BranchPredictor::new(64);
        for _ in 0..4 {
            p.update(0x100, true);
        }
        // Two not-taken outcomes flip the 2-bit counter from 3 to 1.
        p.update(0x100, false);
        p.update(0x100, false);
        assert!(!p.predict(0x100));
    }

    #[test]
    fn distinct_addresses_use_distinct_counters() {
        let mut p = BranchPredictor::new(64);
        for _ in 0..4 {
            p.update(0x100, false);
        }
        // 0x104 maps to a different slot and keeps its initial weak-taken.
        assert!(p.predict(0x104));
        assert!(!p.predict(0x100));
    }

    #[test]
    fn aliasing_wraps_at_table_size() {
        let mut p = BranchPredictor::new(4);
        for _ in 0..4 {
            p.update(0x0, false);
        }
        // 4 entries, indexed by (addr >> 2) & 3: 0x0 and 0x10 alias.
        assert!(!p.predict(0x10));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_size_panics() {
        let _ = BranchPredictor::new(3);
    }
}
