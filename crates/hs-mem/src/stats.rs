//! Hit/miss statistics for caches and the hierarchy.

/// Per-cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read accesses that hit.
    pub read_hits: u64,
    /// Read accesses that missed.
    pub read_misses: u64,
    /// Write accesses that hit.
    pub write_hits: u64,
    /// Write accesses that missed.
    pub write_misses: u64,
}

impl CacheStats {
    pub(crate) fn record_hit(&mut self, is_write: bool) {
        if is_write {
            self.write_hits += 1;
        } else {
            self.read_hits += 1;
        }
    }

    pub(crate) fn record_miss(&mut self, is_write: bool) {
        if is_write {
            self.write_misses += 1;
        } else {
            self.read_misses += 1;
        }
    }

    /// Total accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.read_hits + self.read_misses + self.write_hits + self.write_misses
    }

    /// Total misses.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// Miss rate in `[0, 1]`; zero when there were no accesses.
    #[cfg(test)]
    fn miss_rate(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses() as f64 / a as f64
        }
    }
}

/// Snapshot of all levels' statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// L1 instruction cache.
    pub l1i: CacheStats,
    /// L1 data cache.
    pub l1d: CacheStats,
    /// Shared L2.
    pub l2: CacheStats,
    /// Accesses that went all the way to memory.
    pub memory_accesses: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rate_handles_zero() {
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    #[test]
    fn counters_accumulate() {
        let mut s = CacheStats::default();
        s.record_hit(false);
        s.record_hit(true);
        s.record_miss(false);
        assert_eq!(s.accesses(), 3);
        assert_eq!(s.misses(), 1);
        assert!((s.miss_rate() - 1.0 / 3.0).abs() < 1e-12);
    }
}
