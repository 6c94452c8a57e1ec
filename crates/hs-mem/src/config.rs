//! Memory-hierarchy configuration (paper Table 1 defaults).

use crate::geometry::{CacheGeometry, ParseGeometryError};

/// Configuration of the full hierarchy.
///
/// The default values reproduce Table 1 of the paper:
/// 64 KB 4-way 2-cycle L1 i & d, 2 MB 8-way shared 12-cycle L2, and a
/// 300-cycle off-chip memory.
///
/// ```
/// use hs_mem::MemConfig;
/// let cfg = MemConfig::default();
/// assert_eq!(cfg.l2.size_bytes(), 2 << 20);
/// assert_eq!(cfg.memory_latency, 300);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheGeometry,
    /// L1 data cache geometry.
    pub l1d: CacheGeometry,
    /// Unified, shared L2 geometry.
    pub l2: CacheGeometry,
    /// L1 hit latency in cycles.
    pub l1_latency: u32,
    /// L2 hit latency in cycles (added on an L1 miss).
    pub l2_latency: u32,
    /// Off-chip memory latency in cycles (added on an L2 miss).
    pub memory_latency: u32,
    /// Enable next-line prefetch into L1 on L1 misses (off by default —
    /// the paper's SimpleScalar baseline has no hardware prefetcher).
    pub next_line_prefetch: bool,
}

impl MemConfig {
    /// A tiny configuration for fast unit tests (1 KB L1s, 4 KB L2).
    #[must_use]
    pub fn tiny() -> Self {
        MemConfig {
            l1i: CacheGeometry::new(1 << 10, 64, 2).expect("valid"),
            l1d: CacheGeometry::new(1 << 10, 64, 2).expect("valid"),
            l2: CacheGeometry::new(4 << 10, 64, 4).expect("valid"),
            l1_latency: 2,
            l2_latency: 12,
            memory_latency: 300,
            next_line_prefetch: false,
        }
    }

    /// Total latency of an access that misses everywhere.
    #[must_use]
    pub fn worst_case_latency(&self) -> u32 {
        self.l1_latency + self.l2_latency + self.memory_latency
    }

    /// Validates cross-field consistency. (The geometries themselves are
    /// validated at construction — [`CacheGeometry::new`] already returns
    /// a `Result` — so this checks only what the type system cannot.)
    ///
    /// # Errors
    ///
    /// Returns an error on a zero latency, on a cache whose way stride
    /// (line size × sets) is under 4 bytes (its tags would collide with the
    /// line flags), or on L1/L2 line-size mismatch (refills assume one L2
    /// line holds a whole L1 line).
    pub fn try_validate(&self) -> Result<(), ParseGeometryError> {
        if self.l1_latency == 0 || self.l2_latency == 0 || self.memory_latency == 0 {
            return Err(ParseGeometryError::new("every latency must be nonzero"));
        }
        if self.l1i.line_bytes() != self.l1d.line_bytes() {
            return Err(ParseGeometryError::new("L1 i/d line sizes must match"));
        }
        if [self.l1i, self.l1d, self.l2]
            .iter()
            .any(|g| g.way_stride() < 4)
        {
            return Err(ParseGeometryError::new(
                "every cache needs a way stride of at least 4 bytes",
            ));
        }
        if self.l2.line_bytes() < self.l1d.line_bytes() {
            return Err(ParseGeometryError::new(
                "L2 lines must be at least as large as L1 lines",
            ));
        }
        Ok(())
    }

    /// Validates cross-field consistency.
    ///
    /// # Panics
    ///
    /// Panics where [`Self::try_validate`] errors.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            l1i: CacheGeometry::new(64 << 10, 64, 4).expect("valid"),
            l1d: CacheGeometry::new(64 << 10, 64, 4).expect("valid"),
            l2: CacheGeometry::new(2 << 20, 64, 8).expect("valid"),
            l1_latency: 2,
            l2_latency: 12,
            memory_latency: 300,
            next_line_prefetch: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = MemConfig::default();
        assert_eq!(c.l1i.size_bytes(), 64 << 10);
        assert_eq!(c.l1i.assoc(), 4);
        assert_eq!(c.l1d.size_bytes(), 64 << 10);
        assert_eq!(c.l2.size_bytes(), 2 << 20);
        assert_eq!(c.l2.assoc(), 8);
        assert_eq!(c.l1_latency, 2);
        assert_eq!(c.l2_latency, 12);
        assert_eq!(c.memory_latency, 300);
        assert_eq!(c.worst_case_latency(), 314);
    }

    #[test]
    fn tiny_is_valid_and_small() {
        let c = MemConfig::tiny();
        assert!(c.l1d.size_bytes() < MemConfig::default().l1d.size_bytes());
    }
}
