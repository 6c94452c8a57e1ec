//! The three-level hierarchy: L1 I/D → shared L2 → memory.

use crate::cache::SetAssocCache;
use crate::config::MemConfig;
use crate::stats::LevelStats;

/// Kinds of hierarchy accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch (L1I → L2 → memory).
    InstFetch,
    /// Data load (L1D → L2 → memory).
    DataRead,
    /// Data store (write-allocate into L1D).
    DataWrite,
}

/// The outcome of a hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the first-level cache hit.
    pub l1_hit: bool,
    /// Whether the L2 hit (`true` is only meaningful when `!l1_hit`; an
    /// L1 hit never consults the L2 and reports `l2_hit = true` so that
    /// `is_l2_miss` works uniformly).
    pub l2_hit: bool,
    /// Total latency in cycles for the requested datum.
    pub latency: u32,
}

impl AccessResult {
    /// Whether the access had to go to off-chip memory.
    #[must_use]
    pub fn is_l2_miss(&self) -> bool {
        !self.l1_hit && !self.l2_hit
    }
}

/// The shared SMT memory hierarchy.
///
/// All SMT contexts access the same caches (the paper's Table 1: "2M 8-way
/// *shared*" L2, and shared L1s as in a hyper-threaded core), so one thread
/// can evict another's lines — and, more importantly for this paper, the
/// *activity* each access generates contributes to the same physical cache
/// blocks' power density.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    config: MemConfig,
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    l2: SetAssocCache,
    memory_accesses: u64,
}

impl MemoryHierarchy {
    /// Creates an empty hierarchy.
    #[must_use]
    pub fn new(config: MemConfig) -> Self {
        MemoryHierarchy {
            l1i: SetAssocCache::new(config.l1i),
            l1d: SetAssocCache::new(config.l1d),
            l2: SetAssocCache::new(config.l2),
            config,
            memory_accesses: 0,
        }
    }

    /// The configuration this hierarchy was built with.
    #[must_use]
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Performs an access and returns its total latency and where it hit.
    pub fn access(&mut self, kind: AccessKind, addr: u64) -> AccessResult {
        let is_write = matches!(kind, AccessKind::DataWrite);
        let l1 = match kind {
            AccessKind::InstFetch => &mut self.l1i,
            AccessKind::DataRead | AccessKind::DataWrite => &mut self.l1d,
        };
        let mut latency = self.config.l1_latency;
        let l1_hit = l1.access(addr, is_write).is_hit();
        if l1_hit {
            return AccessResult {
                l1_hit: true,
                l2_hit: true,
                latency,
            };
        }
        latency += self.config.l2_latency;
        // The L1 never writes through for this model; the L2 sees the fill
        // request as a read, and dirty L1 evictions are absorbed silently
        // (writeback bandwidth is not a bottleneck the paper models).
        let l2_hit = self.l2.access(addr, false).is_hit();
        if !l2_hit {
            latency += self.config.memory_latency;
            self.memory_accesses += 1;
        }
        AccessResult {
            l1_hit: false,
            l2_hit,
            latency,
        }
    }

    /// Statistics for all levels.
    #[must_use]
    pub fn stats(&self) -> LevelStats {
        LevelStats {
            l1i: *self.l1i.stats(),
            l1d: *self.l1d.stats(),
            l2: *self.l2.stats(),
            memory_accesses: self.memory_accesses,
        }
    }

    /// Invalidates every cache level.
    pub fn flush_all(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
        self.l2.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_composition() {
        let cfg = MemConfig::tiny();
        let mut m = MemoryHierarchy::new(cfg);
        // Cold: L1 miss + L2 miss + memory.
        let r = m.access(AccessKind::DataRead, 0x1000);
        assert_eq!(
            r.latency,
            cfg.l1_latency + cfg.l2_latency + cfg.memory_latency
        );
        assert!(r.is_l2_miss());
        // Warm: L1 hit.
        let r = m.access(AccessKind::DataRead, 0x1000);
        assert_eq!(r.latency, cfg.l1_latency);
        assert!(r.l1_hit);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let cfg = MemConfig::tiny();
        let mut m = MemoryHierarchy::new(cfg);
        let l1_stride = cfg.l1d.way_stride();
        // Fill one L1 set beyond capacity; all blocks stay in the larger L2
        // (its associativity is higher).
        let addrs: Vec<u64> = (0..=cfg.l1d.assoc() as u64)
            .map(|i| i * l1_stride)
            .collect();
        for &a in &addrs {
            m.access(AccessKind::DataRead, a);
        }
        // addrs[0] was evicted from L1 but must hit in L2.
        let r = m.access(AccessKind::DataRead, addrs[0]);
        assert!(!r.l1_hit);
        assert!(r.l2_hit);
        assert_eq!(r.latency, cfg.l1_latency + cfg.l2_latency);
    }

    #[test]
    fn inst_and_data_paths_are_separate_l1s() {
        let mut m = MemoryHierarchy::new(MemConfig::tiny());
        m.access(AccessKind::InstFetch, 0x2000);
        // Same address on the data path still misses L1 (but hits L2).
        let r = m.access(AccessKind::DataRead, 0x2000);
        assert!(!r.l1_hit);
        assert!(r.l2_hit);
    }

    #[test]
    fn memory_access_counter() {
        let mut m = MemoryHierarchy::new(MemConfig::tiny());
        m.access(AccessKind::DataRead, 0);
        m.access(AccessKind::DataRead, 0);
        assert_eq!(m.stats().memory_accesses, 1);
    }

    #[test]
    fn variant2_alias_set_always_misses_l2() {
        // Nine addresses one L2-way-stride apart, 8-way L2: round-robin
        // accesses never hit (after warmup) — the paper's Figure 2 pattern.
        let cfg = MemConfig::default();
        let mut m = MemoryHierarchy::new(cfg);
        let stride = cfg.l2.way_stride();
        let addrs: Vec<u64> = (0..9).map(|i| 0x40_0000 + i * stride).collect();
        for &a in &addrs {
            m.access(AccessKind::DataRead, a);
        }
        for _ in 0..3 {
            for &a in &addrs {
                let r = m.access(AccessKind::DataRead, a);
                assert!(r.is_l2_miss(), "{a:#x} should miss L2");
            }
        }
    }

    #[test]
    fn flush_all_resets_contents_but_not_stats() {
        let mut m = MemoryHierarchy::new(MemConfig::tiny());
        m.access(AccessKind::DataRead, 0);
        m.flush_all();
        let r = m.access(AccessKind::DataRead, 0);
        assert!(!r.l1_hit);
        assert!(m.stats().l1d.accesses() >= 2);
    }
}
