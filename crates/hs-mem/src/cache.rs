//! A set-associative cache with true-LRU replacement.

use crate::geometry::CacheGeometry;
use crate::stats::CacheStats;

/// One way of one set, packed into 16 bytes (a simulated core holds tens
/// of thousands of lines): the valid and dirty flags live in the top two
/// bits of the tag word. No tag reaches them: [`SetAssocCache::new`]
/// requires a way stride of at least 4 bytes, so a tag is at most 62 bits
/// wide.
#[derive(Debug, Clone, Copy, Default)]
struct Line {
    /// `VALID | DIRTY | tag`.
    tag_flags: u64,
    /// Monotonic timestamp of the last touch; smallest = LRU victim.
    last_use: u64,
}

impl Line {
    const VALID: u64 = 1 << 63;
    const DIRTY: u64 = 1 << 62;
    const TAG: u64 = Self::DIRTY - 1;

    fn filled(tag: u64, dirty: bool, last_use: u64) -> Line {
        debug_assert_eq!(tag & !Self::TAG, 0, "tag {tag:#x} overlaps the flag bits");
        Line {
            tag_flags: Self::VALID | (u64::from(dirty) * Self::DIRTY) | tag,
            last_use,
        }
    }

    fn valid(self) -> bool {
        self.tag_flags & Self::VALID != 0
    }

    fn dirty(self) -> bool {
        self.tag_flags & Self::DIRTY != 0
    }

    fn tag(self) -> u64 {
        self.tag_flags & Self::TAG
    }

    /// Whether this way holds the block with `tag`.
    fn holds(self, tag: u64) -> bool {
        self.tag_flags & !Self::DIRTY == Self::VALID | tag
    }
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The block was present.
    Hit,
    /// The block was absent; it has been filled. If the victim was a valid
    /// dirty line, its block address is reported for writeback accounting.
    Miss {
        /// Block address of an evicted dirty line, if any.
        writeback: Option<u64>,
    },
}

impl AccessOutcome {
    /// Whether the access hit.
    #[must_use]
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// A set-associative, write-back, write-allocate cache with true LRU.
///
/// The cache tracks presence only (no data): the functional value of memory
/// lives in `hs-isa`'s `FlatMemory`, while this structure decides hit/miss
/// and eviction — the classic split of a timing-first simulator.
///
/// ```
/// use hs_mem::{SetAssocCache, CacheGeometry};
/// let mut c = SetAssocCache::new(CacheGeometry::new(1024, 64, 2).unwrap());
/// assert!(!c.access(0x0, false).is_hit());
/// assert!(c.access(0x0, false).is_hit());
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    /// All ways of all sets in one contiguous allocation; set `s` occupies
    /// `lines[s * assoc .. (s + 1) * assoc]`. One flat slab keeps the
    /// per-access set lookup a single index computation instead of a
    /// pointer chase through a per-set `Vec`.
    lines: Vec<Line>,
    assoc: usize,
    clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry's way stride is under 4 bytes: the tags of
    /// such a cache would need the bits that hold each line's flags.
    #[must_use]
    pub fn new(geometry: CacheGeometry) -> Self {
        assert!(
            geometry.way_stride() >= 4,
            "{geometry}: a way stride under 4 bytes leaves no room for line flags"
        );
        let assoc = geometry.assoc() as usize;
        let lines = vec![Line::default(); geometry.sets() as usize * assoc];
        SetAssocCache {
            geometry,
            lines,
            assoc,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The ways of the set containing `addr`, mutably.
    fn set_mut(&mut self, addr: u64) -> (usize, &mut [Line]) {
        let set_idx = self.geometry.set_index(addr) as usize;
        let base = set_idx * self.assoc;
        (set_idx, &mut self.lines[base..base + self.assoc])
    }

    /// The cache's geometry.
    #[must_use]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Accumulated hit/miss statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Accesses `addr`. On a miss the block is filled (write-allocate) and
    /// the LRU way of the set is evicted. `is_write` marks the line dirty.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        self.clock += 1;
        let clock = self.clock;
        let tag = self.geometry.tag(addr);
        let (set_idx, set) = self.set_mut(addr);

        if let Some(line) = set.iter_mut().find(|l| l.holds(tag)) {
            line.last_use = clock;
            line.tag_flags |= u64::from(is_write) * Line::DIRTY;
            self.stats.record_hit(is_write);
            return AccessOutcome::Hit;
        }

        // Miss: pick victim = invalid way if any, else LRU.
        let victim_idx = set.iter().position(|l| !l.valid()).unwrap_or_else(|| {
            set.iter()
                .enumerate()
                .min_by_key(|(_, l)| l.last_use)
                .map(|(i, _)| i)
                .expect("set has at least one way")
        });
        let victim = set[victim_idx];
        set[victim_idx] = Line::filled(tag, is_write, clock);
        let writeback = if victim.valid() && victim.dirty() {
            let sets = self.geometry.sets();
            let line_bytes = self.geometry.line_bytes();
            Some((victim.tag() * sets + set_idx as u64) * line_bytes)
        } else {
            None
        };
        self.stats.record_miss(is_write);
        AccessOutcome::Miss { writeback }
    }

    /// Checks for presence without updating LRU state or statistics.
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let base = self.geometry.set_index(addr) as usize * self.assoc;
        let set = &self.lines[base..base + self.assoc];
        let tag = self.geometry.tag(addr);
        set.iter().any(|l| l.holds(tag))
    }

    /// Invalidates the block containing `addr` if present; returns whether a
    /// block was invalidated.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let tag = self.geometry.tag(addr);
        let (_, set) = self.set_mut(addr);
        if let Some(line) = set.iter_mut().find(|l| l.holds(tag)) {
            line.tag_flags = 0;
            true
        } else {
            false
        }
    }

    /// Invalidates the entire cache (e.g. between simulation runs).
    pub fn flush(&mut self) {
        for line in &mut self.lines {
            *line = Line::default();
        }
    }

    /// Number of valid lines currently resident.
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways x 64B lines = 256B.
        SetAssocCache::new(CacheGeometry::new(256, 64, 2).unwrap())
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0, false).is_hit());
        assert!(c.access(0, false).is_hit());
        assert!(c.access(63, false).is_hit()); // same line
        assert!(!c.access(64, false).is_hit()); // next line, other set
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        let stride = c.geometry().way_stride();
        // Fill both ways of set 0.
        c.access(0, false);
        c.access(stride, false);
        // Touch block 0 so `stride` becomes LRU.
        c.access(0, false);
        // A third alias evicts `stride`, not 0.
        c.access(2 * stride, false);
        assert!(c.probe(0));
        assert!(!c.probe(stride));
        assert!(c.probe(2 * stride));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        let stride = c.geometry().way_stride();
        c.access(0, true); // dirty
        c.access(stride, false);
        match c.access(2 * stride, false) {
            AccessOutcome::Miss { writeback } => assert_eq!(writeback, Some(0)),
            AccessOutcome::Hit => panic!("expected a miss"),
        }
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        let stride = c.geometry().way_stride();
        c.access(0, false);
        c.access(stride, false);
        match c.access(2 * stride, false) {
            AccessOutcome::Miss { writeback } => assert_eq!(writeback, None),
            AccessOutcome::Hit => panic!("expected a miss"),
        }
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = tiny();
        let stride = c.geometry().way_stride();
        c.access(0, false);
        c.access(stride, false);
        // Probing block 0 must NOT refresh it.
        assert!(c.probe(0));
        c.access(2 * stride, false); // evicts block 0 (true LRU)
        assert!(!c.probe(0));
    }

    #[test]
    fn invalidate_removes_block() {
        let mut c = tiny();
        c.access(0, false);
        assert!(c.invalidate(0));
        assert!(!c.probe(0));
        assert!(!c.invalidate(0));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny();
        c.access(0, false);
        c.access(64, false);
        assert_eq!(c.resident_lines(), 2);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, true);
        c.access(64, false);
        let s = c.stats();
        assert_eq!(s.read_misses + s.write_misses, 2);
        assert_eq!(s.read_hits + s.write_hits, 1);
        assert_eq!(s.accesses(), 3);
    }

    #[test]
    fn packed_line_keeps_the_widest_tag_clear_of_its_flags() {
        assert_eq!(std::mem::size_of::<Line>(), 16);
        // `hs_cpu::pipeline::phys_addr` gives thread t the 2^41-byte region
        // at (t + 1) << 41; the last byte of thread 3's region is the widest
        // address a simulated core hands its caches.
        let widest = (4u64 << 41) | ((1 << 41) - 1);
        let defaults = crate::MemConfig::default();
        for geometry in [defaults.l1d, defaults.l2, *tiny().geometry()] {
            let tag = geometry.tag(widest);
            for dirty in [false, true] {
                let line = Line::filled(tag, dirty, 7);
                assert_eq!(line.tag(), tag, "{geometry}");
                assert!(line.valid(), "{geometry}");
                assert_eq!(line.dirty(), dirty, "{geometry}");
                assert!(line.holds(tag), "{geometry}");
                assert!(!line.holds(tag ^ 1), "{geometry}");
            }
        }
        // And through a cache: the dirty victim's block address comes back
        // intact from its packed tag.
        let mut c = tiny();
        let stride = c.geometry().way_stride();
        c.access(widest, true);
        c.access(widest - stride, false);
        match c.access(widest - 2 * stride, false) {
            AccessOutcome::Miss { writeback } => {
                assert_eq!(writeback, Some(c.geometry().block_addr(widest)));
            }
            AccessOutcome::Hit => panic!("expected a miss"),
        }
    }

    #[test]
    fn assoc_plus_one_aliases_always_miss() {
        // The variant2 pattern: assoc+1 blocks in one set, accessed
        // round-robin, must miss every time under true LRU.
        let mut c = SetAssocCache::new(CacheGeometry::new(8 << 10, 64, 8).unwrap());
        let stride = c.geometry().way_stride();
        let addrs: Vec<u64> = (0..9).map(|i| 0x100 + i * stride).collect();
        // Warm up.
        for &a in &addrs {
            c.access(a, false);
        }
        // Every subsequent round-robin access must miss.
        for round in 0..4 {
            for &a in &addrs {
                assert!(
                    !c.access(a, false).is_hit(),
                    "round {round}: {a:#x} unexpectedly hit"
                );
            }
        }
    }
}
