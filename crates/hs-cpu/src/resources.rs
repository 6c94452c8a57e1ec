//! Microarchitectural resources and per-thread access accounting.
//!
//! The paper's detection mechanism ("we maintain per-thread counters that
//! track the access-rates of different resources", §3.2.1) and its power
//! model both consume the same raw signal: *how many times did thread T
//! access resource R in this interval*. [`AccessMatrix`] is that signal.

use hs_isa::inst::FuClass;
use std::fmt;
use std::ops::{Index, IndexMut};

/// Maximum number of SMT hardware contexts supported by the model.
pub const MAX_THREADS: usize = 4;

/// An SMT hardware context index (`0..MAX_THREADS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadId(pub u8);

impl ThreadId {
    /// The context index as a `usize`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A microarchitectural resource that can be accessed, heated, and monitored.
///
/// The integer register file is the resource the paper's attack targets, but
/// the monitoring infrastructure covers "each potential-hot-spot resource".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Resource {
    /// Instruction fetch unit (per fetched instruction).
    FetchUnit,
    /// Branch predictor (lookups and updates).
    Bpred,
    /// Register rename logic (per dispatched instruction).
    Rename,
    /// The shared issue queue / RUU (dispatch writes, issue reads).
    IssueQueue,
    /// Load/store queue.
    Lsq,
    /// Integer register file (read and write ports) — the paper's hot spot.
    IntRegFile,
    /// Floating-point register file.
    FpRegFile,
    /// Integer ALUs.
    IntAlu,
    /// Integer multiplier.
    IntMul,
    /// Floating-point adder.
    FpAdd,
    /// Floating-point multiplier/divider.
    FpMul,
    /// L1 instruction cache.
    L1I,
    /// L1 data cache.
    L1D,
    /// Unified L2 cache.
    L2,
}

/// Number of distinct [`Resource`]s.
pub const NUM_RESOURCES: usize = 14;

/// All resources, in `repr` order.
pub const ALL_RESOURCES: [Resource; NUM_RESOURCES] = [
    Resource::FetchUnit,
    Resource::Bpred,
    Resource::Rename,
    Resource::IssueQueue,
    Resource::Lsq,
    Resource::IntRegFile,
    Resource::FpRegFile,
    Resource::IntAlu,
    Resource::IntMul,
    Resource::FpAdd,
    Resource::FpMul,
    Resource::L1I,
    Resource::L1D,
    Resource::L2,
];

impl Resource {
    /// The resource's dense index (`0..NUM_RESOURCES`).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// A short, stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Resource::FetchUnit => "fetch",
            Resource::Bpred => "bpred",
            Resource::Rename => "rename",
            Resource::IssueQueue => "issueq",
            Resource::Lsq => "lsq",
            Resource::IntRegFile => "int-regfile",
            Resource::FpRegFile => "fp-regfile",
            Resource::IntAlu => "int-alu",
            Resource::IntMul => "int-mul",
            Resource::FpAdd => "fp-add",
            Resource::FpMul => "fp-mul",
            Resource::L1I => "l1i",
            Resource::L1D => "l1d",
            Resource::L2 => "l2",
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The execution resource an instruction of functional-unit class `class`
/// occupies when it issues, or `None` for classes that need no unit.
///
/// This is the single source of truth shared by the pipeline's issue stage
/// and the static analyzer in `hs-analyze`: both must charge the same
/// resource for the same instruction or the static/dynamic power rankings
/// drift apart. Branches resolve on the integer ALUs (SimpleScalar's
/// `IntALU` convention) and memory operations occupy a load/store-queue
/// port.
#[must_use]
pub fn fu_resource(class: FuClass) -> Option<Resource> {
    match class {
        FuClass::IntAlu | FuClass::Branch => Some(Resource::IntAlu),
        FuClass::IntMul => Some(Resource::IntMul),
        FuClass::FpAdd => Some(Resource::FpAdd),
        FuClass::FpMul => Some(Resource::FpMul),
        FuClass::MemPort => Some(Resource::Lsq),
        FuClass::None => None,
    }
}

/// Per-thread, per-resource access counts over some interval.
///
/// ```
/// use hs_cpu::{AccessMatrix, Resource, ThreadId};
/// let mut m = AccessMatrix::new();
/// m.add(ThreadId(0), Resource::IntRegFile, 3);
/// assert_eq!(m.get(ThreadId(0), Resource::IntRegFile), 3);
/// assert_eq!(m.resource_total(Resource::IntRegFile), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessMatrix {
    counts: [[u64; NUM_RESOURCES]; MAX_THREADS],
}

impl AccessMatrix {
    /// An all-zero matrix.
    #[must_use]
    pub fn new() -> Self {
        AccessMatrix {
            counts: [[0; NUM_RESOURCES]; MAX_THREADS],
        }
    }

    /// Adds `n` accesses by `thread` to `resource`.
    pub fn add(&mut self, thread: ThreadId, resource: Resource, n: u64) {
        self.counts[thread.index()][resource.index()] += n;
    }

    /// The count for one thread and resource.
    #[must_use]
    pub fn get(&self, thread: ThreadId, resource: Resource) -> u64 {
        self.counts[thread.index()][resource.index()]
    }

    /// Total accesses to `resource` across all threads.
    #[must_use]
    pub fn resource_total(&self, resource: Resource) -> u64 {
        self.counts.iter().map(|row| row[resource.index()]).sum()
    }

    /// Total accesses by `thread` across all resources.
    #[cfg(test)]
    fn thread_total(&self, thread: ThreadId) -> u64 {
        self.counts[thread.index()].iter().sum()
    }

    /// Accumulates another matrix into this one.
    pub fn merge(&mut self, other: &AccessMatrix) {
        for t in 0..MAX_THREADS {
            for r in 0..NUM_RESOURCES {
                self.counts[t][r] += other.counts[t][r];
            }
        }
    }

    /// Resets all counts to zero.
    pub fn clear(&mut self) {
        self.counts = [[0; NUM_RESOURCES]; MAX_THREADS];
    }

    /// Returns the matrix and resets it to zero (drain semantics).
    pub fn take(&mut self) -> AccessMatrix {
        std::mem::take(self)
    }
}

impl Default for AccessMatrix {
    fn default() -> Self {
        Self::new()
    }
}

impl Index<(ThreadId, Resource)> for AccessMatrix {
    type Output = u64;

    fn index(&self, (t, r): (ThreadId, Resource)) -> &u64 {
        &self.counts[t.index()][r.index()]
    }
}

impl IndexMut<(ThreadId, Resource)> for AccessMatrix {
    fn index_mut(&mut self, (t, r): (ThreadId, Resource)) -> &mut u64 {
        &mut self.counts[t.index()][r.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_indices_are_dense_and_unique() {
        for (i, r) in ALL_RESOURCES.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn names_are_unique() {
        use std::collections::HashSet;
        let names: HashSet<_> = ALL_RESOURCES.iter().map(|r| r.name()).collect();
        assert_eq!(names.len(), NUM_RESOURCES);
    }

    #[test]
    fn matrix_accumulates_and_totals() {
        let mut m = AccessMatrix::new();
        m.add(ThreadId(0), Resource::IntRegFile, 5);
        m.add(ThreadId(1), Resource::IntRegFile, 7);
        m.add(ThreadId(0), Resource::L1D, 2);
        assert_eq!(m.resource_total(Resource::IntRegFile), 12);
        assert_eq!(m.thread_total(ThreadId(0)), 7);
        assert_eq!(m[(ThreadId(1), Resource::IntRegFile)], 7);
    }

    #[test]
    fn merge_and_take() {
        let mut a = AccessMatrix::new();
        let mut b = AccessMatrix::new();
        a.add(ThreadId(0), Resource::L2, 1);
        b.add(ThreadId(0), Resource::L2, 2);
        a.merge(&b);
        assert_eq!(a.get(ThreadId(0), Resource::L2), 3);
        let drained = a.take();
        assert_eq!(drained.get(ThreadId(0), Resource::L2), 3);
        assert_eq!(a.get(ThreadId(0), Resource::L2), 0);
    }

    #[test]
    fn index_mut_writes_through() {
        let mut m = AccessMatrix::new();
        m[(ThreadId(2), Resource::Bpred)] = 9;
        assert_eq!(m.get(ThreadId(2), Resource::Bpred), 9);
    }
}
