//! Per-context (per-thread) state: architectural state, fetch machinery,
//! and the in-flight instruction count that drives ICOUNT.

use crate::decode::InstMeta;
use crate::resources::ThreadId;
use crate::stats::ThreadStats;
use hs_isa::{ArchState, FlatMemory, InstIndex, Program};
use std::collections::VecDeque;

/// An instruction sitting in a thread's fetch queue, together with the PC
/// the fetch unit *predicted* would follow it. Dispatch compares this
/// prediction with the architecturally computed next PC to detect
/// mispredictions.
///
/// Deliberately just two indices (8 bytes): the instruction itself and its
/// predecode live in the context's `program`/`metas` tables, so the fetch
/// queue shuttles handles instead of copying ~50-byte records through the
/// `VecDeque` twice per instruction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FetchedInst {
    /// The instruction's index in the program (keys both `program` and
    /// `metas`).
    pub(crate) index: InstIndex,
    /// The PC the fetch unit continued at after this instruction.
    pub(crate) predicted_next: InstIndex,
}

/// All state belonging to one SMT context.
#[derive(Debug, Clone)]
pub(crate) struct ThreadContext {
    /// The context's identifier.
    pub(crate) id: ThreadId,
    /// The program this context runs.
    pub(crate) program: Program,
    /// Predecoded metadata for every static instruction of `program`,
    /// parallel to its instruction indices (see [`InstMeta`]).
    pub(crate) metas: Vec<InstMeta>,
    /// Architectural registers + PC, updated in program order at dispatch.
    pub(crate) arch: ArchState,
    /// The thread's private data memory image.
    pub(crate) memory: FlatMemory,
    /// Speculative fetch pointer.
    pub(crate) fetch_pc: InstIndex,
    /// Fetched-but-not-dispatched instructions.
    pub(crate) fetch_queue: VecDeque<FetchedInst>,
    /// Instructions in flight (fetch queue + RUU, uncommitted) for ICOUNT.
    pub(crate) icount: u32,
    /// Fetch is stalled until this cycle (I-cache miss or redirect delay).
    pub(crate) fetch_stall_until: u64,
    /// If `Some(seq)`, fetch waits for that RUU entry (a mispredicted
    /// branch) to complete before resuming on the correct path.
    pub(crate) redirect_wait: Option<u64>,
    /// Dispatch is blocked until this cycle (squash-on-L2-miss policy).
    pub(crate) dispatch_block_until: u64,
    /// The PC of the next instruction dispatch expects, in program order.
    pub(crate) next_dispatch_pc: InstIndex,
    /// Set once a `halt` dispatches; the context fetches nothing further.
    pub(crate) halted: bool,
    /// Pipeline statistics.
    pub(crate) stats: ThreadStats,
}

impl ThreadContext {
    /// Creates a fresh context at the start of `program`.
    #[must_use]
    pub(crate) fn new(id: ThreadId, program: Program) -> Self {
        ThreadContext {
            id,
            metas: InstMeta::table(&program),
            program,
            arch: ArchState::new(),
            memory: FlatMemory::new(),
            fetch_pc: InstIndex(0),
            fetch_queue: VecDeque::new(),
            icount: 0,
            fetch_stall_until: 0,
            redirect_wait: None,
            dispatch_block_until: 0,
            next_dispatch_pc: InstIndex(0),
            halted: false,
            stats: ThreadStats::default(),
        }
    }

    /// Discards the fetch queue (mispredict or halt), adjusting `icount`.
    pub(crate) fn flush_fetch_queue(&mut self) {
        self.icount -= self.fetch_queue.len() as u32;
        self.fetch_queue.clear();
    }

    /// Whether this context can accept fetched instructions this cycle.
    #[must_use]
    pub(crate) fn can_fetch(&self, cycle: u64, queue_capacity: u32) -> bool {
        !self.halted
            && self.redirect_wait.is_none()
            && self.fetch_stall_until <= cycle
            && (self.fetch_queue.len() as u32) < queue_capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_isa::ProgramBuilder;

    fn nop_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.nop();
        b.build().unwrap()
    }

    #[test]
    fn fresh_context_can_fetch() {
        let t = ThreadContext::new(ThreadId(0), nop_program());
        assert!(t.can_fetch(0, 4));
        assert_eq!(t.icount, 0);
    }

    #[test]
    fn stalled_context_cannot_fetch() {
        let mut t = ThreadContext::new(ThreadId(0), nop_program());
        t.fetch_stall_until = 10;
        assert!(!t.can_fetch(5, 4));
        assert!(t.can_fetch(10, 4));
    }

    #[test]
    fn flush_adjusts_icount() {
        let mut t = ThreadContext::new(ThreadId(0), nop_program());
        t.fetch_queue.push_back(FetchedInst {
            index: InstIndex(0),
            predicted_next: InstIndex(1),
        });
        t.icount = 3; // 1 in queue + 2 in RUU
        t.flush_fetch_queue();
        assert_eq!(t.icount, 2);
        assert!(t.fetch_queue.is_empty());
    }
}
