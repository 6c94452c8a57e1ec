//! The SMT out-of-order pipeline proper.
//!
//! Stage order within [`Cpu::tick`] is commit → writeback → issue →
//! dispatch → fetch, the usual reverse-pipeline traversal that lets an
//! instruction completing in cycle *N* wake its dependents for issue in
//! cycle *N+1* without intra-cycle forwarding hacks.

use crate::bpred::BranchPredictor;
use crate::config::CpuConfig;
use crate::decode::ExecMeta;
use crate::resources::{AccessMatrix, Resource, ThreadId, MAX_THREADS};
use crate::stats::ThreadStats;
use crate::thread::{FetchedInst, ThreadContext};
use hs_isa::inst::FuClass;
use hs_isa::machine::execute_one;
use hs_isa::{InstIndex, Program};
use hs_mem::{AccessKind, MemConfig, MemoryHierarchy};
use std::collections::VecDeque;

/// Per-cycle external fetch control: which threads are forbidden from
/// fetching this cycle. Selective sedation gates the culprit thread here;
/// everything else in the pipeline continues normally so the thread's
/// in-flight instructions drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FetchGate {
    gated: [bool; MAX_THREADS],
}

impl FetchGate {
    /// No thread is gated.
    #[must_use]
    pub fn open() -> Self {
        FetchGate::default()
    }

    /// Gates a single thread, leaving others open.
    #[must_use]
    pub fn gating(thread: ThreadId) -> Self {
        let mut g = FetchGate::default();
        g.gated[thread.index()] = true;
        g
    }

    /// Sets the gate for `thread`.
    pub fn set(&mut self, thread: ThreadId, gated: bool) {
        self.gated[thread.index()] = gated;
    }

    /// Whether `thread` is gated.
    #[must_use]
    pub fn is_gated(&self, thread: ThreadId) -> bool {
        self.gated[thread.index()]
    }

    /// Whether any thread is gated.
    #[must_use]
    pub fn any_gated(&self) -> bool {
        self.gated.iter().any(|&g| g)
    }
}

/// Sentinel for the intrusive consumer-list links and the last-writer
/// tables: `u64::MAX` never collides with a real `seq << 1 | slot`
/// encoding or sequence number. A plain sentinel keeps [`RuuEntry`] and the
/// per-thread writer tables half the size of their `Option<u64>` forms —
/// these are the hottest records in the machine.
const NO_LINK: u64 = u64::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    Waiting,
    Issued,
    Completed,
    /// Retired by its thread; the slot is free but the ring entry lingers
    /// until it drains past the ring head.
    Committed,
}

#[derive(Debug, Clone, Copy)]
struct RuuEntry {
    seq: u64,
    thread: ThreadId,
    /// The post-dispatch slice of the predecode; the RUU never needs the
    /// instruction itself (functional execution happens at dispatch) nor
    /// its dependence fields (resolved at dispatch).
    meta: ExecMeta,
    index: InstIndex,
    state: EntryState,
    /// Producers this entry still waits on (wakeup counter).
    pending: u8,
    /// Head of this entry's intrusive consumer list: `consumer_seq << 1 |
    /// dep_slot`. Walked at completion to decrement consumers' `pending`.
    consumer_head: u64,
    /// Per-dep-slot link to the next consumer of the same producer.
    next_consumer: [u64; 2],
    complete_cycle: u64,
    /// Cache latency (beyond the 1-cycle AGU) for memory operations.
    mem_latency: u32,
    /// For control instructions: the architecturally correct next PC.
    actual_next: InstIndex,
    /// Whether fetch followed a different path than `actual_next`.
    mispredicted: bool,
    /// Conditional branches remember their outcome for predictor training.
    branch_taken: Option<bool>,
}

/// Functional-unit budget for one issue cycle.
#[derive(Debug, Clone, Copy)]
struct FuBudget {
    int_alu: u32,
    int_mul: u32,
    fp_add: u32,
    fp_mul: u32,
    mem_port: u32,
}

impl FuBudget {
    fn new(cfg: &CpuConfig) -> Self {
        FuBudget {
            int_alu: cfg.int_alus,
            int_mul: cfg.int_muls,
            fp_add: cfg.fp_adds,
            fp_mul: cfg.fp_muls,
            mem_port: cfg.mem_ports,
        }
    }

    /// Tries to reserve a unit for `class`; returns whether it succeeded.
    fn try_take(&mut self, class: FuClass) -> bool {
        let slot = match class {
            // Branches execute on the integer ALU pool.
            FuClass::IntAlu | FuClass::Branch => &mut self.int_alu,
            FuClass::IntMul => &mut self.int_mul,
            FuClass::FpAdd => &mut self.fp_add,
            FuClass::FpMul => &mut self.fp_mul,
            FuClass::MemPort => &mut self.mem_port,
            FuClass::None => return true,
        };
        if *slot == 0 {
            false
        } else {
            *slot -= 1;
            true
        }
    }
}

/// The SMT core: shared RUU/LSQ, shared caches, per-thread contexts.
///
/// See the crate-level docs for an end-to-end example. A clone is a
/// bit-identical snapshot: it continues exactly as the original would.
#[derive(Debug, Clone)]
pub struct Cpu {
    cfg: CpuConfig,
    threads: Vec<ThreadContext>,
    hierarchy: MemoryHierarchy,
    bpred: BranchPredictor,
    ruu: VecDeque<RuuEntry>,
    /// Per-thread program-order queues of RUU sequence numbers; commit is
    /// per-thread in-order (SMT retirement), not global-order — otherwise
    /// one thread's L2 miss at the ring head would freeze every other
    /// thread's retirement.
    thread_order: [VecDeque<u64>; MAX_THREADS],
    front_seq: u64,
    next_seq: u64,
    /// Live (uncommitted) RUU entries; this, not the ring length, is what
    /// the RUU capacity limits.
    ruu_live: u32,
    lsq_occupancy: u32,
    cycle: u64,
    /// Pending completions: (complete_cycle, seq), earliest first. Pushed
    /// at issue so writeback touches only the instructions that finish
    /// this cycle instead of scanning the window.
    completions: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
    /// Completions due exactly one cycle out — the single-cycle-latency
    /// majority — ascending by seq (issue selects oldest-first). Writeback
    /// min-merges this bucket with the `completions` heap so per-cycle
    /// processing order (and thus predictor-update order) is unchanged,
    /// while most instructions never pay a heap push/pop.
    completions_next: Vec<u64>,
    /// Entries whose dependences resolved at dispatch this cycle; they may
    /// issue from the *next* cycle on, so issue drains this bucket into
    /// `ready` at the top of every cycle. A wake-up is only ever due one
    /// cycle out (writeback wake-ups are due the same cycle and go straight
    /// into `ready`), so a plain vector replaces a time-keyed heap.
    ready_next: Vec<u64>,
    /// Ready-to-issue entries, oldest (smallest seq) first.
    ready: std::collections::BinaryHeap<std::cmp::Reverse<u64>>,
    /// Ready entries the select scan examined but could not issue (their
    /// unit was busy). Kept sorted ascending and min-merged with `ready`
    /// each cycle, so a structurally stalled window re-examines them
    /// without any heap pop/re-push churn.
    ready_stash: Vec<u64>,
    /// Spare buffer swapped with `ready_stash` each issue cycle.
    stash_scratch: Vec<u64>,
    /// Run the retained naive issue path instead of the optimized one;
    /// exists only so differential tests can prove bit-identity.
    reference_issue: bool,
    redirect_scratch: Vec<(ThreadId, u64, InstIndex)>,
    bpred_scratch: Vec<(ThreadId, u64, bool)>,
    events: AccessMatrix,
    last_writer_int: [[u64; hs_isa::NUM_INT_REGS]; MAX_THREADS],
    last_writer_fp: [[u64; hs_isa::NUM_FP_REGS]; MAX_THREADS],
}

impl Cpu {
    /// Creates an SMT core with no threads attached.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CpuConfig::validate`].
    #[must_use]
    pub fn new(cfg: CpuConfig, mem_cfg: MemConfig) -> Self {
        cfg.validate();
        Cpu {
            cfg,
            threads: Vec::new(),
            hierarchy: MemoryHierarchy::new(mem_cfg),
            bpred: BranchPredictor::new(cfg.bpred_entries),
            ruu: VecDeque::with_capacity(cfg.ruu_size as usize),
            thread_order: std::array::from_fn(|_| VecDeque::new()),
            front_seq: 0,
            next_seq: 0,
            ruu_live: 0,
            lsq_occupancy: 0,
            cycle: 0,
            completions: std::collections::BinaryHeap::new(),
            completions_next: Vec::new(),
            ready_next: Vec::new(),
            ready: std::collections::BinaryHeap::new(),
            ready_stash: Vec::new(),
            stash_scratch: Vec::new(),
            reference_issue: false,
            redirect_scratch: Vec::new(),
            bpred_scratch: Vec::new(),
            events: AccessMatrix::new(),
            last_writer_int: [[NO_LINK; hs_isa::NUM_INT_REGS]; MAX_THREADS],
            last_writer_fp: [[NO_LINK; hs_isa::NUM_FP_REGS]; MAX_THREADS],
        }
    }

    /// Attaches a program to the next free hardware context.
    ///
    /// # Panics
    ///
    /// Panics if all `cfg.contexts` contexts are occupied.
    pub fn attach_thread(&mut self, program: Program) -> ThreadId {
        assert!(
            (self.threads.len() as u32) < self.cfg.contexts,
            "all {} SMT contexts are occupied",
            self.cfg.contexts
        );
        let id = ThreadId(self.threads.len() as u8);
        self.threads.push(ThreadContext::new(id, program));
        id
    }

    /// The configuration the core was built with.
    #[must_use]
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Current cycle count.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of attached threads.
    #[must_use]
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Statistics for one thread.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is not attached.
    #[must_use]
    pub fn thread_stats(&self, thread: ThreadId) -> &ThreadStats {
        &self.threads[thread.index()].stats
    }

    /// Whether the thread has dispatched a `halt`.
    #[must_use]
    pub fn thread_halted(&self, thread: ThreadId) -> bool {
        self.threads[thread.index()].halted
    }

    /// In-flight instruction count (the ICOUNT metric) for one thread.
    #[must_use]
    pub fn thread_icount(&self, thread: ThreadId) -> u32 {
        self.threads[thread.index()].icount
    }

    /// Current RUU occupancy (live, uncommitted entries).
    #[must_use]
    pub fn ruu_occupancy(&self) -> usize {
        self.ruu_live as usize
    }

    /// Memory-hierarchy statistics.
    #[must_use]
    pub fn mem_stats(&self) -> hs_mem::LevelStats {
        self.hierarchy.stats()
    }

    /// Drains and returns the per-thread, per-resource access counts
    /// accumulated since the last call.
    pub fn take_access_counts(&mut self) -> AccessMatrix {
        self.events.take()
    }

    /// A read-only view of the access counts accumulated so far in the
    /// current interval.
    #[must_use]
    pub fn access_counts(&self) -> &AccessMatrix {
        &self.events
    }

    /// Fast-forwards the core through one extrapolated phase sample: the
    /// interval-mode crediting hook (`hs-sim`, DESIGN.md §3d).
    ///
    /// Timing is extrapolated, architecture is not. The credited
    /// *instruction count* comes from the phase profile, but the
    /// instructions themselves are the program's real stream, executed
    /// functionally — so program-driven phase changes (variant2's burst
    /// boundaries, an evader's duty cycle) still arrive at the right point
    /// on the simulated timeline and the next measured sample observes the
    /// program where it architecturally belongs.
    ///
    /// Three steps:
    ///
    /// 1. **Retire in place.** Dispatch already executed every in-flight
    ///    RUU entry functionally (SimpleScalar style), so the architectural
    ///    state is ahead of the committed counters; dropping those entries
    ///    must count them as committed or the two views diverge.
    /// 2. **Squash all pipeline timing state** — fetch queues, the window,
    ///    completion heaps, stalls, pending redirects. Those structures are
    ///    keyed on absolute cycle numbers that no longer correspond to
    ///    anything once a span is skipped; the next [`Self::tick`] restarts
    ///    from an empty pipeline (the caller's phase detector absorbs the
    ///    short refill ramp).
    /// 3. **Advance the program.** Execute `sample.committed[t]`
    ///    instructions per thread through the architectural interpreter,
    ///    then merge the extrapolated access events into the matrix drained
    ///    by [`Self::take_access_counts`].
    ///
    /// [`Self::cycle`] is deliberately not advanced: the simulator owns
    /// simulated time.
    pub fn fast_forward(&mut self, sample: &crate::phase::PhaseSample) {
        // Step 1: retire dispatched-but-uncommitted instructions in place.
        // They count against this span's credit budget below — cycle-level
        // execution would have committed them during the span — so the
        // program advances by exactly the credited count and duty-cycled
        // programs keep their phase boundaries on the simulated timeline.
        let mut retired = [0u64; MAX_THREADS];
        for (ti, order) in self.thread_order.iter_mut().enumerate() {
            if let Some(t) = self.threads.get_mut(ti) {
                t.stats.committed += order.len() as u64;
                retired[ti] = order.len() as u64;
            }
            order.clear();
        }
        // Step 2: squash. Clearing the ring with `front_seq = next_seq`
        // keeps sequence numbers monotone; stale seqs in the last-writer
        // tables fall below `front_seq` and read as already-committed.
        self.ruu.clear();
        self.front_seq = self.next_seq;
        self.ruu_live = 0;
        self.lsq_occupancy = 0;
        self.completions.clear();
        self.completions_next.clear();
        self.ready_next.clear();
        self.ready.clear();
        self.ready_stash.clear();
        for t in &mut self.threads {
            t.fetch_queue.clear();
            t.icount = 0;
            // `fetch_stall_until` / `dispatch_block_until` are keyed to
            // [`Self::cycle`], which a credited span does not advance, so
            // in-flight miss windows survive the squash and resume exactly
            // where cycle-level execution paused them — memory-bound phases
            // would otherwise restart with a commit burst after every
            // credited span and inflate the measured profile.
            if t.redirect_wait.take().is_some() {
                // Wrong-path fetch may have run off the program end; the
                // squash plays the role of the redirect that would have
                // revived the thread.
                t.halted = false;
            }
        }
        // Step 3: functional fast-forward from the dispatch frontier.
        for (ti, t) in self.threads.iter_mut().enumerate() {
            let mut pc = t.next_dispatch_pc;
            for _ in 0..sample.committed[ti].saturating_sub(retired[ti]) {
                if t.halted {
                    break;
                }
                let Some(inst) = t.program.get(pc) else {
                    t.halted = true;
                    break;
                };
                let outcome = execute_one(inst.kind(), pc, &mut t.arch, &mut t.memory);
                pc = outcome.next_pc;
                t.stats.committed += 1;
                if outcome.halted {
                    t.halted = true;
                }
            }
            t.next_dispatch_pc = pc;
            t.fetch_pc = pc;
        }
        self.events.merge(&sample.counts);
    }

    /// Advances one cycle, accumulating per-stage wall time into `out`
    /// (commit, writeback, issue, dispatch, fetch). For profiling only.
    #[doc(hidden)]
    pub fn tick_timed(&mut self, gate: FetchGate, out: &mut [u64; 5]) {
        use std::time::Instant;
        let mut last = Instant::now();
        self.tick_with(gate, |stage| {
            let now = Instant::now();
            out[stage] += (now - last).as_nanos() as u64;
            last = now;
        });
    }

    /// Routes every subsequent cycle's issue stage through the retained
    /// naive implementation ([`Cpu::issue_reference`]). Differential tests
    /// only; the optimized path is the default and must stay bit-identical.
    #[doc(hidden)]
    pub fn set_reference_issue(&mut self, on: bool) {
        self.reference_issue = on;
    }

    /// Advances the core by one cycle.
    pub fn tick(&mut self, gate: FetchGate) {
        self.tick_with(gate, |_| {});
    }

    /// The one stage sequence behind [`Self::tick`] and
    /// [`Self::tick_timed`]: `lap(i)` runs right after stage `i` (commit,
    /// writeback, issue, dispatch, fetch). Inlined so that `tick`'s no-op
    /// lap compiles away.
    #[inline(always)]
    fn tick_with(&mut self, gate: FetchGate, mut lap: impl FnMut(usize)) {
        self.cycle += 1;
        self.commit();
        lap(0);
        self.writeback();
        lap(1);
        if self.reference_issue {
            self.issue_reference();
        } else {
            self.issue();
        }
        lap(2);
        self.dispatch();
        lap(3);
        self.fetch(gate);
        lap(4);
        for t in &mut self.threads {
            if gate.is_gated(t.id) {
                t.stats.gated_cycles += 1;
            }
        }
    }

    /// Returns a cycle bound `B` such that every [`Cpu::tick`] advancing to
    /// a cycle strictly below `B` is provably a no-op under `gate`: no stage
    /// can commit, wake, issue, dispatch, flush, or fetch anything until
    /// some event at cycle `B` (a completion, a wake-up, a stall expiry).
    /// `None` means the very next tick may do work. Callers may then bulk-
    /// advance with [`Cpu::skip_idle_cycles`] instead of ticking through
    /// stall windows — the dominant cost of memory-bound and sedated
    /// phases. `None` is also returned unconditionally in reference-issue
    /// mode, so the differential reference path is a pure per-cycle loop
    /// and bit-identity tests exercise the skip logic.
    #[must_use]
    pub fn idle_bound(&self, gate: FetchGate) -> Option<u64> {
        if self.reference_issue {
            return None;
        }
        // Commit acts now on an undrained tombstone or a completed head.
        if matches!(
            self.ruu.front().map(|e| e.state),
            Some(EntryState::Committed)
        ) {
            return None;
        }
        for ti in 0..self.threads.len() {
            if let Some(&seq) = self.thread_order[ti].front() {
                if self.ruu[(seq - self.front_seq) as usize].state == EntryState::Completed {
                    return None;
                }
            }
        }
        // Issue selects from anything already ready on the next tick, and
        // promotes (then selects from) dispatch wake-ups one cycle out;
        // bucketed completions fire next cycle as well.
        if !self.ready.is_empty()
            || !self.ready_stash.is_empty()
            || !self.ready_next.is_empty()
            || !self.completions_next.is_empty()
        {
            return None;
        }
        let mut bound = u64::MAX;
        if let Some(&std::cmp::Reverse((when, _))) = self.completions.peek() {
            bound = bound.min(when);
        }
        for (ti, t) in self.threads.iter().enumerate() {
            // Dispatch side: mirror dispatch_one's early-outs in order. The
            // capacity blocks (RUU/per-thread/LSQ) cannot clear without a
            // commit, which cannot happen without a completion — already
            // bounded above.
            if self.ruu_live >= self.cfg.ruu_size
                || self.thread_order[ti].len() as u32 >= self.cfg.ruu_per_thread_cap
            {
                // Frozen until something commits.
            } else if t.dispatch_block_until > self.cycle {
                bound = bound.min(t.dispatch_block_until);
            } else if let Some(head) = t.fetch_queue.front() {
                if head.index != t.next_dispatch_pc {
                    return None; // would flush-refetch
                }
                let head_is_mem = t.metas[head.index.as_usize()].is_mem();
                if !(head_is_mem && self.lsq_occupancy >= self.cfg.lsq_size) {
                    return None; // would dispatch
                }
                // LSQ full: frozen until a memory op commits.
            }
            // Fetch side: mirror ThreadContext::can_fetch. Halt revival and
            // redirect_wait clear only in writeback; a full queue drains
            // only by dispatch — all bounded above.
            if gate.is_gated(t.id)
                || t.halted
                || t.redirect_wait.is_some()
                || (t.fetch_queue.len() as u32) >= self.cfg.fetch_queue_size
            {
                continue;
            }
            if t.fetch_stall_until > self.cycle {
                bound = bound.min(t.fetch_stall_until);
            } else {
                return None; // would fetch
            }
        }
        (bound > self.cycle + 1).then_some(bound)
    }

    /// Advances the cycle counter by `n` without running any stage,
    /// accounting gated cycles exactly as `n` individual ticks would.
    /// Only sound for cycles [`Cpu::idle_bound`] proved idle under the
    /// same `gate`.
    pub fn skip_idle_cycles(&mut self, gate: FetchGate, n: u64) {
        self.cycle += n;
        for t in &mut self.threads {
            if gate.is_gated(t.id) {
                t.stats.gated_cycles += n;
            }
        }
    }

    /// Looks up a live RUU entry by sequence number. `None` means the entry
    /// has already committed (dependence satisfied).
    fn entry(&self, seq: u64) -> Option<&RuuEntry> {
        if seq < self.front_seq {
            return None;
        }
        self.ruu.get((seq - self.front_seq) as usize)
    }

    fn commit(&mut self) {
        // Per-thread in-order retirement, round-robin across threads up to
        // the shared commit width.
        let mut budget = self.cfg.commit_width;
        let nthreads = self.threads.len();
        let mut progressed = true;
        while budget > 0 && progressed {
            progressed = false;
            for ti in 0..nthreads {
                if budget == 0 {
                    break;
                }
                let Some(&seq) = self.thread_order[ti].front() else {
                    continue;
                };
                let idx = (seq - self.front_seq) as usize;
                let e = &mut self.ruu[idx];
                if e.state != EntryState::Completed {
                    continue;
                }
                e.state = EntryState::Committed;
                let is_mem = e.meta.is_mem();
                self.thread_order[ti].pop_front();
                let t = &mut self.threads[ti];
                t.stats.committed += 1;
                t.icount -= 1;
                self.ruu_live -= 1;
                if is_mem {
                    self.lsq_occupancy -= 1;
                }
                budget -= 1;
                progressed = true;
            }
        }
        // Drain committed tombstones past the ring head.
        while matches!(
            self.ruu.front().map(|e| e.state),
            Some(EntryState::Committed)
        ) {
            self.ruu.pop_front();
            self.front_seq += 1;
        }
    }

    fn writeback(&mut self) {
        let cycle = self.cycle;
        // Fast path: nothing completes this cycle, so there is nothing to
        // wake, train, or redirect. Common on stall cycles.
        let heap_due = matches!(
            self.completions.peek(),
            Some(&std::cmp::Reverse((when, _))) if when <= cycle
        );
        if self.completions_next.is_empty() && !heap_due {
            return;
        }
        let mut redirects = std::mem::take(&mut self.redirect_scratch);
        let mut bpred_updates = std::mem::take(&mut self.bpred_scratch);
        redirects.clear();
        bpred_updates.clear();
        // Min-merge the due-now bucket (sorted ascending) with the due heap
        // entries: completions process in ascending seq order exactly as the
        // (when, seq) heap alone would order them.
        let mut bucket = std::mem::take(&mut self.completions_next);
        let mut bi = 0usize;
        loop {
            let from_bucket = match (bucket.get(bi), self.completions.peek()) {
                (Some(&s), Some(&std::cmp::Reverse((when, hs)))) if when <= cycle => s < hs,
                (Some(_), _) => true,
                (None, Some(&std::cmp::Reverse((when, _)))) if when <= cycle => false,
                _ => break,
            };
            let seq = if from_bucket {
                bi += 1;
                bucket[bi - 1]
            } else {
                let Some(std::cmp::Reverse((_, s))) = self.completions.pop() else {
                    break;
                };
                s
            };
            let idx = (seq - self.front_seq) as usize;
            let e = &mut self.ruu[idx];
            debug_assert_eq!(e.state, EntryState::Issued);
            e.state = EntryState::Completed;
            let tid = e.thread;
            // Wake this producer's consumers (intrusive list walk).
            let mut cur = std::mem::replace(&mut e.consumer_head, NO_LINK);
            while cur != NO_LINK {
                let enc = cur;
                let cseq = enc >> 1;
                let slot = (enc & 1) as usize;
                let cidx = (cseq - self.front_seq) as usize;
                let c = &mut self.ruu[cidx];
                cur = std::mem::replace(&mut c.next_consumer[slot], NO_LINK);
                c.pending -= 1;
                if c.pending == 0 {
                    // Completed during this cycle's writeback: eligible to
                    // issue this very cycle (issue runs after writeback).
                    self.ready.push(std::cmp::Reverse(cseq));
                }
            }
            let e = &mut self.ruu[idx];
            self.events
                .add(tid, Resource::IntRegFile, u64::from(e.meta.int_reg_writes));
            self.events
                .add(tid, Resource::FpRegFile, u64::from(e.meta.fp_reg_writes));
            if let Some(taken) = e.branch_taken {
                let addr = self.threads[tid.index()].program.inst_addr(e.index);
                bpred_updates.push((tid, addr, taken));
            }
            if e.mispredicted {
                redirects.push((tid, e.seq, e.actual_next));
            }
        }
        bucket.clear();
        self.completions_next = bucket;
        for &(tid, addr, taken) in &bpred_updates {
            self.bpred.update(addr, taken);
            self.events.add(tid, Resource::Bpred, 1);
        }
        for &(tid, seq, next) in &redirects {
            let penalty = u64::from(self.cfg.mispredict_redirect_penalty);
            let t = &mut self.threads[tid.index()];
            if t.redirect_wait == Some(seq) {
                t.redirect_wait = None;
                t.fetch_pc = next;
                t.fetch_stall_until = t.fetch_stall_until.max(cycle + penalty);
                // Wrong-path fetch may have run off the program end and
                // marked the thread halted; the redirect revives it. (A
                // real `halt` can never race this: an older mispredicted
                // branch flushes the fetch queue before the halt could
                // dispatch.)
                t.halted = false;
            }
        }
        self.redirect_scratch = redirects;
        self.bpred_scratch = bpred_updates;
    }

    fn issue(&mut self) {
        // Fast path: nothing is ready and nothing woke up — common on
        // memory-stall and sedated cycles.
        if self.ready.is_empty() && self.ready_stash.is_empty() && self.ready_next.is_empty() {
            return;
        }
        let mut budget = self.cfg.issue_width.min(32);
        let mut pops = self.cfg.issue_scan_depth;
        let mut fus = FuBudget::new(&self.cfg);
        let mut selected = [0usize; 32];
        let mut nselected = 0usize;
        // Entries examined but not issued this cycle (their unit was busy);
        // they stay ready. Instead of re-pushing them into the heap — the
        // dominant cost when a wide ready window contends for few units —
        // they accumulate in a sorted side vector that the next cycle's
        // scan min-merges with the heap. Last cycle's dispatch wake-ups
        // (`ready_next`) are also already sorted, and every one of their
        // seqs is strictly greater than every stash seq (the stash holds
        // strictly earlier dispatches), so `prior ++ fresh` is one sorted
        // stream and the dense-path majority never touches the heap at all.
        // The candidate order is exactly the heap-only order: both walk
        // ready seqs smallest-first.
        let mut stash = std::mem::take(&mut self.stash_scratch);
        let mut prior = std::mem::take(&mut self.ready_stash);
        let mut fresh = std::mem::take(&mut self.ready_next);
        let plen = prior.len();
        let mut pos = 0usize; // cursor over the `prior ++ fresh` stream
                              // Select oldest-ready first, bounded by the select depth.
        while budget > 0 && pops > 0 {
            let stream_head = if pos < plen {
                Some(prior[pos])
            } else {
                fresh.get(pos - plen).copied()
            };
            let from_stream = match (stream_head, self.ready.peek()) {
                (Some(s), Some(&std::cmp::Reverse(h))) => s < h,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let seq = if from_stream {
                let s = stream_head.expect("from_stream implies a head");
                pos += 1;
                s
            } else {
                let Some(std::cmp::Reverse(seq)) = self.ready.pop() else {
                    break;
                };
                seq
            };
            pops -= 1;
            let i = (seq - self.front_seq) as usize;
            debug_assert_eq!(self.ruu[i].state, EntryState::Waiting);
            if !fus.try_take(self.ruu[i].meta.fu) {
                stash.push(seq);
                if stash.len() == 32 {
                    break;
                }
                continue;
            }
            selected[nselected] = i;
            nselected += 1;
            budget -= 1;
        }
        // Unexamined leftovers are all larger than every examined seq, so
        // appending them keeps the stash sorted.
        if pos < plen {
            stash.extend_from_slice(&prior[pos..]);
            stash.extend_from_slice(&fresh);
        } else {
            stash.extend_from_slice(&fresh[pos - plen..]);
        }
        prior.clear();
        fresh.clear();
        self.ready_next = fresh;
        self.stash_scratch = prior;
        self.ready_stash = stash;

        self.issue_selected(&selected[..nselected]);
    }

    /// The pre-optimization issue stage, retained verbatim so differential
    /// tests can prove the deferred-drain scan selects identically. Drains
    /// any deferred stash into the heap first (empty in steady reference
    /// use), then runs the original pop/re-push select loop.
    #[doc(hidden)]
    pub fn issue_reference(&mut self) {
        for seq in std::mem::take(&mut self.ready_stash) {
            self.ready.push(std::cmp::Reverse(seq));
        }
        for seq in self.ready_next.drain(..) {
            self.ready.push(std::cmp::Reverse(seq));
        }

        let mut budget = self.cfg.issue_width.min(32);
        let mut pops = self.cfg.issue_scan_depth;
        let mut fus = FuBudget::new(&self.cfg);
        let mut selected = [0usize; 32];
        let mut nselected = 0usize;
        // Entries popped but not issued (their unit was busy); they stay
        // ready and return to the pool after selection.
        let mut stash = [0u64; 32];
        let mut nstash = 0usize;
        // Select oldest-ready first, bounded by the select depth.
        while budget > 0 && pops > 0 {
            let Some(std::cmp::Reverse(seq)) = self.ready.pop() else {
                break;
            };
            pops -= 1;
            let i = (seq - self.front_seq) as usize;
            debug_assert_eq!(self.ruu[i].state, EntryState::Waiting);
            if !fus.try_take(self.ruu[i].meta.fu) {
                stash[nstash] = seq;
                nstash += 1;
                if nstash == stash.len() {
                    break;
                }
                continue;
            }
            selected[nselected] = i;
            nselected += 1;
            budget -= 1;
        }
        for &seq in &stash[..nstash] {
            self.ready.push(std::cmp::Reverse(seq));
        }

        self.issue_selected(&selected[..nselected]);
    }

    /// Phase 2 of issue: mark the selected window entries issued and
    /// schedule their completions. Shared by both select implementations.
    fn issue_selected(&mut self, selected: &[usize]) {
        let cycle = self.cycle;
        for &i in selected {
            let e = &mut self.ruu[i];
            e.state = EntryState::Issued;
            e.complete_cycle = cycle + u64::from(e.meta.latency) + u64::from(e.mem_latency);
            if e.complete_cycle == cycle + 1 {
                // Selection order is ascending seq, so the bucket stays
                // sorted by construction.
                self.completions_next.push(e.seq);
            } else {
                self.completions
                    .push(std::cmp::Reverse((e.complete_cycle, e.seq)));
            }
            let tid = e.thread;
            let meta = e.meta;
            self.threads[tid.index()].stats.issued += 1;
            self.events.add(tid, Resource::IssueQueue, 1);
            self.events
                .add(tid, Resource::IntRegFile, u64::from(meta.int_reg_reads));
            self.events
                .add(tid, Resource::FpRegFile, u64::from(meta.fp_reg_reads));
            if let Some(r) = crate::resources::fu_resource(meta.fu) {
                self.events.add(tid, r, 1);
            }
        }
    }

    fn dispatch(&mut self) {
        let mut budget = self.cfg.dispatch_width;
        let nthreads = self.threads.len();
        if nthreads == 0 {
            return;
        }
        // Rotate the starting thread each cycle for fairness.
        let start = (self.cycle as usize) % nthreads;
        for k in 0..nthreads {
            let ti = (start + k) % nthreads;
            while budget > 0 {
                if !self.dispatch_one(ti) {
                    break;
                }
                budget -= 1;
            }
            if budget == 0 {
                break;
            }
        }
    }

    /// Dispatches one instruction from thread `ti`. Returns `false` when the
    /// thread cannot dispatch this cycle (empty queue, blocked, RUU/LSQ
    /// full, …).
    fn dispatch_one(&mut self, ti: usize) -> bool {
        if self.ruu_live >= self.cfg.ruu_size
            || self.thread_order[ti].len() as u32 >= self.cfg.ruu_per_thread_cap
        {
            return false;
        }
        let cycle = self.cycle;
        let lsq_full = self.lsq_occupancy >= self.cfg.lsq_size;
        let t = &mut self.threads[ti];
        // Note: a halted thread may still have fetched instructions to
        // drain; `halted` only stops fetch.
        if t.dispatch_block_until > cycle {
            return false;
        }
        let Some(&head) = t.fetch_queue.front() else {
            return false;
        };
        if head.index != t.next_dispatch_pc {
            // The queue holds a stale (wrong-path) stream; refetch from the
            // architecturally correct PC. This is a misfetch recovery, not a
            // misprediction (those flush at dispatch of the branch itself).
            t.flush_fetch_queue();
            t.fetch_pc = t.next_dispatch_pc;
            return false;
        }
        // The queue carries only indices; the instruction and its predecode
        // live in the context's tables.
        let meta = t.metas[head.index.as_usize()];
        if meta.is_mem() && lsq_full {
            return false;
        }
        t.fetch_queue.pop_front();
        let tid = t.id;

        // Functional execution, in program order (SimpleScalar style).
        let kind = *t
            .program
            .get(head.index)
            .expect("fetched PCs are in range")
            .kind();
        let outcome = execute_one(&kind, head.index, &mut t.arch, &mut t.memory);
        t.next_dispatch_pc = outcome.next_pc;
        t.stats.dispatched += 1;
        self.events.add(tid, Resource::Rename, 1);
        self.events.add(tid, Resource::IssueQueue, 1);

        // Dependences on in-flight producers: uncompleted producers get a
        // consumer-list registration (event-driven wakeup).
        let mut producers: [Option<u64>; 2] = [None, None];
        let mut nproducers = 0;
        for src in meta.int_deps.iter().flatten() {
            let pseq = self.last_writer_int[ti][src.index()];
            if pseq != NO_LINK
                && self.entry(pseq).is_some_and(|p| {
                    !matches!(p.state, EntryState::Completed | EntryState::Committed)
                })
            {
                producers[nproducers.min(1)] = Some(pseq);
                nproducers += 1;
            }
        }
        for src in meta.fp_deps.iter().flatten() {
            let pseq = self.last_writer_fp[ti][src.index()];
            if pseq != NO_LINK
                && self.entry(pseq).is_some_and(|p| {
                    !matches!(p.state, EntryState::Completed | EntryState::Committed)
                })
            {
                producers[nproducers.min(1)] = Some(pseq);
                nproducers += 1;
            }
        }

        let seq = self.next_seq;
        self.next_seq += 1;

        if let Some(rd) = meta.int_dest {
            self.last_writer_int[ti][rd.index()] = seq;
        }
        if let Some(fd) = meta.fp_dest {
            self.last_writer_fp[ti][fd.index()] = seq;
        }

        // Memory access: consult the shared hierarchy now; its latency is
        // charged when the op issues.
        let mut mem_latency = 0;
        if let Some(addr) = outcome.mem_addr {
            let kind = if meta.is_store() {
                AccessKind::DataWrite
            } else {
                AccessKind::DataRead
            };
            let phys = phys_addr(tid, addr);
            let res = self.hierarchy.access(kind, phys);
            mem_latency = res.latency;
            self.events.add(tid, Resource::L1D, 1);
            if !res.l1_hit {
                self.events.add(tid, Resource::L2, 1);
            }
            let t = &mut self.threads[ti];
            if res.is_l2_miss() && meta.is_load() {
                // Squash-on-L2-miss: stop dispatching from this thread until
                // the miss returns so it cannot fill the shared RUU.
                t.dispatch_block_until = cycle + u64::from(res.latency);
                t.stats.l2_miss_squashes += 1;
            }
        }

        // Control flow: detect mispredictions by comparing the fetch-time
        // prediction with the architectural next PC.
        let mispredicted = meta.is_control() && head.predicted_next != outcome.next_pc;
        let t = &mut self.threads[ti];
        if mispredicted {
            t.stats.mispredicts += 1;
            t.flush_fetch_queue();
            t.redirect_wait = Some(seq);
        }
        if meta.is_halt() {
            t.halted = true;
            t.flush_fetch_queue();
        }

        if meta.is_mem() {
            self.lsq_occupancy += 1;
        }
        self.ruu_live += 1;
        self.thread_order[ti].push_back(seq);
        let pending = producers.iter().flatten().count() as u8;
        self.ruu.push_back(RuuEntry {
            seq,
            thread: tid,
            meta: meta.exec,
            index: head.index,
            state: EntryState::Waiting,
            pending,
            consumer_head: NO_LINK,
            next_consumer: [NO_LINK, NO_LINK],
            complete_cycle: 0,
            mem_latency,
            actual_next: outcome.next_pc,
            mispredicted,
            branch_taken: outcome.branch_taken,
        });
        // Register on each live producer's consumer list (slot = which of
        // this entry's next_consumer links the producer's walk follows).
        for (slot, pseq) in producers.iter().flatten().enumerate() {
            let pidx = (pseq - self.front_seq) as usize;
            let old_head =
                std::mem::replace(&mut self.ruu[pidx].consumer_head, (seq << 1) | slot as u64);
            let my_idx = (seq - self.front_seq) as usize;
            self.ruu[my_idx].next_consumer[slot] = old_head;
        }
        if pending == 0 {
            // Free to issue from the next cycle on.
            self.ready_next.push(seq);
        }
        true
    }

    fn fetch(&mut self, gate: FetchGate) {
        let cycle = self.cycle;
        let cap = self.cfg.fetch_queue_size;
        let mut candidates = [0usize; MAX_THREADS];
        let mut ncand = 0;
        for i in 0..self.threads.len() {
            let t = &self.threads[i];
            if !gate.is_gated(t.id) && t.can_fetch(cycle, cap) {
                candidates[ncand] = i;
                ncand += 1;
            }
        }
        let cand = &mut candidates[..ncand];
        match self.cfg.fetch_policy {
            // ICOUNT: the threads with the fewest in-flight instructions.
            crate::config::FetchPolicy::Icount => {
                cand.sort_unstable_by_key(|&i| (self.threads[i].icount, i));
            }
            // Round-robin: rotate priority by cycle.
            crate::config::FetchPolicy::RoundRobin => {
                let n = self.threads.len();
                cand.sort_unstable_by_key(|&i| (i + n - (cycle as usize) % n) % n);
            }
        }
        let take = (self.cfg.fetch_threads_per_cycle as usize).min(ncand);
        let mut budget = self.cfg.fetch_width;
        for &ti in &candidates[..take] {
            if budget == 0 {
                break;
            }
            budget = self.fetch_thread(ti, budget);
        }
    }

    /// Fetches up to `budget` instructions from thread `ti`; returns the
    /// remaining budget.
    fn fetch_thread(&mut self, ti: usize, mut budget: u32) -> u32 {
        let cycle = self.cycle;
        let line_bytes = self.hierarchy.config().l1i.line_bytes();
        let mut current_line: Option<u64> = None;
        while budget > 0 {
            let t = &self.threads[ti];
            if (t.fetch_queue.len() as u32) >= self.cfg.fetch_queue_size {
                break;
            }
            let pc = t.fetch_pc;
            let Some(&meta) = t.metas.get(pc.as_usize()) else {
                // Ran off the end of the program: treat as an implicit halt.
                self.threads[ti].halted = true;
                break;
            };
            let tid = t.id;
            let addr = phys_addr(tid, t.program.inst_addr(pc));
            let line = addr & !(line_bytes - 1);
            if current_line != Some(line) {
                let res = self.hierarchy.access(AccessKind::InstFetch, addr);
                self.events.add(tid, Resource::L1I, 1);
                if !res.l1_hit {
                    self.events.add(tid, Resource::L2, 1);
                    // The line isn't here: stall fetch until it arrives.
                    self.threads[ti].fetch_stall_until = cycle + u64::from(res.latency);
                    break;
                }
                current_line = Some(line);
            }

            // Predict the next PC. Control flow in this ISA is always
            // direct, so the predecoded `meta.target` is the taken path.
            let (predicted_next, ends_group) = if meta.is_cond_branch() {
                self.events.add(tid, Resource::Bpred, 1);
                if self.bpred.predict(addr) {
                    (meta.target, true)
                } else {
                    (pc.next(), false)
                }
            } else if meta.is_control() {
                (meta.target, true)
            } else {
                (pc.next(), false)
            };

            let t = &mut self.threads[ti];
            t.fetch_queue.push_back(FetchedInst {
                index: pc,
                predicted_next,
            });
            t.icount += 1;
            t.stats.fetched += 1;
            t.fetch_pc = predicted_next;
            self.events.add(tid, Resource::FetchUnit, 1);
            budget -= 1;
            if ends_group {
                break;
            }
        }
        budget
    }
}

/// Maps a thread-local virtual address into the shared physical space used
/// by the caches. Threads get disjoint 2^41-byte regions, so the *set index*
/// bits (low bits) are preserved — the variant2 same-set conflict pattern
/// works identically with or without this mapping.
#[must_use]
pub fn phys_addr(thread: ThreadId, addr: u64) -> u64 {
    (u64::from(thread.0) + 1) << 41 | (addr & ((1 << 41) - 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_isa::{AluOp, BranchCond, IntReg, Operand, ProgramBuilder};

    fn counting_loop(iters: u64) -> Program {
        let mut b = ProgramBuilder::new();
        let r1 = IntReg::new(1);
        let top = b.label();
        b.addi(r1, r1, 1);
        b.branch(BranchCond::Lt, r1, Operand::Imm(iters), top);
        b.halt();
        b.build().unwrap()
    }

    fn independent_adds_loop() -> Program {
        // Figure 1 of the paper: many independent adds + a loop branch.
        let mut b = ProgramBuilder::new();
        let top = b.label();
        for r in 1..21 {
            b.int_alu(
                AluOp::Add,
                IntReg::new(r),
                IntReg::new(21),
                Operand::Reg(IntReg::new(22)),
            );
        }
        b.jump(top);
        b.build().unwrap()
    }

    fn run_cycles(cpu: &mut Cpu, n: u64) {
        for _ in 0..n {
            cpu.tick(FetchGate::open());
        }
    }

    fn small_cpu() -> Cpu {
        Cpu::new(CpuConfig::default(), MemConfig::default())
    }

    #[test]
    fn single_thread_commits_correct_count() {
        let mut cpu = small_cpu();
        let t = cpu.attach_thread(counting_loop(10));
        run_cycles(&mut cpu, 2000);
        assert!(cpu.thread_halted(t));
        // 10 adds + 10 branches + 1 halt = 21 committed.
        assert_eq!(cpu.thread_stats(t).committed, 21);
    }

    #[test]
    fn functional_state_matches_reference_machine() {
        // Differential test: the pipeline's architectural results must match
        // the hs-isa interpreter exactly.
        let program = counting_loop(50);
        let mut reference = hs_isa::Machine::new(program.clone());
        reference.run(1_000_000);

        let mut cpu = small_cpu();
        let t = cpu.attach_thread(program);
        run_cycles(&mut cpu, 20_000);
        assert!(cpu.thread_halted(t));
        assert_eq!(cpu.thread_stats(t).committed, reference.retired());
    }

    #[test]
    fn independent_adds_reach_high_ipc() {
        let mut cpu = small_cpu();
        let t = cpu.attach_thread(independent_adds_loop());
        run_cycles(&mut cpu, 10_000);
        let ipc = cpu.thread_stats(t).ipc(10_000);
        // 4 ALUs; loop overhead and fetch limits keep it below 5 but a
        // wide independent stream should sustain at least 3.
        assert!(ipc > 3.0, "ipc was {ipc}");
    }

    #[test]
    fn dependent_chain_is_serialized() {
        // A chain of dependent adds cannot exceed IPC ~1 (1-cycle ALU).
        let mut b = ProgramBuilder::new();
        let r1 = IntReg::new(1);
        let top = b.label();
        for _ in 0..16 {
            b.addi(r1, r1, 1);
        }
        b.jump(top);
        let mut cpu = small_cpu();
        let t = cpu.attach_thread(b.build().unwrap());
        run_cycles(&mut cpu, 10_000);
        let ipc = cpu.thread_stats(t).ipc(10_000);
        assert!(ipc < 1.5, "dependent chain should serialize, got {ipc}");
    }

    #[test]
    fn int_regfile_accesses_track_alu_activity() {
        let mut cpu = small_cpu();
        let t = cpu.attach_thread(independent_adds_loop());
        run_cycles(&mut cpu, 5_000);
        let counts = cpu.access_counts();
        let reg = counts.get(t, Resource::IntRegFile);
        let committed = cpu.thread_stats(t).committed;
        // Each add reads 2 + writes 1 = 3 accesses.
        assert!(
            reg >= committed * 2,
            "regfile {reg} vs committed {committed}"
        );
    }

    #[test]
    fn two_threads_share_the_pipeline() {
        let mut cpu = small_cpu();
        let a = cpu.attach_thread(independent_adds_loop());
        let b = cpu.attach_thread(independent_adds_loop());
        run_cycles(&mut cpu, 10_000);
        let ipc_a = cpu.thread_stats(a).ipc(10_000);
        let ipc_b = cpu.thread_stats(b).ipc(10_000);
        assert!(ipc_a > 1.0 && ipc_b > 1.0);
        // ICOUNT keeps symmetric threads roughly symmetric.
        assert!((ipc_a - ipc_b).abs() < 0.5 * ipc_a.max(ipc_b));
    }

    #[test]
    fn gated_thread_makes_no_progress() {
        let mut cpu = small_cpu();
        let a = cpu.attach_thread(independent_adds_loop());
        let b = cpu.attach_thread(independent_adds_loop());
        // Let both run, then gate thread b.
        run_cycles(&mut cpu, 1_000);
        let before = cpu.thread_stats(b).committed;
        let mut gate = FetchGate::open();
        gate.set(b, true);
        for _ in 0..2_000 {
            cpu.tick(gate);
        }
        let after = cpu.thread_stats(b).committed;
        // Only the in-flight instructions drained.
        let drained = after - before;
        assert!(
            drained <= u64::from(cpu.config().ruu_size + cpu.config().fetch_queue_size),
            "gated thread committed {drained} instructions"
        );
        // And the other thread kept running.
        assert!(cpu.thread_stats(a).committed > before);
        assert_eq!(cpu.thread_stats(b).gated_cycles, 2_000);
    }

    #[test]
    fn l2_miss_squash_blocks_dispatch() {
        // A pointer-chasing loop with L2-conflicting addresses triggers the
        // squash policy.
        let mem_cfg = MemConfig::default();
        let stride = mem_cfg.l2.way_stride();
        let mut b = ProgramBuilder::new();
        let base = IntReg::new(2);
        b.load_imm(base, 0x10_0000);
        let top = b.label();
        for i in 0..9i64 {
            b.load(IntReg::new(4), base, i * stride as i64);
        }
        b.jump(top);
        let mut cpu = Cpu::new(CpuConfig::default(), mem_cfg);
        let t = cpu.attach_thread(b.build().unwrap());
        run_cycles(&mut cpu, 50_000);
        assert!(cpu.thread_stats(t).l2_miss_squashes > 0);
        // IPC must be tiny: 9 loads per ~9*300 cycles.
        assert!(cpu.thread_stats(t).ipc(50_000) < 0.3);
    }

    #[test]
    fn mispredicts_are_detected_and_recovered() {
        // A data-dependent alternating branch defeats the bimodal predictor
        // some of the time; the pipeline must stay architecturally correct.
        let mut b = ProgramBuilder::new();
        let r1 = IntReg::new(1);
        let bit = IntReg::new(2);
        let top = b.label();
        let skip = b.forward_label();
        b.int_alu(AluOp::Xor, bit, bit, Operand::Imm(1));
        b.branch(BranchCond::Eq, bit, Operand::Imm(0), skip);
        b.addi(r1, r1, 1);
        b.bind(skip);
        b.addi(r1, r1, 1);
        b.branch(BranchCond::Lt, r1, Operand::Imm(300), top);
        b.halt();
        let program = b.build().unwrap();

        let mut reference = hs_isa::Machine::new(program.clone());
        reference.run(1_000_000);

        let mut cpu = small_cpu();
        let t = cpu.attach_thread(program);
        run_cycles(&mut cpu, 100_000);
        assert!(cpu.thread_halted(t));
        assert_eq!(cpu.thread_stats(t).committed, reference.retired());
        assert!(cpu.thread_stats(t).mispredicts > 0);
    }

    #[test]
    fn ruu_never_exceeds_capacity() {
        let mut cpu = small_cpu();
        cpu.attach_thread(independent_adds_loop());
        for _ in 0..2_000 {
            cpu.tick(FetchGate::open());
            assert!(cpu.ruu_occupancy() <= cpu.config().ruu_size as usize);
        }
    }

    #[test]
    fn take_access_counts_drains() {
        let mut cpu = small_cpu();
        cpu.attach_thread(independent_adds_loop());
        run_cycles(&mut cpu, 1_000);
        let m = cpu.take_access_counts();
        assert!(m.resource_total(Resource::IntRegFile) > 0);
        assert_eq!(cpu.access_counts().resource_total(Resource::IntRegFile), 0);
    }

    #[test]
    fn fast_forward_updates_stats_but_not_time() {
        let mut cpu = small_cpu();
        let t = cpu.attach_thread(independent_adds_loop());
        run_cycles(&mut cpu, 100);
        let cycle = cpu.cycle();
        let committed = cpu.thread_stats(t).committed;
        let events = cpu.access_counts().resource_total(Resource::IntRegFile);
        let mut sample = crate::phase::PhaseSample::zero();
        sample.committed[t.index()] = 42;
        sample.counts.add(t, Resource::IntRegFile, 17);
        cpu.fast_forward(&sample);
        assert_eq!(cpu.cycle(), cycle);
        // Retire-in-place counts the squashed in-flight instructions on
        // top of the 42 credited ones.
        assert!(cpu.thread_stats(t).committed >= committed + 42);
        assert_eq!(
            cpu.access_counts().resource_total(Resource::IntRegFile),
            events + 17
        );
    }

    #[test]
    fn fast_forward_advances_the_program_position() {
        // A counting loop long enough that 100 cycles of detailed
        // simulation cannot finish it; fast-forwarding the remaining
        // iterations must land on the halt exactly where cycle-level
        // execution would.
        let program = counting_loop(5_000);
        let mut reference = hs_isa::Machine::new(program.clone());
        reference.run(1_000_000);
        let total = reference.retired();

        let mut cpu = small_cpu();
        let t = cpu.attach_thread(program);
        run_cycles(&mut cpu, 2_000);
        assert!(!cpu.thread_halted(t));
        let done = cpu.thread_stats(t).committed;
        assert!(done > 0 && done < total, "committed {done} of {total}");

        let mut sample = crate::phase::PhaseSample::zero();
        // Over-credit on purpose: the program must stop at its real halt,
        // not run off the end. Retire-in-place plus the functional walk
        // land exactly on the reference retirement count.
        sample.committed[t.index()] = total;
        cpu.fast_forward(&sample);
        assert!(cpu.thread_halted(t));
        assert_eq!(cpu.thread_stats(t).committed, total);
        // The pipeline restarts cleanly from the (halted) squashed state.
        run_cycles(&mut cpu, 10);
        assert_eq!(cpu.thread_stats(t).committed, total);
    }

    #[test]
    fn phys_addr_preserves_low_bits_and_separates_threads() {
        let a = phys_addr(ThreadId(0), 0x1234);
        let b = phys_addr(ThreadId(1), 0x1234);
        assert_ne!(a, b);
        assert_eq!(a & 0xffff, 0x1234);
        assert_eq!(b & 0xffff, 0x1234);
    }

    #[test]
    fn store_load_roundtrip_through_pipeline() {
        let mut b = ProgramBuilder::new();
        let base = IntReg::new(2);
        let v = IntReg::new(3);
        b.load_imm(base, 0x2000);
        b.load_imm(v, 77);
        b.store(v, base, 0);
        b.load(IntReg::new(4), base, 0);
        b.halt();
        let mut cpu = small_cpu();
        let t = cpu.attach_thread(b.build().unwrap());
        run_cycles(&mut cpu, 5_000);
        assert!(cpu.thread_halted(t));
        assert_eq!(cpu.thread_stats(t).committed, 5);
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::config::FetchPolicy;
    use hs_isa::{AluOp, IntReg, Operand, ProgramBuilder};

    fn high_ipc_program() -> Program {
        let mut b = ProgramBuilder::new();
        let top = b.label();
        for r in 1..13 {
            b.int_alu(
                AluOp::Add,
                IntReg::new(r),
                IntReg::new(r),
                Operand::Reg(IntReg::new(24)),
            );
        }
        b.jump(top);
        b.build().unwrap()
    }

    fn serial_program() -> Program {
        let mut b = ProgramBuilder::new();
        let r = IntReg::new(1);
        let top = b.label();
        for _ in 0..12 {
            b.addi(r, r, 1);
        }
        b.jump(top);
        b.build().unwrap()
    }

    fn run(policy: FetchPolicy, cycles: u64) -> (f64, f64) {
        let cfg = CpuConfig {
            fetch_policy: policy,
            ..CpuConfig::default()
        };
        let mut cpu = Cpu::new(cfg, MemConfig::default());
        let fast = cpu.attach_thread(high_ipc_program());
        let slow = cpu.attach_thread(serial_program());
        for _ in 0..cycles {
            cpu.tick(FetchGate::open());
        }
        (
            cpu.thread_stats(fast).ipc(cycles),
            cpu.thread_stats(slow).ipc(cycles),
        )
    }

    #[test]
    fn icount_favors_the_high_ipc_thread() {
        let (fast, slow) = run(FetchPolicy::Icount, 30_000);
        assert!(
            fast > 2.0 * slow,
            "ICOUNT should let the fast thread dominate: {fast:.2} vs {slow:.2}"
        );
    }

    #[test]
    fn round_robin_narrows_the_gap() {
        let (fast_ic, slow_ic) = run(FetchPolicy::Icount, 30_000);
        let (fast_rr, slow_rr) = run(FetchPolicy::RoundRobin, 30_000);
        // Round-robin takes fetch share from the monopolizer and gives it
        // to the serial thread.
        assert!(
            slow_rr >= slow_ic * 0.95,
            "rr slow {slow_rr:.2} vs ic {slow_ic:.2}"
        );
        assert!(
            fast_rr / slow_rr < fast_ic / slow_ic,
            "rr must narrow the ratio: {:.1} vs {:.1}",
            fast_rr / slow_rr,
            fast_ic / slow_ic
        );
    }

    #[test]
    fn int_mul_unit_serializes_multiplies() {
        // 12 independent multiplies per iteration share 1 multiplier with
        // 3-cycle latency: IPC is capped well below the ALU case.
        let mut b = ProgramBuilder::new();
        let top = b.label();
        for r in 1..13 {
            b.int_alu(
                AluOp::Mul,
                IntReg::new(r),
                IntReg::new(r),
                Operand::Reg(IntReg::new(24)),
            );
        }
        b.jump(top);
        let mut cpu = Cpu::new(CpuConfig::default(), MemConfig::default());
        let t = cpu.attach_thread(b.build().unwrap());
        for _ in 0..20_000 {
            cpu.tick(FetchGate::open());
        }
        let ipc = cpu.thread_stats(t).ipc(20_000);
        assert!(ipc < 1.3, "one multiplier cannot sustain {ipc:.2} IPC");
        assert!(
            ipc > 0.5,
            "multiplier should still be pipelined-ish: {ipc:.2}"
        );
    }

    #[test]
    fn lsq_capacity_limits_outstanding_memory_ops() {
        // A pure store stream against a tiny LSQ: dispatch stalls rather
        // than overflowing the queue.
        let mut b = ProgramBuilder::new();
        b.load_imm(IntReg::new(2), 0x9000);
        let top = b.label();
        for i in 0..16i64 {
            b.store(IntReg::new(2), IntReg::new(2), i * 8);
        }
        b.jump(top);
        let cfg = CpuConfig {
            lsq_size: 4,
            ..CpuConfig::default()
        };
        let mut cpu = Cpu::new(cfg, MemConfig::default());
        let t = cpu.attach_thread(b.build().unwrap());
        for _ in 0..5_000 {
            cpu.tick(FetchGate::open());
        }
        // Two ports, plenty of stores: still commits, but the RUU never
        // holds more than 4 memory ops (indirectly: no panic, forward
        // progress).
        assert!(cpu.thread_stats(t).committed > 100);
    }

    #[test]
    fn fetch_gate_union_of_both_threads_freezes_machine() {
        let mut cpu = Cpu::new(CpuConfig::default(), MemConfig::default());
        let a = cpu.attach_thread(high_ipc_program());
        let b2 = cpu.attach_thread(serial_program());
        for _ in 0..2_000 {
            cpu.tick(FetchGate::open());
        }
        let mut gate = FetchGate::open();
        gate.set(a, true);
        gate.set(b2, true);
        // Drain.
        for _ in 0..3_000 {
            cpu.tick(gate);
        }
        let ca = cpu.thread_stats(a).committed;
        let cb = cpu.thread_stats(b2).committed;
        for _ in 0..2_000 {
            cpu.tick(gate);
        }
        assert_eq!(cpu.thread_stats(a).committed, ca);
        assert_eq!(cpu.thread_stats(b2).committed, cb);
    }
}

#[cfg(test)]
mod regression_tests {
    use super::*;
    use hs_isa::{BranchCond, IntReg, Operand, ProgramBuilder};

    #[test]
    fn trailing_mispredicted_branch_does_not_strand_the_thread() {
        // The program's LAST instruction is a loop back-edge that is
        // (almost) always taken, but whose bimodal slot is trained
        // not-taken by three aliasing never-taken branches (2048
        // instructions apart = the same 2048-entry bimodal slot). Fetch
        // therefore falls through past the program end — the implicit-halt
        // path — and the back-edge's misprediction redirect must revive
        // the thread.
        let mut b = ProgramBuilder::new();
        let r1 = IntReg::new(1);
        let top = b.label();
        b.addi(r1, r1, 1);
        for _ in 0..3 {
            // Never taken; trains the shared slot toward not-taken.
            b.branch(BranchCond::Eq, IntReg::ZERO, Operand::Imm(1), top);
            // Pad to the aliasing stride (2048 instructions between
            // branches).
            for _ in 0..2047 {
                b.nop();
            }
        }
        // The back-edge: taken 19 times, then falls off the end.
        b.branch(BranchCond::Lt, r1, Operand::Imm(20), top);
        let program = b.build().unwrap();

        let mut reference = hs_isa::Machine::new(program.clone());
        reference.run(10_000_000);
        assert!(reference.retired() > 100_000, "loop must actually iterate");

        let mut cpu = Cpu::new(CpuConfig::default(), MemConfig::default());
        let t = cpu.attach_thread(program);
        for _ in 0..400_000 {
            cpu.tick(FetchGate::open());
        }
        assert_eq!(
            cpu.thread_stats(t).committed,
            reference.retired(),
            "thread was stranded by a wrong-path run-off-the-end"
        );
    }
}
