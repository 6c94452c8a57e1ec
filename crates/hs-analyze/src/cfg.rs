//! Basic-block CFG construction, natural-loop detection, and trip-count
//! recovery.
//!
//! The analyzer reasons about *loops*: a heating episode is a loop body
//! executed enough times back-to-back for the thermal RC network to reach a
//! dangerous steady state. This module recovers that loop structure from a
//! flat [`Program`]:
//!
//! 1. split the instruction stream into basic blocks
//!    ([`Program::block_leaders`] / [`Program::successors`] supply the
//!    boundaries, so the CFG can never disagree with the machine's
//!    sequencing),
//! 2. compute dominators (iterative bitset dataflow) over the blocks
//!    reachable from the entry,
//! 3. find back edges `t -> h` with `h dom t`, collect each edge's natural
//!    loop, merge loops sharing a header, and nest them, and
//! 4. recover a trip count per loop: an unconditional back edge is an
//!    infinite loop; counted idioms yield a finite count; anything else is
//!    [`TripCount::Unknown`].
//!
//! Recognized counted idioms (any stride `d > 0`, unsigned semantics):
//!
//! * **down to zero** — `sub c, c, #d` in the body, back edge
//!   `bne c, #0, top`;
//! * **down to a floor** — the same decrement with `bne c, #m, top` or
//!   `bge c, #m, top`;
//! * **up to a limit** — `add c, c, #d` in the body, back edge
//!   `bne c, #N, top` or `blt c, #N, top`.
//!
//! The counter's initial value is recovered by a small forward
//! constant-propagation over the straight-line window before the header
//! (`INIT_SCAN_WINDOW` instructions), so initializers built from chains
//! of immediate adds/subs — not just a single `load_imm` — still yield a
//! finite count.

use hs_isa::inst::{AluOp, BranchCond, Kind, Operand};
use hs_isa::{InstIndex, IntReg, Program};

/// How far before a loop header the initializer scan looks for the
/// counter's `load_imm`. Bounded so pathological programs stay cheap.
const INIT_SCAN_WINDOW: usize = 64;

/// How many iterations a loop body executes per entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TripCount {
    /// A recovered counted loop: the body runs exactly this many times.
    Finite(u64),
    /// The back edge is unconditional: the loop never exits.
    Infinite,
    /// The exit condition could not be matched to a counted idiom.
    Unknown,
}

/// Trip count assumed for loops whose bound cannot be recovered.
const DEFAULT_TRIP: u64 = 16;

impl TripCount {
    /// The count to use when *weighting* nested work: finite counts pass
    /// through, unknown loops get a conservative 16, and infinite loops
    /// are clamped (their weight only needs to dominate whatever runs
    /// outside them).
    #[must_use]
    pub fn weight(self) -> f64 {
        match self {
            TripCount::Finite(n) => n as f64,
            TripCount::Infinite => 1e6,
            TripCount::Unknown => DEFAULT_TRIP as f64,
        }
    }
}

/// A maximal straight-line run of instructions.
#[derive(Debug, Clone)]
pub struct BasicBlock {
    /// First instruction index (inclusive).
    pub start: usize,
    /// One past the last instruction index.
    pub end: usize,
    /// Successor block ids.
    pub succs: Vec<usize>,
    /// Predecessor block ids.
    pub preds: Vec<usize>,
    /// Whether the block is reachable from the entry block.
    pub reachable: bool,
}

impl BasicBlock {
    /// Instruction indices of this block, in program order.
    pub fn insts(&self) -> impl Iterator<Item = InstIndex> + '_ {
        (self.start..self.end).map(|i| InstIndex(i as u32))
    }

    /// Number of instructions in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the block holds no instructions (never true for built CFGs).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A natural loop: the blocks that can reach a back edge without leaving
/// through the header.
#[derive(Debug, Clone)]
pub struct NaturalLoop {
    /// Block id of the loop header.
    pub header: usize,
    /// All member block ids, ascending (includes the header and any nested
    /// loops' blocks).
    pub blocks: Vec<usize>,
    /// Source block ids of the back edges into the header.
    pub back_edges: Vec<usize>,
    /// Index (into the loop vector) of the innermost enclosing loop.
    pub parent: Option<usize>,
    /// Nesting depth: 1 for top-level loops.
    pub depth: u32,
    /// Recovered iteration count per entry.
    pub trip: TripCount,
}

impl NaturalLoop {
    /// Whether `block` belongs to this loop.
    #[must_use]
    pub fn contains(&self, block: usize) -> bool {
        self.blocks.binary_search(&block).is_ok()
    }
}

/// The control-flow graph of one program, with its loop forest.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Basic blocks, in program order.
    pub blocks: Vec<BasicBlock>,
    /// Natural loops (merged per header), outermost-first order not
    /// guaranteed; use [`Cfg::loops_inner_first`].
    pub loops: Vec<NaturalLoop>,
}

impl Cfg {
    /// Builds the CFG and loop forest of `program`.
    #[must_use]
    pub fn build(program: &Program) -> Cfg {
        let blocks = build_blocks(program);
        let mut cfg = Cfg {
            blocks,
            loops: Vec::new(),
        };
        if cfg.blocks.is_empty() {
            return cfg;
        }
        let dom = dominators(&cfg.blocks);
        cfg.loops = find_loops(&cfg.blocks, &dom);
        nest_loops(&mut cfg.loops);
        for li in 0..cfg.loops.len() {
            cfg.loops[li].trip = trip_count(program, &cfg.blocks, &cfg.loops[li]);
        }
        cfg
    }

    /// Loop indices ordered innermost-first (deepest nesting first), ties
    /// broken by header order for determinism.
    #[must_use]
    pub fn loops_inner_first(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.loops.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(self.loops[i].depth), self.loops[i].header));
        order
    }

    /// Direct children (immediately nested loops) of loop `li`.
    #[must_use]
    pub fn children_of(&self, li: usize) -> Vec<usize> {
        (0..self.loops.len())
            .filter(|&c| self.loops[c].parent == Some(li))
            .collect()
    }

    /// Top-level loops (no enclosing loop).
    #[must_use]
    pub fn top_loops(&self) -> Vec<usize> {
        (0..self.loops.len())
            .filter(|&c| self.loops[c].parent.is_none())
            .collect()
    }

    /// Block ids belonging to loop `li` but to none of its nested loops.
    #[must_use]
    pub fn direct_blocks(&self, li: usize) -> Vec<usize> {
        self.loops[li]
            .blocks
            .iter()
            .copied()
            .filter(|&b| {
                !(0..self.loops.len())
                    .any(|c| self.loops[c].parent == Some(li) && self.loops[c].contains(b))
            })
            .collect()
    }

    /// Reachable block ids outside every loop.
    #[must_use]
    pub fn unlooped_blocks(&self) -> Vec<usize> {
        (0..self.blocks.len())
            .filter(|&b| self.blocks[b].reachable && !self.loops.iter().any(|l| l.contains(b)))
            .collect()
    }
}

fn build_blocks(program: &Program) -> Vec<BasicBlock> {
    let leaders = program.block_leaders();
    if leaders.is_empty() {
        return Vec::new();
    }
    let starts: Vec<usize> = leaders.iter().map(|l| l.as_usize()).collect();
    let n = starts.len();
    let mut blocks: Vec<BasicBlock> = (0..n)
        .map(|i| BasicBlock {
            start: starts[i],
            end: if i + 1 < n {
                starts[i + 1]
            } else {
                program.len()
            },
            succs: Vec::new(),
            preds: Vec::new(),
            reachable: false,
        })
        .collect();
    let block_of = |inst: usize| -> usize {
        match starts.binary_search(&inst) {
            Ok(b) => b,
            Err(b) => b - 1,
        }
    };
    for b in 0..n {
        let last = InstIndex((blocks[b].end - 1) as u32);
        let (fall, target) = program.successors(last);
        let mut succs: Vec<usize> = Vec::new();
        if let Some(t) = target {
            succs.push(block_of(t.as_usize()));
        }
        if let Some(f) = fall {
            let fb = block_of(f.as_usize());
            if !succs.contains(&fb) {
                succs.push(fb);
            }
        }
        for &s in &succs {
            blocks[s].preds.push(b);
        }
        blocks[b].succs = succs;
    }
    // Reachability: DFS from the entry block.
    let mut stack = vec![0usize];
    while let Some(b) = stack.pop() {
        if blocks[b].reachable {
            continue;
        }
        blocks[b].reachable = true;
        stack.extend(blocks[b].succs.iter().copied());
    }
    blocks
}

/// Iterative bitset dominator analysis over reachable blocks.
fn dominators(blocks: &[BasicBlock]) -> Vec<Vec<u64>> {
    let n = blocks.len();
    let words = n.div_ceil(64);
    let full = {
        let mut v = vec![u64::MAX; words];
        if !n.is_multiple_of(64) {
            v[words - 1] = (1u64 << (n % 64)) - 1;
        }
        v
    };
    let mut dom: Vec<Vec<u64>> = (0..n)
        .map(|b| {
            if b == 0 {
                let mut v = vec![0u64; words];
                v[0] = 1;
                v
            } else {
                full.clone()
            }
        })
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for b in 1..n {
            if !blocks[b].reachable {
                continue;
            }
            let mut new = full.clone();
            let mut any_pred = false;
            for &p in &blocks[b].preds {
                if !blocks[p].reachable {
                    continue;
                }
                any_pred = true;
                for (nw, pw) in new.iter_mut().zip(&dom[p]) {
                    *nw &= pw;
                }
            }
            if !any_pred {
                new = vec![0u64; words];
            }
            new[b / 64] |= 1u64 << (b % 64);
            if new != dom[b] {
                dom[b] = new;
                changed = true;
            }
        }
    }
    dom
}

fn dominates(dom: &[Vec<u64>], a: usize, b: usize) -> bool {
    dom[b][a / 64] & (1u64 << (a % 64)) != 0
}

/// Finds back edges and their natural loops, merged per header.
fn find_loops(blocks: &[BasicBlock], dom: &[Vec<u64>]) -> Vec<NaturalLoop> {
    let mut loops: Vec<NaturalLoop> = Vec::new();
    for t in 0..blocks.len() {
        if !blocks[t].reachable {
            continue;
        }
        for &h in &blocks[t].succs {
            if !dominates(dom, h, t) {
                continue;
            }
            // Natural loop of back edge t -> h: reverse-reachable from t
            // without passing through h.
            let mut members = vec![false; blocks.len()];
            members[h] = true;
            let mut stack = vec![t];
            while let Some(b) = stack.pop() {
                if members[b] {
                    continue;
                }
                members[b] = true;
                stack.extend(blocks[b].preds.iter().copied());
            }
            let body: Vec<usize> = (0..blocks.len()).filter(|&b| members[b]).collect();
            if let Some(existing) = loops.iter_mut().find(|l| l.header == h) {
                let mut merged: Vec<usize> = existing.blocks.clone();
                merged.extend(body);
                merged.sort_unstable();
                merged.dedup();
                existing.blocks = merged;
                existing.back_edges.push(t);
            } else {
                loops.push(NaturalLoop {
                    header: h,
                    blocks: body,
                    back_edges: vec![t],
                    parent: None,
                    depth: 1,
                    trip: TripCount::Unknown,
                });
            }
        }
    }
    loops
}

/// Computes `parent`/`depth` by containment: a loop's parent is the
/// smallest distinct loop whose block set contains its header.
fn nest_loops(loops: &mut [NaturalLoop]) {
    let n = loops.len();
    for i in 0..n {
        let mut best: Option<usize> = None;
        for j in 0..n {
            if i == j || loops[i].header == loops[j].header {
                continue;
            }
            if !loops[j].contains(loops[i].header) {
                continue;
            }
            // Proper containment only: mutual membership would cycle.
            if loops[i].contains(loops[j].header) {
                continue;
            }
            if best.is_none_or(|b| loops[j].blocks.len() < loops[b].blocks.len()) {
                best = Some(j);
            }
        }
        loops[i].parent = best;
    }
    // Depth: follow parent chains (acyclic by proper containment).
    for i in 0..n {
        let mut d = 1;
        let mut cur = loops[i].parent;
        while let Some(p) = cur {
            d += 1;
            cur = loops[p].parent;
            if d > n as u32 {
                break; // defensive: never loops for proper containment
            }
        }
        loops[i].depth = d;
    }
}

/// Which way the in-loop counter update moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepDir {
    /// `sub counter, counter, #d` — counts down.
    Down,
    /// `add counter, counter, #d` — counts up.
    Up,
}

/// Recovers the trip count of one loop.
fn trip_count(program: &Program, blocks: &[BasicBlock], lp: &NaturalLoop) -> TripCount {
    let header_start = blocks[lp.header].start;
    let mut best = TripCount::Unknown;
    for &tail in &lp.back_edges {
        let last = InstIndex((blocks[tail].end - 1) as u32);
        let Some(inst) = program.get(last) else {
            continue;
        };
        match *inst.kind() {
            Kind::Jump { target } if target.as_usize() == header_start => {
                return TripCount::Infinite;
            }
            Kind::Branch {
                cond,
                rs1: counter,
                src2: Operand::Imm(limit),
                target,
            } if target.as_usize() == header_start => {
                if let Some(n) = counted_trips(program, blocks, lp, counter, cond, limit) {
                    best = TripCount::Finite(n);
                }
            }
            _ => {}
        }
    }
    best
}

/// Matches the counted-loop idioms for a back edge
/// `b<cond> counter, #limit, header`: a single in-loop
/// `sub`/`add counter, counter, #d` whose direction is consistent with the
/// exit condition, and a constant initial counter value recovered by
/// [`const_init_value`]. Returns the iteration count per entry.
fn counted_trips(
    program: &Program,
    blocks: &[BasicBlock],
    lp: &NaturalLoop,
    counter: IntReg,
    cond: BranchCond,
    limit: u64,
) -> Option<u64> {
    // The in-loop update; any other in-loop write to the counter
    // disqualifies the idiom.
    let mut step: Option<(StepDir, u64)> = None;
    for &b in &lp.blocks {
        for idx in blocks[b].insts() {
            let inst = program.get(idx)?;
            match *inst.kind() {
                Kind::IntAlu {
                    op: op @ (AluOp::Sub | AluOp::Add),
                    rd,
                    rs1,
                    src2: Operand::Imm(d),
                } if rd == counter && rs1 == counter && d > 0 => {
                    let dir = if op == AluOp::Sub {
                        StepDir::Down
                    } else {
                        StepDir::Up
                    };
                    match step {
                        None => step = Some((dir, d)),
                        Some(prev) if prev == (dir, d) => {}
                        Some(_) => return None,
                    }
                }
                _ => {
                    if inst.int_dest() == Some(counter) {
                        return None;
                    }
                }
            }
        }
    }
    let (dir, step) = step?;
    let header_start = blocks[lp.header].start;
    let init = const_init_value(program, counter, header_start)?;
    // Branch comparisons are unsigned; the loop repeats while the back-edge
    // condition holds for the post-update counter value.
    match (dir, cond) {
        // Down-counting: init n, exit when the counter reaches the floor.
        // `bne` stops at equality; `bge` also repeats the equal iteration.
        (StepDir::Down, BranchCond::Ne) if init > limit => Some((init - limit).div_ceil(step)),
        (StepDir::Down, BranchCond::Ge) if init >= limit => Some((init - limit) / step + 1),
        // Up-counting: init n, exit at the limit (`bne`) or once the
        // counter is no longer below it (`blt`).
        (StepDir::Up, BranchCond::Ne | BranchCond::Lt) if limit > init => {
            Some((limit - init).div_ceil(step))
        }
        // Anything else (e.g. a decrement tested with `blt`) never exits or
        // exits immediately depending on wraparound: leave it Unknown.
        _ => None,
    }
}

/// Recovers the counter's value at the loop header by forward constant
/// propagation over the bounded straight-line window before the header.
///
/// Tracks registers holding known constants through `add`/`sub rd, rs1, #k`
/// chains seeded by [`IntReg::ZERO`]; any control-flow instruction inside
/// the window resets the tracked state (values live across a branch could
/// have come from elsewhere), and any other write to a tracked register
/// forgets it.
fn const_init_value(program: &Program, counter: IntReg, header_start: usize) -> Option<u64> {
    let lo = header_start.saturating_sub(INIT_SCAN_WINDOW);
    let mut known: std::collections::BTreeMap<IntReg, u64> = std::collections::BTreeMap::new();
    let value_of = |known: &std::collections::BTreeMap<IntReg, u64>, r: IntReg| -> Option<u64> {
        if r == IntReg::ZERO {
            Some(0)
        } else {
            known.get(&r).copied()
        }
    };
    for i in lo..header_start {
        let inst = program.get(InstIndex(i as u32))?;
        match *inst.kind() {
            Kind::IntAlu {
                op: op @ (AluOp::Add | AluOp::Sub),
                rd,
                rs1,
                src2: Operand::Imm(k),
            } => {
                let folded = value_of(&known, rs1).and_then(|v| {
                    if op == AluOp::Add {
                        v.checked_add(k)
                    } else {
                        v.checked_sub(k)
                    }
                });
                match folded {
                    Some(v) => {
                        known.insert(rd, v);
                    }
                    None => {
                        known.remove(&rd);
                    }
                }
            }
            Kind::Branch { .. } | Kind::Jump { .. } | Kind::Halt => known.clear(),
            _ => {
                if let Some(rd) = inst.int_dest() {
                    known.remove(&rd);
                }
            }
        }
    }
    value_of(&known, counter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_isa::{AluOp, BranchCond, Operand, ProgramBuilder};

    fn counted(iters: u64, body_adds: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let counter = IntReg::new(22);
        b.int_alu(AluOp::Add, counter, IntReg::ZERO, Operand::Imm(iters));
        let top = b.label();
        for _ in 0..body_adds {
            b.int_alu(AluOp::Add, IntReg::new(1), IntReg::new(1), Operand::Imm(1));
        }
        b.int_alu(AluOp::Sub, counter, counter, Operand::Imm(1));
        b.branch(BranchCond::Ne, counter, Operand::Imm(0), top);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn counted_loop_is_recovered() {
        let p = counted(100, 3);
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.loops.len(), 1);
        assert_eq!(cfg.loops[0].trip, TripCount::Finite(100));
        assert_eq!(cfg.loops[0].depth, 1);
    }

    #[test]
    fn infinite_outer_loop_nests_a_counted_inner() {
        let mut b = ProgramBuilder::new();
        let counter = IntReg::new(22);
        let outer = b.label();
        b.int_alu(AluOp::Add, counter, IntReg::ZERO, Operand::Imm(8));
        let top = b.label();
        b.int_alu(AluOp::Add, IntReg::new(1), IntReg::new(1), Operand::Imm(1));
        b.int_alu(AluOp::Sub, counter, counter, Operand::Imm(1));
        b.branch(BranchCond::Ne, counter, Operand::Imm(0), top);
        b.jump(outer);
        let p = b.build().unwrap();
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.loops.len(), 2);
        let inner = cfg
            .loops
            .iter()
            .position(|l| l.trip == TripCount::Finite(8))
            .expect("counted inner loop");
        let outer = cfg
            .loops
            .iter()
            .position(|l| l.trip == TripCount::Infinite)
            .expect("infinite outer loop");
        assert_eq!(cfg.loops[inner].parent, Some(outer));
        assert_eq!(cfg.loops[inner].depth, 2);
        assert_eq!(cfg.loops[outer].depth, 1);
    }

    #[test]
    fn empty_program_has_no_blocks_or_loops() {
        let p = Program::from_instructions(Vec::new(), 0x1000);
        let cfg = Cfg::build(&p);
        assert!(cfg.blocks.is_empty());
        assert!(cfg.loops.is_empty());
    }

    #[test]
    fn unreachable_blocks_are_marked() {
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.int_alu(AluOp::Add, IntReg::new(1), IntReg::new(1), Operand::Imm(1));
        b.jump(top);
        // Dead tail: never reached past the unconditional jump.
        b.int_alu(AluOp::Add, IntReg::new(2), IntReg::new(2), Operand::Imm(1));
        let p = b.build().unwrap();
        let cfg = Cfg::build(&p);
        assert!(cfg.blocks.iter().any(|blk| !blk.reachable));
        assert_eq!(cfg.loops.len(), 1);
        assert_eq!(cfg.loops[0].trip, TripCount::Infinite);
        // The dead block belongs to no loop and is not "unlooped reachable".
        assert!(cfg.unlooped_blocks().is_empty());
    }

    /// Builds `init; top: <body adds>; <update>; b<cond> counter, #limit, top`.
    fn idiom(init: u64, update: AluOp, stride: u64, cond: BranchCond, limit: u64) -> Program {
        let mut b = ProgramBuilder::new();
        let counter = IntReg::new(22);
        b.int_alu(AluOp::Add, counter, IntReg::ZERO, Operand::Imm(init));
        let top = b.label();
        b.int_alu(AluOp::Add, IntReg::new(1), IntReg::new(1), Operand::Imm(1));
        b.int_alu(update, counter, counter, Operand::Imm(stride));
        b.branch(cond, counter, Operand::Imm(limit), top);
        b.halt();
        b.build().unwrap()
    }

    fn sole_trip(p: &Program) -> TripCount {
        let cfg = Cfg::build(p);
        assert_eq!(cfg.loops.len(), 1);
        cfg.loops[0].trip
    }

    #[test]
    fn down_counting_with_stride_is_recovered() {
        let p = idiom(100, AluOp::Sub, 2, BranchCond::Ne, 0);
        assert_eq!(sole_trip(&p), TripCount::Finite(50));
    }

    #[test]
    fn down_counting_to_a_nonzero_floor_is_recovered() {
        let p = idiom(100, AluOp::Sub, 2, BranchCond::Ne, 10);
        assert_eq!(sole_trip(&p), TripCount::Finite(45));
    }

    #[test]
    fn down_counting_bge_floor_repeats_the_equal_iteration() {
        // c: 50, 49, ..., 10; `bge c, #10` is still taken at c == 10.
        let p = idiom(50, AluOp::Sub, 1, BranchCond::Ge, 10);
        assert_eq!(sole_trip(&p), TripCount::Finite(41));
    }

    #[test]
    fn up_counting_bne_limit_is_recovered() {
        let p = idiom(4, AluOp::Add, 3, BranchCond::Ne, 100);
        assert_eq!(sole_trip(&p), TripCount::Finite(32));
    }

    #[test]
    fn up_counting_blt_limit_is_recovered() {
        let p = idiom(0, AluOp::Add, 5, BranchCond::Lt, 64);
        assert_eq!(sole_trip(&p), TripCount::Finite(13));
    }

    #[test]
    fn inconsistent_direction_stays_unknown() {
        // An increment tested against zero with `bne` runs until wraparound:
        // not a counted idiom.
        assert_eq!(
            sole_trip(&idiom(8, AluOp::Add, 1, BranchCond::Ge, 4)),
            TripCount::Unknown
        );
        // A decrement tested with `blt` exits immediately or wraps.
        assert_eq!(
            sole_trip(&idiom(8, AluOp::Sub, 1, BranchCond::Lt, 4)),
            TripCount::Unknown
        );
        // Up-count whose `bne` limit is already behind the initial value.
        assert_eq!(
            sole_trip(&idiom(8, AluOp::Add, 1, BranchCond::Ne, 4)),
            TripCount::Unknown
        );
    }

    #[test]
    fn constant_propagated_initializer_is_recovered() {
        // The initial value arrives through a chain of immediate adds, not
        // a single load_imm: r9 <- 96, counter <- r9 + 4.
        let mut b = ProgramBuilder::new();
        let counter = IntReg::new(22);
        let r9 = IntReg::new(9);
        b.int_alu(AluOp::Add, r9, IntReg::ZERO, Operand::Imm(96));
        b.int_alu(AluOp::Add, counter, r9, Operand::Imm(4));
        let top = b.label();
        b.int_alu(AluOp::Add, IntReg::new(1), IntReg::new(1), Operand::Imm(1));
        b.int_alu(AluOp::Sub, counter, counter, Operand::Imm(1));
        b.branch(BranchCond::Ne, counter, Operand::Imm(0), top);
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(sole_trip(&p), TripCount::Finite(100));
    }

    #[test]
    fn initializer_loaded_from_memory_stays_unknown() {
        // The trip bound is data-dependent: constant propagation must not
        // invent a count.
        let mut b = ProgramBuilder::new();
        let counter = IntReg::new(22);
        b.load(counter, IntReg::ZERO, 64);
        let top = b.label();
        b.int_alu(AluOp::Add, IntReg::new(1), IntReg::new(1), Operand::Imm(1));
        b.int_alu(AluOp::Sub, counter, counter, Operand::Imm(1));
        b.branch(BranchCond::Ne, counter, Operand::Imm(0), top);
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(sole_trip(&p), TripCount::Unknown);
    }

    #[test]
    fn branch_to_self_is_a_single_block_loop() {
        let mut b = ProgramBuilder::new();
        let counter = IntReg::new(5);
        b.int_alu(AluOp::Add, counter, IntReg::ZERO, Operand::Imm(10));
        let top = b.label();
        b.branch(BranchCond::Ne, counter, Operand::Imm(0), top);
        b.halt();
        let p = b.build().unwrap();
        let cfg = Cfg::build(&p);
        let lp = cfg.loops.iter().find(|l| l.blocks.len() == 1).unwrap();
        assert_eq!(lp.back_edges, vec![lp.header]);
        // No in-loop decrement: trip stays unknown, not mis-recovered.
        assert_eq!(lp.trip, TripCount::Unknown);
    }
}
