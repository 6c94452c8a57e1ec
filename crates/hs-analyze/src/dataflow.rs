//! Per-loop resource dataflow: access counts, memory behaviour, and
//! per-iteration timing.
//!
//! The pass mirrors the cycle-level pipeline's accounting exactly — the
//! same counts the dynamic simulator charges per committed instruction
//! (fetch, rename, two issue-queue touches, register-file ports via
//! [`hs_isa::Instruction::int_reg_reads`], the execution resource via
//! [`hs_cpu::fu_resource`], two predictor touches per conditional branch,
//! one L1D access per memory operation) are predicted statically, so the
//! per-block energy ranking a program *would* produce can be computed
//! without running it.
//!
//! Two parts need actual analysis rather than mirroring:
//!
//! * **Memory behaviour** — loads and stores are grouped by their address
//!   stream (a fixed base register, or a base indexed by a masked,
//!   strided, possibly pointer-chasing offset register). A stream whose
//!   footprint exceeds a cache sweeps it cyclically under LRU and misses
//!   on ~every new line; a stream that fits still cold-misses on re-entry
//!   when sibling loops evict it in between; `> assoc` fixed-base loads
//!   whose offsets collapse to one set conflict-miss every time (the
//!   Figure-2 attack).
//! * **Timing** — per-iteration cycles are the max of structural bounds
//!   (fetch/dispatch width, functional-unit and memory-port throughput,
//!   the serialization of L2 misses under dispatch-squash) and a
//!   dependence-recurrence bound found by abstract interpretation of
//!   register ready-times across a few symbolic iterations.

use crate::cfg::{BasicBlock, Cfg, NaturalLoop, TripCount};
use hs_cpu::{fu_resource, Resource, NUM_RESOURCES};
use hs_isa::inst::{AluOp, Kind, Operand};
use hs_isa::{InstIndex, IntReg, Program, NUM_FP_REGS, NUM_INT_REGS};
use hs_mem::config::MemConfig;
use std::collections::BTreeMap;

/// Predicted accesses per resource (fractional: probabilities and averages
/// are folded in), indexed by [`Resource::index`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceVector {
    vals: [f64; NUM_RESOURCES],
}

impl ResourceVector {
    /// The zero vector.
    #[must_use]
    pub fn zero() -> Self {
        ResourceVector {
            vals: [0.0; NUM_RESOURCES],
        }
    }

    /// Adds `n` accesses to `r`.
    pub fn add(&mut self, r: Resource, n: f64) {
        self.vals[r.index()] += n;
    }

    /// The count for `r`.
    #[must_use]
    pub fn get(&self, r: Resource) -> f64 {
        self.vals[r.index()]
    }

    /// Accumulates `w * other` into `self`.
    pub fn add_scaled(&mut self, other: &ResourceVector, w: f64) {
        for (a, b) in self.vals.iter_mut().zip(&other.vals) {
            *a += w * b;
        }
    }

    /// Scales every component.
    #[must_use]
    pub fn scaled(&self, w: f64) -> ResourceVector {
        let mut out = *self;
        for v in &mut out.vals {
            *v *= w;
        }
        out
    }

    /// The raw per-resource array, indexed by [`Resource::index`].
    #[must_use]
    pub fn as_array(&self) -> &[f64; NUM_RESOURCES] {
        &self.vals
    }
}

impl Default for ResourceVector {
    fn default() -> Self {
        Self::zero()
    }
}

/// Miss probabilities of one memory instruction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MissProfile {
    /// Probability an access misses L1D (and therefore touches L2).
    pub p_l1: f64,
    /// Probability an access also misses L2 (and goes to memory).
    pub p_l2: f64,
}

/// Per-instruction miss profiles for one loop's direct instructions.
pub type MissMap = BTreeMap<usize, MissProfile>;

/// How one loop's memory streams interact with the cache hierarchy.
///
/// `l1_footprint` is the number of bytes of L1 the loop's indexed streams
/// cyclically sweep (region times the number of distinct line-offset
/// classes aliasing the same sets); siblings use it for the cold-restart
/// eviction rule.
#[derive(Debug, Clone, Default)]
pub struct LoopMemory {
    /// Miss probabilities per direct memory instruction.
    pub miss: MissMap,
    /// Total L1 bytes swept per entry by this loop's indexed streams.
    pub l1_footprint: u64,
}

/// One address stream: memory instructions sharing a base/offset pattern.
#[derive(Debug)]
struct Stream {
    /// Direct mem-inst indices, with their static byte offsets.
    insts: Vec<(usize, i64)>,
    /// Bytes the stream sweeps cyclically (`region x offset classes`),
    /// `None` when the offset register carries no recognizable mask.
    footprint: Option<u64>,
    /// Advance of each class per loop iteration, bytes.
    stride: u64,
    /// The offset register is fed by an in-loop load (pointer chase).
    chase: bool,
}

/// Pass 1: recognize the loop's address streams and the conflict groups.
///
/// Returns `(streams, conflict_miss_insts)` where the second carries
/// fixed-base instructions that provably conflict-miss, with the level
/// they miss to (`true` = misses L2 as well).
fn address_streams(
    program: &Program,
    blocks: &[BasicBlock],
    lp: &NaturalLoop,
    direct_insts: &[usize],
    mem: &MemConfig,
) -> (Vec<Stream>, Vec<(usize, bool)>) {
    // Definitions of integer registers inside the whole loop body.
    let mut defs: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut load_dests: Vec<usize> = Vec::new();
    for &b in &lp.blocks {
        for idx in blocks[b].insts() {
            let Some(inst) = program.get(idx) else {
                continue;
            };
            if let Some(rd) = inst.int_dest() {
                defs.entry(rd.index()).or_default().push(idx.as_usize());
                if inst.is_load() {
                    load_dests.push(rd.index());
                }
            }
        }
    }
    let defs_of = |r: IntReg| defs.get(&r.index()).map_or(&[][..], Vec::as_slice);

    // Resolve each direct memory instruction to a stream key.
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    enum Key {
        Fixed(usize),
        Indexed(usize),
    }
    let mut grouped: BTreeMap<Key, Vec<(usize, i64)>> = BTreeMap::new();
    for &i in direct_insts {
        let Some(inst) = program.get(InstIndex(i as u32)) else {
            continue;
        };
        let (Kind::Load { base, offset, .. } | Kind::Store { base, offset, .. }) = *inst.kind()
        else {
            continue;
        };
        let base_defs = defs_of(base);
        let key = if base_defs.is_empty() {
            Some(Key::Fixed(base.index()))
        } else {
            // `base <- add ptr, offset_reg` with a loop-invariant pointer:
            // the stream is characterized by the offset register.
            let mut resolved = None;
            if base_defs.iter().all(|&d| {
                match program.get(InstIndex(d as u32)).map(|x| *x.kind()) {
                    Some(Kind::IntAlu {
                        op: AluOp::Add,
                        rs1,
                        src2: Operand::Reg(off),
                        ..
                    }) if defs_of(rs1).is_empty() => {
                        let prev = resolved.replace(off.index());
                        prev.is_none() || prev == Some(off.index())
                    }
                    _ => false,
                }
            }) {
                resolved.map(Key::Indexed)
            } else {
                None
            }
        };
        if let Some(k) = key {
            grouped.entry(k).or_default().push((i, offset));
        }
    }

    let line = mem.l1d.line_bytes();
    let mut streams = Vec::new();
    let mut conflicts = Vec::new();
    for (key, insts) in grouped {
        match key {
            Key::Fixed(_) => {
                // Conflict candidate: > assoc distinct lines, all mapping to
                // the same set (equal modulo the way stride).
                let mut offs: Vec<i64> = insts.iter().map(|&(_, o)| o / line as i64).collect();
                offs.sort_unstable();
                offs.dedup();
                let same_set = |ws: u64| {
                    insts
                        .iter()
                        .all(|&(_, o)| o.rem_euclid(ws as i64) == insts[0].1.rem_euclid(ws as i64))
                };
                let l1_conflict =
                    offs.len() > mem.l1d.assoc() as usize && same_set(mem.l1d.way_stride());
                let l2_conflict =
                    offs.len() > mem.l2.assoc() as usize && same_set(mem.l2.way_stride());
                if l1_conflict || l2_conflict {
                    for &(i, _) in &insts {
                        conflicts.push((i, l2_conflict));
                    }
                }
            }
            Key::Indexed(off_reg) => {
                // Characterize the offset register's update pattern.
                let mut region: Option<u64> = None;
                let mut stride_total: u64 = 0;
                let mut chase = false;
                for &b in &lp.blocks {
                    for idx in blocks[b].insts() {
                        let Some(inst) = program.get(idx) else {
                            continue;
                        };
                        match *inst.kind() {
                            Kind::IntAlu {
                                op: AluOp::And,
                                rd,
                                rs1,
                                src2: Operand::Imm(m),
                            } if rd.index() == off_reg && rs1.index() == off_reg => {
                                let r = m + 1;
                                region = Some(region.map_or(r, |prev| prev.min(r)));
                            }
                            Kind::IntAlu {
                                op: AluOp::Add,
                                rd,
                                rs1,
                                src2: Operand::Imm(d),
                            } if rd.index() == off_reg && rs1.index() == off_reg => {
                                stride_total += d;
                            }
                            Kind::IntAlu {
                                op: AluOp::Add,
                                rd,
                                rs1,
                                src2: Operand::Reg(x),
                            } if rd.index() == off_reg
                                && rs1.index() == off_reg
                                && load_dests.contains(&x.index()) =>
                            {
                                chase = true;
                            }
                            _ => {}
                        }
                    }
                }
                // Distinct line-offset classes: far-apart static offsets
                // alias the same sets but occupy distinct lines.
                let mut class_lines: Vec<i64> =
                    insts.iter().map(|&(_, o)| o / line as i64).collect();
                class_lines.sort_unstable();
                class_lines.dedup();
                let classes = class_lines.len().max(1) as u64;
                let per_class = (insts.len() as u64 / classes).max(1);
                streams.push(Stream {
                    insts,
                    footprint: region.map(|r| r * classes),
                    stride: stride_total / per_class,
                    chase,
                });
            }
        }
    }
    (streams, conflicts)
}

/// Analyzes one loop's memory behaviour.
///
/// `sibling_l1_footprint` is the summed L1 footprint of every *other* loop
/// in the program: when this loop's fitting stream plus that pressure
/// exceeds L1, the stream's lines are evicted between entries and each
/// entry cold-misses its way back in.
pub fn loop_memory(
    program: &Program,
    cfg: &Cfg,
    li: usize,
    mem: &MemConfig,
    sibling_l1_footprint: u64,
) -> LoopMemory {
    let lp = &cfg.loops[li];
    let direct: Vec<usize> = cfg
        .direct_blocks(li)
        .into_iter()
        .flat_map(|b| cfg.blocks[b].insts().map(hs_isa::InstIndex::as_usize))
        .collect();
    let (streams, conflicts) = address_streams(program, &cfg.blocks, lp, &direct, mem);
    let line = mem.l1d.line_bytes();
    let l1_size = mem.l1d.size_bytes();
    let l2_size = mem.l2.size_bytes();

    let mut out = LoopMemory::default();
    for s in &streams {
        let Some(footprint) = s.footprint else {
            continue; // unknown region: assume it hits
        };
        out.l1_footprint += footprint;
        let (p_l1, p_l2);
        if footprint > l1_size {
            // Cyclic sweep larger than the cache: every new line misses.
            let new_line = if s.chase {
                1.0
            } else {
                (s.stride as f64 / line as f64).min(1.0)
            };
            p_l1 = new_line;
            p_l2 = if footprint > l2_size { new_line } else { 0.0 };
        } else if footprint + sibling_l1_footprint > l1_size {
            // Fits, but siblings evict it between entries: each entry
            // re-touches `footprint/line` cold lines across
            // `trip x stream-instructions` accesses.
            let accesses = match lp.trip {
                TripCount::Infinite => f64::INFINITY,
                t => t.weight() * s.insts.len() as f64,
            };
            let lines = (footprint / line) as f64;
            p_l1 = (lines / accesses).min(1.0);
            p_l2 = 0.0; // the working set still fits (and re-fills from) L2
        } else {
            p_l1 = 0.0;
            p_l2 = 0.0;
        }
        for &(i, _) in &s.insts {
            out.miss.insert(i, MissProfile { p_l1, p_l2 });
        }
    }
    for (i, to_memory) in conflicts {
        out.miss.insert(
            i,
            MissProfile {
                p_l1: 1.0,
                p_l2: if to_memory { 1.0 } else { 0.0 },
            },
        );
    }
    out
}

/// The pipeline-mirrored access counts of one basic block (per execution),
/// including the block's instruction-cache lines.
#[must_use]
pub fn block_vector(
    program: &Program,
    cpu: &hs_cpu::CpuConfig,
    mem: &MemConfig,
    block: &BasicBlock,
    miss: &MissMap,
) -> ResourceVector {
    let mut v = ResourceVector::zero();
    if block.is_empty() {
        return v;
    }
    // The fetch stage resets its line tracker every fetch group, so it pays
    // one L1I access per group plus one per line crossed mid-group. Groups
    // end when the width budget runs out or at a (predicted-)taken control
    // transfer: jumps always redirect, backward conditionals are loop back
    // edges (taken almost every iteration), forward conditionals split.
    let line = mem.l1i.line_bytes();
    let first = program.inst_addr(InstIndex(block.start as u32)) / line;
    let last = program.inst_addr(InstIndex((block.end - 1) as u32)) / line;
    let lines = (last - first + 1) as f64;
    let n = block.len() as f64;
    let taken_end = match program.get(InstIndex((block.end - 1) as u32)) {
        Some(inst) if inst.is_cond_branch() => {
            let backward = inst.target().is_some_and(|t| t.as_usize() <= block.start);
            if backward {
                1.0
            } else {
                0.5
            }
        }
        Some(inst) if inst.is_control() => 1.0,
        _ => 0.0,
    };
    let groups = n / f64::from(cpu.fetch_width) + taken_end;
    v.add(Resource::L1I, groups + (lines - 1.0));
    for idx in block.insts() {
        let Some(inst) = program.get(idx) else {
            continue;
        };
        v.add(Resource::FetchUnit, 1.0);
        v.add(Resource::Rename, 1.0);
        // Dispatch writes the entry, issue wakes it up.
        v.add(Resource::IssueQueue, 2.0);
        v.add(
            Resource::IntRegFile,
            f64::from(inst.int_reg_reads() + inst.int_reg_writes()),
        );
        v.add(
            Resource::FpRegFile,
            f64::from(inst.fp_reg_reads() + inst.fp_reg_writes()),
        );
        if let Some(r) = fu_resource(inst.fu_class()) {
            v.add(r, 1.0);
        }
        if inst.is_cond_branch() {
            // Predicted at fetch, updated at writeback.
            v.add(Resource::Bpred, 2.0);
        }
        if inst.is_mem() {
            v.add(Resource::L1D, 1.0);
            let p = miss.get(&idx.as_usize()).copied().unwrap_or_default();
            v.add(Resource::L2, p.p_l1);
        }
    }
    v
}

/// Symbolic iterations used to stabilize the dependence recurrence.
const RECURRENCE_PASSES: usize = 12;

/// Steady-state cycles per iteration for a loop's *direct* instructions.
///
/// The result is the max of structural throughput bounds and the
/// dependence-recurrence bound; nested loops' cycles are added by the
/// caller (weighted by their trip counts).
#[must_use]
pub fn direct_cycles(
    program: &Program,
    cpu: &hs_cpu::CpuConfig,
    mem: &MemConfig,
    insts: &[usize],
    miss: &MissMap,
) -> f64 {
    if insts.is_empty() {
        return 0.0;
    }
    let n = insts.len() as f64;
    let mut class_counts = [0.0f64; NUM_RESOURCES];
    let mut cond_branches = 0.0f64;
    let mut jumps = 0.0f64;
    let mut mem_ops = 0.0f64;
    let mut serial_l2 = 0.0f64;
    let miss_latency = f64::from(mem.l1_latency + mem.l2_latency + mem.memory_latency);
    for &i in insts {
        let Some(inst) = program.get(InstIndex(i as u32)) else {
            continue;
        };
        if let Some(r) = fu_resource(inst.fu_class()) {
            class_counts[r.index()] += 1.0;
        }
        if inst.is_cond_branch() {
            cond_branches += 1.0;
        } else if inst.is_control() {
            jumps += 1.0;
        }
        if inst.is_mem() {
            mem_ops += 1.0;
        }
        if inst.is_load() {
            let p = miss.get(&i).copied().unwrap_or_default();
            // Dispatch squashes behind an L2-missing load, so misses to
            // memory serialize instead of overlapping.
            serial_l2 += p.p_l2 * miss_latency;
        }
    }
    // One taken-branch redirect per back edge each iteration; other
    // conditional branches split both ways; jumps always redirect.
    let taken = 1.0 + 0.5 * (cond_branches - 1.0).max(0.0) + jumps;
    let fetch = n / f64::from(cpu.fetch_width) + taken;
    let dispatch = n / f64::from(cpu.dispatch_width);
    let alu = class_counts[Resource::IntAlu.index()] / f64::from(cpu.int_alus);
    let mul = class_counts[Resource::IntMul.index()] / f64::from(cpu.int_muls);
    let fp_add = class_counts[Resource::FpAdd.index()] / f64::from(cpu.fp_adds);
    let fp_mul = class_counts[Resource::FpMul.index()] / f64::from(cpu.fp_muls);
    let ports = mem_ops / f64::from(cpu.mem_ports);
    let recurrence = recurrence_bound(program, mem, insts, miss);
    [
        fetch, dispatch, alu, mul, fp_add, fp_mul, ports, serial_l2, recurrence, 1.0,
    ]
    .into_iter()
    .fold(0.0, f64::max)
}

/// Dependence-recurrence bound: abstract interpretation of register
/// ready-times over a few symbolic iterations; the stabilized per-pass
/// advance of the slowest register chain is the bound.
fn recurrence_bound(program: &Program, mem: &MemConfig, insts: &[usize], miss: &MissMap) -> f64 {
    let mut ready = [0.0f64; NUM_INT_REGS + NUM_FP_REGS];
    let mut advance = 0.0;
    for _ in 0..RECURRENCE_PASSES {
        let before = ready;
        for &i in insts {
            let Some(inst) = program.get(InstIndex(i as u32)) else {
                continue;
            };
            let mut start = 0.0f64;
            for r in inst.int_sources().into_iter().flatten() {
                start = start.max(ready[r.index()]);
            }
            for r in inst.fp_sources().into_iter().flatten() {
                start = start.max(ready[NUM_INT_REGS + r.index()]);
            }
            let lat = if inst.is_load() {
                let p = miss.get(&i).copied().unwrap_or_default();
                1.0 + f64::from(mem.l1_latency)
                    + p.p_l1 * f64::from(mem.l2_latency)
                    + p.p_l2 * f64::from(mem.memory_latency)
            } else {
                f64::from(inst.latency())
            };
            if let Some(rd) = inst.int_dest() {
                ready[rd.index()] = start + lat;
            }
            if let Some(fd) = inst.fp_dest() {
                ready[NUM_INT_REGS + fd.index()] = start + lat;
            }
        }
        advance = ready
            .iter()
            .zip(&before)
            .map(|(a, b)| a - b)
            .fold(0.0, f64::max);
    }
    advance
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use hs_isa::{AluOp, BranchCond, Operand, ProgramBuilder};

    fn mem_cfg() -> MemConfig {
        MemConfig::default()
    }

    /// A counted loop of independent adds: the ALU throughput bound should
    /// govern, and the register-file count should match the pipeline's
    /// (2 ports per `add r, r, imm` plus the loop control).
    #[test]
    fn int_burst_is_alu_bound() {
        let mut b = ProgramBuilder::new();
        let counter = IntReg::new(22);
        b.load_imm(counter, 100);
        let top = b.label();
        for i in 0..48 {
            let r = IntReg::new(1 + (i % 12));
            b.int_alu(AluOp::Add, r, r, Operand::Imm(1));
        }
        b.int_alu(AluOp::Sub, counter, counter, Operand::Imm(1));
        b.branch(BranchCond::Ne, counter, Operand::Imm(0), top);
        let p = b.build().unwrap();
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.loops.len(), 1);
        let direct: Vec<usize> = cfg
            .direct_blocks(0)
            .into_iter()
            .flat_map(|blk| cfg.blocks[blk].insts().map(InstIndex::as_usize))
            .collect();
        let miss = MissMap::new();
        let cycles = direct_cycles(
            &p,
            &hs_cpu::CpuConfig::default(),
            &mem_cfg(),
            &direct,
            &miss,
        );
        // 49 ALU-class ops + 1 branch over 4 ALUs = 12.5 cycles.
        assert!((cycles - 12.5).abs() < 1.0, "cycles = {cycles}");
    }

    /// A two-chain burst (ILP 2) is bound by the dependence recurrence,
    /// not the ALUs.
    #[test]
    fn low_ilp_burst_is_chain_bound() {
        let mut b = ProgramBuilder::new();
        let counter = IntReg::new(22);
        b.load_imm(counter, 100);
        let top = b.label();
        for i in 0..48 {
            let r = IntReg::new(1 + (i % 2));
            b.int_alu(AluOp::Add, r, r, Operand::Imm(1));
        }
        b.int_alu(AluOp::Sub, counter, counter, Operand::Imm(1));
        b.branch(BranchCond::Ne, counter, Operand::Imm(0), top);
        let p = b.build().unwrap();
        let cfg = Cfg::build(&p);
        let direct: Vec<usize> = cfg
            .direct_blocks(0)
            .into_iter()
            .flat_map(|blk| cfg.blocks[blk].insts().map(InstIndex::as_usize))
            .collect();
        let cycles = direct_cycles(
            &p,
            &hs_cpu::CpuConfig::default(),
            &mem_cfg(),
            &direct,
            &MissMap::new(),
        );
        // 24 dependent single-cycle adds per chain per iteration.
        assert!((cycles - 24.0).abs() < 1.5, "cycles = {cycles}");
    }

    /// Nine fixed-base loads, each `way_stride` apart: the Figure-2
    /// conflict pattern must be flagged as missing all the way to memory.
    #[test]
    fn l2_conflict_loads_are_detected() {
        let mem = mem_cfg();
        let ws = mem.l2.way_stride() as i64;
        let mut b = ProgramBuilder::new();
        let counter = IntReg::new(22);
        let ptr = IntReg::new(16);
        b.load_imm(ptr, 0x100_0000);
        b.load_imm(counter, 50);
        let top = b.label();
        for i in 0..9 {
            b.load(IntReg::new(14), ptr, i * ws);
        }
        b.int_alu(AluOp::Sub, counter, counter, Operand::Imm(1));
        b.branch(BranchCond::Ne, counter, Operand::Imm(0), top);
        let p = b.build().unwrap();
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.loops.len(), 1);
        let lm = loop_memory(&p, &cfg, 0, &mem, 0);
        let missing: Vec<_> = lm
            .miss
            .values()
            .filter(|m| m.p_l1 == 1.0 && m.p_l2 == 1.0)
            .collect();
        assert_eq!(missing.len(), 9, "all nine conflict loads miss to memory");
        // And the misses serialize: one round is ~9 full-latency accesses.
        let direct: Vec<usize> = cfg
            .direct_blocks(0)
            .into_iter()
            .flat_map(|blk| cfg.blocks[blk].insts().map(InstIndex::as_usize))
            .collect();
        let cycles = direct_cycles(&p, &hs_cpu::CpuConfig::default(), &mem, &direct, &lm.miss);
        let expect = 9.0 * f64::from(mem.l1_latency + mem.l2_latency + mem.memory_latency);
        assert!(
            (cycles - expect).abs() / expect < 0.2,
            "cycles = {cycles}, expected ~{expect}"
        );
    }

    /// A masked strided scan larger than L1 but smaller than L2 thrashes
    /// L1 only.
    #[test]
    fn large_strided_scan_thrashes_l1() {
        let mem = mem_cfg();
        let mut b = ProgramBuilder::new();
        let (ptr, off, addr, counter) = (
            IntReg::new(16),
            IntReg::new(17),
            IntReg::new(19),
            IntReg::new(22),
        );
        b.load_imm(ptr, 0x100_0000);
        b.load_imm(off, 0);
        b.load_imm(counter, 100);
        let top = b.label();
        b.int_alu(AluOp::Add, off, off, Operand::Imm(64));
        b.int_alu(AluOp::And, off, off, Operand::Imm(256 * 1024 - 1));
        b.int_alu(AluOp::Add, addr, ptr, Operand::Reg(off));
        b.load(IntReg::new(14), addr, 0);
        b.int_alu(AluOp::Sub, counter, counter, Operand::Imm(1));
        b.branch(BranchCond::Ne, counter, Operand::Imm(0), top);
        let p = b.build().unwrap();
        let cfg = Cfg::build(&p);
        let lm = loop_memory(&p, &cfg, 0, &mem, 0);
        let m = lm.miss.values().next().unwrap();
        assert!((m.p_l1 - 1.0).abs() < 1e-12, "L1 thrash: {m:?}");
        assert_eq!(m.p_l2, 0.0, "fits L2: {m:?}");
        assert_eq!(lm.l1_footprint, 256 * 1024);
    }
}
