//! An architectural (functional) interpreter for the ISA.
//!
//! [`Machine`] executes a [`Program`] one instruction at a time against an
//! [`ArchState`] and a sparse [`FlatMemory`]. The SMT pipeline in `hs-cpu`
//! performs the same updates at dispatch time (the classic
//! SimpleScalar-style "execute at dispatch, time in the RUU" organization),
//! so this interpreter doubles as the reference model for differential
//! testing.

use crate::inst::Kind;
use crate::program::{InstIndex, Program};
use crate::reg::{NUM_FP_REGS, NUM_INT_REGS};
use crate::semantics::{eval_alu, eval_branch, eval_fp};
use std::collections::HashMap;

/// Architectural register state plus the program counter.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchState {
    /// Integer registers; index 0 always reads as zero.
    pub int_regs: [u64; NUM_INT_REGS],
    /// Floating-point registers.
    pub fp_regs: [f64; NUM_FP_REGS],
    /// The next instruction to execute.
    pub pc: InstIndex,
    /// Set once a `halt` retires; no further instructions execute.
    pub halted: bool,
}

impl ArchState {
    /// A fresh state: all registers zero, PC at instruction 0.
    #[must_use]
    pub fn new() -> Self {
        ArchState {
            int_regs: [0; NUM_INT_REGS],
            fp_regs: [0.0; NUM_FP_REGS],
            pc: InstIndex(0),
            halted: false,
        }
    }

    /// Reads an integer register (register 0 reads as zero).
    #[must_use]
    pub fn read_int(&self, r: crate::reg::IntReg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.int_regs[r.index()]
        }
    }

    /// Writes an integer register (writes to register 0 are discarded).
    pub fn write_int(&mut self, r: crate::reg::IntReg, value: u64) {
        if !r.is_zero() {
            self.int_regs[r.index()] = value;
        }
    }
}

impl Default for ArchState {
    fn default() -> Self {
        Self::new()
    }
}

/// A fast, deterministic hasher for word addresses. Functional memory is
/// keyed by 8-byte-aligned addresses from simulated programs; SipHash's
/// collision resistance against adversarial keys buys nothing here and its
/// cost lands on the dispatch-stage load/store hot path. The SplitMix64
/// finisher mixes high entropy into the low bits `HashMap` indexes with,
/// which a bare multiply would leave zero for 8-aligned keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct AddrHasher(u64);

impl std::hash::Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut z = self.0 ^ v;
        z = z.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z ^= z >> 29;
        z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 32;
        self.0 = z;
    }
}

type AddrState = std::hash::BuildHasherDefault<AddrHasher>;

/// A sparse, word-granular data memory. Addresses are byte addresses; loads
/// and stores access naturally aligned 8-byte words (the low three address
/// bits are ignored, matching the simplified data path of the simulator).
#[derive(Debug, Clone, Default)]
pub struct FlatMemory {
    words: HashMap<u64, u64, AddrState>,
}

impl FlatMemory {
    /// An empty memory; every unwritten word reads as zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the 8-byte word containing `addr`.
    #[must_use]
    pub fn read(&self, addr: u64) -> u64 {
        *self.words.get(&(addr & !7)).unwrap_or(&0)
    }

    /// Writes the 8-byte word containing `addr`.
    pub fn write(&mut self, addr: u64, value: u64) {
        self.words.insert(addr & !7, value);
    }

    /// Number of distinct words ever written.
    #[must_use]
    pub fn footprint_words(&self) -> usize {
        self.words.len()
    }
}

/// What happened when a single instruction executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// The instruction index that executed.
    pub executed: InstIndex,
    /// The PC after this instruction.
    pub next_pc: InstIndex,
    /// The effective address, if the instruction was a load or store.
    pub mem_addr: Option<u64>,
    /// For conditional branches, whether the branch was taken.
    pub branch_taken: Option<bool>,
    /// Whether the machine halted on this step.
    pub halted: bool,
}

/// A program together with its architectural state and memory.
///
/// ```
/// use hs_isa::*;
///
/// let mut b = ProgramBuilder::new();
/// b.load_imm(IntReg::new(1), 40);
/// b.addi(IntReg::new(1), IntReg::new(1), 2);
/// b.halt();
/// let mut m = Machine::new(b.build().unwrap());
/// m.run(10);
/// assert_eq!(m.state().int_regs[1], 42);
/// assert!(m.state().halted);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    program: Program,
    state: ArchState,
    memory: FlatMemory,
    retired: u64,
}

impl Machine {
    /// Creates a machine at the start of `program` with zeroed state.
    #[must_use]
    pub fn new(program: Program) -> Self {
        Machine {
            program,
            state: ArchState::new(),
            memory: FlatMemory::new(),
            retired: 0,
        }
    }

    /// The architectural state.
    #[must_use]
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// Mutable access to the architectural state (useful for seeding
    /// registers before a run).
    pub fn state_mut(&mut self) -> &mut ArchState {
        &mut self.state
    }

    /// The data memory.
    #[must_use]
    pub fn memory(&self) -> &FlatMemory {
        &self.memory
    }

    /// The program being executed.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Instructions retired so far.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Executes one instruction. Returns `None` if the machine has halted or
    /// the PC ran off the end of the program (which also halts it).
    pub fn step(&mut self) -> Option<StepOutcome> {
        if self.state.halted {
            return None;
        }
        let pc = self.state.pc;
        let Some(inst) = self.program.get(pc).copied() else {
            self.state.halted = true;
            return None;
        };
        let outcome = execute_one(&inst.kind().clone(), pc, &mut self.state, &mut self.memory);
        self.retired += 1;
        self.state.pc = outcome.next_pc;
        if outcome.halted {
            self.state.halted = true;
        }
        Some(outcome)
    }

    /// Executes up to `max_steps` instructions; returns how many retired.
    pub fn run(&mut self, max_steps: u64) -> u64 {
        let mut n = 0;
        while n < max_steps && self.step().is_some() {
            n += 1;
        }
        n
    }
}

/// Executes a single instruction's architectural effects. Shared with the
/// pipeline's dispatch stage in `hs-cpu`.
pub fn execute_one(
    kind: &Kind,
    pc: InstIndex,
    state: &mut ArchState,
    memory: &mut FlatMemory,
) -> StepOutcome {
    let mut next_pc = pc.next();
    let mut mem_addr = None;
    let mut branch_taken = None;
    let mut halted = false;
    match *kind {
        Kind::IntAlu { op, rd, rs1, src2 } => {
            let a = state.read_int(rs1);
            let b = match src2 {
                crate::inst::Operand::Reg(r) => state.read_int(r),
                crate::inst::Operand::Imm(i) => i,
            };
            state.write_int(rd, eval_alu(op, a, b));
        }
        Kind::FpAlu { op, fd, fs1, fs2 } => {
            let a = state.fp_regs[fs1.index()];
            let b = state.fp_regs[fs2.index()];
            state.fp_regs[fd.index()] = eval_fp(op, a, b);
        }
        Kind::Load { rd, base, offset } => {
            let addr = state.read_int(base).wrapping_add_signed(offset);
            mem_addr = Some(addr);
            let v = memory.read(addr);
            state.write_int(rd, v);
        }
        Kind::Store { src, base, offset } => {
            let addr = state.read_int(base).wrapping_add_signed(offset);
            mem_addr = Some(addr);
            memory.write(addr, state.read_int(src));
        }
        Kind::Branch {
            cond,
            rs1,
            src2,
            target,
        } => {
            let a = state.read_int(rs1);
            let b = match src2 {
                crate::inst::Operand::Reg(r) => state.read_int(r),
                crate::inst::Operand::Imm(i) => i,
            };
            let taken = eval_branch(cond, a, b);
            branch_taken = Some(taken);
            if taken {
                next_pc = target;
            }
        }
        Kind::Jump { target } => {
            next_pc = target;
        }
        Kind::Nop => {}
        Kind::Halt => {
            halted = true;
            next_pc = pc;
        }
    }
    StepOutcome {
        executed: pc,
        next_pc,
        mem_addr,
        branch_taken,
        halted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::{BranchCond, FpOp, Operand};
    use crate::reg::{FpReg, IntReg};

    #[test]
    fn loop_counts_to_ten() {
        let mut b = ProgramBuilder::new();
        let r1 = IntReg::new(1);
        let top = b.label();
        b.addi(r1, r1, 1);
        b.branch(BranchCond::Lt, r1, Operand::Imm(10), top);
        b.halt();
        let mut m = Machine::new(b.build().unwrap());
        m.run(1000);
        assert_eq!(m.state().int_regs[1], 10);
        assert!(m.state().halted);
        // 10 adds + 10 branches + 1 halt.
        assert_eq!(m.retired(), 21);
    }

    #[test]
    fn load_store_roundtrip() {
        let mut b = ProgramBuilder::new();
        let base = IntReg::new(2);
        let v = IntReg::new(3);
        let out = IntReg::new(4);
        b.load_imm(base, 0x1_0000);
        b.load_imm(v, 0xdead);
        b.store(v, base, 8);
        b.load(out, base, 8);
        b.halt();
        let mut m = Machine::new(b.build().unwrap());
        m.run(100);
        assert_eq!(m.state().int_regs[4], 0xdead);
        assert_eq!(m.memory().read(0x1_0008), 0xdead);
    }

    #[test]
    fn unaligned_access_hits_same_word() {
        let mut mem = FlatMemory::new();
        mem.write(0x100, 7);
        assert_eq!(mem.read(0x107), 7);
        assert_eq!(mem.read(0x108), 0);
    }

    #[test]
    fn fp_pipeline() {
        let mut b = ProgramBuilder::new();
        b.fp_alu(FpOp::Add, FpReg::new(1), FpReg::new(2), FpReg::new(3));
        b.halt();
        let mut m = Machine::new(b.build().unwrap());
        m.state_mut().fp_regs[2] = 1.25;
        m.state_mut().fp_regs[3] = 2.5;
        m.run(10);
        assert_eq!(m.state().fp_regs[1], 3.75);
    }

    #[test]
    fn running_off_the_end_halts() {
        let mut b = ProgramBuilder::new();
        b.nop();
        let mut m = Machine::new(b.build().unwrap());
        assert!(m.step().is_some());
        assert!(m.step().is_none());
        assert!(m.state().halted);
    }

    #[test]
    fn halted_machine_stays_halted() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let mut m = Machine::new(b.build().unwrap());
        m.run(5);
        let before = m.retired();
        m.run(5);
        assert_eq!(m.retired(), before);
    }

    #[test]
    fn untaken_branch_falls_through() {
        let mut b = ProgramBuilder::new();
        let skip = b.forward_label();
        b.branch(BranchCond::Ne, IntReg::ZERO, Operand::Imm(0), skip);
        b.load_imm(IntReg::new(1), 99);
        b.bind(skip);
        b.halt();
        let mut m = Machine::new(b.build().unwrap());
        m.run(10);
        assert_eq!(m.state().int_regs[1], 99);
    }

    #[test]
    fn infinite_loop_respects_step_budget() {
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.nop();
        b.jump(top);
        let mut m = Machine::new(b.build().unwrap());
        assert_eq!(m.run(1000), 1000);
        assert!(!m.state().halted);
    }

    #[test]
    fn zero_register_cannot_be_written() {
        let mut b = ProgramBuilder::new();
        b.load_imm(IntReg::ZERO, 5);
        b.halt();
        let mut m = Machine::new(b.build().unwrap());
        m.run(10);
        assert_eq!(m.state().int_regs[0], 0);
    }
}
