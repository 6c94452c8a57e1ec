//! Predecoded per-instruction metadata.
//!
//! The pipeline interrogates every in-flight instruction a dozen times per
//! trip through the machine (is it a memory op? which unit? how many
//! register-file ports? which source registers carry dependences?), and each
//! [`Instruction`] accessor answers with a fresh match over the instruction
//! payload. [`InstMeta`] folds all of those answers into one flat, `Copy`
//! record computed **once per static instruction** when a program is
//! attached; the pipeline then reads fields instead of re-decoding.
//!
//! The metadata splits in two: [`ExecMeta`] is the 7-byte subset every RUU
//! entry carries from issue to retirement (unit class, latency, port
//! counts, classification flags), while the enclosing [`InstMeta`] adds the
//! dispatch-only fields (dependence sources, destinations, branch target)
//! that are dead weight once an instruction enters the window.
//!
//! Every field is derived from the public [`Instruction`] accessors, so the
//! table is correct by construction and can never drift from the ISA's own
//! definition of an instruction.

use hs_isa::inst::FuClass;
use hs_isa::{FpReg, InstIndex, Instruction, IntReg, Program};

const MEM: u8 = 1;
const LOAD: u8 = 1 << 1;
const STORE: u8 = 1 << 2;
const CONTROL: u8 = 1 << 3;
const COND_BRANCH: u8 = 1 << 4;
const HALT: u8 = 1 << 5;

/// The post-dispatch slice of an instruction's decode: everything the
/// issue/writeback/commit stages ask about, in one word. Carried by value
/// in every RUU entry, so it stays deliberately tiny.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExecMeta {
    flags: u8,
    /// Functional-unit class occupied at issue.
    pub(crate) fu: FuClass,
    /// Execution latency in cycles (memory ops add cache latency).
    pub(crate) latency: u8,
    /// Integer register-file read ports occupied (zero-reg reads included).
    pub(crate) int_reg_reads: u8,
    /// FP register-file read ports occupied.
    pub(crate) fp_reg_reads: u8,
    /// Integer register-file write ports occupied.
    pub(crate) int_reg_writes: u8,
    /// FP register-file write ports occupied.
    pub(crate) fp_reg_writes: u8,
}

impl ExecMeta {
    /// Whether this is a memory access.
    #[must_use]
    pub(crate) fn is_mem(&self) -> bool {
        self.flags & MEM != 0
    }

    /// Whether this is a load.
    #[must_use]
    pub(crate) fn is_load(&self) -> bool {
        self.flags & LOAD != 0
    }

    /// Whether this is a store.
    #[must_use]
    pub(crate) fn is_store(&self) -> bool {
        self.flags & STORE != 0
    }

    /// Whether this is a control-flow instruction.
    #[must_use]
    pub(crate) fn is_control(&self) -> bool {
        self.flags & CONTROL != 0
    }

    /// Whether this is a conditional branch.
    #[must_use]
    pub(crate) fn is_cond_branch(&self) -> bool {
        self.flags & COND_BRANCH != 0
    }

    /// Whether this instruction halts the thread.
    #[must_use]
    pub(crate) fn is_halt(&self) -> bool {
        self.flags & HALT != 0
    }
}

/// Flattened decode of one instruction. See the module docs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InstMeta {
    /// The post-dispatch subset (see [`ExecMeta`]).
    pub(crate) exec: ExecMeta,
    /// Dependence-carrying integer sources: the non-zero source registers in
    /// operand order (reads of the hard-wired zero register occupy a port
    /// but never wait on a producer).
    pub(crate) int_deps: [Option<IntReg>; 2],
    /// Dependence-carrying FP sources, in operand order.
    pub(crate) fp_deps: [Option<FpReg>; 2],
    /// Integer destination register, if any (never the zero register).
    pub(crate) int_dest: Option<IntReg>,
    /// FP destination register, if any.
    pub(crate) fp_dest: Option<FpReg>,
    /// Direct branch/jump target. Only meaningful when
    /// [`ExecMeta::is_control`] holds (all control flow in this ISA is
    /// direct); `InstIndex(0)` otherwise.
    pub(crate) target: InstIndex,
}

impl InstMeta {
    /// Decodes `inst` through its public accessors.
    #[must_use]
    pub(crate) fn of(inst: &Instruction) -> Self {
        let mut flags = 0u8;
        for (bit, set) in [
            (MEM, inst.is_mem()),
            (LOAD, inst.is_load()),
            (STORE, inst.is_store()),
            (CONTROL, inst.is_control()),
            (COND_BRANCH, inst.is_cond_branch()),
            (HALT, inst.is_halt()),
        ] {
            if set {
                flags |= bit;
            }
        }
        let mut int_deps = [None, None];
        let mut n = 0;
        for src in inst.int_sources().iter().flatten() {
            if !src.is_zero() {
                int_deps[n] = Some(*src);
                n += 1;
            }
        }
        InstMeta {
            exec: ExecMeta {
                flags,
                fu: inst.fu_class(),
                latency: u8::try_from(inst.latency()).expect("latencies fit in a byte"),
                int_reg_reads: inst.int_reg_reads() as u8,
                fp_reg_reads: inst.fp_reg_reads() as u8,
                int_reg_writes: inst.int_reg_writes() as u8,
                fp_reg_writes: inst.fp_reg_writes() as u8,
            },
            int_deps,
            fp_deps: inst.fp_sources(),
            int_dest: inst.int_dest(),
            fp_dest: inst.fp_dest(),
            target: inst.target().unwrap_or(InstIndex(0)),
        }
    }

    /// Decodes every instruction of `program`, indexable by
    /// [`hs_isa::InstIndex`] position.
    #[must_use]
    pub(crate) fn table(program: &Program) -> Vec<InstMeta> {
        program.iter().map(|(_, inst)| InstMeta::of(inst)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_isa::inst::{AluOp, BranchCond, FpOp, Kind, Operand};
    use hs_isa::{InstIndex, IntReg};

    fn all_kinds() -> Vec<Instruction> {
        vec![
            Instruction::new(Kind::IntAlu {
                op: AluOp::Add,
                rd: IntReg::new(1),
                rs1: IntReg::new(2),
                src2: Operand::Reg(IntReg::new(3)),
            }),
            Instruction::new(Kind::IntAlu {
                op: AluOp::Mul,
                rd: IntReg::new(0),
                rs1: IntReg::new(0),
                src2: Operand::Imm(7),
            }),
            Instruction::new(Kind::FpAlu {
                op: FpOp::Div,
                fd: hs_isa::FpReg::new(1),
                fs1: hs_isa::FpReg::new(2),
                fs2: hs_isa::FpReg::new(3),
            }),
            Instruction::new(Kind::Load {
                rd: IntReg::new(4),
                base: IntReg::new(5),
                offset: 16,
            }),
            Instruction::new(Kind::Store {
                src: IntReg::new(4),
                base: IntReg::new(5),
                offset: -8,
            }),
            Instruction::new(Kind::Branch {
                cond: BranchCond::Ne,
                rs1: IntReg::new(1),
                src2: Operand::Imm(0),
                target: InstIndex(0),
            }),
            Instruction::new(Kind::Jump {
                target: InstIndex(0),
            }),
            Instruction::new(Kind::Nop),
            Instruction::new(Kind::Halt),
        ]
    }

    #[test]
    fn meta_agrees_with_accessors_for_every_kind() {
        for inst in all_kinds() {
            let m = InstMeta::of(&inst);
            assert_eq!(m.exec.is_mem(), inst.is_mem(), "{inst}");
            assert_eq!(m.exec.is_load(), inst.is_load(), "{inst}");
            assert_eq!(m.exec.is_store(), inst.is_store(), "{inst}");
            assert_eq!(m.exec.is_control(), inst.is_control(), "{inst}");
            assert_eq!(m.exec.is_cond_branch(), inst.is_cond_branch(), "{inst}");
            assert_eq!(m.exec.is_halt(), inst.is_halt(), "{inst}");
            assert_eq!(m.exec.fu, inst.fu_class(), "{inst}");
            assert_eq!(u32::from(m.exec.latency), inst.latency(), "{inst}");
            assert_eq!(
                u32::from(m.exec.int_reg_reads),
                inst.int_reg_reads(),
                "{inst}"
            );
            assert_eq!(
                u32::from(m.exec.fp_reg_reads),
                inst.fp_reg_reads(),
                "{inst}"
            );
            assert_eq!(
                u32::from(m.exec.int_reg_writes),
                inst.int_reg_writes(),
                "{inst}"
            );
            assert_eq!(
                u32::from(m.exec.fp_reg_writes),
                inst.fp_reg_writes(),
                "{inst}"
            );
            assert_eq!(m.int_dest, inst.int_dest(), "{inst}");
            assert_eq!(m.fp_dest, inst.fp_dest(), "{inst}");
            assert_eq!(m.fp_deps, inst.fp_sources(), "{inst}");
            assert_eq!(m.target, inst.target().unwrap_or(InstIndex(0)), "{inst}");
            let expected: Vec<IntReg> = inst
                .int_sources()
                .iter()
                .flatten()
                .filter(|r| !r.is_zero())
                .copied()
                .collect();
            let got: Vec<IntReg> = m.int_deps.iter().flatten().copied().collect();
            assert_eq!(got, expected, "{inst}");
        }
    }

    #[test]
    fn zero_register_sources_carry_no_dependence() {
        let i = Instruction::new(Kind::IntAlu {
            op: AluOp::Add,
            rd: IntReg::new(1),
            rs1: IntReg::new(0),
            src2: Operand::Reg(IntReg::new(0)),
        });
        let m = InstMeta::of(&i);
        assert_eq!(m.int_deps, [None, None]);
        // ...but both reads still occupy register-file ports.
        assert_eq!(m.exec.int_reg_reads, 2);
    }

    #[test]
    fn exec_meta_stays_word_sized() {
        // The whole point of the split: every RUU entry carries an ExecMeta
        // by value, so it must never quietly grow past a machine word.
        assert!(std::mem::size_of::<ExecMeta>() <= 8);
    }

    #[test]
    fn table_covers_the_whole_program() {
        let p = Program::from_instructions(all_kinds(), 0x1000);
        assert_eq!(InstMeta::table(&p).len(), p.len());
    }
}
