//! Duty-cycle evader workloads: attacks built to slip past *steady-state*
//! static screening.
//!
//! The screener's original rule condemns a loop only if it is hot at its
//! own steady state **and** sustains that power density past the heating
//! threshold. These workloads satisfy neither clause while still driving
//! the register file past the emergency temperature:
//!
//! * the hot work is **split** across many consecutive sibling loops, each
//!   individually shorter than the sustain threshold, so no single loop is
//!   both hot and sustained;
//! * the hot run is followed by a long low-power cooling loop, tuned so
//!   the *duty-averaged* power of the enclosing infinite loop stays
//!   comfortably below the heat-stroke bar.
//!
//! The evasion only works at the thermal time constant: the total hot run
//! is a sizable fraction of `tau` (the hot spot climbs about half the gap
//! from the duty-averaged baseline toward the hot steady state before the
//! cooling phase), and the low duty cycle keeps the average benign.
//! Phase-aware transient analysis computes exactly that peak-vs-average
//! gap; see `hs-analyze`'s `transient` module.
//!
//! Three members:
//!
//! * [`duty_split`] — hot loops use the canonical counted idiom the
//!   screener always recovered;
//! * [`duty_hidden`] — the same thermal schedule, but every loop bound is
//!   expressed through the *extended* counting idioms (up-counting `bne`/
//!   `blt` limits, down-counting to a non-zero floor, constant-propagated
//!   initializers): a screener without those recoveries under-weights the
//!   hot work everywhere;
//! * [`unknown_trip`] — a single register-file-saturating loop whose trip
//!   bound is loaded from memory, unrecoverable by any constant
//!   propagation; worst-case analysis must escalate it rather than
//!   defaulting to a tiny trip weight.

use hs_isa::{AluOp, BranchCond, IntReg, Operand, Program, ProgramBuilder};

/// Clock frequency the phase durations are sized against.
const FREQ_HZ: f64 = 4.0e9;

/// Effective RC time constant of the register file's transient deviation
/// in the default floorplan, at physical time scale (seconds). This is
/// the attacker's estimate of `C_b/G_b` for the hot block and does not
/// have to be exact — a hot run sized from a value a few tens of percent
/// off still peaks well past the bar, as the regression tests confirm.
const TAU_SECONDS: f64 = 14.4e-3;

/// Length of the hot run in units of `TAU_SECONDS`: at 0.75 tau the hot
/// spot climbs ~53% of the gap from the duty-averaged baseline to the hot
/// steady state — enough to clear the emergency bar with margin while
/// keeping the program small enough for the L1I.
const HOT_TAU_MULT: f64 = 0.75;

/// Fraction of each period spent hot, as the workload sizes it (the
/// screener's own cycle estimates see ~0.30). High enough to peak past
/// the emergency bar, low enough that the duty-averaged steady state
/// stays comfortably below even the suspicion band.
const DUTY: f64 = 0.23;

/// Estimated pipeline cycles per hot-loop iteration (48 wide-ILP adds).
const HOT_CYCLES_PER_ITER: f64 = 11.0;

/// Estimated cycles per cooling-loop iteration (8 serialized adds).
const COLD_CYCLES_PER_ITER: f64 = 10.0;

/// Number of unrolled adds per hot-loop iteration and the chain spread.
const HOT_UNROLL: u32 = 48;
const HOT_ILP: u8 = 12;

/// Mirror of `hs_analyze::AnalyzerConfig::sustain_threshold_cycles` at the
/// default clock (heating 2.5 ms, fraction 1/16, floor 4000): the bar
/// each individual hot loop must stay under. Duplicated here because the
/// workload crate cannot depend on the analyzer it is built to evade.
fn sustain_threshold_cycles(time_scale: f64) -> f64 {
    (0.0025 * FREQ_HZ / time_scale / 16.0).max(4000.0)
}

/// The shared schedule: how many sibling hot loops, iterations per hot
/// loop, and cooling-loop iterations reproduce the target duty cycle at
/// `time_scale`.
fn sizing(time_scale: f64) -> (u32, u32, u32) {
    assert!(time_scale >= 1.0, "time scale must be >= 1");
    let hot_total_cycles = HOT_TAU_MULT * TAU_SECONDS * FREQ_HZ / time_scale;
    // Keep every hot loop well under the sustain threshold even if the
    // pipeline model charges the body ~50% more cycles than estimated.
    let per_loop_cycles = 0.4 * sustain_threshold_cycles(time_scale);
    let hot_iters = ((per_loop_cycles / HOT_CYCLES_PER_ITER) as u32).max(1);
    let hot_loop_cycles = f64::from(hot_iters) * HOT_CYCLES_PER_ITER;
    let hot_loops = ((hot_total_cycles / hot_loop_cycles).ceil() as u32).max(2);
    let cold_cycles = hot_total_cycles * (1.0 - DUTY) / DUTY;
    let cold_iters = ((cold_cycles / COLD_CYCLES_PER_ITER) as u32).max(1);
    (hot_loops, hot_iters, cold_iters)
}

/// Registers: chains r1..r12 (hot), r13 (cold chain), r23 counter, r24
/// constant source — disjoint from the hot chains so the cooling loop
/// cannot extend them.
const COUNTER: u8 = 23;
const CONST_SRC: u8 = 24;
const COLD_CHAIN: u8 = 13;

fn emit_hot_body(b: &mut ProgramBuilder) {
    let src = IntReg::new(CONST_SRC);
    for i in 0..HOT_UNROLL {
        let chain = IntReg::new(1 + (i % u32::from(HOT_ILP)) as u8);
        b.int_alu(AluOp::Add, chain, chain, Operand::Reg(src));
    }
}

fn emit_cold_body(b: &mut ProgramBuilder) {
    // A serialized dependence chain: one add issues per cycle at best, so
    // the register-file rate — and the power density — collapses.
    let chain = IntReg::new(COLD_CHAIN);
    for _ in 0..8 {
        b.int_alu(AluOp::Add, chain, chain, Operand::Imm(1));
    }
}

/// The canonical counted idiom: `c <- n; top: body; sub c,c,1; bne c,0,top`.
fn emit_canonical_loop(b: &mut ProgramBuilder, iters: u32, body: impl Fn(&mut ProgramBuilder)) {
    let c = IntReg::new(COUNTER);
    b.load_imm(c, u64::from(iters));
    let top = b.label();
    body(b);
    b.int_alu(AluOp::Sub, c, c, Operand::Imm(1));
    b.branch(BranchCond::Ne, c, Operand::Imm(0), top);
}

/// The extended idioms, rotated by `variant`:
/// 0 — up-count by 1 to a `bne` limit;
/// 1 — up-count by 3 to a `blt` limit;
/// 2 — down-count by 1 to a non-zero `bne` floor, with the initial value
///     assembled through a constant-propagation chain.
fn emit_hidden_loop(
    b: &mut ProgramBuilder,
    variant: u32,
    iters: u32,
    body: impl Fn(&mut ProgramBuilder),
) {
    let c = IntReg::new(COUNTER);
    let iters = u64::from(iters);
    match variant % 3 {
        0 => {
            b.load_imm(c, 0);
            let top = b.label();
            body(b);
            b.int_alu(AluOp::Add, c, c, Operand::Imm(1));
            b.branch(BranchCond::Ne, c, Operand::Imm(iters), top);
        }
        1 => {
            b.load_imm(c, 0);
            let top = b.label();
            body(b);
            b.int_alu(AluOp::Add, c, c, Operand::Imm(3));
            b.branch(BranchCond::Lt, c, Operand::Imm(3 * iters), top);
        }
        _ => {
            // c <- (iters + 12) - 5 via an intermediate register, exiting
            // at floor 7: still exactly `iters` trips.
            let tmp = IntReg::new(CONST_SRC + 1);
            b.int_alu(AluOp::Add, tmp, IntReg::ZERO, Operand::Imm(iters + 12));
            b.int_alu(AluOp::Sub, c, tmp, Operand::Imm(5));
            let top = b.label();
            body(b);
            b.int_alu(AluOp::Sub, c, c, Operand::Imm(1));
            b.branch(BranchCond::Ne, c, Operand::Imm(7), top);
        }
    }
}

fn preamble(b: &mut ProgramBuilder) {
    b.load_imm(IntReg::new(CONST_SRC), 7);
}

/// Duty-cycle evader with canonical counted loops: many sibling hot loops
/// (each under the sustain threshold) followed by a long cooling loop,
/// inside an infinite outer loop whose duty average is benign.
#[must_use]
pub fn duty_split(time_scale: f64) -> Program {
    let (hot_loops, hot_iters, cold_iters) = sizing(time_scale);
    let mut b = ProgramBuilder::new();
    preamble(&mut b);
    let outer = b.label();
    for _ in 0..hot_loops {
        emit_canonical_loop(&mut b, hot_iters, emit_hot_body);
    }
    emit_canonical_loop(&mut b, cold_iters, emit_cold_body);
    b.jump(outer);
    b.build().expect("evader labels are always bound")
}

/// The same thermal schedule as [`duty_split`], but every loop bound uses
/// an extended counting idiom (up-counting, strides, non-zero floors,
/// const-propagated initializers). A screener recognizing only the
/// canonical idiom sees every trip as Unknown and under-weights the hot
/// work with its small default trip.
#[must_use]
pub fn duty_hidden(time_scale: f64) -> Program {
    let (hot_loops, hot_iters, cold_iters) = sizing(time_scale);
    let mut b = ProgramBuilder::new();
    preamble(&mut b);
    let outer = b.label();
    for k in 0..hot_loops {
        emit_hidden_loop(&mut b, k, hot_iters, emit_hot_body);
    }
    // Cooling loop: down-count to floor 1 with `bge` (repeats the equal
    // iteration).
    let c = IntReg::new(COUNTER);
    b.load_imm(c, u64::from(cold_iters));
    let top = b.label();
    emit_cold_body(&mut b);
    b.int_alu(AluOp::Sub, c, c, Operand::Imm(1));
    b.branch(BranchCond::Ge, c, Operand::Imm(1), top);
    b.jump(outer);
    b.build().expect("evader labels are always bound")
}

/// A register-file-saturating loop whose trip bound is loaded from memory:
/// no constant propagation can recover it. Weighted with the default trip
/// it looks like a microscopic burst; the worst-case pass must escalate
/// it. (At run time the loaded bound wraps the counter and the loop runs
/// essentially forever at full intensity.)
#[must_use]
pub fn unknown_trip() -> Program {
    let mut b = ProgramBuilder::new();
    preamble(&mut b);
    let c = IntReg::new(COUNTER);
    b.load(c, IntReg::ZERO, 0x100_0000);
    let top = b.label();
    emit_hot_body(&mut b);
    b.int_alu(AluOp::Sub, c, c, Operand::Imm(1));
    b.branch(BranchCond::Ne, c, Operand::Imm(0), top);
    b.halt();
    b.build().expect("evader labels are always bound")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_isa::Machine;

    #[test]
    fn split_evader_builds_and_loops_forever() {
        let p = duty_split(50.0);
        assert!(p.len() * 4 < 64 << 10, "{} insts overflow the L1I", p.len());
        let mut m = Machine::new(p);
        assert_eq!(m.run(100_000), 100_000);
        assert!(!m.state().halted);
    }

    #[test]
    fn hidden_evader_builds_and_loops_forever() {
        let p = duty_hidden(50.0);
        assert!(p.len() * 4 < 64 << 10, "{} insts overflow the L1I", p.len());
        let mut m = Machine::new(p);
        assert_eq!(m.run(100_000), 100_000);
        assert!(!m.state().halted);
    }

    #[test]
    fn unknown_trip_runs_hot_indefinitely() {
        let p = unknown_trip();
        let mut m = Machine::new(p);
        // The loaded bound is 0; the first decrement wraps, so the loop
        // runs far past any plausible recovered trip.
        assert_eq!(m.run(100_000), 100_000);
        assert!(!m.state().halted);
    }

    #[test]
    fn sizing_tracks_the_time_scale() {
        let (l50, i50, c50) = sizing(50.0);
        let (l400, i400, c400) = sizing(400.0);
        // Same structure, ~8x less work at 8x the scale.
        assert!(l50 > l400);
        assert!(i50 > i400);
        assert!(c50 > c400);
        // Every hot loop stays under the scaled sustain threshold with
        // headroom, even at a 50% cycle-estimate error.
        for scale in [1.0, 50.0, 400.0] {
            let (_, iters, _) = sizing(scale);
            let worst = f64::from(iters) * HOT_CYCLES_PER_ITER * 1.5;
            assert!(worst < sustain_threshold_cycles(scale));
        }
    }

    #[test]
    #[should_panic(expected = "time scale")]
    fn sub_unit_time_scale_rejected() {
        let _ = sizing(0.5);
    }
}
