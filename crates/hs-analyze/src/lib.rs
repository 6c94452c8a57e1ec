//! # hs-analyze — static power-density screening of guest programs
//!
//! The paper's selective-sedation DTM reacts only after a thermal sensor
//! trips, yet the malicious threads of Figures 1–2 are *statically*
//! recognizable: tight loops that hammer one hot block (the integer
//! register file) with near-zero stall slack. This crate screens an
//! [`hs_isa::Program`] **without running it**:
//!
//! 1. [`cfg`](mod@cfg) builds a basic-block CFG, finds natural loops, and
//!    recovers trip counts (counted idiom, infinite back edge, or unknown);
//! 2. [`dataflow`] maps every instruction to the microarchitectural
//!    resources it touches — mirroring the cycle-level pipeline's
//!    accounting exactly — models cache-missing address streams, and
//!    bounds each loop's steady-state cycles per iteration;
//! 3. [`transient`] solves the thermal RC network in closed form under a
//!    periodic, piecewise-constant power schedule — the shape of a
//!    duty-cycled attack — with no per-cycle stepping;
//! 4. [`lint`] hosts the actual judgment as a registry of *passes*
//!    ([`ThermalLint`]): the steady-state screen, the phase-alternation
//!    pass (feeds loop phase schedules recovered from the CFG to the
//!    transient solver), the worst-case pass for unrecoverable trip
//!    counts, and a coverage note. Every pass emits [`Diagnostic`]s with
//!    a severity, a source span, and a verdict contribution;
//! 5. the driver ([`analyze`], or [`analyze_with`] for a custom pass
//!    list) aggregates loops bottom-up into per-loop access *rates*,
//!    converts them to power with the same per-access energies the
//!    dynamic simulator integrates, runs every pass, and joins the
//!    diagnostics into the program verdict [`Verdict::Benign`] /
//!    [`Verdict::Suspicious`] / [`Verdict::HeatStroke`].
//!
//! The steady-state pass condemns a loop only if it is **hot**
//! (steady-state hot-spot temperature at/above the DTM emergency
//! threshold) *and* **sustained** (it applies that power density
//! back-to-back long enough for silicon to actually heat: trip x cycles
//! at least a configurable fraction of the thermal rise time). Benign
//! bursts — even register-file-saturating ones — fail the sustain test;
//! the attack variants pass both.
//!
//! Steady-state averaging alone can be *evaded* by duty cycling: split
//! the hot work into many sibling loops, each under the sustain
//! threshold, and cool just long enough that the time-averaged power
//! looks benign while the hot spot still peaks past the emergency
//! threshold every period. The phase-alternation pass closes that hole:
//! it recovers the repeating hot/cold schedule from the loop tree and
//! computes the true periodic peak analytically (the `evader-*` members
//! of `hs-workloads` regression-test exactly this gap).
//!
//! ```
//! use hs_analyze::{analyze, AnalyzerConfig, Verdict};
//! use hs_isa::{AluOp, IntReg, Operand, ProgramBuilder};
//!
//! // Figure 1: an infinite loop of independent adds.
//! let mut b = ProgramBuilder::new();
//! let top = b.label();
//! for i in 0..48 {
//!     let r = IntReg::new(1 + (i % 12));
//!     b.int_alu(AluOp::Add, r, r, Operand::Imm(1));
//! }
//! b.jump(top);
//! let program = b.build().unwrap();
//!
//! let report = analyze(&program, &AnalyzerConfig::default());
//! assert_eq!(report.verdict, Verdict::HeatStroke);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![deny(missing_docs)]

pub mod cfg;
pub mod dataflow;
pub mod lint;
pub mod report;
pub mod transient;

pub use cfg::{BasicBlock, Cfg, NaturalLoop, TripCount};
pub use dataflow::{MissProfile, ResourceVector};
pub use lint::{default_passes, steady_state_only, Diagnostic, LintContext, Severity, ThermalLint};
pub use report::{LoopReport, ProgramAnalysis, TransientReport, Verdict};
pub use transient::{solve_periodic, Phase, TransientSolution};

use dataflow::{block_vector, direct_cycles, loop_memory, LoopMemory, MissMap};
use hs_core::DtmThresholds;
use hs_cpu::{CpuConfig, ALL_RESOURCES, NUM_RESOURCES};
use hs_isa::{InstIndex, Program};
use hs_mem::config::MemConfig;
use hs_power::{resource_block, EnergyTable, PowerModel};
use hs_thermal::{Block, ThermalConfig, ThermalNetwork, ALL_BLOCKS, NUM_BLOCKS};

/// Everything the analyzer needs to judge a program against a machine.
///
/// Mirrors the simulator's configuration (same pipeline widths, cache
/// geometry, energy table, thermal network, and DTM thresholds) so the
/// static verdict refers to the same physical machine the program would
/// run on. `hs-sim` derives one from its `SimConfig` for the admission
/// hook.
#[derive(Debug, Clone)]
pub struct AnalyzerConfig {
    /// Pipeline widths and functional-unit counts.
    pub cpu: CpuConfig,
    /// Cache geometry and latencies.
    pub mem: MemConfig,
    /// Per-access energies (the same table the power model integrates).
    pub energy: EnergyTable,
    /// Thermal RC network parameters.
    pub thermal: ThermalConfig,
    /// DTM temperature thresholds the verdict is judged against.
    pub thresholds: DtmThresholds,
    /// Clock frequency (hertz).
    pub freq_hz: f64,
    /// Workload time-scale factor (loop trips shrink by this factor, so
    /// the sustain threshold shrinks with it).
    pub time_scale: f64,
    /// Wall-clock seconds of sustained activity that would fully heat the
    /// hot spot (the thermal rise time).
    pub heating_seconds: f64,
    /// Fraction of the rise time a loop must sustain to be dangerous.
    pub sustain_fraction: f64,
    /// Lower bound on the sustain threshold (cycles), so aggressive time
    /// scaling never classifies microscopic bursts as attacks.
    pub sustain_floor_cycles: f64,
    /// Kelvin *above* the DTM emergency threshold a loop's steady state
    /// must reach for a heat-stroke verdict. The static model carries a
    /// ±1–2 K error bar against the dynamic reference, and programs that
    /// merely graze the emergency line (`art`, `gzip` measure a handful of
    /// marginal crossings per quantum) are exactly what the reactive DTM
    /// already handles at negligible victim cost; an attack has to *pin*
    /// the block decisively hot.
    pub attack_margin_k: f64,
    /// Kelvin below the heat-stroke bar (emergency + attack margin) still
    /// flagged `Suspicious`. Kept narrower than the attack margin so the
    /// marginal crossers stay benign and only near-attacks are flagged.
    pub suspicious_margin_k: f64,
    /// Trip count assumed for loops whose bound cannot be recovered.
    pub default_trip: u64,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            cpu: CpuConfig::default(),
            mem: MemConfig::default(),
            energy: EnergyTable::default(),
            thermal: ThermalConfig::default(),
            thresholds: DtmThresholds::default(),
            freq_hz: 4.0e9,
            time_scale: 1.0,
            heating_seconds: 0.0025,
            sustain_fraction: 1.0 / 16.0,
            sustain_floor_cycles: 4000.0,
            attack_margin_k: 2.0,
            suspicious_margin_k: 0.5,
            default_trip: 16,
        }
    }
}

impl AnalyzerConfig {
    /// The minimum back-to-back cycles a loop must sustain its power
    /// density to count as a heating episode.
    #[must_use]
    pub fn sustain_threshold_cycles(&self) -> f64 {
        (self.heating_seconds * self.freq_hz / self.time_scale * self.sustain_fraction)
            .max(self.sustain_floor_cycles)
    }
}

/// Per-loop aggregated physics: accesses and cycles per iteration, both
/// with nested loops folded in (`accum`/`cycles`) and for the loop's own
/// blocks alone (`direct_*` — the phase pass needs the straight-line
/// remainder separately).
#[derive(Debug, Clone, Default)]
struct LoopPhysics {
    accum: ResourceVector,
    cycles: f64,
    direct_accum: ResourceVector,
    direct_cycles: f64,
}

/// Statically analyzes `program` with the full default pass registry.
#[must_use]
pub fn analyze(program: &Program, cfg: &AnalyzerConfig) -> ProgramAnalysis {
    analyze_with(program, cfg, &default_passes())
}

/// Statically analyzes `program`, classifying it with the given lint
/// passes. [`analyze`] uses [`default_passes`]; [`steady_state_only`]
/// reproduces the pre-framework analyzer for regression comparisons.
#[must_use]
pub fn analyze_with(
    program: &Program,
    cfg: &AnalyzerConfig,
    passes: &[Box<dyn ThermalLint>],
) -> ProgramAnalysis {
    let graph = Cfg::build(program);
    let model = PowerModel::new(cfg.energy);
    let nloops = graph.loops.len();

    // Memory behaviour: footprints first (sibling pressure needs the full
    // program's), then the miss probabilities.
    let prelim: Vec<LoopMemory> = (0..nloops)
        .map(|li| loop_memory(program, &graph, li, &cfg.mem, 0, cfg.default_trip))
        .collect();
    let total_footprint: u64 = prelim.iter().map(|m| m.l1_footprint).sum();
    let mems: Vec<LoopMemory> = (0..nloops)
        .map(|li| {
            let siblings = total_footprint - prelim[li].l1_footprint;
            loop_memory(program, &graph, li, &cfg.mem, siblings, cfg.default_trip)
        })
        .collect();

    // Bottom-up aggregation: inner loops first.
    let mut phys = vec![LoopPhysics::default(); nloops];
    for &li in &graph.loops_inner_first() {
        let direct_blocks = graph.direct_blocks(li);
        let mut accum = ResourceVector::zero();
        let mut direct_insts: Vec<usize> = Vec::new();
        for &b in &direct_blocks {
            accum.add_scaled(
                &block_vector(
                    program,
                    &cfg.cpu,
                    &cfg.mem,
                    &graph.blocks[b],
                    &mems[li].miss,
                ),
                1.0,
            );
            direct_insts.extend(graph.blocks[b].insts().map(InstIndex::as_usize));
        }
        direct_insts.sort_unstable();
        let own_cycles = direct_cycles(program, &cfg.cpu, &cfg.mem, &direct_insts, &mems[li].miss);
        let direct_accum = accum;
        let mut cycles = own_cycles;
        for c in graph.children_of(li) {
            let w = graph.loops[c].trip.weight(cfg.default_trip);
            accum.add_scaled(&phys[c].accum, w);
            cycles += w * phys[c].cycles;
        }
        phys[li] = LoopPhysics {
            accum,
            cycles,
            direct_accum,
            direct_cycles: own_cycles,
        };
    }

    // Per-loop steady states, then the pass registry for the verdicts.
    let threshold = cfg.sustain_threshold_cycles();
    let mut summaries = Vec::with_capacity(nloops);
    for (lp, ph) in graph.loops.iter().zip(&phys) {
        let cycles = ph.cycles.max(1.0);
        let rates = ph.accum.scaled(1.0 / cycles);
        let (hot, temp) = steady_state(&model, &cfg.thermal, &rates, cfg.freq_hz);
        let sustain = match lp.trip {
            TripCount::Infinite => f64::INFINITY,
            t => t.weight(cfg.default_trip) * cycles,
        };
        let direct_cycles = ph.direct_cycles.max(1.0);
        let span = (
            lp.blocks
                .iter()
                .map(|&b| graph.blocks[b].start)
                .min()
                .unwrap_or(0),
            lp.blocks
                .iter()
                .map(|&b| graph.blocks[b].end)
                .max()
                .unwrap_or(0),
        );
        summaries.push(lint::LoopSummary {
            rates,
            cycles_per_iter: cycles,
            sustain_cycles: sustain,
            hottest_block: hot,
            est_temp_k: temp,
            direct_rates: ph.direct_accum.scaled(1.0 / direct_cycles),
            direct_cycles: ph.direct_cycles,
            span,
        });
    }

    let cx = LintContext::new(program, &graph, cfg, &summaries);
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    for pass in passes {
        diagnostics.extend(pass.run(&cx));
    }

    let transients: Vec<Option<TransientReport>> = (0..nloops)
        .map(|li| {
            lint::loop_transient(&cx, li).map(|(sol, phases)| {
                let (peak_block, peak) = sol.peak_hottest();
                let period_s: f64 = phases.iter().map(|p| p.seconds).sum();
                let avg_power: f64 = if period_s > 0.0 {
                    phases
                        .iter()
                        .map(|p| p.power.get(peak_block) * p.seconds)
                        .sum::<f64>()
                        / period_s
                } else {
                    0.0
                };
                let hot_s: f64 = phases
                    .iter()
                    .filter(|p| p.power.get(peak_block) > avg_power)
                    .map(|p| p.seconds)
                    .sum();
                TransientReport {
                    phases: phases.len(),
                    period_cycles: period_s * cfg.freq_hz,
                    duty: if period_s > 0.0 {
                        hot_s / period_s
                    } else {
                        0.0
                    },
                    peak_block,
                    peak_temp_k: peak,
                    baseline_temp_k: sol.baseline[peak_block.index()],
                }
            })
        })
        .collect();

    // A loop nested under a phase schedule is one phase of that schedule:
    // the ancestor's envelope already accounts for exactly how far its
    // burst heats the die, so folding its full-intensity steady state into
    // the program peak would charge it with a temperature the schedule
    // proves it never reaches (variant3's 48 kcycle burst is "sustained"
    // for classification, yet peaks ~23 K short of its steady state).
    let covered_by_schedule: Vec<bool> = (0..nloops)
        .map(|li| {
            let mut cur = graph.loops[li].parent;
            while let Some(p) = cur {
                if transients[p].is_some() {
                    return true;
                }
                cur = graph.loops[p].parent;
            }
            false
        })
        .collect();

    let mut peak_temp_k = cfg.thermal.ambient_k;
    for (li, summary) in summaries.iter().enumerate() {
        if let Some(t) = &transients[li] {
            peak_temp_k = peak_temp_k.max(t.peak_temp_k);
        }
        if summary.sustain_cycles >= threshold && !covered_by_schedule[li] {
            peak_temp_k = peak_temp_k.max(summary.est_temp_k);
        }
    }

    let mut loops = Vec::with_capacity(nloops);
    for (li, (lp, summary)) in graph.loops.iter().zip(&summaries).enumerate() {
        let verdict = diagnostics
            .iter()
            .filter(|d| d.loop_index == Some(li))
            .map(|d| d.verdict)
            .max()
            .unwrap_or(Verdict::Benign);
        let mut rate_arr = [0.0; NUM_RESOURCES];
        rate_arr.copy_from_slice(summary.rates.as_array());
        loops.push(LoopReport {
            header_inst: graph.blocks[lp.header].start,
            depth: lp.depth,
            trip: lp.trip,
            cycles_per_iter: summary.cycles_per_iter,
            sustain_cycles: summary.sustain_cycles,
            rates: rate_arr,
            hottest_block: summary.hottest_block,
            est_temp_k: summary.est_temp_k,
            transient: transients[li].clone(),
            verdict,
        });
    }

    // Whole-program totals: straight-line code once, top loops weighted.
    let empty = MissMap::new();
    let mut root_accum = ResourceVector::zero();
    let mut root_insts: Vec<usize> = Vec::new();
    for b in graph.unlooped_blocks() {
        root_accum.add_scaled(
            &block_vector(program, &cfg.cpu, &cfg.mem, &graph.blocks[b], &empty),
            1.0,
        );
        root_insts.extend(graph.blocks[b].insts().map(InstIndex::as_usize));
    }
    root_insts.sort_unstable();
    let mut root_cycles = direct_cycles(program, &cfg.cpu, &cfg.mem, &root_insts, &empty);
    for li in graph.top_loops() {
        let w = graph.loops[li].trip.weight(cfg.default_trip);
        root_accum.add_scaled(&phys[li].accum, w);
        root_cycles += w * phys[li].cycles;
    }
    root_cycles = root_cycles.max(1.0);

    let energies = cfg.energy.per_access_energies();
    let mut block_energy = [0.0; NUM_BLOCKS];
    for r in ALL_RESOURCES {
        block_energy[resource_block(r).index()] += root_accum.get(r) * energies[r.index()];
    }
    let hottest_block = ALL_BLOCKS
        .into_iter()
        .max_by(|a, b| {
            block_energy[a.index()]
                .partial_cmp(&block_energy[b.index()])
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .unwrap_or(Block::IntReg);

    let est_temp_k = loops
        .iter()
        .map(|l| l.est_temp_k)
        .fold(cfg.thermal.ambient_k, f64::max);
    let verdict = diagnostics
        .iter()
        .map(|d| d.verdict)
        .max()
        .unwrap_or(Verdict::Benign);

    ProgramAnalysis {
        loops,
        block_energy,
        hottest_block,
        est_temp_k,
        int_regfile_rate: root_accum.get(hs_cpu::Resource::IntRegFile) / root_cycles,
        sustain_threshold_cycles: threshold,
        peak_temp_k,
        diagnostics,
        verdict,
    }
}

/// Steady-state solve: the loop's access rates become a power vector
/// (idle leakage plus dynamic switching), and the RC network's equilibrium
/// gives the hot-spot temperature.
fn steady_state(
    model: &PowerModel,
    thermal: &ThermalConfig,
    rates: &ResourceVector,
    freq_hz: f64,
) -> (Block, f64) {
    let mut power = model.idle_power();
    for r in ALL_RESOURCES {
        power.add(
            resource_block(r),
            model.dynamic_power_at_rate(r, rates.get(r), freq_hz),
        );
    }
    let mut net = ThermalNetwork::new(thermal);
    net.initialize_steady_state(&power);
    net.hottest_block()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_isa::{AluOp, BranchCond, IntReg, Operand, ProgramBuilder};

    fn burst_program(iters: u64, ilp: u8) -> Program {
        let mut b = ProgramBuilder::new();
        let counter = IntReg::new(22);
        let outer = b.label();
        b.load_imm(counter, iters);
        let top = b.label();
        for i in 0..48u8 {
            let r = IntReg::new(1 + (i % ilp));
            b.int_alu(AluOp::Add, r, r, Operand::Imm(1));
        }
        b.int_alu(AluOp::Sub, counter, counter, Operand::Imm(1));
        b.branch(BranchCond::Ne, counter, Operand::Imm(0), top);
        b.jump(outer);
        b.build().unwrap()
    }

    #[test]
    fn sustained_burst_is_heat_stroke() {
        // A long, register-file-saturating burst inside the infinite loop.
        let cfg = AnalyzerConfig::default();
        let report = analyze(&burst_program(30_000, 12), &cfg);
        assert_eq!(report.verdict, Verdict::HeatStroke);
        assert_eq!(report.hottest_block, Block::IntReg);
        assert!(report.int_regfile_rate > 7.5, "{}", report.int_regfile_rate);
    }

    #[test]
    fn short_low_ilp_burst_is_benign() {
        // ILP 2 halves the rate and the burst is short: neither hot nor
        // sustained at the default (unscaled) thresholds.
        let cfg = AnalyzerConfig::default();
        let report = analyze(&burst_program(20, 2), &cfg);
        assert_eq!(report.verdict, Verdict::Benign);
    }

    #[test]
    fn straight_line_program_is_benign() {
        let mut b = ProgramBuilder::new();
        for _ in 0..8 {
            b.int_alu(AluOp::Add, IntReg::new(1), IntReg::new(1), Operand::Imm(1));
        }
        b.halt();
        let p = b.build().unwrap();
        let report = analyze(&p, &AnalyzerConfig::default());
        assert_eq!(report.verdict, Verdict::Benign);
        assert!(report.loops.is_empty());
    }

    #[test]
    fn sustain_threshold_scales_with_time_but_keeps_its_floor() {
        let mut cfg = AnalyzerConfig::default();
        assert_eq!(cfg.sustain_threshold_cycles(), 625_000.0);
        cfg.time_scale = 50.0;
        assert_eq!(cfg.sustain_threshold_cycles(), 12_500.0);
        cfg.time_scale = 1e9;
        assert_eq!(cfg.sustain_threshold_cycles(), 4000.0);
    }
}
