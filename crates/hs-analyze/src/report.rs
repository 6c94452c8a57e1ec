//! Analysis results: per-loop findings and the program-level verdict.

use crate::cfg::TripCount;
use crate::lint::Diagnostic;
use hs_cpu::{Resource, NUM_RESOURCES};
use hs_thermal::{Block, ALL_BLOCKS, NUM_BLOCKS};

/// The screening verdict for one program.
///
/// The lattice is ordered `Benign < Suspicious < HeatStroke`; a program's
/// verdict is the join over its loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// No loop sustains a dangerous power density.
    Benign,
    /// Some loop sustains a power density within the configured margin of
    /// the emergency threshold — worth watching, not worth refusing.
    Suspicious,
    /// Some loop sustains a steady-state hot-spot temperature at or above
    /// the emergency threshold: running this program invites thermal DTM
    /// events, exactly the heat-stroke attack shape.
    HeatStroke,
}

impl Verdict {
    /// Stable machine-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Benign => "benign",
            Verdict::Suspicious => "suspicious",
            Verdict::HeatStroke => "heat-stroke",
        }
    }

    /// Parses [`Verdict::name`] output.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Verdict> {
        [Verdict::Benign, Verdict::Suspicious, Verdict::HeatStroke]
            .into_iter()
            .find(|v| v.name() == name)
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The transient (phase-schedule) findings for one repeating loop.
///
/// Produced by the phase-alternation machinery when the loop's body
/// decomposes into two or more constant-power phases (child loops plus the
/// straight-line remainder); see [`crate::transient`] for the closed-form
/// solution this summarizes.
#[derive(Debug, Clone)]
pub struct TransientReport {
    /// Number of phases in the recovered schedule.
    pub phases: usize,
    /// Length of one schedule period, in cycles.
    pub period_cycles: f64,
    /// Fraction of the period spent in phases that run the peak block
    /// hotter than the duty average (the schedule's effective duty cycle).
    pub duty: f64,
    /// The block whose transient envelope peaks highest.
    pub peak_block: Block,
    /// That block's peak temperature over the periodic envelope (kelvin).
    pub peak_temp_k: f64,
    /// The same block's duty-averaged baseline temperature (kelvin) — what
    /// steady-state averaging alone would predict.
    pub baseline_temp_k: f64,
}

/// What the analyzer concluded about one natural loop.
#[derive(Debug, Clone)]
pub struct LoopReport {
    /// Instruction index of the loop header.
    pub header_inst: usize,
    /// Nesting depth (1 = top level).
    pub depth: u32,
    /// Recovered trip count.
    pub trip: TripCount,
    /// Steady-state cycles per iteration (including nested loops).
    pub cycles_per_iter: f64,
    /// Back-to-back cycles one entry of this loop keeps its power density
    /// applied (`trip x cycles`; infinite loops sustain forever).
    pub sustain_cycles: f64,
    /// Predicted accesses per cycle, per resource
    /// (indexed by [`Resource::index`]).
    pub rates: [f64; NUM_RESOURCES],
    /// Hottest thermal block at this loop's steady state.
    pub hottest_block: Block,
    /// That block's steady-state temperature (kelvin).
    pub est_temp_k: f64,
    /// Phase-schedule findings, when the loop's body decomposes into a
    /// periodic power square-wave.
    pub transient: Option<TransientReport>,
    /// This loop's own verdict: the join over the diagnostics anchored to
    /// this loop.
    pub verdict: Verdict,
}

impl LoopReport {
    /// The loop's integer-register-file access rate (the paper's Figure-3
    /// observable).
    #[must_use]
    pub fn int_regfile_rate(&self) -> f64 {
        self.rates[Resource::IntRegFile.index()]
    }
}

/// The full static analysis of one program.
#[derive(Debug, Clone)]
pub struct ProgramAnalysis {
    /// Per-loop findings, in CFG loop order.
    pub loops: Vec<LoopReport>,
    /// Predicted switching energy per thermal block over the whole
    /// program's steady-state mix (joules, arbitrary scale — only the
    /// ranking is meaningful), indexed by [`Block::index`].
    pub block_energy: [f64; NUM_BLOCKS],
    /// The block with the largest predicted switching energy.
    pub hottest_block: Block,
    /// Worst steady-state temperature over all loops (kelvin).
    pub est_temp_k: f64,
    /// Whole-program integer-register-file access rate (per cycle).
    pub int_regfile_rate: f64,
    /// The sustain threshold (cycles) the verdicts were judged against.
    pub sustain_threshold_cycles: f64,
    /// Worst temperature the program is predicted to actually reach
    /// (kelvin): transient envelope peaks of repeating loops joined with
    /// the steady states of sustained loops *not* nested under a phase
    /// schedule (an enclosing schedule's envelope already says how far
    /// such a burst heats the die). Unlike
    /// [`ProgramAnalysis::est_temp_k`] this does not charge short bursts
    /// with their full-intensity steady state.
    pub peak_temp_k: f64,
    /// Every finding from every pass that ran, in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// Join of all diagnostics' verdict contributions.
    pub verdict: Verdict,
}

impl ProgramAnalysis {
    /// Thermal blocks ranked by predicted switching energy, descending;
    /// ties broken by block index for determinism.
    #[must_use]
    pub fn top_blocks(&self) -> Vec<(Block, f64)> {
        let mut ranked: Vec<(Block, f64)> = ALL_BLOCKS
            .into_iter()
            .map(|b| (b, self.block_energy[b.index()]))
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_names_roundtrip_and_order() {
        for v in [Verdict::Benign, Verdict::Suspicious, Verdict::HeatStroke] {
            assert_eq!(Verdict::from_name(v.name()), Some(v));
        }
        assert_eq!(Verdict::from_name("nonsense"), None);
        assert!(Verdict::Benign < Verdict::Suspicious);
        assert!(Verdict::Suspicious < Verdict::HeatStroke);
    }
}
