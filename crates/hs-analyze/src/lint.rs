//! The lint passes: every verdict the analyzer produces is owned by a
//! named pass emitting machine-readable [`Diagnostic`]s.
//!
//! Each pass inspects a `LintContext` — the program's CFG/loop forest and
//! per-loop aggregated physics — and emits diagnostics carrying a severity,
//! a verdict contribution, and an instruction span. The program's verdict
//! is the join (max) over all diagnostics; a loop's verdict is the join
//! over the diagnostics anchored to it. [`crate::analyze`] runs, in order:
//!
//! * `steady-state` — the original rule: a loop that *sustains* a power
//!   density whose steady-state hot-spot temperature clears the
//!   heat-stroke bar.
//! * `phase-alternation` — recovers each repeating loop's body as a
//!   periodic power square-wave (one phase per child loop, in program
//!   order, plus the loop's own straight-line remainder) and judges the
//!   closed-form peak of the transient envelope ([`crate::transient`]).
//!   This catches duty-cycle evasion: schedules whose *average* is benign
//!   but whose peak still crosses the bar.
//! * `worst-case-trip` — escalates hot loops whose trip count could not be
//!   recovered to [`Verdict::Suspicious`] instead of silently
//!   under-weighting them with the default trip.
//! * `trip-coverage` — informational coverage: one note per loop whose
//!   trip count stayed [`TripCount::Unknown`].
//!
//! Each pass reads only the shared context, so the verdict of the
//! `steady-state` pass alone — the analyzer before the other passes
//! existed — is the join of that pass's diagnostics.

use crate::cfg::{Cfg, TripCount};
use crate::dataflow::ResourceVector;
use crate::report::Verdict;
use crate::transient::{solve_periodic, Phase, TransientSolution};
use crate::AnalyzerConfig;
use hs_cpu::ALL_RESOURCES;
use hs_power::{resource_block, PowerModel};
use hs_thermal::{Block, PowerVector};

/// Kelvin *above* the DTM emergency threshold a loop's steady state must
/// reach for a heat-stroke verdict. The static model carries a ±1–2 K
/// error bar against the dynamic reference, and programs that merely graze
/// the emergency line (`art`, `gzip` measure a handful of marginal
/// crossings per quantum) are exactly what the reactive DTM already
/// handles at negligible victim cost; an attack has to *pin* the block
/// decisively hot.
const ATTACK_MARGIN_K: f64 = 2.0;

/// Kelvin below the heat-stroke bar (emergency + attack margin) still
/// flagged `Suspicious`. Kept narrower than the attack margin so the
/// marginal crossers stay benign and only near-attacks are flagged.
const SUSPICIOUS_MARGIN_K: f64 = 0.5;

/// How loudly a diagnostic speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: no verdict contribution.
    Note,
    /// A suspicious finding.
    Warning,
    /// A finding that alone condemns the program.
    Error,
}

impl Severity {
    /// Stable machine-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding from one pass.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Identifier of the pass that produced the finding.
    pub pass: &'static str,
    /// Loudness of the finding.
    pub severity: Severity,
    /// The verdict this finding contributes to the join.
    pub verdict: Verdict,
    /// Index into [`Cfg::loops`] of the loop the finding is anchored to,
    /// if any.
    pub loop_index: Option<usize>,
    /// Instruction span `[start, end)` the finding covers.
    pub span: (usize, usize),
    /// Human-readable explanation.
    pub message: String,
    /// Predicted temperature backing the finding (kelvin), if thermal.
    pub peak_temp_k: Option<f64>,
}

/// Per-loop aggregated physics handed to every pass.
#[derive(Debug, Clone)]
pub(crate) struct LoopSummary {
    /// Average accesses per cycle per resource, children folded in at
    /// their trip weights.
    pub(crate) rates: ResourceVector,
    /// Steady-state cycles per iteration, children folded in.
    pub(crate) cycles_per_iter: f64,
    /// Back-to-back cycles one entry keeps the power density applied.
    pub(crate) sustain_cycles: f64,
    /// Hottest block at this loop's full-intensity steady state.
    pub(crate) hottest_block: Block,
    /// That block's steady-state temperature (kelvin).
    pub(crate) est_temp_k: f64,
    /// Accesses per cycle from the loop's own blocks only (no children).
    pub(crate) direct_rates: ResourceVector,
    /// Cycles per iteration spent in the loop's own blocks only.
    pub(crate) direct_cycles: f64,
    /// Instruction span `[start, end)` covered by the loop's blocks.
    pub(crate) span: (usize, usize),
}

/// Everything a pass may inspect.
#[derive(Debug)]
pub(crate) struct LintContext<'a> {
    /// The program's CFG and loop forest.
    graph: &'a Cfg,
    /// The machine the program is judged against.
    config: &'a AnalyzerConfig,
    /// Per-loop physics, parallel to [`Cfg::loops`].
    loops: &'a [LoopSummary],
    model: PowerModel,
}

impl<'a> LintContext<'a> {
    /// Builds a context; `loops` must be parallel to `graph.loops`.
    pub(crate) fn new(
        graph: &'a Cfg,
        config: &'a AnalyzerConfig,
        loops: &'a [LoopSummary],
    ) -> Self {
        LintContext {
            graph,
            config,
            loops,
            model: PowerModel::new(config.energy),
        }
    }

    /// Converts access rates into a per-block power vector (idle leakage
    /// plus dynamic switching) — the same mapping the dynamic simulator
    /// integrates.
    fn power_at(&self, rates: &ResourceVector) -> PowerVector {
        let mut power = self.model.idle_power();
        for r in ALL_RESOURCES {
            power.add(
                resource_block(r),
                self.model
                    .dynamic_power_at_rate(r, rates.get(r), self.config.freq_hz),
            );
        }
        power
    }

    /// The heat-stroke temperature bar (emergency plus attack margin).
    fn stroke_k(&self) -> f64 {
        self.config.thresholds.emergency_k + ATTACK_MARGIN_K
    }

    /// The suspicion temperature bar, just below the heat-stroke bar.
    fn suspicious_k(&self) -> f64 {
        self.stroke_k() - SUSPICIOUS_MARGIN_K
    }

    /// The sustain threshold the verdicts are judged against (cycles).
    fn sustain_threshold(&self) -> f64 {
        self.config.sustain_threshold_cycles()
    }
}

/// The `steady-state` pass, the original verdict rule: hot (full-intensity
/// steady state at/above the bar) *and* sustained (applied back-to-back
/// past the threshold).
pub(crate) fn steady_state(cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    for (li, lp) in cx.loops.iter().enumerate() {
        let sustained = lp.sustain_cycles >= cx.sustain_threshold();
        let (severity, verdict) = if sustained && lp.est_temp_k >= cx.stroke_k() {
            (Severity::Error, Verdict::HeatStroke)
        } else if sustained && lp.est_temp_k >= cx.suspicious_k() {
            (Severity::Warning, Verdict::Suspicious)
        } else if lp.est_temp_k >= cx.stroke_k() {
            // Hot but too short to heat silicon: informational only,
            // the phase pass decides whether repetition makes it real.
            (Severity::Note, Verdict::Benign)
        } else {
            continue;
        };
        out.push(Diagnostic {
            pass: "steady-state",
            severity,
            verdict,
            loop_index: Some(li),
            span: lp.span,
            message: format!(
                "loop sustains {} at {:.1} K steady state for {} cycles \
                 (threshold {} cycles)",
                lp.hottest_block.name(),
                lp.est_temp_k,
                fmt_cycles(lp.sustain_cycles),
                fmt_cycles(cx.sustain_threshold()),
            ),
            peak_temp_k: Some(lp.est_temp_k),
        });
    }
}

/// A repeating loop's phase schedule: one phase per child loop in program
/// order, plus the loop's own straight-line remainder. `None` when the
/// loop does not repeat, has fewer than two phases, or nests an infinite
/// child (the child never yields control back, so there is no period).
fn phase_schedule(cx: &LintContext<'_>, li: usize) -> Option<Vec<Phase>> {
    let lp = &cx.graph.loops[li];
    if lp.trip.weight() < 2.0 {
        return None;
    }
    let mut children = cx.graph.children_of(li);
    if children
        .iter()
        .any(|&c| cx.graph.loops[c].trip == TripCount::Infinite)
    {
        return None;
    }
    children.sort_by_key(|&c| cx.graph.blocks[cx.graph.loops[c].header].start);
    let mut phases = Vec::new();
    for &c in &children {
        let child = &cx.loops[c];
        let cycles = cx.graph.loops[c].trip.weight() * child.cycles_per_iter;
        phases.push(Phase {
            power: cx.power_at(&child.rates),
            seconds: cycles / cx.config.freq_hz,
        });
    }
    let own = &cx.loops[li];
    if own.direct_cycles > 0.0 {
        phases.push(Phase {
            power: cx.power_at(&own.direct_rates),
            seconds: own.direct_cycles / cx.config.freq_hz,
        });
    }
    if phases.iter().filter(|p| p.seconds > 0.0).count() < 2 {
        return None;
    }
    Some(phases)
}

/// Solves the transient envelope of loop `li`'s phase schedule, if it has
/// one, returning the solution together with the schedule itself.
pub(crate) fn loop_transient(
    cx: &LintContext<'_>,
    li: usize,
) -> Option<(TransientSolution, Vec<Phase>)> {
    let phases = phase_schedule(cx, li)?;
    let sol = solve_periodic(&cx.config.thermal, &phases);
    Some((sol, phases))
}

/// The `phase-alternation` pass, the duty-cycle detector: judges the
/// closed-form peak of each repeating loop's phase schedule instead of its
/// average.
pub(crate) fn phase_alternation(cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    for (li, lp) in cx.loops.iter().enumerate() {
        let Some((sol, phases)) = loop_transient(cx, li) else {
            continue;
        };
        let nphases = phases.len();
        let (peak_block, peak) = sol.peak_hottest();
        let overshoot = sol.overshoot_k();
        let sustained = lp.sustain_cycles >= cx.sustain_threshold();
        let (severity, verdict) = if sustained && peak >= cx.stroke_k() {
            (Severity::Error, Verdict::HeatStroke)
        } else if sustained && peak >= cx.suspicious_k() {
            (Severity::Warning, Verdict::Suspicious)
        } else if overshoot >= 0.5 {
            (Severity::Note, Verdict::Benign)
        } else {
            continue;
        };
        out.push(Diagnostic {
            pass: "phase-alternation",
            severity,
            verdict,
            loop_index: Some(li),
            span: lp.span,
            message: format!(
                "{nphases}-phase schedule peaks {} at {:.1} K, \
                 {:+.1} K above its duty average",
                peak_block.name(),
                peak,
                overshoot,
            ),
            peak_temp_k: Some(peak),
        });
    }
}

/// The `worst-case-trip` pass: escalates hot loops with unrecoverable trip
/// counts. The aggregation weights them with a small default trip, which
/// an attacker could hide behind. Worst case (an arbitrarily large trip)
/// would sustain, so a hot body is at least [`Verdict::Suspicious`].
pub(crate) fn worst_case_trip(cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    for (li, lp) in cx.loops.iter().enumerate() {
        if cx.graph.loops[li].trip != TripCount::Unknown {
            continue;
        }
        if lp.est_temp_k < cx.suspicious_k() {
            continue;
        }
        out.push(Diagnostic {
            pass: "worst-case-trip",
            severity: Severity::Warning,
            verdict: Verdict::Suspicious,
            loop_index: Some(li),
            span: lp.span,
            message: format!(
                "hot loop ({} at {:.1} K steady state) has an \
                 unrecoverable trip count; assuming it can sustain",
                lp.hottest_block.name(),
                lp.est_temp_k,
            ),
            peak_temp_k: Some(lp.est_temp_k),
        });
    }
}

/// The `trip-coverage` pass, informational coverage: which loops the
/// trip-count recovery gave up on.
pub(crate) fn trip_coverage(cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    for (li, lp) in cx.loops.iter().enumerate() {
        if cx.graph.loops[li].trip != TripCount::Unknown {
            continue;
        }
        out.push(Diagnostic {
            pass: "trip-coverage",
            severity: Severity::Note,
            verdict: Verdict::Benign,
            loop_index: Some(li),
            span: lp.span,
            message: "trip count not recovered; weighted with the default trip".to_string(),
            peak_temp_k: None,
        });
    }
}

fn fmt_cycles(c: f64) -> String {
    if c.is_infinite() {
        "inf".to_string()
    } else {
        format!("{c:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_order_and_names() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        for s in [Severity::Note, Severity::Warning, Severity::Error] {
            assert!(!s.name().is_empty());
        }
    }
}
