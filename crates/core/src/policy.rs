//! The policy interface shared by every DTM mechanism.

use crate::counts::BlockCounts;
use crate::report::OsReport;
use hs_cpu::pipeline::FetchGate;
use hs_thermal::NUM_BLOCKS;

/// All sensors reporting valid readings (the common case, and the seed
/// simulator's implicit assumption).
pub const ALL_SENSORS_VALID: [bool; NUM_BLOCKS] = [true; NUM_BLOCKS];

/// Everything a policy sees at one sampling instant.
#[derive(Debug, Clone, Copy)]
pub struct DtmInput<'a> {
    /// Current cycle.
    pub cycle: u64,
    /// Sensor readings for every floorplan block (K). For a block whose
    /// sensor is currently unavailable (see `sensor_valid`) this holds the
    /// last value that sensor reported.
    pub block_temps: &'a [f64; NUM_BLOCKS],
    /// Whether each block's sensor produced a reading at the most recent
    /// sensor update (`false` = dropout; the corresponding `block_temps`
    /// entry is stale). Legacy policies may ignore this; the fault-tolerant
    /// monitor front-end does not.
    pub sensor_valid: &'a [bool; NUM_BLOCKS],
    /// Whether the sensors were re-read at *this* sampling instant (sensor
    /// updates are less frequent than monitor samples).
    pub sensor_fresh: bool,
    /// Per-thread, per-block access counts since the previous sample. All
    /// zero while the pipeline is globally stalled.
    pub counts: &'a BlockCounts,
    /// Whether the previous decision globally stalled the pipeline (the
    /// paper's monitors do not sample during stalls).
    pub global_stalled: bool,
}

/// A policy's control outputs for the next interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct DtmDecision {
    /// Stall the entire pipeline (stop-and-go / safety net).
    pub global_stall: bool,
    /// Per-thread fetch gating (selective sedation).
    pub gate: FetchGate,
}

/// A dynamic thermal management mechanism.
///
/// The simulator calls [`ThermalPolicy::on_sample`] at every monitor
/// sampling instant and applies the returned decision until the next one.
pub trait ThermalPolicy {
    /// A short, stable name for reports and experiment tables.
    fn name(&self) -> &'static str;

    /// Observes one sample and decides the controls for the next interval.
    fn on_sample(&mut self, input: &DtmInput<'_>) -> DtmDecision;

    /// Drains OS reports generated since the last call.
    fn take_reports(&mut self) -> Vec<OsReport> {
        Vec::new()
    }
}

/// The no-op policy: never stalls, never gates. Used with the ideal heat
/// sink (which can remove any amount of heat instantly, so no DTM is ever
/// needed) to isolate ICOUNT fetch effects from power-density effects.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoDtm;

impl NoDtm {
    /// Creates the no-op policy.
    #[must_use]
    pub fn new() -> Self {
        NoDtm
    }
}

impl ThermalPolicy for NoDtm {
    fn name(&self) -> &'static str {
        "none"
    }

    fn on_sample(&mut self, _input: &DtmInput<'_>) -> DtmDecision {
        DtmDecision::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_dtm_never_intervenes() {
        let mut p = NoDtm::new();
        let temps = [400.0; NUM_BLOCKS]; // absurdly hot
        let counts = BlockCounts::new();
        let d = p.on_sample(&DtmInput {
            sensor_valid: &crate::policy::ALL_SENSORS_VALID,
            sensor_fresh: true,
            cycle: 0,
            block_temps: &temps,
            counts: &counts,
            global_stalled: false,
        });
        assert!(!d.global_stall);
        assert!(!d.gate.any_gated());
        let reports = p.take_reports();
        assert_eq!(crate::latch::emergencies(&reports), 0);
        assert!(reports.is_empty());
    }
}
