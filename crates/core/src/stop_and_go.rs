//! Stop-and-go: the paper's base-case DTM.
//!
//! On any block reaching the emergency temperature, the entire pipeline is
//! stalled (global clock gating, as in commercial processors and \[1\]); it
//! resumes once every triggering block has cooled to the normal operating
//! temperature. This is precisely the mechanism heat stroke exploits: the
//! attacker pays the stall too, but so does every innocent thread.

use crate::config::DtmThresholds;
use crate::latch::{EmergencyLatch, LatchState};
use crate::policy::{DtmDecision, DtmInput, ThermalPolicy};
use crate::report::OsReport;

/// The global stall policy.
#[derive(Debug, Clone)]
pub struct StopAndGo {
    thresholds: DtmThresholds,
    latch: EmergencyLatch,
    reports: Vec<OsReport>,
}

impl StopAndGo {
    /// Creates the policy with the given thresholds.
    ///
    /// # Panics
    ///
    /// Panics if the thresholds are invalid.
    #[must_use]
    pub fn new(thresholds: DtmThresholds) -> Self {
        thresholds.validate();
        StopAndGo {
            thresholds,
            latch: EmergencyLatch::default(),
            reports: Vec::new(),
        }
    }
}

impl Default for StopAndGo {
    fn default() -> Self {
        Self::new(DtmThresholds::default())
    }
}

impl ThermalPolicy for StopAndGo {
    fn name(&self) -> &'static str {
        "stop-and-go"
    }

    fn on_sample(&mut self, input: &DtmInput<'_>) -> DtmDecision {
        let state = self.latch.observe(
            &self.thresholds,
            input.cycle,
            input.block_temps,
            &mut self.reports,
        );
        DtmDecision {
            global_stall: state == LatchState::Engaged,
            gate: Default::default(),
        }
    }

    fn take_reports(&mut self) -> Vec<OsReport> {
        std::mem::take(&mut self.reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::BlockCounts;
    use crate::latch::emergencies;
    use crate::report::ReportKind;
    use hs_thermal::{Block, NUM_BLOCKS};

    fn input<'a>(
        temps: &'a [f64; NUM_BLOCKS],
        counts: &'a BlockCounts,
        cycle: u64,
    ) -> DtmInput<'a> {
        DtmInput {
            sensor_valid: &crate::policy::ALL_SENSORS_VALID,
            sensor_fresh: true,
            cycle,
            block_temps: temps,
            counts,
            global_stalled: false,
        }
    }

    #[test]
    fn stalls_at_emergency_and_resumes_at_normal() {
        let mut p = StopAndGo::default();
        let counts = BlockCounts::new();
        let mut temps = [345.0; NUM_BLOCKS];

        temps[Block::IntReg.index()] = 358.6;
        let d = p.on_sample(&input(&temps, &counts, 100));
        assert!(d.global_stall);
        assert_eq!(emergencies(&p.take_reports()), 1);

        // Still above normal: stays stalled.
        temps[Block::IntReg.index()] = 355.0;
        assert!(p.on_sample(&input(&temps, &counts, 200)).global_stall);

        // At normal: resumes.
        temps[Block::IntReg.index()] = 354.0;
        assert!(!p.on_sample(&input(&temps, &counts, 300)).global_stall);
    }

    #[test]
    fn each_heating_episode_counts_once() {
        let mut p = StopAndGo::default();
        let counts = BlockCounts::new();
        let mut temps = [345.0; NUM_BLOCKS];
        for cycle in 0..5 {
            temps[Block::IntReg.index()] = 359.0;
            p.on_sample(&input(&temps, &counts, cycle * 10));
        }
        // Five samples above emergency within one episode = one emergency.
        let mut reports = p.take_reports();
        assert_eq!(emergencies(&reports), 1);
        temps[Block::IntReg.index()] = 353.0;
        p.on_sample(&input(&temps, &counts, 100));
        temps[Block::IntReg.index()] = 359.0;
        p.on_sample(&input(&temps, &counts, 110));
        reports.extend(p.take_reports());
        assert_eq!(emergencies(&reports), 2);
    }

    #[test]
    fn below_emergency_never_stalls() {
        let mut p = StopAndGo::default();
        let counts = BlockCounts::new();
        let temps = [358.0; NUM_BLOCKS]; // hot but sub-emergency
        assert!(!p.on_sample(&input(&temps, &counts, 0)).global_stall);
        assert_eq!(emergencies(&p.take_reports()), 0);
    }

    #[test]
    fn reports_emergencies() {
        let mut p = StopAndGo::default();
        let counts = BlockCounts::new();
        let mut temps = [345.0; NUM_BLOCKS];
        temps[Block::FpMul.index()] = 360.0;
        p.on_sample(&input(&temps, &counts, 42));
        let reports = p.take_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, ReportKind::Emergency);
        assert_eq!(reports[0].block, Block::FpMul);
        assert!(p.take_reports().is_empty());
    }

    #[test]
    fn two_hot_blocks_both_must_cool() {
        let mut p = StopAndGo::default();
        let counts = BlockCounts::new();
        let mut temps = [345.0; NUM_BLOCKS];
        temps[Block::IntReg.index()] = 359.0;
        temps[Block::FpMul.index()] = 359.0;
        assert!(p.on_sample(&input(&temps, &counts, 0)).global_stall);
        assert_eq!(emergencies(&p.take_reports()), 2);
        temps[Block::IntReg.index()] = 353.0;
        assert!(
            p.on_sample(&input(&temps, &counts, 10)).global_stall,
            "fp-mul still hot"
        );
        temps[Block::FpMul.index()] = 354.0;
        assert!(!p.on_sample(&input(&temps, &counts, 20)).global_stall);
    }
}
