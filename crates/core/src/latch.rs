//! The emergency latch behind every global stall.
//!
//! Stop-and-go, the global-DVFS throttle, selective sedation's safety net
//! and the failsafe's worst-case fallback all apply one rule (§3.2.2):
//! from the sample any block reaches `emergency_k`, the pipeline stays
//! stalled (or throttled) until every block that tripped is back at
//! `normal_k`. A block that cools to `normal_k` while another is still hot
//! stays tripped, so re-heating it within the episode neither ends the
//! stall early nor files a second report.

use crate::config::DtmThresholds;
use crate::report::{OsReport, ReportKind};
use hs_thermal::{ALL_BLOCKS, NUM_BLOCKS};

/// What the latch concluded from one sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LatchState {
    /// No block has tripped since the last release.
    Clear,
    /// At least one tripped block is still above `normal_k`: stall.
    Engaged,
    /// This sample brought every tripped block to `normal_k`; the episode
    /// is over and the latch is clear again.
    Released,
}

/// The set of blocks that reached the emergency temperature in the
/// current episode. `Default` is the clear latch.
#[derive(Debug, Clone, Default)]
pub(crate) struct EmergencyLatch {
    tripped: [bool; NUM_BLOCKS],
}

impl EmergencyLatch {
    /// Folds one sample in, filing one `Emergency` report per block per
    /// episode into `reports`.
    pub(crate) fn observe(
        &mut self,
        thresholds: &DtmThresholds,
        cycle: u64,
        temps: &[f64; NUM_BLOCKS],
        reports: &mut Vec<OsReport>,
    ) -> LatchState {
        for b in ALL_BLOCKS {
            let t = temps[b.index()];
            if t >= thresholds.emergency_k && !self.tripped[b.index()] {
                self.tripped[b.index()] = true;
                reports.push(OsReport {
                    cycle,
                    thread: None,
                    block: b,
                    kind: ReportKind::Emergency,
                    weighted_avg: None,
                    temperature_k: t,
                });
            }
        }
        if !self.is_engaged() {
            return LatchState::Clear;
        }
        let still_hot = ALL_BLOCKS
            .iter()
            .any(|b| self.tripped[b.index()] && temps[b.index()] > thresholds.normal_k);
        if still_hot {
            return LatchState::Engaged;
        }
        self.tripped = [false; NUM_BLOCKS];
        LatchState::Released
    }

    /// Whether an episode is in progress.
    pub(crate) fn is_engaged(&self) -> bool {
        self.tripped.contains(&true)
    }
}

/// The number of `Emergency` reports in `reports`.
#[cfg(test)]
pub(crate) fn emergencies(reports: &[OsReport]) -> usize {
    reports
        .iter()
        .filter(|r| r.kind == ReportKind::Emergency)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_thermal::Block;

    #[test]
    fn every_tripped_block_must_cool_and_each_trips_once_per_episode() {
        let th = DtmThresholds::default();
        let mut latch = EmergencyLatch::default();
        let mut reports = Vec::new();
        let mut temps = [345.0; NUM_BLOCKS];
        let (reg, fp) = (Block::IntReg.index(), Block::FpMul.index());

        temps[reg] = th.emergency_k;
        temps[fp] = th.emergency_k + 1.0;
        let state = latch.observe(&th, 0, &temps, &mut reports);
        assert_eq!(state, LatchState::Engaged, "both blocks trip together");

        temps[reg] = th.normal_k;
        let state = latch.observe(&th, 10, &temps, &mut reports);
        assert_eq!(state, LatchState::Engaged, "fp-mul is still hot");

        temps[reg] = th.emergency_k + 0.5;
        let state = latch.observe(&th, 20, &temps, &mut reports);
        assert_eq!(
            state,
            LatchState::Engaged,
            "int-reg re-heats in the episode"
        );
        assert_eq!(reports.len(), 2, "no second report for int-reg");

        temps[reg] = th.normal_k;
        temps[fp] = th.normal_k;
        assert_eq!(
            latch.observe(&th, 30, &temps, &mut reports),
            LatchState::Released
        );
        assert_eq!(
            latch.observe(&th, 40, &temps, &mut reports),
            LatchState::Clear
        );

        assert_eq!(emergencies(&reports), 2);
        assert_eq!(reports[0].block, Block::IntReg);
        assert_eq!(reports[1].block, Block::FpMul);
        assert_eq!(reports[1].temperature_k, th.emergency_k + 1.0);
    }
}
