//! A DVS-like global throttling baseline.
//!
//! The paper's survey of prior DTM: "\[12\] scale down the clock cycle and
//! voltage, to slow down the pipeline until the hot spot has cooled down",
//! and observes that for realistic configurations global clock gating
//! (stop-and-go) performs about the same. This policy models the
//! frequency-scaling family at the granularity our harness controls: while
//! a triggered block is above its resume temperature the pipeline runs at
//! a reduced duty cycle instead of stopping completely. It throttles over
//! the same emergency episode as stop-and-go: from the sample a block
//! reaches the emergency temperature until every block that tripped is
//! back at the normal operating temperature.
//!
//! It shares stop-and-go's fundamental weakness — the whole pipeline pays
//! for one thread's hot spot — so heat stroke defeats it identically.

use crate::config::DtmThresholds;
use crate::latch::{EmergencyLatch, LatchState};
use crate::policy::{DtmDecision, DtmInput, ThermalPolicy};
use crate::report::OsReport;

/// Global duty-cycle throttling on thermal emergencies.
#[derive(Debug, Clone)]
pub struct GlobalDvfs {
    thresholds: DtmThresholds,
    /// Out of this many samples, how many are stalled while throttling
    /// (e.g. 1-of-2 models half frequency).
    stall_every: u32,
    latch: EmergencyLatch,
    phase: u32,
    reports: Vec<OsReport>,
}

impl GlobalDvfs {
    /// Creates the policy. `stall_every = 2` models half-speed operation
    /// while hot.
    ///
    /// # Panics
    ///
    /// Panics if the thresholds are invalid or `stall_every < 2`.
    #[must_use]
    pub fn new(thresholds: DtmThresholds, stall_every: u32) -> Self {
        thresholds.validate();
        assert!(stall_every >= 2, "duty denominator must be at least 2");
        GlobalDvfs {
            thresholds,
            stall_every,
            latch: EmergencyLatch::default(),
            phase: 0,
            reports: Vec::new(),
        }
    }

    /// Whether the pipeline is currently throttled.
    #[must_use]
    pub fn is_throttling(&self) -> bool {
        self.latch.is_engaged()
    }
}

impl Default for GlobalDvfs {
    fn default() -> Self {
        Self::new(DtmThresholds::default(), 2)
    }
}

impl ThermalPolicy for GlobalDvfs {
    fn name(&self) -> &'static str {
        "global-dvfs"
    }

    fn on_sample(&mut self, input: &DtmInput<'_>) -> DtmDecision {
        let state = self.latch.observe(
            &self.thresholds,
            input.cycle,
            input.block_temps,
            &mut self.reports,
        );
        let stall = if state == LatchState::Engaged {
            self.phase = (self.phase + 1) % self.stall_every;
            self.phase == 0
        } else {
            self.phase = 0;
            false
        };
        DtmDecision {
            global_stall: stall,
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
    use hs_thermal::{Block, NUM_BLOCKS};

    fn sample(p: &mut GlobalDvfs, temp: f64, cycle: u64) -> DtmDecision {
        let mut temps = [345.0; NUM_BLOCKS];
        temps[Block::IntReg.index()] = temp;
        sample_temps(p, &temps, cycle)
    }

    fn sample_temps(p: &mut GlobalDvfs, temps: &[f64; NUM_BLOCKS], cycle: u64) -> DtmDecision {
        let counts = BlockCounts::new();
        p.on_sample(&DtmInput {
            sensor_valid: &crate::policy::ALL_SENSORS_VALID,
            sensor_fresh: true,
            cycle,
            block_temps: temps,
            counts: &counts,
            global_stalled: false,
        })
    }

    #[test]
    fn throttles_at_half_duty_until_normal() {
        let mut p = GlobalDvfs::default();
        assert!(!sample(&mut p, 358.6, 0).global_stall || p.is_throttling());
        assert!(p.is_throttling());
        assert_eq!(emergencies(&p.take_reports()), 1);
        // While hot, stalls alternate (half duty).
        let stalls: Vec<bool> = (1..9)
            .map(|i| sample(&mut p, 356.0, i * 100).global_stall)
            .collect();
        let stalled = stalls.iter().filter(|&&s| s).count();
        assert_eq!(stalled, 4, "half duty expected, got {stalls:?}");
        // Cooling to normal ends the throttle.
        assert!(!sample(&mut p, 353.9, 1_000).global_stall);
        assert!(!p.is_throttling());
    }

    #[test]
    fn never_throttles_below_emergency() {
        let mut p = GlobalDvfs::default();
        for i in 0..20 {
            assert!(!sample(&mut p, 358.0, i * 100).global_stall);
        }
        assert_eq!(emergencies(&p.take_reports()), 0);
    }

    #[test]
    fn throttle_holds_until_every_tripped_block_is_back_at_normal() {
        let th = DtmThresholds::default();
        let mut p = GlobalDvfs::default();
        let mut temps = [345.0; NUM_BLOCKS];
        let (reg, fp) = (Block::IntReg.index(), Block::FpMul.index());
        temps[reg] = th.emergency_k;
        temps[fp] = th.emergency_k;
        sample_temps(&mut p, &temps, 0);
        // The register file cools to normal, then warms again while the
        // FP multiplier stays hot.
        temps[reg] = th.normal_k;
        sample_temps(&mut p, &temps, 100);
        temps[reg] = th.upper_k;
        sample_temps(&mut p, &temps, 200);
        temps[fp] = th.normal_k;
        sample_temps(&mut p, &temps, 300);
        assert!(p.is_throttling(), "int-reg tripped and is above normal");
        temps[reg] = th.normal_k;
        sample_temps(&mut p, &temps, 400);
        assert!(!p.is_throttling());
        assert_eq!(emergencies(&p.take_reports()), 2);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn unit_duty_rejected() {
        let _ = GlobalDvfs::new(DtmThresholds::default(), 1);
    }
}
