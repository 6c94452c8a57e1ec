//! Selective sedation — the paper's defense against heat stroke.
//!
//! See the crate-level docs for the mechanism summary and §3.2 of the paper
//! for the original description. The state machine per resource (block):
//!
//! ```text
//!                 temp ≥ upper, ≥2 unsedated threads
//!   ┌─────────┐ ──────────────────────────────────────► ┌──────────┐
//!   │ normal  │                                         │ sedating │──┐
//!   └─────────┘ ◄────────────────────────────────────── └──────────┘  │ recheck due,
//!        ▲            temp ≤ lower (release all)              ▲       │ temp > lower:
//!        │                                                    └───────┘ sedate next
//!        │    temp ≥ emergency: safety-net stop-and-go,
//!        └──  stall until ≤ normal, restore all sedated
//! ```

use crate::config::SedationConfig;
use crate::latch::{EmergencyLatch, LatchState};
use crate::monitor::Ewma;
use crate::policy::{DtmDecision, DtmInput, ThermalPolicy};
use crate::report::{OsReport, ReportKind};
use hs_cpu::pipeline::FetchGate;
use hs_cpu::{ThreadId, MAX_THREADS};
use hs_thermal::{Block, ALL_BLOCKS, NUM_BLOCKS};

/// The selective-sedation DTM policy.
#[derive(Debug, Clone)]
pub struct SelectiveSedation {
    cfg: SedationConfig,
    nthreads: usize,
    /// Weighted averages, one per (thread, block) — "one counter, one
    /// register and some peripheral arithmetic logic, per resource per
    /// thread" (§3.2.1).
    monitors: [[Ewma; NUM_BLOCKS]; MAX_THREADS],
    /// Which threads are sedated for which block.
    sedated: [[bool; NUM_BLOCKS]; MAX_THREADS],
    /// Pending re-examination deadline per block.
    recheck_at: [Option<u64>; NUM_BLOCKS],
    safety_net: EmergencyLatch,
    sedation_events: u64,
    reports: Vec<OsReport>,
}

impl SelectiveSedation {
    /// Creates the policy for `nthreads` hardware contexts.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `nthreads` is zero or
    /// exceeds [`MAX_THREADS`].
    #[must_use]
    pub fn new(cfg: SedationConfig, nthreads: usize) -> Self {
        cfg.validate();
        assert!(
            (1..=MAX_THREADS).contains(&nthreads),
            "nthreads must be in 1..={MAX_THREADS}"
        );
        SelectiveSedation {
            cfg,
            nthreads,
            monitors: [[Ewma::new(cfg.ewma_shift); NUM_BLOCKS]; MAX_THREADS],
            sedated: [[false; NUM_BLOCKS]; MAX_THREADS],
            recheck_at: [None; NUM_BLOCKS],
            safety_net: EmergencyLatch::default(),
            sedation_events: 0,
            reports: Vec::new(),
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &SedationConfig {
        &self.cfg
    }

    /// Whether `thread` is currently sedated (for any resource).
    #[must_use]
    pub fn is_sedated(&self, thread: ThreadId) -> bool {
        self.sedated[thread.index()].iter().any(|&s| s)
    }

    /// Total number of sedation events so far.
    #[must_use]
    pub fn sedation_events(&self) -> u64 {
        self.sedation_events
    }

    /// The current weighted average for a thread at a block, in accesses
    /// per sampling period.
    #[must_use]
    pub fn weighted_avg(&self, thread: ThreadId, block: Block) -> f64 {
        self.monitors[thread.index()][block.index()].value()
    }

    fn sedated_count(&self, block: Block) -> usize {
        (0..self.nthreads)
            .filter(|&t| self.sedated[t][block.index()])
            .count()
    }

    /// The unsedated thread with the highest weighted average at `block`.
    fn culprit(&self, block: Block) -> Option<ThreadId> {
        (0..self.nthreads)
            .filter(|&t| !self.sedated[t][block.index()])
            .max_by(|&a, &b| {
                self.monitors[a][block.index()]
                    .raw()
                    .cmp(&self.monitors[b][block.index()].raw())
            })
            .map(|t| ThreadId(t as u8))
    }

    fn sedate(&mut self, thread: ThreadId, block: Block, cycle: u64, temp: f64) {
        self.sedated[thread.index()][block.index()] = true;
        self.sedation_events += 1;
        self.recheck_at[block.index()] = Some(cycle + 2 * self.cfg.cooling_time_cycles);
        self.reports.push(OsReport {
            cycle,
            thread: Some(thread),
            block,
            kind: ReportKind::Sedated,
            weighted_avg: Some(self.weighted_avg(thread, block)),
            temperature_k: temp,
        });
    }

    fn release_block(&mut self, block: Block, cycle: u64, temp: f64) {
        for t in 0..self.nthreads {
            if self.sedated[t][block.index()] {
                self.sedated[t][block.index()] = false;
                self.reports.push(OsReport {
                    cycle,
                    thread: Some(ThreadId(t as u8)),
                    block,
                    kind: ReportKind::Released,
                    weighted_avg: None,
                    temperature_k: temp,
                });
            }
        }
        self.recheck_at[block.index()] = None;
    }

    fn release_everything(&mut self, cycle: u64) {
        for t in 0..self.nthreads {
            self.sedated[t] = [false; NUM_BLOCKS];
        }
        self.recheck_at = [None; NUM_BLOCKS];
        self.reports.push(OsReport {
            cycle,
            thread: None,
            block: Block::IntReg,
            kind: ReportKind::SafetyNetReleased,
            weighted_avg: None,
            temperature_k: 0.0,
        });
    }

    fn decision(&self, global_stall: bool) -> DtmDecision {
        let mut gate = FetchGate::open();
        for t in 0..self.nthreads {
            if self.sedated[t].iter().any(|&s| s) {
                gate.set(ThreadId(t as u8), true);
            }
        }
        DtmDecision { global_stall, gate }
    }
}

impl ThermalPolicy for SelectiveSedation {
    fn name(&self) -> &'static str {
        "selective-sedation"
    }

    fn on_sample(&mut self, input: &DtmInput<'_>) -> DtmDecision {
        let cycle = input.cycle;

        // Safety-net stop-and-go: stall until every block that reached the
        // emergency is back at normal operating temperature, then restore
        // all sedated threads (§3.2.2).
        let safety_net = self.safety_net.observe(
            &self.cfg.thresholds,
            cycle,
            input.block_temps,
            &mut self.reports,
        );
        match safety_net {
            LatchState::Engaged => return self.decision(true),
            LatchState::Released => {
                self.release_everything(cycle);
                return self.decision(false);
            }
            LatchState::Clear => {}
        }

        // Update the weighted averages. A sedated thread's monitors are
        // frozen so inactivity cannot artificially lower its average.
        for t in 0..self.nthreads {
            let thread_sedated = self.sedated[t].iter().any(|&s| s);
            if thread_sedated || input.global_stalled {
                continue;
            }
            for b in ALL_BLOCKS {
                let sample = input.counts.get(t, b);
                self.monitors[t][b.index()].update(sample);
            }
        }

        // Per-block threshold logic.
        for b in ALL_BLOCKS {
            let temp = input.block_temps[b.index()];
            let lower = self.cfg.thresholds.lower_k;
            let upper = self.cfg.thresholds.upper_k;

            if self.sedated_count(b) > 0 && temp <= lower {
                // Cooled: resume all threads sedated for this resource.
                self.release_block(b, cycle, temp);
                continue;
            }

            let unsedated = self.nthreads - self.sedated_count(b);
            let first_trigger = self.sedated_count(b) == 0 && temp >= upper;
            let recheck_due =
                self.recheck_at[b.index()].is_some_and(|due| cycle >= due && temp > lower);
            if (first_trigger || recheck_due) && unsedated >= 2 {
                // Identify the culprit: highest weighted average among the
                // unsedated threads. The last unsedated thread is exempt
                // (it cannot be degrading anyone else).
                if let Some(culprit) = self.culprit(b) {
                    self.sedate(culprit, b, cycle, temp);
                }
            } else if recheck_due {
                // Re-examined but nothing more to sedate: push the deadline
                // so we do not re-trigger every sample.
                self.recheck_at[b.index()] = Some(cycle + 2 * self.cfg.cooling_time_cycles);
            }
        }

        self.decision(false)
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

    const REG: Block = Block::IntReg;

    fn cfg() -> SedationConfig {
        SedationConfig {
            cooling_time_cycles: 10_000,
            ..SedationConfig::default()
        }
    }

    /// Drives `policy` with fixed per-thread regfile counts and a given
    /// regfile temperature for `n` samples; returns the last decision.
    fn drive(
        policy: &mut SelectiveSedation,
        temps_reg: f64,
        rates: &[u64],
        n: u64,
        start_cycle: u64,
    ) -> DtmDecision {
        let mut temps = [345.0; NUM_BLOCKS];
        temps[REG.index()] = temps_reg;
        let mut counts = BlockCounts::new();
        for (t, &r) in rates.iter().enumerate() {
            counts.add(t, REG, r);
        }
        let mut d = DtmDecision::default();
        for i in 0..n {
            d = policy.on_sample(&DtmInput {
                sensor_valid: &crate::policy::ALL_SENSORS_VALID,
                sensor_fresh: true,
                cycle: start_cycle + i * 1000,
                block_temps: &temps,
                counts: &counts,
                global_stalled: false,
            });
        }
        d
    }

    #[test]
    fn sedates_the_highest_average_thread() {
        let mut p = SelectiveSedation::new(cfg(), 2);
        // Warm up the monitors below the upper threshold.
        drive(&mut p, 350.0, &[10_000, 3_000], 500, 0);
        // Cross the upper threshold.
        let d = drive(&mut p, 356.2, &[10_000, 3_000], 1, 500_000);
        assert!(d.gate.is_gated(ThreadId(0)), "attacker must be gated");
        assert!(!d.gate.is_gated(ThreadId(1)), "victim must stay free");
        assert!(!d.global_stall);
        assert_eq!(p.sedation_events(), 1);
        let reports = p.take_reports();
        assert!(reports
            .iter()
            .any(|r| r.kind == ReportKind::Sedated && r.thread == Some(ThreadId(0))));
    }

    #[test]
    fn releases_at_lower_threshold() {
        let mut p = SelectiveSedation::new(cfg(), 2);
        drive(&mut p, 350.0, &[10_000, 3_000], 500, 0);
        drive(&mut p, 356.2, &[10_000, 3_000], 1, 500_000);
        assert!(p.is_sedated(ThreadId(0)));
        // Cool to the lower threshold: release.
        let d = drive(&mut p, 354.9, &[0, 3_000], 1, 501_000);
        assert!(!d.gate.any_gated());
        assert!(!p.is_sedated(ThreadId(0)));
        assert!(p
            .take_reports()
            .iter()
            .any(|r| r.kind == ReportKind::Released));
    }

    #[test]
    fn ewma_is_frozen_during_sedation() {
        let mut p = SelectiveSedation::new(cfg(), 2);
        drive(&mut p, 350.0, &[10_000, 3_000], 500, 0);
        drive(&mut p, 356.2, &[10_000, 3_000], 1, 500_000);
        let before = p.weighted_avg(ThreadId(0), REG);
        // Sedated thread produces zero accesses for a long time; its
        // average must not decay.
        drive(&mut p, 355.5, &[0, 3_000], 1_000, 501_000);
        let after = p.weighted_avg(ThreadId(0), REG);
        assert!(
            (before - after).abs() < 1e-9,
            "sedated average moved: {before} -> {after}"
        );
    }

    #[test]
    fn recheck_sedates_second_attacker() {
        let mut p = SelectiveSedation::new(cfg(), 3);
        // Two attackers, one normal thread.
        drive(&mut p, 350.0, &[10_000, 9_000, 2_000], 500, 0);
        drive(&mut p, 356.4, &[10_000, 9_000, 2_000], 1, 500_000);
        assert!(p.is_sedated(ThreadId(0)));
        assert!(!p.is_sedated(ThreadId(1)));
        // Temperature stays above lower past the recheck deadline
        // (2 × 10_000 cycles): the second attacker gets sedated.
        drive(&mut p, 355.8, &[0, 9_000, 2_000], 30, 501_000);
        assert!(p.is_sedated(ThreadId(1)), "second attacker sedated");
        assert!(!p.is_sedated(ThreadId(2)), "normal thread spared");
    }

    #[test]
    fn last_unsedated_thread_is_exempt() {
        let mut p = SelectiveSedation::new(cfg(), 2);
        drive(&mut p, 350.0, &[10_000, 9_500], 500, 0);
        drive(&mut p, 356.4, &[10_000, 9_500], 1, 500_000);
        assert!(p.is_sedated(ThreadId(0)));
        // Even long past the recheck with the resource still hot, thread 1
        // must not be sedated: it is the last unsedated thread.
        drive(&mut p, 357.5, &[0, 9_500], 100, 501_000);
        assert!(!p.is_sedated(ThreadId(1)));
    }

    #[test]
    fn solo_thread_is_never_sedated() {
        let mut p = SelectiveSedation::new(cfg(), 1);
        let d = drive(&mut p, 357.0, &[12_000], 200, 0);
        assert!(!d.gate.any_gated());
        assert_eq!(p.sedation_events(), 0);
    }

    #[test]
    fn safety_net_stalls_at_emergency_and_restores_all() {
        let mut p = SelectiveSedation::new(cfg(), 2);
        drive(&mut p, 350.0, &[10_000, 9_500], 500, 0);
        drive(&mut p, 356.4, &[10_000, 9_500], 1, 500_000);
        assert!(p.is_sedated(ThreadId(0)));
        // The last thread drives it to emergency anyway.
        let d = drive(&mut p, 358.6, &[0, 9_500], 1, 501_000);
        assert!(d.global_stall, "safety net must engage");
        assert_eq!(emergencies(&p.take_reports()), 1);
        // Stays stalled until normal temperature…
        let d = drive(&mut p, 355.0, &[0, 0], 1, 502_000);
        assert!(d.global_stall);
        // …then releases everything, including the sedated thread.
        let d = drive(&mut p, 353.9, &[0, 0], 1, 503_000);
        assert!(!d.global_stall);
        assert!(!d.gate.any_gated());
        assert!(!p.is_sedated(ThreadId(0)));
    }

    #[test]
    fn cool_chip_never_triggers() {
        let mut p = SelectiveSedation::new(cfg(), 2);
        let d = drive(&mut p, 353.0, &[12_000, 3_000], 2_000, 0);
        assert!(!d.gate.any_gated());
        assert!(!d.global_stall);
        assert_eq!(p.sedation_events(), 0);
        assert_eq!(emergencies(&p.take_reports()), 0);
    }

    #[test]
    fn short_burst_below_threshold_is_not_a_false_positive() {
        // A normal thread with a short high-rate burst: as long as the
        // temperature stays below upper, no sedation (this is the paper's
        // argument for temperature-based rather than rate-based triggers).
        let mut p = SelectiveSedation::new(cfg(), 2);
        drive(&mut p, 352.0, &[2_000, 3_000], 500, 0);
        drive(&mut p, 353.5, &[12_000, 3_000], 50, 500_000); // burst, mild warmup
        let d = drive(&mut p, 352.0, &[2_000, 3_000], 100, 550_000);
        assert!(!d.gate.any_gated());
        assert_eq!(p.sedation_events(), 0);
    }

    #[test]
    fn emergencies_count_crossings_not_samples() {
        let mut p = SelectiveSedation::new(cfg(), 2);
        drive(&mut p, 359.0, &[5_000, 5_000], 10, 0);
        let mut reports = p.take_reports();
        assert_eq!(emergencies(&reports), 1);
        drive(&mut p, 353.0, &[0, 0], 2, 20_000); // cool below normal
        drive(&mut p, 359.0, &[5_000, 5_000], 10, 30_000);
        reports.extend(p.take_reports());
        assert_eq!(emergencies(&reports), 2);
    }

    #[test]
    #[should_panic(expected = "nthreads")]
    fn zero_threads_rejected() {
        let _ = SelectiveSedation::new(cfg(), 0);
    }

    #[test]
    fn monitors_cover_every_block_not_just_the_regfile() {
        // An attacker hammering a different resource (the FP multiplier)
        // is identified at that block: the mechanism is per-resource, not
        // register-file-specific.
        let mut p = SelectiveSedation::new(cfg(), 2);
        let mut temps = [345.0; NUM_BLOCKS];
        let mut counts = BlockCounts::new();
        counts.add(0, Block::FpMul, 9_000);
        counts.add(1, Block::FpMul, 1_000);
        for i in 0..500u64 {
            p.on_sample(&DtmInput {
                sensor_valid: &crate::policy::ALL_SENSORS_VALID,
                sensor_fresh: true,
                cycle: (i + 1) * 1000,
                block_temps: &temps,
                counts: &counts,
                global_stalled: false,
            });
        }
        temps[Block::FpMul.index()] = 356.4;
        let d = p.on_sample(&DtmInput {
            sensor_valid: &crate::policy::ALL_SENSORS_VALID,
            sensor_fresh: true,
            cycle: 501_000,
            block_temps: &temps,
            counts: &counts,
            global_stalled: false,
        });
        assert!(d.gate.is_gated(ThreadId(0)));
        assert!(!d.gate.is_gated(ThreadId(1)));
        let reports = p.take_reports();
        assert!(reports
            .iter()
            .any(|r| r.kind == ReportKind::Sedated && r.block == Block::FpMul));
    }

    #[test]
    fn two_blocks_hot_with_different_culprits_sedates_both() {
        // Thread 0 hammers the regfile, thread 1 the FP multiplier, and a
        // third thread stays quiet: per-resource attribution catches each
        // culprit at its own resource (and the quiet thread survives
        // because it is the last unsedated one).
        let mut p = SelectiveSedation::new(cfg(), 3);
        let temps_cool = [345.0; NUM_BLOCKS];
        let mut counts = BlockCounts::new();
        counts.add(0, Block::IntReg, 9_000);
        counts.add(1, Block::FpMul, 9_000);
        counts.add(2, Block::IntReg, 500);
        counts.add(2, Block::FpMul, 500);
        for i in 0..500u64 {
            p.on_sample(&DtmInput {
                sensor_valid: &crate::policy::ALL_SENSORS_VALID,
                sensor_fresh: true,
                cycle: (i + 1) * 1000,
                block_temps: &temps_cool,
                counts: &counts,
                global_stalled: false,
            });
        }
        let mut temps = temps_cool;
        temps[Block::IntReg.index()] = 356.4;
        temps[Block::FpMul.index()] = 356.4;
        let d = p.on_sample(&DtmInput {
            sensor_valid: &crate::policy::ALL_SENSORS_VALID,
            sensor_fresh: true,
            cycle: 501_000,
            block_temps: &temps,
            counts: &counts,
            global_stalled: false,
        });
        assert!(d.gate.is_gated(ThreadId(0)), "regfile culprit gated");
        assert!(d.gate.is_gated(ThreadId(1)), "fp-mul culprit gated");
        assert!(!d.gate.is_gated(ThreadId(2)), "innocent thread free");
    }
}
