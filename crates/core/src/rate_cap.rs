//! The strawman defense the paper rejects: policing threads by an
//! **absolute access-rate threshold**.
//!
//! §3.2.1: "policing the threads via an absolute weighted-average
//! threshold would degrade performance significantly due to false
//! positives (i.e., threads with no power-density problems are penalized).
//! Furthermore, raising the weighted-average threshold in order to reduce
//! the performance degradation would enable a malicious thread to inflict
//! heat stroke without being detected."
//!
//! [`RateCap`] implements exactly that policy — sedate any thread whose
//! weighted average exceeds a fixed cap, release it after a fixed penalty
//! period — so the failure mode can be demonstrated experimentally:
//!
//! * a **low cap** catches ordinary bursty benchmarks (false positives),
//! * a **high cap** lets a below-cap attacker (variant3, or a tuned
//!   variant2) heat the register file freely (false negatives).
//!
//! Selective sedation avoids the dilemma by triggering on *temperature*
//! and using the averages only for attribution.

use crate::monitor::{Ewma, EWMA_SHIFT};
use crate::policy::{DtmDecision, DtmInput, ThermalPolicy};
use crate::report::{OsReport, ReportKind};
use hs_cpu::pipeline::FetchGate;
use hs_cpu::{ThreadId, MAX_THREADS};
use hs_thermal::{Block, ALL_BLOCKS, NUM_BLOCKS};

/// Configuration for the rate-cap strawman. Its monitors use the paper's
/// `x = 1/128` weight, and the monitor period is the spacing of the cycles
/// it is sampled at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateCapConfig {
    /// Sedate when a thread's weighted average at any monitored block
    /// exceeds this many accesses **per cycle**.
    pub cap_accesses_per_cycle: f64,
    /// How long a capped thread stays gated, in cycles.
    pub penalty_cycles: u64,
}

impl Default for RateCapConfig {
    fn default() -> Self {
        RateCapConfig {
            cap_accesses_per_cycle: 6.0,
            penalty_cycles: 2_000_000,
        }
    }
}

impl RateCapConfig {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns an error on a non-positive cap or a zero penalty.
    pub fn try_validate(&self) -> Result<(), crate::ConfigError> {
        if self.cap_accesses_per_cycle.is_nan() || self.cap_accesses_per_cycle <= 0.0 {
            return Err(crate::ConfigError::new(
                "cap_accesses_per_cycle",
                "cap must be positive",
            ));
        }
        if self.penalty_cycles == 0 {
            return Err(crate::ConfigError::new(
                "penalty_cycles",
                "penalty must be nonzero",
            ));
        }
        Ok(())
    }

    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive cap or a zero penalty.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// Returns a copy with the penalty divided by `factor`.
    #[must_use]
    pub fn with_time_scale(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0);
        self.penalty_cycles = ((self.penalty_cycles as f64 / factor) as u64).max(1);
        self
    }
}

/// The absolute-rate policing policy.
#[derive(Debug, Clone)]
pub struct RateCap {
    cfg: RateCapConfig,
    nthreads: usize,
    monitors: [[Ewma; NUM_BLOCKS]; MAX_THREADS],
    gated_until: [Option<u64>; MAX_THREADS],
    /// The previous sampling instant: each sample's counts cover the
    /// cycles since it.
    last_cycle: u64,
    false_positive_candidates: u64,
    reports: Vec<OsReport>,
}

impl RateCap {
    /// Creates the policy for `nthreads` contexts.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `nthreads` out of range.
    #[must_use]
    pub fn new(cfg: RateCapConfig, nthreads: usize) -> Self {
        cfg.validate();
        assert!((1..=MAX_THREADS).contains(&nthreads));
        RateCap {
            cfg,
            nthreads,
            monitors: [[Ewma::new(EWMA_SHIFT); NUM_BLOCKS]; MAX_THREADS],
            gated_until: [None; MAX_THREADS],
            last_cycle: 0,
            false_positive_candidates: 0,
            reports: Vec::new(),
        }
    }

    /// Number of cap violations (sedations) so far.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.false_positive_candidates
    }

    /// Whether `thread` is currently gated.
    #[must_use]
    pub fn is_gated(&self, thread: ThreadId, cycle: u64) -> bool {
        self.gated_until[thread.index()].is_some_and(|until| cycle < until)
    }
}

impl ThermalPolicy for RateCap {
    fn name(&self) -> &'static str {
        "rate-cap"
    }

    fn on_sample(&mut self, input: &DtmInput<'_>) -> DtmDecision {
        let cycle = input.cycle;
        let period = cycle.saturating_sub(self.last_cycle);
        self.last_cycle = cycle;
        let cap_per_period = self.cfg.cap_accesses_per_cycle * period as f64;
        let mut gate = FetchGate::open();
        for t in 0..self.nthreads {
            // Expire penalties.
            if self.gated_until[t].is_some_and(|until| cycle >= until) {
                self.gated_until[t] = None;
            }
            let gated = self.gated_until[t].is_some();
            if !gated && !input.global_stalled {
                for b in ALL_BLOCKS {
                    self.monitors[t][b.index()].update(input.counts.get(t, b));
                }
            }
            if !gated {
                // The cap check: *no temperature involved* — that is the
                // whole point of the strawman.
                let over = ALL_BLOCKS
                    .iter()
                    .any(|b| self.monitors[t][b.index()].value() > cap_per_period);
                if over {
                    self.gated_until[t] = Some(cycle + self.cfg.penalty_cycles);
                    self.false_positive_candidates += 1;
                    self.reports.push(OsReport {
                        cycle,
                        thread: Some(ThreadId(t as u8)),
                        block: Block::IntReg,
                        kind: ReportKind::Sedated,
                        weighted_avg: Some(self.monitors[t][Block::IntReg.index()].value()),
                        temperature_k: input.block_temps[Block::IntReg.index()],
                    });
                }
            }
            if self.gated_until[t].is_some() {
                gate.set(ThreadId(t as u8), true);
            }
        }
        DtmDecision {
            global_stall: false,
            gate,
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

    fn cfg() -> RateCapConfig {
        RateCapConfig {
            penalty_cycles: 50_000,
            ..RateCapConfig::default()
        }
    }

    /// Samples `p` `n` times, every `period` cycles from `start`, with
    /// `rates[t]` accesses per sample for thread `t`.
    fn drive_every(p: &mut RateCap, period: u64, rates: &[u64], n: u64, start: u64) -> DtmDecision {
        let temps = [350.0; NUM_BLOCKS];
        let mut d = DtmDecision::default();
        for i in 0..n {
            let cycle = start + (i + 1) * period;
            let mut counts = BlockCounts::new();
            for (t, &r) in rates.iter().enumerate() {
                // Don't keep feeding accesses to a gated thread.
                if !p.is_gated(ThreadId(t as u8), cycle) {
                    counts.add(t, Block::IntReg, r);
                }
            }
            d = p.on_sample(&DtmInput {
                sensor_valid: &crate::policy::ALL_SENSORS_VALID,
                sensor_fresh: true,
                cycle,
                block_temps: &temps,
                counts: &counts,
                global_stalled: false,
            });
        }
        d
    }

    /// [`drive_every`] at the paper's 1000-cycle cadence.
    fn drive(p: &mut RateCap, rates: &[u64], n: u64, start: u64) -> DtmDecision {
        drive_every(p, 1000, rates, n, start)
    }

    #[test]
    fn catches_a_sustained_over_cap_thread() {
        let mut p = RateCap::new(cfg(), 2);
        // 8 accesses/cycle > 6 cap.
        let d = drive(&mut p, &[8_000, 2_000], 600, 0);
        assert!(d.gate.is_gated(ThreadId(0)));
        assert!(!d.gate.is_gated(ThreadId(1)));
        assert!(p.violations() > 0);
    }

    #[test]
    fn false_positive_on_innocent_sustained_burst() {
        // An ordinary high-ILP benchmark phase above the cap gets punished
        // even though the chip is stone cold — the false positive the
        // paper predicts.
        let mut p = RateCap::new(cfg(), 2);
        let d = drive(&mut p, &[7_000, 2_000], 600, 0);
        assert!(
            d.gate.is_gated(ThreadId(0)),
            "the strawman cannot tell hot from merely busy"
        );
    }

    #[test]
    fn false_negative_below_the_cap() {
        // variant3-style attacker: stays below the cap, never detected —
        // while on a real chip it would still be free to ratchet the
        // temperature (detection here sees no temperature at all).
        let mut p = RateCap::new(cfg(), 2);
        let d = drive(&mut p, &[5_500, 2_000], 2_000, 0);
        assert!(!d.gate.any_gated());
        assert_eq!(p.violations(), 0);
    }

    #[test]
    fn penalty_expires() {
        let mut p = RateCap::new(cfg(), 2);
        drive(&mut p, &[8_000, 2_000], 600, 0);
        assert!(p.is_gated(ThreadId(0), 600_000));
        // Far beyond the penalty window, with low rates, the gate lifts.
        let d = drive(&mut p, &[0, 2_000], 600, 10_000_000);
        assert!(!d.gate.is_gated(ThreadId(0)));
    }

    #[test]
    fn the_cap_scales_with_the_sampling_cadence() {
        // Sampled every 500 cycles, a thread averaging 1.5x the cap per
        // cycle is over it and one averaging 0.9x is not.
        let mut p = RateCap::new(cfg(), 2);
        let d = drive_every(&mut p, 500, &[4_500, 2_700], 600, 0);
        assert!(d.gate.is_gated(ThreadId(0)), "1.5x the cap must be gated");
        assert!(!d.gate.is_gated(ThreadId(1)), "0.9x the cap must not be");
    }

    #[test]
    fn never_stalls_globally() {
        let mut p = RateCap::new(cfg(), 2);
        let d = drive(&mut p, &[20_000, 20_000], 100, 0);
        assert!(!d.global_stall);
    }
}
