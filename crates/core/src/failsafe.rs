//! The fault-tolerant DTM: selective sedation with a graceful-degradation
//! ladder.
//!
//! Selective sedation is only as good as its temperature inputs. A
//! stuck-low hot-spot sensor blinds it completely — the attacker heats the
//! register file with no threshold ever tripping — while a stuck-high one
//! keeps the pipeline permanently stalled. [`FaultTolerantDtm`] wraps
//! [`SelectiveSedation`] behind a [`SensorGuard`] and degrades in three
//! rungs:
//!
//! 1. **Selective** — all sensors trusted: run the paper's mechanism
//!    unchanged on the guard's *voted* temperatures.
//! 2. **Fallback** — at least one sensor `Failed`: selective attribution is
//!    no longer safe (the failed block's temperature is unknown), so switch
//!    to a global stop-and-go driven by **worst-case temperature
//!    estimates**. An untrusted block's estimate rises at the configured
//!    maximum physical heating rate while the pipeline runs and decays at a
//!    conservative minimum cooling rate while it stalls; trusted blocks use
//!    their guarded readings. Because the estimate is an upper bound on the
//!    true temperature (the true block cannot heat faster than
//!    `P_max / C_block`), stalling when the estimate reaches the emergency
//!    threshold bounds the *true* peak temperature at the emergency even
//!    with the sensor lying. The price is a duty-cycled pipeline — graceful
//!    degradation, not correctness loss.
//! 3. **Halt** — fewer than [`FailsafeConfig::quorum`] trusted sensors
//!    remain: the watchdog cannot bound anything anymore and hard-halts
//!    fetch until quorum returns.
//!
//! Every rung transition is reported to the OS ([`ReportKind`]).

use crate::config::SedationConfig;
use crate::guard::{GuardConfig, SensorGuard};
use crate::latch::{EmergencyLatch, LatchState};
use crate::policy::{DtmDecision, DtmInput, ThermalPolicy};
use crate::report::{OsReport, ReportKind};
use crate::sedation::SelectiveSedation;
use hs_cpu::pipeline::FetchGate;
use hs_thermal::{Block, ALL_BLOCKS, NUM_BLOCKS};

/// Configuration of the fault-tolerant DTM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailsafeConfig {
    /// The wrapped selective-sedation policy.
    pub sedation: SedationConfig,
    /// The hardened sensor front-end.
    pub guard: GuardConfig,
    /// Worst-case heating rate of any block while the pipeline runs
    /// (K/cycle). Derive from `ThermalConfig::max_heating_rate` and the
    /// clock frequency; it must upper-bound the real physics for the
    /// fallback's safety argument to hold.
    pub heat_rate_k_per_cycle: f64,
    /// Guaranteed minimum cooling rate while the pipeline is stalled
    /// (K/cycle). Derive from `ThermalConfig::min_cooling_rate`; it must
    /// lower-bound the real physics.
    pub cool_rate_k_per_cycle: f64,
    /// Minimum number of trusted sensors to keep the pipeline running at
    /// all. Below this the watchdog halts fetch.
    pub quorum: usize,
}

impl Default for FailsafeConfig {
    fn default() -> Self {
        FailsafeConfig {
            sedation: SedationConfig::default(),
            guard: GuardConfig::default(),
            // Conservative placeholder rates (per-cycle at 4 GHz); the
            // simulator derives the real bounds from its thermal constants.
            heat_rate_k_per_cycle: 1.0e-6,
            cool_rate_k_per_cycle: 1.0e-8,
            quorum: NUM_BLOCKS / 2,
        }
    }
}

impl FailsafeConfig {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns an error if any sub-configuration, rate, or the quorum is
    /// invalid.
    pub fn try_validate(&self) -> Result<(), crate::ConfigError> {
        self.sedation.try_validate()?;
        self.guard.try_validate()?;
        if self.heat_rate_k_per_cycle.is_nan() || self.heat_rate_k_per_cycle <= 0.0 {
            return Err(crate::ConfigError::new(
                "heat_rate_k_per_cycle",
                "worst-case heating rate must be positive",
            ));
        }
        if self.cool_rate_k_per_cycle.is_nan() || self.cool_rate_k_per_cycle <= 0.0 {
            return Err(crate::ConfigError::new(
                "cool_rate_k_per_cycle",
                "minimum cooling rate must be positive",
            ));
        }
        if self.quorum == 0 || self.quorum > NUM_BLOCKS {
            return Err(crate::ConfigError::new(
                "quorum",
                "quorum must be in 1..=NUM_BLOCKS",
            ));
        }
        Ok(())
    }

    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics if any sub-configuration, rate, or the quorum is invalid.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

/// Which rung of the degradation ladder the policy is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailsafeMode {
    /// All sensors trusted; selective sedation active.
    #[default]
    Selective,
    /// At least one sensor failed; worst-case stop-and-go active.
    Fallback,
    /// Sensor quorum lost; fetch halted.
    Halt,
}

/// Selective sedation hardened against sensor and counter faults.
#[derive(Debug, Clone)]
pub struct FaultTolerantDtm {
    cfg: FailsafeConfig,
    guard: SensorGuard,
    inner: SelectiveSedation,
    mode: FailsafeMode,
    /// Worst-case temperature bound per block (K). Re-anchored to the
    /// guarded reading whenever the block's sensor is trusted; integrated
    /// at the configured worst-case rates while it is not.
    estimate: [f64; NUM_BLOCKS],
    trusted: [bool; NUM_BLOCKS],
    /// Latest guarded (voted/held) temperatures, fed to the inner policy.
    guarded_temps: [f64; NUM_BLOCKS],
    have_frame: bool,
    last_cycle: u64,
    /// The stall our *previous* decision requested (what the pipeline did
    /// between then and now — determines whether blocks heated or cooled).
    prev_stall: bool,
    /// The fallback's stop-and-go over one chip-wide reading: the hottest
    /// worst-case bound, filed on `IntReg`.
    fallback: EmergencyLatch,
    reports: Vec<OsReport>,
}

impl FaultTolerantDtm {
    /// Creates the policy for `nthreads` hardware contexts.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `nthreads` out of range.
    #[must_use]
    pub fn new(cfg: FailsafeConfig, nthreads: usize) -> Self {
        cfg.validate();
        FaultTolerantDtm {
            cfg,
            guard: SensorGuard::new(cfg.guard),
            inner: SelectiveSedation::new(cfg.sedation, nthreads),
            mode: FailsafeMode::Selective,
            estimate: [0.0; NUM_BLOCKS],
            trusted: [true; NUM_BLOCKS],
            guarded_temps: [0.0; NUM_BLOCKS],
            have_frame: false,
            last_cycle: 0,
            prev_stall: false,
            fallback: EmergencyLatch::default(),
            reports: Vec::new(),
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &FailsafeConfig {
        &self.cfg
    }

    /// Current rung of the degradation ladder.
    #[must_use]
    pub fn mode(&self) -> FailsafeMode {
        self.mode
    }

    /// The current worst-case temperature bound for one block (K).
    #[must_use]
    pub fn worst_case_estimate(&self, block: Block) -> f64 {
        self.estimate[block.index()]
    }

    fn chip_report(&mut self, cycle: u64, kind: ReportKind, temperature_k: f64) {
        self.reports.push(OsReport {
            cycle,
            thread: None,
            block: Block::IntReg,
            kind,
            weighted_avg: None,
            temperature_k,
        });
    }

    fn enter_mode(&mut self, mode: FailsafeMode, cycle: u64, temp: f64) {
        if self.mode == mode {
            return;
        }
        let kind = match (self.mode, mode) {
            (_, FailsafeMode::Halt) => Some(ReportKind::WatchdogHalt),
            (FailsafeMode::Halt, _) => Some(ReportKind::WatchdogResumed),
            (_, FailsafeMode::Fallback) => Some(ReportKind::FallbackEngaged),
            (FailsafeMode::Fallback, FailsafeMode::Selective) => Some(ReportKind::FallbackReleased),
            _ => None,
        };
        // Leaving Halt for Fallback still means fallback is (re-)engaged.
        if let Some(k) = kind {
            self.chip_report(cycle, k, temp);
        }
        if self.mode == FailsafeMode::Halt && mode == FailsafeMode::Fallback {
            self.chip_report(cycle, ReportKind::FallbackEngaged, temp);
        }
        self.mode = mode;
        if mode != FailsafeMode::Fallback {
            self.fallback = EmergencyLatch::default();
        }
    }
}

impl ThermalPolicy for FaultTolerantDtm {
    fn name(&self) -> &'static str {
        "failsafe"
    }

    fn on_sample(&mut self, input: &DtmInput<'_>) -> DtmDecision {
        let cycle = input.cycle;
        let dt = cycle.saturating_sub(self.last_cycle) as f64;
        self.last_cycle = cycle;

        // Advance the worst-case bounds over the interval the previous
        // decision governed: running blocks may have heated at up to the
        // maximum rate; a stalled pipeline cools at no less than the
        // minimum rate (floored at the normal operating temperature, below
        // which the bound never needs to go).
        let floor = self.cfg.sedation.thresholds.normal_k;
        for e in &mut self.estimate {
            if self.prev_stall {
                *e = (*e - self.cfg.cool_rate_k_per_cycle * dt).max(floor);
            } else {
                *e += self.cfg.heat_rate_k_per_cycle * dt;
            }
        }

        // Fold in a fresh sensor frame when one arrived.
        if input.sensor_fresh {
            let frame = self
                .guard
                .observe(cycle, input.block_temps, input.sensor_valid);
            for ev in self.guard.take_events() {
                self.reports.push(OsReport {
                    cycle: ev.cycle,
                    thread: None,
                    block: ev.block,
                    kind: ev.kind,
                    weighted_avg: None,
                    temperature_k: ev.reading_k,
                });
            }
            for b in ALL_BLOCKS {
                let i = b.index();
                self.trusted[i] = frame.trusted[i];
                if frame.trusted[i] {
                    // Re-anchor the bound to the guarded reading.
                    self.estimate[i] = frame.temps[i];
                }
                // Guarded temps reach the inner policy via `input` below.
            }
            if !self.have_frame {
                self.have_frame = true;
            }
            // Stash the guarded temperatures for the inner policy.
            self.guarded_temps = frame.temps;
        }

        let reference_temp = self.estimate[Block::IntReg.index()];

        // Rung 3: quorum.
        if self.guard.trusted_count() < self.cfg.quorum {
            self.enter_mode(FailsafeMode::Halt, cycle, reference_temp);
            self.prev_stall = true;
            return DtmDecision {
                global_stall: true,
                gate: FetchGate::open(),
            };
        }

        // Rung 2: any failed sensor → worst-case stop-and-go.
        if self.trusted.iter().any(|&t| !t) {
            self.enter_mode(FailsafeMode::Fallback, cycle, reference_temp);
            let hottest = self
                .estimate
                .iter()
                .fold(f64::NEG_INFINITY, |a, &b| a.max(b));
            let mut chip = [f64::NEG_INFINITY; NUM_BLOCKS];
            chip[Block::IntReg.index()] = hottest;
            let state = self.fallback.observe(
                &self.cfg.sedation.thresholds,
                cycle,
                &chip,
                &mut self.reports,
            );
            if state == LatchState::Released {
                self.chip_report(cycle, ReportKind::SafetyNetReleased, hottest);
            }
            self.prev_stall = state == LatchState::Engaged;
            return DtmDecision {
                global_stall: self.prev_stall,
                gate: FetchGate::open(),
            };
        }

        // Rung 1: all trusted → the paper's mechanism on voted readings.
        self.enter_mode(FailsafeMode::Selective, cycle, reference_temp);
        let temps = if self.have_frame {
            &self.guarded_temps
        } else {
            input.block_temps
        };
        let decision = self.inner.on_sample(&DtmInput {
            cycle,
            block_temps: temps,
            sensor_valid: input.sensor_valid,
            sensor_fresh: input.sensor_fresh,
            counts: input.counts,
            global_stalled: input.global_stalled,
        });
        self.prev_stall = decision.global_stall;
        decision
    }

    fn take_reports(&mut self) -> Vec<OsReport> {
        let mut out = std::mem::take(&mut self.reports);
        out.extend(self.inner.take_reports());
        out.sort_by_key(|r| r.cycle);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::BlockCounts;
    use crate::policy::ALL_SENSORS_VALID;
    use hs_cpu::ThreadId;

    const REG: Block = Block::IntReg;

    fn cfg() -> FailsafeConfig {
        FailsafeConfig {
            sedation: SedationConfig {
                cooling_time_cycles: 10_000,
                ..SedationConfig::default()
            },
            // Rates sized so the fallback dynamics play out within a few
            // thousand cycles in these unit tests.
            heat_rate_k_per_cycle: 2.0e-3,
            cool_rate_k_per_cycle: 5.0e-4,
            quorum: 6,
            ..FailsafeConfig::default()
        }
    }

    struct Driver {
        p: FaultTolerantDtm,
        cycle: u64,
        last: DtmDecision,
    }

    impl Driver {
        fn new(p: FaultTolerantDtm) -> Self {
            Driver {
                p,
                cycle: 0,
                last: DtmDecision::default(),
            }
        }

        /// One 1000-cycle sample with a fresh sensor frame.
        fn step(&mut self, temps: &[f64; NUM_BLOCKS], valid: &[bool; NUM_BLOCKS], rates: &[u64]) {
            self.cycle += 1000;
            let mut counts = BlockCounts::new();
            for (t, &r) in rates.iter().enumerate() {
                counts.add(t, REG, r);
            }
            self.last = self.p.on_sample(&DtmInput {
                cycle: self.cycle,
                block_temps: temps,
                sensor_valid: valid,
                sensor_fresh: true,
                counts: &counts,
                global_stalled: self.last.global_stall,
            });
        }
    }

    /// Block temperatures that evolve slightly every step (as real RC
    /// dynamics do) so the guard's stuck detector sees live sensors.
    fn temps(step: u64, reg: f64) -> [f64; NUM_BLOCKS] {
        let mut v = [0.0; NUM_BLOCKS];
        for (i, t) in v.iter_mut().enumerate() {
            *t = 346.0 + i as f64 * 0.4 + step as f64 * 1e-4;
        }
        v[REG.index()] = reg + step as f64 * 1e-4;
        v
    }

    #[test]
    fn healthy_sensors_behave_like_selective_sedation() {
        let mut d = Driver::new(FaultTolerantDtm::new(cfg(), 2));
        for s in 0..500 {
            d.step(&temps(s, 350.0), &ALL_SENSORS_VALID, &[10_000, 3_000]);
        }
        assert_eq!(d.p.mode(), FailsafeMode::Selective);
        // Ramp across the upper threshold within the guard's rate bound;
        // median-of-3 voting adopts the crossing one update later.
        for (i, s) in (500..506).enumerate() {
            d.step(
                &temps(s, 350.0 + i as f64 * 1.5),
                &ALL_SENSORS_VALID,
                &[10_000, 3_000],
            );
        }
        assert!(d.last.gate.is_gated(ThreadId(0)), "culprit sedated");
        assert!(!d.last.gate.is_gated(ThreadId(1)));
        assert!(!d.last.global_stall);
    }

    #[test]
    fn stuck_low_hot_spot_sensor_engages_fallback_and_bounds_temperature() {
        let mut d = Driver::new(FaultTolerantDtm::new(cfg(), 2));
        for s in 0..20 {
            d.step(&temps(s, 354.0), &ALL_SENSORS_VALID, &[10_000, 3_000]);
        }
        // The hot-spot sensor latches at 300 K while the attacker hammers.
        let mut engaged = false;
        let mut stalled_some = false;
        let mut ran_some = false;
        for s in 20..2_000 {
            d.step(&temps(s, 300.0), &ALL_SENSORS_VALID, &[10_000, 3_000]);
            if d.p.mode() == FailsafeMode::Fallback {
                engaged = true;
                // The worst-case bound must never exceed the emergency by
                // more than one heating step between samples.
                let bound = d.p.worst_case_estimate(REG);
                assert!(
                    bound <= 358.5 + 2.0e-3 * 1000.0 + 1e-9,
                    "bound ran away: {bound}"
                );
                if d.last.global_stall {
                    stalled_some = true;
                } else {
                    ran_some = true;
                }
            }
        }
        assert!(engaged, "fallback must engage on a failed hot-spot sensor");
        assert!(stalled_some, "fallback must duty-cycle: some stall");
        assert!(ran_some, "fallback must duty-cycle: some progress");
        let reports = d.p.take_reports();
        assert!(reports.iter().any(|r| r.kind == ReportKind::SensorFailed));
        assert!(reports
            .iter()
            .any(|r| r.kind == ReportKind::FallbackEngaged));
    }

    #[test]
    fn quorum_loss_halts_and_recovers() {
        let mut d = Driver::new(FaultTolerantDtm::new(cfg(), 2));
        for s in 0..10 {
            d.step(&temps(s, 350.0), &ALL_SENSORS_VALID, &[5_000, 3_000]);
        }
        // 8 of 12 sensors drop out: trusted count falls to 4 < quorum 6.
        let mut valid = ALL_SENSORS_VALID;
        for v in valid.iter_mut().take(8) {
            *v = false;
        }
        for s in 10..60 {
            d.step(&temps(s, 350.0), &valid, &[5_000, 3_000]);
        }
        assert_eq!(d.p.mode(), FailsafeMode::Halt);
        assert!(d.last.global_stall, "watchdog must halt fetch");
        // Sensors come back; after the recovery hysteresis the halt lifts.
        let mut s = 60;
        while d.p.mode() == FailsafeMode::Halt && s < 600 {
            d.step(&temps(s, 350.0), &ALL_SENSORS_VALID, &[5_000, 3_000]);
            s += 1;
        }
        assert_ne!(d.p.mode(), FailsafeMode::Halt, "halt must lift");
        let reports = d.p.take_reports();
        assert!(reports.iter().any(|r| r.kind == ReportKind::WatchdogHalt));
        assert!(reports
            .iter()
            .any(|r| r.kind == ReportKind::WatchdogResumed));
    }

    #[test]
    fn fallback_releases_when_sensor_recovers() {
        let mut d = Driver::new(FaultTolerantDtm::new(cfg(), 2));
        for s in 0..10 {
            d.step(&temps(s, 354.0), &ALL_SENSORS_VALID, &[5_000, 3_000]);
        }
        // Transient dropout long enough to fail the sensor…
        let mut valid = ALL_SENSORS_VALID;
        valid[REG.index()] = false;
        for s in 10..30 {
            d.step(&temps(s, 354.0), &valid, &[5_000, 3_000]);
        }
        assert_eq!(d.p.mode(), FailsafeMode::Fallback);
        // …then it heals; trust returns after the hysteresis.
        let mut s = 30;
        while d.p.mode() == FailsafeMode::Fallback && s < 600 {
            d.step(&temps(s, 354.0), &ALL_SENSORS_VALID, &[5_000, 3_000]);
            s += 1;
        }
        assert_eq!(d.p.mode(), FailsafeMode::Selective);
        assert!(d
            .p
            .take_reports()
            .iter()
            .any(|r| r.kind == ReportKind::FallbackReleased));
    }

    #[test]
    fn reports_are_cycle_ordered() {
        let mut d = Driver::new(FaultTolerantDtm::new(cfg(), 2));
        for s in 0..40 {
            let reg = if s < 20 { 354.0 } else { 300.0 };
            d.step(&temps(s, reg), &ALL_SENSORS_VALID, &[10_000, 3_000]);
        }
        let reports = d.p.take_reports();
        assert!(reports.windows(2).all(|w| w[0].cycle <= w[1].cycle));
    }

    #[test]
    #[should_panic(expected = "quorum")]
    fn zero_quorum_rejected() {
        let bad = FailsafeConfig {
            quorum: 0,
            ..FailsafeConfig::default()
        };
        let _ = FaultTolerantDtm::new(bad, 2);
    }
}
