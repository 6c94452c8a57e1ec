//! Whole-simulation configuration.

use crate::admission::AdmissionMode;
use hs_core::{ConfigError, CounterFaultPlan, FailsafeConfig, RateCapConfig, SedationConfig};
use hs_cpu::{CpuConfig, Resource};
use hs_mem::MemConfig;
use hs_power::{EnergyTable, PowerModel};
use hs_thermal::{Block, SensorConfig, SensorFaultPlan, ThermalConfig};

/// Which DTM mechanism supervises the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// No DTM at all (only meaningful with [`HeatSink::Ideal`]).
    None,
    /// The stop-and-go baseline (global clock gating).
    StopAndGo,
    /// A DVS-like baseline: half-speed global throttling while hot.
    GlobalDvfs,
    /// The strawman the paper rejects: absolute access-rate policing with
    /// no temperature input (kept for the failure-mode experiments).
    RateCap,
    /// The paper's contribution.
    SelectiveSedation,
    /// Selective sedation hardened against sensor/counter faults: voted
    /// readings, per-sensor health tracking, and a worst-case stop-and-go
    /// fallback (see `hs_core::FaultTolerantDtm`).
    FaultTolerant,
}

impl PolicyKind {
    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::None => "none",
            PolicyKind::StopAndGo => "stop-and-go",
            PolicyKind::GlobalDvfs => "global-dvfs",
            PolicyKind::RateCap => "rate-cap",
            PolicyKind::SelectiveSedation => "sedation",
            PolicyKind::FaultTolerant => "failsafe",
        }
    }
}

/// How the measured quantum is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Every cycle is simulated by the pipeline model. The reference mode
    /// and the default; all committed `results/` renderings use it.
    #[default]
    CycleAccurate,
    /// Interval mode (DESIGN.md §3d): spans where every context sits in a
    /// confirmed stable phase, far from any DTM decision boundary, are
    /// fast-forwarded analytically — architectural counters extrapolated
    /// from the measured phase profile, thermal state advanced in closed
    /// form — and execution drops back to cycle level near threshold
    /// crossings, DTM state changes, fault events, and phase changes.
    Interval,
}

impl ExecMode {
    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::CycleAccurate => "cycle",
            ExecMode::Interval => "interval",
        }
    }
}

/// Tuning for [`ExecMode::Interval`]. Every other interval-mode value is
/// a constant at the accuracy contract's operating point (DESIGN.md §3d).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalConfig {
    /// Consecutive monitor samples folded into one phase-detector
    /// observation (1 = per-sample matching). A workload whose loop
    /// structure is *longer* than a sample period never looks stationary
    /// sample-to-sample — consecutive samples land in different parts of
    /// the loop — but an aggregate spanning several loop iterations
    /// converges to the loop mean and matches reliably. Credited
    /// aggregates are spread back over their constituent sample periods
    /// with the same drift-free Bresenham rounding the detector uses, so
    /// long-run counts still track the measured mean exactly; what is
    /// given up is *intra-aggregate* thermal texture, which the thermal
    /// guard band makes safe: any block near `normal_k` forces cycle level
    /// regardless of aggregation, so every temperature near a DTM decision
    /// is still reached cycle-accurately. The confirmation window and the
    /// skip allowance (`hs_cpu::IntervalDriver`) count aggregates.
    pub aggregate_samples: u64,
}

impl Default for IntervalConfig {
    fn default() -> Self {
        IntervalConfig {
            aggregate_samples: 1,
        }
    }
}

impl IntervalConfig {
    /// Validates the tuning.
    ///
    /// # Errors
    ///
    /// Returns an error for an aggregate of zero samples.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        if self.aggregate_samples == 0 {
            return Err(ConfigError::new(
                "interval.aggregate_samples",
                "aggregation must cover at least one sample",
            ));
        }
        Ok(())
    }
}

/// Fault-injection schedules for one run. Empty by default; an empty
/// configuration leaves the simulator bit-identical to a fault-free build.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultConfig {
    /// Faults injected into the per-block temperature sensors.
    pub sensors: SensorFaultPlan,
    /// Faults injected into the per-thread access counters.
    pub counters: CounterFaultPlan,
}

impl FaultConfig {
    /// No faults.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether both schedules are empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sensors.is_empty() && self.counters.is_empty()
    }

    /// Total number of scheduled faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sensors.len() + self.counters.len()
    }
}

/// The package model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeatSink {
    /// An ideal sink with infinite heat-removal rate: temperatures never
    /// rise, so DTM never engages. Used to isolate ICOUNT/fetch effects
    /// from power-density effects (Figure 5's first configuration).
    Ideal,
    /// The realistic air-cooled package of Table 1 (0.8 K/W convection).
    Realistic,
}

impl HeatSink {
    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HeatSink::Ideal => "ideal",
            HeatSink::Realistic => "realistic",
        }
    }
}

/// Full simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Pipeline parameters.
    pub cpu: CpuConfig,
    /// Memory-hierarchy parameters.
    pub mem: MemConfig,
    /// Per-access energies and idle powers.
    pub energy: EnergyTable,
    /// Thermal network parameters (time-scaled).
    pub thermal: ThermalConfig,
    /// Selective-sedation parameters (thresholds are shared with
    /// stop-and-go; time-scaled).
    pub sedation: SedationConfig,
    /// Clock frequency in hertz (Table 1: 4 GHz).
    pub freq_hz: f64,
    /// Measured quantum length in cycles (paper: 500 M = one OS quantum).
    pub quantum_cycles: u64,
    /// Un-measured cache warm-up cycles run before the quantum (the paper's
    /// SPEC checkpoints start warm; our synthetic programs must fill the
    /// caches first).
    pub warmup_cycles: u64,
    /// Temperature-sensor period in cycles (paper: 20 000).
    pub sensor_interval_cycles: u64,
    /// Sensor error model (ideal by default; see
    /// [`SensorConfig::realistic`]).
    pub sensors: SensorConfig,
    /// Parameters for the rate-cap strawman policy (only used with
    /// [`PolicyKind::RateCap`]; its penalty is time-scaled and its monitor
    /// period is `sedation.sample_period_cycles`, the cadence every policy
    /// is sampled at).
    pub rate_cap: RateCapConfig,
    /// Fault-injection schedules (empty by default).
    pub faults: FaultConfig,
    /// Static admission screening mode ([`AdmissionMode::Off`] by default,
    /// so the paper's figures are unaffected).
    pub admission: AdmissionMode,
    /// Execution engine for the measured quantum
    /// ([`ExecMode::CycleAccurate`] by default, so every committed result
    /// is untouched by interval mode).
    pub exec: ExecMode,
    /// Interval-mode tuning (only consulted under [`ExecMode::Interval`]).
    pub interval: IntervalConfig,
    /// The time-scale factor this configuration was derived with.
    pub time_scale: f64,
}

impl SimConfig {
    /// The paper's full-fidelity configuration: 4 GHz, 500 M-cycle quantum,
    /// 20 k-cycle sensors, physical thermal constants.
    #[must_use]
    pub fn paper() -> Self {
        SimConfig {
            cpu: CpuConfig::default(),
            mem: MemConfig::default(),
            energy: EnergyTable::default(),
            thermal: ThermalConfig::default(),
            sedation: SedationConfig::default(),
            freq_hz: 4.0e9,
            quantum_cycles: 500_000_000,
            warmup_cycles: 4_000_000,
            sensor_interval_cycles: 20_000,
            sensors: SensorConfig::default(),
            rate_cap: RateCapConfig::default(),
            faults: FaultConfig::none(),
            admission: AdmissionMode::Off,
            exec: ExecMode::CycleAccurate,
            interval: IntervalConfig::default(),
            time_scale: 1.0,
        }
    }

    /// A time-scaled configuration: every thermal time constant, monitoring
    /// period and the quantum divided by `factor`. Dimensionless ratios —
    /// heat-up : cool-down : quantum — are preserved, so the paper's
    /// dynamics replay inside a `factor`× shorter simulation.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1`.
    #[must_use]
    pub fn scaled(factor: f64) -> Self {
        assert!(factor >= 1.0, "scale factor must be ≥ 1");
        let paper = Self::paper();
        SimConfig {
            thermal: paper.thermal.with_time_scale(factor),
            sedation: paper.sedation.with_time_scale(factor),
            rate_cap: paper.rate_cap.with_time_scale(factor),
            quantum_cycles: ((paper.quantum_cycles as f64 / factor) as u64).max(1),
            sensor_interval_cycles: ((paper.sensor_interval_cycles as f64 / factor) as u64)
                .max(100),
            // Cache warm-up is architectural, not thermal: do not scale it
            // away entirely or large-working-set programs start cold.
            warmup_cycles: 3_000_000,
            time_scale: factor,
            ..paper
        }
    }

    /// The standard experiment configuration used by the benchmark
    /// harness: 25× time scale (20 M-cycle quantum).
    #[must_use]
    pub fn experiment() -> Self {
        Self::scaled(25.0)
    }

    /// Validates cross-field consistency.
    ///
    /// # Errors
    ///
    /// Returns an error if any sub-configuration or the sensor fault plan
    /// is invalid, if the time scale is not a finite number ≥ 1, if the
    /// sensor interval is not a multiple of the monitor sampling period,
    /// or if the quantum is shorter than one sensor interval.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        self.cpu
            .try_validate()
            .map_err(|e| ConfigError::new("cpu", e))?;
        self.mem
            .try_validate()
            .map_err(|e| ConfigError::new("mem", e.to_string()))?;
        self.sedation.try_validate()?;
        self.sensors.try_validate()?;
        self.faults.sensors.try_validate()?;
        self.rate_cap.try_validate()?;
        self.interval.try_validate()?;
        if self.freq_hz.is_nan() || self.freq_hz <= 0.0 {
            return Err(ConfigError::new("freq_hz", "frequency must be positive"));
        }
        if !(self.time_scale.is_finite() && self.time_scale >= 1.0) {
            return Err(ConfigError::new(
                "time_scale",
                "time scale must be a finite number >= 1",
            ));
        }
        if !self
            .sensor_interval_cycles
            .is_multiple_of(self.sedation.sample_period_cycles)
        {
            return Err(ConfigError::new(
                "sensor_interval_cycles",
                format!(
                    "sensor interval ({}) must be a multiple of the monitor period ({})",
                    self.sensor_interval_cycles, self.sedation.sample_period_cycles
                ),
            ));
        }
        if self.quantum_cycles < self.sensor_interval_cycles {
            return Err(ConfigError::new(
                "quantum_cycles",
                "quantum shorter than one sensor interval",
            ));
        }
        Ok(())
    }

    /// Validates cross-field consistency.
    ///
    /// # Panics
    ///
    /// Panics wherever [`SimConfig::try_validate`] returns an error.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// Derives the fault-tolerant DTM configuration from this simulation's
    /// physical constants, so the failsafe's worst-case bounds track the
    /// thermal model (including any time scaling) instead of being
    /// hand-tuned.
    ///
    /// * The worst-case heating rate assumes every register-file port
    ///   switches every cycle (16 accesses/cycle — above anything the
    ///   pipeline can sustain), over the smallest, hottest block.
    /// * The guaranteed cooling rate takes the conservative
    ///   `ThermalConfig::min_cooling_rate` at the normal-to-ambient
    ///   gradient.
    /// * The guard's per-update rate bound is twice the worst-case
    ///   per-update temperature step.
    #[must_use]
    pub fn failsafe(&self) -> FailsafeConfig {
        let model = PowerModel::new(self.energy);
        let area = Block::IntReg.area_m2();
        let worst_watts = model.dynamic_power_at_rate(Resource::IntRegFile, 16.0, self.freq_hz)
            + self.energy.idle(Block::IntReg);
        let heat_rate_k_per_cycle = self.thermal.max_heating_rate(area, worst_watts) / self.freq_hz;
        let gradient = (self.sedation.thresholds.normal_k - self.thermal.ambient_k).max(1.0);
        let cool_rate_k_per_cycle = self.thermal.min_cooling_rate(area, gradient) / self.freq_hz;
        let step_k = heat_rate_k_per_cycle * self.sensor_interval_cycles as f64;
        FailsafeConfig {
            sedation: self.sedation,
            max_step_k: (2.0 * step_k).max(1.0),
            heat_rate_k_per_cycle,
            cool_rate_k_per_cycle,
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::experiment()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid_and_matches_table1() {
        let c = SimConfig::paper();
        c.validate();
        assert_eq!(c.quantum_cycles, 500_000_000);
        assert_eq!(c.sensor_interval_cycles, 20_000);
        assert_eq!(c.freq_hz, 4.0e9);
        assert_eq!(c.thermal.convection_resistance, 0.8);
        assert_eq!(c.cpu.contexts, 2);
    }

    #[test]
    fn scaled_config_preserves_ratios() {
        let c = SimConfig::scaled(25.0);
        c.validate();
        assert_eq!(c.quantum_cycles, 20_000_000);
        assert_eq!(c.sensor_interval_cycles, 800);
        assert_eq!(c.sedation.sample_period_cycles, 50); // clamped minimum
                                                         // Quantum / cooling-time ratio preserved.
        let paper = SimConfig::paper();
        let r_paper = paper.quantum_cycles as f64 / paper.sedation.cooling_time_cycles as f64;
        let r_scaled = c.quantum_cycles as f64 / c.sedation.cooling_time_cycles as f64;
        assert!((r_paper - r_scaled).abs() / r_paper < 0.01);
    }

    #[test]
    #[should_panic(expected = "multiple of the monitor period")]
    fn mismatched_periods_rejected() {
        let mut c = SimConfig::paper();
        c.sensor_interval_cycles = 1500;
        c.sedation.sample_period_cycles = 1000;
        c.validate();
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(PolicyKind::StopAndGo.name(), "stop-and-go");
        assert_eq!(PolicyKind::SelectiveSedation.name(), "sedation");
        assert_eq!(PolicyKind::None.name(), "none");
    }

    #[test]
    fn exec_defaults_to_cycle_accurate() {
        assert_eq!(SimConfig::paper().exec, ExecMode::CycleAccurate);
        assert_eq!(SimConfig::scaled(50.0).exec, ExecMode::CycleAccurate);
        assert_eq!(ExecMode::Interval.name(), "interval");
        assert_eq!(ExecMode::CycleAccurate.name(), "cycle");
    }

    #[test]
    #[should_panic(expected = "aggregation")]
    fn zero_aggregation_rejected() {
        let mut c = SimConfig::paper();
        c.interval.aggregate_samples = 0;
        c.validate();
    }

    #[test]
    fn non_finite_sensor_fault_is_a_config_error() {
        use crate::{HeatSink, SimError, Simulator};
        use hs_thermal::{SensorFault, SensorFaultKind};
        let mut c = SimConfig::scaled(400.0);
        c.faults.sensors = SensorFaultPlan::none().with(SensorFault::permanent(
            Block::IntReg,
            SensorFaultKind::StuckAt { value_k: f64::NAN },
            0,
        ));
        let Err(err) = Simulator::try_new(c, PolicyKind::FaultTolerant, HeatSink::Realistic) else {
            panic!("a NaN stuck-at reading must be rejected");
        };
        assert!(matches!(err, SimError::Config(_)), "got {err}");
    }

    #[test]
    fn a_bad_sensor_value_is_reported_once() {
        use crate::{HeatSink, Simulator};
        let mut c = SimConfig::scaled(400.0);
        c.sensors.noise_k = -1.0;
        let Err(err) = Simulator::try_new(c, PolicyKind::SelectiveSedation, HeatSink::Realistic)
        else {
            panic!("negative sensor noise must be rejected");
        };
        assert_eq!(
            err.to_string(),
            "invalid config `noise_k`: noise must be non-negative"
        );
    }

    #[test]
    fn time_scale_below_one_or_nan_is_a_config_error() {
        use crate::{HeatSink, SimError, Simulator};
        for time_scale in [0.5, f64::NAN] {
            let c = SimConfig {
                time_scale,
                ..SimConfig::scaled(400.0)
            };
            let Err(err) =
                Simulator::try_new(c, PolicyKind::SelectiveSedation, HeatSink::Realistic)
            else {
                panic!("time scale {time_scale} must be rejected");
            };
            assert!(
                matches!(err, SimError::Config(_)),
                "{time_scale}: got {err}"
            );
        }
    }
}
