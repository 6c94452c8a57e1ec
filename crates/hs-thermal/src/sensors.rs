//! Temperature-sensor modelling: quantization, offset, noise, and faults.
//!
//! Real on-die thermal sensors are imprecise — which is exactly why the
//! paper (following Brooks & Martonosi) sets DTM triggers *below* the true
//! emergency temperature: "we borrow from \[1\] and adjust the temperature
//! sensors to trigger at a temperature slightly below the emergency
//! temperature". This module lets the simulator expose realistic readings
//! to the DTM policies so that margin can be evaluated.
//!
//! Beyond the benign error model, a [`SensorFaultPlan`] can inject
//! stuck-at, dropout, drift, spike, and delayed-update faults into
//! individual block sensors ([`SensorBank::read_at`]); a bank with an
//! empty plan reads exactly as the benign model alone.
//!
//! Noise and spike timing are generated with a deterministic xorshift PRNG
//! so simulations remain reproducible.

use crate::block::NUM_BLOCKS;
use crate::config::ConfigError;
use crate::faults::{
    SensorFaultKind, SensorFaultPlan, SensorFrame, MAX_DELAY_READINGS, MAX_SENSOR_FAULTS,
};
use crate::network::ThermalNetwork;
use crate::rng::XorShift64;

/// Sensor error model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorConfig {
    /// Gaussian-ish noise amplitude (K); each reading is perturbed by a
    /// uniform sample in `[-noise_k, +noise_k]` (a bounded approximation
    /// of sensor noise).
    pub noise_k: f64,
    /// Systematic offset (K), e.g. from sensor placement away from the
    /// true hot spot.
    pub offset_k: f64,
    /// Quantization step (K); 0 disables quantization. Digital thermal
    /// sensors typically report in 0.25–1 K steps.
    pub quantization_k: f64,
    /// PRNG seed.
    pub seed: u64,
}

impl Default for SensorConfig {
    fn default() -> Self {
        // Ideal sensors: the paper's evaluation assumes the margin between
        // the upper threshold and the emergency absorbs sensor error.
        SensorConfig {
            noise_k: 0.0,
            offset_k: 0.0,
            quantization_k: 0.0,
            seed: 0x5eed_0001,
        }
    }
}

impl SensorConfig {
    /// A realistic digital sensor: ±0.5 K noise, 0.25 K quantization.
    #[must_use]
    pub fn realistic() -> Self {
        SensorConfig {
            noise_k: 0.5,
            offset_k: 0.0,
            quantization_k: 0.25,
            seed: 0x5eed_0001,
        }
    }

    /// Validates the model.
    ///
    /// # Errors
    ///
    /// Returns an error on negative noise or quantization, or a non-finite
    /// offset.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        if self.noise_k.is_nan() || self.noise_k < 0.0 {
            return Err(ConfigError::new("noise_k", "noise must be non-negative"));
        }
        if self.quantization_k.is_nan() || self.quantization_k < 0.0 {
            return Err(ConfigError::new(
                "quantization_k",
                "quantization must be non-negative",
            ));
        }
        if !self.offset_k.is_finite() {
            return Err(ConfigError::new("offset_k", "offset must be finite"));
        }
        Ok(())
    }

    /// Validates the model.
    ///
    /// # Panics
    ///
    /// Panics on negative noise or quantization.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

/// A bank of per-block temperature sensors.
#[derive(Debug, Clone)]
pub struct SensorBank {
    cfg: SensorConfig,
    rng: XorShift64,
    plan: SensorFaultPlan,
    fault_rng: XorShift64,
    /// Cumulative drift per plan entry (reset when the window closes).
    drift_accum: [f64; MAX_SENSOR_FAULTS],
    /// Ring buffer of past *benign* readings for delayed-update faults.
    history: [[f64; NUM_BLOCKS]; MAX_DELAY_READINGS],
    history_len: usize,
    history_head: usize,
}

impl SensorBank {
    /// Creates a fault-free bank.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn new(cfg: SensorConfig) -> Self {
        Self::with_faults(cfg, SensorFaultPlan::none())
    }

    /// Creates a bank whose readings pass through `plan`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn with_faults(cfg: SensorConfig, plan: SensorFaultPlan) -> Self {
        Self::try_with_faults(cfg, plan).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a bank, reporting configuration problems as an error.
    ///
    /// # Errors
    ///
    /// Returns an error if the sensor configuration or the fault plan is
    /// invalid.
    pub fn try_with_faults(cfg: SensorConfig, plan: SensorFaultPlan) -> Result<Self, ConfigError> {
        cfg.try_validate()?;
        plan.try_validate()?;
        Ok(SensorBank {
            cfg,
            rng: XorShift64::new(cfg.seed.max(1)),
            plan,
            fault_rng: XorShift64::new(plan.seed),
            drift_accum: [0.0; MAX_SENSOR_FAULTS],
            history: [[0.0; NUM_BLOCKS]; MAX_DELAY_READINGS],
            history_len: 0,
            history_head: 0,
        })
    }

    /// Benign readings: true temperatures plus offset, noise and
    /// quantization — no faults.
    fn benign(&mut self, net: &ThermalNetwork) -> [f64; NUM_BLOCKS] {
        let mut out = net.block_temps();
        for t in &mut out {
            *t += self.cfg.offset_k;
            if self.cfg.noise_k > 0.0 {
                *t += self.rng.next_unit() * self.cfg.noise_k;
            }
            if self.cfg.quantization_k > 0.0 {
                *t = (*t / self.cfg.quantization_k).round() * self.cfg.quantization_k;
            }
        }
        out
    }

    /// The benign reading from `lag` fresh readings ago (0 = current).
    fn delayed(&self, block: usize, lag: usize) -> f64 {
        let lag = lag.min(self.history_len.saturating_sub(1));
        let idx = (self.history_head + MAX_DELAY_READINGS - 1 - lag) % MAX_DELAY_READINGS;
        self.history[idx][block]
    }

    /// Reads every block's sensor at `cycle`, applying any scheduled
    /// faults on top of the benign error model.
    #[must_use]
    pub fn read_at(&mut self, cycle: u64, net: &ThermalNetwork) -> SensorFrame {
        let benign = self.benign(net);
        // Record history for delayed-update faults.
        self.history[self.history_head] = benign;
        self.history_head = (self.history_head + 1) % MAX_DELAY_READINGS;
        self.history_len = (self.history_len + 1).min(MAX_DELAY_READINGS);

        let mut frame = SensorFrame::all_valid(benign);
        if self.plan.is_empty() {
            return frame;
        }
        let entries: Vec<(usize, crate::faults::SensorFault)> =
            self.plan.faults().copied().enumerate().collect();
        for (slot, fault) in entries {
            if !fault.active(cycle) {
                // Drift is a calibration error: it clears when the fault
                // window ends (the sensor is "recalibrated").
                self.drift_accum[slot] = 0.0;
                continue;
            }
            let i = fault.block.index();
            match fault.kind {
                SensorFaultKind::StuckAt { value_k } => frame.values[i] = value_k,
                SensorFaultKind::Dropout => frame.valid[i] = false,
                SensorFaultKind::Drift { rate_k_per_read } => {
                    self.drift_accum[slot] += rate_k_per_read;
                    frame.values[i] += self.drift_accum[slot];
                }
                SensorFaultKind::Spike {
                    amplitude_k,
                    one_in,
                } => {
                    let roll = self.fault_rng.next_below(one_in.max(1));
                    let sign = if self.fault_rng.next_u64() & 1 == 0 {
                        1.0
                    } else {
                        -1.0
                    };
                    if roll == 0 {
                        frame.values[i] += sign * amplitude_k;
                    }
                }
                SensorFaultKind::Delay { readings } => {
                    frame.values[i] = self.delayed(i, readings as usize);
                }
            }
        }
        frame
    }

    /// The configured error model.
    #[must_use]
    pub fn config(&self) -> &SensorConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, ALL_BLOCKS};
    use crate::config::ThermalConfig;
    use crate::faults::SensorFault;
    use crate::power_vector::PowerVector;

    fn warm_net() -> ThermalNetwork {
        let mut net = ThermalNetwork::new(&ThermalConfig::default());
        let mut p = PowerVector::from_fn(|_| 2.0);
        p.set(Block::IntReg, 3.0);
        net.initialize_steady_state(&p);
        net
    }

    #[test]
    fn ideal_sensors_read_exactly() {
        let net = warm_net();
        let mut bank = SensorBank::new(SensorConfig::default());
        let readings = bank.read_at(0, &net).values;
        for b in ALL_BLOCKS {
            assert_eq!(readings[b.index()], net.block_temp(b));
        }
    }

    #[test]
    fn noise_is_bounded_and_nonzero() {
        let net = warm_net();
        let mut bank = SensorBank::new(SensorConfig {
            noise_k: 0.5,
            ..SensorConfig::default()
        });
        let mut any_diff = false;
        for _ in 0..50 {
            let readings = bank.read_at(0, &net).values;
            for b in ALL_BLOCKS {
                let e = readings[b.index()] - net.block_temp(b);
                assert!(e.abs() <= 0.5 + 1e-9, "noise {e} out of bound");
                if e.abs() > 1e-12 {
                    any_diff = true;
                }
            }
        }
        assert!(any_diff, "noise never perturbed anything");
    }

    #[test]
    fn quantization_snaps_readings() {
        let net = warm_net();
        let mut bank = SensorBank::new(SensorConfig {
            quantization_k: 0.25,
            ..SensorConfig::default()
        });
        for r in bank.read_at(0, &net).values {
            let q = r / 0.25;
            assert!((q - q.round()).abs() < 1e-9, "{r} not on the 0.25 K grid");
        }
    }

    #[test]
    fn offset_shifts_uniformly() {
        let net = warm_net();
        let mut bank = SensorBank::new(SensorConfig {
            offset_k: -1.5,
            ..SensorConfig::default()
        });
        let readings = bank.read_at(0, &net).values;
        for b in ALL_BLOCKS {
            assert!((readings[b.index()] - (net.block_temp(b) - 1.5)).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let net = warm_net();
        let cfg = SensorConfig::realistic();
        let mut a = SensorBank::new(cfg);
        let mut b = SensorBank::new(cfg);
        for _ in 0..10 {
            assert_eq!(a.read_at(0, &net).values, b.read_at(0, &net).values);
        }
    }

    #[test]
    fn empty_plan_is_bit_identical_to_fault_free() {
        let net = warm_net();
        let cfg = SensorConfig::realistic();
        let mut plain = SensorBank::new(cfg);
        let mut planned = SensorBank::with_faults(cfg, SensorFaultPlan::seeded(77));
        for cycle in 0..20u64 {
            let a = plain.read_at(0, &net).values;
            let b = planned.read_at(cycle * 800, &net);
            assert_eq!(a, b.values);
            assert_eq!(b.valid, [true; NUM_BLOCKS]);
        }
    }

    #[test]
    fn stuck_at_pins_the_reading() {
        let net = warm_net();
        let plan = SensorFaultPlan::none().with(SensorFault {
            block: Block::IntReg,
            kind: SensorFaultKind::StuckAt { value_k: 345.0 },
            from_cycle: 1_000,
            until_cycle: 2_000,
        });
        let mut bank = SensorBank::with_faults(SensorConfig::default(), plan);
        assert_ne!(bank.read_at(0, &net).values[Block::IntReg.index()], 345.0);
        assert_eq!(
            bank.read_at(1_500, &net).values[Block::IntReg.index()],
            345.0
        );
        assert_ne!(
            bank.read_at(2_000, &net).values[Block::IntReg.index()],
            345.0
        );
    }

    #[test]
    fn dropout_invalidates_only_the_target() {
        let net = warm_net();
        let plan = SensorFaultPlan::none().with(SensorFault::permanent(
            Block::IntReg,
            SensorFaultKind::Dropout,
            0,
        ));
        let mut bank = SensorBank::with_faults(SensorConfig::default(), plan);
        let frame = bank.read_at(0, &net);
        assert!(!frame.valid[Block::IntReg.index()]);
        for b in ALL_BLOCKS {
            if b != Block::IntReg {
                assert!(frame.valid[b.index()]);
            }
        }
    }

    #[test]
    fn drift_accumulates_then_clears() {
        let net = warm_net();
        let plan = SensorFaultPlan::none().with(SensorFault {
            block: Block::IntReg,
            kind: SensorFaultKind::Drift {
                rate_k_per_read: 0.5,
            },
            from_cycle: 0,
            until_cycle: 10,
        });
        let mut bank = SensorBank::with_faults(SensorConfig::default(), plan);
        let truth = net.block_temp(Block::IntReg);
        let r1 = bank.read_at(0, &net).values[Block::IntReg.index()];
        let r2 = bank.read_at(1, &net).values[Block::IntReg.index()];
        assert!((r1 - truth - 0.5).abs() < 1e-9);
        assert!((r2 - truth - 1.0).abs() < 1e-9);
        // Window closed: recalibrated.
        let r3 = bank.read_at(10, &net).values[Block::IntReg.index()];
        assert!((r3 - truth).abs() < 1e-9);
    }

    #[test]
    fn delay_reports_stale_values() {
        let cfg = ThermalConfig::default();
        let mut net = ThermalNetwork::new(&cfg);
        net.initialize_steady_state(&PowerVector::zero());
        let plan = SensorFaultPlan::none().with(SensorFault::permanent(
            Block::IntReg,
            SensorFaultKind::Delay { readings: 2 },
            0,
        ));
        let mut bank = SensorBank::with_faults(SensorConfig::default(), plan);
        let mut p = PowerVector::zero();
        let mut past = Vec::new();
        for step in 0..6u64 {
            p.set(Block::IntReg, step as f64); // ramp the true temperature
            net.step(0.002, &p);
            past.push(net.block_temp(Block::IntReg));
            let frame = bank.read_at(step, &net);
            if step >= 2 {
                let want = past[step as usize - 2];
                assert!(
                    (frame.values[Block::IntReg.index()] - want).abs() < 1e-9,
                    "step {step}: got {}, want {want}",
                    frame.values[Block::IntReg.index()]
                );
            }
        }
    }

    #[test]
    fn spikes_are_deterministic_for_a_seed() {
        let net = warm_net();
        let plan = SensorFaultPlan::seeded(42).with(SensorFault::permanent(
            Block::IntReg,
            SensorFaultKind::Spike {
                amplitude_k: 20.0,
                one_in: 3,
            },
            0,
        ));
        let mut a = SensorBank::with_faults(SensorConfig::default(), plan);
        let mut b = SensorBank::with_faults(SensorConfig::default(), plan);
        let mut spiked = false;
        for cycle in 0..100u64 {
            let fa = a.read_at(cycle, &net);
            let fb = b.read_at(cycle, &net);
            assert_eq!(fa, fb);
            if (fa.values[Block::IntReg.index()] - net.block_temp(Block::IntReg)).abs() > 1.0 {
                spiked = true;
            }
        }
        assert!(spiked, "a 1-in-3 spike fault never fired in 100 readings");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_noise_rejected() {
        let _ = SensorBank::new(SensorConfig {
            noise_k: -1.0,
            ..SensorConfig::default()
        });
    }

    #[test]
    fn try_constructor_reports_errors() {
        let bad = SensorConfig {
            quantization_k: -0.25,
            ..SensorConfig::default()
        };
        let err = SensorBank::try_with_faults(bad, SensorFaultPlan::none()).unwrap_err();
        assert!(err.to_string().contains("quantization"));
    }
}
