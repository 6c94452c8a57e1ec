//! Deterministic sensor fault injection.
//!
//! The selective-sedation defense stands or falls on its sensor inputs: a
//! stuck or dropped temperature sensor silently disables the trigger while
//! an attacker keeps heating the die. This module provides a seeded,
//! schedule-driven [`SensorFaultPlan`] that the [`crate::SensorBank`]
//! applies on top of its benign error model (noise/offset/quantization),
//! so "does the defense still hold when the hardware lies?" becomes a
//! first-class, reproducible experiment.
//!
//! Everything here is `Copy` (fixed-capacity schedule, no allocation) so a
//! plan can live inside a `Copy` simulation configuration, and everything
//! stochastic draws from a [`crate::XorShift64`] seeded by the plan — two
//! runs with the same plan are byte-identical.

use crate::block::{Block, NUM_BLOCKS};
use crate::config::ConfigError;

/// Maximum number of scheduled fault windows in one plan.
pub const MAX_SENSOR_FAULTS: usize = 8;

/// How many past readings the bank retains for [`SensorFaultKind::Delay`].
pub const MAX_DELAY_READINGS: usize = 16;

/// The failure mode of one faulty sensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorFaultKind {
    /// The reading is pinned at a fixed value (stuck-at-low / stuck-at-high
    /// data line).
    StuckAt {
        /// The pinned reading (K).
        value_k: f64,
    },
    /// The reading is unavailable (the sensor does not answer).
    Dropout,
    /// The reading accumulates a calibration drift of `rate_k_per_read`
    /// kelvin per fresh reading while the fault is active.
    Drift {
        /// Added error per fresh reading (K); may be negative.
        rate_k_per_read: f64,
    },
    /// Random impulsive errors: roughly one reading in `one_in` is
    /// perturbed by `amplitude_k` (sign alternates via the plan's PRNG).
    Spike {
        /// Impulse magnitude (K).
        amplitude_k: f64,
        /// Expected readings between impulses (≥ 1).
        one_in: u64,
    },
    /// The sensor reports the value it measured `readings` fresh readings
    /// ago (a stale serial-bus / queueing fault). Clamped to
    /// [`MAX_DELAY_READINGS`]` - 1`.
    Delay {
        /// Reporting lag in fresh readings.
        readings: u32,
    },
}

impl SensorFaultKind {
    /// A short stable label for logs and experiment tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SensorFaultKind::StuckAt { .. } => "stuck-at",
            SensorFaultKind::Dropout => "dropout",
            SensorFaultKind::Drift { .. } => "drift",
            SensorFaultKind::Spike { .. } => "spike",
            SensorFaultKind::Delay { .. } => "delay",
        }
    }
}

/// One scheduled fault: a kind, a target sensor, and an active window in
/// cycles (`from_cycle <= cycle < until_cycle`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorFault {
    /// The block whose sensor misbehaves.
    pub block: Block,
    /// The failure mode.
    pub kind: SensorFaultKind,
    /// First cycle at which the fault is active.
    pub from_cycle: u64,
    /// First cycle at which the fault is no longer active (use `u64::MAX`
    /// for a permanent fault).
    pub until_cycle: u64,
}

impl SensorFault {
    /// A fault active from `from_cycle` forever.
    #[must_use]
    pub fn permanent(block: Block, kind: SensorFaultKind, from_cycle: u64) -> Self {
        SensorFault {
            block,
            kind,
            from_cycle,
            until_cycle: u64::MAX,
        }
    }

    /// Whether the fault is active at `cycle`.
    #[must_use]
    pub fn active(&self, cycle: u64) -> bool {
        (self.from_cycle..self.until_cycle).contains(&cycle)
    }
}

/// A seeded, schedule-driven set of sensor faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorFaultPlan {
    /// Seed for the plan's PRNG (spike timing and polarity).
    pub seed: u64,
    entries: [Option<SensorFault>; MAX_SENSOR_FAULTS],
}

impl SensorFaultPlan {
    /// An empty plan: no faults, ever. The sensor bank's behavior with an
    /// empty plan is bit-identical to the fault-free code path.
    #[must_use]
    pub fn none() -> Self {
        SensorFaultPlan {
            seed: 0x0fau64 << 32 | 0x17,
            entries: [None; MAX_SENSOR_FAULTS],
        }
    }

    /// An empty plan with an explicit seed.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        SensorFaultPlan {
            seed,
            ..Self::none()
        }
    }

    /// Adds a fault (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the plan already holds [`MAX_SENSOR_FAULTS`] faults.
    #[must_use]
    pub fn with(mut self, fault: SensorFault) -> Self {
        let slot = self
            .entries
            .iter_mut()
            .find(|e| e.is_none())
            .expect("fault plan full");
        *slot = Some(fault);
        self
    }

    /// Whether the plan schedules no faults at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(Option::is_none)
    }

    /// Iterates over the scheduled faults.
    pub fn faults(&self) -> impl Iterator<Item = &SensorFault> {
        self.entries.iter().flatten()
    }

    /// Number of scheduled faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// Validates every scheduled fault.
    ///
    /// # Errors
    ///
    /// Returns an error on a non-finite stuck-at value, drift rate or
    /// spike amplitude: each would reach the policies as a reading.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        for f in self.faults() {
            match f.kind {
                SensorFaultKind::StuckAt { value_k } if !value_k.is_finite() => {
                    return Err(ConfigError::new("value_k", "stuck-at value must be finite"));
                }
                SensorFaultKind::Drift { rate_k_per_read } if !rate_k_per_read.is_finite() => {
                    return Err(ConfigError::new(
                        "rate_k_per_read",
                        "drift rate must be finite",
                    ));
                }
                SensorFaultKind::Spike { amplitude_k, .. } if !amplitude_k.is_finite() => {
                    return Err(ConfigError::new(
                        "amplitude_k",
                        "spike amplitude must be finite",
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

impl Default for SensorFaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// One set of simultaneous sensor outputs: a value per block plus a
/// validity flag (`false` = the reading was unavailable this period).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorFrame {
    /// Reported temperatures (K). For an invalid reading the entry holds
    /// the last value the bank would have reported; consumers must check
    /// `valid` before trusting it.
    pub values: [f64; NUM_BLOCKS],
    /// Whether each block's reading is available.
    pub valid: [bool; NUM_BLOCKS],
}

impl SensorFrame {
    /// A frame with every sensor valid.
    #[must_use]
    pub fn all_valid(values: [f64; NUM_BLOCKS]) -> Self {
        SensorFrame {
            values,
            valid: [true; NUM_BLOCKS],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        let p = SensorFaultPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(p.faults().count(), 0);
    }

    #[test]
    fn windows_are_half_open() {
        let f = SensorFault {
            block: Block::IntReg,
            kind: SensorFaultKind::Dropout,
            from_cycle: 100,
            until_cycle: 200,
        };
        assert!(!f.active(99));
        assert!(f.active(100));
        assert!(f.active(199));
        assert!(!f.active(200));
    }

    #[test]
    fn permanent_fault_never_expires() {
        let f = SensorFault::permanent(Block::IntReg, SensorFaultKind::Dropout, 5);
        assert!(f.active(u64::MAX - 1));
        assert!(!f.active(4));
    }

    #[test]
    fn builder_fills_slots() {
        let p = SensorFaultPlan::seeded(9)
            .with(SensorFault::permanent(
                Block::IntReg,
                SensorFaultKind::StuckAt { value_k: 345.0 },
                0,
            ))
            .with(SensorFault::permanent(
                Block::FpMul,
                SensorFaultKind::Drift {
                    rate_k_per_read: 0.01,
                },
                1_000,
            ));
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.seed, 9);
    }

    #[test]
    #[should_panic(expected = "fault plan full")]
    fn overfull_plan_rejected() {
        let mut p = SensorFaultPlan::none();
        for _ in 0..=MAX_SENSOR_FAULTS {
            p = p.with(SensorFault::permanent(
                Block::IntReg,
                SensorFaultKind::Dropout,
                0,
            ));
        }
    }

    #[test]
    fn non_finite_fault_values_are_rejected() {
        let plan =
            |kind| SensorFaultPlan::none().with(SensorFault::permanent(Block::IntReg, kind, 0));
        assert!(plan(SensorFaultKind::StuckAt { value_k: 345.0 })
            .try_validate()
            .is_ok());
        for (kind, field) in [
            (SensorFaultKind::StuckAt { value_k: f64::NAN }, "value_k"),
            (
                SensorFaultKind::StuckAt {
                    value_k: f64::INFINITY,
                },
                "value_k",
            ),
            (
                SensorFaultKind::Drift {
                    rate_k_per_read: f64::NEG_INFINITY,
                },
                "rate_k_per_read",
            ),
            (
                SensorFaultKind::Spike {
                    amplitude_k: f64::NAN,
                    one_in: 3,
                },
                "amplitude_k",
            ),
        ] {
            assert_eq!(plan(kind).try_validate().unwrap_err().field(), field);
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SensorFaultKind::Dropout.label(), "dropout");
        assert_eq!(
            SensorFaultKind::StuckAt { value_k: 0.0 }.label(),
            "stuck-at"
        );
        assert_eq!(
            SensorFaultKind::Spike {
                amplitude_k: 5.0,
                one_in: 3
            }
            .label(),
            "spike"
        );
    }
}
