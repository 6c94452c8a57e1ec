//! DTM thresholds and selective-sedation parameters.

/// Temperature thresholds shared by all DTM mechanisms (kelvin).
///
/// Defaults follow §4–5 of the paper: 358.5 K emergency (358 K "highest
/// allowable" plus the trigger margin of \[1\]), 356 K upper threshold,
/// 355 K lower threshold, 354 K normal operating temperature for the
/// integer register file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DtmThresholds {
    /// Temperature at which physical damage is imminent; stop-and-go (or
    /// the sedation safety net) trips here.
    pub emergency_k: f64,
    /// Selective sedation's detection threshold, just below the emergency.
    pub upper_k: f64,
    /// Cooling target: sedated threads resume when the resource reaches it.
    pub lower_k: f64,
    /// Normal operating temperature; stop-and-go resumes here.
    pub normal_k: f64,
}

impl Default for DtmThresholds {
    fn default() -> Self {
        DtmThresholds {
            emergency_k: 358.5,
            upper_k: 356.0,
            lower_k: 355.0,
            normal_k: 354.0,
        }
    }
}

impl DtmThresholds {
    /// Validates the ordering `normal ≤ lower ≤ upper < emergency`.
    ///
    /// # Errors
    ///
    /// Returns an error if the ordering is violated.
    pub fn try_validate(&self) -> Result<(), crate::ConfigError> {
        let ordered = self.normal_k <= self.lower_k
            && self.lower_k <= self.upper_k
            && self.upper_k < self.emergency_k;
        if !ordered {
            return Err(crate::ConfigError::new(
                "thresholds",
                format!("thresholds must satisfy normal ≤ lower ≤ upper < emergency, got {self:?}"),
            ));
        }
        Ok(())
    }

    /// Validates the ordering `normal ≤ lower ≤ upper < emergency`.
    ///
    /// # Panics
    ///
    /// Panics if the ordering is violated.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

/// Full configuration for [`crate::SelectiveSedation`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SedationConfig {
    /// Temperature thresholds.
    pub thresholds: DtmThresholds,
    /// Access-rate sampling period in cycles (paper: 1000).
    pub sample_period_cycles: u64,
    /// EWMA weight as a right-shift: `x = 1 / 2^ewma_shift` (paper: 7, i.e.
    /// `x = 1/128`, giving an effective memory of ~0.5 M cycles).
    pub ewma_shift: u32,
    /// Expected cooling time of a heated resource, in cycles. After a
    /// sedation the policy re-examines the resource after **twice** this
    /// time (paper §3.2.2: "we wait for a duration that is twice the
    /// expected cooling time"). Default: 10 ms at 4 GHz.
    pub cooling_time_cycles: u64,
}

impl Default for SedationConfig {
    fn default() -> Self {
        SedationConfig {
            thresholds: DtmThresholds::default(),
            sample_period_cycles: 1000,
            ewma_shift: crate::monitor::EWMA_SHIFT,
            cooling_time_cycles: 40_000_000,
        }
    }
}

impl SedationConfig {
    /// Validates all parameters.
    ///
    /// # Errors
    ///
    /// Returns an error on invalid thresholds, a zero sampling period, a
    /// zero cooling time, or an EWMA shift of 0 or ≥ 32.
    pub fn try_validate(&self) -> Result<(), crate::ConfigError> {
        self.thresholds.try_validate()?;
        if self.sample_period_cycles == 0 {
            return Err(crate::ConfigError::new(
                "sample_period_cycles",
                "sample period must be nonzero",
            ));
        }
        if self.cooling_time_cycles == 0 {
            return Err(crate::ConfigError::new(
                "cooling_time_cycles",
                "cooling time must be nonzero",
            ));
        }
        if !(1..32).contains(&self.ewma_shift) {
            return Err(crate::ConfigError::new(
                "ewma_shift",
                "ewma shift must be in 1..32",
            ));
        }
        Ok(())
    }

    /// Validates all parameters.
    ///
    /// # Panics
    ///
    /// Panics on invalid thresholds, a zero sampling period, a zero cooling
    /// time, or an EWMA shift of 0 or ≥ 32.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// Returns a copy with every time constant divided by `factor`, for use
    /// with time-scaled thermal models.
    #[must_use]
    pub fn with_time_scale(mut self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor >= 1.0, "factor must be ≥ 1");
        self.sample_period_cycles = ((self.sample_period_cycles as f64 / factor) as u64).max(50);
        self.cooling_time_cycles = ((self.cooling_time_cycles as f64 / factor) as u64).max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_papers_numbers() {
        let c = SedationConfig::default();
        c.validate();
        assert_eq!(c.thresholds.emergency_k, 358.5);
        assert_eq!(c.thresholds.upper_k, 356.0);
        assert_eq!(c.thresholds.lower_k, 355.0);
        assert_eq!(c.sample_period_cycles, 1000);
        assert_eq!(c.ewma_shift, 7); // x = 1/128
    }

    #[test]
    #[should_panic(expected = "thresholds must satisfy")]
    fn inverted_thresholds_rejected() {
        DtmThresholds {
            upper_k: 359.0,
            ..DtmThresholds::default()
        }
        .validate();
    }

    #[test]
    fn time_scale_compresses_periods() {
        let c = SedationConfig::default().with_time_scale(25.0);
        assert_eq!(c.sample_period_cycles, 50);
        assert_eq!(c.cooling_time_cycles, 1_600_000);
    }
}
