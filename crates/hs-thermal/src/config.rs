//! Physical and packaging parameters of the thermal model.

use std::error::Error;
use std::fmt;

/// Error returned when a thermal/sensor configuration is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    field: &'static str,
    reason: &'static str,
}

impl ConfigError {
    /// Creates an error for `field`.
    #[must_use]
    pub fn new(field: &'static str, reason: &'static str) -> Self {
        ConfigError { field, reason }
    }

    /// The offending field.
    #[must_use]
    pub fn field(&self) -> &'static str {
        self.field
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid thermal config `{}`: {}",
            self.field, self.reason
        )
    }
}

impl Error for ConfigError {}

/// Thermal model configuration.
///
/// Defaults correspond to the paper's Table 1 packaging ("air-cooled, high
/// performance system"): 0.8 K/W convection resistance, a 6.9 mm-thick heat
/// sink, and an overall cooling RC on the order of 10 ms for a hot block.
/// Material constants are the HotSpot defaults for silicon and thermal
/// interface material.
///
/// ```
/// use hs_thermal::ThermalConfig;
/// let cfg = ThermalConfig::default();
/// assert_eq!(cfg.convection_resistance, 0.8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalConfig {
    /// Ambient air temperature in kelvin (HotSpot default: 45 °C).
    pub ambient_k: f64,
    /// Convection resistance from sink to ambient, K/W (Table 1: 0.8).
    pub convection_resistance: f64,
    /// Heat-spreader-to-sink resistance, K/W.
    pub spreader_resistance: f64,
    /// Die thickness in metres.
    pub die_thickness_m: f64,
    /// Thermal-interface-material thickness in metres.
    pub tim_thickness_m: f64,
    /// Silicon thermal conductivity, W/(m·K).
    pub k_silicon: f64,
    /// TIM thermal conductivity, W/(m·K).
    pub k_tim: f64,
    /// Volumetric heat capacity of silicon, J/(m³·K).
    pub c_vol_silicon: f64,
    /// Heat-spreader lumped capacitance, J/K.
    pub spreader_capacitance: f64,
    /// Heat-sink lumped capacitance, J/K (6.9 mm copper sink).
    pub sink_capacitance: f64,
    /// Time-scaling factor: all capacitances are divided by this, which
    /// compresses every thermal time constant by the same factor. `1.0` is
    /// the physical model; experiment harnesses use larger factors to run
    /// the paper's 500M-cycle dynamics inside shorter simulations while
    /// preserving every *ratio* (heat-up : cool-down : quantum length).
    pub time_scale: f64,
}

impl Default for ThermalConfig {
    fn default() -> Self {
        ThermalConfig {
            ambient_k: 318.0,
            convection_resistance: 0.8,
            spreader_resistance: 0.05,
            die_thickness_m: 0.5e-3,
            tim_thickness_m: 30e-6,
            k_silicon: 100.0,
            k_tim: 4.0,
            c_vol_silicon: 1.75e6,
            spreader_capacitance: 40.0,
            sink_capacitance: 140.0,
            time_scale: 1.0,
        }
    }
}

impl ThermalConfig {
    /// Returns a copy with every thermal time constant divided by `factor`.
    ///
    /// # Errors
    ///
    /// Returns an error if `factor` is not strictly positive and finite.
    pub fn try_with_time_scale(mut self, factor: f64) -> Result<Self, ConfigError> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(ConfigError::new(
                "time_scale",
                "time scale must be positive and finite",
            ));
        }
        self.time_scale = factor;
        Ok(self)
    }

    /// Returns a copy with every thermal time constant divided by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive and finite.
    #[must_use]
    pub fn with_time_scale(self, factor: f64) -> Self {
        self.try_with_time_scale(factor)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Returns a copy with a different convection resistance (the packaging
    /// sweep of the paper's §5.5).
    ///
    /// # Errors
    ///
    /// Returns an error if `r` is not strictly positive and finite.
    pub fn try_with_convection_resistance(mut self, r: f64) -> Result<Self, ConfigError> {
        if !(r.is_finite() && r > 0.0) {
            return Err(ConfigError::new(
                "convection_resistance",
                "resistance must be positive",
            ));
        }
        self.convection_resistance = r;
        Ok(self)
    }

    /// Returns a copy with a different convection resistance (the packaging
    /// sweep of the paper's §5.5).
    ///
    /// # Panics
    ///
    /// Panics if `r` is not strictly positive and finite.
    #[must_use]
    pub fn with_convection_resistance(self, r: f64) -> Self {
        self.try_with_convection_resistance(r)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Worst-case heating rate (K/s) of a block of `area` m² absorbing
    /// `watts` of power with no heat removal at all: `P / C_block`. This is
    /// a strict upper bound on any physically realizable dT/dt in the
    /// model, and is what the fault-tolerant monitor uses as its
    /// plausibility bound (a reading that jumps faster than this is lying).
    #[must_use]
    pub fn max_heating_rate(&self, area: f64, watts: f64) -> f64 {
        watts / self.block_capacitance(area)
    }

    /// A conservative lower bound on the cooling rate (K/s) of a block of
    /// `area` m² that sits `delta_k` above its surroundings: only the
    /// vertical path is counted, at one quarter strength (lateral spread,
    /// spreader heating and re-heating from neighbours all slow real
    /// cooling). The failsafe's worst-case temperature estimate decays at
    /// this rate while the pipeline is stalled, guaranteeing the estimate
    /// stays above the true temperature.
    #[must_use]
    pub fn min_cooling_rate(&self, area: f64, delta_k: f64) -> f64 {
        0.25 * self.vertical_conductance(area) * delta_k / self.block_capacitance(area)
    }

    /// Vertical conductance (W/K) from a block of `area` m² through half
    /// the die and the TIM to the spreader.
    #[must_use]
    pub fn vertical_conductance(&self, area: f64) -> f64 {
        let r_die = (self.die_thickness_m / 2.0) / (self.k_silicon * area);
        let r_tim = self.tim_thickness_m / (self.k_tim * area);
        1.0 / (r_die + r_tim)
    }

    /// Lateral conductance between two adjacent blocks of areas `a` and `b`
    /// (m²), approximating shared edge length by the smaller block's side.
    #[must_use]
    pub fn lateral_conductance(&self, a: f64, b: f64) -> f64 {
        let side_a = a.sqrt();
        let side_b = b.sqrt();
        let shared_edge = side_a.min(side_b);
        let distance = (side_a + side_b) / 2.0;
        self.k_silicon * self.die_thickness_m * shared_edge / distance
    }

    /// Block capacitance (J/K) after time scaling.
    #[must_use]
    pub fn block_capacitance(&self, area: f64) -> f64 {
        self.c_vol_silicon * area * self.die_thickness_m / self.time_scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertical_conductance_scales_with_area() {
        let cfg = ThermalConfig::default();
        let small = cfg.vertical_conductance(1e-6);
        let large = cfg.vertical_conductance(10e-6);
        assert!(large > small);
        assert!((large / small - 10.0).abs() < 1e-9);
    }

    #[test]
    fn regfile_sized_block_has_millisecond_tau() {
        // The key physical anchor: a ~1.2 mm² block must have a vertical RC
        // in the milliseconds (paper: ~10 ms cooling).
        let cfg = ThermalConfig::default();
        let area = 1.2e-6;
        let tau = cfg.block_capacitance(area) / cfg.vertical_conductance(area);
        assert!(
            (1e-3..50e-3).contains(&tau),
            "tau = {tau} s out of expected range"
        );
    }

    #[test]
    fn time_scale_compresses_tau() {
        let base = ThermalConfig::default();
        let scaled = base.with_time_scale(25.0);
        let area = 1.2e-6;
        let tau_base = base.block_capacitance(area) / base.vertical_conductance(area);
        let tau_scaled = scaled.block_capacitance(area) / scaled.vertical_conductance(area);
        assert!((tau_base / tau_scaled - 25.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_time_scale_rejected() {
        let _ = ThermalConfig::default().with_time_scale(0.0);
    }

    #[test]
    fn lateral_much_weaker_than_vertical() {
        // "the flow of heat in the lateral direction is not appreciable"
        let cfg = ThermalConfig::default();
        let a = 1.2e-6;
        assert!(cfg.lateral_conductance(a, a) < cfg.vertical_conductance(a));
    }
}
