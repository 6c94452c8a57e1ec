//! The weighted running average of §3.2.1.
//!
//! > "At every sampling instant the average is computed as:
//! > `Wt.Avg = (1-x) * Wt.Avg + x * access-rate` … if we choose x to be a
//! > power of 2, then the multiplication operations are reduced to shift
//! > operations."
//!
//! [`Ewma`] implements exactly that hardware-friendly form: fixed-point
//! arithmetic where the update is one subtraction, one addition, and two
//! shifts — no multipliers.

/// The paper's EWMA weight `x = 1/128` as a right shift: selective
/// sedation's default and the rate-cap strawman's only weight.
pub(crate) const EWMA_SHIFT: u32 = 7;

/// Fixed-point fractional bits. 16 bits keeps sub-access precision while
/// leaving 48 bits of headroom for the integer part.
const FRAC_BITS: u32 = 16;

/// A shift-based exponentially weighted moving average of access counts.
///
/// The stored value is in fixed point (`value << 16`); [`Ewma::value`]
/// returns the average as accesses **per sampling period**.
///
/// ```
/// use hs_core::Ewma;
/// let mut e = Ewma::new(7); // x = 1/128, the paper's choice
/// for _ in 0..2000 {
///     e.update(1000);
/// }
/// assert!((e.value() - 1000.0).abs() < 1.0); // converges to the rate
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ewma {
    fixed: u64,
    shift: u32,
}

impl Ewma {
    /// Creates an average with weight `x = 1 / 2^shift`, starting at zero.
    ///
    /// # Errors
    ///
    /// Returns an error unless `1 <= shift < 32`.
    pub fn try_new(shift: u32) -> Result<Self, crate::ConfigError> {
        if !(1..32).contains(&shift) {
            return Err(crate::ConfigError::new(
                "ewma_shift",
                "shift must be in 1..32",
            ));
        }
        Ok(Ewma { fixed: 0, shift })
    }

    /// Creates an average with weight `x = 1 / 2^shift`, starting at zero.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= shift < 32`.
    #[must_use]
    pub fn new(shift: u32) -> Self {
        Self::try_new(shift).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Folds one sampled access count into the average. This is the
    /// hardware datapath: `avg += (sample - avg) >> shift`, all in fixed
    /// point. Samples too large for the fixed-point register saturate (as
    /// a hardware counter would) instead of overflowing — relevant when a
    /// faulty counter reports a wild value.
    pub fn update(&mut self, sample: u64) {
        let sample_fixed = sample.min(u64::MAX >> FRAC_BITS) << FRAC_BITS;
        if sample_fixed >= self.fixed {
            self.fixed += (sample_fixed - self.fixed) >> self.shift;
        } else {
            self.fixed -= (self.fixed - sample_fixed) >> self.shift;
        }
    }

    /// The current average, in accesses per sampling period.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.fixed as f64 / f64::from(1u32 << FRAC_BITS)
    }

    /// The raw fixed-point register contents (what the hardware would hold).
    #[must_use]
    pub fn raw(&self) -> u64 {
        self.fixed
    }

    /// Resets the average to zero.
    #[cfg(test)]
    fn reset(&mut self) {
        self.fixed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The floating-point reference the paper writes down.
    fn reference(samples: &[u64], x: f64) -> f64 {
        let mut avg = 0.0;
        for &s in samples {
            avg = (1.0 - x) * avg + x * s as f64;
        }
        avg
    }

    #[test]
    fn matches_floating_point_reference() {
        let samples: Vec<u64> = (0..500).map(|i| (i * 37) % 1000).collect();
        let mut e = Ewma::new(7);
        for &s in &samples {
            e.update(s);
        }
        let want = reference(&samples, 1.0 / 128.0);
        // Shift-based truncation loses a little; within one access/period.
        assert!(
            (e.value() - want).abs() < 1.0,
            "fixed {} vs float {want}",
            e.value()
        );
    }

    #[test]
    fn converges_to_constant_input() {
        let mut e = Ewma::new(7);
        for _ in 0..3000 {
            e.update(500);
        }
        assert!((e.value() - 500.0).abs() < 0.5);
    }

    #[test]
    fn memory_is_about_2_to_shift_samples() {
        // After 128 samples of a step input, a 1/128 EWMA should have
        // covered ≈63% of the step.
        let mut e = Ewma::new(7);
        for _ in 0..128 {
            e.update(1000);
        }
        let frac = e.value() / 1000.0;
        assert!((0.55..0.72).contains(&frac), "step response {frac}");
    }

    #[test]
    fn burst_decays_after_it_ends() {
        let mut e = Ewma::new(7);
        for _ in 0..200 {
            e.update(1000);
        }
        let peak = e.value();
        for _ in 0..1000 {
            e.update(0);
        }
        assert!(e.value() < peak * 0.01);
    }

    #[test]
    fn separates_aggressor_from_normal() {
        // The detection property: a thread sampling 10 acc/cycle (10k per
        // 1000-cycle period) must end far above one sampling 3 acc/cycle.
        let mut hot = Ewma::new(7);
        let mut normal = Ewma::new(7);
        for _ in 0..1000 {
            hot.update(10_000);
            normal.update(3_000);
        }
        assert!(hot.value() > 2.0 * normal.value());
    }

    #[test]
    fn zero_stays_zero() {
        let mut e = Ewma::new(7);
        e.update(0);
        assert_eq!(e.value(), 0.0);
        assert_eq!(e.raw(), 0);
    }

    #[test]
    fn reset_clears() {
        let mut e = Ewma::new(4);
        e.update(100);
        assert!(e.value() > 0.0);
        e.reset();
        assert_eq!(e.value(), 0.0);
    }

    #[test]
    #[should_panic(expected = "shift must be in 1..32")]
    fn invalid_shift_panics() {
        let _ = Ewma::new(0);
    }

    #[test]
    fn try_new_reports_bad_shifts() {
        assert!(Ewma::try_new(0).is_err());
        assert!(Ewma::try_new(32).is_err());
        assert!(Ewma::try_new(7).is_ok());
    }

    #[test]
    fn huge_samples_saturate_instead_of_overflowing() {
        // A saturated/faulty hardware counter can report u64::MAX; the
        // fixed-point shift must not wrap (or panic in debug builds).
        let mut e = Ewma::new(1);
        for _ in 0..200 {
            e.update(u64::MAX);
        }
        let cap = (u64::MAX >> 16) as f64;
        assert!(e.value() <= cap + 1.0);
        assert!(e.value() > cap * 0.9, "saturated value should be near cap");
        // And it comes back down once the input normalizes.
        for _ in 0..400 {
            e.update(0);
        }
        assert!(e.value() < cap * 0.01);
    }
}
