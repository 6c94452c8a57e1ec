//! A tiny deterministic PRNG (xorshift64*) shared by the sensor model, the
//! fault-injection subsystem, and the test suites.
//!
//! The simulator must stay byte-for-byte reproducible for a fixed seed, so
//! everything stochastic in the repository draws from this one generator
//! instead of an external crate.

/// An xorshift64* pseudo-random generator.
///
/// ```
/// use hs_thermal::XorShift64;
/// let mut a = XorShift64::new(42);
/// let mut b = XorShift64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator. A zero seed is mapped to a fixed nonzero value
    /// (xorshift has an all-zero fixed point).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform sample in `[0, bound)`. `bound` must be nonzero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// A uniform sample in `[lo, hi)`. `hi` must exceed `lo`.
    #[cfg(test)]
    fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_below(hi - lo)
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform float in `[-1, 1)`.
    pub fn next_unit(&mut self) -> f64 {
        self.next_f64() * 2.0 - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = XorShift64::new(7);
        let mut b = XorShift64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = XorShift64::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn unit_samples_are_in_range() {
        let mut r = XorShift64::new(123);
        for _ in 0..1000 {
            let v = r.next_unit();
            assert!((-1.0..1.0).contains(&v));
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
            assert!(r.next_below(17) < 17);
            let x = r.next_range(5, 9);
            assert!((5..9).contains(&x));
        }
    }
}
