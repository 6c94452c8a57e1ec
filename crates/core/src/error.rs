//! Configuration errors and the retry taxonomy.
//!
//! All `try_`-style constructors and validators in `hs-core` (and the
//! crates it fronts for: thresholds, monitors, policies, simulator-level
//! config) report problems as a [`ConfigError`] instead of panicking, so
//! callers building configurations from untrusted input (sweep harnesses,
//! CLI flags) can surface the problem instead of aborting. Thin panicking
//! wrappers (`validate`, `new`) are kept where ergonomics demand.
//! [`ConfigError`] is `hs-thermal`'s, re-exported so that a bad sensor or
//! thermal value and a bad DTM value are one type with one message.

pub use hs_thermal::ConfigError;
use std::fmt;

/// How a supervisor should treat a failure: worth retrying, or final.
///
/// The campaign supervision layer (`hs_sim::supervise`) retries outcomes
/// classified [`ErrorClass::Transient`] with bounded, seeded backoff, and
/// quarantines [`ErrorClass::Permanent`] ones immediately. The taxonomy
/// lives here, next to [`ConfigError`], so every error type in the
/// workspace can answer the same question the same way.
///
/// The rule of thumb: a failure that is a pure function of the run's
/// specification (an invalid config, too many workloads, a deterministic
/// budget overrun) is `Permanent` — re-executing the identical spec
/// reproduces it. A failure injected by the *environment* (a lost worker,
/// a wall-clock stall, an interrupted campaign) is `Transient`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Environmental / nondeterministic: retrying the same spec may succeed.
    Transient,
    /// Deterministic: retrying the same spec reproduces the failure.
    Permanent,
}

impl ErrorClass {
    /// Whether a supervisor should retry this failure.
    #[must_use]
    pub fn is_transient(self) -> bool {
        self == ErrorClass::Transient
    }
}

impl fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ErrorClass::Transient => "transient",
            ErrorClass::Permanent => "permanent",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_errors_are_permanent() {
        assert!(!ErrorClass::Permanent.is_transient());
        assert!(ErrorClass::Transient.is_transient());
        assert_eq!(ErrorClass::Transient.to_string(), "transient");
        assert_eq!(ErrorClass::Permanent.to_string(), "permanent");
    }
}
