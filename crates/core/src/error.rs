//! Configuration errors.
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
