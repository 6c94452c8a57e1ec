//! # hs-bench — the experiment harness
//!
//! Every table and figure of the paper is an *experiment*: a declarative
//! [`Campaign`](hs_sim::Campaign) run matrix plus a renderer that turns the
//! aggregated [`CampaignReport`](hs_sim::CampaignReport) into the paper's
//! table/figure text (see [`experiments`]). One binary — `campaign` —
//! fronts all of them through a shared CLI ([`cli`]):
//!
//! ```sh
//! cargo run --release -p hs-bench --bin campaign -- --list
//! cargo run --release -p hs-bench --bin campaign -- --only fig5 --jobs 8 --json results/fig5.json
//! ```
//!
//! The engine executes each experiment's matrix on a worker pool; results
//! are deterministic and ordered by stable run id, so `--jobs 1` and
//! `--jobs N` produce byte-identical reports (the campaign engine's
//! determinism contract).
//!
//! ## Environment variables
//!
//! * `HS_TIME_SCALE` — thermal time-scale factor, a number >= 1 (default
//!   **50**: a 10 M cycle quantum reproducing the 500 M-cycle dynamics;
//!   use 25 for the EXPERIMENTS.md reference numbers, 1 for full fidelity).
//! * `HS_SUBSET` — comma-separated benchmark names to restrict the suite
//!   (e.g. `HS_SUBSET=gcc,eon,mcf`).
//!
//! A value outside those is a usage error (`campaign` exits 2), never a
//! silent fallback.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;

use hs_sim::SimConfig;
use hs_workloads::{SpecWorkload, SPEC_SUITE};
use std::io::{self, Write};

/// `HS_TIME_SCALE` when it is unset.
const DEFAULT_TIME_SCALE: f64 = 50.0;

/// The harness configuration, honoring `HS_TIME_SCALE`.
///
/// # Panics
///
/// Panics when `HS_TIME_SCALE` is not a number >= 1 (the `campaign`
/// binary rejects that as a usage error before any experiment asks).
#[must_use]
pub fn config() -> SimConfig {
    match parse_time_scale(env("HS_TIME_SCALE").as_deref()) {
        Ok(scale) => SimConfig::scaled(scale),
        Err(e) => panic!("{e}"),
    }
}

/// The benchmark suite, honoring `HS_SUBSET`.
///
/// # Panics
///
/// Panics when `HS_SUBSET` names an unknown benchmark or none at all (the
/// `campaign` binary rejects that as a usage error before any experiment
/// asks).
#[must_use]
pub fn suite() -> Vec<SpecWorkload> {
    match parse_subset(env("HS_SUBSET").as_deref()) {
        Ok(suite) => suite,
        Err(e) => panic!("{e}"),
    }
}

/// An environment variable's value; `None` when unset. A value that is
/// not UTF-8 comes back lossily converted, so it fails to parse instead of
/// reading as unset.
#[must_use]
pub(crate) fn env(name: &str) -> Option<String> {
    std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
}

/// Parses an `HS_TIME_SCALE` value; `None` (unset) is
/// [`DEFAULT_TIME_SCALE`].
///
/// # Errors
///
/// A message naming the variable and its valid values unless `value` is a
/// finite number of at least 1.
pub(crate) fn parse_time_scale(value: Option<&str>) -> Result<f64, String> {
    let Some(value) = value else {
        return Ok(DEFAULT_TIME_SCALE);
    };
    match value.trim().parse::<f64>() {
        Ok(scale) if scale.is_finite() && scale >= 1.0 => Ok(scale),
        _ => Err(format!(
            "HS_TIME_SCALE=`{value}` is not a time scale: expected a finite number \
             >= 1 (1 = full fidelity; unset = {DEFAULT_TIME_SCALE})"
        )),
    }
}

/// Parses an `HS_SUBSET` value, a comma-separated list of benchmark names,
/// into suite members in suite order; `None` (unset) is the whole suite.
///
/// # Errors
///
/// A message naming the variable and the valid names when `value` names
/// an unknown benchmark or no benchmark at all.
pub(crate) fn parse_subset(value: Option<&str>) -> Result<Vec<SpecWorkload>, String> {
    let Some(value) = value else {
        return Ok(SPEC_SUITE.to_vec());
    };
    let valid = || SPEC_SUITE.map(SpecWorkload::name).join(",");
    let wanted: Vec<&str> = value
        .split(',')
        .map(str::trim)
        .filter(|n| !n.is_empty())
        .collect();
    if let Some(unknown) = wanted
        .iter()
        .find(|&&n| !SPEC_SUITE.iter().any(|s| s.name() == n))
    {
        return Err(format!(
            "HS_SUBSET=`{value}` names unknown benchmark `{unknown}`; valid names: {}",
            valid()
        ));
    }
    if wanted.is_empty() {
        return Err(format!(
            "HS_SUBSET=`{value}` selects no benchmark; valid names: {}",
            valid()
        ));
    }
    Ok(SPEC_SUITE
        .into_iter()
        .filter(|s| wanted.contains(&s.name()))
        .collect())
}

/// Renders `value` as an ASCII bar scaled so `full` is `width` characters.
#[must_use]
pub fn bar(value: f64, full: f64, width: usize) -> String {
    if full <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let n = ((value / full) * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

/// Writes the standard harness header for a figure.
///
/// # Errors
///
/// Propagates write failures.
pub fn header(out: &mut dyn Write, figure: &str, what: &str, cfg: &SimConfig) -> io::Result<()> {
    writeln!(out, "== {figure}: {what} ==")?;
    writeln!(
        out,
        "   (time scale {}x, quantum {} Mcycles, suite of {} benchmarks)\n",
        cfg.time_scale,
        cfg.quantum_cycles / 1_000_000,
        suite().len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        config().validate();
    }

    #[test]
    fn bars_scale() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(20.0, 10.0, 10), "##########"); // clamped
        assert_eq!(bar(0.0, 10.0, 10), "");
    }

    #[test]
    fn environment_values_parse() {
        assert_eq!(parse_time_scale(None), Ok(DEFAULT_TIME_SCALE));
        assert_eq!(parse_time_scale(Some("400")), Ok(400.0));
        assert_eq!(parse_time_scale(Some("1")), Ok(1.0));
        assert_eq!(parse_subset(None).unwrap().len(), SPEC_SUITE.len());
        let picked = parse_subset(Some("mcf, gcc,")).unwrap();
        assert_eq!(
            picked,
            [SpecWorkload::Gcc, SpecWorkload::Mcf],
            "suite order"
        );
    }

    #[test]
    fn full_suite_by_default() {
        // NOTE: assumes HS_SUBSET is unset in the test environment.
        if std::env::var("HS_SUBSET").is_err() {
            assert_eq!(suite().len(), 16);
        }
    }
}
