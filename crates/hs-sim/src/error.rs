//! The simulation-level error type.
//!
//! Every fallible entry point of this crate — [`crate::RunSpec::try_run`],
//! [`crate::Simulator::try_new`], [`crate::Simulator::attach`], the
//! campaign engine — reports problems as a [`SimError`] instead of
//! panicking, following the `ConfigError`/`try_validate` pattern shared
//! across the workspace. The panicking entry points (`run`, `new`) are thin
//! wrappers kept for ergonomics in tests and examples.

use hs_core::ConfigError;
use std::error::Error;
use std::fmt;

/// Why a simulation (or one run of a campaign) could not be executed.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A configuration value failed validation.
    Config(ConfigError),
    /// No workload was attached / specified.
    NoWorkloads,
    /// More workloads than the configured number of SMT contexts.
    TooManyWorkloads {
        /// Workloads requested.
        requested: usize,
        /// Hardware contexts available (`cpu.contexts`).
        contexts: u32,
    },
    /// A policy/package combination that cannot produce a meaningful run:
    /// no DTM at all on a realistic package is a guaranteed runaway
    /// (temperatures rise unbounded with nothing to intervene).
    RunawayCombination,
    /// A campaign run was rejected; wraps the underlying error with the
    /// run's stable identity so batch callers can point at the culprit.
    InvalidRun {
        /// The run's stable id (its index in declaration order).
        id: usize,
        /// The run's label.
        label: String,
        /// What was wrong with it.
        cause: Box<SimError>,
    },
    /// Two campaign runs share a label. Labels are the lookup key for
    /// renderers ([`crate::CampaignReport::stats`]) and the identity check
    /// for journal resume, so duplicates are rejected at preflight instead
    /// of silently shadowing one run behind the other.
    DuplicateLabel {
        /// The shared label.
        label: String,
        /// Stable id of the first run declared with it.
        first: usize,
        /// Stable id of the duplicate.
        second: usize,
    },
    /// A campaign did not finish: it was aborted mid-flight by
    /// [`Supervision::abort_after`](crate::Supervision::abort_after), or
    /// (as the cause of an [`SimError::InvalidRun`] from
    /// [`Campaign::run`](crate::Campaign::run)) one of its runs panicked or
    /// failed.
    Interrupted {
        /// What the environment did.
        what: String,
    },
    /// A run journal could not be used: unreadable, corrupt in a complete
    /// line, or written by a different campaign or another configuration
    /// of this one.
    Journal {
        /// What is wrong with the journal.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "{e}"),
            SimError::NoWorkloads => f.write_str("attach at least one workload"),
            SimError::TooManyWorkloads {
                requested,
                contexts,
            } => write!(f, "{requested} workloads but only {contexts} SMT contexts"),
            SimError::RunawayCombination => f.write_str(
                "policy `none` with the realistic heat sink is a guaranteed \
                 thermal runaway; use HeatSink::Ideal to isolate pipeline \
                 effects or pick a DTM policy",
            ),
            SimError::InvalidRun { id, label, cause } => {
                write!(f, "run #{id} `{label}`: {cause}")
            }
            SimError::DuplicateLabel {
                label,
                first,
                second,
            } => write!(
                f,
                "runs #{first} and #{second} share the label `{label}`; \
                 labels must be unique (they key report lookup and journal \
                 resume)"
            ),
            SimError::Interrupted { what } => write!(f, "interrupted: {what}"),
            SimError::Journal { detail } => write!(f, "run journal unusable: {detail}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            SimError::InvalidRun { cause, .. } => Some(cause),
            _ => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_actionable() {
        let e = SimError::TooManyWorkloads {
            requested: 5,
            contexts: 2,
        };
        assert!(e.to_string().contains('5'));
        assert!(e.to_string().contains('2'));
        assert!(SimError::RunawayCombination.to_string().contains("runaway"));
    }

    #[test]
    fn invalid_run_names_the_culprit() {
        let e = SimError::InvalidRun {
            id: 7,
            label: "gcc/sedation".into(),
            cause: Box::new(SimError::NoWorkloads),
        };
        let s = e.to_string();
        assert!(s.contains("#7"));
        assert!(s.contains("gcc/sedation"));
        assert!(s.contains("workload"));
    }

    #[test]
    fn duplicate_label_names_both_runs() {
        let e = SimError::DuplicateLabel {
            label: "gcc/sedation".into(),
            first: 2,
            second: 5,
        };
        let s = e.to_string();
        assert!(s.contains("#2") && s.contains("#5") && s.contains("gcc/sedation"));
    }

    #[test]
    fn config_errors_convert() {
        let e: SimError = ConfigError::new("freq_hz", "must be positive").into();
        assert!(matches!(e, SimError::Config(_)));
        assert!(e.to_string().contains("freq_hz"));
    }
}
