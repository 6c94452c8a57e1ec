//! The experiment registry: every table/figure of the paper as a
//! declarative campaign matrix plus a renderer.
//!
//! Each module contributes two functions:
//!
//! * `build(&SimConfig) -> Campaign` — the labelled run matrix. This is
//!   *declarative*: no simulation happens here, so the engine can schedule
//!   the whole batch across its worker pool.
//! * `render(&SimConfig, &CampaignReport, &mut dyn Write)` — turns the
//!   aggregated, id-ordered report into the experiment's table/figure
//!   text. Renderers look results up by label and never simulate —
//!   with three documented exceptions (`table1`, `listings`, `trace`)
//!   whose output is not made of quantum runs at all; they declare an
//!   empty matrix and do their own (cheap or streaming) work at render
//!   time.

use hs_sim::{Campaign, CampaignReport, HeatSink, PolicyKind, RunSpec, SimConfig, Supervision};
use hs_workloads::Workload;
use std::io::{self, Write};

mod analyze;
mod chaos;
mod fastfwd;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod listings;
mod rate_cap_fails;
mod spec_pairs;
mod sweep_faults;
mod sweep_fetch_policy;
mod sweep_monitor;
mod sweep_packaging;
mod sweep_thresholds;
mod table1;
mod trace;

/// One registered experiment.
#[derive(Debug)]
pub struct Experiment {
    /// Stable CLI name (`--only <name>`).
    pub name: &'static str,
    /// One-line description shown by `--list --verbose`-style callers.
    pub title: &'static str,
    /// Builds the declarative run matrix.
    pub build: fn(&SimConfig) -> Campaign,
    /// Renders the executed report.
    pub render: fn(&SimConfig, &CampaignReport, &mut dyn Write) -> io::Result<()>,
    /// Custom `--json` artifact builder. `None` (every simulation-backed
    /// experiment) writes the campaign report itself; experiments whose
    /// output is not made of quantum runs (`analyze`) provide their own
    /// machine-readable document.
    pub artifact: Option<fn(&SimConfig) -> String>,
    /// Default supervision for this experiment. `None` (every paper
    /// experiment) runs on the fail-fast engine exactly as before;
    /// `Some` routes through `Campaign::run_supervised` — used by `chaos`,
    /// which injects faults that *must* be supervised. CLI supervision
    /// flags (`--retries`, `--deadline`, …) layer on top of this.
    pub supervision: Option<fn(&SimConfig) -> Supervision>,
}

/// Every experiment, in the canonical `run_experiments.sh` order.
pub static EXPERIMENTS: [Experiment; 17] = [
    Experiment {
        name: "table1",
        title: "Table 1: system parameters",
        build: table1::build,
        render: table1::render,
        artifact: None,
        supervision: None,
    },
    Experiment {
        name: "listings",
        title: "Figures 1-2: the malicious threads",
        build: listings::build,
        render: listings::render,
        artifact: None,
        supervision: None,
    },
    Experiment {
        name: "fig3",
        title: "Figure 3: solo register-file access rates",
        build: fig3::build,
        render: fig3::render,
        artifact: None,
        supervision: None,
    },
    Experiment {
        name: "fig4",
        title: "Figure 4: temperature emergencies per quantum",
        build: fig4::build,
        render: fig4::render,
        artifact: None,
        supervision: None,
    },
    Experiment {
        name: "fig5",
        title: "Figure 5: victim IPC across 11 configurations",
        build: fig5::build,
        render: fig5::render,
        artifact: None,
        supervision: None,
    },
    Experiment {
        name: "fig6",
        title: "Figure 6: execution-time breakdown",
        build: fig6::build,
        render: fig6::render,
        artifact: None,
        supervision: None,
    },
    Experiment {
        name: "sweep_packaging",
        title: "Section 5.5: heat-sink sensitivity",
        build: sweep_packaging::build,
        render: sweep_packaging::render,
        artifact: None,
        supervision: None,
    },
    Experiment {
        name: "sweep_thresholds",
        title: "Section 5.6: threshold robustness",
        build: sweep_thresholds::build,
        render: sweep_thresholds::render,
        artifact: None,
        supervision: None,
    },
    Experiment {
        name: "spec_pairs",
        title: "Section 5.7: no false positives on SPEC+SPEC pairs",
        build: spec_pairs::build,
        render: spec_pairs::render,
        artifact: None,
        supervision: None,
    },
    Experiment {
        name: "rate_cap_fails",
        title: "Section 3.2.1: why absolute rate-caps fail",
        build: rate_cap_fails::build,
        render: rate_cap_fails::render,
        artifact: None,
        supervision: None,
    },
    Experiment {
        name: "sweep_monitor",
        title: "Ablation: monitor EWMA weight and sampling period",
        build: sweep_monitor::build,
        render: sweep_monitor::render,
        artifact: None,
        supervision: None,
    },
    Experiment {
        name: "sweep_fetch_policy",
        title: "Ablation: ICOUNT vs round-robin fetch",
        build: sweep_fetch_policy::build,
        render: sweep_fetch_policy::render,
        artifact: None,
        supervision: None,
    },
    Experiment {
        name: "sweep_faults",
        title: "Fault sweep: sensor/counter faults x thermal policies",
        build: sweep_faults::build,
        render: sweep_faults::render,
        artifact: None,
        supervision: None,
    },
    Experiment {
        name: "trace",
        title: "CSV temperature/activity trace of an attack episode",
        build: trace::build,
        render: trace::render,
        artifact: None,
        supervision: None,
    },
    Experiment {
        name: "analyze",
        title: "Static screening: power-density verdict per workload",
        build: analyze::build,
        render: analyze::render,
        artifact: Some(analyze::artifact),
        supervision: None,
    },
    Experiment {
        name: "fastfwd",
        title: "Interval mode: cycle-accurate vs fast-forward differential",
        build: fastfwd::build,
        render: fastfwd::render,
        artifact: None,
        supervision: None,
    },
    Experiment {
        name: "chaos",
        title: "Supervision: injected faults, retries, quarantine, resume",
        build: chaos::build,
        render: chaos::render,
        artifact: None,
        supervision: Some(chaos::supervision),
    },
];

/// Looks an experiment up by name.
#[must_use]
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Shorthand: a labelled one-workload run pushed onto `c`.
fn solo(
    c: &mut Campaign,
    label: impl Into<String>,
    w: Workload,
    policy: PolicyKind,
    sink: HeatSink,
    cfg: SimConfig,
) {
    c.push(label, RunSpec::solo(w, policy, sink, cfg));
}

/// Shorthand: a labelled victim+other run pushed onto `c` (victim is
/// thread 0, like the old `run_pair` helper).
fn pair(
    c: &mut Campaign,
    label: impl Into<String>,
    victim: Workload,
    other: Workload,
    policy: PolicyKind,
    sink: HeatSink,
    cfg: SimConfig,
) {
    c.push(label, RunSpec::pair(victim, other, policy, sink, cfg));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        for e in &EXPERIMENTS {
            assert!(std::ptr::eq(find(e.name).unwrap(), e));
        }
        let mut names: Vec<_> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
        assert!(find("no_such_experiment").is_none());
    }

    #[test]
    fn registry_includes_static_screening() {
        assert!(
            find("analyze").is_some(),
            "the static-screening experiment must stay registered"
        );
    }

    #[test]
    fn shell_menu_stays_in_sync_with_the_registry() {
        // `run_experiments.sh` builds its menu from `campaign --list`, so a
        // new registry entry shows up automatically. Guard the two halves
        // of that contract: the script still consumes `--list`, and it has
        // no hardcoded experiment menu that could drift (experiment names
        // must not appear verbatim in the script).
        let script_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../run_experiments.sh");
        let script = std::fs::read_to_string(script_path)
            .expect("run_experiments.sh at the repository root");
        assert!(
            script.contains("--list"),
            "run_experiments.sh must regenerate its menu via `campaign --list`"
        );
        for e in &EXPERIMENTS {
            assert!(
                !script.contains(&format!("\"{}\"", e.name)),
                "run_experiments.sh hardcodes experiment `{}`; \
                 the menu must come from `campaign --list`",
                e.name
            );
        }
    }

    #[test]
    fn every_matrix_builds_and_preflights() {
        // Declarative builds must not simulate, so this is fast even for
        // fig5's 11x16 matrix; preflight catches invalid combinations.
        let cfg = crate::config();
        for e in &EXPERIMENTS {
            let campaign = (e.build)(&cfg);
            campaign
                .preflight()
                .unwrap_or_else(|err| panic!("{}: {err}", e.name));
        }
    }
}
