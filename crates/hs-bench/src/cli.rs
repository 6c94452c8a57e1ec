//! The shared command line fronting every experiment.
//!
//! ```text
//! campaign [--list] [--only a,b,c] [--jobs N] [--mode cycle|interval]
//!          [--json PATH] [--check PATH] [--explain] [--verdicts PATH]
//!          [--resume] [--journal PATH] [--abort-after K]
//! ```
//!
//! * `--list` — print the experiment names, one per line (consumed by
//!   `run_experiments.sh` to build its menu).
//! * `--only a,b,c` — run only the named experiments (default: all).
//! * `--jobs N` — worker threads for the campaign engine (default: the
//!   machine's available parallelism). Results are identical for every
//!   `N`; see the engine's determinism contract.
//! * `--mode cycle|interval` — execution engine for every selected
//!   experiment (default: `cycle`, the reference engine the committed
//!   `results/*.txt` were rendered with). `interval` fast-forwards
//!   confirmed stable phases under the DESIGN.md §3d accuracy contract:
//!   DTM verdicts stay exact, peak temperatures may drift within ±1.0 K,
//!   so renderings that print temperatures or IPCs can differ in the last
//!   digits. The `fastfwd` experiment pins both modes itself and ignores
//!   this flag.
//! * `--json PATH` — also write the campaign report as JSON: to `PATH`
//!   itself when one experiment is selected, to `PATH/<name>.json` when
//!   several are.
//! * `--check PATH` — parse a previously written artifact and report its
//!   shape (CI uses this to validate `results/*.json`).
//! * `--explain` — after an experiment with a machine-readable artifact
//!   (today: `analyze`), render the artifact as a human-readable report:
//!   per program, the verdict, every loop's recovered phase structure and
//!   predicted peak temperature, and every lint pass that fired.
//! * `--verdicts PATH` — write one `name verdict` line per analyzed
//!   program to `PATH` (the CI regression snapshot; see
//!   `results/analyze_verdicts.txt`).
//!
//! ## Supervision flags
//!
//! Every experiment runs on the supervised engine, which runs each run
//! once and quarantines one that panics or fails. A run journal is written
//! only when one of these flags is given, so an experiment run without
//! them writes none.
//!
//! * `--resume` — replay the experiment's journal and execute only the
//!   runs it is missing (crash recovery; the resumed artifact is
//!   byte-identical to an uninterrupted one). A journal written under
//!   another configuration (`HS_TIME_SCALE`, `HS_SUBSET`, `--mode`, ...)
//!   is refused with exit code 7.
//! * `--journal PATH` — run journal location. Default:
//!   the artifact path with a `.journal.jsonl` extension under `--json`,
//!   else `<name>.journal.jsonl`. With several experiments selected,
//!   `PATH` is a directory.
//! * `--abort-after K` — stop after `K` journaled outcomes and exit 6
//!   (crash-testing hook used by CI to exercise `--resume`).
//!
//! ## Exit codes
//!
//! | code | meaning |
//! |-----:|---------|
//! | 0 | success |
//! | 1 | I/O or internal failure |
//! | 2 | usage error (bad flag or value) |
//! | 3 | invalid configuration ([`SimError::Config`]) |
//! | 4 | invalid run matrix (no/too many workloads, runaway combination, duplicate label) |
//! | 6 | interrupted (`--abort-after`), or a run was quarantined and the experiment not rendered |
//! | 7 | unusable run journal (corrupt, or written by another campaign or configuration) |
//!
//! Rendered experiment text goes to stdout; progress and timing go to
//! stderr, so stdout stays byte-deterministic. Every experiment prints a
//! `quarantined: N` stderr line. When runs of an experiment are
//! quarantined (a run panicked or failed, or a resumed journal recorded
//! one), its `--json` artifact (which records the quarantine) is still
//! written, but it is not rendered: `campaign` prints one stderr line per
//! quarantined run and exits 6.

use crate::experiments::{find, Experiment, EXPERIMENTS};
use hs_sim::admission::check_analysis_artifact;
use hs_sim::{CampaignReport, Json, SimError, Supervision};
use std::io::Write;
use std::path::{Path, PathBuf};

/// A CLI failure: the message for stderr plus the process exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// What to print to stderr.
    pub message: String,
    /// The process exit code (see the module docs for the mapping).
    pub code: i32,
}

impl From<String> for Failure {
    /// Plain-string failures are general errors: exit code 1.
    fn from(message: String) -> Self {
        Failure { message, code: 1 }
    }
}

/// Maps a [`SimError`] to its documented process exit code.
/// [`SimError::InvalidRun`] reports as whatever its cause maps to.
#[must_use]
pub fn sim_exit_code(e: &SimError) -> i32 {
    match e {
        SimError::Config(_) => 3,
        SimError::NoWorkloads
        | SimError::TooManyWorkloads { .. }
        | SimError::RunawayCombination
        | SimError::DuplicateLabel { .. } => 4,
        SimError::Interrupted { .. } => 6,
        SimError::Journal { .. } => 7,
        SimError::InvalidRun { cause, .. } => sim_exit_code(cause),
    }
}

/// Parsed command-line options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Options {
    /// Print experiment names and exit.
    pub list: bool,
    /// Restrict to these experiments (`None` = all).
    pub only: Option<Vec<String>>,
    /// Worker threads (`None` = available parallelism).
    pub jobs: Option<usize>,
    /// Execution engine override (`None` = the config default, cycle).
    pub mode: Option<hs_sim::ExecMode>,
    /// Where to write JSON artifacts.
    pub json: Option<PathBuf>,
    /// Validate this artifact instead of running anything.
    pub check: Option<PathBuf>,
    /// Render artifact-bearing experiments' results human-readably.
    pub explain: bool,
    /// Write `name verdict` lines (the analyze regression snapshot) here.
    pub verdicts: Option<PathBuf>,
    /// Resume from each experiment's journal instead of starting fresh.
    pub resume: bool,
    /// Override: journal path (directory when several are selected).
    pub journal: Option<PathBuf>,
    /// Crash-testing hook: abort after this many journaled outcomes.
    pub abort_after: Option<usize>,
}

impl Options {
    /// Parses an argument list (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a usage message on an unknown flag, a missing value, or an
    /// unknown experiment name.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let mut opts = Options::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--list" => opts.list = true,
                "--only" => {
                    let v = it.next().ok_or("--only needs a comma-separated list")?;
                    let names: Vec<String> = v.split(',').map(|s| s.trim().to_string()).collect();
                    for n in &names {
                        if find(n).is_none() {
                            return Err(format!(
                                "unknown experiment `{n}`; valid names:\n  {}",
                                EXPERIMENTS
                                    .iter()
                                    .map(|e| e.name)
                                    .collect::<Vec<_>>()
                                    .join("\n  ")
                            ));
                        }
                    }
                    opts.only = Some(names);
                }
                "--jobs" => {
                    let v = it.next().ok_or("--jobs needs a number")?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("--jobs: `{v}` is not a number"))?;
                    if n == 0 {
                        return Err("--jobs must be at least 1".into());
                    }
                    opts.jobs = Some(n);
                }
                "--mode" => {
                    let v = it.next().ok_or("--mode needs `cycle` or `interval`")?;
                    opts.mode = Some(match v.as_str() {
                        "cycle" => hs_sim::ExecMode::CycleAccurate,
                        "interval" => hs_sim::ExecMode::Interval,
                        other => {
                            return Err(format!(
                                "--mode: `{other}` is not a mode (use `cycle` or `interval`)"
                            ))
                        }
                    });
                }
                "--json" => {
                    let v = it.next().ok_or("--json needs a path")?;
                    opts.json = Some(PathBuf::from(v));
                }
                "--check" => {
                    let v = it.next().ok_or("--check needs a path")?;
                    opts.check = Some(PathBuf::from(v));
                }
                "--explain" => opts.explain = true,
                "--verdicts" => {
                    let v = it.next().ok_or("--verdicts needs a path")?;
                    opts.verdicts = Some(PathBuf::from(v));
                }
                "--resume" => opts.resume = true,
                "--journal" => {
                    let v = it.next().ok_or("--journal needs a path")?;
                    opts.journal = Some(PathBuf::from(v));
                }
                "--abort-after" => {
                    let v = it.next().ok_or("--abort-after needs a count")?;
                    let k: usize = v
                        .parse()
                        .map_err(|_| format!("--abort-after: `{v}` is not a number"))?;
                    if k == 0 {
                        return Err("--abort-after must be at least 1".into());
                    }
                    opts.abort_after = Some(k);
                }
                "--help" | "-h" => {
                    return Err("usage: campaign [--list] [--only a,b,c] [--jobs N] \
                         [--mode cycle|interval] [--json PATH] [--check PATH] \
                         [--explain] [--verdicts PATH] [--resume] \
                         [--journal PATH] [--abort-after K]"
                        .into())
                }
                other => return Err(format!("unknown flag `{other}` (try --help)")),
            }
        }
        Ok(opts)
    }

    /// The experiments selected by `--only` (all when absent), in registry
    /// order.
    #[must_use]
    pub fn selected(&self) -> Vec<&'static Experiment> {
        match &self.only {
            None => EXPERIMENTS.iter().collect(),
            Some(names) => {
                // Registry order keeps the output stable regardless of the
                // order names were given in.
                EXPERIMENTS
                    .iter()
                    .filter(|e| names.iter().any(|n| n == e.name))
                    .collect()
            }
        }
    }

    /// The effective worker count.
    #[must_use]
    pub fn effective_jobs(&self) -> usize {
        self.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
    }

    /// Whether any supervision flag is given.
    fn wants_supervision(&self) -> bool {
        self.resume || self.journal.is_some() || self.abort_after.is_some()
    }

    /// Where `name`'s journal lives: `--journal` (a directory when several
    /// experiments are selected), else derived from the artifact path,
    /// else `<name>.journal.jsonl` in the working directory.
    fn journal_path(&self, name: &str, selected: usize) -> PathBuf {
        if let Some(j) = &self.journal {
            if selected == 1 {
                j.clone()
            } else {
                j.join(format!("{name}.journal.jsonl"))
            }
        } else if let Some(json) = &self.json {
            artifact_path(json, name, selected).with_extension("journal.jsonl")
        } else {
            PathBuf::from(format!("{name}.journal.jsonl"))
        }
    }

    /// The supervision for experiment `name`: it journals only when a
    /// supervision flag is given.
    fn supervision_for(&self, name: &str, selected: usize) -> Supervision {
        Supervision {
            journal: self
                .wants_supervision()
                .then(|| self.journal_path(name, selected)),
            abort_after: self.abort_after,
        }
    }
}

/// Validates a previously written artifact: a campaign report or the
/// `analyze` experiment's static-screening document.
fn check(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    if let Ok(report) = CampaignReport::from_json(&text) {
        let committed: u64 = report
            .runs
            .iter()
            .flat_map(|r| &r.stats.threads)
            .map(|t| t.committed)
            .sum();
        println!(
            "ok: campaign `{}`, {} runs, {committed} instructions committed",
            report.name,
            report.runs.len(),
        );
        return Ok(());
    }
    let doc = Json::parse(&text)
        .map_err(|e| format!("{} is not a recognized artifact: {e}", path.display()))?;
    let verdicts = check_analysis_artifact(&doc)
        .map_err(|e| format!("{} is not a recognized artifact: {e}", path.display()))?;
    let attacks = verdicts
        .iter()
        .filter(|(_, v)| *v == hs_analyze::Verdict::HeatStroke)
        .count();
    println!(
        "ok: analyze artifact, {} programs, {attacks} heat-stroke verdicts",
        verdicts.len(),
    );
    Ok(())
}

/// Where one experiment's artifact goes under `--json`.
fn artifact_path(json: &Path, name: &str, selected: usize) -> PathBuf {
    if selected == 1 {
        json.to_path_buf()
    } else {
        json.join(format!("{name}.json"))
    }
}

/// Refuses to render experiment `name`'s report when runs of it were
/// quarantined: its renderer reads every run it declared.
///
/// # Errors
///
/// An aborted-campaign [`Failure`] (exit code 6) with one line per
/// quarantined run: id, label, kind and detail.
fn renderable(name: &str, report: &CampaignReport) -> Result<(), Failure> {
    if report.quarantined.is_empty() {
        return Ok(());
    }
    let mut message = format!(
        "{name}: not rendered, {} of its runs were quarantined",
        report.quarantined.len()
    );
    for q in &report.quarantined {
        message.push_str(&format!(
            "\n  run {} `{}`: {}: {}",
            q.id, q.label, q.kind, q.detail
        ));
    }
    Err(Failure { message, code: 6 })
}

/// The harness configuration for the given `HS_TIME_SCALE` and
/// `HS_SUBSET` values (`None` = unset), both checked before anything runs.
///
/// # Errors
///
/// A usage [`Failure`] (exit code 2) naming the variable and its valid
/// values when either value is invalid.
fn environment(
    time_scale: Option<&str>,
    subset: Option<&str>,
) -> Result<hs_sim::SimConfig, Failure> {
    let usage = |message| Failure { message, code: 2 };
    let scale = crate::parse_time_scale(time_scale).map_err(usage)?;
    crate::parse_subset(subset).map_err(usage)?;
    Ok(hs_sim::SimConfig::scaled(scale))
}

/// Runs the CLI against `args` (without the program name).
///
/// # Errors
///
/// Returns the message to print to stderr and the exit code to die with
/// (the mapping is in the module docs).
pub fn run(args: impl IntoIterator<Item = String>) -> Result<(), Failure> {
    let opts = Options::parse(args).map_err(|message| Failure { message, code: 2 })?;

    if let Some(path) = &opts.check {
        return Ok(check(path)?);
    }

    if opts.list {
        for e in &EXPERIMENTS {
            println!("{}", e.name);
        }
        return Ok(());
    }

    let mut cfg = environment(
        crate::env("HS_TIME_SCALE").as_deref(),
        crate::env("HS_SUBSET").as_deref(),
    )?;
    if let Some(mode) = opts.mode {
        cfg.exec = mode;
    }
    let jobs = opts.effective_jobs();
    let selected = opts.selected();
    let stdout = std::io::stdout();
    let mut artifact_handled = false;
    for (i, e) in selected.iter().enumerate() {
        if i > 0 {
            println!();
        }
        eprintln!("[{}/{}] {} ({jobs} jobs)", i + 1, selected.len(), e.name);
        let campaign = (e.build)(&cfg);
        let started = std::time::Instant::now();
        let sup = opts.supervision_for(e.name, selected.len());
        if let Some(dir) = sup.journal.as_ref().and_then(|p| p.parent()) {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|err| format!("cannot create {}: {err}", dir.display()))?;
            }
        }
        let report = if opts.resume {
            campaign.resume(jobs, &sup)
        } else {
            campaign.run_supervised(jobs, &sup)
        }
        .map_err(|err| Failure {
            code: sim_exit_code(&err),
            message: format!("{}: {err}", e.name),
        })?;
        eprintln!(
            "      {} runs ({} warm-ups) in {:.1}s",
            report.runs.len(),
            report.warmups,
            started.elapsed().as_secs_f64()
        );
        eprintln!("      quarantined: {}", report.quarantined.len());
        if let Some(json) = &opts.json {
            let path = artifact_path(json, e.name, selected.len());
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)
                    .map_err(|err| format!("cannot create {}: {err}", dir.display()))?;
            }
            let artifact = match e.artifact {
                Some(build_artifact) => build_artifact(&cfg),
                None => report.to_json(),
            };
            std::fs::write(&path, artifact)
                .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
            eprintln!("      wrote {}", path.display());
        }
        renderable(e.name, &report)?;
        let mut out = stdout.lock();
        (e.render)(&cfg, &report, &mut out).map_err(|err| format!("{}: {err}", e.name))?;
        if let Some(build_artifact) = e.artifact {
            // `--explain`/`--verdicts` interpret the analysis artifact, the
            // only one an experiment builds itself.
            if opts.explain || opts.verdicts.is_some() {
                let doc = Json::parse(&build_artifact(&cfg))
                    .map_err(|err| format!("{}: artifact is not JSON: {err}", e.name))?;
                if opts.explain {
                    artifact_handled = true;
                    let text = hs_sim::admission::explain_artifact(&doc)
                        .map_err(|err| format!("{}: {err}", e.name))?;
                    writeln!(out).map_err(|err| err.to_string())?;
                    write!(out, "{text}").map_err(|err| err.to_string())?;
                }
                if let Some(path) = &opts.verdicts {
                    artifact_handled = true;
                    let verdicts = check_analysis_artifact(&doc)
                        .map_err(|err| format!("{}: {err}", e.name))?;
                    let mut lines = String::new();
                    for (name, v) in &verdicts {
                        lines.push_str(&format!("{name} {v}\n"));
                    }
                    std::fs::write(path, lines)
                        .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
                    eprintln!("      wrote {}", path.display());
                }
            }
        }
        out.flush().map_err(|err| err.to_string())?;
    }
    if (opts.explain || opts.verdicts.is_some()) && !artifact_handled {
        return Err(Failure {
            message: "--explain/--verdicts need an artifact-bearing experiment \
                      (try --only analyze)"
                .into(),
            code: 2,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn defaults_select_everything() {
        let opts = parse(&[]).unwrap();
        assert!(!opts.list);
        assert_eq!(opts.selected().len(), EXPERIMENTS.len());
        assert!(opts.effective_jobs() >= 1);
    }

    #[test]
    fn only_filters_and_keeps_registry_order() {
        let opts = parse(&["--only", "fig5,fig3"]).unwrap();
        let names: Vec<_> = opts.selected().iter().map(|e| e.name).collect();
        assert_eq!(names, ["fig3", "fig5"]); // registry order, not flag order
    }

    #[test]
    fn unknown_experiment_is_rejected_with_the_menu() {
        let err = parse(&["--only", "fig99"]).unwrap_err();
        assert!(err.contains("fig99"));
        assert!(
            err.contains("sweep_faults"),
            "menu should list names: {err}"
        );
    }

    #[test]
    fn jobs_must_be_positive_numbers() {
        assert_eq!(parse(&["--jobs", "8"]).unwrap().jobs, Some(8));
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--jobs", "many"]).is_err());
        assert!(parse(&["--jobs"]).is_err());
    }

    #[test]
    fn json_and_check_take_paths() {
        let opts = parse(&["--json", "results/fig5.json"]).unwrap();
        assert_eq!(opts.json, Some(PathBuf::from("results/fig5.json")));
        let opts = parse(&["--check", "results/fig5.json"]).unwrap();
        assert_eq!(opts.check, Some(PathBuf::from("results/fig5.json")));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--deadline", "1"]).is_err());
    }

    #[test]
    fn mode_parses_and_rejects_typos() {
        use hs_sim::ExecMode;
        assert_eq!(parse(&[]).unwrap().mode, None);
        assert_eq!(
            parse(&["--mode", "cycle"]).unwrap().mode,
            Some(ExecMode::CycleAccurate)
        );
        assert_eq!(
            parse(&["--mode", "interval"]).unwrap().mode,
            Some(ExecMode::Interval)
        );
        assert!(parse(&["--mode", "warp"]).is_err());
        assert!(parse(&["--mode"]).is_err());
    }

    #[test]
    fn explain_and_verdicts_parse() {
        let opts = parse(&["--explain", "--verdicts", "results/v.txt"]).unwrap();
        assert!(opts.explain);
        assert_eq!(opts.verdicts, Some(PathBuf::from("results/v.txt")));
        assert!(!parse(&[]).unwrap().explain);
        assert!(parse(&["--verdicts"]).is_err());
    }

    #[test]
    fn explain_without_an_artifact_experiment_is_a_usage_error() {
        let failure = run([
            "--only".to_string(),
            "listings".to_string(),
            "--explain".to_string(),
        ])
        .unwrap_err();
        assert_eq!(failure.code, 2, "{}", failure.message);
        assert!(failure.message.contains("analyze"), "{}", failure.message);
    }

    #[test]
    fn verdicts_snapshot_covers_suite_variants_and_evaders() {
        let path = std::env::temp_dir().join("hs_bench_cli_verdicts_test.txt");
        run([
            "--only".to_string(),
            "analyze".to_string(),
            "--verdicts".to_string(),
            path.display().to_string(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(text.contains("variant1 heat-stroke"), "{text}");
        assert!(text.contains("evader-split heat-stroke"), "{text}");
        assert!(text.contains("evader-hidden heat-stroke"), "{text}");
        assert!(text.contains("evader-unknown suspicious"), "{text}");
        assert!(text.contains("gcc benign"), "{text}");
    }

    #[test]
    fn supervision_flags_parse_and_validate() {
        let opts = parse(&["--resume", "--journal", "j.jsonl", "--abort-after", "4"]).unwrap();
        assert!(opts.resume);
        assert_eq!(opts.journal, Some(PathBuf::from("j.jsonl")));
        assert_eq!(opts.abort_after, Some(4));
        assert!(opts.wants_supervision());
        assert!(!parse(&[]).unwrap().wants_supervision());
        assert!(parse(&["--abort-after", "0"]).is_err());
    }

    #[test]
    fn journal_paths_follow_the_artifact() {
        let mut opts = parse(&["--json", "results/fig4.json"]).unwrap();
        assert_eq!(
            opts.journal_path("fig4", 1),
            PathBuf::from("results/fig4.journal.jsonl")
        );
        opts.json = Some(PathBuf::from("results"));
        assert_eq!(
            opts.journal_path("fig4", 3),
            PathBuf::from("results/fig4.journal.jsonl")
        );
        opts.json = None;
        assert_eq!(
            opts.journal_path("fig4", 1),
            PathBuf::from("fig4.journal.jsonl")
        );
        opts.journal = Some(PathBuf::from("/tmp/j"));
        assert_eq!(opts.journal_path("fig4", 1), PathBuf::from("/tmp/j"));
        assert_eq!(
            opts.journal_path("fig4", 2),
            PathBuf::from("/tmp/j/fig4.journal.jsonl")
        );
    }

    #[test]
    fn only_a_supervision_flag_makes_an_experiment_journal() {
        let sup = parse(&[]).unwrap().supervision_for("fig3", 1);
        assert!(sup.journal.is_none(), "no flag, no journal");
        assert_eq!(sup.abort_after, None);
        for flags in [
            &["--resume"][..],
            &["--journal", "j.jsonl"],
            &["--abort-after", "3"],
        ] {
            let sup = parse(flags).unwrap().supervision_for("fig3", 1);
            assert!(sup.journal.is_some(), "{flags:?} journals");
        }
        let sup = parse(&["--abort-after", "3"])
            .unwrap()
            .supervision_for("fig3", 1);
        assert_eq!(sup.abort_after, Some(3));
    }

    #[test]
    fn quarantined_runs_abort_an_experiment_unrendered() {
        let report = CampaignReport {
            name: "fig3".into(),
            runs: Vec::new(),
            quarantined: vec![hs_sim::QuarantinedRun {
                id: 0,
                label: "gcc".into(),
                kind: "failed".into(),
                detail: "replayed from an earlier run".into(),
            }],
            jobs: 1,
            warmups: 0,
            wall: Duration::ZERO,
        };
        let failure = renderable("fig3", &report).unwrap_err();
        assert_eq!(failure.code, 6);
        let lines: Vec<&str> = failure.message.lines().collect();
        assert_eq!(lines.len(), 2, "{}", failure.message);
        assert_eq!(
            lines[1],
            "  run 0 `gcc`: failed: replayed from an earlier run"
        );
        // Nothing quarantined: render as usual.
        let clean = CampaignReport {
            quarantined: Vec::new(),
            ..report
        };
        assert!(renderable("fig3", &clean).is_ok());
    }

    #[test]
    fn exit_codes_are_stable_and_documented() {
        assert_eq!(sim_exit_code(&SimError::NoWorkloads), 4);
        assert_eq!(sim_exit_code(&SimError::RunawayCombination), 4);
        assert_eq!(
            sim_exit_code(&SimError::DuplicateLabel {
                label: "x".into(),
                first: 0,
                second: 1
            }),
            4
        );
        assert_eq!(
            sim_exit_code(&SimError::Interrupted {
                what: "abort".into()
            }),
            6
        );
        assert_eq!(
            sim_exit_code(&SimError::Journal {
                detail: "torn".into()
            }),
            7
        );
        // InvalidRun reports as its cause.
        assert_eq!(
            sim_exit_code(&SimError::InvalidRun {
                id: 3,
                label: "x".into(),
                cause: Box::new(SimError::Interrupted { what: "w".into() }),
            }),
            6
        );
        // Usage problems exit 2 through the Failure path.
        let failure = run(["--frobnicate".to_string()]).unwrap_err();
        assert_eq!(failure.code, 2);
        assert_eq!(Failure::from("io".to_string()).code, 1);
    }

    /// The usage failure `environment` returns for these values.
    fn env_failure(time_scale: Option<&str>, subset: Option<&str>) -> Failure {
        let failure = environment(time_scale, subset).unwrap_err();
        assert_eq!(failure.code, 2, "{}", failure.message);
        failure
    }

    #[test]
    fn environment_defaults_to_scale_50_and_the_whole_suite() {
        let cfg = environment(None, None).unwrap();
        assert_eq!(cfg.time_scale, 50.0);
        assert_eq!(
            environment(Some("400"), Some("gcc,mcf"))
                .unwrap()
                .time_scale,
            400.0
        );
    }

    #[test]
    fn a_word_for_a_time_scale_is_a_usage_error() {
        let msg = env_failure(Some("fast"), None).message;
        assert!(msg.contains("HS_TIME_SCALE=`fast`"), "{msg}");
        assert!(msg.contains(">= 1"), "valid values: {msg}");
    }

    #[test]
    fn a_time_scale_under_one_or_nan_is_a_usage_error() {
        for value in ["nan", "0.5", "inf"] {
            let msg = env_failure(Some(value), None).message;
            assert!(msg.contains(&format!("HS_TIME_SCALE=`{value}`")), "{msg}");
            assert!(msg.contains(">= 1"), "valid values: {msg}");
        }
    }

    #[test]
    fn an_unknown_subset_name_is_a_usage_error() {
        let msg = env_failure(None, Some("gcc,mfc")).message;
        assert!(msg.contains("HS_SUBSET") && msg.contains("`mfc`"), "{msg}");
        assert!(
            msg.contains("gcc,") && msg.contains("mcf"),
            "valid names: {msg}"
        );
    }

    #[test]
    fn a_subset_selecting_nothing_is_a_usage_error() {
        for value in ["", " , "] {
            let msg = env_failure(None, Some(value)).message;
            assert!(
                msg.contains("HS_SUBSET") && msg.contains("no benchmark"),
                "{msg}"
            );
            assert!(msg.contains("mcf"), "valid names: {msg}");
        }
    }

    #[test]
    fn artifact_path_depends_on_selection_size() {
        let single = artifact_path(Path::new("results/fig5.json"), "fig5", 1);
        assert_eq!(single, PathBuf::from("results/fig5.json"));
        let multi = artifact_path(Path::new("results"), "fig5", 3);
        assert_eq!(multi, PathBuf::from("results/fig5.json"));
    }
}
