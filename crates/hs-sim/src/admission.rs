//! Static admission screening: `hs-analyze` as an OS-level gatekeeper.
//!
//! The paper's DTM reacts only after a thermal sensor trips; by then the
//! attacker has already stolen a heating episode. The admission hook runs
//! the static analyzer over a program *before its first cycle* and reports
//! the verdict to the "OS"; the run itself is left to the DTM:
//!
//! * [`AdmissionMode::Off`] (the default) — no screening at all. Every
//!   paper figure is produced in this mode, so the published numbers are
//!   byte-identical with or without this module compiled in.
//! * [`AdmissionMode::Warn`] — admit the thread, filing an
//!   `admission flagged` OS report at cycle 0 when its verdict is
//!   [`Verdict::HeatStroke`] or [`Verdict::Suspicious`].
//!
//! See `DESIGN.md` §"Static screening" for the thresholds and the
//! reasoning behind the default.

use crate::config::SimConfig;
use crate::json::Json;
use hs_analyze::{analyze, AnalyzerConfig, Diagnostic, ProgramAnalysis, TripCount, Verdict};
use hs_isa::Program;
use std::fmt::Write as _;

/// What the simulator does with a statically flagged program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AdmissionMode {
    /// No static screening (the paper's configuration).
    #[default]
    Off,
    /// Admit, but report flagged programs to the OS at cycle 0.
    Warn,
}

impl AdmissionMode {
    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AdmissionMode::Off => "off",
            AdmissionMode::Warn => "warn",
        }
    }
}

/// Derives the static analyzer's machine model from a simulation
/// configuration, so the admission verdict refers to the same pipeline,
/// caches, energies, thermal network, and DTM thresholds the program would
/// actually run against.
#[must_use]
pub fn analyzer_config(cfg: &SimConfig) -> AnalyzerConfig {
    AnalyzerConfig {
        cpu: cfg.cpu,
        mem: cfg.mem,
        energy: cfg.energy,
        thermal: cfg.thermal,
        thresholds: cfg.sedation.thresholds,
        freq_hz: cfg.freq_hz,
        time_scale: cfg.time_scale,
    }
}

/// Screens one program against a simulation configuration.
#[must_use]
pub fn screen(program: &Program, cfg: &SimConfig) -> ProgramAnalysis {
    analyze(program, &analyzer_config(cfg))
}

/// Serializes a [`ProgramAnalysis`] as a deterministic [`Json`] value (the
/// machine-readable half of the `campaign analyze` artifact).
#[must_use]
pub fn analysis_to_json(a: &ProgramAnalysis) -> Json {
    let loops = a
        .loops
        .iter()
        .map(|l| {
            Json::Obj(vec![
                ("header_inst".into(), Json::U64(l.header_inst as u64)),
                ("depth".into(), Json::U64(u64::from(l.depth))),
                ("trip".into(), trip_to_json(l.trip)),
                ("cycles_per_iter".into(), Json::f64(l.cycles_per_iter)),
                ("sustain_cycles".into(), Json::f64(l.sustain_cycles)),
                (
                    "hottest_block".into(),
                    Json::Str(l.hottest_block.name().into()),
                ),
                ("est_temp_k".into(), Json::f64(l.est_temp_k)),
                ("transient".into(), transient_to_json(l.transient.as_ref())),
                ("verdict".into(), Json::Str(l.verdict.name().into())),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("verdict".into(), Json::Str(a.verdict.name().into())),
        (
            "hottest_block".into(),
            Json::Str(a.hottest_block.name().into()),
        ),
        ("est_temp_k".into(), Json::f64(a.est_temp_k)),
        ("peak_temp_k".into(), Json::f64(a.peak_temp_k)),
        ("int_regfile_rate".into(), Json::f64(a.int_regfile_rate)),
        (
            "sustain_threshold_cycles".into(),
            Json::f64(a.sustain_threshold_cycles),
        ),
        ("loops".into(), Json::Arr(loops)),
        (
            "diagnostics".into(),
            Json::Arr(a.diagnostics.iter().map(diagnostic_to_json).collect()),
        ),
    ])
}

fn transient_to_json(t: Option<&hs_analyze::TransientReport>) -> Json {
    let Some(t) = t else { return Json::Null };
    Json::Obj(vec![
        ("phases".into(), Json::U64(t.phases as u64)),
        ("period_cycles".into(), Json::f64(t.period_cycles)),
        ("duty".into(), Json::f64(t.duty)),
        ("peak_block".into(), Json::Str(t.peak_block.name().into())),
        ("peak_temp_k".into(), Json::f64(t.peak_temp_k)),
        ("baseline_temp_k".into(), Json::f64(t.baseline_temp_k)),
    ])
}

fn diagnostic_to_json(d: &Diagnostic) -> Json {
    Json::Obj(vec![
        ("pass".into(), Json::Str(d.pass.into())),
        ("severity".into(), Json::Str(d.severity.name().into())),
        ("verdict".into(), Json::Str(d.verdict.name().into())),
        (
            "loop_index".into(),
            d.loop_index.map_or(Json::Null, |i| Json::U64(i as u64)),
        ),
        (
            "span".into(),
            Json::Arr(vec![Json::U64(d.span.0 as u64), Json::U64(d.span.1 as u64)]),
        ),
        ("message".into(), Json::Str(d.message.clone())),
        (
            "peak_temp_k".into(),
            d.peak_temp_k.map_or(Json::Null, Json::f64),
        ),
    ])
}

fn trip_to_json(trip: TripCount) -> Json {
    match trip {
        TripCount::Finite(n) => Json::U64(n),
        TripCount::Infinite => Json::Str("infinite".into()),
        TripCount::Unknown => Json::Str("unknown".into()),
    }
}

/// Validates a parsed `campaign analyze` artifact: every listed program
/// must carry a well-formed verdict. Returns the `(name, verdict)` pairs.
///
/// # Errors
///
/// Returns a description of the first malformed entry.
pub fn check_analysis_artifact(doc: &Json) -> Result<Vec<(String, Verdict)>, String> {
    let programs = doc
        .get("programs")
        .and_then(Json::as_arr)
        .ok_or("artifact has no `programs` array")?;
    if programs.is_empty() {
        return Err("artifact lists no programs".into());
    }
    let mut out = Vec::with_capacity(programs.len());
    for p in programs {
        let name = p
            .get("name")
            .and_then(Json::as_str)
            .ok_or("program entry has no `name`")?;
        let verdict = p
            .get("analysis")
            .and_then(|a| a.get("verdict"))
            .and_then(Json::as_str)
            .and_then(Verdict::from_name)
            .ok_or_else(|| format!("program `{name}` has no valid verdict"))?;
        out.push((name.to_string(), verdict));
    }
    Ok(out)
}

/// Renders a parsed `campaign analyze` artifact as a human-readable report
/// (`campaign analyze --explain`): per program, the verdict, the predicted
/// peak, every loop's phase structure, and every diagnostic that fired.
/// Works from the artifact JSON alone so a saved artifact can be explained
/// without re-running the analysis.
///
/// # Errors
///
/// Returns a description of the first malformed entry (same validation as
/// [`check_analysis_artifact`]).
pub fn explain_artifact(doc: &Json) -> Result<String, String> {
    let programs = doc
        .get("programs")
        .and_then(Json::as_arr)
        .ok_or("artifact has no `programs` array")?;
    let mut out = String::new();
    for p in programs {
        let name = p
            .get("name")
            .and_then(Json::as_str)
            .ok_or("program entry has no `name`")?;
        let a = p
            .get("analysis")
            .ok_or_else(|| format!("program `{name}` has no `analysis`"))?;
        let verdict = a
            .get("verdict")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("program `{name}` has no valid verdict"))?;
        let fnum = |obj: &Json, key: &str| obj.get(key).and_then(Json::as_f64);
        let _ = writeln!(out, "{name}: {}", verdict.to_uppercase());
        if let (Some(est), Some(peak)) = (fnum(a, "est_temp_k"), fnum(a, "peak_temp_k")) {
            let _ = writeln!(
                out,
                "  worst loop steady state {est:.1} K, predicted peak {peak:.1} K"
            );
        }
        for (li, l) in a
            .get("loops")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .enumerate()
        {
            let trip = match l.get("trip") {
                Some(Json::U64(n)) => format!("{n} trips"),
                Some(Json::Str(s)) => s.clone(),
                _ => "?".into(),
            };
            let temp = fnum(l, "est_temp_k").unwrap_or(f64::NAN);
            let block = l.get("hottest_block").and_then(Json::as_str).unwrap_or("?");
            let lverdict = l.get("verdict").and_then(Json::as_str).unwrap_or("?");
            let _ = writeln!(
                out,
                "  loop {li}: {trip}, steady {temp:.1} K at {block} [{lverdict}]"
            );
            if let Some(t) = l.get("transient").filter(|t| !matches!(t, Json::Null)) {
                let phases = t.get("phases").and_then(Json::as_u64).unwrap_or(0);
                let duty = fnum(t, "duty").unwrap_or(f64::NAN);
                let period = fnum(t, "period_cycles").unwrap_or(f64::NAN);
                let peak = fnum(t, "peak_temp_k").unwrap_or(f64::NAN);
                let base = fnum(t, "baseline_temp_k").unwrap_or(f64::NAN);
                let pblock = t.get("peak_block").and_then(Json::as_str).unwrap_or("?");
                let _ = writeln!(
                    out,
                    "    phases: {phases}, duty {:.0}%, period {period:.0} cycles; \
                     envelope peak {peak:.1} K at {pblock} (duty-average {base:.1} K)",
                    duty * 100.0
                );
            }
        }
        for d in a.get("diagnostics").and_then(Json::as_arr).unwrap_or(&[]) {
            let pass = d.get("pass").and_then(Json::as_str).unwrap_or("?");
            let sev = d.get("severity").and_then(Json::as_str).unwrap_or("?");
            let msg = d.get("message").and_then(Json::as_str).unwrap_or("");
            let anchor = match d.get("loop_index") {
                Some(Json::U64(i)) => format!(" (loop {i})"),
                _ => String::new(),
            };
            let _ = writeln!(out, "  [{sev}] {pass}{anchor}: {msg}");
        }
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_workloads::Workload;

    #[test]
    fn mode_names_are_stable() {
        assert_eq!(AdmissionMode::Off.name(), "off");
        assert_eq!(AdmissionMode::Warn.name(), "warn");
        assert_eq!(AdmissionMode::default(), AdmissionMode::Off);
    }

    #[test]
    fn analyzer_config_tracks_the_sim_config() {
        let sim = SimConfig::scaled(50.0);
        let a = analyzer_config(&sim);
        assert_eq!(a.time_scale, 50.0);
        assert_eq!(a.freq_hz, sim.freq_hz);
        assert_eq!(a.thresholds, sim.sedation.thresholds);
    }

    #[test]
    fn variant1_screens_as_heat_stroke_and_serializes() {
        let cfg = SimConfig::scaled(50.0);
        let program = Workload::Variant1.program_with(&cfg.mem, cfg.time_scale);
        let a = screen(&program, &cfg);
        assert_eq!(a.verdict, Verdict::HeatStroke);
        let json = analysis_to_json(&a);
        assert_eq!(
            json.get("verdict").and_then(Json::as_str),
            Some("heat-stroke")
        );
        // The writer's output parses back to the same value.
        let text = json.to_string_pretty();
        assert_eq!(Json::parse(&text).unwrap(), json);
    }

    #[test]
    fn artifact_check_accepts_good_and_names_bad() {
        let good = Json::Obj(vec![(
            "programs".into(),
            Json::Arr(vec![Json::Obj(vec![
                ("name".into(), Json::Str("gcc".into())),
                (
                    "analysis".into(),
                    Json::Obj(vec![("verdict".into(), Json::Str("benign".into()))]),
                ),
            ])]),
        )]);
        let parsed = check_analysis_artifact(&good).unwrap();
        assert_eq!(parsed, vec![("gcc".to_string(), Verdict::Benign)]);

        let bad = Json::Obj(vec![(
            "programs".into(),
            Json::Arr(vec![Json::Obj(vec![
                ("name".into(), Json::Str("gcc".into())),
                (
                    "analysis".into(),
                    Json::Obj(vec![("verdict".into(), Json::Str("nonsense".into()))]),
                ),
            ])]),
        )]);
        let err = check_analysis_artifact(&bad).unwrap_err();
        assert!(err.contains("gcc"), "{err}");
        assert!(check_analysis_artifact(&Json::Null).is_err());
    }

    #[test]
    fn artifact_json_carries_diagnostics_and_peak() {
        let cfg = SimConfig::scaled(50.0);
        let program = Workload::Variant1.program_with(&cfg.mem, cfg.time_scale);
        let a = screen(&program, &cfg);
        let json = analysis_to_json(&a);
        assert!(json.get("peak_temp_k").and_then(Json::as_f64).is_some());
        let diags = json.get("diagnostics").and_then(Json::as_arr).unwrap();
        assert!(!diags.is_empty(), "variant1 must fire at least one pass");
        for d in diags {
            assert!(d.get("pass").and_then(Json::as_str).is_some());
            assert!(d.get("severity").and_then(Json::as_str).is_some());
            assert!(d.get("message").and_then(Json::as_str).is_some());
        }
        // Round-trips through the writer/parser.
        let text = json.to_string_pretty();
        assert_eq!(Json::parse(&text).unwrap(), json);
    }

    #[test]
    fn explain_renders_verdict_loops_and_diagnostics() {
        let cfg = SimConfig::scaled(50.0);
        let program = Workload::EvaderSplit.program_with(&cfg.mem, cfg.time_scale);
        let a = screen(&program, &cfg);
        let doc = Json::Obj(vec![(
            "programs".into(),
            Json::Arr(vec![Json::Obj(vec![
                ("name".into(), Json::Str("evader-split".into())),
                ("analysis".into(), analysis_to_json(&a)),
            ])]),
        )]);
        let text = explain_artifact(&doc).unwrap();
        assert!(text.contains("evader-split:"), "{text}");
        assert!(text.contains("loop 0:"), "{text}");
        assert!(text.contains("predicted peak"), "{text}");
        // The phase pass fires on the evader, so the explain output names
        // it and shows the envelope.
        assert!(text.contains("phase-alternation"), "{text}");
        assert!(text.contains("envelope peak"), "{text}");

        assert!(explain_artifact(&Json::Null).is_err());
    }
}
