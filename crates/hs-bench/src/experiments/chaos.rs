//! Chaos: the supervision layer exercised end to end, deterministically.
//!
//! A 10-run matrix executed under a seeded [`ChaosPlan`]: two runs (ids 2
//! and 7) panic on **every** attempt and must land in quarantine; run 9
//! (the "budget buster") asks for twice the configured quantum and must be
//! refused by the cycle budget before it executes; the remaining runs see
//! first-attempt panics/transients at seeded rates that bounded retry
//! always clears. The quarantine set is therefore exactly `{2, 7, 9}` at
//! any worker count and any `HS_TIME_SCALE`, and the artifact is
//! byte-identical across `--jobs` — CI's `chaos-smoke` job holds the
//! harness to that.
//!
//! Unlike the paper experiments this matrix ignores `HS_SUBSET`: chaos
//! determinism is a property of the fixed plan, not of the suite.

use hs_sim::{
    Campaign, CampaignReport, ChaosPlan, HeatSink, PolicyKind, RunSpec, SimConfig, Supervision,
};
use hs_workloads::{SpecWorkload, Workload};
use std::io::{self, Write};

/// Run ids that fail permanently by construction (see module docs).
const PERMANENT: [usize; 2] = [2, 7];
/// The run id whose spec exceeds the cycle budget.
const BUSTER: usize = 9;

pub(super) fn build(cfg: &SimConfig) -> Campaign {
    let gcc = Workload::Spec(SpecWorkload::Gcc);
    let mcf = Workload::Spec(SpecWorkload::Mcf);
    let mut c = Campaign::new("chaos");
    let solo = |c: &mut Campaign, label: &str, w, p| {
        c.push(label, RunSpec::solo(w, p, HeatSink::Realistic, *cfg));
    };
    let pair = |c: &mut Campaign, label: &str, v, o, p| {
        c.push(label, RunSpec::pair(v, o, p, HeatSink::Realistic, *cfg));
    };
    solo(&mut c, "gcc/solo", gcc, PolicyKind::StopAndGo); // 0
    solo(&mut c, "mcf/solo", mcf, PolicyKind::StopAndGo); // 1
    pair(
        &mut c,
        "gcc+v2/sg",
        gcc,
        Workload::Variant2,
        PolicyKind::StopAndGo,
    ); // 2 permanent
    pair(
        &mut c,
        "gcc+v2/sed",
        gcc,
        Workload::Variant2,
        PolicyKind::SelectiveSedation,
    ); // 3
    pair(
        &mut c,
        "mcf+v2/sed",
        mcf,
        Workload::Variant2,
        PolicyKind::SelectiveSedation,
    ); // 4
    solo(&mut c, "v1/solo", Workload::Variant1, PolicyKind::StopAndGo); // 5
    solo(&mut c, "v2/solo", Workload::Variant2, PolicyKind::StopAndGo); // 6
    pair(
        &mut c,
        "gcc+v1/sed",
        gcc,
        Workload::Variant1,
        PolicyKind::SelectiveSedation,
    ); // 7 permanent
    pair(
        &mut c,
        "mcf+v1/sg",
        mcf,
        Workload::Variant1,
        PolicyKind::StopAndGo,
    ); // 8

    // Run 9: a spec that wants twice the quantum the budget covers. The
    // overrun is relative to `cfg`, so it busts at any HS_TIME_SCALE.
    let mut greedy = *cfg;
    greedy.quantum_cycles *= 2;
    c.push(
        "greedy/buster",
        RunSpec::solo(
            gcc,
            PolicyKind::SelectiveSedation,
            HeatSink::Realistic,
            *cfg,
        )
        .with_config(greedy),
    );
    c
}

/// The supervision the registry attaches to this experiment: cycle budget
/// sized for exactly one configured run, three attempts, and the chaos plan
/// described in the module docs.
pub(super) fn supervision(cfg: &SimConfig) -> Supervision {
    Supervision {
        cycle_budget: Some(cfg.warmup_cycles + cfg.quantum_cycles),
        max_attempts: 3,
        chaos: Some(
            ChaosPlan::seeded(0x48EA_757F)
                .panic_rate(0.3)
                .transient_rate(0.3)
                .permanent(PERMANENT),
        ),
        ..Supervision::default()
    }
}

pub(super) fn render(
    cfg: &SimConfig,
    report: &CampaignReport,
    out: &mut dyn Write,
) -> io::Result<()> {
    writeln!(
        out,
        "== Chaos: supervised campaign under injected faults =="
    )?;
    writeln!(
        out,
        "   (time scale {}x, quantum {} Mcycles, retries 3, cycle budget = 1 quantum)\n",
        cfg.time_scale,
        cfg.quantum_cycles / 1_000_000,
    )?;

    writeln!(
        out,
        "{:>4} {:>14} {:>8} {:>12}",
        "id", "run", "ipc", "committed"
    )?;
    for r in &report.runs {
        let ipc: f64 = r.stats.threads.iter().map(|t| t.ipc).sum();
        let committed: u64 = r.stats.threads.iter().map(|t| t.committed).sum();
        writeln!(
            out,
            "{:>4} {:>14} {:>8.3} {:>12}",
            r.id, r.label, ipc, committed
        )?;
    }

    writeln!(out, "\nquarantined ({}):", report.quarantined.len())?;
    for q in &report.quarantined {
        writeln!(
            out,
            "{:>4} {:>14} {:>16} x{}  {}",
            q.id, q.label, q.kind, q.attempts, q.detail
        )?;
    }
    let expected: Vec<usize> = PERMANENT.iter().copied().chain([BUSTER]).collect();
    let got: Vec<usize> = report.quarantined.iter().map(|q| q.id).collect();
    writeln!(
        out,
        "\nplanned quarantine set {expected:?}, observed {got:?}: {}",
        if got == expected { "MATCH" } else { "MISMATCH" }
    )?;
    writeln!(
        out,
        "supervision kept {} of {} runs despite injected panics and faults",
        report.runs.len(),
        report.runs.len() + report.quarantined.len(),
    )
}
