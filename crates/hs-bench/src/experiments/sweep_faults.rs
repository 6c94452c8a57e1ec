//! Fault-injection sweep (DESIGN.md §"Fault model & failsafe DTM").
//!
//! Runs the Figure-5 attack scenario (gcc victim + Variant 2 attacker on a
//! realistic package) under a matrix of *hardware fault scenarios* ×
//! *thermal policies* and tables victim throughput, peak **true**
//! temperature, and the defensive events each policy produced. The point of
//! the experiment: plain selective sedation trusts its sensors, so a single
//! stuck-low hot-spot sensor silently disables the trigger and lets the
//! attacker push the die past the emergency threshold — while the hardened
//! `failsafe` policy detects the lying sensor, falls back to worst-case
//! stop-and-go, and keeps the true temperature bounded.
//!
//! Every run is driven by a fixed-seed fault plan, so the whole table is
//! bit-reproducible; the campaign carries a duplicate of each scenario and
//! the renderer asserts identical results before printing the verdict.

use crate::header;
use hs_core::{CounterFault, CounterFaultKind, CounterFaultPlan, ReportKind};
use hs_sim::{
    Campaign, CampaignMatrix, CampaignReport, FaultConfig, HeatSink, PolicyKind, RunSpec,
    SimConfig, SimStats,
};
use hs_thermal::{Block, SensorFault, SensorFaultKind, SensorFaultPlan};
use hs_workloads::{SpecWorkload, Workload};
use std::io::{self, Write};

/// The sensor watching the attacked hot spot.
const HOT: Block = Block::IntReg;

const POLICIES: [PolicyKind; 3] = [
    PolicyKind::SelectiveSedation,
    PolicyKind::FaultTolerant,
    PolicyKind::StopAndGo,
];

fn scenarios(cfg: &SimConfig) -> Vec<(&'static str, FaultConfig)> {
    // Fault onset after the first few sensor frames, so the guard has a
    // voting history when the hardware starts lying.
    let onset = 8 * cfg.sensor_interval_cycles;
    let sensor = |kind| {
        SensorFaultPlan::seeded(0xFA_0175).with(SensorFault {
            block: HOT,
            kind,
            from_cycle: onset,
            until_cycle: u64::MAX,
        })
    };
    let counter = |kind| {
        CounterFaultPlan::none().with(CounterFault {
            thread: 1, // the attacker's counters
            block: Some(HOT),
            kind,
            from_cycle: onset,
            until_cycle: u64::MAX,
        })
    };
    vec![
        ("none", FaultConfig::none()),
        (
            "stuck-low",
            FaultConfig {
                sensors: sensor(SensorFaultKind::StuckAt { value_k: 345.0 }),
                ..FaultConfig::none()
            },
        ),
        (
            "dropout",
            FaultConfig {
                sensors: sensor(SensorFaultKind::Dropout),
                ..FaultConfig::none()
            },
        ),
        (
            "drift-down",
            FaultConfig {
                sensors: sensor(SensorFaultKind::Drift {
                    rate_k_per_read: -0.05,
                }),
                ..FaultConfig::none()
            },
        ),
        (
            "spikes",
            FaultConfig {
                sensors: sensor(SensorFaultKind::Spike {
                    amplitude_k: 25.0,
                    one_in: 6,
                }),
                ..FaultConfig::none()
            },
        ),
        (
            "delay-8",
            FaultConfig {
                sensors: sensor(SensorFaultKind::Delay { readings: 8 }),
                ..FaultConfig::none()
            },
        ),
        (
            "ctr-zero",
            FaultConfig {
                counters: counter(CounterFaultKind::StuckZero),
                ..FaultConfig::none()
            },
        ),
        (
            "ctr-sat",
            FaultConfig {
                counters: counter(CounterFaultKind::SaturateAt { ceiling: 50 }),
                ..FaultConfig::none()
            },
        ),
    ]
}

pub(super) fn build(cfg: &SimConfig) -> Campaign {
    // The main table is a pure product: one co-schedule x 3 policies x 8
    // fault plans on the realistic sink.
    let mut m = CampaignMatrix::new(*cfg).workloads(
        "gcc+v2",
        [Workload::Spec(SpecWorkload::Gcc), Workload::Variant2],
    );
    for p in POLICIES {
        m = m.policy(p);
    }
    for (name, faults) in scenarios(cfg) {
        m = m.faults(name, faults);
    }
    let mut c = m.build("sweep_faults").expect("fault matrix is valid");
    // Duplicate every cell so the renderer can verify bit-reproducibility
    // (each run owns its simulator; equal inputs must give equal outputs).
    for (name, faults) in scenarios(cfg) {
        for policy in POLICIES {
            let spec = RunSpec::builder()
                .workloads([Workload::Spec(SpecWorkload::Gcc), Workload::Variant2])
                .policy(policy)
                .sink(HeatSink::Realistic)
                .config(SimConfig { faults, ..*cfg })
                .build()
                .expect("fault rerun is valid");
            c.push(format!("again/{name}/{}", policy.name()), spec);
        }
    }
    c
}

fn label(fault: &str, policy: PolicyKind) -> String {
    format!("gcc+v2/{}/realistic/{fault}", policy.name())
}

/// The fields that must be bit-identical across repeated runs.
fn fingerprint(s: &SimStats) -> (u64, u64, u64, Vec<u64>, usize) {
    (
        s.thread(0).committed,
        s.thread(1).committed,
        s.emergencies,
        s.peak_temps.iter().map(|t| t.to_bits()).collect(),
        s.reports.len(),
    )
}

pub(super) fn render(
    cfg: &SimConfig,
    report: &CampaignReport,
    out: &mut dyn Write,
) -> io::Result<()> {
    header(
        out,
        "Fault sweep",
        "sensor/counter faults × thermal policies",
        cfg,
    )?;
    let emergency = cfg.sedation.thresholds.emergency_k;
    writeln!(
        out,
        "victim gcc + attacker variant-2, realistic sink; hot-spot sensor = {HOT}\n\
         emergency threshold {emergency:.1} K; faults begin after 8 sensor frames\n"
    )?;

    writeln!(
        out,
        "{:>10} | {:>11} | {:>10} {:>9} {:>6} {:>6} {:>5} {:>5} {:>5}",
        "fault", "policy", "victim IPC", "peak K", "emerg", "sed", "fail", "fbk", "halt"
    )?;

    let mut deterministic = true;
    for (name, _) in scenarios(cfg) {
        for policy in POLICIES {
            let stats = report.stats(&label(name, policy));
            let again = report.stats(&format!("again/{name}/{}", policy.name()));
            if fingerprint(stats) != fingerprint(again) {
                deterministic = false;
                writeln!(out, "NON-DETERMINISTIC: {name} under {}", policy.name())?;
            }
            writeln!(
                out,
                "{:>10} | {:>11} | {:>10.2} {:>9.2} {:>6} {:>6} {:>5} {:>5} {:>5}",
                name,
                policy.name(),
                stats.thread(0).ipc,
                stats.peak_temp(),
                stats.emergencies,
                stats.thread(1).sedations,
                stats.count_kind(ReportKind::SensorFailed),
                stats.count_kind(ReportKind::FallbackEngaged),
                stats.count_kind(ReportKind::WatchdogHalt),
            )?;
        }
        writeln!(out)?;
    }

    // Verdict 1: with no faults the hardened policy behaves like plain
    // sedation (the guard is transparent on healthy hardware).
    let clean_sed = report.stats(&label("none", PolicyKind::SelectiveSedation));
    let clean_fs = report.stats(&label("none", PolicyKind::FaultTolerant));
    let transparent =
        (clean_fs.thread(0).ipc - clean_sed.thread(0).ipc).abs() / clean_sed.thread(0).ipc < 0.05
            && clean_fs.count_kind(ReportKind::FallbackEngaged) == 0;

    // Verdict 2: a stuck-low hot-spot sensor defeats plain sedation (true
    // peak exceeds the emergency threshold) but not the failsafe (true peak
    // stays within 1 K of it).
    let blind = report.stats(&label("stuck-low", PolicyKind::SelectiveSedation));
    let guarded = report.stats(&label("stuck-low", PolicyKind::FaultTolerant));
    let sedation_defeated = blind.peak_temp() > emergency;
    let failsafe_holds = guarded.peak_temp() <= emergency + 1.0;

    writeln!(out, "verdicts:")?;
    writeln!(
        out,
        "  [{}] healthy hardware: failsafe ≈ sedation (victim IPC {:.2} vs {:.2}, no fallback)",
        if transparent { "pass" } else { "FAIL" },
        clean_fs.thread(0).ipc,
        clean_sed.thread(0).ipc,
    )?;
    writeln!(
        out,
        "  [{}] stuck-low sensor defeats plain sedation: true peak {:.2} K > {:.1} K",
        if sedation_defeated { "pass" } else { "FAIL" },
        blind.peak_temp(),
        emergency,
    )?;
    writeln!(
        out,
        "  [{}] failsafe bounds the same attack: true peak {:.2} K ≤ {:.1} K (+1 K)",
        if failsafe_holds { "pass" } else { "FAIL" },
        guarded.peak_temp(),
        emergency,
    )?;
    writeln!(
        out,
        "  [{}] every run bit-reproducible for its fixed fault-plan seed",
        if deterministic { "pass" } else { "FAIL" },
    )?;
    assert!(
        transparent && sedation_defeated && failsafe_holds && deterministic,
        "fault-sweep acceptance criteria not met"
    );
    Ok(())
}
