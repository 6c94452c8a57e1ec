//! Differential tests for warm-up sharing: a campaign simulates each
//! distinct warm-up once and starts the runs sharing it from clones of the
//! warmed core, and every report must equal the one built from each run's
//! own `RunSpec::try_run()` — at any worker count and across an abort and
//! resume. A run that panics while it warms its group's core is covered by
//! the unit tests of `hs_sim::supervise`, which can plant that panic.

use hs_sim::{
    AdmissionMode, Campaign, CampaignReport, ExecMode, FaultConfig, HeatSink, PolicyKind,
    RunRecord, RunSpec, SimConfig, Supervision,
};
use hs_thermal::{Block, SensorFault, SensorFaultKind, SensorFaultPlan};
use hs_workloads::{SpecWorkload, Workload};
use std::path::PathBuf;
use std::time::Duration;

const GCC: Workload = Workload::Spec(SpecWorkload::Gcc);

/// Tiny runs at a time scale where the DTM acts within the quantum.
fn tiny() -> SimConfig {
    let mut c = SimConfig::scaled(2000.0);
    c.warmup_cycles = 20_000;
    c.quantum_cycles = 30_000;
    c
}

fn spec(workloads: &[Workload], policy: PolicyKind, sink: HeatSink, cfg: SimConfig) -> RunSpec {
    RunSpec::builder()
        .workloads(workloads.iter().copied())
        .policy(policy)
        .sink(sink)
        .config(cfg)
        .build()
        .expect("valid spec")
}

/// Shared and unshared warm-ups, interleaved: six runs of gcc+variant2
/// that differ only in what warm-up does not read (policy, sink,
/// thresholds, a sensor-fault plan, interval mode), split by a run with a
/// longer warm-up and a gcc solo; then gcc+evader-split under `Off` and
/// `Warn` admission, which share a warm-up (screening only files reports).
/// Four distinct warm-ups in all.
fn mixed() -> Campaign {
    let pair = [GCC, Workload::Variant2];
    let realistic = HeatSink::Realistic;
    let mut hot = tiny();
    hot.sedation.thresholds.emergency_k -= 2.0;
    hot.sedation.thresholds.normal_k -= 2.0;
    let faulted = SimConfig {
        faults: FaultConfig {
            sensors: SensorFaultPlan::seeded(5).with(SensorFault::permanent(
                Block::IntReg,
                SensorFaultKind::StuckAt { value_k: 345.0 },
                4 * tiny().sensor_interval_cycles,
            )),
            ..FaultConfig::none()
        },
        ..tiny()
    };
    let interval = SimConfig {
        exec: ExecMode::Interval,
        ..tiny()
    };
    let longer = SimConfig {
        warmup_cycles: 25_000,
        ..tiny()
    };
    // Screening verdicts are calibrated at the harness time scale.
    let screened = |admission| {
        let mut c = SimConfig::scaled(50.0);
        c.warmup_cycles = 20_000;
        c.quantum_cycles = 30_000;
        c.admission = admission;
        c
    };
    let evader = [GCC, Workload::EvaderSplit];
    let sedation = PolicyKind::SelectiveSedation;

    let mut c = Campaign::new("mixed");
    c.push(
        "pair/stop-and-go",
        spec(&pair, PolicyKind::StopAndGo, realistic, tiny()),
    );
    c.push("pair/sedation", spec(&pair, sedation, realistic, tiny()));
    c.push(
        "pair/longer-warmup",
        spec(&pair, sedation, realistic, longer),
    );
    c.push(
        "pair/sedation/ideal",
        spec(&pair, sedation, HeatSink::Ideal, tiny()),
    );
    c.push("gcc/sedation", spec(&[GCC], sedation, realistic, tiny()));
    c.push("pair/sedation/hot", spec(&pair, sedation, realistic, hot));
    c.push(
        "pair/failsafe/stuck-low",
        spec(&pair, PolicyKind::FaultTolerant, realistic, faulted),
    );
    c.push(
        "pair/sedation/interval",
        spec(&pair, sedation, realistic, interval),
    );
    c.push(
        "evader/off",
        spec(&evader, sedation, realistic, screened(AdmissionMode::Off)),
    );
    c.push(
        "evader/warn",
        spec(&evader, sedation, realistic, screened(AdmissionMode::Warn)),
    );
    c
}

/// Runs `campaign`'s runs `ids` one by one through `RunSpec::try_run`.
fn reference(campaign: &Campaign, ids: impl IntoIterator<Item = usize>) -> Vec<RunRecord> {
    ids.into_iter()
        .map(|id| {
            let planned = &campaign.runs()[id];
            RunRecord {
                id,
                label: planned.label.clone(),
                workloads: planned
                    .spec
                    .workloads()
                    .iter()
                    .map(|w| w.name().to_string())
                    .collect(),
                policy: planned.spec.policy().name().to_string(),
                sink: planned.spec.sink().name().to_string(),
                stats: planned.spec.try_run().expect("reference run"),
            }
        })
        .collect()
}

/// `report`'s artifact as it must read: `runs` from the reference, the
/// quarantine as reported.
fn expected_json(report: &CampaignReport, runs: Vec<RunRecord>) -> String {
    CampaignReport {
        name: report.name.clone(),
        runs,
        quarantined: report.quarantined.clone(),
        jobs: 0,
        warmups: 0,
        wall: Duration::ZERO,
    }
    .to_json()
}

/// A scratch journal path unique to this test, cleaned before use.
fn scratch(test: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "hs-warm-{}-{test}.journal.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn shared_warmups_reproduce_every_run_exactly() {
    let campaign = mixed();
    let expected = reference(&campaign, 0..campaign.len());
    for jobs in [1, 2, 4] {
        let report = campaign.run(jobs).expect("campaign runs");
        assert_eq!(
            report.to_json(),
            expected_json(&report, expected.clone()),
            "jobs={jobs}"
        );
        assert_eq!(report.warmups, 4, "one warm-up per identity at jobs={jobs}");
    }
}

/// Four runs of one warm-up, then two of another.
fn two_groups(name: &str) -> Campaign {
    let pair = [GCC, Workload::Variant2];
    let mut c = Campaign::new(name);
    for (label, policy, sink) in [
        (
            "pair/stop-and-go",
            PolicyKind::StopAndGo,
            HeatSink::Realistic,
        ),
        (
            "pair/sedation",
            PolicyKind::SelectiveSedation,
            HeatSink::Realistic,
        ),
        ("pair/dvfs", PolicyKind::GlobalDvfs, HeatSink::Realistic),
        ("pair/ideal", PolicyKind::SelectiveSedation, HeatSink::Ideal),
    ] {
        c.push(label, spec(&pair, policy, sink, tiny()));
    }
    for policy in [PolicyKind::StopAndGo, PolicyKind::SelectiveSedation] {
        let label = format!("v1/{}", policy.name());
        c.push(
            label,
            spec(&[Workload::Variant1], policy, HeatSink::Realistic, tiny()),
        );
    }
    c
}

#[test]
fn abort_inside_a_group_then_resume_is_byte_identical() {
    let campaign = two_groups("abort-mid-group");
    let expected = reference(&campaign, 0..campaign.len());
    let path = scratch("abort-mid-group");
    let sup = Supervision {
        journal: Some(path.clone()),
        ..Supervision::default()
    };
    // Two outcomes in, the first group's warm core still has two runs to
    // serve when the abort fires.
    let err = campaign
        .run_supervised(
            1,
            &Supervision {
                abort_after: Some(2),
                ..sup.clone()
            },
        )
        .expect_err("abort hook fires");
    assert!(matches!(err, hs_sim::SimError::Interrupted { .. }), "{err}");
    let resumed = campaign.resume(2, &sup).expect("resume");
    assert_eq!(resumed.to_json(), expected_json(&resumed, expected));
    assert_eq!(resumed.warmups, 2, "the resumed half re-warms both groups");
    let _ = std::fs::remove_file(&path);
}
