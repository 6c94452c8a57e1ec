//! Differential tests for warm-up sharing: a campaign simulates each
//! distinct warm-up once and starts the runs sharing it from clones of the
//! warmed core, and every report must equal the one built from each run's
//! own `RunSpec::try_run()` — at any worker count, under chaos, and across
//! an abort and resume.

use hs_core::ReportKind;
use hs_sim::{
    AdmissionMode, Campaign, CampaignReport, ChaosEvent, ChaosPlan, ExecMode, FaultConfig,
    HeatSink, PolicyKind, RetryPolicy, RunRecord, RunSpec, SimConfig, Supervision,
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
/// longer warm-up and a gcc solo; then gcc+evader-split under `Sedate`
/// admission next to its `Off` and `Warn` twins. Screening gates the
/// evader under `Sedate` only, so that run must not share with its twins,
/// which share with each other (both leave the gate open). Five distinct
/// warm-ups in all.
fn mixed() -> Campaign {
    let pair = [GCC, Workload::Variant2];
    let realistic = HeatSink::Realistic;
    let mut hot = tiny();
    hot.sedation.thresholds.emergency_k -= 2.0;
    hot.sedation.thresholds.normal_k -= 2.0;
    let faulted = FaultConfig {
        sensors: SensorFaultPlan::seeded(5).with(SensorFault::permanent(
            Block::IntReg,
            SensorFaultKind::StuckAt { value_k: 345.0 },
            4 * tiny().sensor_interval_cycles,
        )),
        ..FaultConfig::none()
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
        RunSpec::builder()
            .workloads(pair)
            .policy(PolicyKind::FaultTolerant)
            .sink(realistic)
            .config(tiny())
            .faults(faulted)
            .build()
            .expect("valid spec"),
    );
    c.push(
        "pair/sedation/interval",
        spec(&pair, sedation, realistic, interval),
    );
    c.push(
        "evader/sedate",
        spec(
            &evader,
            sedation,
            realistic,
            screened(AdmissionMode::Sedate),
        ),
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

fn fast_retry(max_attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        backoff: Duration::ZERO,
        seed: 42,
    }
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
    // The scenario is what it claims: the Sedate twin really is gated.
    let sedate = &expected[8].stats;
    assert_eq!(sedate.count_kind(ReportKind::AdmissionSedated), 1);
    assert_eq!(sedate.thread(1).committed, 0, "evader ran despite Sedate");
    assert!(expected[9].stats.thread(1).committed > 0);
    for jobs in [1, 2, 4] {
        let report = campaign.run(jobs).expect("campaign runs");
        assert_eq!(
            report.to_json(),
            expected_json(&report, expected.clone()),
            "jobs={jobs}"
        );
        assert_eq!(report.warmups, 5, "one warm-up per identity at jobs={jobs}");
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
fn a_chaos_panic_on_a_groups_first_run_strands_nobody() {
    let campaign = two_groups("chaos-first");
    let expected = reference(&campaign, 0..campaign.len());
    // A seed whose only first-attempt fault is a panic of run 0, the
    // first run of the first group.
    let plan = (0..)
        .map(|seed| ChaosPlan::seeded(seed).panic_rate(0.3))
        .find(|p| {
            p.event(0, 1) == ChaosEvent::Panic
                && (1..campaign.len()).all(|id| p.event(id, 1) == ChaosEvent::None)
        })
        .expect("some seed panics run 0 alone");
    let retried = Supervision {
        retry: fast_retry(2),
        chaos: Some(plan),
        ..Supervision::default()
    };
    for jobs in [1, 3] {
        let report = campaign.run_supervised(jobs, &retried).expect("supervised");
        assert!(report.quarantined.is_empty(), "jobs={jobs}");
        assert_eq!(
            report.to_json(),
            expected_json(&report, expected.clone()),
            "jobs={jobs}"
        );
    }
    // A run 0 that never succeeds leaves its group's runs to warm up
    // without it.
    let doomed = Supervision {
        chaos: Some(ChaosPlan::seeded(1).permanent([0])),
        ..Supervision::default()
    };
    for jobs in [1, 3] {
        let report = campaign.run_supervised(jobs, &doomed).expect("supervised");
        let quarantined: Vec<usize> = report.quarantined.iter().map(|q| q.id).collect();
        assert_eq!(quarantined, [0], "jobs={jobs}");
        assert_eq!(
            report.to_json(),
            expected_json(&report, expected[1..].to_vec()),
            "jobs={jobs}"
        );
        assert_eq!(report.warmups, 2, "jobs={jobs}");
    }
}

#[test]
fn a_refused_warming_run_hands_its_warmup_on() {
    // Same workloads and an open gate under both modes, so one warm-up
    // identity; `Reject` refuses the evader at attach, after it took the
    // duty to warm, and the `Warn` twin must warm up itself.
    let screened = |admission| {
        let mut c = SimConfig::scaled(50.0);
        c.warmup_cycles = 20_000;
        c.quantum_cycles = 30_000;
        c.admission = admission;
        c
    };
    let evader = [GCC, Workload::EvaderSplit];
    let mut campaign = Campaign::new("refused");
    for (label, admission) in [
        ("evader/reject", AdmissionMode::Reject),
        ("evader/warn", AdmissionMode::Warn),
    ] {
        campaign.push(
            label,
            spec(
                &evader,
                PolicyKind::SelectiveSedation,
                HeatSink::Realistic,
                screened(admission),
            ),
        );
    }
    let expected = reference(&campaign, [1]);
    for jobs in [1, 2] {
        let report = campaign
            .run_supervised(jobs, &Supervision::default())
            .expect("supervised");
        assert_eq!(report.quarantined.len(), 1, "jobs={jobs}");
        assert_eq!(report.quarantined[0].kind, "failed");
        assert_eq!(
            report.to_json(),
            expected_json(&report, expected.clone()),
            "jobs={jobs}"
        );
        assert_eq!(report.warmups, 1, "jobs={jobs}");
    }
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
