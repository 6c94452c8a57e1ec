//! Integration tests for the campaign supervision layer: determinism under
//! chaos, panic isolation, the cycle budget, retry, and journal + resume.

use hs_sim::campaign::CampaignMatrix;
use hs_sim::{
    Campaign, ChaosPlan, HeatSink, PolicyKind, RunSpec, SimConfig, SimError, Supervision,
};
use hs_workloads::{SpecWorkload, Workload};
use std::path::PathBuf;

/// Tiny runs: supervision logic, not thermal fidelity.
fn tiny() -> SimConfig {
    let mut c = SimConfig::scaled(2000.0);
    c.warmup_cycles = 20_000;
    c.quantum_cycles = 30_000;
    c
}

/// A 6-run matrix (3 workload sets × 2 policies).
fn matrix(name: &str) -> Campaign {
    CampaignMatrix::new(tiny())
        .workloads("gcc", [Workload::Spec(SpecWorkload::Gcc)])
        .workloads("v1", [Workload::Variant1])
        .workloads("v2", [Workload::Variant2])
        .policy(PolicyKind::StopAndGo)
        .policy(PolicyKind::SelectiveSedation)
        .sink(HeatSink::Ideal)
        .build(name)
        .expect("valid matrix")
}

/// A scratch path unique to this test, cleaned before use.
fn scratch(test: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "hs-sup-{}-{test}.journal.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// `Campaign::run` is the supervised engine under the default supervision;
/// its wrapper must add nothing to a clean report.
#[test]
fn supervision_without_faults_matches_the_plain_engine() {
    let campaign = matrix("clean");
    let plain = campaign.run(2).expect("plain run");
    let supervised = campaign
        .run_supervised(2, &Supervision::default())
        .expect("supervised run");
    assert_eq!(
        plain.to_json(),
        supervised.to_json(),
        "Campaign::run's wrapper must add nothing"
    );
    assert!(supervised.quarantined.is_empty());
}

#[test]
fn chaos_is_deterministic_across_worker_counts() {
    let campaign = matrix("chaos-det");
    let sup = Supervision {
        max_attempts: 3,
        chaos: Some(
            ChaosPlan::seeded(1905)
                .panic_rate(0.4)
                .transient_rate(0.3)
                .permanent([1, 3]),
        ),
        ..Supervision::default()
    };
    let reports: Vec<String> = [1, 4, 64]
        .iter()
        .map(|&jobs| {
            campaign
                .run_supervised(jobs, &sup)
                .expect("supervised")
                .to_json()
        })
        .collect();
    assert_eq!(reports[0], reports[1], "jobs 1 vs 4");
    assert_eq!(reports[0], reports[2], "jobs 1 vs 64");

    let report = campaign.run_supervised(4, &sup).expect("supervised");
    let ids: Vec<usize> = report.quarantined.iter().map(|q| q.id).collect();
    assert_eq!(ids, vec![1, 3], "quarantine set == planned permanent set");
    for q in &report.quarantined {
        assert_eq!(q.attempts, 3, "permanent faults exhaust the retry budget");
        assert_eq!(q.kind, "panicked");
        assert!(
            q.detail.contains("chaos"),
            "detail names the injected fault: {}",
            q.detail
        );
    }
    assert_eq!(report.runs.len(), 4, "the other four runs complete");
}

#[test]
fn panic_isolation_keeps_the_pool_alive() {
    let campaign = matrix("panics");
    let sup = Supervision {
        chaos: Some(ChaosPlan::seeded(7).permanent([0])),
        ..Supervision::default()
    };
    let report = campaign
        .run_supervised(3, &sup)
        .expect("pool survives the panic");
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(report.quarantined[0].id, 0);
    assert_eq!(
        report.quarantined[0].attempts, 1,
        "default policy has no retries"
    );
    assert_eq!(report.runs.len(), 5);
}

#[test]
fn retry_clears_transient_faults_but_one_attempt_does_not() {
    let campaign = matrix("transients");
    let all_transient = ChaosPlan::seeded(3).transient_rate(1.0);
    let retried = Supervision {
        max_attempts: 2,
        chaos: Some(all_transient.clone()),
        ..Supervision::default()
    };
    let report = campaign.run_supervised(2, &retried).expect("supervised");
    assert!(
        report.quarantined.is_empty(),
        "attempt 2 is clean by construction"
    );
    assert_eq!(report.runs.len(), 6);

    let single_shot = Supervision {
        max_attempts: 1,
        chaos: Some(all_transient),
        ..Supervision::default()
    };
    let report = campaign
        .run_supervised(2, &single_shot)
        .expect("supervised");
    assert_eq!(
        report.quarantined.len(),
        6,
        "no retry budget, everything quarantines"
    );
    assert!(report.quarantined.iter().all(|q| q.kind == "failed"));
    assert!(report.runs.is_empty());
}

#[test]
fn cycle_budget_refuses_busters_before_they_execute() {
    let cfg = tiny();
    let budget = cfg.warmup_cycles + cfg.quantum_cycles; // fits exactly
    let mut buster_cfg = cfg;
    buster_cfg.quantum_cycles *= 2;

    let mut campaign = Campaign::new("budget");
    campaign.push(
        "ok",
        RunSpec::solo(
            Workload::Variant1,
            PolicyKind::StopAndGo,
            HeatSink::Ideal,
            tiny(),
        ),
    );
    campaign.push(
        "buster",
        RunSpec::solo(
            Workload::Variant1,
            PolicyKind::StopAndGo,
            HeatSink::Ideal,
            tiny(),
        )
        .with_config(buster_cfg),
    );
    let sup = Supervision {
        cycle_budget: Some(budget),
        max_attempts: 5,
        ..Supervision::default()
    };
    let report = campaign.run_supervised(2, &sup).expect("supervised");
    assert_eq!(report.runs.len(), 1);
    assert_eq!(report.quarantined.len(), 1);
    let q = &report.quarantined[0];
    assert_eq!(q.label, "buster");
    assert_eq!(q.kind, "timed-out:cycles");
    assert_eq!(
        q.attempts, 1,
        "a deterministic overrun is permanent: never retried"
    );
}

#[test]
fn abort_then_resume_is_byte_identical_to_an_uninterrupted_run() {
    let campaign = matrix("resume");
    let sup = Supervision {
        max_attempts: 2,
        chaos: Some(ChaosPlan::seeded(9).permanent([2])),
        ..Supervision::default()
    };

    // The reference: uninterrupted, journaled.
    let full_path = scratch("resume-full");
    let full = campaign
        .run_supervised(
            1,
            &Supervision {
                journal: Some(full_path.clone()),
                ..sup.clone()
            },
        )
        .expect("uninterrupted run");

    // The crash: abort after 3 journaled outcomes.
    let path = scratch("resume-crash");
    let err = campaign
        .run_supervised(
            1,
            &Supervision {
                journal: Some(path.clone()),
                abort_after: Some(3),
                ..sup.clone()
            },
        )
        .expect_err("abort hook fires");
    assert!(matches!(err, SimError::Interrupted { .. }), "got {err}");
    let journal = std::fs::read_to_string(&path).expect("journal exists");
    assert_eq!(
        journal.lines().count(),
        4,
        "header + 3 outcomes:\n{journal}"
    );

    // The recovery: resume replays the journal and finishes the rest.
    let resumed = campaign
        .resume(
            2,
            &Supervision {
                journal: Some(path.clone()),
                ..sup.clone()
            },
        )
        .expect("resume");
    assert_eq!(
        resumed.to_json(),
        full.to_json(),
        "resume must be invisible in the artifact"
    );

    // Resuming an already-complete journal executes nothing and still agrees.
    let again = campaign
        .resume(
            2,
            &Supervision {
                journal: Some(path.clone()),
                ..sup
            },
        )
        .expect("no-op resume");
    assert_eq!(again.to_json(), full.to_json());

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&full_path);
}

#[test]
fn a_torn_final_journal_line_is_tolerated() {
    let campaign = matrix("torn");
    let path = scratch("torn");
    let sup = Supervision {
        journal: Some(path.clone()),
        ..Supervision::default()
    };
    let full = campaign.run_supervised(1, &sup).expect("run");
    // Simulate a crash mid-append: truncate the last line in half.
    let text = std::fs::read_to_string(&path).expect("journal");
    let whole = text.trim_end();
    let torn = &whole[..whole.len() - whole.lines().last().unwrap().len() / 2];
    std::fs::write(&path, torn).expect("write torn journal");

    let resumed = campaign.resume(1, &sup).expect("torn line tolerated");
    assert_eq!(
        resumed.to_json(),
        full.to_json(),
        "the torn run re-executes"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn journals_from_a_different_campaign_are_rejected() {
    let path = scratch("mismatch");
    let sup = Supervision {
        journal: Some(path.clone()),
        ..Supervision::default()
    };
    matrix("owner").run_supervised(1, &sup).expect("run");

    // Same shape, different name.
    let err = matrix("thief").resume(1, &sup).expect_err("name mismatch");
    assert!(matches!(err, SimError::Journal { .. }), "got {err}");
    assert!(err.to_string().contains("owner"), "{err}");

    // Same name, different planned count.
    let mut shrunk = Campaign::new("owner");
    shrunk.push(
        "solo",
        RunSpec::solo(
            Workload::Variant1,
            PolicyKind::StopAndGo,
            HeatSink::Ideal,
            tiny(),
        ),
    );
    let err = shrunk.resume(1, &sup).expect_err("planned-count mismatch");
    assert!(matches!(err, SimError::Journal { .. }), "got {err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mid_file_corruption_is_an_error_not_a_panic() {
    let campaign = matrix("corrupt");
    let path = scratch("corrupt");
    let sup = Supervision {
        journal: Some(path.clone()),
        ..Supervision::default()
    };
    campaign.run_supervised(1, &sup).expect("run");
    let text = std::fs::read_to_string(&path).expect("journal");
    let mut lines: Vec<&str> = text.lines().collect();
    lines[2] = "{\"id\": garbage";
    std::fs::write(&path, lines.join("\n")).expect("corrupt journal");

    let err = campaign
        .resume(1, &sup)
        .expect_err("mid-file corruption detected");
    assert!(matches!(err, SimError::Journal { .. }), "got {err}");
    assert!(err.to_string().contains("line 3"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn duplicate_labels_are_rejected_at_preflight() {
    let mut campaign = Campaign::new("dup");
    let spec = RunSpec::solo(
        Workload::Variant1,
        PolicyKind::StopAndGo,
        HeatSink::Ideal,
        tiny(),
    );
    campaign.push("same", spec.clone());
    campaign.push("other", spec.clone());
    campaign.push("same", spec);
    let err = campaign.preflight().expect_err("duplicate label");
    let SimError::DuplicateLabel {
        label,
        first,
        second,
    } = err
    else {
        panic!("expected DuplicateLabel, got {err}");
    };
    assert_eq!((label.as_str(), first, second), ("same", 0, 2));
    // Both entry points refuse it the same way.
    assert!(matches!(
        campaign.run(1),
        Err(SimError::DuplicateLabel { .. })
    ));
    assert!(matches!(
        campaign.run_supervised(1, &Supervision::default()),
        Err(SimError::DuplicateLabel { .. })
    ));
}
