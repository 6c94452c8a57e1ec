//! Integration tests for the campaign supervision layer: the journal and
//! resume. Panic isolation needs a planted panic, which only the unit tests
//! of `hs_sim::supervise` can plant.

use hs_sim::campaign::CampaignMatrix;
use hs_sim::{Campaign, HeatSink, PolicyKind, RunSpec, SimConfig, SimError, Supervision};
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
    matrix_on(name, tiny())
}

/// [`matrix`] on another base config: the same labels.
fn matrix_on(name: &str, base: SimConfig) -> Campaign {
    CampaignMatrix::new(base)
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
fn abort_then_resume_is_byte_identical_to_an_uninterrupted_run() {
    let campaign = matrix("resume");

    // The reference: uninterrupted, journaled.
    let full_path = scratch("resume-full");
    let full = campaign
        .run_supervised(
            1,
            &Supervision {
                journal: Some(full_path.clone()),
                ..Supervision::default()
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
                ..Supervision::default()
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
                ..Supervision::default()
            },
        )
        .expect("no-op resume");
    assert_eq!(again.to_json(), full.to_json());

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&full_path);
}

/// A journaled run of [`matrix`] at one worker, so its journal's lines come
/// in run-id order: the campaign, its artifact, the journal's text and the
/// supervision.
fn journaled(test: &str) -> (Campaign, String, String, Supervision) {
    let campaign = matrix(test);
    let path = scratch(test);
    let sup = Supervision {
        journal: Some(path.clone()),
        ..Supervision::default()
    };
    let full = campaign.run_supervised(1, &sup).expect("run").to_json();
    let text = std::fs::read_to_string(&path).expect("journal");
    assert_eq!(text.lines().count(), 7, "header + 6 outcomes:\n{text}");
    (campaign, full, text, sup)
}

#[test]
fn a_torn_final_journal_line_is_tolerated() {
    let (campaign, full, text, sup) = journaled("torn");
    let path = sup.journal.clone().expect("journaled");
    // A crash mid-append: three records, then half of the fourth.
    let lines: Vec<&str> = text.lines().collect();
    let torn = format!(
        "{}\n{}",
        lines[..4].join("\n"),
        &lines[4][..lines[4].len() / 2]
    );
    std::fs::write(&path, torn).expect("write torn journal");

    // A second crash, two outcomes into the resume: the torn bytes are cut
    // before the first new record is appended, not glued onto it.
    let err = campaign
        .resume(
            1,
            &Supervision {
                abort_after: Some(2),
                ..sup.clone()
            },
        )
        .expect_err("abort hook fires");
    assert!(matches!(err, SimError::Interrupted { .. }), "got {err}");
    let resumed = campaign.resume(1, &sup).expect("torn tail cut");
    assert_eq!(resumed.to_json(), full, "the torn run re-executes");
    assert_eq!(
        std::fs::read_to_string(&path).expect("journal"),
        text,
        "the journal reads as an uninterrupted one"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_final_record_without_its_newline_is_not_durable() {
    let (campaign, full, text, sup) = journaled("no-newline");
    let path = sup.journal.clone().expect("journaled");
    std::fs::write(&path, text.trim_end_matches('\n')).expect("strip the newline");
    let resumed = campaign.resume(1, &sup).expect("resume");
    assert_eq!(resumed.to_json(), full, "the last run re-executes");
    assert_eq!(std::fs::read_to_string(&path).expect("journal"), text);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_journal_without_a_complete_header_starts_afresh() {
    let (campaign, full, text, sup) = journaled("headless");
    let path = sup.journal.clone().expect("journaled");
    for stub in ["", &text[..10]] {
        std::fs::write(&path, stub).expect("write stub journal");
        let resumed = campaign.resume(1, &sup).expect("a fresh run");
        assert_eq!(resumed.to_json(), full, "stub {stub:?}");
        assert_eq!(std::fs::read_to_string(&path).expect("journal"), text);
    }
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

    // Same name and labels, another time scale.
    let rescaled = SimConfig {
        warmup_cycles: tiny().warmup_cycles,
        quantum_cycles: tiny().quantum_cycles,
        ..SimConfig::scaled(1000.0)
    };
    let err = matrix_on("owner", rescaled)
        .resume(1, &sup)
        .expect_err("configuration mismatch");
    assert!(matches!(err, SimError::Journal { .. }), "got {err}");
    assert!(err.to_string().contains("pins"), "{err}");

    // A format-1 journal has no pin to check.
    let text = std::fs::read_to_string(&path).expect("journal");
    std::fs::write(&path, text.replacen(r#""format":2"#, r#""format":1"#, 1)).expect("write");
    let err = matrix("owner").resume(1, &sup).expect_err("format 1");
    assert!(err.to_string().contains("format"), "{err}");
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
