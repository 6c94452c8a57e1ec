//! The campaign engine's contracts, end to end:
//!
//! 1. **Determinism** — a `--jobs 1` run and a `--jobs N` run of the same
//!    matrix produce byte-identical serialized reports.
//! 2. **Round-trip** — `SimStats`/`CampaignReport` survive JSON
//!    serialization bit-exactly.
//! 3. **Fallibility** — the builder API returns typed [`SimError`]s and
//!    never panics, for every policy × sink × workload-count combination.

use hs_sim::{
    Campaign, CampaignMatrix, CampaignReport, HeatSink, PolicyKind, RunSpec, SimConfig, SimError,
    SimStats,
};
use hs_workloads::{SpecWorkload, Workload, SPEC_SUITE};

/// Tiny runs: these tests exercise orchestration, not thermal fidelity.
fn tiny() -> SimConfig {
    let mut c = SimConfig::scaled(2000.0);
    c.warmup_cycles = 20_000;
    c.quantum_cycles = 30_000;
    c
}

/// A 16-run matrix mixing workload counts, policies, sinks, and a fault
/// axis — the shape the acceptance criteria call for.
fn matrix16() -> Campaign {
    CampaignMatrix::new(tiny())
        .workloads("gcc", [Workload::Spec(SpecWorkload::Gcc)])
        .workloads(
            "gcc+v2",
            [Workload::Spec(SpecWorkload::Gcc), Workload::Variant2],
        )
        .workloads(
            "eon+v3",
            [Workload::Spec(SpecWorkload::Eon), Workload::Variant3],
        )
        .workloads("v1", [Workload::Variant1])
        .policy(PolicyKind::StopAndGo)
        .policy(PolicyKind::SelectiveSedation)
        .sink(HeatSink::Ideal)
        .sink(HeatSink::Realistic)
        .build("matrix16")
        .expect("valid matrix")
}

#[test]
fn parallel_report_is_byte_identical_to_serial() {
    let campaign = matrix16();
    assert_eq!(campaign.len(), 16);
    let serial = campaign.run(1).expect("serial run");
    let parallel = campaign.run(4).expect("parallel run");
    // The serialized artifact is the determinism contract's unit of
    // comparison: stable ids, stable order, bit-exact floats.
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "jobs=1 and jobs=4 must serialize identically"
    );
    // And an oversubscribed pool (more workers than runs) changes nothing.
    let oversubscribed = campaign.run(64).expect("oversubscribed run");
    assert_eq!(serial.to_json(), oversubscribed.to_json());
}

/// gcc + variant1 under the five DTM policies plus gcc and mcf solos, the
/// shape of the benchmark's `policy_sweep`: three distinct warm-ups.
fn policy_sweep() -> Campaign {
    let mut campaign = CampaignMatrix::new(tiny())
        .workloads(
            "gcc+v1",
            [Workload::Spec(SpecWorkload::Gcc), Workload::Variant1],
        )
        .policy(PolicyKind::StopAndGo)
        .policy(PolicyKind::GlobalDvfs)
        .policy(PolicyKind::RateCap)
        .policy(PolicyKind::SelectiveSedation)
        .policy(PolicyKind::FaultTolerant)
        .build("policy-sweep")
        .expect("valid matrix");
    for w in [SpecWorkload::Gcc, SpecWorkload::Mcf] {
        campaign.push(
            w.name(),
            RunSpec::solo(
                Workload::Spec(w),
                PolicyKind::SelectiveSedation,
                HeatSink::Realistic,
                tiny(),
            ),
        );
    }
    campaign
}

#[test]
fn each_distinct_warmup_is_simulated_once_at_every_jobs_count() {
    let matrix = matrix16();
    let sweep = policy_sweep();
    assert_eq!(sweep.len(), 7);
    for jobs in [1, 2, 3, 4] {
        // 16 runs over 4 co-schedules; policy and sink do not enter warm-up.
        assert_eq!(matrix.run(jobs).expect("runs").warmups, 4, "jobs={jobs}");
        assert_eq!(sweep.run(jobs).expect("runs").warmups, 3, "jobs={jobs}");
    }
}

#[test]
fn report_preserves_declaration_order_and_ids() {
    let campaign = matrix16();
    let report = campaign.run(3).expect("runs");
    for (i, (planned, executed)) in campaign.runs().iter().zip(&report.runs).enumerate() {
        assert_eq!(executed.id, i);
        assert_eq!(executed.label, planned.label);
    }
}

#[test]
fn campaign_report_round_trips_through_json() {
    let report = matrix16().run(2).expect("runs");
    let text = report.to_json();
    let back = CampaignReport::from_json(&text).expect("artifact parses");
    assert_eq!(back.name, report.name);
    assert_eq!(back.runs.len(), report.runs.len());
    // Bit-exact: re-serializing the parsed report reproduces the text.
    assert_eq!(back.to_json(), text);
    // Spot-check numeric fidelity through the round trip.
    for (a, b) in report.runs.iter().zip(&back.runs) {
        assert_eq!(a.stats.cycles, b.stats.cycles);
        assert_eq!(a.stats.emergencies, b.stats.emergencies);
        for (x, y) in a.stats.peak_temps.iter().zip(&b.stats.peak_temps) {
            assert_eq!(x.to_bits(), y.to_bits(), "peak temps must be bit-exact");
        }
        for (t, u) in a.stats.threads.iter().zip(&b.stats.threads) {
            assert_eq!(t.ipc.to_bits(), u.ipc.to_bits());
            assert_eq!(t.committed, u.committed);
        }
        assert_eq!(a.stats.reports.len(), b.stats.reports.len());
    }
}

#[test]
fn sim_stats_round_trips_including_reports() {
    // Sedation produces OS reports; make sure they survive the trip.
    let stats = RunSpec::builder()
        .workloads([Workload::Spec(SpecWorkload::Gcc), Workload::Variant2])
        .policy(PolicyKind::SelectiveSedation)
        .sink(HeatSink::Realistic)
        .config(tiny())
        .build()
        .expect("valid spec")
        .try_run()
        .expect("runs");
    let back = SimStats::from_json(&stats.to_json()).expect("parses");
    assert_eq!(back.policy, stats.policy);
    assert_eq!(back.reports.len(), stats.reports.len());
    for (a, b) in stats.reports.iter().zip(&back.reports) {
        assert_eq!(a.cycle, b.cycle);
        assert_eq!(a.thread, b.thread);
        assert_eq!(a.block, b.block);
        assert_eq!(a.kind, b.kind);
        assert_eq!(a.temperature_k.to_bits(), b.temperature_k.to_bits());
    }
}

#[test]
fn builder_never_panics_across_the_full_combination_space() {
    // Property: for every policy x sink x workload count (0..=3, beyond
    // the 2 contexts), build()/try_run() return Ok or a typed error —
    // they never panic.
    let policies = [
        PolicyKind::None,
        PolicyKind::StopAndGo,
        PolicyKind::GlobalDvfs,
        PolicyKind::RateCap,
        PolicyKind::SelectiveSedation,
        PolicyKind::FaultTolerant,
    ];
    let mut ok = 0;
    let mut rejected = 0;
    for policy in policies {
        for sink in [HeatSink::Ideal, HeatSink::Realistic] {
            for count in 0..=3usize {
                let ws = SPEC_SUITE[..count].iter().map(|&s| Workload::Spec(s));
                let built = RunSpec::builder()
                    .workloads(ws)
                    .policy(policy)
                    .sink(sink)
                    .config(tiny())
                    .build();
                match built {
                    Err(SimError::NoWorkloads) => {
                        assert_eq!(count, 0);
                        rejected += 1;
                    }
                    Err(SimError::TooManyWorkloads {
                        requested,
                        contexts,
                    }) => {
                        assert!(requested > contexts as usize);
                        assert_eq!(requested, count);
                        rejected += 1;
                    }
                    Err(SimError::RunawayCombination) => {
                        assert_eq!(policy, PolicyKind::None);
                        assert_eq!(sink, HeatSink::Realistic);
                        rejected += 1;
                    }
                    Err(e) => panic!("unexpected error for {policy:?}/{sink:?}/{count}: {e}"),
                    Ok(_) => ok += 1,
                }
            }
        }
    }
    assert!(ok > 0, "some combinations must be valid");
    assert!(rejected > 0, "some combinations must be rejected");
}

#[test]
fn invalid_config_is_a_typed_error_not_a_panic() {
    let mut cfg = tiny();
    cfg.quantum_cycles = 0;
    let err = RunSpec::builder()
        .workload(Workload::Variant1)
        .config(cfg)
        .build()
        .unwrap_err();
    assert!(matches!(err, SimError::Config(_)), "got {err}");
    // The error chains to the shared ConfigError and renders its message.
    assert!(err.to_string().contains("quantum"), "got {err}");
}

#[test]
fn campaign_preflight_names_the_offending_run() {
    let mut campaign = Campaign::new("bad");
    campaign.push(
        "fine",
        RunSpec::solo(
            Workload::Variant1,
            PolicyKind::StopAndGo,
            HeatSink::Ideal,
            tiny(),
        ),
    );
    // `with_config` is the one way a validated spec can drift into an
    // invalid state; the campaign's preflight must catch it and name it.
    let mut broken = tiny();
    broken.quantum_cycles = 0;
    campaign.push(
        "broken",
        RunSpec::solo(
            Workload::Variant1,
            PolicyKind::StopAndGo,
            HeatSink::Ideal,
            tiny(),
        )
        .with_config(broken),
    );
    let err = campaign.run(2).unwrap_err();
    let SimError::InvalidRun { id, label, .. } = err else {
        panic!("expected InvalidRun, got {err}");
    };
    assert_eq!(id, 1);
    assert_eq!(label, "broken");
}

/// The ≥3x speedup acceptance check. Meaningful only with real hardware
/// parallelism and an optimized build: the speedup assertion self-skips
/// below 4 cores (CI runners may expose a single core), and the whole test
/// in debug builds.
#[test]
fn parallel_speedup_on_wide_machines() {
    if cfg!(debug_assertions) {
        eprintln!("skipping speedup measurement in debug build");
        return;
    }
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // Heavier runs than tiny() so per-run work dominates scheduling noise.
    let mut cfg = SimConfig::scaled(2000.0);
    cfg.warmup_cycles = 50_000;
    cfg.quantum_cycles = 250_000;
    let mut campaign = Campaign::new("speedup");
    for i in 0..16 {
        let w = SPEC_SUITE[i % SPEC_SUITE.len()];
        campaign.push(
            format!("run{i}"),
            RunSpec::pair(
                Workload::Spec(w),
                Workload::Variant2,
                PolicyKind::SelectiveSedation,
                HeatSink::Realistic,
                cfg,
            ),
        );
    }
    let serial = campaign.run(1).expect("serial");
    let parallel = campaign.run(4).expect("parallel");
    assert_eq!(serial.to_json(), parallel.to_json());
    // 16 distinct pairs: nothing to share.
    assert_eq!(serial.warmups, 16);
    assert_eq!(parallel.warmups, 16);
    if cores < 4 {
        eprintln!("skipping speedup measurement on {cores}-core machine");
        return;
    }
    let speedup = serial.wall.as_secs_f64() / parallel.wall.as_secs_f64().max(1e-9);
    assert!(
        speedup >= 3.0,
        "expected >=3x speedup with 4 jobs on {cores} cores, got {speedup:.2}x \
         (serial {:?}, parallel {:?})",
        serial.wall,
        parallel.wall
    );
}
