//! Differential tests gating the interval-mode fast-forward engine
//! (DESIGN.md §3d).
//!
//! The accuracy contract, enforced end-to-end on every bundled workload:
//!
//! * **DTM verdicts are exact.** Whether the package ever reached the
//!   emergency threshold, and which threads were ever sedated, must be
//!   identical between [`ExecMode::Interval`] and the cycle-accurate
//!   reference. Emergency *counts* must also match exactly — the engine
//!   only fast-forwards while every block sits under the thermal guard, so
//!   every threshold approach is simulated cycle by cycle.
//! * **Peak temperatures drift boundedly.** Per-block peaks may differ by
//!   the closed-form-advance error plus the credited-profile power drift,
//!   within ±1.0 K. Steady workloads sit at ±0.0 K; the bound is set by
//!   duty-cycled attackers (variant3) whose burst alignment shifts under
//!   crediting. Because the thermal guard pins every credited span below
//!   `normal_k − guard_k`, the drift lives entirely in the sub-threshold
//!   regime and cannot move a DTM decision.
//! * **Nothing changes when the mode is off.** `ExecMode::CycleAccurate`
//!   runs byte-identical stats to builds that predate interval mode (the
//!   committed `results/*.txt` renderings enforce this in CI).

use hs_sim::{ExecMode, HeatSink, PolicyKind, SimConfig, SimStats, Simulator};
use hs_workloads::{Workload, SPEC_SUITE};

/// Same scaled-down shape as `perf_differential.rs`: thermal RC compressed
/// 2000x so DTM engages inside a 50 k-cycle quantum.
fn tiny_cfg() -> SimConfig {
    let mut cfg = SimConfig::scaled(2000.0);
    cfg.warmup_cycles = 10_000;
    cfg.quantum_cycles = 50_000;
    cfg
}

fn interval_cfg() -> SimConfig {
    let mut cfg = tiny_cfg();
    cfg.exec = ExecMode::Interval;
    cfg
}

fn malicious_and_evaders() -> Vec<Workload> {
    vec![
        Workload::Variant1,
        Workload::Variant2,
        Workload::Variant3,
        Workload::EvaderSplit,
        Workload::EvaderHidden,
        Workload::EvaderUnknown,
    ]
}

fn run_with(
    cfg: &SimConfig,
    policy: PolicyKind,
    sink: HeatSink,
    workloads: &[Workload],
) -> SimStats {
    let mut sim = Simulator::try_new(*cfg, policy, sink).expect("config must be valid");
    for w in workloads {
        sim.attach(*w).expect("attach");
    }
    sim.try_run_quantum().expect("run")
}

/// DTM verdict of a finished run: did the package ever reach emergency,
/// and which threads were sedated at least once.
fn verdict(stats: &SimStats) -> (bool, Vec<(String, bool)>) {
    (
        stats.emergencies > 0,
        stats
            .threads
            .iter()
            .map(|t| (t.name.clone(), t.sedations > 0))
            .collect(),
    )
}

fn assert_interval_agrees(policy: PolicyKind, sink: HeatSink, workloads: &[Workload]) {
    let cycle = run_with(&tiny_cfg(), policy, sink, workloads);
    let interval = run_with(&interval_cfg(), policy, sink, workloads);
    let names: Vec<&str> = workloads.iter().map(|w| w.name()).collect();
    assert_eq!(cycle.fast_forwarded_cycles, 0);
    assert_eq!(
        verdict(&cycle),
        verdict(&interval),
        "{names:?} under {policy:?}/{sink:?}: interval mode changed the DTM verdict"
    );
    assert_eq!(
        cycle.emergencies, interval.emergencies,
        "{names:?} under {policy:?}/{sink:?}: emergency counts diverged"
    );
    for (i, (a, b)) in cycle
        .peak_temps
        .iter()
        .zip(interval.peak_temps.iter())
        .enumerate()
    {
        let d = (a - b).abs();
        assert!(
            d < 1.0,
            "{names:?} under {policy:?}/{sink:?}: peak diverged {d:.3} K on block {i} \
             ({a:.3} vs {b:.3})"
        );
    }
}

#[test]
fn interval_matches_cycle_level_solo() {
    for w in malicious_and_evaders() {
        assert_interval_agrees(PolicyKind::SelectiveSedation, HeatSink::Realistic, &[w]);
    }
    for spec in SPEC_SUITE {
        assert_interval_agrees(
            PolicyKind::SelectiveSedation,
            HeatSink::Realistic,
            &[Workload::Spec(spec)],
        );
    }
}

#[test]
fn interval_matches_cycle_level_across_policies() {
    let pairs = [
        (Workload::Spec(SPEC_SUITE[0]), Workload::Variant1),
        (Workload::Spec(SPEC_SUITE[3]), Workload::EvaderHidden),
        (Workload::Spec(SPEC_SUITE[0]), Workload::Spec(SPEC_SUITE[7])),
    ];
    for (a, b) in pairs {
        assert_interval_agrees(PolicyKind::SelectiveSedation, HeatSink::Realistic, &[a, b]);
        assert_interval_agrees(PolicyKind::StopAndGo, HeatSink::Realistic, &[a, b]);
        assert_interval_agrees(PolicyKind::GlobalDvfs, HeatSink::Realistic, &[a, b]);
    }
    assert_interval_agrees(
        PolicyKind::RateCap,
        HeatSink::Realistic,
        &[Workload::Variant1, Workload::Spec(SPEC_SUITE[0])],
    );
    assert_interval_agrees(
        PolicyKind::FaultTolerant,
        HeatSink::Realistic,
        &[Workload::Variant1],
    );
    assert_interval_agrees(PolicyKind::None, HeatSink::Ideal, &[Workload::Variant1]);
}

#[test]
fn steady_runs_are_actually_fast_forwarded() {
    // A benign SPEC member on the ideal sink: temperatures never move, so
    // once the phase confirms, nearly the whole quantum is credited.
    let stats = run_with(
        &interval_cfg(),
        PolicyKind::None,
        HeatSink::Ideal,
        &[Workload::Spec(SPEC_SUITE[0])],
    );
    assert!(
        stats.fast_forwarded_cycles > 0,
        "no cycles were fast-forwarded on an ideal-sink steady run"
    );
    // And on the realistic sink under sedation, the cold stretch before
    // the package warms past the guard must still be credited.
    let stats = run_with(
        &interval_cfg(),
        PolicyKind::SelectiveSedation,
        HeatSink::Realistic,
        &[Workload::Spec(SPEC_SUITE[0])],
    );
    assert!(
        stats.fast_forwarded_cycles > 0,
        "no cycles were fast-forwarded on a realistic-sink steady run"
    );
}

#[test]
fn evaders_are_never_fast_forwarded_through_their_hot_phase() {
    // The PR 5 evaders alternate hot and cold phases sized near the block
    // time constant. Their emergencies and sedations are the entire point
    // of the differential contract: if the engine extrapolated through a
    // hot phase, the peak (and thus the verdict) would go missing.
    for w in [
        Workload::EvaderSplit,
        Workload::EvaderHidden,
        Workload::EvaderUnknown,
    ] {
        let cycle = run_with(
            &tiny_cfg(),
            PolicyKind::SelectiveSedation,
            HeatSink::Realistic,
            &[w],
        );
        let interval = run_with(
            &interval_cfg(),
            PolicyKind::SelectiveSedation,
            HeatSink::Realistic,
            &[w],
        );
        assert_eq!(
            cycle.emergencies,
            interval.emergencies,
            "{}: interval mode changed the emergency count",
            w.name()
        );
        for (a, b) in cycle.threads.iter().zip(interval.threads.iter()) {
            assert_eq!(
                a.sedations > 0,
                b.sedations > 0,
                "{}: interval mode changed the sedation decision",
                w.name()
            );
        }
    }
}

#[test]
fn sedated_thread_waking_mid_interval_stays_cycle_accurate() {
    // gcc + variant1 under sedation: the attacker is repeatedly sedated
    // and woken. Every gate flip resets the phase detector, so the wake
    // and the re-heat that follows run cycle by cycle; verdicts and
    // sedation decisions must be unaffected by interval mode.
    let pair = [Workload::Spec(SPEC_SUITE[7]), Workload::Variant1];
    let cycle = run_with(
        &tiny_cfg(),
        PolicyKind::SelectiveSedation,
        HeatSink::Realistic,
        &pair,
    );
    let interval = run_with(
        &interval_cfg(),
        PolicyKind::SelectiveSedation,
        HeatSink::Realistic,
        &pair,
    );
    assert!(
        cycle.threads[1].sedations > 0,
        "scenario lost its teeth: variant1 was never sedated"
    );
    assert_eq!(verdict(&cycle), verdict(&interval));
    assert_eq!(cycle.emergencies, interval.emergencies);
}

#[test]
fn aggregated_intervals_keep_the_contract_at_full_cadence() {
    // Applu at the paper's full-fidelity monitor cadence with 64-sample
    // aggregation (`IntervalConfig::aggregate_samples`), the shape of
    // perfbench's `steady_interval` workload: applu's macro-loop spans
    // several 1000-cycle samples, so per-sample matching never locks, but
    // 64-sample aggregates are stationary. The accuracy contract must
    // hold in that configuration too — the thermal guard, not the
    // detector granularity, is what protects every DTM decision.
    let base = SimConfig {
        quantum_cycles: 8_000_000,
        warmup_cycles: 2_000_000,
        ..SimConfig::paper()
    };
    let mut agg = base;
    agg.exec = ExecMode::Interval;
    agg.interval.aggregate_samples = 64;
    let workload = [Workload::Spec(SPEC_SUITE[0])];
    let cycle = run_with(
        &base,
        PolicyKind::SelectiveSedation,
        HeatSink::Realistic,
        &workload,
    );
    let interval = run_with(
        &agg,
        PolicyKind::SelectiveSedation,
        HeatSink::Realistic,
        &workload,
    );
    assert_eq!(verdict(&cycle), verdict(&interval));
    assert_eq!(cycle.emergencies, interval.emergencies);
    for (a, b) in cycle.peak_temps.iter().zip(interval.peak_temps.iter()) {
        assert!((a - b).abs() < 1.0, "peak diverged: {a:.3} vs {b:.3}");
    }
    // The whole point of aggregation: real coverage at a cadence where
    // per-sample matching gets none.
    assert!(
        interval.fast_forwarded_cycles > interval.cycles / 2,
        "aggregated run credited only {}/{} cycles",
        interval.fast_forwarded_cycles,
        interval.cycles
    );
}

#[test]
#[ignore = "diagnostic: run with --nocapture to see drift and coverage numbers"]
fn diag_drift_and_coverage() {
    for w in [
        Workload::Spec(SPEC_SUITE[0]),
        Workload::Spec(SPEC_SUITE[7]),
        Workload::Variant1,
        Workload::Variant2,
        Workload::Variant3,
        Workload::EvaderHidden,
    ] {
        let cycle = run_with(
            &tiny_cfg(),
            PolicyKind::SelectiveSedation,
            HeatSink::Realistic,
            &[w],
        );
        let interval = run_with(
            &interval_cfg(),
            PolicyKind::SelectiveSedation,
            HeatSink::Realistic,
            &[w],
        );
        let worst = cycle
            .peak_temps
            .iter()
            .zip(interval.peak_temps.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        println!(
            "{:>14}: ff {:>6}/{} cycles, peak {:.3} K (cycle) vs {:.3} K, worst drift {:.4} K, \
             emergencies {} vs {}, sedations {} vs {}, committed {} vs {}",
            w.name(),
            interval.fast_forwarded_cycles,
            interval.cycles,
            cycle.peak_temp(),
            interval.peak_temp(),
            worst,
            cycle.emergencies,
            interval.emergencies,
            cycle.threads[0].sedations,
            interval.threads[0].sedations,
            cycle.threads[0].committed,
            interval.threads[0].committed,
        );
    }
}
