//! Differential tests gating the hot-path optimizations.
//!
//! **Bit identity of the default paths**, enforced end-to-end at a
//! scaled-down configuration that still exercises warm-up, DTM sampling,
//! sensor stepping and the thermal network: the optimized issue scheduler
//! (deferred-drain ready stash) must produce statistics *bit-identical* to
//! the retained reference scheduler (pop-then-re-push) on every bundled
//! workload, solo and paired. The comparison goes through the full
//! rendered `SimStats` JSON, so cycle counts, IPCs, access-rate EWMAs,
//! sedation counts and peak temperatures all participate.

use hs_sim::{HeatSink, PolicyKind, SimConfig, SimStats, Simulator};
use hs_workloads::{Workload, SPEC_SUITE};

/// Scaled-down config: same structure as the default campaign, ~250x less
/// simulated work. Time scale 2000 compresses the thermal RC so DTM still
/// engages inside the short quantum.
fn tiny_cfg() -> SimConfig {
    let mut cfg = SimConfig::scaled(2000.0);
    cfg.warmup_cycles = 10_000;
    cfg.quantum_cycles = 50_000;
    cfg
}

/// Every bundled non-SPEC workload (the three attack variants and the
/// three evaders).
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
    reference_issue: bool,
) -> SimStats {
    let mut sim = Simulator::try_new(*cfg, policy, sink).expect("config must be valid");
    for w in workloads {
        sim.attach(*w).expect("attach");
    }
    sim.set_reference_issue(reference_issue);
    sim.try_run_quantum().expect("run")
}

fn assert_bit_identical(
    cfg: &SimConfig,
    policy: PolicyKind,
    sink: HeatSink,
    workloads: &[Workload],
) {
    let opt = run_with(cfg, policy, sink, workloads, false);
    let refr = run_with(cfg, policy, sink, workloads, true);
    let names: Vec<&str> = workloads.iter().map(|w| w.name()).collect();
    assert_eq!(
        opt.to_json().to_string_pretty(),
        refr.to_json().to_string_pretty(),
        "optimized issue path diverged from reference on {names:?} under {policy:?}/{sink:?}"
    );
    // The JSON comparison already covers peak_temps (rendered per block),
    // but make the headline numbers explicit in case the rendering ever
    // rounds.
    assert_eq!(opt.cycles, refr.cycles);
    assert_eq!(opt.emergencies, refr.emergencies);
    for (a, b) in opt.peak_temps.iter().zip(refr.peak_temps.iter()) {
        assert_eq!(a.to_bits(), b.to_bits(), "peak temperature bits diverged");
    }
}

#[test]
fn optimized_issue_is_bit_identical_solo() {
    let cfg = tiny_cfg();
    for w in malicious_and_evaders() {
        assert_bit_identical(
            &cfg,
            PolicyKind::SelectiveSedation,
            HeatSink::Realistic,
            &[w],
        );
    }
    // A benign / a memory-bound / a branchy SPEC member, plus the two
    // non-sedation policies most sensitive to per-cycle scheduling.
    for spec in [SPEC_SUITE[0], SPEC_SUITE[5], SPEC_SUITE[10]] {
        assert_bit_identical(
            &cfg,
            PolicyKind::SelectiveSedation,
            HeatSink::Realistic,
            &[Workload::Spec(spec)],
        );
    }
    assert_bit_identical(
        &cfg,
        PolicyKind::StopAndGo,
        HeatSink::Realistic,
        &[Workload::Variant1],
    );
    assert_bit_identical(
        &cfg,
        PolicyKind::None,
        HeatSink::Ideal,
        &[Workload::Variant1],
    );
}

#[test]
fn optimized_issue_is_bit_identical_paired() {
    let cfg = tiny_cfg();
    // The paper's core scenario: a victim sharing the core with an
    // attacker, under the contribution policy and under a baseline.
    let pairs = [
        (Workload::Spec(SPEC_SUITE[0]), Workload::Variant1),
        (Workload::Spec(SPEC_SUITE[3]), Workload::EvaderHidden),
        (Workload::Spec(SPEC_SUITE[0]), Workload::Spec(SPEC_SUITE[7])),
    ];
    for (a, b) in pairs {
        assert_bit_identical(
            &cfg,
            PolicyKind::SelectiveSedation,
            HeatSink::Realistic,
            &[a, b],
        );
        assert_bit_identical(&cfg, PolicyKind::GlobalDvfs, HeatSink::Realistic, &[a, b]);
    }
}
