//! Differential tests gating the hot-path optimizations.
//!
//! **Bit identity of the default paths**, enforced end-to-end at a
//! scaled-down configuration that still exercises warm-up, DTM sampling,
//! sensor stepping and the thermal network: the default issue select (the
//! ready bitmap over the window ring) together with idle-cycle skipping
//! must produce statistics *bit-identical* to the select oracle (a plain
//! walk over the live window in sequence order, with no skipping) on every
//! bundled workload, solo and paired, and at the window's edges. The
//! comparison goes through the full rendered `SimStats` JSON, so cycle
//! counts, IPCs, access-rate EWMAs, sedation counts and peak temperatures
//! all participate.

use hs_sim::{ExecMode, HeatSink, PolicyKind, SimConfig, SimStats, Simulator};
use hs_workloads::{SpecWorkload, Workload, SPEC_SUITE};

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

/// Runs `workloads` through both select paths, asserts they agree bit for
/// bit, and returns the default path's statistics.
fn assert_bit_identical(
    cfg: &SimConfig,
    policy: PolicyKind,
    sink: HeatSink,
    workloads: &[Workload],
) -> SimStats {
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
    opt
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

#[test]
fn window_edges_match_the_oracle() {
    // The attack pair's committed tombstones wait behind gcc's oldest
    // entry, so the ring doubles past its first capacity, and the oldest
    // ready entry sits anywhere in the ring, so the select walk wraps past
    // the ring's last slot. A 64-entry RUU makes the first ring a single
    // bitmap word, where the walk wraps within the word it started in.
    let mut small = tiny_cfg();
    small.cpu.ruu_size = 64;
    small.cpu.ruu_per_thread_cap = 56;
    let pair = [Workload::Spec(SpecWorkload::Gcc), Workload::Variant1];
    for cfg in [tiny_cfg(), small] {
        assert_bit_identical(
            &cfg,
            PolicyKind::SelectiveSedation,
            HeatSink::Realistic,
            &pair,
        );
        // Interval mode credits variant1's steady spans through
        // `Cpu::fast_forward`: a squash while ready entries wait for the
        // ALUs, followed by more ticks, where a stale ready bit would issue
        // a squashed slot.
        let interval = SimConfig {
            exec: ExecMode::Interval,
            ..cfg
        };
        let stats = assert_bit_identical(
            &interval,
            PolicyKind::None,
            HeatSink::Ideal,
            &[Workload::Variant1],
        );
        assert!(
            stats.fast_forwarded_cycles > 0,
            "no span was credited, so no squash was exercised"
        );
    }
}
