//! Edge-case tests for the baseline DTM policies: exact threshold
//! boundaries, saturated counters, and degenerate (zero-duty) stalls.

use heatstroke::core::{
    BlockCounts, DtmInput, DtmThresholds, RateCap, RateCapConfig, ReportKind, StopAndGo,
    ThermalPolicy, ALL_SENSORS_VALID,
};
use heatstroke::cpu::ThreadId;
use heatstroke::thermal::{Block, NUM_BLOCKS};

fn input<'a>(temps: &'a [f64; NUM_BLOCKS], counts: &'a BlockCounts, cycle: u64) -> DtmInput<'a> {
    DtmInput {
        cycle,
        block_temps: temps,
        sensor_valid: &ALL_SENSORS_VALID,
        sensor_fresh: true,
        counts,
        global_stalled: false,
    }
}

/// Emergencies the policy reported since its reports were last drained.
fn emergencies(p: &mut impl ThermalPolicy) -> usize {
    let reports = p.take_reports();
    reports
        .iter()
        .filter(|r| r.kind == ReportKind::Emergency)
        .count()
}

#[test]
fn stop_and_go_trips_exactly_at_the_emergency_threshold() {
    let th = DtmThresholds::default();
    let mut p = StopAndGo::new(th);
    let counts = BlockCounts::new();

    // One ULP below the threshold: no trip.
    let mut temps = [345.0; NUM_BLOCKS];
    temps[Block::IntReg.index()] = f64::from_bits(th.emergency_k.to_bits() - 1);
    assert!(!p.on_sample(&input(&temps, &counts, 0)).global_stall);
    assert_eq!(emergencies(&mut p), 0);

    // Exactly the threshold: trips (the comparison is inclusive).
    temps[Block::IntReg.index()] = th.emergency_k;
    assert!(p.on_sample(&input(&temps, &counts, 10)).global_stall);
    assert_eq!(emergencies(&mut p), 1);
}

#[test]
fn stop_and_go_releases_exactly_at_the_normal_threshold() {
    let th = DtmThresholds::default();
    let mut p = StopAndGo::new(th);
    let counts = BlockCounts::new();
    let mut temps = [345.0; NUM_BLOCKS];

    temps[Block::IntReg.index()] = th.emergency_k;
    assert!(p.on_sample(&input(&temps, &counts, 0)).global_stall);

    // One ULP above normal: still stalled (release is inclusive at normal).
    temps[Block::IntReg.index()] = f64::from_bits(th.normal_k.to_bits() + 1);
    assert!(p.on_sample(&input(&temps, &counts, 10)).global_stall);

    // Exactly normal: released.
    temps[Block::IntReg.index()] = th.normal_k;
    assert!(!p.on_sample(&input(&temps, &counts, 20)).global_stall);
}

#[test]
fn stop_and_go_zero_duty_when_never_cooling() {
    // A die that never cools below normal after an emergency gives a
    // zero-duty (permanently stalled) schedule — the stall must hold for
    // an arbitrarily long run without re-counting the same emergency.
    let th = DtmThresholds::default();
    let mut p = StopAndGo::new(th);
    let counts = BlockCounts::new();
    let mut temps = [345.0; NUM_BLOCKS];
    temps[Block::IntReg.index()] = th.emergency_k + 0.5;
    assert!(p.on_sample(&input(&temps, &counts, 0)).global_stall);
    temps[Block::IntReg.index()] = th.normal_k + 0.01;
    for i in 1..10_000u64 {
        assert!(p.on_sample(&input(&temps, &counts, i * 1_000)).global_stall);
    }
    assert_eq!(emergencies(&mut p), 1, "one heating episode, one emergency");
}

#[test]
fn rate_cap_at_exactly_the_cap_is_not_a_violation() {
    // The cap check is strictly greater-than: a thread whose weighted
    // average sits exactly on the cap is never gated.
    let cfg = RateCapConfig::default();
    let mut p = RateCap::new(cfg, 2);
    let temps = [350.0; NUM_BLOCKS];
    let per_period = (cfg.cap_accesses_per_cycle * cfg.sample_period_cycles as f64) as u64;
    for i in 0..5_000u64 {
        let mut counts = BlockCounts::new();
        counts.add(0, Block::IntReg, per_period);
        let d = p.on_sample(&input(&temps, &counts, (i + 1) * cfg.sample_period_cycles));
        assert!(
            !d.gate.any_gated(),
            "gated at sample {i} with avg exactly at cap"
        );
    }
    assert_eq!(p.violations(), 0);
}

#[test]
fn rate_cap_survives_a_saturated_counter() {
    // A stuck-high counter reports u64::MAX accesses per sample. The
    // fixed-point monitor must clamp, not overflow, and the policy must
    // (correctly, if uselessly) gate the thread rather than panic.
    let cfg = RateCapConfig::default();
    let mut p = RateCap::new(cfg, 2);
    let temps = [350.0; NUM_BLOCKS];
    let mut gated = false;
    for i in 0..64u64 {
        let mut counts = BlockCounts::new();
        counts.set(0, Block::IntReg, u64::MAX);
        let d = p.on_sample(&input(&temps, &counts, (i + 1) * cfg.sample_period_cycles));
        gated |= d.gate.is_gated(ThreadId(0));
        assert!(
            !d.gate.is_gated(ThreadId(1)),
            "innocent thread must stay open"
        );
    }
    assert!(gated, "a pegged counter trips the cap immediately");
}

#[test]
fn rate_cap_zero_duty_penalty_never_starves_the_peer() {
    // A penalty long enough to cover the whole run: the offender stays
    // gated for every remaining sample (zero duty) but the policy never
    // stalls globally and never touches the other thread.
    let cfg = RateCapConfig {
        penalty_cycles: u64::MAX / 2,
        ..RateCapConfig::default()
    };
    let mut p = RateCap::new(cfg, 2);
    let temps = [350.0; NUM_BLOCKS];
    for i in 0..2_000u64 {
        let mut counts = BlockCounts::new();
        counts.add(0, Block::IntReg, 9_000);
        counts.add(1, Block::IntReg, 2_000);
        let d = p.on_sample(&input(&temps, &counts, (i + 1) * cfg.sample_period_cycles));
        assert!(!d.global_stall);
        assert!(!d.gate.is_gated(ThreadId(1)));
        if i > 600 {
            assert!(
                d.gate.is_gated(ThreadId(0)),
                "penalty must still hold at sample {i}"
            );
        }
    }
    assert_eq!(p.violations(), 1, "one violation, one (endless) penalty");
}
