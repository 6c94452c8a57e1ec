//! The per-sample hook (`Simulator::try_run_quantum_with`) observes a run
//! without changing it: the same `SimStats`, one call per monitor sample,
//! `sensor_fresh` once per sensor interval, and IntRegFile counts that add
//! up to each thread's `int_regfile_rate` exactly.

use hs_core::ReportKind;
use hs_cpu::{FetchGate, Resource, ThreadId};
use hs_sim::{ExecMode, FaultConfig, HeatSink, PolicyKind, SimConfig, SimStats, Simulator};
use hs_thermal::{Block, SensorFault, SensorFaultKind, SensorFaultPlan};
use hs_workloads::{SpecWorkload, Workload};

const GCC: Workload = Workload::Spec(SpecWorkload::Gcc);

/// Thermal RC compressed 2000x so DTM engages inside a short quantum,
/// which ends 30 cycles into a sample period and a sensor interval.
fn tiny_cfg() -> SimConfig {
    let mut cfg = SimConfig::scaled(2000.0);
    cfg.warmup_cycles = 10_000;
    cfg.quantum_cycles = 50_030;
    cfg
}

fn simulator(cfg: SimConfig, policy: PolicyKind, workloads: &[Workload]) -> Simulator {
    let mut sim = Simulator::try_new(cfg, policy, HeatSink::Realistic).expect("valid config");
    for &w in workloads {
        sim.attach(w).expect("attach");
    }
    sim
}

/// Runs the scenario unobserved and observed, checks the hook's contract,
/// and returns the observed statistics and each sample's
/// `(global_stall, gate)`.
fn check(
    cfg: SimConfig,
    policy: PolicyKind,
    workloads: &[Workload],
) -> (SimStats, Vec<(bool, FetchGate)>) {
    let plain = simulator(cfg, policy, workloads)
        .try_run_quantum()
        .expect("run");
    let (mut cycles, mut fresh, mut decisions) = (Vec::new(), 0u64, Vec::new());
    let mut int_regfile = vec![0u64; workloads.len()];
    let observed = simulator(cfg, policy, workloads)
        .try_run_quantum_with(|s| {
            cycles.push(s.cycle);
            fresh += u64::from(s.sensor_fresh);
            decisions.push((s.global_stall, s.gate));
            for (t, n) in int_regfile.iter_mut().enumerate() {
                *n += s.counts.get(ThreadId(t as u8), Resource::IntRegFile);
            }
            assert!(s.thermal.is_some(), "realistic sink has a network");
        })
        .expect("run");
    assert_eq!(
        observed.to_json().to_string_pretty(),
        plain.to_json().to_string_pretty(),
        "observing the run changed it"
    );
    let (quantum, sample) = (cfg.quantum_cycles, cfg.sedation.sample_period_cycles);
    let expected: Vec<u64> = (1..=quantum / sample).map(|k| k * sample).collect();
    assert_eq!(cycles, expected, "one call per sample, in order");
    assert_eq!(fresh, quantum / cfg.sensor_interval_cycles);
    for (t, &n) in int_regfile.iter().enumerate() {
        let rate = observed.thread(t).int_regfile_rate;
        assert_eq!(n as f64 / quantum as f64, rate, "thread {t}");
    }
    (observed, decisions)
}

#[test]
fn sedation_pair() {
    let pair = [GCC, Workload::Variant1];
    let (stats, decisions) = check(tiny_cfg(), PolicyKind::SelectiveSedation, &pair);
    assert!(stats.thread(1).sedations > 0, "variant1 was never sedated");
    assert!(decisions.iter().any(|(_, g)| g.is_gated(ThreadId(1))));
    assert!(decisions
        .iter()
        .all(|&(stall, g)| !stall && !g.is_gated(ThreadId(0))));
}

#[test]
fn stop_and_go_pair() {
    let pair = [GCC, Workload::Variant2];
    let (stats, decisions) = check(tiny_cfg(), PolicyKind::StopAndGo, &pair);
    assert!(stats.emergencies > 0, "no emergency to stall for");
    assert!(decisions.iter().any(|&(stall, _)| stall));
}

#[test]
fn stuck_low_failsafe() {
    let mut cfg = tiny_cfg();
    cfg.faults = FaultConfig {
        sensors: SensorFaultPlan::seeded(0xFA_0175).with(SensorFault::permanent(
            Block::IntReg,
            SensorFaultKind::StuckAt { value_k: 345.0 },
            0,
        )),
        ..FaultConfig::none()
    };
    let (stats, _) = check(cfg, PolicyKind::FaultTolerant, &[GCC, Workload::Variant2]);
    assert!(stats.count_kind(ReportKind::FallbackEngaged) > 0);
}

#[test]
fn interval_mode() {
    let mut cfg = tiny_cfg();
    cfg.exec = ExecMode::Interval;
    let applu = [Workload::Spec(SpecWorkload::Applu)];
    let (stats, _) = check(cfg, PolicyKind::SelectiveSedation, &applu);
    assert!(stats.fast_forwarded_cycles > 0, "nothing was credited");
}
