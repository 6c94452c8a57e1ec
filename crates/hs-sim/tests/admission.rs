//! End-to-end admission screening: both [`AdmissionMode`]s exercised
//! through [`Simulator::attach`] with a benign, a suspicious, and a
//! heat-stroke guest.
//!
//! The admission verdicts come from the full lint-pass pipeline, so these
//! tests also pin the phased verdicts' integration: `evader-split` is only
//! HeatStroke because the phase-alternation pass sees through its duty
//! cycle, and `evader-unknown` is only Suspicious because the worst-case
//! pass refuses to trust its unrecoverable trip count.

use hs_core::ReportKind;
use hs_cpu::ThreadId;
use hs_sim::{AdmissionMode, HeatSink, PolicyKind, SimConfig, Simulator};
use hs_workloads::{SpecWorkload, Workload};

fn sim(mode: AdmissionMode) -> Simulator {
    let mut cfg = SimConfig::scaled(50.0);
    cfg.admission = mode;
    // Three guests (benign / suspicious / heat-stroke) share one machine.
    cfg.cpu.contexts = 3;
    cfg.warmup_cycles = 20_000;
    cfg.quantum_cycles = 30_000;
    Simulator::new(cfg, PolicyKind::None, HeatSink::Ideal)
}

const BENIGN: Workload = Workload::Spec(SpecWorkload::Gcc);
const SUSPICIOUS: Workload = Workload::EvaderUnknown;
const STROKE: Workload = Workload::EvaderSplit;

#[test]
fn off_mode_attaches_everything_silently() {
    let mut s = sim(AdmissionMode::Off);
    s.attach(BENIGN).unwrap();
    s.attach(STROKE).unwrap();
    let stats = s.run_quantum();
    assert_eq!(stats.count_kind(ReportKind::AdmissionFlagged), 0);
    // Unscreened, the attacker runs at full tilt.
    assert!(stats.thread(1).committed > 0);
}

#[test]
fn warn_mode_logs_but_attaches() {
    let mut s = sim(AdmissionMode::Warn);
    s.attach(BENIGN).unwrap();
    s.attach(SUSPICIOUS).unwrap();
    s.attach(STROKE).unwrap();
    let stats = s.run_quantum();
    // One flag for the suspicious guest, one for the heat-stroke guest;
    // nothing for gcc.
    assert_eq!(stats.count_kind(ReportKind::AdmissionFlagged), 2);
    let flagged: Vec<_> = stats
        .reports
        .iter()
        .filter(|r| r.kind == ReportKind::AdmissionFlagged)
        .map(|r| r.thread)
        .collect();
    assert!(!flagged.contains(&Some(ThreadId(0))));
    // Warned threads still execute.
    for t in 0..3 {
        assert!(stats.thread(t).committed > 0, "thread {t} never ran");
    }
}
