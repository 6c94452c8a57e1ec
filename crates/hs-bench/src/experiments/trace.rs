//! Exports a CSV temperature/activity trace of an attack episode —
//! the raw material behind the paper's narrative timeline (heat-up,
//! emergency, cool-down; or sedation engaging below the emergency).
//!
//! Each policy's section observes one simulator run of gcc + variant2
//! through `Simulator::try_run_quantum_with`, cut to at most 4000 sensor
//! intervals: one row per sensor reading, with that sample's temperatures
//! and DTM decision and the interval's register-file access rates. The
//! matrix is empty and the renderer streams the CSV directly, once per
//! policy. Lines starting with `#` separate the two sections.

use hs_cpu::Resource;
use hs_sim::{
    Campaign, CampaignReport, HeatSink, PolicyKind, SimConfig, SimError, SimStats, Simulator,
};
use hs_thermal::Block;
use hs_workloads::{SpecWorkload, Workload};
use std::fmt::Write as _;
use std::io::{self, Write};

/// The most sensor intervals one policy's section covers.
const MAX_INTERVALS: u64 = 4000;

const HEADER: &str =
    "cycle,t_intreg_k,t_spreader_k,stalled,victim_gated,attacker_gated,victim_rate,attacker_rate";

pub(super) fn build(_cfg: &SimConfig) -> Campaign {
    Campaign::new("trace")
}

/// Runs gcc + variant2 under `policy` over the traced window, returning
/// the CSV rows and the run's statistics.
fn trace_one(cfg: &SimConfig, policy: PolicyKind) -> Result<(String, SimStats), SimError> {
    let sensor = cfg.sensor_interval_cycles;
    let mut cfg = *cfg;
    cfg.quantum_cycles = cfg.quantum_cycles.min(MAX_INTERVALS * sensor);
    let mut sim = Simulator::try_new(cfg, policy, HeatSink::Realistic)?;
    let victim = sim.attach(Workload::Spec(SpecWorkload::Gcc))?;
    let attacker = sim.attach(Workload::Variant2)?;
    let mut rows = String::new();
    let mut accesses = [0u64; 2];
    let stats = sim.try_run_quantum_with(|s| {
        accesses[0] += s.counts.get(victim, Resource::IntRegFile);
        accesses[1] += s.counts.get(attacker, Resource::IntRegFile);
        let Some(net) = s.thermal.filter(|_| s.sensor_fresh) else {
            return;
        };
        writeln!(
            rows,
            "{},{:.3},{:.3},{},{},{},{:.3},{:.3}",
            s.cycle,
            net.block_temp(Block::IntReg),
            net.spreader_temp(),
            u8::from(s.global_stall),
            u8::from(s.gate.is_gated(victim)),
            u8::from(s.gate.is_gated(attacker)),
            accesses[0] as f64 / sensor as f64,
            accesses[1] as f64 / sensor as f64,
        )
        .expect("writing to a String cannot fail");
        accesses = [0; 2];
    })?;
    Ok((rows, stats))
}

pub(super) fn render(
    cfg: &SimConfig,
    _report: &CampaignReport,
    out: &mut dyn Write,
) -> io::Result<()> {
    for policy in [PolicyKind::StopAndGo, PolicyKind::SelectiveSedation] {
        let (rows, stats) = trace_one(cfg, policy).map_err(io::Error::other)?;
        let name = &stats.policy;
        writeln!(out, "# policy: {name}\n{HEADER}")?;
        out.write_all(rows.as_bytes())?;
        writeln!(out, "# policy {name}: {} emergencies", stats.emergencies)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_core::ReportKind;
    use hs_sim::RunSpec;

    #[test]
    fn trace_is_the_simulators_own_run() {
        // Short enough for a debug build; stop-and-go still stalls twice.
        let mut cfg = SimConfig::scaled(400.0);
        cfg.warmup_cycles = 100_000;
        cfg.quantum_cycles = 160_000;
        let mut text = Vec::new();
        let report = build(&cfg).run(1).expect("empty campaign");
        render(&cfg, &report, &mut text).expect("render");
        let text = String::from_utf8(text).expect("utf-8");
        let sections: Vec<&str> = text.split("# policy: ").skip(1).collect();
        assert_eq!(sections.len(), 2);
        for (section, policy) in sections
            .into_iter()
            .zip([PolicyKind::StopAndGo, PolicyKind::SelectiveSedation])
        {
            let gcc = Workload::Spec(SpecWorkload::Gcc);
            let spec = RunSpec::pair(gcc, Workload::Variant2, policy, HeatSink::Realistic, cfg);
            let stats = spec.try_run().expect("run");
            let lines: Vec<&str> = section.lines().collect();
            let (name, count) = (&stats.policy, stats.emergencies);
            let footer = format!("# policy {name}: {count} emergencies");
            assert_eq!((lines[0], lines[lines.len() - 1]), (&**name, &*footer));
            let rows = &lines[2..lines.len() - 1];
            let intervals = cfg.quantum_cycles / cfg.sensor_interval_cycles;
            assert_eq!(rows.len() as u64, intervals, "{name}: one row per interval");
            if policy != PolicyKind::StopAndGo {
                continue;
            }
            let mut stalled = false;
            let mut onsets = Vec::new();
            for row in rows {
                let fields: Vec<&str> = row.split(',').collect();
                if fields[3] == "1" && !stalled {
                    onsets.push(fields[0].parse::<u64>().expect("cycle"));
                }
                stalled = fields[3] == "1";
            }
            let mut emergencies: Vec<u64> = stats
                .reports
                .iter()
                .filter(|r| r.kind == ReportKind::Emergency)
                .map(|r| r.cycle)
                .collect();
            emergencies.dedup();
            assert!(onsets.len() >= 2, "stop-and-go must stall in the window");
            assert_eq!(onsets, emergencies, "stall onsets vs Emergency reports");
        }
    }
}
