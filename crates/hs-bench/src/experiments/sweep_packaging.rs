//! §5.5: heat-sink / packaging sensitivity.
//!
//! Sweeps the convection resistance (better packaging = lower K/W) and
//! shows that both the damage from heat stroke and the effectiveness of
//! selective sedation are qualitatively unchanged — better packaging
//! cannot solve a power-density attack.

use super::{pair, solo};
use crate::{header, members};
use hs_sim::{Campaign, CampaignReport, HeatSink, PolicyKind, SimConfig};
use hs_workloads::Workload;
use std::io::{self, Write};

const RESISTANCES: [f64; 4] = [0.8, 0.6, 0.4, 0.2];

pub(super) fn build(cfg: &SimConfig) -> Campaign {
    let mut c = Campaign::new("sweep_packaging");
    for r in RESISTANCES {
        let mut run_cfg = *cfg;
        run_cfg.thermal = run_cfg.thermal.with_convection_resistance(r);
        for s in members() {
            let w = Workload::Spec(s);
            let name = s.name();
            solo(
                &mut c,
                format!("r{r:.1}/{name}/solo"),
                w,
                PolicyKind::StopAndGo,
                HeatSink::Realistic,
                run_cfg,
            );
            pair(
                &mut c,
                format!("r{r:.1}/{name}/attack"),
                w,
                Workload::Variant2,
                PolicyKind::StopAndGo,
                HeatSink::Realistic,
                run_cfg,
            );
            pair(
                &mut c,
                format!("r{r:.1}/{name}/sed"),
                w,
                Workload::Variant2,
                PolicyKind::SelectiveSedation,
                HeatSink::Realistic,
                run_cfg,
            );
        }
    }
    c
}

pub(super) fn render(
    cfg: &SimConfig,
    report: &CampaignReport,
    out: &mut dyn Write,
) -> io::Result<()> {
    header(
        out,
        "Section 5.5",
        "packaging sweep (convection resistance)",
        cfg,
    )?;

    writeln!(
        out,
        "{:>8} | {:>10} {:>12} {:>12} {:>10} {:>12}",
        "R (K/W)", "solo IPC", "attacked IPC", "degradation", "sedation", "emergencies"
    )?;
    writeln!(out, "{}", "-".repeat(74))?;
    for r in RESISTANCES {
        let mut solo_sum = 0.0;
        let mut attack_sum = 0.0;
        let mut sed_sum = 0.0;
        let mut emergencies = 0;
        for s in members() {
            let name = s.name();
            solo_sum += report.stats(&format!("r{r:.1}/{name}/solo")).thread(0).ipc;
            let attacked = report.stats(&format!("r{r:.1}/{name}/attack"));
            attack_sum += attacked.thread(0).ipc;
            emergencies += attacked.emergencies;
            sed_sum += report.stats(&format!("r{r:.1}/{name}/sed")).thread(0).ipc;
        }
        let n = members().len() as f64;
        writeln!(
            out,
            "{r:>8.1} | {:>10.2} {:>12.2} {:>11.0}% {:>9.0}% {:>12}",
            solo_sum / n,
            attack_sum / n,
            100.0 * (1.0 - attack_sum / solo_sum),
            100.0 * sed_sum / solo_sum,
            emergencies
        )?;
    }
    writeln!(
        out,
        "\nWith aggressive packaging the attack needs longer to heat the register file\n\
         (fewer emergencies), but wherever emergencies occur the damage and the defense's\n\
         effectiveness are qualitatively unchanged — packaging does not fix heat stroke."
    )
}
