//! Anatomy of the attack: trace the integer register file's temperature
//! while the Figure-2 attacker runs next to a victim under stop-and-go,
//! and print the heat/cool episodes.
//!
//! ```sh
//! cargo run --release --example heat_stroke_attack
//! ```

use heatstroke::prelude::*;

fn main() -> Result<(), SimError> {
    let mut cfg = SimConfig::scaled(200.0);
    cfg.warmup_cycles = 1_000_000;
    let mut sim = Simulator::try_new(cfg, PolicyKind::StopAndGo, HeatSink::Realistic)?;
    sim.attach(Workload::Spec(SpecWorkload::Gcc))?;
    sim.attach(Workload::Variant2)?;

    // Watch the whole quantum: one point per sensor reading.
    let mut trace: Vec<(u64, f64, bool)> = Vec::new();
    let stats = sim.try_run_quantum_with(|s| {
        if let Some(net) = s.thermal.filter(|_| s.sensor_fresh) {
            trace.push((s.cycle, net.block_temp(Block::IntReg), s.global_stall));
        }
    })?;

    println!("cycle        int-reg temp   state");
    for &(cycle, t_reg, stalled) in trace.iter().step_by(trace.len().div_ceil(25)) {
        let bar = "#".repeat(((t_reg - 344.0).max(0.0) * 3.0) as usize);
        println!(
            "{cycle:>9}    {t_reg:7.2} K     {} {bar}",
            if stalled { "STALL" } else { "run  " },
        );
    }

    // Episode statistics.
    let episodes = trace.windows(2).filter(|w| !w[0].2 && w[1].2).count();
    let (victim, attacker) = (stats.thread(0), stats.thread(1));
    println!(
        "\nheat-stroke episodes : {episodes}\n\
         peak temperature     : {:.2} K (emergency {:.1} K)\n\
         fraction stalled     : {:.0}%\n\
         victim committed     : {} instructions\n\
         attacker committed   : {} instructions",
        stats.peak_temps[Block::IntReg.index()],
        cfg.sedation.thresholds.emergency_k,
        100.0 * victim.breakdown.stall_fraction(),
        victim.committed,
        attacker.committed,
    );
    Ok(())
}
