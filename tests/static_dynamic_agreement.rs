//! Tentpole validation: the static screener's hot-block ranking must agree
//! with the dynamic pipeline's measured per-block switching energy, and the
//! verdicts must separate the three malicious variants from every SPEC-like
//! kernel.
//!
//! Agreement criterion: the dynamically hottest thermal block (argmax of
//! measured access counts weighted by per-access energy) must rank within
//! the static analysis' top two blocks. The static model's residual error —
//! it undercounts instruction-cache line re-touches from fetch-queue
//! throttling, and over-weights L2 on two irregular integer codes — can
//! swap the top two blocks but never pushes the true hot spot further down.
//! For the malicious variants the argmax must match exactly (the attack
//! pins the integer register file by construction).

use hs_analyze::Verdict;
use hs_cpu::pipeline::FetchGate;
use hs_cpu::{AccessMatrix, Cpu, ALL_RESOURCES};
use hs_power::{resource_block, PowerModel};
use hs_sim::admission::screen;
use hs_sim::SimConfig;
use hs_thermal::{Block, ThermalNetwork, ALL_BLOCKS, NUM_BLOCKS};
use hs_workloads::Workload;

const WARMUP: u64 = 250_000;
const MEASURED: u64 = 500_000;

/// Measured per-block switching energy per cycle over a steady window.
fn dynamic_block_energy(cfg: &SimConfig, w: Workload) -> [f64; NUM_BLOCKS] {
    let program = w.program_with(&cfg.mem, cfg.time_scale);
    let mut cpu = Cpu::new(cfg.cpu, cfg.mem);
    let tid = cpu.attach_thread(program);
    for _ in 0..WARMUP {
        cpu.tick(FetchGate::open());
    }
    let _ = cpu.take_access_counts();
    for _ in 0..MEASURED {
        cpu.tick(FetchGate::open());
    }
    let counts = cpu.take_access_counts();
    let energies = cfg.energy.per_access_energies();
    let mut energy = [0.0f64; NUM_BLOCKS];
    for r in ALL_RESOURCES {
        let rate = counts.get(tid, r) as f64 / MEASURED as f64;
        energy[resource_block(r).index()] += rate * energies[r.index()];
    }
    energy
}

fn argmax(energy: &[f64; NUM_BLOCKS]) -> Block {
    ALL_BLOCKS
        .into_iter()
        .max_by(|a, b| {
            energy[a.index()]
                .partial_cmp(&energy[b.index()])
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("ALL_BLOCKS is non-empty")
}

/// The shared assertion: verdict separation plus hot-block agreement.
fn agrees(w: Workload) {
    let cfg = SimConfig::scaled(50.0);
    let program = w.program_with(&cfg.mem, cfg.time_scale);
    let analysis = screen(&program, &cfg);

    if w.is_malicious() {
        assert_eq!(
            analysis.verdict,
            Verdict::HeatStroke,
            "{}: malicious variant must screen as heat-stroke (est {:.1} K)",
            w.name(),
            analysis.est_temp_k,
        );
    } else {
        assert_eq!(
            analysis.verdict,
            Verdict::Benign,
            "{}: SPEC-like kernel must screen as benign (est {:.1} K)",
            w.name(),
            analysis.est_temp_k,
        );
    }

    let dynamic = dynamic_block_energy(&cfg, w);
    let dyn_hot = argmax(&dynamic);
    let ranked = analysis.top_blocks();
    let static_top2: Vec<Block> = ranked.iter().take(2).map(|&(b, _)| b).collect();
    assert!(
        static_top2.contains(&dyn_hot),
        "{}: dynamically hottest block {} not in static top two {:?} \
         (static ranking {:?})",
        w.name(),
        dyn_hot.name(),
        static_top2.iter().map(|b| b.name()).collect::<Vec<_>>(),
        ranked
            .iter()
            .take(4)
            .map(|(b, e)| format!("{}={:.3e}", b.name(), e))
            .collect::<Vec<_>>(),
    );

    if w.is_malicious() {
        assert_eq!(
            analysis.hottest_block,
            dyn_hot,
            "{}: attack hot block must match exactly",
            w.name(),
        );
        assert_eq!(
            dyn_hot,
            Block::IntReg,
            "{}: the attack pins the integer register file",
            w.name(),
        );
    }
}

macro_rules! agreement_tests {
    ($($name:ident => $workload:expr;)*) => {
        $(
            #[test]
            fn $name() {
                agrees($workload);
            }
        )*
    };
}

agreement_tests! {
    variant1_agrees => Workload::Variant1;
    variant2_agrees => Workload::Variant2;
    variant3_agrees => Workload::Variant3;
}

/// One test per SPEC workload so the suite parallelizes across cores.
macro_rules! spec_agreement_tests {
    ($($name:ident => $spec:literal;)*) => {
        $(
            #[test]
            fn $name() {
                let w = hs_workloads::SPEC_SUITE
                    .into_iter()
                    .map(Workload::Spec)
                    .find(|w| w.name() == $spec)
                    .unwrap_or_else(|| panic!("no SPEC workload named {}", $spec));
                agrees(w);
            }
        )*
    };
}

spec_agreement_tests! {
    applu_agrees => "applu";
    apsi_agrees => "apsi";
    art_agrees => "art";
    bzip2_agrees => "bzip2";
    crafty_agrees => "crafty";
    eon_agrees => "eon";
    gap_agrees => "gap";
    gcc_agrees => "gcc";
    gzip_agrees => "gzip";
    lucas_agrees => "lucas";
    mcf_agrees => "mcf";
    mesa_agrees => "mesa";
    parser_agrees => "parser";
    swim_agrees => "swim";
    twolf_agrees => "twolf";
    vortex_agrees => "vortex";
}

// ---------------------------------------------------------------------------
// Duty-cycle evaders: the phase-aware pass must catch what steady-state
// averaging misses.
// ---------------------------------------------------------------------------

/// Screens `w` and returns two verdicts: the steady-state pass's alone
/// (the analyzer before the other passes existed) and the full analysis's.
/// Each pass reads only the shared loop context and the program verdict is
/// the join of all diagnostics, so the join of the `steady-state`
/// diagnostics is the verdict that pass alone would give.
fn old_and_new_verdicts(w: Workload) -> (Verdict, Verdict) {
    let cfg = SimConfig::scaled(50.0);
    let program = w.program_with(&cfg.mem, cfg.time_scale);
    let analysis = screen(&program, &cfg);
    let old = analysis
        .diagnostics
        .iter()
        .filter(|d| d.pass == "steady-state")
        .map(|d| d.verdict)
        .max()
        .unwrap_or(Verdict::Benign);
    (old, analysis.verdict)
}

#[test]
fn split_evader_beats_steady_state_but_not_the_phase_pass() {
    let (old, new) = old_and_new_verdicts(Workload::EvaderSplit);
    assert_eq!(old, Verdict::Benign, "steady-state-only must be evaded");
    assert_eq!(new, Verdict::HeatStroke, "the transient pass must see it");
}

#[test]
fn hidden_idiom_evader_beats_steady_state_but_not_the_phase_pass() {
    let (old, new) = old_and_new_verdicts(Workload::EvaderHidden);
    assert_eq!(old, Verdict::Benign, "steady-state-only must be evaded");
    assert_eq!(new, Verdict::HeatStroke, "the transient pass must see it");
}

#[test]
fn unknown_trip_evader_is_escalated_by_the_worst_case_pass() {
    let (old, new) = old_and_new_verdicts(Workload::EvaderUnknown);
    assert_eq!(old, Verdict::Benign, "steady-state-only must be evaded");
    assert_eq!(new, Verdict::Suspicious, "worst-case pass must escalate");
}

// ---------------------------------------------------------------------------
// Transient tolerance contract: the statically predicted peak temperature
// tracks a dynamic run's true peak within a per-class tolerance
// (DESIGN.md §4c). The residual error is dominated by the static rate
// estimates (the same source behind the est_temp_k error the steady screen
// always had), not by the closed-form RC solution, whose own error is
// bounded at 2 K by `hs-analyze`'s transient unit tests. The attack corpus
// — saturating, recurrence-bound loops the cycle model nails — holds a
// tighter bound than the SPEC-like kernels, whose ILP-marginal bodies the
// static cycles-per-iteration estimate can undercount (`art` is the worst
// offender at ~+8 K).
// ---------------------------------------------------------------------------

const ATTACK_TOLERANCE_K: f64 = 6.0;
const SPEC_TOLERANCE_K: f64 = 9.0;

/// True peak hot-spot temperature of a dynamic run at the periodic steady
/// envelope: warm the caches, measure the duty-averaged power over one
/// window, pin the package at its steady state (the envelope's baseline),
/// let the envelope settle for a window, then track the peak over a final
/// full window.
fn dynamic_peak_temp(cfg: &SimConfig, w: Workload, window: u64) -> f64 {
    const SAMPLE: u64 = 1_000;
    let program = w.program_with(&cfg.mem, cfg.time_scale);
    let mut cpu = Cpu::new(cfg.cpu, cfg.mem);
    let _tid = cpu.attach_thread(program);
    let model = PowerModel::new(cfg.energy);
    for _ in 0..100_000 {
        cpu.tick(FetchGate::open());
    }
    let _ = cpu.take_access_counts();

    // Pass 1: duty-averaged power over one full window.
    let mut avg_counts = AccessMatrix::new();
    for _ in 0..window {
        cpu.tick(FetchGate::open());
    }
    avg_counts.merge(&cpu.take_access_counts());
    let avg_power = model.power(&avg_counts, window, cfg.freq_hz);
    let mut net = ThermalNetwork::new(&cfg.thermal);
    net.initialize_steady_state(&avg_power);

    // Passes 2 (settle) and 3 (measure).
    let dt = SAMPLE as f64 / cfg.freq_hz;
    let mut peak = f64::MIN;
    for pass in 0..2 {
        for _ in 0..window / SAMPLE {
            for _ in 0..SAMPLE {
                cpu.tick(FetchGate::open());
            }
            let counts = cpu.take_access_counts();
            let power = model.power(&counts, SAMPLE, cfg.freq_hz);
            net.step(dt, &power);
            if pass == 1 {
                for t in net.block_temps() {
                    peak = peak.max(t);
                }
            }
        }
    }
    peak
}

/// The shared tolerance assertion. `window` must cover at least one full
/// period of the workload's power schedule.
fn peak_agrees(w: Workload, window: u64, tolerance_k: f64) {
    let cfg = SimConfig::scaled(50.0);
    let program = w.program_with(&cfg.mem, cfg.time_scale);
    let predicted = screen(&program, &cfg).peak_temp_k;
    let measured = dynamic_peak_temp(&cfg, w, window);
    assert!(
        (predicted - measured).abs() <= tolerance_k,
        "{}: predicted peak {predicted:.1} K vs dynamic {measured:.1} K \
         (tolerance {tolerance_k} K)",
        w.name(),
    );
}

/// SPEC periods are tens of kilocycles; the duty-cycle attackers stretch
/// to ~3.2M cycles at this time scale, so their windows must be larger.
const SPEC_WINDOW: u64 = 400_000;
const VARIANT_WINDOW: u64 = 800_000;
const EVADER_WINDOW: u64 = 4_000_000;

macro_rules! peak_tolerance_tests {
    ($($name:ident => ($workload:expr, $window:expr, $tol:expr);)*) => {
        $(
            #[test]
            fn $name() {
                peak_agrees($workload, $window, $tol);
            }
        )*
    };
}

peak_tolerance_tests! {
    applu_peak_within_tolerance => (spec("applu"), SPEC_WINDOW, SPEC_TOLERANCE_K);
    apsi_peak_within_tolerance => (spec("apsi"), SPEC_WINDOW, SPEC_TOLERANCE_K);
    art_peak_within_tolerance => (spec("art"), SPEC_WINDOW, SPEC_TOLERANCE_K);
    bzip2_peak_within_tolerance => (spec("bzip2"), SPEC_WINDOW, SPEC_TOLERANCE_K);
    crafty_peak_within_tolerance => (spec("crafty"), SPEC_WINDOW, SPEC_TOLERANCE_K);
    eon_peak_within_tolerance => (spec("eon"), SPEC_WINDOW, SPEC_TOLERANCE_K);
    gap_peak_within_tolerance => (spec("gap"), SPEC_WINDOW, SPEC_TOLERANCE_K);
    gcc_peak_within_tolerance => (spec("gcc"), SPEC_WINDOW, SPEC_TOLERANCE_K);
    gzip_peak_within_tolerance => (spec("gzip"), SPEC_WINDOW, SPEC_TOLERANCE_K);
    lucas_peak_within_tolerance => (spec("lucas"), SPEC_WINDOW, SPEC_TOLERANCE_K);
    mcf_peak_within_tolerance => (spec("mcf"), SPEC_WINDOW, SPEC_TOLERANCE_K);
    mesa_peak_within_tolerance => (spec("mesa"), SPEC_WINDOW, SPEC_TOLERANCE_K);
    parser_peak_within_tolerance => (spec("parser"), SPEC_WINDOW, SPEC_TOLERANCE_K);
    swim_peak_within_tolerance => (spec("swim"), SPEC_WINDOW, SPEC_TOLERANCE_K);
    twolf_peak_within_tolerance => (spec("twolf"), SPEC_WINDOW, SPEC_TOLERANCE_K);
    vortex_peak_within_tolerance => (spec("vortex"), SPEC_WINDOW, SPEC_TOLERANCE_K);
    variant1_peak_within_tolerance => (Workload::Variant1, VARIANT_WINDOW, ATTACK_TOLERANCE_K);
    variant2_peak_within_tolerance => (Workload::Variant2, VARIANT_WINDOW, ATTACK_TOLERANCE_K);
    variant3_peak_within_tolerance => (Workload::Variant3, VARIANT_WINDOW, ATTACK_TOLERANCE_K);
    evader_split_peak_within_tolerance =>
        (Workload::EvaderSplit, EVADER_WINDOW, ATTACK_TOLERANCE_K);
    evader_hidden_peak_within_tolerance =>
        (Workload::EvaderHidden, EVADER_WINDOW, ATTACK_TOLERANCE_K);
}

fn spec(name: &str) -> Workload {
    hs_workloads::SPEC_SUITE
        .into_iter()
        .map(Workload::Spec)
        .find(|w| w.name() == name)
        .unwrap_or_else(|| panic!("no SPEC workload named {name}"))
}

/// The unknown-trip evader is the documented exception to the tolerance
/// contract: its trip count is statically unrecoverable, so its predicted
/// peak *underestimates* the dynamic truth by construction. That gap is
/// exactly why the worst-case pass escalates Unknown-trip hot loops on
/// their temperature rather than trusting the peak prediction.
#[test]
fn unknown_trip_peak_underestimates_which_is_why_worst_case_escalates() {
    let cfg = SimConfig::scaled(50.0);
    let program = Workload::EvaderUnknown.program_with(&cfg.mem, cfg.time_scale);
    let analysis = screen(&program, &cfg);
    let measured = dynamic_peak_temp(&cfg, Workload::EvaderUnknown, SPEC_WINDOW);
    assert!(
        analysis.peak_temp_k + ATTACK_TOLERANCE_K < measured,
        "predicted {:.1} K should underestimate dynamic {measured:.1} K",
        analysis.peak_temp_k,
    );
    assert_eq!(analysis.verdict, Verdict::Suspicious);
}

/// The whole suite is covered: every bundled workload appears above.
#[test]
fn every_bundled_workload_is_covered() {
    let covered = [
        "applu", "apsi", "art", "bzip2", "crafty", "eon", "gap", "gcc", "gzip", "lucas", "mcf",
        "mesa", "parser", "swim", "twolf", "vortex",
    ];
    let suite: Vec<&str> = hs_workloads::SPEC_SUITE
        .into_iter()
        .map(|s| Workload::Spec(s).name())
        .collect();
    assert_eq!(
        suite.len(),
        covered.len(),
        "SPEC suite changed size; update this test"
    );
    for name in suite {
        assert!(
            covered.contains(&name),
            "workload {name} has no agreement test"
        );
    }
}
