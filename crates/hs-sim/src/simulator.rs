//! The quantum simulator: pipeline + power + thermal + DTM in one loop.

use crate::admission::{screen, AdmissionMode};
use crate::config::{ExecMode, HeatSink, PolicyKind, SimConfig};
use crate::error::SimError;
use crate::stats::{SimStats, ThreadBreakdown, ThreadSummary};
use hs_analyze::Verdict;
use hs_core::{
    BlockCounts, DtmInput, FaultTolerantDtm, GlobalDvfs, NoDtm, OsReport, RateCap, ReportKind,
    SelectiveSedation, StopAndGo, ThermalPolicy, ALL_SENSORS_VALID,
};
use hs_cpu::pipeline::FetchGate;
use hs_cpu::{AccessMatrix, Cpu, IntervalDriver, Resource, ThreadId, ALL_RESOURCES};
use hs_isa::Program;
use hs_power::{calibration, resource_block, PowerModel};
use hs_thermal::{SensorBank, ThermalNetwork, ALL_BLOCKS, NUM_BLOCKS};
use hs_workloads::Workload;

/// An execution-driven simulation of one OS quantum on the SMT processor.
///
/// Construct with [`Simulator::new`], attach one workload per hardware
/// context with [`Simulator::attach`], then call [`Simulator::run_quantum`]
/// (or [`Simulator::try_run_quantum_with`] to watch every monitor sample).
pub struct Simulator {
    cfg: SimConfig,
    cpu: Cpu,
    model: PowerModel,
    /// `None` models the ideal heat sink (infinite heat removal).
    thermal: Option<ThermalNetwork>,
    sensors: SensorBank,
    policy: Box<dyn ThermalPolicy>,
    names: Vec<&'static str>,
    /// Cycle-0 reports filed by the admission screen.
    admission_reports: Vec<OsReport>,
}

/// What [`Simulator::try_run_quantum_with`] shows its hook at one monitor
/// sample, right after the DTM decision.
#[derive(Debug)]
pub struct Sample<'a> {
    /// The sampling instant (a multiple of the monitor sample period).
    pub cycle: u64,
    /// Whether this sample ends a sensor interval: the thermal network,
    /// if any, was just advanced and its sensors read.
    pub sensor_fresh: bool,
    /// The thermal network as of the last sensor step; `None` on the ideal
    /// heat sink.
    pub thermal: Option<&'a ThermalNetwork>,
    /// The sample's true access counts (counter faults corrupt only what
    /// the monitors see).
    pub counts: &'a AccessMatrix,
    /// The fetch gates decided for the next span.
    pub gate: FetchGate,
    /// Whether the whole pipeline stalls for the next span.
    pub global_stall: bool,
}

/// Interval mode's thermal guard band (DESIGN.md §3d): a span is credited
/// only while every block's true temperature is below `normal_k − GUARD_K`.
/// The first temperature-driven policy action while no thread is gated
/// fires 2 K further up, at `upper_k`, so every threshold approach is
/// simulated cycle by cycle.
const GUARD_K: f64 = 0.5;

/// The hook of every run nobody observes. One shared `fn` item, so the
/// measured loop is compiled once for all of them.
pub(crate) fn unobserved(_: &Sample<'_>) {}

/// Adaptive throttle for [`Cpu::idle_bound`] probes.
///
/// A failed probe backs off exponentially (up to 8 ticks between probes) so
/// dense phases pay a fraction of the probe cost; a successful skip resets
/// to probing on the very next tick, so stall chains are followed closely.
/// Only a heuristic over *which* provably idle cycles get fast-forwarded —
/// architectural state and statistics are identical either way.
struct IdleProbe {
    wait: u32,
    backoff: u32,
}

impl IdleProbe {
    const MAX_BACKOFF: u32 = 8;

    fn new() -> Self {
        Self {
            wait: 0,
            backoff: 1,
        }
    }

    fn should_probe(&mut self) -> bool {
        if self.wait == 0 {
            true
        } else {
            self.wait -= 1;
            false
        }
    }

    fn hit(&mut self) {
        self.wait = 0;
        self.backoff = 1;
    }

    fn miss(&mut self) {
        self.wait = self.backoff;
        self.backoff = (self.backoff * 2).min(Self::MAX_BACKOFF);
    }

    /// Ticks `cpu` for `cycles` cycles under a gate that holds for the
    /// whole span, fast-forwarding through provably idle stall windows
    /// (see `Cpu::idle_bound`) instead of ticking them one by one.
    fn tick_span(&mut self, cpu: &mut Cpu, gate: FetchGate, cycles: u64) {
        let mut done = 0u64;
        while done < cycles {
            cpu.tick(gate);
            done += 1;
            if done == cycles {
                break;
            }
            if !self.should_probe() {
                continue;
            }
            let skip = cpu
                .idle_bound(gate)
                .map_or(0, |b| (b - 1 - cpu.cycle()).min(cycles - done));
            if skip > 0 {
                cpu.skip_idle_cycles(gate, skip);
                done += skip;
                self.hit();
            } else {
                self.miss();
            }
        }
    }
}

impl Simulator {
    /// Creates a simulator with the requested DTM policy and package.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the policy/package
    /// combination is rejected (see [`Simulator::try_new`]).
    #[must_use]
    pub fn new(cfg: SimConfig, policy: PolicyKind, sink: HeatSink) -> Self {
        match Self::try_new(cfg, policy, sink) {
            Ok(sim) => sim,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a simulator with the requested DTM policy and package,
    /// reporting configuration problems instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if the configuration fails
    /// [`SimConfig::try_validate`], and [`SimError::RunawayCombination`]
    /// for [`PolicyKind::None`] on [`HeatSink::Realistic`] — with no DTM
    /// and a finite heat-removal rate nothing bounds the temperature, so
    /// the run would silently produce a meaningless thermal runaway.
    pub fn try_new(cfg: SimConfig, policy: PolicyKind, sink: HeatSink) -> Result<Self, SimError> {
        Self::try_with_core(cfg, policy, sink, None)
    }

    /// [`Simulator::try_new`] that adopts `warm` — a core built for
    /// `cfg.cpu`/`cfg.mem` that already holds this run's workloads and has
    /// run their warm-up — instead of allocating a fresh one. Workloads are
    /// then [`admit`](Simulator::admit)ted, not attached.
    pub(crate) fn try_with_core(
        cfg: SimConfig,
        policy: PolicyKind,
        sink: HeatSink,
        warm: Option<Cpu>,
    ) -> Result<Self, SimError> {
        cfg.try_validate()?;
        if policy == PolicyKind::None && sink == HeatSink::Realistic {
            return Err(SimError::RunawayCombination);
        }
        let cpu = warm.unwrap_or_else(|| Cpu::new(cfg.cpu, cfg.mem));
        let model = PowerModel::new(cfg.energy);
        let thermal = match sink {
            HeatSink::Ideal => None,
            HeatSink::Realistic => Some(ThermalNetwork::new(&cfg.thermal)),
        };
        let policy: Box<dyn ThermalPolicy> = match policy {
            PolicyKind::None => Box::new(NoDtm::new()),
            PolicyKind::StopAndGo => Box::new(StopAndGo::new(cfg.sedation.thresholds)),
            PolicyKind::GlobalDvfs => Box::new(GlobalDvfs::new(cfg.sedation.thresholds, 2)),
            PolicyKind::RateCap => Box::new(RateCap::new(cfg.rate_cap, cfg.cpu.contexts as usize)),
            PolicyKind::SelectiveSedation => Box::new(SelectiveSedation::new(
                cfg.sedation,
                cfg.cpu.contexts as usize,
            )),
            PolicyKind::FaultTolerant => Box::new(FaultTolerantDtm::new(
                cfg.failsafe(),
                cfg.cpu.contexts as usize,
            )),
        };
        Ok(Simulator {
            cfg,
            cpu,
            model,
            thermal,
            sensors: SensorBank::with_faults(cfg.sensors, cfg.faults.sensors),
            policy,
            names: Vec::new(),
            admission_reports: Vec::new(),
        })
    }

    /// Attaches a workload to the next free hardware context.
    ///
    /// Under [`AdmissionMode::Warn`] the workload's program is first
    /// screened by the static analyzer (`hs-analyze`); a heat-stroke or
    /// suspicious verdict files an `admission flagged` report at cycle 0.
    /// The program is attached either way.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyWorkloads`] when all `cpu.contexts`
    /// contexts are occupied; the workload is not attached.
    pub fn attach(&mut self, workload: Workload) -> Result<ThreadId, SimError> {
        let (tid, program) = self.screen_next(workload)?;
        self.cpu.attach_thread(program);
        Ok(tid)
    }

    /// Admits `workload` to the next hardware context of an adopted core
    /// (see [`Simulator::try_with_core`]), which already runs its program:
    /// the admission screen and its reports exactly as [`Simulator::attach`]
    /// files them, without touching the core.
    pub(crate) fn admit(&mut self, workload: Workload) -> Result<ThreadId, SimError> {
        self.screen_next(workload).map(|(tid, _)| tid)
    }

    /// The admission half of [`Simulator::attach`]: builds `workload`'s
    /// program for the next free context, screens it, and records the
    /// verdict's report.
    fn screen_next(&mut self, workload: Workload) -> Result<(ThreadId, Program), SimError> {
        if self.names.len() as u32 >= self.cfg.cpu.contexts {
            return Err(SimError::TooManyWorkloads {
                requested: self.names.len() + 1,
                contexts: self.cfg.cpu.contexts,
            });
        }
        let program = workload.program_with(&self.cfg.mem, self.cfg.time_scale);
        let tid = ThreadId(self.names.len() as u8);
        if self.cfg.admission == AdmissionMode::Warn {
            let analysis = screen(&program, &self.cfg);
            if analysis.verdict != Verdict::Benign {
                self.admission_reports.push(OsReport {
                    cycle: 0,
                    thread: Some(tid),
                    block: analysis.hottest_block,
                    kind: ReportKind::AdmissionFlagged,
                    weighted_avg: Some(analysis.int_regfile_rate),
                    temperature_k: analysis.est_temp_k,
                });
            }
        }
        self.names.push(workload.name());
        Ok((tid, program))
    }

    /// The core, for cloning after [`Simulator::warm_up`].
    pub(crate) fn core(&self) -> &Cpu {
        &self.cpu
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Aggregate cache-hierarchy statistics since construction (warm-up
    /// included), for accesses-per-second throughput figures.
    #[must_use]
    pub fn mem_stats(&self) -> hs_mem::LevelStats {
        self.cpu.mem_stats()
    }

    /// Thermal-integrator substeps taken since construction; `0` on the
    /// ideal heat sink (no network is stepped at all).
    #[must_use]
    pub fn thermal_substeps(&self) -> u64 {
        self.thermal
            .as_ref()
            .map_or(0, ThermalNetwork::substeps_taken)
    }

    /// Routes issue through the core's select oracle (a plain walk over the
    /// live window) instead of the ready bitmap, with idle skipping off.
    /// Differential-test hook only: both paths must produce bit-identical
    /// statistics.
    #[doc(hidden)]
    pub fn set_reference_issue(&mut self, on: bool) {
        self.cpu.set_reference_issue(on);
    }

    /// Runs the warm-up phase plus one measured quantum and returns its
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics if no workload has been attached.
    pub fn run_quantum(&mut self) -> SimStats {
        match self.try_run_quantum() {
            Ok(stats) => stats,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs the warm-up phase plus one measured quantum.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoWorkloads`] if nothing has been attached.
    pub fn try_run_quantum(&mut self) -> Result<SimStats, SimError> {
        self.try_run_quantum_with(unobserved)
    }

    /// [`Simulator::try_run_quantum`] that calls `on_sample` at every
    /// monitor sample of the measured quantum, right after the DTM
    /// decision. The hook only observes: the returned statistics are
    /// those of [`Simulator::try_run_quantum`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoWorkloads`] if nothing has been attached.
    pub fn try_run_quantum_with(
        &mut self,
        on_sample: impl FnMut(&Sample<'_>),
    ) -> Result<SimStats, SimError> {
        if self.names.is_empty() {
            return Err(SimError::NoWorkloads);
        }
        self.warm_up();
        Ok(self.run_measured(on_sample))
    }

    /// The warm-up phase: caches and predictors, no DTM, no thermal, every
    /// fetch gate open. Its outcome depends only on the core's
    /// configuration, its programs and the warm-up length — the campaign
    /// engine's warm-up identity.
    pub(crate) fn warm_up(&mut self) {
        IdleProbe::new().tick_span(&mut self.cpu, FetchGate::open(), self.cfg.warmup_cycles);
        let _ = self.cpu.take_access_counts();
    }

    /// The measured phase: one quantum of pipeline, power, thermal and
    /// DTM, starting from the core as [`Simulator::warm_up`] left it, with
    /// `on_sample` called at every monitor sample.
    pub(crate) fn run_measured(&mut self, mut on_sample: impl FnMut(&Sample<'_>)) -> SimStats {
        let nthreads = self.cpu.num_threads();
        let quantum = self.cfg.quantum_cycles;
        let sample = self.cfg.sedation.sample_period_cycles;
        let sensor = self.cfg.sensor_interval_cycles;
        let sensor_dt = sensor as f64 / self.cfg.freq_hz;
        let emergency_k = self.cfg.sedation.thresholds.emergency_k;
        let committed_base: Vec<u64> = (0..nthreads)
            .map(|t| self.cpu.thread_stats(ThreadId(t as u8)).committed)
            .collect();

        // ---- Thermal pre-warm: steady state of a typical load. ----
        let ambient = self.cfg.thermal.ambient_k;
        let mut temps = [ambient; NUM_BLOCKS];
        if let Some(net) = &mut self.thermal {
            // A slightly-below-normal operating point: warm package, but
            // safely under the DTM thresholds so the first trigger happens
            // only after the monitors have real history.
            let nominal = calibration::chip_power(&self.model, 2.5, 1.0, self.cfg.freq_hz);
            net.initialize_steady_state(&nominal);
            temps = net.block_temps();
        }

        // ---- Measured quantum. ----
        let mut gate = FetchGate::open();
        let mut global_stall = false;
        let mut power_accum = AccessMatrix::new();
        let mut breakdowns = vec![ThreadBreakdown::default(); nthreads];
        let mut regfile_accesses = vec![0u64; nthreads];
        let mut peak_temps = temps;
        let mut above_emergency = [false; NUM_BLOCKS];
        let mut emergencies = 0u64;
        let mut sensor_valid = ALL_SENSORS_VALID;

        // ---- Interval mode (DESIGN.md §3d). ----
        // Fault schedules demand cycle-level fidelity around their firing
        // cycles; rather than track proximity, any configured fault keeps
        // the whole run cycle-accurate.
        let mut interval = (self.cfg.exec == ExecMode::Interval && self.cfg.faults.is_empty())
            .then(|| IntervalDriver::new(&self.cpu, self.cfg.interval.aggregate_samples));
        // True block temperatures as of the last sensor step, for the
        // thermal guard (sensor *readings* may be faulted or noisy; the
        // guard must consult physics).
        let mut truth_temps = temps;
        let guard_limit = self.cfg.sedation.thresholds.normal_k - GUARD_K;
        let mut fast_forwarded = 0u64;
        // Whether every span since the last sensor step was credited; only
        // then is the power history exactly phase-constant and the thermal
        // state advanced in closed form instead of stepped.
        let mut sensor_all_credited = true;

        // The loop runs in spans of constant DTM state: `gate` and
        // `global_stall` can only change at sampling instants, so each span
        // stretches from the cycle after one sampling instant to the next
        // (or to the quantum end). Stalled spans are accounted in bulk, and
        // executing spans fast-forward through provably idle stall windows
        // (`Cpu::idle_bound`) instead of ticking cycle by cycle.
        let mut cycle = 1u64;
        let mut probe = IdleProbe::new();
        while cycle <= quantum {
            let span_end = (cycle.div_ceil(sample) * sample).min(quantum);
            let span = span_end - cycle + 1;
            // A span may be fast-forwarded only when nothing the credited
            // profile cannot represent is in play: free-running execution
            // (no gates, no stall), a full sample period, and every block
            // cold enough that no temperature-driven DTM decision is near.
            // The driver decides whether such a span is credited.
            let credited = interval.as_mut().is_some_and(|driver| {
                let eligible = !global_stall
                    && !gate.any_gated()
                    && span == sample
                    && span_end.is_multiple_of(sample)
                    && truth_temps.iter().all(|&t| t < guard_limit);
                driver.try_credit(&mut self.cpu, eligible)
            });
            if credited {
                for b in &mut breakdowns {
                    b.normal_cycles += span;
                }
                fast_forwarded += span;
            } else if global_stall {
                for b in &mut breakdowns {
                    b.global_stall_cycles += span;
                }
            } else {
                probe.tick_span(&mut self.cpu, gate, span);
                for (t, b) in breakdowns.iter_mut().enumerate() {
                    if gate.is_gated(ThreadId(t as u8)) {
                        b.sedated_cycles += span;
                    } else {
                        b.normal_cycles += span;
                    }
                }
            }
            cycle = span_end;
            sensor_all_credited &= credited;

            if !cycle.is_multiple_of(sample) {
                cycle += 1;
                continue;
            }

            // Monitor sampling instant.
            let counts = self.cpu.take_access_counts();
            if let Some(driver) = &mut interval {
                driver.end_sample(&self.cpu, &counts, credited);
            }
            let mut block_counts = BlockCounts::new();
            for (t, regfile_acc) in regfile_accesses.iter_mut().enumerate().take(nthreads) {
                let tid = ThreadId(t as u8);
                *regfile_acc += counts.get(tid, Resource::IntRegFile);
                for r in ALL_RESOURCES {
                    let n = counts.get(tid, r);
                    if n > 0 {
                        block_counts.add(t, resource_block(r), n);
                    }
                }
            }
            power_accum.merge(&counts);
            // Counter faults corrupt what the monitors see; the power model
            // above integrates the *true* activity (heat does not care what
            // a broken counter reports).
            self.cfg
                .faults
                .counters
                .apply(cycle, sample, &mut block_counts);

            let sensor_fresh = cycle.is_multiple_of(sensor);
            if sensor_fresh {
                if let Some(net) = &mut self.thermal {
                    let power = self.model.power(&power_accum, sensor, self.cfg.freq_hz);
                    power_accum.clear();
                    if sensor_all_credited {
                        // Every span of this interval was extrapolated
                        // from the stable phase profile, so the power was
                        // phase-constant by construction: advance the RC
                        // response in closed form (O(1) in the interval).
                        net.advance_closed_form(sensor_dt, &power);
                    } else {
                        net.step(sensor_dt, &power);
                    }
                    // Policies see sensor *readings*; the emergency count
                    // and peaks below track physical truth.
                    let frame = self.sensors.read_at(cycle, net);
                    temps = frame.values;
                    sensor_valid = frame.valid;
                    let truth = net.block_temps();
                    truth_temps = truth;
                    for b in ALL_BLOCKS {
                        let i = b.index();
                        peak_temps[i] = peak_temps[i].max(truth[i]);
                        let above = truth[i] >= emergency_k;
                        if above && !above_emergency[i] {
                            emergencies += 1;
                        }
                        above_emergency[i] = above;
                    }
                } else {
                    power_accum.clear();
                }
                sensor_all_credited = true;
            }

            let decision = self.policy.on_sample(&DtmInput {
                cycle,
                block_temps: &temps,
                sensor_valid: &sensor_valid,
                sensor_fresh,
                counts: &block_counts,
                global_stalled: global_stall,
            });
            let (prev_gate, prev_stall) = (gate, global_stall);
            global_stall = decision.global_stall;
            gate = decision.gate;
            on_sample(&Sample {
                cycle,
                sensor_fresh,
                thermal: self.thermal.as_ref(),
                counts: &counts,
                gate,
                global_stall,
            });
            // Any DTM state change invalidates the phase profile (e.g. a
            // sedated thread waking re-enters cycle level until a new
            // phase is confirmed).
            if let Some(driver) = &mut interval {
                if gate != prev_gate || global_stall != prev_stall {
                    driver.reset();
                }
            }
            cycle += 1;
        }

        // ---- Collect. ----
        // Admission reports happened "before cycle 0": they lead the list.
        let mut reports = self.admission_reports.clone();
        reports.extend(self.policy.take_reports());
        let threads = (0..nthreads)
            .map(|t| {
                let tid = ThreadId(t as u8);
                let committed = self.cpu.thread_stats(tid).committed - committed_base[t];
                ThreadSummary {
                    name: self.names[t].to_string(),
                    committed,
                    ipc: committed as f64 / quantum as f64,
                    int_regfile_rate: regfile_accesses[t] as f64 / quantum as f64,
                    breakdown: breakdowns[t],
                    sedations: reports
                        .iter()
                        .filter(|r| r.kind == ReportKind::Sedated && r.thread == Some(tid))
                        .count() as u64,
                }
            })
            .collect();
        SimStats {
            cycles: quantum,
            threads,
            emergencies,
            peak_temps,
            reports,
            policy: self.policy.name().to_string(),
            fast_forwarded_cycles: fast_forwarded,
        }
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("policy", &self.policy.name())
            .field("threads", &self.names)
            .field("quantum_cycles", &self.cfg.quantum_cycles)
            .finish_non_exhaustive()
    }
}
