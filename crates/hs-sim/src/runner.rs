//! Experiment specification: the builder-based [`RunSpec`] API.
//!
//! A [`RunSpec`] describes one experiment — a set of co-scheduled workloads
//! under a DTM policy and a package model. Construction goes through
//! [`RunSpec::builder`] (or the [`RunSpec::solo`]/[`RunSpec::pair`]
//! shorthands for the paper's common shapes); execution through the
//! fallible [`RunSpec::try_run`] or the thin panicking wrapper
//! [`RunSpec::run`].
//!
//! ```no_run
//! use hs_sim::{RunSpec, SimConfig, PolicyKind, HeatSink};
//! use hs_workloads::{Workload, SpecWorkload};
//!
//! let stats = RunSpec::builder()
//!     .workload(Workload::Spec(SpecWorkload::Gcc))
//!     .workload(Workload::Variant2)
//!     .policy(PolicyKind::SelectiveSedation)
//!     .sink(HeatSink::Realistic)
//!     .config(SimConfig::experiment())
//!     .build()
//!     .expect("a valid spec")
//!     .run();
//! println!("victim IPC: {:.2}", stats.thread(0).ipc);
//! ```

use crate::config::{FaultConfig, HeatSink, PolicyKind, SimConfig};
use crate::error::SimError;
use crate::simulator::Simulator;
use crate::stats::SimStats;
use hs_cpu::Cpu;
use hs_workloads::Workload;

/// One experiment: a set of co-scheduled workloads under a policy/package.
///
/// A constructed `RunSpec` is always executable: every constructor
/// validates the workload count, the configuration, and the policy/package
/// combination, so [`RunSpec::try_run`] can only fail if the spec was
/// mutated through [`RunSpec::with_config`]-style edits into an invalid
/// state — and then it reports rather than panics.
#[derive(Debug, Clone)]
pub struct RunSpec {
    workloads: Vec<Workload>,
    policy: PolicyKind,
    sink: HeatSink,
    config: SimConfig,
}

/// Builder for [`RunSpec`]; see [`RunSpec::builder`].
#[derive(Debug, Clone)]
pub struct RunSpecBuilder {
    workloads: Vec<Workload>,
    policy: PolicyKind,
    sink: HeatSink,
    config: SimConfig,
    faults: Option<FaultConfig>,
}

impl Default for RunSpecBuilder {
    fn default() -> Self {
        RunSpecBuilder {
            workloads: Vec::new(),
            policy: PolicyKind::SelectiveSedation,
            sink: HeatSink::Realistic,
            config: SimConfig::default(),
            faults: None,
        }
    }
}

impl RunSpecBuilder {
    /// Appends one workload (attach order = thread id).
    #[must_use]
    pub fn workload(mut self, w: Workload) -> Self {
        self.workloads.push(w);
        self
    }

    /// Appends several workloads in order.
    #[must_use]
    pub fn workloads(mut self, ws: impl IntoIterator<Item = Workload>) -> Self {
        self.workloads.extend(ws);
        self
    }

    /// Sets the supervising DTM policy (default: selective sedation).
    #[must_use]
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the package model (default: realistic).
    #[must_use]
    pub fn sink(mut self, sink: HeatSink) -> Self {
        self.sink = sink;
        self
    }

    /// Sets the simulation parameters (default: [`SimConfig::experiment`]).
    #[must_use]
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the fault-injection schedules, overriding whatever the config
    /// carries (default: keep `config.faults`).
    #[must_use]
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Validates and builds the spec.
    ///
    /// # Errors
    ///
    /// * [`SimError::NoWorkloads`] with an empty workload list,
    /// * [`SimError::TooManyWorkloads`] beyond `config.cpu.contexts`,
    /// * [`SimError::RunawayCombination`] for no-DTM on a realistic sink,
    /// * [`SimError::Config`] if the configuration fails validation.
    pub fn build(self) -> Result<RunSpec, SimError> {
        let mut config = self.config;
        if let Some(faults) = self.faults {
            config.faults = faults;
        }
        let spec = RunSpec {
            workloads: self.workloads,
            policy: self.policy,
            sink: self.sink,
            config,
        };
        spec.preflight()?;
        Ok(spec)
    }
}

impl RunSpec {
    /// Starts building a spec.
    #[must_use]
    pub fn builder() -> RunSpecBuilder {
        RunSpecBuilder::default()
    }

    /// A solo run of one workload.
    ///
    /// # Panics
    ///
    /// Panics if the combination is invalid (see [`RunSpecBuilder::build`]).
    #[must_use]
    pub fn solo(w: Workload, policy: PolicyKind, sink: HeatSink, config: SimConfig) -> Self {
        match Self::builder()
            .workload(w)
            .policy(policy)
            .sink(sink)
            .config(config)
            .build()
        {
            Ok(spec) => spec,
            Err(e) => panic!("{e}"),
        }
    }

    /// A two-thread SMT run.
    ///
    /// # Panics
    ///
    /// Panics if the combination is invalid (see [`RunSpecBuilder::build`]).
    #[must_use]
    pub fn pair(
        a: Workload,
        b: Workload,
        policy: PolicyKind,
        sink: HeatSink,
        config: SimConfig,
    ) -> Self {
        match Self::builder()
            .workload(a)
            .workload(b)
            .policy(policy)
            .sink(sink)
            .config(config)
            .build()
        {
            Ok(spec) => spec,
            Err(e) => panic!("{e}"),
        }
    }

    /// The workloads, one per hardware context (attach order = thread id).
    #[must_use]
    pub fn workloads(&self) -> &[Workload] {
        &self.workloads
    }

    /// The supervising DTM policy.
    #[must_use]
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// The package model.
    #[must_use]
    pub fn sink(&self) -> HeatSink {
        self.sink
    }

    /// The simulation parameters.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// A copy with the configuration replaced (workload/policy/sink kept).
    /// The edited config is re-checked at [`RunSpec::try_run`] time.
    #[must_use]
    pub fn with_config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Checks that this spec can execute, without running it.
    ///
    /// # Errors
    ///
    /// The same conditions as [`RunSpecBuilder::build`].
    pub fn preflight(&self) -> Result<(), SimError> {
        self.config.try_validate()?;
        if self.workloads.is_empty() {
            return Err(SimError::NoWorkloads);
        }
        if self.workloads.len() > self.config.cpu.contexts as usize {
            return Err(SimError::TooManyWorkloads {
                requested: self.workloads.len(),
                contexts: self.config.cpu.contexts,
            });
        }
        if self.policy == PolicyKind::None && self.sink == HeatSink::Realistic {
            return Err(SimError::RunawayCombination);
        }
        Ok(())
    }

    /// Executes the experiment: warm-up plus one measured quantum.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] found by [`RunSpec::preflight`];
    /// a spec that passes preflight always runs to completion.
    pub fn try_run(&self) -> Result<SimStats, SimError> {
        self.preflight()?;
        self.simulator(None)?.try_run_quantum()
    }

    /// This run's simulator, on a fresh core with the workloads attached,
    /// or on `warm`: a core that already ran this run's warm-up (same
    /// [`WarmupKey`](crate::executor::WarmupKey)), with the workloads only
    /// admitted.
    pub(crate) fn simulator(&self, warm: Option<Cpu>) -> Result<Simulator, SimError> {
        let adopted = warm.is_some();
        let mut sim = Simulator::try_with_core(self.config, self.policy, self.sink, warm)?;
        for &w in &self.workloads {
            if adopted {
                sim.admit(w)?;
            } else {
                sim.attach(w)?;
            }
        }
        Ok(sim)
    }

    /// Executes the experiment: warm-up plus one measured quantum.
    ///
    /// # Panics
    ///
    /// Panics where [`RunSpec::try_run`] would return an error.
    #[must_use]
    pub fn run(&self) -> SimStats {
        match self.try_run() {
            Ok(stats) => stats,
            Err(e) => panic!("{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_workloads::SpecWorkload;

    /// A very fast configuration for unit tests: heavy time scaling.
    fn fast() -> SimConfig {
        let mut c = SimConfig::scaled(400.0);
        c.warmup_cycles = 300_000;
        c
    }

    #[test]
    fn solo_run_produces_sane_stats() {
        let stats = RunSpec::solo(
            Workload::Spec(SpecWorkload::Gcc),
            PolicyKind::StopAndGo,
            HeatSink::Realistic,
            fast(),
        )
        .run();
        assert_eq!(stats.threads.len(), 1);
        let t = stats.thread(0);
        assert!(t.ipc > 0.1, "ipc {}", t.ipc);
        assert!(t.int_regfile_rate > 0.1);
        assert_eq!(
            t.breakdown.sedated_cycles, 0,
            "solo threads are never sedated"
        );
        assert_eq!(t.breakdown.total(), stats.cycles);
        assert_eq!(stats.policy, "stop-and-go");
    }

    #[test]
    fn ideal_sink_never_intervenes() {
        let stats = RunSpec::pair(
            Workload::Spec(SpecWorkload::Gcc),
            Workload::Variant1,
            PolicyKind::StopAndGo,
            HeatSink::Ideal,
            fast(),
        )
        .run();
        assert_eq!(stats.emergencies, 0);
        for t in &stats.threads {
            assert_eq!(t.breakdown.global_stall_cycles, 0);
            assert_eq!(t.breakdown.sedated_cycles, 0);
        }
    }

    #[test]
    fn attacker_under_realistic_sink_causes_emergencies() {
        let stats = RunSpec::pair(
            Workload::Spec(SpecWorkload::Gcc),
            Workload::Variant2,
            PolicyKind::StopAndGo,
            HeatSink::Realistic,
            fast(),
        )
        .run();
        assert!(stats.emergencies > 0, "variant2 must trip emergencies");
        assert!(
            stats.thread(0).breakdown.global_stall_cycles > 0,
            "stop-and-go must stall the victim too"
        );
        assert!(stats.peak_temp() >= 358.5);
    }

    #[test]
    fn sedation_gates_the_attacker_not_the_victim() {
        let stats = RunSpec::builder()
            .workload(Workload::Spec(SpecWorkload::Gcc))
            .workload(Workload::Variant2)
            .policy(PolicyKind::SelectiveSedation)
            .sink(HeatSink::Realistic)
            .config(fast())
            .build()
            .expect("valid spec")
            .run();
        let victim = stats.thread(0);
        let attacker = stats.thread(1);
        assert!(attacker.sedations > 0, "attacker must be sedated");
        assert!(
            attacker.breakdown.sedated_cycles > 10 * victim.breakdown.sedated_cycles,
            "sedation must fall on the attacker (attacker {} vs victim {})",
            attacker.breakdown.sedated_cycles,
            victim.breakdown.sedated_cycles
        );
    }

    #[test]
    fn builder_rejects_bad_specs_with_typed_errors() {
        let err = RunSpec::builder().config(fast()).build().unwrap_err();
        assert_eq!(err, SimError::NoWorkloads);

        let err = RunSpec::builder()
            .workloads([Workload::Variant1, Workload::Variant2, Workload::Variant3])
            .config(fast())
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::TooManyWorkloads {
                requested: 3,
                contexts: 2
            }
        ));

        let err = RunSpec::builder()
            .workload(Workload::Variant1)
            .policy(PolicyKind::None)
            .sink(HeatSink::Realistic)
            .config(fast())
            .build()
            .unwrap_err();
        assert_eq!(err, SimError::RunawayCombination);

        let mut bad = fast();
        bad.freq_hz = -1.0;
        let err = RunSpec::builder()
            .workload(Workload::Variant1)
            .config(bad)
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::Config(_)));
    }

    #[test]
    fn builder_faults_override_config() {
        use hs_thermal::{Block, SensorFault, SensorFaultKind, SensorFaultPlan};
        let faults = FaultConfig {
            sensors: SensorFaultPlan::seeded(1).with(SensorFault {
                block: Block::IntReg,
                kind: SensorFaultKind::Dropout,
                from_cycle: 0,
                until_cycle: u64::MAX,
            }),
            ..FaultConfig::none()
        };
        let spec = RunSpec::builder()
            .workload(Workload::Variant1)
            .config(fast())
            .faults(faults)
            .build()
            .expect("valid spec");
        assert_eq!(spec.config().faults.len(), 1);
    }

    #[test]
    fn mutated_spec_fails_try_run_not_panic() {
        let mut bad = fast();
        bad.quantum_cycles = 1; // shorter than one sensor interval
        let spec = RunSpec::solo(
            Workload::Variant1,
            PolicyKind::StopAndGo,
            HeatSink::Ideal,
            fast(),
        )
        .with_config(bad);
        assert!(matches!(spec.try_run(), Err(SimError::Config(_))));
    }
}
